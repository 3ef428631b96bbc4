import ast
import os
import random
import subprocess
import sys
from math import lcm
from pathlib import Path

import pytest

from hochkit.algebra import (
    Algebra, DictSC, SerreData, center_basis, commutator_subspace, enveloping,
    group_algebra, matrix_algebra, opposite, product_table, regular_trace, tensor, trace_form,
    truncated_poly, validate,
)
from hochkit.errors import (
    AlgebraDefect, DegenerateFrobeniusForm, HochkitError, ModuleDefect, NotAGroup,
    NotAssociative, UnitLawFails,
)
from hochkit.fixtures import (
    ALL_GROUP_FIXTURES, algebra_fixture, cyclic_group, rep_from_generators,
)
from hochkit.linalg import SparseMatrix, rref, unit_vector, vec
from hochkit.modules import ModuleRep, simples_of
from hochkit.scalars import ONE, ZERO, cyc, zeta


def conjugacy_class_count(table):
    """Independent oracle: orbit count of the conjugation action."""
    n = len(table)
    identity = next(e for e in range(n)
                    if all(table[e][g] == g == table[g][e] for g in range(n)))
    inv = [next(h for h in range(n) if table[g][h] == identity) for g in range(n)]
    seen = set()
    classes = 0
    for g in range(n):
        if g in seen:
            continue
        classes += 1
        for h in range(n):
            seen.add(table[table[h][g]][inv[h]])
    return classes


def test_group_algebra_z2():
    a = algebra_fixture("zn:2")
    assert a.dim == 2
    assert a.serre.functional == vec([1, 0])    # lambda(1) = 1, lambda(s) = 0


def test_group_algebra_class_counts():
    for name, expected in [("s3", 3), ("q8", 5), ("d4", 5), ("a4", 4)]:
        a = algebra_fixture(name)
        table = a.provenance[2]
        assert conjugacy_class_count(table) == expected
        assert center_basis(a).rows == expected


def test_not_a_group_witness():
    with pytest.raises(NotAGroup):
        group_algebra([[0, 1], [1, 1]])  # no inverses for 1
    with pytest.raises(NotAGroup):
        group_algebra([[0, 0], [0, 0]])  # no identity
    # the element 2 of Z/4 generates only {0, 2}
    with pytest.raises(NotAGroup, match=r"generators \[2\] given for 'x' reach only 2 of the 4"):
        rep_from_generators(algebra_fixture("zn:4"), [2], [SparseMatrix.identity(1)], 1, "x")


def test_validate_unit_defect():
    # c(x, x) = y, c(x, y) = x with no working unit
    sc = DictSC({(0, 0): {1: ONE}, (0, 1): {0: ONE},
                 (1, 0): {0: ONE}, (1, 1): {1: ONE}})
    with pytest.raises(UnitLawFails):
        Algebra(2, sc, unit_vector(2, 0), provenance=("custom",))


def test_octonion_table_is_not_associative():
    # Cayley multiplication on basis e0..e7 via the Fano-plane triples;
    # a unital but non-associative table, rejected with a witness triple
    triples = [(1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6),
               (2, 5, 7), (3, 4, 7), (3, 6, 5)]
    table = {}
    for i in range(8):
        table[(0, i)] = {i: ONE}
        table[(i, 0)] = {i: ONE}
    for i in range(1, 8):
        table[(i, i)] = {0: -ONE}
    for a, b, c in triples:
        for x, y, z in [(a, b, c), (b, c, a), (c, a, b)]:
            table[(x, y)] = {z: ONE}
            table[(y, x)] = {z: -ONE}
    with pytest.raises(NotAssociative) as exc:
        Algebra(8, DictSC(table), unit_vector(8, 0), provenance=("custom",))
    i, j, k = exc.value.triple
    assert 0 not in (i, j, k)  # associativity only fails away from the unit


def test_validate_not_associative():
    # unital but (e1 e1) e1 != e1 (e1 e1): e1*e1 = e0, with a twist breaking it
    sc = DictSC({(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE},
                 (1, 1): {0: ONE, 1: ONE}, })
    # (e1 e1) e1 = (e0 + e1) e1 = e1 + e0 + e1 = e0 + 2 e1
    # e1 (e1 e1) = e1 (e0 + e1) = e1 + e0 + e1  -> associative; distort instead
    sc2 = DictSC({(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE},
                  (1, 1): {0: ONE}, })
    Algebra(2, sc2, unit_vector(2, 0), provenance=("custom",))  # fine: Z/2-like
    sc3 = DictSC({(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE},
                  (1, 1): {1: ONE}, })
    # now (e1 e1) e1 = e1 but e1 (e1 e1) = e1: still associative.  Use a
    # genuinely non-associative table on dim 3:
    sc4 = DictSC({(0, 0): {0: ONE}, (0, 1): {1: ONE}, (0, 2): {2: ONE},
                  (1, 0): {1: ONE}, (2, 0): {2: ONE},
                  (1, 1): {2: ONE}, (1, 2): {0: ONE}, (2, 1): {1: ONE},
                  (2, 2): {1: ONE}})
    with pytest.raises(NotAssociative) as exc:
        Algebra(3, sc4, unit_vector(3, 0), provenance=("custom",))
    assert len(exc.value.triple) == 3


def test_validate_catches_non_associativity_off_the_generator_triples():
    # unit e0, x = e1, y = e2; x kills x and y, y y = x and y x = y, so
    # (y y) y = 0 but y (y y) = y, while every triple led by x associates
    sc = DictSC({(0, 0): {0: ONE}, (0, 1): {1: ONE}, (0, 2): {2: ONE}, (1, 0): {1: ONE},
                 (2, 0): {2: ONE}, (2, 1): {2: ONE}, (2, 2): {1: ONE}})
    x, y = unit_vector(3, 1), unit_vector(3, 2)
    with pytest.raises(AlgebraDefect, match="span 2 of 3"):  # words in x alone
        Algebra(3, sc, unit_vector(3, 0), gens=[x])
    with pytest.raises(NotAssociative, match="generator 1") as exc:
        Algebra(3, sc, unit_vector(3, 0), gens=[x, y])
    assert exc.value.triple[0] == 1


def test_matrix_algebra():
    m1 = matrix_algebra(1)
    assert m1.dim == 1
    m2 = matrix_algebra(2)
    assert center_basis(m2).rows == 1
    m3 = matrix_algebra(3)
    # commutator subspace of M_3 = traceless matrices, dim 8
    assert commutator_subspace(m3).rows == 8


def test_truncated_poly():
    d = truncated_poly(2)
    assert d.dim == 2 and d.serre is None
    t = truncated_poly(3)
    assert center_basis(t).rows == 3          # commutative
    assert commutator_subspace(t).rows == 0
    x = unit_vector(3, 1)
    x2 = t.mul(x, unit_vector(3, 2))          # x * x^2 = 0
    assert all(not c for c in x2)


def test_opposite_of_commutative_is_same():
    a = algebra_fixture("zn:4")
    b = opposite(a)
    assert all(a.sc.product(i, j) == b.sc.product(i, j)
               for i in range(4) for j in range(4))


def test_tensor_dims_and_center():
    a = algebra_fixture("zn:2")
    b = algebra_fixture("s3")
    t = tensor(a, b)
    assert t.dim == 12
    assert center_basis(t).rows == center_basis(a).rows * center_basis(b).rows


def test_enveloping_of_z2_is_klein_group_algebra():
    # oracle: the Klein four-group table written down directly, with the
    # element order matching the (i, j) -> 2i + j tensor index convention
    env = enveloping(algebra_fixture("zn:2"))
    klein_table = [[((a >> 1) ^ (b >> 1)) * 2 + ((a ^ b) & 1)
                    for b in range(4)] for a in range(4)]
    klein = group_algebra(klein_table, name="klein")
    assert env.dim == 4
    assert env.unit == klein.unit
    assert all(env.sc.product(i, j) == klein.sc.product(i, j)
               for i in range(4) for j in range(4))


def test_validate_passes_on_all_fixtures():
    for name in ["zn:2", "zn:5", "s3", "d4", "q8", "a4", "mat:2", "mat:3",
                 "dual", "trunc:4", "tensor(zn:2,zn:3)", "env(zn:2)",
                 "op(s3)", "tensor(mat:2,zn:2)"]:
        validate(algebra_fixture(name))


# name -> (labels, identity, generator indices, simples); a simple is its
# name, dimension and matrices on the generators, entries in scalar syntax
_FIXTURE_PINS = {
    "zn:1": (["e"], 0, [0], [("chi0", 1, [[["1"]]])]),
    "zn:2": (["e", "g"], 0, [1], [("chi0", 1, [[["1"]]]), ("chi1", 1, [[["-1"]]])]),
    "zn:3": (["e", "g", "g^2"], 0, [1], [
        ("chi0", 1, [[["1"]]]),
        ("chi1", 1, [[["z3^1"]]]),
        ("chi2", 1, [[["-1 - z3^1"]]]),
    ]),
    "zn:4": (["e", "g", "g^2", "g^3"], 0, [1], [
        ("chi0", 1, [[["1"]]]),
        ("chi1", 1, [[["z4^1"]]]),
        ("chi2", 1, [[["-1"]]]),
        ("chi3", 1, [[["-z4^1"]]]),
    ]),
    "zn:5": (["e", "g", "g^2", "g^3", "g^4"], 0, [1], [
        ("chi0", 1, [[["1"]]]),
        ("chi1", 1, [[["z5^1"]]]),
        ("chi2", 1, [[["z5^2"]]]),
        ("chi3", 1, [[["z5^3"]]]),
        ("chi4", 1, [[["-1 - z5^1 - z5^2 - z5^3"]]]),
    ]),
    "zn:6": (["e", "g", "g^2", "g^3", "g^4", "g^5"], 0, [1], [
        ("chi0", 1, [[["1"]]]),
        ("chi1", 1, [[["1 + z3^1"]]]),
        ("chi2", 1, [[["z3^1"]]]),
        ("chi3", 1, [[["-1"]]]),
        ("chi4", 1, [[["-1 - z3^1"]]]),
        ("chi5", 1, [[["-z3^1"]]]),
    ]),
    "s3": (["e", "(12)", "(123)", "(23)", "(13)", "(132)"], 0, [1, 2], [
        ("triv", 1, [[["1"]], [["1"]]]),
        ("sign", 1, [[["-1"]], [["1"]]]),
        ("std", 2, [[["0", "1"], ["1", "0"]], [["0", "-1"], ["1", "-1"]]]),
    ]),
    "d4": (["e", "(1234)", "(12)(34)", "(13)(24)", "(13)", "(24)", "(1432)", "(14)(23)"],
           0, [1, 2], [
        ("triv", 1, [[["1"]], [["1"]]]),
        ("chi_s", 1, [[["1"]], [["-1"]]]),
        ("chi_r", 1, [[["-1"]], [["1"]]]),
        ("chi_rs", 1, [[["-1"]], [["-1"]]]),
        ("std", 2, [[["0", "-1"], ["1", "0"]], [["1", "0"], ["0", "-1"]]]),
    ]),
    "q8": (["1", "-1", "i", "-i", "j", "-j", "k", "-k"], 0, [2, 4], [
        ("triv", 1, [[["1"]], [["1"]]]),
        ("chi_j", 1, [[["1"]], [["-1"]]]),
        ("chi_i", 1, [[["-1"]], [["1"]]]),
        ("chi_ij", 1, [[["-1"]], [["-1"]]]),
        ("std", 2, [[["z4^1", "0"], ["0", "-z4^1"]], [["0", "-1"], ["1", "0"]]]),
    ]),
    "a4": (["e", "(12)(34)", "(123)", "(124)", "(13)(24)", "(132)", "(134)", "(14)(23)",
            "(142)", "(143)", "(234)", "(243)"], 0, [1, 2], [
        ("triv", 1, [[["1"]], [["1"]]]),
        ("omega", 1, [[["1"]], [["z3^1"]]]),
        ("omega2", 1, [[["1"]], [["-1 - z3^1"]]]),
        ("std", 3, [[["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]],
                    [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]]),
    ]),
}


@pytest.mark.parametrize("name", sorted(_FIXTURE_PINS))
def test_bundled_group_fixtures_keep_their_elements_and_simples(name):
    a = algebra_fixture(name)
    gens = [g.index(ONE) for g in a.gens]
    simples = [(s.name, s.dim, [[[repr(s.action[g].entry(r, c)) for c in range(s.dim)]
                                 for r in range(s.dim)] for g in gens])
               for s in simples_of(a)]
    assert (list(a.labels), a.provenance[3], gens, simples) == _FIXTURE_PINS[name]


@pytest.mark.parametrize("name", ALL_GROUP_FIXTURES + ("mat:3", "trunc:3", "tensor(zn:3,zn:4)"))
def test_center_rows_are_central(name):
    # oracle: each row commutes with every basis element, by dense products
    a = algebra_fixture(name)
    z = center_basis(a)
    assert rref(z) == z and z is center_basis(a)
    for r in range(z.rows):
        v = z.row_vector(r)
        for i in range(a.dim):
            e = a.basis_vector(i)
            assert a.mul(v, e) == a.mul(e, v), (r, i)
    if a.provenance[0] == "group":
        assert z.rows == conjugacy_class_count(a.provenance[2])


def test_center_plus_commutator_dim_for_semisimple():
    for name in ["zn:3", "s3", "d4", "q8", "a4", "mat:2"]:
        a = algebra_fixture(name)
        assert center_basis(a).rows + commutator_subspace(a).rows == a.dim


def test_regular_trace_group_algebra():
    for name in ["zn:4", "s3", "q8"]:
        a = algebra_fixture(name)
        assert regular_trace(a, a.unit) == cyc(a.dim)
        # off-identity group elements have regular trace 0 (permutation
        # matrices with no fixed point)
        identity = a.provenance[3]
        for g in range(a.dim):
            if g != identity:
                assert regular_trace(a, unit_vector(a.dim, g)) == ZERO


def test_regular_trace_matrix_unit():
    m2 = matrix_algebra(2)
    e11 = unit_vector(4, 0)
    assert regular_trace(m2, e11) == cyc(2)


def test_regular_trace_symmetry_on_group_algebras():
    import random
    rng = random.Random(3)
    for name in ["s3", "q8"]:
        a = algebra_fixture(name)
        for _ in range(10):
            x = vec([rng.randint(-2, 2) for _ in range(a.dim)])
            y = vec([rng.randint(-2, 2) for _ in range(a.dim)])
            assert regular_trace(a, a.mul(x, y)) == regular_trace(a, a.mul(y, x))


def test_field_order_is_group_exponent():
    assert algebra_fixture("zn:6").field_order == 6
    assert algebra_fixture("s3").field_order == 6
    assert algebra_fixture("q8").field_order == 4
    assert algebra_fixture("a4").field_order == 6
    assert algebra_fixture("tensor(zn:2,zn:3)").field_order == 6


def test_semisimplicity_of_combinators_follows_their_factors():
    # the tensor/opposite rule against the trace-form criterion, which a
    # copy of the same structure constants without provenance still uses
    def by_trace_form(a):
        return Algebra(a.dim, a.sc, a.unit, validated=True).is_semisimple()

    leaves = {name: algebra_fixture(name)
              for name in ["field", "zn:2", "s3", "mat:2", "dual", "trunc:3"]}
    combos = []
    for x in leaves.values():
        combos.append(opposite(x))
        for y in leaves.values():
            combos += [tensor(x, y), tensor(opposite(x), y), opposite(tensor(x, y))]
    combos.append(tensor(tensor(leaves["zn:2"], leaves["mat:2"]), opposite(leaves["dual"])))
    verdicts = set()
    for a in combos:
        assert a.is_semisimple() == by_trace_form(a), a
        verdicts.add(a.is_semisimple())
    assert verdicts == {True, False}


def test_derived_builds_once_per_object_and_arguments():
    from hochkit.algebra import derived

    class Owner:
        def __init__(self):
            self._derived = {}

    builds = []

    @derived
    def scaled(obj, factor):
        builds.append(factor)
        if factor < 0:
            raise ValueError(factor)
        return [factor] * 2

    first, second = Owner(), Owner()
    kept = scaled(first, 2)
    assert scaled(first, 2) is kept and builds == [2]
    assert scaled(first, 3) == [3, 3] and builds == [2, 3]
    assert scaled(second, 2) is not kept and builds == [2, 3, 2]
    before = dict(first._derived)
    with pytest.raises(ValueError):
        scaled(first, -1)
    assert first._derived == before
    with pytest.raises(ValueError):
        scaled(first, -1)  # a failed build is not remembered either
    assert builds == [2, 3, 2, -1, -1]


def test_only_the_product_table_reads_structure_constants_into_matrices():
    # the multiplication is read in one place: every product, trace, form and
    # validation identity is a product with algebra.product_table, and a
    # combinator's table is built from its factors' tables, not their constants
    import hochkit
    import hochkit.algebra
    for gone in ("StructureConstants", "TensorSC", "OppositeSC"):
        assert not hasattr(hochkit.algebra, gone)
    readers = set()
    for path in sorted(Path(hochkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        classes = [c for c in tree.body if isinstance(c, ast.ClassDef)]
        scopes = [(f"{c.name}.{f.name}", f) for c in classes
                  for f in c.body if isinstance(f, ast.FunctionDef)]
        scopes += [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
        for name, fn in scopes:
            for node in ast.walk(fn):
                if (isinstance(node, ast.Attribute) and node.attr == "product"
                        and (isinstance(node.value, ast.Attribute) and node.value.attr == "sc"
                             or isinstance(node.value, ast.Name) and node.value.id == "sc")):
                    readers.add(name)
    assert readers == {"product_table"}


def test_frobenius_gram_defects_keep_their_messages():
    # the Frobenius Gram comes from the same form builder as the trace form
    m2, dual = matrix_algebra(2), algebra_fixture("dual")
    with pytest.raises(DegenerateFrobeniusForm, match="form is not symmetric"):
        Algebra(4, m2.sc, m2.unit, serre=SerreData(vec([0, 1, 0, 0])))  # the e12 coefficient
    with pytest.raises(DegenerateFrobeniusForm, match="gram matrix is singular"):
        Algebra(2, dual.sc, dual.unit, serre=SerreData(vec([1, 0])))  # the constant term
    assert trace_form(m2) == trace_form(m2).transpose()
    assert trace_form(dual).nnz() == 1  # tr(1) = 2 alone: not semisimple


TYPED_INPUT_ERRORS_SCRIPT = """
from hochkit.algebra import Algebra, DictSC, truncated_poly
from hochkit.errors import HochkitError, ShapeMismatch
from hochkit.fixtures import algebra_fixture, rep_from_generators
from hochkit.hochschild import HHResult
from hochkit.linalg import SparseMatrix, unit_vector
from hochkit.mukai import MukaiClass
from hochkit.scalars import CycScalar, _poly_div_exact, euler_phi, zeta
from hochkit.tqft import CobordismWord, SurfaceInvariant, evaluate

z2 = algebra_fixture("zn:2")
sphere = CobordismWord([("cap_in", 0), ("cap_out", 0)])
cases = {
    "CycScalar length": lambda: CycScalar(3, [1]),
    "non-monic divisor": lambda: _poly_div_exact([1, 0, 1], [1, 2]),
    "truncated_poly": lambda: truncated_poly(1),
    "Algebra labels": lambda: Algebra(1, DictSC({(0, 0): {0: 1}}), [1], labels=["a", "b"],
                                      validated=True),
    "Algebra unit": lambda: Algebra(2, DictSC({}), [1], validated=True),
    "MukaiClass": lambda: MukaiClass(z2, [1]),
    "SurfaceInvariant": lambda: SurfaceInvariant(-1, sphere, z2),
    "HHResult kind": lambda: HHResult("homotopy", [1], 0),
    "HHResult dims": lambda: HHResult("homology", [1, -1], 1),
    "empty word": lambda: evaluate(z2, CobordismWord([])),
    "rep_from_generators": lambda: rep_from_generators(
        algebra_fixture("zn:4"), [2], [SparseMatrix.identity(1)], 1, "x"),
    "zeta(0)": lambda: zeta(0),
    "euler_phi(0)": lambda: euler_phi(0),
}
square = SparseMatrix.from_dense([[1, 2], [3, 4]])
for field, m in (("Q", square), ("Q(zeta_3)", square.scale(zeta(3)))):
    cases.update({f"{field} {name}": (ShapeMismatch, call) for name, call in (
        ("entry(0, -1)", lambda m=m: m.entry(0, -1)),
        ("entry(0, 5)", lambda m=m: m.entry(0, 5)),
        ("entry(2, 0)", lambda m=m: m.entry(2, 0)),
        ("row_vector(-1)", lambda m=m: m.row_vector(-1)),
        ("row_vector(2)", lambda m=m: m.row_vector(2)),
        ("take_rows([-1])", lambda m=m: m.take_rows([-1])),
        ("take_rows([0, 2])", lambda m=m: m.take_rows([0, 2])),
    )})
cases.update({name: (ShapeMismatch, call) for name, call in (
    ("unit_vector(3, 5)", lambda: unit_vector(3, 5)),
    ("unit_vector(3, -1)", lambda: unit_vector(3, -1)),
    ("unit_vector(0, 0)", lambda: unit_vector(0, 0)),
    ("basis_vector(7)", lambda: algebra_fixture("zn:3").basis_vector(7)),
    ("basis_vector(-1)", lambda: algebra_fixture("zn:3").basis_vector(-1)),
)})
for name, case in cases.items():
    error, call = case if isinstance(case, tuple) else (HochkitError, case)
    try:
        call()
    except error:
        continue
    raise SystemExit(f"{name} did not raise a {error.__name__}")
print("ok")
"""


def test_input_errors_are_typed_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", TYPED_INPUT_ERRORS_SCRIPT],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "ok\n"


# --- the one multiplication against the per-pair loops it replaced ------------
#
# The oracles read the structure constants one pair at a time, the way the
# combinators, the regular trace, the forms and validation did before all of
# them were read off algebra.product_table.

def _oracle_product(a, i, j):
    """e_i e_j as a sparse dict: op(A) swaps the factors, A (x) B multiplies
    the factors' coordinates pair by pair."""
    kind, *factors = a.provenance
    if kind == "opposite":
        return _oracle_product(factors[0], j, i)
    if kind == "tensor":
        x, y = factors
        (ia, ib), (ja, jb) = divmod(i, y.dim), divmod(j, y.dim)
        return {ka * y.dim + kb: va * vb for ka, va in _oracle_product(x, ia, ja).items()
                for kb, vb in _oracle_product(y, ib, jb).items()}
    return a.sc.product(i, j)


def _oracle_mul(a, x, y):
    out = [ZERO] * a.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                for k, c in _oracle_product(a, i, j).items():
                    out[k] = out[k] + xi * yj * c
    return tuple(out)


def _oracle_form(a, f):
    """(x, y) |-> f(xy): entry (i, j) is sum_k c_ij^k f_k."""
    d = a.dim
    return SparseMatrix(d, d, (((i, j), c * f[k]) for i in range(d) for j in range(d)
                               for k, c in _oracle_product(a, i, j).items() if f[k]))


def _zeta3_copy(name):
    """The fixture in the basis f_i = e_i + zeta_3 e_(i+1) (f_last = e_last),
    so that its structure constants, unit and forms leave Q."""
    from transport import rebased
    a, w = algebra_fixture(name), zeta(3)
    return rebased(a, [[ONE if k == i else w if k == i + 1 else ZERO for k in range(a.dim)]
                       for i in range(a.dim)], lcm(a.field_order, 3))


@pytest.mark.parametrize("name", ["tensor(dual,trunc:3)", "tensor(zn:3,zn:4)", "tensor(s3,mat:2)",
                                  "op(q8)", "env(zn:3)", "zeta_3 copies"])
def test_combinator_tables_match_the_per_pair_products(name):
    if name == "zeta_3 copies":  # irrational tables: kron and swap on realified rows
        z3, dual = _zeta3_copy("zn:3"), algebra_fixture("dual")
        algebras = [tensor(z3, dual), opposite(tensor(dual, z3)), enveloping(z3)]
        assert product_table(z3).field_order == 3
    else:
        algebras = [algebra_fixture(name)]
    for a in algebras:
        d = a.dim
        assert product_table(a) == SparseMatrix(d * d, d, (
            ((i * d + j, k), v) for i in range(d) for j in range(d)
            for k, v in _oracle_product(a, i, j).items()))
        assert all(a.sc.product(i, j) == _oracle_product(a, i, j)
                   for i in range(d) for j in range(d))
        assert a.sc is a.sc  # read off the table once


FORM_FIXTURES = ALL_GROUP_FIXTURES + (
    "field", "mat:2", "mat:3", "dual", "trunc:4", "tensor(zn:2,zn:3)", "env(zn:2)", "op(s3)",
    "tensor(mat:2,zn:2)", "zeta_3 copy of s3")


@pytest.mark.parametrize("name", FORM_FIXTURES)
def test_traces_and_forms_match_the_scalar_loops(name):
    from hochkit.algebra import _form
    a = _zeta3_copy("s3") if name.startswith("zeta_3") else algebra_fixture(name)
    taus = [sum((_oracle_product(a, i, k).get(k, ZERO) for k in range(a.dim)), ZERO)
            for i in range(a.dim)]
    assert [regular_trace(a, unit_vector(a.dim, i)) for i in range(a.dim)] == taus
    rng = random.Random(a.dim)
    x = vec([rng.randint(-3, 3) + rng.randint(-1, 1) * zeta(a.field_order) for _ in taus])
    assert regular_trace(a, x) == sum((xi * t for xi, t in zip(x, taus)), ZERO)
    assert trace_form(a) == _oracle_form(a, taus)
    if a.serre is not None:
        functional = a.serre.functional
        assert _form(a, SparseMatrix.from_columns([functional], a.dim)) \
            == _oracle_form(a, functional)
    y = vec([rng.randint(-2, 2) for _ in taus])
    assert a.mul(x, y) == _oracle_mul(a, x, y)


def _oracle_algebra_defect(dim, table, unit, gens):
    """The first defect the element-wise loops of validation found, or None."""
    a = Algebra(dim, DictSC(table), unit, gens=gens, validated=True)
    basis = [unit_vector(dim, i) for i in range(dim)]
    for i, e in enumerate(basis):
        if _oracle_mul(a, a.unit, e) != e or _oracle_mul(a, e, a.unit) != e:
            return UnitLawFails(i)
    words = rref(SparseMatrix.from_dense([a.unit]))
    while words.rows < dim:
        span = [words.row_vector(r) for r in range(words.rows)]
        grown = rref(SparseMatrix.from_dense(span + [_oracle_mul(a, g, w) for g in a.gens
                                                     for w in span]))
        if grown.rows == words.rows:
            return AlgebraDefect(f"products of the {len(a.gens)} generators span "
                                 f"{words.rows} of {dim} dimensions")
        words = grown
    for i, g in enumerate(a.gens):
        for j, ej in enumerate(basis):
            left = _oracle_mul(a, g, ej)
            for k, ek in enumerate(basis):
                if _oracle_mul(a, left, ek) != _oracle_mul(a, g, _oracle_mul(a, ej, ek)):
                    return NotAssociative(i, j, k)
    return None


def _oracle_module_defect(m_algebra, dim, action):
    def act(x):
        return sum((m.scale(c) for m, c in zip(action, x) if c), SparseMatrix.zero(dim, dim))
    if act(m_algebra.unit) != SparseMatrix.identity(dim):
        return ModuleDefect("unit does not act as the identity")
    for g in m_algebra.gens:
        for j in range(m_algebra.dim):
            if act(g) * action[j] != act(_oracle_mul(m_algebra, g, unit_vector(m_algebra.dim, j))):
                return ModuleDefect(
                    f"action is not multiplicative at generator {list(g)} and basis element {j}")
    return None


def planted_defects():
    """(label, build, oracle) for inputs with one planted defect each: build()
    constructs them, with validation, and oracle() is what the loops found."""
    s3, m2 = algebra_fixture("s3"), matrix_algebra(2)
    e = s3.provenance[3]
    std = next(s for s in simples_of(s3) if s.dim == 2)

    def table_of(a):
        return {(i, j): dict(a.sc.product(i, j)) for i in range(a.dim) for j in range(a.dim)}

    def algebra_case(label, a, table, unit=None, gens=None):
        args = (a.dim, table, a.unit if unit is None else vec(unit),
                a.gens if gens is None else gens)
        return (label, lambda: Algebra(args[0], DictSC(args[1]), args[2], gens=args[3]),
                lambda: _oracle_algebra_defect(*args))

    # unit e0, x = e1 and y = e2, x killing both, y y = x and y x = y: every
    # triple led by x associates, and (y y) y = 0 differs from y (y y) = y
    xy = Algebra(3, DictSC({(0, 0): {0: ONE}, (0, 1): {1: ONE}, (0, 2): {2: ONE},
                            (1, 0): {1: ONE}, (2, 0): {2: ONE}}), unit_vector(3, 0),
                 gens=[unit_vector(3, 1), unit_vector(3, 2)], validated=True)

    def module_case(label, action):
        return (label, lambda: ModuleRep(s3, std.dim, action),
                lambda: _oracle_module_defect(s3, std.dim, action))

    cases = []
    t = table_of(s3)
    t[(e, 4)], t[(3, e)] = {4: ONE, 1: ONE}, {2: ONE}
    cases.append(algebra_case("s3, wrong unit products at 4 and 3", s3, t))
    cases.append(algebra_case("s3, wrong unit vector", s3, table_of(s3),
                              unit=[ONE if g in (e, 5) else ZERO for g in range(6)]))
    t = table_of(m2)
    t[(1, 2)] = {0: ONE, 3: ONE}  # e12 e21 = e11 + e22
    cases.append(algebra_case("mat:2, e12 e21 = 1", m2, t))
    rng = random.Random(38)
    for n in range(4):
        i, j = rng.choice([g for g in range(6) if g != e]), rng.choice([g for g in range(6) if g != e])
        t = table_of(s3)
        t[(i, j)] = {rng.choice([g for g in range(6) if g not in t[(i, j)]]): ONE}
        cases.append(algebra_case(f"s3, e{i} e{j} moved", s3, t))
    t = table_of(xy)
    t[(2, 1)], t[(2, 2)] = {2: ONE}, {1: ONE}
    cases.append(algebra_case("x and y, y y = x, y x = y", xy, t))
    cases.append(algebra_case("s3, one generator", s3, table_of(s3), gens=s3.gens[:1]))
    cases.append(algebra_case("s3, the other generator", s3, table_of(s3), gens=s3.gens[1:]))
    doubled = list(std.action)
    doubled[4] = doubled[4].scale(2)
    cases.append(module_case("std, e4 acting doubled", doubled))
    swapped = list(std.action)
    swapped[e], swapped[1] = swapped[1], swapped[e]
    cases.append(module_case("std, e and e1 exchanged", swapped))
    return cases


@pytest.mark.parametrize("label, build, oracle", planted_defects(),
                         ids=[c[0] for c in planted_defects()])
def test_planted_defects_raise_the_witness_of_the_loops(label, build, oracle):
    expected = oracle()
    assert expected is not None
    with pytest.raises(HochkitError) as exc:
        build()
    assert (type(exc.value), str(exc.value)) == (type(expected), str(expected))


def test_planted_defects_cover_every_check():
    kinds = {type(oracle()) for _, _, oracle in planted_defects()}
    assert kinds == {UnitLawFails, AlgebraDefect, NotAssociative, ModuleDefect}


PLANTED_DEFECTS_SCRIPT = """
import sys
sys.path.insert(0, %r)
from test_algebra import planted_defects
from hochkit.errors import HochkitError
for label, build, _ in planted_defects():
    try:
        build()
    except HochkitError as e:
        print(f"{label}: {type(e).__name__}: {e}")
    else:
        print(f"{label}: accepted")
"""


def test_planted_defects_are_caught_under_optimize():
    here = Path(__file__).resolve().parent
    proc = subprocess.run([sys.executable, "-O", "-c", PLANTED_DEFECTS_SCRIPT % str(here)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(here.parent / "src")))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    expected = [f"{label}: {type(e).__name__}: {e}"
                for label, _, oracle in planted_defects() for e in [oracle()]]
    assert proc.stdout.splitlines() == expected
