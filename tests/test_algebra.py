import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hochkit.algebra import (
    Algebra, DictSC, SerreData, center_basis, commutator_subspace, enveloping,
    group_algebra, matrix_algebra, opposite, regular_trace, tensor, trace_form,
    truncated_poly, validate,
)
from hochkit.errors import (
    AlgebraDefect, DegenerateFrobeniusForm, NotAGroup, NotAssociative, UnitLawFails,
)
from hochkit.fixtures import (
    ALL_GROUP_FIXTURES, algebra_fixture, cyclic_group, rep_from_generators,
)
from hochkit.linalg import SparseMatrix, rref, unit_vector, vec
from hochkit.modules import simples_of
from hochkit.scalars import ONE, ZERO, cyc


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
    # every matrix of products is read off algebra.product_table; .sc.product is
    # read elsewhere only by the element-wise multiplication, equality, the
    # regular trace, the form builder and the structure constants themselves
    import hochkit
    allowed = {"product_table", "Algebra.mul", "Algebra.__eq__", "regular_trace", "_form"}
    readers = set()
    for path in sorted(Path(hochkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        classes = [c for c in tree.body if isinstance(c, ast.ClassDef)
                   and "StructureConstants" not in [c.name] + [getattr(b, "id", None)
                                                               for b in c.bases]]
        scopes = [(f"{c.name}.{f.name}", f) for c in classes
                  for f in c.body if isinstance(f, ast.FunctionDef)]
        scopes += [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
        for name, fn in scopes:
            for node in ast.walk(fn):
                if (isinstance(node, ast.Attribute) and node.attr == "product"
                        and (isinstance(node.value, ast.Attribute) and node.value.attr == "sc"
                             or isinstance(node.value, ast.Name) and node.value.id == "sc")):
                    readers.add(name)
    assert readers == allowed


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
