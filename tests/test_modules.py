import gc
import itertools
import os
import random
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from hochkit.algebra import a_unit_split, field_algebra, matrix_algebra, opposite, tensor
from hochkit.errors import (
    MAX_COORDINATES, AlgebraMismatch, DegreeCapExceeded, DegreeUnderflow, HochkitError,
    MiddleNotSemisimple, MissingSerreData, ModuleDefect, ShapeMismatch,
)
from hochkit.fixtures import algebra_fixture
from hochkit.hochschild import ChainComplex
from hochkit.linalg import SparseMatrix, cokernel_projector, hstack, kron, solve, unit_vector
from hochkit.modules import (
    Bimodule, ModuleRep, apply_kernel, apply_kernel_full, balanced_tensor,
    convolve, dual_kernel, ext_dims, hom_space, is_intertwiner, outer_kernel,
    parallel_kernels, regular_bimodule, regular_module, simples_of, validate_module,
)
from hochkit.scalars import ONE


def multiplicity_vector(m, simples):
    """Hom dimensions against a fixed list of simples; the working notion of
    isomorphism class for semisimple fixtures."""
    return tuple(hom_space(s, m).dim for s in simples)


def tensor_over(m, n):
    """M (x)_A N for M a right A-module (carried over opposite(A)) and N a
    left A-module."""
    a = n.algebra
    if m.algebra != opposite(a):
        raise AlgebraMismatch("left factor must be a module over opposite(A)")
    return balanced_tensor(a, [m.act(g) for g in a.gens], m.dim,
                           [n.act(g) for g in a.gens], n.dim)


def underlying(k):
    """The kernel k as one module over tensor(target, opposite(source)), on
    which t (x) s acts by k.left.action[t] * k.right.action[s]."""
    action = [lt * rs for lt in k.left.action for rs in k.right.action]
    return ModuleRep(tensor(k.target, opposite(k.source)), k.dim, action,
                     name=k.name, check=False)


def test_hom_schur():
    s3 = algebra_fixture("s3")
    triv, sign, std = simples_of(s3)
    assert hom_space(std, std).dim == 1
    assert hom_space(triv, sign).dim == 0


def test_hom_regular_z2():
    z2 = algebra_fixture("zn:2")
    reg = regular_module(z2)
    assert hom_space(reg, reg).dim == 2


def test_hom_mismatch():
    with pytest.raises(AlgebraMismatch):
        hom_space(regular_module(algebra_fixture("zn:2")),
                  regular_module(algebra_fixture("zn:3")))


def test_module_validation_catches_bad_action():
    z2 = algebra_fixture("zn:2")
    bad = [SparseMatrix.identity(1), SparseMatrix.from_dense([[2]])]
    with pytest.raises(ModuleDefect):
        ModuleRep(z2, 1, bad)


def test_tensor_over_unit_law():
    # A (x)_A N = N: dims match and the actions are conjugate (multiplicities)
    for name in ["zn:3", "s3"]:
        a = algebra_fixture(name)
        reg_right = regular_module(opposite(a))
        for s in simples_of(a):
            t = tensor_over(reg_right, s)
            assert t.dim == s.dim


def test_tensor_over_multiplicity_oracle():
    # dim(M* (x)_A N) = dim Hom(M, N) for semisimple fixtures
    for name in ["zn:3", "s3", "q8"]:
        a = algebra_fixture(name)
        simples = simples_of(a)
        for m in simples:
            for n in simples:
                t = tensor_over(m.dual(), n)
                assert t.dim == hom_space(m, n).dim


def test_sign_tensor_sign():
    s3 = algebra_fixture("s3")
    sign = simples_of(s3)[1]
    t = tensor_over(sign.dual(), sign)
    assert t.dim == 1


def test_simples_are_attached_once():
    # data derived from an algebra's simples is cached on it, so the list
    # may not be replaced; a derived list counts as attached once derived
    from hochkit.modules import attach_simples
    for name in ["s3", "mat:2"]:
        a = algebra_fixture(name)
        simples = simples_of(a)
        with pytest.raises(HochkitError, match="already attached"):
            attach_simples(a, simples[:1])
        assert simples_of(a) is simples


def test_tensor_over_refuses_non_semisimple_middle():
    dual = algebra_fixture("dual")
    reg = regular_module(dual)
    with pytest.raises(MiddleNotSemisimple):
        tensor_over(regular_module(opposite(dual)), reg)


def test_identity_kernel_laws():
    s3 = algebra_fixture("s3")
    simples = simples_of(s3)
    K = regular_bimodule(s3)
    for s in simples:
        out = apply_kernel(K, s)
        assert out.dim == s.dim
        assert multiplicity_vector(out, simples) == multiplicity_vector(s, simples)


def test_outer_kernel_multiplicities():
    # kernel V (x) W sends M to W^(dim hom(V*, M))
    z2 = algebra_fixture("zn:2")
    s3 = algebra_fixture("s3")
    s2 = simples_of(z2)
    s3s = simples_of(s3)
    V = s2[1].dual()
    W = s3s[2]
    K = outer_kernel(V, W, z2)
    out = apply_kernel(K, s2[1])
    assert out.dim == 2 and multiplicity_vector(out, s3s) == (0, 0, 1)
    assert apply_kernel(K, s2[0]).dim == 0
    # V* = chi1 over z2, so hom(V*, M) counts chi1-multiplicity
    reg = regular_module(z2)
    out = apply_kernel(K, reg)
    assert multiplicity_vector(out, s3s) == (0, 0, 1)


def test_apply_kernel_over_field_is_plain_tensor():
    f = field_algebra()
    z3 = algebra_fixture("zn:3")
    W = simples_of(z3)[1]
    V = ModuleRep(opposite(f), 3, [SparseMatrix.identity(3)], name="C3", check=False)
    K = outer_kernel(V, W, f)
    M = ModuleRep(f, 2, [SparseMatrix.identity(2)], name="C2", check=False)
    out = apply_kernel(K, M)
    assert out.dim == 3 * 1 * 2


def test_convolution_functoriality_on_objects():
    rng = random.Random(11)
    z2, z3, s3 = (algebra_fixture(n) for n in ["zn:2", "zn:3", "s3"])
    for _ in range(4):
        sa, sb, sc_ = simples_of(z2), simples_of(z3), simples_of(s3)
        k1 = outer_kernel(sa[rng.randrange(2)].dual(), sb[rng.randrange(3)], z2)
        k2 = outer_kernel(sb[rng.randrange(3)].dual(), sc_[rng.randrange(3)], z3)
        kk = convolve(k1, k2)
        m = sa[rng.randrange(2)].direct_sum(sa[rng.randrange(2)])
        lhs = apply_kernel(kk, m)
        rhs = apply_kernel(k2, apply_kernel(k1, m))
        assert lhs.dim == rhs.dim
        assert multiplicity_vector(lhs, sc_) == multiplicity_vector(rhs, sc_)


def test_convolution_unit_laws():
    z2, s3 = algebra_fixture("zn:2"), algebra_fixture("s3")
    V = simples_of(z2)[0].dual()
    W = simples_of(s3)[2]
    K = outer_kernel(V, W, z2)
    env_simples = simples_of(underlying(K).algebra)
    for composed in (convolve(K, regular_bimodule(s3)),
                     convolve(regular_bimodule(z2), K)):
        assert composed.dim == K.dim
        assert multiplicity_vector(underlying(composed), env_simples) == \
            multiplicity_vector(underlying(K), env_simples)


def test_dual_kernel_requires_serre():
    dual_alg = algebra_fixture("dual")
    z2 = algebra_fixture("zn:2")
    V = simples_of(z2)[0].dual()
    W = regular_module(dual_alg)
    K = outer_kernel(V, W, z2)
    with pytest.raises(MissingSerreData):
        dual_kernel(K)


def test_dual_kernel_self_dual_regular():
    z2 = algebra_fixture("zn:2")
    K = regular_bimodule(z2)
    DK = dual_kernel(K)
    env_simples = simples_of(underlying(K).algebra)
    assert multiplicity_vector(underlying(DK), env_simples) == \
        multiplicity_vector(underlying(K), env_simples)


def test_dual_kernel_swaps_outer_factors():
    z2, z3 = algebra_fixture("zn:2"), algebra_fixture("zn:3")
    V = simples_of(z2)[1].dual()
    W = simples_of(z3)[2]
    K = outer_kernel(V, W, z2)
    DK = dual_kernel(K)
    assert DK.source == K.target and DK.target == K.source
    assert DK.dim == K.dim
    # involution up to canonical isomorphism
    DDK = dual_kernel(DK)
    simples_env = simples_of(underlying(K).algebra)
    assert multiplicity_vector(underlying(DDK), simples_env) == \
        multiplicity_vector(underlying(K), simples_env)


def test_dual_kernel_adjunction_dims():
    rng = random.Random(23)
    z2, s3 = algebra_fixture("zn:2"), algebra_fixture("s3")
    sa, sb = simples_of(z2), simples_of(s3)
    for _ in range(3):
        K = outer_kernel(sa[rng.randrange(2)].dual(), sb[rng.randrange(3)], z2)
        DK = dual_kernel(K)
        m = sa[rng.randrange(2)].direct_sum(sa[rng.randrange(2)])
        n = sb[rng.randrange(3)].direct_sum(sb[rng.randrange(3)])
        assert hom_space(apply_kernel(K, m), n).dim == \
            hom_space(m, apply_kernel(DK, n)).dim


def test_apply_kernel_functor_on_morphisms():
    z2, s3 = algebra_fixture("zn:2"), algebra_fixture("s3")
    V = simples_of(z2)[1].dual()
    W = simples_of(s3)[2]
    K = outer_kernel(V, W, z2)
    m = simples_of(z2)[1].direct_sum(simples_of(z2)[1])
    applied = apply_kernel_full(K, m)
    # the functor preserves identities and composition
    ident = SparseMatrix.identity(m.dim)
    assert applied.map_morphism(ident) == SparseMatrix.identity(applied.module.dim)
    basis = hom_space(m, m).basis
    f, g = basis[0], basis[-1]
    assert applied.map_morphism(f * g) == \
        applied.map_morphism(f) * applied.map_morphism(g)


def test_ext_semisimple_vanishes():
    for name in ["zn:2", "zn:3", "s3"]:
        a = algebra_fixture(name)
        simples = simples_of(a)
        for m in simples[:2]:
            dims = ext_dims(m, m, 2)
            assert dims[0] == hom_space(m, m).dim
            assert dims[1:] == [0, 0]


def test_ext_dual_numbers_periodic():
    # independent oracle: the minimal resolution ... -> A -> A -> M of the
    # 1-dim module over the dual numbers is 2-periodic with all Ext^i = 1
    dual = algebra_fixture("dual")
    m = ModuleRep(dual, 1, [SparseMatrix.identity(1), SparseMatrix.zero(1, 1)],
                  name="point", check=True)
    dims = ext_dims(m, m, 4)
    assert dims == [1, 1, 1, 1, 1]


def test_ext_ranks_each_coboundary_once(monkeypatch):
    import hochkit.hochschild as hochschild
    import hochkit.linalg as linalg
    ranked = []

    def counted(m):
        ranked.append((m.rows, m.cols))
        return linalg.rank(m)
    dual = algebra_fixture("dual")
    m = ModuleRep(dual, 1, [SparseMatrix.identity(1), SparseMatrix.zero(1, 1)],
                  name="point", check=True)
    monkeypatch.setattr(hochschild, "rank", counted)
    assert ext_dims(m, m, 4) == [1, 1, 1, 1, 1]
    assert ranked == [(1, 1)] * 5  # delta^0 .. delta^4, one letter of Abar


def test_ext_negative_degree_refused():
    m = simples_of(algebra_fixture("zn:2"))[0]
    with pytest.raises(DegreeUnderflow):
        ext_dims(m, m, -1)


def test_ext_size_guard_refuses_before_any_coboundary(monkeypatch):
    import hochkit.hochschild as hochschild
    built = []
    monkeypatch.setattr(hochschild, "_coboundary", lambda *args, **kw: built.append(args))
    reg = regular_module(algebra_fixture("s3"))
    # Ext^5 needs degree 6 of Hom(Abar^(x p), Hom_k(M, M)): 36 * 5^6 = 562500
    with pytest.raises(DegreeCapExceeded, match="degree 6 has 562500 coordinates"):
        ext_dims(reg, reg, 5)
    assert built == []


def test_balanced_tensor_refusal_names_its_operands():
    s3 = algebra_fixture("s3")
    with pytest.raises(DegreeCapExceeded, match=re.escape(
            f"the balanced tensor over {s3!r} has an ambient of 500 x 401 = 200500 "
            f"coordinates, above the guard {MAX_COORDINATES}")):
        balanced_tensor(s3, None, 500, None, 401)  # refused before any action is read


def test_balanced_tensor_refuses_actions_that_do_not_fit():
    s3 = algebra_fixture("s3")
    one, two = SparseMatrix.identity(1), SparseMatrix.identity(2)
    with pytest.raises(ShapeMismatch, match=r"1 and 2 action matrices for the 2 generator"):
        balanced_tensor(s3, [one], 1, [two, two], 2)
    with pytest.raises(ShapeMismatch, match="a 2x2 action matrix on a factor of dimension 1"):
        balanced_tensor(s3, [one, two], 1, [two, two], 2)


def _ref_balanced_tensor(mid, right_acts, m_dim, left_acts, n_dim):
    """(relations, include, project) of M (x)_mid N built from identities,
    Kronecker products and hstack: the oracle of balanced_tensor's one-pass
    assembly on the actions' stored rows."""
    ambient = m_dim * n_dim
    id_m, id_n = SparseMatrix.identity(m_dim), SparseMatrix.identity(n_dim)
    relations = hstack(ambient, [kron(r, id_n) - kron(id_m, a)
                                 for r, a in zip(right_acts, left_acts)])
    free, project = cokernel_projector(relations)
    include = SparseMatrix(ambient, len(free), {(f, k): ONE for k, f in enumerate(free)})
    return relations, include, project


def _conjugated(m, rows):
    """m with every action matrix conjugated by the invertible matrix `rows`."""
    p = SparseMatrix.from_dense(rows)
    p_inv = solve(p, SparseMatrix.identity(p.rows))
    return ModuleRep(m.algebra, m.dim, [p * x * p_inv for x in m.action],
                     name=f"{m.name}^p", check=True)


def _factor_pairs(case):
    """(M, N) pairs for M (x)_A N, M a right module (over opposite(A))."""
    if case == "rational":
        s3 = algebra_fixture("s3")
        mods = [*simples_of(s3), regular_module(s3)]
        return [(m.dual(), n) for m in mods for n in mods]
    z3 = algebra_fixture("zn:3")
    chi1 = simples_of(z3)[1]
    if case == "cyclotomic":  # rows over Q(zeta_3)
        return [(chi1.dual(), n) for n in (*simples_of(z3), regular_module(z3))] + \
            [(regular_module(z3).dual(), chi1)]
    std = simples_of(algebra_fixture("s3"))[2]
    thirds = _conjugated(std, [[1, 0], [1, 3]]).dual()
    halves = _conjugated(std, [[2, 1], [0, 1]])
    regular = _conjugated(regular_module(z3), [[1, 0, 0], [1, 3, 0], [0, 1, 2]])
    return [(thirds, halves), (thirds, std), (regular.dual(), chi1), (chi1.dual(), regular)]


F = frozenset


@pytest.mark.parametrize("case, dens", [
    ("rational", {(F({1}), F({1}))}),
    ("cyclotomic", {(F({None}), F({1})), (F({None}), F({None})), (F({1}), F({None}))}),
    ("denominators", {(F({3}), F({2})), (F({3}), F({1})), (F({6}), F({None})),
                      (F({None}), F({6}))}),
])
def test_balanced_tensor_matches_the_kron_oracle(case, dens):
    seen = set()  # the dens of the two factors' actions: None is irrational
    for m, n in _factor_pairs(case):
        a = n.algebra
        rights, lefts = [m.act(g) for g in a.gens], [n.act(g) for g in a.gens]
        bt = balanced_tensor(a, rights, m.dim, lefts, n.dim)
        assert (bt.relations, bt.include, bt.project) == \
            _ref_balanced_tensor(a, rights, m.dim, lefts, n.dim)
        seen.add((F(x.den for x in rights), F(x.den for x in lefts)))
    assert seen == dens


def test_unit_split_does_not_pin_algebra():
    a = matrix_algebra(2)
    assert a_unit_split(a) is a_unit_split(a)
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None


def test_ext_degree_zero_matches_hom():
    rng = random.Random(5)
    s3 = algebra_fixture("s3")
    simples = simples_of(s3)
    for _ in range(4):
        m = simples[rng.randrange(3)].direct_sum(simples[rng.randrange(3)])
        n = simples[rng.randrange(3)]
        assert ext_dims(m, n, 1)[0] == hom_space(m, n).dim


def test_intertwiner_check():
    s3 = algebra_fixture("s3")
    std = simples_of(s3)[2]
    assert is_intertwiner(SparseMatrix.identity(2), std, std)
    assert not is_intertwiner(SparseMatrix.from_dense([[1, 1], [0, 1]]), std, std)


def test_ext_over_enveloping_recovers_hochschild_cohomology():
    # Ext^i over A (x) A^op from A to A is HH^i(A).  Both come from the one
    # Hochschild coboundary, so this checks it with non-regular coefficients
    # over A^e, X = Hom_k(A, A), against regular ones over A, X = A.
    from hochkit.hochschild import hh_cohomology_dims
    for name, deg in [("dual", 3), ("zn:2", 3), ("trunc:3", 2)]:
        a = algebra_fixture(name)
        diag = underlying(regular_bimodule(a))
        assert ext_dims(diag, diag, deg) == hh_cohomology_dims(a, deg).dims


# --- entrywise oracle for the Ext coboundaries --------------------------------
#
# The coboundary of C^p = Hom(Abar^(x p) (x) M, N) summed term by term in
# CycScalars, one word at a time, as ext_dims built it before it shared the
# Hochschild builder.  Cochain coordinates: f[(word, mu) -> nu] is indexed
# nu + n.dim * (mu + m.dim * word), the word in base-r digits, leftmost
# argument most significant.  Letters are the basis elements off the first
# coordinate i0 of the unit; the class of sum_k c_k e_k in Abar has
# coordinates c_k - c_(i0) u_k / u_(i0).

def _bar_products(a):
    i0 = next(i for i, u in enumerate(a.unit) if u)
    letters = [i for i in range(a.dim) if i != i0]
    bar = {}
    for s, x in enumerate(letters):
        for t, y in enumerate(letters):
            c = a.mul(unit_vector(a.dim, x), unit_vector(a.dim, y))
            eps = c[i0] / a.unit[i0]
            bar[s, t] = {q: v for q, k in enumerate(letters) if (v := c[k] - eps * a.unit[k])}
    return letters, bar


def _ext_delta(a, m, n, p):
    letters, bar = _bar_products(a)
    dbar = len(letters)
    size_p = (dbar ** p) * m.dim * n.dim
    size_q = (dbar ** (p + 1)) * m.dim * n.dim

    def f_index(word, mu, nu):
        w = 0
        for d in word:
            w = w * dbar + d
        return nu + n.dim * (mu + m.dim * w)

    last_sign = ONE if (p + 1) % 2 == 0 else -ONE

    def terms():
        for word in itertools.product(range(dbar), repeat=p + 1):
            rho_first = n.action[letters[word[0]]]
            rho_last = m.action[letters[word[p]]]
            rest, head = word[1:], word[:p]
            for mu in range(m.dim):
                # rho_N(a_1) f(a_2..a_{p+1}, mu)
                for r_out, nu_mid, v in rho_first.entries():
                    yield (f_index(word, mu, r_out), f_index(rest, mu, nu_mid)), v
                # interior merges; the unit component of a product is degenerate
                sign = ONE
                for i in range(p):
                    sign = -sign
                    for d, coeff in bar[word[i], word[i + 1]].items():
                        new_word = word[:i] + (d,) + word[i + 2:]
                        for nu in range(n.dim):
                            yield (f_index(word, mu, nu),
                                   f_index(new_word, mu, nu)), sign * coeff
                # (-1)^(p+1) f(a_1..a_p, a_{p+1}.m)
                for r_ in range(m.dim):
                    v = rho_last.entry(r_, mu)
                    if v:
                        for nu in range(n.dim):
                            yield (f_index(word, mu, nu), f_index(head, r_, nu)), last_sign * v

    return SparseMatrix(size_q, size_p, terms())


@pytest.mark.parametrize("name", ["s3", "q8", "zn:3", "zn:4", "d4", "trunc:3", "dual"])
def test_ext_coboundaries_match_entrywise_oracle(name, monkeypatch):
    # the first three simples pairwise, or the regular module of an algebra
    # that is not semisimple
    a = algebra_fixture(name)
    mods = simples_of(a)[:3] if a.is_semisimple() else [regular_module(a)]
    built = []
    init = ChainComplex.__init__

    def capture(self, dims, maps):
        built.append(maps)
        init(self, dims, maps)
    monkeypatch.setattr(ChainComplex, "__init__", capture)
    for m in mods:
        for n in mods:
            ext_dims(m, n, 2)
            maps = built.pop()
            for p in range(3):
                assert maps[p + 1] == _ext_delta(a, m, n, p).transpose()


@pytest.mark.parametrize("name,simple", [("q8", "std"), ("zn:3", "chi1")])
def test_hom_coordinates_round_trip(name, simple):
    from hochkit.fixtures import module_fixture
    from hochkit.scalars import cyc
    rng = random.Random(53)
    s = module_fixture(algebra_fixture(name), simple)
    m = s.direct_sum(s)
    homs = hom_space(m, m)
    assert homs.dim == 4
    for _ in range(10):
        x = tuple(cyc(rng.randint(-3, 3)) for _ in homs.basis)
        t = SparseMatrix.zero(m.dim, m.dim)
        for c, b in zip(x, homs.basis):
            t = t + b.scale(c)
        assert homs.coordinates_of(t) == x
    with pytest.raises(HochkitError, match="not in the span"):
        homs.coordinates_of(SparseMatrix.identity(m.dim + 1))


def test_hom_coordinates_refuse_non_intertwiner():
    from hochkit.fixtures import module_fixture
    from hochkit.scalars import cyc
    std = module_fixture(algebra_fixture("q8"), "std")
    m = std.direct_sum(std)
    bad = SparseMatrix(m.dim, m.dim, {(0, 0): cyc(1)})
    assert not is_intertwiner(bad, m, m)
    with pytest.raises(HochkitError, match="not in the span"):
        hom_space(m, m).coordinates_of(bad)


MODULE_SHAPE_SCRIPT = """
from hochkit.errors import ShapeMismatch
from hochkit.fixtures import algebra_fixture
from hochkit.linalg import SparseMatrix
from hochkit.modules import ModuleRep

z2 = algebra_fixture("zn:2")
one = SparseMatrix.identity(1)
cases = {
    "action count": lambda: ModuleRep(z2, 1, [one], check=False),
    "action shape": lambda: ModuleRep(z2, 1, [one, SparseMatrix.identity(2)], check=False),
    "non-square action": lambda: ModuleRep(z2, 1, [one, SparseMatrix.zero(1, 2)], check=False),
}
for name, call in cases.items():
    try:
        call()
    except ShapeMismatch:
        continue
    raise SystemExit(f"{name} did not raise ShapeMismatch")
print("ok")
"""


def test_module_shape_errors_are_typed_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", MODULE_SHAPE_SCRIPT],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "ok\n"


# --- the enveloping-module construction, kept as the oracle of Bimodule -------
#
# Before kernels were stored as their two actions, a kernel from A to B was
# one module over tensor(B, opposite(A)) with dim(B) * dim(A) action
# matrices, and its one-sided actions were recovered by padding with the
# other algebra's unit.  The functions below rebuild every kernel that way,
# from reference inputs only, and `underlying` must agree with them exactly.

class EnvelopingKernel:
    def __init__(self, source, target, action):
        self.source, self.target = source, target
        self.module = ModuleRep(tensor(target, opposite(source)), action[0].rows,
                                action, check=False)

    @property
    def dim(self):
        return self.module.dim

    def left_action(self, coords):
        return self.module.act(tuple(t * u for t in coords for u in self.source.unit))

    def right_action(self, coords):
        return self.module.act(tuple(u * s for u in self.target.unit for s in coords))


def _ref_regular(a):
    return EnvelopingKernel(a, a, [a.basis_left_mult(i) * a.basis_right_mult(j)
                                   for i in range(a.dim) for j in range(a.dim)])


def _ref_outer(v, w, source):
    return EnvelopingKernel(source, w.algebra,
                            [kron(wi, vj) for wi in w.action for vj in v.action])


def _ref_dual(k):
    a, b = k.source, k.target
    return EnvelopingKernel(b, a, [k.module.action[j * a.dim + i].transpose()
                                   for i in range(a.dim) for j in range(b.dim)])


def _ref_parallel(k1, k2):
    a, b = tensor(k1.source, k2.source), tensor(k1.target, k2.target)
    action = []
    for bi in range(b.dim):
        b1, b2 = divmod(bi, k2.target.dim)
        for ai in range(a.dim):
            a1, a2 = divmod(ai, k2.source.dim)
            action.append(kron(k1.module.action[b1 * k1.source.dim + a1],
                               k2.module.action[b2 * k2.source.dim + a2]))
    return EnvelopingKernel(a, b, action)


def _ref_convolve(k1, k2):
    gens = k1.target.gens
    bt = balanced_tensor(k1.target, [k2.right_action(g) for g in gens], k2.dim,
                         [k1.left_action(g) for g in gens], k1.dim)
    a, c = k1.source, k2.target
    action = [bt.descend(kron(k2.left_action(unit_vector(c.dim, i)),
                              k1.right_action(unit_vector(a.dim, j))), check=False)
              for i in range(c.dim) for j in range(a.dim)]
    return EnvelopingKernel(a, c, action)


def _ref_apply(k, m):
    gens = k.source.gens
    bt = balanced_tensor(k.source, [k.right_action(g) for g in gens], k.dim,
                         [m.act(g) for g in gens], m.dim)
    return [bt.descend(kron(k.left_action(unit_vector(k.target.dim, i)),
                            SparseMatrix.identity(m.dim)), check=False)
            for i in range(k.target.dim)]


def _ref_morita(a, n):
    action = [kron(SparseMatrix(n, n, {(p, q): ONE}), a.basis_left_mult(x) * a.basis_right_mult(y))
              for p in range(n) for q in range(n) for x in range(a.dim) for y in range(a.dim)]
    return EnvelopingKernel(a, tensor(matrix_algebra(n), a), action)


def _ref_generators(a, aug):
    f, d = field_algebra(), a.dim
    left, right = a.basis_left_mult, a.basis_right_mult
    return {
        "cap_in": EnvelopingKernel(f, a, list(aug.action)),
        "cap_out": EnvelopingKernel(a, f, list(aug.action)),
        "pants_split": EnvelopingKernel(a, tensor(a, a), [
            kron(left(l1), left(l2)) * kron(right(g), right(g))
            for l1 in range(d) for l2 in range(d) for g in range(d)]),
        "pants_merge": EnvelopingKernel(tensor(a, a), a, [
            kron(left(g), left(g)) * kron(right(r1), right(r2))
            for g in range(d) for r1 in range(d) for r2 in range(d)]),
    }


def _agree(k, ref):
    assert (k.source, k.target, k.dim) == (ref.source, ref.target, ref.dim)
    assert underlying(k).algebra == ref.module.algebra
    assert underlying(k).action == ref.module.action


def _outer_pair(source, v_name, target, w_name):
    from hochkit.fixtures import module_fixture
    a, b = algebra_fixture(source), algebra_fixture(target)
    v, w = module_fixture(a, v_name).dual(), module_fixture(b, w_name)
    return (outer_kernel(v, w, a), _ref_outer(v, w, a))


@pytest.fixture(scope="module")
def kernel_pairs():
    """(kernel, enveloping reference) pairs over Q, Q(zeta_3) and Q(zeta_4)."""
    return {
        "zn:3->s3": _outer_pair("zn:3", "chi1", "s3", "std"),
        "s3->q8": _outer_pair("s3", "std", "q8", "std"),
        "zn:2->zn:3": _outer_pair("zn:2", "chi1", "zn:3", "chi2"),
        "id_s3": (regular_bimodule(algebra_fixture("s3")),
                  _ref_regular(algebra_fixture("s3"))),
        "id_zn:3": (regular_bimodule(algebra_fixture("zn:3")),
                    _ref_regular(algebra_fixture("zn:3"))),
    }


def test_constructors_match_enveloping_oracle(kernel_pairs):
    for k, ref in kernel_pairs.values():
        _agree(k, ref)
        validate_module(underlying(k))  # the two actions commute
    for name in ("zn:3->s3", "s3->q8", "id_s3"):
        k, ref = kernel_pairs[name]
        _agree(dual_kernel(k), _ref_dual(ref))
    for first, second in (("zn:3->s3", "s3->q8"), ("zn:3->s3", "id_s3"),
                          ("id_s3", "s3->q8"), ("id_zn:3", "zn:3->s3")):
        (k1, r1), (k2, r2) = kernel_pairs[first], kernel_pairs[second]
        _agree(convolve(k1, k2), _ref_convolve(r1, r2))
    for first, second in (("zn:2->zn:3", "zn:3->s3"), ("zn:3->s3", "id_zn:3"),
                          ("id_zn:3", "zn:3->s3")):
        (k1, r1), (k2, r2) = kernel_pairs[first], kernel_pairs[second]
        _agree(parallel_kernels(k1, k2), _ref_parallel(r1, r2))


def test_apply_kernel_matches_enveloping_oracle(kernel_pairs):
    for name in ("zn:3->s3", "s3->q8", "id_s3"):
        k, ref = kernel_pairs[name]
        for s in simples_of(k.source):
            m = s.direct_sum(s)
            assert apply_kernel_full(k, m).module.action == tuple(_ref_apply(ref, m))


def test_morita_and_surface_kernels_match_enveloping_oracle():
    from hochkit.mukai import morita_kernel
    from hochkit.tqft import GeneratorKernels
    for name in ("s3", "zn:3"):
        a = algebra_fixture(name)
        _agree(morita_kernel(a, 2), _ref_morita(a, 2))
        aug = ModuleRep(a, 1, [SparseMatrix.identity(1)] * a.dim, name="triv")
        gens, refs = GeneratorKernels(a, aug), _ref_generators(a, aug)
        for gen, ref in refs.items():
            _agree(getattr(gens, gen)(), ref)


def test_bimodule_shape_errors_are_typed():
    z2, z3 = algebra_fixture("zn:2"), algebra_fixture("zn:3")
    one, two = SparseMatrix.identity(1), SparseMatrix.identity(2)
    with pytest.raises(ShapeMismatch):  # dim(source) right matrices expected
        Bimodule(z2, z3, 1, [one] * 3, [one] * 3)
    with pytest.raises(ShapeMismatch):  # dim(target) left matrices expected
        Bimodule(z2, z3, 1, [one] * 2, [one] * 2)
    with pytest.raises(ShapeMismatch):  # left and right act on different spaces
        Bimodule(z2, z3, 1, [one] * 3, [one, two])
