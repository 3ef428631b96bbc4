import random
from fractions import Fraction

import pytest

from hochkit.algebra import Algebra, center_basis, trace_form
from hochkit.errors import (
    AugmentationNot1Dim, HochkitError, MissingSerreData, NotIntertwiner, ShapeMismatch,
    SingularGram,
)
from hochkit.fixtures import ALL_GROUP_FIXTURES, algebra_fixture
from hochkit.linalg import SparseMatrix, rank, unit_vector, vec
from hochkit.modules import (
    ModuleRep, convolve, dual_kernel, hom_space, outer_kernel, regular_bimodule,
    regular_module, simples_of,
)
from hochkit.mukai import (
    CheckReport, MukaiClass, _classes, adjoint_transfer, adjointness_check, assemble_split_map,
    cardy_check, chern, chern_additivity_check, chern_commutation_check,
    cohomology_transport, format_value, functoriality_check, generalized_trace,
    hochschild_trace, hrr_check, iota_solve, morita_isometry_check,
    morita_kernel, mukai_pairing, pairing_gram, pushforward, serre_trace, todd,
    todd_hrr_check, trace_triangle_check,
)
from hochkit.scalars import ONE, ZERO, cyc

from transport import rebased


def rand_intertwiner(rng, m):
    out = SparseMatrix.zero(m.dim, m.dim)
    for b in hom_space(m, m).basis:
        out = out + b.scale(Fraction(rng.randint(-3, 3)))
    return out


def rand_matrix(rng, rows, cols):
    return SparseMatrix(rows, cols, {(r, c): cyc(rng.randint(-2, 2))
                                     for r in range(rows) for c in range(cols)
                                     if rng.random() < 0.7})


def center_rows(a):
    z = center_basis(a)
    return [z.row_vector(r) for r in range(z.rows)]


def rand_central(rng, a):
    coords = [ZERO] * a.dim
    for z in center_rows(a):
        c = cyc(rng.randint(-3, 3))
        coords = [acc + c * x for acc, x in zip(coords, z)]
    return MukaiClass(a, tuple(coords), _checked=True)


def test_mukai_class_checks_outside_coordinates():
    s3 = algebra_fixture("s3")
    transposition = s3.gens[0]  # e_(12) commutes with generator 0 but not with 1
    assert s3.mul(transposition, s3.gens[0]) == s3.mul(s3.gens[0], transposition)
    with pytest.raises(HochkitError, match=r"not central \(fails at generator 1\)"):
        MukaiClass(s3, transposition)
    with pytest.raises(ShapeMismatch):
        MukaiClass(s3, [1, 0])
    for z in center_rows(s3):
        assert MukaiClass(s3, z).coords == z


def test_mukai_class_checks_centrality_on_the_generator_maps(monkeypatch):
    # the check applies the maps x |-> gx - xg; no dense product is formed
    s3 = algebra_fixture("s3")

    def no_products(*args):
        raise AssertionError("Algebra.mul called")
    monkeypatch.setattr(Algebra, "mul", no_products)
    with pytest.raises(HochkitError, match=r"not central \(fails at generator 0\)"):
        MukaiClass(s3, s3.gens[1])  # the 3-cycle does not commute with a transposition
    with pytest.raises(HochkitError, match=r"not central \(fails at generator 1\)"):
        MukaiClass(s3, s3.gens[0])
    for z in center_rows(s3):
        assert MukaiClass(s3, z).coords == z


# --- serre trace -----------------------------------------------------------------

def test_serre_trace_identity():
    std = simples_of(algebra_fixture("s3"))[2]
    assert serre_trace(std, SparseMatrix.identity(2)) == cyc(2)


def test_serre_trace_rejects_non_intertwiner():
    std = simples_of(algebra_fixture("s3"))[2]
    with pytest.raises(NotIntertwiner):
        serre_trace(std, SparseMatrix.from_dense([[1, 1], [0, 1]]))


def test_serre_trace_of_central_action():
    # multiplication by a central element on a simple acts by its central
    # character; the trace is that scalar times the dimension
    q8 = algebra_fixture("q8")
    std = simples_of(q8)[4]
    for z in center_rows(q8):
        action = std.act(z)
        tr = serre_trace(std, action)
        scalar = action.trace() / cyc(std.dim)
        assert tr == scalar * cyc(std.dim)


def test_trace_commutation():
    rng = random.Random(31)
    z2 = algebra_fixture("zn:2")
    m = regular_module(z2).direct_sum(simples_of(z2)[0])
    for _ in range(20):
        f = rand_intertwiner(rng, m)
        g = rand_intertwiner(rng, m)
        assert serre_trace(m, g * f) == serre_trace(m, f * g)


# --- generalized (partial) trace --------------------------------------------------

def test_partial_trace_field_case():
    rng = random.Random(3)
    mu = rand_matrix(rng, 3, 2)
    assert generalized_trace(mu, 2, 3, 1) == mu


def test_partial_trace_decomposable():
    rng = random.Random(5)
    phi = rand_matrix(rng, 3, 2)
    psi = rand_matrix(rng, 4, 4)
    from hochkit.linalg import kron
    assert generalized_trace(kron(phi, psi), 2, 3, 4) == phi.scale(psi.trace())


def test_partial_trace_naturality():
    rng = random.Random(7)
    for _ in range(20):
        fd, gd, hd, ed = (rng.randint(1, 3) for _ in range(4))
        mu = rand_matrix(rng, gd * ed, fd * ed)
        nu = rand_matrix(rng, hd, gd)
        lifted = SparseMatrix(hd * ed, gd * ed,
                              {(r * ed + k, c * ed + k): v
                               for r, c, v in nu.entries() for k in range(ed)})
        assert generalized_trace(lifted * mu, fd, hd, ed) == \
            nu * generalized_trace(mu, fd, gd, ed)


def test_trace_triangle_block_diagonal():
    rng = random.Random(9)
    e = rand_matrix(rng, 2 * 3, 3)   # E -> H (x) E with dims E=3, H=2
    g = rand_matrix(rng, 2 * 2, 2)   # G -> H (x) G with dims G=2
    f = assemble_split_map(e, g, SparseMatrix.zero(6, 2), 3, 2, 2)
    assert trace_triangle_check(e, f, g, 3, 2, 2).ok


def test_trace_triangle_random_split():
    rng = random.Random(11)
    for _ in range(20):
        de, dg, dh = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        e = rand_matrix(rng, dh * de, de)
        g = rand_matrix(rng, dh * dg, dg)
        phi = rand_matrix(rng, dh * de, dg)
        f = assemble_split_map(e, g, phi, de, dg, dh)
        assert trace_triangle_check(e, f, g, de, dg, dh).ok


def test_trace_triangle_reports_defect():
    rng = random.Random(13)
    e = rand_matrix(rng, 4, 2)
    g = rand_matrix(rng, 4, 2)
    f = assemble_split_map(e, g, SparseMatrix.zero(4, 2), 2, 2, 2)
    g_bad = g + SparseMatrix(4, 2, {(0, 0): ONE})
    report = trace_triangle_check(e, f, g_bad, 2, 2, 2)
    assert not report.ok
    # the defect is the last comparison, shown as the vector it is
    assert report.comparisons[-1] == ("Tr_E(e) - Tr_F(f) + Tr_G(g)", "[1, 0]", "[0, 0]", False)


def test_trace_triangle_shows_the_block_of_f_that_breaks_a_split_hypothesis():
    # E, G and H of dimensions 2, 3 and 2; f index (i_H * 5 + j), E at j < 2
    rng = random.Random(17)
    de, dg, dh = 2, 3, 2
    e, g = rand_matrix(rng, dh * de, de), rand_matrix(rng, dh * dg, dg)
    f = assemble_split_map(e, g, rand_matrix(rng, dh * de, dg), de, dg, dh)
    passing = trace_triangle_check(e, f, g, de, dg, dh)
    assert passing.comparisons == [("split hypothesis (no E->G block)", "True", "True", True),
                                   ("Tr_E(e) - Tr_F(f) + Tr_G(g)", "[0, 0]", "[0, 0]", True)]
    planted = 7 * ONE  # at row 5 i_H + j, column c of f and the matching entry of its block
    cases = [("f restricts to e on E", (5 + 1, 0), e, SparseMatrix(dh * de, de, {(3, 0): planted})),
             ("f induces g on G", (5 + 3, 4), g, SparseMatrix(dh * dg, dg, {(4, 2): planted})),
             ("split hypothesis (no E->G block)", (5 + 4, 1), SparseMatrix.zero(dh * dg, de),
              SparseMatrix(dh * dg, de, {(5, 1): planted}))]
    for label, at, want, offset in cases:
        wrong = f + SparseMatrix(f.rows, f.cols, {at: planted})
        report = trace_triangle_check(e, wrong, g, de, dg, dh)
        assert not report.ok
        failed = [(l, left, right) for l, left, right, ok in report.comparisons if not ok]
        # the block of f as it is, against what it should be: they differ at the plant
        assert (label, format_value(want + offset), format_value(want)) in failed


def test_format_value_prints_every_kind_of_side():
    s3 = algebra_fixture("s3")
    assert format_value(cyc(1) / cyc(3)) == "1/3"
    assert format_value(7) == "7" and format_value(True) == "True"
    assert format_value([2, 1, 1]) == str([2, 1, 1])
    assert format_value(vec([1, -2])) == "[1, -2]"
    assert format_value(SparseMatrix(2, 2, {(0, 1): 3, (1, 0): ONE / cyc(2)})) \
        == "[[0, 3], [1/2, 0]]"
    assert format_value(chern(simples_of(s3)[0])) == repr(chern(simples_of(s3)[0]))
    assert format_value("already text") == "already text"


# --- hochschild trace and chern -----------------------------------------------------

def test_hochschild_trace_values():
    for name in ["zn:4", "s3", "q8"]:
        a = algebra_fixture(name)
        assert hochschild_trace(a, a.unit) == cyc(a.dim)
    dual = algebra_fixture("dual")
    with pytest.raises(MissingSerreData):
        hochschild_trace(dual, dual.unit)


def test_hochschild_trace_linear():
    rng = random.Random(15)
    s3 = algebra_fixture("s3")
    x = vec([rng.randint(-3, 3) for _ in range(6)])
    y = vec([rng.randint(-3, 3) for _ in range(6)])
    both = tuple(a + b for a, b in zip(x, y))
    assert hochschild_trace(s3, both) == \
        hochschild_trace(s3, x) + hochschild_trace(s3, y)


def test_chern_field_case():
    f = algebra_fixture("field")
    m = ModuleRep(f, 3, [SparseMatrix.identity(3)], name="C3", check=False)
    assert chern(m) == MukaiClass(f, vec([3]), _checked=True)


def test_chern_z2_closed_forms():
    z2 = algebra_fixture("zn:2")
    triv, sign = simples_of(z2)
    half = Fraction(1, 2)
    assert chern(triv).coords == vec([half, half])
    assert chern(sign).coords == vec([half, -half])


def test_chern_s3_standard_rep_closed_form():
    # the defining property forces ch(V) = (1/6) sum_g chi_V(g^-1) g, which
    # carries a 1/chi(1) factor relative to the block idempotent
    s3 = algebra_fixture("s3")
    std = simples_of(s3)[2]
    table = s3.provenance[2]
    identity = s3.provenance[3]
    inverse = {g: next(h for h in range(6) if table[g][h] == identity)
               for g in range(6)}
    expected = [std.action[inverse[g]].trace() / cyc(6) for g in range(6)]
    assert chern(std).coords == tuple(expected)
    # idempotent comparison: ch scaled by dim is the central idempotent
    e = chern(std).scale(std.dim)
    assert s3.mul(e.coords, e.coords) == e.coords


def test_chern_defining_property_random_central():
    rng = random.Random(17)
    for name in ["zn:5", "s3", "d4", "q8", "a4"]:
        a = algebra_fixture(name)
        for m in simples_of(a):
            ch = chern(m)
            f = rand_central(rng, a)
            assert hochschild_trace(a, a.mul(ch.coords, f.coords)) == \
                m.character(f.coords)


def test_chern_additivity():
    z2 = algebra_fixture("zn:2")
    triv, sign = simples_of(z2)
    assert chern_additivity_check(triv, sign).ok
    both = chern(triv) + chern(sign)
    assert both.coords == vec([1, 0])
    assert chern(regular_module(z2)) == both


def test_chern_needs_serre():
    dual = algebra_fixture("dual")
    m = regular_module(dual)
    with pytest.raises(MissingSerreData):
        chern(m)


def test_chern_singular_gram_on_weird_input():
    # a symmetric Frobenius but non-semisimple algebra would make the center
    # gram singular; the dual numbers carry no Frobenius data here, so the
    # failure is the missing-data error instead, checked above.  Build a
    # symmetric form on the dual numbers by hand to reach the singular path.
    from hochkit.algebra import Algebra, DictSC, SerreData
    from hochkit.linalg import unit_vector
    sc = DictSC({(0, 0): {0: ONE}, (0, 1): {1: ONE},
                 (1, 0): {1: ONE}, (1, 1): {}})
    a = Algebra(2, sc, unit_vector(2, 0), serre=SerreData(vec([0, 1])),
                provenance=("custom", "dual-with-form"))
    m = ModuleRep(a, 1, [SparseMatrix.identity(1), SparseMatrix.zero(1, 1)],
                  name="pt", check=True)
    with pytest.raises(SingularGram):
        chern(m)


# --- pairing ------------------------------------------------------------------------

def test_pairing_z2_value():
    z2 = algebra_fixture("zn:2")
    ch_t = chern(simples_of(z2)[0])
    assert mukai_pairing(ch_t, ch_t) == ONE


def test_pairing_zero_and_bilinear():
    rng = random.Random(19)
    s3 = algebra_fixture("s3")
    zero = MukaiClass(s3, (ZERO,) * 6, _checked=True)
    w = rand_central(rng, s3)
    assert mukai_pairing(zero, w) == ZERO
    u, v = rand_central(rng, s3), rand_central(rng, s3)
    assert mukai_pairing(u + v, w) == mukai_pairing(u, w) + mukai_pairing(v, w)


def test_pairing_gram_nondegenerate():
    for name in ["zn:2", "zn:6", "s3", "d4", "q8", "a4", "mat:3"]:
        a = algebra_fixture(name)
        gram = pairing_gram(a)
        assert rank(gram) == gram.rows


# The per-pair formulas the trace form replaced, kept as oracles: the trace
# of each product, and the Gram as a double loop over the center basis.

def old_mukai_pairing(v, w):
    a = v.algebra
    return hochschild_trace(a, a.mul(v.coords, w.coords))


def old_pairing_gram(a):
    zs = [MukaiClass(a, z, _checked=True) for z in center_rows(a)]
    return SparseMatrix(len(zs), len(zs), {(i, j): old_mukai_pairing(v, w)
                                           for i, v in enumerate(zs)
                                           for j, w in enumerate(zs)})


@pytest.mark.parametrize("name", ALL_GROUP_FIXTURES + ("mat:2", "op(s3)", "tensor(mat:2,s3)"))
def test_trace_form_matches_per_pair_products(name):
    rng = random.Random(71)
    a = algebra_fixture(name)
    t = trace_form(a)
    assert t == t.transpose()
    assert trace_form(a) is t
    assert pairing_gram(a) == old_pairing_gram(a)
    for _ in range(5):
        v, w = rand_central(rng, a), rand_central(rng, a)
        assert mukai_pairing(v, w) == old_mukai_pairing(v, w)
    # route B: the classes pulled back from zn:2, paired with the center of a
    z2 = algebra_fixture("zn:2")
    k = outer_kernel(simples_of(a)[-1].dual(), simples_of(z2)[1], a)
    pulled = [adjoint_transfer(k, nu) for nu in _classes(z2, center_basis(z2))]
    za = _classes(a, center_basis(a))
    assert SparseMatrix.from_dense([p.coords for p in pulled]) * t * center_basis(a).transpose() \
        == SparseMatrix.from_dense([[old_mukai_pairing(p, z) for z in za] for p in pulled])
    v = rand_central(rng, a)
    assert pushforward(k, v) == old_pushforward(k, v)


# --- riemann-roch, todd, cardy -------------------------------------------------------

def test_pushforward_of_zero_is_zero():
    z2, z3 = algebra_fixture("zn:2"), algebra_fixture("zn:3")
    K = outer_kernel(simples_of(z2)[1].dual(), simples_of(z3)[1], z2)
    zero = MukaiClass(z2, (ZERO, ZERO), _checked=True)
    assert not pushforward(K, zero)


def test_hrr_simple_pairs_are_delta():
    for name in ["zn:2", "zn:3", "zn:7", "zn:8", "s3", "q8"]:
        a = algebra_fixture(name)
        simples = simples_of(a)
        for i, x in enumerate(simples):
            for j, y in enumerate(simples):
                value = mukai_pairing(chern(x), chern(y))
                assert value == (ONE if i == j else ZERO)
                assert hrr_check(x, y).ok


def test_hrr_regular_module():
    z2 = algebra_fixture("zn:2")
    reg = regular_module(z2)
    assert mukai_pairing(chern(reg), chern(reg)) == cyc(2)
    assert hrr_check(reg, reg).ok


def test_todd():
    z2 = algebra_fixture("zn:2")
    triv = simples_of(z2)[0]
    td = todd(z2, triv)
    assert td.coords == vec([Fraction(1, 2), Fraction(1, 2)])
    assert todd_hrr_check(z2, triv, regular_module(z2)).ok
    s3 = algebra_fixture("s3")
    assert todd_hrr_check(s3, simples_of(s3)[0], simples_of(s3)[2]).ok
    with pytest.raises(AugmentationNot1Dim):
        todd(s3, simples_of(s3)[2])


def test_cardy_reduces_to_hrr_at_identity():
    s3 = algebra_fixture("s3")
    simples = simples_of(s3)
    for x in simples:
        for y in simples:
            rep = cardy_check(x, y, SparseMatrix.identity(x.dim),
                              SparseMatrix.identity(y.dim))
            assert rep.ok
            assert rep.comparisons[0][1] == hrr_check(x, y).comparisons[0][1]


def test_cardy_zero_hom():
    s3 = algebra_fixture("s3")
    triv, sign, _ = simples_of(s3)
    rep = cardy_check(triv, sign, SparseMatrix.identity(1), SparseMatrix.identity(1))
    assert rep.ok
    assert rep.comparisons[0][1] == "0"


def test_cardy_random_instances():
    rng = random.Random(21)
    for name in ["zn:3", "s3", "q8"]:
        a = algebra_fixture(name)
        simples = simples_of(a)
        for _ in range(8):
            e_mod = simples[rng.randrange(len(simples))].direct_sum(
                simples[rng.randrange(len(simples))])
            f_mod = simples[rng.randrange(len(simples))].direct_sum(
                simples[rng.randrange(len(simples))])
            assert cardy_check(e_mod, f_mod, rand_intertwiner(rng, e_mod),
                               rand_intertwiner(rng, f_mod)).ok


# --- iota ---------------------------------------------------------------------------

def test_iota_identity_is_chern():
    s3 = algebra_fixture("s3")
    for m in simples_of(s3):
        assert iota_solve(m, SparseMatrix.identity(m.dim)) == chern(m)


def test_iota_zero():
    s3 = algebra_fixture("s3")
    std = simples_of(s3)[2]
    z = iota_solve(std, SparseMatrix.zero(2, 2))
    assert not z


def test_iota_block_projection():
    # projecting the regular module onto one isotypic block has iota equal to
    # the chern class of that block
    z2 = algebra_fixture("zn:2")
    reg = regular_module(z2)
    triv, sign = simples_of(z2)
    # projector onto the trivial isotypic piece: (1/2)(1 + s) acting on reg
    proj = reg.act(vec([Fraction(1, 2), Fraction(1, 2)]))
    assert proj * proj == proj
    assert iota_solve(reg, proj) == chern(triv)


# --- transfer maps ------------------------------------------------------------------

def test_adjoint_transfer_regular_kernel_is_identity():
    s3 = algebra_fixture("s3")
    K = regular_bimodule(s3)
    rng = random.Random(23)
    v = rand_central(rng, s3)
    assert adjoint_transfer(K, v) == v
    zero = MukaiClass(s3, (ZERO,) * 6, _checked=True)
    assert adjoint_transfer(K, zero) == zero


def test_adjoint_transfer_defining_identity_on_held_out_modules():
    # verify the defining identity on a random direct sum with a random
    # intertwiner, neither of which entered the solve
    rng = random.Random(25)
    z2, z3 = algebra_fixture("zn:2"), algebra_fixture("zn:3")
    sa, sb = simples_of(z2), simples_of(z3)
    K = outer_kernel(sa[1].dual(), sb[2], z2)
    from hochkit.modules import apply_kernel_full
    nu = rand_central(rng, z3)
    z = adjoint_transfer(K, nu)
    m = sa[0].direct_sum(sa[1]).direct_sum(sa[1])
    mu = rand_intertwiner(rng, m)
    applied = apply_kernel_full(K, m)
    lhs = (m.act(z.coords) * mu).trace()
    rhs = (applied.module.act(nu.coords) * applied.map_morphism(mu)).trace()
    assert lhs == rhs


def test_pushforward_identity_kernel():
    s3 = algebra_fixture("s3")
    K = regular_bimodule(s3)
    for z in center_rows(s3):
        v = MukaiClass(s3, z, _checked=True)
        assert pushforward(K, v) == v


def test_pushforward_collapse_to_field():
    # kernel to the base field: counts with multiplicity
    z2 = algebra_fixture("zn:2")
    field = algebra_fixture("field")
    triv, sign = simples_of(z2)
    V = triv.dual()
    W = ModuleRep(field, 1, [SparseMatrix.identity(1)], name="C", check=False)
    K = outer_kernel(V, W, z2)
    out = pushforward(K, chern(triv))
    assert out == MukaiClass(field, vec([1]), _checked=True)
    out = pushforward(K, chern(sign))
    assert not out


def test_pushforward_morita_kernel_bijective():
    from hochkit.mukai import morita_kernel
    z2 = algebra_fixture("zn:2")
    K = morita_kernel(z2, 2)
    images = [pushforward(K, MukaiClass(z2, z, _checked=True))
              for z in center_rows(z2)]
    mat = SparseMatrix.from_columns([im.coords for im in images], K.target.dim)
    assert rank(mat) == 2


def test_adjointness_outer_kernel_z2_z3():
    z2, z3 = algebra_fixture("zn:2"), algebra_fixture("zn:3")
    V = simples_of(z2)[1].dual()
    W = simples_of(z3)[1]
    K = outer_kernel(V, W, z2)
    rep = adjointness_check(K)
    assert rep.ok
    assert len(rep.comparisons) == 6  # all 2 x 3 basis pairs


def test_adjointness_regular_kernel():
    s3 = algebra_fixture("s3")
    assert adjointness_check(regular_bimodule(s3)).ok


def test_functoriality_with_regular_kernel():
    z2, s3 = algebra_fixture("zn:2"), algebra_fixture("s3")
    V = simples_of(z2)[0].dual()
    W = simples_of(s3)[2]
    K = outer_kernel(V, W, z2)
    assert functoriality_check(K, regular_bimodule(s3)).ok


def test_functoriality_chain():
    rng = random.Random(29)
    z2, z3, s3 = (algebra_fixture(n) for n in ["zn:2", "zn:3", "s3"])
    sa, sb, sc_ = simples_of(z2), simples_of(z3), simples_of(s3)
    for _ in range(3):
        k1 = outer_kernel(sa[rng.randrange(2)].dual(), sb[rng.randrange(3)], z2)
        k2 = outer_kernel(sb[rng.randrange(3)].dual(), sc_[rng.randrange(3)], z3)
        assert functoriality_check(k1, k2).ok


def test_chern_commutation():
    rng = random.Random(31)
    z2, z3 = algebra_fixture("zn:2"), algebra_fixture("zn:3")
    sa, sb = simples_of(z2), simples_of(z3)
    K = outer_kernel(sa[1].dual(), sb[2], z2)
    for _ in range(3):
        m = sa[rng.randrange(2)].direct_sum(sa[rng.randrange(2)])
        assert chern_commutation_check(K, m).ok


def _product(x, y):
    """The product of two classes, read off their algebra's multiplication."""
    return MukaiClass(x.algebra, x.algebra.mul(x.coords, y.coords), _checked=True)


def test_cohomology_transport_is_ring_map():
    from hochkit.mukai import morita_kernel
    s3 = algebra_fixture("s3")
    K = morita_kernel(s3, 2)
    zs = center_rows(s3)
    t = [cohomology_transport(K, MukaiClass(s3, z, _checked=True))
         for z in zs]
    one = cohomology_transport(K, MukaiClass(s3, s3.unit, _checked=True))
    assert one == MukaiClass(K.target, K.target.unit, _checked=True)
    for i in range(len(zs)):
        for j in range(len(zs)):
            vi = MukaiClass(s3, zs[i], _checked=True)
            vj = MukaiClass(s3, zs[j], _checked=True)
            assert cohomology_transport(K, _product(vi, vj)) == _product(t[i], t[j])


def test_morita_isometry_field_z2():
    assert morita_isometry_check(algebra_fixture("field"), 2, hh_maxdeg=2).ok
    assert morita_isometry_check(algebra_fixture("zn:2"), 2, hh_maxdeg=3).ok


def test_morita_isometry_s3():
    assert morita_isometry_check(algebra_fixture("s3"), 2).ok


def test_isometry_of_pushforward_along_morita_kernel():
    from hochkit.mukai import morita_kernel
    z2 = algebra_fixture("zn:2")
    K = morita_kernel(z2, 2)
    zs = center_rows(z2)
    for zi in zs:
        for zj in zs:
            vi = MukaiClass(z2, zi, _checked=True)
            vj = MukaiClass(z2, zj, _checked=True)
            assert mukai_pairing(pushforward(K, vi), pushforward(K, vj)) == \
                mukai_pairing(vi, vj)


# --- transfer maps as whole maps, once per kernel --------------------------------
#
# The routes below are the per-vector computations the transfer maps replaced:
# every call solves its own system and applies the kernel to every simple
# again.  They stay here as oracles.

def _old_solve(m, b):
    """A vector solve: the one column of the block solve."""
    from hochkit.linalg import solve
    x = solve(m, SparseMatrix.from_columns([tuple(b)], m.rows))
    return None if x is None else x.transpose().row_vector(0)


def _old_combine(a, x, basis):
    coords = [ZERO] * a.dim
    for c, z in zip(x, basis):
        if c:
            coords = [acc + c * zc for acc, zc in zip(coords, z)]
    return MukaiClass(a, tuple(coords), _checked=True)


def old_adjoint_transfer(k, nu):
    from hochkit.modules import apply_kernel_full
    a = k.source
    rows, rhs = [], []
    zbasis = center_rows(a)
    for s in simples_of(a):
        applied = apply_kernel_full(k, s)
        nu_action = applied.module.act(nu.coords)
        for mu in hom_space(s, s).basis:
            rows.append([(s.act(z) * mu).trace() for z in zbasis])
            rhs.append((nu_action * applied.map_morphism(mu)).trace())
    system = SparseMatrix.from_dense(rows)
    x = _old_solve(system, rhs)
    if x is None or rank(system) < len(zbasis):
        raise SingularGram("character system of the simples does not determine z")
    return _old_combine(a, x, zbasis)


def old_pushforward(k, v):
    from hochkit.modules import apply_kernel
    a, b = k.source, k.target
    simples = simples_of(a)
    system = SparseMatrix.from_columns([chern(s).coords for s in simples], a.dim)
    x = _old_solve(system, v.coords)
    route_a = MukaiClass(b, (ZERO,) * b.dim, _checked=True)
    for c, s in zip(x, simples):
        if c:
            route_a = route_a + chern(apply_kernel(k, s)).scale(c)
    zbasis_b = center_rows(b)
    gram_b = old_pairing_gram(b)
    rhs = [old_mukai_pairing(old_adjoint_transfer(k, MukaiClass(b, z, _checked=True)), v)
           for z in zbasis_b]
    route_b = _old_combine(b, _old_solve(gram_b, rhs), zbasis_b)
    assert route_a == route_b
    return route_a


def old_cohomology_transport(k, nu):
    from hochkit.modules import apply_kernel_full
    a, b = k.source, k.target
    zbasis = center_rows(b)
    rows, rhs = [], []
    for s in simples_of(a):
        applied = apply_kernel_full(k, s)
        omega = s.act(nu.coords).trace() / cyc(s.dim)
        rows.append([applied.module.character(z) for z in zbasis])
        rhs.append(omega * cyc(applied.module.dim))
    system = SparseMatrix.from_dense(rows)
    x = _old_solve(system, rhs)
    if x is None or rank(system) < len(zbasis):
        raise SingularGram("kernel images do not determine the transported element")
    return _old_combine(b, x, zbasis)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SingularGram as exc:
        return ("SingularGram", str(exc))


def _transfer_kernels():
    """(label, builder) pairs; each builder returns a fresh kernel."""
    from hochkit.mukai import morita_kernel

    def outer(src, i, dst, j):
        a, b = algebra_fixture(src), algebra_fixture(dst)
        return lambda: outer_kernel(simples_of(a)[i].dual(), simples_of(b)[j], a)

    def to_field():
        s3 = algebra_fixture("s3")
        point = ModuleRep(algebra_fixture("field"), 2, [SparseMatrix.identity(2)],
                          name="C2", check=False)
        return outer_kernel(simples_of(s3)[2].dual(), point, s3)

    return [
        ("outer zn:3 -> zn:4", outer("zn:3", 1, "zn:4", 3)),
        ("outer s3 -> q8", outer("s3", 2, "q8", 4)),
        ("outer zn:2 -> s3", outer("zn:2", 1, "s3", 2)),
        ("morita s3", lambda: morita_kernel(algebra_fixture("s3"), 2)),
        ("regular zn:3", lambda: regular_bimodule(algebra_fixture("zn:3"))),
        ("s3 -> field", to_field),
    ]


@pytest.mark.parametrize("label,build", _transfer_kernels(),
                         ids=[label for label, _ in _transfer_kernels()])
def test_transfer_maps_match_per_vector_routes(label, build):
    rng = random.Random(41)
    probe = build()
    a, b = probe.source, probe.target
    sources = [rand_central(rng, a) for _ in range(2)] + [MukaiClass(a, a.unit, _checked=True)]
    targets = [rand_central(rng, b) for _ in range(2)]
    expected = ([old_pushforward(probe, v) for v in sources],
                [old_adjoint_transfer(probe, nu) for nu in targets],
                [_outcome(old_cohomology_transport, probe, v) for v in sources])
    # pushforward first on one fresh kernel, the two other maps first on another
    k = build()
    pushed = [pushforward(k, v) for v in sources]
    got = (pushed, [adjoint_transfer(k, nu) for nu in targets],
           [_outcome(cohomology_transport, k, v) for v in sources])
    assert got == expected
    k = build()
    transported = [_outcome(cohomology_transport, k, v) for v in sources]
    pulled = [adjoint_transfer(k, nu) for nu in targets]
    assert ([pushforward(k, v) for v in sources], pulled, transported) == expected


def test_transfer_applies_kernel_once_per_simple(monkeypatch):
    import hochkit.mukai as mukai
    calls = []
    real = mukai.apply_kernel_full

    def counted(k, m):
        calls.append(m.name)
        return real(k, m)

    monkeypatch.setattr(mukai, "apply_kernel_full", counted)
    rng = random.Random(43)
    s3 = algebra_fixture("s3")
    K = regular_bimodule(s3)
    for _ in range(10):
        v = rand_central(rng, s3)
        assert pushforward(K, v) == v
    adjoint_transfer(K, rand_central(rng, s3))
    cohomology_transport(K, rand_central(rng, s3))
    assert sorted(calls) == sorted(s.name for s in simples_of(s3))


def test_pushforward_routes_disagree_is_raised(monkeypatch):
    import hochkit.mukai as mukai
    from hochkit.errors import RoutesDisagree
    z2, z3 = algebra_fixture("zn:2"), algebra_fixture("zn:3")
    K = outer_kernel(simples_of(z2)[1].dual(), simples_of(z3)[2], z2)
    real = mukai.chern

    def corrupted(m):
        # doubles the classes of route A's images on the target side only
        return real(m).scale(2) if m.algebra == z3 else real(m)

    monkeypatch.setattr(mukai, "chern", corrupted)
    with pytest.raises(RoutesDisagree, match="pushforward routes disagree"):
        pushforward(K, MukaiClass(z2, z2.unit, _checked=True))
    monkeypatch.undo()
    v = chern(simples_of(z2)[1])
    assert pushforward(K, v) == chern(simples_of(z3)[2])


def _shifted(a):
    """`a` in the basis f_i = e_i + e_(i+1) (f_last = e_last), so that its
    center basis is no longer made of class sums with equal entries."""
    n = a.dim
    return rebased(a, [[ONE if k in (i, i + 1) else ZERO for k in range(n)] for i in range(n)])


@pytest.mark.parametrize("name", ["s3", "zn:6", "d4", "q8", "mat:3", "a4", "rebased s3"])
def test_center_coordinates_round_trip(name):
    from hochkit.mukai import _center_coords
    rng = random.Random(47)
    a = _shifted(algebra_fixture("s3")) if name == "rebased s3" else algebra_fixture(name)
    assert 6 <= a.dim <= 12
    basis = center_basis(a).transpose()
    for _ in range(5):
        v = rand_central(rng, a)
        assert (basis * _center_coords(a)).apply(v.coords) == v.coords


def test_pairing_gram_built_once_per_algebra(monkeypatch):
    # the Gram is built only to solve the dual basis, which is kept on the algebra
    import hochkit.mukai as mukai
    from hochkit.mukai import _dual_basis, morita_kernel
    built = []
    real = mukai.pairing_gram

    def counted(a):
        built.append(a)
        return real(a)

    monkeypatch.setattr(mukai, "pairing_gram", counted)
    rng = random.Random(61)
    s3 = algebra_fixture("s3")
    monkeypatch.setattr(s3, "_derived", {})  # the fixture is shared
    for m in simples_of(s3):
        chern(m)
        iota_solve(m, rand_intertwiner(rng, m))
    assert [id(a) for a in built] == [id(s3)]
    K = morita_kernel(s3, 2)
    pushforward(K, rand_central(rng, s3))
    assert len(built) == 2
    assert {id(a) for a in built} == {id(s3), id(K.target)}
    assert _dual_basis(s3) is _dual_basis(s3)
    assert _dual_basis(K.target) is _dual_basis(K.target)
    assert len(built) == 2


def test_pairing_gram_does_not_pin_algebra():
    import gc
    import weakref
    from hochkit.mukai import _dual_basis
    a = algebra_fixture("mat:2")  # built fresh, unlike the group fixtures
    assert _dual_basis(a) is _dual_basis(a)
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None


# --- Chern classes through the dual basis of the pairing ---------------------------

def _gram_solve(a, traces):
    """The central z with hochschild_trace(z * z_j) = traces[j] for the
    center basis z_j, solved as one column against the pairing Gram: the
    per-module route the dual basis replaced, kept as the oracle."""
    gram = old_pairing_gram(a)
    x = _old_solve(gram, traces)
    if x is None or rank(gram) < gram.rows:
        raise SingularGram("trace pairing on the center is singular here")
    return _old_combine(a, x, center_rows(a))


def _dual_basis_cases():
    cases = [(name, lambda name=name: algebra_fixture(name))
             for name in ALL_GROUP_FIXTURES + ("mat:3", "tensor(zn:3,zn:4)")]
    return cases + [("rebased s3", lambda: _shifted(algebra_fixture("s3")))]


@pytest.mark.parametrize("label,build", _dual_basis_cases(),
                         ids=[label for label, _ in _dual_basis_cases()])
def test_chern_and_iota_match_one_column_gram_solves(label, build):
    rng = random.Random(67)
    a = build()
    simples = simples_of(a)
    modules = list(simples) + [simples[0].direct_sum(simples[-1])]
    zs = center_rows(a)
    for m in modules:
        assert chern(m) == _gram_solve(a, [m.character(z) for z in zs])
        e = rand_intertwiner(rng, m)
        assert iota_solve(m, e) == \
            _gram_solve(a, [(m.act(z) * e).trace() for z in zs])


def test_iota_singular_gram_on_weird_input():
    # the degenerate symmetric form of test_chern_singular_gram_on_weird_input
    from hochkit.algebra import Algebra, DictSC, SerreData
    from hochkit.linalg import unit_vector
    sc = DictSC({(0, 0): {0: ONE}, (0, 1): {1: ONE},
                 (1, 0): {1: ONE}, (1, 1): {}})
    a = Algebra(2, sc, unit_vector(2, 0), serre=SerreData(vec([0, 1])),
                provenance=("custom", "dual-with-form"))
    m = ModuleRep(a, 1, [SparseMatrix.identity(1), SparseMatrix.zero(1, 1)],
                  name="pt", check=True)
    with pytest.raises(SingularGram):
        iota_solve(m, SparseMatrix.identity(1))


# --- the algebra-side halves of the transfer maps, once per algebra ---------------

def per_kernel_transfer_matrices(k):
    """The adjoint and pushforward matrices of k with every system solved for
    this kernel alone: the character rows built from hom_space and solved by
    `_solve_central`, and the simples' Chern expansion solved again.  The
    route the per-algebra caches replaced, kept as their oracle."""
    from hochkit.linalg import solve
    from hochkit.modules import apply_kernel_full
    from hochkit.mukai import _center_coords, _center_traces, _solve_central
    a, b = k.source, k.target
    applied = [(s, apply_kernel_full(k, s)) for s in simples_of(a)]
    rows, rhs = [], []
    for s, image in applied:
        for mu in hom_space(s, s).basis:
            rows.append(_center_traces(s, mu))
            rhs.append(_center_traces(image.module, image.map_morphism(mu)))
    adjoint = _solve_central(a, SparseMatrix.from_dense(rows), SparseMatrix.from_dense(rhs),
                             "character system of the simples does not determine z")
    system = SparseMatrix.from_columns([chern(s).coords for s in simples_of(a)], a.dim)
    pushed = SparseMatrix.from_columns([chern(image.module).coords for _, image in applied],
                                       b.dim)
    expansions = solve(system, center_basis(a).transpose())
    return adjoint * _center_coords(b), pushed * expansions * _center_coords(a)


def _kept(obj, builder):
    """Whether `obj._derived` holds a value built by the `derived` function `builder`."""
    return any(key[0] is builder.__wrapped__ for key in obj._derived)


def _cached_transfer_matrices(k):
    from hochkit.mukai import _adjoint_matrix, _pushforward_matrix
    pushforward(k, MukaiClass(k.source, k.source.unit, _checked=True))
    assert _kept(k, _adjoint_matrix) and _kept(k, _pushforward_matrix)
    return _adjoint_matrix(k), _pushforward_matrix(k)


def _zn3_with(picks):
    """A fresh zn:3 whose attached simples are the characters chi_p, p in picks."""
    from hochkit.algebra import group_algebra
    from hochkit.fixtures import cyclic_group
    from hochkit.modules import attach_simples
    from hochkit.scalars import zeta
    table, labels, gens = cyclic_group(3)
    a = group_algebra(table, labels=labels, gens=gens, name="zn:3")
    attach_simples(a, [ModuleRep(a, 1, [SparseMatrix.from_dense([[zeta(3, p * g % 3)]])
                                        for g in range(3)], name=f"chi{p}", check=True)
                       for p in picks])
    return a


def _cached_transfer_kernels():
    from hochkit.cli import _kernel_library
    from hochkit.modules import convolve
    from hochkit.mukai import morita_kernel
    library = _kernel_library(random.Random(20245), 10)
    z3, z4 = algebra_fixture("zn:3"), algebra_fixture("zn:4")
    mixed = outer_kernel(simples_of(z3)[1].dual(), simples_of(z4)[3], z3)
    return library + [dual_kernel(k) for k in library] + [
        mixed, morita_kernel(algebra_fixture("s3"), 2), convolve(library[0], library[1])]


def test_cached_transfer_matrices_match_per_kernel_solves():
    kernels = _cached_transfer_kernels()
    assert kernels[0].target == kernels[1].source  # the convolution is defined
    assert kernels[-3].target.field_order == 4 and kernels[-3].source.field_order == 3
    got = [_cached_transfer_matrices(k) for k in kernels]
    assert got == [per_kernel_transfer_matrices(k) for k in kernels]


def test_overdetermined_character_system(monkeypatch):
    import hochkit.mukai as mukai
    from hochkit.mukai import _adjoint_matrix, _applied_simples, _character_system
    z4 = algebra_fixture("zn:4")

    def kernel(a):
        return outer_kernel(simples_of(a)[1].dual(), simples_of(z4)[3], a)

    # chi1 repeated after the other characters, and before them: a dependent
    # row of S_a ahead of independent ones
    once, twice, early = (_zn3_with(picks) for picks in ([0, 1, 2], [0, 1, 2, 1], [1, 1, 0, 2]))
    for a in (once, twice, early):
        _, system, left_inverse = _character_system(a)
        assert (system.rows, system.cols) == (len(simples_of(a)), 3)
        assert left_inverse * system == SparseMatrix.identity(3)
    assert _cached_transfer_matrices(kernel(twice)) == _cached_transfer_matrices(kernel(once))
    assert _cached_transfer_matrices(kernel(twice)) == per_kernel_transfer_matrices(kernel(once))
    assert _cached_transfer_matrices(kernel(early)) == per_kernel_transfer_matrices(kernel(early))
    # the repeated chi1 sent where chi2 goes: its rows of the right-hand side
    # contradict those of the first chi1
    k = kernel(twice)
    applied = _applied_simples(k)
    monkeypatch.setattr(mukai, "_applied_simples",
                        lambda _: applied[:3] + [(applied[3][0], applied[2][1])])
    with pytest.raises(SingularGram, match="character system"):
        adjoint_transfer(k, MukaiClass(z4, z4.unit, _checked=True))
    assert not _kept(k, _adjoint_matrix)


def test_failed_algebra_side_solves_cache_nothing():
    from hochkit.algebra import Algebra, DictSC, SerreData
    from hochkit.linalg import unit_vector
    from hochkit.mukai import _character_system, _chern_expansion, _dual_basis
    z4 = algebra_fixture("zn:4")
    a = _zn3_with([0, 1])  # chi2 missing: neither system spans the center
    k = outer_kernel(simples_of(a)[1].dual(), simples_of(z4)[3], a)
    with pytest.raises(SingularGram, match="do not span"):
        pushforward(k, MukaiClass(a, a.unit, _checked=True))
    assert _kept(a, _dual_basis) and not _kept(a, _chern_expansion)
    with pytest.raises(SingularGram, match="character system"):
        adjoint_transfer(k, MukaiClass(z4, z4.unit, _checked=True))
    assert not _kept(a, _character_system)
    sc = DictSC({(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE}, (1, 1): {}})
    weird = Algebra(2, sc, unit_vector(2, 0), serre=SerreData(vec([0, 1])),
                    provenance=("custom", "dual-with-form"))
    with pytest.raises(SingularGram, match="singular"):
        _dual_basis(weird)
    assert not _kept(weird, _dual_basis)


def test_algebra_side_systems_solved_once_per_source(monkeypatch):
    # outer kernels that share their sources: hom_space(S, S) on the source
    # simples and mukai's solves run once per algebra, not once per kernel
    import hochkit.mukai as mukai
    z3, z4, s3 = (algebra_fixture(n) for n in ("zn:3", "zn:4", "s3"))
    for a in (z3, z4, s3):
        monkeypatch.setattr(a, "_derived", {})  # the fixtures are shared
    ends, solves = [], []
    real_hom, real_solve = mukai.hom_space, mukai.solve

    def counted_hom(m, n):
        if m is n:
            ends.append(m)
        return real_hom(m, n)

    def counted_solve(m, rhs):
        solves.append((m.rows, m.cols))
        return real_solve(m, rhs)

    monkeypatch.setattr(mukai, "hom_space", counted_hom)
    monkeypatch.setattr(mukai, "solve", counted_solve)
    picks = [(z3, 1, z4, 3), (z3, 2, z4, 1), (z3, 1, s3, 2), (s3, 2, z3, 1),
             (s3, 0, z4, 3), (s3, 1, s3, 2), (z3, 0, s3, 0), (s3, 2, z4, 2)]
    for a, i, b, j in picks:
        k = outer_kernel(simples_of(a)[i].dual(), simples_of(b)[j], a)
        pushforward(k, MukaiClass(a, a.unit, _checked=True))
    sources = (z3, s3)
    assert sorted(map(id, ends)) == sorted(id(s) for a in sources for s in simples_of(a))
    # per source its Chern expansion and character system, per algebra its dual basis
    assert len(solves) == 2 * len(sources) + 3


# --- the transfer verifiers as matrix identities -----------------------------------
#
# The per-pair loops the verifiers replaced: every pair of center basis vectors
# goes through classes, the public transfer maps, the pairing and products of
# classes.  They stay here as oracles.

def old_adjointness_check(k):
    report = CheckReport("adjointness of transfer maps", "adjoint-pairing")
    dk = dual_kernel(k)
    a, b = k.source, k.target
    za, zb = _classes(a, center_basis(a)), _classes(b, center_basis(b))
    pushed = [pushforward(k, wa) for wa in za]
    for i, vb in enumerate(zb):
        pulled = pushforward(dk, vb)
        for j, wa in enumerate(za):
            report.compare(f"pair ({i}, {j})", mukai_pairing(vb, pushed[j]),
                           mukai_pairing(pulled, wa))
    return report


def old_functoriality_check(k1, k2):
    report = CheckReport("pushforward functoriality", "pushforward-composition")
    composed = convolve(k1, k2)
    for i, v in enumerate(_classes(k1.source, center_basis(k1.source))):
        report.compare(f"basis vector {i}", pushforward(composed, v),
                       pushforward(k2, pushforward(k1, v)))
    return report


def old_morita_isometry_check(a, n):
    report = CheckReport(f"morita invariance vs M_{n} amplification", "morita-invariance")
    k = morita_kernel(a, n)
    b = k.target
    za = _classes(a, center_basis(a))
    report.compare("HH_0 dimensions equal", len(za), center_basis(b).rows)
    images = [pushforward(k, v) for v in za]
    image_matrix = SparseMatrix.from_columns([im.coords for im in images], b.dim)
    report.compare("pushforward is injective on HH_0", rank(image_matrix), len(za))
    for i, vi in enumerate(za):
        for j, vj in enumerate(za):
            report.compare(f"pairing preserved ({i}, {j})",
                           mukai_pairing(images[i], images[j]), mukai_pairing(vi, vj))
    transports = [cohomology_transport(k, v) for v in za]
    report.compare("ring transport sends unit to unit",
                   cohomology_transport(k, MukaiClass(a, a.unit, _checked=True)),
                   MukaiClass(b, b.unit, _checked=True))
    for i, vi in enumerate(za):
        for j, vj in enumerate(za):
            report.compare(f"ring transport multiplicative ({i}, {j})",
                           cohomology_transport(k, _product(vi, vj)),
                           _product(transports[i], transports[j]))
            report.compare(f"central module structure intertwined ({i}, {j})",
                           pushforward(k, _product(vi, vj)), _product(transports[i], images[j]))
    report.note("hochschild dimension comparison skipped (no degree requested)")
    return report


def _outer(src, i, dst, j):
    a, b = algebra_fixture(src), algebra_fixture(dst)
    return outer_kernel(simples_of(a)[i].dual(), simples_of(b)[j], a)


def _record(report):
    return report.name, report.check_id, report.comparisons, report.notes


ADJOINT_CASES = {
    "outer zn:3 -> zn:4": lambda: _outer("zn:3", 1, "zn:4", 3),
    "outer s3 -> q8": lambda: _outer("s3", 2, "q8", 4),
    "outer zn:4 -> a4": lambda: _outer("zn:4", 1, "a4", 3),
    "regular s3": lambda: regular_bimodule(algebra_fixture("s3")),
}
FUNCTORIAL_CASES = {
    "zn:2 -> zn:3 -> s3": lambda: (_outer("zn:2", 1, "zn:3", 2), _outer("zn:3", 1, "s3", 2)),
    "zn:2 -> s3 -> s3": lambda: (_outer("zn:2", 0, "s3", 2),
                                 regular_bimodule(algebra_fixture("s3"))),
    "zn:3 -> zn:4 -> a4": lambda: (_outer("zn:3", 1, "zn:4", 3), _outer("zn:4", 2, "a4", 3)),
}
MORITA_CASES = [("field", 2), ("zn:2", 2), ("zn:3", 2), ("s3", 2), ("zn:2", 3)]


@pytest.mark.parametrize("label", ADJOINT_CASES)
def test_adjointness_matrix_identity_matches_per_pair_loop(label):
    k = ADJOINT_CASES[label]()
    report = adjointness_check(k)
    assert report.ok
    assert _record(report) == _record(old_adjointness_check(k))


@pytest.mark.parametrize("label", FUNCTORIAL_CASES)
def test_functoriality_matrix_identity_matches_per_vector_loop(label):
    k1, k2 = FUNCTORIAL_CASES[label]()
    report = functoriality_check(k1, k2)
    assert report.ok
    assert _record(report) == _record(old_functoriality_check(k1, k2))


@pytest.mark.parametrize("name,n", MORITA_CASES)
def test_morita_matrix_identities_match_per_pair_loops(name, n):
    a = algebra_fixture(name)
    report = morita_isometry_check(a, n)
    assert report.ok
    assert _record(report) == _record(old_morita_isometry_check(a, n))


def _plant(monkeypatch, builder, hit, r, c, delta=ONE):
    """Add delta at entry (r, c) of `builder`'s matrix on the kernels `hit` picks."""
    import hochkit.mukai as mukai
    real = getattr(mukai, builder)

    def planted(k):
        m = real(k)
        return m + SparseMatrix(m.rows, m.cols, {(r, c): delta}) if hit(k) else m
    monkeypatch.setattr(mukai, builder, planted)


def _pivot(z, i):
    """The pivot column of row i of a reduced echelon basis."""
    return next(c for c, x in enumerate(z.row_vector(i)) if x)


def test_adjointness_fails_exactly_on_the_pairs_of_a_wrong_dual_entry(monkeypatch):
    k = _outer("s3", 2, "q8", 4)
    a, b = k.source, k.target
    zb, za = center_basis(b), center_basis(a)
    i0, r = 2, 0
    c = _pivot(zb, i0)  # only basis vector i0 of the target reads column c
    paired = (trace_form(a) * za.transpose()).row_vector(r)
    clean = [mukai_pairing(MukaiClass(b, zb.row_vector(i0), _checked=True),
                           pushforward(k, w)) for w in _classes(a, za)]
    assert adjointness_check(k).ok
    _plant(monkeypatch, "_pushforward_matrix", lambda kern: kern.source == b, r, c, cyc(3))
    report = adjointness_check(k)
    assert not report.ok
    shift = cyc(3) * zb.entry(i0, c)
    expected = [(f"pair ({i0}, {j})", format_value(x), format_value(x + shift * t))
                for j, (x, t) in enumerate(zip(clean, paired)) if t]
    assert expected and len(expected) < len(report.comparisons)
    assert report.failures() == expected
    assert _record(report) == _record(old_adjointness_check(k))


def test_functoriality_fails_exactly_on_the_basis_vector_of_a_wrong_inner_entry(monkeypatch):
    from hochkit.mukai import _pushforward_matrix
    k1, k2 = _outer("zn:2", 1, "zn:3", 2), _outer("zn:3", 1, "s3", 2)
    za = center_basis(k1.source)
    i0 = 1
    c = _pivot(za, i0)  # only basis vector i0 of the source reads column c
    columns = _pushforward_matrix(k2).transpose()
    r = next(r for r in range(columns.rows) if any(columns.row_vector(r)))
    clean = pushforward(k2, pushforward(k1, _classes(k1.source, za)[i0]))
    assert functoriality_check(k1, k2).ok
    _plant(monkeypatch, "_pushforward_matrix", lambda kern: kern is k1, r, c)
    report = functoriality_check(k1, k2)
    assert not report.ok
    shift = MukaiClass(k2.target, columns.row_vector(r), _checked=True).scale(za.entry(i0, c))
    assert report.failures() == [(f"basis vector {i0}", repr(clean), repr(clean + shift))]
    assert _record(report) == _record(old_functoriality_check(k1, k2))


def test_morita_fails_exactly_on_the_products_of_a_wrong_transport_entry(monkeypatch):
    a = algebra_fixture("zn:2")  # center basis 1, g with g g = 1
    k = morita_kernel(a, 2)
    b = k.target
    one, g = _classes(a, center_basis(a))
    image_one, image_g, t_g = pushforward(k, one), pushforward(k, g), cohomology_transport(k, g)
    assert morita_isometry_check(a, 2).ok
    r = 3
    _plant(monkeypatch, "_transport_matrix", lambda kern: kern.target == b, r, 1)
    t_g = t_g + MukaiClass(b, unit_vector(b.dim, r), _checked=True)
    report = morita_isometry_check(a, 2)
    assert not report.ok
    # 1 goes to the unit, so both sides of multiplicative (0, 1) and (1, 0)
    # change alike, and g g = 1 leaves the left sides at (1, 1) as they were
    expected = [
        ("central module structure intertwined (1, 0)", image_g, _product(t_g, image_one)),
        ("ring transport multiplicative (1, 1)", cohomology_transport(k, one),
         _product(t_g, t_g)),
        ("central module structure intertwined (1, 1)", image_one, _product(t_g, image_g)),
    ]
    assert report.failures() == [(label, repr(x), repr(y)) for label, x, y in expected]
    assert _record(report) == _record(old_morita_isometry_check(a, 2))


def test_transfer_verifiers_pair_no_classes(monkeypatch):
    import hochkit.mukai as mukai
    calls = {"mukai_pairing": 0, "pushforward": 0, "cohomology_transport": 0}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in ("mukai_pairing", "pushforward", "cohomology_transport"):
        monkeypatch.setattr(mukai, name, counted(name, getattr(mukai, name)))
    assert adjointness_check(_outer("zn:3", 1, "zn:4", 3)).ok
    assert functoriality_check(*FUNCTORIAL_CASES["zn:2 -> zn:3 -> s3"]()).ok
    assert morita_isometry_check(algebra_fixture("s3"), 2).ok
    # the unit alone goes through the public transport
    assert calls == {"mukai_pairing": 0, "pushforward": 0, "cohomology_transport": 1}


@pytest.mark.parametrize("name", ["trunc:3", "dual"])
def test_transfer_verifiers_refuse_algebras_without_frobenius_data(name):
    from hochkit.errors import MiddleNotSemisimple
    a = algebra_fixture(name)
    k = regular_bimodule(a)
    with pytest.raises(MissingSerreData):
        adjointness_check(k)
    with pytest.raises(MiddleNotSemisimple):
        functoriality_check(k, k)
    with pytest.raises(MissingSerreData):
        morita_isometry_check(a, 2)
