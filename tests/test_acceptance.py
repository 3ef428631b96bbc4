"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line (run with `pytest -s` to see them inline).  All scalar
identities are exact; the only tolerances anywhere are zero."""

import random
import time
from fractions import Fraction
from math import prod

from hochkit.algebra import center_basis
from hochkit.cli import run as cli_run
from hochkit.fixtures import algebra_fixture
from hochkit.hochschild import hh_cohomology_dims, hh_homology_dims
from hochkit.linalg import SparseMatrix
from hochkit.modules import (
    convolve, hom_space, outer_kernel, regular_module, simples_of,
)
from hochkit.mukai import (
    adjointness_check, assemble_split_map, cardy_check, chern,
    chern_commutation_check, functoriality_check, generalized_trace,
    hochschild_trace, hrr_check, morita_isometry_check, mukai_pairing,
    serre_trace, trace_triangle_check,
)
from hochkit.scalars import ONE, ZERO, cyc
from hochkit.tqft import evaluate, orbit_count, parse_word

ALL_GROUPS = ["zn:2", "zn:3", "zn:4", "zn:5", "zn:6", "s3", "d4", "q8", "a4"]
SMALL_SEMISIMPLE = ["zn:2", "zn:3", "zn:4", "zn:5", "zn:6", "s3", "mat:2"]


def _announce(number: int, name: str, t0: float):
    print(f"\n[criterion {number}] {name}: PASS ({time.monotonic() - t0:.1f}s)")


def _rand_intertwiner(rng, m):
    out = SparseMatrix.zero(m.dim, m.dim)
    for b in hom_space(m, m).basis:
        out = out + b.scale(Fraction(rng.randint(-3, 3)))
    return out


def _rand_matrix(rng, rows, cols):
    return SparseMatrix(rows, cols,
                        {(r, c): cyc(rng.randint(-2, 2))
                         for r in range(rows) for c in range(cols)})


def test_criterion_1_hrr_suite():
    t0 = time.monotonic()
    for name in ALL_GROUPS:
        a = algebra_fixture(name)
        simples = simples_of(a)
        for i, x in enumerate(simples):
            for j, y in enumerate(simples):
                value = mukai_pairing(chern(x), chern(y))
                chi = hom_space(x, y).dim
                expected = ONE if i == j else ZERO
                assert value == cyc(chi) == expected, \
                    f"{name}: <ch {x.name}, ch {y.name}> = {value}, chi = {chi}"
    _announce(1, "riemann-roch on all ordered simple pairs, 9 groups", t0)


def test_criterion_2_cardy_suite():
    t0 = time.monotonic()
    rng = random.Random(20240)
    for name in ALL_GROUPS:
        a = algebra_fixture(name)
        simples = simples_of(a)
        for _ in range(50):
            e_mod = simples[rng.randrange(len(simples))].direct_sum(
                simples[rng.randrange(len(simples))])
            f_mod = simples[rng.randrange(len(simples))].direct_sum(
                simples[rng.randrange(len(simples))])
            e = _rand_intertwiner(rng, e_mod)
            f = _rand_intertwiner(rng, f_mod)
            rep = cardy_check(e_mod, f_mod, e, f)
            assert rep.ok, f"{name}: {rep.failures()}"
        # degeneration at identity endomorphisms reproduces criterion 1
        for x in simples:
            for y in simples:
                rep = cardy_check(x, y, SparseMatrix.identity(x.dim),
                                  SparseMatrix.identity(y.dim))
                hrr = hrr_check(x, y)
                assert rep.ok and hrr.ok
                assert rep.comparisons[0][1] == hrr.comparisons[0][1]
    _announce(2, "cardy condition, 50 seeded instances x 9 groups + identity "
                 "degeneration", t0)


def test_criterion_3_hochschild_dims():
    t0 = time.monotonic()
    # (a) dual numbers against the independent periodic-resolution oracle
    from test_hochschild import truncated_periodic_dims
    dual = algebra_fixture("dual")
    homology = hh_homology_dims(dual, 4).dims
    cohomology = hh_cohomology_dims(dual, 4).dims
    assert homology == truncated_periodic_dims(2, 4, cohomology=False) == \
        [2, 1, 1, 1, 1]
    assert cohomology == truncated_periodic_dims(2, 4, cohomology=True) == \
        [2, 1, 1, 1, 1]
    # (b) small semisimple fixtures: degree 0 counts blocks, 1..3 vanish
    for name in SMALL_SEMISIMPLE:
        a = algebra_fixture(name)
        blocks = center_basis(a).rows
        h = hh_homology_dims(a, 3).dims
        c = hh_cohomology_dims(a, 3).dims
        assert h == [blocks, 0, 0, 0], f"{name}: {h}"
        assert c == [blocks, 0, 0, 0], f"{name}: {c}"
    # (c) normalized and unnormalized routes agree
    for name in ["dual", "zn:2"]:
        a = algebra_fixture(name)
        assert hh_homology_dims(a, 4).dims == \
            hh_homology_dims(a, 4, normalized=False).dims
        assert hh_cohomology_dims(a, 3).dims == \
            hh_cohomology_dims(a, 3, normalized=False).dims
    _announce(3, "hochschild dims: periodic oracle, semisimple vanishing, "
                 "route agreement", t0)


def _kernel_library(rng):
    z2, z3, s3 = (algebra_fixture(n) for n in ["zn:2", "zn:3", "s3"])
    algebras = [z2, z3, s3]
    kernels = []
    for i in range(10):
        a = algebras[i % 3]
        b = algebras[(i + 1 + i % 2) % 3]
        sa, sb = simples_of(a), simples_of(b)
        v = sa[rng.randrange(len(sa))].dual()
        w = sb[rng.randrange(len(sb))]
        kernels.append(outer_kernel(v, w, a))
    return kernels


def test_criterion_4_adjointness_and_functoriality():
    t0 = time.monotonic()
    rng = random.Random(20244)
    kernels = _kernel_library(rng)
    assert len(kernels) >= 10
    convolutions = 0
    for k in kernels:
        assert adjointness_check(k).ok
    for k1 in kernels:
        for k2 in kernels:
            if k1.target != k2.source or convolutions >= 4:
                continue
            convolutions += 1
            kk = convolve(k1, k2)
            assert functoriality_check(k1, k2).ok
            assert adjointness_check(kk).ok
    assert convolutions >= 2
    for k in kernels[:4]:
        simples = simples_of(k.source)
        m = simples[rng.randrange(len(simples))].direct_sum(
            simples[rng.randrange(len(simples))])
        assert chern_commutation_check(k, m).ok
    # route A = route B is enforced inside every pushforward call above;
    # RoutesDisagree would have surfaced as an error, never a pass
    _announce(4, "adjointness + functoriality + chern commutation on a "
                 "10-kernel library with convolutions", t0)


def test_criterion_5_morita_invariance():
    t0 = time.monotonic()
    for name in ["field", "zn:2", "s3"]:
        rep = morita_isometry_check(algebra_fixture(name), 2)
        assert rep.ok, f"{name}: {rep.failures()}"
    for name in ["dual", "zn:2"]:
        a = algebra_fixture(name)
        b = algebra_fixture(f"tensor(mat:2,{name})")
        assert hh_homology_dims(a, 3).dims == hh_homology_dims(b, 3).dims
        assert hh_cohomology_dims(a, 3).dims == hh_cohomology_dims(b, 3).dims
    _announce(5, "morita invariance: isometry + ring transport for field, "
                 "Z/2, S3; dims through degree 3 for dual numbers and Z/2", t0)


def test_criterion_6_trace_calculus():
    t0 = time.monotonic()
    rng = random.Random(20246)
    z2, s3 = algebra_fixture("zn:2"), algebra_fixture("s3")
    pool = list(simples_of(s3)) + list(simples_of(z2))
    # trace commutation, 100 instances
    for _ in range(100):
        m = pool[rng.randrange(len(pool))]
        other = pool[rng.randrange(len(pool))]
        if other.algebra == m.algebra:
            m = m.direct_sum(other)
        f = _rand_intertwiner(rng, m)
        g = _rand_intertwiner(rng, m)
        assert serre_trace(m, g * f) == serre_trace(m, f * g)
    # naturality of the partial trace, 100 instances
    for _ in range(100):
        fd, gd, hd, ed = (rng.randint(1, 3) for _ in range(4))
        mu = _rand_matrix(rng, gd * ed, fd * ed)
        nu = _rand_matrix(rng, hd, gd)
        lifted = SparseMatrix(hd * ed, gd * ed,
                              {(r * ed + k, c * ed + k): v
                               for r, c, v in nu.entries() for k in range(ed)})
        assert generalized_trace(lifted * mu, fd, hd, ed) == \
            nu * generalized_trace(mu, fd, gd, ed)
    # additivity over split triples, 100 instances
    for _ in range(100):
        de, dg, dh = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        e = _rand_matrix(rng, dh * de, de)
        g = _rand_matrix(rng, dh * dg, dg)
        phi = _rand_matrix(rng, dh * de, dg)
        f = assemble_split_map(e, g, phi, de, dg, dh)
        assert trace_triangle_check(e, f, g, de, dg, dh).ok
    _announce(6, "trace calculus: commutation, naturality, additivity, "
                 "100 exact instances each", t0)


def test_criterion_7_tqft_values():
    t0 = time.monotonic()
    expected = {"zn:2": 2, "zn:4": 4, "s3": 3, "q8": 5}
    for name, classes in expected.items():
        a = algebra_fixture(name)
        assert evaluate(a, parse_word("cap_in cap_out")).dims == 1
        assert evaluate(a, parse_word("genus:1")).dims == classes
    # every other closed word: the product of the components' orbit counts
    for name, text, orbits in [
            ("zn:2", "genus:2", 4), ("s3", "genus:2", 11),
            ("s3", "cap_in cap_in@1 pants_split@1 pants_merge@1 cap_out@1 cap_out", 3)]:
        a = algebra_fixture(name)
        word = parse_word(text)
        assert evaluate(a, word).dims == orbits == \
            prod(orbit_count(a, g) for g in word.component_genera)
    _announce(7, "tqft: sphere = 1 and torus = class count for Z/2, Z/4, "
                 "S3, Q8; genus 2 and a disconnected word equal the "
                 "conjugation orbit count", t0)


def test_criterion_8_chern_normalization(capsys):
    t0 = time.monotonic()
    rng = random.Random(20248)
    # defining property on a held-out random central element, all fixtures
    for name in ALL_GROUPS:
        a = algebra_fixture(name)
        zs = center_basis(a)
        for m in list(simples_of(a)) + [regular_module(a)]:
            ch = chern(m)
            coords = [ZERO] * a.dim
            for r in range(zs.rows):
                c = cyc(rng.randint(-4, 4))
                coords = [acc + c * x for acc, x in zip(coords, zs.row_vector(r))]
            f = tuple(coords)
            assert hochschild_trace(a, a.mul(ch.coords, f)) == m.character(f)
    # Z/2 closed forms
    z2 = algebra_fixture("zn:2")
    triv, sign = simples_of(z2)
    half = Fraction(1, 2)
    assert chern(triv).coords == (cyc(half), cyc(half))
    assert chern(sign).coords == (cyc(half), cyc(-half))
    # the CLI report for the 2-dim irreducible documents the dimension factor
    code = cli_run(["chern", "s3", "std"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ch(std) = [1/3, 0, -1/6, 0, 0, -1/6]" in out
    assert "idempotent normalization: dim(M) * ch = [2/3, 0, -1/3, 0, 0, -1/3]" in out
    with capsys.disabled():
        _announce(8, "chern normalization: defining property held out, Z/2 "
                     "closed forms, dimension factor documented", t0)
