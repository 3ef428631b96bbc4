import cmath
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hochkit.errors import ParseError, ShapeMismatch
from hochkit.scalars import (
    CycScalar, cyc, euler_phi, cyclotomic_polynomial, format_scalar, parse_scalar,
    zeta, ONE, ZERO,
)


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta3_relation():
    # Phi_3 = x^2 + x + 1 forces 1 + z3 + z3^2 = 0
    assert zeta(3) + zeta(3, 2) == cyc(-1)


def test_add_identity():
    a = zeta(5) + cyc(Fraction(2, 7))
    assert ZERO + a == a


def test_mixed_order_add_against_float_embedding():
    val = zeta(4) + zeta(6)
    expected = zeta(4).to_complex() + zeta(6).to_complex()
    assert abs(val.to_complex() - expected) < 1e-12


def test_zeta4_squared():
    assert zeta(4) * zeta(4) == cyc(-1)


def test_mul_identity():
    a = zeta(8, 3) - cyc(Fraction(1, 2))
    assert ONE * a == a


def test_inverse_round_trip():
    a = cyc(1) + zeta(5)
    assert a * a.inverse() == ONE


def test_inverse_rational():
    assert cyc(2).inverse() == cyc(Fraction(1, 2))


def test_inverse_zeta4():
    assert zeta(4).inverse() == -zeta(4)


def test_inverse_one_plus_zeta3():
    # (1 + z3)(-z3) = -z3 - z3^2 = 1
    inv = (cyc(1) + zeta(3)).inverse()
    assert inv == -zeta(3)
    assert (cyc(1) + zeta(3)) * inv == ONE


def test_inverse_descends_through_several_fields():
    # each step multiplies by the other conjugates over Q(zeta_(n/p)); these
    # orders need two to six steps, through both kinds of descent
    for n in (8, 9, 15, 16, 20, 21, 24, 36, 64):
        x = ONE + zeta(n) + cyc(Fraction(2, 3)) * zeta(n, 2) - zeta(n, 5)
        assert x.order == n
        assert x * x.inverse() == ONE
        assert abs(x.inverse().to_complex() - 1 / x.to_complex()) < 1e-9


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_conj_rational_fixed():
    q = cyc(Fraction(-3, 5))
    assert q.conjugate() == q


def test_conj_zeta3():
    assert zeta(3).conjugate() == zeta(3, 2)


def test_conductor_reduction():
    # zeta_6^2 = zeta_3, zeta_8^2 = zeta_4: orders drop to the conductor
    assert zeta(6, 2) == zeta(3)
    assert zeta(8, 2).order == 4
    assert zeta(6).order == 3  # Q(zeta_6) = Q(zeta_3)
    assert (zeta(5) - zeta(5)).order == 1


@pytest.mark.parametrize("order, ints", [
    (1, [6]), (3, [4, -2]), (4, [0, 3]), (6, [2, 2]), (12, [0, 0, 6, 0]), (12, [0, 0, 0, 0]),
])
def test_int_fraction_and_mixed_coefficients_agree(order, ints):
    # all-int coefficients take their own path through the constructor
    fractions = [Fraction(2 * c, 2) for c in ints]
    mixed = [Fraction(c) if k % 2 else c for k, c in enumerate(ints)]
    values = [CycScalar(order, c) for c in (ints, tuple(ints), iter(ints), fractions, mixed)]
    assert len({(v.order, v.nums, v.den) for v in values}) == 1
    assert values[0] == CycScalar(order, [Fraction(c, 3) for c in ints]) * 3
    for wrong in (ints + [1], [Fraction(c) for c in ints] + [Fraction(1, 2)]):
        with pytest.raises(ShapeMismatch, match=f"coefficients for Q\\(zeta_{order}\\)"):
            CycScalar(order, wrong)


def _embedded_coords(m, n, coeffs):
    """Power-basis coordinates in Q(zeta_n) of sum_k c_k zeta_m^k, reduced by
    long division by Phi_n here, not by the library."""
    step = n // m
    poly = [Fraction(0)] * (step * len(coeffs))
    for k, c in enumerate(coeffs):
        poly[k * step] = Fraction(c)
    phi_poly = cyclotomic_polynomial(n)
    deg = len(phi_poly) - 1
    for e in range(len(poly) - 1, deg - 1, -1):
        c = poly[e]
        if c:
            for j, d in enumerate(phi_poly):
                poly[e - deg + j] -= c * d
    return (poly + [Fraction(0)] * deg)[:deg]


def _float_conductor(n, coords):
    """Smallest d | n such that every sigma_a with a = 1 mod d fixes the value,
    judged on its complex embedding: the conductor, by Galois theory."""
    def embed(a):
        return sum(complex(c) * cmath.exp(2j * cmath.pi * a * e / n)
                   for e, c in enumerate(coords))
    value = embed(1)
    for d in range(1, n + 1):
        if n % d == 0 and all(abs(embed(a) - value) < 1e-9 for a in range(1, n, d)
                              if gcd(a, n) == 1):
            return d, value


@pytest.mark.parametrize("n", [8, 9, 10, 12, 15, 16, 18, 20, 21, 24, 30, 36])
def test_descent_matches_float_galois_oracle(n):
    # every subfield Q(zeta_m) of Q(zeta_n): random elements, sparse ones
    # (whose conductor is often below m) and single roots of unity
    rng = random.Random(n)
    for m in (d for d in range(1, n + 1) if n % d == 0):
        samples = [[0] * euler_phi(m) for _ in range(euler_phi(m))]
        for k, row in enumerate(samples):
            row[k] = 1
        for density in (1.0, 0.5, 0.2):
            for _ in range(3):
                samples.append([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                if rng.random() < density else 0
                                for _ in range(euler_phi(m))])
        for coeffs in samples:
            coords = _embedded_coords(m, n, coeffs)
            conductor, value = _float_conductor(n, coords)
            back = CycScalar(n, coords)
            assert back == CycScalar(m, coeffs)
            assert back.order == conductor, (n, m, coeffs)
            assert abs(back.to_complex() - value) < 1e-9


def test_pow_and_div():
    assert zeta(5) ** 5 == ONE
    assert (zeta(7) / zeta(7)) == ONE
    assert zeta(4) ** -1 == -zeta(4)


# --- randomized field axioms (exact) ---------------------------------------

_orders = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 20, 24])
_small_q = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def scalars(draw):
    n = draw(_orders)
    coeffs = [draw(_small_q) for _ in range(euler_phi(n))]
    return CycScalar(n, coeffs)


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_nonzero_inverse(a):
    if a:
        assert a * a.inverse() == ONE


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_conj_involution(a):
    assert a.conjugate().conjugate() == a


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars())
def test_float_embedding_is_homomorphism(a, b):
    # sanity oracle only: never used as computational truth
    assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-10
    assert abs((a * b).to_complex() - (a.to_complex() * b.to_complex())) < 1e-10


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_format_parse_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


# --- text syntax ------------------------------------------------------------

def test_parse_examples():
    assert parse_scalar("1/2 + 1/2*z3^1") == cyc(Fraction(1, 2)) + cyc(Fraction(1, 2)) * zeta(3)
    assert parse_scalar("(1+z4)*(1-z4)") == cyc(2)
    assert parse_scalar("-2/3") == cyc(Fraction(-2, 3))
    assert parse_scalar("z6") == zeta(6)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_scalar("z3^")
    assert exc.value.col == 4

    with pytest.raises(ParseError):
        parse_scalar("1 + ")

    with pytest.raises(ParseError):
        parse_scalar("1/0")

    # only ASCII digits are digits: str.isdigit() also takes these
    for text, col in [("\u00b2", 1), ("z\u00b3", 2), ("3/\u00b2", 3), ("z3^\u0661", 4)]:
        with pytest.raises(ParseError) as exc:
            parse_scalar(text)
        assert exc.value.col == col


def test_hash_consistency():
    assert hash(zeta(6, 2)) == hash(zeta(3))
    assert hash(cyc(2)) == hash(cyc(Fraction(2)))
