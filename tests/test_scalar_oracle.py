"""CycScalar against the Fraction-tuple arithmetic it replaced.

`FracCyc` keeps a value of Q(zeta_n) as a tuple of Fractions in the power
basis, reduced to its conductor by the same two kinds of descent, and
inverts by relative norms.  It reduces polynomials by long division by
Phi_n, so it shares no table with the library.  The library must agree with
it entry for entry, and every library result must be in canonical form:
integer numerators over a positive denominator in lowest terms, at the
conductor.
"""

import random
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul

from hypothesis import given, settings, strategies as st

from hochkit.scalars import (
    CycScalar, cyc, cyclotomic_polynomial, euler_phi, format_scalar, zeta,
)

_Q0 = Fraction(0)

ORDERS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 20, 24]


def _primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def _reduce(n, dense):
    """sum_e dense[e] zeta_n^e in the power basis, by long division by Phi_n."""
    phi_poly = cyclotomic_polynomial(n)
    deg = len(phi_poly) - 1
    poly = [Fraction(c) for c in dense]
    for e in range(len(poly) - 1, deg - 1, -1):
        c = poly[e]
        if c:
            for j, d in enumerate(phi_poly):
                poly[e - deg + j] -= c * d
    return tuple((poly + [_Q0] * deg)[:deg])


def _galois_coords(n, coeffs, a):
    """Coordinates of sigma_a (zeta_n -> zeta_n^a) of a value, at order n."""
    dense = [_Q0] * n
    for e, c in enumerate(coeffs):
        dense[a * e % n] += c
    return _reduce(n, dense)


def _descend(n, p, coeffs):
    m = n // p
    if m == 1:
        return None
    if m % p == 0:
        if any(c for k, c in enumerate(coeffs) if k % p):
            return None
        return coeffs[::p]
    p_inv, m_inv = pow(p, -1, m), pow(m, -1, p)
    parts = [[_Q0] * m for _ in range(p)]
    for k, c in enumerate(coeffs):
        if c:
            parts[k * m_inv % p][k * p_inv % m] = c
    last = _reduce(m, parts[-1])
    if any(_reduce(m, parts[j]) != last for j in range(1, p - 1)):
        return None
    return tuple(a - b for a, b in zip(_reduce(m, parts[0]), last))


def _conductor_form(n, coeffs):
    while n > 1:
        if all(c == 0 for c in coeffs[1:]):
            return 1, (coeffs[0],)
        for p in _primes(n):
            reduced = _descend(n, p, coeffs)
            if reduced is not None:
                n, coeffs = n // p, reduced
                break
        else:
            return n, coeffs
    return n, coeffs


class FracCyc:
    """A value of Q(zeta_order) as a tuple of Fractions at its conductor."""

    def __init__(self, order, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        assert len(coeffs) == euler_phi(order)
        self.order, self.coeffs = _conductor_form(order, coeffs)

    @staticmethod
    def of(x):
        if isinstance(x, FracCyc):
            return x
        return FracCyc(1, [x])

    def embed(self, n):
        step = n // self.order
        dense = [_Q0] * ((len(self.coeffs) - 1) * step + 1)
        for e, c in enumerate(self.coeffs):
            dense[e * step] = c
        return _reduce(n, dense)

    def __add__(self, other):
        other = FracCyc.of(other)
        n = lcm(self.order, other.order)
        return FracCyc(n, [a + b for a, b in zip(self.embed(n), other.embed(n))])

    __radd__ = __add__

    def __neg__(self):
        return FracCyc(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + -FracCyc.of(other)

    def __rsub__(self, other):
        return FracCyc.of(other) + -self

    def __mul__(self, other):
        other = FracCyc.of(other)
        n = lcm(self.order, other.order)
        a, b = self.embed(n), other.embed(n)
        prod = [_Q0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        return FracCyc(n, _reduce(n, prod))

    __rmul__ = __mul__

    def galois(self, a):
        return FracCyc(self.order, _galois_coords(self.order, self.coeffs, a))

    def inverse(self):
        n = self.order
        if n == 1:
            return FracCyc(1, [1 / self.coeffs[0]])
        m = n // _primes(n)[0]
        others = reduce(mul, (self.galois(a) for a in range(1 + m, n, m) if gcd(a, n) == 1))
        return others * (self * others).inverse()

    def __truediv__(self, other):
        return self * FracCyc.of(other).inverse()

    def __eq__(self, other):
        return (self.order, self.coeffs) == (other.order, other.coeffs)

    def format(self):
        def q(c):
            return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        if self.order == 1:
            return q(self.coeffs[0])
        parts = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            if e == 0:
                parts.append(q(c))
            elif c in (1, -1):
                parts.append(f"{'-' if c < 0 else ''}z{self.order}^{e}")
            else:
                parts.append(f"{q(c)}*z{self.order}^{e}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def _agree(got, want):
    assert (got.order, got.coeffs) == (want.order, want.coeffs), (got, want.format())
    assert format_scalar(got) == want.format()


def _seeded_values(rng, order, count):
    """Dense, sparse and single-coordinate values given at `order`; sparse
    ones often have a smaller conductor."""
    out = []
    phi = euler_phi(order)
    for k in range(count):
        density = (1.0, 0.5, 0.2)[k % 3]
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < density
                  else 0 for _ in range(phi)]
        out.append(coeffs)
    single = [0] * phi
    single[rng.randrange(phi)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    out.append(single)
    return [(CycScalar(order, c), FracCyc(order, c)) for c in out]


def test_arithmetic_matches_fraction_tuples():
    rng = random.Random(17)
    values = [pair for n in ORDERS for pair in _seeded_values(rng, n, 4)]
    for x, fx in values:
        _agree(x, fx)
        _agree(-x, -fx)
        _agree(x.conjugate(), fx.galois(-1))
        if x:
            _agree(x.inverse(), fx.inverse())
    pairs = [(values[i], values[j]) for i in range(len(values)) for j in range(len(values))]
    for (x, fx), (y, fy) in rng.sample(pairs, 400):  # mixed orders and equal orders
        _agree(x + y, fx + fy)
        _agree(x - y, fx - fy)
        _agree(x * y, fx * fy)
        if y:
            _agree(x / y, fx / fy)
        assert (x == y) == (fx == fy)


def test_rational_shifts_and_factors_match_fraction_tuples():
    rng = random.Random(18)
    for n in ORDERS:
        for x, fx in _seeded_values(rng, n, 3):
            for q in (0, 1, -1, 3, Fraction(1, 2), Fraction(-7, 6), Fraction(4, 9)):
                _agree(x + q, fx + q)
                _agree(q + x, fx + q)
                _agree(x - q, fx - q)
                _agree(q - x, q - fx)
                _agree(x * q, fx * q)
                _agree(q * x, fx * q)
                _agree(x + cyc(q), fx + q)
                _agree(cyc(q) * x, fx * q)
                if q:
                    _agree(x / q, fx / q)


def test_equal_values_given_at_different_orders():
    # a value written in a larger field compares equal to itself at its conductor
    rng = random.Random(19)
    for n in ORDERS:
        for x, fx in _seeded_values(rng, n, 3):
            for big in (n * 2, n * 3, lcm(n, 4)):
                coords = fx.embed(big)
                assert CycScalar(big, coords) == x
                assert hash(CycScalar(big, coords)) == hash(x)
                _agree(CycScalar(big, coords), fx)


# --- canonical form of every result -------------------------------------------

def _assert_canonical(x):
    assert x.den > 0
    assert gcd(x.den, *x.nums) == 1
    assert len(x.nums) == euler_phi(x.order)
    assert all(type(c) is int for c in x.nums) and type(x.den) is int
    n = x.order
    coords = x.coeffs
    for p in _primes(n):
        # x lies in Q(zeta_(n/p)) iff every sigma_a, a = 1 mod n/p, fixes it
        m = n // p
        fixed = all(_galois_coords(n, coords, a) == coords
                    for a in range(1, n, m) if gcd(a, n) == 1)
        assert not fixed, (x, p)


_small_q = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def _scalars(draw):
    n = draw(st.sampled_from(ORDERS + [16, 36]))
    coeffs = [draw(_small_q) if draw(st.booleans()) else 0 for _ in range(euler_phi(n))]
    return CycScalar(n, coeffs)


@settings(max_examples=80, deadline=None)
@given(_scalars(), _scalars(), _small_q, st.integers(-4, 4))
def test_every_result_is_canonical(a, b, q, k):
    results = [a, b, a + b, a - b, a * b, a + q, q - a, a * q, q * a, -a, a.conjugate(),
               a + 0, 0 + a, a * 1, a * 0, a * a.conjugate(), a + zeta(8) * b]
    if a:
        results += [a.inverse(), b / a, a ** k]
    for x in results:
        _assert_canonical(x)


@settings(max_examples=60, deadline=None)
@given(st.integers(-10**6, 10**6) | _small_q)
def test_rationals_coerce_to_themselves(q):
    assert cyc(q) == q and q == cyc(q)
    assert hash(cyc(q)) == hash(q)
    assert cyc(Fraction(q)) == cyc(q)
    _assert_canonical(cyc(q))
    assert cyc(q).order == 1 and cyc(q).coeffs == (Fraction(q),)
