"""Exact arithmetic in Q and in the cyclotomic fields Q(zeta_n).

Values are kept in the power basis 1, z, ..., z^(phi(n)-1) of
Q[x]/Phi_n(x) and are always reduced to their conductor: the smallest n
such that the value lies in Q(zeta_n).  Rationals therefore always carry
order 1, and equality is a plain field-by-field comparison.

Everything here is immutable and pure; no floating point is used except
in the `to_complex` embedding, which exists only as a sanity oracle for
tests and is never fed back into a computation.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

from .errors import ParseError, ShapeMismatch

_Q0 = Fraction(0)
_Q1 = Fraction(1)

Coercible = Union["CycScalar", Fraction, int]


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("order must be positive")
    result = n
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, coefficients low to high.
    num = num[:]
    dd = len(den) - 1
    assert den[-1] == 1, "divisor must be monic"
    q = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        q[i - dd] = c
        if c:
            for j, dc in enumerate(den):
                num[i - dd + j] -= c * dc
    assert all(c == 0 for c in num), "non-exact polynomial division"
    return q


_CYCLO_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low degree first (monic, length phi(n)+1)."""
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n):
        if d != n:
            poly = _poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    out = tuple(poly)
    assert len(out) == euler_phi(n) + 1 and out[-1] == 1
    _CYCLO_CACHE[n] = out
    return out


_RESIDUE_CACHE: dict[int, list[tuple[int, ...]]] = {}


def _power_residues(n: int) -> list[tuple[int, ...]]:
    """x^e mod Phi_n for 0 <= e < max(n, 2*phi(n) - 1), as integer vectors."""
    if n in _RESIDUE_CACHE:
        return _RESIDUE_CACHE[n]
    phi = euler_phi(n)
    top = max(n, 2 * phi - 1)
    cyclo = cyclotomic_polynomial(n)
    # x^phi == -(cyclo[0] + cyclo[1] x + ...) mod Phi_n
    rows: list[tuple[int, ...]] = []
    for e in range(top):
        if e < phi:
            row = [0] * phi
            row[e] = 1
        else:
            prev = rows[e - 1]
            shifted = [0] + list(prev[: phi - 1])
            carry = prev[phi - 1]
            if carry:
                for k in range(phi):
                    shifted[k] -= carry * cyclo[k]
            row = shifted
        rows.append(tuple(row))
    _RESIDUE_CACHE[n] = rows
    return rows


def _reduce_poly(n: int, dense: list[Fraction]) -> tuple[Fraction, ...]:
    """Reduce a polynomial in zeta_n (exponents < len(dense)) mod Phi_n."""
    phi = euler_phi(n)
    residues = _power_residues(n)
    out = [_Q0] * phi
    for e, c in enumerate(dense):
        if not c:
            continue
        e %= n
        if e < phi:
            out[e] += c
        else:
            row = residues[e]
            for k in range(phi):
                if row[k]:
                    out[k] += c * row[k]
    return tuple(out)


# --- descent to the conductor --------------------------------------------

_DESCENT_CACHE: dict[tuple[int, int], object] = {}


def _descent_solver(n: int, m: int):
    """Solver mapping coords in Q(zeta_n) to coords in Q(zeta_m) when the
    value lies in the subfield, else None.  m divides n."""
    key = (n, m)
    if key in _DESCENT_CACHE:
        return _DESCENT_CACHE[key]
    phi_n, phi_m = euler_phi(n), euler_phi(m)
    step = n // m
    residues = _power_residues(n)
    cols = [residues[(step * j) % n] for j in range(phi_m)]
    # Row-reduce the phi_n x phi_m system once; replay on each query.
    mat = [[Fraction(cols[j][i]) for j in range(phi_m)] for i in range(phi_n)]
    ops: list[tuple] = []  # elimination script
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(phi_m):
        piv = next((i for i in range(r, phi_n) if mat[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            ops.append(("swap", r, piv))
        inv = _Q1 / mat[r][c]
        if inv != 1:
            mat[r] = [x * inv for x in mat[r]]
            ops.append(("scale", r, inv))
        for i in range(phi_n):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
                ops.append(("axpy", i, r, f))
        pivots.append((r, c))
        r += 1
    if r < phi_m:  # embedding must be injective
        raise AssertionError("subfield embedding lost rank")

    def solve(vec: tuple[Fraction, ...]):
        b = list(vec)
        for op in ops:
            if op[0] == "swap":
                _, i, j = op
                b[i], b[j] = b[j], b[i]
            elif op[0] == "scale":
                _, i, f = op
                b[i] *= f
            else:
                _, i, j, f = op
                b[i] -= f * b[j]
        x = [_Q0] * phi_m
        for r_, c_ in pivots:
            x[c_] = b[r_]
        # membership: rows beyond the pivot rows must have cancelled
        for i in range(len(pivots), phi_n):
            if b[i]:
                return None
        return tuple(x)

    _DESCENT_CACHE[key] = solve
    return solve


def _conductor_form(n: int, coeffs: tuple[Fraction, ...]) -> tuple[int, tuple[Fraction, ...]]:
    while n > 1:
        if all(c == 0 for c in coeffs[1:]):
            return 1, (coeffs[0],)
        for p in _prime_divisors(n):
            m = n // p
            reduced = _descent_solver(n, m)(coeffs)
            if reduced is not None:
                n, coeffs = m, reduced
                break
        else:
            return n, coeffs
    return n, coeffs


class CycScalar:
    """An element of Q(zeta_order) in reduced power-basis form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Fraction], *, _canonical: bool = False):
        if _canonical:  # callers pass Fractions already at the conductor
            coeffs = tuple(coeffs)
        else:
            coeffs = tuple(Fraction(c) for c in coeffs)
            if len(coeffs) != euler_phi(order):
                raise ShapeMismatch(f"{len(coeffs)} coefficients for Q(zeta_{order}), "
                                    f"which has degree {euler_phi(order)}")
            order, coeffs = _conductor_form(order, coeffs)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("CycScalar is immutable")

    # --- constructors ---

    @staticmethod
    def from_rational(q) -> "CycScalar":
        return CycScalar(1, (Fraction(q),), _canonical=True)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "CycScalar":
        if n < 1:
            raise ValueError("order must be positive")
        k %= n
        dense = [_Q0] * (k + 1)
        dense[k] = _Q1
        return CycScalar(n, _reduce_poly(n, dense))

    # --- predicates ---

    def __bool__(self) -> bool:
        return any(self.coeffs)

    # --- ring operations ---

    def _unify(self, other: "CycScalar"):
        n = lcm(self.order, other.order)
        return n, self._embed(n), other._embed(n)

    def _embed(self, n: int) -> tuple[Fraction, ...]:
        if n == self.order:
            return self.coeffs
        step = n // self.order
        dense = [_Q0] * ((len(self.coeffs) - 1) * step + 1)
        for e, c in enumerate(self.coeffs):
            if c:
                dense[e * step] = c
        return _reduce_poly(n, dense)

    def __add__(self, other: Coercible) -> "CycScalar":
        other = cyc(other)
        if self.order == 1 and other.order == 1:
            return CycScalar(1, (self.coeffs[0] + other.coeffs[0],), _canonical=True)
        if self.order == other.order:
            return CycScalar(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        n, a, b = self._unify(other)
        return CycScalar(n, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self) -> "CycScalar":
        return CycScalar(self.order, tuple(-c for c in self.coeffs), _canonical=True)

    def __sub__(self, other: Coercible) -> "CycScalar":
        return self + (-cyc(other))

    def __rsub__(self, other: Coercible) -> "CycScalar":
        return cyc(other) + (-self)

    def __mul__(self, other: Coercible) -> "CycScalar":
        other = cyc(other)
        if self.order == 1 and other.order == 1:
            return CycScalar(1, (self.coeffs[0] * other.coeffs[0],), _canonical=True)
        if self.order == 1:
            q = self.coeffs[0]
            return CycScalar(other.order, tuple(q * c for c in other.coeffs),
                             _canonical=True) if q else ZERO
        if other.order == 1:
            q = other.coeffs[0]
            return CycScalar(self.order, tuple(q * c for c in self.coeffs),
                             _canonical=True) if q else ZERO
        n, a, b = (self.order, self.coeffs, other.coeffs) if self.order == other.order \
            else self._unify(other)
        prod = [_Q0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return CycScalar(n, _reduce_poly(n, prod))

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        if self.order == 1:
            return CycScalar(1, (1 / self.coeffs[0],), _canonical=True)
        # extended Euclid between the representative and Phi_n in Q[x]
        n = self.order
        a = list(self.coeffs)
        b = [Fraction(c) for c in cyclotomic_polynomial(n)]
        # invariants: u * self + (...) * Phi == r
        u0, u1 = [_Q1], [_Q0]
        r0, r1 = a, b
        while any(r1):
            q, rem = _poly_divmod_frac(r0, r1)
            r0, r1 = r1, rem
            u0, u1 = u1, _poly_sub(u0, _poly_mul(q, u1))
        deg = _poly_deg(r0)
        assert deg == 0, "gcd with irreducible Phi_n must be constant"
        c = r0[0]
        inv = [x / c for x in u0]
        return CycScalar(n, _reduce_poly(n, inv))

    def __truediv__(self, other: Coercible) -> "CycScalar":
        return self * cyc(other).inverse()

    def __rtruediv__(self, other: Coercible) -> "CycScalar":
        return cyc(other) * self.inverse()

    def __pow__(self, k: int) -> "CycScalar":
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "CycScalar":
        """The field automorphism zeta -> zeta^(-1) (complex conjugation)."""
        if self.order == 1:
            return self
        n = self.order
        dense = [_Q0] * n
        for e, c in enumerate(self.coeffs):
            if c:
                dense[(n - e) % n] += c
        return CycScalar(n, _reduce_poly(n, dense))

    # --- comparison / hashing ---

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = cyc(other)
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        if self.order == 1:
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    # --- presentation ---

    def __repr__(self):
        return format_scalar(self)

    def to_complex(self) -> complex:
        """Float embedding zeta_n -> exp(2*pi*i/n); test oracle only."""
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(complex(c) * z ** e for e, c in enumerate(self.coeffs))


# --- polynomial helpers over Fraction (used by inverse) -------------------

def _poly_deg(p: list[Fraction]) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else _Q0) - (b[i] if i < len(b) else _Q0) for i in range(n)]


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_Q0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_divmod_frac(a: list[Fraction], b: list[Fraction]):
    db = _poly_deg(b)
    assert db >= 0
    rem = list(a)
    q = [_Q0] * max(1, len(a) - db)
    while _poly_deg(rem) >= db:
        da = _poly_deg(rem)
        c = rem[da] / b[db]
        q[da - db] += c
        for j in range(db + 1):
            rem[da - db + j] -= c * b[j]
    return q, rem


# --- module-level API ------------------------------------------------------

ZERO = CycScalar(1, (_Q0,), _canonical=True)
ONE = CycScalar(1, (_Q1,), _canonical=True)


def cyc(x: Coercible) -> CycScalar:
    if isinstance(x, CycScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CycScalar.from_rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to CycScalar")


def zeta(n: int, k: int = 1) -> CycScalar:
    return CycScalar.zeta(n, k)


def cyc_inv(a: Coercible) -> CycScalar:
    return cyc(a).inverse()


def cyc_conj(a: Coercible) -> CycScalar:
    return cyc(a).conjugate()


# --- text syntax -----------------------------------------------------------
#
#   scalar  := term (('+'|'-') term)*
#   term    := factor ('*' factor)*
#   factor  := '-'* atom
#   atom    := INT ('/' INT)? | 'z' INT ('^' INT)? | '(' scalar ')'
#
# e.g.  "1/2 + 1/2*z3^1",  "-(z4 + 1)*2/3"

def format_scalar(s: CycScalar) -> str:
    if s.order == 1:
        return _format_q(s.coeffs[0])
    parts = []
    for e, c in enumerate(s.coeffs):
        if not c:
            continue
        if e == 0:
            parts.append(_format_q(c))
        elif c == 1:
            parts.append(f"z{s.order}^{e}")
        elif c == -1:
            parts.append(f"-z{s.order}^{e}")
        else:
            parts.append(f"{_format_q(c)}*z{s.order}^{e}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _format_q(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise ParseError(msg, line=1, col=self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def int_(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected integer")
        return int(self.text[start:self.pos])


def parse_scalar(text: str) -> CycScalar:
    toks = _Tokens(text)
    value = _parse_sum(toks)
    toks.skip_ws()
    if toks.pos != len(text):
        toks.error(f"unexpected {text[toks.pos]!r}")
    return value


def _parse_sum(toks: _Tokens) -> CycScalar:
    value = _parse_term(toks)
    while toks.peek() in ("+", "-"):
        op = toks.take()
        rhs = _parse_term(toks)
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_term(toks: _Tokens) -> CycScalar:
    value = _parse_factor(toks)
    while toks.peek() == "*":
        toks.take()
        value = value * _parse_factor(toks)
    return value


def _parse_factor(toks: _Tokens) -> CycScalar:
    sign = ONE
    while toks.peek() == "-":
        toks.take()
        sign = -sign
    return sign * _parse_atom(toks)


def _parse_atom(toks: _Tokens) -> CycScalar:
    c = toks.peek()
    if c == "(":
        toks.take()
        value = _parse_sum(toks)
        if toks.peek() != ")":
            toks.error("expected ')'")
        toks.take()
        return value
    if c == "z":
        toks.take()
        n = toks.int_()
        if n < 1:
            toks.error("root order must be positive")
        k = 1
        if toks.peek() == "^":
            toks.take()
            k = toks.int_()
        return zeta(n, k)
    if c.isdigit():
        num = toks.int_()
        if toks.peek() == "/":
            toks.take()
            den = toks.int_()
            if den == 0:
                toks.error("zero denominator")
            return cyc(Fraction(num, den))
        return cyc(num)
    toks.error(f"unexpected {c!r}" if c else "unexpected end of input")
