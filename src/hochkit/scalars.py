"""Exact arithmetic in Q and in the cyclotomic fields Q(zeta_n).

A value is kept as `(order, nums, den)`: integer numerators in the power
basis 1, z, ..., z^(phi(n)-1) of Q[x]/Phi_n(x) over one positive
denominator, in lowest terms (the form of `linalg`'s rows), with the order
always the conductor: the smallest n such that the value lies in
Q(zeta_n).  Rationals therefore carry order 1, equality is a plain
field-by-field comparison, and arithmetic runs on integers with one gcd per
result.  A rational summand or factor keeps the conductor; only sums and
products of two irrational values descend, and `scalar` descends once per
value it builds from integer coordinates.  `multiplication_block` writes a
value as the integer matrix of multiplication by it on the power basis, the
block in which `linalg` stores each entry of a matrix over Q(zeta_n), n > 1.

Descent and inversion are index arithmetic; nothing here solves a linear
system.  A value of Q(zeta_n) descends to Q(zeta_m), m = n/p for a prime
p dividing n, in one of two ways:

* p^2 divides n: Phi_n(x) = Phi_m(x^p), so Q(zeta_m) is spanned by the
  power-basis coordinates at the multiples of p;
* p divides n once: Q(zeta_n) = Q(zeta_m) (x) Q(zeta_p), and
  zeta_n^k = zeta_m^(k/p mod m) * zeta_p^(k/m mod p) rewrites the value
  in the product basis; it lies in Q(zeta_m) when no zeta_p^j part with
  j > 0 remains.

A nonzero x of conductor n is inverted one field step at a time: with y
the product of the other conjugates of x over Q(zeta_m), x*y is the
relative norm, an element of Q(zeta_m), and 1/x = y * (x*y)^(-1).

Everything here is immutable and pure; no floating point is used except
in the `to_complex` embedding, which exists only as a sanity oracle for
tests and is never fed back into a computation.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from .errors import HochkitError, ParseError, ShapeMismatch

Coercible = Union["CycScalar", Fraction, int]


@cache
def _prime_divisors(n: int) -> tuple[int, ...]:
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
    return tuple(out)


@cache
def euler_phi(n: int) -> int:
    if n < 1:
        raise HochkitError(f"order must be positive, not {n}")
    result = n
    for p in _prime_divisors(n):
        result -= result // p
    return result


def _divisors(n: int) -> list[int]:
    out = [1]
    for p in _prime_divisors(n):
        for d in out[:]:
            while n % (d * p) == 0:
                d *= p
                out.append(d)
    return out


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, coefficients low to high.
    if den[-1] != 1:
        raise HochkitError(f"polynomial division by {den}, which is not monic")
    num = num[:]
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        q[i - dd] = c
        if c:
            for j, dc in enumerate(den):
                num[i - dd + j] -= c * dc
    if any(num):
        raise HochkitError(f"polynomial division by {den} leaves a remainder")
    return q


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low degree first (monic, length phi(n)+1)."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n):
        if d != n:
            poly = _poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    out = tuple(poly)
    if len(out) != euler_phi(n) + 1 or out[-1] != 1:
        raise HochkitError(f"Phi_{n} came out as {out}, not monic of degree {euler_phi(n)}")
    return out


@cache
def _power_residues(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^e mod Phi_n for 0 <= e < max(n, 2*phi(n) - 1), as the (k, c) pairs
    of the nonzero integer coefficients c of x^k."""
    phi = euler_phi(n)
    top = max(n, 2 * phi - 1)
    cyclo = cyclotomic_polynomial(n)
    # x^phi == -(cyclo[0] + cyclo[1] x + ...) mod Phi_n
    rows: list[list[int]] = []
    for e in range(top):
        if e < phi:
            row = [0] * phi
            row[e] = 1
        else:
            prev = rows[e - 1]
            row = [0] + prev[: phi - 1]
            carry = prev[phi - 1]
            if carry:
                for k in range(phi):
                    row[k] -= carry * cyclo[k]
        rows.append(row)
    return tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in rows)


def _reduce_poly(n: int, dense: list[int]) -> list[int]:
    """Reduce an integer polynomial in zeta_n (exponents < len(dense)) mod Phi_n."""
    phi = euler_phi(n)
    residues = _power_residues(n)
    out = [0] * phi
    for e, c in enumerate(dense):
        if not c:
            continue
        e %= n
        if e < phi:
            out[e] += c
        else:
            for k, r in residues[e]:
                out[k] += c * r
    return out


# --- descent to the conductor --------------------------------------------

def _descend(n: int, p: int, nums: list[int]) -> Optional[list[int]]:
    """Coordinates in Q(zeta_(n/p)) of a value of Q(zeta_n), or None when it
    does not lie in that subfield; p is a prime divisor of n."""
    m = n // p
    if m == 1:  # the subfield is Q, and the caller has tested for a rational
        return None
    if m % p == 0:  # Phi_n(x) = Phi_m(x^p): read the multiples of p
        if any(c for k, c in enumerate(nums) if k % p):
            return None
        return nums[::p]
    # zeta_n^k = zeta_m^(k p' mod m) * zeta_p^(k m' mod p), p p' = 1 mod m and
    # m m' = 1 mod p; parts[j] collects the zeta_m-polynomial beside zeta_p^j
    p_inv, m_inv = pow(p, -1, m), pow(m, -1, p)
    parts = [[0] * m for _ in range(p)]
    for k, c in enumerate(nums):
        if c:
            parts[k * m_inv % p][k * p_inv % m] = c
    # zeta_p^(p-1) = -(1 + zeta_p + ... + zeta_p^(p-2)), so the zeta_p^j part is
    # parts[j] - parts[p-1]; the value descends when it vanishes for 0 < j < p-1
    last = _reduce_poly(m, parts[-1])
    if any(_reduce_poly(m, parts[j]) != last for j in range(1, p - 1)):
        return None
    return [a - b for a, b in zip(_reduce_poly(m, parts[0]), last)]


def embed(nums: Sequence[int], order: int, n: int) -> Sequence[int]:
    """Power-basis coordinates in Q(zeta_n), order | n, of the value with
    coordinates `nums` in Q(zeta_order): zeta_order = zeta_n^(n/order)."""
    if n == order:
        return nums
    step = n // order
    dense = [0] * ((len(nums) - 1) * step + 1)
    for e, c in enumerate(nums):
        if c:
            dense[e * step] = c
    return _reduce_poly(n, dense)


def multiplication_block(nums: tuple[int, ...], order: int,
                         n: int) -> tuple[tuple[int, int, int], ...]:
    """The nonzero entries (s, t, v) of the phi(n) x phi(n) integer matrix of
    multiplication by x = sum_k nums[k] zeta_order^k, order | n, on the power
    basis of Q(zeta_n): column t holds the coordinates of x zeta_n^t, and
    column 0 those of x."""
    phi = euler_phi(n)
    if order == 1:
        return tuple((s, s, nums[0]) for s in range(phi)) if nums[0] else ()
    col, cyclo, out = list(embed(nums, order, n)), cyclotomic_polynomial(n), []
    for t in range(phi):
        out.extend((s, t, v) for s, v in enumerate(col) if v)
        carry = col[-1]  # times zeta: shift up, and zeta^phi = -(cyclo[0] + ...)
        col = [0] + col[:-1]
        if carry:
            col = [a - carry * k for a, k in zip(col, cyclo)]
    return tuple(out)


def _conductor_form(n: int, nums: list[int]) -> tuple[int, list[int]]:
    while n > 1:
        if not any(nums[1:]):
            return 1, nums[:1]
        for p in _prime_divisors(n):
            reduced = _descend(n, p, nums)
            if reduced is not None:
                n, nums = n // p, reduced
                break
        else:
            return n, nums
    return n, nums


class CycScalar:
    """An element of Q(zeta_order): integer power-basis numerators `nums`
    over one positive denominator `den`, in lowest terms, at the conductor."""

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs: Iterable[Fraction], *, _canonical: bool = False):
        # every descent runs here (perfbench's tracer counts these calls)
        nums = coeffs if type(coeffs) is list else list(coeffs)
        den = 1
        if not all(type(c) is int for c in nums):  # internal callers pass ints
            coeffs = [c if type(c) is int else Fraction(c) for c in nums]
            den = lcm(1, *(c.denominator for c in coeffs))
            nums = [c.numerator * (den // c.denominator) for c in coeffs]
        if not _canonical:
            if len(nums) != euler_phi(order):
                raise ShapeMismatch(f"{len(nums)} coefficients for Q(zeta_{order}), "
                                    f"which has degree {euler_phi(order)}")
            order, nums = _conductor_form(order, nums)
        _fill(self, order, nums, den)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("CycScalar is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions (a read-only view)."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    # --- constructors ---

    @staticmethod
    def zeta(n: int, k: int = 1) -> "CycScalar":
        if n < 1:
            raise HochkitError(f"order must be positive, not {n}")
        k %= n
        dense = [0] * (k + 1)
        dense[k] = 1
        return CycScalar(n, _reduce_poly(n, dense))

    # --- predicates ---

    def __bool__(self) -> bool:
        return self.order > 1 or self.nums[0] != 0  # zero is rational

    # --- ring operations ---

    def _embed(self, n: int) -> Sequence[int]:
        """The numerators of self in the power basis of Q(zeta_n), over self.den."""
        return embed(self.nums, self.order, n)

    def __add__(self, other: Coercible) -> "CycScalar":
        other = cyc(other)
        if self.order == 1 or other.order == 1:
            # a rational summand shifts the constant term and keeps the conductor
            x, q = (self, other) if other.order == 1 else (other, self)
            if not q.nums[0]:
                return x
            if not x:
                return q
            nums = [c * q.den for c in x.nums]
            nums[0] += q.nums[0] * x.den
            return _lowest(x.order, nums, x.den * q.den)
        n, s, t = lcm(self.order, other.order), other.den, self.den
        nums = [a * s + b * t for a, b in zip(self._embed(n), other._embed(n))]
        return CycScalar(n, nums)._scaled(1, s * t)

    __radd__ = __add__

    def __neg__(self) -> "CycScalar":
        return _lowest(self.order, [-c for c in self.nums], self.den)

    def __sub__(self, other: Coercible) -> "CycScalar":
        return self + (-cyc(other))

    def __rsub__(self, other: Coercible) -> "CycScalar":
        return cyc(other) + (-self)

    def __mul__(self, other: Coercible) -> "CycScalar":
        if type(other) is int:  # an integer factor needs no coercion
            return self._scaled(other, 1)
        other = cyc(other)
        if other.order == 1:
            return self._scaled(other.nums[0], other.den)
        if self.order == 1:
            return other._scaled(self.nums[0], self.den)
        n = lcm(self.order, other.order)
        a, b = self._embed(n), other._embed(n)
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return CycScalar(n, _reduce_poly(n, prod))._scaled(1, self.den * other.den)

    __rmul__ = __mul__

    def _scaled(self, k: int, d: int) -> "CycScalar":
        """self * k/d, for d > 0: a rational factor keeps the conductor."""
        if not k:
            return ZERO
        return _lowest(self.order, [k * c for c in self.nums], self.den * d)

    def inverse(self) -> "CycScalar":
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        n = self.order
        if n == 1:
            num = self.nums[0]
            return _lowest(1, (self.den if num > 0 else -self.den,), abs(num))
        # the other conjugates over Q(zeta_m) are sigma_a, a = 1 mod m, a != 1
        m = n // _prime_divisors(n)[0]
        others = reduce(mul, (self._galois(a) for a in range(1 + m, n, m) if gcd(a, n) == 1))
        return others * (self * others).inverse()

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

    def _galois(self, a: int) -> "CycScalar":
        """The field automorphism zeta -> zeta^a, for a prime to the order; it
        keeps the conductor."""
        n = self.order
        dense = [0] * n
        for e, c in enumerate(self.nums):
            if c:
                dense[a * e % n] = c
        return _lowest(n, _reduce_poly(n, dense), self.den)

    def conjugate(self) -> "CycScalar":
        """The field automorphism zeta -> zeta^(-1) (complex conjugation)."""
        return self._galois(-1)

    # --- comparison / hashing ---

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = cyc(other)
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self.order == other.order and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        if self.order == 1:
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.order, self.nums, self.den))

    # --- presentation ---

    def __repr__(self):
        return format_scalar(self)

    def to_complex(self) -> complex:
        """Float embedding zeta_n -> exp(2*pi*i/n); test oracle only."""
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(complex(c) * z ** e for e, c in enumerate(self.coeffs))


# --- module-level API ------------------------------------------------------

def _fill(x: CycScalar, order: int, nums: Sequence[int], den: int) -> None:
    """Set the fields of a new x to nums/den in lowest terms."""
    g = gcd(den, *nums)
    object.__setattr__(x, "order", order)
    object.__setattr__(x, "nums", tuple(c // g for c in nums) if g > 1 else tuple(nums))
    object.__setattr__(x, "den", den // g)


def _lowest(order: int, nums: Sequence[int], den: int) -> CycScalar:
    """nums/den, known to be at its conductor `order`: no descent."""
    x = object.__new__(CycScalar)
    _fill(x, order, nums, den)
    return x


ZERO = _lowest(1, (0,), 1)
ONE = _lowest(1, (1,), 1)


def cyc(x: Coercible) -> CycScalar:
    if isinstance(x, CycScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return _lowest(1, (x.numerator,), x.denominator)
    raise TypeError(f"cannot coerce {type(x).__name__} to CycScalar")


def scalar(n: int, nums: Sequence[int], den: int) -> CycScalar:
    """The value with integer power-basis numerators `nums` in Q(zeta_n) over
    den > 0, at its conductor; a rational one, zero included, needs no descent."""
    if any(nums[1:]):
        return CycScalar(n, nums)._scaled(1, den)
    return _lowest(1, nums[:1], den) if nums[0] else ZERO


def zeta(n: int, k: int = 1) -> CycScalar:
    return CycScalar.zeta(n, k)


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


MAX_PARSED_ORDER = 1024  # the largest order a parsed scalar may reach
MAX_NESTING = 32  # the deepest parenthesis nesting a parsed expression may have


def check_nesting(text: str) -> None:
    """Refuse text whose parentheses nest deeper than MAX_NESTING, before a
    recursive parser reads it."""
    depth = deepest = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    if deepest > MAX_NESTING:
        raise ParseError(f"parentheses nest {deepest} levels deep, "
                         f"above the bound {MAX_NESTING}")


def _is_digits(text: str) -> bool:
    """Whether `text` is a nonempty run of ASCII digits 0-9; `str.isdigit`
    also accepts digits such as "²" that `int` refuses."""
    return text.isascii() and text.isdigit()


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise ParseError(msg, line=1, col=self.pos + 1)

    def bound_order(self, n: int):
        if n > MAX_PARSED_ORDER:
            self.error(f"a scalar of order {n} is above the bound {MAX_PARSED_ORDER}")

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
        while self.pos < len(self.text) and _is_digits(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            self.error("expected integer")
        return int(self.text[start:self.pos])


def parse_scalar(text: str) -> CycScalar:
    """Parse scalar syntax such as `1/2 + 1/2*z3^1`.  No literal z<n>, and no
    sum, difference or product, may reach an order above MAX_PARSED_ORDER:
    order n builds tables of about n * phi(n) entries.  Nor may parentheses
    nest deeper than MAX_NESTING."""
    check_nesting(text)
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
        toks.bound_order(lcm(value.order, rhs.order))
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_term(toks: _Tokens) -> CycScalar:
    value = _parse_factor(toks)
    while toks.peek() == "*":
        toks.take()
        rhs = _parse_factor(toks)
        toks.bound_order(lcm(value.order, rhs.order))
        value = value * rhs
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
        toks.bound_order(n)
        k = 1
        if toks.peek() == "^":
            toks.take()
            k = toks.int_()
        return zeta(n, k)
    if _is_digits(c):
        num = toks.int_()
        if toks.peek() == "/":
            toks.take()
            den = toks.int_()
            if den == 0:
                toks.error("zero denominator")
            return cyc(Fraction(num, den))
        return cyc(num)
    toks.error(f"unexpected {c!r}" if c else "unexpected end of input")
