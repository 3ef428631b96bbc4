"""Bar complexes and Hochschild (co)homology with exact truncation semantics.

The chain complex C_n = A (x) Abar^(x n) carries the boundary

    b(a_0 (x) ... (x) a_n) = sum_{i<n} (-1)^i a_0 (x) .. a_i a_{i+1} .. (x) a_n
                             + (-1)^n a_n a_0 (x) a_1 (x) ... (x) a_{n-1}

and the cochain complex C^n = Hom(Abar^(x n), A) the matching coboundary.
The reduced (normalized) variant is the default: interior slots live in a
complement of the unit, which shrinks dim(A)^n to (dim(A)-1)^n and is what
makes degree-3 computations feasible at dim 6-8.  The unnormalized variant
is retained as an independent cross-check route.

A homology dimension in degree k is only reported when both adjacent
differentials were built (`complete_through` tracks this); the CLI marks
anything beyond as incomplete rather than guessing.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .algebra import Algebra, center_basis, commutator_subspace
from .errors import DegreeCapExceeded, DegreeUnderflow, HochkitError, NotACocycle
from .linalg import SparseMatrix, Vector, cokernel_projector, rank, solve, unit_vector
from .modules import a_unit_split, check_maxdeg
from .scalars import CycScalar, ONE, ZERO

MAX_CHAIN_COORDINATES = 200_000
MAX_DEGREE = 32


class ChainComplex:
    """Graded spaces with differentials between adjacent degrees.

    direction 'down' stores maps[n]: C_n -> C_(n-1); direction 'up' stores
    maps[n]: C^n -> C^(n+1).  d o d = 0 is asserted at assembly.
    """

    def __init__(self, dims: Sequence[int], maps: dict[int, SparseMatrix],
                 direction: str = "down"):
        assert direction in ("down", "up")
        self.dims = tuple(dims)
        self.maps = dict(maps)
        self.direction = direction
        self._rank_cache: dict[int, int] = {}
        for n, m in self.maps.items():
            if direction == "down":
                assert m.cols == self.dims[n] and m.rows == self.dims[n - 1]
            else:
                assert m.cols == self.dims[n] and m.rows == self.dims[n + 1]
        self._check_dd()

    def _check_dd(self):
        for n, m in self.maps.items():
            nxt = self.maps.get(n + 1)
            if nxt is None:
                continue
            composite = m * nxt if self.direction == "down" else nxt * m
            if not composite.is_zero():
                raise HochkitError(f"differential composite at degree {n} is nonzero")

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def rank_of_map(self, n: int) -> int:
        if n not in self.maps:
            return 0
        if n not in self._rank_cache:
            self._rank_cache[n] = rank(self.maps[n])
        return self._rank_cache[n]

    def complete_through(self) -> int:
        """Largest degree whose homology both adjacent maps determine;
        degree k needs the incoming and the outgoing differential."""
        for k in range(self.top_degree, -1, -1):
            if self.direction == "down":
                in_ok = k == 0 or k in self.maps
                out_ok = k + 1 in self.maps
            else:
                in_ok = k == 0 or k - 1 in self.maps
                out_ok = k in self.maps
            if in_ok and out_ok:
                return k
        return -1

    def homology_dim(self, k: int) -> int:
        if k > self.complete_through():
            raise HochkitError(
                f"homology at degree {k} is not determined by the built "
                f"differentials (complete through {self.complete_through()})")
        if self.direction == "down":
            kernel = self.dims[k] - self.rank_of_map(k)  # rank(b_0) = 0
            image = self.rank_of_map(k + 1)
        else:
            kernel = self.dims[k] - self.rank_of_map(k)
            image = self.rank_of_map(k - 1) if k >= 1 else 0
        assert kernel - image >= 0, "d o d = 0 violated upstream"
        return kernel - image


class HHResult:
    """Dimensions of HH_* or HH^* through a truncation degree, plus optional
    degree-0 representatives."""

    def __init__(self, kind: str, dims: list[int], truncation: int,
                 representatives: Optional[list[Vector]] = None,
                 normalized: bool = True):
        assert kind in ("homology", "cohomology")
        assert all(d >= 0 for d in dims)
        self.kind = kind
        self.dims = list(dims)
        self.truncation = truncation
        self.representatives = representatives
        self.normalized = normalized

    def __repr__(self):
        return f"HH{'^*' if self.kind == 'cohomology' else '_*'}{self.dims}"


# --- bar complexes ----------------------------------------------------------

def _interior_dim(a: Algebra, normalized: bool) -> int:
    return a.dim - 1 if normalized else a.dim


def _guard_sizes(a: Algebra, maxdeg: int, normalized: bool, size_guard: int):
    d = a.dim
    dbar = _interior_dim(a, normalized)
    for n in range(maxdeg + 1):
        size = d * (dbar ** n)
        if size > size_guard:
            raise DegreeCapExceeded(
                f"chain space at degree {n} has {size} coordinates "
                f"(guard {size_guard})")


def bar_chain_complex(a: Algebra, maxdeg: int, normalized: bool = True,
                      size_guard: int = MAX_CHAIN_COORDINATES,
                      degree_cap: int = MAX_DEGREE) -> ChainComplex:
    """Hochschild chain complex C_n = A (x) Abar^(x n) through degree maxdeg."""
    check_maxdeg(maxdeg, degree_cap)
    _guard_sizes(a, maxdeg, normalized, size_guard)
    d = a.dim
    split = a_unit_split(a) if normalized else None
    dbar = _interior_dim(a, normalized)
    interior = split.bar_indices if normalized else tuple(range(d))
    dims = [d * (dbar ** n) for n in range(maxdeg + 1)]
    maps: dict[int, SparseMatrix] = {}

    def chain_index(a0: int, word: tuple[int, ...]) -> int:
        w = 0
        for t in word:
            w = w * dbar + t
        return a0 * (dbar ** len(word)) + w

    for n in range(1, maxdeg + 1):
        entries: dict[tuple[int, int], CycScalar] = {}

        def add(r, c, v):
            if not v:
                return
            s = entries.get((r, c), ZERO) + v
            if s:
                entries[(r, c)] = s
            elif (r, c) in entries:
                del entries[(r, c)]

        for a0 in range(d):
            for w in range(dbar ** n):
                word = []
                x = w
                for _ in range(n):
                    word.append(x % dbar)
                    x //= dbar
                word.reverse()
                word = tuple(word)
                col = a0 * (dbar ** n) + w
                # i = 0: (a0 a_1) (x) a_2 ...
                prod = a.sc.product(a0, interior[word[0]])
                for k, v in prod.items():
                    add(chain_index(k, word[1:]), col, v)
                # interior merges
                sign = ONE
                for i in range(n - 1):
                    sign = -sign
                    if normalized:
                        _eps, reduced = split.bar_product(word[i], word[i + 1])
                        for t, coeff in reduced.items():
                            add(chain_index(a0, word[:i] + (t,) + word[i + 2:]),
                                col, sign * coeff)
                    else:
                        prod = a.sc.product(word[i], word[i + 1])
                        for k, coeff in prod.items():
                            add(chain_index(a0, word[:i] + (k,) + word[i + 2:]),
                                col, sign * coeff)
                # cyclic term: (-1)^n a_n a_0 (x) a_1 ... a_{n-1}
                last_sign = ONE if n % 2 == 0 else -ONE
                prod = a.sc.product(interior[word[n - 1]], a0)
                for k, v in prod.items():
                    add(chain_index(k, word[:n - 1]), col, last_sign * v)
        maps[n] = SparseMatrix(dims[n - 1], dims[n], entries)
    return ChainComplex(dims, maps, direction="down")


def bar_cochain_complex(a: Algebra, maxdeg: int, normalized: bool = True,
                        size_guard: int = MAX_CHAIN_COORDINATES,
                        degree_cap: int = MAX_DEGREE) -> ChainComplex:
    """Hochschild cochain complex C^n = Hom(Abar^(x n), A) with coboundary

    (df)(a_1..a_{n+1}) = a_1 f(a_2..) + sum_i (-1)^i f(.. a_i a_{i+1} ..)
                          + (-1)^(n+1) f(a_1..a_n) a_{n+1}.
    Maps are built for n = 0..maxdeg, so homology is complete through maxdeg.
    """
    check_maxdeg(maxdeg, degree_cap)
    _guard_sizes(a, maxdeg + 1, normalized, size_guard)
    d = a.dim
    split = a_unit_split(a) if normalized else None
    dbar = _interior_dim(a, normalized)
    interior = split.bar_indices if normalized else tuple(range(d))
    dims = [(dbar ** n) * d for n in range(maxdeg + 2)]
    maps: dict[int, SparseMatrix] = {}

    def cochain_index(word_val: int, out: int) -> int:
        return word_val * d + out

    for n in range(0, maxdeg + 1):
        entries: dict[tuple[int, int], CycScalar] = {}

        def add(r, c, v):
            if not v:
                return
            s = entries.get((r, c), ZERO) + v
            if s:
                entries[(r, c)] = s
            elif (r, c) in entries:
                del entries[(r, c)]

        last_sign = ONE if (n + 1) % 2 == 0 else -ONE
        for w in range(dbar ** (n + 1)):
            word = []
            x = w
            for _ in range(n + 1):
                word.append(x % dbar)
                x //= dbar
            word.reverse()
            word = tuple(word)

            def word_val(ws: tuple[int, ...]) -> int:
                v = 0
                for t in ws:
                    v = v * dbar + t
                return v

            rest_val = word_val(word[1:])
            head_val = word_val(word[:n])
            # a_1 f(a_2 ..): left multiplication on the output slot
            for out_mid in range(d):
                for k, v in a.sc.product(interior[word[0]], out_mid).items():
                    add(cochain_index(w, k), cochain_index(rest_val, out_mid), v)
            sign = ONE
            for i in range(n):
                sign = -sign
                if normalized:
                    _eps, reduced = split.bar_product(word[i], word[i + 1])
                    pieces = reduced.items()
                else:
                    pieces = a.sc.product(word[i], word[i + 1]).items()
                for t, coeff in pieces:
                    nw = word_val(word[:i] + (t,) + word[i + 2:])
                    for out in range(d):
                        add(cochain_index(w, out), cochain_index(nw, out),
                            sign * coeff)
            # (-1)^(n+1) f(a_1..a_n) a_{n+1}: right multiplication on output
            for out_mid in range(d):
                for k, v in a.sc.product(out_mid, interior[word[n]]).items():
                    add(cochain_index(w, k), cochain_index(head_val, out_mid),
                        last_sign * v)
        maps[n] = SparseMatrix(dims[n + 1], dims[n], entries)
    return ChainComplex(dims, maps, direction="up")


# --- dimension reports --------------------------------------------------------

def hh_homology_dims(a: Algebra, maxdeg: int, normalized: bool = True,
                     size_guard: int = MAX_CHAIN_COORDINATES,
                     degree_cap: int = MAX_DEGREE,
                     want_representatives: bool = False) -> HHResult:
    """dim HH_k for 0 <= k <= maxdeg.  Degree 0 is cross-checked against the
    direct computation dim(A) - dim[A, A]."""
    check_maxdeg(maxdeg, degree_cap)
    complex_ = bar_chain_complex(a, maxdeg + 1, normalized=normalized,
                                 size_guard=size_guard, degree_cap=degree_cap + 1)
    dims = [complex_.homology_dim(k) for k in range(maxdeg + 1)]
    direct0 = a.dim - commutator_subspace(a).dim
    if dims[0] != direct0:
        raise HochkitError(
            f"degree-0 homology {dims[0]} disagrees with dim A/[A,A] = {direct0}")
    reps = None
    if want_representatives:
        free_coords, _proj = cokernel_projector(complex_.maps[1])
        reps = [unit_vector(complex_.dims[0], f) for f in free_coords]
    return HHResult("homology", dims, maxdeg, representatives=reps,
                    normalized=normalized)


def hh_cohomology_dims(a: Algebra, maxdeg: int, normalized: bool = True,
                       size_guard: int = MAX_CHAIN_COORDINATES,
                       degree_cap: int = MAX_DEGREE,
                       want_representatives: bool = False) -> HHResult:
    """dim HH^k for 0 <= k <= maxdeg.  Degree 0 is cross-checked against the
    direct center computation."""
    complex_ = bar_cochain_complex(a, maxdeg, normalized=normalized,
                                   size_guard=size_guard, degree_cap=degree_cap)
    dims = [complex_.homology_dim(k) for k in range(maxdeg + 1)]
    direct0 = len(center_basis(a))
    if dims[0] != direct0:
        raise HochkitError(
            f"degree-0 cohomology {dims[0]} disagrees with dim Z(A) = {direct0}")
    reps = None
    if want_representatives:
        reps = [z.coords for z in center_basis(a)]
    return HHResult("cohomology", dims, maxdeg, representatives=reps,
                    normalized=normalized)


# --- cochains, cup and cap on the unnormalized complex -------------------------
#
# Cup and cap are implemented on the unnormalized complex, where the
# formulas are the textbook ones with no splitting bookkeeping; the spaces
# involved in tests are small.

class Cochain:
    """An element of C^p = Hom(A^(x p), A) on the unnormalized complex."""

    def __init__(self, algebra: Algebra, degree: int, coords: Vector):
        d = algebra.dim
        assert len(coords) == (d ** degree) * d
        self.algebra = algebra
        self.degree = degree
        self.coords = tuple(coords)

    def value(self, word: tuple[int, ...]) -> Vector:
        d = self.algebra.dim
        w = 0
        for t in word:
            w = w * d + t
        return tuple(self.coords[w * d + k] for k in range(d))

    @staticmethod
    def from_element(algebra: Algebra, coords: Vector) -> "Cochain":
        return Cochain(algebra, 0, coords)

    @staticmethod
    def unit_cocycle(algebra: Algebra) -> "Cochain":
        return Cochain(algebra, 0, algebra.unit)


class Chain:
    """An element of C_n = A^(x (n+1)) on the unnormalized complex."""

    def __init__(self, algebra: Algebra, degree: int, coords: Vector):
        d = algebra.dim
        assert len(coords) == d ** (degree + 1)
        self.algebra = algebra
        self.degree = degree
        self.coords = tuple(coords)


def _unnormalized_cochain_map(a: Algebra, n: int) -> SparseMatrix:
    return bar_cochain_complex(a, n, normalized=False).maps[n]


def _unnormalized_chain_map(a: Algebra, n: int) -> SparseMatrix:
    return bar_chain_complex(a, n, normalized=False).maps[n]


def coboundary(f: Cochain) -> Cochain:
    delta = _unnormalized_cochain_map(f.algebra, f.degree)
    return Cochain(f.algebra, f.degree + 1, delta.apply(f.coords))


def boundary(z: Chain) -> Chain:
    if z.degree == 0:
        return Chain(z.algebra, 0, (ZERO,) * z.algebra.dim)
    b = _unnormalized_chain_map(z.algebra, z.degree)
    return Chain(z.algebra, z.degree - 1, b.apply(z.coords))


def is_cocycle(f: Cochain) -> bool:
    return not any(coboundary(f).coords)


def is_cycle(z: Chain) -> bool:
    return z.degree == 0 or not any(boundary(z).coords)


def cup_product(f: Cochain, g: Cochain) -> Cochain:
    """(f cup g)(a_1..a_{p+q}) = f(a_1..a_p) * g(a_{p+1}..a_{p+q}).

    Requires cocycle inputs; the output is a cocycle, the product is
    strictly associative at the cochain level, and on classes it realizes
    the Yoneda product (degree 0 recovers multiplication in the center).
    """
    if f.algebra != g.algebra:
        raise HochkitError("cup product needs a common algebra")
    if not is_cocycle(f) or not is_cocycle(g):
        raise NotACocycle("cup product requires cocycle inputs")
    a = f.algebra
    d = a.dim
    p, q = f.degree, g.degree
    out = [ZERO] * ((d ** (p + q)) * d)
    for w in range(d ** (p + q)):
        word = []
        x = w
        for _ in range(p + q):
            word.append(x % d)
            x //= d
        word.reverse()
        fv = f.value(tuple(word[:p]))
        gv = g.value(tuple(word[p:]))
        prod = a.mul(fv, gv)
        for k, v in enumerate(prod):
            if v:
                out[w * d + k] = v
    result = Cochain(a, p + q, tuple(out))
    assert is_cocycle(result)
    return result


# Leibniz sign convention, verified exactly by the test suite:
#     b(f cap z) = (-1)^p [ f cap b(z) ] - (-1)^p [ (df) cap z ]
# for f of degree p, i.e. b(f cap z) = (-1)^p (f cap bz - df cap z).
def cap_product(f: Cochain, z: Chain) -> Chain:
    """f cap (a_0 (x) ... (x) a_n) = (a_0 * f(a_1..a_p)) (x) a_{p+1} ... a_n.

    Requires a cocycle and a cycle; the output is a cycle and the operation
    descends to HH^p (x) HH_n -> HH_{n-p}.
    """
    if f.algebra != z.algebra:
        raise HochkitError("cap product needs a common algebra")
    p, n = f.degree, z.degree
    if p > n:
        raise DegreeUnderflow(f"cannot cap degree {p} against chain degree {n}")
    if not is_cocycle(f):
        raise NotACocycle("cap product requires a cocycle")
    if not is_cycle(z):
        raise NotACocycle("cap product requires a cycle")
    result = _cap_raw(f, z)
    assert is_cycle(result)
    return result


def _cap_raw(f: Cochain, z: Chain) -> Chain:
    a = f.algebra
    d = a.dim
    p, n = f.degree, z.degree
    out = [ZERO] * (d ** (n - p + 1))
    for idx, c in enumerate(z.coords):
        if not c:
            continue
        digits = []
        x = idx
        for _ in range(n + 1):
            digits.append(x % d)
            x //= d
        digits.reverse()
        a0, middle, tail = digits[0], tuple(digits[1:p + 1]), digits[p + 1:]
        fv = f.value(middle)
        head = a.mul(unit_vector(d, a0), fv)
        for k, v in enumerate(head):
            if v:
                w = k
                for t in tail:
                    w = w * d + t
                out[w] = out[w] + c * v
    return Chain(a, n - p, tuple(out))


def class_difference_is_boundary(x: Chain, y: Chain) -> bool:
    """Whether two cycles agree in homology (difference is a boundary)."""
    assert x.degree == y.degree and x.algebra == y.algebra
    diff = tuple(a - b for a, b in zip(x.coords, y.coords))
    if not any(diff):
        return True
    b = _unnormalized_chain_map(x.algebra, x.degree + 1)
    return solve(b, diff) is not None


def cochain_difference_is_coboundary(x: Cochain, y: Cochain) -> bool:
    assert x.degree == y.degree and x.algebra == y.algebra
    diff = tuple(a - b for a, b in zip(x.coords, y.coords))
    if not any(diff):
        return True
    if x.degree == 0:
        return False  # no (-1)-cochains
    delta = _unnormalized_cochain_map(x.algebra, x.degree - 1)
    return solve(delta, diff) is not None
