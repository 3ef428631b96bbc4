"""Bar complexes and Hochschild (co)homology with exact truncation semantics.

The chain complex C_n = A (x) Abar^(x n) carries the boundary

    b(a_0 (x) ... (x) a_n) = sum_{i<n} (-1)^i a_0 (x) .. a_i a_{i+1} .. (x) a_n
                             + (-1)^n a_n a_0 (x) a_1 (x) ... (x) a_{n-1}

and the cochain complex C^n = Hom(Abar^(x n), A) the matching coboundary
(J.-L. Loday, *Cyclic Homology*, 1.1).  A word of r letters is its index in
base r.  `_alphabet` reads all products into one table, a `SparseMatrix`
whose values are ints over one denominator, or CycScalars when an entry is
irrational.  Each term of a differential adds one signed table row along
arithmetic progressions of target and source indices (`_scatter`), so a
differential is summed in the table's form, one degree at a time
(`_boundary`, `_coboundary`), and built alone where only it is read (cup,
cap and the class comparisons).  The alphabet is the only place the two
routes differ.  The reduced (normalized) route is the default: interior
letters span a complement of the unit, which shrinks dim(A)^n to
(dim(A)-1)^n and makes degree-3 computations feasible at dim 6-8.  The
unnormalized route, on which cup and cap live, is kept as an independent
cross-check.  Ext over A (x) A^op (`modules.ext_dims`) builds its own
coboundary and shares only `ChainComplex`, which checks d o d = 0 and ranks
each differential on what its neighbour leaves: a second route to HH^*.

A homology dimension in degree k is only reported when both adjacent
differentials were built (`complete_through` tracks this); the CLI marks
anything beyond as incomplete rather than guessing.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .algebra import Algebra, center_basis, commutator_subspace
from .errors import (
    AlgebraMismatch, DegreeCapExceeded, DegreeUnderflow, HochkitError, NotACocycle,
    ShapeMismatch,
)
from .linalg import SparseMatrix, Vector, rank, solve, unit_vector
from .modules import MAX_COORDINATES, MAX_DEGREE, a_unit_split, check_maxdeg
from .scalars import CycScalar, ZERO


class ChainComplex:
    """Graded spaces with differentials between adjacent degrees.

    maps[n] leaves degree n and lands in degree n + step: step is -1 for
    direction 'down' (maps[n]: C_n -> C_(n-1)) and +1 for 'up'
    (maps[n]: C^n -> C^(n+1)).  d o d = 0 is checked exactly at assembly.

    Ranks are taken in degree order, each map ranked only on what its
    neighbour maps[n - 1] leaves (the clearing of persistent homology).
    Let g o f = 0 through a shared space Y.  If g is ranked first, its pivot
    columns Q on Y carry coordinates that a vector of ker g has as a
    combination of its others, and every column of f lies in ker g: the
    rows Q of f are combinations of its other rows, and rank f is the rank
    of f without them.  Transposed, if f is ranked first with pivot rows R
    on Y, rank g is the rank of g without the columns R.  So b_n is ranked
    without the rows at the pivot columns of b_(n-1), and delta^n without
    the columns at the pivot rows of delta^(n-1); delta^n is ranked as its
    transpose, so in both directions the cut drops rows of the matrix
    ranked, at pivot columns of the one before it.  Those lie on the side
    that was not cut, so they keep their indices.  This rests on d o d = 0,
    which the constructor has proved.
    """

    def __init__(self, dims: Sequence[int], maps: dict[int, SparseMatrix],
                 direction: str = "down"):
        self.step = {"down": -1, "up": 1}[direction]
        self.dims = tuple(dims)
        self.maps = dict(maps)
        self._rank_cache: dict[int, int] = {}
        self._pivot_cache: dict[int, tuple | None] = {}  # the ranked part's pivots
        for n, m in self.maps.items():
            t = n + self.step  # None stands for a degree outside the complex
            want = tuple(self.dims[k] if 0 <= k < len(self.dims) else None for k in (t, n))
            if (m.rows, m.cols) != want:
                raise ShapeMismatch(f"the map from degree {n} to {t} has shape "
                                    f"{(m.rows, m.cols)}, not {want}")
        self._check_dd()

    def _check_dd(self):
        for n, m in self.maps.items():
            nxt = self.maps.get(n + self.step)
            if nxt is not None and not (nxt * m).is_zero():
                raise HochkitError(f"differential composite at degree {n} is nonzero")

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def rank_of_map(self, n: int) -> int:
        if n not in self.maps:
            return 0
        for k in range(min(self.maps), n + 1):
            if k in self.maps and k not in self._rank_cache:
                self._rank_cache[k] = self._rank_cleared(k)
        return self._rank_cache[n]

    def _rank_cleared(self, n: int) -> int:
        """rank maps[n], eliminated without what maps[n - 1] (ranked) leaves."""
        # maps[n] with its rows on the space it shares with maps[n - 1]
        m = self.maps[n] if self.step == -1 else self.maps[n].transpose()
        pivots = self._pivot_cache.get(n - 1)  # (rows, cols) of the last one ranked
        if pivots and pivots[1]:
            cut = set(pivots[1])
            m = m.take_rows([i for i in range(m.rows) if i not in cut])
        r = rank(m)
        self._pivot_cache[n] = m.pivots
        return r

    def complete_through(self) -> int:
        """Largest degree whose homology both adjacent maps determine;
        degree k needs the maps out of it (maps[k]) and into it
        (maps[k - step]), each built or zero (b_0 and delta^-1)."""
        for k in range(self.top_degree, -1, -1):
            if all(n in self.maps or min(n, n + self.step) < 0
                   for n in (k, k - self.step)):
                return k
        return -1

    def homology_dim(self, k: int) -> int:
        if k > self.complete_through():
            raise HochkitError(
                f"homology at degree {k} is not determined by the built "
                f"differentials (complete through {self.complete_through()})")
        kernel = self.dims[k] - self.rank_of_map(k)
        image = self.rank_of_map(k - self.step)
        if kernel < image:  # d o d = 0 violated upstream
            raise HochkitError(f"degree {k}: image rank {image} exceeds kernel dimension {kernel}")
        return kernel - image


class HHResult:
    """Dimensions of HH_* or HH^* through a truncation degree."""

    def __init__(self, kind: str, dims: list[int], truncation: int):
        if kind not in ("homology", "cohomology") or any(d < 0 for d in dims):
            raise HochkitError(f"no {kind} result has dimensions {list(dims)}")
        self.kind = kind
        self.dims = list(dims)
        self.truncation = truncation

    def __repr__(self):
        return f"HH{'^*' if self.kind == 'cohomology' else '_*'}{self.dims}"


# --- bar complexes ----------------------------------------------------------

def _index(word: Sequence[int], radix: int) -> int:
    """The word read in base `radix`, first letter most significant."""
    return sum(t * radix ** k for k, t in enumerate(reversed(word)))


def _alphabet(a: Algebra, normalized: bool) -> tuple[tuple[int, ...], SparseMatrix]:
    """(letters, table): the basis index of each interior letter, and all
    products as the rows of one matrix: e_i e_j in row i * dim(A) + j, and
    letters s, t (of r) in row dim(A)^2 + s * r + t.  Normalized letters span
    a complement of the unit; their products drop the unit part."""
    d = a.dim
    rows = [a.sc.product(i, j) for i in range(d) for j in range(d)]
    if normalized:
        split = a_unit_split(a)
        letters = split.bar_indices
        rows += [split.bar_product(s, t)[1] for s in range(d - 1) for t in range(d - 1)]
    else:  # every basis element is a letter: the products again
        letters, rows = tuple(range(d)), rows * 2
    return letters, SparseMatrix(len(rows), d, (((i, k), v) for i, row in enumerate(rows)
                                                for k, v in row.items()))


def _scatter(data: list[dict], v, target: int, step: int, cols: list[int]):
    """Add v at (target + i * step, cols[i]) for each i, dropping what cancels."""
    for c in cols:
        row = data[target]
        s = row.get(c)
        if s is None:
            row[c] = v
        elif s := s + v:
            row[c] = s
        else:
            del row[c]
        target += step


def _guarded_dims(a: Algebra, top: int, radix: int) -> list[int]:
    """dim(A) * radix^n for n = 0..top; refuses before anything is built."""
    dims = [a.dim * radix ** n for n in range(top + 1)]
    for n, size in enumerate(dims):
        if size > MAX_COORDINATES:
            raise DegreeCapExceeded(f"chain space at degree {n} has {size} coordinates "
                                    f"(guard {MAX_COORDINATES})")
    return dims


def _boundary(a: Algebra, n: int, letters: tuple[int, ...], table: SparseMatrix) -> SparseMatrix:
    """b_n: C_n -> C_(n-1) over the alphabet `letters`, n >= 1.  Column
    a_0 * r^n + w is a_0 (x) w, the word w of n letters read in base r."""
    d, r = a.dim, len(letters)
    signed = table._rows, [{k: -v for k, v in row.items()} for row in table._rows]
    low, top = r ** (n - 1), r ** n
    data: list[dict] = [dict() for _ in range(d * low)]
    cols = list(range(d * top))  # one int per column, shared by its entries
    for a0 in range(d):
        for x in range(r):
            # (a_0 a_1) (x) a_2 .. and the cyclic (-1)^n a_n a_0 (x) a_1 .. a_(n-1)
            for k, v in signed[0][a0 * d + letters[x]].items():
                _scatter(data, v, k * low, 1, cols[a0 * top + x * low:a0 * top + (x + 1) * low])
            for k, v in signed[n % 2][letters[x] * d + a0].items():
                _scatter(data, v, k * low, 1, cols[a0 * top + x:(a0 + 1) * top:r])
    for i in range(1, n):  # (-1)^i a_0 (x) .. a_i a_(i+1) .. (x) a_n
        p = r ** (n - 1 - i)  # the weight of letter i + 1, and of the merged letter
        for pair in range(r * r):
            for t, v in signed[i % 2][d * d + pair].items():
                for j in range(p):
                    _scatter(data, v, t * p + j, r * p, cols[pair * p + j::r * r * p])
    return SparseMatrix._of(d * low, d * top, data, table.den)


def _coboundary(a: Algebra, n: int, letters: tuple[int, ...], table: SparseMatrix) -> SparseMatrix:
    """delta^n: C^n -> C^(n+1) over the alphabet `letters`, n >= 0.  Row
    w * dim(A) + k is coordinate k of (delta f)(w), the word w read in base r."""
    d, r = a.dim, len(letters)
    signed = table._rows, [{k: -v for k, v in row.items()} for row in table._rows]
    top = r ** n  # words of n letters
    data: list[dict] = [dict() for _ in range(d * top * r)]
    cols = list(range(d * top))  # one int per column, shared by its entries
    for x in range(r):
        for out in range(d):
            # a_1 f(a_2 ..) and (-1)^(n+1) f(a_1 .. a_n) a_(n+1): f(u) at e_out, every u
            for k, v in signed[0][letters[x] * d + out].items():
                _scatter(data, v, x * top * d + k, d, cols[out::d])
            for k, v in signed[(n + 1) % 2][out * d + letters[x]].items():
                _scatter(data, v, x * d + k, r * d, cols[out::d])
    for i in range(n):  # (-1)^(i+1) f(.. a_i a_(i+1) ..), letters counted from 0
        p = r ** (n - 1 - i) * d  # the weight of letter i + 1, and of the merged letter
        for pair in range(r * r):
            for t, v in signed[(i + 1) % 2][d * d + pair].items():
                for above in range(r ** i):
                    u = (above * r + t) * p
                    _scatter(data, v, (above * r * r + pair) * p, 1, cols[u:u + p])
    return SparseMatrix._of(d * top * r, d * top, data, table.den)


def bar_chain_complex(a: Algebra, maxdeg: int, normalized: bool = True) -> ChainComplex:
    """Hochschild chain complex C_n = A (x) Abar^(x n) through degree maxdeg."""
    check_maxdeg(maxdeg, MAX_DEGREE + 1)  # homology is complete one degree lower
    letters, table = _alphabet(a, normalized)
    dims = _guarded_dims(a, maxdeg, len(letters))
    maps = {n: _boundary(a, n, letters, table) for n in range(1, maxdeg + 1)}
    return ChainComplex(dims, maps, direction="down")


def bar_cochain_complex(a: Algebra, maxdeg: int, normalized: bool = True) -> ChainComplex:
    """Hochschild cochain complex C^n = Hom(Abar^(x n), A) with coboundary

    (df)(a_1..a_{n+1}) = a_1 f(a_2..) + sum_i (-1)^i f(.. a_i a_{i+1} ..)
                          + (-1)^(n+1) f(a_1..a_n) a_{n+1}.
    Maps are built for n = 0..maxdeg, so homology is complete through maxdeg."""
    check_maxdeg(maxdeg, MAX_DEGREE)
    letters, table = _alphabet(a, normalized)
    dims = _guarded_dims(a, maxdeg + 1, len(letters))
    maps = {n: _coboundary(a, n, letters, table) for n in range(maxdeg + 1)}
    return ChainComplex(dims, maps, direction="up")


# --- dimension reports --------------------------------------------------------

def hh_homology_dims(a: Algebra, maxdeg: int, normalized: bool = True) -> HHResult:
    """dim HH_k for 0 <= k <= maxdeg.  Degree 0 is cross-checked against the
    direct computation dim(A) - dim[A, A]."""
    check_maxdeg(maxdeg, MAX_DEGREE)
    complex_ = bar_chain_complex(a, maxdeg + 1, normalized=normalized)
    dims = [complex_.homology_dim(k) for k in range(maxdeg + 1)]
    direct0 = a.dim - commutator_subspace(a).rows
    if dims[0] != direct0:
        raise HochkitError(
            f"degree-0 homology {dims[0]} disagrees with dim A/[A,A] = {direct0}")
    return HHResult("homology", dims, maxdeg)


def hh_cohomology_dims(a: Algebra, maxdeg: int, normalized: bool = True) -> HHResult:
    """dim HH^k for 0 <= k <= maxdeg.  Degree 0 is cross-checked against the
    direct center computation."""
    complex_ = bar_cochain_complex(a, maxdeg, normalized=normalized)
    dims = [complex_.homology_dim(k) for k in range(maxdeg + 1)]
    direct0 = center_basis(a).rows
    if dims[0] != direct0:
        raise HochkitError(
            f"degree-0 cohomology {dims[0]} disagrees with dim Z(A) = {direct0}")
    return HHResult("cohomology", dims, maxdeg)


# --- cochains, cup and cap on the unnormalized complex -------------------------
#
# Cup and cap live on the unnormalized complex, where the formulas are the
# textbook ones with no splitting bookkeeping; the spaces involved in tests
# are small.  Coordinates are those above, with every basis element a letter.

class _BarElement:
    """dim(A)^(degree + 1) coordinates in one degree of the unnormalized complex."""

    def __init__(self, algebra: Algebra, degree: int, coords: Vector):
        if len(coords) != algebra.dim ** (degree + 1):
            raise ShapeMismatch(
                f"a degree-{degree} {type(self).__name__.lower()} needs "
                f"{algebra.dim ** (degree + 1)} coordinates, got {len(coords)}")
        self.algebra = algebra
        self.degree = degree
        self.coords = tuple(coords)


class Cochain(_BarElement):
    """An element of C^p = Hom(A^(x p), A) on the unnormalized complex."""

    def value(self, word: tuple[int, ...]) -> Vector:
        d = self.algebra.dim
        w = _index(word, d) * d
        return self.coords[w:w + d]

    @staticmethod
    def from_element(algebra: Algebra, coords: Vector) -> "Cochain":
        return Cochain(algebra, 0, coords)

    @staticmethod
    def unit_cocycle(algebra: Algebra) -> "Cochain":
        return Cochain(algebra, 0, algebra.unit)


class Chain(_BarElement):
    """An element of C_n = A^(x (n+1)) on the unnormalized complex."""


# One differential alone, under the guards of its complex; no complex is built.

def _unnormalized_cochain_map(a: Algebra, n: int) -> SparseMatrix:
    check_maxdeg(n, MAX_DEGREE)
    _guarded_dims(a, n + 1, a.dim)
    return _coboundary(a, n, *_alphabet(a, False))


def _unnormalized_chain_map(a: Algebra, n: int) -> SparseMatrix:
    check_maxdeg(n, MAX_DEGREE + 1)
    _guarded_dims(a, n, a.dim)
    return _boundary(a, n, *_alphabet(a, False))


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
    a, p, q = f.algebra, f.degree, g.degree
    out: list[CycScalar] = []
    for word in product(range(a.dim), repeat=p + q):
        out.extend(a.mul(f.value(word[:p]), g.value(word[p:])))
    result = Cochain(a, p + q, tuple(out))
    if not is_cocycle(result):
        raise HochkitError("cup product of cocycles is not a cocycle")
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
    if not is_cycle(result):
        raise HochkitError("cap product of a cocycle and a cycle is not a cycle")
    return result


def _cap_raw(f: Cochain, z: Chain) -> Chain:
    a, d, p, n = f.algebra, f.algebra.dim, f.degree, z.degree
    out = [ZERO] * (d ** (n - p + 1))
    for c, word in zip(z.coords, product(range(d), repeat=n + 1)):
        if not c:
            continue
        head = a.mul(unit_vector(d, word[0]), f.value(word[1:p + 1]))
        for k, v in enumerate(head):
            if v:
                w = _index((k,) + word[p + 1:], d)
                out[w] = out[w] + c * v
    return Chain(a, n - p, tuple(out))


def _difference(x: _BarElement, y: _BarElement) -> Vector:
    """x - y for two chains or two cochains of one degree over one algebra."""
    if x.degree != y.degree:
        raise ShapeMismatch(f"cannot compare degrees {x.degree} and {y.degree}")
    if x.algebra != y.algebra:
        raise AlgebraMismatch("cannot compare classes over different algebras")
    return tuple(a - b for a, b in zip(x.coords, y.coords))


def class_difference_is_boundary(x: Chain, y: Chain) -> bool:
    """Whether two cycles agree in homology (difference is a boundary)."""
    diff = _difference(x, y)
    if not any(diff):
        return True
    b = _unnormalized_chain_map(x.algebra, x.degree + 1)
    return solve(b, SparseMatrix.from_columns([diff], b.rows)) is not None


def cochain_difference_is_coboundary(x: Cochain, y: Cochain) -> bool:
    diff = _difference(x, y)
    if not any(diff):
        return True
    if x.degree == 0:
        return False  # no (-1)-cochains
    delta = _unnormalized_cochain_map(x.algebra, x.degree - 1)
    return solve(delta, SparseMatrix.from_columns([diff], delta.rows)) is not None
