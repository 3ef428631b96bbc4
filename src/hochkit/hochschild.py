"""Bar complexes and Hochschild (co)homology with exact truncation semantics.

Every differential comes from one builder, `_coboundary`: the Hochschild
coboundary of C^n = Hom(Abar^(x n), X) with coefficients in an A-bimodule X,

    (delta f)(a_1..a_(n+1)) = a_1 f(a_2..) + sum_i (-1)^i f(.. a_i a_(i+1) ..)
                              + (-1)^(n+1) f(a_1..a_n) a_(n+1)

(J.-L. Loday, *Cyclic Homology*, 1.1 and 1.5; H. Cartan and S. Eilenberg,
*Homological Algebra*, IX 4).  It reads two tables: the classes of the
products of two interior letters (`_alphabet`), and the images of a basis of
X under each letter acting from the left and from the right (`_table`);
for X = A or A* both are read off the rows e_i e_j of `product_table`.
HH^* takes X = A.  HH_* takes X = A* = Hom_k(A, k), with (a.phi)(b) =
phi(ba) and (phi.a)(b) = phi(ab): the chain complex C_n = A (x) Abar^(x n)
is the dual of Hom(Abar^(x n), A*), so the boundary

    b(a_0 (x) ... (x) a_n) = sum_{i<n} (-1)^i a_0 (x) .. a_i a_(i+1) .. (x) a_n
                             + (-1)^n a_n a_0 (x) a_1 (x) ... (x) a_(n-1)

is the transpose b_n = delta^(n-1)(A*)^T.  Ext_A(M, N) takes X = Hom_k(M, N)
(`modules.ext_dims`).  A word of r letters is its index in base r, and each
term adds one signed table row along arithmetic progressions of indices
(`_scatter`): a rational differential is summed on ints over one
denominator, an irrational one in CycScalars.

The reduced (normalized) route is the default: interior letters span a
complement of the unit, which shrinks dim(A)^n to (dim(A)-1)^n and makes
degree-3 computations feasible at dim 6-8.  The unnormalized route, on which
cup and cap live, is kept as an independent cross-check; the alphabet is the
only place the two routes differ.  A `ChainComplex` ranks each differential
on what its neighbour leaves and proves d o d = 0 on the pivot rows of each
rank, by induction in degree: the first map is ranked whole, and once
maps[n - 1] maps[n] = 0 is proved, the rows clearing cut from maps[n] are
combinations of the rows it kept, so its pivot rows span all of its rows.

A homology dimension in degree k is only reported when both adjacent
differentials were built (`complete_through` tracks this); the CLI marks
anything beyond as incomplete rather than guessing.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .algebra import (
    Algebra, a_unit_split, center_basis, commutator_subspace, derived, product_table,
)
from .errors import (
    MAX_COORDINATES, DegreeUnderflow, HochkitError, NotACocycle, ShapeMismatch, check_size,
)
from .linalg import SparseMatrix, Vector, _common, hstack, rank, unit_vector
from .scalars import CycScalar, ZERO

MAX_DEGREE = 32  # the highest degree an Ext or Hochschild computation reaches


def check_maxdeg(maxdeg: int, degree_cap: int):
    """Refuse a maximum degree outside 0..degree_cap."""
    if maxdeg < 0:
        raise DegreeUnderflow(f"maximum degree {maxdeg} is negative")
    check_size(maxdeg, degree_cap, lambda: f"maximum degree {maxdeg}")


class ChainComplex:
    """Graded spaces C_0 .. C_top and maps between adjacent degrees, all in
    one orientation: maps[n] has its rows on degree n - 1 and its columns on
    degree n.  A chain complex hands over its boundaries, maps[n] = b_n, and
    a cochain complex the transposes of its coboundaries,
    maps[n + 1] = (delta^n)^T.  Either way the homology in degree k has
    dimension dim C_k - rank maps[k] - rank maps[k + 1].

    Ranks are taken in degree order, each map ranked only on what its
    neighbour maps[n - 1] leaves (the clearing of persistent homology).
    Let g f = 0 through a shared space Y, g = maps[n - 1] and f = maps[n].
    g is ranked first, and its pivot columns Q on Y carry coordinates that
    a vector of ker g has as a combination of its others.  Every column of
    f lies in ker g, so the rows Q of f are combinations of its other rows,
    and rank f is the rank of f without them.  The rows of f not cut keep
    their indices, and its columns, on which maps[n + 1] is cut next, are
    untouched.

    The constructor proves maps[n] maps[n + 1] = 0 exactly, in degree order,
    on the pivot rows P_n of the cleared rank of maps[n] alone.  P_1 spans
    the rows of maps[1], which nothing cuts.  Once maps[n - 1] maps[n] = 0 is
    proved, the rows cut from maps[n] are combinations of the rows kept, so
    P_n spans all its rows, and maps[n] maps[n + 1] = 0 if and only if its
    rows P_n times maps[n + 1] are zero (Bauer, Kerber and Reininghaus,
    *Clear and Compress*, 2014; Chen and Kerber, 2011).
    """

    def __init__(self, dims: Sequence[int], maps: dict[int, SparseMatrix]):
        self.dims = tuple(dims)
        self.maps = dict(maps)
        self._derived: dict = {}
        for n, m in self.maps.items():
            want = (self.dims[n - 1], self.dims[n]) if 0 < n < len(self.dims) else None
            if (m.rows, m.cols) != want:
                raise ShapeMismatch(f"the map between degrees {n - 1} and {n} has shape "
                                    f"{(m.rows, m.cols)}, not {want}")
        for n in sorted(self.maps):
            if n + 1 in self.maps:
                on_pivots = self.maps[n].take_rows(self._pivots_cleared(n)[0])
                if not (on_pivots * self.maps[n + 1]).is_zero():
                    raise HochkitError(f"differential composite at degree {n} is nonzero")

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def rank_of_map(self, n: int) -> int:
        return len(self._pivots_cleared(n)[0]) if n in self.maps else 0

    @derived
    def _pivots_cleared(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The (rows, cols) pivots of maps[n], rows in its own indices: it is
        ranked without the rows at the pivot columns of maps[n - 1], itself
        ranked first."""
        m = self.maps[n]
        kept = range(m.rows)
        if n - 1 in self.maps and (cut := set(self._pivots_cleared(n - 1)[1])):
            kept = [i for i in kept if i not in cut]
            m = m.take_rows(kept)
        rank(m)
        rows, cols = m.pivots
        return tuple(kept[i] for i in rows), cols

    def complete_through(self) -> int:
        """Largest degree whose homology both adjacent maps determine;
        degree k needs maps[k] and maps[k + 1], each built or zero (maps[0])."""
        for k in range(self.top_degree, -1, -1):
            if all(n in self.maps or n == 0 for n in (k, k + 1)):
                return k
        return -1

    def homology_dim(self, k: int) -> int:
        if k > self.complete_through():
            raise HochkitError(
                f"homology at degree {k} is not determined by the built "
                f"differentials (complete through {self.complete_through()})")
        ranks = self.rank_of_map(k) + self.rank_of_map(k + 1)
        if ranks > self.dims[k]:  # d o d = 0 violated upstream
            raise HochkitError(f"degree {k}: adjacent ranks {ranks} exceed the "
                               f"dimension {self.dims[k]}")
        return self.dims[k] - ranks


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
    """(letters, merge): the basis index of each interior letter, and in row
    s * r + t of `merge` the product of letters s and t (of r) in letter
    coordinates.  Normalized letters span a complement of the unit; their
    products drop the unit part."""
    if normalized:
        split = a_unit_split(a)
        return split.bar_indices, split.merge
    return tuple(range(a.dim)), product_table(a)


def _table(dim: int, left: Sequence[SparseMatrix], right: Sequence[SparseMatrix]) -> SparseMatrix:
    """How the r letters act on a space X of dimension `dim`: row x * dim + j
    is the image of basis element j under left[x], and row (r + x) * dim + j
    its image under right[x]."""
    return hstack(dim, [*left, *right]).transpose()


def _tables(a: Algebra, normalized: bool, dual: bool = False):
    """(merge, actions) for X = A, or with `dual` for X = A*, on which a acts
    by the transposes of its right and left multiplications: rows of the
    product table, x * dim + j for e_x e_j and j * dim + x for e_j e_x."""
    letters, merge = _alphabet(a, normalized)
    d, table = a.dim, product_table(a)
    lefts = [range(x * d, x * d + d) for x in letters]
    rights = [range(x, d * d, d) for x in letters]
    if dual:
        return merge, _table(d, [table.take_rows(r) for r in rights],
                             [table.take_rows(r) for r in lefts])
    return merge, table.take_rows([i for r in lefts + rights for i in r])


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


def _guarded_dims(dim: int, top: int, radix: int) -> list[int]:
    """dim * radix^n for n = 0..top; refuses before anything is built."""
    dims = [dim * radix ** n for n in range(top + 1)]
    for n, size in enumerate(dims):
        check_size(size, MAX_COORDINATES,
                   lambda: f"chain space at degree {n} has {size} coordinates")
    return dims


def _coboundary(n: int, merge: SparseMatrix, actions: SparseMatrix,
                chains: bool = False) -> SparseMatrix:
    """(delta^n)^T for C^n = Hom(Abar^(x n), X), n >= 0: rows on C^n, columns
    on C^(n+1).  `merge` is the table of `_alphabet` (r = merge.cols
    letters) and `actions` that of `_table`.  Coordinate (w, j), w a word
    of m letters read in base r, is w * dim(X) + j; with `chains` it is
    j * r^m + w, that of e_j (x) w in A (x) Abar^(x m), the dual of C^m
    when X = A*."""
    r, dx = merge.cols, actions.cols
    merges, acts, den = _common(merge, actions)
    negated = [{k: -v for k, v in row.items()} for row in merges]
    signed = negated, merges  # (-1)^(i+1) at letter i
    rights = acts[r * dx:]  # acts[x * dx + j] acts from the left
    if n % 2 == 0:  # (-1)^(n+1)
        rights = [{k: -v for k, v in row.items()} for row in rights]
    top = r ** n  # words of n letters
    # the strides of a word and of a coefficient, on C^n and on C^(n+1)
    (sw, sj), (tw, tj) = ((1, top), (1, top * r)) if chains else ((dx, 1), (dx, 1))
    data: list[dict] = [dict() for _ in range(dx * top)]
    cols = list(range(dx * top * r))  # one int per column, shared by its entries
    for x in range(r):
        for j in range(dx):
            # a_1 f(a_2 ..): (u, j) -> (x u, k), for every word u
            for k, v in acts[x * dx + j].items():
                start = x * top * tw + k * tj
                _scatter(data, v, j * sj, sw, cols[start:start + top * tw:tw])
            # f(a_1 .. a_n) a_(n+1): (u, j) -> (u x, k)
            for k, v in rights[x * dx + j].items():
                start = x * tw + k * tj
                _scatter(data, v, j * sj, sw, cols[start:start + top * r * tw:r * tw])
    for i in range(n):  # f(.. a_i a_(i+1) ..), letters counted from 0
        # coordinate (h * r + m) * lo + b of C^n, where the merged letter m
        # sits, and (h * r * r + pair) * lo + b of C^(n+1)
        p = r ** (n - 1 - i)
        hi, lo = (dx * r ** i, p) if chains else (r ** i, p * dx)
        for pair in range(r * r):
            for m, v in signed[i % 2][pair].items():
                if lo >= hi:
                    for h in range(hi):
                        u = (h * r * r + pair) * lo
                        _scatter(data, v, (h * r + m) * lo, 1, cols[u:u + lo])
                else:
                    for b in range(lo):
                        _scatter(data, v, m * lo + b, r * lo, cols[pair * lo + b::r * r * lo])
    return SparseMatrix._of(dx * top, dx * top * r, data, den)


def _bar_complex(merge: SparseMatrix, actions: SparseMatrix, top: int,
                 chains: bool = False) -> ChainComplex:
    """The complex on degrees 0..top with maps[n + 1] = `_coboundary(n, ...)`
    for n < top, every degree guarded before any map is built."""
    dims = _guarded_dims(actions.cols, top, merge.cols)
    return ChainComplex(dims, {n + 1: _coboundary(n, merge, actions, chains)
                               for n in range(top)})


def bar_chain_complex(a: Algebra, maxdeg: int, normalized: bool = True) -> ChainComplex:
    """Hochschild chain complex C_n = A (x) Abar^(x n) through degree maxdeg;
    column a_0 * r^n + w of b_n is a_0 (x) w."""
    check_maxdeg(maxdeg, MAX_DEGREE + 1)  # homology is complete one degree lower
    return _bar_complex(*_tables(a, normalized, dual=True), maxdeg, chains=True)


def bar_cochain_complex(a: Algebra, maxdeg: int, normalized: bool = True) -> ChainComplex:
    """Hochschild cochain complex C^n = Hom(Abar^(x n), A); row w * dim(A) + k
    of (delta^n)^T is coordinate k of f(w).  Maps are built for n = 0..maxdeg,
    so homology is complete through maxdeg."""
    check_maxdeg(maxdeg, MAX_DEGREE)
    return _bar_complex(*_tables(a, normalized), maxdeg + 1)


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


class Chain(_BarElement):
    """An element of C_n = A^(x (n+1)) on the unnormalized complex."""


# One differential alone, under the guards of its complex; no complex is
# built, and each is built once per algebra and degree.

@derived
def _unnormalized_cochain_map(a: Algebra, n: int) -> SparseMatrix:
    """delta^n itself, rows on C^(n+1)."""
    check_maxdeg(n, MAX_DEGREE)
    _guarded_dims(a.dim, n + 1, a.dim)
    return _coboundary(n, *_tables(a, False)).transpose()


@derived
def _unnormalized_chain_map(a: Algebra, n: int) -> SparseMatrix:
    check_maxdeg(n, MAX_DEGREE + 1)
    _guarded_dims(a.dim, n, a.dim)
    return _coboundary(n - 1, *_tables(a, False, dual=True), chains=True)


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

