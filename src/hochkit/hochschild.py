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
(`_scatter`), summed on ints over one denominator; over Q(zeta_n) each
table entry is an entry of its multiplication block, scattered into the
same place of the block it lands in.

The reduced (normalized) route is the default: interior letters span a
complement of the unit, which shrinks dim(A)^n to (dim(A)-1)^n and makes
degree-3 computations feasible at dim 6-8.  The unnormalized route is kept
as an independent cross-check of the dimensions; the alphabet is the only
place the two routes differ.  Cup and cap are matrices on the normalized
complexes, which both preserve (Loday, *Cyclic Homology*, 1.1), built once
per algebra and degrees from `product_table`, `kron` and 0/1 relabellings.
A `ChainComplex` ranks each differential on what its neighbour leaves and
proves d o d = 0 on the pivot rows of each rank, by induction in degree: the
first map is ranked whole, and once maps[n - 1] maps[n] = 0 is proved, the
rows clearing cut from maps[n] are combinations of the rows it kept, so its
pivot rows span all of its rows.  A complex over Q(zeta_n) does all of this
on its realification, over Q with phi(n) times the dimensions and homology.

A homology dimension in degree k is only reported when both adjacent
differentials were built (`complete_through` tracks this); the CLI marks
anything beyond as incomplete rather than guessing.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

from .algebra import (
    Algebra, a_unit_split, center_basis, commutator_subspace, derived, product_table,
)
from .errors import MAX_COORDINATES, DegreeUnderflow, HochkitError, ShapeMismatch, check_size
from .linalg import SparseMatrix, _common, hstack, kron, rank, realified, swap
from .scalars import euler_phi

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

    Over Q(zeta_n), n the lcm of the maps' orders, the clearing, the ranks
    and the check run on the realified maps (`_real`), rational matrices of
    phi(n) times the dimensions, whose ranks are phi(n) times those over
    Q(zeta_n); `maps` keep the maps as given.
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
        order = lcm(1, *(m.field_order for m in self.maps.values()))
        self._phi = euler_phi(order)
        self._real = {n: realified(m, order) for n, m in self.maps.items()} \
            if order > 1 else self.maps
        for n in sorted(self._real):
            if n + 1 in self._real:
                on_pivots = self._real[n].take_rows(self._pivots_cleared(n)[0])
                if not (on_pivots * self._real[n + 1]).is_zero():
                    raise HochkitError(f"differential composite at degree {n} is nonzero")

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def rank_of_map(self, n: int) -> int:
        return len(self._pivots_cleared(n)[0]) // self._phi if n in self.maps else 0

    @derived
    def _pivots_cleared(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The (rows, cols) pivots of the realified maps[n], rows in its own
        indices: it is ranked without the rows at the pivot columns of
        maps[n - 1], itself ranked first."""
        m = self._real[n]
        kept = range(m.rows)
        if n - 1 in self._real and (cut := set(self._pivots_cleared(n - 1)[1])):
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
    merges, acts, den, order = _common(merge, actions)
    # over Q(zeta_n) every index owns a block of phi, so every stride is phi
    # times its own; a table entry at (i * phi + s, k * phi + t) is entry
    # (s, t) of its block, and lands at the same place of the block it is
    # scattered to
    phi = euler_phi(order)
    negated = [{k: -v for k, v in row.items()} for row in merges]
    signed = negated, merges  # (-1)^(i+1) at letter i
    rights = acts[r * dx * phi:]  # acts[(x * dx + j) * phi + s] acts from the left
    if n % 2 == 0:  # (-1)^(n+1)
        rights = [{k: -v for k, v in row.items()} for row in rights]
    top = r ** n  # words of n letters
    # the strides of a word and of a coefficient, on C^n and on C^(n+1)
    (sw, sj), (tw, tj) = ((phi, top * phi), (phi, top * r * phi)) if chains else \
        ((dx * phi, phi), (dx * phi, phi))
    data: list[dict] = [dict() for _ in range(dx * top * phi)]
    cols = list(range(dx * top * r * phi))  # one int per column, shared by its entries
    for x in range(r):
        for j in range(dx):
            for s in range(phi):
                row, target = (x * dx + j) * phi + s, j * sj + s
                # a_1 f(a_2 ..): (u, j) -> (x u, k), for every word u
                for kt, v in acts[row].items():
                    k, t = divmod(kt, phi)
                    start = x * top * tw + k * tj + t
                    _scatter(data, v, target, sw, cols[start:start + top * tw:tw])
                # f(a_1 .. a_n) a_(n+1): (u, j) -> (u x, k)
                for kt, v in rights[row].items():
                    k, t = divmod(kt, phi)
                    start = x * tw + k * tj + t
                    _scatter(data, v, target, sw, cols[start:start + top * r * tw:r * tw])
    for i in range(n):  # f(.. a_i a_(i+1) ..), letters counted from 0
        # coordinate (h * r + m) * lo + b of C^n, where the merged letter m
        # sits, and (h * r * r + pair) * lo + b of C^(n+1), counted on the
        # realification: lo is a multiple of phi, and b % phi == s on C^n
        p = r ** (n - 1 - i)
        hi, lo = (dx * r ** i, p * phi) if chains else (r ** i, p * dx * phi)
        for pair in range(r * r):
            for s in range(phi):
                for mt, v in signed[i % 2][pair * phi + s].items():
                    m, t = divmod(mt, phi)
                    if lo >= hi * phi:
                        for h in range(hi):
                            u = (h * r * r + pair) * lo + t
                            _scatter(data, v, (h * r + m) * lo + s, phi, cols[u:u + lo:phi])
                    else:
                        for b in range(s, lo, phi):
                            _scatter(data, v, m * lo + b, r * lo,
                                     cols[pair * lo + b - s + t::r * r * lo])
    return SparseMatrix._of(dx * top, dx * top * r, data, den, order)


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


# --- cup and cap on the normalized complexes -----------------------------------

@derived
def cup_product(a: Algebra, p: int, q: int) -> SparseMatrix:
    """cup_{p,q}: C^p (x) C^q -> C^(p+q), (f cup g)(w_1 w_2) = f(w_1) g(w_2)
    for words w_1 of p letters and w_2 of q.  For cochains stored as columns
    f cup g = cup_product(a, p, q) * kron(F, G); a batch of cochains gives
    every pairwise product in one product.  It is kron(I, X), where X =
    kron(I, T^T), T = `product_table(a)`, relabelled so that column
    (k, w_2, l) meets row (w_2, m).  Exact matrix identities: the Leibniz rule

        delta cup_{p,q} = cup_{p+1,q} (delta (x) 1) + (-1)^p cup_{p,q+1} (1 (x) delta),

    so cocycles cup to cocycles and cup descends to HH^*; strict
    associativity; and cup_{0,0} = T^T, the multiplication of A."""
    for n in (p, q, p + q):
        check_maxdeg(n, MAX_DEGREE + 1)
    _guarded_dims(a.dim, p + q, a.dim - 1)  # C^p, C^q and C^(p+q) among them
    d, words = a.dim, (a.dim - 1) ** q
    x = kron(SparseMatrix.identity(words), product_table(a).transpose()) \
        * kron(swap(d, words), SparseMatrix.identity(d))
    return kron(SparseMatrix.identity((d - 1) ** p), x)


@derived
def cap_product(a: Algebra, p: int, n: int) -> SparseMatrix:
    """cap_{p,n}: C^p (x) C_n -> C_(n-p), sending (w_1, k) (x) (e_j, w_1 w_2)
    to (e_j e_k) (x) w_2, that is f cap (a_0 (x) a_1 .. a_n) =
    a_0 f(a_1 .. a_p) (x) a_(p+1) .. a_n, in the column order of `kron`.  It
    is kron(M, I), M = T^T (factors swapped) times the 0/1 selector of
    [w_1 = w_1'] in that order, which has dim(A)^2 rows and one entry per
    row and word w_1.  The Leibniz rule holds as a matrix identity,

        b cap_{p,n} = (-1)^p (cap_{p,n-1} (1 (x) b) - cap_{p+1,n} (delta (x) 1)),

    so a cocycle caps a cycle to a cycle, and cap descends to HH^p (x) HH_n."""
    for k in (p, n):
        check_maxdeg(k, MAX_DEGREE + 1)
    if p > n:
        raise DegreeUnderflow(f"cannot cap degree {p} against chain degree {n}")
    _guarded_dims(a.dim, n, a.dim - 1)  # C^p, C_n and C_(n-p) among them
    d, words = a.dim, (a.dim - 1) ** p
    table = product_table(a).transpose() * swap(d, d)  # column k * d + j is e_j e_k
    select = SparseMatrix._of(d * d, d * d * words * words, [  # (w, k, j, w) from (k, j)
        {(w * d * d + kj) * words + w: 1 for w in range(words)} for kj in range(d * d)], 1)
    return kron(table * select, SparseMatrix.identity((d - 1) ** (n - p)))
