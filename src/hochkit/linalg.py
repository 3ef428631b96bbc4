"""Exact sparse linear algebra over Q(zeta_n).

Matrices are immutable lists of sparse integer dict rows over one positive
denominator `den`, in lowest terms, and every operation (`+`, `scale`, `*`,
`kron`, `transpose`, `take_rows`, `hstack` and the eliminations) runs on
those rows.  A matrix over Q stores its entries.  A matrix over
K = Q(zeta_n), n > 1 the conductor of its entries (`field_order`), stores
its realification M_Q: entry x becomes the phi(n) x phi(n) block of
multiplication by x on the power basis (`scalars.multiplication_block`), so
row r * phi + s, column c * phi + t holds coordinate s of M[r, c] z^t.
Then (AB)_Q = A_Q B_Q, sums and Kronecker products go block by block, and
rank_K(M) = rank_Q(M_Q) / phi(n), the image being a K-space.  Each result
is settled once (`_normal_form`), at the conductor of its entries, so equal
matrices have equal rows; operands of two orders meet at their lcm
(`_rows_at`).  A realification is refused before it is built when its
phi(n)^2 entries per entry would pass MAX_REALIFIED.  `rows`, `cols`,
`nnz` and `pivots` keep their meaning over K; `entry`, `entries`,
`row_vector`, `apply` and `trace` read a block's first column back as a
CycScalar, and `apply` sums each output as one coordinate vector.

`solve` answers with a matrix, a column per right-hand side, and `rref` and
`nullspace` with the matrix whose rows are a canonical reduced echelon basis
at pivot 1, so that equal spans give equal matrices.  Over K each is read
off M_Q: the reduced form of M_Q is the realification of that over K
(R = G M gives R_Q = G_Q M_Q, and R_Q is reduced), a K-pivot owns the phi
Q-pivots of its block, and the kernel of M_Q is that over K in coordinates,
whose reduced basis holds the K-basis with each block transposed in place.

There are two eliminations on integer dict rows, each with one job.  `rank`
peels, then runs `_eliminate` on the core: a row with the only nonzero left
in a column is independent of the rest, so rank(m) = 1 + rank(m without
it), and removing it can leave more such columns.  The peel takes them all
with no arithmetic (LaMacchia and Odlyzko, CRYPTO '90; the "compress" of
Bauer, Kerber and Reininghaus, 2014), and `_eliminate` is forward
elimination with a fill-minimizing pivot rule (fewest nonzeros in row, then
fewest rows in column).  The peeled pairs and the core's pivots form a
nonsingular block-triangular minor, kept on a rational matrix for
`hochschild.ChainComplex` to clear the next map.  Every canonical answer
(`rref`, `nullspace`, `solve`, `cokernel_projector`) comes from
`_canonical_rref` alone, Gauss-Jordan with leading-column pivots: the
reduced echelon form does not depend on the pivot order, so it takes the
order that ends there.  Rows are updated fraction-free,
t <- (p/g) t - (t[c]/g) r with g = gcd(p, t[c]) (Bareiss, Math. Comp. 22,
1968, in its one-step form), and the row's content is then divided out: a
reduced row is primitive with a positive pivot, the integer form of pivot 1.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .errors import ShapeMismatch, check_size
from .scalars import (
    CycScalar, ONE, ZERO, _conductor_form, cyc, euler_phi, multiplication_block, scalar,
)

Vector = tuple[CycScalar, ...]

MAX_REALIFIED = 2_000_000  # stored entries a realification may have


def vec(values: Iterable) -> Vector:
    return tuple(cyc(v) for v in values)


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def _row_entries(data: list[dict], phi: int, r: int) -> dict[int, list[int]]:
    """c -> nums for each nonzero block in row r of the realified rows `data`:
    nums is the block's first column, the power-basis numerators of the entry."""
    found: dict[int, list[int]] = {}
    for s in range(phi):
        for col, v in data[r * phi + s].items():
            if not col % phi:
                found.setdefault(col // phi, [0] * phi)[s] = v
    return found


def _first_columns(data: list[dict], phi: int) -> Iterator[tuple[int, int, list[int]]]:
    """(r, c, nums) for each nonzero block of the realified rows `data`, row by
    row and in increasing column (`_row_entries`)."""
    for r in range(len(data) // phi):
        found = _row_entries(data, phi, r)
        for c in sorted(found):
            yield r, c, found[c]


def _blocks(rows: int, cols: int, entries: Sequence[tuple[int, int, tuple, int, int]],
            n: int) -> list[dict]:
    """Realified rows at order n of the entries (r, c, nums, order, k) of a
    rows x cols matrix, each nums in Q(zeta_order) times the integer k;
    refused first when they would store more than MAX_REALIFIED entries."""
    phi = euler_phi(n)
    check_size(len(entries) * phi * phi, MAX_REALIFIED, lambda: (
        f"the realification of a {rows}x{cols} matrix with {len(entries)} entries over "
        f"Q(zeta_{n}) has {len(entries)} x {phi}^2 = {len(entries) * phi * phi} stored entries"))
    data: list[dict] = [dict() for _ in range(rows * phi)]
    for r, c, nums, order, k in entries:
        base, at = r * phi, c * phi
        for s, t, v in multiplication_block(nums, order, n):
            data[base + s][at + t] = v * k
    return data


def _realified(rows: int, cols: int, data: list[dict]) -> tuple[list[dict], int, int]:
    """(rows, den, order) of the matrix with the CycScalar rows `data`, at
    the conductor of its entries and in lowest terms: the least common
    denominator of reduced values is in lowest terms."""
    n = lcm(1, *{v.order for row in data for v in row.values()})
    den = lcm(1, *{v.den for row in data for v in row.values()})
    if n == 1:
        return [{j: v.nums[0] * (den // v.den) for j, v in row.items()} for row in data], den, 1
    return _blocks(rows, cols, [(r, c, v.nums, v.order, den // v.den) for r, row in enumerate(data)
                                for c, v in row.items()], n), den, n


def _irrational(data: list[dict], phi: int) -> bool:
    """Whether the realified rows `data` have an entry off Q: a row s > 0 of
    its block meets the block's column 0."""
    for i, row in enumerate(data):
        if i % phi:
            for j in row:
                if not j % phi:
                    return True
    return False


def _normal_form(data: list[dict], den: int, order: int) -> tuple[list[dict], int, int]:
    """The one place the stored form is settled: integer rows over den,
    realified at `order`, become rows in lowest terms at the conductor of
    their entries."""
    g = den
    for row in data:
        if g == 1:
            break
        g = gcd(g, *row.values())
    if g > 1:
        data, den = [{j: v // g for j, v in row.items()} for row in data], den // g
    if order == 1:
        return data, den, 1
    phi, conductor = euler_phi(order), 1
    if _irrational(data, phi):
        if order == 4 or phi == order - 1:  # Q is its only proper subfield
            return data, den, order
        for _, _, nums in _first_columns(data, phi):
            conductor = lcm(conductor, _conductor_form(order, nums)[0])
            if conductor == order:
                return data, den, order
    # every entry lies in Q(zeta_conductor): realify them there (the gcd of a
    # block is that of its first column, so den stays in lowest terms)
    low = [(r, c, *_conductor_form(order, nums)) for r, c, nums in _first_columns(data, phi)]
    return _blocks(len(data) // phi, 0, [(r, c, tuple(nums), e, 1) for r, c, e, nums in low],
                   conductor), den, conductor


class SparseMatrix:
    """Immutable sparse matrix; absent entries are zero, stored ones are not.

    `SparseMatrix(rows, cols, entries)` takes a dict or an iterable of
    ((row, col), value) pairs; values at a repeated position are summed and
    entries that cancel are dropped."""

    # _pivots is set once `rank` ran: over Q(zeta_n), n > 1, to the rank until
    # the pivots are read
    __slots__ = ("rows", "cols", "den", "field_order", "_rows", "_pivots")

    def __init__(self, rows: int, cols: int, entries=()):
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"a matrix cannot have shape {rows}x{cols}")
        data: list[dict] = [dict() for _ in range(rows)]
        for (r, c), v in entries.items() if isinstance(entries, dict) else entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ShapeMismatch(f"entry ({r}, {c}) outside {rows}x{cols}")
            row = data[r]
            s = row[c] + cyc(v) if c in row else cyc(v)  # no arithmetic unless repeated
            if s:
                row[c] = s
            else:
                row.pop(c, None)
        self._set(rows, cols, *_realified(rows, cols, data))

    def _set(self, rows: int, cols: int, data: list[dict], den: int, order: int):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "field_order", order)
        object.__setattr__(self, "_rows", data)

    def __setattr__(self, *a):
        raise AttributeError("SparseMatrix is immutable")

    @staticmethod
    def _of(rows: int, cols: int, data: list[dict], den: int, order: int = 1) -> "SparseMatrix":
        """The matrix of integer rows over den, realified at `order`."""
        m = SparseMatrix.__new__(SparseMatrix)
        m._set(rows, cols, *_normal_form(data, den, order))
        return m

    @staticmethod
    def from_dense(table: Sequence[Sequence]) -> "SparseMatrix":
        rows = len(table)
        cols = len(table[0]) if rows else 0
        for row in table:
            if len(row) != cols:
                raise ShapeMismatch(f"dense rows of lengths {cols} and {len(row)}")
        return SparseMatrix(rows, cols, (((r, c), v) for r, row in enumerate(table)
                                         for c, v in enumerate(row)))

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        if n < 0:
            raise ShapeMismatch(f"a matrix cannot have shape {n}x{n}")
        return SparseMatrix._of(n, n, [{i: 1} for i in range(n)], 1)

    @staticmethod
    def zero(rows: int, cols: int) -> "SparseMatrix":
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"a matrix cannot have shape {rows}x{cols}")
        return SparseMatrix._of(rows, cols, [dict() for _ in range(rows)], 1)

    @staticmethod
    def from_columns(columns: Sequence[Vector], rows: int) -> "SparseMatrix":
        for c, col in enumerate(columns):
            if len(col) != rows:
                raise ShapeMismatch(f"column {c} has {len(col)} entries, not {rows}")
        return SparseMatrix(rows, len(columns), (((r, c), v) for c, col in enumerate(columns)
                                                 for r, v in enumerate(col)))

    # --- inspection ---

    def entry(self, r: int, c: int) -> CycScalar:
        phi = euler_phi(self.field_order)
        return scalar(self.field_order, [self._rows[r * phi + s].get(c * phi, 0)
                                         for s in range(phi)], self.den)

    def row_vector(self, r: int) -> Vector:
        found = _row_entries(self._rows, euler_phi(self.field_order), r)
        return tuple(scalar(self.field_order, found[c], self.den) if c in found else ZERO
                     for c in range(self.cols))

    def entries(self) -> Iterator[tuple[int, int, CycScalar]]:
        for r, c, nums in _first_columns(self._rows, euler_phi(self.field_order)):
            yield r, c, scalar(self.field_order, nums, self.den)

    def nnz(self) -> int:
        if self.field_order == 1:
            return sum(len(row) for row in self._rows)
        phi = euler_phi(self.field_order)
        return len({(r // phi, c) for r, row in enumerate(self._rows) for c in row if not c % phi})

    def is_zero(self) -> bool:
        return all(not row for row in self._rows)

    @property
    def pivots(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """(rows, cols), each increasing, on which m has rank(m); None before
        `rank` ran.  Over Q they are those `rank` found (its peel and
        elimination).  Over Q(zeta_n), n > 1, where a Q-pivot of M_Q need not
        own its block, they are read on first use off two leading-column
        eliminations, each choosing whole blocks: the pivot columns of the
        reduced forms of M_Q and of its transpose."""
        if type(pivots := getattr(self, "_pivots", None)) is int:
            phi = euler_phi(self.field_order)
            pivots = tuple(tuple(min(row) // phi for row in _canonical_rref(rows)[::phi])
                           for rows in (_transposed(self._rows, self.cols * phi),
                                        _copy_rows(self)))
            object.__setattr__(self, "_pivots", pivots)
        return pivots

    # --- algebra ---

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.field_order, self.den) == \
            (other.rows, other.cols, other.field_order, other.den) and self._rows == other._rows

    def __hash__(self):
        return hash((self.rows, self.cols, self.nnz()))

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} + {other.rows}x{other.cols}")
        left, right, den, n = _common(self, other)
        data = []
        for ra, rb in zip(left, right):
            row = dict(ra)
            for c, v in rb.items():
                s = row.get(c, 0) + v
                if s:
                    row[c] = s
                elif c in row:
                    del row[c]
            data.append(row)
        return SparseMatrix._of(self.rows, self.cols, data, den, n)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "SparseMatrix":
        c = cyc(c)
        if c == ONE:
            return self
        if not c:
            return SparseMatrix.zero(self.rows, self.cols)
        if c.order == 1:
            return SparseMatrix._of(self.rows, self.cols, _times(self._rows, c.nums[0]),
                                    self.den * c.den, self.field_order)
        return self * SparseMatrix._of(self.cols, self.cols, _blocks(self.cols, self.cols, [
            (i, i, c.nums, c.order, 1) for i in range(self.cols)], c.order), c.den, c.order)

    def __mul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        left, right, den, n = _common(self, other)
        return SparseMatrix._of(self.rows, other.cols, _row_products(left, right), den * den, n)

    def transpose(self) -> "SparseMatrix":
        """Blocks move, each keeping its own orientation."""
        phi = euler_phi(self.field_order)
        if phi == 1:
            return SparseMatrix._of(self.cols, self.rows, _transposed(self._rows, self.cols),
                                    self.den)
        data: list[dict] = [dict() for _ in range(self.cols * phi)]
        for i, row in enumerate(self._rows):
            r, s = divmod(i, phi)
            for j, v in row.items():
                c, t = divmod(j, phi)
                data[c * phi + s][r * phi + t] = v
        return SparseMatrix._of(self.cols, self.rows, data, self.den, self.field_order)

    def take_rows(self, rows: Sequence[int]) -> "SparseMatrix":
        """The rows at the given indices, renumbered in that order."""
        phi = euler_phi(self.field_order)
        data = [self._rows[i] for i in rows] if phi == 1 else \
            [self._rows[i * phi + s] for i in rows for s in range(phi)]
        return SparseMatrix._of(len(rows), self.cols, data, self.den, self.field_order)

    def apply(self, v: Vector) -> Vector:
        """m v, summed as one vector of power-basis coordinates over Q(zeta_n),
        n the lcm of every order, over one denominator: v[c] holds coordinates
        c * phi .. c * phi + phi - 1, and M_Q acts on them (delayed reduction:
        Dumas, Giorgi and Pernet, ACM TOMS 35, 2008).  Each output descends once."""
        if len(v) != self.cols:
            raise ShapeMismatch(f"{self.rows}x{self.cols} applied to a vector of length {len(v)}")
        v = [cyc(x) for x in v]
        n = lcm(self.field_order, *{x.order for x in v})
        phi, rows = euler_phi(n), _rows_at(self, n)
        dv = lcm(1, *{x.den for x in v})
        coords = [y * (dv // x.den) for x in v
                  for y in (x._embed(n) if x.order > 1 else (x.nums[0],) + (0,) * (phi - 1))]
        den, out = self.den * dv, []
        for r in range(0, len(rows), phi):
            acc = [0] * phi
            for s in range(phi):
                for j, a in rows[r + s].items():
                    acc[s] += a * coords[j]
            out.append(scalar(n, acc, den))
        return tuple(out)

    def trace(self) -> CycScalar:
        if self.rows != self.cols:
            raise ShapeMismatch(f"trace of a {self.rows}x{self.cols} matrix")
        phi = euler_phi(self.field_order)
        return scalar(self.field_order, [sum(self._rows[r * phi + s].get(r * phi, 0)
                                             for r in range(self.rows)) for s in range(phi)],
                      self.den)


def _times(rows: list[dict], k: int) -> list[dict[int, int]]:
    """Integer rows times the integer k."""
    if k == 1:
        return rows
    return [{j: k * v for j, v in row.items()} for row in rows]


def _rows_at(m: SparseMatrix, n: int) -> list[dict]:
    """The rows of m realified at order n, a multiple of its own, over m.den;
    its own rows, read-only, at its order."""
    if m.field_order == n:
        return m._rows
    phi = euler_phi(n)
    if m.field_order == 1:  # x becomes x times the identity block
        return [{c * phi + s: v for c, v in row.items()} for row in m._rows for s in range(phi)]
    return _blocks(m.rows, m.cols, [(r, c, tuple(nums), m.field_order, 1) for r, c, nums
                                    in _first_columns(m._rows, euler_phi(m.field_order))], n)


def realified(m: SparseMatrix, n: int) -> SparseMatrix:
    """M_Q at order n, a multiple of m.field_order, as a rational matrix of
    phi(n) times the rows and columns of m."""
    phi = euler_phi(n)
    return SparseMatrix._of(m.rows * phi, m.cols * phi, _rows_at(m, n), m.den)


def _common(a: SparseMatrix, b: SparseMatrix) -> tuple[list[dict], list[dict], int, int]:
    """The rows of a and b, read-only, realified at the lcm n of their orders
    over their common denominator den, and den and n."""
    n = a.field_order
    if n == b.field_order:
        left, right = a._rows, b._rows
    else:
        n = lcm(n, b.field_order)
        left, right = _rows_at(a, n), _rows_at(b, n)
    if a.den == b.den:
        return left, right, a.den, n
    den = lcm(a.den, b.den)
    return _times(left, den // a.den), _times(right, den // b.den), den, n


def _common_rows(ms: Sequence[SparseMatrix]) -> tuple[list[list[dict]], int, int]:
    """The rows of every matrix of ms as `_common` gives them for two (which
    stays apart: it runs in every `+`, `*` and `kron`), and den and n."""
    n, den = lcm(1, *[m.field_order for m in ms]), lcm(1, *[m.den for m in ms])
    return [_times(m._rows if m.field_order == n else _rows_at(m, n), den // m.den)
            for m in ms], den, n


def hstack(rows: int, blocks: Sequence[SparseMatrix]) -> SparseMatrix:
    """The blocks, each with `rows` rows, side by side, joined on their rows
    over a common denominator at a common order."""
    if any(b.rows != rows for b in blocks):
        raise ShapeMismatch(f"blocks of {[b.rows for b in blocks]} rows in a stack of {rows}")
    parts, den, n = _common_rows(blocks)
    phi = euler_phi(n)
    data: list[dict] = [dict() for _ in range(rows * phi)]
    offset = 0
    for b, part_rows in zip(blocks, parts):
        for row, part in zip(data, part_rows):
            row.update((offset + c, v) for c, v in part.items())
        offset += b.cols * phi
    return SparseMatrix._of(rows, offset // phi, data, den, n)


def _row_products(left: list[dict], right: list[dict]) -> list[dict]:
    """Rows of left * right; entries that cancel are dropped once a row is summed."""
    data = []
    for row in left:
        acc = {}
        for k, a in row.items():
            for c, b in right[k].items():
                acc[c] = acc.get(c, 0) + a * b
        # no test per term; a dict does not shrink, so a row that kept a zero is
        # copied, and the rows of a zero product are fresh empty dicts
        data.append(acc if all(acc.values()) else {c: v for c, v in acc.items() if v})
    return data


def kron(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Kronecker product with row-major index convention
    (i_a * rows_b + i_b, j_a * cols_b + j_b).  Over Q(zeta_n) its block there
    is mult(x) mult(y) for x = a[i_a, j_a] and y = b[i_b, j_b]."""
    left, right, den, n = _common(a, b)
    if n == 1:
        data = [{ca * b.cols + cb: va * vb for ca, va in ra.items() for cb, vb in rb.items()}
                for ra in left for rb in right]
        return SparseMatrix._of(a.rows * b.rows, a.cols * b.cols, data, den * den)
    phi = euler_phi(n)
    width, data = b.cols * phi, []
    for i in range(0, len(left), phi):
        for k in range(0, len(right), phi):
            for ra in left[i:i + phi]:
                acc = {}
                for col, x in ra.items():
                    j, u = divmod(col, phi)
                    for at, y in right[k + u].items():
                        at += j * width
                        acc[at] = acc.get(at, 0) + x * y
                data.append(acc if all(acc.values()) else {c: v for c, v in acc.items() if v})
    return SparseMatrix._of(a.rows * b.rows, a.cols * b.cols, data, den * den, n)


# --- elimination core -------------------------------------------------------
#
# The helpers below work on lists of mutable integer dict rows.

def _copy_rows(m: SparseMatrix) -> list[dict]:
    return [dict(row) for row in m._rows]


def _transposed(rows: list[dict], cols: int) -> list[dict]:
    """The transpose of integer rows with `cols` columns, as fresh rows."""
    out: list[dict] = [dict() for _ in range(cols)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            out[c][r] = v
    return out


def _divide_content(row: dict[int, int]):
    """Divide an integer row, in place, by the gcd of its entries."""
    content = gcd(*row.values())
    if content > 1:
        for j, v in row.items():
            row[j] = v // content


def _factor(t: dict, c: int, piv: int) -> int:
    """The multiple of the pivot row (pivot `piv` in column c) that clears
    column c of row t, after t is scaled in place by piv/g,
    g = gcd(piv, t[c]), so that the update stays integral."""
    g = gcd(piv, t[c])
    factor, scale = t[c] // g, piv // g
    if scale != 1:
        for j, v in t.items():
            t[j] = scale * v
    return factor


def _eliminate(data: list[dict]) -> list[tuple[int, int]]:
    """In-place forward elimination with fill-minimizing pivoting, for `rank`:
    the pivots as (row_index, col) pairs, in the order they were taken.

    Pivot rule: a minimum-nnz active row, then its least-populated column.
    A pivot clears its column in the active rows only, so the pivot rows end
    as an echelon basis in some column order, not a reduced one.
    """
    nrows = len(data)
    col_rows: dict[int, dict[int, None]] = {}
    for r, row in enumerate(data):
        for c in row:
            col_rows.setdefault(c, {})[r] = None
    # active rows live in nnz buckets for cheap min-length retrieval
    buckets: dict[int, dict[int, None]] = {}
    row_len = [0] * nrows
    for r, row in enumerate(data):
        if row:
            buckets.setdefault(len(row), {})[r] = None
            row_len[r] = len(row)
    is_active = [True] * nrows

    def rebucket(r: int):
        new_len = len(data[r])
        old = row_len[r]
        if old == new_len:
            return
        if old:
            b = buckets.get(old)
            if b is not None:
                b.pop(r, None)
                if not b:
                    del buckets[old]
        if new_len:
            buckets.setdefault(new_len, {})[r] = None
        row_len[r] = new_len

    pivots: list[tuple[int, int]] = []
    while buckets:
        lmin = min(buckets)
        bucket = buckets[lmin]
        r = next(iter(bucket))
        del bucket[r]
        if not bucket:
            del buckets[lmin]
        row_len[r] = 0
        is_active[r] = False
        row = data[r]
        c = min([(len(col_rows[j]), j) for j in row])[1]
        piv = row[c]
        pivots.append((r, c))
        for t in [t for t in col_rows[c] if is_active[t]]:
            trow = data[t]
            factor = _factor(trow, c, piv)
            for j, v in row.items():
                s = trow.get(j, 0) - factor * v
                if s:
                    if j not in trow:
                        col_rows.setdefault(j, {})[t] = None
                    trow[j] = s
                else:
                    if j in trow:
                        del trow[j]
                        col_rows[j].pop(t, None)
            _divide_content(trow)
            rebucket(t)
        col_rows[c] = {r: None}
    return pivots


def _peel(rows: list[dict], cols: int) -> list[tuple[int, int]]:
    """(row, col) pairs of the rows that own a singleton column, removed until
    none is left; col is the row's highest singleton column as it is removed."""
    count, owner = [0] * cols, [0] * cols  # owner: the sum of a column's rows
    for r, row in enumerate(rows):
        for j in row:
            count[j] += 1
            owner[j] += r
    stack, peeled = [j for j in range(cols) if count[j] == 1], []
    while stack:
        c = stack.pop()
        if count[c] == 1:  # 0 once its row was peeled for another column
            r, top = owner[c], c
            # the row's singleton columns are those its one decrement pass empties
            for j in rows[r]:
                count[j] -= 1
                owner[j] -= r
                if count[j] == 1:
                    stack.append(j)
                elif not count[j] and j > top:
                    top = j
            peeled.append((r, top))
    return peeled


def rank(m: SparseMatrix) -> int:
    """The rank of m: `_peel`, then `_eliminate` on the rows left, of M_Q
    over Q(zeta_n), whose rank is phi(n) times that of m.  The rank stays on
    m, with the pivots of a rational m (`SparseMatrix.pivots`), so a matrix
    is ranked once however often it is asked."""
    pivots = getattr(m, "_pivots", None)
    if pivots is None:
        phi = euler_phi(m.field_order)
        pivots = _peel(m._rows, m.cols * phi)
        peeled = {r for r, _ in pivots}
        core = [r for r in range(len(m._rows)) if r not in peeled]
        pivots += [(core[r], c) for r, c in _eliminate([dict(m._rows[r]) for r in core])]
        if phi > 1:
            object.__setattr__(m, "_pivots", len(pivots) // phi)
            return len(pivots) // phi
        object.__setattr__(m, "_pivots", pivots := (tuple(sorted(r for r, _ in pivots)),
                                                    tuple(sorted(c for _, c in pivots))))
    return pivots if type(pivots) is int else len(pivots[0])


def _clear(row: dict, c: int, pivot_row: dict):
    """Clear column c of `row` with `pivot_row`, in place."""
    f = _factor(row, c, pivot_row[c])
    for j, v in pivot_row.items():
        s = row.get(j, 0) - f * v
        if s:
            row[j] = s
        elif j in row:
            del row[j]
    _divide_content(row)


def _canonical_rref(data: list[dict]) -> list[dict]:
    """Gauss-Jordan with leading-column pivots on the rows of `data`, which
    it consumes: the canonical reduced echelon basis of their span, sorted
    by pivot, each row's pivot its leading column min(row), each row
    primitive with a positive pivot.

    Rows wait in buckets by leading column, so a pivot row only meets the
    rows that share its lead, and the waiting leads sit in a heap; back
    substitution then runs from the last pivot up, each row meeting only the
    pivot rows in its own support."""
    by_lead: dict[int, list[dict]] = {}
    for row in data:
        if row:
            by_lead.setdefault(min(row), []).append(row)
    leads = list(by_lead)  # the keys of by_lead, as a heap
    heapify(leads)
    pivot_rows: dict[int, dict] = {}  # increasing lead
    while leads:
        lead = heappop(leads)
        row, *others = by_lead.pop(lead)
        _divide_content(row)
        if row[lead] < 0:
            row = {j: -v for j, v in row.items()}
        for other in others:
            _clear(other, lead, row)
            if other:
                new = min(other)
                if new not in by_lead:
                    by_lead[new] = []
                    heappush(leads, new)
                by_lead[new].append(other)
        pivot_rows[lead] = row
    # a pivot row below has no entry in any other pivot column, so clearing
    # one column of a row leaves its other pivot columns untouched; the
    # positive pivots below keep each lead positive
    for lead, row in reversed(pivot_rows.items()):
        for p in [j for j in row if j != lead and j in pivot_rows]:
            _clear(row, p, pivot_rows[p])
    return list(pivot_rows.values())


def _pivot_one(rows: list[dict]) -> tuple[list[dict], int]:
    """Reduced primitive rows scaled to pivot 1 over one denominator, the lcm
    of their pivots, in lowest terms."""
    leads = [row[min(row)] for row in rows]
    den = lcm(1, *leads)
    return [{j: v * (den // p) for j, v in row.items()} for row, p in zip(rows, leads)], den


def rref(m: SparseMatrix) -> SparseMatrix:
    """The canonical reduced echelon basis of the row space of m, one row per
    basis vector, pivot 1, sorted by pivot: equal spans give equal matrices."""
    phi = euler_phi(m.field_order)
    rows, den = _pivot_one(_canonical_rref(_copy_rows(m)))
    return SparseMatrix._of(len(rows) // phi, m.cols, rows, den, m.field_order)


def nullspace(m: SparseMatrix) -> SparseMatrix:
    """The canonical reduced echelon basis of { v : m.apply(v) = 0 }, as the
    rows of a matrix, in the form `rref` gives."""
    phi = euler_phi(m.field_order)
    pivot_of = {min(row): row for row in _canonical_rref(_copy_rows(m))}
    basis = []
    for f in range(m.cols * phi):
        if f in pivot_of:
            continue
        hits = [(c, row) for c, row in pivot_of.items() if f in row]
        # scale * (e_f - sum_c row[f]/row[c] e_c), kept integral
        scale = lcm(*(row[c] for c, row in hits))
        v = {f: scale}
        v.update((c, -row[f] * scale // row[c]) for c, row in hits)
        basis.append(v)
    rows, den = _pivot_one(_canonical_rref(basis))
    if phi > 1:  # Q-coordinates of the kernel: its K-blocks, each transposed
        blocks: list[dict] = [dict() for _ in rows]
        for i, row in enumerate(rows):
            r, s = divmod(i, phi)
            for j, v in row.items():
                c, t = divmod(j, phi)
                blocks[r * phi + t][c * phi + s] = v
        rows = blocks
    return SparseMatrix._of(len(rows) // phi, m.cols, rows, den, m.field_order)


def solve(m: SparseMatrix, b: SparseMatrix) -> SparseMatrix | None:
    """The X with m * X = b that is zero at the free variables: row i of X
    is zero unless column i of m is a pivot of `rref(m)`.  It is read off
    the canonical reduced form of [m | b], b's columns after m's; a row there
    that leads past m's columns is an equation 0 = nonzero, and then a column
    of b is inconsistent and the answer is None.  Over Q(zeta_n) the same
    reading of [M_Q | B_Q] gives X_Q, whose free rows are whole blocks."""
    if b.rows != m.rows:
        raise ShapeMismatch(f"{m.rows}x{m.cols} system with {b.rows}x{b.cols} right-hand sides")
    left, right, _, order = _common(m, b)
    n = m.cols * euler_phi(order)
    rows = _canonical_rref([{**row, **{n + j: v for j, v in rb.items()}}
                            for row, rb in zip(left, right)])
    leads = [min(row) for row in rows]
    if leads and leads[-1] >= n:
        return None  # a residual equation 0 = nonzero
    x: list[dict] = [dict() for _ in range(n)]
    den = lcm(1, *(row[c] for row, c in zip(rows, leads)))
    for row, c in zip(rows, leads):  # x[c] = row[n + j] / row[c]
        scale = den // row[c]
        x[c] = {j - n: v if scale == 1 else scale * v for j, v in row.items() if j >= n}
    return SparseMatrix._of(m.cols, b.cols, x, den, order)


def cokernel_projector(m: SparseMatrix) -> tuple[tuple[int, ...], SparseMatrix]:
    """Cokernel of m in coordinates: `free_coords`, the ambient coordinates
    (increasing) that are not pivots of the canonical reduced column space,
    and the projection (one row per free coordinate) of the ambient space
    onto them.  projection * m = 0, and the projection is the identity on
    the free coordinates.  Over Q(zeta_n) the free coordinates of M_Q are
    whole blocks, and the projection of M_Q, unique, is the realification of
    that of m."""
    phi = euler_phi(m.field_order)
    colspace = _canonical_rref(_transposed(m._rows, m.cols * phi))
    pivot_coords = [min(row) for row in colspace]
    pivot_set = set(pivot_coords)
    free = [i for i in range(m.rows * phi) if i not in pivot_set]
    pos = {f: k for k, f in enumerate(free)}
    # the projection is kept as integer rows over den, the lcm of the pivots
    den = lcm(1, *(row[p] for row, p in zip(colspace, pivot_coords)))
    proj_rows: list[dict] = [{f: den} for f in free]
    for row, p in zip(colspace, pivot_coords):
        for i, x in row.items():
            if i in pos:
                proj_rows[pos[i]][p] = -x * (den // row[p])
    return (tuple(f // phi for f in free[::phi]),
            SparseMatrix._of(len(free) // phi, m.rows, proj_rows, den, m.field_order))
