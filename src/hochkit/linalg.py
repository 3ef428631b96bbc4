"""Exact sparse linear algebra over Q(zeta_n).

Matrices are immutable lists of sparse dict rows, and the representation is
chosen once, when a matrix is made (`_normal_form`): a matrix whose entries
are all rational holds integer rows over one positive common denominator
`den`, in lowest terms; a matrix with an irrational entry holds CycScalar
rows and `den` is None.  Equal matrices therefore have equal rows, and
every operation (`+`, `scale`, `*`, `kron`, `transpose` and the
eliminations) runs on the stored rows.  Scalars and vectors leave this
module as CycScalars (`entry`, `entries`, `row_vector`, `apply`, `trace`):
an integer entry v over `den` leaves as `rational(v, den)`, with no Fraction
between, and a rational CycScalar enters as its numerator over `den`.
`apply` sums each output once (`scalars.matvec`): one integer polynomial in
zeta_n per row, reduced and descended once.
`solve` answers with a matrix, a column per right-hand side, and `rref` and
`nullspace` with the matrix whose rows are a canonical reduced echelon
basis at pivot 1, so that equal spans give equal matrices.

There are two eliminations on sparse dict rows, each with one job.  `rank`
peels, then runs `_eliminate` on the core: a row with the only nonzero left
in a column is independent of the rest, so rank(m) = 1 + rank(m without
it), and removing it can leave more such columns.  The peel takes them all
with no arithmetic (LaMacchia and Odlyzko, CRYPTO '90; the "compress" of
Bauer, Kerber and Reininghaus, 2014), and `_eliminate` is forward
elimination with a fill-minimizing pivot rule (fewest nonzeros in row, then
fewest rows in column).  The peeled pairs and the core's pivots form a
nonsingular block-triangular minor, kept on the matrix for
`hochschild.ChainComplex` to clear the next map.  Every canonical answer
(`rref`, `nullspace`, `solve`, `cokernel_projector`) comes from
`_canonical_rref` alone, Gauss-Jordan with leading-column pivots: the
reduced echelon form does not depend on the pivot order, so it takes the
order that ends there.  Only the row update depends on the field:
t <- t - (t[c]/p) r over Q(zeta_n), n > 1.  On integer rows it is the
fraction-free t <- (p/g) t - (t[c]/g) r with g = gcd(p, t[c]) (Bareiss,
Math. Comp. 22, 1968, in its one-step form), after which the row's content
is divided out.  A reduced integer row is primitive with a positive pivot,
the integer form of pivot 1.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .errors import ShapeMismatch
from .scalars import CycScalar, ONE, ZERO, cyc, matvec, rational

Vector = tuple[CycScalar, ...]


def vec(values: Iterable) -> Vector:
    return tuple(cyc(v) for v in values)


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def _normal_form(data: list[dict], den: int | None) -> tuple[list[dict], int | None]:
    """The one place a matrix representation is chosen.  `data` holds integer
    rows over `den`, or (den None) CycScalar rows; those with an irrational
    entry stay so, and all others become integer rows over a lowest-terms den."""
    if den is None:
        if any(v.order != 1 for row in data for v in row.values()):
            return data, None
        den = lcm(*{v.den for row in data for v in row.values()})
        # the least common denominator of reduced fractions is in lowest terms
        return [{j: v.nums[0] * (den // v.den) for j, v in row.items()}
                for row in data], den
    g = den
    for row in data:
        if g == 1:
            return data, den
        g = gcd(g, *row.values())
    if g == 1:
        return data, den
    return [{j: v // g for j, v in row.items()} for row in data], den // g


class SparseMatrix:
    """Immutable sparse matrix; absent entries are zero, stored ones are not.

    `SparseMatrix(rows, cols, entries)` takes a dict or an iterable of
    ((row, col), value) pairs; values at a repeated position are summed and
    entries that cancel are dropped."""

    __slots__ = ("rows", "cols", "den", "_rows", "_pivots")

    def __init__(self, rows: int, cols: int, entries=()):
        data: list[dict] = [dict() for _ in range(rows)]
        for (r, c), v in entries.items() if isinstance(entries, dict) else entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"entry ({r}, {c}) outside {rows}x{cols}")
            row = data[r]
            s = row[c] + cyc(v) if c in row else cyc(v)  # no arithmetic unless repeated
            if s:
                row[c] = s
            else:
                row.pop(c, None)
        self._set(rows, cols, *_normal_form(data, None))

    def _set(self, rows: int, cols: int, data: list[dict], den: int | None):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_rows", data)
        object.__setattr__(self, "_pivots", None)

    def __setattr__(self, *a):
        raise AttributeError("SparseMatrix is immutable")

    @staticmethod
    def _of(rows: int, cols: int, data: list[dict], den: int | None) -> "SparseMatrix":
        m = SparseMatrix.__new__(SparseMatrix)
        m._set(rows, cols, *_normal_form(data, den))
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
        return SparseMatrix._of(n, n, [{i: 1} for i in range(n)], 1)

    @staticmethod
    def zero(rows: int, cols: int) -> "SparseMatrix":
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
        v = self._rows[r].get(c)
        if v is None:
            return ZERO
        return v if self.den is None else rational(v, self.den)

    def entries(self) -> Iterator[tuple[int, int, CycScalar]]:
        for r, row in enumerate(self._rows):
            for c, v in row.items():
                yield r, c, v if self.den is None else rational(v, self.den)

    def nnz(self) -> int:
        return sum(len(row) for row in self._rows)

    def is_zero(self) -> bool:
        return all(not row for row in self._rows)

    @property
    def field_order(self) -> int:
        if self.den is not None:
            return 1
        return lcm(1, *(v.order for row in self._rows for v in row.values()))

    @property
    def pivots(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """(rows, cols), each increasing: the pivot positions `rank` found on
        this matrix (its peel and elimination), None before it ran.  m
        restricted to the pivot rows, or to the pivot columns, has rank(m)."""
        return self._pivots

    def row_vector(self, r: int) -> Vector:
        return tuple(self.entry(r, c) for c in range(self.cols))

    # --- algebra ---

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.den) == (other.rows, other.cols, other.den) \
            and self._rows == other._rows

    def __hash__(self):
        return hash((self.rows, self.cols, self.nnz()))

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} + {other.rows}x{other.cols}")
        left, right, den = _common(self, other)
        data = []
        for ra, rb in zip(left, right):
            row = dict(ra)
            for c, v in rb.items():
                s = row.get(c, ZERO if den is None else 0) + v
                if s:
                    row[c] = s
                elif c in row:
                    del row[c]
            data.append(row)
        return SparseMatrix._of(self.rows, self.cols, data, den)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "SparseMatrix":
        c = cyc(c)
        if c == ONE:
            return self
        if not c:
            return SparseMatrix.zero(self.rows, self.cols)
        if self.den is not None and c.order == 1:
            return SparseMatrix._of(self.rows, self.cols, _times(self, c.nums[0]),
                                    self.den * c.den)
        data = [{j: c * v for j, v in row.items()} for row in _scalar_rows(self)]
        return SparseMatrix._of(self.rows, self.cols, data, None)

    def __mul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        left, right, den = _common(self, other)
        data = _row_products(left, right, ZERO if den is None else 0)
        return SparseMatrix._of(self.rows, other.cols, data, None if den is None else den * den)

    def transpose(self) -> "SparseMatrix":
        data: list[dict] = [dict() for _ in range(self.cols)]
        for r, row in enumerate(self._rows):
            for c, v in row.items():
                data[c][r] = v
        return SparseMatrix._of(self.cols, self.rows, data, self.den)

    def take_rows(self, rows: Sequence[int]) -> "SparseMatrix":
        """The rows at the given indices, renumbered in that order."""
        return SparseMatrix._of(len(rows), self.cols, [self._rows[i] for i in rows], self.den)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ShapeMismatch(f"{self.rows}x{self.cols} applied to a vector of length {len(v)}")
        return matvec(self._rows, self.den, v)

    def trace(self) -> CycScalar:
        if self.rows != self.cols:
            raise ShapeMismatch(f"trace of a {self.rows}x{self.cols} matrix")
        s = sum((row[r] for r, row in enumerate(self._rows) if r in row),
                ZERO if self.den is None else 0)
        return s if self.den is None else rational(s, self.den)


def _scalar_rows(m: SparseMatrix) -> list[dict[int, CycScalar]]:
    """The rows of m as CycScalars (its own rows when they already are)."""
    if m.den is None:
        return m._rows
    return [{j: rational(v, m.den) for j, v in row.items()} for row in m._rows]


def _times(m: SparseMatrix, k: int) -> list[dict[int, int]]:
    """The integer rows of a rational matrix, times the integer k."""
    if k == 1:
        return m._rows
    return [{j: k * v for j, v in row.items()} for row in m._rows]


def _common(a: SparseMatrix, b: SparseMatrix) -> tuple[list[dict], list[dict], int | None]:
    """The rows of a and b in one representation, read-only: integer rows
    over their common denominator den, or CycScalar rows (den None) when
    either is irrational."""
    if a.den is None or b.den is None:
        return _scalar_rows(a), _scalar_rows(b), None
    den = lcm(a.den, b.den)
    return _times(a, den // a.den), _times(b, den // b.den), den


def _common_rows(ms: Sequence[SparseMatrix]) -> tuple[list[list[dict]], int | None]:
    """The rows of every matrix of ms in one representation, as `_common`
    gives them for two (which stays apart: it runs in every `+`, `*` and
    `kron`), and den."""
    dens = [m.den for m in ms]
    if None in dens:
        return [_scalar_rows(m) for m in ms], None
    den = lcm(*dens)
    return [_times(m, den // m.den) for m in ms], den


def hstack(rows: int, blocks: Sequence[SparseMatrix]) -> SparseMatrix:
    """The blocks, each with `rows` rows, side by side, joined on their stored
    rows: integer rows over a common denominator unless a block is irrational."""
    if any(b.rows != rows for b in blocks):
        raise ShapeMismatch(f"blocks of {[b.rows for b in blocks]} rows in a stack of {rows}")
    parts, den = _common_rows(blocks)
    data: list[dict] = [dict() for _ in range(rows)]
    offset = 0
    for b, part_rows in zip(blocks, parts):
        for row, part in zip(data, part_rows):
            row.update((offset + c, v) for c, v in part.items())
        offset += b.cols
    return SparseMatrix._of(rows, offset, data, den)


def _row_products(left: list[dict], right: list[dict], zero) -> list[dict]:
    """Rows of left * right; entries that cancel are dropped once a row is summed."""
    data = []
    for row in left:
        acc = {}
        for k, a in row.items():
            for c, b in right[k].items():
                acc[c] = acc.get(c, zero) + a * b
        # no test per term; a dict does not shrink, so a row that kept a zero is
        # copied, and the rows of a zero product are fresh empty dicts
        data.append(acc if all(acc.values()) else {c: v for c, v in acc.items() if v})
    return data


def kron(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Kronecker product with row-major index convention
    (i_a * rows_b + i_b, j_a * cols_b + j_b)."""
    left, right, den = _common(a, b)
    data = [{ca * b.cols + cb: va * vb for ca, va in ra.items() for cb, vb in rb.items()}
            for ra in left for rb in right]
    return SparseMatrix._of(a.rows * b.rows, a.cols * b.cols, data,
                            None if den is None else den * den)


# --- elimination core -------------------------------------------------------
#
# The helpers below work on lists of mutable dict rows: integer rows when
# `integral`, CycScalar rows otherwise.

def _copy_rows(m: SparseMatrix) -> list[dict]:
    return [dict(row) for row in m._rows]


def _divide_content(row: dict[int, int]):
    """Divide an integer row, in place, by the gcd of its entries."""
    content = gcd(*row.values())
    if content > 1:
        for j, v in row.items():
            row[j] = v // content


def _factor(t: dict, c: int, piv, integral: bool):
    """The multiple of the pivot row (pivot `piv` in column c) that clears
    column c of row t.  On integer rows t is first scaled in place by
    piv/g, g = gcd(piv, t[c]), so that the update stays integral."""
    if not integral:
        return t[c] / piv
    g = gcd(piv, t[c])
    factor, scale = t[c] // g, piv // g
    if scale != 1:
        for j, v in t.items():
            t[j] = scale * v
    return factor


def _eliminate(data: list[dict], integral: bool) -> list[tuple[int, int]]:
    """In-place forward elimination with fill-minimizing pivoting, for `rank`:
    the pivots as (row_index, col) pairs, in the order they were taken.

    Pivot rule: a minimum-nnz active row, then its least-populated column.
    A pivot clears its column in the active rows only, so the pivot rows end
    as an echelon basis in some column order, not a reduced one.
    """
    zero = 0 if integral else ZERO
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
            factor = _factor(trow, c, piv, integral)
            for j, v in row.items():
                s = trow.get(j, zero) - factor * v
                if s:
                    if j not in trow:
                        col_rows.setdefault(j, {})[t] = None
                    trow[j] = s
                else:
                    if j in trow:
                        del trow[j]
                        col_rows[j].pop(t, None)
            if integral:
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
    """The rank of m: `_peel`, then `_eliminate` on the rows left.  The pivot
    rows and columns of both stay on m (`SparseMatrix.pivots`), so a matrix
    is ranked once however often it is asked."""
    if m._pivots is None:
        pivots = _peel(m._rows, m.cols)
        peeled = {r for r, _ in pivots}
        core = [r for r in range(m.rows) if r not in peeled]
        pivots += [(core[r], c) for r, c in _eliminate(
            [dict(m._rows[r]) for r in core], m.den is not None)]
        object.__setattr__(m, "_pivots", (tuple(sorted(r for r, _ in pivots)),
                                          tuple(sorted(c for _, c in pivots))))
    return len(m._pivots[0])


def _basis_matrix(rows: list[dict], cols: int, integral: bool) -> SparseMatrix:
    """The canonical reduced echelon basis of the span of `rows` (consumed)
    as a matrix, one row per basis vector, each scaled to pivot 1."""
    rows = _canonical_rref(rows, integral)
    if not integral:  # already at pivot 1
        return SparseMatrix._of(len(rows), cols, rows, None)
    leads = [row[min(row)] for row in rows]
    den = lcm(1, *leads)
    return SparseMatrix._of(len(rows), cols, [{j: v * (den // p) for j, v in row.items()}
                                              for row, p in zip(rows, leads)], den)


def _clear(row: dict, c: int, pivot_row: dict, integral: bool):
    """Clear column c of `row` with `pivot_row`, in place."""
    zero = 0 if integral else ZERO
    f = _factor(row, c, pivot_row[c], integral)
    for j, v in pivot_row.items():
        s = row.get(j, zero) - f * v
        if s:
            row[j] = s
        elif j in row:
            del row[j]
    if integral:
        _divide_content(row)


def _canonical_rref(data: list[dict], integral: bool) -> list[dict]:
    """Gauss-Jordan with leading-column pivots on the rows of `data`, which
    it consumes: the canonical reduced echelon basis of their span, sorted
    by pivot, each row's pivot its leading column min(row): pivot 1 over
    Q(zeta_n), n > 1; primitive with a positive pivot on integer rows.

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
        if integral:
            _divide_content(row)
            if row[lead] < 0:
                row = {j: -v for j, v in row.items()}
        elif row[lead] != ONE:
            inv = row[lead].inverse()
            row = {j: inv * v for j, v in row.items()}
        for other in others:
            _clear(other, lead, row, integral)
            if other:
                new = min(other)
                if new not in by_lead:
                    by_lead[new] = []
                    heappush(leads, new)
                by_lead[new].append(other)
        pivot_rows[lead] = row
    # a pivot row below has no entry in any other pivot column, so clearing
    # one column of a row leaves its other pivot columns untouched; the
    # positive pivots below keep each lead positive on integer rows
    for lead, row in reversed(pivot_rows.items()):
        for p in [j for j in row if j != lead and j in pivot_rows]:
            _clear(row, p, pivot_rows[p], integral)
    return list(pivot_rows.values())


def rref(m: SparseMatrix) -> SparseMatrix:
    """The canonical reduced echelon basis of the row space of m, one row per
    basis vector, pivot 1, sorted by pivot: equal spans give equal matrices."""
    integral = m.den is not None
    return _basis_matrix(_copy_rows(m), m.cols, integral)


def nullspace(m: SparseMatrix) -> SparseMatrix:
    """The canonical reduced echelon basis of { v : m.apply(v) = 0 }, as the
    rows of a matrix, in the form `rref` gives."""
    integral = m.den is not None
    pivot_of = {min(row): row for row in _canonical_rref(_copy_rows(m), integral)}
    basis = []
    for f in range(m.cols):
        if f in pivot_of:
            continue
        hits = [(c, row) for c, row in pivot_of.items() if f in row]
        if integral:  # scale * (e_f - sum_c row[f]/row[c] e_c), kept integral
            scale = lcm(*(row[c] for c, row in hits))
            v = {f: scale}
            v.update((c, -row[f] * scale // row[c]) for c, row in hits)
        else:
            v = {f: ONE}
            v.update((c, -row[f]) for c, row in hits)
        basis.append(v)
    return _basis_matrix(basis, m.cols, integral)


def solve(m: SparseMatrix, b: SparseMatrix) -> SparseMatrix | None:
    """The X with m * X = b that is zero at the free variables: row i of X
    is zero unless column i of m is a pivot of `rref(m)`.  It is read off
    the canonical reduced form of [m | b], b's columns at m.cols + j; a row
    there that leads at or past m.cols is an equation 0 = nonzero, and then
    a column of b is inconsistent and the answer is None."""
    if b.rows != m.rows:
        raise ShapeMismatch(f"{m.rows}x{m.cols} system with {b.rows}x{b.cols} right-hand sides")
    left, right, den = _common(m, b)
    integral = den is not None
    n = m.cols
    rows = _canonical_rref([{**row, **{n + j: v for j, v in rb.items()}}
                            for row, rb in zip(left, right)], integral)
    leads = [min(row) for row in rows]
    if leads and leads[-1] >= n:
        return None  # a residual equation 0 = nonzero
    x: list[dict] = [dict() for _ in range(n)]
    den = lcm(1, *(row[c] for row, c in zip(rows, leads))) if integral else None
    for row, c in zip(rows, leads):  # x[c] = row[n + j] / row[c]; row[c] is 1 off Q
        scale = den // row[c] if integral else 1
        x[c] = {j - n: v if scale == 1 else scale * v for j, v in row.items() if j >= n}
    return SparseMatrix._of(n, b.cols, x, den)


def cokernel_projector(m: SparseMatrix) -> tuple[tuple[int, ...], SparseMatrix]:
    """Cokernel of m in coordinates: `free_coords`, the ambient coordinates
    (increasing) that are not pivots of the canonical reduced column space,
    and the projection (one row per free coordinate) of the ambient space
    onto them.  projection * m = 0, and the projection is the identity on
    the free coordinates."""
    integral = m.den is not None
    colspace = _canonical_rref(m.transpose()._rows, integral)
    pivot_coords = [min(row) for row in colspace]
    pivot_set = set(pivot_coords)
    free = tuple(i for i in range(m.rows) if i not in pivot_set)
    pos = {f: k for k, f in enumerate(free)}
    # over Q the projection is kept as integer rows over den, the lcm of the pivots
    den = lcm(*(row[p] for row, p in zip(colspace, pivot_coords))) if integral else None
    proj_rows: list[dict] = [{f: den if integral else ONE} for f in free]
    for row, p in zip(colspace, pivot_coords):
        for i, x in row.items():
            if i in pos:
                proj_rows[pos[i]][p] = -x * (den // row[p]) if integral else -x
    return free, SparseMatrix._of(len(free), m.rows, proj_rows, den)
