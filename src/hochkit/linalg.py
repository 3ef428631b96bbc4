"""Exact sparse linear algebra over Q(zeta_n).

Matrices are immutable dict-of-rows structures whose entries are nonzero
CycScalars.  Rank, nullspace, solving and cokernel computations all run
Gaussian elimination on sparse dict rows with a fill-minimizing pivot rule
(fewest nonzeros in row, then fewest rows in column); pivot choice only
affects speed, never results.  There is one elimination path: `_eliminate`,
followed by `_canonical_rref` wherever a canonical reduced basis is needed
(`_reduced_rows`); matrix rows and columns reach it as dict rows and are
never densified on the way.

When every entry is rational (conductor 1), `_eliminate` and the matrix
product run on Python ints and convert to and from CycScalar only at the
boundary.  The elimination then keeps each row a primitive integer vector
and updates it fraction-free, t <- (p/g) t - (t[c]/g) r with
g = gcd(p, t[c]) (Bareiss, Math. Comp. 22, 1968, in its one-step form),
dividing out the row's content afterwards.  Each integer row is a nonzero
rational multiple of the row the field update t <- t - (t[c]/p) r gives, so
the zero pattern, the pivot sequence and every normalized output are the
same on both routes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .errors import ShapeMismatch
from .scalars import CycScalar, ONE, ZERO, cyc, format_scalar

Vector = tuple[CycScalar, ...]


def vec(values: Iterable) -> Vector:
    return tuple(cyc(v) for v in values)


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


class SparseMatrix:
    """Immutable sparse matrix; absent entries are zero, stored ones are not."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int, entries=None):
        data: list[dict[int, CycScalar]] = [dict() for _ in range(rows)]
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (r, c), v in items:
                v = cyc(v)
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError(f"entry ({r}, {c}) outside {rows}x{cols}")
                if v:
                    data[r][c] = v
                elif c in data[r]:
                    del data[r][c]
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_rows", data)

    def __setattr__(self, *a):
        raise AttributeError("SparseMatrix is immutable")

    @staticmethod
    def _wrap(rows: int, cols: int, data: list[dict[int, CycScalar]]) -> "SparseMatrix":
        m = SparseMatrix.__new__(SparseMatrix)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_rows", data)
        return m

    @staticmethod
    def from_rows(rows_data: Sequence[dict[int, CycScalar]], cols: int) -> "SparseMatrix":
        data = [{c: cyc(v) for c, v in row.items() if cyc(v)} for row in rows_data]
        return SparseMatrix._wrap(len(data), cols, data)

    @staticmethod
    def from_dense(table: Sequence[Sequence]) -> "SparseMatrix":
        rows = len(table)
        cols = len(table[0]) if rows else 0
        data = []
        for row in table:
            if len(row) != cols:
                raise ShapeMismatch(f"dense rows of lengths {cols} and {len(row)}")
            data.append({c: cyc(v) for c, v in enumerate(row) if cyc(v)})
        return SparseMatrix._wrap(rows, cols, data)

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix._wrap(n, n, [{i: ONE} for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "SparseMatrix":
        return SparseMatrix._wrap(rows, cols, [dict() for _ in range(rows)])

    @staticmethod
    def from_columns(columns: Sequence[Vector], rows: int) -> "SparseMatrix":
        data: list[dict[int, CycScalar]] = [dict() for _ in range(rows)]
        for c, col in enumerate(columns):
            if len(col) != rows:
                raise ShapeMismatch(f"column {c} has {len(col)} entries, not {rows}")
            for r, v in enumerate(col):
                if v:
                    data[r][c] = v
        return SparseMatrix._wrap(rows, len(columns), data)

    # --- inspection ---

    def entry(self, r: int, c: int) -> CycScalar:
        return self._rows[r].get(c, ZERO)

    def entries(self) -> Iterator[tuple[int, int, CycScalar]]:
        for r, row in enumerate(self._rows):
            for c, v in row.items():
                yield r, c, v

    def nnz(self) -> int:
        return sum(len(row) for row in self._rows)

    def is_zero(self) -> bool:
        return all(not row for row in self._rows)

    @property
    def field_order(self) -> int:
        n = 1
        for row in self._rows:
            for v in row.values():
                n = lcm(n, v.order)
        return n

    def row_vector(self, r: int) -> Vector:
        row = self._rows[r]
        return tuple(row.get(c, ZERO) for c in range(self.cols))

    def dump(self) -> str:
        """Debug format: header `rows cols field_order`, then one
        `(row, col, scalar)` triplet per line, row-major order."""
        lines = [f"{self.rows} {self.cols} {self.field_order}"]
        for r, c, v in self.entries():
            lines.append(f"({r}, {c}, {format_scalar(v)})")
        return "\n".join(lines)

    # --- algebra ---

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._rows == other._rows

    def __hash__(self):
        return hash((self.rows, self.cols, self.nnz()))

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} + {other.rows}x{other.cols}")
        data = []
        for ra, rb in zip(self._rows, other._rows):
            row = dict(ra)
            for c, v in rb.items():
                s = row.get(c, ZERO) + v
                if s:
                    row[c] = s
                elif c in row:
                    del row[c]
            data.append(row)
        return SparseMatrix._wrap(self.rows, self.cols, data)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "SparseMatrix":
        c = cyc(c)
        if not c:
            return SparseMatrix.zero(self.rows, self.cols)
        data = [{j: c * v for j, v in row.items()} for row in self._rows]
        return SparseMatrix._wrap(self.rows, self.cols, data)

    def __mul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if _all_rational(self._rows) and _all_rational(other._rows):
            left, den_left = _scaled_to_integers(self._rows)
            right, den_right = _scaled_to_integers(other._rows)
            den = den_left * den_right
            data = [{c: _rational(Fraction(s, den)) for c, s in acc.items()}
                    for acc in _row_products(left, right, 0)]
        else:
            data = _row_products(self._rows, other._rows, ZERO)
        return SparseMatrix._wrap(self.rows, other.cols, data)

    def transpose(self) -> "SparseMatrix":
        data: list[dict[int, CycScalar]] = [dict() for _ in range(self.cols)]
        for r, row in enumerate(self._rows):
            for c, v in row.items():
                data[c][r] = v
        return SparseMatrix._wrap(self.cols, self.rows, data)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ShapeMismatch(f"{self.rows}x{self.cols} applied to a vector of length {len(v)}")
        out = []
        for row in self._rows:
            s = ZERO
            for c, a in row.items():
                if v[c]:
                    s = s + a * v[c]
            out.append(s)
        return tuple(out)

    def trace(self) -> CycScalar:
        if self.rows != self.cols:
            raise ShapeMismatch(f"trace of a {self.rows}x{self.cols} matrix")
        s = ZERO
        for r, row in enumerate(self._rows):
            if r in row:
                s = s + row[r]
        return s


def _row_products(left: list[dict], right: list[dict], zero) -> list[dict]:
    """Rows of left * right; entries that cancel are dropped on the spot."""
    data = []
    for row in left:
        acc = {}
        for k, a in row.items():
            for c, b in right[k].items():
                s = acc.get(c, zero) + a * b
                if s:
                    acc[c] = s
                elif c in acc:
                    del acc[c]
        data.append(acc)
    return data


def kron(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Kronecker product with row-major index convention
    (i_a * rows_b + i_b, j_a * cols_b + j_b)."""
    data: list[dict[int, CycScalar]] = [dict() for _ in range(a.rows * b.rows)]
    for ra, ca, va in a.entries():
        for rb, cb, vb in b.entries():
            data[ra * b.rows + rb][ca * b.cols + cb] = va * vb
    return SparseMatrix._wrap(a.rows * b.rows, a.cols * b.cols, data)


# --- integer rows for rational matrices --------------------------------------

def _rational(q: Fraction) -> CycScalar:
    return CycScalar(1, (q,), _canonical=True)


def _all_rational(rows: Sequence[dict[int, CycScalar]]) -> bool:
    return all(v.order == 1 for row in rows for v in row.values())


def _scaled_to_integers(rows: Sequence[dict[int, CycScalar]]) -> tuple[list[dict[int, int]], int]:
    """(den * rows as ints, den) for rational rows, den the lcm of every
    denominator: one common denominator for the whole matrix."""
    den = lcm(*{v.coeffs[0].denominator for row in rows for v in row.values()})
    return [{j: v.coeffs[0].numerator * (den // v.coeffs[0].denominator)
             for j, v in row.items()} for row in rows], den


def _divide_content(row: dict[int, int]):
    """Divide an integer row, in place, by the gcd of its entries."""
    content = gcd(*row.values())
    if content > 1:
        for j, v in row.items():
            row[j] = v // content


def _integer_rows(data: list[dict[int, CycScalar]]) -> bool:
    """When every entry is rational, replace each row in place by its
    primitive integer multiple and return True.  The CycScalar rows are
    released one by one, so the two copies are never alive together."""
    if not _all_rational(data):
        return False
    for i, row in enumerate(data):
        data[i] = _scaled_to_integers([row])[0][0]
        _divide_content(data[i])
    return True


# --- elimination core -------------------------------------------------------

def _eliminate(data: list[dict[int, CycScalar]], cols: int,
               want_reduced: bool = False,
               pivot_limit: int | None = None) -> list[tuple[int, int]]:
    """In-place forward elimination with fill-minimizing pivoting.

    Pivot rule: a minimum-nnz active row, then its least-populated column.
    Returns pivots as (row_index, col) pairs sorted by column.  With
    want_reduced, pivot rows are normalized to 1 and cleared above as well.
    Columns >= pivot_limit are never chosen as pivots (used by `solve` to
    protect the augmented column); rows supported only there are left alone.

    Pivot positions need not be at leading columns, so the result is an
    echelon basis but not the canonical reduced form; `_canonical_rref`
    finishes the job where canonical output matters.

    Rational rows are eliminated as primitive integer vectors (see the
    module docstring); only the row update differs.  Non-pivot rows then
    hold ints, and with want_reduced the pivot rows are wrapped back into
    CycScalar rows with pivot 1, as on the field route.
    """
    integral = _integer_rows(data)
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
        if pivot_limit is not None:
            eligible = [j for j in row if j < pivot_limit]
            if not eligible:
                continue  # row stuck in protected columns; never a pivot
            c = min(eligible, key=lambda j: (len(col_rows[j]), j))
        else:
            c = min(row, key=lambda j: (len(col_rows[j]), j))
        piv = row[c]
        pivots.append((r, c))
        targets = [t for t in col_rows[c] if t != r and (is_active[t] or want_reduced)]
        for t in targets:
            trow = data[t]
            if integral:  # t <- (p/g) t - (t[c]/g) r, then divide out the content
                g = gcd(piv, trow[c])
                factor, scale = trow[c] // g, piv // g
                if scale != 1:
                    for j, v in trow.items():
                        trow[j] = scale * v
            else:  # t <- t - (t[c]/p) r
                factor = trow[c] / piv
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
            if is_active[t]:
                rebucket(t)
        col_rows[c] = {r: None}
    if want_reduced:
        for r, c in pivots:
            piv = data[r][c]
            if integral:
                data[r] = {j: _rational(Fraction(v, piv)) for j, v in data[r].items()}
            elif piv != ONE:
                inv = piv.inverse()
                data[r] = {j: inv * v for j, v in data[r].items()}
    pivots.sort(key=lambda rc: rc[1])
    return pivots


def _copy_rows(m: SparseMatrix) -> list[dict[int, CycScalar]]:
    return [dict(row) for row in m._rows]


def rank(m: SparseMatrix) -> int:
    return len(_eliminate(_copy_rows(m), m.cols))


def _reduced_rows(rows: list[dict[int, CycScalar]],
                  ambient: int) -> list[dict[int, CycScalar]]:
    """Canonical reduced echelon basis of the span of sparse rows, sorted by
    pivot; each row's pivot is min(row) and equals 1.  Consumes `rows`."""
    data = [row for row in rows if row]
    rows.clear()  # `_eliminate` may now release each row as it converts it
    # thin out with the fill-minimizing eliminator, then canonicalize
    pivots = _eliminate(data, ambient, want_reduced=True)
    return _canonical_rref([data[r] for r, _ in pivots])


def _dense_rows(rows: Sequence[dict[int, CycScalar]], ambient: int) -> list[Vector]:
    return [tuple(row.get(j, ZERO) for j in range(ambient)) for row in rows]


class Subspace:
    """A subspace of Q(zeta)^n held as a reduced-echelon row basis.

    The representation is canonical: two Subspace objects are equal exactly
    when they describe the same subspace.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Sequence[Vector], *, _canonical=False):
        if not _canonical:
            sparse = []
            for v in basis:
                if len(v) != ambient_dim:
                    raise ShapeMismatch(
                        f"a vector of length {len(v)} in a subspace of dimension {ambient_dim}")
                sparse.append({i: x for i, x in enumerate(v) if x})
            basis = _dense_rows(_reduced_rows(sparse, ambient_dim), ambient_dim)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(basis))

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vector) -> bool:
        if len(v) != self.ambient_dim:
            raise ShapeMismatch(
                f"a vector of length {len(v)} tested against a subspace of {self.ambient_dim}")
        residue = list(v)
        for row in self.basis:
            lead = next(i for i, x in enumerate(row) if x)
            if residue[lead]:
                f = residue[lead]  # pivot normalized to 1
                residue = [a - f * b for a, b in zip(residue, row)]
        return not any(residue)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.dim))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def _subtract(row: dict[int, CycScalar], f: CycScalar, other: dict[int, CycScalar]):
    """row -= f * other, in place."""
    for j, v in other.items():
        s = row.get(j, ZERO) - f * v
        if s:
            row[j] = s
        elif j in row:
            del row[j]


def _canonical_rref(data: list[dict[int, CycScalar]]) -> list[dict[int, CycScalar]]:
    """Gauss-Jordan with leading-column pivots on an already-thin row list;
    output rows are the canonical reduced echelon basis, sorted by pivot.

    Rows wait in buckets by leading column, so a pivot row only meets the
    rows that share its lead; back substitution then runs from the last
    pivot up, each row meeting only the pivot rows in its own support."""
    by_lead: dict[int, list[dict[int, CycScalar]]] = {}
    for row in data:
        if row:
            by_lead.setdefault(min(row), []).append(row)
    pivot_rows: dict[int, dict[int, CycScalar]] = {}  # increasing lead
    while by_lead:
        lead = min(by_lead)
        row, *others = by_lead.pop(lead)
        piv = row[lead]
        if piv != ONE:
            inv = piv.inverse()
            row = {j: inv * v for j, v in row.items()}
        for other in others:
            _subtract(other, other[lead], row)
            if other:
                by_lead.setdefault(min(other), []).append(other)
        pivot_rows[lead] = row
    # a pivot row below has no entry in any other pivot column, so clearing
    # one column of a row leaves its other pivot columns untouched
    for lead, row in reversed(pivot_rows.items()):
        for p in [j for j in row if j != lead and j in pivot_rows]:
            _subtract(row, row[p], pivot_rows[p])
    return list(pivot_rows.values())


def rref(vectors: Sequence[Vector], ambient: int) -> Subspace:
    return Subspace(ambient, vectors)


def nullspace(m: SparseMatrix) -> Subspace:
    """Canonical basis of { v : m.apply(v) = 0 }."""
    data = _copy_rows(m)
    pivots = _eliminate(data, m.cols, want_reduced=True)
    pivot_cols = [c for _, c in pivots]
    pivot_of = {c: r for r, c in pivots}
    free = [c for c in range(m.cols) if c not in pivot_of]
    basis = []
    for f in free:
        v = {f: ONE}
        for c in pivot_cols:
            coeff = data[pivot_of[c]].get(f)
            if coeff:
                v[c] = -coeff
        basis.append(v)
    reduced = _reduced_rows(basis, m.cols)
    return Subspace(m.cols, _dense_rows(reduced, m.cols), _canonical=True)


def solve(m: SparseMatrix, b: Vector) -> Vector | None:
    """Some x with m.apply(x) = b, or None when the system is inconsistent."""
    if len(b) != m.rows:
        raise ShapeMismatch(f"{m.rows}x{m.cols} system with a right-hand side of length {len(b)}")
    data = _copy_rows(m)
    aug = m.cols  # augmented column index, protected from pivoting
    for r, v in enumerate(b):
        if v:
            data[r][aug] = v
    pivots = _eliminate(data, m.cols + 1, want_reduced=True, pivot_limit=m.cols)
    pivot_rows = {r for r, _ in pivots}
    for r, row in enumerate(data):
        if r not in pivot_rows and aug in row:
            return None  # a residual equation 0 = nonzero
    x = [ZERO] * m.cols
    for r, c in pivots:
        x[c] = data[r].get(aug, ZERO)
    return tuple(x)


def cokernel_projector(m: SparseMatrix) -> tuple[tuple[int, ...], SparseMatrix]:
    """Cokernel of m in coordinates: `free_coords`, the ambient coordinates
    (increasing) that are not pivots of the canonical reduced column space,
    and the projection (one row per free coordinate) of the ambient space
    onto them.  projection * m = 0, and the projection is the identity on
    the free coordinates."""
    colspace = _reduced_rows(m.transpose()._rows, m.rows)
    pivot_coords = [min(row) for row in colspace]
    pivot_set = set(pivot_coords)
    free = tuple(i for i in range(m.rows) if i not in pivot_set)
    pos = {f: k for k, f in enumerate(free)}
    proj_rows: list[dict[int, CycScalar]] = [{f: ONE} for f in free]
    for row, p in zip(colspace, pivot_coords):
        for i, x in row.items():
            if i in pos:
                proj_rows[pos[i]][p] = -x
    return free, SparseMatrix._wrap(len(free), m.rows, proj_rows)
