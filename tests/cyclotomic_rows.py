"""The Gauss-Jordan on CycScalar dict rows that `hochkit.linalg` ran on
matrices over Q(zeta_n), n > 1, before it stored their realifications: an
oracle for the integer engine, independent of it.  Rows are dicts
column -> nonzero CycScalar; every answer is at pivot 1.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from hochkit.scalars import ONE, ZERO


def scalar_rows(m) -> list[dict]:
    """The rows of a SparseMatrix as CycScalar dicts, read through `entries`."""
    rows: list[dict] = [dict() for _ in range(m.rows)]
    for r, c, v in m.entries():
        rows[r][c] = v
    return rows


def _clear(row: dict, c: int, pivot_row: dict):
    """Clear column c of `row` with `pivot_row`, in place."""
    f = row[c] / pivot_row[c]
    for j, v in pivot_row.items():
        s = row.get(j, ZERO) - f * v
        if s:
            row[j] = s
        elif j in row:
            del row[j]


def canonical_rref(data: list[dict]) -> list[dict]:
    """Gauss-Jordan with leading-column pivots on the rows of `data`, which
    it consumes: the reduced echelon basis of their span at pivot 1, sorted
    by pivot.  Rows wait in buckets by leading column, the waiting leads in
    a heap, and back substitution runs from the last pivot up."""
    by_lead: dict[int, list[dict]] = {}
    for row in data:
        if row:
            by_lead.setdefault(min(row), []).append(row)
    leads = list(by_lead)
    heapify(leads)
    pivot_rows: dict[int, dict] = {}
    while leads:
        lead = heappop(leads)
        row, *others = by_lead.pop(lead)
        if row[lead] != ONE:
            inv = row[lead].inverse()
            row = {j: inv * v for j, v in row.items()}
        for other in others:
            _clear(other, lead, row)
            if other:
                new = min(other)
                if new not in by_lead:
                    by_lead[new] = []
                    heappush(leads, new)
                by_lead[new].append(other)
        pivot_rows[lead] = row
    for lead, row in reversed(pivot_rows.items()):
        for p in [j for j in row if j != lead and j in pivot_rows]:
            _clear(row, p, pivot_rows[p])
    return list(pivot_rows.values())


def nullspace(rows: list[dict], cols: int) -> list[dict]:
    """The reduced echelon basis of the kernel of the rows (consumed)."""
    pivot_of = {min(row): row for row in canonical_rref(rows)}
    basis = []
    for f in range(cols):
        if f not in pivot_of:
            v = {f: ONE}
            v.update((c, -row[f]) for c, row in pivot_of.items() if f in row)
            basis.append(v)
    return canonical_rref(basis)


def solve(rows: list[dict], rhs: list[dict], cols: int) -> list[dict] | None:
    """The rows of X with M X = B, zero at the free variables, from the rows
    of M and of B; None when a column of B is inconsistent."""
    reduced = canonical_rref([{**row, **{cols + j: v for j, v in rb.items()}}
                              for row, rb in zip(rows, rhs)])
    if reduced and min(reduced[-1]) >= cols:
        return None
    x: list[dict] = [dict() for _ in range(cols)]
    for row in reduced:
        x[min(row)] = {j - cols: v for j, v in row.items() if j >= cols}
    return x


def cokernel_projector(rows: list[dict], nrows: int, ncols: int) -> tuple[tuple, list[dict]]:
    """(free coordinates, rows of the projection) of the matrix with these
    rows, as `linalg.cokernel_projector` defines them."""
    columns: list[dict] = [dict() for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            columns[c][r] = v
    colspace = canonical_rref(columns)
    pivots = [min(row) for row in colspace]
    free = tuple(i for i in range(nrows) if i not in pivots)
    pos = {f: k for k, f in enumerate(free)}
    proj: list[dict] = [{f: ONE} for f in free]
    for row, p in zip(colspace, pivots):
        for i, x in row.items():
            if i in pos:
                proj[pos[i]][p] = -x
    return free, proj
