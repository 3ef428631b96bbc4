import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hochkit import linalg
from hochkit.errors import DegreeCapExceeded, HochkitError, ShapeMismatch
from hochkit.linalg import (
    SparseMatrix, _canonical_rref, _copy_rows, _eliminate, _peel, cokernel_projector, hstack,
    kron, nullspace, rank, rref, solve, unit_vector, vec,
)
from hochkit.scalars import ONE, ZERO, CycScalar, cyc, embed, euler_phi, format_scalar, zeta

import cyclotomic_rows

_entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if draw(st.booleans()):
                q = draw(_entry)
                if q:
                    entries[(r, c)] = cyc(q)
    return SparseMatrix(rows, cols, entries)


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rank_transpose_property(m):
    assert rank(m) == rank(m.transpose())


@settings(max_examples=30, deadline=None)
@given(matrices())
def test_nullspace_annihilates_property(m):
    ns = nullspace(m)
    assert (ns.rows, ns.cols) == (m.cols - rank(m), m.cols)
    assert (m * ns.transpose()).is_zero()


@settings(max_examples=30, deadline=None)
@given(matrices())
def test_rref_idempotent_property(m):
    s1 = rref(m)
    assert (s1.rows, s1.cols) == (rank(m), m.cols)
    assert rref(s1) == s1


def _row_vectors(m):
    return tuple(m.row_vector(r) for r in range(m.rows))


def _contains(space, v):
    """Whether v lies in the row space of the reduced matrix `space`: the
    rref of the rows with v appended is `space` again."""
    return rref(SparseMatrix.from_dense(_row_vectors(space) + (v,))) == space


def random_matrix(rng, rows, cols, density=0.4, order=1):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                val = cyc(q)
                if order > 1 and rng.random() < 0.3:
                    val = val * zeta(order, rng.randint(0, order - 1))
                entries[(r, c)] = val
    return SparseMatrix(rows, cols, entries)


@pytest.mark.parametrize("order", [1, 4])
def test_rank_keeps_spanning_pivots_of_either_side(order):
    # seeded wide, tall and rank-deficient (a product through k < rows, cols)
    # matrices: rational for order 1, realified over Q(zeta_4) for order 4;
    # then sparse 30 x 60 ones, on which the peel of singleton columns fires
    rng = random.Random(70 + order)
    irrational = peeled = 0
    for i in range(70):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        if i >= 60:
            rows, cols = 30, 60
            m = random_matrix(rng, rows, cols, 0.05, order)
            peeled += bool(_peel(m._rows, m.cols * euler_phi(m.field_order)))
        elif rng.random() < 0.5:
            m = random_matrix(rng, rows, cols, rng.choice([0.2, 0.5]), order)
        else:
            k = rng.randint(1, min(rows, cols))
            m = random_matrix(rng, rows, k, 0.6, order) * random_matrix(rng, k, cols, 0.6, order)
        assert m.pivots is None
        r = rank(m)
        assert r == len(_gauss_jordan(_row_vectors(m), m.cols)) == rank(m.transpose())
        pivot_rows, pivot_cols = m.pivots
        assert len(pivot_rows) == len(pivot_cols) == r
        assert list(pivot_rows) == sorted(set(pivot_rows)) and set(pivot_rows) <= set(range(rows))
        assert list(pivot_cols) == sorted(set(pivot_cols)) and set(pivot_cols) <= set(range(cols))
        for part in (m.take_rows(pivot_rows), m.transpose().take_rows(pivot_cols)):
            assert len(_gauss_jordan(_row_vectors(part), part.cols)) == r
        assert rank(m) == r and m.pivots == (pivot_rows, pivot_cols)
        irrational += m.field_order > 1
    assert (irrational > 10) == (order > 1) and peeled == 10


# --- the peel of singleton columns in `rank` ----------------------------------

def _core_rows(monkeypatch):
    """The rows each `_eliminate` call of `rank` receives, recorded."""
    received = []
    eliminate = linalg._eliminate

    def recorded(data, *args, **kw):
        received.append([dict(row) for row in data])
        return eliminate(data, *args, **kw)
    monkeypatch.setattr(linalg, "_eliminate", recorded)
    return received


def _shuffled(m, rng):
    rows, cols = list(range(m.rows)), list(range(m.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return SparseMatrix(m.rows, m.cols, {(rows[r], cols[c]): v for r, c, v in m.entries()})


def test_shuffled_triangular_matrix_peels_completely(monkeypatch):
    rng = random.Random(81)
    received = _core_rows(monkeypatch)
    for n in (1, 7, 25):
        entries = {(r, c): rng.randint(1, 4) * rng.choice([-1, 1])
                   for r in range(n) for c in range(r, n) if c == r or rng.random() < 0.5}
        m = _shuffled(SparseMatrix(n, n, entries), rng)
        assert rank(m) == n and m.pivots == (tuple(range(n)), tuple(range(n)))
    assert received and not any(row for data in received for row in data)


def test_staircase_peels_row_by_row(monkeypatch):
    # row i is e_i + e_(i+1), and the last row e_(n-1): column 0 is the only
    # singleton at first, and column i + 1 becomes one only once row i is gone
    n = 12
    m = SparseMatrix(n, n, {(i, j): 1 for i in range(n) for j in (i, i + 1) if j < n})
    assert [c for c in range(n) if sum(c in row for row in m._rows) == 1] == [0]
    assert _peel(m._rows, m.cols) == [(i, i) for i in range(n)]
    received = _core_rows(monkeypatch)
    assert rank(m) == n and m.pivots == (tuple(range(n)), tuple(range(n)))
    assert received == [[]]


def test_rank_without_singleton_columns_is_the_elimination():
    rng = random.Random(83)
    for order in (1, 4):
        for _ in range(10):
            rows, cols = rng.randint(2, 9), rng.randint(1, 9)
            m = random_matrix(rng, rows, cols, 0.5, order)
            extra = {(r, c): 1 for c in range(cols) for r in rng.sample(range(rows), 2)}
            m = SparseMatrix(rows, cols, {**extra, **{(r, c): v for r, c, v in m.entries()}})
            phi = euler_phi(m.field_order)
            assert _peel(m._rows, m.cols * phi) == []
            pivots = _eliminate(_copy_rows(m))
            assert rank(m) * phi == len(pivots)
            if phi == 1:
                assert m.pivots == (tuple(sorted(r for r, _ in pivots)),
                                    tuple(sorted(c for _, c in pivots)))
            else:  # whole blocks, read off the leading columns over Q of M_Q
                # and of its transpose: the first independent rows and columns
                table = _table(m)
                assert m.pivots == (_first_independent(table, m.cols),
                                    _first_independent(_transposed(table, m.cols), m.rows))


def test_rank_eliminates_and_canonical_answers_canonicalize(monkeypatch):
    # one elimination per job: `rank` runs `_eliminate` alone, and rref,
    # nullspace, solve and cokernel_projector run `_canonical_rref` alone
    calls = []
    for name in ("_eliminate", "_canonical_rref"):
        def counted(*args, _name=name, _run=getattr(linalg, name)):
            calls.append(_name)
            return _run(*args)
        monkeypatch.setattr(linalg, name, counted)
    rng = random.Random(87)
    for order in (1, 8):
        m, b = random_matrix(rng, 6, 5, 0.6, order), random_matrix(rng, 6, 2, 0.6, order)
        for answer, args in ((rref, (m,)), (nullspace, (m,)), (solve, (m, b)),
                             (cokernel_projector, (m,))):
            calls.clear()
            answer(*args)
            assert calls and set(calls) == {"_canonical_rref"}
        calls.clear()
        rank(m)
        assert calls == ["_eliminate"]


def test_cyclotomic_peel_does_no_scalar_arithmetic(monkeypatch):
    rng = random.Random(85)
    n = 10
    entries = {(r, c): zeta(4, rng.randint(0, 3)) * rng.randint(1, 3)
               for r in range(n) for c in range(r, n) if c == r or rng.random() < 0.5}
    m = _shuffled(SparseMatrix(n, n, entries), rng)
    assert m.field_order == 4
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__truediv__"):
        def counted(self, other, _name=name, _method=getattr(CycScalar, name)):
            calls.append(_name)
            return _method(self, other)
        monkeypatch.setattr(CycScalar, name, counted)
    ONE + ONE
    assert calls == ["__add__"]  # the counters are live
    calls.clear()
    assert rank(m) == n
    assert calls == []


def test_take_rows_keeps_the_chosen_rows():
    m = random_matrix(random.Random(77), 5, 6, order=3)
    part = m.take_rows([4, 0, 2])
    assert (part.rows, part.cols) == (3, 6)
    assert _row_vectors(part) == tuple(m.row_vector(r) for r in (4, 0, 2))
    assert m.take_rows(range(5)) == m


def test_rank_identity_and_zero():
    assert rank(SparseMatrix.identity(5)) == 5
    for rows, cols in [(3, 4), (0, 4), (4, 0), (0, 0)]:
        m = SparseMatrix.zero(rows, cols)
        assert rank(m) == 0 and m.pivots == ((), ())


def test_rank_all_ones():
    m = SparseMatrix.from_dense([[1, 1, 1]] * 3)
    assert rank(m) == 1


def test_rank_transpose_invariance():
    rng = random.Random(7)
    for _ in range(10):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), order=4)
        assert rank(m) == rank(m.transpose())


def test_nullspace_identity():
    assert nullspace(SparseMatrix.identity(3)) == SparseMatrix.zero(0, 3)


def test_nullspace_rank_one():
    m = SparseMatrix.from_dense([[1, 1], [1, 1]])
    ns = nullspace(m)
    assert ns == SparseMatrix.from_dense([[1, -1]])
    assert _contains(ns, vec([-3, 3]))
    assert not _contains(ns, vec([1, 1]))


def test_rank_nullity():
    rng = random.Random(11)
    for _ in range(8):
        m = random_matrix(rng, 6, 10, density=0.35, order=3)
        ns = nullspace(m)
        assert ns.rows == 10 - rank(m)
        assert (m * ns.transpose()).is_zero()


def test_solve_identity():
    b = SparseMatrix.from_columns([vec([2, Fraction(1, 3), -1])], 3)
    assert solve(SparseMatrix.identity(3), b) == b


def test_solve_inconsistent():
    assert solve(SparseMatrix.zero(2, 3), SparseMatrix.from_columns([vec([1, 0])], 2)) is None


def test_solve_substitute_back():
    rng = random.Random(13)
    for _ in range(8):
        m = random_matrix(rng, 5, 7, density=0.4, order=4)
        x0 = vec([rng.randint(-3, 3) for _ in range(7)])
        b = SparseMatrix.from_columns([m.apply(x0)], 5)
        x = solve(m, b)
        assert x is not None
        assert m * x == b


def test_kron_identities():
    assert kron(SparseMatrix.identity(2), SparseMatrix.identity(3)) == SparseMatrix.identity(6)
    one_by_one = SparseMatrix.from_dense([[Fraction(2, 3)]])
    m = SparseMatrix.from_dense([[1, 2], [3, 4]])
    assert kron(m, one_by_one) == m.scale(Fraction(2, 3))
    assert kron(one_by_one, m) == m.scale(Fraction(2, 3))


def test_kron_rank_multiplicative():
    rng = random.Random(17)
    for _ in range(5):
        a = random_matrix(rng, 3, 4, order=3)
        b = random_matrix(rng, 2, 3)
        assert rank(kron(a, b)) == rank(a) * rank(b)


def test_kron_index_convention():
    a = SparseMatrix.from_dense([[0, 1], [0, 0]])
    b = SparseMatrix.identity(3)
    k = kron(a, b)
    # entry (i_a * rows_b + i_b, j_a * cols_b + j_b)
    assert k.entry(0 * 3 + 1, 1 * 3 + 1) == ONE
    assert k.entry(0, 0) == ZERO


def test_cokernel_zero_matrix():
    free, proj = cokernel_projector(SparseMatrix.zero(3, 2))
    assert free == (0, 1, 2)
    assert proj == SparseMatrix.identity(3)


def test_cokernel_identity():
    free, proj = cokernel_projector(SparseMatrix.identity(3))
    assert free == ()
    assert proj.rows == 0


def test_cokernel_dimension_and_annihilation():
    rng = random.Random(19)
    for _ in range(8):
        m = random_matrix(rng, 6, 4, density=0.5, order=3)
        free, proj = cokernel_projector(m)
        assert len(free) == 6 - rank(m)
        assert (proj * m).is_zero()
        # projection restricted to the free coordinates is the identity
        for k, f in enumerate(free):
            assert proj.apply(unit_vector(6, f)) == unit_vector(len(free), k)


def _cokernel_via_column_rref(m):
    """The dense route: rref of the columns as vectors, pivot coordinates
    read off the reduced basis, and the projection built from them."""
    basis = _row_vectors(rref(m.transpose()))
    pivots = [next(i for i, x in enumerate(row) if x) for row in basis]
    free = tuple(i for i in range(m.rows) if i not in pivots)
    entries = {}
    for k, f in enumerate(free):
        entries[(k, f)] = ONE
        for row, p in zip(basis, pivots):
            if row[f]:
                entries[(k, p)] = -row[f]
    return free, SparseMatrix(len(free), m.rows, entries)


def _mixed_matrix(rng, rows, cols):
    # rational, Q(zeta_8) and Q(zeta_12) entries in one matrix
    entries = {}
    for r in range(rows):
        for c in range(cols):
            roll = rng.random()
            if roll < 0.2:
                entries[(r, c)] = cyc(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            elif roll < 0.35:
                entries[(r, c)] = zeta(8, rng.randrange(8)) * rng.randint(1, 2)
            elif roll < 0.5:
                entries[(r, c)] = zeta(12, rng.randrange(12)) + cyc(rng.randint(-1, 1))
    return SparseMatrix(rows, cols, entries)


def test_cokernel_matches_column_rref_route():
    rng = random.Random(41)
    shapes = [(0, 0), (0, 3), (4, 0), (1, 1)]
    shapes += [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(46)]
    for rows, cols in shapes:
        m = _mixed_matrix(rng, rows, cols)
        assert cokernel_projector(m) == _cokernel_via_column_rref(m)


def _gauss_jordan(table, ambient):
    """Textbook reduced row echelon form: leading-column pivots, left to
    right, on dense rows of CycScalars; returns the nonzero rows, pivot 1."""
    m = [list(row) for row in table]
    top = 0
    for c in range(ambient):
        src = next((i for i in range(top, len(m)) if m[i][c]), None)
        if src is None:
            continue
        m[top], m[src] = m[src], m[top]
        inv = m[top][c].inverse()
        m[top] = [inv * x for x in m[top]]
        for i in range(len(m)):
            if i != top and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[top])]
        top += 1
    return m[:top]


def _row_form(dense_rows, order=1):
    """Reduced rows as `_canonical_rref` leaves them: the rows of their
    realification at `order` (each K-row a block of phi rows), each made
    primitive with a positive pivot."""
    phi, out = euler_phi(order), []
    for row in dense_rows:
        for s in range(phi):
            q = {j * phi + t: c for j, x in enumerate(row) if x
                 for t in range(phi) if (c := _coordinate(x * zeta(order, t), s, order))}
            scale = lcm(*(c.denominator for c in q.values()))
            ints = {j: int(c * scale) for j, c in q.items()}
            g = gcd(*ints.values())
            out.append({j: v // g for j, v in ints.items()})
    return out


def _coordinate(x, s, order):
    """Coordinate s of x in the power basis of Q(zeta_order), a Fraction."""
    return Fraction(embed(x.nums, x.order, order)[s], x.den)


def test_canonical_rref_matches_dense_gauss_jordan():
    # _canonical_rref is shared by both sides of the cokernel comparison
    # above, so it gets an oracle of its own
    rng = random.Random(43)
    for trial in range(60):
        ambient, count = rng.randint(0, 8), rng.randint(0, 8)
        make = _mixed_matrix if trial % 2 else _rational_matrix
        if trial % 3:
            m = make(rng, count, ambient)
        else:  # rank at most 2: dependent rows
            m = make(rng, count, 2) * make(rng, 2, ambient)
        expected = _row_form(_gauss_jordan(_table(m), ambient), m.field_order)
        assert _canonical_rref(_copy_rows(m)) == expected


@pytest.mark.parametrize("kind, blocks", [("rational", 700), ("mixed", 40)])
def test_canonical_rref_with_thousands_of_leads(kind, blocks):
    # independent blocks on interleaved columns (column j of block b is
    # j * blocks + b): one call keeps thousands of leads waiting at once, and
    # its basis is the union of the blocks' own, each from the dense oracle
    rng = random.Random(47)
    make, width = _rational_matrix if kind == "rational" else _mixed_matrix, 8
    parts = [make(rng, rng.randint(0, 10), width) if b % 3 else
             make(rng, rng.randint(0, 10), 3) * make(rng, 3, width) for b in range(blocks)]
    entries, offset = {}, 0
    for b, part in enumerate(parts):
        entries.update(((offset + r, c * blocks + b), v) for r, c, v in part.entries())
        offset += part.rows
    whole = SparseMatrix(offset, width * blocks, entries)
    n = whole.field_order
    phi = euler_phi(n)  # column c * phi + t of block b's part lands at (c * blocks + b) * phi + t
    expected = [{(c // phi * blocks + b) * phi + c % phi: v for c, v in row.items()}
                for b, part in enumerate(parts)
                for row in _row_form(_gauss_jordan(_table(part), width), n)]
    expected.sort(key=min)
    got = _canonical_rref(_copy_rows(whole))
    assert got == expected
    assert len(got) >= 2 * blocks  # 2245 pivots on the rational blocks


def test_rref_idempotent():
    rng = random.Random(23)
    for _ in range(8):
        m = SparseMatrix.from_dense([[rng.randint(-2, 2) for _ in range(6)] for _ in range(4)])
        s1 = rref(m)
        assert rref(s1) == s1


def test_subspace_canonical_form():
    # two spanning sets of the same plane give identical matrices
    s1 = rref(SparseMatrix.from_dense([[1, 1, 0], [0, 0, 1]]))
    s2 = rref(SparseMatrix.from_dense([[2, 2, 2], [0, 0, -5], [1, 1, 1]]))
    assert s1 == s2 == SparseMatrix.from_dense([[1, 1, 0], [0, 0, 1]])
    assert _contains(s1, vec([3, 3, 7]))
    assert not _contains(s1, vec([1, 0, 0]))


def test_rref_scales_rows_to_pivot_one():
    assert rref(SparseMatrix.from_dense([[2, 4], [0, 3]])) == SparseMatrix.identity(2)
    assert rref(SparseMatrix.from_dense([[0, 3, 3], [2, 4, 6]])) == \
        SparseMatrix.from_dense([[1, 0, 1], [0, 1, 1]])
    assert rref(SparseMatrix.from_dense([[6, 9, 0]])) == \
        SparseMatrix.from_dense([[1, Fraction(3, 2), 0]])
    r = rref(SparseMatrix.from_dense([[2 * zeta(8), 1], [4 * zeta(8), 2]]))
    assert r == SparseMatrix.from_dense([[1, (2 * zeta(8)).inverse()]])
    ns = nullspace(SparseMatrix.from_dense([[0, 2, 4, 6], [0, 0, 0, 3]]))
    assert ns == SparseMatrix.from_dense([[1, 0, 0, 0], [0, 1, Fraction(-1, 2), 0]])
    for m in (r, ns):
        assert all(next(x for x in row if x) == ONE for row in _row_vectors(m))


def test_rref_and_nullspace_of_empty_shapes():
    for n in (0, 3):
        assert rref(SparseMatrix.zero(0, n)) == SparseMatrix.zero(0, n)
        assert rref(SparseMatrix.zero(n, 0)) == SparseMatrix.zero(0, 0)
        assert nullspace(SparseMatrix.zero(0, n)) == SparseMatrix.identity(n)
        assert nullspace(SparseMatrix.zero(n, 0)) == SparseMatrix.zero(0, 0)
    assert rref(SparseMatrix.zero(2, 3)) == SparseMatrix.zero(0, 3)
    assert nullspace(SparseMatrix.zero(2, 3)) == SparseMatrix.identity(3)


def test_containment_is_rref_of_augmented_rows():
    # v lies in the row space exactly when appending it leaves the rref, and
    # the rank, unchanged
    rng = random.Random(29)
    seen = set()
    for trial in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6), order=(1, 8)[trial % 2])
        space = rref(m)
        if trial % 3:  # a combination of the rows
            weights = [cyc(rng.randint(-2, 2)) for _ in range(m.rows)]
            v = m.transpose().apply(tuple(weights))
        else:
            v = tuple(cyc(rng.randint(-2, 2)) for _ in range(m.cols))
        inside = _contains(space, v)
        assert inside == (rank(SparseMatrix.from_dense(_row_vectors(m) + (v,))) == rank(m))
        seen.add(inside)
    assert seen == {True, False}


def test_matmul_and_trace():
    a = SparseMatrix.from_dense([[1, 2], [3, 4]])
    b = SparseMatrix.from_dense([[0, 1], [1, 0]])
    assert (a * b) == SparseMatrix.from_dense([[2, 1], [4, 3]])
    assert a.trace() == cyc(5)


def test_a_cancelled_product_row_is_a_fresh_dict():
    # a dict does not shrink when keys are deleted, so a product row whose
    # terms all cancel must not be the accumulator that grew to hold them
    for unit in (ONE, zeta(4)):
        left = SparseMatrix.from_dense([[unit, unit], [unit, 0]])
        right = SparseMatrix.from_dense([[unit * k for k in range(1, 9)],
                                         [-unit * k for k in range(1, 9)]])
        product = left * right
        assert product.take_rows([1]) == right.take_rows([0]).scale(unit)
        assert product._rows[0] == {} and sys.getsizeof(product._rows[0]) == sys.getsizeof({})


def dump(m):
    """Debug format: header `rows cols field_order`, then one
    `(row, col, scalar)` triplet per line, row-major order."""
    lines = [f"{m.rows} {m.cols} {m.field_order}"]
    for r, c, v in m.entries():
        lines.append(f"({r}, {c}, {format_scalar(v)})")
    return "\n".join(lines)


def test_dump_format():
    m = SparseMatrix.from_dense([[1, 0], [0, zeta(3)]])
    text = dump(m)
    lines = text.splitlines()
    assert lines[0] == "2 2 3"
    assert lines[1] == "(0, 0, 1)"
    assert lines[2] == "(1, 1, z3^1)"


def test_mixed_field_orders_under_elimination():
    # entries in Q(zeta_8) and Q(zeta_12) force lcm-24 arithmetic inside the
    # elimination; verify with the substitute-back and rank-nullity oracles
    rng = random.Random(37)
    for _ in range(4):
        entries = {}
        for r in range(5):
            for c in range(6):
                roll = rng.random()
                if roll < 0.25:
                    entries[(r, c)] = zeta(8, rng.randrange(8)) * rng.randint(1, 2)
                elif roll < 0.5:
                    entries[(r, c)] = zeta(12, rng.randrange(12)) + cyc(rng.randint(-1, 1))
        m = SparseMatrix(5, 6, entries)
        ns = nullspace(m)
        assert ns.rows == 6 - rank(m)
        assert (m * ns.transpose()).is_zero()
        x0 = vec([rng.randint(-2, 2) for _ in range(6)])
        b = SparseMatrix.from_columns([m.apply(x0)], 5)
        x = solve(m, b)
        assert x is not None and m * x == b


# --- the stored representation against a dense CycScalar oracle -------------
#
# A matrix holds integer rows over one lowest-terms denominator: its entries
# over Q, and over Q(zeta_n), n > 1 the conductor of its entries, the blocks
# of multiplication by them.  Every operation is checked against dense
# CycScalar arithmetic kept here, on rational, Q(zeta_8), Q(zeta_12),
# mixed-field and Q(zeta_4) matrices (whose products and multiples by
# zeta_4 cancel into Q).

def _rational_matrix(rng, rows, cols):
    """Integers, non-integer and very large rationals, and some zero rows."""
    return SparseMatrix(rows, cols, _nonzero(_random_table(rng, rows, cols, "q")))


def _random_scalar(rng, field):
    roll = rng.random()
    if roll < 0.4:
        q = cyc(rng.randint(-3, 3))
    elif roll < 0.8:
        q = cyc(Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
    else:
        q = cyc(Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 12)))
    if field == "mixed":
        field = rng.choice(["q", "z8", "z12"])
    if field == "z8" and rng.random() < 0.5:
        return q * zeta(8, rng.randrange(8))
    if field == "z12" and rng.random() < 0.5:
        return zeta(12, rng.randrange(12)) + q
    if field == "z4" and rng.random() < 0.7:
        return q * zeta(4)
    return q


def _random_table(rng, rows, cols, field, density=0.5):
    table = []
    for _ in range(rows):
        zero_row = rng.random() < 0.2
        table.append([_random_scalar(rng, field) if not zero_row and rng.random() < density
                      else ZERO for _ in range(cols)])
    return table


def _table(m):
    return [[m.entry(r, c) for c in range(m.cols)] for r in range(m.rows)]


def _nonzero(table):
    return {(r, c): x for r, row in enumerate(table) for c, x in enumerate(row) if x}


def _check(m, rows, cols, table):
    """m has the given shape and entries, and stores them in normal form:
    at the conductor of its entries, in lowest terms, and over Q(zeta_n),
    n > 1, the realification, whose block (r, c) has column t x zeta_n^t
    for x = table[r][c]."""
    assert (m.rows, m.cols) == (rows, cols)
    assert _table(m) == table
    assert {(r, c): v for r, c, v in m.entries()} == _nonzero(table)
    assert m == SparseMatrix(rows, cols, _nonzero(table))
    n = lcm(1, *(x.order for row in table for x in row))
    phi = euler_phi(n)
    assert m.field_order == n and m.nnz() == len(_nonzero(table))
    assert len(m._rows) == rows * phi
    values = [v for row in m._rows for v in row.values()]
    assert type(m.den) is int and m.den > 0
    assert all(type(v) is int and v for v in values)
    assert gcd(m.den, *values) == 1  # lowest terms
    blocks = {(r * phi + s, c * phi + t): q * m.den
              for (r, c), x in _nonzero(table).items() for t in range(phi) for s in range(phi)
              if (q := _coordinate(x * zeta(n, t), s, n))}
    assert {(r, c): v for r, row in enumerate(m._rows) for c, v in row.items()} == blocks


def _d_mul(a, b, inner, cols):
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), ZERO)
             for j in range(cols)] for i in range(len(a))]


def _d_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _transposed(table, cols):
    return [[row[c] for row in table] for c in range(cols)]


def _first_independent(table, cols):
    """The indices of the rows of a dense table, in order, that are
    independent of the rows before them."""
    kept = []
    for i, row in enumerate(table):
        if len(_gauss_jordan([table[k] for k in kept] + [row], cols)) > len(kept):
            kept.append(i)
    return tuple(kept)


def _summed_pairs(rng, rows, cols, table, field):
    """((r, c), value) pairs that sum to the table: each entry split in two,
    plus pairs that cancel at zero positions; ints and Fractions raw."""
    pairs = []
    for r in range(rows):
        for c in range(cols):
            x = table[r][c]
            w = _random_scalar(rng, field)
            if x:
                pairs += [((r, c), x - w), ((r, c), w)]
            elif w and rng.random() < 0.3:
                pairs += [((r, c), w), ((r, c), -w)]
    rng.shuffle(pairs)
    return [(rc, v.coeffs[0] if v.order == 1 and rng.random() < 0.5 else v)
            for rc, v in pairs]


def _oracle_nullspace(table, cols):
    reduced = _gauss_jordan(table, cols)
    pivots = [next(j for j, x in enumerate(row) if x) for row in reduced]
    basis = []
    for f in range(cols):
        if f not in pivots:
            v = [ZERO] * cols
            v[f] = ONE
            for row, p in zip(reduced, pivots):
                v[p] = -row[f]
            basis.append(v)
    return tuple(tuple(row) for row in _gauss_jordan(basis, cols))


def _oracle_cokernel(table, rows, cols):
    reduced = _gauss_jordan(_transposed(table, cols), rows)
    pivots = [next(j for j, x in enumerate(row) if x) for row in reduced]
    free = tuple(i for i in range(rows) if i not in pivots)
    entries = {}
    for k, f in enumerate(free):
        entries[(k, f)] = ONE
        for row, p in zip(reduced, pivots):
            if row[f]:
                entries[(k, p)] = -row[f]
    return free, entries


def _representation_cases():
    rng = random.Random(59)
    fields = ["q", "z8", "z12", "mixed", "z4"]
    shapes = [(0, 0), (0, 3), (4, 0), (1, 1)]
    for trial in range(70):
        rows, cols = shapes[trial] if trial < len(shapes) else \
            (rng.randint(1, 6), rng.randint(1, 6))
        yield rng, fields[trial % len(fields)], rows, cols


def test_operations_match_dense_oracle():
    scalars = [cyc(0), cyc(1), cyc(-1), cyc(Fraction(10 ** 30, 7)), cyc(Fraction(-3, 4)),
               zeta(4), zeta(8, 3), zeta(12) + 1]
    cancelled, solved = 0, set()
    for rng, field, rows, cols in _representation_cases():
        ta = _random_table(rng, rows, cols, field)
        a = SparseMatrix(rows, cols, _nonzero(ta))
        _check(a, rows, cols, ta)
        _check(SparseMatrix(rows, cols, _summed_pairs(rng, rows, cols, ta, field)),
               rows, cols, ta)
        other = rng.choice(["q", field])
        tb = _random_table(rng, rows, cols, other)
        b = SparseMatrix(rows, cols, _nonzero(tb))
        _check(a + b, rows, cols, [[x + y for x, y in zip(p, q)] for p, q in zip(ta, tb)])
        _check(a - b, rows, cols, [[x - y for x, y in zip(p, q)] for p, q in zip(ta, tb)])
        _check(a - a, rows, cols, [[ZERO] * cols for _ in range(rows)])
        for c in scalars:
            _check(a.scale(c), rows, cols, [[c * x for x in row] for row in ta])
        _check(a.transpose(), cols, rows, _transposed(ta, cols))
        k = rng.randint(0, 4)
        tc = _random_table(rng, cols, k, other)
        _check(a * SparseMatrix(cols, k, _nonzero(tc)), rows, k, _d_mul(ta, tc, cols, k))
        _check(a * a.transpose(), rows, rows, _d_mul(ta, _transposed(ta, cols), cols, rows))
        small = [row[:3] for row in ta[:3]]
        ts = _random_table(rng, 2, 3, other)
        _check(kron(SparseMatrix(len(small), min(cols, 3), _nonzero(small)),
                    SparseMatrix(2, 3, _nonzero(ts))),
               2 * len(small), 3 * min(cols, 3), _d_kron(small, ts))
        if field == "z4" and (a * a.transpose()).field_order == 1 and a.field_order > 1:
            cancelled += 1  # an irrational matrix whose product landed in Q
        v = tuple(_random_scalar(rng, rng.choice(["q", field])) for _ in range(cols))
        assert _fields(a.apply(v)) == _fields(_per_term(ta, v))
        if rows == cols:
            assert a.trace() == sum((ta[i][i] for i in range(rows)), ZERO)
        reduced = _gauss_jordan(ta, cols)
        assert rank(a) == len(reduced)
        assert (rref(a).cols, _row_vectors(rref(a))) == (cols, tuple(map(tuple, reduced)))
        assert (nullspace(a).cols, _row_vectors(nullspace(a))) == \
            (cols, _oracle_nullspace(ta, cols))
        free, entries = _oracle_cokernel(ta, rows, cols)
        assert cokernel_projector(a) == (free, SparseMatrix(len(free), rows, entries))
        x0 = tuple(_random_scalar(rng, rng.choice(["q", field])) for _ in range(cols))
        for b_vec in (a.apply(x0), tuple(_random_scalar(rng, other) for _ in range(rows))):
            b = SparseMatrix.from_columns([b_vec], rows)
            x = solve(a, b)
            consistent = len(_gauss_jordan([row + [y] for row, y in zip(ta, b_vec)],
                                           cols + 1)) == len(reduced)
            assert (x is not None) == consistent
            solved.add(consistent)
            if x is not None:
                assert a * x == b
    assert cancelled > 0 and solved == {True, False}


def _fields(values):
    return tuple((x.order, x.nums, x.den) for x in values)


def _per_term(table, v):
    """The oracle for `apply`: each output summed one product at a time."""
    return tuple(sum((cyc(x) * cyc(y) for x, y in zip(row, v)), ZERO) for row in table)


def _assert_apply(table, cols, v):
    m = SparseMatrix(len(table), cols, _nonzero(table))
    got = m.apply(v)
    assert _fields(got) == _fields(_per_term(table, v))
    return m, got


def test_apply_matches_the_per_term_sum_across_fields():
    z3, z4, z12 = zeta(3), zeta(4), zeta(12)
    # a Q(zeta_3) vector against a Q(zeta_4) matrix lifts to Q(zeta_12)
    _, got = _assert_apply([[z4, ONE + z4], [cyc(Fraction(1, 2)), ZERO]], 2, (z3, z3 + 2))
    assert {x.order for x in got} == {12, 3}
    # sums over Q(zeta_12) that descend to Q(zeta_3), to Q and to zero
    table = [[z12, z3 - z12], [z12, cyc(Fraction(1, 2)) - z12], [z12, -z12],
             [z12 ** 3, z12], [z12 * 2, ZERO]]
    _, got = _assert_apply(table, 2, (ONE, ONE))
    assert [x.order for x in got] == [3, 1, 1, 12, 12] and not got[2]
    _, got = _assert_apply(table[3:], 2, (z12, z12 ** 11))
    assert [x.order for x in got] == [3, 3]  # zeta_12^4 = zeta_3, and 2 zeta_12^2
    # integer rows over a denominator > 1 against an irrational vector
    m, _ = _assert_apply([[cyc(Fraction(1, 2)), cyc(Fraction(1, 3))],
                          [cyc(Fraction(2, 3)), ZERO]], 2, (zeta(8), z3 + Fraction(1, 5)))
    assert m.den == 6
    # ints and Fractions inside v
    _assert_apply([[z4, ONE, z3], [ONE, cyc(2), ONE]], 3, (3, Fraction(1, 3), z4))
    _assert_apply([[ONE, cyc(2)]], 2, (Fraction(-2, 7), 5))
    # empty rows, and shapes 0 x n and n x 0
    _, got = _assert_apply([[ZERO, ZERO], [z12, ONE], [ZERO, ZERO]], 2, (z3, z4))
    assert not got[0] and not got[2]
    assert SparseMatrix.zero(0, 3).apply((z3, ONE, 2)) == ()
    assert _fields(SparseMatrix.zero(3, 0).apply(())) == _fields((ZERO,) * 3)
    rng = random.Random(61)
    for _ in range(300):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        table = _random_table(rng, rows, cols, rng.choice(["q", "z4", "z8", "z12", "mixed"]))
        other = rng.choice(["q", "z4", "z8", "z12"])
        v = tuple(rng.choice([_random_scalar(rng, other), 0, -2, Fraction(3, 4)])
                  for _ in range(cols))
        _assert_apply(table, cols, v)


def test_apply_builds_one_scalar_per_output(monkeypatch):
    # each output is summed as one integer polynomial and descended once:
    # one constructor call per row, and no product or sum of scalars
    rng = random.Random(63)
    r, c = 5, 6
    entries = {(i, j): zeta(12, rng.randrange(12)) + rng.randint(-2, 2)
               for i in range(r) for j in range(c)}
    m = SparseMatrix(r, c, entries)
    v = tuple(zeta(12, rng.randrange(12)) * Fraction(rng.randint(1, 5), 3) for _ in range(c))
    assert m.field_order == 12 and len(m._rows) == r * euler_phi(12)
    calls = []
    init = CycScalar.__init__

    def counted_init(self, *args, **kwargs):
        calls.append("__init__")
        init(self, *args, **kwargs)
    monkeypatch.setattr(CycScalar, "__init__", counted_init)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def counted(self, other, _name=name, _method=getattr(CycScalar, name)):
            calls.append(_name)
            return _method(self, other)
        monkeypatch.setattr(CycScalar, name, counted)
    ONE + ONE
    assert calls == ["__add__"]  # the counters are live
    calls.clear()
    m.apply(v)
    assert calls.count("__init__") <= r and set(calls) <= {"__init__"}


def test_block_solve_matches_per_column_oracle():
    """One elimination of [m | B] against dense Gauss-Jordan on each column
    of B, over Q and over mixed Q(zeta_8)/Q(zeta_12)."""
    rng = random.Random(71)
    seen = set()
    for trial in range(80):
        field = ("q", "mixed")[trial % 2]
        rows, cols, k = rng.randint(0, 5), rng.randint(1, 5), rng.randint(0, 4)
        ta = _random_table(rng, rows, cols, field)
        m = SparseMatrix(rows, cols, _nonzero(ta))
        columns = _transposed(_d_mul(ta, _random_table(rng, cols, k, field), cols, k), k)
        if k > 1 and trial % 3:  # a later column, most often outside the column space
            columns[rng.randrange(1, k)] = [_random_scalar(rng, field) for _ in range(rows)]
        b = SparseMatrix.from_columns([tuple(col) for col in columns], rows)
        x = solve(m, b)
        reduced_m = _gauss_jordan(ta, cols)
        rank_m = len(reduced_m)
        per_column = [_gauss_jordan([row + [y] for row, y in zip(ta, col)], cols + 1)
                      for col in columns]
        consistent = [len(reduced) == rank_m for reduced in per_column]
        assert (x is None) == (not all(consistent))
        if k == 0:
            seen.add("no columns")
        if any(not any(row) for row in ta):
            seen.add("zero row")
        if consistent[:1] == [True] and not all(consistent):
            seen.add("later column")
        if x is None:
            continue
        assert (x.rows, x.cols) == (cols, k)
        assert m * x == b
        # every free variable is zero: X lives on the leads of rref(m)
        leads = {next(c for c, v in enumerate(row) if v) for row in reduced_m}
        assert all(not any(row) for c, row in enumerate(_table(x)) if c not in leads)
        if rank_m < cols and not x.is_zero():
            seen.add("free variables")
        if rank_m == cols:  # the solution is unique: each column's last entries
            seen.update({"unique"} if k else ())
            assert _table(x) == _transposed([[row[-1] for row in reduced]
                                             for reduced in per_column], cols)
    assert seen == {"no columns", "zero row", "later column", "unique", "free variables"}


def test_constructor_sums_repeated_positions():
    m = SparseMatrix(2, 2, [((0, 0), 1), ((0, 0), Fraction(1, 2)), ((1, 1), zeta(8)),
                            ((1, 1), -zeta(8)), ((0, 1), 3), ((0, 1), -3)])
    assert m == SparseMatrix(2, 2, {(0, 0): Fraction(3, 2)})
    assert (m.den, m._rows) == (2, [{0: 3}, {}])
    m = SparseMatrix(1, 2, [((0, 0), zeta(4)), ((0, 1), zeta(4)), ((0, 1), 1)])
    assert m.field_order == 4 and m.entry(0, 1) == zeta(4) + 1
    m = SparseMatrix(1, 2, [((0, 0), zeta(4)), ((0, 1), Fraction(1, 2) * zeta(4))])
    assert m.scale(zeta(4)) == SparseMatrix(1, 2, {(0, 0): -1, (0, 1): Fraction(-1, 2)})
    assert (m.scale(zeta(4)).den, m.scale(zeta(4))._rows) == (2, [{0: -2, 1: -1}])


def test_hstack_matches_dense_oracle():
    for rng, field, rows, _ in _representation_cases():
        widths = [rng.randint(0, 4) for _ in range(rng.randint(1, 3))]
        tables = [_random_table(rng, rows, w, rng.choice(["q", field])) for w in widths]
        blocks = [SparseMatrix(rows, w, _nonzero(t)) for t, w in zip(tables, widths)]
        joined = [sum((t[r] for t in tables), []) for r in range(rows)]
        _check(hstack(rows, blocks), rows, sum(widths), joined)
    with pytest.raises(ShapeMismatch):
        hstack(2, [SparseMatrix.identity(2), SparseMatrix.identity(3)])


SHAPE_ERRORS_SCRIPT = """
from hochkit.errors import ShapeMismatch
from hochkit.hochschild import ChainComplex
from hochkit.linalg import SparseMatrix, solve, vec

m = SparseMatrix.from_dense([[1, 2, 3], [4, 5, 6]])
cases = {
    "from_dense": lambda: SparseMatrix.from_dense([[1, 2], [3]]),
    "from_columns": lambda: SparseMatrix.from_columns([vec([1, 2])], 3),
    "__add__": lambda: m + SparseMatrix.identity(2),
    "__mul__": lambda: m * m,
    "apply": lambda: m.apply(vec([1, 2])),
    "trace": lambda: m.trace(),
    "solve": lambda: solve(m, SparseMatrix.from_dense([[1], [2], [3]])),
    "ChainComplex": lambda: ChainComplex([2, 3], {1: m.transpose()}),
    "negative shape": lambda: SparseMatrix(-1, 2),
    "negative identity": lambda: SparseMatrix.identity(-2),
    "entry outside": lambda: SparseMatrix(2, 2, {(0, 2): 1}),
}
for name, call in cases.items():
    try:
        call()
    except ShapeMismatch:
        continue
    raise SystemExit(f"{name} did not raise ShapeMismatch")
print("ok")
"""


def test_shape_errors_are_typed_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", SHAPE_ERRORS_SCRIPT],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "ok\n"


def test_constructors_refuse_negative_shapes_and_entries_outside():
    for make in (lambda: SparseMatrix(-1, 2), lambda: SparseMatrix(2, -1),
                 lambda: SparseMatrix.identity(-2), lambda: SparseMatrix.zero(0, -1)):
        with pytest.raises(ShapeMismatch, match="cannot have shape"):
            make()
    for at in ((2, 0), (0, 3), (-1, 1), (1, -1)):
        with pytest.raises(ShapeMismatch, match=r"outside 2x3"):
            SparseMatrix(2, 3, {at: zeta(3)})
    assert issubclass(ShapeMismatch, HochkitError)
    assert SparseMatrix(0, 0) == SparseMatrix.identity(0) == SparseMatrix.zero(0, 0)


def test_realification_is_guarded_before_it_allocates(monkeypatch):
    # phi(12)^2 = 16 stored entries per entry over Q(zeta_12); a bound of 100
    # admits six entries and refuses seven, and a Q(zeta_3) matrix meeting a
    # Q(zeta_4) one is realified again at order 12 under the same bound
    monkeypatch.setattr(linalg, "MAX_REALIFIED", 100)
    z = zeta(12)
    assert SparseMatrix(2, 3, {(r, c): z for r in range(2) for c in range(3)}).nnz() == 6
    with pytest.raises(DegreeCapExceeded, match=r"realification of a 1x7 matrix with 7 entries "
                       r"over Q\(zeta_12\) has 7 x 4\^2 = 112 stored entries, above the guard 100"):
        SparseMatrix(1, 7, {(0, c): z for c in range(7)})
    thirds = SparseMatrix(1, 7, {(0, c): zeta(3) for c in range(7)})  # 7 x 2^2 = 28
    with pytest.raises(DegreeCapExceeded, match="1x7 matrix with 7 entries over Q"):
        thirds * SparseMatrix.from_dense([[zeta(4)]] * 7)


# --- realified matrices against the CycScalar-row oracle ----------------------
#
# `cyclotomic_rows` keeps the Gauss-Jordan on CycScalar rows that ran before
# cyclotomic matrices were stored realified.  Seeded draws over Q(zeta_n),
# n in 3, 4, 5, 8, 12, alone, mixed with each other and with rational
# matrices: every operation against dense CycScalar arithmetic, and every
# elimination against both the dense oracle and the row oracle.

def _field_scalar(rng, orders):
    order = rng.choice(orders)
    q = cyc(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    if order == 1 or rng.random() < 0.3:
        return q
    return q * zeta(order, rng.randrange(order)) + rng.randint(-1, 1)


def _field_table(rng, rows, cols, orders, density=0.5):
    return [[_field_scalar(rng, orders) if rng.random() < density else ZERO
             for _ in range(cols)] for _ in range(rows)]


def _from_rows(rows, cols):
    """The dense table of CycScalar dict rows."""
    return tuple(tuple(row.get(c, ZERO) for c in range(cols)) for row in rows)


@pytest.mark.parametrize("orders", [(3,), (4,), (5,), (8,), (12,), (1, 3), (1, 4), (1, 5),
                                    (1, 8), (1, 12), (3, 4), (1, 5, 8)])
def test_realified_matrices_match_the_cyclotomic_row_oracle(orders):
    rng = random.Random(1000 + 37 * sum(orders) + len(orders))
    for _ in range(10):
        rows, cols, k = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 3)
        ta = _field_table(rng, rows, cols, orders)
        if rows > 1 and rng.random() < 0.4:  # a row that depends on the others
            ta[-1] = [sum((x * y for x, y in zip(col, (ZERO, *map(cyc, range(1, rows))))), ZERO)
                      for col in _transposed(ta[:-1] + [[ZERO] * cols], cols)]
        a = SparseMatrix(rows, cols, _nonzero(ta))
        _check(a, rows, cols, ta)
        # operations
        mix = orders + (1,)
        tb = _field_table(rng, rows, cols, mix)
        b = SparseMatrix(rows, cols, _nonzero(tb))
        _check(a + b, rows, cols, [[x + y for x, y in zip(p, q)] for p, q in zip(ta, tb)])
        x = _field_scalar(rng, mix) or ONE
        _check(a.scale(x), rows, cols, [[x * y for y in row] for row in ta])
        _check(a.transpose(), cols, rows, _transposed(ta, cols))
        picked = [rng.randrange(rows) for _ in range(k)] if rows else []
        _check(a.take_rows(picked), len(picked), cols, [ta[i] for i in picked])
        tc = _field_table(rng, cols, k, mix)
        c = SparseMatrix(cols, k, _nonzero(tc))
        _check(a * c, rows, k, _d_mul(ta, tc, cols, k))
        _check(hstack(rows, [a, b]), rows, 2 * cols, [p + q for p, q in zip(ta, tb)])
        ts = _field_table(rng, 2, 2, mix)
        _check(kron(a, SparseMatrix(2, 2, _nonzero(ts))), 2 * rows, 2 * cols, _d_kron(ta, ts))
        _check(kron(SparseMatrix(2, 2, _nonzero(ts)), a), 2 * rows, 2 * cols, _d_kron(ts, ta))
        v = tuple(_field_scalar(rng, mix) for _ in range(cols))
        assert _fields(a.apply(v)) == _fields(_per_term(ta, v))
        # eliminations: the dense oracle, the row oracle and the realified engine
        reduced = tuple(map(tuple, _gauss_jordan(ta, cols)))
        assert _from_rows(cyclotomic_rows.canonical_rref(cyclotomic_rows.scalar_rows(a)),
                          cols) == reduced
        assert rank(a) == len(reduced) and _row_vectors(rref(a)) == reduced
        null = _row_vectors(nullspace(a))
        assert null == _oracle_nullspace(ta, cols) == _from_rows(
            cyclotomic_rows.nullspace(cyclotomic_rows.scalar_rows(a), cols), cols)
        free, proj = cokernel_projector(a)
        row_free, row_proj = cyclotomic_rows.cokernel_projector(
            cyclotomic_rows.scalar_rows(a), rows, cols)
        assert (free, _row_vectors(proj)) == (row_free, _from_rows(row_proj, rows))
        assert (free, proj) == (lambda f, e: (f, SparseMatrix(len(f), rows, e)))(
            *_oracle_cokernel(ta, rows, cols))
        rhs = SparseMatrix(rows, k, _nonzero(_d_mul(ta, tc, cols, k)))
        x = solve(a, rhs)
        expected = cyclotomic_rows.solve(cyclotomic_rows.scalar_rows(a),
                                         cyclotomic_rows.scalar_rows(rhs), cols)
        assert x is not None and _row_vectors(x) == _from_rows(expected, k)
        assert a * x == rhs
        # pivots over the field: rows and columns on which a has rank(a)
        pivot_rows, pivot_cols = a.pivots
        assert len(pivot_rows) == len(pivot_cols) == len(reduced)
        assert len(_gauss_jordan([ta[i] for i in pivot_rows], cols)) == len(reduced)
        assert len(_gauss_jordan([[row[j] for j in pivot_cols] for row in ta],
                                 len(pivot_cols))) == len(reduced)


def test_results_are_stored_at_their_conductor():
    z5, z12 = zeta(5), zeta(12)
    # a product of conjugates over Q(zeta_5) that lands in Q
    a = SparseMatrix.from_dense([[z5, z5 ** 2, 1], [2 * z5, 0, 0]])
    b = SparseMatrix.from_dense([[z5 ** 4, z5 ** 4 / 2], [z5 ** 3, 0], [1, 0]])
    product = a * b
    assert product.field_order == 1 and product == SparseMatrix.from_dense([[3, Fraction(1, 2)],
                                                                           [2, 1]])
    assert (product.den, product._rows) == (2, [{0: 6, 1: 1}, {0: 4, 1: 2}])
    # a Q(zeta_12) product whose entries lie in Q(zeta_4), and one in Q(zeta_3)
    left = SparseMatrix.from_dense([[z12, 1]])
    right = SparseMatrix.from_dense([[z12 ** 2, z12 ** 8], [z12 ** 3, 0]])
    built = SparseMatrix.from_dense([[2 * zeta(4), zeta(4) ** 3]])
    assert (left * right).field_order == 4 and left * right == built
    assert (left * right)._rows == built._rows
    thirds = SparseMatrix.from_dense([[z12, 1]]) * SparseMatrix.from_dense([[z12 ** 3], [z12 ** 4]])
    assert thirds.field_order == 3 and thirds == SparseMatrix.from_dense([[2 * zeta(3)]])
    # eliminations that leave the field: the rref of a multiple of a rational row
    assert rref(SparseMatrix.from_dense([[z12, 2 * z12, 0]])) == \
        SparseMatrix.from_dense([[1, 2, 0]])
    assert rref(SparseMatrix.from_dense([[z12, 2 * z12, 0]])).field_order == 1
    assert nullspace(SparseMatrix.from_dense([[z5, z5]])) == SparseMatrix.from_dense([[1, -1]])
