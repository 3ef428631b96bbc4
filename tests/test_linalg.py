import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from hochkit import linalg
from hochkit.linalg import (
    SparseMatrix, Subspace, _canonical_rref, _copy_rows, _eliminate, _reduced_rows,
    cokernel_projector, kron, nullspace, rank, rref, solve, unit_vector, vec,
)
from hochkit.scalars import ONE, ZERO, cyc, zeta

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
    assert ns.dim == m.cols - rank(m)
    for v in ns.basis:
        assert all(not x for x in m.apply(v))


@settings(max_examples=30, deadline=None)
@given(matrices())
def test_rref_idempotent_property(m):
    s1 = rref([m.row_vector(r) for r in range(m.rows)], m.cols)
    s2 = rref(s1.basis, m.cols)
    assert s1 == s2


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


def test_rank_identity_and_zero():
    assert rank(SparseMatrix.identity(5)) == 5
    assert rank(SparseMatrix.zero(3, 4)) == 0


def test_rank_all_ones():
    m = SparseMatrix.from_dense([[1, 1, 1]] * 3)
    assert rank(m) == 1


def test_rank_transpose_invariance():
    rng = random.Random(7)
    for _ in range(10):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), order=4)
        assert rank(m) == rank(m.transpose())


def test_nullspace_identity():
    assert nullspace(SparseMatrix.identity(3)).dim == 0


def test_nullspace_rank_one():
    m = SparseMatrix.from_dense([[1, 1], [1, 1]])
    ns = nullspace(m)
    assert ns.dim == 1
    assert ns.contains(vec([1, -1]))


def test_rank_nullity():
    rng = random.Random(11)
    for _ in range(8):
        m = random_matrix(rng, 6, 10, density=0.35, order=3)
        ns = nullspace(m)
        assert ns.dim == 10 - rank(m)
        for v in ns.basis:
            assert all(not x for x in m.apply(v))


def test_solve_identity():
    b = vec([2, Fraction(1, 3), -1])
    assert solve(SparseMatrix.identity(3), b) == b


def test_solve_inconsistent():
    assert solve(SparseMatrix.zero(2, 3), vec([1, 0])) is None


def test_solve_substitute_back():
    rng = random.Random(13)
    for _ in range(8):
        m = random_matrix(rng, 5, 7, density=0.4, order=4)
        x0 = vec([rng.randint(-3, 3) for _ in range(7)])
        b = m.apply(x0)
        x = solve(m, b)
        assert x is not None
        assert m.apply(x) == b


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
    columns = [tuple(m.entry(r, c) for r in range(m.rows)) for c in range(m.cols)]
    basis = rref(columns, m.rows).basis
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


def _dense_gauss_jordan(rows, ambient):
    """Textbook reduced row echelon form: leading-column pivots, left to
    right, on dense rows; returns the nonzero rows as sparse dicts."""
    m = [[row.get(j, ZERO) for j in range(ambient)] for row in rows]
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
    return [{j: x for j, x in enumerate(row) if x} for row in m[:top]]


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
        expected = _dense_gauss_jordan(m._rows, ambient)
        assert _canonical_rref(_copy_rows(m)) == expected
        assert _reduced_rows(_copy_rows(m), ambient) == expected


def test_rref_idempotent():
    rng = random.Random(23)
    for _ in range(8):
        vs = [vec([rng.randint(-2, 2) for _ in range(6)]) for _ in range(4)]
        s1 = rref(vs, 6)
        s2 = rref(s1.basis, 6)
        assert s1 == s2


def test_subspace_canonical_form():
    # two spanning sets of the same plane give identical objects
    s1 = Subspace(3, [vec([1, 1, 0]), vec([0, 0, 1])])
    s2 = Subspace(3, [vec([2, 2, 2]), vec([0, 0, -5]), vec([1, 1, 1])])
    assert s1 == s2
    assert s1.contains(vec([3, 3, 7]))
    assert not s1.contains(vec([1, 0, 0]))


def test_matmul_and_trace():
    a = SparseMatrix.from_dense([[1, 2], [3, 4]])
    b = SparseMatrix.from_dense([[0, 1], [1, 0]])
    assert (a * b) == SparseMatrix.from_dense([[2, 1], [4, 3]])
    assert a.trace() == cyc(5)


def test_dump_format():
    m = SparseMatrix.from_dense([[1, 0], [0, zeta(3)]])
    text = m.dump()
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
        assert ns.dim == 6 - rank(m)
        for v in ns.basis:
            assert all(not x for x in m.apply(v))
        x0 = vec([rng.randint(-2, 2) for _ in range(6)])
        b = m.apply(x0)
        x = solve(m, b)
        assert x is not None and m.apply(x) == b


# --- the integer route for rational matrices ------------------------------------
#
# A matrix whose entries are all rational is eliminated and multiplied on
# Python ints; the field route (CycScalar arithmetic throughout) is kept as
# the oracle by patching out the rationality test.

def _rational_matrix(rng, rows, cols):
    """Integers, non-integer and very large rationals, and some zero rows."""
    entries = {}
    for r in range(rows):
        if rng.random() < 0.2:
            continue
        for c in range(cols):
            roll = rng.random()
            if roll < 0.25:
                entries[(r, c)] = cyc(rng.randint(-3, 3))
            elif roll < 0.4:
                entries[(r, c)] = cyc(Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
            elif roll < 0.45:
                entries[(r, c)] = cyc(Fraction(rng.randint(-10 ** 30, 10 ** 30),
                                               rng.randint(1, 10 ** 12)))
    return SparseMatrix(rows, cols, entries)


def _rational_cases():
    rng = random.Random(53)
    shapes = [(0, 0), (0, 4), (5, 0), (1, 1), (3, 3)]
    shapes += [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(40)]
    for rows, cols in shapes:
        yield _rational_matrix(rng, rows, cols), rng
    for _ in range(15):  # low rank: nontrivial nullspaces and cokernels
        rows, cols, k = rng.randint(2, 9), rng.randint(2, 9), rng.randint(1, 3)
        yield _rational_matrix(rng, rows, k) * _rational_matrix(rng, k, cols), rng


def _right_hand_sides(rng, m):
    """Consistent, random, and nonzero on a zero row of m (a row supported
    only on the augmented column that `solve` protects from pivoting)."""
    x = [cyc(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for _ in range(m.cols)]
    bs = [m.apply(tuple(x)),
          tuple(cyc(Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(m.rows))]
    zero_rows = [r for r in range(m.rows) if not m._rows[r]]
    if zero_rows:
        b = list(m.apply(tuple(x)))
        b[zero_rows[0]] = cyc(Fraction(7, 3))
        bs.append(tuple(b))
    return bs


def _elimination_outputs(m, bs, other):
    data = _copy_rows(m)
    pivots = _eliminate(data, m.cols, want_reduced=True)
    return {"pivots": pivots, "pivot rows": [data[r] for r, _ in pivots],
            "reduced rows": _reduced_rows(_copy_rows(m), m.cols),
            "rank": rank(m), "nullspace": nullspace(m),
            "solve": [solve(m, b) for b in bs],
            "cokernel": cokernel_projector(m),
            "product": m * other, "transposed product": other.transpose() * m.transpose()}


def test_integer_route_matches_field_route(monkeypatch):
    cases, solved = 0, set()
    for m, rng in _rational_cases():
        bs = _right_hand_sides(rng, m)
        other = _rational_matrix(rng, m.cols, rng.randint(0, 5))
        data = _copy_rows(m)
        _eliminate(data, m.cols)
        assert all(type(v) is int for row in data for v in row.values())
        integer = _elimination_outputs(m, bs, other)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_all_rational", lambda rows: False)
            field = _elimination_outputs(m, bs, other)
        for key in field:
            assert integer[key] == field[key], key
        solved.update(x is None for x in integer["solve"])
        cases += 1
    assert cases >= 50 and solved == {True, False}


SHAPE_ERRORS_SCRIPT = """
from hochkit.errors import ShapeMismatch
from hochkit.linalg import SparseMatrix, Subspace, solve, vec

m = SparseMatrix.from_dense([[1, 2, 3], [4, 5, 6]])
plane = Subspace(3, [vec([1, 2, 3])])
cases = {
    "from_dense": lambda: SparseMatrix.from_dense([[1, 2], [3]]),
    "from_columns": lambda: SparseMatrix.from_columns([vec([1, 2])], 3),
    "__add__": lambda: m + SparseMatrix.identity(2),
    "__mul__": lambda: m * m,
    "apply": lambda: m.apply(vec([1, 2])),
    "trace": lambda: m.trace(),
    "Subspace": lambda: Subspace(3, [vec([1, 2])]),
    "contains": lambda: plane.contains(vec([1])),
    "solve": lambda: solve(m, vec([1, 2, 3])),
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
