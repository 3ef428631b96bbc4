"""Finite-dimensional unital associative algebras over Q(zeta_n).

An Algebra packages its multiplication, the unit, optional symmetric
Frobenius trace data and a provenance record.  The multiplication is read
in one place, `product_table(a)`, the dim^2 x dim matrix T whose row
i * dim + j is e_i e_j: from the structure constants of a custom algebra
(a `DictSC`), from the factors' tables for a tensor product or an opposite.
Everything else that multiplies is a product with T: `mul`, equality, the
multiplication matrices, the regular traces and the forms (through
`linalg.reshape`), the identities `validate` checks, and the unit split,
bar tables and cup and cap of `hochschild`.

Constructed algebras are validated (group tables, matrix algebras and
file input eagerly; combinators inherit validity from their factors) and
immutable afterwards.  Data derived from an immutable object is built by a
`derived` function, which keeps it in the object's one `_derived` dict:
here the product table, a combinator's structure constants, the
multiplication matrices, the trace column, the center basis, the trace
form and the unit split; in `mukai` the transfer data of algebras and
kernels; in `tqft` and `hochschild` the generator kernels, the ranks of a
complex and the cup and cap matrices.

Subspaces are canonical row matrices: the center (`center_basis`) and the
commutator subspace (`commutator_subspace`) are each the reduced echelon
basis `linalg.rref` gives, one row per basis vector, so equal subspaces
are equal matrices; both are read off the generators' `commutator_maps`.
"""

from __future__ import annotations

from functools import wraps
from math import lcm
from typing import Optional, Sequence

from .errors import (
    AlgebraDefect, DegenerateFrobeniusForm, HochkitError, NotAGroup, NotAssociative,
    ShapeMismatch, UnitLawFails,
)
from .linalg import (
    SparseMatrix, Vector, hstack, kron, nullspace, rank, reshape, rref, swap, unit_vector, vec,
)
from .scalars import CycScalar, ONE, ZERO

SparseVec = dict[int, CycScalar]


def derived(build):
    """`build(obj, *args)`, built once per object and arguments and kept in
    `obj._derived`; a build that raises keeps nothing."""
    @wraps(build)
    def get(obj, *args):
        try:
            return obj._derived[(build, *args)]
        except KeyError:
            value = obj._derived[(build, *args)] = build(obj, *args)
            return value
    return get


class DictSC:
    """Structure constants as given: (i, j) -> sparse coordinate dict of
    e_i*e_j, the input form of a custom algebra, read by `product_table`."""

    def __init__(self, table: dict[tuple[int, int], SparseVec]):
        self.table = {ij: {k: v for k, v in row.items() if v} for ij, row in table.items()}

    def product(self, i, j):
        return self.table.get((i, j), {})


class SerreData:
    """Symmetric Frobenius trace data; only the trivial Nakayama twist is
    supported, which is exactly the symmetric-algebra case."""

    __slots__ = ("functional",)

    def __init__(self, functional: Vector):
        self.functional = vec(functional)


class Algebra:
    def __init__(self, dim: int, sc: Optional[DictSC], unit: Vector,
                 labels: Optional[Sequence[str]] = None,
                 serre: Optional[SerreData] = None,
                 field_order: int = 1,
                 gens: Optional[Sequence[Vector]] = None,
                 provenance: tuple = ("custom",),
                 validated: bool = False):
        self.dim = dim
        self._sc = sc  # None for a combinator, whose table comes from its factors
        self.unit = vec(unit)
        self.labels = tuple(labels) if labels else tuple(f"e{i}" for i in range(dim))
        if len(self.labels) != dim or len(self.unit) != dim:
            raise ShapeMismatch(f"{len(self.labels)} labels and a unit of length "
                                f"{len(self.unit)} for an algebra of dimension {dim}")
        self.serre = serre
        self.field_order = field_order
        # generating set (as coordinate vectors); products of generators span,
        # which lets balanced tensor products use far fewer relation columns
        self.gens = tuple(vec(g) for g in gens) if gens is not None \
            else tuple(unit_vector(dim, i) for i in range(dim))
        self.provenance = provenance
        self.simple_reps: Optional[tuple] = None  # attached by fixtures
        self._derived: dict = {}
        self._validated_on_build = not validated
        if not validated:
            validate(self)

    @property
    def sc(self) -> DictSC:
        """The structure constants: a custom algebra's own, a combinator's
        read off its product table once."""
        return self._sc if self._sc is not None else _table_constants(self)

    # --- multiplication ---

    def mul(self, x: Vector, y: Vector) -> Vector:
        """xy = kron(x, y) T."""
        return (kron(SparseMatrix.from_dense([x]), SparseMatrix.from_dense([y]))
                * product_table(self)).row_vector(0)

    def basis_vector(self, i: int) -> Vector:
        return unit_vector(self.dim, i)

    def left_mult_matrix(self, x: Vector) -> SparseMatrix:
        """Matrix of a |-> x * a on the basis: column k is x e_k."""
        return (kron(SparseMatrix.from_dense([x]), SparseMatrix.identity(self.dim))
                * product_table(self)).transpose()

    def right_mult_matrix(self, x: Vector) -> SparseMatrix:
        """Matrix of a |-> a * x on the basis: column k is e_k x."""
        return (kron(SparseMatrix.identity(self.dim), SparseMatrix.from_dense([x]))
                * product_table(self)).transpose()

    @derived
    def basis_left_mult(self, i: int) -> SparseMatrix:
        return product_table(self).take_rows(range(i * self.dim, (i + 1) * self.dim)).transpose()

    @derived
    def basis_right_mult(self, i: int) -> SparseMatrix:
        return product_table(self).take_rows(range(i, self.dim ** 2, self.dim)).transpose()

    # --- identity / comparison ---

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Algebra):
            return NotImplemented
        if (self.dim, self.field_order) != (other.dim, other.field_order):
            return False
        if self.provenance == other.provenance and self.provenance[0] != "custom":
            return True
        return self.unit == other.unit and product_table(self) == product_table(other)

    def __hash__(self):
        return hash((self.dim, self.field_order, self.unit))

    def __repr__(self):
        return f"Algebra({self.provenance[0]}, dim {self.dim})"

    def is_semisimple(self) -> bool:
        """Nondegeneracy of `trace_form`, the characteristic-zero criterion
        for semisimplicity.  In characteristic zero A (x) B is semisimple
        iff A and B are, and op(A) iff A is, so combinators ask their
        factors instead.  `rank` keeps its pivots on the cached form, so a
        second call does no elimination."""
        kind, *factors = self.provenance
        if kind in ("tensor", "opposite"):
            return all(f.is_semisimple() for f in factors)
        return rank(trace_form(self)) == self.dim


# --- validation -------------------------------------------------------------

def validate(a: Algebra) -> None:
    """Check the unit laws L(u) = R(u) = 1, that products of the generators
    span the algebra (growing the reduced rows W by W L(g)^T), associativity
    kron(L(g)^T, 1) T = T L(g)^T for each generator g, whose row j * dim + k
    reads (g e_j) e_k = g (e_j e_k), and (if present) symmetry and
    nondegeneracy of the Frobenius form, for L and R the multiplication
    matrices and T = `product_table(a)`.  Raises the first defect found, with
    its witness: the lowest basis index failing a unit law, or the first
    generator and then the lowest pair (j, k).

    Associativity on all triples follows by induction on word length: the x
    with (xy)z = x(yz) for all y, z form a subspace holding the unit and
    closed under left multiplication by each generator that passed."""
    one = SparseMatrix.identity(a.dim)
    defects = [m - one for m in (a.left_mult_matrix(a.unit), a.right_mult_matrix(a.unit))]
    if not all(m.is_zero() for m in defects):
        raise UnitLawFails(min(c for m in defects for _, c, _ in m.entries()))
    left_t = [a.left_mult_matrix(g).transpose() for g in a.gens]
    words = rref(SparseMatrix.from_dense([a.unit]))
    while words.rows < a.dim:
        grown = rref(hstack(a.dim, [words.transpose()] + [
            (words * m).transpose() for m in left_t]).transpose())
        if grown.rows == words.rows:
            raise AlgebraDefect(f"products of the {len(a.gens)} generators span "
                                f"{words.rows} of {a.dim} dimensions")
        words = grown
    table = product_table(a)
    for i, m in enumerate(left_t):
        defect = kron(m, one) * table - table * m
        if not defect.is_zero():
            raise NotAssociative(i, *divmod(next(defect.entries())[0], a.dim))
    if a.serre is None:
        return
    gram = _form(a, SparseMatrix.from_columns([a.serre.functional], a.dim))
    if gram != gram.transpose():
        raise DegenerateFrobeniusForm("form is not symmetric")
    if rank(gram) != a.dim:
        raise DegenerateFrobeniusForm("gram matrix is singular")


# --- constructors -------------------------------------------------------------

def group_algebra(mult_table: Sequence[Sequence[int]],
                  labels: Optional[Sequence[str]] = None,
                  gens: Optional[Sequence[int]] = None,
                  name: str = "group") -> Algebra:
    """Group algebra of the group given by an index multiplication table.

    The Frobenius trace picks out the coefficient of the identity, and the
    scalar field is Q(zeta_e) for e the exponent of the group, so every
    character value of the group is representable.
    """
    n = len(mult_table)
    table = [list(row) for row in mult_table]
    for row in table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise NotAGroup("table is not square over indices 0..n-1")
    identity = None
    for e in range(n):
        if all(table[e][g] == g and table[g][e] == g for g in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no two-sided identity")
    for g in range(n):
        if not any(table[g][h] == identity and table[h][g] == identity for h in range(n)):
            raise NotAGroup(f"element {g} has no inverse")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise NotAGroup(f"associativity fails at ({i}, {j}, {k})")
    exponent = 1
    for g in range(n):
        order, x = 1, g
        while x != identity:
            x = table[x][g]
            order += 1
        exponent = lcm(exponent, order)
    sc = DictSC({(i, j): {table[i][j]: ONE} for i in range(n) for j in range(n)})
    functional = [ONE if g == identity else ZERO for g in range(n)]
    gen_vectors = None
    if gens is not None:
        gen_vectors = [unit_vector(n, g) for g in gens]
    return Algebra(
        n, sc, unit_vector(n, identity), labels=labels,
        serre=SerreData(functional), field_order=exponent, gens=gen_vectors,
        provenance=("group", name, tuple(tuple(row) for row in table), identity),
        validated=True,  # group axioms verified above imply the algebra ones
    )


def matrix_algebra(n: int) -> Algebra:
    """Full matrix algebra with basis e_ij (row-major) and trace Frobenius form."""
    if n < 1:
        raise HochkitError(f"matrix algebra needs n >= 1, got {n}")

    def idx(i, j):
        return i * n + j
    table: dict[tuple[int, int], SparseVec] = {
        (idx(i, j), idx(j, l)): {idx(i, l): ONE} for i in range(n) for j in range(n)
        for l in range(n)}
    labels = [f"e{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    unit = [ONE if i == j else ZERO for i in range(n) for j in range(n)]
    gens = [vec([1])] if n == 1 else [unit_vector(n * n, idx(i, (i + 1) % n)) for i in range(n)]
    return Algebra(n * n, DictSC(table), unit, labels=labels,
                   serre=SerreData(unit), field_order=1, gens=gens,
                   provenance=("matrix", n))


def truncated_poly(k: int) -> Algebra:
    """C[x]/x^k; not symmetric-Frobenius here (no Serre data), but all
    Hochschild computations apply."""
    if k < 2:
        raise HochkitError(f"truncated polynomial algebra needs k >= 2, got {k}")
    table = {(i, j): ({i + j: ONE} if i + j < k else {})
             for i in range(k) for j in range(k)}
    labels = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, k)]
    return Algebra(k, DictSC(table), unit_vector(k, 0), labels=labels,
                   serre=None, field_order=1, gens=[unit_vector(k, 1)],
                   provenance=("trunc", k))


def field_algebra() -> Algebra:
    return Algebra(1, DictSC({(0, 0): {0: ONE}}), vec([1]), labels=["1"],
                   serre=SerreData(vec([1])), field_order=1, gens=[],
                   provenance=("field",), validated=True)


def opposite(a: Algebra) -> Algebra:
    return Algebra(a.dim, None, a.unit, labels=a.labels,
                   serre=a.serre, field_order=a.field_order, gens=a.gens,
                   provenance=("opposite", a), validated=True)


def tensor(a: Algebra, b: Algebra) -> Algebra:
    unit = tuple(ua * ub for ua in a.unit for ub in b.unit)
    labels = [f"{la}(x){lb}" for la in a.labels for lb in b.labels]
    serre = None
    if a.serre is not None and b.serre is not None:
        serre = SerreData(tuple(x * y for x in a.serre.functional
                                for y in b.serre.functional))
    gens = [tuple(ga * ub for ga in g for ub in b.unit) for g in a.gens] + \
        [tuple(ua * gb for ua in a.unit for gb in g) for g in b.gens]
    return Algebra(a.dim * b.dim, None, unit, labels=labels, serre=serre,
                   field_order=lcm(a.field_order, b.field_order), gens=gens,
                   provenance=("tensor", a, b), validated=True)


def enveloping(a: Algebra) -> Algebra:
    return tensor(a, opposite(a))


# --- structural operations ---------------------------------------------------

@derived
def product_table(a: Algebra) -> SparseMatrix:
    """Row i * dim + j is e_i e_j, built once per algebra: a custom algebra's
    structure constants; for A (x) B the Kronecker product of the factors'
    tables, whose rows (i_a, j_a, i_b, j_b) are relabelled (i_a, i_b, j_a, j_b)
    by 1 (x) swap (x) 1; for op(A) the table of A, rows (i, j) and (j, i)
    exchanged."""
    d = a.dim
    kind, *factors = a.provenance
    if kind == "opposite":
        return swap(d, d) * product_table(factors[0])
    if kind == "tensor":
        x, y = factors
        relabel = kron(SparseMatrix.identity(x.dim),
                       kron(swap(x.dim, y.dim), SparseMatrix.identity(y.dim)))
        return relabel * kron(product_table(x), product_table(y))
    return SparseMatrix(d * d, d, (((i * d + j, k), v) for i in range(d) for j in range(d)
                                   for k, v in a.sc.product(i, j).items()))


@derived
def _table_constants(a: Algebra) -> DictSC:
    """A combinator's structure constants, read off its product table."""
    table: dict[tuple[int, int], SparseVec] = {}
    for r, k, v in product_table(a).entries():
        table.setdefault(divmod(r, a.dim), {})[k] = v
    return DictSC(table)


@derived
def commutator_maps(a: Algebra) -> tuple[SparseMatrix, ...]:
    """For each generator g, the matrix of x |-> gx - xg; its column j is [g, e_j]."""
    return tuple(a.left_mult_matrix(g) - a.right_mult_matrix(g) for g in a.gens)


@derived
def center_basis(a: Algebra) -> SparseMatrix:
    """Z(A) as the rows of its canonical reduced echelon basis: the
    `nullspace` of the maps x |-> gx - xg stacked over the generators,
    computed once per algebra; a central element's coordinates in it are its
    entries at the row pivots.  The generators suffice: what commutes with
    each generator commutes with their products, and those span."""
    return nullspace(hstack(a.dim, [m.transpose() for m in commutator_maps(a)]).transpose())


def commutator_subspace(a: Algebra) -> SparseMatrix:
    """[A, A] as the rows of its canonical reduced echelon basis (`rref` of
    the commutators [g, e_j] of generators g with basis elements); its
    codimension is dim HH_0.  They span: [gw, c] = [g, wc] + [w, cg] for a
    generator g and a word w, so by induction on its length the commutator
    of every word in the generators with anything lies in their span."""
    return rref(hstack(a.dim, commutator_maps(a)).transpose())


@derived
def _trace_column(a: Algebra) -> SparseMatrix:
    """tau, the column of regular traces tr L(e_i) = sum_j c_ij^j: row i of
    reshape(T, dim, dim^2) holds c_ij^k at j * dim + k, and vec(1) picks k = j."""
    d = a.dim
    return reshape(product_table(a), d, d * d) * reshape(SparseMatrix.identity(d), d * d, 1)


def regular_trace(a: Algebra, x: Vector) -> CycScalar:
    """Trace of left multiplication by x on the algebra itself: x tau."""
    return _trace_column(a).transpose().apply(x)[0]


def _form(a: Algebra, f: SparseMatrix) -> SparseMatrix:
    """The bilinear form (x, y) |-> f(xy) of a functional f, a column on the
    basis: T f holds f(e_i e_j) at row i * dim + j, reshaped as dim x dim."""
    return reshape(product_table(a) * f, a.dim, a.dim)


@derived
def trace_form(a: Algebra) -> SparseMatrix:
    """The regular trace form (x, y) |-> regular_trace(xy), built once per
    algebra: it decides semisimplicity and is the pairing on HH_0."""
    return _form(a, _trace_column(a))


class UnitSplit:
    """A = C.unit (+) Abar, where Abar is spanned by the basis elements off
    i0, the first coordinate on which the unit u is supported: `bar_indices`
    are the interior letters of the reduced bar construction.  Row s * r + t
    of `merge` is the class in Abar of the product of letters s and t (of r),
    in which e_(i0) is -(1/u_(i0)) sum_(k != i0) u_k e_k."""

    def __init__(self, algebra: Algebra):
        u, d = algebra.unit, algebra.dim
        i0 = next(i for i, c in enumerate(u) if c)
        self.bar_indices = letters = tuple(i for i in range(d) if i != i0)
        products = product_table(algebra).take_rows([x * d + y for x in letters
                                                     for y in letters])
        project = SparseMatrix(d, len(letters), [((k, t), ONE) for t, k in enumerate(letters)]
                               + [((i0, t), -u[k] / u[i0]) for t, k in enumerate(letters) if u[k]])
        self.merge = products * project


a_unit_split = derived(UnitSplit)
