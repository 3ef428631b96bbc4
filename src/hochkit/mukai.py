"""Serre/partial traces, the pairing on HH_0, Chern characters, transfer
maps, and the identity verifiers built from them.

The center is read as one matrix throughout: Z = center_basis(a), whose
rows z_j are its canonical basis.  Every trace against the center basis is
Z applied to the traces of the basis actions, tr(z_j on M) =
sum_i Z[j, i] tr(rho(e_i)) (`_center_traces`), and `_classes` turns rows
into classes.

The three transfer maps of a kernel (pushforward on HH_0, its adjoint, and
the transport on HH^0) are linear.  Each is one `derived` matrix of the
kernel, the images of the center basis (from one pass over the kernel
applied to each simple) times the map reading coordinates at the basis
pivots, applied to an input class.  What depends on the algebra alone (the
pairing's dual basis, the simples' Chern expansion, endomorphisms, traces
and character system) is `derived` from the algebra, so per kernel only
the transport solves a system (`_solve_central`).

The transfer identities are matrix equations in those matrices, compared
entry by entry: adjointness Z_b T_b P_k Z_a^T = (P_dk Z_b^T)^T T_a Z_a^T for
the pushforwards P of a kernel k and of its dual dk, functoriality
P_(k2 o k1) Z^T = P_k2 P_k1 Z^T, and the Morita isometry Y T_b Y^T = Z T_a Z^T
for Y = Z P_k^T.  Row i |Z| + j of kron(Z, Z) times the product table is
z_i z_j, so the ring and module transports compare products with R_k and P_k.

Normalization, fixed throughout: the trace on End(M) is the ordinary
matrix trace, and the trace on bimodule endomorphisms (central elements)
is the regular trace of the algebra.  That pair is forced by asking the
pairing to be nondegenerate and the Riemann-Roch identity to hold on the
nose.  The Serre twist is trivial (symmetric Frobenius algebras only).
Both choices live in the trace form T = algebra.trace_form(a) alone: the
pairing is <v, w> = v^T T w and its Gram on the center basis is Z T Z^T.

Chern characters are never written down from idempotent formulas: they
are solved from the defining trace property <ch(M), f> = tr(f on M), so
the Riemann-Roch and Cardy checks are genuine theorem tests rather than
circular ones.  With z^v the basis of the center dual to the center basis
z under the pairing, ch(M) = sum_j tr(z_j on M) z_j^v, and the class of an
endomorphism e is sum_j tr(z_j|_M o e) z_j^v.  For an irreducible module
the solved class is the block idempotent divided by the module's
dimension.
"""

from __future__ import annotations

from typing import Optional

from .algebra import (
    Algebra, center_basis, commutator_maps, derived, matrix_algebra, product_table,
    regular_trace, tensor, trace_form,
)
from .errors import (
    AlgebraMismatch, AugmentationNot1Dim, HochkitError, MissingSerreData, NotIntertwiner,
    RoutesDisagree, ShapeMismatch, SingularGram,
)
from .hochschild import hh_cohomology_dims, hh_homology_dims
from .linalg import SparseMatrix, Vector, kron, rank, solve, vec
from .modules import (
    AppliedKernel, Bimodule, ModuleRep, apply_kernel, apply_kernel_full, convolve,
    dual_kernel, hom_space, is_intertwiner, simples_of,
)
from .scalars import CycScalar, ONE, ZERO, cyc, format_scalar


class MukaiClass:
    """An element of HH_0: a central element of an algebra with Frobenius data.

    Coordinates from outside are checked: their number, and that the element
    commutes with every generator.  That suffices, because the elements
    commuting with z form a subalgebra and products of generators span."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords: Vector, *, _checked=False):
        if algebra.serre is None:
            raise MissingSerreData("Mukai classes need Frobenius data")
        coords = vec(coords)
        if not _checked:
            if len(coords) != algebra.dim:
                raise ShapeMismatch(
                    f"{len(coords)} coordinates in a {algebra.dim}-dimensional algebra")
            for i, m in enumerate(commutator_maps(algebra)):
                if any(m.apply(coords)):
                    raise HochkitError(f"element is not central (fails at generator {i})")
        self.algebra = algebra
        self.coords = coords

    def __add__(self, other: "MukaiClass") -> "MukaiClass":
        self._same(other)
        return MukaiClass(self.algebra,
                          tuple(a + b for a, b in zip(self.coords, other.coords)),
                          _checked=True)

    def __sub__(self, other: "MukaiClass") -> "MukaiClass":
        self._same(other)
        return MukaiClass(self.algebra,
                          tuple(a - b for a, b in zip(self.coords, other.coords)),
                          _checked=True)

    def scale(self, c) -> "MukaiClass":
        c = cyc(c)
        return MukaiClass(self.algebra, tuple(c * x for x in self.coords), _checked=True)

    def _same(self, other: "MukaiClass"):
        if self.algebra != other.algebra:
            raise AlgebraMismatch("Mukai classes live over different algebras")

    def __eq__(self, other):
        return isinstance(other, MukaiClass) and self.algebra == other.algebra \
            and self.coords == other.coords

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        return f"MukaiClass{format_value(self.coords)}"


class CheckReport:
    """Outcome of one identity check: every compared pair, each side as
    `format_value` prints it, and whether all of them matched exactly.

    A comparison with an empty label is named by the report alone."""

    def __init__(self, name: str, check_id: str):
        self.name = name
        self.check_id = check_id
        self.comparisons: list[tuple[str, str, str, bool]] = []
        self.notes: list[str] = []

    @classmethod
    def single(cls, name: str, check_id: str, left, right, given: bool = True) -> "CheckReport":
        """A report of the one unlabeled comparison of left with right."""
        report = cls(name, check_id)
        report.compare("", left, right, given)
        return report

    def compare(self, label: str, left, right, given: bool = True) -> bool:
        """Record left == right; a comparison resting on earlier checks passes
        only when `given`, their verdict, holds too."""
        ok = left == right and given
        self.comparisons.append((label, format_value(left), format_value(right), ok))
        return ok

    def note(self, text: str):
        self.notes.append(text)

    @property
    def ok(self) -> bool:
        return all(ok for *_, ok in self.comparisons)

    def failures(self) -> list[tuple[str, str, str]]:
        return [(label, l, r) for label, l, r, ok in self.comparisons if not ok]

    def __repr__(self):
        status = "ok" if self.ok else f"FAIL({len(self.failures())})"
        return f"CheckReport({self.name}: {status}, {len(self.comparisons)} comparisons)"


def format_value(x) -> str:
    """A compared value as text: a scalar in scalar syntax, a vector or list
    as [a, b, ...], a matrix as its list of rows, anything else (ints, bools,
    Mukai classes, text already formatted) as str prints it."""
    if isinstance(x, CycScalar):
        return format_scalar(x)
    if isinstance(x, SparseMatrix):
        x = [x.row_vector(r) for r in range(x.rows)]
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(format_value(v) for v in x) + "]"
    return str(x)


# --- traces --------------------------------------------------------------------

def serre_trace(m: ModuleRep, f: SparseMatrix) -> CycScalar:
    """Trace of an intertwiner on a module (the Hom-pairing trace)."""
    if not is_intertwiner(f, m, m):
        raise NotIntertwiner("serre_trace needs an algebra-linear endomorphism")
    return f.trace()


def generalized_trace(mu: SparseMatrix, f_dim: int, g_dim: int, e_dim: int) -> SparseMatrix:
    """Partial trace over the second tensor factor: a map F (x) E -> G (x) E
    becomes a map F -> G.  Index convention: (i_F * e_dim + i_E)."""
    if mu.rows != g_dim * e_dim or mu.cols != f_dim * e_dim:
        raise ShapeMismatch(
            f"expected {g_dim * e_dim}x{f_dim * e_dim}, got {mu.rows}x{mu.cols}")
    return SparseMatrix(g_dim, f_dim, (((r // e_dim, c // e_dim), v)
                                       for r, c, v in mu.entries() if r % e_dim == c % e_dim))


def assemble_split_map(e: SparseMatrix, g: SparseMatrix, phi: SparseMatrix,
                       dim_e: int, dim_g: int, dim_h: int) -> SparseMatrix:
    """Build f: (E (+) G) -> H (x) (E (+) G) in the block form [[e, phi], [0, g]]
    coming from a split exact sequence; index (i_H * (e+g) + j)."""
    total = dim_e + dim_g
    entries = {}
    for r, c, v in e.entries():  # e: E -> H (x) E, index (i_H * e + i_E)
        ih, ie = divmod(r, dim_e)
        entries[(ih * total + ie, c)] = v
    for r, c, v in g.entries():  # g: G -> H (x) G
        ih, ig = divmod(r, dim_g)
        entries[(ih * total + dim_e + ig, dim_e + c)] = v
    for r, c, v in phi.entries():  # phi: G -> H (x) E
        ih, ie = divmod(r, dim_e)
        entries[(ih * total + ie, dim_e + c)] = v
    return SparseMatrix(dim_h * total, total, entries)


def trace_triangle_check(e: SparseMatrix, f: SparseMatrix, g: SparseMatrix,
                         dim_e: int, dim_g: int, dim_h: int) -> CheckReport:
    """For maps e: E -> H(x)E, g: G -> H(x)G and f on the split sum commuting
    with the inclusion and projection, the alternating sum of partial traces
    vanishes: Tr_E(e) - Tr_F(f) + Tr_G(g) = 0 in H.  The split hypotheses
    are compared first; the last comparison is that defect vector against 0."""
    report = CheckReport("trace triangle additivity", "trace-additivity")
    total = dim_e + dim_g
    if f.rows != dim_h * total or f.cols != total:
        raise ShapeMismatch("middle map has wrong shape for the split sum")
    # split hypotheses; a failing one compares its block of f with what it should be
    for i, (label, rows, cols, want) in enumerate((
            ("split hypothesis (no E->G block)", range(dim_e, total), range(dim_e),
             SparseMatrix.zero(dim_h * dim_g, dim_e)),
            ("f restricts to e on E", range(dim_e), range(dim_e), e),
            ("f induces g on G", range(dim_e, total), range(dim_e, total), g))):
        block = f.take_rows([ih * total + j for ih in range(dim_h) for j in rows])
        block = block.transpose().take_rows(cols).transpose()
        if block != want:
            report.compare(label, block, want)
        elif i == 0:  # a passing E -> G block is recorded too
            report.compare(label, True, True)
    # Tr_X of x: X -> H (x) X is the single column of its partial trace F = 1 -> H
    defect = (generalized_trace(e, 1, dim_h, dim_e) - generalized_trace(f, 1, dim_h, total)
              + generalized_trace(g, 1, dim_h, dim_g)).transpose().row_vector(0)
    report.compare("Tr_E(e) - Tr_F(f) + Tr_G(g)", defect, (ZERO,) * dim_h)
    return report


def hochschild_trace(a: Algebra, z: Vector) -> CycScalar:
    """The trace functional on HH_0: the regular trace of the element (for a
    group algebra, the regular character)."""
    if a.serre is None:
        raise MissingSerreData("hochschild_trace needs Frobenius data")
    return regular_trace(a, z)


# --- Chern characters and the pairing --------------------------------------------

def pairing_gram(a: Algebra) -> SparseMatrix:
    """Gram matrix Z T Z^T of the pairing on the center basis Z; full rank
    exactly when the pairing is nondegenerate on HH_0."""
    if a.serre is None:
        raise MissingSerreData("the pairing needs Frobenius data")
    z = center_basis(a)
    return z * trace_form(a) * z.transpose()


def _classes(a: Algebra, m: SparseMatrix) -> list[MukaiClass]:
    """The rows of m, central elements of `a`, as classes over `a`."""
    return [MukaiClass(a, m.row_vector(r), _checked=True) for r in range(m.rows)]


def _center_traces(m: ModuleRep, f: Optional[SparseMatrix] = None) -> Vector:
    """(tr(z_j on M))_j, or (tr(z_j|_M o f))_j when f is given, for the rows
    z_j of center_basis: Z applied to those traces of the basis actions."""
    acts = m.action if f is None else [act * f for act in m.action]
    return center_basis(m.algebra).apply(tuple(act.trace() for act in acts))


def _solve_central(a: Algebra, system: SparseMatrix, rhs: SparseMatrix,
                   why: str) -> SparseMatrix:
    """Z_a^T X with system X = rhs, for Z_a = center_basis(a).  Raises
    SingularGram(why) unless the system fixes every answer."""
    basis = center_basis(a).transpose()
    if rank(system) < basis.cols:
        raise SingularGram(why)
    x = solve(system, rhs)
    if x is None:
        raise SingularGram(why)
    return basis * x


@derived
def _center_coords(a: Algebra) -> SparseMatrix:
    """The |Z_a| x a.dim map reading a central element's coordinates in
    center_basis(a): its entries at the pivots of that reduced echelon basis."""
    z = center_basis(a)
    return SparseMatrix(z.rows, a.dim, {
        (r, next(i for i, c in enumerate(z.row_vector(r)) if c)): 1 for r in range(z.rows)})


@derived
def _dual_basis(a: Algebra) -> SparseMatrix:
    """D_a = Z_a^T G_a^-1 (a.dim x |Z_a|), solved once per algebra: column j is
    the central z_j^v with hochschild_trace(z_j^v * z_i) = [i == j] for the
    center basis z_i.  Raises SingularGram when the pairing is degenerate."""
    return _solve_central(a, pairing_gram(a), SparseMatrix.identity(center_basis(a).rows),
                          "trace pairing on the center is singular here")


def _from_traces(a: Algebra, traces: Vector) -> MukaiClass:
    """The unique central z with hochschild_trace(z * z_j) = traces[j] for
    the center basis z_j, which is sum_j traces[j] z_j^v."""
    return MukaiClass(a, _dual_basis(a).apply(traces), _checked=True)


def iota_solve(m: ModuleRep, e: SparseMatrix) -> MukaiClass:
    """The class of an endomorphism: the unique central z with
    hochschild_trace(z * f) = trace(f_M o e) for every central f, that is
    sum_j tr(z_j|_M o e) z_j^v over the dual basis of the pairing."""
    a = m.algebra
    if a.serre is None:
        raise MissingSerreData("iota_solve needs Frobenius data")
    if not is_intertwiner(e, m, m):
        raise NotIntertwiner("iota_solve needs an algebra-linear endomorphism")
    return _from_traces(a, _center_traces(m, e))


def chern(m: ModuleRep) -> MukaiClass:
    """Chern character: the class of the identity endomorphism, solved from
    the defining property  trace_{HH}(ch(M) * f) = trace(f on M), that is
    ch(M) = sum_j tr(z_j on M) z_j^v over the dual basis of the pairing."""
    a = m.algebra
    if a.serre is None:
        raise MissingSerreData("chern needs Frobenius data")
    return _from_traces(a, _center_traces(m))


def chern_additivity_check(m: ModuleRep, n: ModuleRep) -> CheckReport:
    report = CheckReport("chern additivity on split triangles", "chern-additivity")
    both = chern(m.direct_sum(n))
    summed = chern(m) + chern(n)
    report.compare("ch(M (+) N) = ch(M) + ch(N)", both, summed)
    if not report.ok:
        diff = both - summed
        report.note(f"defect vector: {format_value(diff.coords)}")
    return report


def mukai_pairing(v: MukaiClass, w: MukaiClass) -> CycScalar:
    """<v, w> = trace_{HH}(v * w) = v^T T w for the trace form T; symmetric,
    since the twist is trivial."""
    if v.algebra != w.algebra:
        raise AlgebraMismatch("pairing needs classes over the same algebra")
    tw = trace_form(v.algebra).apply(w.coords)
    return SparseMatrix.from_dense([tw]).apply(v.coords)[0]


def euler_pairing(m: ModuleRep, n: ModuleRep) -> int:
    """chi(M, N) for semisimple algebras: dim Hom(M, N), higher Ext vanishing."""
    return hom_space(m, n).dim


def hrr_check(m: ModuleRep, n: ModuleRep) -> CheckReport:
    """<ch(M), ch(N)> = chi(M, N), exactly."""
    report = CheckReport("riemann-roch pairing identity", "riemann-roch")
    pairing = mukai_pairing(chern(m), chern(n))
    chi = euler_pairing(m, n)
    report.compare(f"<ch {m.name}, ch {n.name}> = chi", pairing, cyc(chi))
    return report


def todd(a: Algebra, augmentation: ModuleRep) -> MukaiClass:
    """The distinguished class of the designated one-dimensional structure
    module (for a group algebra: the trivial representation)."""
    if augmentation.dim != 1:
        raise AugmentationNot1Dim("structure module must be one-dimensional")
    return chern(augmentation)


def todd_hrr_check(a: Algebra, augmentation: ModuleRep, m: ModuleRep) -> CheckReport:
    report = CheckReport("euler characteristic via the structure class", "todd-euler")
    td = todd(a, augmentation)
    lhs = mukai_pairing(td, chern(m))
    chi = hom_space(augmentation, m).dim
    report.compare(f"trace(Td * ch {m.name}) = chi({m.name})", lhs, cyc(chi))
    return report


def cardy_check(e_mod: ModuleRep, f_mod: ModuleRep,
                e: SparseMatrix, f: SparseMatrix) -> CheckReport:
    """<iota(e), iota(f)> equals the trace of T |-> f o T o e on Hom(E, F)."""
    report = CheckReport("cardy condition", "cardy")
    if not is_intertwiner(e, e_mod, e_mod) or not is_intertwiner(f, f_mod, f_mod):
        raise NotIntertwiner("cardy check needs intertwiner endomorphisms")
    pairing = mukai_pairing(iota_solve(e_mod, e), iota_solve(f_mod, f))
    homs = hom_space(e_mod, f_mod)
    operator_trace = ZERO
    if homs.dim:
        images = [f * t * e for t in homs.basis]
        for i, img in enumerate(images):
            coords = homs.coordinates_of(img)
            operator_trace = operator_trace + coords[i]
    report.compare("<iota(e), iota(f)> = tr(T -> f T e)", pairing, operator_trace)
    return report


# --- transfer maps ----------------------------------------------------------------

@derived
def _applied_simples(k: Bimodule) -> list[tuple[ModuleRep, AppliedKernel]]:
    """(S, K applied to S) for every simple S of the source, once per kernel."""
    return [(s, apply_kernel_full(k, s)) for s in simples_of(k.source)]


@derived
def _character_system(a: Algebra) -> tuple:
    """(End(S) bases, S_a, L_a) once per algebra: S_a has rows tr(z_j|_S o mu)
    (simples S, basis intertwiners mu) and full column rank, and L_a, with
    L_a S_a = 1, is a left inverse.  S_a X = R has at most one solution, and
    it has one, X = L_a R, iff S_a L_a R = R."""
    ends = [hom_space(s, s).basis for s in simples_of(a)]
    system = SparseMatrix.from_dense([_center_traces(s, mu) for s, basis
                                      in zip(simples_of(a), ends) for mu in basis])
    if rank(system) < center_basis(a).rows:
        raise SingularGram("character system of the simples does not determine z")
    return ends, system, solve(system.transpose(), SparseMatrix.identity(system.cols)).transpose()


@derived
def _adjoint_matrix(k: Bimodule) -> SparseMatrix:
    """Z_a^T X on target center coordinates, X = L_a R the one solution of
    S_a X = R, R the character rows of the K(S)."""
    ends, system, left_inverse = _character_system(k.source)
    rhs = SparseMatrix.from_dense([
        _center_traces(applied.module, applied.map_morphism(mu))
        for (_, applied), basis in zip(_applied_simples(k), ends) for mu in basis])
    x = left_inverse * rhs
    if system * x != rhs:
        raise SingularGram("character system of the simples does not determine z")
    return center_basis(k.source).transpose() * x * _center_coords(k.target)


def adjoint_transfer(k: Bimodule, nu: MukaiClass) -> MukaiClass:
    """Pull a class on the target back along the kernel: the unique central z
    over the source with trace(z on S o mu) = trace(nu on K(S) o K(mu)) for
    every simple S and basis intertwiner mu of End(S); see `_character_system`."""
    a, b = k.source, k.target
    if nu.algebra != b:
        raise AlgebraMismatch("class must live over the kernel's target")
    if a.serre is None or b.serre is None:
        raise MissingSerreData("adjoint transfer needs Frobenius data on both sides")
    return MukaiClass(a, _adjoint_matrix(k).apply(nu.coords), _checked=True)


@derived
def _chern_expansion(a: Algebra) -> SparseMatrix:
    """E_a, whose column j expands the center basis vector z_j over the ch(S)."""
    system = SparseMatrix.from_columns([chern(s).coords for s in simples_of(a)], a.dim)
    if (expansions := solve(system, center_basis(a).transpose())) is None:
        raise SingularGram("simples' Chern characters do not span the center")
    return expansions


@derived
def _pushforward_matrix(k: Bimodule) -> SparseMatrix:
    """The pushforward of `k` on coordinates, by the two routes of `pushforward`."""
    a, b = k.source, k.target
    expansions = _chern_expansion(a)  # route A
    pushed = SparseMatrix.from_columns(
        [chern(applied.module).coords for _, applied in _applied_simples(k)], b.dim)
    route_a = pushed * expansions
    # route B
    pulled = SparseMatrix.from_dense(
        [adjoint_transfer(k, nu).coords for nu in _classes(b, center_basis(b))])
    route_b = _dual_basis(b) * (pulled * trace_form(a) * center_basis(a).transpose())
    if route_a != route_b:
        for image_a, image_b in zip(_classes(b, route_a.transpose()),
                                    _classes(b, route_b.transpose())):
            if image_a != image_b:
                raise RoutesDisagree(
                    f"pushforward routes disagree: {image_a!r} vs {image_b!r}")
    return route_a * _center_coords(a)


def pushforward(k: Bimodule, v: MukaiClass) -> MukaiClass:
    """The map on HH_0 induced by a kernel.  Its images of the source center
    basis are computed once per kernel by two independent routes that must
    agree exactly:

    route A: expand each basis vector over the Chern characters of the
    source simples (solved once per source algebra) and map ch(S) to ch(K(S));
    route B: pair the adjoint transfer of each target basis vector nu with
    v, which gives <nu, w>, and apply the target's dual basis.

    Disagreement raises RoutesDisagree: it indicates an implementation bug
    and is never swallowed.
    """
    if v.algebra != k.source:
        raise AlgebraMismatch("class must live over the kernel's source")
    return MukaiClass(k.target, _pushforward_matrix(k).apply(v.coords), _checked=True)


def _compare_pairs(report: CheckReport, n: int, algebra: Optional[Algebra], *sides):
    """Record entry r of each (name, left, right) in turn as f"{name} ({r // n}, {r % n})":
    entries of the matrices in row-major order, or their rows as classes over `algebra`."""
    def values(m: SparseMatrix) -> list:
        return _classes(algebra, m) if algebra else [
            m.entry(r, c) for r in range(m.rows) for c in range(m.cols)]
    sides = [(name, values(left), values(right)) for name, left, right in sides]
    for r in range(len(sides[0][1])):
        for name, left, right in sides:
            report.compare(f"{name} ({r // n}, {r % n})", left[r], right[r])


def adjointness_check(k: Bimodule) -> CheckReport:
    """<v, K_* w>_target = <(dual K)_* v, w>_source on all center basis pairs."""
    report = CheckReport("adjointness of transfer maps", "adjoint-pairing")
    dk = dual_kernel(k)
    za_t, zb = center_basis(k.source).transpose(), center_basis(k.target)
    pushed = zb * trace_form(k.target) * _pushforward_matrix(k) * za_t
    pulled = (_pushforward_matrix(dk) * zb.transpose()).transpose() * trace_form(k.source) * za_t
    _compare_pairs(report, za_t.cols, None, ("pair", pushed, pulled))
    return report


def functoriality_check(k1: Bimodule, k2: Bimodule) -> CheckReport:
    """(K2 o K1)_* = (K2)_* o (K1)_* on the source center basis."""
    report = CheckReport("pushforward functoriality", "pushforward-composition")
    composed = convolve(k1, k2)
    z = center_basis(k1.source)
    direct = z * _pushforward_matrix(composed).transpose()
    stepped = z * _pushforward_matrix(k1).transpose() * _pushforward_matrix(k2).transpose()
    for i, (one, two) in enumerate(zip(_classes(k2.target, direct), _classes(k2.target, stepped))):
        report.compare(f"basis vector {i}", one, two)
    return report


def chern_commutation_check(k: Bimodule, m: ModuleRep) -> CheckReport:
    """Pushforward commutes with the Chern character: K_* ch(M) = ch(K(M))."""
    report = CheckReport("pushforward commutes with chern", "chern-commutation")
    lhs = pushforward(k, chern(m))
    rhs = chern(apply_kernel(k, m))
    report.compare(f"K_* ch({m.name}) = ch(K {m.name})", lhs, rhs)
    return report


def morita_kernel(a: Algebra, n: int) -> Bimodule:
    """The row-space kernel implementing the equivalence between A and
    M_n (x) A: the space C^n (x) A with matrix action on the left and algebra
    multiplication on both sides."""
    id_n = SparseMatrix.identity(n)
    left = [kron(SparseMatrix(n, n, {(p, q): ONE}), a.basis_left_mult(x))
            for p in range(n) for q in range(n) for x in range(a.dim)]
    return Bimodule(a, tensor(matrix_algebra(n), a), n * a.dim, left,
                    [kron(id_n, a.basis_right_mult(y)) for y in range(a.dim)],
                    name=f"morita({n})")


@derived
def _simple_traces(a: Algebra) -> list[Vector]:
    """(tr(z_j on S))_j for every simple S of `a`."""
    return [_center_traces(s) for s in simples_of(a)]


@derived
def _transport_matrix(k: Bimodule) -> SparseMatrix:
    """`cohomology_transport` on coordinates: its images of the center basis."""
    rows, rhs = [], []
    for (s, applied), traces in zip(_applied_simples(k), _simple_traces(k.source)):
        rows.append(_center_traces(applied.module))
        # the scalar by which each source basis vector acts on S
        omegas = [t / cyc(s.dim) for t in traces]
        rhs.append([omega * cyc(applied.module.dim) for omega in omegas])
    images = _solve_central(k.target, SparseMatrix.from_dense(rows),
                            SparseMatrix.from_dense(rhs),
                            "kernel images do not determine the transported element")
    return images * _center_coords(k.source)


def cohomology_transport(k: Bimodule, nu: MukaiClass) -> MukaiClass:
    """Transport a central element along an equivalence kernel: the unique
    central element of the target acting on each K(S) by the same scalar by
    which nu acts on the simple S.  This is the degree-0 piece of the ring
    isomorphism on cohomology (distinct from the pushforward on homology).
    The images of the source center basis are solved once per kernel."""
    if nu.algebra != k.source:
        raise AlgebraMismatch("element must live over the kernel's source")
    return MukaiClass(k.target, _transport_matrix(k).apply(nu.coords), _checked=True)


def morita_isometry_check(a: Algebra, n: int,
                          hh_maxdeg: Optional[int] = None) -> CheckReport:
    """The Morita kernel induces a bijective isometry on HH_0; the ring
    structure transports along the kernel on HH^0 and the two transports
    intertwine central multiplication (the module structure).  Optionally
    also compare all Hochschild dimensions through hh_maxdeg."""
    report = CheckReport(f"morita invariance vs M_{n} amplification", "morita-invariance")
    if a.serre is None:
        raise MissingSerreData("morita check needs Frobenius data")
    k = morita_kernel(a, n)
    b = k.target
    z = center_basis(a)
    report.compare("HH_0 dimensions equal", z.rows, center_basis(b).rows)
    push_t, move_t = _pushforward_matrix(k).transpose(), _transport_matrix(k).transpose()
    images, moved = z * push_t, z * move_t
    report.compare("pushforward is injective on HH_0", rank(images), z.rows)
    _compare_pairs(report, z.rows, None, (
        "pairing preserved", images * trace_form(b) * images.transpose(), pairing_gram(a)))
    report.compare("ring transport sends unit to unit",
                   cohomology_transport(k, MukaiClass(a, a.unit, _checked=True)),
                   MukaiClass(b, b.unit, _checked=True))
    products, table = kron(z, z) * product_table(a), product_table(b)
    _compare_pairs(report, z.rows, b, (
        "ring transport multiplicative", products * move_t, kron(moved, moved) * table), (
        "central module structure intertwined", products * push_t, kron(moved, images) * table))
    if hh_maxdeg is not None:
        report.compare("homology dims equal",
                       hh_homology_dims(a, hh_maxdeg).dims,
                       hh_homology_dims(b, hh_maxdeg).dims)
        report.compare("cohomology dims equal",
                       hh_cohomology_dims(a, hh_maxdeg).dims,
                       hh_cohomology_dims(b, hh_maxdeg).dims)
    else:
        report.note("hochschild dimension comparison skipped (no degree requested)")
    return report
