"""Finite-dimensional modules, bimodule kernels, and the kernel calculus.

Conventions (fixed once, used everywhere):

* A ModuleRep over A is a LEFT A-module: action(e_i) are matrices acting on
  column vectors with action(e_i) action(e_j) = sum_k c_ij^k action(e_k).
* A right A-module is carried as a ModuleRep over opposite(A).
* A kernel from A to B (Bimodule with source A, target B) is a (B, A)-
  bimodule, kept as its two commuting actions on one space: `left`, a
  ModuleRep over B, and `right`, a ModuleRep over opposite(A).  The
  induced integral transform is M |-> K (x)_A M : LMod(A) -> LMod(B).
  Composition is convolve(k1: A->B, k2: B->C) = K2 (x)_B K1, so that
  apply(convolve(k1, k2)) = apply(k2) o apply(k1) on the nose.
* outer_kernel(V, W) for V over opposite(A) and W over B is the kernel
  W (x) V with the evident actions; it sends M to W^(dim Hom(V*, M)).

Balanced tensor products over a non-semisimple algebra are refused: the
underived tensor would not compute the honest (derived) convolution there.
`balanced_tensor` takes the two factors' action matrices of the middle
algebra's generators, in `gens` order, and writes its relations in one pass
over their stored rows.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import Algebra, opposite, tensor
from .errors import (
    MAX_COORDINATES, AlgebraMismatch, HochkitError, MiddleNotSemisimple, MissingSerreData,
    MissingSimples, ModuleDefect, ShapeMismatch, check_size,
)
from .hochschild import MAX_DEGREE, _alphabet, _bar_complex, _table, check_maxdeg
from .linalg import (
    SparseMatrix, Vector, _common_rows, cokernel_projector, kron, nullspace, unit_vector,
)
from .scalars import CycScalar, ONE, ZERO


class ModuleRep:
    """A left module: one action matrix per algebra basis element."""

    def __init__(self, algebra: Algebra, dim: int, action: Sequence[SparseMatrix],
                 name: str = "", check: bool = True):
        if len(action) != algebra.dim:
            raise ShapeMismatch(
                f"{len(action)} action matrices for an algebra of dimension {algebra.dim}")
        for m in action:
            if (m.rows, m.cols) != (dim, dim):
                raise ShapeMismatch(f"a {m.rows}x{m.cols} action matrix on a module of "
                                    f"dimension {dim}")
        self.algebra = algebra
        self.dim = dim
        self.action = tuple(action)
        self.name = name
        if check:
            validate_module(self)

    def act(self, coords: Vector) -> SparseMatrix:
        """Action matrix of the algebra element with the given coordinates."""
        return self._act({i: c for i, c in enumerate(coords) if c})

    def _act(self, coords: dict[int, CycScalar]) -> SparseMatrix:
        """Action matrix of sum_i c_i e_i, from its nonzero coordinates; a
        basis element acts by its own action matrix."""
        terms = [self.action[i].scale(c) for i, c in coords.items()]
        return sum(terms[1:], terms[0]) if terms else SparseMatrix.zero(self.dim, self.dim)

    def character(self, coords: Vector) -> CycScalar:
        out = ZERO
        for i, c in enumerate(coords):
            if c:
                out = out + c * self.action[i].trace()
        return out

    def direct_sum(self, other: "ModuleRep") -> "ModuleRep":
        if self.algebra != other.algebra:
            raise AlgebraMismatch("direct sum needs a common algebra")
        d = self.dim + other.dim
        action = []
        for a, b in zip(self.action, other.action):
            entries = {(r, c): v for r, c, v in a.entries()}
            entries.update({(self.dim + r, self.dim + c): v for r, c, v in b.entries()})
            action.append(SparseMatrix(d, d, entries))
        return ModuleRep(self.algebra, d, action,
                         name=f"{self.name}(+){other.name}", check=False)

    def dual(self) -> "ModuleRep":
        """Linear dual, a left module over the opposite algebra."""
        return ModuleRep(opposite(self.algebra), self.dim,
                         [m.transpose() for m in self.action],
                         name=f"{self.name}*", check=False)

    def __repr__(self):
        return f"ModuleRep({self.name or '?'}, dim {self.dim} over {self.algebra!r})"


def validate_module(m: ModuleRep) -> None:
    """Unit and multiplicativity on (generator, basis) pairs: products of
    generators span the algebra, so rho(x) rho(y) = rho(xy) follows for
    every pair by induction on word length."""
    a = m.algebra
    if m.act(a.unit) != SparseMatrix.identity(m.dim):
        raise ModuleDefect("unit does not act as the identity")
    for g in a.gens:
        act_g = m.act(g)
        for j in range(a.dim):
            if act_g * m.action[j] != m.act(a.mul(g, unit_vector(a.dim, j))):
                raise ModuleDefect(
                    f"action is not multiplicative at generator {list(g)} and basis element {j}")


def regular_module(a: Algebra) -> ModuleRep:
    return ModuleRep(a, a.dim, [a.basis_left_mult(i) for i in range(a.dim)],
                     name="regular", check=False)


def is_intertwiner(t: SparseMatrix, m: ModuleRep, n: ModuleRep) -> bool:
    if m.algebra != n.algebra or t.cols != m.dim or t.rows != n.dim:
        return False
    return all(t * m.act(g) == n.act(g) * t for g in m.algebra.gens)


class HomBasis:
    def __init__(self, source: ModuleRep, target: ModuleRep,
                 basis: Sequence[SparseMatrix]):
        self.source = source
        self.target = target
        self.basis = tuple(basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates_of(self, t: SparseMatrix) -> Vector:
        """Coordinates of an intertwiner in this basis (it must lie in the
        span).  The basis from hom_space is in reduced echelon form in the
        row-major order of entries, so the coordinates are the entries of t
        at the basis pivots; they are checked to recombine to t."""
        back = SparseMatrix.zero(self.target.dim, self.source.dim)
        coords = ()
        if (t.rows, t.cols) == (back.rows, back.cols):
            coords = tuple(t.entry(*min((r, c) for r, c, _ in b.entries()))
                           for b in self.basis)
            for x, b in zip(coords, self.basis):
                back = back + b.scale(x)
        if back != t:
            raise HochkitError("matrix is not in the span of the Hom basis")
        return coords


def hom_space(m: ModuleRep, n: ModuleRep) -> HomBasis:
    """Basis of the A-linear maps M -> N via one nullspace computation."""
    if m.algebra != n.algebra:
        raise AlgebraMismatch("hom_space needs modules over the same algebra")
    a = m.algebra
    size = n.dim * m.dim

    def terms():
        # unknowns: T[r, c], r < n.dim, c < m.dim, vectorized row-major; one
        # equation (T rho_M(g) - rho_N(g) T)[r, c] = 0 per generator g and (r, c)
        for eq, g in enumerate(a.gens):
            for k, c, v in m.act(g).entries():
                for r in range(n.dim):
                    yield (eq * size + r * m.dim + c, r * m.dim + k), v
            for r, k, v in n.act(g).entries():
                for c in range(m.dim):
                    yield (eq * size + r * m.dim + c, k * m.dim + c), -v

    solutions = nullspace(SparseMatrix(len(a.gens) * size, size, terms()))
    entries: list[list] = [[] for _ in range(solutions.rows)]
    for b, idx, x in solutions.entries():
        entries[b].append((divmod(idx, m.dim), x))
    return HomBasis(m, n, [SparseMatrix(n.dim, m.dim, e) for e in entries])


# --- simples registry ---------------------------------------------------------

def attach_simples(a: Algebra, simples: Sequence[ModuleRep]) -> None:
    if a.simple_reps is not None:  # `derived` data on `a` may already rest on them
        raise HochkitError(f"simples are already attached to {a!r}")
    a.simple_reps = tuple(simples)


def simples_of(a: Algebra) -> tuple[ModuleRep, ...]:
    """A complete list of simple modules: attached by the fixtures for group
    algebras, derived structurally for combinators."""
    if a.simple_reps is not None:
        return a.simple_reps
    kind = a.provenance[0]
    if kind == "field":
        result = (ModuleRep(a, 1, [SparseMatrix.identity(1)], name="1", check=False),)
    elif kind == "matrix":
        n = a.provenance[1]
        action = []
        for i in range(n):
            for j in range(n):
                action.append(SparseMatrix(n, n, {(i, j): ONE}))
        result = (ModuleRep(a, n, action, name=f"col{n}", check=False),)
    elif kind == "opposite":
        base = a.provenance[1]
        result = tuple(_as_module_over(s.dual(), a) for s in simples_of(base))
    elif kind == "tensor":
        left, right = a.provenance[1], a.provenance[2]
        out = []
        for s in simples_of(left):
            for t in simples_of(right):
                action = []
                for i in range(left.dim):
                    for j in range(right.dim):
                        action.append(kron(s.action[i], t.action[j]))
                out.append(ModuleRep(a, s.dim * t.dim, action,
                                     name=f"{s.name}(x){t.name}", check=False))
        result = tuple(out)
    else:
        raise MissingSimples(f"no simple modules known for {a!r}")
    a.simple_reps = result
    return result


def _as_module_over(m: ModuleRep, a: Algebra) -> ModuleRep:
    """Re-tag a module whose algebra is structurally equal to `a`."""
    if m.algebra != a:
        raise AlgebraMismatch("module algebra does not match")
    return ModuleRep(a, m.dim, m.action, name=m.name, check=False)


# --- balanced tensor products ---------------------------------------------------

class BalancedTensor:
    """M (x)_A N presented as a quotient of M (x) N.  Its basis is the free
    coordinates of `cokernel_projector(relations)`: `project` maps M (x) N
    onto them, `include` embeds them back as ambient unit vectors, and
    `relations` is the matrix that was quotiented out (kept for
    well-definedness checks)."""

    def __init__(self, dim: int, project: SparseMatrix, include: SparseMatrix,
                 relations: SparseMatrix):
        self.dim = dim
        self.project = project
        self.include = include
        self.relations = relations

    def descend(self, big: SparseMatrix, check: bool = True) -> SparseMatrix:
        """Induced map on the quotient of an ambient map; with check, verify
        the map preserves the relation subspace (well-definedness)."""
        if check and not (self.project * (big * self.relations)).is_zero():
            raise HochkitError("ambient map does not descend to the quotient")
        return self.project * (big * self.include)


def balanced_tensor(mid: Algebra,
                    right_acts: Sequence[SparseMatrix], m_dim: int,
                    left_acts: Sequence[SparseMatrix], n_dim: int) -> BalancedTensor:
    """Quotient of M (x) N by span{ m.a (x) n - m (x) a.n } over the
    generators of `mid` (products of generators are spanned, so this is the
    full relation space).  `right_acts` and `left_acts` hold the action
    matrices of the generators on M and on N, in `mid.gens` order.  Index
    convention: (mu, nu) -> mu * n_dim + nu.

    The relation matrix is hstack([kron(R, I_n) - kron(I_m, L) ...]) over
    the generators, written in one pass over the actions' stored rows: row
    (mu, nu) of a generator's block holds R[mu, j] at (j, nu) and -L[nu, j]
    at (mu, j), which meet only at (mu, nu)."""
    if not mid.is_semisimple():
        raise MiddleNotSemisimple(
            f"balanced tensor over non-semisimple algebra {mid!r} refused")
    ambient = m_dim * n_dim
    check_size(ambient, MAX_COORDINATES, lambda: f"the balanced tensor over {mid!r} has an "
               f"ambient of {m_dim} x {n_dim} = {ambient} coordinates")
    gens = len(mid.gens)
    if len(right_acts) != gens or len(left_acts) != gens:
        raise ShapeMismatch(f"{len(right_acts)} and {len(left_acts)} action matrices for "
                            f"the {gens} generator(s) of {mid!r}")
    for act, d in [*((r, m_dim) for r in right_acts), *((a, n_dim) for a in left_acts)]:
        if (act.rows, act.cols) != (d, d):
            raise ShapeMismatch(f"a {act.rows}x{act.cols} action matrix on a factor of "
                                f"dimension {d}")
    rows, den = _common_rows([*right_acts, *left_acts])
    blocks = [(g * ambient, rows[g], rows[gens + g]) for g in range(gens)]
    zero = ZERO if den is None else 0
    data = []
    for mu in range(m_dim):
        for nu in range(n_dim):
            row = {}
            for offset, rights, lefts in blocks:
                r_row, l_row = rights[mu], lefts[nu]
                row.update((offset + j * n_dim + nu, v) for j, v in r_row.items())
                at = offset + mu * n_dim
                row.update((at + j, -v) for j, v in l_row.items())
                if nu in l_row:  # where the two terms meet, their difference
                    s = r_row.get(mu, zero) - l_row[nu]
                    if s:
                        row[at + nu] = s
                    else:
                        del row[at + nu]
            data.append(row)
    relations = SparseMatrix._of(ambient, gens * ambient, data, den)
    free_coords, project = cokernel_projector(relations)
    include = [dict() for _ in range(ambient)]
    for k, f in enumerate(free_coords):
        include[f] = {k: 1}
    return BalancedTensor(len(free_coords), project,
                          SparseMatrix._of(ambient, len(free_coords), include, 1), relations)


# --- bimodule kernels -----------------------------------------------------------

class Bimodule:
    """A kernel from `source` to `target`: a (target, source)-bimodule, kept as
    its two commuting actions on one space, `left` over target and `right`
    over opposite(source).  Constructors list dim(target) + dim(source)
    action matrices; t (x) s acts by left.action[t] * right.action[s]."""

    def __init__(self, source: Algebra, target: Algebra, dim: int,
                 left: Sequence[SparseMatrix], right: Sequence[SparseMatrix],
                 name: str = ""):
        self.source = source
        self.target = target
        self.left = ModuleRep(target, dim, left, name=name, check=False)
        self.right = ModuleRep(opposite(source), dim, right, name=name, check=False)
        self.dim = dim
        self.name = name
        self._derived: dict = {}

    def left_action(self, coords_target: Vector) -> SparseMatrix:
        """Action of an element of the target algebra (the left structure)."""
        return self.left.act(coords_target)

    def right_action(self, coords_source: Vector) -> SparseMatrix:
        """Action of an element of the source algebra (the right structure)."""
        return self.right.act(coords_source)

    def __repr__(self):
        return f"Bimodule({self.name or '?'}: {self.source!r} -> {self.target!r}, dim {self.dim})"


def regular_bimodule(a: Algebra) -> Bimodule:
    """The identity kernel: the algebra with both multiplications."""
    return Bimodule(a, a, a.dim, [a.basis_left_mult(i) for i in range(a.dim)],
                    [a.basis_right_mult(j) for j in range(a.dim)],
                    name=f"id_{a.provenance[0]}")


def outer_kernel(v: ModuleRep, w: ModuleRep, source: Algebra) -> Bimodule:
    """Kernel W (x) V from `source` to w.algebra, where V is a right
    `source`-module (a ModuleRep over opposite(source)) and W a left module."""
    if v.algebra != opposite(source):
        raise AlgebraMismatch("outer kernel needs V over opposite(source)")
    id_v, id_w = SparseMatrix.identity(v.dim), SparseMatrix.identity(w.dim)
    return Bimodule(source, w.algebra, w.dim * v.dim,
                    [kron(m, id_v) for m in w.action], [kron(id_w, m) for m in v.action],
                    name=f"outer({v.name},{w.name})")


class AppliedKernel:
    """apply_kernel output plus the data needed to push morphisms through."""

    def __init__(self, module: ModuleRep, quotient: BalancedTensor, kernel: Bimodule):
        self.module = module
        self.quotient = quotient
        self.kernel = kernel

    def map_morphism(self, mu: SparseMatrix) -> SparseMatrix:
        """The functor on morphisms: mu: M -> M induces id_K (x) mu on K (x)_A M."""
        big = kron(SparseMatrix.identity(self.kernel.dim), mu)
        return self.quotient.descend(big)


def apply_kernel_full(k: Bimodule, m: ModuleRep) -> AppliedKernel:
    if m.algebra != k.source:
        raise AlgebraMismatch("module must live over the kernel's source algebra")
    gens = k.source.gens
    bt = balanced_tensor(k.source, [k.right_action(g) for g in gens], k.dim,
                         [m.act(g) for g in gens], m.dim)
    id_m = SparseMatrix.identity(m.dim)
    # well-definedness on target generators; unit and products descend with them
    for g in k.target.gens:
        bt.descend(kron(k.left_action(g), id_m), check=True)
    action = [bt.descend(kron(t, id_m), check=False) for t in k.left.action]
    module = ModuleRep(k.target, bt.dim, action,
                       name=f"{k.name}({m.name})", check=False)
    return AppliedKernel(module, bt, k)


def apply_kernel(k: Bimodule, m: ModuleRep) -> ModuleRep:
    """The integral transform with kernel k applied to m: K (x)_A M."""
    return apply_kernel_full(k, m).module


def convolve(k1: Bimodule, k2: Bimodule) -> Bimodule:
    """Composite kernel: apply(convolve(k1, k2)) = apply(k2) o apply(k1)."""
    if k1.target != k2.source:
        raise AlgebraMismatch("middle algebras do not match")
    gens = k1.target.gens
    bt = balanced_tensor(k1.target, [k2.right_action(g) for g in gens], k2.dim,
                         [k1.left_action(g) for g in gens], k1.dim)
    a, c = k1.source, k2.target
    id1, id2 = SparseMatrix.identity(k1.dim), SparseMatrix.identity(k2.dim)
    # well-definedness on the outer generators
    for g in c.gens:
        bt.descend(kron(k2.left_action(g), id1), check=True)
    for g in a.gens:
        bt.descend(kron(id2, k1.right_action(g)), check=True)
    return Bimodule(a, c, bt.dim,
                    [bt.descend(kron(t, id1), check=False) for t in k2.left.action],
                    [bt.descend(kron(id2, s), check=False) for s in k1.right.action],
                    name=f"({k2.name} o {k1.name})")


def dual_kernel(k: Bimodule) -> Bimodule:
    """The adjoint kernel: the linear dual with swapped actions.  With the
    trivial Serre twist this is simultaneously the left and the right
    adjoint, which is why both algebras must carry Frobenius data."""
    if k.source.serre is None or k.target.serre is None:
        raise MissingSerreData("dual kernel needs Frobenius data on both algebras")
    return Bimodule(k.target, k.source, k.dim,
                    [m.transpose() for m in k.right.action],
                    [m.transpose() for m in k.left.action], name=f"dual({k.name})")


def parallel_kernels(k1: Bimodule, k2: Bimodule) -> Bimodule:
    """Disjoint-union kernel: acts as k1 on the first tensor factor and k2 on
    the second (used by the surface evaluator for bystander circles)."""
    return Bimodule(tensor(k1.source, k2.source), tensor(k1.target, k2.target),
                    k1.dim * k2.dim,
                    [kron(l1, l2) for l1 in k1.left.action for l2 in k2.left.action],
                    [kron(r1, r2) for r1 in k1.right.action for r2 in k2.right.action],
                    name=f"({k1.name} || {k2.name})")


# --- Ext via the reduced bar resolution ----------------------------------------

def ext_dims(m: ModuleRep, n: ModuleRep, maxdeg: int) -> list[int]:
    """dim Ext^i(M, N) for 0 <= i <= maxdeg: the cohomology of the reduced
    bar complex Hom(Abar^(x p), X) with coefficients in X = Hom_k(M, N), on
    which A acts by (a.phi)(m) = a.phi(m) and (phi.a)(m) = phi(a.m)
    (H. Cartan and S. Eilenberg, *Homological Algebra*, IX 4).  Basis
    element mu * dim(N) + nu of X sends e_mu to e_nu.  The complex is the
    Hochschild one of `hochschild._bar_complex`, guarded and checked like
    HH^*; degree 0 always agrees with hom_space."""
    check_maxdeg(maxdeg, MAX_DEGREE)
    if m.algebra != n.algebra:
        raise AlgebraMismatch("ext needs modules over the same algebra")
    letters, merge = _alphabet(m.algebra, True)
    id_m, id_n = SparseMatrix.identity(m.dim), SparseMatrix.identity(n.dim)
    actions = _table(m.dim * n.dim, [kron(id_m, n.action[x]) for x in letters],
                     [kron(m.action[x].transpose(), id_n) for x in letters])
    complex_ = _bar_complex(merge, actions, maxdeg + 1)
    return [complex_.homology_dim(p) for p in range(maxdeg + 1)]
