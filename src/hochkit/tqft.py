"""Closed-surface evaluator over a group algebra.

A surface is described as a word of elementary cobordisms read left to
right, starting and ending with empty boundary:

    cap_in       ()  -> (o)         the disk, entering
    cap_out      (o) -> ()          the disk, leaving
    pants_split  (o) -> (o)(o)      pair of pants, one circle in
    pants_merge  (o)(o) -> (o)      pair of pants, two circles in

A generator may carry a position suffix `@i` naming the circle it acts
on; the other circles are bystanders.  `genus:g` expands to cap_in
(pants_split pants_merge)^g cap_out.  Words are bounded at MAX_WORD_STEPS
steps, and `evaluate` refuses a word whose state would exceed the size
guard before it builds anything.

Each circle carries the group algebra A = k[G]; the pants kernels are the
diagonal bimodules and the caps the trivial representation.  `evaluate`
applies them to a state, a module over A^(x arity) kept as one action
matrix per open circle and generator of G:

    cap_in       adds a circle on which G acts trivially;
    pants_merge  restricts along the diagonal g -> (g, g): the merged
                 circle acts by rho_i(g) rho_(i+1)(g);
    pants_split  induces along the diagonal: k[G] (x) V, where (a, b) sends
                 c (x) v to a c b^-1 (x) rho_i(b) v;
    cap_out      takes the coinvariants k (x)_A V of its circle, to which
                 the other circles descend.

The left and right regular permutation matrices of the generators are read
off the group table once per group algebra and kept on it (`derived`).

A closed word ends in a state over the base field whose dimension is the
invariant: the sphere gives 1 and the torus dim HH_0, the number of
conjugacy classes.  `GeneratorKernels` builds the same cobordisms as
kernels, the independent route the tests convolve against this one.

Every closed surface has an independent value: a connected genus-g
surface evaluates to `orbit_count(a, g)`, the number of orbits of G
acting on G^g by simultaneous conjugation, and a disconnected word to the
product over its components.  The CLI asserts each word against it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .algebra import Algebra, derived, field_algebra, tensor
from .errors import (
    MAX_COORDINATES, ArityMismatch, DegreeUnderflow, HochkitError, MissingAugmentation,
    ParseError, check_size,
)
from .linalg import SparseMatrix, kron
from .modules import Bimodule, ModuleRep, balanced_tensor, parallel_kernels, regular_bimodule
from .scalars import ONE, ZERO
from .specfiles import parse_int

GENERATORS = {
    "cap_in": (0, 1),
    "cap_out": (1, 0),
    "pants_split": (1, 2),
    "pants_merge": (2, 1),
}
MAX_WORD_STEPS = 64  # longest cobordism word accepted (genus:31)


class CobordismWord:
    """A validated, composable sequence of (generator, position) steps."""

    def __init__(self, steps: Sequence[tuple[str, int]]):
        self.steps = tuple(steps)
        if not self.steps:
            raise ArityMismatch("empty cobordism word", 0)
        check_size(len(self.steps), MAX_WORD_STEPS,
                   lambda: f"the cobordism word has {len(self.steps)} steps")
        self.arities = self._validate()

    def _validate(self) -> tuple[int, ...]:
        """Check composability and track connected components along the way:
        each open circle carries a component id, components merge through
        pants and close when their last circle is capped; the Euler
        characteristics of the closed pieces give their genera."""
        circles: list[int] = []   # component id per open circle, in order
        chi: dict[int, int] = {}  # Euler characteristic per component
        open_count: dict[int, int] = {}
        closed: list[int] = []    # chi of each closed component
        next_id = 0
        trail = [0]
        for idx, (gen, pos) in enumerate(self.steps):
            if gen not in GENERATORS:
                raise ArityMismatch(f"unknown generator {gen!r}", idx)
            consumed, produced = GENERATORS[gen]
            arity = len(circles)
            if pos < 0:
                raise ArityMismatch(f"negative position {pos}", idx)
            if consumed == 0 and pos > arity:
                raise ArityMismatch(
                    f"{gen} inserts at position {pos} but only {arity} "
                    f"circle(s) present", idx)
            if consumed > 0 and pos + consumed > arity:
                raise ArityMismatch(
                    f"{gen} at position {pos} needs circles "
                    f"{pos}..{pos + consumed - 1} but only {arity} present", idx)
            if gen == "cap_in":
                comp = next_id
                next_id += 1
                chi[comp] = 1
                open_count[comp] = 1
                circles.insert(pos, comp)
            elif gen == "cap_out":
                comp = circles.pop(pos)
                chi[comp] += 1
                open_count[comp] -= 1
                if open_count[comp] == 0:
                    closed.append(chi[comp])
            elif gen == "pants_split":
                comp = circles[pos]
                chi[comp] -= 1
                open_count[comp] += 1
                circles.insert(pos + 1, comp)
            else:  # pants_merge
                c1 = circles[pos]
                c2 = circles.pop(pos + 1)
                if c1 == c2:
                    chi[c1] -= 1
                    open_count[c1] -= 1
                else:  # connect two components
                    chi[c1] = chi[c1] + chi[c2] - 1
                    open_count[c1] += open_count[c2] - 1
                    del chi[c2], open_count[c2]
                    circles = [c1 if c == c2 else c for c in circles]
            trail.append(len(circles))
        if circles:
            raise ArityMismatch(
                f"word ends with {len(circles)} open circle(s); closed "
                "surfaces only", len(self.steps))
        self._closed_chis = tuple(closed)
        return tuple(trail)

    @property
    def genus(self) -> Optional[int]:
        """Genus when the word describes one connected closed surface
        (chi = 2 - 2g); None for disconnected words."""
        if len(self._closed_chis) != 1:
            return None
        chi = self._closed_chis[0]
        if chi % 2 or chi > 2:
            raise HochkitError(f"a closed orientable surface has no Euler characteristic {chi}")
        return (2 - chi) // 2

    @property
    def component_genera(self) -> tuple[int, ...]:
        return tuple((2 - chi) // 2 for chi in self._closed_chis)

    def __repr__(self):
        return " ".join(g if p == 0 else f"{g}@{p}" for g, p in self.steps)


def parse_word(text: str) -> CobordismWord:
    text = text.strip()
    if text.startswith("genus:"):
        g = parse_int(text[len("genus:"):], "genus", low=0)
        check_size(2 * g + 2, MAX_WORD_STEPS, lambda: f"the genus-{g} word has {2 * g + 2} steps")
        steps = [("cap_in", 0)]
        steps += [("pants_split", 0), ("pants_merge", 0)] * g
        steps.append(("cap_out", 0))
        return CobordismWord(steps)
    steps = []
    for col, token in _tokens_with_columns(text):
        if "@" in token:
            gen, _, pos_text = token.partition("@")
            pos = parse_int(pos_text, "position", low=0, col=col)
        else:
            gen, pos = token, 0
        if gen not in GENERATORS:
            raise ParseError(f"unknown generator {gen!r}", col=col)
        steps.append((gen, pos))
    if not steps:
        raise ParseError("empty cobordism word")
    return CobordismWord(steps)


def _tokens_with_columns(text: str):
    col = 0
    for token in text.split():
        col = text.index(token, col)
        yield col + 1, token
        col += len(token)


class GeneratorKernels:
    """The four elementary kernels over a fixed group algebra."""

    def __init__(self, a: Algebra, augmentation: ModuleRep):
        if a.provenance[0] != "group":
            raise MissingAugmentation(
                "surface evaluation needs a group algebra (the caps use the "
                "trivial representation as the designated structure module)")
        if augmentation.dim != 1:
            raise MissingAugmentation("augmentation module must be one-dimensional")
        self.algebra = a
        self.augmentation = augmentation
        self.field = field_algebra()
        self._derived: dict = {}

    @derived
    def cap_in(self) -> Bimodule:
        """field -> A: the structure module as a kernel."""
        return Bimodule(self.field, self.algebra, 1, self.augmentation.action,
                        [SparseMatrix.identity(1)], name="cap_in")

    @derived
    def cap_out(self) -> Bimodule:
        """A -> field: the structure module on the other side."""
        return Bimodule(self.algebra, self.field, 1, [SparseMatrix.identity(1)],
                        self.augmentation.action, name="cap_out")

    @derived
    def pants_split(self) -> Bimodule:
        """A -> A(x)A: induction along the diagonal; A(x)A with the regular
        left action and the diagonal right action."""
        a, d = self.algebra, self.algebra.dim
        return Bimodule(a, tensor(a, a), d * d,
                        [kron(a.basis_left_mult(l1), a.basis_left_mult(l2))
                         for l1 in range(d) for l2 in range(d)],
                        [kron(a.basis_right_mult(g), a.basis_right_mult(g)) for g in range(d)],
                        name="pants_split")

    @derived
    def pants_merge(self) -> Bimodule:
        """A(x)A -> A: restriction along the diagonal; A(x)A with the
        diagonal left action and the regular right action."""
        a, d = self.algebra, self.algebra.dim
        return Bimodule(tensor(a, a), a, d * d,
                        [kron(a.basis_left_mult(g), a.basis_left_mult(g)) for g in range(d)],
                        [kron(a.basis_right_mult(r1), a.basis_right_mult(r2))
                         for r1 in range(d) for r2 in range(d)],
                        name="pants_merge")

    def step_kernel(self, gen: str, pos: int, arity: int) -> Bimodule:
        """Kernel of one generator acting at `pos` with identity kernels on
        the other circles at the current arity."""
        base = {"cap_in": self.cap_in, "cap_out": self.cap_out,
                "pants_split": self.pants_split, "pants_merge": self.pants_merge}[gen]()
        consumed, _ = GENERATORS[gen]
        k = base
        for _ in range(pos):
            k = parallel_kernels(regular_bimodule(self.algebra), k)
        bystanders_after = arity - pos - consumed
        for _ in range(bystanders_after):
            k = parallel_kernels(k, regular_bimodule(self.algebra))
        return k


class SurfaceInvariant:
    def __init__(self, dims: int, word: CobordismWord, algebra: Algebra):
        if dims < 0:
            raise HochkitError(f"negative invariant dimension {dims}")
        self.dims = dims
        self.word = word
        self.algebra = algebra

    def __repr__(self):
        return f"SurfaceInvariant(dim {self.dims} for word '{self.word}')"


def _group_elements(a: Algebra) -> tuple[int, ...]:
    """The group elements that the generators of a group algebra name."""
    if a.provenance[0] != "group":
        raise MissingAugmentation("surface evaluation needs a group algebra")
    for g in a.gens:
        if g.count(ONE) != 1 or g.count(ZERO) != len(g) - 1:
            raise MissingAugmentation(
                f"generator {[str(c) for c in g]} of {a!r} is not a group element")
    return tuple(g.index(ONE) for g in a.gens)


@derived
def _regular_actions(a: Algebra) -> tuple[tuple[int, ...], tuple[SparseMatrix, ...],
                                          tuple[SparseMatrix, ...]]:
    """(elements, left, right), built once per group algebra: the group
    elements g that its generators name, with e_c -> e_gc in left and
    e_cg -> e_c in right, integer rows read off the group table."""
    elements = _group_elements(a)
    table, n = a.provenance[2], a.dim
    left, right = [], []
    for g in elements:
        rows: list[dict] = [dict() for _ in range(n)]
        for c in range(n):
            rows[table[g][c]] = {c: 1}
        left.append(SparseMatrix._of(n, n, rows, 1))
        right.append(SparseMatrix._of(n, n, [{table[c][g]: 1} for c in range(n)], 1))
    return elements, tuple(left), tuple(right)


def _check_state_sizes(a: Algebra, word: CobordismWord, gens: int) -> None:
    """Refuse the word before any work if a state would store more than
    MAX_COORDINATES action entries.  Only a split raises the dimension (by
    |G|), and the state keeps arity * gens invertible matrices."""
    dim = 1
    for i, ((gen, _), arity) in enumerate(zip(word.steps, word.arities[1:])):
        if gen == "pants_split":
            dim *= a.dim
        check_size(dim * arity * gens, MAX_COORDINATES, lambda: (
            f"step {i} ({gen}) of '{word}' over {a!r} leads to a state of dimension "
            f"{dim} on {arity} circles: {dim * arity * gens} action entries for "
            f"{gens} generator(s)"))


def surface_states(a: Algebra, word: CobordismWord):
    """Yield the state after each step of the word: its dimension and, per
    open circle, the action matrices of the generators.  A split indexes
    k[G] (x) V by c * dim V + v."""
    elements, left, right = _regular_actions(a)
    _check_state_sizes(a, word, len(elements))
    n = a.dim
    trivial = [SparseMatrix.identity(1)] * len(elements)
    dim, slots = 1, []
    for gen, pos in word.steps:
        if gen == "cap_in":
            slots = slots[:pos] + [[SparseMatrix.identity(dim)] * len(elements)] + slots[pos:]
        elif gen == "pants_merge":
            merged = [x * y for x, y in zip(slots[pos], slots[pos + 1])]
            slots = slots[:pos] + [merged] + slots[pos + 2:]
        elif gen == "pants_split":
            rho = slots[pos]
            id_n, id_v = SparseMatrix.identity(n), SparseMatrix.identity(dim)
            others = [[kron(id_n, m) for m in slot] for slot in slots[:pos] + slots[pos + 1:]]
            slots = others[:pos] + [[kron(x, id_v) for x in left],
                                    [kron(x, m) for x, m in zip(right, rho)]] + others[pos:]
            dim *= n
        else:  # cap_out
            bt = balanced_tensor(a, trivial, 1, slots[pos], dim)
            slots = [[bt.descend(m) for m in slot] for slot in slots[:pos] + slots[pos + 1:]]
            dim = bt.dim
        yield dim, slots


def evaluate(a: Algebra, word: CobordismWord) -> SurfaceInvariant:
    """Carry the state through the word; the closed word ends in a state
    over the base field whose dimension is the invariant."""
    for dim, _ in surface_states(a, word):
        pass
    return SurfaceInvariant(dim, word, a)


def orbit_count(a: Algebra, genus: int) -> int:
    """Orbits of G on G^genus under simultaneous conjugation, by Burnside:
    (1/|G|) sum_h |C_G(h)|^genus, with the centralizers read off the group
    table.  Genus 0 gives 1 and genus 1 the number of conjugacy classes."""
    if a.provenance[0] != "group":
        raise MissingAugmentation("the orbit count needs a group algebra")
    if genus < 0:
        raise DegreeUnderflow(f"the orbit count needs genus >= 0, not {genus}")
    table = a.provenance[2]
    n = a.dim
    fixed = sum(sum(table[h][x] == table[x][h] for x in range(n)) ** genus for h in range(n))
    return fixed // n
