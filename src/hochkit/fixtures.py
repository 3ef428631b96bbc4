"""Bundled fixtures: group algebras with their simple modules.

The bundled groups are data: one table, `GROUPS`, gives each its element
model (a permutation group closed from its generators, or the quaternion
units) and its simples, each a name and its matrices on the generators.
One builder makes the group algebra of an entry, or of `zn:<k>` with the
characters chi_j, extends every simple along a factorization of each
element and validates it in full.  Irreducible decompositions are never
computed at runtime: the table is the authoritative list of simples.

`algebra_fixture` accepts the combinator grammar used by the CLI:
    zn:<k>  s3  d4  q8  a4  mat:<n>  dual  trunc:<k>  field
    tensor(<a>,<b>)  op(<a>)  env(<a>)
and refuses, before building it, any term whose algebra would have more
than MAX_FIXTURE_DIM basis elements, or that nests deeper than
scalars.MAX_NESTING.  Each group algebra is built once per process and
shared.
"""

from __future__ import annotations

from functools import cache, reduce

from .algebra import (
    Algebra, enveloping, field_algebra, group_algebra, matrix_algebra,
    opposite, tensor, truncated_poly,
)
from .errors import NotAGroup, ParseError, check_size
from .linalg import SparseMatrix
from .modules import ModuleRep, attach_simples, regular_module, simples_of
from .scalars import check_nesting, zeta
from .specfiles import parse_int, split_items


def _perm_mul(p, q):
    # (p*q)(x) = p(q(x))
    return tuple(p[q[i]] for i in range(len(p)))


def _perm_label(p) -> str:
    n = len(p)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cycle = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cycle.append(j)
            seen[j] = True
            j = p[j]
        cycles.append("(" + "".join(str(x + 1) for x in cycle) + ")")
    return "".join(cycles) if cycles else "e"


# --- group models: (table, labels, generator indices) ---------------------------

def _tabulate(elements, mul, gens):
    index = {x: i for i, x in enumerate(elements)}
    table = [[index[mul(a, b)] for b in elements] for a in elements]
    return table, [index[g] for g in gens]


def cyclic_group(n: int):
    elements = list(range(n))
    table = [[(a + b) % n for b in elements] for a in elements]
    labels = ["e"] + [f"g{'^' + str(k) if k > 1 else ''}" for k in range(1, n)]
    gens = [1 % n]
    return table, labels, gens


def _permutation_model(gens, key=None):
    """The group generated by permutations, in breadth-first order from the
    identity unless `key` sorts it; elements are labelled by their cycles."""
    elements = [tuple(range(len(gens[0])))]
    for x in elements:  # the list grows while it is read: a breadth-first queue
        for g in gens:
            y = _perm_mul(x, g)
            if y not in elements:
                elements.append(y)
    if key is not None:
        elements.sort(key=key)
    table, gen_indices = _tabulate(elements, _perm_mul, gens)
    return table, [_perm_label(p) for p in elements], gen_indices


def quaternion_group():
    # elements (sign, axis) with axes 1, i, j, k
    units = ["1", "i", "j", "k"]
    mul_axis = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }
    elements = [(s, u) for u in units for s in (1, -1)]

    def mul(a, b):
        s, u = mul_axis[(a[1], b[1])]
        return (a[0] * b[0] * s, u)

    table, gens = _tabulate(elements, mul, [(1, "i"), (1, "j")])
    labels = [("" if s == 1 else "-") + u for (s, u) in elements]
    return table, labels, gens


# --- simple-module construction -------------------------------------------------

def rep_from_generators(a: Algebra, gen_indices, gen_matrices, dim, name):
    """Extend matrices on group generators to the whole group by factoring
    each element as a word in the generators, then validate in full."""
    table = a.provenance[2]
    identity = a.provenance[3]
    n = a.dim
    mats: dict[int, SparseMatrix] = {identity: SparseMatrix.identity(dim)}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for gi, gm in zip(gen_indices, gen_matrices):
                h = table[g][gi]
                if h not in mats:
                    mats[h] = mats[g] * gm
                    nxt.append(h)
        frontier = nxt
    if len(mats) != n:
        raise NotAGroup(f"the generators {list(gen_indices)} given for {name!r} reach only "
                        f"{len(mats)} of the {n} group elements")
    return ModuleRep(a, dim, [mats[g] for g in range(n)], name=name, check=True)


# --- the bundled groups ---------------------------------------------------------

# name -> (model, simples); a simple is its name and its matrices on the
# model's generators, in the order of the generators
GROUPS = {
    # generators (12), (123)
    "s3": (_permutation_model([(1, 0, 2), (1, 2, 0)]), [
        ("triv", [[[1]], [[1]]]),
        ("sign", [[[-1]], [[1]]]),
        ("std", [[[0, 1], [1, 0]], [[0, -1], [1, -1]]]),
    ]),
    # generators r = (1234), the reflection s = (12)(34)
    "d4": (_permutation_model([(1, 2, 3, 0), (1, 0, 3, 2)]), [
        ("triv", [[[1]], [[1]]]),
        ("chi_s", [[[1]], [[-1]]]),
        ("chi_r", [[[-1]], [[1]]]),
        ("chi_rs", [[[-1]], [[-1]]]),
        ("std", [[[0, -1], [1, 0]], [[1, 0], [0, -1]]]),
    ]),
    # generators i, j
    "q8": (quaternion_group(), [
        ("triv", [[[1]], [[1]]]),
        ("chi_j", [[[1]], [[-1]]]),
        ("chi_i", [[[-1]], [[1]]]),
        ("chi_ij", [[[-1]], [[-1]]]),
        ("std", [[[zeta(4), 0], [0, -zeta(4)]], [[0, -1], [1, 0]]]),
    ]),
    # generators (12)(34), (123); identity first, then double transpositions,
    # then 3-cycles
    "a4": (_permutation_model([(1, 0, 3, 2), (1, 2, 0, 3)],
                              key=lambda p: (p != (0, 1, 2, 3), _perm_label(p))), [
        ("triv", [[[1]], [[1]]]),
        ("omega", [[[1]], [[zeta(3)]]]),
        ("omega2", [[[1]], [[zeta(3, 2)]]]),
        ("std", [[[1, 0, 0], [0, -1, 0], [0, 0, -1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]]),
    ]),
}


@cache
def _group_fixture(name: str) -> Algebra:
    """The group algebra of a `GROUPS` entry, or of `zn:<k>` with the
    characters chi_j sending the generator to zeta_k^j, with its simples."""
    if name in GROUPS:
        (table, labels, gens), simples = GROUPS[name]
    else:
        k = int(name[len("zn:"):])
        table, labels, gens = cyclic_group(k)
        simples = [(f"chi{j}", [[[zeta(k, j)]]]) for j in range(k)]
    a = group_algebra(table, labels=labels, gens=gens, name=name)
    attach_simples(a, [
        rep_from_generators(a, gens, [SparseMatrix.from_dense(m) for m in mats],
                            len(mats[0]), simple)
        for simple, mats in simples])
    return a


# --- registry -------------------------------------------------------------------

MAX_FIXTURE_DIM = 64  # largest algebra dimension the fixture grammar builds


def _bounded(dim: int, name: str) -> None:
    """Refuse a fixture of dimension above MAX_FIXTURE_DIM before building it."""
    check_size(dim, MAX_FIXTURE_DIM,
               lambda: f"{name!r} would build an algebra of dimension {dim}")


def algebra_fixture(name: str) -> Algebra:
    """Resolve a fixture name or combinator expression to an algebra."""
    check_nesting(name)
    name = name.strip()
    if name.startswith("tensor(") and name.endswith(")"):
        inner = name[len("tensor("):-1]
        left, right = (algebra_fixture(x) for x in _split_args(inner, name))
        _bounded(left.dim * right.dim, name)
        return tensor(left, right)
    if name.startswith("op(") and name.endswith(")"):
        return opposite(algebra_fixture(name[3:-1]))
    if name.startswith("env(") and name.endswith(")"):
        a = algebra_fixture(name[4:-1])
        _bounded(a.dim * a.dim, name)
        return enveloping(a)
    if name.startswith("zn:"):
        n = parse_int(name[3:], "cyclic order", low=1)
        _bounded(n, name)
        return _group_fixture(f"zn:{n}")
    if name.startswith("mat:"):
        n = parse_int(name[4:], "matrix size", low=1)
        _bounded(n * n, name)
        return matrix_algebra(n)
    if name.startswith("trunc:"):
        k = parse_int(name[6:], "truncation degree", low=2)
        _bounded(k, name)
        return truncated_poly(k)
    if name == "dual":
        return truncated_poly(2)
    if name == "field":
        return field_algebra()
    if name in GROUPS:
        return _group_fixture(name)
    raise ParseError(f"unknown algebra fixture {name!r}")


def _split_args(inner: str, context: str) -> list[str]:
    args = split_items(inner)
    if len(args) != 2:
        raise ParseError(f"expected two comma-separated arguments in {context!r}")
    return args


def module_fixture(a: Algebra, name: str) -> ModuleRep:
    """Named modules over a fixture algebra: `reg`, `triv`/`sign`/`std`/...
    by simple name, `simple:<i>` by index, or `sum:<i>,<j>,...`."""
    name = name.strip()
    if name == "reg":
        return regular_module(a)
    simples = simples_of(a)

    def simple(index: str) -> ModuleRep:
        return simples[parse_int(index, "simple index", low=0, high=len(simples) - 1)]

    if name.startswith("simple:"):
        return simple(name[len("simple:"):])
    if name.startswith("sum:"):
        parts = [simple(x) for x in split_items(name[len("sum:"):])]
        if not parts:
            raise ParseError("empty direct sum")
        return reduce(ModuleRep.direct_sum, parts)
    for s in simples:
        if s.name == name:
            return s
    if name == "triv":
        for s in simples:
            if s.dim == 1 and all(m == SparseMatrix.identity(1) for m in s.action):
                return s
    raise ParseError(f"unknown module fixture {name!r}; "
                     f"have {[s.name for s in simples]}, reg, simple:<i>, sum:<i,...>")


ALL_GROUP_FIXTURES = ("zn:2", "zn:3", "zn:4", "zn:5", "zn:6", "s3", "d4", "q8", "a4")
