"""Bundled fixtures: group algebras with their simple modules.

Groups are built from explicit element models (residues, permutations,
quaternion units); simple modules are given by matrices on a generating
set and extended along a factorization of each element, then validated in
full.  Irreducible decompositions are never computed at runtime: this
registry is the authoritative list of simples per fixture.

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
from itertools import permutations

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


def _close_group(generators):
    gens = [tuple(g) for g in generators]
    n = len(gens[0])
    identity = tuple(range(n))
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _perm_mul(x, g)
                if y not in seen:
                    seen.add(y)
                    elements.append(y)
                    nxt.append(y)
        frontier = nxt
    return elements


def _table_from_elements(elements, mul):
    index = {x: i for i, x in enumerate(elements)}
    return [[index[mul(a, b)] for b in elements] for a in elements]


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


# --- group models -------------------------------------------------------------

def cyclic_group(n: int):
    elements = list(range(n))
    table = [[(a + b) % n for b in elements] for a in elements]
    labels = ["e"] + [f"g{'^' + str(k) if k > 1 else ''}" for k in range(1, n)]
    gens = [1 % n]
    return table, labels, gens


def symmetric3_group():
    elements = _close_group([(1, 0, 2), (1, 2, 0)])
    table = _table_from_elements(elements, _perm_mul)
    labels = [_perm_label(p) for p in elements]
    gens = [elements.index((1, 0, 2)), elements.index((1, 2, 0))]
    return table, labels, gens, elements


def dihedral4_group():
    r = (1, 2, 3, 0)
    s = (1, 0, 3, 2)  # reflection
    elements = _close_group([r, s])
    table = _table_from_elements(elements, _perm_mul)
    labels = [_perm_label(p) for p in elements]
    gens = [elements.index(r), elements.index(s)]
    return table, labels, gens, elements


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

    table = _table_from_elements(elements, mul)
    labels = [("" if s == 1 else "-") + u for (s, u) in elements]
    gens = [elements.index((1, "i")), elements.index((1, "j"))]
    return table, labels, gens, elements


def alternating4_group():
    elements = [p for p in permutations(range(4))
                if _perm_parity(p) == 1]
    # stable ordering: identity first, then double transpositions, then 3-cycles
    elements.sort(key=lambda p: (p != tuple(range(4)), _perm_label(p)))
    table = _table_from_elements(elements, _perm_mul)
    labels = [_perm_label(p) for p in elements]
    x = (1, 0, 3, 2)   # (12)(34)
    z = (1, 2, 0, 3)   # (123)
    gens = [elements.index(x), elements.index(z)]
    return table, labels, gens, elements


def _perm_parity(p) -> int:
    seen = [False] * len(p)
    parity = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


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


def _mat(rows):
    return SparseMatrix.from_dense(rows)


@cache
def _cyclic_algebra(n: int) -> Algebra:
    table, labels, gens = cyclic_group(n)
    a = group_algebra(table, labels=labels, gens=gens, name=f"zn:{n}")
    simples = []
    for k in range(n):
        action = [SparseMatrix.from_dense([[zeta(n, (k * m) % n)]]) for m in range(n)]
        simples.append(ModuleRep(a, 1, action, name=f"chi{k}", check=True))
    attach_simples(a, simples)
    return a


@cache
def _s3_algebra() -> Algebra:
    table, labels, gens, elements = symmetric3_group()
    a = group_algebra(table, labels=labels, gens=gens, name="s3")
    triv = ModuleRep(a, 1, [SparseMatrix.identity(1)] * 6, name="triv", check=True)
    sign = ModuleRep(a, 1, [_mat([[_perm_parity(p)]]) for p in elements],
                     name="sign", check=True)
    s, r = gens  # transposition (12), 3-cycle (123)
    std = rep_from_generators(
        a, [s, r],
        [_mat([[0, 1], [1, 0]]), _mat([[0, -1], [1, -1]])],
        2, "std")
    attach_simples(a, [triv, sign, std])
    return a


@cache
def _d4_algebra() -> Algebra:
    table, labels, gens, elements = dihedral4_group()
    a = group_algebra(table, labels=labels, gens=gens, name="d4")
    r_idx, s_idx = gens
    one = SparseMatrix.identity(1)

    def one_dim(r_val, s_val, name):
        return rep_from_generators(a, [r_idx, s_idx],
                                   [_mat([[r_val]]), _mat([[s_val]])], 1, name)

    simples = [
        one_dim(1, 1, "triv"),
        one_dim(1, -1, "chi_s"),
        one_dim(-1, 1, "chi_r"),
        one_dim(-1, -1, "chi_rs"),
        rep_from_generators(a, [r_idx, s_idx],
                            [_mat([[0, -1], [1, 0]]), _mat([[1, 0], [0, -1]])],
                            2, "std"),
    ]
    attach_simples(a, simples)
    return a


@cache
def _q8_algebra() -> Algebra:
    table, labels, gens, elements = quaternion_group()
    a = group_algebra(table, labels=labels, gens=gens, name="q8")
    i_idx, j_idx = gens

    def one_dim(i_val, j_val, name):
        return rep_from_generators(a, [i_idx, j_idx],
                                   [_mat([[i_val]]), _mat([[j_val]])], 1, name)

    z4 = zeta(4)
    simples = [
        one_dim(1, 1, "triv"),
        one_dim(1, -1, "chi_j"),
        one_dim(-1, 1, "chi_i"),
        one_dim(-1, -1, "chi_ij"),
        rep_from_generators(a, [i_idx, j_idx],
                            [SparseMatrix.from_dense([[z4, 0], [0, -z4]]),
                             _mat([[0, -1], [1, 0]])],
                            2, "std"),
    ]
    attach_simples(a, simples)
    return a


@cache
def _a4_algebra() -> Algebra:
    table, labels, gens, elements = alternating4_group()
    a = group_algebra(table, labels=labels, gens=gens, name="a4")
    x_idx, z_idx = gens  # (12)(34), (123)
    w = zeta(3)
    simples = [
        rep_from_generators(a, [x_idx, z_idx],
                            [SparseMatrix.identity(1), SparseMatrix.identity(1)],
                            1, "triv"),
        rep_from_generators(a, [x_idx, z_idx],
                            [SparseMatrix.identity(1),
                             SparseMatrix.from_dense([[w]])], 1, "omega"),
        rep_from_generators(a, [x_idx, z_idx],
                            [SparseMatrix.identity(1),
                             SparseMatrix.from_dense([[w * w]])], 1, "omega2"),
        rep_from_generators(a, [x_idx, z_idx],
                            [_mat([[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
                             _mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])],
                            3, "std"),
    ]
    attach_simples(a, simples)
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
        return _cyclic_algebra(n)
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
    if name == "s3":
        return _s3_algebra()
    if name == "d4":
        return _d4_algebra()
    if name == "q8":
        return _q8_algebra()
    if name == "a4":
        return _a4_algebra()
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
