import random
from itertools import islice, product
from math import prod

import pytest

from hochkit import tqft
from hochkit.algebra import Algebra, center_basis
from hochkit.errors import (
    ArityMismatch, DegreeCapExceeded, DegreeUnderflow, MissingAugmentation, ParseError,
)
from hochkit.fixtures import ALL_GROUP_FIXTURES, algebra_fixture
from hochkit.hochschild import hh_homology_dims
from hochkit.linalg import SparseMatrix, kron
from hochkit.modules import ModuleRep, convolve, simples_of
from hochkit.scalars import ONE
from hochkit.tqft import (
    GENERATORS, MAX_WORD_STEPS, CobordismWord, GeneratorKernels, evaluate, orbit_count,
    parse_word, surface_states,
)


def trivial_representation(a):
    """The trivial representation of a group algebra: every group element
    acts as 1."""
    if a.provenance[0] != "group":
        raise MissingAugmentation("trivial representation needs a group algebra")
    return ModuleRep(a, 1, [SparseMatrix.identity(1)] * a.dim, name="triv")


def test_parse_sphere_and_torus():
    sphere = parse_word("cap_in cap_out")
    assert sphere.genus == 0
    torus = parse_word("genus:1")
    assert [g for g, _ in torus.steps] == \
        ["cap_in", "pants_split", "pants_merge", "cap_out"]
    assert torus.genus == 1


def test_parse_positions():
    w = parse_word("cap_in pants_split pants_merge@0 cap_out")
    assert w.steps[2] == ("pants_merge", 0)
    assert w.genus == 1


def test_parse_arity_mismatch():
    with pytest.raises(ArityMismatch) as exc:
        parse_word("cap_in pants_merge")
    assert exc.value.step == 1
    with pytest.raises(ArityMismatch):
        parse_word("cap_in pants_split cap_out")  # ends with an open circle
    with pytest.raises(ArityMismatch):
        parse_word("pants_split cap_out")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_word("cap_in wiggle cap_out")
    with pytest.raises(ParseError):
        parse_word("")
    with pytest.raises(ParseError):
        parse_word("genus:x")


def test_sphere_values():
    for name in ["zn:2", "zn:4", "s3"]:
        a = algebra_fixture(name)
        assert evaluate(a, parse_word("cap_in cap_out")).dims == 1


def test_torus_values_equal_class_count():
    for name, classes in [("zn:2", 2), ("zn:4", 4), ("s3", 3), ("q8", 5)]:
        a = algebra_fixture(name)
        inv = evaluate(a, parse_word("genus:1"))
        assert inv.dims == classes
        assert inv.dims == center_basis(a).rows


def test_torus_matches_hochschild_degree_zero():
    for name in ["zn:2", "zn:3", "s3"]:
        a = algebra_fixture(name)
        assert evaluate(a, parse_word("genus:1")).dims == \
            hh_homology_dims(a, 0).dims[0]


def test_requires_group_algebra():
    m2 = algebra_fixture("mat:2")
    with pytest.raises(MissingAugmentation):
        trivial_representation(m2)
    with pytest.raises(MissingAugmentation):
        evaluate(m2, parse_word("cap_in cap_out"))
    # the state route acts by group elements, so every generator must be one
    z2 = algebra_fixture("zn:2")
    doubled = Algebra(z2.dim, z2.sc, z2.unit, serre=z2.serre, field_order=z2.field_order,
                      gens=[(0, 2)], provenance=z2.provenance)
    with pytest.raises(MissingAugmentation, match=r"generator \['0', '2'\] .* not a group"):
        evaluate(doubled, parse_word("cap_in cap_out"))


def test_genus_two_matches_orbit_count():
    for name, genus, orbits in [("zn:2", 2, 4), ("zn:3", 2, 9), ("zn:2", 3, 8)]:
        a = algebra_fixture(name)
        assert evaluate(a, parse_word(f"genus:{genus}")).dims == orbits == \
            orbit_count(a, genus)


def test_word_order_robustness_sphere():
    a = algebra_fixture("zn:2")
    w1 = parse_word("cap_in cap_out")
    w2 = parse_word("cap_in pants_split cap_out@1 cap_out")
    assert w1.genus == w2.genus == 0
    assert evaluate(a, w1).dims == evaluate(a, w2).dims == 1


def test_word_order_robustness_genus2():
    a = algebra_fixture("zn:2")
    words = [
        parse_word("genus:2"),
        parse_word("cap_in pants_split pants_split@0 pants_merge@0 pants_merge cap_out"),
        parse_word("cap_in pants_split pants_split@1 pants_merge@1 pants_merge cap_out"),
    ]
    assert all(w.genus == 2 for w in words)
    values = {evaluate(a, w).dims for w in words}
    assert len(values) == 1


def test_word_order_robustness_s3_torus():
    a = algebra_fixture("s3")
    w1 = parse_word("genus:1")
    w2 = parse_word("cap_in pants_split pants_merge@0 cap_out")
    assert evaluate(a, w1).dims == evaluate(a, w2).dims == 3


def test_pants_arity_bookkeeping():
    w = parse_word("genus:1")
    assert w.arities == (0, 1, 2, 1, 0)


def test_generator_kernel_arities():
    from hochkit.tqft import GeneratorKernels
    a = algebra_fixture("zn:3")
    gens = GeneratorKernels(a, trivial_representation(a))
    split = gens.pants_split()
    assert split.source.dim == 3 and split.target.dim == 9
    merge = gens.pants_merge()
    assert merge.source.dim == 9 and merge.target.dim == 3
    assert gens.cap_in().source.dim == 1 and gens.cap_out().target.dim == 1


def test_disconnected_words():
    # two spheres: the value is the product, and no single genus is claimed
    a = algebra_fixture("zn:2")
    w = parse_word("cap_in cap_out cap_in cap_out")
    assert w.genus is None
    assert w.component_genera == (0, 0)
    assert evaluate(a, w).dims == 1
    # sphere disjoint-union torus has chi = 2 but is not a sphere
    w2 = parse_word("cap_in cap_in@1 pants_split@1 pants_merge@1 cap_out@1 cap_out")
    assert w2.genus is None
    assert w2.component_genera == (1, 0) or w2.component_genera == (0, 1)
    assert evaluate(a, w2).dims == 2  # 1 x (number of classes)


def test_connected_genus_via_components():
    assert parse_word("genus:0").component_genera == (0,)
    assert parse_word("genus:2").component_genera == (2,)
    w = parse_word("cap_in pants_split pants_split@1 pants_merge@1 pants_merge cap_out")
    assert w.genus == 2


def brute_force_orbit_count(a, genus):
    """Orbits of G on G^genus under simultaneous conjugation, enumerated:
    each unseen tuple's whole orbit is marked seen."""
    _, _, table, identity = a.provenance
    inverse = {g: h for g in range(a.dim) for h in range(a.dim) if table[g][h] == identity}
    seen, orbits = set(), 0
    for t in product(range(a.dim), repeat=genus):
        if t not in seen:
            orbits += 1
            seen.update(tuple(table[table[h][x]][inverse[h]] for x in t)
                        for h in range(a.dim))
    return orbits


@pytest.mark.parametrize("name", ALL_GROUP_FIXTURES)
def test_orbit_count_matches_enumeration(name):
    a = algebra_fixture(name)
    for genus in (0, 1, 2):
        assert orbit_count(a, genus) == brute_force_orbit_count(a, genus)
    assert orbit_count(a, 1) == len(simples_of(a))  # the conjugacy classes


def test_orbit_count_refusals():
    with pytest.raises(MissingAugmentation):
        orbit_count(algebra_fixture("mat:2"), 2)
    with pytest.raises(DegreeUnderflow):
        orbit_count(algebra_fixture("s3"), -1)


def test_word_and_kernel_size_guards(monkeypatch):
    assert len(parse_word("genus:31").steps) == MAX_WORD_STEPS == 64
    with pytest.raises(DegreeCapExceeded, match="genus-32 word has 66 steps"):
        parse_word("genus:32")
    with pytest.raises(DegreeCapExceeded, match="66 steps"):
        CobordismWord([("cap_in", 0), ("cap_out", 0)] * 33)
    with pytest.raises(ArityMismatch, match="empty"):
        CobordismWord([])
    # zn:2 split 17 times: after the 14th split the state would have dimension
    # 2^14 on 15 circles, refused before any state is built
    word = parse_word("cap_in " + "pants_split " * 17 + "pants_merge " * 17 + "cap_out")

    def built(*args):
        raise AssertionError("a state was built before the guard")
    monkeypatch.setattr(tqft, "kron", built)
    with pytest.raises(DegreeCapExceeded,
                       match=r"step 14 \(pants_split\) of 'cap_in pants_split .*' over .* "
                             r"state of dimension 16384 on 15 circles: 245760"):
        evaluate(algebra_fixture("zn:2"), word)


# --- the state route against the kernel route --------------------------------

def kernel_route_dims(a, word):
    """The kernel route, kept as the oracle of the state route: convolve the
    step kernels left to right.  The dimension of the composite after each
    step."""
    gens = GeneratorKernels(a, trivial_representation(a))
    total, dims = None, []
    for (gen, pos), arity in zip(word.steps, word.arities):
        step = gens.step_kernel(gen, pos, arity)
        total = step if total is None else convolve(total, step)
        dims.append(total.dim)
    return dims


def assert_routes_agree(a, word):
    dims = [dim for dim, _ in surface_states(a, word)]
    assert dims == kernel_route_dims(a, word)
    assert dims[-1] == evaluate(a, word).dims == \
        prod(orbit_count(a, g) for g in word.component_genera)


@pytest.mark.parametrize("name", ALL_GROUP_FIXTURES)
def test_state_route_matches_kernel_route_to_genus_two(name):
    a = algebra_fixture(name)
    for genus in (0, 1, 2):
        assert_routes_agree(a, parse_word(f"genus:{genus}"))


def random_word(rng, length, top):
    """A closed word of at least `length` steps with at most `top` circles
    open, its generators and positions drawn from rng."""
    steps, arity = [], 0
    while len(steps) < length or arity:
        moves = ["cap_out"] * (arity > 0) + ["pants_merge"] * (arity > 1)
        if len(steps) < length and arity < top:
            moves += ["cap_in"] + ["pants_split"] * (arity > 0)
        gen = rng.choice(moves)
        consumed, produced = GENERATORS[gen]
        steps.append((gen, rng.randint(0, arity - consumed if consumed else arity)))
        arity += produced - consumed
    return CobordismWord(steps)


def test_state_route_matches_kernel_route_on_seeded_words():
    words = []
    for seed in range(24):
        rng = random.Random(seed)
        name = ("zn:2", "zn:3", "s3")[seed % 3]
        word = random_word(rng, rng.randint(4, 8), 2 if name == "s3" else 3)
        assert_routes_agree(algebra_fixture(name), word)
        words.append(word)
    # the draws include positions, bystanders and disconnected surfaces
    assert any(pos > 0 for w in words for _, pos in w.steps)
    assert any(arity > GENERATORS[gen][0]
               for w in words for (gen, _), arity in zip(w.steps, w.arities))
    assert any(len(w.component_genera) > 1 for w in words)


def test_regular_actions_are_built_once_per_algebra(monkeypatch):
    z3 = algebra_fixture("zn:3")  # a fresh copy: nothing is derived on it yet
    a = Algebra(z3.dim, z3.sc, z3.unit, serre=z3.serre, field_order=z3.field_order,
                gens=z3.gens, provenance=z3.provenance)
    elements = tqft._group_elements
    named = []
    monkeypatch.setattr(tqft, "_group_elements", lambda b: named.append(b) or elements(b))
    reads = []
    for _ in range(2):
        firsts = []  # the left factor of every Kronecker product of a step
        monkeypatch.setattr(tqft, "kron", lambda x, y: firsts.append(x) or kron(x, y))
        assert evaluate(a, parse_word("genus:1")).dims == 3
        reads.append(firsts)
    assert named == [a]
    _, left, right = tqft._regular_actions(a)
    for firsts in reads:  # the split reads the stored matrices themselves
        assert len(firsts) == len(left + right)
        assert all(x is y for x, y in zip(firsts, left + right))


def test_split_state_is_the_regular_bimodule():
    # after cap_in pants_split the state is k[G]: the first circle acts by left
    # multiplication, the second by right multiplication with the inverse
    a = algebra_fixture("s3")
    table, identity = a.provenance[2], a.provenance[3]
    dim, (first, second) = next(islice(surface_states(a, parse_word("genus:1")), 1, None))
    assert dim == a.dim
    for g, left, right in zip(a.gens, first, second):
        x = g.index(ONE)
        assert left == a.basis_left_mult(x)
        assert right == a.basis_right_mult(table[x].index(identity))
