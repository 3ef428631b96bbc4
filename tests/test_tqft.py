from itertools import product

import pytest

from hochkit.algebra import center_basis
from hochkit.errors import (
    ArityMismatch, DegreeCapExceeded, DegreeUnderflow, MissingAugmentation, ParseError,
)
from hochkit.fixtures import ALL_GROUP_FIXTURES, algebra_fixture
from hochkit.hochschild import hh_homology_dims
from hochkit.modules import simples_of
from hochkit.tqft import (
    MAX_WORD_STEPS, CobordismWord, GeneratorKernels, evaluate, orbit_count, parse_word,
    trivial_representation,
)


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
    # zn:2 split 17 times: the last split acts at arity 17 with a kernel of
    # dimension 2^18, refused before any kernel is built
    word = parse_word("cap_in " + "pants_split " * 17 + "pants_merge " * 17 + "cap_out")

    def built(*args):
        raise AssertionError("a kernel was built before the guard")
    monkeypatch.setattr(GeneratorKernels, "step_kernel", built)
    with pytest.raises(DegreeCapExceeded,
                       match=r"step 17 \(pants_split at arity 17\) needs a kernel of "
                             r"dimension 262144"):
        evaluate(algebra_fixture("zn:2"), word)
