"""Expected answers computed by the benchmark itself.

Nothing here calls the hochkit function whose output it predicts.  The
references come from the group table, from character theory, or from the
benchmark's own bookkeeping of the words it generated:

* HH_* and HH^* of a group algebra over a field of characteristic 0 are
  the class functions in degree 0 and vanish above it, so the expected
  dimensions are [number of conjugacy classes, 0, ...].
* HH of the truncated polynomial ring C[x]/x^k is [k, k-1, k-1, ...] in
  both homology and cohomology.
* The closed surface of genus g over C[G] evaluates to the number of
  orbits of G acting on G^g by simultaneous conjugation, which Burnside's
  lemma gives as (1/|G|) * sum_h |C_G(h)|^g.  Genus 0 gives 1 and genus 1
  the class count; s3 genus 2 gives 11.  A disconnected word gives the
  product of its components' values.
* The Chern character of a simple S of C[G] is (1/|G|) sum_g chi_S(g^-1) g,
  and the outer kernel built from (V, W) sends ch(S) to ch(W) when S = V
  and to 0 otherwise.
"""

from __future__ import annotations

from fractions import Fraction


def inverses(table, identity: int) -> list[int]:
    n = len(table)
    return [next(h for h in range(n) if table[g][h] == identity) for g in range(n)]


def centralizer_sizes(table) -> list[int]:
    n = len(table)
    return [sum(1 for x in range(n) if table[h][x] == table[x][h]) for h in range(n)]


def class_count(table) -> int:
    # Burnside: orbits of conjugation = average centralizer size
    return surface_value(table, 1)


def surface_value(table, genus: int) -> int:
    total = sum(c ** genus for c in centralizer_sizes(table))
    assert total % len(table) == 0
    return total // len(table)


def chern_reference(group_algebra, simple, zero, scalar) -> tuple:
    """Coordinates of ch(S) from the character of S.  `zero` and `scalar`
    are the scalar type's zero and its constructor from a Fraction."""
    table, identity = group_algebra.provenance[2], group_algebra.provenance[3]
    n = len(table)
    inv = inverses(table, identity)
    chi = [sum((simple.action[g].entry(i, i) for i in range(simple.dim)), zero)
           for g in range(n)]
    scale = scalar(Fraction(1, n))
    return tuple(chi[inv[g]] * scale for g in range(n))


# --- cobordism words -----------------------------------------------------------

DELTA = {"cap_in": 1, "cap_out": -1, "pants_split": 1, "pants_merge": -1}


def word_genera(steps) -> list[int]:
    """Genera of the closed components of a word, tracked as Euler
    characteristics per component: a disk adds 1, a pair of pants -1."""
    circles: list[int] = []
    chi: dict[int, int] = {}
    open_circles: dict[int, int] = {}
    closed: list[int] = []
    for step, (gen, pos) in enumerate(steps):
        if gen == "cap_in":
            comp = step
            chi[comp], open_circles[comp] = 1, 1
            circles.insert(pos, comp)
        elif gen == "cap_out":
            comp = circles.pop(pos)
            chi[comp] += 1
            open_circles[comp] -= 1
            if open_circles[comp] == 0:
                closed.append(chi[comp])
        elif gen == "pants_split":
            comp = circles[pos]
            chi[comp] -= 1
            open_circles[comp] += 1
            circles.insert(pos + 1, comp)
        else:
            keep, gone = circles[pos], circles.pop(pos + 1)
            chi[keep] -= 1
            open_circles[keep] -= 1
            if gone != keep:
                chi[keep] += chi.pop(gone)
                open_circles[keep] += open_circles.pop(gone)
                circles = [keep if c == gone else c for c in circles]
    assert not circles
    return [(2 - c) // 2 for c in closed]


def random_word(rng, types) -> list[tuple[str, int]]:
    """A closed word with the given generator sequence and seeded positions.
    The sequence fixes the arity at every step, which fixes the sizes of the
    kernels convolved; the positions decide which circles meet."""
    arity, steps = 0, []
    for gen in types:
        top = {"cap_in": arity, "cap_out": arity - 1,
               "pants_split": arity - 1, "pants_merge": arity - 2}[gen]
        steps.append((gen, rng.randint(0, top)))
        arity += DELTA[gen]
    assert arity == 0
    return steps
