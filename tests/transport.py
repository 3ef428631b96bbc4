"""Transport of structure: an algebra in a new basis, with everything a
fixture carries moved along.  The copy is isomorphic to the algebra, so
every identity that holds on one holds on the other, and a basis that is
not made of class sums or matrix units shows what the fixtures' bases hide.
"""

from __future__ import annotations

from hochkit.algebra import Algebra, DictSC, SerreData
from hochkit.linalg import SparseMatrix, solve, vec
from hochkit.modules import ModuleRep, attach_simples
from hochkit.scalars import ZERO


def rebased(a: Algebra, basis, field_order: int | None = None) -> Algebra:
    """a in the basis f_i = sum_k basis[i][k] e_k, over Q(zeta_field_order)
    (a's own field by default): the structure constants, unit and generators
    in f-coordinates, the Serre functional at the f_i, and a's attached
    simples, if any, with f_i acting as that combination of the e_k."""
    d, basis = a.dim, [vec(x) for x in basis]
    images = [a.mul(x, y) for x in basis for y in basis] + [a.unit, *a.gens]
    coords = solve(SparseMatrix.from_columns(basis, d),
                   SparseMatrix.from_columns(images, d)).transpose()
    table = {(i // d, i % d): {k: x for k, x in enumerate(coords.row_vector(i)) if x}
             for i in range(d * d)}
    serre = None if a.serre is None else SerreData(
        [sum((x * y for x, y in zip(f, a.serre.functional)), ZERO) for f in basis])
    copy = Algebra(d, DictSC(table), coords.row_vector(d * d), serre=serre,
                   field_order=a.field_order if field_order is None else field_order,
                   gens=[coords.row_vector(d * d + 1 + g) for g in range(len(a.gens))],
                   provenance=("custom", "rebased"))
    if a.simple_reps is not None:
        attach_simples(copy, [ModuleRep(copy, m.dim, [m.act(f) for f in basis], name=m.name,
                                        check=True) for m in a.simple_reps])
    return copy
