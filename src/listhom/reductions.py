"""Count-preserving compilers.

Two reductions live here.  The first turns a list-colouring instance over a
staircase-certified target into an implication-CNF formula whose satisfying
assignments are in bijection with the list colourings.  It returns each
vertex's side beside the formula, and VARIABLE_NUMBERING states how it
numbers the variables, so the reduce-sat sidecar carries all that a reader
needs to turn a model back into a colouring.  The second rewrites
4-path counting as list counting over the looped 3-path, exact up to a power
of two that tracks the mirror symmetry of each component.
"""

from __future__ import annotations

from .graphs import (
    ColourGraph,
    Instance,
    InstanceGraph,
    bipartition,
    frozen,
    instance_components,
)
from .oracles import ImplicationFormula, implies, unit_neg, unit_pos
from .recognizer import StaircaseForm


@frozen
class StaircaseEncoding:
    """A staircase arrangement of the target's full adjacency structure.

    q is the target's colour count.  The arranged q x q matrix is the one
    that StaircaseForm.arrangement gives for the form: in bipartite mode (a
    biadjacency form) the block matrix [[B, 0], [0, B^T]], so both
    component orientations stay representable; in reflexive mode the
    permuted adjacency matrix itself.  r_order/c_order attach a colour to
    every row and column; alpha/beta are the per-row 1-blocks (None for
    all-zero rows).
    """

    mode: str
    q: int
    r_order: tuple[int, ...]
    c_order: tuple[int, ...]
    alpha: tuple[int | None, ...]
    beta: tuple[int | None, ...]


def build_staircase_encoding(h: ColourGraph, sf: StaircaseForm) -> StaircaseEncoding:
    """The encoding of h under a certifying staircase form: the form's
    arrangement of all h's colours (StaircaseForm.arrangement), checked in
    one scan of h's neighbour lists with no matrix built.  Rejects forms
    that do not certify h.
    """
    arranged = sf.arrangement(h)
    if arranged is None:
        raise ValueError("staircase form does not certify this target")
    mode = "bipartite" if sf.kind == "biadjacency" else "reflexive"
    return StaircaseEncoding(mode, h.n, *arranged)


# How reduce_listhcol_to_1p1n numbers its variables: level i of vertex u's
# chain, vertex-major.  The reduce-sat sidecar states it in these words.
VARIABLE_NUMBERING = "var(u, i) = (u-1)*(q+1) + i + 1 for 0 <= i <= q"


def reduce_listhcol_to_1p1n(
    enc: StaircaseEncoding, inst: Instance
) -> tuple[ImplicationFormula, tuple[int, ...]]:
    """Formula whose models are in bijection with the list colourings, and
    the side of each vertex: 1 when r_order interprets its levels, 2 when
    c_order does (always 1 in reflexive mode).

    Per vertex: a monotone chain x_0 = 1 >= x_1 >= ... >= x_q = 0 whose drop
    position selects the colour (x_i = 1 iff the colour sits strictly after
    level i in the vertex's order), with variables numbered as
    VARIABLE_NUMBERING says.  Per edge, oriented from the row side: level i
    of the first endpoint confines the second endpoint to the 1-block
    [alpha_i, beta_i].  Per missing list colour: a clause collapsing the
    corresponding drop position.

    In bipartite mode a non-bipartite instance has no colourings; the formula
    then carries a contradictory unit pair.
    """
    if inst.colour_count != enc.q:
        raise ValueError("encoding and instance disagree on the colour count")
    q = enc.q
    g = inst.g
    var_count = g.m * (q + 1)
    sides = (1,) * g.m
    if enc.mode == "bipartite":
        sides_sets = bipartition(g)
        if sides_sets is None:
            return ImplicationFormula(var_count, (unit_pos(1), unit_neg(1))), sides
        v1, _ = sides_sets
        sides = tuple(1 if v in v1 else 2 for v in g.vertices)

    def var(u: int, i: int) -> int:
        return (u - 1) * (q + 1) + i + 1

    clauses = []
    for u in g.vertices:
        clauses.append(unit_pos(var(u, 0)))
        clauses.append(unit_neg(var(u, q)))
        for j in range(1, q + 1):
            clauses.append(implies(var(u, j), var(u, j - 1)))
    for u, v in g.edges:
        if sides[u - 1] == 2:
            u, v = v, u
        for i in range(1, q + 1):
            a, b = enc.alpha[i - 1], enc.beta[i - 1]
            if a is None:
                # a neighbourless row colour is impossible on any edge
                clauses.append(implies(var(u, i - 1), var(u, i)))
            else:
                clauses.append(implies(var(u, i - 1), var(v, a - 1)))
                clauses.append(implies(var(v, b), var(u, i)))
    for u in g.vertices:
        order = enc.r_order if sides[u - 1] == 1 else enc.c_order
        allowed = inst.lists[u - 1]
        for i in range(1, q + 1):
            if order[i - 1] not in allowed:
                clauses.append(implies(var(u, i - 1), var(u, i)))
    return ImplicationFormula(var_count, tuple(clauses)), sides


def reduce_p4_to_p3star(g: InstanceGraph) -> tuple[Instance, int]:
    """List instance over the looped 3-path whose count, times 2 per
    component, equals the number of 4-path colourings of g.

    Each component admits exactly two mirror orientations of the 4-path, and
    an isolated vertex has four path colours against two listed ones, so the
    multiplier is 2^(number of components).  Non-bipartite g has no 4-path
    colourings; a zero-count instance with multiplier 1 is returned.
    """
    sides = bipartition(g)
    if sides is None:
        empty = tuple(frozenset() for _ in range(g.m))
        return Instance(g, empty, 3), 1
    v1, _ = sides
    lists = tuple(
        frozenset((1, 2)) if v in v1 else frozenset((2, 3)) for v in g.vertices
    )
    return Instance(g, lists, 3), 2 ** len(instance_components(g))
