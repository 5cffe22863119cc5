"""Named small graphs used throughout: forbidden-subgraph patterns for the
two hereditary classes, plus a handful of pocket-sized targets.

The bipartite-permutation obstructions (X3, X2, T2 and cycles of length
other than four) are irreflexive; the proper-interval obstructions (claw,
net, S3 and cycles of length at least four) are reflexive.

This module also holds the witness catalogue, the one place that lists the
witness kinds: RECIPES has a row per fixed-shape pattern with the path
gadget the hardness proof builds on it and its terminal-swapping mirror,
and cycle_recipe builds the row of a cycle kind from its length.  The
recogniser's obstruction searches, the gadget catalogue and the CLI's
--witness selector all read it.
"""

from __future__ import annotations

from functools import cached_property

from .graphs import ColourGraph, Refusal, frozen


def _with_loops(n: int, edges: list[tuple[int, int]]) -> ColourGraph:
    return ColourGraph.from_edges(n, edges + [(v, v) for v in range(1, n + 1)])


def cycle(length: int, *, reflexive: bool = False) -> ColourGraph:
    """Cycle on vertices 1..length in cyclic order."""
    if length < 3:
        raise ValueError("cycles need at least 3 vertices")
    edges = [(v, v + 1) for v in range(1, length)] + [(length, 1)]
    return _with_loops(length, edges) if reflexive else ColourGraph.from_edges(length, edges)


def path(vertices: int, *, reflexive: bool = False) -> ColourGraph:
    """Path on vertices 1..vertices in order."""
    if vertices < 1:
        raise ValueError("paths need at least 1 vertex")
    edges = [(v, v + 1) for v in range(1, vertices)]
    return _with_loops(vertices, edges) if reflexive else ColourGraph.from_edges(vertices, edges)


def complete(n: int, *, reflexive: bool) -> ColourGraph:
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return _with_loops(n, edges) if reflexive else ColourGraph.from_edges(n, edges)


def complete_bipartite(a: int, b: int) -> ColourGraph:
    """Irreflexive K_{a,b} with side {1..a} against {a+1..a+b}."""
    edges = [(u, a + v) for u in range(1, a + 1) for v in range(1, b + 1)]
    return ColourGraph.from_edges(a + b, edges)


def star(leaves: int, *, reflexive: bool = False) -> ColourGraph:
    """Star with centre leaves+1 and leaves 1..leaves."""
    edges = [(v, leaves + 1) for v in range(1, leaves + 1)]
    return _with_loops(leaves + 1, edges) if reflexive else ColourGraph.from_edges(leaves + 1, edges)


# Edge with a loop on one endpoint; colourings against it pick out
# independent sets (colour 1 = "in").
K2_PRIME = ColourGraph.from_edges(2, [(1, 2), (2, 2)])

# Looped path 1-2-3 with pendant 4 on the centre; the smallest target whose
# list problem is strictly harder than its plain counting problem.
TWO_WRENCH = ColourGraph.from_edges(
    4, [(1, 2), (2, 3), (2, 4), (2, 2), (3, 3), (4, 4)]
)

# Reflexive path on three vertices.
P3_STAR = path(3, reflexive=True)

# Irreflexive path on four vertices.
P4 = path(4)

# Bipartite-permutation obstructions (irreflexive, 7 vertices each).
X3 = ColourGraph.from_edges(
    7, [(6, 5), (5, 1), (1, 4), (4, 2), (2, 7), (7, 6), (6, 4), (4, 3)]
)
X2 = ColourGraph.from_edges(
    7, [(1, 6), (6, 2), (2, 7), (2, 4), (4, 3), (4, 1), (1, 5)]
)
T2 = ColourGraph.from_edges(
    7, [(6, 1), (1, 5), (5, 4), (4, 3), (5, 2), (2, 7)]
)

# Proper-interval obstructions (reflexive).
CLAW = _with_loops(4, [(4, 1), (4, 2), (4, 3)])
NET = _with_loops(6, [(5, 1), (1, 4), (4, 2), (2, 6), (3, 4), (1, 2)])
S3 = _with_loops(
    6, [(4, 1), (1, 3), (3, 2), (2, 6), (6, 5), (5, 4), (1, 2), (2, 5), (5, 1)]
)


# ---------------------------------------------------------------------------
# the witness catalogue

@frozen
class Recipe:
    """A forbidden pattern and the path gadget built on it: the gadget's
    colour pairs (the first is the terminal pair), its expected D', the
    pendant pair (r', s') that thickening appends, and the mirror, an
    automorphism of order two swapping the terminals, against which
    build_symmetrized symmetrises the gadget.

    A catalogue row is in the pattern's own labels, and mirror[i-1] is the
    image of pattern vertex i.  gadgets.gadget_catalog relabels a row
    through a witness embedding into the target's colours: pairs and
    pendants name target colours, and mirror[i-1] is the target colour that
    the mirror sends embedding[i-1] to.  kind, length, dprime and pattern
    stay the pattern's in either labelling.  A cycle row builds its pattern
    only when something reads it."""

    kind: str
    length: int | None
    pairs: tuple[tuple[int, int], ...]
    dprime: tuple[tuple[int, int], tuple[int, int]]
    pendants: tuple[int, int]
    mirror: tuple[int, ...]

    @cached_property
    def pattern(self) -> ColourGraph:
        if self.length is None:
            return FIXED_PATTERNS[self.kind]
        return cycle(self.length, reflexive=self.kind == cycle_kind(True))

    @property
    def terminals(self) -> tuple[int, int]:
        return self.pairs[0]

    @property
    def reflexive(self) -> bool:
        """True for the proper-interval kinds, False for the
        bipartite-permutation kinds."""
        return self.pattern.has_loop(1)


# The pattern of each fixed-shape kind.
FIXED_PATTERNS = {"X3": X3, "X2": X2, "T2": T2, "Claw": CLAW, "Net": NET, "S3": S3}

# The fixed-shape kinds, bipartite-permutation ones first; the obstruction
# searches try the rows of their class in this order.
RECIPES = (
    Recipe("X3", None, ((1, 2), (4, 7), (3, 6), (4, 5), (2, 1)),
           ((2, 3), (3, 5)), (5, 7), (2, 1, 3, 4, 7, 6, 5)),
    Recipe("X2", None, ((1, 2), (4, 7), (3, 2), (4, 6), (3, 1), (4, 5), (2, 1)),
           ((5, 8), (8, 13)), (5, 7), (2, 1, 3, 4, 7, 6, 5)),
    Recipe("T2", None, ((1, 2), (5, 7), (4, 2), (3, 5), (4, 1), (5, 6), (2, 1)),
           ((5, 7), (7, 10)), (6, 7), (2, 1, 3, 4, 5, 7, 6)),
    Recipe("Claw", None, ((1, 2), (4, 2), (3, 4), (4, 1), (2, 1)),
           ((2, 3), (3, 5)), (1, 2), (2, 1, 3, 4)),
    Recipe("Net", None, ((1, 2), (4, 6), (3, 2), (3, 1), (4, 5), (2, 1)),
           ((2, 3), (3, 5)), (5, 6), (2, 1, 3, 4, 6, 5)),
    Recipe("S3", None, ((1, 2), (3, 6), (3, 5), (3, 4), (2, 1)),
           ((1, 1), (1, 2)), (4, 6), (2, 1, 3, 6, 5, 4)),
)

# The cycle kinds, each with the one length at which its cycle is complete
# (C4 = K_{2,2}; the reflexive C3 = K_3) and so not an obstruction.
CYCLE_KINDS = {"CycleNe4": 4, "CycleGe4": 3}


def cycle_kind(reflexive: bool) -> str:
    """The cycle kind of the class with this loop status: CycleGe4 for the
    reflexive (proper-interval) class, CycleNe4 for the irreflexive
    (bipartite-permutation) one.  Every other module asks this."""
    return "CycleGe4" if reflexive else "CycleNe4"


def cycle_obstructs(kind: str, length: int | None) -> bool:
    """Whether a chordless cycle of this kind and length is an obstruction:
    every length from 3 on except the complete one."""
    return length is not None and 3 <= length != CYCLE_KINDS[kind]


def cycle_recipe(kind: str, length: int | None) -> Recipe:
    """The catalogue row of a cycle kind: CycleNe4 (irreflexive, every
    length but 4) or CycleGe4 (reflexive, every length from 4)."""
    if kind not in CYCLE_KINDS:
        raise ValueError(f"unknown witness kind {kind!r}")
    if not cycle_obstructs(kind, length):
        raise Refusal(f"bad cycle length {length!r} for kind {kind}")
    q = length
    if kind == "CycleNe4" and q % 2 == 1:
        j_track = [*range(2, q + 1), *range(q - 1, 1, -1), 1]
        pairs = tuple((1 if k % 2 == 0 else 2, j) for k, j in enumerate(j_track))
        dprime, pendants = ((2, 1), (1, 1)), (2, 1)
    elif kind == "CycleNe4":
        pairs = tuple((1 if k % 2 == 1 else 2, k + 2) for k in range(1, q - 1)) + ((3, 1),)
        dprime, pendants = ((1, 2), (1, 3)), (q, 4)
    else:
        pairs = tuple((1, k + 1) for k in range(1, q)) + ((2, 1),)
        dprime, pendants = ((1, 2), (1, 3)), (q, 3)
    # the reflection x -> r + s - x (mod q) of the cycle swaps the terminals r, s
    mirror = tuple((sum(pairs[0]) - x - 1) % q + 1 for x in range(1, q + 1))
    return Recipe(kind, q, pairs, dprime, pendants, mirror)


def recipe(kind: str, length: int | None = None) -> Recipe:
    """The catalogue row of a witness kind; a cycle kind needs its length,
    and a fixed-shape kind takes none."""
    for row in RECIPES:
        if row.kind == kind:
            if length is not None:
                raise ValueError(f"witness kind {kind} takes no length, got {length!r}")
            return row
    return cycle_recipe(kind, length)
