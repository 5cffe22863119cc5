"""Path gadgets, their 2x2 interaction-matrix algebra, and the
edge-replacement reduction from the antiferromagnetic two-spin model.

A path gadget assigns the k-th vertex of a path the two-colour list
{i_k, j_k}; the two tracks (i_1..i_L) and (j_1..j_L) are walks in the
target, no step admits both crossings, and the terminal pairs swap.  The
interaction matrix counting colourings per terminal-colour combination is
then computable as an ordered product of 2x2 submatrices of the adjacency
matrix.  One walk along the path, _product, reads each step's 2x2
submatrix, checks the conditions on it and multiplies; interaction_matrix
and the mirror check of symmetrize both read that walk.
The brute-force cross-check counts the gadget's list colourings in one
elimination pass that keeps both terminals as free variables, so all four
entries come from a single table instead of four pinned counts.

Symmetrising a gadget against a terminal-transposing involution makes the
matrix symmetric; thickening (parallel doubling behind fresh pendant
terminals) squares its entries while keeping every internal degree at most 3
and terminal degrees exactly 1.  Edge replacement puts one copy of a gadget
on every edge of a two-spin instance.

Every composed gadget graph is glued by _place, which appends one copy of a
two-terminal gadget with its terminals on two given vertices and its other
vertices numbered after the highest vertex so far, in the gadget's own
order: the mirrored track's interior follows the gadget's own track, the
second parallel copy follows the first, and each edge's copy follows the
instance's vertices and the copies of the edges before it.

A path gadget is its tuple of colour pairs, which interaction_matrix,
path_gadget_graph and symmetrize take as it is.  The gadget for each
forbidden pattern is a row of the witness catalogue in patterns.py, and
gadget_catalog returns that same Recipe record relabelled through the
witness embedding: every colour naming pattern vertex i, in pairs, pendants
and mirror, becomes embedding[i-1].  The search
find_transposing_automorphism is only the tests' reference for the
mirrors, and the package does not export it.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import ColourGraph, Instance, InstanceGraph, Refusal, frozen, replace
from .oracles import list_hcol_table
from .patterns import Recipe, recipe
from .recognizer import ExcludedWitness

Matrix2 = tuple[tuple[int, int], tuple[int, int]]

IDENTITY2: Matrix2 = ((1, 0), (0, 1))

# Highest thickening level thicken builds.  The gadget doubles per level: the
# X3 gadget has 10 vertices at level 0 and 2,560 at level 8.
MAX_THICKENING_LEVEL = 8


def mat_mul(a: Matrix2, b: Matrix2) -> Matrix2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def det2(m: Matrix2) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def swap_cols(m: Matrix2) -> Matrix2:
    return ((m[0][1], m[0][0]), (m[1][1], m[1][0]))


def entrywise_pow(m: Matrix2, e: int) -> Matrix2:
    return ((m[0][0] ** e, m[0][1] ** e), (m[1][0] ** e, m[1][1] ** e))


def _positive(m: Matrix2) -> bool:
    return all(x > 0 for row in m for x in row)


def interaction_matrix(h: ColourGraph, pairs) -> tuple[Matrix2, Matrix2]:
    """(D', D) for a valid gadget, given as its ordered colour pairs: D' is
    the ordered product of the 2x2 adjacency submatrices along the path, D
    its column swap.  Pair order carries the row/column orientation of the
    product even though the lists are sets.

    Row/column a of the entry count corresponds to the a-th terminal colour;
    det D' = 1 and det D = -1 always.
    """
    dprime = _product(h, pairs)
    if dprime is None:
        raise ValueError("invalid path gadget for this target")
    return dprime, swap_cols(dprime)


def _product(h: ColourGraph, pairs) -> Matrix2 | None:
    """The ordered product D' of the 2x2 adjacency submatrices along pairs,
    or None when pairs is not a gadget of h: fewer than two pairs, a colour
    out of range or equal to its partner, terminal pairs that are not swaps,
    or a step whose matrix lacks a 1 on its diagonal (condition (i)) or has
    both off-diagonal 1s (condition (ii))."""
    if len(pairs) < 2 or any(not (1 <= i <= h.n and 1 <= j <= h.n) or i == j for i, j in pairs):
        return None
    (i1, j1), (il, jl) = pairs[0], pairs[-1]
    if (i1, j1) != (jl, il):
        return None
    dprime = IDENTITY2
    for (i1, j1), (i2, j2) in zip(pairs, pairs[1:]):
        step = (
            (int(h.adjacent(i1, i2)), int(h.adjacent(i1, j2))),
            (int(h.adjacent(j1, i2)), int(h.adjacent(j1, j2))),
        )
        if not (step[0][0] and step[1][1]) or (step[0][1] and step[1][0]):
            return None
        dprime = mat_mul(dprime, step)
    return dprime


@frozen
class GadgetGraph:
    """A two-terminal gadget with explicit vertices, edges and colour lists.

    matrix is the algebraically expected interaction matrix: entry (a, b)
    counts list colourings with terminal1 pinned to the a-th terminal colour
    and terminal2 to the b-th.  Brute-force recomputation must agree.
    """

    m: int
    edges: tuple[tuple[int, int], ...]
    lists: tuple[frozenset[int], ...]
    terminal1: int
    terminal2: int
    terminal_colours: tuple[int, int]
    matrix: Matrix2
    colour_count: int

    def __post_init__(self):
        r, s = self.terminal_colours
        if r == s:
            raise ValueError("terminal colours must differ")
        if self.terminal1 == self.terminal2:
            raise ValueError("terminals must be distinct vertices")
        for t in (self.terminal1, self.terminal2):
            if self.lists[t - 1] != frozenset((r, s)):
                raise ValueError("terminal lists must equal the terminal colour pair")

    def instance(self) -> Instance:
        return Instance(
            InstanceGraph.from_edges(self.m, self.edges), self.lists, self.colour_count
        )


def _track(pairs, d: Matrix2, colour_count: int) -> GadgetGraph:
    """The path on vertices 1..len(pairs), vertex k with list pairs[k-1],
    terminals at its ends and matrix d."""
    length = len(pairs)
    edges = tuple((k, k + 1) for k in range(1, length))
    lists = tuple(frozenset(p) for p in pairs)
    return GadgetGraph(length, edges, lists, 1, length, pairs[0], d, colour_count)


def path_gadget_graph(h: ColourGraph, pairs) -> GadgetGraph:
    """Realise the path gadget with these colour pairs as an explicit gadget
    graph; its matrix is D."""
    _, d = interaction_matrix(h, pairs)
    return _track(pairs, d, h.n)


def _place(
    gg: GadgetGraph, t1: int, t2: int, fresh: int, edges: list, lists: list
) -> int:
    """Append a copy of gg to edges and lists: its terminals on t1 and t2,
    its other vertices numbered fresh + 1, fresh + 2, ... in gg's order.
    Returns the last vertex used."""
    remap = {gg.terminal1: t1, gg.terminal2: t2}
    for w in range(1, gg.m + 1):
        if w not in remap:
            fresh += 1
            remap[w] = fresh
            lists.append(gg.lists[w - 1])
    edges.extend(tuple(sorted((remap[x], remap[y]))) for x, y in gg.edges)
    return fresh


def interaction_matrix_bruteforce(h: ColourGraph, gg: GadgetGraph) -> Matrix2:
    """Recompute the interaction matrix by exact counting, independently of
    the matrix algebra.

    One elimination pass over the gadget's instance keeps both terminals as
    free variables and returns the count for every pair of terminal
    colours; entry (a, b) is the count with terminal1 coloured by the a-th
    and terminal2 by the b-th terminal colour (the terminal lists are
    exactly that pair).
    """
    table = list_hcol_table(h, gg.instance(), (gg.terminal1, gg.terminal2))
    pair = gg.terminal_colours
    return tuple(tuple(table.get((a, b), 0) for b in pair) for a in pair)


def find_transposing_automorphism(h: ColourGraph, r: int, s: int):
    """An order-two automorphism of h exchanging r and s, as a 1-based image
    tuple; None when none exists.  Exhaustive iterative backtracking that
    maps the smallest unmapped colour next and tries its smallest images
    first, so the result is deterministic."""
    if r == s or not (1 <= r <= h.n and 1 <= s <= h.n):
        raise ValueError("need two distinct colours of h")
    perm: dict[int, int] = {}

    def image_ok(a: int, b: int) -> bool:
        if h.has_loop(a) != h.has_loop(b) or h.degree(a) != h.degree(b):
            return False
        return all(h.adjacent(a, x) == h.adjacent(b, y) for x, y in perm.items())

    def unmapped():
        return next((x for x in h.colours if x not in perm), None)

    if not image_ok(r, s):
        return None
    perm[r], perm[s] = s, r
    # frames[k] is (v, the images still to try for v) for the k-th colour
    # mapped by the search; v and its current image are swapped in perm
    frames = []
    while (v := unmapped()) is not None:
        frames.append((v, iter(h.colours)))
        while frames:
            v, images = frames[-1]
            if v in perm:  # undo the image tried last
                perm.pop(perm.pop(v), None)
            # perm stays an involution, so image_ok(v, w) also covers w -> v
            w = next((w for w in images if w not in perm and image_ok(v, w)), None)
            if w is not None:
                break
            frames.pop()
        else:
            return None
        perm[v], perm[w] = w, v
    return tuple(perm[x] for x in h.colours)


def symmetrize(h: ColourGraph, pairs, pi) -> GadgetGraph:
    """Compose the path gadget with these colour pairs with its image under a
    terminal-transposing involution pi, in parallel with shared terminals.

    pi is a 1-based image tuple over the colours of h.  It must swap the two
    terminal colours, be an involution, and act on the gadget as an
    automorphism does: the image gadget must be valid and reproduce D in its
    own pair orientation.  (That check is what matters, so an involution
    that only restricts to an automorphism on the colours the gadget uses is
    accepted.)  Since the image gadget's terminal pair is (s, r), its matrix
    re-indexed to (r, s) order is the row-and-column swap of D.  All entries
    of D must be positive.

    Returns the composite gadget graph; its matrix is the symmetric
    D* = [[D11*D22, D12*D21], [D21*D12, D22*D11]].
    """
    dprime, d = interaction_matrix(h, pairs)
    if not _positive(d):
        raise ValueError("symmetrisation needs a strictly positive interaction matrix")
    pi = tuple(pi)
    if len(pi) != h.n or sorted(pi) != list(h.colours):
        raise ValueError("pi must be a permutation of the colours of h")
    if any(pi[pi[x - 1] - 1] != x for x in h.colours):
        raise ValueError("pi must be an involution")
    r, s = pairs[0]
    if pi[r - 1] != s or pi[s - 1] != r:
        raise ValueError("pi must transpose the terminal colours")
    mirrored = tuple((pi[i - 1], pi[j - 1]) for i, j in pairs)
    if _product(h, mirrored) != dprime:
        raise ValueError("pi does not act as an automorphism on the gadget")

    dstar: Matrix2 = (
        (d[0][0] * d[1][1], d[0][1] * d[1][0]),
        (d[1][0] * d[0][1], d[1][1] * d[0][0]),
    )
    # the gadget's own track keeps vertices 1..length; the mirrored track, a
    # path with the same edges, shares its terminals 1 and length, and its
    # interior follows
    track = _track(mirrored, d, h.n)
    edges, lists = list(track.edges), [frozenset(p) for p in pairs]
    m = _place(track, 1, track.m, track.m, edges, lists)
    return GadgetGraph(m, tuple(sorted(edges)), tuple(lists), 1, track.m, (r, s), dstar, h.n)


def _splits(h: ColourGraph, r: int, s: int, c: int) -> bool:
    """c is adjacent to r and not to s."""
    return h.adjacent(r, c) and not h.adjacent(s, c)


def _append_pendants(gg: GadgetGraph, pair: tuple[int, int]) -> GadgetGraph:
    u0, v0 = gg.m + 1, gg.m + 2
    edges = tuple(sorted(gg.edges + ((gg.terminal1, u0), (gg.terminal2, v0))))
    lists = gg.lists + (frozenset(pair), frozenset(pair))
    return replace(gg, m=v0, edges=edges, lists=lists, terminal1=u0, terminal2=v0,
                   terminal_colours=pair)


def _parallel_double(gg: GadgetGraph) -> GadgetGraph:
    """Two copies of gg sharing both terminals; entrywise-squared matrix."""
    edges, lists = list(gg.edges), list(gg.lists)
    m = _place(gg, gg.terminal1, gg.terminal2, gg.m, edges, lists)
    # an edge between the terminals is shared by both copies, so it is kept once
    return replace(gg, m=m, edges=tuple(sorted(set(edges))), lists=tuple(lists),
                   matrix=entrywise_pow(gg.matrix, 2))


def thicken(
    h: ColourGraph,
    base: GadgetGraph,
    rp_sp: tuple[int, int],
    t: int,
) -> GadgetGraph:
    """Bounded-degree thickening of a symmetrised gadget.

    Level 0 appends a pendant terminal with list {r', s'} on each side.
    Each further level places two copies of the previous gadget in parallel,
    identifying their terminals, and appends fresh pendant terminals whose
    lists alternate between {r, s} and {r', s'}.  The interaction matrix of
    level t is the entrywise 2^t power of the base matrix; terminals end up
    with degree 1 and every internal vertex with degree at most 3.

    The gadget doubles in size per level, so t is capped at
    MAX_THICKENING_LEVEL.
    """
    if t < 0:
        raise Refusal("thickening level must be non-negative")
    if t > MAX_THICKENING_LEVEL:
        raise Refusal(
            f"thickening level {t} exceeds the size cap {MAX_THICKENING_LEVEL}")
    if not _positive(base.matrix):
        raise ValueError("thickening needs a strictly positive interaction matrix")
    r, s = base.terminal_colours
    rp, sp = rp_sp
    if not (_splits(h, r, s, rp) and _splits(h, s, r, sp)):
        raise ValueError(f"({rp},{sp}) does not split the terminal colours ({r},{s})")

    gg = _append_pendants(base, (rp, sp))
    for level in range(1, t + 1):
        pair = (r, s) if level % 2 == 1 else (rp, sp)
        gg = _append_pendants(_parallel_double(gg), pair)

    degrees = [0] * (gg.m + 1)
    for u, v in gg.edges:
        degrees[u] += 1
        degrees[v] += 1
    if degrees[gg.terminal1] != 1 or degrees[gg.terminal2] != 1:
        raise RuntimeError("thickened gadget terminals must have degree 1")
    if any(
        degrees[v] > 3
        for v in range(1, gg.m + 1)
        if v not in (gg.terminal1, gg.terminal2)
    ):
        raise RuntimeError("thickened gadget internal vertices must have degree <= 3")
    if gg.matrix != entrywise_pow(base.matrix, 2**t):
        raise RuntimeError(
            "thickened gadget matrix must be the base matrix to the power 2^t")
    return gg


def reduce_ising_to_listhcol(
    g: InstanceGraph, gg: GadgetGraph
) -> tuple[Instance, Fraction, int]:
    """Replace every edge of g by a copy of gg, identifying the terminals
    with the edge's endpoints.

    Needs a symmetric antiferromagnetic matrix [[a, b], [b, a]] with
    0 < a < b.  Returns (instance, a/b, b^|E|); the list-colouring count of
    the instance equals b^|E| times the two-spin partition function of g at
    weight a/b.
    """
    m = gg.matrix
    if m[0][0] != m[1][1] or m[0][1] != m[1][0]:
        raise ValueError("edge replacement needs a symmetric interaction matrix")
    a, b = m[0][0], m[0][1]
    if not (0 < a < b):
        raise ValueError("edge replacement needs 0 < diagonal < off-diagonal")
    lam = Fraction(a, b)
    scale = b ** len(g.edges)

    term_list = frozenset(gg.terminal_colours)
    lists: list[frozenset[int]] = [term_list] * g.m
    edges: list[tuple[int, int]] = []
    fresh = g.m
    for u, v in g.edges:
        fresh = _place(gg, u, v, fresh, edges, lists)
    inst = Instance(
        InstanceGraph.from_edges(fresh, edges), tuple(lists), gg.colour_count
    )
    return inst, lam, scale


# ---------------------------------------------------------------------------
# the gadget catalog, read from the witness catalogue in patterns

def gadget_catalog(witness: ExcludedWitness) -> Recipe:
    """The catalogue row of the witness's kind, relabelled through its
    embedding: pairs and pendants in the target's colours, and mirror[i-1]
    the target colour that the mirror sends embedding[i-1] to."""
    row = recipe(witness.kind, witness.length)
    emb = witness.embedding
    return replace(row, pairs=tuple((emb[i - 1], emb[j - 1]) for i, j in row.pairs),
                   pendants=(emb[row.pendants[0] - 1], emb[row.pendants[1] - 1]),
                   mirror=tuple(emb[y - 1] for y in row.mirror))


def build_symmetrized(
    h: ColourGraph, witness: ExcludedWitness
) -> tuple[Recipe, GadgetGraph]:
    """Catalog gadget for the witness, symmetrised inside h.

    The involution is the relabelled row's mirror, fixing every other colour
    of h, so it need not be an automorphism of all of h; symmetrize checks
    it (ValueError if wrong).
    """
    row = gadget_catalog(witness)
    image = dict(zip(witness.embedding, row.mirror, strict=True))
    return row, symmetrize(h, row.pairs, tuple(image.get(c, c) for c in h.colours))
