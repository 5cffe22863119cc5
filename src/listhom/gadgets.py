"""Path gadgets, their 2x2 interaction-matrix algebra, and the
edge-replacement reduction from the antiferromagnetic two-spin model.

A path gadget assigns the k-th vertex of a path the two-colour list
{i_k, j_k}; the two tracks (i_1..i_L) and (j_1..j_L) are walks in the
target, no step admits both crossings, and the terminal pairs swap.  The
interaction matrix counting colourings per terminal-colour combination is
then computable as an ordered product of 2x2 submatrices of the adjacency
matrix.  The brute-force cross-check counts the gadget's list colourings
in one elimination pass that keeps both terminals as free variables, so
all four entries come from a single table instead of four pinned counts.

Symmetrising a gadget against a terminal-transposing automorphism makes the
matrix symmetric; thickening (parallel doubling behind fresh pendant
terminals) squares its entries while keeping every internal degree at most 3
and terminal degrees exactly 1.

The gadget for each forbidden pattern (its colour pairs, expected D',
terminal pair and pendant pair) is not kept here: gadget_catalog and
build_symmetrized read it from the witness catalogue in patterns.py and
relabel it through the witness embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import ColourGraph, Instance, InstanceGraph
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


@dataclass(frozen=True)
class PathGadget:
    """Ordered colour pairs along a path; pair order carries the row/column
    orientation of the matrix product even though the lists are sets."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return len(self.pairs)

    @property
    def terminal_colours(self) -> tuple[int, int]:
        return self.pairs[0]


def validate_gadget(h: ColourGraph, g: PathGadget) -> bool:
    """Check the three gadget conditions against h.

    (i) both colour tracks are walks in h (loops allowed as steps),
    (ii) no position admits both crossings between the tracks,
    (iii) the terminal pairs are swaps of each other.
    Out-of-range colours simply fail the check.
    """
    pairs = g.pairs
    if len(pairs) < 2:
        return False
    for i, j in pairs:
        if not (1 <= i <= h.n and 1 <= j <= h.n) or i == j:
            return False
    for (i1, j1), (i2, j2) in zip(pairs, pairs[1:]):
        if not (h.adjacent(i1, i2) and h.adjacent(j1, j2)):
            return False
        if h.adjacent(i1, j2) and h.adjacent(j1, i2):
            return False
    (i1, j1), (il, jl) = pairs[0], pairs[-1]
    return i1 == jl and j1 == il


def interaction_matrix(h: ColourGraph, g: PathGadget) -> tuple[Matrix2, Matrix2]:
    """(D', D) for a valid gadget: D' is the ordered product of the 2x2
    adjacency submatrices along the path, D its column swap.

    Row/column a of the entry count corresponds to the a-th terminal colour;
    det D' = 1 and det D = -1 always.
    """
    if not validate_gadget(h, g):
        raise ValueError("invalid path gadget for this target")
    dprime = IDENTITY2
    for (i1, j1), (i2, j2) in zip(g.pairs, g.pairs[1:]):
        step = (
            (h.adj[i1 - 1][i2 - 1], h.adj[i1 - 1][j2 - 1]),
            (h.adj[j1 - 1][i2 - 1], h.adj[j1 - 1][j2 - 1]),
        )
        dprime = mat_mul(dprime, step)
    return dprime, swap_cols(dprime)


@dataclass(frozen=True)
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


def path_gadget_graph(h: ColourGraph, g: PathGadget) -> GadgetGraph:
    """Realise a path gadget as an explicit gadget graph; its matrix is D."""
    _, d = interaction_matrix(h, g)
    length = g.length
    edges = tuple((k, k + 1) for k in range(1, length))
    lists = tuple(frozenset(p) for p in g.pairs)
    return GadgetGraph(length, edges, lists, 1, length, g.pairs[0], d, h.n)


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


def symmetrize(h: ColourGraph, g: PathGadget, pi) -> tuple[GadgetGraph, Matrix2]:
    """Compose g with its image under a terminal-transposing involution pi,
    in parallel with shared terminals.

    pi is a 1-based image tuple over the colours of h.  It must swap the two
    terminal colours, be an involution, and act on the gadget as an
    automorphism does: the image gadget must be valid and reproduce D in its
    own pair orientation.  (That check is what matters, so an involution
    that only restricts to an automorphism on the colours the gadget uses is
    accepted.)  Since the image gadget's terminal pair is (s, r), its matrix
    re-indexed to (r, s) order is the row-and-column swap of D.  All entries
    of D must be positive.

    Returns the composite gadget graph and its symmetric matrix
    [[D11*D22, D12*D21], [D21*D12, D22*D11]].
    """
    _, d = interaction_matrix(h, g)
    if not _positive(d):
        raise ValueError("symmetrisation needs a strictly positive interaction matrix")
    pi = tuple(pi)
    if len(pi) != h.n or sorted(pi) != list(h.colours):
        raise ValueError("pi must be a permutation of the colours of h")
    if any(pi[pi[x - 1] - 1] != x for x in h.colours):
        raise ValueError("pi must be an involution")
    r, s = g.terminal_colours
    if pi[r - 1] != s or pi[s - 1] != r:
        raise ValueError("pi must transpose the terminal colours")
    mirrored = PathGadget(tuple((pi[i - 1], pi[j - 1]) for i, j in g.pairs))
    if not validate_gadget(h, mirrored):
        raise ValueError("pi does not act as an automorphism on the gadget")
    _, d_mirror = interaction_matrix(h, mirrored)
    if d_mirror != d:
        raise ValueError("pi does not act as an automorphism on the gadget")

    dstar: Matrix2 = (
        (d[0][0] * d[1][1], d[0][1] * d[1][0]),
        (d[1][0] * d[0][1], d[1][1] * d[0][0]),
    )
    length = g.length
    # vertex 1 and vertex `length` are the shared terminals; the interiors of
    # the two parallel tracks follow
    edges = [(k, k + 1) for k in range(1, length)]
    lists = [frozenset(p) for p in g.pairs]
    prev = 1
    for k in range(2, length):
        w = length + k - 1
        edges.append(tuple(sorted((prev, w))))
        lists.append(frozenset(mirrored.pairs[k - 1]))
        prev = w
    edges.append(tuple(sorted((prev, length))))
    gg = GadgetGraph(
        2 * length - 2,
        tuple(sorted(edges)),
        tuple(lists),
        1,
        length,
        (r, s),
        dstar,
        h.n,
    )
    return gg, dstar


def check_condH(h: ColourGraph, r: int, s: int) -> tuple[int, int] | None:
    """A pair (r', s') with r ~ r', r !~ s', s ~ s', s !~ r'; colours are
    scanned in ascending order so the witness is deterministic.  None when
    no such pair exists."""
    if r == s:
        raise ValueError("need two distinct colours")
    rp = next(
        (c for c in h.colours if h.adjacent(r, c) and not h.adjacent(s, c)), None
    )
    sp = next(
        (c for c in h.colours if h.adjacent(s, c) and not h.adjacent(r, c)), None
    )
    if rp is None or sp is None:
        return None
    return rp, sp


def _append_pendants(gg: GadgetGraph, pair: tuple[int, int]) -> GadgetGraph:
    u0, v0 = gg.m + 1, gg.m + 2
    edges = gg.edges + (
        tuple(sorted((gg.terminal1, u0))),
        tuple(sorted((gg.terminal2, v0))),
    )
    lists = gg.lists + (frozenset(pair), frozenset(pair))
    return GadgetGraph(
        gg.m + 2,
        tuple(sorted(edges)),
        lists,
        u0,
        v0,
        pair,
        gg.matrix,
        gg.colour_count,
    )


def _parallel_double(gg: GadgetGraph) -> GadgetGraph:
    """Two copies of gg sharing both terminals; entrywise-squared matrix."""
    remap = {gg.terminal1: gg.terminal1, gg.terminal2: gg.terminal2}
    fresh = gg.m
    for v in range(1, gg.m + 1):
        if v not in remap:
            fresh += 1
            remap[v] = fresh
    edges = set(gg.edges)
    for u, v in gg.edges:
        edges.add(tuple(sorted((remap[u], remap[v]))))
    lists = list(gg.lists)
    for v in range(1, gg.m + 1):
        if v not in (gg.terminal1, gg.terminal2):
            lists.append(gg.lists[v - 1])
    squared = (
        (gg.matrix[0][0] ** 2, gg.matrix[0][1] ** 2),
        (gg.matrix[1][0] ** 2, gg.matrix[1][1] ** 2),
    )
    return GadgetGraph(
        2 * gg.m - 2,
        tuple(sorted(edges)),
        tuple(lists),
        gg.terminal1,
        gg.terminal2,
        gg.terminal_colours,
        squared,
        gg.colour_count,
    )


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
        raise ValueError("thickening level must be non-negative")
    if t > MAX_THICKENING_LEVEL:
        raise ValueError(
            f"thickening level {t} exceeds the size cap {MAX_THICKENING_LEVEL}")
    if not _positive(base.matrix):
        raise ValueError("thickening needs a strictly positive interaction matrix")
    r, s = base.terminal_colours
    rp, sp = rp_sp
    cond = (
        h.adjacent(r, rp)
        and not h.adjacent(s, rp)
        and h.adjacent(s, sp)
        and not h.adjacent(r, sp)
    )
    if not cond:
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
        remap = {gg.terminal1: u, gg.terminal2: v}
        for w in range(1, gg.m + 1):
            if w not in remap:
                fresh += 1
                remap[w] = fresh
                lists.append(gg.lists[w - 1])
        for x, y in gg.edges:
            edges.append(tuple(sorted((remap[x], remap[y]))))
    inst = Instance(
        InstanceGraph.from_edges(fresh, edges), tuple(lists), gg.colour_count
    )
    return inst, lam, scale


# ---------------------------------------------------------------------------
# the gadget catalog, read from the witness catalogue in patterns

@dataclass(frozen=True)
class CatalogEntry:
    """A known-good gadget for a forbidden pattern, expressed in the colour
    labels of a concrete witness embedding, together with the expected D',
    the terminal colour pair, and the pendant pair for thickening."""

    gadget: PathGadget
    expected_dprime: Matrix2
    terminals: tuple[int, int]
    cond_pair: tuple[int, int]


def _embedded_entry(row: Recipe, emb: tuple[int, ...]) -> CatalogEntry:
    def f(c: int) -> int:
        return emb[c - 1]

    return CatalogEntry(
        PathGadget(tuple((f(i), f(j)) for i, j in row.pairs)),
        row.dprime,
        (f(row.terminals[0]), f(row.terminals[1])),
        (f(row.pendants[0]), f(row.pendants[1])),
    )


def gadget_catalog(witness: ExcludedWitness) -> CatalogEntry:
    """The catalog gadget for a witness, relabelled through its embedding."""
    return _embedded_entry(recipe(witness.kind, witness.length), witness.embedding)


def build_symmetrized(
    h: ColourGraph, witness: ExcludedWitness
) -> tuple[CatalogEntry, GadgetGraph]:
    """Catalog gadget for the witness, symmetrised inside h.

    The terminal-transposing automorphism is found on the pattern itself and
    carried through the embedding, so it need not extend to all of h.
    """
    row = recipe(witness.kind, witness.length)
    emb = witness.embedding
    entry = _embedded_entry(row, emb)
    pattern = row.pattern
    pat_pi = find_transposing_automorphism(pattern, *row.terminals)
    if pat_pi is None:
        raise AssertionError(f"pattern {witness.kind} lost its terminal symmetry")
    lifted = list(range(1, h.n + 1))
    for x in range(1, pattern.n + 1):
        lifted[emb[x - 1] - 1] = emb[pat_pi[x - 1] - 1]
    gg, _ = symmetrize(h, entry.gadget, tuple(lifted))
    return entry, gg
