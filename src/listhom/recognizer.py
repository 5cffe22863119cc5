"""Hardness classification of a target colour graph, with checkable
certificates.

A connected target lands in one of three classes: polynomial-time (complete
reflexive, or complete bipartite irreflexive), equivalent to counting
independent sets in bipartite graphs (irreflexive bipartite permutation
graphs and reflexive proper interval graphs), or as hard as approximating
#SAT (everything else).  Disconnected targets take the maximum class over
their components.

Both known characterisations of the two middle classes are implemented: the
staircase-matrix form (a permutation certificate) and the
forbidden-induced-subgraph form (an embedding certificate).  Each has one
worker: _sweep_form builds the staircase form of either kind, and
_first_obstruction finds the obstruction.  The four public finders are
guards over them and the only code that calls them, so there is one route
per question.  Classification asks those finders about each connected
component: after the loop-edge test of a mixed component and the
completeness test, the staircase finder of the component's loop status
and, when it finds no form, the obstruction finder.  A target keeps its
2-colouring once computed (graphs.ColourGraph), so the completeness test
and the finders share one walk.  If the obstruction finder finds no
witness either, classification raises RuntimeError, so a target is never
put in a class without a certificate.

The staircase order comes from three lexicographic breadth-first sweeps
over the whole target (LBFS, then two LBFS+ sweeps; Corneil 2004, Hell and
Huang 2005), and is accepted only if the rearranged matrix is staircase.
A colour is labelled only from inside its component, so a sweep finishes
each component before it starts the next, and each LBFS+ sweep reverses
the component order of the sweep before: the third order lists the
components in order of smallest colour, each in its own three-sweep order.
Any label beats the empty one, so a step compares only the labelled
unvisited colours, the sweep's frontier.  No matrix is built for the
check: staircase_bounds reads each row's neighbours as positions in the
column order, which costs O(n + m).

The certificate format of a staircase form is stated once, in _arrange: a
form's orders arrange all of the target's colours, as [[B, 0], [0, B^T]]
for a biadjacency matrix B or as the adjacency matrix itself, and one scan
of that arrangement checks the staircase shape and the shape of the kind
(independent sides and no loop, or a loop on every colour).  Building a
form (_staircase_form), re-checking one (StaircaseForm.certifies) and the
encoder in reductions (StaircaseForm.arrangement) all go through it, so
every form built here certifies its target.

Every "is pattern P an induced subgraph of H?" question goes through
find_induced_embedding: the catalogue obstructions, the loop-on-one-end
edge K2' of a mixed target, and the induced P4 (irreflexive) and P3*
(reflexive) that a lower bound from #BIS needs.  A connected bipartite
irreflexive target has no induced P4 exactly when it is complete
bipartite, and a connected reflexive one no induced P3* exactly when it is
complete: the polynomial-time cases.

The obstruction worker answers an irreflexive target that its 2-colouring
shows is not bipartite with a shortest odd cycle at once, since every
catalogue pattern of the bipartite class is itself bipartite.  Otherwise
it tries the catalogue patterns first.  Each is placed vertex by vertex in
breadth-first order, every vertex drawn from the host neighbours of its
parent's image, so a k-vertex pattern costs about n * D^(k-1) on n colours
of largest degree D.  Cycles come from one pass, not one search per
length: a shortest odd cycle from one BFS per colour (Itai and Rodeh
1978), and a shortest hole from one BFS per induced path a-b-c, from a to
c around the closed neighbourhood of b; each BFS stops at the depth where
it could no longer beat the best cycle so far.  On a relabelled even
cycle with leaves that is O(n^2) where the per-length search was about
O(n^4).  The hole search of the bipartite class only ever sees bipartite
hosts, which have no triangle, so it looks for holes of length 6 or more
and has no triangle shortcut.  Every search here is iterative.

The certificate format lives here too: a result's reason is the certificate
object itself, CERTIFICATE_TYPES names each type's JSON tag, and
certificate_json writes any certificate from its fields, in the order its
class declares them (the __match_args__ that graphs.frozen sets).
"""

from __future__ import annotations

import itertools
from enum import IntEnum

from . import patterns
from .graphs import (
    ColourGraph,
    _bfs,
    colour_bipartition,
    connected_components,
    frozen,
    induced_subgraph,
    reflexivity_status,
    replace,
)


# ---------------------------------------------------------------------------
# staircase matrices

@frozen
class StaircaseForm:
    """Row/column arrangement under which a 0/1 matrix is staircase.

    kind is "biadjacency" (independent row and column permutations of the
    two sides of an irreflexive bipartite graph) or "adjacency" (one
    permutation applied to both dimensions of a reflexive graph, in which
    case row_order == col_order).  alpha/beta give the first/last 1 of each
    row, 1-based; None for all-zero rows.  A form is checked against a
    target through the arrangement of all its colours (see _arrange), and
    nothing outside this module reads its orders.
    """

    kind: str
    row_order: tuple[int, ...]
    col_order: tuple[int, ...]
    alpha: tuple[int | None, ...]
    beta: tuple[int | None, ...]

    def arrangement(self, h: ColourGraph) -> tuple | None:
        """(r_order, c_order, alpha, beta) of the arrangement of all h's
        colours when this form certifies h, else None: its top rows are the
        form's own matrix, with the form's alpha/beta."""
        arranged = _arrange(h, self.kind, self.row_order, self.col_order)
        top = len(self.row_order)
        if arranged is None or (arranged[2][:top], arranged[3][:top]) != (self.alpha, self.beta):
            return None
        return arranged

    def certifies(self, h: ColourGraph) -> bool:
        """True iff this form really witnesses the class membership of h."""
        return self.arrangement(h) is not None


Bounds = tuple[tuple[int | None, ...], tuple[int | None, ...]]


def staircase_bounds(h: ColourGraph, rows, cols) -> Bounds | None:
    """alpha/beta per row (1-based) of h's matrix with rows and columns in
    the given orders, or None when it is not staircase; read off the
    neighbour lists in O(n + m) without building the matrix.

    Staircase: the 1s of each row are contiguous and the first-1 and last-1
    columns are non-decreasing down the rows.  All-zero rows are skipped by
    the monotonicity check and get alpha = beta = None.
    """
    position = {c: j for j, c in enumerate(cols, start=1)}
    alpha: list[int | None] = []
    beta: list[int | None] = []
    prev_a = prev_b = 0
    for r in rows:
        ones = [position[u] for u in h.neighbours(r) if u in position]
        if not ones:
            alpha.append(None)
            beta.append(None)
            continue
        a, b = min(ones), max(ones)
        if b - a + 1 != len(ones) or a < prev_a or b < prev_b:
            return None
        prev_a, prev_b = a, b
        alpha.append(a)
        beta.append(b)
    return tuple(alpha), tuple(beta)


def _arrange(h: ColourGraph, kind: str, rows, cols) -> tuple | None:
    """(r_order, c_order, alpha, beta) of the matrix that arranges all of
    h's colours as a form of the given kind with these orders, or None when
    the orders miss or repeat a colour, that matrix is not staircase, or its
    bounds do not have the kind's shape.

    A biadjacency form arranges the colours as [[B, 0], [0, B^T]], with B
    the rows-by-columns matrix: every 1 of the top len(rows) rows lies in
    the first len(cols) columns and every 1 of the other rows after them,
    so the sides are independent and h has no loop.  The block matrix is
    staircase exactly when B and B^T both are.  An adjacency form arranges
    them as h's matrix under one order on rows and columns, and each row's
    block holds its own diagonal position: h has a loop on every colour.
    """
    rows, cols = tuple(rows), tuple(cols)
    if kind == "biadjacency":
        r_order, c_order = rows + cols, cols + rows
    elif kind == "adjacency" and rows == cols:
        r_order = c_order = rows
    else:
        return None
    if len(r_order) != h.n or set(r_order) != set(h.colours):
        return None
    bounds = staircase_bounds(h, r_order, c_order)
    if bounds is None:
        return None
    alpha, beta = bounds
    top = len(rows)
    if kind == "biadjacency":
        shaped = (max(filter(None, beta[:top]), default=0) <= len(cols)
                  < min(filter(None, alpha[top:]), default=h.n + 1))
    else:
        shaped = all(a is not None and a <= i <= b
                     for i, (a, b) in enumerate(zip(alpha, beta), start=1))
    return (r_order, c_order, alpha, beta) if shaped else None


def _staircase_form(h: ColourGraph, kind: str, rows, cols) -> StaircaseForm | None:
    """The form of the given kind with these orders, its bounds read off
    the arrangement of all h's colours, or None when they do not arrange h
    (see _arrange); a form built here certifies h."""
    arranged = _arrange(h, kind, rows, cols)
    if arranged is None:
        return None
    top = len(rows)
    return StaircaseForm(kind, tuple(rows), tuple(cols), arranged[2][:top], arranged[3][:top])


def _lbfs(h: ColourGraph, prev=None) -> list[int]:
    """One lexicographic breadth-first sweep over all of h's colours.

    Each step visits the unvisited colour with the lexicographically largest
    label; visiting the i-th colour appends -i to the label of each unvisited
    neighbour, so earlier visits weigh more.  Ties go to the smallest colour,
    or, given the previous sweep prev (LBFS+), to the colour that came latest
    in it.  Any label beats the empty one, so a step compares only the
    labelled unvisited colours, and when there are none it takes the first
    unvisited colour in tie order: a step costs the size of the sweep's
    frontier, not the number of unvisited colours.
    """
    rank = {v: i for i, v in enumerate(prev)} if prev else {v: -v for v in h.colours}
    fresh = iter(prev[::-1] if prev else h.colours)  # every colour in tie order
    label: dict[int, list[int]] = {}  # the labelled unvisited colours
    order: list[int] = []
    visited: set[int] = set()
    while len(order) < h.n:
        if label:
            v = max(label, key=lambda u: (label[u], rank[u]))
            del label[v]
        else:
            v = next(u for u in fresh if u not in visited)
        visited.add(v)
        order.append(v)
        for u in h.neighbours(v):
            if u not in visited:
                label.setdefault(u, []).append(-len(order))
    return order


def _sweep_form(h: ColourGraph, row_side=None) -> StaircaseForm | None:
    """The staircase form built from the third of three sweeps of h (LBFS,
    LBFS+, LBFS+; Corneil 2004), or None when the rearranged matrix is not
    staircase.  That order lists h's components one after another, in
    order of smallest colour.

    With no row_side it is an adjacency form: the order on rows and columns
    alike.  Otherwise it is a biadjacency form: the rows are the colours of
    row_side (which holds every isolated colour), isolated colours first,
    and the columns are the other colours, both in the order.
    """
    order = None
    for _ in range(3):
        order = _lbfs(h, order)
    if row_side is None:
        return _staircase_form(h, "adjacency", order, order)
    order.sort(key=lambda v: h.degree(v) > 0)
    return _staircase_form(h, "biadjacency", [v for v in order if v in row_side],
                           [v for v in order if v not in row_side])


def find_staircase_biadjacency(h: ColourGraph) -> StaircaseForm | None:
    """Permutation certificate that h is a bipartite permutation graph.

    h is swept three times as a whole (LBFS, LBFS+, LBFS+); the third
    order, split by the sides of colour_bipartition, gives the rows (the
    side of each component's smallest colour) and the columns.  Isolated
    colours go on the row side, ahead of every other row.  None when h has
    a loop or an odd cycle, or when the resulting biadjacency matrix is not
    staircase.
    """
    sides = colour_bipartition(h)  # None too when h has a loop
    if sides is None:
        return None
    return _sweep_form(h, sides[0])


def find_staircase_adjacency(h: ColourGraph) -> StaircaseForm | None:
    """Permutation certificate that a reflexive h is a proper interval graph.

    h is swept three times as a whole (LBFS, LBFS+, LBFS+) and the third
    order is applied to rows and columns alike.  None for non-reflexive h or
    when the resulting adjacency matrix is not staircase.
    """
    if reflexivity_status(h) != "reflexive":
        return None
    return _sweep_form(h)


# ---------------------------------------------------------------------------
# forbidden induced subgraphs

@frozen
class ExcludedWitness:
    """An induced embedding of a forbidden pattern into the target.

    embedding[i-1] is the target colour hosting pattern vertex i; both
    adjacency and non-adjacency are preserved, as are loops.
    """

    kind: str
    length: int | None
    embedding: tuple[int, ...]

    def pattern(self) -> ColourGraph:
        return patterns.recipe(self.kind, self.length).pattern

    def verify(self, h: ColourGraph) -> bool:
        pat = self.pattern()
        emb = self.embedding
        if len(emb) != pat.n or len(set(emb)) != pat.n:
            return False
        if any(not (1 <= c <= h.n) for c in emb):
            return False
        for i in range(1, pat.n + 1):
            if h.has_loop(emb[i - 1]) != pat.has_loop(i):
                return False
            for j in range(i + 1, pat.n + 1):
                if h.adjacent(emb[i - 1], emb[j - 1]) != pat.adjacent(i, j):
                    return False
        return True


def find_induced_embedding(pattern: ColourGraph, host: ColourGraph):
    """An induced embedding of pattern into host, or None exactly when there
    is none.  Loops must match exactly.

    The result lists the host colour of each pattern vertex in label order.
    The search places the pattern vertices in breadth-first order from a
    vertex of largest degree (one tree per pattern component), and each
    vertex after a root draws its candidates, ascending, from the host
    neighbours of its BFS parent's image.  A connected k-vertex pattern thus
    costs about n * D^(k-1) on an n-colour host of largest degree D, not
    n^k.  The embedding returned is the first one in that order.
    """
    k, n = pattern.n, host.n
    if k > n:
        return None
    pdeg = [pattern.degree(v) for v in pattern.colours]
    hdeg = [0, *map(host.degree, host.colours)]  # indexed by colour
    if max(pdeg) > max(hdeg):
        return None
    order: list[int] = []
    parent: dict[int, int | None] = {}
    for root in sorted(pattern.colours, key=lambda v: -pdeg[v - 1]):
        if root not in parent:
            for v, (_, p) in _bfs(root, pattern.neighbours).items():
                order.append(v)
                parent[v] = p
    pos = {v: i for i, v in enumerate(order)}
    # per position: where its candidates come from, its degree, its loop,
    # and its adjacency to every earlier position
    source = [None if parent[v] is None else pos[parent[v]] for v in order]
    need_deg = [pdeg[v - 1] for v in order]
    loop = [pattern.has_loop(v) for v in order]
    want = [tuple(pattern.adjacent(v, u) for u in order[:i]) for i, v in enumerate(order)]
    nbrs = [frozenset(), *map(host.neighbour_set, host.colours)]
    emb: list[int] = []  # the host colour of each placed position
    used = [False] * (n + 1)
    # candidates[i] yields the host colours still to try for position i
    candidates = [iter(host.colours)]
    while candidates:
        i = len(emb)
        for c in candidates[-1]:
            row = nbrs[c]
            if used[c] or hdeg[c] < need_deg[i] or (c in row) != loop[i]:
                continue
            if tuple(map(row.__contains__, emb)) == want[i]:
                used[c] = True
                emb.append(c)
                break
        else:
            candidates.pop()
            if emb:
                used[emb.pop()] = False
            continue
        if i + 1 == k:
            out = [0] * k
            for v, c in zip(order, emb):
                out[v - 1] = c
            return tuple(out)
        j = source[i + 1]
        candidates.append(iter(host.colours if j is None else host.neighbours(emb[j])))
    return None


def find_chordless_cycle(h: ColourGraph, length: int):
    """First chordless cycle of exactly the given length, as a vertex tuple
    in cyclic order starting from its smallest vertex.  Loops are ignored.

    This searches one length at a time; classification finds its shortest
    cycles with _shortest_odd_cycle and _shortest_hole instead."""
    if length < 3 or length > h.n:
        return None
    for start in h.colours:
        walk = [start]
        on_walk = {start}
        # candidates[p] yields the neighbours of walk[p] still to try after it
        candidates = [iter(h.neighbours(start))]
        while candidates:
            p = len(walk)
            if p == length:
                return tuple(walk)
            for w in candidates[-1]:
                if w <= start or w in on_walk:
                    continue
                if any(h.adjacent(w, walk[j]) for j in range(1, p - 1)):
                    continue
                if p >= 2 and h.adjacent(w, start) != (p == length - 1):
                    continue
                walk.append(w)
                on_walk.add(w)
                candidates.append(iter(h.neighbours(w)))
                break
            else:
                candidates.pop()
                on_walk.discard(walk.pop())
    return None


def _tree_path(tree, v) -> list[int]:
    """The path from v back to the root of a _bfs tree."""
    path = [v]
    while tree[path[-1]][1] is not None:
        path.append(tree[path[-1]][1])
    return path


def _shortest_odd_cycle(h: ColourGraph) -> tuple[int, ...] | None:
    """A shortest odd cycle of h, loops ignored, in cyclic order from its
    smallest vertex; None when h has no odd cycle.

    One BFS per colour s over the colours from s on (Itai and Rodeh 1978): an
    edge joining two vertices at distance d from s closes an odd walk of
    length 2d + 1 through s, and from the smallest vertex of a shortest odd
    cycle that walk is a shortest odd cycle.  A shortest odd cycle has no
    chord, since a chord would split off a shorter odd cycle.  Each BFS stops
    at the depth where it could no longer beat the best cycle so far.
    """
    best: tuple[int, ...] | None = None
    for s in h.colours:
        limit = None
        if best is not None:
            limit = (len(best) - 2) // 2
            if limit < 1:
                break

        def step(v):
            return [u for u in h.neighbours(v) if u > s]

        tree = _bfs(s, step, limit)
        edge = next(
            ((v, u) for v, (d, _) in tree.items() for u in step(v)
             if u != v and u in tree and tree[u][0] == d),
            None,
        )
        if edge is not None:
            v, u = edge
            cyc = _tree_path(tree, v)[::-1] + _tree_path(tree, u)[:-1]
            if best is None or len(cyc) < len(best):
                best = tuple(cyc) if cyc[1] < cyc[-1] else (s, *cyc[:0:-1])
    return best


def _wedges(h: ColourGraph):
    """Every path a-b-c (loops ignored) with b < a < c, as (b, a, c); a and
    c may be adjacent."""
    for b in h.colours:
        up = [u for u in h.neighbours(b) if u > b]
        for a, c in itertools.combinations(up, 2):
            yield b, a, c


def _shortest_hole(h: ColourGraph, reflexive: bool) -> tuple[int, ...] | None:
    """A shortest chordless cycle of h of a length that obstructs for the
    cycle kind of the class with h's loop status, loops ignored, in cyclic
    order from its smallest vertex; None when there is none.

    For a reflexive h (CycleGe4) that is a hole (length at least 4).  For
    an irreflexive h (CycleNe4) it is length 3 or at least 5; this is asked
    only of a bipartite h, which has no triangle, so it asks for a hole of
    length at least 6.  A hole is found from its smallest vertex b and the
    induced path a-b-c it has there: a shortest a-c path through colours
    above b that avoids N[b] except a and c closes a hole, and the one
    through the shortest hole is no longer than that hole's a-c arc.  For
    an irreflexive h the path also avoids the common neighbours of a and c,
    which only a 4-hole would use.  Each BFS stops at the depth where it
    could no longer beat the best hole so far.
    """
    skip_four = not reflexive
    best: tuple[int, ...] | None = None
    for b, a, c in _wedges(h):
        if h.adjacent(a, c):
            continue
        limit = None
        if best is not None:
            limit = len(best) - 3  # the longest a-c path that still beats best
            if limit < 2:  # best is a 4-hole, the shortest there is
                break
        nb, na, nc = h.neighbour_set(b), h.neighbour_set(a), h.neighbour_set(c)

        def step(v):
            return [
                u for u in h.neighbours(v)
                if u > b and (u == c or not (
                    u in nb or (skip_four and u in na and u in nc)))
            ]

        tree = _bfs(a, step, limit)
        if c in tree:
            best = (b, *_tree_path(tree, c)[::-1])
    return best


def _first_obstruction(h: ColourGraph, reflexive: bool) -> ExcludedWitness | None:
    """A shortest odd cycle when an irreflexive h has no 2-colouring; else
    the first catalogue pattern of the class with h's loop status (given as
    reflexive) induced in h, in table order, else a shortest chordless cycle
    of that class's cycle kind.  Every catalogue pattern of the bipartite
    class is itself bipartite, and an odd cycle is found in one pass where
    the catalogue search on a dense host is polynomial of high degree."""
    if not reflexive and colour_bipartition(h) is None:
        cyc = _shortest_odd_cycle(h)
    else:
        for row in patterns.RECIPES:
            if row.reflexive == reflexive:
                emb = find_induced_embedding(row.pattern, h)
                if emb is not None:
                    return ExcludedWitness(row.kind, None, emb)
        cyc = _shortest_hole(h, reflexive)
    if cyc is None:
        return None
    return ExcludedWitness(patterns.cycle_kind(reflexive), len(cyc), cyc)


def find_excluded_bp(h: ColourGraph) -> ExcludedWitness | None:
    """Witness that an irreflexive h is not a bipartite permutation graph:
    an induced X3, X2 or T2, or a chordless cycle of length other than 4.
    None exactly when h is a bipartite permutation graph."""
    if reflexivity_status(h) != "irreflexive":
        raise ValueError("bipartite-permutation witnesses require an irreflexive target")
    return _first_obstruction(h, False)


def find_excluded_pi(h: ColourGraph) -> ExcludedWitness | None:
    """Witness that a reflexive h is not a proper interval graph: an induced
    claw, net or S3, or a chordless cycle of length at least 4.  None exactly
    when h is a (reflexive) proper interval graph."""
    if reflexivity_status(h) != "reflexive":
        raise ValueError("proper-interval witnesses require a reflexive target")
    return _first_obstruction(h, True)


# ---------------------------------------------------------------------------
# the classification itself

class Hardness(IntEnum):
    """Approximation-hardness classes, ordered so max() combines components."""

    POLYTIME = 0
    BIS_EQUIVALENT = 1
    SAT_EQUIVALENT = 2


@frozen
class CompleteReflexive:
    pass


@frozen
class CompleteBipartiteIrreflexive:
    pass


@frozen
class MixedLoops:
    """An induced loop-on-one-end edge, the hard core of mixed targets."""

    unlooped: int
    looped: int


# The JSON type tag of each certificate type, named nowhere else.
CERTIFICATE_TYPES = {
    CompleteReflexive: "complete_reflexive",
    CompleteBipartiteIrreflexive: "complete_bipartite_irreflexive",
    MixedLoops: "loop_edge",
    StaircaseForm: "staircase",
    ExcludedWitness: "excluded_subgraph",
}


def certificate_fields(cert) -> dict:
    """A certificate's fields, or any frozen record's (reduce-sat's sidecar
    reads a StaircaseEncoding's), in declaration order, tuples as lists."""
    values = {name: getattr(cert, name) for name in cert.__match_args__}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


def certificate_json(cert) -> dict:
    """A certificate as JSON: its type tag, then its fields."""
    return {"type": CERTIFICATE_TYPES[type(cert)], **certificate_fields(cert)}


@frozen
class TrichotomyResult:
    """Classification outcome with a machine-checkable certificate.

    degree_threshold is the smallest instance degree bound at which the
    hardness is established (6 in general, 3 when the component is purely
    reflexive or purely irreflexive); None for polynomial-time targets.
    reason is the certificate itself, an object of a CERTIFICATE_TYPES type.
    per_component holds sub-results when the target is disconnected, with
    certificates expressed in the original colour labels.
    """

    klass: Hardness
    reason: object
    degree_threshold: int | None
    vertices: frozenset[int]
    per_component: tuple["TrichotomyResult", ...] = ()


def _classify_connected(hc: ColourGraph):
    """Class, certificate and degree threshold of a connected target: a
    loop edge for a mixed target, else the completeness test, then the
    public staircase finder of its loop status and, when that finds no
    form, the public obstruction finder.  hc keeps its 2-colouring, so the
    test and the finders of an irreflexive target share one."""
    status = reflexivity_status(hc)
    if status == "mixed":
        # a connected mixed target has an edge with one looped end
        pair = find_induced_embedding(patterns.K2_PRIME, hc)
        return Hardness.SAT_EQUIVALENT, MixedLoops(*pair), 6
    reflexive = status == "reflexive"
    sides = (hc.colours, hc.colours) if reflexive else colour_bipartition(hc)
    # hc is connected, so it is complete iff every pair across its sides is
    # an edge (loops included, when both sides are all of hc)
    if sides is not None and all(hc.adjacent(u, v) for u in sides[0] for v in sides[1]):
        complete = CompleteReflexive() if reflexive else CompleteBipartiteIrreflexive()
        return Hardness.POLYTIME, complete, None
    form = find_staircase_adjacency(hc) if reflexive else find_staircase_biadjacency(hc)
    if form is not None:
        return Hardness.BIS_EQUIVALENT, form, 6
    witness = find_excluded_pi(hc) if reflexive else find_excluded_bp(hc)
    if witness is None:
        # the two characterisations are complementary, so one of the two
        # searches is wrong; refuse to classify rather than guess
        raise RuntimeError(
            "recognition failed: neither a staircase order nor an "
            "obstruction was found")
    return Hardness.SAT_EQUIVALENT, witness, 3


def _translate_reason(reason, mapping: dict[int, int]):
    """The certificate with its colour labels mapped through mapping."""
    relabel = mapping.__getitem__
    if isinstance(reason, MixedLoops):
        return replace(reason, unlooped=relabel(reason.unlooped),
                       looped=relabel(reason.looped))
    if isinstance(reason, ExcludedWitness):
        return replace(reason, embedding=tuple(map(relabel, reason.embedding)))
    if isinstance(reason, StaircaseForm):
        return replace(reason, row_order=tuple(map(relabel, reason.row_order)),
                       col_order=tuple(map(relabel, reason.col_order)))
    return reason


def classify(h: ColourGraph) -> TrichotomyResult:
    """Classify a target of any shape; disconnected targets combine as the
    maximum component class, reporting the smallest degree threshold among
    the components that attain it."""
    subs = []
    for comp in connected_components(h):
        verts = sorted(comp)
        hc = induced_subgraph(h, verts)
        klass, reason, thr = _classify_connected(hc)
        mapping = {i: v for i, v in enumerate(verts, start=1)}
        subs.append(
            TrichotomyResult(klass, _translate_reason(reason, mapping), thr, comp)
        )
    if len(subs) == 1:
        return subs[0]
    klass = max(s.klass for s in subs)
    achieving = [s for s in subs if s.klass == klass]
    if klass is Hardness.POLYTIME:
        thr = None
        lead = achieving[0]
    else:
        thr = min(s.degree_threshold for s in achieving)
        lead = next(s for s in achieving if s.degree_threshold == thr)
    return TrichotomyResult(
        klass, lead.reason, thr, frozenset(h.colours), tuple(subs)
    )
