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
forbidden-induced-subgraph form (an embedding certificate).  The staircase
order comes from three lexicographic breadth-first sweeps per component
(LBFS, then two LBFS+ sweeps; Corneil 2004, Hell and Huang 2005), about
O(n^3) on the dense matrix, and is accepted only if the rearranged matrix
is staircase.  When it is not, classification asks the obstruction search
for a witness and raises RuntimeError if that finds none either, so a
target is never put in a class without a certificate.  Every search here is
iterative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import IntEnum

from . import patterns
from .graphs import (
    ColourGraph,
    _bfs,
    colour_bipartition,
    connected_components,
    induced_subgraph,
    reflexivity_status,
)


# ---------------------------------------------------------------------------
# staircase matrices

@dataclass(frozen=True)
class StaircaseForm:
    """Row/column arrangement under which a 0/1 matrix is staircase.

    kind is "biadjacency" (independent row and column permutations of the
    two sides of an irreflexive bipartite graph) or "adjacency" (one
    permutation applied to both dimensions of a reflexive graph, in which
    case row_order == col_order).  alpha/beta give the first/last 1 of each
    row, 1-based; None for all-zero rows.
    """

    kind: str
    row_order: tuple[int, ...]
    col_order: tuple[int, ...]
    alpha: tuple[int | None, ...]
    beta: tuple[int | None, ...]

    def matrix(self, h: ColourGraph) -> list[list[int]]:
        return [
            [1 if h.adjacent(r, c) else 0 for c in self.col_order]
            for r in self.row_order
        ]

    def certifies(self, h: ColourGraph) -> bool:
        """True iff this form really witnesses the class membership of h."""
        everything = set(h.colours)
        if self.kind == "adjacency":
            if reflexivity_status(h) != "reflexive":
                return False
            if self.row_order != self.col_order:
                return False
            if set(self.row_order) != everything or len(self.row_order) != h.n:
                return False
        elif self.kind == "biadjacency":
            if reflexivity_status(h) != "irreflexive":
                return False
            rows, cols = set(self.row_order), set(self.col_order)
            if rows & cols or rows | cols != everything:
                return False
            if len(self.row_order) + len(self.col_order) != h.n:
                return False
            for side in (self.row_order, self.col_order):
                for u, v in itertools.combinations(side, 2):
                    if h.adjacent(u, v):
                        return False
        else:
            return False
        found = is_staircase(self.matrix(h))
        return found is not None and found == (self.alpha, self.beta)


def is_staircase(mat) -> tuple[tuple[int | None, ...], tuple[int | None, ...]] | None:
    """alpha/beta per row when the matrix is staircase as given, else None.

    Staircase: the 1s of each row are contiguous and the first-1 and last-1
    column indices are non-decreasing down the rows.  All-zero rows are
    skipped by the monotonicity check and get alpha = beta = None.
    """
    alpha: list[int | None] = []
    beta: list[int | None] = []
    prev_a = prev_b = 0
    for row in mat:
        ones = [j for j, e in enumerate(row, start=1) if e]
        if not ones:
            alpha.append(None)
            beta.append(None)
            continue
        a, b = ones[0], ones[-1]
        if b - a + 1 != len(ones):
            return None
        if a < prev_a or b < prev_b:
            return None
        prev_a, prev_b = a, b
        alpha.append(a)
        beta.append(b)
    return tuple(alpha), tuple(beta)


def _lbfs(h: ColourGraph, verts, prev=None) -> list[int]:
    """One lexicographic breadth-first sweep over verts.

    Each step visits the unvisited vertex with the lexicographically largest
    label; visiting the i-th vertex appends -i to the label of each unvisited
    neighbour, so earlier visits weigh more.  Ties go to the smallest vertex,
    or, given the previous sweep prev (LBFS+), to the vertex that came latest
    in it.
    """
    rank = {v: i for i, v in enumerate(prev)} if prev else {v: -v for v in verts}
    label: dict[int, list[int]] = {v: [] for v in verts}
    order: list[int] = []
    while label:
        v = max(label, key=lambda u: (label[u], rank[u]))
        del label[v]
        order.append(v)
        for u in h.neighbours(v):
            if u in label:
                label[u].append(-len(order))
    return order


def _three_sweeps(h: ColourGraph, verts) -> list[int]:
    """LBFS, then LBFS+, then LBFS+; the third order is the candidate
    staircase order (Corneil 2004)."""
    order = None
    for _ in range(3):
        order = _lbfs(h, verts, order)
    return order


def find_staircase_biadjacency(h: ColourGraph) -> StaircaseForm | None:
    """Permutation certificate that h is a bipartite permutation graph.

    Each component with an edge is swept three times (LBFS, LBFS+, LBFS+);
    the third order, split by the sides of colour_bipartition, gives its
    rows (the side of its smallest vertex) and columns.  Isolated vertices
    go on the row side, ahead of every component block.  None when h has a
    loop or an odd cycle, or when the resulting biadjacency matrix is not
    staircase.
    """
    if reflexivity_status(h) != "irreflexive":
        return None
    sides = colour_bipartition(h)
    if sides is None:
        return None
    return _biadjacency_form(h, sides[0], connected_components(h))


def _biadjacency_form(h: ColourGraph, row_side, components) -> StaircaseForm | None:
    """find_staircase_biadjacency for an irreflexive bipartite h whose
    2-colouring and components the caller already has: row_side holds the
    side of each component's smallest colour, and components are ordered by
    smallest colour."""
    row_order: list[int] = []
    col_order: list[int] = []
    isolated = []
    blocks = []
    for comp in components:
        if len(comp) == 1:
            isolated.extend(comp)
            continue
        order = _three_sweeps(h, comp)
        blocks.append((
            [v for v in order if v in row_side],
            [v for v in order if v not in row_side],
        ))
    row_order.extend(sorted(isolated))
    for rows, cols in blocks:
        row_order.extend(rows)
        col_order.extend(cols)
    form_matrix = [
        [1 if h.adjacent(r, c) else 0 for c in col_order] for r in row_order
    ]
    bounds = is_staircase(form_matrix)
    if bounds is None:
        return None
    return StaircaseForm(
        "biadjacency", tuple(row_order), tuple(col_order), bounds[0], bounds[1]
    )


def find_staircase_adjacency(h: ColourGraph) -> StaircaseForm | None:
    """Permutation certificate that a reflexive h is a proper interval graph.

    Each component is swept three times (LBFS, LBFS+, LBFS+) and the third
    order is applied to rows and columns alike.  None for non-reflexive h or
    when the resulting adjacency matrix is not staircase.
    """
    if reflexivity_status(h) != "reflexive":
        return None
    order: list[int] = []
    for comp in connected_components(h):
        order.extend(_three_sweeps(h, comp))
    matrix = [[1 if h.adjacent(r, c) else 0 for c in order] for r in order]
    bounds = is_staircase(matrix)
    if bounds is None:
        return None
    return StaircaseForm("adjacency", tuple(order), tuple(order), bounds[0], bounds[1])


# ---------------------------------------------------------------------------
# forbidden induced subgraphs

def witness_pattern(kind: str, length: int | None = None) -> ColourGraph:
    """The pattern graph for a witness kind, with the loop convention of its
    class (irreflexive for the bipartite-permutation kinds, reflexive for the
    proper-interval kinds)."""
    return patterns.recipe(kind, length).pattern


@dataclass(frozen=True)
class ExcludedWitness:
    """An induced embedding of a forbidden pattern into the target.

    embedding[i-1] is the target colour hosting pattern vertex i; both
    adjacency and non-adjacency are preserved, as are loops.
    """

    kind: str
    length: int | None
    embedding: tuple[int, ...]

    def pattern(self) -> ColourGraph:
        return witness_pattern(self.kind, self.length)

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
    """First induced embedding of pattern into host under ascending search
    order, or None.  Loops must match exactly."""
    k, n = pattern.n, host.n
    if k > n:
        return None
    pdeg = [pattern.degree(v) for v in pattern.colours]
    hdeg = [host.degree(v) for v in host.colours]
    if max(pdeg) > max(hdeg):
        return None
    emb: list[int] = []
    used = [False] * (n + 1)
    # candidates[i] yields the host colours still to try for pattern vertex i+1
    candidates = [iter(host.colours)]
    while candidates:
        i = len(emb)
        if i == k:
            return tuple(emb)
        v = i + 1
        for c in candidates[-1]:
            if used[c] or hdeg[c - 1] < pdeg[i]:
                continue
            if host.has_loop(c) != pattern.has_loop(v):
                continue
            if all(
                host.adjacent(c, emb[j]) == pattern.adjacent(v, j + 1)
                for j in range(i)
            ):
                used[c] = True
                emb.append(c)
                candidates.append(iter(host.colours))
                break
        else:
            candidates.pop()
            if emb:
                used[emb.pop()] = False
    return None


def find_chordless_cycle(h: ColourGraph, length: int):
    """First chordless cycle of exactly the given length, as a vertex tuple
    in cyclic order starting from its smallest vertex.  Loops are ignored."""
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


def _first_obstruction(h: ColourGraph, cycle_kind: str) -> ExcludedWitness | None:
    """The first catalogue pattern of cycle_kind's class induced in h, in
    table order, else the shortest chordless cycle of cycle_kind."""
    reflexive = cycle_kind == "CycleGe4"
    for row in patterns.RECIPES:
        if row.reflexive == reflexive:
            emb = find_induced_embedding(row.pattern, h)
            if emb is not None:
                return ExcludedWitness(row.kind, None, emb)
    for length in range(3, h.n + 1):
        if patterns.cycle_obstructs(cycle_kind, length):
            cyc = find_chordless_cycle(h, length)
            if cyc is not None:
                return ExcludedWitness(cycle_kind, length, cyc)
    return None


def find_excluded_bp(h: ColourGraph) -> ExcludedWitness | None:
    """Witness that an irreflexive h is not a bipartite permutation graph:
    an induced X3, X2 or T2, or a chordless cycle of length other than 4.
    None exactly when h is a bipartite permutation graph."""
    if reflexivity_status(h) != "irreflexive":
        raise ValueError("bipartite-permutation witnesses require an irreflexive target")
    return _first_obstruction(h, "CycleNe4")


def find_excluded_pi(h: ColourGraph) -> ExcludedWitness | None:
    """Witness that a reflexive h is not a proper interval graph: an induced
    claw, net or S3, or a chordless cycle of length at least 4.  None exactly
    when h is a (reflexive) proper interval graph."""
    if reflexivity_status(h) != "reflexive":
        raise ValueError("proper-interval witnesses require a reflexive target")
    return _first_obstruction(h, "CycleGe4")


# ---------------------------------------------------------------------------
# trivially easy targets

def is_complete_reflexive(h: ColourGraph) -> bool:
    return all(h.adjacent(u, v) for u in h.colours for v in h.colours)


def is_complete_bipartite_irreflexive(h: ColourGraph) -> bool:
    if reflexivity_status(h) != "irreflexive":
        return False
    sides = colour_bipartition(h)
    if sides is None:
        return False
    if all(e == 0 for row in h.adj for e in row):
        return True  # edgeless graphs are complete bipartite with an empty side
    if len(connected_components(h)) != 1:
        return False
    v1, v2 = sides
    return all(h.adjacent(u, v) for u in v1 for v in v2)


# ---------------------------------------------------------------------------
# hard substructures: classify uses find_induced_k2prime; the induced P3*
# and P4 finders are library calls that tests check

def find_induced_k2prime(h: ColourGraph) -> tuple[int, int] | None:
    """An edge with exactly one looped endpoint, as (unlooped, looped).

    Requires h connected with mixed loop status; such an edge always exists
    then.  None when the requirement fails.
    """
    if reflexivity_status(h) != "mixed" or len(connected_components(h)) != 1:
        return None
    for u in h.colours:
        for v in range(u + 1, h.n + 1):
            if h.adjacent(u, v) and h.has_loop(u) != h.has_loop(v):
                return (v, u) if h.has_loop(u) else (u, v)
    return None


def find_induced_p3star(h: ColourGraph) -> tuple[int, int, int] | None:
    """Induced looped 3-path in a connected, reflexive, non-complete target.

    Among non-adjacent pairs the one at minimum graph distance is chosen
    (that distance is necessarily 2); the middle vertex is their smallest
    common neighbour.  None when the preconditions fail.
    """
    if reflexivity_status(h) != "reflexive" or len(connected_components(h)) != 1:
        return None
    if is_complete_reflexive(h):
        return None
    best = None
    for i in h.colours:
        tree = _bfs(i, h.neighbours)
        for j in range(i + 1, h.n + 1):
            if not h.adjacent(i, j):
                cand = (tree[j][0], i, j)
                if best is None or cand < best:
                    best = cand
    d, i, j = best
    if d != 2:
        raise RuntimeError(
            f"minimum distance between non-adjacent vertices is {d}, not 2")
    k = next(u for u in h.colours if h.adjacent(i, u) and h.adjacent(j, u))
    return (i, k, j)


def find_induced_p4(h: ColourGraph) -> tuple[int, int, int, int] | None:
    """Induced 4-vertex path in a connected, irreflexive, bipartite target
    that is not complete bipartite.

    Among non-adjacent pairs on opposite sides, the minimum-distance pair is
    chosen (the distance is necessarily 3); the path between them is the
    witness.  None when the preconditions fail.
    """
    if reflexivity_status(h) != "irreflexive" or len(connected_components(h)) != 1:
        return None
    sides = colour_bipartition(h)
    if sides is None or is_complete_bipartite_irreflexive(h):
        return None
    v1, _ = sides
    best = None
    for i in h.colours:
        tree = _bfs(i, h.neighbours)
        for j in range(i + 1, h.n + 1):
            if ((i in v1) != (j in v1)) and not h.adjacent(i, j):
                cand = (tree[j][0], i, j)
                if best is None or cand < best:
                    best = cand
    d, i, j = best
    if d != 3:
        raise RuntimeError(
            f"minimum cross-side distance between non-adjacent vertices is {d}, not 3")
    tree = _bfs(i, h.neighbours)
    path = [j]
    while path[-1] != i:
        path.append(tree[path[-1]][1])
    return tuple(reversed(path))


# ---------------------------------------------------------------------------
# the classification itself

class Hardness(IntEnum):
    """Approximation-hardness classes, ordered so max() combines components."""

    POLYTIME = 0
    BIS_EQUIVALENT = 1
    SAT_EQUIVALENT = 2


@dataclass(frozen=True)
class CompleteReflexive:
    pass


@dataclass(frozen=True)
class CompleteBipartiteIrreflexive:
    pass


@dataclass(frozen=True)
class MixedLoops:
    """An induced loop-on-one-end edge, the hard core of mixed targets."""

    unlooped: int
    looped: int


@dataclass(frozen=True)
class Staircase:
    form: StaircaseForm


@dataclass(frozen=True)
class Excluded:
    witness: ExcludedWitness


@dataclass(frozen=True)
class TrichotomyResult:
    """Classification outcome with a machine-checkable certificate.

    degree_threshold is the smallest instance degree bound at which the
    hardness is established (6 in general, 3 when the component is purely
    reflexive or purely irreflexive); None for polynomial-time targets.
    per_component holds sub-results when the target is disconnected, with
    certificates expressed in the original colour labels.
    """

    klass: Hardness
    reason: object
    degree_threshold: int | None
    vertices: frozenset[int]
    per_component: tuple["TrichotomyResult", ...] = ()


def _obstruction(witness: ExcludedWitness | None) -> Excluded:
    """The SAT-side certificate once the staircase search has failed.  The
    two characterisations are complementary, so a missing witness means one
    of the two searches is wrong; refuse to classify rather than guess."""
    if witness is None:
        raise RuntimeError(
            "recognition failed: neither a staircase order nor an "
            "obstruction was found")
    return Excluded(witness)


def _classify_connected(hc: ColourGraph):
    status = reflexivity_status(hc)
    if status == "mixed":
        pair = find_induced_k2prime(hc)
        return Hardness.SAT_EQUIVALENT, MixedLoops(*pair), 6
    if status == "reflexive":
        if is_complete_reflexive(hc):
            return Hardness.POLYTIME, CompleteReflexive(), None
        form = find_staircase_adjacency(hc)
        if form is not None:
            return Hardness.BIS_EQUIVALENT, Staircase(form), 6
        return Hardness.SAT_EQUIVALENT, _obstruction(find_excluded_pi(hc)), 3
    sides = colour_bipartition(hc)
    if sides is None:
        # the shortest odd cycle is chordless, so search lengths upward
        for length in range(3, hc.n + 1, 2):
            cyc = find_chordless_cycle(hc, length)
            if cyc is not None:
                witness = ExcludedWitness("CycleNe4", length, cyc)
                return Hardness.SAT_EQUIVALENT, Excluded(witness), 3
        raise AssertionError("non-bipartite graph without an odd cycle")
    # hc is connected, so it is complete bipartite iff every cross pair is an edge
    if all(hc.adjacent(u, v) for u in sides[0] for v in sides[1]):
        return Hardness.POLYTIME, CompleteBipartiteIrreflexive(), None
    form = _biadjacency_form(hc, sides[0], [frozenset(hc.colours)])
    if form is not None:
        return Hardness.BIS_EQUIVALENT, Staircase(form), 6
    return Hardness.SAT_EQUIVALENT, _obstruction(find_excluded_bp(hc)), 3


def _translate_reason(reason, mapping: dict[int, int]):
    if isinstance(reason, MixedLoops):
        return MixedLoops(mapping[reason.unlooped], mapping[reason.looped])
    if isinstance(reason, Excluded):
        w = reason.witness
        emb = tuple(mapping[c] for c in w.embedding)
        return Excluded(ExcludedWitness(w.kind, w.length, emb))
    if isinstance(reason, Staircase):
        f = reason.form
        rows = tuple(mapping[c] for c in f.row_order)
        cols = tuple(mapping[c] for c in f.col_order)
        return Staircase(StaircaseForm(f.kind, rows, cols, f.alpha, f.beta))
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
