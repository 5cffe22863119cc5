import random

import pytest

from helpers import connected_bipartite_reps, connected_graph_reps, reflexive_closure
from listhom import patterns
from listhom.graphs import ColourGraph, induced_subgraph
from listhom.recognizer import (
    Excluded,
    ExcludedWitness,
    Hardness,
    MixedLoops,
    Staircase,
    classify,
    find_chordless_cycle,
    find_excluded_bp,
    find_excluded_pi,
    find_induced_embedding,
    find_induced_k2prime,
    find_induced_p3star,
    find_induced_p4,
    find_staircase_adjacency,
    find_staircase_biadjacency,
    is_complete_bipartite_irreflexive,
    is_complete_reflexive,
    is_staircase,
)


# --- staircase matrices ---

def test_is_staircase_examples():
    assert is_staircase([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) == ((1, 1, 2), (2, 3, 3))
    assert is_staircase([[1, 0], [1, 1]]) == ((1, 1), (1, 2))
    assert is_staircase([[0, 1], [1, 0]]) is None
    assert is_staircase([[1, 0, 1]]) is None  # gap in a row


def test_find_staircase_biadjacency_examples():
    form = find_staircase_biadjacency(patterns.P4)
    assert form is not None and form.certifies(patterns.P4)
    assert form.row_order == (1, 3) and form.col_order == (2, 4)
    assert find_staircase_biadjacency(patterns.cycle(6)) is None
    assert find_staircase_biadjacency(patterns.path(2)) is not None
    # looped or odd-cycle targets are out of scope for this certificate
    assert find_staircase_biadjacency(patterns.P3_STAR) is None
    assert find_staircase_biadjacency(patterns.cycle(5)) is None


def test_find_staircase_adjacency_examples():
    form = find_staircase_adjacency(patterns.P3_STAR)
    assert form is not None and form.row_order == (1, 2, 3)
    assert form.certifies(patterns.P3_STAR)
    assert find_staircase_adjacency(patterns.CLAW) is None
    assert find_staircase_adjacency(patterns.complete(1, reflexive=True)) is not None
    assert find_staircase_adjacency(patterns.P4) is None  # not reflexive


def test_staircase_handles_disconnected_targets():
    # two reflexive triangles
    edges = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    h = reflexive_closure(frozenset(edges), 6)
    form = find_staircase_adjacency(h)
    assert form is not None and form.certifies(h)
    # two disjoint irreflexive edges plus an isolated vertex
    h2 = ColourGraph.from_edges(5, [(1, 2), (3, 4)])
    form2 = find_staircase_biadjacency(h2)
    assert form2 is not None and form2.certifies(h2)
    assert form2.row_order[0] == 5  # isolated vertex leads the rows
    assert form2.alpha[0] is None


# --- forbidden induced subgraphs ---

def test_excluded_bp_examples():
    w = find_excluded_bp(patterns.cycle(3))
    assert (w.kind, w.length) == ("CycleNe4", 3)
    assert find_excluded_bp(patterns.P4) is None
    w = find_excluded_bp(patterns.X3)
    assert w.kind == "X3" and w.embedding == (1, 2, 3, 4, 5, 6, 7)
    for pat, kind in ((patterns.X2, "X2"), (patterns.T2, "T2")):
        w = find_excluded_bp(pat)
        assert w.kind == kind and w.verify(pat)
    with pytest.raises(ValueError):
        find_excluded_bp(patterns.P3_STAR)


def test_excluded_pi_examples():
    w = find_excluded_pi(patterns.cycle(4, reflexive=True))
    assert (w.kind, w.length) == ("CycleGe4", 4)
    assert find_excluded_pi(patterns.P3_STAR) is None
    w = find_excluded_pi(patterns.NET)
    assert w.kind == "Net" and w.embedding == (1, 2, 3, 4, 5, 6)
    assert find_excluded_pi(patterns.S3).kind == "S3"
    assert find_excluded_pi(patterns.CLAW).kind == "Claw"
    with pytest.raises(ValueError):
        find_excluded_pi(patterns.P4)


def test_witnesses_revalidate():
    hosts = [
        patterns.cycle(7),
        patterns.cycle(6),
        patterns.X2,
        patterns.T2,
        ColourGraph.from_edges(8, patterns.X3.edge_list() + [(3, 8)]),
    ]
    for h in hosts:
        w = find_excluded_bp(h)
        assert w is not None and w.verify(h)
    for h in (patterns.CLAW, patterns.NET, patterns.S3,
              patterns.cycle(5, reflexive=True), patterns.star(4, reflexive=True)):
        w = find_excluded_pi(h)
        assert w is not None and w.verify(h)


def test_find_chordless_cycle():
    assert find_chordless_cycle(patterns.cycle(6), 6) == (1, 2, 3, 4, 5, 6)
    assert find_chordless_cycle(patterns.cycle(6), 5) is None
    # a chord kills the long cycle but leaves two short ones
    h = ColourGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    assert find_chordless_cycle(h, 4) is None
    assert find_chordless_cycle(h, 3) == (1, 2, 3)


def test_find_induced_embedding_respects_loops():
    refl_k2 = patterns.complete(2, reflexive=True)
    assert find_induced_embedding(refl_k2, patterns.K2_PRIME) is None
    assert find_induced_embedding(patterns.K2_PRIME, patterns.TWO_WRENCH) == (1, 2)


# --- complete targets ---

def test_complete_predicates():
    assert is_complete_reflexive(patterns.complete(3, reflexive=True))
    assert not is_complete_reflexive(patterns.P3_STAR)
    assert is_complete_bipartite_irreflexive(patterns.cycle(4))
    assert is_complete_bipartite_irreflexive(patterns.complete_bipartite(2, 3))
    assert not is_complete_bipartite_irreflexive(patterns.P4)
    assert not is_complete_bipartite_irreflexive(patterns.K2_PRIME)
    assert not is_complete_reflexive(patterns.K2_PRIME)


# --- hard-substructure extraction ---

def test_find_induced_k2prime():
    assert find_induced_k2prime(patterns.TWO_WRENCH) == (1, 2)
    assert find_induced_k2prime(patterns.K2_PRIME) == (1, 2)
    assert find_induced_k2prime(patterns.complete(3, reflexive=True)) is None


def test_find_induced_p3star():
    assert find_induced_p3star(patterns.P3_STAR) == (1, 2, 3)
    i, k, j = find_induced_p3star(patterns.CLAW)
    assert k == 4 and i != j and i in (1, 2, 3) and j in (1, 2, 3)
    assert find_induced_p3star(patterns.complete(4, reflexive=True)) is None


def test_find_induced_p4():
    assert find_induced_p4(patterns.P4) == (1, 2, 3, 4)
    assert find_induced_p4(patterns.cycle(4)) is None  # complete bipartite
    quad = find_induced_p4(patterns.cycle(6))
    a, b, c, d = quad
    h = patterns.cycle(6)
    assert h.adjacent(a, b) and h.adjacent(b, c) and h.adjacent(c, d)
    assert not h.adjacent(a, c) and not h.adjacent(b, d) and not h.adjacent(a, d)


# --- classification ---

def test_classification_fixtures():
    cases = [
        (patterns.K2_PRIME, Hardness.SAT_EQUIVALENT, 6, MixedLoops),
        (patterns.TWO_WRENCH, Hardness.SAT_EQUIVALENT, 6, MixedLoops),
        (patterns.P4, Hardness.BIS_EQUIVALENT, 6, Staircase),
        (patterns.P3_STAR, Hardness.BIS_EQUIVALENT, 6, Staircase),
        (patterns.complete(5, reflexive=True), Hardness.POLYTIME, None, None),
        (patterns.cycle(4), Hardness.POLYTIME, None, None),
        (patterns.cycle(6), Hardness.SAT_EQUIVALENT, 3, Excluded),
        (patterns.CLAW, Hardness.SAT_EQUIVALENT, 3, Excluded),
    ]
    for h, klass, thr, reason_type in cases:
        res = classify(h)
        assert res.klass is klass
        assert res.degree_threshold == thr
        if reason_type is not None:
            assert isinstance(res.reason, reason_type)


def test_classify_disconnected_takes_max():
    edges = ([(1, 2), (2, 3), (1, 3)] + [(v, v) for v in (1, 2, 3)]
             + [(4, 5), (5, 6), (6, 7)])
    h = ColourGraph.from_edges(7, edges)
    res = classify(h)
    assert res.klass is Hardness.BIS_EQUIVALENT and res.degree_threshold == 6
    assert [sub.klass for sub in res.per_component] == [
        Hardness.POLYTIME, Hardness.BIS_EQUIVALENT]
    # the leading certificate lives in the original labels
    assert isinstance(res.reason, Staircase)
    assert set(res.reason.form.row_order) | set(res.reason.form.col_order) == {4, 5, 6, 7}


def test_classify_disconnected_takes_min_threshold_among_max():
    # mixed component (threshold 6) next to an irreflexive triangle (threshold 3)
    edges = [(1, 2), (2, 2), (3, 4), (4, 5), (3, 5)]
    h = ColourGraph.from_edges(5, edges)
    res = classify(h)
    assert res.klass is Hardness.SAT_EQUIVALENT
    assert res.degree_threshold == 3
    assert isinstance(res.reason, Excluded)


def test_classify_invariant_under_relabelling():
    rng = random.Random(21)
    bases = [patterns.TWO_WRENCH, patterns.cycle(6), patterns.NET, patterns.P4,
             patterns.cycle(5), patterns.S3]
    for h in bases:
        want = classify(h)
        for _ in range(5):
            perm = list(range(1, h.n + 1))
            rng.shuffle(perm)
            edges = []
            for u in range(1, h.n + 1):
                for v in range(u, h.n + 1):
                    if h.adjacent(u, v):
                        edges.append((perm[u - 1], perm[v - 1]))
            relabelled = ColourGraph.from_edges(h.n, edges)
            got = classify(relabelled)
            assert got.klass is want.klass
            assert got.degree_threshold == want.degree_threshold


def test_classify_certificates_revalidate():
    rng = random.Random(22)
    for _ in range(30):
        n = rng.randint(1, 6)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u, n + 1)
                 if rng.random() < 0.45]
        h = ColourGraph.from_edges(n, edges)
        for res in (classify(h),) + classify(h).per_component:
            if isinstance(res.reason, Staircase):
                sub = induced_subgraph(h, res.vertices) if res.vertices != frozenset(h.colours) else h
                # certificates are in original labels; re-check orders directly
                rows, cols = res.reason.form.row_order, res.reason.form.col_order
                assert set(rows) | set(cols) <= set(h.colours)
            elif isinstance(res.reason, Excluded):
                assert res.reason.witness.verify(h)
            elif isinstance(res.reason, MixedLoops):
                u, v = res.reason.unlooped, res.reason.looped
                assert h.adjacent(u, v) and not h.has_loop(u) and h.has_loop(v)


def test_characterisations_agree_small():
    for n in range(1, 6):
        for h in connected_bipartite_reps(n):
            assert (find_staircase_biadjacency(h) is not None) == (
                find_excluded_bp(h) is None)
        for es in connected_graph_reps(n):
            h = reflexive_closure(es, n)
            assert (find_staircase_adjacency(h) is not None) == (
                find_excluded_pi(h) is None)


def test_classify_disconnected_equals_component_max():
    rng = random.Random(23)
    from listhom.graphs import connected_components
    for _ in range(25):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u, n + 1)
                 if rng.random() < 0.3]
        h = ColourGraph.from_edges(n, edges)
        res = classify(h)
        parts = [
            classify(induced_subgraph(h, comp))
            for comp in connected_components(h)
        ]
        assert res.klass == max(p.klass for p in parts)
        hard = [p for p in parts if p.klass == res.klass]
        if res.klass is Hardness.POLYTIME:
            assert res.degree_threshold is None
        else:
            assert res.degree_threshold == min(p.degree_threshold for p in hard)


def test_classify_every_small_target():
    """classify must handle every colour graph on <= 3 vertices (with any
    loop pattern) and produce internally consistent certificates."""
    import itertools as it

    for n in (1, 2, 3):
        slots = [(u, v) for u in range(1, n + 1) for v in range(u, n + 1)]
        for mask in range(1 << len(slots)):
            edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
            h = ColourGraph.from_edges(n, edges)
            res = classify(h)
            results = res.per_component or (res,)
            for sub in results:
                if isinstance(sub.reason, Excluded):
                    assert sub.reason.witness.verify(h)
                elif isinstance(sub.reason, MixedLoops):
                    u, v = sub.reason.unlooped, sub.reason.looped
                    assert h.adjacent(u, v)
                    assert not h.has_loop(u) and h.has_loop(v)
            if res.klass is Hardness.POLYTIME:
                assert res.degree_threshold is None
            else:
                assert res.degree_threshold in (3, 6)


def test_witness_pattern_rejects_bad_kinds():
    with pytest.raises(ValueError):
        ExcludedWitness("CycleNe4", 4, (1, 2, 3, 4)).pattern()
    with pytest.raises(ValueError):
        ExcludedWitness("CycleGe4", 3, (1, 2, 3)).pattern()
    with pytest.raises(ValueError, match="unknown witness kind 'Square'"):
        ExcludedWitness("Square", None, (1, 2, 3, 4)).pattern()


# --- beyond the exhaustive range ---

def _relabel(h, rng):
    perm = list(h.colours)
    rng.shuffle(perm)
    return ColourGraph.from_edges(
        h.n, [(perm[u - 1], perm[v - 1]) for u, v in h.edge_list()])


def _random_bipartite(rng, n):
    side = [rng.random() < 0.5 for _ in range(n)]
    p = rng.choice((0.2, 0.35, 0.5, 0.7))
    return ColourGraph.from_edges(n, [
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
        if side[u - 1] != side[v - 1] and rng.random() < p])


def _random_tree(rng, n):
    return ColourGraph.from_edges(
        n, [(v, rng.randint(1, v - 1)) for v in range(2, n + 1)])


def _random_reflexive(rng, n):
    p = rng.choice((0.08, 0.12, 0.2, 0.4, 0.75, 0.85, 0.92))
    edges = frozenset((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                      if rng.random() < p)
    return reflexive_closure(edges, n)


def test_staircase_and_obstruction_agree_beyond_exhaustive_range():
    """Seeded differential test at 8-12 colours: the sweeps find a staircase
    form exactly when the forbidden-subgraph search finds no witness, and
    whichever certificate comes back checks out."""
    rng = random.Random(31)
    outcomes = {"bp": [0, 0], "pi": [0, 0]}
    for i in range(360):
        n = rng.randint(8, 12)
        if i % 3 == 0:
            h = _random_bipartite(rng, n)
        elif i % 3 == 1:
            h = _relabel(_random_tree(rng, n), rng)
        else:
            h = _random_reflexive(rng, n)
        if i % 3 == 2:
            form, witness, key = find_staircase_adjacency(h), find_excluded_pi(h), "pi"
        else:
            form, witness, key = find_staircase_biadjacency(h), find_excluded_bp(h), "bp"
        assert (form is None) == (witness is not None), h.edge_list()
        if form is not None:
            assert form.certifies(h), h.edge_list()
        else:
            assert witness.verify(h), h.edge_list()
        outcomes[key][form is None] += 1
    # both answers occur often on both sides
    assert min(outcomes["bp"] + outcomes["pi"]) >= 25, outcomes


def test_classify_scales_to_long_paths_and_cycles():
    rng = random.Random(32)
    for h in (patterns.path(200), patterns.path(200, reflexive=True)):
        h = _relabel(h, rng)
        res = classify(h)
        assert res.klass is Hardness.BIS_EQUIVALENT and res.degree_threshold == 6
        assert isinstance(res.reason, Staircase) and res.reason.form.certifies(h)
    for h in (patterns.cycle(40), patterns.cycle(40, reflexive=True)):
        h = _relabel(h, rng)
        res = classify(h)
        assert res.klass is Hardness.SAT_EQUIVALENT and res.degree_threshold == 3
        assert isinstance(res.reason, Excluded) and res.reason.witness.verify(h)
        assert res.reason.witness.length == 40


def test_find_chordless_cycle_long():
    # deeper than the default recursion limit
    assert find_chordless_cycle(patterns.cycle(1200), 1200) == tuple(range(1, 1201))


def test_classify_refuses_without_a_certificate(monkeypatch):
    import listhom.recognizer

    # the staircase search classify runs on a connected bipartite component
    monkeypatch.setattr(listhom.recognizer, "_biadjacency_form",
                        lambda h, row_side, components: None)
    with pytest.raises(RuntimeError, match="neither a staircase order nor an obstruction"):
        classify(patterns.P4)


def test_classify_two_colours_an_irreflexive_component_once(monkeypatch):
    import listhom.graphs

    calls = {"_two_colouring": 0, "_bfs": 0}

    def counted(name):
        real = getattr(listhom.graphs, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(listhom.graphs, name, counted(name))
    h = _relabel(patterns.path(12), random.Random(12))
    res = classify(h)
    assert res.klass is Hardness.BIS_EQUIVALENT and res.reason.form.certifies(h)
    # one 2-colouring, inside _classify_connected; two BFS trees, one for
    # classify's components and one for that 2-colouring
    assert calls == {"_two_colouring": 1, "_bfs": 2}
