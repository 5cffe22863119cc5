import random

import pytest

from helpers import (
    connected_bipartite_reps,
    connected_graph_reps,
    induced_embeddings,
    reflexive_closure,
)
from listhom import patterns, recognizer
from listhom.graphs import ColourGraph, induced_subgraph
from listhom.recognizer import (
    CompleteBipartiteIrreflexive,
    ExcludedWitness,
    Hardness,
    MixedLoops,
    StaircaseForm,
    classify,
    find_chordless_cycle,
    find_excluded_bp,
    find_excluded_pi,
    find_induced_embedding,
    find_induced_k2prime,
    find_staircase_adjacency,
    find_staircase_biadjacency,
    is_complete_reflexive,
    is_staircase,
    witness_pattern,
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
    assert not is_complete_reflexive(patterns.K2_PRIME)


# --- hard-substructure extraction ---

def test_find_induced_k2prime():
    assert find_induced_k2prime(patterns.TWO_WRENCH) == (1, 2)
    assert find_induced_k2prime(patterns.K2_PRIME) == (1, 2)
    assert find_induced_k2prime(patterns.complete(3, reflexive=True)) is None


def test_induced_p3star_embedding():
    p3star = patterns.P3_STAR
    assert find_induced_embedding(p3star, p3star) == (1, 2, 3)
    i, k, j = find_induced_embedding(p3star, patterns.CLAW)
    assert k == 4 and i != j and i in (1, 2, 3) and j in (1, 2, 3)
    assert find_induced_embedding(p3star, patterns.complete(4, reflexive=True)) is None


def test_induced_p4_embedding():
    assert find_induced_embedding(patterns.P4, patterns.P4) == (1, 2, 3, 4)
    assert find_induced_embedding(patterns.P4, patterns.cycle(4)) is None  # complete bipartite
    quad = find_induced_embedding(patterns.P4, patterns.cycle(6))
    a, b, c, d = quad
    h = patterns.cycle(6)
    assert h.adjacent(a, b) and h.adjacent(b, c) and h.adjacent(c, d)
    assert not h.adjacent(a, c) and not h.adjacent(b, d) and not h.adjacent(a, d)


# --- classification ---

def test_classification_fixtures():
    cases = [
        (patterns.K2_PRIME, Hardness.SAT_EQUIVALENT, 6, MixedLoops),
        (patterns.TWO_WRENCH, Hardness.SAT_EQUIVALENT, 6, MixedLoops),
        (patterns.P4, Hardness.BIS_EQUIVALENT, 6, StaircaseForm),
        (patterns.P3_STAR, Hardness.BIS_EQUIVALENT, 6, StaircaseForm),
        (patterns.complete(5, reflexive=True), Hardness.POLYTIME, None, None),
        (patterns.cycle(4), Hardness.POLYTIME, None, None),
        (patterns.complete_bipartite(2, 3), Hardness.POLYTIME, None,
         CompleteBipartiteIrreflexive),
        (patterns.cycle(6), Hardness.SAT_EQUIVALENT, 3, ExcludedWitness),
        (patterns.CLAW, Hardness.SAT_EQUIVALENT, 3, ExcludedWitness),
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
    assert isinstance(res.reason, StaircaseForm)
    assert set(res.reason.row_order) | set(res.reason.col_order) == {4, 5, 6, 7}


def test_classify_disconnected_takes_min_threshold_among_max():
    # mixed component (threshold 6) next to an irreflexive triangle (threshold 3)
    edges = [(1, 2), (2, 2), (3, 4), (4, 5), (3, 5)]
    h = ColourGraph.from_edges(5, edges)
    res = classify(h)
    assert res.klass is Hardness.SAT_EQUIVALENT
    assert res.degree_threshold == 3
    assert isinstance(res.reason, ExcludedWitness)


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
    staircase_beside_others = []  # the kind of each such form
    for i in range(150):
        n = rng.randint(1, 10)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < 0.25]
        loop_chance = (0.45, 0.0, 1.0)[i % 3]
        edges += [(v, v) for v in range(1, n + 1) if rng.random() < loop_chance]
        h = ColourGraph.from_edges(n, edges)
        res = classify(h)
        parts = res.per_component or (res,)
        # a disconnected target leads with the certificate of one component
        assert res.reason in [part.reason for part in parts]
        for part in parts:
            reason = part.reason
            if isinstance(reason, StaircaseForm):
                # certificates are in the target's labels: the orders cover
                # exactly the part's colours and arrange h's matrix into the
                # recorded staircase
                form = reason
                rows, cols = form.row_order, form.col_order
                if form.kind == "adjacency":
                    assert rows == cols
                    cover = rows
                else:
                    cover = rows + cols
                assert sorted(cover) == sorted(part.vertices)
                matrix = [[1 if h.adjacent(r, c) else 0 for c in cols] for r in rows]
                assert is_staircase(matrix) == (form.alpha, form.beta)
                if part.vertices == frozenset(h.colours):
                    assert form.certifies(h)
                if len(parts) > 1:
                    staircase_beside_others.append(form.kind)
            elif isinstance(reason, ExcludedWitness):
                assert reason.verify(h)
            elif isinstance(reason, MixedLoops):
                u, v = reason.unlooped, reason.looped
                assert h.adjacent(u, v) and not h.has_loop(u) and h.has_loop(v)
    assert len(staircase_beside_others) >= 10
    assert set(staircase_beside_others) == {"adjacency", "biadjacency"}


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
                if isinstance(sub.reason, ExcludedWitness):
                    assert sub.reason.verify(h)
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
    with pytest.raises(ValueError, match="takes no length"):
        ExcludedWitness("X3", 5, (1, 2, 3, 4, 5, 6, 7)).verify(patterns.X3)


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
        assert isinstance(res.reason, StaircaseForm) and res.reason.certifies(h)
    for h in (patterns.cycle(40), patterns.cycle(40, reflexive=True)):
        h = _relabel(h, rng)
        res = classify(h)
        assert res.klass is Hardness.SAT_EQUIVALENT and res.degree_threshold == 3
        assert isinstance(res.reason, ExcludedWitness) and res.reason.verify(h)
        assert res.reason.length == 40


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
    assert res.klass is Hardness.BIS_EQUIVALENT and res.reason.certifies(h)
    # one 2-colouring, inside _classify_connected; two BFS trees, one for
    # classify's components and one for that 2-colouring
    assert calls == {"_two_colouring": 1, "_bfs": 2}


# --- the obstruction searches against simpler references ---

def _planted(rng, pat, n):
    """pat on colours 1..pat.n plus n - pat.n extra colours with random edges
    and the pattern's loop convention, relabelled at random: pat embeds."""
    loops = pat.has_loop(1)
    edges = pat.edge_list() + [
        (u, v) for v in range(pat.n + 1, n + 1) for u in range(1, v)
        if rng.random() < 0.4
    ] + [(v, v) for v in range(pat.n + 1, n + 1) if loops]
    return _relabel(ColourGraph.from_edges(n, edges), rng)


def test_find_induced_embedding_matches_brute_force():
    """Seeded differential test at 10 colours or fewer against every
    embedding helpers.induced_embeddings finds: the search answers None
    exactly when there is no embedding, and otherwise returns one of them."""
    rng = random.Random(41)
    kinds = [(row.kind, None) for row in patterns.RECIPES] + [
        ("CycleNe4", 3), ("CycleNe4", 5), ("CycleNe4", 6),
        ("CycleGe4", 4), ("CycleGe4", 5)]
    found = [0, 0]
    for i in range(160):
        if i % 4 == 3:
            # small patterns with mixed loops, often disconnected
            k = rng.randint(2, 5)
            pat = ColourGraph.from_edges(k, [
                (u, v) for u in range(1, k + 1) for v in range(u, k + 1)
                if rng.random() < 0.4])
        else:
            kind, length = rng.choice(kinds)
            pat = witness_pattern(kind, length)
        n = rng.randint(pat.n, 10)
        if i % 2 == 0:
            host = _planted(rng, pat, n)
            if i % 8 == 4:
                # flip one pair, which may or may not destroy every copy
                u, v = rng.sample(range(1, n + 1), 2)
                edges = set(host.edge_list()) ^ {(min(u, v), max(u, v))}
                host = ColourGraph.from_edges(n, sorted(edges))
        else:
            loops = rng.random() < 0.5 if i % 4 == 3 else pat.has_loop(1)
            host = ColourGraph.from_edges(n, [
                (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                if rng.random() < rng.choice((0.3, 0.5, 0.7))
            ] + [(v, v) for v in range(1, n + 1) if loops and rng.random() < 0.9])
        every = induced_embeddings(pat, host)
        emb = find_induced_embedding(pat, host)
        assert (emb is None) == (not every), (pat.edge_list(), host.edge_list())
        if emb is not None:
            assert emb in every
            if i % 4 != 3:
                assert ExcludedWitness(kind, length, emb).verify(host)
        found[emb is not None] += 1
    assert min(found) >= 30, found


def _per_length_cycle(h, lengths):
    """The old search: find_chordless_cycle tried at each length in turn."""
    for length in lengths:
        cyc = find_chordless_cycle(h, length)
        if cyc is not None:
            return cyc
    return None


def test_cycle_searches_match_the_per_length_loop():
    """Seeded differential test at 12 colours or fewer: the one-pass hole and
    odd-cycle searches find a cycle exactly when the per-length loop does,
    of the same length, and the cycle verifies as that witness."""
    rng = random.Random(42)
    lengths_seen = {"CycleNe4": set(), "CycleGe4": set(), "odd": set()}
    for i in range(240):
        n = rng.randint(3, 12)
        reflexive = i % 2 == 1
        if i % 3 == 0:
            # a long cycle with a few chords has holes of many lengths
            edges = {(v, v % n + 1) for v in range(1, n + 1)}
            for _ in range(rng.randint(0, 3)):
                edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
            edges = [(u, v) if u < v else (v, u) for u, v in edges]
        elif i % 3 == 1 and not reflexive:
            edges = _random_bipartite(rng, n).edge_list()
        else:
            p = rng.choice((0.15, 0.25, 0.35, 0.5))
            edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                     if rng.random() < p]
        h = _relabel(ColourGraph.from_edges(
            n, list(edges) + [(v, v) for v in range(1, n + 1) if reflexive]), rng)
        kind = "CycleGe4" if reflexive else "CycleNe4"
        searches = [(kind, recognizer._shortest_hole(h, kind),
                     [L for L in range(3, n + 1) if patterns.cycle_obstructs(kind, L)])]
        if not reflexive:
            searches.append(("odd", recognizer._shortest_odd_cycle(h), range(3, n + 1, 2)))
        for key, got, lengths in searches:
            want = _per_length_cycle(h, lengths)
            assert (got is None) == (want is None), h.edge_list()
            if got is not None:
                assert len(got) == len(want), h.edge_list()
                assert ExcludedWitness("CycleNe4" if key == "odd" else key,
                                       len(got), got).verify(h), h.edge_list()
                lengths_seen[key].add(len(got))
    assert lengths_seen["CycleNe4"] >= {3, 5, 6, 7}, lengths_seen
    assert lengths_seen["CycleGe4"] >= {4, 5, 6, 7}, lengths_seen
    assert lengths_seen["odd"] >= {3, 5, 7}, lengths_seen
