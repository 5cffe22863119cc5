"""Seeded differential tests for everything built on the one breadth-first
search in graphs.py: components and 2-colourings, and the induced 3- and
4-paths that the embedding search finds exactly when a connected target is
not complete.  The oracles here use union-find and Floyd-Warshall, not a
graph search."""

import random

from listhom.graphs import (
    ColourGraph,
    InstanceGraph,
    bipartition,
    colour_bipartition,
    connected_components,
    instance_components,
)
from listhom import patterns
from listhom.recognizer import find_induced_embedding


def _find(parent, v):
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _uf_components(n, edges):
    """Components by union-find, ordered by smallest vertex."""
    parent = list(range(n + 1))
    for u, v in edges:
        parent[_find(parent, u)] = _find(parent, v)
    groups = {}
    for v in range(1, n + 1):
        groups.setdefault(_find(parent, v), set()).add(v)
    return sorted((frozenset(s) for s in groups.values()), key=min)


def _uf_two_colourable(n, edges):
    """Union-find on the bipartite double cover: vertex v is node v on one
    side and node v + n on the other; an edge (or loop) joins opposite
    sides.  Two-colourable iff no v ends up joined to its own copy."""
    parent = list(range(2 * n + 1))
    for u, v in edges:
        parent[_find(parent, u)] = _find(parent, v + n)
        parent[_find(parent, u + n)] = _find(parent, v)
    return all(_find(parent, v) != _find(parent, v + n) for v in range(1, n + 1))


def _check_two_colouring(sides, n, edges, comps):
    assert (sides is None) == (not _uf_two_colourable(n, edges)), edges
    if sides is None:
        return
    v1, v2 = sides
    assert v1 | v2 == frozenset(range(1, n + 1)) and not (v1 & v2)
    for u, v in edges:
        assert (u in v1) != (v in v1), (u, v)
    for comp in comps:
        assert min(comp) in v1


def _random_edges(rng, n, loops):
    """Edges over 1..n of a random density, either unrestricted or across a
    random split (so that many are bipartite); loops as asked."""
    p = rng.choice((0.02, 0.06, 0.12, 0.25, 0.5, 0.8))
    side = [rng.random() < 0.5 for _ in range(n)] if rng.random() < 0.5 else None
    edges = [
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
        if (side is None or side[u - 1] != side[v - 1]) and rng.random() < p
    ]
    if loops == "reflexive":
        edges += [(v, v) for v in range(1, n + 1)]
    elif loops == "mixed":
        edges += [(v, v) for v in range(1, n + 1) if rng.random() < 0.3]
    return edges


def _connected_edges(rng, n, loops):
    """A random tree on 1..n plus random extra edges; for irreflexive
    graphs the extra edges mostly join opposite tree levels."""
    depth = [0] * (n + 1)
    edges = []
    for v in range(2, n + 1):
        u = rng.randint(1, v - 1)
        depth[v] = depth[u] + 1
        edges.append((u, v))
    p = rng.choice((0.1, 0.3, 0.6))
    odd_ok = loops == "reflexive" or rng.random() < 0.2
    edges += [
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
        if (odd_ok or (depth[u] + depth[v]) % 2) and rng.random() < p
    ]
    if loops == "reflexive":
        edges += [(v, v) for v in range(1, n + 1)]
    return edges


def _distances(h):
    """All-pairs distances by Floyd-Warshall; None when unreachable."""
    n = h.n
    inf = n + 1
    d = [[0 if i == j else (1 if h.adjacent(i, j) else inf)
          for j in range(1, n + 1)] for i in range(1, n + 1)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return lambda i, j: None if d[i - 1][j - 1] == inf else d[i - 1][j - 1]


def _assert_induced_path(h, path, loops):
    assert len(set(path)) == len(path)
    for a in range(len(path)):
        assert h.has_loop(path[a]) == loops
        for b in range(a + 1, len(path)):
            assert h.adjacent(path[a], path[b]) == (b == a + 1), path


def test_instance_components_and_bipartition_match_union_find():
    rng = random.Random(41)
    seen = {"bipartite": 0, "odd": 0, "disconnected": 0, "empty": 0}
    for _ in range(300):
        m = rng.randint(0, 40)
        g = InstanceGraph.from_edges(m, _random_edges(rng, m, "irreflexive"))
        comps = instance_components(g)
        assert comps == _uf_components(m, g.edges)
        sides = bipartition(g)
        _check_two_colouring(sides, m, g.edges, comps)
        seen["bipartite" if sides is not None else "odd"] += 1
        seen["disconnected"] += len(comps) > 1
        seen["empty"] += m == 0
    assert min(seen.values()) >= 5, seen


def test_colour_components_and_bipartition_match_union_find():
    rng = random.Random(42)
    seen = {"bipartite": 0, "odd": 0, "looped": 0, "disconnected": 0}
    for i in range(300):
        n = rng.randint(1, 12)
        loops = ("reflexive", "irreflexive", "mixed")[i % 3]
        h = ColourGraph.from_edges(n, _random_edges(rng, n, loops))
        edges = h.edge_list()
        comps = connected_components(h)
        assert comps == _uf_components(n, edges)
        sides = colour_bipartition(h)
        _check_two_colouring(sides, n, edges, comps)
        seen["bipartite" if sides is not None else "odd"] += 1
        seen["looped"] += any(h.has_loop(v) for v in h.colours)
        seen["disconnected"] += len(comps) > 1
    assert min(seen.values()) >= 20, seen


def test_induced_paths_exist_iff_the_connected_target_is_not_complete():
    # a connected reflexive target has an induced P3* unless it is complete,
    # and a connected bipartite irreflexive one an induced P4 unless it is
    # complete bipartite
    rng = random.Random(43)
    found = {"p3star": 0, "p4": 0, "none": 0}
    for i in range(400):
        n = rng.randint(1, 12)
        loops = ("reflexive", "irreflexive")[i % 2]
        make = _random_edges if i % 4 < 2 else _connected_edges
        h = ColourGraph.from_edges(n, make(rng, n, loops))
        dist = _distances(h)
        connected = all(dist(1, v) is not None for v in h.colours)
        pairs = [(a, b) for a in h.colours for b in range(a + 1, n + 1)]
        # joined: the pairs a complete target of the lemma's class joins;
        # None when the lemma does not apply
        if loops == "reflexive":
            got = find_induced_embedding(patterns.P3_STAR, h)
            joined = pairs if connected else None
        else:
            got = find_induced_embedding(patterns.P4, h)
            joined = None
            if connected and _uf_two_colourable(n, h.edge_list()):
                joined = [(a, b) for a, b in pairs if dist(a, b) % 2 == 1]
        if got is not None:
            _assert_induced_path(h, got, loops=loops == "reflexive")
        if joined is not None:
            assert (got is None) == all(h.adjacent(a, b) for a, b in joined), h.edge_list()
            found["none" if got is None else "p3star" if loops == "reflexive" else "p4"] += 1
    assert min(found.values()) >= 25, found
