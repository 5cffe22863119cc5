import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from helpers import (
    count_models_enumeration,
    dense,
    enumerate_list_colourings,
    grid_edges,
    grid_transfer_count,
    horn_satisfiable,
    ising_direct,
    min_degree_plan,
    random_instance_graph,
    random_lists,
    tree_list_count,
    weighted_sum_enumeration,
)
from listhom import gadgets, oracles, patterns
from listhom.cli import main
from listhom.formats import serialise_formula
from listhom.gadgets import build_symmetrized, reduce_ising_to_listhcol, thicken
from listhom.graphs import Instance, InstanceGraph, instance_components
from listhom.recognizer import ExcludedWitness, find_staircase_adjacency, find_staircase_biadjacency
from listhom.reductions import build_staircase_encoding, reduce_listhcol_to_1p1n
from listhom.oracles import (
    MAX_TABLE_SIZE,
    ImplicationFormula,
    count_1p1n,
    count_list_hcol,
    implies,
    ising_partition,
    list_hcol_table,
    unit_neg,
    unit_pos,
)

K2 = InstanceGraph.from_edges(2, [(1, 2)])


def _random_graph(rng, max_vertices):
    """Random instance graph; the sparser densities give isolated vertices
    and several components."""
    return random_instance_graph(rng, max_vertices, rng.choice((0.15, 0.3, 0.5)))


def _shapes(g):
    """Which of the awkward graph shapes g has."""
    return {
        "isolated vertex": any(not ns for ns in g.neighbours),
        "disconnected": len(instance_components(g)) > 1,
    }


# --- list colouring counts ---

def test_count_spot_values():
    assert count_list_hcol(patterns.K2_PRIME, Instance.with_full_lists(K2, 2)) == 3
    assert count_list_hcol(patterns.P4, Instance.with_full_lists(K2, 4)) == 6
    assert count_list_hcol(patterns.P3_STAR, Instance.with_full_lists(K2, 3)) == 7


def test_count_empty_list_forces_zero():
    inst = Instance(K2, (frozenset(), frozenset({1, 2})), 2)
    assert count_list_hcol(patterns.K2_PRIME, inst) == 0
    lone = InstanceGraph.from_edges(1, [])
    assert count_list_hcol(patterns.P4, Instance(lone, (frozenset(),), 4)) == 0


def test_count_arity_mismatch():
    with pytest.raises(ValueError):
        count_list_hcol(patterns.P4, Instance.with_full_lists(K2, 3))


def test_count_matches_enumeration():
    rng = random.Random(11)
    targets = [patterns.K2_PRIME, patterns.P4, patterns.P3_STAR,
               patterns.TWO_WRENCH, patterns.NET]
    seen = Counter()
    for _ in range(80):
        h = rng.choice(targets)
        g = _random_graph(rng, 11)
        # about 2.5 colours per list keeps the enumeration small
        inst = Instance(g, random_lists(rng, g.m, h.n, min(0.6, 2.5 / h.n)), h.n)
        seen.update(k for k, hit in _shapes(g).items() if hit)
        seen["empty list"] += frozenset() in inst.lists
        seen["11 vertices"] += g.m == 11
        assert count_list_hcol(h, inst) == len(enumerate_list_colourings(h, inst))
    assert len(seen) == 4 and min(seen.values()) >= 3, seen


def test_count_long_path_matches_transfer_matrix():
    # colourings of the m-vertex path with full lists: 1^T A^(m-1) 1
    a = dense(patterns.P3_STAR)
    power = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(199):
        power = [[sum(power[i][k] * a[k][j] for k in range(3)) for j in range(3)]
                 for i in range(3)]
    path = InstanceGraph.from_edges(200, [(v, v + 1) for v in range(1, 200)])
    inst = Instance.with_full_lists(path, 3)
    assert count_list_hcol(patterns.P3_STAR, inst) == sum(map(sum, power))


def test_count_over_table_limit_raises_promptly():
    k40 = InstanceGraph.from_edges(
        40, [(u, v) for u in range(1, 41) for v in range(u + 1, 41)])
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"{2**40} entries at induced width 39"):
        count_list_hcol(patterns.K2_PRIME, Instance.with_full_lists(k40, 2))
    assert time.perf_counter() - start < 2


def _grid(k):
    return InstanceGraph.from_edges(k * k, grid_edges(k))


def test_grid_too_wide_for_either_order_is_refused_at_once():
    g = _grid(30)
    inst = Instance.with_full_lists(g, 2)
    for count in (lambda: count_list_hcol(patterns.K2_PRIME, inst),
                  lambda: ising_partition(g, Fraction(1, 2))):
        start = time.perf_counter()
        with pytest.raises(ValueError) as err:
            count()
        assert time.perf_counter() - start < 0.05
        # the plan stops each order at its first table over the limit
        assert str(err.value) == (
            f"exact count needs a table of {2**19} entries at induced width 18, "
            f"above the limit of {MAX_TABLE_SIZE} "
            f"(min-degree; BFS profile: width 18, {2**19} entries)")


def test_grid_counts_take_the_profile_order_and_match_the_transfer_matrix(monkeypatch):
    # min-degree needs a table over the limit on the 14 x 14 grid; the BFS
    # profile order has width 14
    profiles = []
    real = oracles._profile_order
    monkeypatch.setattr(oracles, "_profile_order",
                        lambda *args: profiles.append(1) or real(*args))
    g = _grid(14)
    assert count_list_hcol(patterns.K2_PRIME, Instance.with_full_lists(g, 2)) == (
        grid_transfer_count(14, dense(patterns.K2_PRIME)))
    # lam = 1/2: an agreeing edge weighs 1 and any other 2, over 2^|E|
    assert ising_partition(g, Fraction(1, 2)) == Fraction(
        grid_transfer_count(14, [[1, 2], [2, 1]]), 2 ** len(g.edges))
    assert len(profiles) == 2


def test_whole_graph_fallback_refiles_the_vectors_that_settling_left(monkeypatch):
    # a pendant leaf on vertex 2 of the 14 x 14 grid: the phase sums it into
    # vertex 2's vector, then the kernel's min-degree plan is over the limit,
    # so the whole graph is planned again and refiled from its free factors
    # and the vectors that settling left, without the leaf's.  Under K2' the
    # leaf has one colour beside colour 1 and two beside colour 2
    plans = []
    real = oracles._plan

    def recording(*args):
        plan = real(*args)
        plans.append((plan.rule, plan.width, plan.largest))
        return plan

    def pinned(colour):
        lists = [frozenset((1, 2))] * 196
        lists[1] = frozenset((colour,))
        return count_list_hcol(patterns.K2_PRIME, Instance(_grid(14), tuple(lists), 2))

    leafy = InstanceGraph.from_edges(197, grid_edges(14) + [(2, 197)])
    monkeypatch.setattr(oracles, "_plan", recording)
    got = count_list_hcol(patterns.K2_PRIME, Instance.with_full_lists(leafy, 2))
    assert plans == [("min-degree", 18, 2 ** 19), ("BFS profile", 14, 2 ** 15)]
    assert got == pinned(1) + 2 * pinned(2)


def _forbidden_edge_instance():
    # the 30 x 30 grid over P3* with full lists, too wide for either order,
    # and apart from it one edge between lists {1} and {3}, which P3* does
    # not join
    g = InstanceGraph.from_edges(902, grid_edges(30) + [(901, 902)])
    lists = (frozenset((1, 2, 3)),) * 900 + (frozenset((1,)), frozenset((3,)))
    return Instance(g, lists, 3)


def test_a_forbidden_edge_between_one_colour_lists_counts_zero_before_any_plan():
    inst = _forbidden_edge_instance()
    for count, want in ((lambda: count_list_hcol(patterns.P3_STAR, inst), 0),
                        (lambda: list_hcol_table(patterns.P3_STAR, inst, (1, 450)), {})):
        start = time.perf_counter()
        assert count() == want
        assert time.perf_counter() - start < 0.05


def _emptied_vector_instance():
    # the same grid, with grid vertex 1's list cut to {1, 3} and two leaves
    # on it, lists {1} and {3}: P3* joins colour 1 only to {1, 2} and colour
    # 3 only to {2, 3}, so settling the leaves leaves vertex 1 no colour
    g = InstanceGraph.from_edges(902, grid_edges(30) + [(1, 901), (1, 902)])
    lists = [frozenset((1, 2, 3))] * 900 + [frozenset((1,)), frozenset((3,))]
    lists[0] = frozenset((1, 3))
    return Instance(g, tuple(lists), 3)


def test_a_vertex_that_settling_leaves_no_colour_counts_zero_before_any_plan():
    inst = _emptied_vector_instance()
    for count, want in ((lambda: count_list_hcol(patterns.P3_STAR, inst), 0),
                        (lambda: list_hcol_table(patterns.P3_STAR, inst, (1, 450)), {})):
        start = time.perf_counter()
        assert count() == want
        assert time.perf_counter() - start < 0.05


def test_count_factorises_over_components():
    rng = random.Random(12)
    for _ in range(20):
        h = patterns.TWO_WRENCH
        g = random_instance_graph(rng, 8, 0.25)
        lists = random_lists(rng, g.m, h.n, 0.7)
        inst = Instance(g, lists, h.n)
        product = 1
        for comp in instance_components(g):
            verts = sorted(comp)
            relabel = {v: i for i, v in enumerate(verts, start=1)}
            sub_edges = [(relabel[u], relabel[v]) for u, v in g.edges
                         if u in comp and v in comp]
            sub = InstanceGraph.from_edges(len(verts), sub_edges)
            product *= count_list_hcol(
                h, Instance(sub, tuple(lists[v - 1] for v in verts), h.n))
        assert count_list_hcol(h, inst) == product


# --- counts per colouring of kept vertices ---

def _kept_shapes(g, lists, keep):
    """Which of the awkward kept-vertex cases an instance has."""
    comp = {v: i for i, c in enumerate(instance_components(g)) for v in c}
    shapes = {
        "isolated kept vertex": any(not g.neighbours[v - 1] for v in keep),
        "empty list elsewhere": any(
            not lists[v - 1] for v in g.vertices if v not in keep),
        "singleton kept list": any(len(lists[v - 1]) == 1 for v in keep),
    }
    if len(keep) == 2:
        u, v = keep
        shapes["kept pair adjacent"] = v in g.neighbours[u - 1]
        shapes["kept pair non-adjacent"] = (
            comp[u] == comp[v] and v not in g.neighbours[u - 1])
        shapes["kept pair in different components"] = comp[u] != comp[v]
    return shapes


def test_list_hcol_table_matches_enumeration_grouped_by_kept_colours():
    rng = random.Random(17)
    targets = [patterns.K2_PRIME, patterns.P4, patterns.P3_STAR,
               patterns.TWO_WRENCH, patterns.NET]
    seen = Counter()
    for _ in range(150):
        h = rng.choice(targets)
        g = _random_graph(rng, 9)
        lists = list(random_lists(rng, g.m, h.n, min(0.6, 2.5 / h.n)))
        keep = tuple(rng.sample(g.vertices, min(g.m, rng.choice((0, 1, 2, 2)))))
        if keep and rng.random() < 0.3:
            lists[keep[0] - 1] = frozenset((rng.randint(1, h.n),))
        inst = Instance(g, tuple(lists), h.n)
        seen.update(k for k, hit in _kept_shapes(g, inst.lists, keep).items() if hit)
        want = Counter(tuple(c[v - 1] for v in keep)
                       for c in enumerate_list_colourings(h, inst))
        assert list_hcol_table(h, inst, keep) == dict(want)
        seen["nothing kept"] += not keep
    assert len(seen) == 7 and min(seen.values()) >= 3, seen


def test_list_hcol_table_rejects_bad_kept_vertices():
    inst = Instance.with_full_lists(K2, 2)
    for keep in ((0,), (3,), (1, 1)):
        with pytest.raises(ValueError):
            list_hcol_table(patterns.K2_PRIME, inst, keep)


def test_list_hcol_table_rejects_a_repeated_kept_vertex_whatever_the_lists():
    # with full lists, and with an empty list, whose count needs no table:
    # the message names the 1-based vertices that were passed
    full = Instance.with_full_lists(K2, 2)
    empty = Instance(K2, (frozenset(), frozenset({1, 2})), 2)
    for inst in (full, empty):
        with pytest.raises(ValueError, match=r"^kept vertices must be distinct, got \(2, 2\)$"):
            list_hcol_table(patterns.K2_PRIME, inst, (2, 2))


def test_list_hcol_table_over_limit_raises_before_eliminating():
    # 19 isolated kept vertices with two colours each: 2^19 table entries
    g = InstanceGraph.from_edges(19, [])
    with pytest.raises(ValueError, match=rf"{2**19} entries"):
        list_hcol_table(patterns.K2_PRIME, Instance.with_full_lists(g, 2),
                        tuple(g.vertices))
    assert 2**19 > MAX_TABLE_SIZE
    # a free hub joined to 18 kept leaves: summing it out needs a table over
    # all of them, which the per-step check refuses
    star = InstanceGraph.from_edges(19, [(1, v) for v in range(2, 20)])
    with pytest.raises(ValueError, match="induced width 18"):
        list_hcol_table(patterns.K2_PRIME, Instance.with_full_lists(star, 2),
                        tuple(range(2, 20)))


# --- the engine itself ---

def _random_engine_input(rng, n):
    """Domains of 0 to 3 arbitrary int values (a value is not its
    position), factors with zero-heavy tables, some of them parallel or
    reversed copies of another pair, and 0 to 2 kept variables."""
    while True:
        domains = [tuple(rng.sample(range(-3, 6), rng.choice((1, 2, 2, 2, 3))))
                   for _ in range(n)]
        if prod(map(len, domains)) <= 6000:
            break
    if rng.random() < 0.1:
        domains[rng.randrange(n)] = ()
    factors = []
    values = [(a, b) for a in range(-3, 6) for b in range(-3, 6)]
    for _ in range(rng.randint(n - 1, 2 * n)):
        if factors and rng.random() < 0.15:
            u, v, _ = rng.choice(factors)
            if rng.random() < 0.5:
                u, v = v, u
        else:
            u, v = rng.sample(range(n), 2)
        if rng.random() < 0.15:  # zero-heavy: most pairs missing or 0
            table = {ab: rng.choice((0, 1, 3)) for ab in values if rng.random() < 0.6}
        else:
            table = {ab: rng.choice((0, 1, 1, 2, 3, 5)) for ab in values}
        factors.append((u, v, table))
    keep = tuple(rng.sample(range(n), rng.choice((0, 1, 2))))
    return domains, factors, keep


def _engine_shapes(domains, factors, keep, result):
    pairs = [frozenset((u, v)) for u, v, _ in factors]
    return {
        f"{len(keep)} kept": True,
        "one-value domain": any(len(d) == 1 for d in domains),
        "one-value kept domain": any(len(domains[v]) == 1 for v in keep),
        "empty domain": not all(domains),
        "parallel factors": len(set(pairs)) < len(pairs),
        "reversed parallel factors": any(
            (v, u) in {(a, b) for a, b, _ in factors} for u, v, _ in factors),
        "zero-heavy table": any(sum(map(bool, t.values())) < 40 for _, _, t in factors),
        "zero result": not result,
        "nonzero result": bool(result),
    }


def test_engine_matches_enumeration_in_any_elimination_order(monkeypatch):
    # the numeric pass must be exact whatever order the plan hands it: half
    # the inputs run in a random order instead of min-degree
    rng = random.Random(18)
    widths = []
    real = oracles._plan

    def plan(rule, adj, size, kept, order=None, cap=None):
        if order is None and rng.random() < 0.5:
            order = [v for v, nbrs in enumerate(adj) if nbrs is not None and v not in kept]
            rng.shuffle(order)
        result = real(rule, adj, size, kept, order, cap)
        widths.append(result.width)
        return result

    monkeypatch.setattr(oracles, "_plan", plan)
    seen = Counter()
    for _ in range(200):
        domains, factors, keep = _random_engine_input(rng, rng.randint(8, 12))
        want = weighted_sum_enumeration(domains, factors, keep)
        assert oracles._eliminate(domains, factors, keep) == want
        seen.update(k for k, hit in _engine_shapes(domains, factors, keep, want).items() if hit)
    seen["wide step"] = sum(w >= 3 for w in widths)
    assert len(seen) == 12 and min(seen.values()) >= 5, seen


def test_plan_equals_a_plain_min_degree_eliminator(monkeypatch):
    # every step, whatever its number of neighbours, by one rule: the steps
    # and scopes, width, largest table and total equal the plain
    # eliminator's, with variables outside the graph, one-value domains,
    # kept variables, given orders, caps and a lowered limit
    rng = random.Random(26)
    seen = Counter()
    for _ in range(2000):
        n = rng.randint(1, 40)
        p = rng.choice((0.05, 0.1, 0.2, 0.4))
        adj = [set() for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u].add(v)
                    adj[v].add(u)
        outside = {v for v in range(n) if rng.random() < 0.1}
        adj = [None if v in outside else nbrs - outside for v, nbrs in enumerate(adj)]
        size = [rng.randint(1, 4) for _ in range(n)]
        inside = [v for v in range(n) if v not in outside]
        kept = frozenset(v for v in inside if rng.random() < 0.15)
        order = None
        if rng.random() < 0.3:
            order = [v for v in inside if v not in kept]
            rng.shuffle(order)
        cap = rng.randint(1, 300) if rng.random() < 0.3 else None
        limit = rng.choice((MAX_TABLE_SIZE, 2 ** 6, 2 ** 4))
        monkeypatch.setattr(oracles, "MAX_TABLE_SIZE", limit)
        want = min_degree_plan(adj, size, kept, order, cap, limit)
        plan = oracles._plan("min-degree", [None if s is None else set(s) for s in adj],
                             size, kept, None if order is None else list(order), cap)
        assert (plan.steps, plan.width, plan.largest, plan.total) == want
        seen["outside"] += bool(outside)
        seen["one value"] += 1 in size
        seen["kept"] += bool(kept)
        seen["given order"] += order is not None
        seen["stopped at the cap"] += cap is not None and plan.total >= cap
        seen["over the limit"] += plan.largest > limit
        seen["wide step"] += plan.width >= 3
        seen["one-neighbour step"] += any(len(s) == 1 for _, s in plan.steps)
        seen["two-neighbour step"] += any(len(s) == 2 for _, s in plan.steps)
    assert len(seen) == 9 and min(seen.values()) >= 100, seen


def test_grid_counts_under_a_lowered_limit_take_the_profile_order(monkeypatch):
    # from 7 x 7 on, min-degree needs wider tables than the grid's profile
    profiles = []
    real = oracles._profile_order
    monkeypatch.setattr(oracles, "_profile_order",
                        lambda *args: profiles.append(1) or real(*args))
    for k, h in ((7, patterns.K2_PRIME), (8, patterns.K2_PRIME), (7, patterns.P3_STAR)):
        g = _grid(k)
        inst = Instance.with_full_lists(g, h.n)
        fits = h.n ** (k + 1)  # a frontier of k vertices plus the one summed out
        monkeypatch.setattr(oracles, "MAX_TABLE_SIZE", fits)
        assert count_list_hcol(h, inst) == grid_transfer_count(k, dense(h))
        monkeypatch.setattr(oracles, "MAX_TABLE_SIZE", fits - 1)
        with pytest.raises(ValueError, match=rf"\(min-degree; BFS profile: width {k}, {fits} entries\)"):
            count_list_hcol(h, inst)
    assert len(profiles) == 6


def test_engine_holds_only_the_tables_still_to_be_used(monkeypatch):
    # the profile order on the 9 x 9 grid builds 81 tables of up to 2^10
    # entries; holding every one of them to the end peaks near 0.6 MiB
    # (traced by Python 3.11), dropping each once its step has used it near
    # 0.11 MiB
    k = 9
    monkeypatch.setattr(oracles, "MAX_TABLE_SIZE", 2 ** (k + 1))
    inst = Instance.with_full_lists(_grid(k), 2)
    tracemalloc.start()
    try:
        count = count_list_hcol(patterns.K2_PRIME, inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == grid_transfer_count(k, dense(patterns.K2_PRIME))
    assert peak < 1 << 18, peak


# --- the series-parallel phase on two-value inputs ---

SHAPES = ("series-parallel", "cycle", "ladder", "subdivided K4", "3x3 grid")


def _series_parallel_edges(rng, shape, n):
    """The edges of a graph of the given shape over variables 0..n-1: a
    random series-parallel graph (paths put in parallel with an edge,
    subdivided edges and pendants), a cycle, a ladder, a subdivided K4 or
    the 3 x 3 grid; the last two leave a kernel of degree three.  Isolated
    variables fill up to n."""
    if shape == "series-parallel":
        edges, used = [(0, 1)], 2
        while used < n - rng.randint(0, 1):
            u, v = rng.choice(edges)
            kind = rng.random()
            if kind < 0.4:
                edges.append((u, used))  # a pendant
            elif kind < 0.7:
                edges.remove((u, v))  # a subdivided edge
                edges += [(u, used), (used, v)]
            else:
                edges += [(u, used), (used, v)]  # a path of two beside (u, v)
            used += 1
    elif shape == "cycle":
        used = n - rng.randint(0, 1)
        edges = [(v, (v + 1) % used) for v in range(used)]
    elif shape == "ladder":
        half = n // 2
        edges = [(v, v + 1) for v in range(half - 1)] + [(v, v + half) for v in range(half)]
        edges += [(v + half, v + half + 1) for v in range(half - 1)]
    elif shape == "subdivided K4":
        edges, used = [], 4
        for u, v in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            if used < n and rng.random() < 0.7:
                edges += [(u, used), (used, v)]
                used += 1
            else:
                edges.append((u, v))
    else:
        edges = [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
        edges += [(v, v + 3) for v in range(6)]
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def test_series_parallel_phase_matches_enumeration(monkeypatch):
    # two-value inputs of 8-14 variables, 0 to 3 of them kept, against
    # trying every assignment; each call must also be quick, with or
    # without a kernel left over
    rng = random.Random(24)
    runs = []
    real = oracles._series_parallel

    def phase(domains, factors, fixed, keep, vec, total):
        # "kernel" when a free variable is left for the planner
        out = real(domains, factors, fixed, keep, vec, total)
        runs.append("phase" if isinstance(out, dict) or not any(
            nbrs is not None and v not in keep for v, nbrs in enumerate(out[0])) else "kernel")
        return out

    monkeypatch.setattr(oracles, "_series_parallel", phase)
    values = [(a, b) for a in range(-2, 5) for b in range(-2, 5)]
    seen = Counter()
    for _ in range(200):
        shape = rng.choice(SHAPES)
        n = rng.randint(9 if shape == "3x3 grid" else 8, 14)
        edges = _series_parallel_edges(rng, shape, n)
        keep = tuple(rng.sample(range(n), rng.choice((0, 1, 2, 3))))
        domains = [tuple(rng.sample(range(-2, 5), 2)) for _ in range(n)]
        for v in rng.sample(range(n), rng.choice((0, 0, 1, 2))):
            if v not in keep:
                domains[v] = domains[v][:1]
        factors = []
        for u, v in edges:
            if rng.random() < 0.5:
                u, v = v, u
            if rng.random() < 0.02:  # a zero table
                table = {}
            else:
                table = {ab: rng.choice((0, 1, 1, 2, 3, 5)) for ab in values}
            factors.append((u, v, table))
            if rng.random() < 0.15:  # a parallel factor, maybe reversed
                factors.append((v, u, table) if rng.random() < 0.5 else (u, v, dict(table)))
        runs.clear()
        start = time.perf_counter()
        got = oracles._eliminate(domains, factors, keep)
        assert time.perf_counter() - start < 0.05
        want = weighted_sum_enumeration(domains, factors, keep)
        assert got == want, (shape, edges, keep)
        # settling answers before the phase when a factor between two fixed
        # variables weighs 0, or when a variable that is not fixed has no
        # value that every factor to a fixed neighbour weighs above 0 (no
        # weight is negative); otherwise the phase runs once
        fixed = [len(d) == 1 and v not in keep for v, d in enumerate(domains)]
        allowed = [set(d) for d in domains]
        settled_zero = False
        for u, v, t in factors:
            if fixed[u] and fixed[v]:
                settled_zero = settled_zero or not t.get((domains[u][0], domains[v][0]))
            elif fixed[u]:
                allowed[v] = {b for b in allowed[v] if t.get((domains[u][0], b))}
            elif fixed[v]:
                allowed[u] = {a for a in allowed[u] if t.get((a, domains[v][0]))}
        settled_zero = settled_zero or not all(allowed)
        assert len(runs) == (0 if settled_zero else 1)
        # a graph with no K4 minor and at most one kept variable is summed
        # out whole; two kept ones can hold a kernel between them
        assert (settled_zero or shape in ("subdivided K4", "3x3 grid") or len(keep) > 1
                or runs == ["phase"])
        pairs = Counter(frozenset((u, v)) for u, v, _ in factors)
        seen.update({
            shape: True, f"{len(keep)} kept": True,
            "kernel left": runs == ["kernel"], "no kernel": runs == ["phase"],
            "zero table": any(not t for _, _, t in factors),
            "zero result": not want, "nonzero result": bool(want),
            "parallel factors": max(pairs.values()) > 1,
            "reversed factors": any((v, u) in {(a, b) for a, b, _ in factors}
                                    for u, v, _ in factors),
            "isolated variable": len({v for e in edges for v in e}) < n,
            "one-value domain": any(len(d) == 1 for d in domains),
        })
    assert len(seen) == 18 and min(seen.values()) >= 5, seen


def _x3_gadget(t):
    h = patterns.X3
    entry, gg = build_symmetrized(h, ExcludedWitness("X3", None, tuple(h.colours)))
    return h, thicken(h, gg, entry.pendants, t)


def test_reduce_ising_counts_on_trees_and_cycles_match_the_closed_forms():
    # the X3 gadget at t = 0..2 on every edge of trees and cycles of 20-400
    # vertices: Z = 2 (1 + lam)^(m - 1) on a tree, (1 + lam)^m + (lam - 1)^m
    # on the m-cycle, and the count is scale * Z
    rng = random.Random(25)
    seen = Counter()
    for t in range(3):
        h, thick = _x3_gadget(t)
        for m in (20, rng.randint(21, 399), 400):
            tree = [(rng.randint(1, v - 1), v) for v in range(2, m + 1)]
            cycle = [(v, v % m + 1) for v in range(1, m + 1)]
            for edges, z in ((tree, lambda lam: 2 * (1 + lam) ** (m - 1)),
                             (cycle, lambda lam: (1 + lam) ** m + (lam - 1) ** m)):
                inst, lam, scale = reduce_ising_to_listhcol(
                    InstanceGraph.from_edges(m, edges), thick)
                assert count_list_hcol(h, inst) == scale * z(lam), (t, m)
                seen[t] += 1
                seen["instance over 10,000 vertices"] += inst.g.m > 10_000
    assert min(seen.values()) >= 2, seen


def test_kernels_of_degree_three_are_counted_from_the_phase_state(monkeypatch):
    # grids leave a kernel after the degree-two steps; it is counted from
    # the phase's tables, by the plan min-degree draws on the whole graph
    plans = []
    real = oracles._plan

    def recording(*args):
        plans.append(real(*args))
        return plans[-1]

    def whole_graph_plans(domains, factors):
        size = [len(d) for d in domains]
        plan, other = oracles._best_plan(factors, [d == 1 for d in size], size, frozenset())
        return [(p.rule, p.width, p.largest) for p in (plan, other) if p is not None]

    def check(count, domains, factors):
        plans.clear()
        want = whole_graph_plans(domains, factors)
        monkeypatch.setattr(oracles, "_plan", recording)
        try:
            got = count()
        finally:
            monkeypatch.setattr(oracles, "_plan", real)
        assert sorted((p.rule, p.width, p.largest) for p in plans) == sorted(want)
        return got

    k2 = {(a, b): 1 for a in patterns.K2_PRIME.colours
          for b in patterns.K2_PRIME.neighbours(a)}
    for k in range(3, 9):
        g = _grid(k)
        inst = Instance.with_full_lists(g, 2)
        got = check(lambda: count_list_hcol(patterns.K2_PRIME, inst),
                    list(inst.sorted_lists), [(u - 1, v - 1, k2) for u, v in g.edges])
        assert got == grid_transfer_count(k, dense(patterns.K2_PRIME))
    lam = Fraction(2, 7)
    table = {(0, 0): 2, (0, 1): 7, (1, 0): 7, (1, 1): 2}
    for k in range(3, 13):
        g = InstanceGraph.from_edges(3 * k, grid_edges(3, k))
        got = check(lambda: ising_partition(g, lam),
                    [(0, 1)] * g.m, [(u - 1, v - 1, table) for u, v in g.edges])
        assert got == Fraction(grid_transfer_count(3, [[2, 7], [7, 2]], k), 7 ** len(g.edges))
    h, thick = _x3_gadget(1)
    adjacent = {(a, b): 1 for a in h.colours for b in h.neighbours(a)}
    for k in range(3, 7):
        inst, _, _ = reduce_ising_to_listhcol(_grid(k), thick)
        got = check(lambda: count_list_hcol(h, inst), list(inst.sorted_lists),
                    [(u - 1, v - 1, adjacent) for u, v in inst.g.edges])
        assert got == grid_transfer_count(k, thick.matrix)
    # under a lowered limit min-degree's kernel plan is over it and the
    # profile order of the whole graph runs, as it did without the phase
    g = _grid(7)
    inst = Instance.with_full_lists(g, 2)
    monkeypatch.setattr(oracles, "MAX_TABLE_SIZE", 2 ** 8)
    got = check(lambda: count_list_hcol(patterns.K2_PRIME, inst),
                list(inst.sorted_lists), [(u - 1, v - 1, k2) for u, v in g.edges])
    assert got == grid_transfer_count(7, dense(patterns.K2_PRIME))
    assert [p.rule for p in plans] == ["min-degree", "BFS profile"]


def test_gadget_brute_force_is_one_elimination_at_every_level(monkeypatch):
    calls = []
    real = oracles._eliminate
    monkeypatch.setattr(oracles, "_eliminate", lambda *args: calls.append(1) or real(*args))
    for t in range(4):
        h, thick = _x3_gadget(t)
        calls.clear()
        assert gadgets.interaction_matrix_bruteforce(h, thick) == thick.matrix
        assert len(calls) == 1


# --- two-spin partition function ---

def test_ising_spot_values():
    lone = InstanceGraph.from_edges(1, [])
    assert ising_partition(lone, Fraction(1, 2)) == 2
    assert ising_partition(K2, Fraction(9, 10)) == Fraction(19, 5)
    tri = InstanceGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    lam = Fraction(3, 7)
    assert ising_partition(tri, lam) == 2 * lam**3 + 6 * lam


def test_ising_rejects_out_of_range_weight():
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            ising_partition(K2, bad)


def test_ising_matches_direct_sum():
    rng = random.Random(13)
    seen = Counter()
    for _ in range(60):
        g = _random_graph(rng, 10)
        seen.update(k for k, hit in _shapes(g).items() if hit)
        seen["10 vertices"] += g.m == 10
        lam = Fraction(rng.randint(1, 9), 10)
        assert ising_partition(g, lam) == ising_direct(g, lam)
    assert len(seen) == 3 and min(seen.values()) >= 3, seen


def test_ising_edgeless_powers_of_two():
    for k in range(1, 9):
        g = InstanceGraph.from_edges(k, [])
        assert ising_partition(g, Fraction(1, 3)) == 2**k


# --- implication-formula model counts ---

def test_1p1n_spot_values():
    assert count_1p1n(ImplicationFormula(0, ())) == 1
    assert count_1p1n(ImplicationFormula(1, ())) == 2
    assert count_1p1n(ImplicationFormula(1, (implies(1, 1),))) == 2
    assert count_1p1n(ImplicationFormula(2, (unit_pos(1), unit_neg(1)))) == 0
    assert count_1p1n(ImplicationFormula(2, (unit_pos(1), implies(2, 1)))) == 2
    psi_v = ImplicationFormula(
        3, (unit_pos(1), unit_neg(3), implies(2, 1), implies(3, 2)))
    assert count_1p1n(psi_v) == 2


def test_1p1n_validation():
    with pytest.raises(ValueError):
        ImplicationFormula(1, (unit_pos(2),))
    with pytest.raises(ValueError):
        ImplicationFormula(1, (("q", 1),))


def _random_formula(rng, max_vars=12, max_clauses=16, min_vars=0):
    n = rng.randint(min_vars, max_vars)
    clauses = []
    for _ in range(rng.randint(0, max_clauses) if n else 0):
        kind = rng.random()
        if kind < 0.2:
            clauses.append(unit_pos(rng.randint(1, n)))
        elif kind < 0.4:
            clauses.append(unit_neg(rng.randint(1, n)))
        else:
            clauses.append(implies(rng.randint(1, n), rng.randint(1, n)))
    return ImplicationFormula(n, tuple(clauses))


def test_1p1n_matches_enumeration():
    rng = random.Random(14)
    seen = Counter()
    for _ in range(100):
        f = _random_formula(rng)
        units = {cl for cl in f.clauses if cl[0] != "i"}
        seen["no variables"] += f.var_count == 0
        seen["i v v"] += any(cl[0] == "i" and cl[1] == cl[2] for cl in f.clauses)
        seen["contradictory units"] += any(("n", cl[1]) in units
                                           for cl in units if cl[0] == "p")
        seen["12 variables"] += f.var_count == 12
        assert count_1p1n(f) == count_models_enumeration(f)
    assert len(seen) == 4 and min(seen.values()) >= 3, seen


def test_1p1n_repeated_and_reversed_implications_match_enumeration():
    rng = random.Random(20)
    seen = Counter()
    for _ in range(100):
        f = _random_formula(rng, max_vars=12, max_clauses=14, min_vars=8)
        imps = [cl for cl in f.clauses if cl[0] == "i"]
        extra = []
        for cl in rng.sample(imps, min(len(imps), 4)):
            extra.append(cl if rng.random() < 0.5 else implies(cl[2], cl[1]))
        f = ImplicationFormula(f.var_count, f.clauses + tuple(extra))
        counts = Counter(cl for cl in f.clauses if cl[0] == "i")
        seen["repeated"] += any(c > 1 for c in counts.values())
        seen["reversed"] += any(("i", b, a) in counts for _, a, b in counts if a != b)
        seen["units"] += any(cl[0] != "i" for cl in f.clauses)
        assert count_1p1n(f) == count_models_enumeration(f)
    assert len(seen) == 3 and min(seen.values()) >= 10, seen


def test_1p1n_long_chain():
    # x_{v+1} -> x_v: the models are the n + 1 prefixes of ones
    n = 3000
    f = ImplicationFormula(n, tuple(implies(v + 1, v) for v in range(1, n)))
    assert count_1p1n(f) == n + 1


def test_1p1n_one_run_builds_no_list_over_its_variables():
    # the runs are found with one byte per variable, and a run without cuts
    # keeps its levels as a range; a list or tuple over the n variables
    # would hold at least 8 bytes each
    n = 60000
    f = ImplicationFormula(n, tuple(implies(v + 1, v) for v in range(1, n)))
    tracemalloc.start()
    try:
        count = count_1p1n(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == n + 1
    assert peak < 4 * n, peak


def _runs(f):
    """Each variable's run: the first variable of the longest range of
    consecutive variables, each implying the one before, that holds it."""
    linked = {b for tag, *ends in f.clauses if tag == "i" for a, b in [ends] if a == b + 1}
    first = {}
    for v in range(1, f.var_count + 1):
        first[v] = first[v - 1] if v - 1 in linked else v
    return first


def _chain_shapes(f):
    """Which of the awkward chain shapes the formula f has."""
    first = _runs(f)
    size = Counter(first.values())
    imps = [(a, b) for tag, *ends in f.clauses if tag == "i" for a, b in [ends]]
    pos = {cl[1] for cl in f.clauses if cl[0] == "p"}
    neg = {cl[1] for cl in f.clauses if cl[0] == "n"}
    across = {(first[a], first[b]) for a, b in imps if first[a] != first[b]}
    return {
        "chain cut by a unit clause": any(size[first[v]] > 1 for v in pos | neg),
        "contradictory units on one chain": any(
            first[p] == first[q] and q <= p for p in pos for q in neg),
        "reversed in-chain implication": any(
            b == a + 1 and first[a] == first[b] for a, b in imps),
        "same-chain implication between non-adjacent variables": any(
            abs(a - b) > 1 and first[a] == first[b] for a, b in imps),
        "implications between two chains both ways": any(
            (b, a) in across and size[a] > 1 and size[b] > 1 for a, b in across),
        "i v v": any(a == b for a, b in imps),
        "no chain": max(size.values(), default=1) == 1,
    }


def _chain_formula(rng):
    """Up to 14 variables, mostly in chains of v + 1 -> v, with unit
    clauses and implications inside and across the chains; about one in
    eight has no chain at all.  About one in four is dense: chains of 2 to
    7 variables and only implications between two of them, which is where
    the bit-level plan can be the cheaper one."""
    dense = rng.random() < 0.25
    n = rng.randint(8 if dense else 1, 14)
    chained = dense or rng.random() > 0.17
    clauses = []
    runs = []
    v = 1
    while v <= n:
        length = rng.randint(2, 7) if dense else rng.randint(1, 6) if chained else 1
        runs.append(range(v, min(n + 1, v + length)))
        clauses += [implies(w + 1, w) for w in runs[-1][:-1]]
        v = runs[-1].stop
    for _ in range(rng.randint(0, 2 * n + 4)):
        kind = rng.random()
        run = rng.choice(runs)
        if dense:
            if len(runs) > 1:
                a, b = rng.sample(runs, 2)
                clauses.append(implies(rng.choice(a), rng.choice(b)))
        elif kind < 0.2:
            clauses.append(rng.choice((unit_pos, unit_neg))(rng.choice(run)))
        elif kind < 0.35 and len(run) > 1:
            a, b = sorted(rng.sample(run, 2))
            clauses.append(implies(a, b) if rng.random() < 0.6 else implies(b, a))
        elif kind < 0.4:
            a = rng.randint(1, n)
            clauses.append(implies(a, a))
        else:
            a, b = rng.randint(1, n), rng.randint(1, n)
            if chained or a != b + 1:
                clauses.append(implies(a, b))
    rng.shuffle(clauses)
    return ImplicationFormula(n, tuple(clauses))


def test_1p1n_grouped_count_matches_enumeration(monkeypatch):
    # the levels of each chain, the tables between chains and the
    # bit-level fallback against trying every assignment
    bit_level = []
    real = oracles._eliminate

    def spy(domains, factors, keep=(), plan=None):
        bit_level.append(any(t is oracles._IMPLIES_TABLE for _, _, t in factors))
        return real(domains, factors, keep, plan)

    monkeypatch.setattr(oracles, "_eliminate", spy)
    rng = random.Random(21)
    seen = Counter()
    for _ in range(300):
        f = _chain_formula(rng)
        bit_level.clear()
        assert count_1p1n(f) == count_models_enumeration(f), f
        seen.update(k for k, hit in _chain_shapes(f).items() if hit)
        seen["bit-level fallback"] += any(bit_level)
    assert len(seen) == 8 and min(seen.values()) >= 5, seen


def _rungs(n):
    """Two chains of n variables, the k-th of the first implying the k-th
    of the second."""
    clauses = [implies(v + 1, v) for v in range(1, n)]
    clauses += [implies(v + 1, v) for v in range(n + 1, 2 * n)]
    clauses += [implies(k, n + k) for k in range(1, n + 1)]
    return ImplicationFormula(2 * n, tuple(clauses))


def test_1p1n_rung_joined_chains_take_the_bit_level_plan():
    # grouped, the two 600-variable chains need one table of 601^2 entries,
    # over the limit; the bit-level ladder has width 2.  The models are the
    # level pairs (x, y) with y >= x: 601 * 602 / 2 of them
    f = _rungs(600)
    start = time.perf_counter()
    assert count_1p1n(f) == 180_901
    assert time.perf_counter() - start < 0.5


def test_1p1n_refusal_names_both_plans():
    # 20 variables implying each other in one direction, with no chain:
    # both encodings need a table over all of them
    clauses = tuple(implies(a, b) for a in range(1, 21) for b in range(a + 1, 21))
    with pytest.raises(ValueError) as err:
        count_1p1n(ImplicationFormula(20, clauses))
    assert str(err.value) == (
        f"exact count needs a table of {2**20} entries at induced width 19, "
        f"above the limit of {MAX_TABLE_SIZE} (chain levels, min-degree; "
        f"bits, min-degree: width 19, {2**20} entries)")


def _formula_of(h, inst):
    form = find_staircase_biadjacency(h) or find_staircase_adjacency(h)
    return reduce_listhcol_to_1p1n(build_staircase_encoding(h, form), inst)[0]


def test_1p1n_answers_zero_before_it_plans_when_two_fixed_runs_conflict():
    # P8 on the 8 x 8 grid, which both encodings refuse, beside x577 true,
    # x578 false and x577 -> x578
    f = _formula_of(patterns.path(8), Instance.with_full_lists(_grid(8), 8))
    assert f.var_count == 576
    f = ImplicationFormula(578, f.clauses + (unit_pos(577), unit_neg(578), implies(577, 578)))
    start = time.perf_counter()
    assert count_1p1n(f) == 0
    assert time.perf_counter() - start < 0.05


def _run_emptied_by_a_fixed_run():
    """P8's formula on the 8 x 8 grid beside x577 true and the run
    x578, x579 with x579 false, joined by x577 -> x579: settling x577 leaves
    that run no level, so the formula has no model."""
    f = _formula_of(patterns.path(8), Instance.with_full_lists(_grid(8), 8))
    return ImplicationFormula(579, f.clauses + (
        unit_pos(577), implies(579, 578), unit_neg(579), implies(577, 579)))


def test_1p1n_answers_zero_when_a_fixed_run_empties_a_joined_run():
    f = _run_emptied_by_a_fixed_run()
    start = time.perf_counter()
    assert count_1p1n(f) == 0
    assert time.perf_counter() - start < 0.05


def test_1p1n_settles_again_when_settling_leaves_a_run_at_one_level():
    # P8's formula on the 8 x 8 grid beside the runs x578, x579 and x580,
    # x581 (x581 false), filed in that order: x579 -> x581 joins them, and
    # settling x577 (true, x577 -> x579) leaves the first run at its top
    # level, which leaves the second none
    f = _formula_of(patterns.path(8), Instance.with_full_lists(_grid(8), 8))
    f = ImplicationFormula(581, f.clauses + (
        implies(579, 578), implies(581, 580), unit_neg(581), implies(579, 581),
        unit_pos(577), implies(577, 579)))
    start = time.perf_counter()
    assert count_1p1n(f) == 0
    assert time.perf_counter() - start < 0.05


def test_count_sat_answers_zero_when_a_fixed_run_empties_a_joined_run(tmp_path, capsys):
    path = tmp_path / "empty.f"
    path.write_text(serialise_formula(_run_emptied_by_a_fixed_run()))
    start = time.perf_counter()
    code = main(["count-sat", str(path)])
    elapsed = time.perf_counter() - start
    assert (code, capsys.readouterr().out) == (0, "0\n")
    assert elapsed < 0.05


def test_1p1n_settling_a_fixed_run_matches_enumeration():
    # seeded: run A (1..la) held at level x by its units, run B after it,
    # at times with a unit of its own, and run C after B, with implications
    # both ways between A and B and from B to C.  Settling A keeps the levels
    # of B that agree with A at x: none (the formula has no model), some, or
    # all of them
    rng = random.Random(35)
    seen = Counter()
    for _ in range(200):
        la, lb, lc = rng.randint(1, 4), rng.randint(2, 5), rng.randint(1, 4)
        n = la + lb + lc
        a_run, b_run = range(1, la + 1), range(la + 1, la + lb + 1)
        c_run = range(la + lb + 1, n + 1)
        clauses = [implies(v + 1, v) for run in (a_run, b_run, c_run) for v in run[:-1]]
        x = rng.randint(0, la)  # A's first x variables hold, the rest do not
        clauses += [unit_pos(x)] * (x > 0) + [unit_neg(x + 1)] * (x < la)
        b_unit = rng.choice((unit_pos, unit_neg))(rng.choice(b_run))
        clauses += [b_unit] * (rng.random() < 0.5)
        cross = []
        for _ in range(rng.randint(1, 4)):
            a, b = rng.choice(a_run), rng.choice(b_run)
            if rng.random() < 0.5:
                cross.append((a, b))
            elif (a, b) != (la, la + 1):  # b -> b - 1 would merge the runs
                cross.append((b, a))
        clauses += [implies(u, v) for u, v in cross]
        clauses += [implies(rng.choice(b_run), rng.choice(c_run))
                    for _ in range(rng.randint(1, 3))]
        rng.shuffle(clauses)
        f = ImplicationFormula(n, tuple(clauses))
        assert count_1p1n(f) == count_models_enumeration(f), f

        def holds(v, y):  # with A at level x and B at level y
            return v - 1 < x if v <= la else v - la - 1 < y
        own = [y for y in range(lb + 1) if b_unit not in clauses
               or holds(b_unit[1], y) == (b_unit[0] == "p")]
        kept = sum(all(holds(v, y) for u, v in cross if holds(u, y)) for y in own)
        seen["B emptied" if kept == 0 else "B trimmed" if kept < len(own) else "B kept"] += 1
    assert len(seen) == 3 and min(seen.values()) >= 20, seen


def _conflict_through_a_run_of_several_levels():
    """P8's formula on the full-list 8 x 8 grid beside run A = x577, true,
    run B = x578..x580 and run C = x581..x583 with x582 false, joined by
    x577 -> x578 and x578 -> x582.  The conflict passes through B, which
    keeps several levels, so the formula has no model."""
    f = _formula_of(patterns.path(8), Instance.with_full_lists(_grid(8), 8))
    assert f.var_count == 576
    return ImplicationFormula(583, f.clauses + (
        unit_pos(577), implies(579, 578), implies(580, 579), implies(582, 581),
        implies(583, 582), unit_neg(582), implies(577, 578), implies(578, 582)))


def test_1p1n_answers_zero_when_the_conflict_passes_through_a_run_of_several_levels():
    f = _conflict_through_a_run_of_several_levels()
    start = time.perf_counter()
    assert count_1p1n(f) == 0
    assert time.perf_counter() - start < 0.05


def test_count_sat_answers_zero_when_the_conflict_passes_through_a_run_of_several_levels(
        tmp_path, capsys):
    text = serialise_formula(_conflict_through_a_run_of_several_levels())
    assert text.startswith("f 583\n")
    path = tmp_path / "conflict.f"
    path.write_text(text)
    start = time.perf_counter()
    code = main(["count-sat", str(path)])
    elapsed = time.perf_counter() - start
    assert (code, capsys.readouterr().out) == (0, "0\n")
    assert elapsed < 0.05


def test_horn_satisfiable_matches_enumeration():
    rng = random.Random(36)
    seen = Counter()
    for _ in range(300):
        f = _chain_formula(rng) if rng.random() < 0.7 else _random_formula(rng)
        sat = count_models_enumeration(f) > 0
        assert horn_satisfiable(f) == sat, f
        seen[sat] += 1
    assert min(seen[True], seen[False]) >= 50, seen


def test_1p1n_answers_every_formula_with_no_model_before_any_plan(monkeypatch):
    # propagation over the runs' levels finds the least model, so a formula
    # with none is answered 0 with no plan drawn up and no table built
    calls = []

    def spy(name):
        real = getattr(oracles, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    for name in ("_best_plan", "_eliminate"):
        monkeypatch.setattr(oracles, name, spy(name))
    rng = random.Random(7)
    seen = Counter()
    for _ in range(3000):
        f = _chain_formula(rng)
        calls.clear()
        count = count_1p1n(f)
        if horn_satisfiable(f):
            seen["planned" if calls else "answered before any plan"] += 1
        else:
            assert (count, calls) == (0, []), f
            seen["no model"] += 1
    assert min(seen.values()) >= 400, seen


def _climbing_rungs(n, units):
    """Two runs of n variables: bit k of the first implies bit k of the
    second, which implies bit k + 1 of the first, so a unit on the first
    bit forces both runs up one level per implication."""
    clauses = [implies(v + 1, v) for v in range(1, n)]
    clauses += [implies(v + 1, v) for v in range(n + 1, 2 * n)]
    clauses += [implies(k, n + k) for k in range(1, n + 1)]
    clauses += [implies(n + k, k + 1) for k in range(1, n)]
    return ImplicationFormula(2 * n, tuple(clauses) + units)


def test_1p1n_propagation_through_rung_joined_runs_takes_linear_time():
    n = 30_000
    for units, want in (((unit_pos(1), unit_neg(2 * n)), 0),
                        ((unit_pos(1), unit_pos(n + 1)), 1)):
        f = _climbing_rungs(n, units)
        start = time.perf_counter()
        assert count_1p1n(f) == want
        assert time.perf_counter() - start < 1.0


def test_1p1n_a_long_run_joined_to_many_short_runs_takes_linear_time():
    # run A of n bits, bit k implying the one-bit run n + k, which implies
    # bit k + 1 of A: A climbs one level per short run.  Each implication
    # fires once; looking again at every table of A each time A moves
    # would take about n^2 steps
    n = 30_000
    clauses = [implies(v + 1, v) for v in range(1, n)]
    clauses += [implies(k, n + k) for k in range(1, n + 1)]
    clauses += [implies(n + k, k + 1) for k in range(1, n)]
    f = ImplicationFormula(2 * n, tuple(clauses) + (unit_pos(1),))
    start = time.perf_counter()
    assert count_1p1n(f) == 1
    assert time.perf_counter() - start < 1.0


def test_1p1n_answers_zero_without_refusal_on_reduce_sat_formulas_with_no_model():
    # P6, P8 and P3* on 7 x 7 to 10 x 10 grids, with about 2% one-colour
    # lists and 3% random sublists: every formula that plain propagation
    # over the bits finds without a model counts 0, none is refused
    rng = random.Random(31)
    targets = (patterns.path(6), patterns.path(8), patterns.P3_STAR)
    seen = Counter()
    for trial in range(60):
        h = targets[trial % 3]
        k = rng.randint(7, 10)
        lists = []
        for _ in range(k * k):
            r = rng.random()
            if r < 0.02:
                lists.append(frozenset((rng.randint(1, h.n),)))
            elif r < 0.05:
                lists.append(frozenset(rng.sample(h.colours, rng.randint(1, h.n - 1))))
            else:
                lists.append(frozenset(h.colours))
        f = _formula_of(h, Instance(_grid(k), tuple(lists), h.n))
        if not horn_satisfiable(f):
            assert count_1p1n(f) == 0, (h, k)
            seen[h.n] += 1
    assert seen[6] >= 5 and seen[8] >= 5, seen


def test_1p1n_counts_reduce_sat_formulas_on_grids_that_count_handles():
    # the bit-level engine refused both: width 18 on P6's 4 x 4 grid and 19
    # on the reflexive P4's 8 x 8 one
    for h, k in ((patterns.path(6), 4), (patterns.path(4, reflexive=True), 8)):
        inst = Instance.with_full_lists(_grid(k), h.n)
        assert count_1p1n(_formula_of(h, inst)) == count_list_hcol(h, inst)


def test_1p1n_reduce_sat_identity_on_large_random_trees():
    rng = random.Random(22)
    targets = (patterns.P3_STAR, patterns.P4, patterns.path(6),
               patterns.path(4, reflexive=True))
    seen = Counter()
    for trial in range(24):
        h = targets[trial % 4]
        m = rng.randint(20, 200)
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        edges = [(perm[rng.randint(1, v - 1) - 1], perm[v - 1]) for v in range(2, m + 1)]
        g = InstanceGraph.from_edges(m, edges)
        inst = Instance(g, random_lists(rng, m, h.n, rng.choice((0.8, 0.9, 0.97))), h.n)
        want = tree_list_count(h, inst)
        assert count_1p1n(_formula_of(h, inst)) == want, (h, m)
        seen["zero" if not want else "nonzero"] += 1
    assert seen["nonzero"] >= 10, seen


def test_1p1n_monotone_under_adding_clauses():
    rng = random.Random(15)
    for _ in range(30):
        f = _random_formula(rng, max_vars=8, max_clauses=6, min_vars=1)
        extended = ImplicationFormula(
            f.var_count,
            f.clauses + (implies(rng.randint(1, f.var_count),
                                 rng.randint(1, f.var_count)),),
        )
        assert count_1p1n(extended) <= count_1p1n(f)


def test_counters_are_deterministic():
    rng = random.Random(16)
    g = random_instance_graph(rng, 7, 0.4)
    h = patterns.S3
    inst = Instance(g, random_lists(rng, g.m, h.n, 0.7), h.n)
    assert count_list_hcol(h, inst) == count_list_hcol(h, inst)
    f = _random_formula(rng)
    assert count_1p1n(f) == count_1p1n(f)
    lam = Fraction(2, 5)
    assert ising_partition(g, lam) == ising_partition(g, lam)
