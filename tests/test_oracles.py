import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    count_models_enumeration,
    enumerate_list_colourings,
    ising_direct,
    random_instance_graph,
    random_lists,
)
from listhom import patterns
from listhom.graphs import Instance, InstanceGraph, instance_components
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
    a = patterns.P3_STAR.adj
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


def test_1p1n_long_chain():
    # x_{v+1} -> x_v: the models are the n + 1 prefixes of ones
    n = 3000
    f = ImplicationFormula(n, tuple(implies(v + 1, v) for v in range(1, n)))
    assert count_1p1n(f) == n + 1


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
