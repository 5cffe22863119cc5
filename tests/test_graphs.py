import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from listhom import patterns
from listhom.gadgets import GadgetGraph
from listhom.graphs import (
    ColourGraph,
    Instance,
    InstanceGraph,
    bipartition,
    colour_bipartition,
    connected_components,
    induced_subgraph,
    instance_components,
    max_degree,
    reflexivity_status,
    replace,
)
from listhom.oracles import ImplicationFormula, _Plan
from listhom.patterns import Recipe
from listhom.recognizer import (
    CompleteBipartiteIrreflexive,
    CompleteReflexive,
    ExcludedWitness,
    Hardness,
    MixedLoops,
    StaircaseForm,
    TrichotomyResult,
)
from listhom.reductions import StaircaseEncoding


def test_colour_graph_validation():
    with pytest.raises(ValueError):
        ColourGraph(0, ())
    with pytest.raises(ValueError):
        ColourGraph(2, ((2,), ()))  # asymmetric
    with pytest.raises(ValueError):
        ColourGraph.from_edges(2, [(1, 3)])


@pytest.mark.parametrize("rows, message", [
    (((3, 2), (1,), (1,)), "not strictly ascending"),  # unsorted
    (((2, 2), (1,)), "not strictly ascending"),  # a repeat
    (((2,), (1, 3)), "range"),
    (((0,), ()), "range"),
    (((2,), (1, 3), ()), "symmetric"),
    (((2,), (1,)), "need 3 neighbour rows"),
])
def test_colour_graph_rejects_each_bad_row(rows, message):
    with pytest.raises(ValueError, match=message):
        ColourGraph(3 if message.startswith("need") else len(rows), rows)


def test_colour_graph_rows_round_trip():
    h = ColourGraph.from_edges(4, [(2, 1), (1, 2), (3, 3), (4, 1)])
    assert [h.neighbours(v) for v in h.colours] == [(2, 4), (1,), (3,), (1,)]
    assert h.edge_list() == [(1, 2), (1, 4), (3, 3)]
    assert [h.degree(v) for v in h.colours] == [2, 1, 0, 1]
    assert h.has_loop(3) and not h.has_loop(1)
    assert h.adjacent(4, 1) and not h.adjacent(2, 4)
    assert h.neighbour_set(1) == {2, 4}


def test_from_edges_builds_a_large_sparse_target_in_linear_memory():
    # neighbour rows hold O(n) entries here, where an n x n matrix held 25
    # million
    n = 5000
    perm = list(range(1, n + 1))
    random.Random(5).shuffle(perm)
    edges = [(perm[v - 1], perm[v]) for v in range(1, n)]
    tracemalloc.start()
    try:
        h = ColourGraph.from_edges(n, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    assert sorted(h.degree(v) for v in h.colours)[:3] == [1, 1, 2]


def test_instance_graph_validation():
    with pytest.raises(ValueError):
        InstanceGraph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        InstanceGraph.from_edges(3, [(1, 2), (2, 1)])
    g = InstanceGraph.from_edges(3, [(2, 1), (3, 2)])
    assert g.edges == ((1, 2), (2, 3))
    assert g.neighbours[1] == (1, 3)


def test_connected_components():
    single = ColourGraph.from_edges(1, [(1, 1)])
    assert connected_components(single) == [frozenset({1})]
    two_edges = ColourGraph.from_edges(4, [(1, 2), (3, 4)])
    assert connected_components(two_edges) == [frozenset({1, 2}), frozenset({3, 4})]
    assert connected_components(patterns.TWO_WRENCH) == [frozenset({1, 2, 3, 4})]


def test_induced_subgraph():
    sub = induced_subgraph(patterns.TWO_WRENCH, {1, 2})
    assert sub == patterns.K2_PRIME
    assert induced_subgraph(patterns.X3, range(1, 8)) == patterns.X3
    k3 = patterns.complete(3, reflexive=True)
    assert induced_subgraph(k3, {1, 2}) == patterns.complete(2, reflexive=True)
    with pytest.raises(ValueError):
        induced_subgraph(k3, set())
    # the whole vertex set gives h itself, once every vertex is in range
    assert induced_subgraph(patterns.X3, patterns.X3.colours) is patterns.X3
    with pytest.raises(ValueError):
        induced_subgraph(k3, {1, 2, 4})
    # a proper subset still gives a relabelled copy
    tail = induced_subgraph(patterns.P4, {2, 3, 4})
    assert tail == patterns.path(3) and tail is not patterns.P4


def test_induced_subgraph_idempotent():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(2, 7)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u, n + 1)
                 if rng.random() < 0.4]
        h = ColourGraph.from_edges(n, edges)
        verts = [v for v in range(1, n + 1) if rng.random() < 0.7] or [1]
        once = induced_subgraph(h, verts)
        again = induced_subgraph(once, range(1, once.n + 1))
        assert once == again


def test_reflexivity_status():
    assert reflexivity_status(patterns.K2_PRIME) == "mixed"
    assert reflexivity_status(patterns.complete(3, reflexive=True)) == "reflexive"
    assert reflexivity_status(patterns.P4) == "irreflexive"


def test_reflexivity_is_hereditary():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(2, 7)
        base = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                if rng.random() < 0.4]
        for reflexive in (True, False):
            edges = base + ([(v, v) for v in range(1, n + 1)] if reflexive else [])
            h = ColourGraph.from_edges(n, edges)
            verts = [v for v in range(1, n + 1) if rng.random() < 0.6] or [1]
            assert reflexivity_status(induced_subgraph(h, verts)) == reflexivity_status(h)


def test_bipartition_examples():
    k2 = InstanceGraph.from_edges(2, [(1, 2)])
    assert bipartition(k2) == (frozenset({1}), frozenset({2}))
    tri = InstanceGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    assert bipartition(tri) is None
    p3 = InstanceGraph.from_edges(3, [(1, 2), (2, 3)])
    assert bipartition(p3) == (frozenset({1, 3}), frozenset({2}))


def test_bipartition_is_proper():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randint(1, 8)
        edges = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)
                 if rng.random() < 0.3]
        g = InstanceGraph.from_edges(m, edges)
        sides = bipartition(g)
        if sides is None:
            continue
        v1, v2 = sides
        assert v1 | v2 == frozenset(g.vertices) and not (v1 & v2)
        for u, v in g.edges:
            assert (u in v1) != (v in v1)


def test_colour_bipartition_rejects_loops():
    assert colour_bipartition(patterns.P3_STAR) is None
    assert colour_bipartition(patterns.P4) is not None


def test_max_degree():
    assert max_degree(InstanceGraph.from_edges(2, [(1, 2)])) == 1
    star = InstanceGraph.from_edges(7, [(v, 7) for v in range(1, 7)])
    assert max_degree(star) == 6
    assert max_degree(InstanceGraph.from_edges(3, [])) == 0
    assert max_degree(InstanceGraph(0, ())) == 0
    rng = random.Random(17)
    for _ in range(50):
        m = rng.randint(1, 9)
        g = InstanceGraph.from_edges(m, [(u, v) for u in range(1, m + 1)
                                         for v in range(u + 1, m + 1) if rng.random() < 0.4])
        assert max_degree(g) == max(len(ns) for ns in g.neighbours)


def test_instance_components():
    g = InstanceGraph.from_edges(5, [(1, 2), (4, 5)])
    assert instance_components(g) == [
        frozenset({1, 2}), frozenset({3}), frozenset({4, 5})
    ]


def test_instance_validation():
    g = InstanceGraph.from_edges(2, [(1, 2)])
    with pytest.raises(ValueError):
        Instance(g, (frozenset({1}),), 3)  # wrong arity
    with pytest.raises(ValueError):
        Instance(g, (frozenset({4}), frozenset()), 3)  # colour out of range
    inst = Instance(g, (frozenset(), frozenset({1})), 3)
    assert inst.lists[0] == frozenset()


def test_instance_graph_from_edges_takes_any_order_and_names_the_fault():
    rng = random.Random(29)
    for _ in range(200):
        m = rng.randint(2, 9)
        pairs = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)
                 if rng.random() < 0.5]
        given = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        rng.shuffle(given)
        assert InstanceGraph.from_edges(m, given) == InstanceGraph(m, tuple(pairs))
        if given:
            u, v = rng.choice(given)
            with pytest.raises(ValueError, match=rf"^parallel edge \({min(u, v)}, {max(u, v)}\)$"):
                InstanceGraph.from_edges(m, given + [rng.choice(((u, v), (v, u)))])
            with pytest.raises(ValueError, match=rf"^loop on vertex {u} not allowed$"):
                InstanceGraph.from_edges(m, given + [(u, u)])
    with pytest.raises(ValueError, match="not canonical or out of range"):
        InstanceGraph.from_edges(3, [(4, 1)])


def test_instance_graph_and_instance_reject_each_bad_input():
    # (edges on 3 vertices, message): each edge check of InstanceGraph, the
    # first failing edge named
    cases = [
        (((1, 2), (2, 2)), "loop (2,2) not allowed in instance graphs"),
        (((2, 1),), "edge (2,1) not canonical or out of range"),
        (((0, 1),), "edge (0,1) not canonical or out of range"),
        (((1, 2), (2, 4)), "edge (2,4) not canonical or out of range"),
        (((1, 3), (1, 2)), "edges must be strictly sorted"),
        (((1, 2), (1, 2)), "edges must be strictly sorted"),
    ]
    for edges, message in cases:
        with pytest.raises(ValueError) as err:
            InstanceGraph(3, edges)
        assert str(err.value) == message, edges
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        InstanceGraph(-1, ())
    g = InstanceGraph(3, ((1, 2), (2, 3)))
    ok = frozenset((1, 2))
    for lists, message in (((ok, frozenset((2, 4)), ok), "vertex 2: colour 4 out of range"),
                           ((ok, ok, frozenset((0,))), "vertex 3: colour 0 out of range")):
        with pytest.raises(ValueError) as err:
            Instance(g, lists, 3)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="lists must cover exactly the vertices of g"):
        Instance(g, (ok, ok), 3)


# --- the frozen records ---

_P2 = InstanceGraph(2, ((1, 2),))
_PAIR = frozenset((1, 2))

# every record class of the package: the fields of one record, by position,
# and its repr as dataclass(frozen=True) printed it
RECORDS = [
    (ColourGraph, (2, ((1, 2), (1,))), "ColourGraph(n=2, rows=((1, 2), (1,)))"),
    (InstanceGraph, (3, ((1, 2), (2, 3))), "InstanceGraph(m=3, edges=((1, 2), (2, 3)))"),
    (Instance, (_P2, (_PAIR, frozenset((2,))), 2),
     "Instance(g=InstanceGraph(m=2, edges=((1, 2),)), "
     "lists=(frozenset({1, 2}), frozenset({2})), colour_count=2)"),
    (GadgetGraph, (2, ((1, 2),), (_PAIR, _PAIR), 1, 2, (1, 2), ((0, 1), (1, 0)), 2),
     "GadgetGraph(m=2, edges=((1, 2),), lists=(frozenset({1, 2}), frozenset({1, 2})), "
     "terminal1=1, terminal2=2, terminal_colours=(1, 2), matrix=((0, 1), (1, 0)), "
     "colour_count=2)"),
    (ImplicationFormula, (2, (("p", 1), ("i", 1, 2))),
     "ImplicationFormula(var_count=2, clauses=(('p', 1), ('i', 1, 2)))"),
    (_Plan, ("min-degree", ((1, (2,)), (2, ())), 1, 4, 6),
     "_Plan(rule='min-degree', steps=((1, (2,)), (2, ())), width=1, largest=4, total=6)"),
    (Recipe, ("CycleNe4", 6, ((1, 2),), ((1, 1), (1, 0)), (), ((1, 2),)),
     "Recipe(kind='CycleNe4', length=6, pairs=((1, 2),), dprime=((1, 1), (1, 0)), "
     "pendants=(), mirror=((1, 2),))"),
    (StaircaseForm, ("bipartite", (1, 2), (3, 4), (1, 1), (2, 2)),
     "StaircaseForm(kind='bipartite', row_order=(1, 2), col_order=(3, 4), "
     "alpha=(1, 1), beta=(2, 2))"),
    (ExcludedWitness, ("X3", None, (1, 2, 3, 4, 5, 6)),
     "ExcludedWitness(kind='X3', length=None, embedding=(1, 2, 3, 4, 5, 6))"),
    (CompleteReflexive, (), "CompleteReflexive()"),
    (CompleteBipartiteIrreflexive, (), "CompleteBipartiteIrreflexive()"),
    (MixedLoops, (1, 2), "MixedLoops(unlooped=1, looped=2)"),
    (TrichotomyResult, (Hardness.SAT_EQUIVALENT, MixedLoops(1, 2), 6, (1, 2), ((1, 2),)),
     "TrichotomyResult(klass=<Hardness.SAT_EQUIVALENT: 2>, "
     "reason=MixedLoops(unlooped=1, looped=2), degree_threshold=6, vertices=(1, 2), "
     "per_component=((1, 2),))"),
    (StaircaseEncoding, ("adjacency", 2, (1, 2), (1, 2), (1, 2), (2, 2)),
     "StaircaseEncoding(mode='adjacency', q=2, r_order=(1, 2), c_order=(1, 2), "
     "alpha=(1, 2), beta=(2, 2))"),
]


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_each_record_acts_as_its_frozen_dataclass_did(cls, values, text):
    names = cls.__match_args__
    assert len(names) == len(values)
    record = cls(*values)
    by_name = cls(**dict(zip(names, values)))
    assert record == by_name and not record != by_name
    assert hash(record) == hash(by_name) == hash(values)
    assert record != values and values != record
    assert tuple(getattr(record, name) for name in names) == values
    assert repr(record) == text
    for name in names + ("other",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is values[names.index(name)]
    copy = replace(record)
    assert copy == record and copy is not record
    with pytest.raises(TypeError):
        replace(record, no_such_field=1)
    if names:
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], values[1:])))
        with pytest.raises(TypeError):
            cls(*values, None)


def test_records_compare_by_class_and_fields():
    assert MixedLoops(1, 2) == MixedLoops(1, 2)
    assert hash(MixedLoops(1, 2)) == hash(MixedLoops(1, 2))
    assert MixedLoops(1, 2) != MixedLoops(2, 1)
    assert CompleteReflexive() == CompleteReflexive()
    assert CompleteReflexive() != CompleteBipartiteIrreflexive()
    assert CompleteReflexive() != ()
    assert len({CompleteReflexive(), CompleteReflexive(), MixedLoops(1, 2)}) == 2


def test_the_one_default_and_what_replace_checks():
    result = TrichotomyResult(Hardness.POLYTIME, CompleteReflexive(), None, (1,))
    assert result.per_component == ()
    assert result == TrichotomyResult(Hardness.POLYTIME, CompleteReflexive(), None, (1,), ())
    assert replace(result, degree_threshold=6).degree_threshold == 6
    assert replace(MixedLoops(1, 2), looped=3) == MixedLoops(1, 3)
    # replace builds the copy through __init__, so __post_init__ runs again
    g = InstanceGraph(3, ((1, 2), (2, 3)))
    with pytest.raises(ValueError, match="loop"):
        replace(g, edges=((1, 1),))
    with pytest.raises(ValueError, match="symmetric"):
        replace(ColourGraph(2, ((1, 2), (1,))), rows=((1, 2), (2,)))


def test_cached_properties_of_records_still_cache():
    h = ColourGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    sides = colour_bipartition(h)
    assert colour_bipartition(h) is sides and vars(h)["_sides"] is sides
    inst = Instance.with_full_lists(InstanceGraph(3, ((1, 2), (2, 3))), 2)
    assert inst.sorted_lists is inst.sorted_lists
    assert "sorted_lists" in vars(inst)
    # cached values sit beside the fields and take no part in == or hash
    assert inst == Instance(inst.g, inst.lists, 2) and hash(inst) == hash((inst.g, inst.lists, 2))


def test_the_cli_starts_without_dataclasses_or_inspect():
    # each command is a fresh process; the records' decorator is what keeps
    # these two (and the dozen modules they pull in) out of a cold start
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import listhom.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(src)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
