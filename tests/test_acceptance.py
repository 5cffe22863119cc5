"""Acceptance suite: every criterion is exact (zero tolerance) and prints
one verdict line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import random
from fractions import Fraction

from helpers import (
    check_condH,
    connected_bipartite_reps,
    connected_graph_reps,
    decode_assignment,
    encode_colouring,
    enumerate_list_colourings,
    random_lists,
    reflexive_closure,
)
from listhom import patterns
from listhom.gadgets import (
    build_symmetrized,
    det2,
    entrywise_pow,
    gadget_catalog,
    interaction_matrix,
    interaction_matrix_bruteforce,
    path_gadget_graph,
    reduce_ising_to_listhcol,
    thicken,
)
from listhom.graphs import ColourGraph, Instance, InstanceGraph, instance_components
from listhom.oracles import (
    ImplicationFormula,
    count_1p1n,
    count_list_hcol,
    implies,
    ising_partition,
    unit_pos,
)
from listhom.recognizer import (
    ExcludedWitness,
    Hardness,
    MixedLoops,
    StaircaseForm,
    classify,
    find_excluded_bp,
    find_excluded_pi,
    find_staircase_adjacency,
    find_staircase_biadjacency,
)
from listhom.reductions import (
    build_staircase_encoding,
    reduce_listhcol_to_1p1n,
    reduce_p4_to_p3star,
)

# every catalog case with its published product matrix
CATALOG = [
    ("X3", None, patterns.X3, ((2, 3), (3, 5))),
    ("X2", None, patterns.X2, ((5, 8), (8, 13))),
    ("T2", None, patterns.T2, ((5, 7), (7, 10))),
    ("CycleNe4", 6, patterns.cycle(6), ((1, 2), (1, 3))),
    ("CycleNe4", 8, patterns.cycle(8), ((1, 2), (1, 3))),
    ("CycleNe4", 3, patterns.cycle(3), ((2, 1), (1, 1))),
    ("CycleNe4", 5, patterns.cycle(5), ((2, 1), (1, 1))),
    ("CycleNe4", 7, patterns.cycle(7), ((2, 1), (1, 1))),
    ("Claw", None, patterns.CLAW, ((2, 3), (3, 5))),
    ("Net", None, patterns.NET, ((2, 3), (3, 5))),
    ("S3", None, patterns.S3, ((1, 1), (1, 2))),
    ("CycleGe4", 4, patterns.cycle(4, reflexive=True), ((1, 2), (1, 3))),
    ("CycleGe4", 5, patterns.cycle(5, reflexive=True), ((1, 2), (1, 3))),
    ("CycleGe4", 6, patterns.cycle(6, reflexive=True), ((1, 2), (1, 3))),
]

SYMMETRISED = {
    ("X3", None): ((9, 10), (10, 9)),
    ("X2", None): ((64, 65), (65, 64)),
    ("T2", None): ((49, 50), (50, 49)),
    ("CycleNe4", 6): ((2, 3), (3, 2)),
    ("CycleNe4", 8): ((2, 3), (3, 2)),
    ("CycleNe4", 3): ((1, 2), (2, 1)),
    ("CycleNe4", 5): ((1, 2), (2, 1)),
    ("CycleNe4", 7): ((1, 2), (2, 1)),
}


def identity_witness(kind, length=None):
    pat = patterns.recipe(kind, length).pattern
    return ExcludedWitness(kind, length, tuple(range(1, pat.n + 1)))


def label(kind, length):
    return kind + (f"({length})" if length else "")


def test_criterion_01_catalog_matrix_reproduction():
    for kind, length, h, want in CATALOG:
        entry = gadget_catalog(identity_witness(kind, length))
        dprime, d = interaction_matrix(h, entry.pairs)
        assert dprime == want, label(kind, length)
        assert entry.dprime == want
        bf = interaction_matrix_bruteforce(h, path_gadget_graph(h, entry.pairs))
        assert bf == d, label(kind, length)
    print(f"ACCEPTANCE 1 PASS: all {len(CATALOG)} catalog product matrices "
          "reproduce the published values and agree with brute force")


def test_criterion_02_determinant_invariants():
    for kind, length, h, _ in CATALOG:
        entry = gadget_catalog(identity_witness(kind, length))
        dprime, d = interaction_matrix(h, entry.pairs)
        assert det2(dprime) == 1, label(kind, length)
        assert det2(d) == -1, label(kind, length)
        _, gg = build_symmetrized(h, identity_witness(kind, length))
        assert gg.matrix[0][1] == gg.matrix[1][0], label(kind, length)
        assert gg.matrix[0][0] == gg.matrix[1][1], label(kind, length)
        assert det2(gg.matrix) < 0, label(kind, length)
    print("ACCEPTANCE 2 PASS: det D' = 1, det D = -1, and every symmetrised "
          "matrix is symmetric with negative determinant")


def test_criterion_03_symmetrised_matrices():
    for (kind, length), want in SYMMETRISED.items():
        h = patterns.recipe(kind, length).pattern
        _, gg = build_symmetrized(h, identity_witness(kind, length))
        assert gg.matrix == want, label(kind, length)
        assert interaction_matrix_bruteforce(h, gg) == want, label(kind, length)
    print("ACCEPTANCE 3 PASS: symmetrised matrices match the published values "
          "exactly")


def test_criterion_04_thickening():
    cond3_status = {}
    for kind, length, h, _ in CATALOG:
        entry = gadget_catalog(identity_witness(kind, length))
        pair = check_condH(h, *entry.terminals)
        cond3_status[label(kind, length)] = pair
        assert pair is not None, f"{label(kind, length)} lost its pendant pair"
        assert pair == entry.pendants
        _, gg = build_symmetrized(h, identity_witness(kind, length))
        for t in (0, 1, 2):
            gt = thicken(h, gg, entry.pendants, t)
            degree = [0] + [len(ns) for ns in gt.instance().g.neighbours]
            assert degree[gt.terminal1] == 1
            assert degree[gt.terminal2] == 1
            assert all(degree[v] <= 3 for v in range(1, gt.m + 1)
                       if v not in (gt.terminal1, gt.terminal2))
            want = entrywise_pow(gg.matrix, 2**t)
            assert gt.matrix == want
            assert interaction_matrix_bruteforce(h, gt) == want
    print("ACCEPTANCE 4 PASS: thickening at t in {0,1,2} keeps terminal "
          "degree 1, internal degree <= 3, and squares entries per level; "
          f"the triangle admits the split pair empirically: "
          f"CycleNe4(3) -> {cond3_status['CycleNe4(3)']}")


def _random_graph_bounded(rng, max_vertices, max_edges):
    m = rng.randint(1, max_vertices)
    pairs = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
    rng.shuffle(pairs)
    keep = [p for p in pairs if rng.random() < 0.6][:max_edges]
    return InstanceGraph.from_edges(m, keep)


def test_criterion_05_ising_reduction_identity():
    rng = random.Random(500)
    gadgets = []
    for kind, h in (("X3", patterns.X3), ("Claw", patterns.CLAW)):
        _, gg = build_symmetrized(h, identity_witness(kind))
        assert gg.matrix == ((9, 10), (10, 9))
        gadgets.append((kind, h, gg))
    for trial in range(30):
        g = _random_graph_bounded(rng, 6, 8)
        for kind, h, gg in gadgets:
            inst, lam, scale = reduce_ising_to_listhcol(g, gg)
            assert lam == Fraction(9, 10)
            assert scale == 10 ** len(g.edges)
            assert count_list_hcol(h, inst) == scale * ising_partition(g, lam), (
                trial, kind, g.edges)
    print("ACCEPTANCE 5 PASS: edge replacement is count-exact on 30 random "
          "graphs for both the X3 and claw gadgets (a=9, b=10)")


H6 = ColourGraph.from_edges(6, [(1, 4), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6)])


def test_criterion_06_formula_reduction():
    targets = [
        ("4-path", patterns.P4),
        ("looped 3-path", patterns.P3_STAR),
        ("looped 4-path", patterns.path(4, reflexive=True)),
        ("6-vertex staircase", H6),
    ]
    rng = random.Random(600)
    for name, h in targets:
        form = find_staircase_biadjacency(h) or find_staircase_adjacency(h)
        assert form is not None, name
        enc = build_staircase_encoding(h, form)
        for trial in range(50):
            m = rng.randint(1, 8)
            edges = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)
                     if rng.random() < 0.45]
            g = InstanceGraph.from_edges(m, edges)
            inst = Instance(g, random_lists(rng, m, h.n, 0.6), h.n)
            formula, sides = reduce_listhcol_to_1p1n(enc, inst)
            assert count_1p1n(formula) == count_list_hcol(h, inst), (name, trial)
            work = 1
            for s in inst.lists:
                work *= max(1, len(s))
            if work <= 20000:
                for colouring in enumerate_list_colourings(h, inst):
                    bits = encode_colouring(enc, sides, colouring)
                    assert decode_assignment(enc, sides, bits) == tuple(colouring)
    print("ACCEPTANCE 6 PASS: formula model counts equal the colouring counts "
          "on 50 random instances for each of the four targets, and "
          "decoding round-trips")


def test_criterion_07_p4_identity():
    rng = random.Random(700)
    for trial in range(30):
        m = rng.randint(1, 8)
        side = [rng.randint(0, 1) for _ in range(m)]
        edges = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)
                 if side[u - 1] != side[v - 1] and rng.random() < 0.5]
        g = InstanceGraph.from_edges(m, edges)
        inst, mult = reduce_p4_to_p3star(g)
        assert mult == 2 ** len(instance_components(g))
        lhs = count_list_hcol(patterns.P4, Instance.with_full_lists(g, 4))
        assert lhs == mult * count_list_hcol(patterns.P3_STAR, inst), (trial, g.edges)
    print("ACCEPTANCE 7 PASS: 4-path counts equal 2^components times the "
          "reduced list counts on 30 random bipartite graphs")


def test_criterion_08_classification_fixtures():
    union = ColourGraph.from_edges(
        7, [(1, 2), (2, 3), (1, 3), (1, 1), (2, 2), (3, 3),
            (4, 5), (5, 6), (6, 7)])
    cases = [
        ("K2'", patterns.K2_PRIME, Hardness.SAT_EQUIVALENT, 6, MixedLoops),
        ("2-wrench", patterns.TWO_WRENCH, Hardness.SAT_EQUIVALENT, 6, MixedLoops),
        ("4-path", patterns.P4, Hardness.BIS_EQUIVALENT, 6, StaircaseForm),
        ("looped 3-path", patterns.P3_STAR, Hardness.BIS_EQUIVALENT, 6, StaircaseForm),
        ("reflexive K5", patterns.complete(5, reflexive=True),
         Hardness.POLYTIME, None, None),
        ("irreflexive C4", patterns.cycle(4), Hardness.POLYTIME, None, None),
        ("irreflexive C6", patterns.cycle(6), Hardness.SAT_EQUIVALENT, 3, ExcludedWitness),
        ("reflexive claw", patterns.CLAW, Hardness.SAT_EQUIVALENT, 3, ExcludedWitness),
        ("reflexive K3 + 4-path", union, Hardness.BIS_EQUIVALENT, 6, StaircaseForm),
    ]
    for name, h, klass, thr, reason_type in cases:
        res = classify(h)
        assert res.klass is klass, name
        assert res.degree_threshold == thr, name
        if reason_type is not None:
            assert isinstance(res.reason, reason_type), name
    print(f"ACCEPTANCE 8 PASS: all {len(cases)} classification fixtures land "
          "in the stated class with the stated degree threshold")


def test_criterion_09_characterisation_cross_check():
    bp_checked = 0
    for n in range(1, 8):
        for h in connected_bipartite_reps(n):
            form = find_staircase_biadjacency(h)
            witness = find_excluded_bp(h)
            assert (form is not None) == (witness is None), h.edge_list()
            if form is not None:
                assert form.certifies(h)
            else:
                assert witness.verify(h)
            bp_checked += 1
    pi_checked = 0
    for n in range(1, 7):
        for es in connected_graph_reps(n):
            h = reflexive_closure(es, n)
            form = find_staircase_adjacency(h)
            witness = find_excluded_pi(h)
            assert (form is not None) == (witness is None), sorted(es)
            if form is not None:
                assert form.certifies(h)
            else:
                assert witness.verify(h)
            pi_checked += 1
    print(f"ACCEPTANCE 9 PASS: staircase and forbidden-subgraph recognition "
          f"agree on all {bp_checked} connected bipartite graphs (<= 7 "
          f"vertices) and all {pi_checked} connected reflexive graphs "
          f"(<= 6 vertices), one per isomorphism class")


def test_criterion_10_oracle_spot_values():
    k2 = InstanceGraph.from_edges(2, [(1, 2)])
    assert count_list_hcol(patterns.K2_PRIME, Instance.with_full_lists(k2, 2)) == 3
    assert count_list_hcol(patterns.P3_STAR, Instance.with_full_lists(k2, 3)) == 7
    assert ising_partition(k2, Fraction(9, 10)) == Fraction(19, 5)
    chain = ImplicationFormula(2, (unit_pos(1), implies(2, 1)))
    assert count_1p1n(chain) == 2
    print("ACCEPTANCE 10 PASS: oracle spot values (3, 7, 19/5, 2) all exact")
