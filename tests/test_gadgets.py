import itertools
import random
import sys
import time
from fractions import Fraction

import pytest

from listhom import gadgets, patterns
from listhom.cli import main
from listhom.formats import serialise_h, serialise_instance
from listhom.gadgets import (
    build_symmetrized,
    det2,
    find_transposing_automorphism,
    gadget_catalog,
    interaction_matrix,
    interaction_matrix_bruteforce,
    path_gadget_graph,
    reduce_ising_to_listhcol,
    symmetrize,
    thicken,
)
from listhom.graphs import (
    ColourGraph,
    Instance,
    InstanceGraph,
    instance_components,
    max_degree,
    replace,
)
from listhom.oracles import ImplicationFormula, count_list_hcol, ising_partition
from listhom.recognizer import ExcludedWitness

from helpers import check_condH, ising_direct


def identity_witness(kind, length=None):
    pat = patterns.recipe(kind, length).pattern
    return ExcludedWitness(kind, length, tuple(range(1, pat.n + 1)))


CATALOG_CASES = [
    ("X3", None, patterns.X3, ((2, 3), (3, 5))),
    ("X2", None, patterns.X2, ((5, 8), (8, 13))),
    ("T2", None, patterns.T2, ((5, 7), (7, 10))),
    ("CycleNe4", 3, patterns.cycle(3), ((2, 1), (1, 1))),
    ("CycleNe4", 5, patterns.cycle(5), ((2, 1), (1, 1))),
    ("CycleNe4", 7, patterns.cycle(7), ((2, 1), (1, 1))),
    ("CycleNe4", 6, patterns.cycle(6), ((1, 2), (1, 3))),
    ("CycleNe4", 8, patterns.cycle(8), ((1, 2), (1, 3))),
    ("Claw", None, patterns.CLAW, ((2, 3), (3, 5))),
    ("Net", None, patterns.NET, ((2, 3), (3, 5))),
    ("S3", None, patterns.S3, ((1, 1), (1, 2))),
    ("CycleGe4", 4, patterns.cycle(4, reflexive=True), ((1, 2), (1, 3))),
    ("CycleGe4", 5, patterns.cycle(5, reflexive=True), ((1, 2), (1, 3))),
    ("CycleGe4", 6, patterns.cycle(6, reflexive=True), ((1, 2), (1, 3))),
]

X3_GADGET = ((1, 2), (4, 7), (3, 6), (4, 5), (2, 1))


def is_gadget(h, g):
    """The three gadget conditions, checked by the walk that multiplies."""
    return gadgets._product(h, g) is not None


# --- validation and the matrix product ---

def test_validate_gadget_examples():
    assert is_gadget(patterns.X3, X3_GADGET)
    assert not is_gadget(patterns.CLAW, X3_GADGET)  # colours out of range
    assert is_gadget(patterns.cycle(3), ((1, 2), (2, 1)))
    # broken swap condition
    assert not is_gadget(patterns.cycle(3), ((1, 2), (1, 2)))
    # a single pair is not a gadget
    assert not is_gadget(patterns.cycle(3), ((1, 2),))
    # each condition failing alone: (i) the tracks 1, 3 and 3, 1 are not
    # walks in the path 1-2-3
    assert not is_gadget(patterns.path(3), ((1, 3), (3, 1)))
    # (ii) the one step of the reflexive K2 admits both crossings
    assert not is_gadget(patterns.path(2, reflexive=True), ((1, 2), (2, 1)))
    # (iii) walks in the triangle with no crossing, but equal terminal pairs
    assert not is_gadget(patterns.cycle(3), ((1, 2), (2, 3), (1, 2)))


def test_interaction_matrix_examples():
    dprime, d = interaction_matrix(patterns.X3, X3_GADGET)
    assert dprime == ((2, 3), (3, 5)) and d == ((3, 2), (5, 3))
    x2_gadget = ((1, 2), (4, 7), (3, 2), (4, 6), (3, 1), (4, 5), (2, 1))
    assert interaction_matrix(patterns.X2, x2_gadget)[0] == ((5, 8), (8, 13))
    c3_edge = ((1, 2), (2, 1))
    dprime, d = interaction_matrix(patterns.cycle(3), c3_edge)
    assert dprime == ((1, 0), (0, 1)) and d == ((0, 1), (1, 0))
    s3_gadget = ((1, 2), (3, 6), (3, 5), (3, 4), (2, 1))
    assert interaction_matrix(patterns.S3, s3_gadget)[0] == ((1, 1), (1, 2))
    with pytest.raises(ValueError):
        interaction_matrix(patterns.CLAW, X3_GADGET)


def test_bruteforce_matches_product_on_catalog():
    for kind, length, h, want in CATALOG_CASES:
        entry = gadget_catalog(identity_witness(kind, length))
        dprime, d = interaction_matrix(h, entry.pairs)
        assert dprime == want == entry.dprime
        assert det2(dprime) == 1 and det2(d) == -1
        assert interaction_matrix_bruteforce(h, path_gadget_graph(h, entry.pairs)) == d


def test_bruteforce_trivial_edge_gadget():
    gg = path_gadget_graph(patterns.cycle(3), ((1, 2), (2, 1)))
    assert interaction_matrix_bruteforce(patterns.cycle(3), gg) == ((0, 1), (1, 0))


def test_product_matches_bruteforce_on_random_gadgets():
    """The submatrix product has to agree with pinned-terminal counting for
    any valid gadget, not just the catalogued ones; search random targets
    for valid pair walks and compare."""
    from listhom.graphs import ColourGraph

    rng = random.Random(33)
    found = 0
    for _ in range(60):
        n = rng.randint(3, 6)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u, n + 1)
                 if rng.random() < 0.5]
        h = ColourGraph.from_edges(n, edges)
        pairs = [(r, s) for r in range(1, n + 1) for s in range(1, n + 1) if r != s]
        start = rng.choice(pairs)
        target_len = rng.randint(3, 5)

        def walks(prefix):
            if len(prefix) == target_len:
                candidate = tuple(prefix)
                return candidate if is_gadget(h, candidate) else None
            i1, j1 = prefix[-1]
            options = [
                (i2, j2) for i2, j2 in pairs
                if h.adjacent(i1, i2) and h.adjacent(j1, j2)
                and not (h.adjacent(i1, j2) and h.adjacent(j1, i2))
            ]
            rng.shuffle(options)
            for nxt in options:
                if len(prefix) == target_len - 1 and nxt != (start[1], start[0]):
                    continue
                got = walks(prefix + [nxt])
                if got is not None:
                    return got
            return None

        gadget = walks([start])
        if gadget is None:
            continue
        found += 1
        dprime, d = interaction_matrix(h, gadget)
        assert det2(dprime) == 1 and det2(d) == -1
        assert interaction_matrix_bruteforce(h, path_gadget_graph(h, gadget)) == d
    assert found >= 10  # the search must actually exercise the comparison


def _pinned_recount(h, gg):
    """The interaction matrix entry by entry: one count per pair of terminal
    colours, with both terminals pinned to singleton lists."""
    inst = gg.instance()
    rows = []
    for a in gg.terminal_colours:
        row = []
        for b in gg.terminal_colours:
            lists = list(inst.lists)
            lists[gg.terminal1 - 1] = frozenset((a,))
            lists[gg.terminal2 - 1] = frozenset((b,))
            row.append(count_list_hcol(h, Instance(inst.g, tuple(lists), h.n)))
        rows.append(tuple(row))
    return tuple(rows)


def test_bruteforce_matches_pinned_counts_on_thickened_catalog():
    for kind, length, h, _ in CATALOG_CASES:
        entry = gadget_catalog(identity_witness(kind, length))
        _, gg = build_symmetrized(h, identity_witness(kind, length))
        for t in range(4):
            gt = thicken(h, gg, entry.pendants, t)
            bf = interaction_matrix_bruteforce(h, gt)
            assert bf == _pinned_recount(h, gt) == gt.matrix, (kind, length, t)


def test_bruteforce_runs_one_elimination(monkeypatch):
    import listhom.oracles

    real = listhom.oracles._eliminate
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(listhom.oracles, "_eliminate", counted)
    _, gg = build_symmetrized(patterns.X3, identity_witness("X3"))
    assert interaction_matrix_bruteforce(patterns.X3, gg) == gg.matrix
    assert len(calls) == 1


# --- automorphisms ---

def test_find_transposing_automorphism():
    assert find_transposing_automorphism(patterns.X3, 1, 2) == (2, 1, 3, 4, 7, 6, 5)
    assert find_transposing_automorphism(patterns.CLAW, 1, 2) == (2, 1, 3, 4)
    assert find_transposing_automorphism(patterns.P4, 1, 3) is None
    pi = find_transposing_automorphism(patterns.S3, 1, 2)
    assert pi is not None and pi[0] == 2 and pi[pi[0] - 1] == 1
    # 3 -> 6 is consistent at first but strands 4; the search must undo
    # both halves of that swap before it tries 3 -> 7
    h = ColourGraph.from_edges(10, [(1, 3), (1, 4), (1, 5), (3, 4), (5, 10),
                                    (2, 6), (2, 7), (2, 8), (7, 8), (6, 9)])
    assert find_transposing_automorphism(h, 1, 2) == (2, 1, 7, 8, 6, 5, 3, 4, 10, 9)


def test_find_transposing_automorphism_is_first_involution():
    """Seeded: the search returns the lexicographically first image tuple of
    an automorphism that is its own inverse and swaps r and s."""
    rng = random.Random(61)
    found = 0
    for _ in range(150):
        n = rng.randint(2, 6)
        mirror = list(range(1, n + 1))
        paired = rng.sample(range(1, n + 1), n)
        for a, b in zip(paired[::2], paired[1::2]):
            mirror[a - 1], mirror[b - 1] = b, a
        edges = [(u, v) for u in range(1, n + 1) for v in range(u, n + 1)
                 if rng.random() < 0.4]
        if rng.random() < 0.7:  # make mirror an automorphism
            edges += [(mirror[u - 1], mirror[v - 1]) for u, v in edges]
        h = ColourGraph.from_edges(n, edges)
        r, s = rng.sample(range(1, n + 1), 2)
        want = next((
            pi for pi in itertools.permutations(range(1, n + 1))
            if pi[r - 1] == s and all(pi[pi[v] - 1] == v + 1 for v in range(n))
            and all(h.adjacent(pi[u - 1], pi[v - 1]) == h.adjacent(u, v)
                    for u in h.colours for v in h.colours)
        ), None)
        assert find_transposing_automorphism(h, r, s) == want, (edges, r, s)
        found += want is not None
    assert 40 <= found <= 110, found


def test_find_transposing_automorphism_many_colours():
    # one search level per colour: deeper than the default recursion limit
    h = ColourGraph.from_edges(1200, [(1, 2)])
    assert find_transposing_automorphism(h, 1, 2) == (2, 1, *range(3, 1201))


# every catalogue row with a stored mirror, cycles well past the 14 cases
MIRROR_ROWS = (
    [(row.kind, None) for row in patterns.RECIPES]
    + [("CycleNe4", q) for q in (3, *range(5, 17))]
    + [("CycleGe4", q) for q in range(4, 17)]
)


def test_stored_mirror_is_the_searched_automorphism():
    for kind, length in MIRROR_ROWS:
        row = patterns.recipe(kind, length)
        want = find_transposing_automorphism(row.pattern, *row.terminals)
        assert row.mirror == want, (kind, length)


@pytest.mark.parametrize("kind, length, mirror", [
    ("X3", None, (1, 2, 3, 4, 5, 6, 7)),  # fixes the terminals
    ("X3", None, (2, 1, 4, 3, 5, 6, 7)),  # swaps them, breaks the gadget
    ("X3", None, (2, 1, 5, 3, 4, 6, 7)),  # a permutation, not an involution
    ("X3", None, (2, 1, 3, 4, 7, 7, 5)),  # not a permutation
    ("X3", None, (2, 1)),  # too short
    ("Claw", None, (2, 1, 4, 3)),  # swaps a leaf with the centre
    ("CycleNe4", 6, (3, 2, 1, 4, 5, 6)),  # swaps the terminals alone
    ("CycleGe4", 5, (2, 1, 4, 3, 5)),  # an involution, not an automorphism
])
def test_build_symmetrized_rejects_a_corrupted_mirror(monkeypatch, kind, length, mirror):
    row = patterns.recipe(kind, length)
    monkeypatch.setattr(gadgets, "recipe", lambda *_: replace(row, mirror=mirror))
    with pytest.raises(ValueError):
        build_symmetrized(row.pattern, identity_witness(kind, length))


def test_selftest_never_runs_the_automorphism_search(monkeypatch, capsys):
    def forbidden(*args):
        raise RuntimeError("the automorphism search ran")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "listhom" and hasattr(module, "find_transposing_automorphism"):
            monkeypatch.setattr(module, "find_transposing_automorphism", forbidden)
    assert main(["selftest"]) == 0
    assert "selftest: pass" in capsys.readouterr().out


def test_build_symmetrized_validates_the_gadget_and_its_mirror_once(monkeypatch):
    # _product is the one walk along a gadget, and it validates as it goes
    real = gadgets._product
    checked = []

    def counted(h, pairs):
        checked.append(pairs)
        return real(h, pairs)

    monkeypatch.setattr(gadgets, "_product", counted)
    build_symmetrized(patterns.X3, identity_witness("X3"))
    assert checked == [X3_GADGET, ((2, 1), (4, 5), (3, 6), (4, 7), (1, 2))]


def test_build_symmetrized_on_a_long_cycle_answers_at_once():
    # an exhaustive automorphism search of the 480-cycle takes seconds
    h = patterns.recipe("CycleNe4", 480).pattern
    start = time.perf_counter()
    _, gg = build_symmetrized(h, identity_witness("CycleNe4", 480))
    assert time.perf_counter() - start < 1
    assert gg.matrix == ((2, 3), (3, 2))


def test_cycle_rows_build_their_pattern_only_when_read(monkeypatch, tmp_path, capsys):
    # the dense q x q cycle is built and validated cell by cell
    h = patterns.cycle(320)
    (tmp_path / "c6.h").write_text(serialise_h(patterns.cycle(6)))
    built = []
    real = patterns.cycle

    def counted(length, **kw):
        built.append(length)
        return real(length, **kw)

    monkeypatch.setattr(patterns, "cycle", counted)
    build_symmetrized(h, ExcludedWitness("CycleNe4", 320, tuple(range(1, 321))))
    assert built == []
    # the explicit witness search reads the pattern, the gadget report does not
    assert main(["gadget", str(tmp_path / "c6.h"), "--witness", "cycle6"]) == 0
    capsys.readouterr()
    assert built == [6]


def test_symmetrize_catalog_matrices():
    want = {
        ("X3", None): ((9, 10), (10, 9)),
        ("X2", None): ((64, 65), (65, 64)),
        ("T2", None): ((49, 50), (50, 49)),
        ("CycleNe4", 6): ((2, 3), (3, 2)),
        ("CycleNe4", 5): ((1, 2), (2, 1)),
    }
    for (kind, length), expected in want.items():
        w = identity_witness(kind, length)
        _, gg = build_symmetrized(patterns.recipe(kind, length).pattern, w)
        assert gg.matrix == expected
        assert interaction_matrix_bruteforce(patterns.recipe(kind, length).pattern, gg) == expected


def test_symmetrize_checks_preconditions():
    h = patterns.cycle(3)
    edge_gadget = ((1, 2), (2, 1))
    pi = (2, 1, 3)
    with pytest.raises(ValueError):
        symmetrize(h, edge_gadget, pi)  # zero entries in D
    entry = gadget_catalog(identity_witness("X3"))
    with pytest.raises(ValueError):
        symmetrize(patterns.X3, entry.pairs, (1, 2, 3, 4, 5, 6, 7))  # fixes terminals
    with pytest.raises(ValueError):
        # transposes terminals but breaks the gadget structure
        symmetrize(patterns.X3, entry.pairs, (2, 1, 4, 3, 5, 6, 7))


def test_symmetrized_structure():
    for kind, length, h, _ in CATALOG_CASES:
        _, d = interaction_matrix(
            h, gadget_catalog(identity_witness(kind, length)).pairs)
        gg = build_symmetrized(h, identity_witness(kind, length))[1]
        assert gg.matrix[0][0] == gg.matrix[1][1]
        assert gg.matrix[0][1] == gg.matrix[1][0]
        assert det2(gg.matrix) < 0
        assert det2(gg.matrix) == (d[0][0] * d[1][1] + d[0][1] * d[1][0]) * det2(d)
        # parallel composition: every vertex has degree exactly 2
        assert all(len(ns) == 2 for ns in gg.instance().g.neighbours)


def test_catalog_literal_gadgets():
    claw = gadget_catalog(identity_witness("Claw"))
    assert claw.pairs == ((1, 2), (4, 2), (3, 4), (4, 1), (2, 1))
    net = gadget_catalog(identity_witness("Net"))
    assert net.pairs == ((1, 2), (4, 6), (3, 2), (3, 1), (4, 5), (2, 1))
    odd5 = gadget_catalog(identity_witness("CycleNe4", 5))
    assert odd5.pairs == (
        (1, 2), (2, 3), (1, 4), (2, 5), (1, 4), (2, 3), (1, 2), (2, 1))
    even6 = gadget_catalog(identity_witness("CycleNe4", 6))
    assert even6.pairs == ((1, 3), (2, 4), (1, 5), (2, 6), (3, 1))
    assert even6.terminals == (1, 3) and even6.pendants == (6, 4)
    refl5 = gadget_catalog(identity_witness("CycleGe4", 5))
    assert refl5.pairs == ((1, 2), (1, 3), (1, 4), (1, 5), (2, 1))
    assert refl5.pendants == (5, 3)


# --- condition for thickening ---

def test_check_condH_examples():
    assert check_condH(patterns.X2, 1, 2) == (5, 7)
    assert check_condH(patterns.S3, 1, 2) == (4, 6)
    assert check_condH(patterns.cycle(3), 1, 2) == (2, 1)
    # the complete reflexive graph separates nothing
    assert check_condH(patterns.complete(3, reflexive=True), 1, 2) is None


def test_check_condH_matches_catalog_pairs():
    for kind, length, h, _ in CATALOG_CASES:
        entry = gadget_catalog(identity_witness(kind, length))
        assert check_condH(h, *entry.terminals) == entry.pendants


# --- thickening ---

def test_thicken_structure_and_matrix():
    entry = gadget_catalog(identity_witness("X3"))
    _, gg = build_symmetrized(patterns.X3, identity_witness("X3"))
    g0 = thicken(patterns.X3, gg, entry.pendants, 0)
    assert g0.lists[g0.terminal1 - 1] == frozenset({5, 7})
    assert g0.matrix == ((9, 10), (10, 9))
    assert interaction_matrix_bruteforce(patterns.X3, g0) == g0.matrix
    g1 = thicken(patterns.X3, gg, entry.pendants, 1)
    assert g1.matrix == ((81, 100), (100, 81))
    assert g1.lists[g1.terminal1 - 1] == frozenset({1, 2})
    assert interaction_matrix_bruteforce(patterns.X3, g1) == g1.matrix
    assert len(g1.instance().g.neighbours[g1.terminal1 - 1]) == 1


def test_thicken_rejects_bad_input():
    entry = gadget_catalog(identity_witness("X3"))
    _, gg = build_symmetrized(patterns.X3, identity_witness("X3"))
    with pytest.raises(ValueError):
        thicken(patterns.X3, gg, entry.pendants, -1)
    with pytest.raises(ValueError):
        thicken(patterns.X3, gg, entry.pendants, 9)  # above the size cap
    with pytest.raises(ValueError):
        thicken(patterns.X3, gg, (3, 4), 0)  # pair fails the split condition


def _guards():
    """(call, message) for guards that no other test reaches: each call must
    raise ValueError with exactly that message."""
    entry = gadget_catalog(identity_witness("X3"))
    _, gg = build_symmetrized(patterns.X3, identity_witness("X3"))
    r, s = gg.terminal_colours
    other = next(c for c in patterns.X3.colours if c not in (r, s))
    k2 = InstanceGraph.from_edges(2, [(1, 2)])
    return [
        (lambda: replace(gg, terminal_colours=(r, r)), "terminal colours must differ"),
        (lambda: replace(gg, terminal2=gg.terminal1), "terminals must be distinct vertices"),
        (lambda: replace(gg, terminal_colours=(r, other)),
         "terminal lists must equal the terminal colour pair"),
        (lambda: thicken(patterns.X3, replace(gg, matrix=((0, 1), (1, 0))), entry.pendants, 0),
         "thickening needs a strictly positive interaction matrix"),
        (lambda: reduce_ising_to_listhcol(k2, replace(gg, matrix=((10, 9), (9, 10)))),
         "edge replacement needs 0 < diagonal < off-diagonal"),
        (lambda: reduce_ising_to_listhcol(k2, replace(gg, matrix=((9, 9), (9, 9)))),
         "edge replacement needs 0 < diagonal < off-diagonal"),
        (lambda: ImplicationFormula(-1, ()), "variable count must be non-negative"),
        (lambda: ImplicationFormula(1, (("p",),)), "malformed unit clause ('p',)"),
        (lambda: ImplicationFormula(1, (("i", 1),)), "malformed implication ('i', 1)"),
        (lambda: patterns.cycle(2), "cycles need at least 3 vertices"),
        (lambda: patterns.path(0), "paths need at least 1 vertex"),
    ]


def test_guards_raise_their_messages():
    for call, message in _guards():
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


# --- edge replacement ---

def test_reduce_ising_examples():
    _, gg = build_symmetrized(patterns.X3, identity_witness("X3"))
    k2 = InstanceGraph.from_edges(2, [(1, 2)])
    inst, lam, scale = reduce_ising_to_listhcol(k2, gg)
    assert (lam, scale) == (Fraction(9, 10), 10)
    count = count_list_hcol(patterns.X3, inst)
    assert count == 38
    assert count == scale * ising_partition(k2, lam)

    lone = InstanceGraph.from_edges(1, [])
    inst, lam, scale = reduce_ising_to_listhcol(lone, gg)
    assert scale == 1 and count_list_hcol(patterns.X3, inst) == 2

    twopath = InstanceGraph.from_edges(3, [(1, 2), (2, 3)])
    inst, lam, scale = reduce_ising_to_listhcol(twopath, gg)
    assert scale == 100
    assert count_list_hcol(patterns.X3, inst) == scale * ising_partition(twopath, lam)


def test_reduce_ising_identity_against_spin_enumeration():
    # seeded: each fixed-shape catalogue witness thickened at t = 0..2, on
    # random graphs of 2-8 vertices.  The engine's count of the instance
    # equals scale times the partition function by summing over every spin
    # map (helpers.ising_direct, which shares no code with the engine)
    rng = random.Random(47)
    seen = {"disconnected g": 0, "edgeless g": 0, "instance over 300 vertices": 0}
    for kind, length, h, _ in CATALOG_CASES:
        if length is not None:
            continue
        entry = gadget_catalog(identity_witness(kind))
        _, gg = build_symmetrized(h, identity_witness(kind))
        for t in range(3):
            thick = thicken(h, gg, entry.pendants, t)
            for _ in range(12):
                m = rng.randint(2, 8)
                p = rng.choice((0.2, 0.4, 0.7))
                g = InstanceGraph.from_edges(m, [
                    (u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)
                    if rng.random() < p])
                inst, lam, scale = reduce_ising_to_listhcol(g, thick)
                assert count_list_hcol(h, inst) == scale * ising_direct(g, lam), (kind, t, g)
                seen["disconnected g"] += len(instance_components(g)) > 1
                seen["edgeless g"] += not g.edges
                seen["instance over 300 vertices"] += inst.g.m > 300
    assert min(seen.values()) >= 3, seen


def test_composed_gadget_numbering_is_pinned():
    # the mirrored track's interior follows g's own track (vertices 6..8);
    # level 0 adds pendants 9 and 10; each edge's copy follows the instance
    entry, gg = build_symmetrized(patterns.X3, identity_witness("X3"))
    assert gg.edges == ((1, 2), (1, 6), (2, 3), (3, 4), (4, 5), (5, 8), (6, 7), (7, 8))
    assert gg.lists == tuple(frozenset(p) for p in (
        (1, 2), (4, 7), (3, 6), (4, 5), (1, 2), (4, 5), (3, 6), (4, 7)))
    thick = thicken(patterns.X3, gg, entry.pendants, 0)
    twopath = InstanceGraph.from_edges(3, [(1, 2), (2, 3)])
    inst, lam, scale = reduce_ising_to_listhcol(twopath, thick)
    assert (lam, scale) == (Fraction(9, 10), 100)
    assert serialise_instance(inst) == (
        "g 19\n"
        "e 1 4\ne 2 8\ne 2 12\ne 3 16\ne 4 5\ne 4 9\ne 5 6\ne 6 7\ne 7 8\n"
        "e 8 11\ne 9 10\ne 10 11\ne 12 13\ne 12 17\ne 13 14\ne 14 15\n"
        "e 15 16\ne 16 19\ne 17 18\ne 18 19\n"
        "l 1 5 7\nl 2 5 7\nl 3 5 7\nl 4 1 2\nl 5 4 7\nl 6 3 6\nl 7 4 5\n"
        "l 8 1 2\nl 9 4 5\nl 10 3 6\nl 11 4 7\nl 12 1 2\nl 13 4 7\n"
        "l 14 3 6\nl 15 4 5\nl 16 1 2\nl 17 4 5\nl 18 3 6\nl 19 4 7\n"
    )


def test_reduce_ising_rejects_asymmetric_gadget():
    gg = path_gadget_graph(patterns.X3, X3_GADGET)  # D itself is asymmetric
    with pytest.raises(ValueError):
        reduce_ising_to_listhcol(InstanceGraph.from_edges(2, [(1, 2)]), gg)


def test_reduce_ising_degree_contract():
    rng = random.Random(31)
    entry = gadget_catalog(identity_witness("X3"))
    _, gg = build_symmetrized(patterns.X3, identity_witness("X3"))
    thick = thicken(patterns.X3, gg, entry.pendants, 1)
    for _ in range(10):
        g = InstanceGraph.from_edges(
            5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)
                if rng.random() < 0.5])
        inst, _, _ = reduce_ising_to_listhcol(g, thick)
        assert max_degree(inst.g) <= max(max_degree(g), 3)


def test_gadget_catalog_rejects_square():
    with pytest.raises(ValueError):
        gadget_catalog(ExcludedWitness("CycleNe4", 4, (1, 2, 3, 4)))


def test_catalog_in_embedded_labels():
    # claw hiding inside a bigger reflexive target
    host = patterns.star(3, reflexive=True)
    base = list(host.edge_list())
    from listhom.graphs import ColourGraph
    host2 = ColourGraph.from_edges(5, base + [(5, 5), (5, 1)])
    from listhom.recognizer import find_excluded_pi
    w = find_excluded_pi(host2)
    assert w is not None and w.kind == "Claw"
    entry = gadget_catalog(w)
    dprime, d = interaction_matrix(host2, entry.pairs)
    assert dprime == entry.dprime == ((2, 3), (3, 5))
    _, gg = build_symmetrized(host2, w)
    assert interaction_matrix_bruteforce(host2, gg) == gg.matrix
