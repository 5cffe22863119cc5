import itertools
import random
from collections import Counter

import pytest

from helpers import (
    decode_assignment,
    dense,
    encode_colouring,
    enumerate_list_colourings,
    fits,
    random_lists,
    satisfies,
    staircase,
)
from listhom import patterns
from listhom.graphs import ColourGraph, Instance, InstanceGraph, replace
from listhom.oracles import count_1p1n, count_list_hcol
from listhom.recognizer import (
    StaircaseForm,
    find_staircase_adjacency,
    find_staircase_biadjacency,
)
from listhom.reductions import (
    build_staircase_encoding,
    reduce_listhcol_to_1p1n,
    reduce_p4_to_p3star,
)

K2 = InstanceGraph.from_edges(2, [(1, 2)])

# 6-vertex bipartite permutation target with a strict staircase biadjacency
H6 = ColourGraph.from_edges(6, [(1, 4), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6)])


def encoding_for(h):
    form = find_staircase_biadjacency(h)
    if form is None:
        form = find_staircase_adjacency(h)
    assert form is not None
    return build_staircase_encoding(h, form)


# --- encoding assembly ---

def test_encoding_p4_block_matrix():
    enc = encoding_for(patterns.P4)
    assert enc.mode == "bipartite" and enc.q == 4
    assert enc.r_order == (1, 3, 2, 4)
    assert enc.c_order == (2, 4, 1, 3)
    assert dense(patterns.P4, enc.r_order, enc.c_order) == (
        (1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1))


def test_encoding_reflexive_path():
    enc = encoding_for(patterns.P3_STAR)
    assert enc.mode == "reflexive" and enc.q == 3
    assert enc.r_order == enc.c_order == (1, 2, 3)
    assert enc.alpha == (1, 1, 2) and enc.beta == (2, 3, 3)


def test_encoding_single_edge():
    enc = encoding_for(patterns.path(2))
    assert enc.q == 2
    assert dense(patterns.path(2), enc.r_order, enc.c_order) == ((1, 0), (0, 1))
    assert enc.alpha == (1, 2) and enc.beta == (1, 2)


def test_encoding_rejects_non_certifying_form():
    fake = StaircaseForm("adjacency", (1, 2, 3), (1, 2, 3), (1, 1, 2), (2, 3, 3))
    with pytest.raises(ValueError):
        build_staircase_encoding(patterns.CLAW, fake)


def test_encoding_rejects_forms_that_fit_the_target_but_do_not_certify_it():
    # the orders are the right shape for h, so only the matrix scan can
    # reject these
    for h in (patterns.path(12), patterns.P3_STAR, H6):
        form = find_staircase_biadjacency(h) or find_staircase_adjacency(h)
        rows = form.row_order
        swapped = rows[1:2] + rows[:1] + rows[2:]
        bad = [
            replace(form, alpha=(None,) + form.alpha[1:]),
            replace(form, beta=form.beta[:-1] + (form.beta[-1] + 1,)),
        ]
        if form.kind == "biadjacency":
            bad.append(replace(form, row_order=swapped))
        else:
            bad.append(replace(form, row_order=swapped, col_order=swapped))
        for fake in bad:
            assert fits(h, fake) and not fake.certifies(h)
            with pytest.raises(ValueError, match="does not certify"):
                build_staircase_encoding(h, fake)


def test_biadjacency_form_with_a_non_staircase_transpose_does_not_certify():
    # B = [[1], [0], [1]] is staircase, but its transpose [1 0 1] has a gap,
    # so the block matrix [[B, 0], [0, B^T]] is not
    h = ColourGraph.from_edges(4, [(1, 4), (3, 4)])
    form = StaircaseForm("biadjacency", (1, 2, 3), (4,), (1, None, 1), (1, None, 1))
    assert fits(h, form) and not form.certifies(h)
    with pytest.raises(ValueError, match="does not certify"):
        build_staircase_encoding(h, form)


def test_biadjacency_certifies_exactly_when_encodable():
    """Every row and column arrangement of small bipartite targets whose
    biadjacency matrix is staircase: certifies agrees with the encoder."""
    rng = random.Random(1010)
    checked = certified = 0
    for _ in range(120):
        n = rng.randint(2, 7)
        rows = [v for v in range(1, n + 1) if rng.random() < 0.5] or [1]
        cols = [v for v in range(1, n + 1) if v not in rows]
        if not cols:
            continue
        p = rng.random()
        edges = [(r, c) for r in rows for c in cols if rng.random() < p]
        h = ColourGraph.from_edges(n, edges)
        for r_order in itertools.permutations(rows):
            for c_order in itertools.permutations(cols):
                bounds = staircase(dense(h, r_order, c_order))
                if bounds is None:
                    continue
                form = StaircaseForm("biadjacency", r_order, c_order, *bounds)
                try:
                    build_staircase_encoding(h, form)
                    encoded = True
                except ValueError:
                    encoded = False
                assert form.certifies(h) == encoded, (edges, form)
                checked += 1
                certified += encoded
    assert checked > 1000 and 0 < certified < checked


def _whole(form):
    """The row and column orders of the matrix a form arranges all colours
    into: [[B, 0], [0, B^T]] for a biadjacency form, its own orders for an
    adjacency form."""
    if form.kind == "biadjacency":
        return form.row_order + form.col_order, form.col_order + form.row_order
    return form.row_order, form.col_order


def _form_with_fault(rng, h, fault):
    """A form for h from the finders or from random orders, with one fault
    of the given kind in its kind or orders, and with the bounds of the
    matrix it arranges when that matrix is staircase, else random ones.
    The fault is "none" when h is too small for the one asked for."""
    form = find_staircase_biadjacency(h) or find_staircase_adjacency(h)
    if form is None or rng.random() < 0.3:
        colours = rng.sample(list(h.colours), h.n)
        kind = rng.choice(("biadjacency", "adjacency"))
        cut = rng.randint(0, h.n) if kind == "biadjacency" else h.n
        rows = tuple(colours[:cut])
        cols = tuple(colours[cut:]) if kind == "biadjacency" else rows
        form = StaircaseForm(kind, rows, cols, (), ())
    rows, cols = list(form.row_order), list(form.col_order)
    side = rows if rows and (not cols or rng.random() < 0.5) else cols
    i = rng.randrange(len(side))
    others = [c for c in rows + cols if c != side[i]]
    if fault == "swap" and i + 1 < len(side):
        side[i], side[i + 1] = side[i + 1], side[i]
        if form.kind == "adjacency":
            rows = cols = side
    elif fault == "drop":
        side.pop(i)
    elif fault == "repeat" and others:
        side[i] = rng.choice(others)
    elif fault == "move":
        (cols if side is rows else rows).append(side.pop(i))
    elif fault == "kind":
        form = replace(form, kind=rng.choice(
            [k for k in ("biadjacency", "adjacency", "staircase") if k != form.kind]))
    else:
        fault = "none"
    form = replace(form, row_order=tuple(rows), col_order=tuple(cols))
    bounds = staircase(dense(h, *_whole(form))) if fits(h, form) else None
    if bounds is None:
        values = [None, *h.colours]
        bounds = [tuple(rng.choice(values) for _ in rows) for _ in "ab"]
    top = len(rows)
    return replace(form, alpha=bounds[0][:top], beta=bounds[1][:top]), fault


def _off_by_one(rng, form):
    """The form with one of its bounds moved by one, or set to None, or
    with a None bound set to 1."""
    which = rng.choice(("alpha", "beta"))
    values = list(getattr(form, which))
    i = rng.randrange(len(values))
    values[i] = 1 if values[i] is None else rng.choice((values[i] - 1, values[i] + 1, None))
    return replace(form, **{which: tuple(values)})


def test_certifies_is_the_arrangement_definition():
    """Seeded forms over random targets of 1-8 colours with no, all or some
    loops, from the finders or from random orders, with wrong kinds,
    missing or repeated colours, colours on the wrong side and bounds off
    by one.  certifies holds exactly when the orders fit h and the dense
    staircase check of the whole arrangement gives the form's bounds on
    its top rows; the encoder raises exactly when certifies is False, and
    otherwise returns that arrangement."""
    rng = random.Random(1818)
    faults = ("none", "swap", "drop", "repeat", "move", "kind")
    seen = Counter()
    for trial in range(4800):
        n = rng.randint(1, 8)
        p = rng.choice((0.2, 0.4, 0.7))
        if trial % 6 == 0:
            # bipartite, so the biadjacency finder has a chance
            left = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
            edges = [(u, v) for u in left for v in range(1, n + 1)
                     if v not in left and rng.random() < p]
        else:
            edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                     if rng.random() < p]
        loops = (0.0, 1.0, 0.5)[trial % 3]
        edges += [(v, v) for v in range(1, n + 1) if rng.random() < loops]
        h = ColourGraph.from_edges(n, edges)
        form, fault = _form_with_fault(rng, h, faults[trial % len(faults)])
        if form.alpha and rng.random() < 0.3:
            form, fault = _off_by_one(rng, form), fault + "+bounds"
        fit = fits(h, form)
        whole = staircase(dense(h, *_whole(form))) if fit else None
        top = len(form.row_order)
        certified = form.certifies(h)
        assert certified == (
            whole is not None and (whole[0][:top], whole[1][:top]) == (form.alpha, form.beta)
        ), (h.edge_list(), form)
        try:
            enc = build_staircase_encoding(h, form)
        except ValueError as err:
            assert not certified and str(err) == "staircase form does not certify this target"
        else:
            assert certified, (h.edge_list(), form)
            assert (enc.mode, enc.q) == (
                "bipartite" if form.kind == "biadjacency" else "reflexive", h.n)
            assert (enc.r_order, enc.c_order, enc.alpha, enc.beta) == (*_whole(form), *whole)
        seen[fault, fit, certified] += 1
    assert sum(seen.values()) >= 4000
    assert sum(c for (_, _, ok), c in seen.items() if ok) >= 600, seen
    assert sum(c for (_, _, ok), c in seen.items() if not ok) >= 600, seen
    # forms whose orders fit h but whose matrix scan rejects them
    assert sum(c for (_, fit, ok), c in seen.items() if fit and not ok) >= 300, seen
    assert not any(ok for (fault, _, ok) in seen if fault.endswith("+bounds")), seen
    for fault in faults:
        assert sum(c for (f, _, _), c in seen.items() if f.startswith(fault)) >= 300, seen


def test_encoding_scans_one_matrix(monkeypatch):
    import listhom.recognizer

    h = patterns.path(12)
    scanned = []
    real = listhom.recognizer.staircase_bounds

    def counted(h, rows, cols):
        rows = list(rows)
        scanned.append(len(rows))
        return real(h, rows, cols)

    # every staircase check of a target runs this row check
    monkeypatch.setattr(listhom.recognizer, "staircase_bounds", counted)
    form = find_staircase_biadjacency(h)
    assert scanned == [12]  # built from the 12 x 12 block matrix, not B and B^T
    enc = build_staircase_encoding(h, form)
    assert scanned == [12, 12]  # the 12 x 12 block matrix, not also the 6 x 6 form
    assert (enc.alpha[:6], enc.beta[:6]) == (form.alpha, form.beta)


# --- the formula compiler ---

def test_formula_spot_counts():
    enc3 = encoding_for(patterns.P3_STAR)
    inst = Instance.with_full_lists(K2, 3)
    formula, _ = reduce_listhcol_to_1p1n(enc3, inst)
    assert count_1p1n(formula) == 7

    enc4 = encoding_for(patterns.P4)
    inst = Instance.with_full_lists(K2, 4)
    formula, _ = reduce_listhcol_to_1p1n(enc4, inst)
    assert count_1p1n(formula) == 6

    lone = InstanceGraph.from_edges(1, [])
    formula, _ = reduce_listhcol_to_1p1n(enc3, Instance.with_full_lists(lone, 3))
    assert count_1p1n(formula) == 3


def test_formula_clause_counts():
    enc = encoding_for(patterns.P3_STAR)
    q = enc.q
    inst = Instance(K2, (frozenset({1, 2}), frozenset({3})), 3)
    formula, _ = reduce_listhcol_to_1p1n(enc, inst)
    forbidden = sum(3 - len(s) for s in inst.lists)
    assert len(formula.clauses) == (q + 2) * 2 + 2 * q * 1 + forbidden

    enc4 = encoding_for(patterns.P4)
    g = InstanceGraph.from_edges(3, [(1, 2), (2, 3)])
    inst = Instance(g, (frozenset({1}), frozenset({2, 4}), frozenset({1, 3})), 4)
    formula, _ = reduce_listhcol_to_1p1n(enc4, inst)
    forbidden = sum(4 - len(s) for s in inst.lists)
    assert len(formula.clauses) == (enc4.q + 2) * 3 + 2 * enc4.q * 2 + forbidden


def test_formula_nonbipartite_instance_is_unsatisfiable():
    enc = encoding_for(patterns.P4)
    tri = InstanceGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    formula, _ = reduce_listhcol_to_1p1n(enc, Instance.with_full_lists(tri, 4))
    assert count_1p1n(formula) == 0


def test_formula_arity_mismatch():
    enc = encoding_for(patterns.P3_STAR)
    with pytest.raises(ValueError):
        reduce_listhcol_to_1p1n(enc, Instance.with_full_lists(K2, 4))


def _random_cross_check(h, seed, trials=25):
    rng = random.Random(seed)
    enc = encoding_for(h)
    for _ in range(trials):
        m = rng.randint(1, 7)
        edges = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)
                 if rng.random() < 0.4]
        g = InstanceGraph.from_edges(m, edges)
        inst = Instance(g, random_lists(rng, m, h.n, 0.65), h.n)
        formula, _ = reduce_listhcol_to_1p1n(enc, inst)
        assert count_1p1n(formula) == count_list_hcol(h, inst)


def test_formula_counts_match_oracle():
    _random_cross_check(patterns.P4, 41)
    _random_cross_check(patterns.P3_STAR, 42)
    _random_cross_check(H6, 43, trials=15)
    _random_cross_check(patterns.path(4, reflexive=True), 44, trials=15)
    # P4 and the isolated colour 5, which the staircase order puts first
    # among the rows: its row has no neighbour (alpha None)
    _random_cross_check(ColourGraph.from_edges(5, [(1, 2), (2, 3), (3, 4)]), 45)


# --- decoding ---

def test_decode_examples():
    enc = encoding_for(patterns.P3_STAR)
    lone = InstanceGraph.from_edges(1, [])
    _, sides = reduce_listhcol_to_1p1n(enc, Instance.with_full_lists(lone, 3))
    assert decode_assignment(enc, sides, (1, 0, 0, 0)) == (1,)
    assert decode_assignment(enc, sides, (1, 1, 0, 0)) == (2,)
    with pytest.raises(ValueError):
        decode_assignment(enc, sides, (1, 1, 1, 1))  # end of chain must be 0
    with pytest.raises(ValueError):
        decode_assignment(enc, sides, (1, 0, 1, 0))  # not monotone


def test_decode_bijection_small():
    # enumerate every satisfying assignment and decode it; the set of decoded
    # colourings must be exactly the valid colourings, each hit once
    h = patterns.P4
    enc = encoding_for(h)
    g = InstanceGraph.from_edges(3, [(1, 2), (2, 3)])
    inst = Instance(g, (frozenset({1, 2}), frozenset({2, 4}), frozenset({1, 3})), 4)
    formula, sides = reduce_listhcol_to_1p1n(enc, inst)
    decoded = [decode_assignment(enc, sides, bits)
               for bits in itertools.product((0, 1), repeat=formula.var_count)
               if satisfies(formula.clauses, bits)]
    valid = enumerate_list_colourings(h, inst)
    assert sorted(decoded) == sorted(valid)
    assert len(set(decoded)) == len(decoded)


def test_encode_decode_round_trip():
    rng = random.Random(45)
    for h in (patterns.P4, patterns.P3_STAR, H6):
        enc = encoding_for(h)
        for _ in range(10):
            m = rng.randint(1, 5)
            edges = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)
                     if rng.random() < 0.4]
            g = InstanceGraph.from_edges(m, edges)
            inst = Instance(g, random_lists(rng, m, h.n, 0.7), h.n)
            _, sides = reduce_listhcol_to_1p1n(enc, inst)
            for colouring in itertools.islice(
                    enumerate_list_colourings(h, inst), 10):
                bits = encode_colouring(enc, sides, colouring)
                assert decode_assignment(enc, sides, bits) == tuple(colouring)


# --- 4-path to looped-3-path ---

def test_p4_reduction_examples():
    inst, mult = reduce_p4_to_p3star(K2)
    assert mult == 2
    assert count_list_hcol(patterns.P3_STAR, inst) == 3
    assert count_list_hcol(patterns.P4, Instance.with_full_lists(K2, 4)) == 6

    lone = InstanceGraph.from_edges(1, [])
    inst, mult = reduce_p4_to_p3star(lone)
    assert mult == 2 and count_list_hcol(patterns.P3_STAR, inst) == 2

    pair = InstanceGraph.from_edges(4, [(1, 2), (3, 4)])
    inst, mult = reduce_p4_to_p3star(pair)
    assert mult == 4
    assert mult * count_list_hcol(patterns.P3_STAR, inst) == 36


def test_p4_reduction_non_bipartite():
    tri = InstanceGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    inst, mult = reduce_p4_to_p3star(tri)
    assert mult == 1 and count_list_hcol(patterns.P3_STAR, inst) == 0
    assert count_list_hcol(patterns.P4, Instance.with_full_lists(tri, 4)) == 0
