"""Seeded inputs, op lists and reference answers for the three workloads.

A workload is a list of blocks.  A block holds one op of every slot of the
workload, so any whole number of blocks has the same op mix; the runner
stops only at a block boundary.  Each op is one or two CLI invocations
(argv lists relative to the work directory) plus the data its check needs.
Everything here depends only on the seed; nothing imports listhom.
"""

from __future__ import annotations

import random
from fractions import Fraction

from reference import (
    PATTERNS,
    Target,
    colouring_weight,
    cycle_edges,
    ising_value,
    reflexive,
    tree_count,
    weighted_sum,
)

BLOCKS = 40  # generated per run; the runner cycles if a run outlasts them


def _relabel(rng, t: Target) -> Target:
    perm = list(range(1, t.n + 1))
    rng.shuffle(perm)
    return t.relabel(perm)


# ---------------------------------------------------------------------------
# classify: targets of known class, 8 to 14 colours


def irr_path(rng, n):
    return Target.from_edges(n, [(v, v + 1) for v in range(1, n)]), "bis_equivalent"


def refl_path(rng, n):
    return reflexive(n, [(v, v + 1) for v in range(1, n)]), "bis_equivalent"


def staircase_bigraph(rng, n):
    """Rows 1..a against columns a+1..n, each row a column interval with
    non-decreasing ends; consecutive intervals overlap (connected) and the
    first stops short of the last column (not complete bipartite)."""
    a = rng.randint(2, n - 2)
    b = n - a
    lo, hi = [1], [rng.randint(1, b - 1)]
    for _ in range(1, a):
        left = rng.randint(lo[-1], hi[-1])
        lo.append(left)
        hi.append(rng.randint(max(hi[-1], left), b))
    hi[-1] = b
    edges = [(i + 1, a + c) for i in range(a) for c in range(lo[i], hi[i] + 1)]
    return Target.from_edges(n, edges), "bis_equivalent"


def unit_interval(rng, n):
    """Reflexive indifference graph: v ~ w (v < w) iff w <= reach[v], with
    reach non-decreasing, past v (connected) and short of n at v = 1."""
    reach = []
    for v in range(1, n):
        low = max(reach[-1] if reach else 2, v + 1)
        reach.append(rng.randint(low, n - 1 if v == 1 else n))
    edges = [(v, w) for v in range(1, n) for w in range(v + 1, reach[v - 1] + 1)]
    return reflexive(n, edges), "bis_equivalent"


def even_cycle(rng, n):
    return Target.from_edges(n, cycle_edges(n)), "sat_equivalent"


def refl_cycle(rng, n):
    return reflexive(n, cycle_edges(n)), "sat_equivalent"


def with_pendants(kind: str):
    """The pattern plus a random pendant tree grown on it: each new colour
    hangs off one earlier colour, so the pattern stays induced."""
    def make(rng, n):
        pat = PATTERNS[kind]
        edges = pat.edges()
        for v in range(pat.n + 1, n + 1):
            edges.append((rng.randint(1, v - 1), v))
            if pat.loop(1):
                edges.append((v, v))
        return Target.from_edges(n, edges), "sat_equivalent"
    make.__name__ = kind.lower() + "_pendants"
    return make


def complete_reflexive(rng, n):
    return reflexive(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]), "polytime"


def complete_bipartite(rng, n):
    a = rng.randint(1, n - 1)
    return Target.from_edges(n, [(u, v) for u in range(1, a + 1) for v in range(a + 1, n + 1)]), "polytime"


def mixed_loops(rng, n):
    """A random tree plus a few chords, with some but not all colours looped."""
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    for _ in range(n // 3):
        u, v = rng.sample(range(1, n + 1), 2)
        edges.append((min(u, v), max(u, v)))
    looped = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
    return Target.from_edges(n, edges + [(v, v) for v in looped]), "sat_equivalent"


_UNION_PARTS = (
    (irr_path, 5), (refl_path, 4), (even_cycle, 6), (refl_cycle, 4),
    (complete_reflexive, 3), (complete_bipartite, 4), (staircase_bigraph, 5),
)


def disjoint_union(rng, n):
    """Two or three small parts of mixed classes side by side, at most n
    colours in all."""
    parts = rng.sample(_UNION_PARTS, 3)
    if sum(size for _, size in parts) > n:
        parts = parts[:2]
    edges, classes, base = [], [], 0
    for make, size in parts:
        part, klass = make(rng, size)
        edges += [(u + base, v + base) for u, v in part.edges()]
        classes.append((range(base + 1, base + size + 1), klass))
        base += size
    return Target.from_edges(base, edges), classes


# One op per slot per block: (generator, colour count).  The slots fall in
# three cost bands, and their counts put the median inside the cheap band
# and p90 inside the top one, so that neither quantile sits on the edge
# between two bands (where it would jump with the seed):
#   cheap (20 of 35): easy classes, irreflexive obstructions, short paths;
#   mid (10): reflexive staircase searches and proper-interval obstructions;
#   top (5): failing staircase searches on reflexive 9-cycles and even
#   14-cycles.
CLASSIFY_SLOTS = (
    (irr_path, 10), (irr_path, 12), (irr_path, 13),
    (staircase_bigraph, 10), (staircase_bigraph, 12), (staircase_bigraph, 14),
    (complete_reflexive, 8), (complete_reflexive, 14),
    (complete_bipartite, 8), (complete_bipartite, 14),
    (mixed_loops, 8), (mixed_loops, 14), (disjoint_union, 14), (disjoint_union, 14),
    (with_pendants("X3"), 9), (with_pendants("X3"), 11), (with_pendants("X2"), 9),
    (with_pendants("X2"), 11), (with_pendants("T2"), 9), (with_pendants("T2"), 11),
    (refl_path, 8), (refl_path, 9), (unit_interval, 8), (irr_path, 14),
    (even_cycle, 10), (even_cycle, 12), (refl_cycle, 8),
    (with_pendants("Claw"), 8), (with_pendants("Net"), 8), (with_pendants("S3"), 8),
    (refl_cycle, 9), (refl_cycle, 9), (refl_cycle, 9), (even_cycle, 14), (even_cycle, 14),
)


def classify_blocks(rng, files):
    blocks = []
    for _ in range(BLOCKS):
        block = []
        for make, n in CLASSIFY_SLOTS:
            target, klass = make(rng, n)
            perm = list(range(1, target.n + 1))
            rng.shuffle(perm)
            target = target.relabel(perm)
            parts = klass if isinstance(klass, list) else [(range(1, target.n + 1), klass)]
            expected = [[sorted(perm[v - 1] for v in verts), k] for verts, k in parts]
            name = files.write("h", target.text())
            block.append({
                "slot": make.__name__,
                "steps": [["classify", name, "--json"]],
                "check": {"type": "classify", "n": target.n, "edges": target.edges(),
                          "expected": expected},
            })
        blocks.append(block)
    return blocks


# ---------------------------------------------------------------------------
# count: structured instances over four small targets

COUNT_TARGETS = {
    "k2prime": Target.from_edges(2, [(1, 2), (2, 2)]),
    "p3star": reflexive(3, [(1, 2), (2, 3)]),
    "p4": Target.from_edges(4, [(1, 2), (2, 3), (3, 4)]),
    "wrench": Target.from_edges(4, [(1, 2), (2, 3), (2, 4), (2, 2), (3, 3), (4, 4)]),
}


def grid(w: int, k: int):
    """w x k grid (w = 1 a path, w = 2 a ladder) numbered column by column;
    that numbering keeps the DP frontier at w + 1."""
    at = lambda r, c: c * w + r + 1  # noqa: E731
    edges = [(at(r, c), at(r + 1, c)) for c in range(k) for r in range(w - 1)]
    edges += [(at(r, c), at(r, c + 1)) for c in range(k - 1) for r in range(w)]
    return w * k, edges


def cycle_graph(m: int):
    return m, cycle_edges(m)


def random_tree(rng, m: int):
    return m, [(rng.randint(1, v - 1), v) for v in range(2, m + 1)]


def random_lists(rng, m: int, n: int, restrict: float):
    """Full lists, except that each vertex loses one random colour with
    probability `restrict`."""
    out = []
    for _ in range(m):
        cols = list(range(1, n + 1))
        if rng.random() < restrict:
            cols.remove(rng.randint(1, n))
        out.append(cols)
    return out


def _shuffled_instance(rng, m, edges, lists):
    """Relabel the vertices; returns (edges, lists, order) where order is
    the DP order (the original numbering) in new labels."""
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    new_edges = [(perm[u - 1], perm[v - 1]) for u, v in edges]
    new_lists = [None] * m
    for v in range(1, m + 1):
        new_lists[perm[v - 1] - 1] = lists[v - 1]
    return new_edges, new_lists, perm


def instance_text(m, edges, lists, n) -> str:
    lines = [f"g {m}"] + [f"e {u} {v}" for u, v in edges]
    lines += [" ".join(["l", str(v)] + [str(c) for c in cols])
              for v, cols in enumerate(lists, start=1) if len(cols) < n]
    return "\n".join(lines) + "\n"


def graph_text(m, edges) -> str:
    return "\n".join([f"g {m}"] + [f"e {u} {v}" for u, v in edges]) + "\n"


def _shape(rng, shape):
    kind, size = shape
    if kind == "tree":
        return random_tree(rng, size)
    if kind == "cycle":
        return cycle_graph(size)
    return grid(*size)


def _count_op(rng, target_name, shape, restrict):
    """A relabelled instance with random lists and its colouring count."""
    h = COUNT_TARGETS[target_name]
    m, edges = _shape(rng, shape)
    lists = random_lists(rng, m, h.n, restrict)
    edges, lists, order = _shuffled_instance(rng, m, edges, lists)
    weight = colouring_weight(h)
    if shape[0] == "tree":
        return m, edges, lists, tree_count(lists, edges, weight)
    return m, edges, lists, weighted_sum(lists, edges, weight, order)


SHORT_CHAIN = (100, 300)   # variables; these succeed
LONG_CHAIN = (1200, 1500)  # RecursionError in count_1p1n at the seed commit
LAMBDAS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(9, 10))

# The ops of one block.  Shapes are ("grid", (w, k)), ("cycle", m) or
# ("tree", m); `restrict` is the chance that a vertex list loses a colour.
# As in classify, the band sizes place the median well inside the cheap
# band and p90 inside the top one (the costliest ops that succeed).  One
# long chain per block fails at the seed commit.
_COUNT_CHEAP = (
    ("count", "k2prime", ("grid", (1, 24)), 0.25), ("count", "k2prime", ("grid", (1, 30)), 0.25),
    ("count", "k2prime", ("cycle", 24), 0.25), ("count", "k2prime", ("tree", 60), 0.25),
    ("count", "k2prime", ("grid", (4, 5)), 0.25),
    ("count", "p3star", ("grid", (1, 14)), 0.25), ("count", "p3star", ("grid", (1, 16)), 0.1),
    ("count", "p3star", ("cycle", 14), 0.25),
    ("count", "wrench", ("grid", (1, 10)), 0.25), ("count", "wrench", ("grid", (1, 12)), 0.1),
    ("count", "wrench", ("grid", (3, 3)), 0.25), ("count", "wrench", ("cycle", 10), 0.25),
    ("count", "wrench", ("tree", 20), 0.25), ("count", "p4", ("tree", 50), 0.25),
    ("sat", "p4", 8, 0.25), ("sat", "p3star", 6, 0.25),
)
_COUNT_MID = (
    ("count", "p3star", ("grid", (2, 8)), 0.1), ("count", "p3star", ("grid", (4, 4)), 0.1),
    ("count", "p4", ("grid", (1, 24)), 0.1), ("count", "p4", ("cycle", 20), 0.1),
    ("count", "p4", ("grid", (2, 10)), 0.25), ("count", "p4", ("grid", (4, 5)), 0.25),
    ("count", "wrench", ("grid", (3, 4)), 0.1),
    ("ising", ("grid", (2, 6))), ("ising", ("grid", (3, 4))), ("ising", ("cycle", 12)),
    ("sat", "p3star", 10, 0.25), ("chain", SHORT_CHAIN),
)
_COUNT_TOP = (
    (("count", "p3star", ("grid", (4, 4)), 0.0),) * 4
    + (("ising", ("grid", (2, 7))),) * 3
    + (("count", "k2prime", ("grid", (5, 5)), 0.0),) * 2
)
COUNT_SLOTS = _COUNT_CHEAP * 3 + _COUNT_MID + _COUNT_TOP + (("chain", LONG_CHAIN),)


def count_blocks(rng, files):
    hfile = {name: files.write("h", t.text()) for name, t in COUNT_TARGETS.items()}
    blocks = []
    for _ in range(BLOCKS):
        block = []
        for spec in COUNT_SLOTS:
            op = spec[0]
            if op == "count":
                _, target_name, shape, restrict = spec
                h = COUNT_TARGETS[target_name]
                m, edges, lists, want = _count_op(rng, target_name, shape, restrict)
                steps = [["count", hfile[target_name], files.write("i", instance_text(m, edges, lists, h.n))]]
                want = [["exact", str(want)]]
                slot = f"count-{target_name}-{shape[0]}"
            elif op == "ising":
                m, edges = _shape(rng, spec[1])
                edges, _, order = _shuffled_instance(rng, m, edges, [[]] * m)
                lam = rng.choice(LAMBDAS)
                steps = [["ising", files.write("g", graph_text(m, edges)),
                          "--lambda", f"{lam.numerator}/{lam.denominator}"]]
                want = [["exact", str(ising_value(m, edges, lam, order))]]
                slot = f"ising-{spec[1][0]}"
            elif op == "sat":
                _, target_name, m, restrict = spec
                h = COUNT_TARGETS[target_name]
                _, edges, lists, count = _count_op(rng, target_name, ("grid", (1, m)), restrict)
                out = files.name("f")
                steps = [["reduce-sat", hfile[target_name],
                          files.write("i", instance_text(m, edges, lists, h.n)), "--out", out],
                         ["count-sat", out]]
                want = [["prefix", f"wrote {out} ({m * (h.n + 1)} variables, "], ["exact", str(count)]]
                slot = f"reduce-sat-{target_name}"
            else:
                n = rng.randint(*spec[1])
                # x_{v+1} -> x_v: the models are the n + 1 prefixes of ones
                text = "\n".join([f"f {n}"] + [f"i {v + 1} {v}" for v in range(1, n)]) + "\n"
                steps = [["count-sat", files.write("f", text)]]
                want = [["exact", str(n + 1)]]
                slot = "chain-long" if spec[1] == LONG_CHAIN else "chain-short"
            block.append({"slot": slot, "steps": steps, "check": {"type": "stdout", "want": want}})
        blocks.append(block)
    return blocks


# ---------------------------------------------------------------------------
# gadget: the paper's pipeline on catalogue patterns with pendant colours

GADGET_KINDS = ("X3", "X2", "T2", "Claw", "Net", "S3")
PENDANTS = (1, 3)  # pendant colours added to each host
# Per kind and block: `gadget` at every level t = 0..3, and two edge
# replacements, (t, two-spin graph shape), each followed by `count`.
REDUCE_SLOTS = ((0, ("tree", 8)), (1, ("grid", (2, 3))))


def gadget_host(rng, kind: str) -> Target:
    make = with_pendants(kind)
    target, _ = make(rng, PATTERNS[kind].n + rng.randint(*PENDANTS))
    return _relabel(rng, target)


def spin_histogram(m: int, edges) -> list[int]:
    """hist[k]: spin maps on 1..m with exactly k agreeing edges, by
    enumerating all 2^m of them."""
    hist = [0] * (len(edges) + 1)
    for spins in range(1 << m):
        hist[sum(1 for u, v in edges if (spins >> (u - 1) ^ spins >> (v - 1)) & 1 == 0)] += 1
    return hist


def gadget_blocks(rng, files):
    blocks = []
    for _ in range(BLOCKS):
        block = []
        for kind in GADGET_KINDS:
            flag = kind.lower()  # the CLI's --witness name
            for t in range(4):
                host = gadget_host(rng, kind)
                block.append({
                    "slot": f"gadget-t{t}",
                    "steps": [["gadget", files.write("h", host.text()), "--witness", flag,
                               "--t", str(t), "--json"]],
                    "check": {"type": "gadget", "n": host.n, "edges": host.edges(),
                              "kind": kind, "t": t},
                })
            for t, shape in REDUCE_SLOTS:
                host = gadget_host(rng, kind)
                m, edges = _shape(rng, shape)
                hname = files.write("h", host.text())
                out = files.name("i")
                block.append({
                    "slot": f"reduce-ising-t{t}",
                    "steps": [["reduce-ising", files.write("g", graph_text(m, edges)), hname,
                               "--witness", flag, "--t", str(t), "--out", out],
                              ["count", hname, out]],
                    "check": {"type": "reduce_ising", "n": host.n, "edges": host.edges(),
                              "kind": kind, "t": t, "sidecar": out + ".json", "m": m,
                              "graph_edges": len(edges), "hist": spin_histogram(m, edges)},
                })
        blocks.append(block)
    return blocks


WORKLOADS = {"classify": classify_blocks, "count": count_blocks, "gadget": gadget_blocks}


class Files:
    """Numbered input files in one directory."""

    def __init__(self, root):
        self.root = root
        self.count = 0

    def name(self, suffix: str) -> str:
        self.count += 1
        return f"in{self.count:05d}.{suffix}"

    def write(self, suffix: str, text: str) -> str:
        name = self.name(suffix)
        (self.root / name).write_text(text)
        return name


def build(workload: str, seed: int, root) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, Files(root))

