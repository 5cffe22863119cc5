"""Reference answers and certificate checks that share no code with listhom.

Counts come from a frontier dynamic programme (paths, cycles, ladders,
grids), a tree DP, closed forms, or plain enumeration.  Certificates printed
by `classify --json` are re-checked from the target's edges alone: the
staircase order by rebuilding its matrix, an excluded subgraph by testing
the embedding against this module's own copy of the pattern graphs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

# ---------------------------------------------------------------------------
# targets


@dataclass(frozen=True)
class Target:
    """A colour graph on 1..n; nbrs[v] holds v itself when v has a loop."""

    n: int
    nbrs: tuple[frozenset[int], ...]  # index 0 unused

    @classmethod
    def from_edges(cls, n: int, edges) -> "Target":
        nb = [set() for _ in range(n + 1)]
        for u, v in edges:
            nb[u].add(v)
            nb[v].add(u)
        return cls(n, tuple(frozenset(s) for s in nb))

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.nbrs[u]

    def loop(self, v: int) -> bool:
        return v in self.nbrs[v]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(1, self.n + 1) for v in sorted(self.nbrs[u]) if u <= v]

    def relabel(self, perm) -> "Target":
        """perm[v - 1] is the new label of v."""
        return Target.from_edges(self.n, [(perm[u - 1], perm[v - 1]) for u, v in self.edges()])

    def text(self) -> str:
        return "".join([f"h {self.n}\n"] + [f"e {u} {v}\n" for u, v in self.edges()])


def reflexive(n: int, edges) -> Target:
    return Target.from_edges(n, list(edges) + [(v, v) for v in range(1, n + 1)])


def cycle_edges(k: int) -> list[tuple[int, int]]:
    return [(v, v % k + 1) for v in range(1, k + 1)]


# Forbidden patterns, copied from the paper's figures: the irreflexive
# bipartite-permutation obstructions and the reflexive proper-interval ones.
PATTERNS = {
    "X3": Target.from_edges(7, [(6, 5), (5, 1), (1, 4), (4, 2), (2, 7), (7, 6), (6, 4), (4, 3)]),
    "X2": Target.from_edges(7, [(1, 6), (6, 2), (2, 7), (2, 4), (4, 3), (4, 1), (1, 5)]),
    "T2": Target.from_edges(7, [(6, 1), (1, 5), (5, 4), (4, 3), (5, 2), (2, 7)]),
    "Claw": reflexive(4, [(4, 1), (4, 2), (4, 3)]),
    "Net": reflexive(6, [(5, 1), (1, 4), (4, 2), (2, 6), (3, 4), (1, 2)]),
    "S3": reflexive(6, [(4, 1), (1, 3), (3, 2), (2, 6), (6, 5), (5, 4), (1, 2), (2, 5), (5, 1)]),
}


def pattern(kind: str, length) -> Target | None:
    if kind in PATTERNS:
        return PATTERNS[kind] if length is None else None
    if kind == "CycleNe4" and isinstance(length, int) and length >= 3 and length != 4:
        return Target.from_edges(length, cycle_edges(length))
    if kind == "CycleGe4" and isinstance(length, int) and length >= 4:
        return reflexive(length, cycle_edges(length))
    return None


def components(t: Target) -> list[frozenset[int]]:
    seen: set[int] = set()
    out = []
    for s in range(1, t.n + 1):
        if s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            for u in t.nbrs[stack.pop()]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        out.append(frozenset(comp))
    return out


# ---------------------------------------------------------------------------
# classification certificates


def staircase_bounds(rows):
    """(alpha, beta) of a 0/1 matrix whose rows are contiguous blocks with
    non-decreasing ends (all-zero rows skipped, marked None), else None."""
    alpha, beta = [], []
    last = (0, 0)
    for row in rows:
        ones = [j + 1 for j, e in enumerate(row) if e]
        if not ones:
            alpha.append(None)
            beta.append(None)
            continue
        a, b = ones[0], ones[-1]
        if b - a + 1 != len(ones) or a < last[0] or b < last[1]:
            return None
        last = (a, b)
        alpha.append(a)
        beta.append(b)
    return alpha, beta


def embedding_ok(t: Target, verts: frozenset[int], kind, length, emb) -> bool:
    pat = pattern(kind, length)
    if pat is None or not isinstance(emb, list) or len(emb) != pat.n:
        return False
    if len(set(emb)) != pat.n or not set(emb) <= verts:
        return False
    return all(
        t.adjacent(emb[i - 1], emb[j - 1]) == pat.adjacent(i, j)
        for i in range(1, pat.n + 1)
        for j in range(i, pat.n + 1)
    )


def certificate_ok(t: Target, verts: frozenset[int], klass: str, cert: dict) -> bool:
    """Does cert prove that the connected part `verts` of t is in klass?"""
    kind = cert.get("type")
    loops = {v for v in verts if t.loop(v)}
    if kind == "complete_reflexive":
        return klass == "polytime" and all(t.adjacent(u, v) for u in verts for v in verts)
    if kind == "complete_bipartite_irreflexive":
        if klass != "polytime" or loops:
            return False
        start = min(verts)
        side = {v: (v != start and t.adjacent(start, v)) for v in verts}
        return all(t.adjacent(u, v) == (side[u] != side[v]) for u in verts for v in verts if u != v)
    if kind == "loop_edge":
        u, w = cert.get("unlooped"), cert.get("looped")
        return (klass == "sat_equivalent" and u in verts and w in verts
                and not t.loop(u) and t.loop(w) and t.adjacent(u, w))
    if kind == "excluded_subgraph":
        return klass == "sat_equivalent" and embedding_ok(
            t, verts, cert.get("kind"), cert.get("length"), cert.get("embedding"))
    if kind == "staircase":
        rows, cols = cert.get("row_order", []), cert.get("col_order", [])
        if klass != "bis_equivalent":
            return False
        if cert.get("kind") == "adjacency":
            if loops != set(verts) or rows != cols or sorted(rows) != sorted(verts):
                return False
        elif cert.get("kind") == "biadjacency":
            if loops or set(rows) & set(cols) or sorted(rows + cols) != sorted(verts):
                return False
            if any(t.adjacent(u, v) for side in (rows, cols) for u in side for v in side):
                return False
        else:
            return False
        bounds = staircase_bounds([[t.adjacent(r, c) for c in cols] for r in rows])
        return bounds is not None and list(bounds) == [cert.get("alpha"), cert.get("beta")]
    return False


def threshold(klass: str, t: Target, verts) -> int | None:
    if klass == "polytime":
        return None
    if klass == "bis_equivalent":
        return 6
    loops = sum(t.loop(v) for v in verts)
    return 3 if loops in (0, len(verts)) else 6


_ORDER = ("polytime", "bis_equivalent", "sat_equivalent")


def _part_ok(t: Target, verts: frozenset[int], klass: str, res: dict) -> bool:
    return (
        res.get("class") == klass
        and res.get("degree_threshold") == threshold(klass, t, verts)
        and res.get("vertices") == sorted(verts)
        and certificate_ok(t, verts, klass, res.get("certificate", {}))
    )


def check_classification(t: Target, expected: dict[frozenset[int], str], res: dict) -> bool:
    """res is the parsed `classify --json` output; expected maps each
    connected component of t to the class it was built to have."""
    comps = components(t)
    if set(comps) != set(expected):
        return False
    if len(comps) == 1:
        return _part_ok(t, comps[0], expected[comps[0]], res)
    subs = res.get("components")
    if not isinstance(subs, list) or len(subs) != len(comps):
        return False
    by_verts = {frozenset(s.get("vertices", ())): s for s in subs}
    if set(by_verts) != set(comps):
        return False
    if not all(_part_ok(t, c, expected[c], by_verts[c]) for c in comps):
        return False
    top = max(expected.values(), key=_ORDER.index)
    thr = [threshold(top, t, c) for c in comps if expected[c] == top]
    best = None if top == "polytime" else min(thr)
    return (
        res.get("class") == top
        and res.get("degree_threshold") == best
        and res.get("vertices") == list(range(1, t.n + 1))
        and any(
            res.get("certificate") == s.get("certificate")
            for s in subs
            if s.get("class") == top and s.get("degree_threshold") == best
        )
    )


# ---------------------------------------------------------------------------
# counting


def weighted_sum(domains, edges, weight, order) -> int:
    """Sum over assignments x (x[v] in domains[v - 1]) of the product over
    edges (u, v) of weight(x[u], x[v]).  Vertices are added in `order`;
    the state keeps the values of placed vertices that still have an
    unplaced neighbour, so the cost grows with that frontier only."""
    m = len(domains)
    nbrs = [[] for _ in range(m + 1)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    pos = {v: i for i, v in enumerate(order)}
    frontier: tuple[int, ...] = ()
    table = {(): 1}
    for i, v in enumerate(order):
        back = [frontier.index(u) for u in nbrs[v] if pos[u] < i]
        keep = [j for j, u in enumerate(frontier) if any(pos[w] > i for w in nbrs[u])]
        stay = any(pos[w] > i for w in nbrs[v])
        new: dict[tuple, int] = {}
        for state, count in table.items():
            for c in domains[v - 1]:
                w = count
                for j in back:
                    w *= weight(state[j], c)
                    if not w:
                        break
                if w:
                    key = tuple(state[j] for j in keep) + ((c,) if stay else ())
                    new[key] = new.get(key, 0) + w
        table = new
        frontier = tuple(frontier[j] for j in keep) + ((v,) if stay else ())
    return sum(table.values())


def tree_count(domains, edges, weight) -> int:
    """weighted_sum for a forest, by a bottom-up DP from each root."""
    m = len(domains)
    nbrs = [[] for _ in range(m + 1)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    total, seen = 1, set()
    for root in range(1, m + 1):
        if root in seen:
            continue
        order, parent, stack = [], {root: 0}, [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in nbrs[v]:
                if u not in parent:
                    parent[u] = v
                    stack.append(u)
        seen.update(order)
        table = {}
        for v in reversed(order):
            vec = {}
            for c in domains[v - 1]:
                x = 1
                for u in nbrs[v]:
                    if parent.get(u) == v:
                        x *= sum(table[u][d] * weight(c, d) for d in table[u])
                vec[c] = x
            table[v] = vec
        total *= sum(table[root].values())
    return total


def enumerate_sum(domains, edges, weight) -> int:
    """weighted_sum by plain enumeration of every assignment."""
    total = 0
    for x in itertools.product(*domains):
        w = 1
        for u, v in edges:
            w *= weight(x[u - 1], x[v - 1])
        total += w
    return total


def colouring_weight(t: Target):
    return lambda a, b: 1 if t.adjacent(a, b) else 0


def spin_weight(a: int, b: int):
    """Edge weight of b^|E| * Z_{a/b}: a on agreeing spins, b otherwise."""
    return lambda x, y: a if x == y else b


def ising_value(domains_count: int, edges, lam: Fraction, order) -> Fraction:
    """Z_lam of a graph on 1..domains_count, exact."""
    w = weighted_sum([(0, 1)] * domains_count, edges,
                     spin_weight(lam.numerator, lam.denominator), order)
    return Fraction(w, lam.denominator ** len(edges))


# ---------------------------------------------------------------------------
# gadget matrices


# D' of the catalogue gadget for each pattern (the paper's table); cycles
# depend on parity and loops.
DPRIME = {
    "X3": ((2, 3), (3, 5)),
    "X2": ((5, 8), (8, 13)),
    "T2": ((5, 7), (7, 10)),
    "Claw": ((2, 3), (3, 5)),
    "Net": ((2, 3), (3, 5)),
    "S3": ((1, 1), (1, 2)),
}


def dprime(kind: str, length) -> tuple:
    if kind == "CycleNe4":
        return ((2, 1), (1, 1)) if length % 2 else ((1, 2), (1, 3))
    if kind == "CycleGe4":
        return ((1, 2), (1, 3))
    return DPRIME[kind]


def gadget_matrices(kind: str, length, t: int) -> dict[str, list]:
    """D', D (column swap), the symmetrised D* and the thickened D*_t."""
    (p, q), (r, s) = dprime(kind, length)
    d = ((q, p), (s, r))
    star = ((d[0][0] * d[1][1], d[0][1] * d[1][0]), (d[1][0] * d[0][1], d[1][1] * d[0][0]))
    e = 2 ** t
    thick = tuple(tuple(x ** e for x in row) for row in star)
    as_lists = lambda m: [list(row) for row in m]  # noqa: E731
    return {"dprime": as_lists(((p, q), (r, s))), "d": as_lists(d),
            "dstar": as_lists(star), "dstar_t": as_lists(thick)}


# ---------------------------------------------------------------------------
# per-op checks


def check_op(check: dict, outs: list) -> bool:
    """Did an op's CLI calls answer correctly?  outs holds (exit code,
    stdout) per call made; every call must exit 0."""
    if any(code != 0 for code, _ in outs):
        return False
    kind = check["type"]
    if kind == "stdout":
        if len(outs) != len(check["want"]):
            return False
        for (_, text), (mode, want) in zip(outs, check["want"]):
            text = text.strip()
            if (text != want) if mode == "exact" else not text.startswith(want):
                return False
        return True
    if len(outs) != (2 if kind == "reduce_ising" else 1):
        return False
    host = Target.from_edges(check["n"], check["edges"])
    everything = frozenset(range(1, host.n + 1))
    try:
        if kind == "classify":
            expected = {frozenset(verts): klass for verts, klass in check["expected"]}
            return check_classification(host, expected, json.loads(outs[0][1]))
        if kind == "gadget":
            res = json.loads(outs[0][1])
            w = res["witness"]
            want = gadget_matrices(check["kind"], None, check["t"])
            return (
                w["kind"] == check["kind"] and w["length"] is None
                and embedding_ok(host, everything, w["kind"], None, w["embedding"])
                and all(res[key] == value for key, value in want.items())
                and res["t"] == check["t"]
                and len(res["checks"]) == 8 and all(res["checks"].values())
            )
        if kind == "reduce_ising":
            with open(check["sidecar"]) as fh:
                side = json.load(fh)
            w = side["witness"]
            matrix = gadget_matrices(w["kind"], w["length"], check["t"])["dstar_t"]
            (a, b), edges = matrix[0], check["graph_edges"]
            want = sum(c * a ** k * b ** (edges - k) for k, c in enumerate(check["hist"]))
            return (
                w["kind"] == check["kind"]
                and embedding_ok(host, everything, w["kind"], w["length"], w["embedding"])
                and side["gadget_matrix"] == matrix and side["t"] == check["t"]
                and side["lambda"] == str(Fraction(a, b)) and side["scale"] == str(b ** edges)
                and side["original_vertices"] == check["m"] and side["original_edges"] == edges
                and outs[1][1].strip() == str(want)
            )
    except (ValueError, KeyError, TypeError, IndexError, OSError):
        return False
    raise ValueError(f"unknown check type {kind!r}")
