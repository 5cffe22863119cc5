"""Shared test utilities: independent brute-force oracles (deliberately
dumber than the library code they check), a row-by-row transfer-matrix
count for grids too large to enumerate, and small-graph generators up to
isomorphism for the exhaustive recogniser cross-checks."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

from listhom.graphs import ColourGraph, Instance, InstanceGraph


def enumerate_list_colourings(h: ColourGraph, inst: Instance):
    """Every valid colouring, by plain product enumeration."""
    out = []
    pools = [sorted(s) for s in inst.lists]
    for combo in itertools.product(*pools):
        if all(h.adjacent(combo[u - 1], combo[v - 1]) for u, v in inst.g.edges):
            out.append(combo)
    return out


def ising_direct(g: InstanceGraph, lam: Fraction) -> Fraction:
    """Partition function by summing the edge-product over all spin maps."""
    total = Fraction(0)
    for spins in itertools.product((1, -1), repeat=g.m):
        term = Fraction(1)
        for u, v in g.edges:
            if spins[u - 1] == spins[v - 1]:
                term *= lam
        total += term
    return total


def count_models_enumeration(formula) -> int:
    """Model count by trying all 2^n assignments."""
    n = formula.var_count
    count = 0
    for bits in itertools.product((0, 1), repeat=n):
        ok = True
        for cl in formula.clauses:
            if cl[0] == "p":
                ok = bits[cl[1] - 1] == 1
            elif cl[0] == "n":
                ok = bits[cl[1] - 1] == 0
            else:
                ok = not (bits[cl[1] - 1] == 1 and bits[cl[2] - 1] == 0)
            if not ok:
                break
        if ok:
            count += 1
    return count


def weighted_sum_enumeration(domains, factors, keep=()) -> dict:
    """What oracles._eliminate computes, by trying every assignment: the sum
    of the product of the factor weights, per assignment of keep (zero sums
    left out)."""
    out = {}
    for values in itertools.product(*domains):
        w = 1
        for u, v, table in factors:
            w *= table.get((values[u], values[v]), 0)
        if w:
            key = tuple(values[v] for v in keep)
            out[key] = out.get(key, 0) + w
    return {key: w for key, w in out.items() if w}


def tree_list_count(h: ColourGraph, inst: Instance) -> int:
    """Number of list colourings of a forest instance against h, by a DP
    from the leaves up (as in bench/reference.py): each vertex keeps, per
    colour in its list, the colourings of its subtree that give it that
    colour, and a root's total multiplies into the answer."""
    g = inst.g
    total, seen = 1, set()
    for root in g.vertices:
        if root in seen:
            continue
        order, parent, stack = [], {root: 0}, [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in g.neighbours[v - 1]:
                if u not in parent:
                    parent[u] = v
                    stack.append(u)
        seen.update(order)
        table = {}
        for v in reversed(order):
            vec = {}
            for c in inst.lists[v - 1]:
                x = 1
                for u in g.neighbours[v - 1]:
                    if parent[u] == v:
                        x *= sum(n for d, n in table[u].items() if h.adjacent(c, d))
                vec[c] = x
            table[v] = vec
        total *= sum(table[root].values())
    return total


def decimal_text(n: int) -> str:
    """n >= 0 in decimal, 100 digits at a time, so that no conversion meets
    the interpreter's limit on the digits of str(int)."""
    chunks = []
    while True:
        n, low = divmod(n, 10 ** 100)
        chunks.append(low)
        if not n:
            break
    return str(chunks[-1]) + "".join(str(c).zfill(100) for c in reversed(chunks[:-1]))


def grid_edges(k: int) -> list[tuple[int, int]]:
    """Edges of the k x k grid, vertex (r, c) numbered r * k + c + 1."""
    edges = [(r * k + c + 1, r * k + c + 2) for r in range(k) for c in range(k - 1)]
    return edges + [(r * k + c + 1, r * k + c + k + 1) for r in range(k - 1) for c in range(k)]


def grid_transfer_count(k: int, w) -> int:
    """Sum over all maps of the k x k grid's vertices to 0..n-1 of the
    product of w[a][b] over the grid's edges (w symmetric, n x n), by a
    row-by-row transfer matrix.  f holds one weight per colouring of the
    rows so far, indexed by the last row's colours as base-n digits, the
    first column lowest.  The vertical edges go in one column at a time:
    mixing the lowest digit and then moving it to the top turns the digits
    once round per row."""
    n = len(w)
    horizontal = []
    for state in range(n ** k):
        digits = [state // n ** c % n for c in range(k)]
        horizontal.append(prod(w[a][b] for a, b in zip(digits, digits[1:])))
    f = horizontal
    for _ in range(k - 1):
        for _ in range(k):
            parts = [f[d::n] for d in range(n)]  # f by its lowest digit d
            f = []
            for e in range(n):  # the same column's digit in the new row
                column = [0] * len(parts[0])
                for d in range(n):
                    column = [c + w[d][e] * y for c, y in zip(column, parts[d])]
                f += column
        f = [a * b for a, b in zip(f, horizontal)]
    return sum(f)


def induced_embeddings(pattern: ColourGraph, host: ColourGraph) -> set[tuple[int, ...]]:
    """Every induced embedding of pattern into host (entry i-1 hosts pattern
    vertex i; loops, edges and non-edges all match), by trying every ordering
    of every host subset whose sorted (loop, degree) profile is the
    pattern's."""
    def profile(g, verts):
        return sorted(
            (g.has_loop(v), sum(g.adjacent(v, u) for u in verts if u != v))
            for v in verts
        )

    want = profile(pattern, pattern.colours)
    out = set()
    for subset in itertools.combinations(host.colours, pattern.n):
        if profile(host, subset) != want:
            continue
        for emb in itertools.permutations(subset):
            if all(host.adjacent(emb[i - 1], emb[j - 1]) == pattern.adjacent(i, j)
                   for i in pattern.colours for j in pattern.colours):
                out.add(emb)
    return out


# ---------------------------------------------------------------------------
# graphs up to isomorphism

def _degree_multiset(edges: frozenset, k: int):
    deg = [0] * (k + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return tuple(sorted(deg[1:]))


def _isomorphic_edge_sets(e1: frozenset, e2: frozenset, k: int) -> bool:
    if len(e1) != len(e2):
        return False
    adj1 = [[False] * (k + 1) for _ in range(k + 1)]
    adj2 = [[False] * (k + 1) for _ in range(k + 1)]
    deg1 = [0] * (k + 1)
    deg2 = [0] * (k + 1)
    for adj, deg, es in ((adj1, deg1, e1), (adj2, deg2, e2)):
        for u, v in es:
            adj[u][v] = adj[v][u] = True
            deg[u] += 1
            deg[v] += 1
    if sorted(deg1[1:]) != sorted(deg2[1:]):
        return False
    image = [0] * (k + 1)
    used = [False] * (k + 1)

    def extend(v: int) -> bool:
        if v > k:
            return True
        for w in range(1, k + 1):
            if used[w] or deg1[v] != deg2[w]:
                continue
            if all(adj1[v][x] == adj2[w][image[x]] for x in range(1, v)):
                image[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
        return False

    return extend(1)


def connected_graph_reps(n: int) -> list[frozenset]:
    """One edge set per isomorphism class of connected simple graphs on
    {1..n}, grown by attaching a fresh vertex to every nonempty subset of a
    smaller representative (every connected graph has a non-cutvertex, so
    this reaches every class)."""
    reps: list[frozenset] = [frozenset()]
    for k in range(2, n + 1):
        buckets: dict[tuple, list[frozenset]] = {}
        for base in reps:
            for sub in range(1, 1 << (k - 1)):
                edges = set(base)
                for i in range(k - 1):
                    if sub >> i & 1:
                        edges.add((i + 1, k))
                es = frozenset(edges)
                inv = (_degree_multiset(es, k), len(es))
                bucket = buckets.setdefault(inv, [])
                if not any(_isomorphic_edge_sets(es, other, k) for other in bucket):
                    bucket.append(es)
        reps = [es for _, bucket in sorted(buckets.items()) for es in bucket]
    return reps


def _bip_matrix_canon(rows: tuple[int, ...], a: int, b: int):
    best = None
    for perm in itertools.permutations(range(a)):
        cols = []
        for j in range(b):
            col = 0
            for i, p in enumerate(perm):
                if rows[p] >> j & 1:
                    col |= 1 << i
            cols.append(col)
        cand = tuple(sorted(cols))
        if best is None or cand < best:
            best = cand
    return best


def _bip_connected(rows, a, b) -> bool:
    total = a + b
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        if x < a:
            for j in range(b):
                if rows[x] >> j & 1 and a + j not in seen:
                    seen.add(a + j)
                    stack.append(a + j)
        else:
            j = x - a
            for i in range(a):
                if rows[i] >> j & 1 and i not in seen:
                    seen.add(i)
                    stack.append(i)
    return len(seen) == total


def connected_bipartite_reps(n: int) -> list[ColourGraph]:
    """One irreflexive ColourGraph per isomorphism class of connected
    bipartite graphs on n vertices, via canonical biadjacency matrices."""
    if n == 1:
        return [ColourGraph.from_edges(1, [])]
    out = []
    seen = set()
    for a in range(1, n // 2 + 1):
        b = n - a
        for bits in range(1 << (a * b)):
            rows = tuple((bits >> (i * b)) & ((1 << b) - 1) for i in range(a))
            if not _bip_connected(rows, a, b):
                continue
            canon = _bip_matrix_canon(rows, a, b)
            if a == b:
                transpose = tuple(
                    sum(1 << i for i in range(a) if rows[i] >> j & 1)
                    for j in range(b)
                )
                canon = min(canon, _bip_matrix_canon(transpose, b, a))
            key = (a, canon)
            if key in seen:
                continue
            seen.add(key)
            edges = [
                (i + 1, a + j + 1)
                for i in range(a)
                for j in range(b)
                if rows[i] >> j & 1
            ]
            out.append(ColourGraph.from_edges(n, edges))
    return out


def reflexive_closure(edges: frozenset, n: int) -> ColourGraph:
    """ColourGraph on n vertices with the given edges plus a loop everywhere."""
    return ColourGraph.from_edges(
        n, list(edges) + [(v, v) for v in range(1, n + 1)]
    )


def random_instance_graph(rng, max_vertices: int, p: float) -> InstanceGraph:
    m = rng.randint(1, max_vertices)
    edges = [
        (u, v)
        for u in range(1, m + 1)
        for v in range(u + 1, m + 1)
        if rng.random() < p
    ]
    return InstanceGraph.from_edges(m, edges)


def random_lists(rng, m: int, n: int, keep: float):
    return tuple(
        frozenset(c for c in range(1, n + 1) if rng.random() < keep)
        for _ in range(m)
    )


def random_bipartite_graph(rng, max_vertices: int, p: float) -> InstanceGraph:
    m = rng.randint(1, max_vertices)
    side = [rng.randint(0, 1) for _ in range(m)]
    edges = [
        (u, v)
        for u in range(1, m + 1)
        for v in range(u + 1, m + 1)
        if side[u - 1] != side[v - 1] and rng.random() < p
    ]
    return InstanceGraph.from_edges(m, edges)
