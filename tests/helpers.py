"""Shared test utilities: independent brute-force oracles (deliberately
dumber than the library code they check), the reference searches that the
package itself never runs (condition (H), and decoding a staircase
formula's models), a plain reader of the text formats, a per-line reference
reader of formula files, the CLI parser as it was built before the command
table, a plain min-degree eliminator that the engine's planner must match,
a row-by-row transfer-matrix count for grids too large to enumerate, and
small-graph generators up to isomorphism for the exhaustive recogniser
cross-checks."""

from __future__ import annotations

import argparse
import itertools
from fractions import Fraction
from math import prod

from listhom.graphs import ColourGraph, Instance, InstanceGraph


def dense(h: ColourGraph, rows=None, cols=None) -> tuple[tuple[int, ...], ...]:
    """h's 0/1 matrix with rows and columns in the given colour orders, each
    all colours ascending by default; an entry on the diagonal is a loop."""
    rows = h.colours if rows is None else rows
    cols = h.colours if cols is None else cols
    return tuple(tuple(int(h.adjacent(r, c)) for c in cols) for r in rows)


def staircase(mat):
    """alpha/beta per row (1-based, None for an all-zero row) when the 0/1
    matrix is staircase, else None, straight from the definition: the 1s of
    each row are one block, and of any two rows with a 1 the lower one's
    block starts and ends no earlier.  Shares no code with the library's
    row check."""
    blocks = []
    for row in mat:
        ones = [j for j, e in enumerate(row, start=1) if e]
        if ones and ones != list(range(ones[0], ones[-1] + 1)):
            return None
        blocks.append((ones[0], ones[-1]) if ones else (None, None))
    lit = [b for b in blocks if b[0] is not None]
    if any(a1 > a2 or b1 > b2 for (a1, b1), (a2, b2) in itertools.combinations(lit, 2)):
        return None
    return tuple(a for a, _ in blocks), tuple(b for _, b in blocks)


def fits(h: ColourGraph, form) -> bool:
    """Whether a staircase form's orders have the shape its kind asks of h,
    from the definition: every colour exactly once; for a biadjacency form
    an irreflexive h whose row side and column side are each independent;
    for an adjacency form a reflexive h and equal row and column orders.
    The staircase shape itself is not read."""
    rows, cols = list(form.row_order), list(form.col_order)
    if form.kind == "biadjacency":
        every = rows + cols
    elif form.kind == "adjacency":
        every = rows
    else:
        return False
    if sorted(every) != list(h.colours):
        return False
    if form.kind == "adjacency":
        return rows == cols and all(h.has_loop(v) for v in h.colours)
    return (not any(h.has_loop(v) for v in h.colours)
            and not any(h.adjacent(u, v) for side in (rows, cols)
                        for u, v in itertools.combinations(side, 2)))


def lbfs(h: ColourGraph, comp, prev=None) -> list[int]:
    """One lexicographic breadth-first sweep of the component comp of h on
    its own, by the textbook rule (Rose, Tarjan and Lueker 1976): number the
    colours from |comp| down to 1, each time the unnumbered colour of comp
    with the lexicographically largest label, and append its number to the
    label of each unnumbered neighbour.  Ties go to the smallest colour, or,
    given a previous order prev (LBFS+), to the colour of comp that comes
    latest in prev."""
    tie = [v for v in prev if v in comp] if prev else sorted(comp, reverse=True)
    rank = {v: i for i, v in enumerate(tie)}
    label: dict[int, list[int]] = {v: [] for v in comp}
    order: list[int] = []
    while label:
        v = max(label, key=lambda u: (label[u], rank[u]))
        del label[v]
        order.append(v)
        for u in h.neighbours(v):
            if u in label:
                label[u].append(len(comp) - len(order) + 1)
    return order


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


def satisfies(clauses, bits) -> bool:
    """Whether the 0/1 assignment bits (indexed by variable - 1) satisfies
    every clause."""
    for cl in clauses:
        if cl[0] == "p":
            ok = bits[cl[1] - 1] == 1
        elif cl[0] == "n":
            ok = bits[cl[1] - 1] == 0
        else:
            ok = not (bits[cl[1] - 1] == 1 and bits[cl[2] - 1] == 0)
        if not ok:
            return False
    return True


def count_models_enumeration(formula) -> int:
    """Model count by trying all 2^n assignments."""
    return sum(satisfies(formula.clauses, bits)
               for bits in itertools.product((0, 1), repeat=formula.var_count))


def horn_satisfiable(formula) -> bool:
    """Whether an implication formula has a model, by plain positive
    propagation over the bits: the variables that the positive units force
    through the implications hold in every model, and setting all others
    false satisfies every implication, so there is a model exactly when no
    forced variable has a negative unit."""
    after = {}
    for tag, *ends in formula.clauses:
        if tag == "i":
            after.setdefault(ends[0], []).append(ends[1])
    forced = {v for tag, v, *_ in formula.clauses if tag == "p"}
    todo = list(forced)
    while todo:
        for w in after.get(todo.pop(), ()):
            if w not in forced:
                forced.add(w)
                todo.append(w)
    return not any(tag == "n" and v in forced for tag, v, *_ in formula.clauses)


def decode_assignment(enc, sides, assignment) -> tuple[int, ...]:
    """The colouring that a model of the staircase formula encodes.

    enc is anything with q, r_order and c_order: a StaircaseEncoding, or a
    reduce-sat sidecar read as a namespace.  Vertex u's chain x_0..x_q is
    the variables (u-1)(q+1)+1 .. u(q+1); its number j of leading 1s picks
    the j-th colour of r_order (side 1) or c_order (side 2).  Rejects an
    assignment whose chain is not 1..1 0..0 with x_0 = 1 and x_q = 0."""
    q = enc.q
    colours = []
    for u, side in enumerate(sides, start=1):
        bits = list(assignment[(u - 1) * (q + 1):u * (q + 1)])
        j = sum(bits)
        if bits != [1] * j + [0] * (q + 1 - j) or not 1 <= j <= q:
            raise ValueError(f"vertex {u}: assignment violates the chain clauses")
        colours.append((enc.r_order if side == 1 else enc.c_order)[j - 1])
    return tuple(colours)


def encode_colouring(enc, sides, colouring) -> tuple[int, ...]:
    """The assignment a colouring maps to; the inverse of decode_assignment."""
    bits = []
    for u, side in enumerate(sides, start=1):
        j = (enc.r_order if side == 1 else enc.c_order).index(colouring[u - 1]) + 1
        bits += [1] * j + [0] * (enc.q + 1 - j)
    return tuple(bits)


def check_condH(h: ColourGraph, r: int, s: int) -> tuple[int, int] | None:
    """The paper's condition (H) for terminal colours r != s: the pair
    (r', s') of smallest colours with r ~ r', s !~ r', s ~ s' and r !~ s';
    None when no such pair exists."""
    if r == s:
        raise ValueError("need two distinct colours")
    rp = next((c for c in h.colours if h.adjacent(r, c) and not h.adjacent(s, c)), None)
    sp = next((c for c in h.colours if h.adjacent(s, c) and not h.adjacent(r, c)), None)
    return None if rp is None or sp is None else (rp, sp)


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


def min_degree_plan(adj, size, kept=(), order=None, cap=None, limit=1 << 18):
    """What oracles._plan draws up, by the plain rule: (steps, width,
    largest, total).  adj[v] is the set of v's neighbours, or None for a
    variable outside the graph.  Each step takes the free variable of least
    degree, the smaller on a tie, or the next one of order; it is summed out
    by joining its neighbours to one another, and recorded as (variable,
    set of its neighbours).  The plan stops after the first step whose table
    (the product of the domain sizes over the variable and its neighbours)
    is over limit, with that step's width and table, or once the total
    reaches cap."""
    graph = {v: set(nbrs) for v, nbrs in enumerate(adj) if nbrs is not None}
    steps = []
    width = largest = total = 0
    while True:
        if order is not None:
            if len(steps) == len(order):
                break
            x = order[len(steps)]
        else:
            free = [v for v in graph if v not in kept]
            if not free:
                break
            x = min(free, key=lambda v: (len(graph[v]), v))
        scope = graph.pop(x)
        for v in scope:
            graph[v] = (graph[v] | scope) - {x, v}
        entries = prod(size[v] for v in scope | {x})
        steps.append((x, scope))
        total += entries
        if entries > limit:
            return steps, len(scope), entries, total
        width = max(width, len(scope))
        largest = max(largest, entries)
        if cap is not None and total >= cap:
            break
    return steps, width, largest, total


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


def read_text(text: str, head: str, colour_count: int | None = None):
    """A plain reading of a target ("h"), graph or instance ("g") or formula
    ("f") file: (n, its edges as sorted pairs or its clauses in file order,
    {vertex: colours}), or the number of the first line that breaks a rule
    of the format (1 when the header is missing).  Checks one rule at a
    time and shares no code with listhom.formats."""
    arity = {"p": 1, "n": 1, "i": 2} if head == "f" else {"e": 2}
    if colour_count is not None:
        arity["l"] = None
    n, items, lists = None, [], {}
    # a line ends at "\n", "\r\n" or "\r" and nowhere else
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        tag, args = fields[0], fields[1:]
        try:
            ints = [int(a) for a in args]
        except ValueError:
            return line_no
        if tag == head:
            if n is not None or len(ints) != 1 or ints[0] < (1 if head == "h" else 0):
                return line_no
            n = ints[0]
        elif n is None or tag not in arity or arity[tag] not in (None, len(ints)) or not ints:
            return line_no
        elif not all(1 <= x <= n for x in (ints[:1] if tag == "l" else ints)):
            return line_no
        elif tag == "l":
            if ints[0] in lists or not all(1 <= c <= colour_count for c in ints[1:]):
                return line_no
            lists[ints[0]] = frozenset(ints[1:])
        elif head == "f":
            items.append((tag, *ints))
        else:
            pair = (min(ints), max(ints))
            if pair in items or (ints[0] == ints[1] and head == "g"):  # a graph has no loop
                return line_no
            items.append(pair)
    if n is None:
        return 1
    return n, items if head == "f" else sorted(items), lists


def reference_formula(text: str):
    """(nvars, clauses) of a formula file, read line by line the generic way:
    every line but a comment or a blank one splits into a tag and integer
    fields, all converted by one list comprehension, then each field is
    range-checked in an inner loop.  A faulty line raises
    listhom.formats.ParseError with the message and line number that
    formats.parse_formula gives, the reference for its one branch per
    clause shape."""
    from listhom.formats import ParseError

    arity = {"p": 1, "n": 1, "i": 2}
    nvars = None
    clauses = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        tag = fields[0]
        if tag == "f":
            if nvars is not None:
                raise ParseError(line_no, "duplicate header")
            count = 1
        elif tag in arity:
            count = arity[tag]
            if nvars is None:
                raise ParseError(line_no, "clause before 'f' header")
        else:
            raise ParseError(line_no, f"unknown directive {tag!r} in formula file")
        if len(fields) - 1 != count:
            raise ParseError(line_no, f"{tag!r} takes {count} argument(s)")
        try:
            ints = [int(x) for x in fields[1:]]
        except ValueError as exc:
            raise ParseError(line_no, f"non-integer field: {exc}") from None
        if tag == "f":
            nvars = ints[0]
            if nvars < 0:
                raise ParseError(line_no, "variable count must be non-negative")
            continue
        for v in ints:
            if not (1 <= v <= nvars):
                raise ParseError(line_no, f"variable {v} out of range 1..{nvars}")
        clauses.append((tag, *ints))
    if nvars is None:
        raise ParseError(1, "missing 'f <nvars>' header")
    return nvars, tuple(clauses)


def reference_parser() -> argparse.ArgumentParser:
    """The CLI's parser as cli.build_parser built it before the command
    table, each subcommand added by hand; the body is kept verbatim, so
    every usage, help and error text of today's parser can be compared
    with it.  The handlers are today's; the --witness help is built as it
    was then."""
    from listhom import patterns
    from listhom.cli import (
        cmd_classify,
        cmd_count,
        cmd_count_sat,
        cmd_gadget,
        cmd_ising,
        cmd_reduce_ising,
        cmd_reduce_sat,
        cmd_selftest,
    )

    _WITNESS_HELP = "|".join([row.kind.lower() for row in patterns.RECIPES] + ["cycle<L>"])
    parser = argparse.ArgumentParser(
        prog="listhom",
        description="List-homomorphism counting toolkit: classification, "
                    "gadgets, reductions and exact oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a target graph")
    p.add_argument("h_file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("count", help="count list colourings of an instance")
    p.add_argument("h_file")
    p.add_argument("instance_file")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("ising", help="exact two-spin partition function")
    p.add_argument("g_file")
    p.add_argument("--lambda", dest="lam", required=True, metavar="P/Q")
    p.set_defaults(func=cmd_ising)

    p = sub.add_parser("count-sat", help="count models of an implication formula")
    p.add_argument("formula_file")
    p.set_defaults(func=cmd_count_sat)

    p = sub.add_parser("gadget", help="build and verify the gadget for a target")
    p.add_argument("h_file")
    p.add_argument("--witness", help=_WITNESS_HELP)
    p.add_argument("--t", type=int, help="thickening level to verify")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("reduce-sat",
                       help="compile an instance to an implication formula")
    p.add_argument("h_file")
    p.add_argument("instance_file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce_sat)

    p = sub.add_parser("reduce-ising",
                       help="edge-replace a graph into a list instance")
    p.add_argument("g_file")
    p.add_argument("h_file")
    p.add_argument("--witness", help=_WITNESS_HELP)
    p.add_argument("--t", type=int, help="thickening level")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce_ising)

    p = sub.add_parser("selftest", help="verify the catalog and the invariants")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def grid_edges(k: int, rows: int | None = None) -> list[tuple[int, int]]:
    """Edges of the grid of rows x k vertices (k x k without rows), vertex
    (r, c) numbered r * k + c + 1."""
    rows = k if rows is None else rows
    edges = [(r * k + c + 1, r * k + c + 2) for r in range(rows) for c in range(k - 1)]
    return edges + [(r * k + c + 1, r * k + c + k + 1) for r in range(rows - 1) for c in range(k)]


def grid_transfer_count(k: int, w, rows: int | None = None) -> int:
    """Sum over all maps of the vertices of the grid of grid_edges(k, rows)
    to 0..n-1 of the product of w[a][b] over the grid's edges (w symmetric,
    n x n), by a row-by-row transfer matrix.  f holds one weight per
    colouring of the rows so far, indexed by the last row's colours as
    base-n digits, the first column lowest.  The vertical edges go in one
    column at a time: mixing the lowest digit and then moving it to the top
    turns the digits once round per row."""
    n = len(w)
    horizontal = []
    for state in range(n ** k):
        digits = [state // n ** c % n for c in range(k)]
        horizontal.append(prod(w[a][b] for a, b in zip(digits, digits[1:])))
    f = horizontal
    for _ in range((k if rows is None else rows) - 1):
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
