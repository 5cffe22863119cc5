"""Exact counters that serve as ground truth everywhere else.

Three counters: list colourings of an instance against a colour graph, the
antiferromagnetic two-spin partition function, and model counts for CNF
formulas whose clauses carry at most one positive and one negative literal.

All three are front ends over one engine: exact variable (bucket)
elimination on a weighted binary constraint problem.  Its cost is linear in
the number of variables and exponential only in the induced width of the
elimination order (1 on trees, 2 on ladders, the side of a square grid),
never in the size of the input.  Each count runs in two parts.

The plan is symbolic: it eliminates on the interaction graph alone and
records each step's variable and scope, the order's induced width and its
largest table (the product of the domain sizes over a step's scope plus the
eliminated variable).  The order is greedy min-degree.  Only when that
order needs a table over MAX_TABLE_SIZE does the plan also try a BFS
profile order, each component swept breadth-first from a peripheral vertex
(the far end of a BFS from its smallest vertex), and keep whichever of the
two has the smaller largest table, min-degree on a tie.  On a k x k grid
the profile order has width k, and min-degree's grows past it.  If even that
order is over the limit, the engine raises ValueError naming the table
size, the induced width and both orders before it builds a single table,
instead of running out of time or memory.

The numeric pass then runs the plan on flat int tables indexed by domain
position, kept in one store: each table is filed under the first variable
of its scope in elimination order, parallel factors multiply into one
table per scope, and a variable's weight vector is its table over itself
alone.  A variable with a one-value domain drops out of every scope.  A
step takes the tables filed under its variable.  With no neighbours it
multiplies the total by the sum of the variable's vector, so connected
components need no separate pass; with two neighbours and a table to each
it is a matrix product; otherwise it repeats each table out to the step's
full scope with list slicing and multiplies them entry by entry (with one
neighbour, a vector-matrix product).  The result is filed like any other
table.

The engine can also keep a tuple of variables free (the query form of
bucket elimination): it sums out every other variable and returns one
weight per assignment of the kept ones, all from one pass.
list_hcol_table exposes this for list colourings; the gadget cross-check
reads a whole interaction matrix from it with both terminals kept.  Every
table that involves kept variables, the final one over them included, is
size-checked like any other.

The model counter does not hand the engine one variable per bit.  A
formula from reduce-sat numbers each vertex's chain x_{u,q} -> ... -> x_{u,0}
consecutively, and eliminating those bits one at a time makes min-degree see
several times the instance's width.  So count_1p1n covers the variables
with maximal runs of v + 1 -> v implications.  A run of L variables becomes
one variable over its L + 1 monotone levels, level k meaning its first k
variables hold.  Unit clauses and implications inside a run filter its
levels.  All implications from one run to another become one 0/1 table over
their levels: (x, y) is allowed exactly when y exceeds every offset j of an
implication i -> j with i < x.  On a reduce-sat formula the levels are the
vertex's colours, so the count runs at the instance's own width.  Grouping
can also cost more than bits: two long chains joined rung by rung make one
table over both chains' levels, quadratic in their length, where the bits
form a ladder of width 2.  So the grouped problem is planned first, before
any table is built.  Only when that plan is over the limit, or its total
table entries exceed the least a bit-level pass can cost (2 per variable
and 4 per implication), is the bit-level problem planned too.  The cheaper
plan within the limit runs, and when neither is within it the error names
both.

Counts are exact Python ints; partition function values are exact Fractions.
No floating point anywhere.  All counters are deterministic and independent
of internal iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, product
from math import prod
from operator import add, mul

from .graphs import ColourGraph, Instance, InstanceGraph, _bfs, _forest

UNIT_POS = "p"
UNIT_NEG = "n"
IMP = "i"

Clause = tuple  # ("p", v) | ("n", v) | ("i", a, b) meaning a implies b

# Largest elimination table the counters build, counted as the product of
# the domain sizes over its scope plus the eliminated variable.  Counting K2'
# on K_18 with full lists, whose first table is exactly this size, takes
# about 0.5 s and 27 MiB peak RSS on one core of an Intel Xeon VM (Python
# 3.11); K2' on the 16x16 grid, whose profile order needs tables of 2^17
# entries, takes about 1.5 s.  The largest table in the benchmark has a few
# thousand entries.
MAX_TABLE_SIZE = 1 << 18


def unit_pos(v: int) -> Clause:
    return (UNIT_POS, v)


def unit_neg(v: int) -> Clause:
    return (UNIT_NEG, v)


def implies(a: int, b: int) -> Clause:
    return (IMP, a, b)


@dataclass(frozen=True)
class ImplicationFormula:
    """CNF with unit clauses and implications only (one positive and one
    negative literal per clause, at most)."""

    var_count: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.var_count < 0:
            raise ValueError("variable count must be non-negative")
        for cl in self.clauses:
            if cl[0] in (UNIT_POS, UNIT_NEG):
                if len(cl) != 2:
                    raise ValueError(f"malformed unit clause {cl!r}")
                vs = (cl[1],)
            elif cl[0] == IMP:
                if len(cl) != 3:
                    raise ValueError(f"malformed implication {cl!r}")
                vs = (cl[1], cl[2])
            else:
                raise ValueError(f"unknown clause tag {cl[0]!r}")
            for v in vs:
                if not (1 <= v <= self.var_count):
                    raise ValueError(f"variable {v} out of range in {cl!r}")


@dataclass(frozen=True)
class _Plan:
    """An elimination order worked out on the interaction graph alone.

    steps lists (variable, scope) in elimination order; scope is the tuple
    of the variable's neighbours when it is summed out.  width and
    largest are the longest scope and the largest table (the product of the
    domain sizes over scope plus the variable).  A plan stops at its first
    step over MAX_TABLE_SIZE, and width and largest are then that step's.
    total is the sum of the steps' table entries, the one over the limit
    included.
    """

    rule: str
    steps: list
    width: int
    largest: int
    total: int


def _plan(rule: str, adj: list, size: list, kept, order=None) -> _Plan:
    """Eliminate symbolically on adj, which this uses up: adj[v] is the set
    of v's neighbours, or None for a variable outside the graph.  Without an
    order each step takes the free variable of least degree, the smaller one
    on a tie; with one, the variables in that order.  Variables in kept are
    never eliminated."""
    free = [nbrs is not None and v not in kept for v, nbrs in enumerate(adj)]
    if order is None:
        heap = [(len(adj[v]), v) for v in range(len(adj)) if free[v]]
        heapify(heap)
    steps = []
    width = largest = total = 0
    while True:
        if order is not None:
            if len(steps) == len(order):
                break
            x = order[len(steps)]
        else:
            if not heap:
                break
            deg, x = heappop(heap)
            if adj[x] is None or deg != len(adj[x]):
                continue  # eliminated already, or a stale degree
        scope = tuple(adj[x])
        adj[x] = None
        entries = size[x]
        for v in scope:
            entries *= size[v]
            others = adj[v]
            deg = len(others)
            others.discard(x)
            if len(scope) > 1:
                others.update(scope)
                others.discard(v)
            if order is None and free[v] and len(others) != deg:
                heappush(heap, (len(others), v))
        steps.append((x, scope))
        total += entries
        if entries > MAX_TABLE_SIZE:
            return _Plan(rule, steps, len(scope), entries, total)
        if entries > largest:
            largest = entries
        if len(scope) > width:
            width = len(scope)
    return _Plan(rule, steps, width, largest, total)


def _profile_order(adj: list, kept) -> list:
    """The free variables of the graph in BFS order, one component after
    another, each from a peripheral vertex: the last vertex reached by a BFS
    from the component's smallest vertex."""
    def neighbours(v):
        return sorted(adj[v])

    order = []
    for tree in _forest([v for v, nbrs in enumerate(adj) if nbrs is not None], neighbours):
        far = next(reversed(tree))
        order += [v for v in _bfs(far, neighbours) if v not in kept]
    return order


def _graph(factors, fixed: list) -> list:
    """The interaction graph: v -> the set of variables sharing a factor
    with v, or None for a variable to be conditioned out."""
    adj: list[set | None] = [None if f else set() for f in fixed]
    for u, v, _ in factors:
        if not (fixed[u] or fixed[v]):
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _best_plan(factors, fixed: list, size: list, kept) -> tuple[_Plan, _Plan | None]:
    """The min-degree plan, or the BFS profile plan when min-degree needs a
    table over MAX_TABLE_SIZE and the profile's largest table is smaller;
    with the other plan drawn up, or None when min-degree fits.  Only the
    ends of each factor are read."""
    plan = _plan("min-degree", _graph(factors, fixed), size, kept)
    if plan.largest <= MAX_TABLE_SIZE:
        return plan, None
    adj = _graph(factors, fixed)
    other = _plan("BFS profile", adj, size, kept, _profile_order(adj, kept))
    return (other, plan) if other.largest < plan.largest else (plan, other)


def _refusal(plan: _Plan, other: _Plan) -> ValueError:
    """The error for a count whose best plan, plan, is over MAX_TABLE_SIZE;
    other is the next best."""
    return ValueError(
        f"exact count needs a table of {plan.largest} entries at induced "
        f"width {plan.width}, above the limit of {MAX_TABLE_SIZE} "
        f"({plan.rule}; {other.rule}: width {other.width}, "
        f"{other.largest} entries)"
    )


def _insert_axis(table: list, outer: int, d: int, inner: int) -> list:
    """A flat table laid out as (outer, inner), repeated along a new middle
    axis of size d: by copying whole blocks when there are few of them, else
    by one strided slice per position in the block."""
    if outer <= d * inner:
        return list(chain.from_iterable(
            table[o * inner:o * inner + inner] * d for o in range(outer)))
    out = [0] * (len(table) * d)
    span = d * inner
    for k in range(d):
        for j in range(inner):
            out[k * inner + j::span] = table[j::inner]
    return out


def _broadcast(table: list, scope: tuple, joint: tuple, size: list) -> list:
    """A flat table over scope as a flat table over joint, repeated along
    the variables it lacks; scope lists its variables in joint's order."""
    have = set(scope)
    outer = 1
    inner = len(table)
    for v in joint:
        d = size[v]
        if v in have:
            inner //= d
        else:
            table = _insert_axis(table, outer, d, inner)
        outer *= d
    return table


def _eliminate(domains: list, factors, keep: tuple = (), plan: _Plan | None = None) -> dict:
    """Sum the product of the factor weights over all assignments of one
    domain value per variable outside keep, by iterative bucket elimination.

    domains[v] lists the values of variable v (0-based).  factors is a
    sequence of (u, v, table) with u != v, where table maps a value pair
    (a, b) for (u, v) to an int weight; a missing pair weighs 0.  The
    variables in keep (distinct) are never eliminated.  Returns a dict
    mapping each assignment of keep, as a tuple in keep's order, to its
    weight; zero weights are left out, so with no kept variables the count
    is the () entry, or 0 if there is none.

    The plan comes first (see the module docstring); a count it refuses
    builds no table.  A caller that has drawn up a plan for exactly these
    domains and factors, with nothing kept, may pass it in.  Then every
    factor becomes a flat int table over domain positions, row-major over
    its scope: its variables in elimination order, so the variable summed
    out is always the first axis and each of its values a slice.  A
    variable outside keep with a one-value domain drops out of every scope,
    and a factor with two such ends is a scalar on the total.  There is one
    store: tables[v] maps each scope whose first variable is v to its
    table, parallel tables multiplying into one, and v's weight vector is
    the entry over (v,).  A step pops what is filed under its variable,
    sums that variable out and files the result under the first variable of
    what is left.
    """
    if not all(domains):
        return {}  # before the size check: a zero count needs no table
    n = len(domains)
    kept = frozenset(keep)
    if len(kept) != len(keep):
        raise ValueError(f"kept variables must be distinct, got {keep!r}")
    size = [len(d) for d in domains]
    ksize = prod([size[v] for v in keep])
    if ksize > MAX_TABLE_SIZE:
        raise ValueError(
            f"a table over {len(keep)} kept variables needs {ksize} entries, "
            f"above the limit of {MAX_TABLE_SIZE}"
        )
    fixed = [d == 1 for d in size]
    for v in keep:
        fixed[v] = False

    if plan is None:
        plan, other = _best_plan(factors, fixed, size, kept)
        if plan.largest > MAX_TABLE_SIZE:
            raise _refusal(plan, other)
    pos = [0] * n  # elimination position; the kept variables come last
    for i, (x, _) in enumerate(plan.steps):
        pos[x] = i
    for i, v in enumerate(keep, start=len(plan.steps)):
        pos[v] = i

    # a flat table over a variable with a one-value domain is one over the
    # rest of its scope.  No table is changed in place, so factors with the
    # same table and domains share one flat copy.
    tables: list[dict[tuple, list] | None] = [{} for _ in range(n)]
    total = 1
    interned: dict[tuple, int] = {}
    dom_id = [interned.setdefault(tuple(d), len(interned)) for d in domains]
    flat_of: dict[tuple, list] = {}
    for u, v, table in factors:
        swap = pos[u] > pos[v]
        key = (id(table), dom_id[u], dom_id[v], swap)
        flat = flat_of.get(key)
        if flat is None:
            if swap:
                flat = [table.get((a, b), 0) for b in domains[v] for a in domains[u]]
            else:
                flat = [table.get((a, b), 0) for a in domains[u] for b in domains[v]]
            flat_of[key] = flat
        if fixed[u] or fixed[v]:
            if fixed[u] and fixed[v]:
                total *= flat[0]
                continue
            scope = (v,) if fixed[u] else (u,)
        else:
            scope = (v, u) if swap else (u, v)
        mine = tables[scope[0]]
        old = mine.get(scope)
        mine[scope] = flat if old is None else list(map(mul, old, flat))
    if not total:
        return {}

    for x, scope in plan.steps:
        dx = size[x]
        mine = tables[x]
        tables[x] = None  # frees them after this step; nothing is filed under x again
        ux = mine.pop((x,), None) or [1] * dx
        if not scope:
            s = sum(ux)
            if not s:
                return {}
            total *= s
            continue
        if len(scope) == 2:
            if pos[scope[0]] > pos[scope[1]]:
                scope = scope[::-1]
        elif len(scope) > 2:
            scope = tuple(sorted(scope, key=pos.__getitem__))
        joint = (x,) + scope
        out = None
        if len(scope) == 2 and joint not in mine:
            # out[j, k] = sum_i ux[i] * t[i, j] * r[i, k]
            y, z = scope
            dy, dz = size[y], size[z]
            t, r = mine[x, y], mine[x, z]
            for i in range(dx):
                u = ux[i]
                if u:
                    zrow = r[i * dz:i * dz + dz]
                    if u != 1:
                        zrow = [u * e for e in zrow]
                    o = [p * q for p in t[i * dy:i * dy + dy] for q in zrow]
                    out = o if out is None else list(map(add, out, o))
        else:
            # acc: the product of the tables on x over joint, so that
            # out = sum_i ux[i] * acc[i, ...]; with one neighbour that is a
            # vector-matrix product
            acc = None
            for tscope, t in mine.items():
                if tscope != joint:
                    t = _broadcast(t, tscope, joint, size)
                acc = t if acc is None else list(map(mul, acc, t))
            span = len(acc) // dx
            for i in range(dx):
                u = ux[i]
                if u:
                    block = acc[i * span:i * span + span]
                    if u != 1:
                        block = [u * e for e in block]
                    out = block if out is None else list(map(add, out, block))
        if out is None or not any(out):
            return {}
        mine = tables[scope[0]]
        old = mine.get(scope)
        mine[scope] = out if old is None else list(map(mul, old, out))

    if not keep:
        return {(): total}
    # what is left is filed under keep, each scope in keep's order
    acc = [total] * ksize
    for v in keep:
        for tscope, t in tables[v].items():
            acc = list(map(mul, acc, _broadcast(t, tscope, keep, size)))
    return {key: w for key, w in zip(product(*[domains[v] for v in keep]), acc) if w}


def count_list_hcol(h: ColourGraph, inst: Instance) -> int:
    """Exact number of list colourings of inst against h.

    A colouring assigns each vertex a colour from its list such that the two
    endpoint colours of every edge are adjacent in h.  Each vertex is a
    variable over its list and each edge carries h's adjacency as a 0/1
    table.
    """
    return list_hcol_table(h, inst, ()).get((), 0)


def list_hcol_table(h: ColourGraph, inst: Instance, keep) -> dict:
    """Exact number of list colourings of inst against h, per colouring of
    the vertices in keep.

    keep is a tuple of distinct 1-based vertices of inst.  Returns a dict
    mapping each tuple of colours for keep (in keep's order) to the number
    of list colourings that give those vertices those colours; tuples with
    no colouring are left out.  One elimination pass sums out every other
    vertex, so the table costs about as much as a single count.
    """
    if inst.colour_count != h.n:
        raise ValueError(
            f"instance expects {inst.colour_count} colours, target has {h.n}"
        )
    keep = tuple(keep)
    for v in keep:
        if not (1 <= v <= inst.g.m):
            raise ValueError(f"kept vertex {v} out of range 1..{inst.g.m}")
    adjacent = {(a, b): 1 for a in h.colours for b in h.neighbours(a)}
    return _eliminate(
        [sorted(s) for s in inst.lists],
        [(u - 1, v - 1, adjacent) for u, v in inst.g.edges],
        tuple(v - 1 for v in keep),
    )


def ising_partition(g: InstanceGraph, lam: Fraction) -> Fraction:
    """Exact two-spin partition function with an antiferromagnetic weight.

    Sums over all assignments of +-1 spins to the vertices; each edge whose
    endpoints agree contributes a factor lam, all other edges contribute 1.
    Only 0 < lam < 1 is accepted.  With lam = p/q every edge carries the
    integer table [[p, q], [q, p]], and the integer total is divided by
    q^|E| once at the end.
    """
    lam = Fraction(lam)
    if not (0 < lam < 1):
        raise ValueError(f"weight must satisfy 0 < lam < 1, got {lam}")
    p, q = lam.numerator, lam.denominator
    table = {(0, 0): p, (0, 1): q, (1, 0): q, (1, 1): p}
    total = _eliminate(
        [(0, 1)] * g.m, [(u - 1, v - 1, table) for u, v in g.edges]
    ).get((), 0)
    return Fraction(total, q ** len(g.edges))


_IMPLIES_TABLE = {(0, 0): 1, (0, 1): 1, (1, 1): 1}


def count_1p1n(f: ImplicationFormula) -> int:
    """Exact number of satisfying 0/1 assignments of an implication formula.

    A unit clause fixes its variable, "a -> a" always holds, and a variable
    touched by no clause doubles the count.  The formula is counted at the
    width of its chains rather than of its bits:

    * a run is a maximal range of consecutive variables v, v + 1, ..., each
      implying the one before it, as reduce-sat numbers each vertex's chain;
      a variable in no such implication is a run of one.  A run of L
      variables becomes one engine variable over its L + 1 levels, level k
      meaning that its first k variables hold and the rest do not;
    * a unit clause keeps the levels above or at most the variable's offset,
      and an implication from offset i to a later offset j of the same run
      drops the levels i + 1..j (one to an earlier offset always holds);
    * the implications from run A to run B, offset i to offset j each,
      become one 0/1 table over the two runs' levels: it allows (x, y)
      exactly when y > max{j : i < x}.  Runs with no level left give 0.

    The grouped problem is planned before any table is built.  When its
    plan is over MAX_TABLE_SIZE, or its total entries exceed the least a
    bit-level pass can cost (2 per variable plus 4 per implication), the
    bit-level problem, one variable per bit and one table per implication,
    is planned too, and the cheaper of the two plans within the limit runs,
    the grouped one on a tie.  When neither is within the limit, the
    ValueError names both before any table is built.
    """
    n = f.var_count
    imps = []
    units = []
    linked = [False] * n  # linked[v]: v + 1 implies v
    for cl in f.clauses:
        if cl[0] == IMP:
            a, b = cl[1] - 1, cl[2] - 1
            if a != b:
                imps.append((a, b))
                if a == b + 1:
                    linked[b] = True
        else:
            units.append((cl[1] - 1, cl[0] == UNIT_POS))

    start = [v for v in range(n) if not v or not linked[v - 1]]  # each run's first variable
    length = [b - a for a, b in zip(start, start[1:] + [n])]
    run = []
    for r, span in enumerate(length):
        run += [r] * span
    lo = [0] * len(start)
    hi = list(length)
    for v, value in units:
        r = run[v]
        i = v - start[r]
        if value:
            if lo[r] <= i:
                lo[r] = i + 1
        elif hi[r] > i:
            hi[r] = i
    cuts: dict[int, list] = {}  # run -> its changes in how many cuts cover a level
    after: dict[tuple, dict] = {}  # (run A, run B) -> {offset i in A: largest j in B}
    for a, b in imps:
        ra, rb = run[a], run[b]
        i, j = a - start[ra], b - start[rb]
        if ra == rb:
            if j > i:
                diff = cuts.get(ra)
                if diff is None:
                    diff = cuts[ra] = [0] * (length[ra] + 2)
                diff[i + 1] += 1
                diff[j + 1] -= 1
        else:
            most = after.get((ra, rb))
            if most is None:
                after[ra, rb] = {i: j}
            elif most.get(i, -1) < j:
                most[i] = j
    domains = []
    for r in range(len(start)):
        levels = range(lo[r], hi[r] + 1)
        if r in cuts:
            covered = list(accumulate(cuts[r]))
            levels = [x for x in levels if not covered[x]]
        if not levels:
            return 0
        domains.append(tuple(levels))

    size = [len(d) for d in domains]
    pairs = [(ra, rb, None) for ra, rb in after]
    plan, _ = _best_plan(pairs, [d == 1 for d in size], size, ())
    if plan.largest > MAX_TABLE_SIZE or plan.total > 2 * n + 4 * len(imps):
        bits = [(0, 1)] * n
        for v, value in units:
            bits[v] = tuple(b for b in bits[v] if b == value)
        factors = [(a, b, _IMPLIES_TABLE) for a, b in imps]
        bsize = [len(d) for d in bits]
        bplan, _ = _best_plan(factors, [d == 1 for d in bsize], bsize, ())
        if bplan.largest <= MAX_TABLE_SIZE and (
                plan.largest > MAX_TABLE_SIZE or bplan.total < plan.total):
            return _eliminate(bits, factors, plan=bplan).get((), 0)
        if plan.largest > MAX_TABLE_SIZE:
            a = replace(plan, rule=f"chain levels, {plan.rule}")
            b = replace(bplan, rule=f"bits, {bplan.rule}")
            raise _refusal(*((a, b) if a.largest <= b.largest else (b, a)))

    factors = []
    interned: dict[tuple, dict] = {}
    for (ra, rb), most in after.items():
        bound = [-1] * (length[ra] + 1)  # bound[x] = max{j : i < x}
        for i, j in most.items():
            bound[i + 1] = j
        bound = list(accumulate(bound, max))
        da, db = domains[ra], domains[rb]
        key = (da, db, tuple(bound[x] for x in da))
        table = interned.get(key)
        if table is None:
            table = interned[key] = {
                (x, y): 1 for x in da for y in db if y > bound[x]}
        factors.append((ra, rb, table))
    return _eliminate(domains, factors, plan=plan).get((), 0)
