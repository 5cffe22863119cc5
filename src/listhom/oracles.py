"""Exact counters that serve as ground truth everywhere else.

Three counters: list colourings of an instance against a colour graph, the
antiferromagnetic two-spin partition function, and model counts for CNF
formulas whose clauses carry at most one positive and one negative literal.

All three are front ends over one engine: exact variable (bucket)
elimination on a weighted binary constraint problem.  Its cost is linear in
the number of variables and exponential only in the induced width of the
elimination order (1 on trees, 2 on ladders, the side of a square grid),
never in the size of the input.  Each count runs in three parts: a
series-parallel phase on two-value inputs, a symbolic plan and a numeric
pass.

The series-parallel phase runs when no plan is passed in and every variable
that is not fixed to one value has two values, kept ones included.  Every
instance that reduce-ising writes and every gadget the brute-force check
counts has this shape: a path gadget with two-colour lists, thickened by
parallel doubling, put on each edge of a graph.  One-value variables drop
out first.  A worklist then sums out every free variable of degree at most
two.  Each table over two variables is a 4-tuple and each weight vector a
2-tuple; parallel tables multiply entry by entry, and a degree-two step is
one explicit 2x2 product, with no heap, no plan and no flat lists.  When
nothing free is left, the count, or the table over at most two kept
variables, is read off what remains.  Otherwise a kernel is left whose free
variables all have degree three or more (a grid, or reduce-ising on a graph
that is not series-parallel).  Reduction by degree at most two ends in the
same kernel whatever its order, so min-degree on the kernel makes the same
choices as the tail of min-degree on the whole graph.  The kernel's plan
then runs on the phase's tables, vectors and running total, with no
recount.  Only when that plan needs a table over MAX_TABLE_SIZE are the
2x2 tables dropped and the whole graph planned as below, which keeps the
BFS profile choice and the refusal text.

The plan is symbolic: it eliminates on the interaction graph alone and
records each step's variable and scope, the order's induced width and its
largest table (the product of the domain sizes over a step's scope plus the
eliminated variable).  The order is greedy min-degree, from a heap of int
keys (degree times the variable count, plus the variable), so that a tie
goes to the smaller variable without comparing tuples.  Every step, in
either order, joins its scope into each neighbour's set by one rule.  Only
when that order needs a table over MAX_TABLE_SIZE does the plan also try a
BFS profile order, each component swept breadth-first from a peripheral
vertex (the far end of a BFS from its smallest vertex), and keep whichever
of the two has the smaller largest table, min-degree on a tie.  On a k x k
grid the profile order has width k, and min-degree's grows past it.  If
even that order is over the limit, the engine raises a Refusal naming the
table size, the induced width and both orders before it builds any table
over more than two variables, instead of running out of time or memory.

The numeric pass then runs the plan on flat int tables indexed by domain
position.  Each variable's weight vector is kept apart; a table over two
variables is filed under the first of them in elimination order, keyed by
the other, and a wider table under its first variable, keyed by its scope.
Parallel factors multiply into one table, a variable with a one-value
domain drops out of every scope, and factors with the same table and the
same domain objects share one flat table.  A step takes its variable's
vector and the tables filed under it.  With no neighbours it multiplies the
total by the sum of the vector, so connected components need no separate
pass; with one neighbour it is a vector-matrix product over the table's
columns; with two neighbours and a table to each it is a matrix product;
otherwise it repeats each table out to the step's full scope with list
slicing and multiplies them entry by entry.  The result joins the vector or
the table of what is left.  Bucket elimination (Dechter 1999) costs about
n d^(w+1) in table entries, so at d = 2 and width 1 or 2 the per-step costs
are nearly all of a count; that is what the series-parallel phase saves.

The engine can also keep a tuple of variables free (the query form of
bucket elimination): it sums out every other variable and returns one
weight per assignment of the kept ones, all from one pass.
list_hcol_table exposes this for list colourings; the gadget cross-check
reads a whole interaction matrix from it with both terminals kept.  Every
table that involves kept variables, the final one over them included, is
size-checked like any other.

The model counter takes each clause as checked once: by ImplicationFormula
when the formula is built directly, or by formats.parse_formula as it reads
the clause's line, and a parsed formula is not checked again.  It does not
hand the engine one variable per bit.  A formula from reduce-sat numbers
each vertex's chain x_{u,q} -> ... -> x_{u,0} consecutively, and
eliminating those bits one at a time makes min-degree see several times the
instance's width.  So count_1p1n covers the variables with maximal runs of
v + 1 -> v implications.  A run of L variables becomes one variable over
its L + 1 monotone levels, level k meaning its first k variables hold.
Unit clauses and implications inside a run filter its levels; the links
v + 1 -> v that join a run hold at every level, so the one pass over the
clauses that finds the runs sets aside only the units and the other
implications for filing.  All implications from one run to another become
one 0/1 table over their levels: (x, y) is allowed exactly when y exceeds
every offset j of an implication i -> j with i < x.  When no implication
joins two runs, the runs count apart: the answer is the product of their
level counts, with no plan and no table, however long a run is.  On a
reduce-sat formula the levels are the vertex's colours, so the count runs
at the instance's own width.  Grouping can also cost more than bits: two
long chains joined rung by rung make one table over both chains' levels,
quadratic in their length, where the bits form a ladder of width 2.  So
the grouped problem is planned first, before any table is built.  Only when
that plan is over the limit, or its total table entries exceed the least a
bit-level pass can cost (2 per variable and 4 per implication), is the
bit-level problem planned too, and only until its total reaches a grouped
total that fits.  The cheaper plan within the limit runs, and when neither
is within it the error names both.

Counts are exact Python ints; partition function values are exact Fractions.
No floating point anywhere.  All counters are deterministic and independent
of internal iteration order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, compress, product
from math import prod
from operator import add, mul

from .graphs import ColourGraph, Instance, InstanceGraph, Refusal, _bfs, _forest

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
    negative literal per clause, at most).

    Built directly, the formula checks every clause's tag, arity and
    variable range and the variable count, and raises a ValueError on the
    first fault.  formats.parse_formula has already made each of those
    checks as it read the clause, so it builds the formula with _checked,
    which does not check it again."""

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

    @classmethod
    def _checked(cls, var_count: int, clauses: tuple) -> "ImplicationFormula":
        """The formula of clauses that a reader has already checked, built
        without __post_init__'s second pass over them."""
        f = object.__new__(cls)
        object.__setattr__(f, "var_count", var_count)
        object.__setattr__(f, "clauses", clauses)
        return f


@dataclass(frozen=True)
class _Plan:
    """An elimination order worked out on the interaction graph alone.

    steps lists (variable, scope) in elimination order; scope is the set
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


def _plan(rule: str, adj: list, size: list, kept, order=None, cap=None) -> _Plan:
    """Eliminate symbolically on adj, which this uses up: adj[v] is the set
    of v's neighbours, or None for a variable outside the graph.  Without an
    order each step takes the free variable of least degree, the smaller one
    on a tie; with one, the variables in that order.  Variables in kept are
    never eliminated.  With a cap, the plan also stops once its total
    reaches cap: count_1p1n runs a bit-level plan only when its total is
    below the grouped plan's.

    Every step follows one rule, whatever its number of neighbours: each
    neighbour of the variable summed out loses it and gains its other
    neighbours.  The heap holds degree * len(adj) + v for each free variable
    v, pushed again whenever v's degree changes, so a popped key whose
    degree is not v's current one is stale and skipped.
    """
    n = len(adj)
    if order is None:
        heap = [len(nbrs) * n + v for v, nbrs in enumerate(adj)
                if nbrs is not None and v not in kept]
        heapify(heap)
    else:
        heap = None
        order = iter(order)
    steps = []
    width = largest = total = 0
    while True:
        if heap is None:
            x = next(order, None)
            if x is None:
                break
            nbrs = adj[x]
        elif heap:
            key = heappop(heap)
            x = key % n
            nbrs = adj[x]
            if nbrs is None or key != len(nbrs) * n + x:
                continue  # eliminated already, or a stale degree
        else:
            break
        adj[x] = None
        scope = nbrs  # x's set is never changed again, so it is the scope
        k = len(scope)
        entries = size[x]
        # the other neighbours of x join each neighbour's set
        for v in scope:
            entries *= size[v]
            others = adj[v]
            deg = len(others)
            others |= nbrs
            others.discard(x)
            others.discard(v)
            if heap is not None and len(others) != deg and v not in kept:
                heappush(heap, len(others) * n + v)
        steps.append((x, scope))
        total += entries
        if entries > largest:
            if entries > MAX_TABLE_SIZE:
                return _Plan(rule, steps, k, entries, total)
            largest = entries
        if k > width:
            width = k
        if cap is not None and total >= cap:
            break
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


def _best_plan(factors, fixed: list, size: list, kept, cap=None,
               plan: _Plan | None = None) -> tuple[_Plan, _Plan | None]:
    """The min-degree plan, or the BFS profile plan when min-degree needs a
    table over MAX_TABLE_SIZE and the profile's largest table is smaller;
    with the other plan drawn up, or None when min-degree fits.  Only the
    ends of each factor are read.  Both plans stop at the cap, if any.  A
    caller that has drawn up the min-degree plan already passes it in."""
    if plan is None:
        plan = _plan("min-degree", _graph(factors, fixed), size, kept, None, cap)
    if plan.largest <= MAX_TABLE_SIZE:
        return plan, None
    adj = _graph(factors, fixed)
    other = _plan("BFS profile", adj, size, kept, _profile_order(adj, kept), cap)
    return (other, plan) if other.largest < plan.largest else (plan, other)


def _refusal(plan: _Plan, other: _Plan) -> Refusal:
    """The error for a count whose best plan, plan, is over MAX_TABLE_SIZE;
    other is the next best."""
    return Refusal(
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


def _series_parallel(domains: list, factors, fixed: list, keep: tuple):
    """Sum out every free variable of degree at most two, where every
    variable that is not fixed has two values.

    nb[v] maps each neighbour w of v to the table over (v, w) as a 4-tuple,
    entry 2i + j for v's i-th and w's j-th value, and the same table is
    filed transposed under w; vec[v] is v's weight vector as a 2-tuple,
    None while it is all ones.  Parallel tables multiply entry by entry.  A
    worklist holds the free variables of degree at most two: each is summed
    out into the vector of its one neighbour or the table between its two,
    and a neighbour joins the worklist when its degree falls to two.  Returns
    the table over keep as _eliminate does when nothing free is left and
    keep has at most two variables; otherwise (nb, vec, total) for what is
    left, where nb[v] is None for each variable summed out or fixed.
    """
    n = len(domains)
    free = [not f for f in fixed]
    for v in keep:
        free[v] = False
    nb: list[dict | None] = [None if f else {} for f in fixed]
    vec: list[tuple | None] = [None] * n
    total = 1
    # each factor's table as a 4-tuple and its transpose, once per table
    # and pair of domain objects
    tuples: dict[tuple, tuple] = {}
    for u, v, table in factors:
        if fixed[u] or fixed[v]:
            t = [table.get((a, b), 0) for a in domains[u] for b in domains[v]]
            if fixed[u] and fixed[v]:
                total *= t[0]
                continue
            if fixed[u]:
                u = v  # with u fixed, t is a vector over v's values
            old = vec[u]
            vec[u] = tuple(t) if old is None else (old[0] * t[0], old[1] * t[1])
            continue
        du, dv = domains[u], domains[v]
        key = (id(table), id(du), id(dv))
        both = tuples.get(key)
        if both is None:
            (a0, a1), (b0, b1), get = du, dv, table.get
            t = (get((a0, b0), 0), get((a0, b1), 0), get((a1, b0), 0), get((a1, b1), 0))
            both = tuples[key] = (t, (t[0], t[2], t[1], t[3]))
        nu = nb[u]
        old = nu.get(v)
        if old is None:
            nu[v], nb[v][u] = both
        else:
            t = both[0]
            t = (old[0] * t[0], old[1] * t[1], old[2] * t[2], old[3] * t[3])
            nu[v] = t
            nb[v][u] = (t[0], t[2], t[1], t[3])
    if not total:
        return {}

    work = [v for v in range(n) if free[v] and len(nb[v]) <= 2]
    for x in work:  # grows as degrees fall to two; never holds a variable twice
        nx = nb[x]
        ux = vec[x]
        nb[x] = vec[x] = None
        if len(nx) == 2:
            # t[j, k] = sum_i ux[i] * a[i, j] * b[i, k], over (y, z)
            (y, a), (z, b) = nx.items()
            a0, a1, a2, a3 = a
            if ux is not None:
                u0, u1 = ux
                a0, a1, a2, a3 = u0 * a0, u0 * a1, u1 * a2, u1 * a3
            b0, b1, b2, b3 = b
            t = (a0 * b0 + a2 * b2, a0 * b1 + a2 * b3, a1 * b0 + a3 * b2, a1 * b1 + a3 * b3)
            ny, nz = nb[y], nb[z]
            del ny[x], nz[x]
            old = ny.get(z)
            if old is not None:
                # y and z were joined already, so each loses a neighbour
                t = (old[0] * t[0], old[1] * t[1], old[2] * t[2], old[3] * t[3])
                if free[y] and len(ny) == 2:
                    work.append(y)
                if free[z] and len(nz) == 2:
                    work.append(z)
            ny[z] = t
            nz[y] = (t[0], t[2], t[1], t[3])
        elif nx:
            # out[j] = sum_i ux[i] * a[i, j]
            ((y, a),) = nx.items()
            if ux is None:
                out = (a[0] + a[2], a[1] + a[3])
            else:
                out = (ux[0] * a[0] + ux[1] * a[2], ux[0] * a[1] + ux[1] * a[3])
            old = vec[y]
            vec[y] = out if old is None else (old[0] * out[0], old[1] * out[1])
            ny = nb[y]
            del ny[x]
            if free[y] and len(ny) == 2:
                work.append(y)
        else:
            s = 2 if ux is None else ux[0] + ux[1]
            if not s:
                return {}
            total *= s
    if len(work) < free.count(True) or len(keep) > 2:
        return nb, vec, total
    if not keep:
        return {(): total}
    # what is left lies on keep: its vectors and the table between them
    a = keep[0]
    ua = vec[a] or (1, 1)
    if len(keep) == 1:
        return {(c,): total * w for c, w in zip(domains[a], ua) if w}
    b = keep[1]
    ub = vec[b] or (1, 1)
    t = nb[a].get(b, (1, 1, 1, 1))
    (a0, a1), (b0, b1) = domains[a], domains[b]
    weights = {(a0, b0): ua[0] * ub[0] * t[0], (a0, b1): ua[0] * ub[1] * t[1],
               (a1, b0): ua[1] * ub[0] * t[2], (a1, b1): ua[1] * ub[1] * t[3]}
    return {key: total * w for key, w in weights.items() if w}


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

    Two-value inputs take the series-parallel phase first (see the module
    docstring), and the plan comes next; a count the plan refuses builds no
    table over more than two variables.  A caller that has drawn up a plan
    for exactly these domains and factors, with nothing kept, may pass it
    in, and skips the phase.  Then every factor becomes a flat int table
    over domain positions, row-major over its scope: its variables in
    elimination order, so the variable summed out is always the first axis
    and each of its values a slice; a kernel left by the phase brings its
    tuples instead, each filed the same way.  Factors
    with the same table and the same domain objects share one flat table.
    A variable outside keep with a one-value domain drops out of every
    scope, and a factor with two such ends is a scalar on the total.  There
    are three stores: vec[v] is v's weight vector (None while it is all
    ones), pair[u][v] the table over (u, v), and wide[u] maps each scope of
    three or more variables to its table; a table is filed under the first
    variable of its scope, and parallel tables multiply into one.  A step
    takes its variable's vector and what is filed under it, sums the
    variable out and multiplies the result into the vector or the table of
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
        raise Refusal(
            f"a table over {len(keep)} kept variables needs {ksize} entries, "
            f"above the limit of {MAX_TABLE_SIZE}"
        )
    fixed = [d == 1 for d in size]
    for v in keep:
        fixed[v] = False

    kernel = None
    if plan is None:
        if size.count(2) + fixed.count(True) == n:  # every variable left has two values
            kernel = _series_parallel(domains, factors, fixed, keep)
            if isinstance(kernel, dict):
                return kernel
            adj = [None if nbrs is None else set(nbrs) for nbrs in kernel[0]]
            plan = _plan("min-degree", adj, size, kept)
            if plan.largest > MAX_TABLE_SIZE:
                kernel = None  # frees the 2x2 tables; the fallback starts from the factors
        if kernel is None:
            plan, other = _best_plan(factors, fixed, size, kept, plan=plan)
            if plan.largest > MAX_TABLE_SIZE:
                raise _refusal(plan, other)
    pos = [0] * n  # elimination position; the kept variables come last
    for i, (x, _) in enumerate(plan.steps):
        pos[x] = i
    for i, v in enumerate(keep, start=len(plan.steps)):
        pos[v] = i

    pair: list[dict | None] = [{} for _ in range(n)]  # pair[u][v]: the table over (u, v)
    wide: list[dict | None] = [None] * n  # wide[u]: scope -> table, three or more variables
    if kernel is not None:
        # the kernel's 2x2 tuples serve as its tables and vectors: a step
        # reads one only by index and slice, and never changes one in place
        nb, vec, total = kernel
        kernel = None
        for u, nbrs in enumerate(nb):
            if nbrs is not None:
                mine = pair[u]
                for v, t in nbrs.items():
                    if pos[u] < pos[v]:
                        mine[v] = t
        nb = None
    else:
        vec = [None] * n  # v's weight vector, None for all ones
        total = 1
        # no table is changed in place, so one flat copy serves every factor
        # with the same table and domains
        flat_of: dict[tuple, list] = {}
        dom_id = list(map(id, domains))
        for u, v, table in factors:
            swap = pos[u] > pos[v]
            if swap:
                u, v = v, u
            key = (id(table), dom_id[u], dom_id[v], swap)
            flat = flat_of.get(key)
            if flat is None:
                flat = flat_of[key] = [table.get((b, a) if swap else (a, b), 0)
                                       for a in domains[u] for b in domains[v]]
            if fixed[u] or fixed[v]:
                if fixed[u] and fixed[v]:
                    total *= flat[0]
                    continue
                u = v if fixed[u] else u  # a vector over the end that is left
                old = vec[u]
                vec[u] = flat if old is None else list(map(mul, old, flat))
                continue
            mine = pair[u]
            old = mine.get(v)
            mine[v] = flat if old is None else list(map(mul, old, flat))
    if not total:
        return {}

    for x, scope in plan.steps:
        ux = vec[x]
        pairs = pair[x]
        wides = wide[x]
        pair[x] = wide[x] = None  # frees them after this step; nothing is filed under x again
        if not scope:
            s = size[x] if ux is None else sum(ux)
            if not s:
                return {}
            total *= s
            continue
        if len(scope) == 1:
            # out[j] = sum_i ux[i] * t[i, j], over column j of the one table
            (y,) = scope
            t = pairs[y]
            dy = size[y]
            if ux is None:
                out = [sum(t[j::dy]) for j in range(dy)]
            else:
                out = [sum(map(mul, ux, t[j::dy])) for j in range(dy)]
            if not any(out):
                return {}
            old = vec[y]
            vec[y] = out if old is None else list(map(mul, old, out))
            continue
        dx = size[x]
        out = None
        if len(scope) == 2 and wides is None:
            # out[j, k] = sum_i ux[i] * t[i, j] * r[i, k]
            y, z = scope
            if pos[y] > pos[z]:
                y, z = z, y
            dy, dz = size[y], size[z]
            t, r = pairs[y], pairs[z]
            for i in range(dx):
                u = 1 if ux is None else ux[i]
                if u:
                    zrow = r[i * dz:i * dz + dz]
                    if u != 1:
                        zrow = [u * e for e in zrow]
                    o = [p * q for p in t[i * dy:i * dy + dy] for q in zrow]
                    out = o if out is None else list(map(add, out, o))
            if out is None or not any(out):
                return {}
            mine = pair[y]
            old = mine.get(z)
            mine[z] = out if old is None else list(map(mul, old, out))
            continue
        # acc: the product of the tables on x over joint, so that
        # out = sum_i ux[i] * acc[i, ...]
        if ux is None:
            ux = [1] * dx
        scope = tuple(sorted(scope, key=pos.__getitem__))
        joint = (x,) + scope
        acc = None
        for tscope, t in chain((((x, v), t) for v, t in pairs.items()), (wides or {}).items()):
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
        if len(scope) == 2:
            mine = pair[scope[0]]
            key = scope[1]
        else:
            mine = wide[scope[0]]
            if mine is None:
                mine = wide[scope[0]] = {}
            key = scope
        old = mine.get(key)
        mine[key] = out if old is None else list(map(mul, old, out))

    if not keep:
        return {(): total}
    # what is left lies on keep: the kept variables' vectors and the tables
    # filed under them, each scope in keep's order
    acc = [total] * ksize
    for v in keep:
        pieces = [((v, w), t) for w, t in pair[v].items()]
        pieces += (wide[v] or {}).items()
        if vec[v] is not None:
            pieces.append(((v,), vec[v]))
        for tscope, t in pieces:
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
        list(inst.sorted_lists),
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
        raise Refusal(f"weight must satisfy 0 < lam < 1, got {lam}")
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

    When no implication joins two runs, the count is the product of the
    runs' level counts, returned before any plan.  Otherwise the grouped
    problem is planned before any table is built.  When its plan is over
    MAX_TABLE_SIZE, or its total entries exceed the least a bit-level pass
    can cost (2 per variable plus 4 per implication), the bit-level
    problem, one variable per bit and one table per implication, is
    planned too, and the cheaper of the two plans within the limit runs,
    the grouped one on a tie.  When the grouped plan is within the limit,
    the bit-level one stops as soon as its total reaches the grouped total,
    since it can no longer win.  When neither is within the limit, the
    Refusal names both before any table is built.
    """
    n = f.var_count
    links = 0
    imps = []  # the implications a -> b other than a == b and a == b + 1
    units = []
    first = bytearray(b"\x01") * n  # first[v]: v begins a run (v does not imply v - 1)
    for cl in f.clauses:
        if cl[0] == IMP:
            a, b = cl[1] - 1, cl[2] - 1
            if a == b + 1:
                # it joins a run and holds at every level, so it files nothing
                first[a] = 0
                links += 1
            elif a != b:
                imps.append((a, b))
        else:
            units.append((cl[1] - 1, cl[0] == UNIT_POS))

    start = list(compress(range(n), first))  # each run's first variable
    length = [b - a for a, b in zip(start, start[1:] + [n])]
    lo = [0] * len(start)
    hi = list(length)
    for v, value in units:
        r = bisect_right(start, v) - 1
        i = v - start[r]
        if value:
            if lo[r] <= i:
                lo[r] = i + 1
        elif hi[r] > i:
            hi[r] = i
    cuts: dict[int, list] = {}  # run -> its changes in how many cuts cover a level
    after: dict[tuple, dict] = {}  # (run A, run B) -> {offset i in A: largest j in B}
    for a, b in imps:
        ra, rb = bisect_right(start, a) - 1, bisect_right(start, b) - 1
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
            levels = tuple([x for x in levels if not covered[x]])
        if not levels:
            return 0
        domains.append(levels)  # a range for a run without cuts

    size = [len(d) for d in domains]
    if not after:  # no implication joins two runs, so they count apart
        return prod(size)
    pairs = [(ra, rb, None) for ra, rb in after]
    plan, _ = _best_plan(pairs, [d == 1 for d in size], size, ())
    if plan.largest > MAX_TABLE_SIZE or plan.total > 2 * n + 4 * (links + len(imps)):
        bits = [(0, 1)] * n
        for v, value in units:
            bits[v] = tuple(b for b in bits[v] if b == value)
        factors = [(cl[1] - 1, cl[2] - 1, _IMPLIES_TABLE) for cl in f.clauses
                   if cl[0] == IMP and cl[1] != cl[2]]
        bsize = [len(d) for d in bits]
        # a bit-level plan can win only below a grouped plan that fits, so
        # it stops once its total reaches that plan's
        cap = None if plan.largest > MAX_TABLE_SIZE else plan.total
        bplan, _ = _best_plan(factors, [d == 1 for d in bsize], bsize, (), cap)
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
