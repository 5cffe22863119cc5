"""Exact counters that serve as ground truth everywhere else.

Three counters: list colourings of an instance against a colour graph, the
antiferromagnetic two-spin partition function, and model counts for CNF
formulas whose clauses carry at most one positive and one negative literal.

All three are front ends over one engine: exact variable (bucket)
elimination on a weighted binary constraint problem, eliminating variables
in greedy min-degree order.  Its cost is linear in the number of variables
and exponential only in the induced width of that order (1 on trees, 2 on
ladders), never in the size of the input.  Before building each table the
engine checks its size, the product of the domain sizes over the table's
scope plus the eliminated variable; above MAX_TABLE_SIZE it raises
ValueError naming the induced width instead of running out of time or
memory.

The engine can also keep a tuple of variables free (the query form of
bucket elimination): it sums out every other variable in the same order and
returns one weight per assignment of the kept ones, all from one pass.
list_hcol_table exposes this for list colourings; the gadget cross-check
reads a whole interaction matrix from it with both terminals kept.  Every
table that involves kept variables, the final one over them included, is
size-checked like any other.

Counts are exact Python ints; partition function values are exact Fractions.
No floating point anywhere.  All counters are deterministic and independent
of internal iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product
from math import prod
from operator import itemgetter

from .graphs import ColourGraph, Instance, InstanceGraph

UNIT_POS = "p"
UNIT_NEG = "n"
IMP = "i"

Clause = tuple  # ("p", v) | ("n", v) | ("i", a, b) meaning a implies b

# Largest elimination table the counters build, counted as the product of
# the domain sizes over its scope plus the eliminated variable.  Counting K2'
# on K_18 with full lists, whose first table is exactly this size, takes
# about 2 s and 60 MiB peak RSS on one core of an Intel Xeon VM (Python
# 3.11); the largest table in the tests and the benchmark has a few thousand
# entries.
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


def _eliminate(domains: list, factors, keep: tuple = ()) -> dict:
    """Sum the product of the factor weights over all assignments of one
    domain value per variable outside keep, by iterative bucket elimination.

    domains[v] lists the values of variable v (0-based).  Each factor is
    (u, v, table) with u != v, where table maps a value pair (a, b) for
    (u, v) to an int weight; a missing pair weighs 0.  Each step takes the
    free variable of least degree in the current interaction graph,
    multiplies the factors on it and sums it out, leaving one factor over
    its neighbours (keyed by value tuples, or by the bare value for a single
    neighbour).  A step with no neighbours yields a scalar, so connected
    components need no separate pass.  The variables in keep (distinct) are
    never eliminated: the factors left over at the end lie inside keep and
    are multiplied out per assignment of keep.  Returns a dict mapping each
    assignment of keep, as a tuple in keep's order, to its weight; zero
    weights are left out, so with no kept variables the count is the ()
    entry, or 0 if there is none.
    """
    if not all(domains):
        return {}  # before the size check: a zero count needs no table
    n = len(domains)
    kept = frozenset(keep)
    if len(kept) != len(keep):
        raise ValueError(f"kept variables must be distinct, got {keep!r}")
    size = prod(len(domains[v]) for v in keep)
    if size > MAX_TABLE_SIZE:
        raise ValueError(
            f"a table over {len(keep)} kept variables needs {size} entries, "
            f"above the limit of {MAX_TABLE_SIZE}"
        )
    live: list[tuple | None] = []  # factor id -> (scope, table), None once used
    on_var: list[list[int]] = [[] for _ in range(n)]  # ids of factors on v
    adj: list[set[int] | None] = [set() for _ in range(n)]
    for u, v, table in factors:
        on_var[u].append(len(live))
        on_var[v].append(len(live))
        live.append(((u, v), table))
        adj[u].add(v)
        adj[v].add(u)
    heap = [(len(nbrs), v) for v, nbrs in enumerate(adj) if v not in kept]
    heapify(heap)
    total = 1
    while heap:
        deg, x = heappop(heap)
        nbrs = adj[x]
        if nbrs is None or deg != len(nbrs):
            continue  # eliminated already, or a stale degree
        scope = tuple(sorted(nbrs))
        size = len(domains[x]) * prod(len(domains[v]) for v in scope)
        if size > MAX_TABLE_SIZE:
            raise ValueError(
                f"exact count needs a table of {size} entries at induced width "
                f"{len(scope)}, above the limit of {MAX_TABLE_SIZE}"
            )
        pos = {v: i for i, v in enumerate(scope)}
        pos[x] = len(scope)
        bucket = []
        for f in on_var[x]:
            if live[f] is not None:
                fscope, table = live[f]
                live[f] = None
                bucket.append((itemgetter(*[pos[v] for v in fscope]), table))
        out = {}
        for assign in product(*[domains[v] for v in scope]):
            s = 0
            for a in domains[x]:
                t = assign + (a,)
                w = 1
                for get, table in bucket:
                    w *= table.get(get(t), 0)
                    if not w:
                        break
                s += w
            if s:
                out[assign] = s
        if not out:
            return {}
        adj[x] = None
        if not scope:
            total *= out[()]
            continue
        if len(scope) == 1:
            out = {key[0]: w for key, w in out.items()}
        for v in scope:
            on_var[v].append(len(live))
            adj[v].discard(x)
            adj[v].update(scope)
            adj[v].discard(v)
            if v not in kept:
                heappush(heap, (len(adj[v]), v))
        live.append((scope, out))
    pos = {v: i for i, v in enumerate(keep)}
    rest = [(itemgetter(*[pos[v] for v in scope]), table)
            for scope, table in filter(None, live)]
    result = {}
    for assign in product(*[domains[v] for v in keep]):
        w = total
        for get, table in rest:
            w *= table.get(get(assign), 0)
            if not w:
                break
        if w:
            result[assign] = w
    return result


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

    Unit clauses shrink the variables' {0, 1} domains (a contradictory pair
    empties one) and each implication a -> b with a != b is a 0/1 table;
    "a -> a" is a tautology.  Variables touched by no clause double the
    count.
    """
    domains = [(0, 1)] * f.var_count
    factors = []
    for cl in f.clauses:
        if cl[0] == IMP:
            if cl[1] != cl[2]:
                factors.append((cl[1] - 1, cl[2] - 1, _IMPLIES_TABLE))
        else:
            v, value = cl[1] - 1, int(cl[0] == UNIT_POS)
            domains[v] = tuple(b for b in domains[v] if b == value)
    return _eliminate(domains, factors).get((), 0)
