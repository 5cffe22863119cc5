"""Core graph types and structural utilities.

Two kinds of graph live here.  A ColourGraph is the target graph whose
vertices play the role of colours; it may carry loops but never parallel
edges.  It is stored as one ascending neighbour row per colour, and this
module is the only one that reads that format; building one costs
O(n + m).  An InstanceGraph is the (possibly large) loop-free input graph
whose vertices receive colours, optionally constrained by per-vertex colour
lists.

Vertices and colours are 1-indexed everywhere.  All values are immutable
after construction and every function in this module is pure.

Every walk over either kind of graph (components, 2-colourings, and the
distances and shortest paths the recogniser reads) goes through the one
breadth-first search _bfs, which takes a start vertex and a neighbour
function.  A ColourGraph keeps its 2-colouring and its loop status once
computed, so colour_bipartition walks a target and reflexivity_status scans
its loops at most once, whoever asks.

Refusal is the error for input that a user can correct (a bad file, an
option out of range, a count above a stated limit); the CLI exits 2 on it
and 3 on any other exception.

Every immutable record of the package (the graphs here, certificates,
gadgets, plans) is a class decorated with frozen, and replace copies one
with some fields changed: the behaviour of dataclass(frozen=True) and of
the standard replace that the package uses, repr text included.  They
exist for start-up time.  Every command is a fresh process, and the
standard dataclass module pulls in a dozen others (inspect, ast, dis,
tokenize, ...), then each decorated class builds six methods; together
about a fifth of a cold `import listhom.cli`.  frozen compiles one short
source per class, __init__, __eq__ and __hash__, whose field reads are
plain attribute loads, so a record costs no more to build, compare or
hash than its dataclass did.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain
from operator import lt


class Refusal(ValueError):
    """An input the program declines, with the reason a user can act on."""


def frozen(cls):
    """Make cls an immutable record of the fields its own annotations name,
    in order, as dataclass(frozen=True) would, with the same repr.

    __match_args__ holds the field names.  __init__ takes the fields by
    position or keyword (a class attribute is that field's default), sets
    each with object.__setattr__ and then calls self.__post_init__ when the
    class has one.  Two records are equal when they are of the same class
    with equal fields, and hash as the tuple of their fields.  Assigning or
    deleting any attribute raises AttributeError; object.__setattr__ and
    cached_property still write to the instance's __dict__.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    params = "".join(f", {name}=_defaults[{name!r}]" if name in defaults else f", {name}"
                     for name in names)
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    mine = "".join(f"self.{name}, " for name in names)
    theirs = "".join(f"other.{name}, " for name in names)
    # one compiled source: the field reads are attribute loads, which the
    # interpreter specialises, so ==, hash and construction cost no more
    # than dataclass's own
    space = {"_defaults": defaults, "_set": object.__setattr__}
    exec(f"def __init__(self{params}):{body or ' pass'}\n"
         f"def __eq__(self, other):\n"
         f"    if other.__class__ is self.__class__:\n"
         f"        return ({mine}) == ({theirs})\n"
         f"    return NotImplemented\n"
         f"def __hash__(self):\n"
         f"    return hash(({mine}))\n", space)
    for name in ("__init__", "__eq__", "__hash__"):
        method = space[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__match_args__ = names
    cls.__repr__ = _record_repr
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


def replace(record, /, **changes):
    """A copy of a frozen record with the named fields changed.  The copy is
    built through __init__, so __post_init__ checks it again; a name that
    is not a field raises TypeError."""
    values = {name: getattr(record, name) for name in record.__match_args__}
    values.update(changes)
    return type(record)(**values)


def _record_repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({shown})"


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


@frozen
class ColourGraph:
    """Target graph over colours {1..n}, stored as neighbour rows.

    rows[v-1] is the strictly ascending tuple of colours adjacent to v, v
    itself included when v has a loop.  Building and validating a graph
    costs O(n + m).  Only this module reads rows and what is cached beside
    them (each colour's set, the 2-colouring and the loop status); other
    modules ask adjacent, has_loop, neighbours, degree, neighbour_set,
    connected_components, colour_bipartition and reflexivity_status.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a colour graph needs at least one colour")
        if len(self.rows) != self.n:
            raise ValueError(f"need {self.n} neighbour rows, got {len(self.rows)}")
        for v, row in enumerate(self.rows, start=1):
            if not all(map(lt, row, row[1:])):
                raise ValueError(f"neighbour row of {v} is not strictly ascending")
            if row and not (1 <= row[0] and row[-1] <= self.n):
                raise ValueError(f"neighbour row of {v} leaves the range 1..{self.n}")
        # each colour's set, which the symmetry check and adjacent read
        sets = tuple(map(frozenset, self.rows))
        if not all(v in sets[u - 1] for v, row in enumerate(self.rows, start=1) for u in row):
            raise ValueError("neighbour rows must be symmetric")
        object.__setattr__(self, "_sets", sets)

    @classmethod
    def from_edges(cls, n: int, edges) -> "ColourGraph":
        """Build from an iterable of pairs; the pair (v, v) is a loop on v."""
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
            rows[u - 1].append(v)
            if u != v:
                rows[v - 1].append(u)
        try:
            # sorted pairs (u, v) with u <= v, as the parser gives them,
            # fill every row in ascending order
            return cls(n, tuple(map(tuple, rows)))
        except ValueError:  # a row out of order or with a repeat
            return cls(n, tuple(tuple(sorted(set(row))) for row in rows))

    @property
    def colours(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def _sides(self) -> tuple[frozenset[int], frozenset[int]] | None:
        return _two_colouring(self.colours, self.neighbours)

    @cached_property
    def _status(self) -> str:
        return _loop_status(self)

    def neighbour_set(self, v: int) -> frozenset[int]:
        """The colours adjacent to v as a set, v itself when v has a loop."""
        return self._sets[v - 1]

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._sets[u - 1]

    def has_loop(self, v: int) -> bool:
        return v in self._sets[v - 1]

    def neighbours(self, v: int) -> tuple[int, ...]:
        """Colours adjacent to v, ascending, including v itself when v has a
        loop."""
        return self.rows[v - 1]

    def degree(self, v: int) -> int:
        """Number of neighbours other than v itself (loops do not count)."""
        return len(self.rows[v - 1]) - self.has_loop(v)

    def edge_list(self) -> list[tuple[int, int]]:
        """Sorted edges as (u, v) with u <= v; loops appear as (v, v)."""
        return [(u, v) for u, row in enumerate(self.rows, start=1) for v in row if v >= u]


@frozen
class InstanceGraph:
    """Simple loop-free graph on vertices {1..m} with a canonical edge tuple."""

    m: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("vertex count must be non-negative")
        # one comparison chain per edge, each edge compared as it stands; the
        # messages are sorted out only for an edge that fails
        prev = (0, 0)
        for edge in self.edges:
            u, v = edge
            if not 1 <= u < v <= self.m or edge <= prev:
                if u == v:
                    raise ValueError(f"loop ({u},{v}) not allowed in instance graphs")
                if not (1 <= u < v <= self.m):
                    raise ValueError(f"edge ({u},{v}) not canonical or out of range")
                raise ValueError("edges must be strictly sorted")
            prev = edge

    @classmethod
    def from_edges(cls, m: int, edges) -> "InstanceGraph":
        """Build from pairs in any order and orientation.  The pairs are
        sorted as one list, so a repeated pair sits beside its copy."""
        pairs = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop on vertex {u} not allowed")
            pairs.append((u, v) if u < v else (v, u))
        pairs.sort()
        prev = None
        for pair in pairs:
            if pair == prev:
                raise ValueError(f"parallel edge {pair}")
            prev = pair
        return cls(m, tuple(pairs))

    @property
    def vertices(self) -> range:
        return range(1, self.m + 1)

    @cached_property
    def neighbours(self) -> tuple[tuple[int, ...], ...]:
        """neighbours[v-1] is the sorted tuple of neighbours of v."""
        nbr: list[list[int]] = [[] for _ in range(self.m)]
        for u, v in self.edges:
            nbr[u - 1].append(v)
            nbr[v - 1].append(u)
        return tuple(tuple(sorted(ns)) for ns in nbr)


ListAssignment = tuple[frozenset[int], ...]


def full_lists(m: int, n: int) -> ListAssignment:
    """Every vertex allowed every colour of an n-colour target."""
    return (frozenset(range(1, n + 1)),) * m


@frozen
class Instance:
    """An input pair: a loop-free graph plus per-vertex allowed-colour sets.

    colour_count binds the instance to targets with that many colours.
    Empty lists are permitted (they force a zero count).
    """

    g: InstanceGraph
    lists: ListAssignment
    colour_count: int

    def __post_init__(self):
        if len(self.lists) != self.g.m:
            raise ValueError("lists must cover exactly the vertices of g")
        n = self.colour_count
        # each distinct list once, by its least and greatest colour
        if any(s and (min(s) < 1 or max(s) > n) for s in set(self.lists)):
            v, c = next((v, c) for v, s in enumerate(self.lists, start=1)
                        for c in s if not 1 <= c <= n)
            raise ValueError(f"vertex {v}: colour {c} out of range")

    @classmethod
    def with_full_lists(cls, g: InstanceGraph, n: int) -> "Instance":
        return cls(g, full_lists(g.m, n), n)

    @cached_property
    def sorted_lists(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's list as an ascending tuple; equal lists share one
        tuple, so each distinct list is sorted once."""
        ascending = {s: tuple(sorted(s)) for s in set(self.lists)}
        return tuple(map(ascending.__getitem__, self.lists))


def _bfs(start: int, neighbours, limit: int | None = None) -> dict[int, tuple[int, int | None]]:
    """Breadth-first search from start.

    Maps each vertex reached, in visiting order, to its distance from start
    and the vertex it was reached from (None for start itself).  With a
    limit, vertices at that distance are reached but not expanded.
    """
    tree: dict[int, tuple[int, int | None]] = {start: (0, None)}
    visit = [start]
    for v in visit:
        d = tree[v][0] + 1
        if limit is not None and d > limit:
            break
        for u in neighbours(v):
            if u not in tree:
                tree[u] = (d, v)
                visit.append(u)
    return tree


def _forest(vertices, neighbours) -> list[dict[int, tuple[int, int | None]]]:
    """One BFS tree per vertex not reached yet, taken in the given order."""
    trees = []
    reached: set[int] = set()
    for v in vertices:
        if v not in reached:
            trees.append(_bfs(v, neighbours))
            reached.update(trees[-1])
    return trees


def _two_colouring(vertices, neighbours):
    """Sides by BFS depth parity, each tree root in the first; None when
    some edge joins two vertices of equal parity (a loop always does)."""
    parity = {
        v: d % 2 for tree in _forest(vertices, neighbours) for v, (d, _) in tree.items()
    }
    if any(parity[u] == parity[v] for v in vertices for u in neighbours(v)):
        return None
    v1 = frozenset(v for v in vertices if parity[v] == 0)
    v2 = frozenset(v for v in vertices if parity[v] == 1)
    return v1, v2


def connected_components(h: ColourGraph) -> list[frozenset[int]]:
    """Partition of the colours into maximal connected sets (loops irrelevant).

    Components are ordered by their smallest colour.
    """
    return [frozenset(tree) for tree in _forest(h.colours, h.neighbours)]


def induced_subgraph(h: ColourGraph, verts) -> ColourGraph:
    """Restrict h to a nonempty vertex set, relabelling 1..k in ascending order.

    Loops are preserved.  The whole of h is h itself, not a copy.
    """
    vs = sorted(set(verts))
    if not vs:
        raise ValueError("cannot induce on an empty vertex set")
    for v in vs:
        if not (1 <= v <= h.n):
            raise ValueError(f"vertex {v} out of range 1..{h.n}")
    if len(vs) == h.n:
        return h
    label = {v: i for i, v in enumerate(vs, start=1)}
    return ColourGraph(len(vs), tuple(
        tuple(label[u] for u in h.rows[v - 1] if u in label) for v in vs))


def reflexivity_status(h: ColourGraph) -> str:
    """One of "reflexive", "irreflexive" or "mixed".  h keeps it, so only
    the first call scans h's loops."""
    return h._status


def _loop_status(h: ColourGraph) -> str:
    loops = sum(v in row for v, row in enumerate(h.rows, start=1))
    if loops == h.n:
        return "reflexive"
    if loops == 0:
        return "irreflexive"
    return "mixed"


def bipartition(g: InstanceGraph) -> tuple[frozenset[int], frozenset[int]] | None:
    """A proper 2-colouring (V1, V2) of g, or None if g has an odd cycle.

    In each component, the smallest-index vertex is placed in V1.
    """
    return _two_colouring(g.vertices, lambda v: g.neighbours[v - 1])


def colour_bipartition(h: ColourGraph) -> tuple[frozenset[int], frozenset[int]] | None:
    """2-colouring of a colour graph; a loop counts as an odd cycle.

    In each component, the smallest colour is placed in V1.  h keeps it, so
    only the first call walks h.
    """
    return h._sides


def instance_components(g: InstanceGraph) -> list[frozenset[int]]:
    """Connected components of an instance graph, ordered by smallest vertex."""
    return [frozenset(tree) for tree in _forest(g.vertices, lambda v: g.neighbours[v - 1])]


def max_degree(g: InstanceGraph) -> int:
    """Largest vertex degree, counted from the edge tuple without building
    neighbour rows; 0 for an edgeless graph."""
    return max(Counter(chain.from_iterable(g.edges)).values(), default=0)
