"""Line-oriented text formats for targets, instances and formulas.

Target file:    header "h <n>", then "e <u> <v>" per edge ("e v v" is a loop).
Instance file:  header "g <m>", then "e <u> <v>" edges and "l <v> <c1> ...
                <ck>" list lines; a vertex without an l line gets the full
                list, and "l <v>" alone empties it.  A plain graph file is
                an instance file without l lines.
Formula file:   header "f <nvars>", then "p <v>" (positive unit), "n <v>"
                (negative unit) and "i <a> <b>" (a implies b).

Blank lines and lines starting with "#" are ignored.  One reader,
_directives, reads all three formats and checks their shared rules: the
header comes first and only once, and every other line is a directive of
the format with its number of integer arguments.  Each parser adds only
the checks of its own format.  Every line is checked as it is read, so a
ParseError names the first bad line; the CLI exits with code 2 on one.
Serialisers emit canonical order, and parse(serialise(x)) == x for every
in-range value.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import ColourGraph, Instance, InstanceGraph, full_lists
from .oracles import IMP, UNIT_NEG, UNIT_POS, ImplicationFormula


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# each format's directives after the header: tag -> (noun, argument count),
# None for any count
_EDGES = {"e": ("edge", 2)}
_INSTANCE = {**_EDGES, "l": ("list", None)}
_CLAUSES = {UNIT_POS: ("clause", 1), UNIT_NEG: ("clause", 1), IMP: ("clause", 2)}


def _directives(text: str, what: str, header: str, tags: dict):
    """(line_no, tag, ints) for each meaningful line of a `what` file, the
    header line first; header is its usage, such as "h <n>"."""
    head = header[0]
    seen_header = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        tag = fields[0]
        if tag == head:
            if seen_header:
                raise ParseError(line_no, "duplicate header")
            seen_header = True
            count = 1
        elif tag in tags:
            noun, count = tags[tag]
            if not seen_header:
                raise ParseError(line_no, f"{noun} before {head!r} header")
        else:
            raise ParseError(line_no, f"unknown directive {tag!r} in {what} file")
        if count is not None and len(fields) - 1 != count:
            raise ParseError(line_no, f"{tag!r} takes {count} argument(s)")
        try:
            ints = [int(x) for x in fields[1:]]
        except ValueError as exc:
            raise ParseError(line_no, f"non-integer field: {exc}") from None
        yield line_no, tag, ints
    if not seen_header:
        raise ParseError(1, f"missing {header!r} header")


def _header(lines, least: int, message: str) -> int:
    line_no, _, (n,) = next(lines)
    if n < least:
        raise ParseError(line_no, message)
    return n


def _graph_body(lines, n: int, loops: bool, colour_count: int | None = None):
    """(edges, lists) from the lines after a target or graph header; each
    edge is a pair (u, v) with u <= v, in range and seen once, and lists
    maps each listed vertex to its colours, in range 1..colour_count."""
    edges = []
    seen = set()  # the pairs in edges, for the duplicate check
    lists = {}
    for line_no, tag, ints in lines:
        if tag == "e":
            u, v = ints
            if u == v and not loops:
                raise ParseError(line_no, f"loop on vertex {u} not allowed")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(line_no, f"edge ({u},{v}) out of range 1..{n}")
            pair = (u, v) if u <= v else (v, u)
            if pair in seen:
                raise ParseError(line_no, f"parallel edge ({u},{v})")
            seen.add(pair)
            edges.append(pair)
            continue
        if not ints:
            raise ParseError(line_no, "'l' needs a vertex")
        v, *cols = ints
        if not (1 <= v <= n):
            raise ParseError(line_no, f"vertex {v} out of range 1..{n}")
        if v in lists:
            raise ParseError(line_no, f"duplicate list for vertex {v}")
        for c in cols:
            if not (1 <= c <= colour_count):
                raise ParseError(
                    line_no, f"vertex {v}: colour {c} out of range 1..{colour_count}")
        lists[v] = frozenset(cols)
    return edges, lists


def parse_h(text: str) -> ColourGraph:
    lines = _directives(text, "target", "h <n>", _EDGES)
    n = _header(lines, 1, "need at least one colour")
    edges, _ = _graph_body(lines, n, loops=True)
    return ColourGraph.from_edges(n, edges)


def serialise_h(h: ColourGraph) -> str:
    lines = [f"h {h.n}"]
    lines += [f"e {u} {v}" for u, v in h.edge_list()]
    return "\n".join(lines) + "\n"


def _parse_graph(text: str, colour_count: int | None = None):
    """(graph, lists) of an instance file, or of a plain graph file when
    there is no colour count."""
    lines = _directives(text, "graph", "g <m>", _EDGES if colour_count is None else _INSTANCE)
    m = _header(lines, 0, "vertex count must be non-negative")
    edges, lists = _graph_body(lines, m, loops=False, colour_count=colour_count)
    return InstanceGraph(m, tuple(sorted(edges))), lists


def parse_graph(text: str) -> InstanceGraph:
    return _parse_graph(text)[0]


def parse_instance(text: str, colour_count: int) -> Instance:
    g, lists = _parse_graph(text, colour_count)
    assignment = list(full_lists(g.m, colour_count))
    for v, cols in lists.items():
        assignment[v - 1] = cols
    return Instance(g, tuple(assignment), colour_count)


def serialise_graph(g: InstanceGraph) -> str:
    lines = [f"g {g.m}"]
    lines += [f"e {u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def serialise_instance(inst: Instance) -> str:
    lines = [f"g {inst.g.m}"]
    lines += [f"e {u} {v}" for u, v in inst.g.edges]
    everything = frozenset(range(1, inst.colour_count + 1))
    for v in inst.g.vertices:
        s = inst.lists[v - 1]
        if s != everything:
            lines.append(" ".join(["l", str(v), *map(str, sorted(s))]))
    return "\n".join(lines) + "\n"


def parse_formula(text: str) -> ImplicationFormula:
    lines = _directives(text, "formula", "f <nvars>", _CLAUSES)
    nvars = _header(lines, 0, "variable count must be non-negative")
    clauses = []
    for line_no, tag, ints in lines:
        for v in ints:
            if not (1 <= v <= nvars):
                raise ParseError(line_no, f"variable {v} out of range 1..{nvars}")
        clauses.append((tag, *ints))
    return ImplicationFormula(nvars, tuple(clauses))


def serialise_formula(f: ImplicationFormula) -> str:
    lines = [f"f {f.var_count}"]
    lines += [" ".join(map(str, cl)) for cl in f.clauses]
    return "\n".join(lines) + "\n"


def parse_fraction(text: str) -> Fraction:
    """A rational given as 'p/q' (or a plain integer)."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None
