"""Line-oriented text formats for targets, instances and formulas.

Target file:    header "h <n>", then "e <u> <v>" per edge ("e v v" is a loop).
Instance file:  header "g <m>", then "e <u> <v>" edges and "l <v> <c1> ...
                <ck>" list lines; a vertex without an l line gets the full
                list, and "l <v>" alone empties it.  A plain graph file is
                an instance file without l lines.
Formula file:   header "f <nvars>", then "p <v>" (positive unit), "n <v>"
                (negative unit) and "i <a> <b>" (a implies b).

Blank lines and lines starting with "#" are ignored.  One line reader,
_directives, reads all three formats and checks their shared rules: the
header comes first and only once, and every other line is a directive of
the format with its number of integer arguments.  Each parser adds only
the checks of its own format.  Every line is checked as it is read, so a
ParseError (a Refusal) names the first bad line; the CLI exits with code 2
on one.

Target, graph and instance files take a faster route first.  A file laid
out as the serialisers write it (the header, then edge lines, then list
lines, with no blank or comment line) is read by _bulk in a few C-level
passes over all its lines: split every line, convert each column of
endpoints at once, check the pairs' order, range and repeats with min, max
and pairwise comparisons, and convert each distinct list of colours once,
so equal lists share one frozenset.  Any file that breaks a rule, or is
laid out otherwise, goes to the line reader, which names its first bad line;
a file that _bulk takes reads to the same value either way.
Serialisers emit canonical order, and parse(serialise(x)) == x for every
in-range value.
"""

from __future__ import annotations

from fractions import Fraction
from operator import eq, itemgetter, lt

from .graphs import ColourGraph, Instance, InstanceGraph, Refusal, full_lists
from .oracles import IMP, UNIT_NEG, UNIT_POS, ImplicationFormula


class ParseError(Refusal):
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


def _bulk(text: str, head: str, least: int, loops: bool, colour_count: int | None):
    """What _graph_file returns for a file that is its header line and then
    only well-formed edge lines and list lines, in that order, read with
    C-level passes over all lines at once; None for any other file, which
    the line reader then reads and whose first bad line it names.  Lines
    that list the same colours, as written, share one frozenset."""
    try:
        rows = list(map(str.split, text.splitlines()))
        tags = list(map(itemgetter(0), rows))  # IndexError on a blank line
        if tags[0] != head or len(rows[0]) != 2:
            return None
        n = int(rows[0][1])
        # the edge lines, then the list lines, as the serialisers write them
        k = len(rows) if colour_count is None else len(rows) - tags.count("l")
        erows, lrows = rows[1:k], rows[k:]
        if (n < least or tags[1:k].count("e") != k - 1 or tags[k:].count("l") != len(lrows)
                or {*map(len, erows)} - {3}):
            return None
        us = list(map(int, map(itemgetter(1), erows)))
        vs = list(map(int, map(itemgetter(2), erows)))
        edges = list(zip(us, vs))
        if not all(map(lt, us, vs)):  # a loop, or a pair written high end first
            if not loops and any(map(eq, us, vs)):
                return None
            edges = list(zip(map(min, us, vs), map(max, us, vs)))
        if not all(map(lt, edges, edges[1:])):
            edges.sort()
            if not all(map(lt, edges, edges[1:])):
                return None  # a parallel edge
        if edges and (edges[0][0] < 1 or max(map(itemgetter(1), edges)) > n):
            return None
        if colour_count is None:
            return n, edges, {}
        vertices = list(map(int, map(itemgetter(1), lrows)))
        if lrows and (min(vertices) < 1 or max(vertices) > n
                      or len(set(vertices)) != len(vertices)):
            return None
        keys = list(map(tuple, map(itemgetter(slice(2, None)), lrows)))
        read = {}
        for key in set(keys):
            cols = frozenset(map(int, key))
            if cols and (min(cols) < 1 or max(cols) > colour_count):
                return None
            read[key] = cols
    except (IndexError, ValueError):
        return None
    return n, edges, dict(zip(vertices, map(read.__getitem__, keys)))


def _graph_file(text: str, what: str, header: str, tags: dict, least: int, message: str,
                loops: bool, colour_count: int | None = None):
    """(n, edges, lists) of a target or graph file: its header's value, at
    least least, its edges as sorted pairs (u, v) with u <= v, and each
    listed vertex's colours.  In bulk when _bulk takes the file, else line
    by line."""
    read = _bulk(text, header[0], least, loops, colour_count)
    if read is not None:
        return read
    lines = _directives(text, what, header, tags)
    n = _header(lines, least, message)
    edges, lists = _graph_body(lines, n, loops, colour_count)
    return n, sorted(edges), lists


def parse_h(text: str) -> ColourGraph:
    n, edges, _ = _graph_file(text, "target", "h <n>", _EDGES, 1, "need at least one colour",
                              loops=True)
    return ColourGraph.from_edges(n, edges)


def serialise_h(h: ColourGraph) -> str:
    lines = [f"h {h.n}"]
    lines += [f"e {u} {v}" for u, v in h.edge_list()]
    return "\n".join(lines) + "\n"


def _parse_graph(text: str, colour_count: int | None = None):
    """(graph, lists) of an instance file, or of a plain graph file when
    there is no colour count."""
    m, edges, lists = _graph_file(
        text, "graph", "g <m>", _EDGES if colour_count is None else _INSTANCE,
        0, "vertex count must be non-negative", loops=False, colour_count=colour_count)
    return InstanceGraph(m, tuple(edges)), lists


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
    # each distinct list is written out once; a full list gets no line
    n = inst.colour_count
    colours = {s: "".join(f" {c}" for c in s) for s in set(inst.sorted_lists)}
    lines = [f"l {v}{colours[s]}\n"
             for v, s in enumerate(inst.sorted_lists, start=1) if len(s) != n]
    return serialise_graph(inst.g) + "".join(lines)


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
        raise Refusal(f"bad rational {text!r}: {exc}") from None
