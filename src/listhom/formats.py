"""Line-oriented text formats for targets, instances and formulas.

Target file:    header "h <n>", then "e <u> <v>" per edge ("e v v" is a loop).
Instance file:  header "g <m>", then "e <u> <v>" edges and "l <v> <c1> ...
                <ck>" list lines; a vertex without an l line gets the full
                list, and "l <v>" alone empties it.  A plain graph file is
                an instance file without l lines.
Formula file:   header "f <nvars>", then "p <v>" (positive unit), "n <v>"
                (negative unit) and "i <a> <b>" (a implies b).

A line ends at "\\n", "\\r\\n" or "\\r" and nowhere else, and blank lines
and lines starting with "#" are ignored.  Each parser reads its text in one
loop, once per line: a well-formed edge, list or clause line is checked and
stored in place, and each distinct list of colours, as written, is
converted once, so equal lists share one frozenset.  The header and any
line that breaks a rule the three formats share (the header comes first and
only once, and every other line is a directive of the format with its
number of integer arguments) go to one checker, _directive, which names the
fault.  A formula's clause line is read in the branch of its shape,
"i <a> <b>" or "p <v>" / "n <v>", which converts and range-checks its
integers in place.  That is the one check of the clause: the formula that
parse_formula returns is not checked again by ImplicationFormula.  Every
line is checked as it is read, so a ParseError (a Refusal) names the first
bad line; the CLI exits with code 2 on one.
Serialisers emit canonical order, and parse(serialise(x)) == x for every
in-range value.
"""

from __future__ import annotations

from fractions import Fraction

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


def _directive(line_no: int, fields: list, what: str, header: str, tags: dict,
               seen_header: bool) -> list:
    """The integer arguments of a line of a `what` file, split into fields,
    after checking the rules the three formats share: the header (header is
    its usage, such as "h <n>") comes first and only once, and every other
    line is a directive in tags with its number of integer arguments.  A
    ParseError names the first rule the line breaks."""
    tag, head = fields[0], header[0]
    if tag == head:
        if seen_header:
            raise ParseError(line_no, "duplicate header")
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
        return [int(x) for x in fields[1:]]
    except ValueError as exc:
        raise ParseError(line_no, f"non-integer field: {exc}") from None


def _lines(text: str) -> list:
    """The lines of text, each ended only by "\\n", "\\r\\n" or "\\r".
    str.splitlines also ends a line at a form feed, "\\v", "\\x1c" to
    "\\x1e", "\\x85", "\\u2028" and "\\u2029", which would cut a comment
    holding one in two and number every later line one too high."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _graph_file(text: str, what: str, header: str, tags: dict, least: int, message: str,
                loops: bool, colour_count: int | None = None):
    """(n, edges, lists) of a target or graph file: its header's value, at
    least least, its edges as sorted pairs (u, v) with u <= v, and each
    listed vertex's colours, in range 1..colour_count.  Lines that list the
    same colours, as written, share one frozenset."""
    n = None  # the header's value, once read
    edges = {}  # each pair read, in file order
    lists = {}
    shared = {}  # each list of colours, as written -> its frozenset
    for line_no, raw in enumerate(_lines(text), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        tag = fields[0]
        if tag == "e" and len(fields) == 3 and n is not None:
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:  # _directive names the field
                _directive(line_no, fields, what, header, tags, True)
            if u == v and not loops:
                raise ParseError(line_no, f"loop on vertex {u} not allowed")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(line_no, f"edge ({u},{v}) out of range 1..{n}")
            pair = (u, v) if u <= v else (v, u)
            if pair in edges:
                raise ParseError(line_no, f"parallel edge ({u},{v})")
            edges[pair] = None
        elif tag == "l" and n is not None and tag in tags:
            if len(fields) == 1:
                raise ParseError(line_no, "'l' needs a vertex")
            key = tuple(fields[2:])
            cols = shared.get(key)
            try:
                v = int(fields[1])
                if cols is None:
                    ints = [int(c) for c in key]
            except ValueError:  # _directive names the field
                _directive(line_no, fields, what, header, tags, True)
            if not (1 <= v <= n):
                raise ParseError(line_no, f"vertex {v} out of range 1..{n}")
            if v in lists:
                raise ParseError(line_no, f"duplicate list for vertex {v}")
            if cols is None:
                for c in ints:
                    if not (1 <= c <= colour_count):
                        raise ParseError(
                            line_no, f"vertex {v}: colour {c} out of range 1..{colour_count}")
                cols = shared[key] = frozenset(ints)
            lists[v] = cols
        else:
            # the header, or a line that _directive refuses
            (n,) = _directive(line_no, fields, what, header, tags, n is not None)
            if n < least:
                raise ParseError(line_no, message)
    if n is None:
        raise ParseError(1, f"missing {header!r} header")
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
    """The formula of a formula file, checked clause by clause as the
    module docstring says; the header and every other line go to
    _directive."""
    what, header = "formula", "f <nvars>"
    nvars = None  # the header's value, once read
    clauses = []
    append = clauses.append
    for line_no, raw in enumerate(_lines(text), start=1):
        fields = raw.split()
        if not fields:
            continue
        tag = fields[0]
        if tag == IMP and len(fields) == 3 and nvars is not None:
            try:
                a = int(fields[1])
                b = int(fields[2])
            except ValueError:  # _directive names the field
                _directive(line_no, fields, what, header, _CLAUSES, True)
            if not 1 <= a <= nvars:
                raise ParseError(line_no, f"variable {a} out of range 1..{nvars}")
            if not 1 <= b <= nvars:
                raise ParseError(line_no, f"variable {b} out of range 1..{nvars}")
            append((IMP, a, b))
        elif (tag == UNIT_POS or tag == UNIT_NEG) and len(fields) == 2 and nvars is not None:
            try:
                v = int(fields[1])
            except ValueError:  # _directive names the field
                _directive(line_no, fields, what, header, _CLAUSES, True)
            if not 1 <= v <= nvars:
                raise ParseError(line_no, f"variable {v} out of range 1..{nvars}")
            append((tag, v))
        elif tag[0] != "#":
            # the header, or a line that _directive refuses
            (nvars,) = _directive(line_no, fields, what, header, _CLAUSES, nvars is not None)
            if nvars < 0:
                raise ParseError(line_no, "variable count must be non-negative")
    if nvars is None:
        raise ParseError(1, f"missing {header!r} header")
    return ImplicationFormula._checked(nvars, tuple(clauses))


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
