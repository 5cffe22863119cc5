"""Line-oriented text formats for targets, instances and formulas.

Target file:    header "h <n>", then "e <u> <v>" per edge ("e v v" is a loop).
Instance file:  header "g <m>", then "e <u> <v>" edges and "l <v> <c1> ...
                <ck>" list lines; a vertex without an l line gets the full
                list, and "l <v>" alone empties it.
Formula file:   header "f <nvars>", then "p <v>" (positive unit), "n <v>"
                (negative unit) and "i <a> <b>" (a implies b).

Blank lines and lines starting with "#" are ignored.  Serialisers emit
canonical order, and parse(serialise(x)) == x for every in-range value.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import ColourGraph, Instance, InstanceGraph, full_lists
from .oracles import IMP, UNIT_NEG, UNIT_POS, ImplicationFormula


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _meaningful_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line.split()


def _int_fields(line_no, fields, expected: int | None = None):
    if expected is not None and len(fields) - 1 != expected:
        raise ParseError(line_no, f"'{fields[0]}' takes {expected} argument(s)")
    try:
        return [int(x) for x in fields[1:]]
    except ValueError as exc:
        raise ParseError(line_no, f"non-integer field: {exc}") from None


def parse_h(text: str) -> ColourGraph:
    n = None
    edges = []
    seen = set()  # the pairs in edges, for the duplicate check
    for line_no, fields in _meaningful_lines(text):
        tag = fields[0]
        if tag == "h":
            if n is not None:
                raise ParseError(line_no, "duplicate header")
            (n,) = _int_fields(line_no, fields, 1)
            if n < 1:
                raise ParseError(line_no, "need at least one colour")
        elif tag == "e":
            if n is None:
                raise ParseError(line_no, "edge before 'h' header")
            u, v = _int_fields(line_no, fields, 2)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(line_no, f"edge ({u},{v}) out of range 1..{n}")
            pair = (min(u, v), max(u, v))
            if pair in seen:
                raise ParseError(line_no, f"parallel edge ({u},{v})")
            seen.add(pair)
            edges.append(pair)
        else:
            raise ParseError(line_no, f"unknown directive {tag!r} in target file")
    if n is None:
        raise ParseError(1, "missing 'h <n>' header")
    return ColourGraph.from_edges(n, edges)


def serialise_h(h: ColourGraph) -> str:
    lines = [f"h {h.n}"]
    lines += [f"e {u} {v}" for u, v in h.edge_list()]
    return "\n".join(lines) + "\n"


def _parse_graph_lines(text: str, allow_lists: bool):
    m = None
    edges = []
    seen = set()  # the pairs in edges, for the duplicate check
    lists: dict[int, tuple[int, list[int]]] = {}  # vertex -> (line, colours)
    for line_no, fields in _meaningful_lines(text):
        tag = fields[0]
        if tag == "g":
            if m is not None:
                raise ParseError(line_no, "duplicate header")
            (m,) = _int_fields(line_no, fields, 1)
            if m < 0:
                raise ParseError(line_no, "vertex count must be non-negative")
        elif tag == "e":
            if m is None:
                raise ParseError(line_no, "edge before 'g' header")
            u, v = _int_fields(line_no, fields, 2)
            if u == v:
                raise ParseError(line_no, f"loop on vertex {u} not allowed")
            if not (1 <= u <= m and 1 <= v <= m):
                raise ParseError(line_no, f"edge ({u},{v}) out of range 1..{m}")
            pair = (min(u, v), max(u, v))
            if pair in seen:
                raise ParseError(line_no, f"parallel edge ({u},{v})")
            seen.add(pair)
            edges.append(pair)
        elif tag == "l":
            if not allow_lists:
                raise ParseError(line_no, "'l' lines are not allowed in a plain graph file")
            if m is None:
                raise ParseError(line_no, "list before 'g' header")
            vals = _int_fields(line_no, fields)
            if not vals:
                raise ParseError(line_no, "'l' needs a vertex")
            v, cols = vals[0], vals[1:]
            if not (1 <= v <= m):
                raise ParseError(line_no, f"vertex {v} out of range 1..{m}")
            if v in lists:
                raise ParseError(line_no, f"duplicate list for vertex {v}")
            lists[v] = (line_no, cols)
        else:
            raise ParseError(line_no, f"unknown directive {tag!r} in graph file")
    if m is None:
        raise ParseError(1, "missing 'g <m>' header")
    return m, edges, lists


def parse_graph(text: str) -> InstanceGraph:
    m, edges, _ = _parse_graph_lines(text, allow_lists=False)
    return InstanceGraph.from_edges(m, edges)


def parse_instance(text: str, colour_count: int) -> Instance:
    m, edges, lists = _parse_graph_lines(text, allow_lists=True)
    assignment = list(full_lists(m, colour_count))
    for v, (line_no, cols) in lists.items():
        for c in cols:
            if not (1 <= c <= colour_count):
                raise ParseError(
                    line_no, f"vertex {v}: colour {c} out of range 1..{colour_count}")
        assignment[v - 1] = frozenset(cols)
    return Instance(InstanceGraph.from_edges(m, edges), tuple(assignment), colour_count)


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
    nvars = None
    clauses = []
    for line_no, fields in _meaningful_lines(text):
        tag = fields[0]
        if tag == "f":
            if nvars is not None:
                raise ParseError(line_no, "duplicate header")
            (nvars,) = _int_fields(line_no, fields, 1)
            if nvars < 0:
                raise ParseError(line_no, "variable count must be non-negative")
        elif tag in (UNIT_POS, UNIT_NEG):
            if nvars is None:
                raise ParseError(line_no, "clause before 'f' header")
            (v,) = _int_fields(line_no, fields, 1)
            if not (1 <= v <= nvars):
                raise ParseError(line_no, f"variable {v} out of range 1..{nvars}")
            clauses.append((tag, v))
        elif tag == IMP:
            if nvars is None:
                raise ParseError(line_no, "clause before 'f' header")
            a, b = _int_fields(line_no, fields, 2)
            for v in (a, b):
                if not (1 <= v <= nvars):
                    raise ParseError(line_no, f"variable {v} out of range 1..{nvars}")
            clauses.append((IMP, a, b))
        else:
            raise ParseError(line_no, f"unknown directive {tag!r} in formula file")
    if nvars is None:
        raise ParseError(1, "missing 'f <nvars>' header")
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
