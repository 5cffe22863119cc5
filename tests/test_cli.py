import itertools
import json
import random
import re
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import (
    decimal_text,
    decode_assignment,
    enumerate_list_colourings,
    random_instance_graph,
    random_lists,
    read_text,
    reference_formula,
    satisfies,
)
from listhom import cli, patterns
from listhom.cli import _WITNESS_HELP, _exact, main
from listhom.formats import (
    ParseError,
    parse_formula,
    parse_fraction,
    parse_graph,
    parse_h,
    parse_instance,
    serialise_formula,
    serialise_graph,
    serialise_h,
    serialise_instance,
)
from listhom.graphs import ColourGraph, Instance, InstanceGraph
from listhom.oracles import ImplicationFormula, count_1p1n, implies, unit_neg, unit_pos

WRENCH_TEXT = "h 4\ne 1 2\ne 2 3\ne 2 4\ne 2 2\ne 3 3\ne 4 4\n"


# --- formats ---

def _random_graph(rng, m, p):
    return InstanceGraph.from_edges(m, [
        (u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)
        if rng.random() < p])


def test_h_round_trip():
    rng = random.Random(51)
    for _ in range(200):
        n = rng.randint(1, 10)
        p = rng.random()
        edges = [(u, v) for u in range(1, n + 1) for v in range(u, n + 1)
                 if rng.random() < p]
        h = ColourGraph.from_edges(n, edges)
        assert parse_h(serialise_h(h)) == h


def test_instance_round_trip():
    """Seeded fuzz over empty lists ("l v"), full lists (omitted on output),
    isolated vertices and "g 0"."""
    rng = random.Random(52)
    seen = dict.fromkeys(("empty list", "full list", "isolated vertex", "g 0"), 0)
    for _ in range(200):
        m = rng.choice((0, rng.randint(1, 15)))
        n = rng.randint(1, 8)
        g = _random_graph(rng, m, rng.random() / 2)
        everything = frozenset(range(1, n + 1))
        lists = tuple(
            rng.choice((frozenset(), everything, frozenset(
                c for c in everything if rng.random() < 0.5)))
            for _ in range(m))
        inst = Instance(g, lists, n)
        text = serialise_instance(inst)
        assert parse_instance(text, n) == inst
        list_lines = {int(line.split()[1]) for line in text.splitlines()
                      if line.startswith("l ")}
        assert list_lines == {v for v, s in enumerate(lists, start=1) if s != everything}
        seen["empty list"] += frozenset() in lists
        seen["full list"] += everything in lists
        seen["isolated vertex"] += any(not ns for ns in g.neighbours)
        seen["g 0"] += m == 0
    assert min(seen.values()) >= 10, seen


def test_formula_round_trip():
    f = ImplicationFormula(
        4, (unit_pos(1), unit_neg(4), implies(2, 1), implies(3, 2)))
    assert parse_formula(serialise_formula(f)) == f
    rng = random.Random(53)
    seen = dict.fromkeys(("f 0", "i v v"), 0)
    for _ in range(200):
        k = rng.choice((0, rng.randint(1, 12)))
        clauses = [
            rng.choice((unit_pos, unit_neg))(rng.randint(1, k)) if rng.random() < 0.4
            else implies(rng.randint(1, k), rng.randint(1, k))
            for _ in range(rng.randint(0, 3 * k))
        ]
        f = ImplicationFormula(k, tuple(clauses))
        assert parse_formula(serialise_formula(f)) == f
        seen["f 0"] += k == 0
        seen["i v v"] += any(cl[0] == "i" and cl[1] == cl[2] for cl in clauses)
    assert min(seen.values()) >= 10, seen


# one-line edits that a file may carry, each breaking one rule of the
# formats, or none
_EDITS = ("", "# note", "z 1", "e 1", "e 1 2 3", "e 1 x", "e 0 1", "e 1 1", "e 2 1",
          "l", "l 1", "l 0 1", "l 1 0", "l 1 99", "l 1 1 1", "l x 1", "g 3", "h 3",
          "f 3", "p 1", "n 0", "i 1", "i 2 1", "i 1 x")


def _written_file(rng, kind):
    """(text, colour count) of a seeded file of the kind as the serialisers
    write it; the colour count is None except for an instance."""
    n = rng.randint(1, 6)
    if kind == "target":
        return serialise_h(ColourGraph.from_edges(n, [
            (u, v) for u in range(1, n + 1) for v in range(u, n + 1) if rng.random() < 0.4])), None
    if kind == "formula":
        return serialise_formula(ImplicationFormula(n, tuple(
            rng.choice((unit_pos(rng.randint(1, n)), unit_neg(rng.randint(1, n)),
                        implies(rng.randint(1, n), rng.randint(1, n))))
            for _ in range(rng.randint(0, 3 * n))))), None
    g = _random_graph(rng, rng.randint(0, 12), rng.random() / 2)
    if kind == "graph":
        return serialise_graph(g), None
    return serialise_instance(Instance(g, tuple(
        frozenset(c for c in range(1, n + 1) if rng.random() < 0.6) for _ in g.vertices), n)), n


def _read(kind, text, n):
    """(n, edges or clauses, lists) as helpers.read_text gives them, from
    the parser of the kind; an instance's full lists are left out, as a
    file may write them or not."""
    if kind == "target":
        h = parse_h(text)
        return h.n, h.edge_list(), {}
    if kind == "formula":
        f = parse_formula(text)
        return f.var_count, list(f.clauses), {}
    if kind == "graph":
        g = parse_graph(text)
        return g.m, list(g.edges), {}
    inst = parse_instance(text, n)
    return inst.g.m, list(inst.g.edges), {
        v: s for v, s in enumerate(inst.lists, start=1) if len(s) != n}


def test_parsers_agree_with_a_plain_reading_on_edited_files():
    # seeded: files as the serialisers write them, and copies with one line
    # inserted, moved, doubled, dropped or edited.  Each parser returns what
    # helpers.read_text reads, or names the line that it names
    rng = random.Random(57)
    seen = dict.fromkeys(("written", "edited and valid", "refused"), 0)
    for _ in range(600):
        kind = rng.choice(("target", "graph", "instance", "formula"))
        text, n = _written_file(rng, kind)
        lines = text.splitlines()
        edited = rng.random() < 0.7
        if edited:
            j = rng.randrange(len(lines) + 1)
            edit = rng.randrange(4)
            if edit == 0:
                lines.insert(j, rng.choice(_EDITS))
            elif edit == 1 and len(lines) > 1:
                lines.insert(j, lines.pop(rng.randrange(1, len(lines))))
            elif edit == 2:
                lines.insert(j, rng.choice(lines))
            elif len(lines) > 1:
                del lines[rng.randrange(1, len(lines))]
        text = "\n".join(lines) + "\n"
        want = read_text(text, {"target": "h", "formula": "f"}.get(kind, "g"), n)
        if isinstance(want, int):
            with pytest.raises(ParseError) as err:
                _read(kind, text, n)
            assert err.value.line_no == want, text
            seen["refused"] += 1
        else:
            m, items, lists = want
            assert _read(kind, text, n) == (
                m, items, {v: s for v, s in lists.items() if len(s) != n}), text
            seen["edited and valid" if edited else "written"] += 1
    assert min(seen.values()) >= 150, seen
    # lines that list the same colours, as written, share one frozenset
    inst = parse_instance("g 3\nl 1 1 2\nl 3 1 2\n", 3)
    assert inst.lists[0] == {1, 2} and inst.lists[0] is inst.lists[2]


# integer fields that int() reads although they are not plain digits, and
# fields it refuses
_ODD_INTS = ("+2", "1_0", "\u0663", "\uff13", "\u0967", "-0", "007")
_NOT_INTS = ("1.5", "x", "0x1", "1e2", "", "--1", "1__0", "\u00bd")


def _fuzzed_formula(rng, seen):
    """A seeded formula file: a header (sometimes missing, repeated, late
    or bad), clause lines, comments and blank lines, most of them valid and
    some with a bad tag, a wrong arity, a field int() refuses or a variable
    out of range, joined by LF, CRLF, CR or a mix.  seen counts each
    feature the file carries."""
    n = 0 if rng.random() < 0.1 else rng.choice((1, rng.randint(2, 12)))

    def var():
        r = rng.random()
        if r < 0.9 or not n:
            return str(rng.randint(1, n)) if n else "1"
        if r < 0.95:
            seen["odd integer"] += 1
            return rng.choice(_ODD_INTS)
        seen["out of range"] += 1
        return rng.choice(("0", "-1", str(n + 1), str(10 ** 20)))

    lines = []
    for _ in range(rng.randint(0, 10)):
        r = rng.random()
        if r < 0.1:
            seen["comment or blank"] += 1
            lines.append(rng.choice(("", "  ", "\t", "# note", "#p 1", " # i 1 2")))
        elif r < 0.5:
            lines.append(rng.choice(("p", "n")) + " " + var())
        else:
            lines.append(f"i {var()} {var()}")
    fault = rng.random()
    if fault < 0.5 and lines:
        j = rng.randrange(len(lines))
        fields = lines[j].split() or ["p", "1"]
        kind = rng.randrange(3)
        if kind == 0:
            seen["bad tag"] += 1
            fields[0] = rng.choice(("x", "e", "P", "ii", "f", "pn", "\u0440"))
        elif kind == 1:
            seen["wrong arity"] += 1
            if len(fields) > 1 and rng.random() < 0.5:
                fields.pop()
            else:
                fields.append(var())
        else:
            seen["not an integer"] += 1
            fields[rng.randrange(len(fields))] = rng.choice(_NOT_INTS) or "1.5"
        lines[j] = rng.choice(("", " ", "\t")).join(
            (" " if rng.random() < 0.2 else "") + f for f in fields)
    header = rng.random()
    if header < 0.05:
        seen["missing header"] += 1
    else:
        value = str(n)
        if header < 0.12:
            seen["bad header"] += 1
            value = rng.choice(("-1", "x", "1.5", f"{n} {n}", "", "+3", "1_2"))
        j = 0 if header > 0.2 or not lines else rng.randrange(len(lines) + 1)
        seen["late header"] += j > 0
        lines.insert(j, f"f {value}".rstrip())
        if header > 0.97:
            seen["duplicate header"] += 1
            lines.insert(rng.randrange(1, len(lines) + 1), f"f {n}")
    ends = rng.choice(("\n", "\r\n", "\r", None))
    seen["CR or CRLF"] += ends != "\n"
    if ends is None:
        text = "".join(line + rng.choice(("\n", "\r\n", "\r")) for line in lines)
    else:
        text = ends.join(lines) + (ends if rng.random() < 0.8 else "")
    return text


def test_parse_formula_agrees_with_the_per_line_reference_on_fuzzed_files():
    # 20,000 seeded files: parse_formula reads each clause shape in its own
    # branch and must give what the generic per-line reader gives, the same
    # formula or the same message on the same line.  A parsed formula equals
    # the one built directly, whose __post_init__ checks every clause
    rng = random.Random(61)
    seen = dict.fromkeys((
        "odd integer", "out of range", "comment or blank", "bad tag", "wrong arity",
        "not an integer", "missing header", "bad header", "late header",
        "duplicate header", "CR or CRLF", "parsed", "refused"), 0)
    for _ in range(20_000):
        text = _fuzzed_formula(rng, seen)
        try:
            want = reference_formula(text)
        except ParseError as err:
            want = (err.line_no, str(err))
            seen["refused"] += 1
        else:
            seen["parsed"] += 1
        try:
            f = parse_formula(text)
        except ParseError as err:
            assert (err.line_no, str(err)) == want, repr(text)
            continue
        assert (f.var_count, f.clauses) == want, repr(text)
        assert f == ImplicationFormula(*want), repr(text)
    assert min(seen.values()) >= 200, seen


def test_a_parsed_formula_is_not_checked_again(monkeypatch):
    # parse_formula checks every clause as it reads it, so the formula it
    # returns skips ImplicationFormula.__post_init__; built directly, the
    # formula still runs it
    def refuse(self):
        raise ValueError("checked again")

    monkeypatch.setattr(ImplicationFormula, "__post_init__", refuse)
    f = parse_formula("f 3\np 1\ni 2 1\nn 3\n")
    assert (f.var_count, f.clauses) == (3, (("p", 1), ("i", 2, 1), ("n", 3)))
    with pytest.raises(ValueError, match="checked again"):
        ImplicationFormula(3, f.clauses)


def test_graph_round_trip_and_list_rejection():
    g = InstanceGraph.from_edges(3, [(1, 2), (2, 3)])
    assert parse_graph(serialise_graph(g)) == g
    rng = random.Random(54)
    for _ in range(100):
        g = _random_graph(rng, rng.choice((0, rng.randint(1, 15))), rng.random() / 2)
        assert parse_graph(serialise_graph(g)) == g
    with pytest.raises(ParseError):
        parse_graph("g 2\nl 1 1\n")


def _instance3(text):
    return parse_instance(text, 3)


# (parser, text, line, message): every ParseError message of the three formats
PARSE_ERRORS = (
    (parse_h, "h 2\nh 3\n", 2, "duplicate header"),
    (parse_h, "e 1 2\nh 2\n", 1, "edge before 'h' header"),
    (parse_h, "h 2\nz 1\n", 2, "unknown directive 'z' in target file"),
    (parse_h, "h 2 3\n", 1, "'h' takes 1 argument(s)"),
    (parse_h, "h 2\ne 1\n", 2, "'e' takes 2 argument(s)"),
    (parse_h, "h two\n", 1, "non-integer field: invalid literal for int() with base 10: 'two'"),
    (parse_h, "# only a comment\n", 1, "missing 'h <n>' header"),
    (parse_h, "h 0\n", 1, "need at least one colour"),
    (parse_h, "h 2\ne 1 3\n", 2, "edge (1,3) out of range 1..2"),
    (parse_h, "h 3\ne 1 2\n\ne 2 1\n", 4, "parallel edge (2,1)"),
    (parse_graph, "g 2\n# twice\ng 2\n", 3, "duplicate header"),
    (parse_graph, "e 1 2\ng 2\n", 1, "edge before 'g' header"),
    (parse_graph, "g -1\n", 1, "vertex count must be non-negative"),
    (parse_graph, "g\n", 1, "'g' takes 1 argument(s)"),
    (parse_graph, "g 2\ne 1 1\n", 2, "loop on vertex 1 not allowed"),
    (parse_graph, "g 2\ne 0 1\n", 2, "edge (0,1) out of range 1..2"),
    (parse_graph, "g 2\ne 1 2\ne 1 2\n", 3, "parallel edge (1,2)"),
    (parse_graph, "\n", 1, "missing 'g <m>' header"),
    (parse_graph, "g 2\nq\n", 2, "unknown directive 'q' in graph file"),
    (parse_graph, "g 2\nl 1 1\n", 2, "unknown directive 'l' in graph file"),
    (_instance3, "l 1 1\ng 2\n", 1, "list before 'g' header"),
    (_instance3, "g 2\ne 1 1\n", 2, "loop on vertex 1 not allowed"),
    (_instance3, "g 2\ne 1 2 3\n", 2, "'e' takes 2 argument(s)"),
    (_instance3, "g 2\nl\n", 2, "'l' needs a vertex"),
    (_instance3, "g 2\nl 3 1\n", 2, "vertex 3 out of range 1..2"),
    (_instance3, "g 2\nl 1 1\nl 1 2\n", 3, "duplicate list for vertex 1"),
    (_instance3, "g 2\nl 1 4\n", 2, "vertex 1: colour 4 out of range 1..3"),
    (_instance3, "g 2\nl 1 x\n", 2, "non-integer field: invalid literal for int() with base 10: 'x'"),
    (_instance3, "g 2\nz\n", 2, "unknown directive 'z' in graph file"),
    # a bad list colour is reported on its own line, before a later error
    (lambda text: parse_instance(text, 2), "g 3\nl 1 5\ne 1 2\ne 1 2\n", 2,
     "vertex 1: colour 5 out of range 1..2"),
    (_instance3, "", 1, "missing 'g <m>' header"),
    (parse_formula, "f 1\nf 1\n", 2, "duplicate header"),
    (parse_formula, "p 1\nf 1\n", 1, "clause before 'f' header"),
    (parse_formula, "i 1 2\nf 2\n", 1, "clause before 'f' header"),
    (parse_formula, "f -1\n", 1, "variable count must be non-negative"),
    (parse_formula, "f 1\np 2\n", 2, "variable 2 out of range 1..1"),
    (parse_formula, "f 2\ni 1 0\n", 2, "variable 0 out of range 1..2"),
    (parse_formula, "f 2\nn 1 2\n", 2, "'n' takes 1 argument(s)"),
    (parse_formula, "f 2\ni 1\n", 2, "'i' takes 2 argument(s)"),
    (parse_formula, "f 1\np 1.5\n", 2, "non-integer field: invalid literal for int() with base 10: '1.5'"),
    (parse_formula, "f 2\nx 1\n", 2, "unknown directive 'x' in formula file"),
    (parse_formula, "", 1, "missing 'f <nvars>' header"),
)


def test_parse_errors_carry_line_numbers():
    for parse, text, line_no, message in PARSE_ERRORS:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line_no, str(err.value)) == (line_no, f"line {line_no}: {message}"), text


def test_parallel_edge_names_the_first_duplicate_line():
    with pytest.raises(ParseError) as err:
        parse_h("h 3\ne 1 2\ne 2 3\n# again\ne 2 1\ne 3 2\n")
    assert err.value.line_no == 5 and "parallel edge (2,1)" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_instance("g 3\ne 2 3\nl 1 1\ne 1 2\ne 3 2\ne 2 1\n", 2)
    assert err.value.line_no == 5 and "parallel edge (3,2)" in str(err.value)


def test_parse_is_linear_in_the_edge_count():
    m = 50_001
    text = f"g {m}\n" + "".join(f"e {v} {v + 1}\n" for v in range(1, m))
    start = time.perf_counter()
    inst = parse_instance(text, 2)
    assert time.perf_counter() - start < 2.0
    assert len(inst.g.edges) == 50_000


def test_bad_list_colour_names_its_line():
    text = "g 3\ne 1 2\n# lists follow\nl 1 1\nl 2 1 4\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text, 3)
    assert err.value.line_no == 5


def test_comments_and_blank_lines():
    h = parse_h("# a target\n\nh 2\n# loop below\ne 2 2\ne 1 2\n")
    assert h == patterns.K2_PRIME


def test_lines_end_only_at_newline_and_carriage_return():
    # a form feed or a NEL inside a comment neither ends the line nor moves
    # the line numbers on: each file raises what it raises without one
    for parse, odd, plain, message in (
            (parse_h, "h 2\n# a note\x0cwith a form feed\ne 1 3\n",
             "h 2\n# a note\ne 1 3\n", "line 3: edge (1,3) out of range 1..2"),
            (parse_formula, "f 2\n# x\x85y\np 3\n", "f 2\n# x\np 3\n",
             "line 3: variable 3 out of range 1..2")):
        for text in (odd, plain):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert str(err.value) == message, text
    # every other character that str.splitlines ends a line at
    for ch in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        assert parse_h(f"h 2\n# one{ch}e 1 1\ne 2 2\n") == parse_h("h 2\ne 2 2\n")
        assert read_text(f"h 2\n# one{ch}e 1 1\ne 2 2\n", "h") == (2, [(2, 2)], {})
    # CRLF and CR files parse as before
    for end in ("\r\n", "\r"):
        assert parse_h(end.join(("h 2", "# loop below", "e 2 2", "e 1 2", ""))) == (
            patterns.K2_PRIME)
        with pytest.raises(ParseError) as err:
            parse_h(end.join(("h 2", "", "e 1 3")))
        assert err.value.line_no == 3


def test_parse_fraction():
    from fractions import Fraction
    assert parse_fraction("9/10") == Fraction(9, 10)
    assert parse_fraction("2") == Fraction(2)
    with pytest.raises(ValueError):
        parse_fraction("a/b")
    with pytest.raises(ValueError):
        parse_fraction("1/0")


# --- commands ---

def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cmd_classify(tmp_path, capsys):
    hfile = write(tmp_path, "wrench.h", WRENCH_TEXT)
    assert main(["classify", hfile]) == 0
    out = capsys.readouterr().out
    assert "sat_equivalent" in out and "degree_threshold: 6" in out

    assert main(["classify", hfile, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["class"] == "sat_equivalent"
    assert data["certificate"]["type"] == "loop_edge"

    p4 = write(tmp_path, "p4.h", serialise_h(patterns.P4))
    assert main(["classify", p4, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["class"] == "bis_equivalent"
    assert data["certificate"]["type"] == "staircase"

    k3 = write(tmp_path, "k3.h", serialise_h(patterns.complete(3, reflexive=True)))
    assert main(["classify", k3, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["class"] == "polytime"


def test_cmd_count_and_ising_and_count_sat(tmp_path, capsys):
    hfile = write(tmp_path, "k2p.h", serialise_h(patterns.K2_PRIME))
    inst = write(tmp_path, "k2.inst", "g 2\ne 1 2\n")
    assert main(["count", hfile, inst]) == 0
    assert capsys.readouterr().out.strip() == "3"

    gfile = write(tmp_path, "k2.g", "g 2\ne 1 2\n")
    assert main(["ising", gfile, "--lambda", "9/10"]) == 0
    assert capsys.readouterr().out.strip() == "19/5"

    ffile = write(tmp_path, "c.f", "f 2\np 1\ni 2 1\n")
    assert main(["count-sat", ffile]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cmd_gadget(tmp_path, capsys):
    x3 = write(tmp_path, "x3.h", serialise_h(patterns.X3))
    assert main(["gadget", x3, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dstar"] == [[9, 10], [10, 9]]
    assert all(data["checks"].values())

    claw = write(tmp_path, "claw.h", serialise_h(patterns.CLAW))
    assert main(["gadget", claw]) == 0
    out = capsys.readouterr().out
    assert "[[2, 3], [3, 5]]" in out

    c4 = write(tmp_path, "c4.h", serialise_h(patterns.cycle(4)))
    assert main(["gadget", c4]) == 2  # polytime target: no witness
    capsys.readouterr()


def test_cmd_gadget_thickened(tmp_path, capsys):
    x3 = write(tmp_path, "x3.h", serialise_h(patterns.X3))
    assert main(["gadget", x3, "--t", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dstar_t"] == [[81, 100], [100, 81]]
    assert main(["gadget", x3, "--t", "1"]) == 0
    assert "D*_1 = [[81, 100], [100, 81]]  (20 vertices)\n" in capsys.readouterr().out


def test_cmd_gadget_explicit_witness(tmp_path, capsys):
    wrench = write(tmp_path, "wrench.h", WRENCH_TEXT)
    # mixed target: automatic selection fails, explicit selection may too
    assert main(["gadget", wrench]) == 2
    capsys.readouterr()
    c6 = write(tmp_path, "c6.h", serialise_h(patterns.cycle(6)))
    assert main(["gadget", c6, "--witness", "cycle6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dprime"] == [[1, 2], [1, 3]]


SELECTOR_TARGETS = [
    ("x3", patterns.X3), ("x2", patterns.X2), ("t2", patterns.T2),
    ("claw", patterns.CLAW), ("net", patterns.NET), ("s3", patterns.S3),
    ("cycle3", patterns.cycle(3)), ("cycle5", patterns.cycle(5)),
    ("cycle6", patterns.cycle(6)), ("cycle8", patterns.cycle(8)),
    ("cycle4", patterns.cycle(4, reflexive=True)),
    ("cycle5", patterns.cycle(5, reflexive=True)),
    ("cycle6", patterns.cycle(6, reflexive=True)),
]


@pytest.mark.parametrize("selector, target", SELECTOR_TARGETS)
def test_cmd_gadget_witness_selectors(tmp_path, capsys, selector, target):
    hfile = write(tmp_path, "h.h", serialise_h(target))
    assert main(["gadget", hfile, "--witness", selector, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["checks"] and all(data["checks"].values())


@pytest.mark.parametrize("target, selector, message", [
    (patterns.CLAW, "x3", "target contains no induced X3"),
    (patterns.X3, "cycle6", "target contains no induced CycleNe4 of length 6"),
], ids=["claw-x3", "x3-cycle6"])
def test_cmd_gadget_absent_witness(tmp_path, capsys, target, selector, message):
    hfile = write(tmp_path, "h.h", serialise_h(target))
    assert main(["gadget", hfile, "--witness", selector]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("selector, named", [
    ("cycle", "'cycle'"), ("cyclex", "'cyclex'"), ("x4", "'x4'"), ("cycle4", "length 4"),
])
def test_cmd_gadget_bad_witness_selectors(tmp_path, capsys, selector, named):
    hfile = write(tmp_path, "c6.h", serialise_h(patterns.cycle(6)))
    assert main(["gadget", hfile, "--witness", selector]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("command", ["gadget", "reduce-ising"])
def test_cmd_witness_cycle_longer_than_the_target_answers_at_once(
        tmp_path, capsys, command):
    hfile = write(tmp_path, "c6.h", serialise_h(patterns.cycle(6)))
    argv = {
        "gadget": ["gadget", hfile],
        "reduce-ising": ["reduce-ising", write(tmp_path, "k2.g", "g 2\ne 1 2\n"),
                         hfile, "--out", str(tmp_path / "out.inst")],
    }[command]
    start = time.perf_counter()
    assert main(argv + ["--witness", "cycle100000"]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err == "error: target contains no induced CycleNe4 of length 100000\n"


def test_cmd_reduce_sat_round_trip(tmp_path, capsys):
    h = write(tmp_path, "p3s.h", serialise_h(patterns.P3_STAR))
    inst = write(tmp_path, "k2.inst", "g 2\ne 1 2\n")
    out = tmp_path / "out.f"
    assert main(["reduce-sat", h, inst, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["count-sat", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "7"
    sidecar = json.loads(out.with_suffix(".f.json").read_text())
    assert sidecar["mode"] == "reflexive" and sidecar["q"] == 3

    claw = write(tmp_path, "claw.h", serialise_h(patterns.CLAW))
    assert main(["reduce-sat", claw, inst, "--out", str(tmp_path / "x.f")]) == 2


def test_cmd_reduce_sat_complete_bipartite(tmp_path, capsys):
    # classify certifies K_{2,3} as complete bipartite, which carries no
    # staircase form; reduce-sat finds one itself
    h = write(tmp_path, "k23.h", serialise_h(patterns.complete_bipartite(2, 3)))
    inst = write(tmp_path, "k2.inst", "g 2\ne 1 2\n")
    assert main(["classify", h, "--json"]) == 0
    cert = json.loads(capsys.readouterr().out)["certificate"]
    assert cert["type"] == "complete_bipartite_irreflexive"
    out = tmp_path / "out.f"
    assert main(["reduce-sat", h, inst, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["count-sat", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "12"
    assert main(["count", h, inst]) == 0
    assert capsys.readouterr().out.strip() == "12"


def test_cmd_reduce_ising_round_trip(tmp_path, capsys):
    g = write(tmp_path, "k2.g", "g 2\ne 1 2\n")
    h = write(tmp_path, "x3.h", serialise_h(patterns.X3))
    out = tmp_path / "red.inst"
    assert main(["reduce-ising", g, h, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["count", h, str(out)]) == 0
    assert capsys.readouterr().out.strip() == "38"
    sidecar = json.loads(out.with_suffix(".inst.json").read_text())
    assert sidecar["lambda"] == "9/10" and sidecar["scale"] == "10"

    p4 = write(tmp_path, "p4.h", serialise_h(patterns.P4))
    assert main(["reduce-ising", g, p4, "--out", str(tmp_path / "y.inst")]) == 2


# 6-vertex bipartite permutation target with a strict staircase biadjacency
H6 = ColourGraph.from_edges(6, [(1, 4), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6)])


def test_reduce_sat_sidecar_numbering_decodes_every_model(tmp_path, capsys):
    # the tests' decoder reads the written sidecar's q, sides and orders and
    # numbers the variables as the sidecar's text says.  A model's chains
    # are 1..1 0..0, so every model is among the q^m chain assignments, and
    # count_1p1n confirms that no model lies outside them
    rng = random.Random(83)
    seen = {"bipartite": 0, "reflexive": 0, "no colouring": 0, "6 vertices": 0}
    targets = (("p4", patterns.P4), ("p3star", patterns.P3_STAR), ("h6", H6),
               ("p4loops", patterns.path(4, reflexive=True)))
    for name, h in targets:
        h_path = write(tmp_path, f"{name}.h", serialise_h(h))
        most = max(m for m in range(1, 7) if h.n ** m <= 4096)
        for _ in range(8):
            g = random_instance_graph(rng, most, 0.5)
            inst = Instance(g, random_lists(rng, g.m, h.n, 0.7), h.n)
            out = tmp_path / "x.f"
            argv = ["reduce-sat", h_path, write(tmp_path, "x.inst", serialise_instance(inst)),
                    "--out", str(out)]
            assert main(argv) == 0
            capsys.readouterr()
            formula = parse_formula(out.read_text())
            meta = json.loads(out.with_suffix(".f.json").read_text())
            q, sides = meta["q"], meta["sides"]
            assert meta["variable_numbering"] == "var(u, i) = (u-1)*(q+1) + i + 1 for 0 <= i <= q"
            assert formula.var_count == meta["variables"] == g.m * (q + 1) == len(sides) * (q + 1)
            chains = (tuple(b for j in drops for b in [1] * j + [0] * (q + 1 - j))
                      for drops in itertools.product(range(1, q + 1), repeat=g.m))
            models = [bits for bits in chains if satisfies(formula.clauses, bits)]
            decoded = [decode_assignment(SimpleNamespace(**meta), sides, bits) for bits in models]
            assert sorted(decoded) == sorted(enumerate_list_colourings(h, inst)), (name, g)
            assert len(set(decoded)) == len(decoded) == count_1p1n(formula)
            seen[meta["mode"]] += 1
            seen["no colouring"] += not decoded
            seen["6 vertices"] += g.m == 6
    assert min(seen.values()) >= 3, seen


# the Petersen graph: largest degree 3
PETERSEN = InstanceGraph.from_edges(10, [
    *((i, i % 5 + 1) for i in range(1, 6)), *((i, i + 5) for i in range(1, 6)),
    (6, 8), (8, 10), (10, 7), (7, 9), (9, 6)])


@pytest.mark.parametrize("kind", ["X3", "Claw", "Net", "T2"])
def test_cmd_reduce_ising_sidecar_records_both_degrees(tmp_path, capsys, kind):
    # the symmetrised gadget's two tracks both end on each terminal, so
    # without thickening every degree doubles; a thickened gadget's
    # terminals are pendants and its other vertices have degree at most 3
    g = write(tmp_path, "petersen.g", serialise_graph(PETERSEN))
    h = write(tmp_path, "h.h", serialise_h(patterns.recipe(kind).pattern))
    out = tmp_path / "red.inst"
    for t, want in ((None, 6), (0, 3), (1, 3), (2, 3)):
        argv = ["reduce-ising", g, h, "--witness", kind.lower(), "--out", str(out)]
        assert main(argv + ([] if t is None else ["--t", str(t)])) == 0
        capsys.readouterr()
        sidecar = json.loads(out.with_suffix(".inst.json").read_text())
        written = parse_instance(out.read_text(), patterns.recipe(kind).pattern.n)
        assert sidecar["original_max_degree"] == 3
        assert sidecar["max_degree"] == max(map(len, written.g.neighbours)) == want, t


def test_cmd_errors_exit_2(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "missing.h")]) == 2
    bad = write(tmp_path, "bad.h", "h 2\ne 1 5\n")
    assert main(["classify", bad]) == 2
    g = write(tmp_path, "k2.g", "g 2\ne 1 2\n")
    assert main(["ising", g, "--lambda", "3/2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, named", [
    (["ising", "k2.g", "--lambda", "1/0"], "bad rational"),
    (["gadget", "c6.h", "--witness", "cycle2"], "bad cycle length 2"),
    (["gadget", "wrench.h", "--witness", "cycle5"], "purely reflexive or irreflexive"),
    (["gadget", "c6.h", "--t", "-1"], "non-negative"),
    (["gadget", "c6.h", "--t", "99"], "size cap"),
    (["classify", "binary.h"], "can't decode"),
])
def test_cmd_refusals_exit_2(tmp_path, capsys, argv, named):
    write(tmp_path, "k2.g", "g 2\ne 1 2\n")
    write(tmp_path, "c6.h", serialise_h(patterns.cycle(6)))
    write(tmp_path, "wrench.h", WRENCH_TEXT)
    (tmp_path / "binary.h").write_bytes(b"h 2\n\xff\xfe\n")
    argv = [str(tmp_path / a) if a.endswith((".g", ".h")) else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err, err


def test_cmd_internal_value_error_exits_3(tmp_path, capsys, monkeypatch):
    # a ValueError that is not a Refusal is a fault inside, not the user's
    def crash(h, inst):
        raise ValueError("inconsistent table")

    monkeypatch.setattr(cli, "count_list_hcol", crash)
    h = write(tmp_path, "p4.h", serialise_h(patterns.P4))
    assert main(["count", h, write(tmp_path, "k2.inst", "g 2\ne 1 2\n")]) == 3
    assert capsys.readouterr().err == "internal error: ValueError: inconsistent table\n"


def test_cmd_count_sat_long_chain(tmp_path, capsys):
    text = "f 3000\n" + "".join(f"i {v + 1} {v}\n" for v in range(1, 3000))
    assert main(["count-sat", write(tmp_path, "chain.f", text)]) == 0
    assert capsys.readouterr().out.strip() == "3001"


def test_answers_past_the_interpreters_digit_limit_print_in_full(tmp_path, capsys):
    # 2^15000 has 4,516 digits and 3^12000 5,726, both past the 4,300 that
    # str(int) allows by default
    assert main(["count-sat", write(tmp_path, "free.f", "f 15000\n")]) == 0
    assert capsys.readouterr().out == decimal_text(2 ** 15000) + "\n"

    k3 = write(tmp_path, "k3.h", serialise_h(patterns.complete(3, reflexive=True)))
    edges = "".join(f"e {v} {v + 1}\n" for v in range(1, 12000))
    path = write(tmp_path, "path.inst", "g 12000\n" + edges)
    assert main(["count", k3, path]) == 0
    assert capsys.readouterr().out == decimal_text(3 ** 12000) + "\n"


def test_exact_writes_ints_and_fractions_of_any_size():
    assert _exact(0) == "0" and _exact(12) == "12"
    assert _exact(Fraction(19, 5)) == "19/5" and _exact(Fraction(4, 2)) == "2"
    big = Fraction(3 ** 9001, 2 ** 15000)
    assert _exact(big) == f"{decimal_text(3 ** 9001)}/{decimal_text(2 ** 15000)}"


@pytest.mark.parametrize("command", ["reduce-sat", "reduce-ising"])
def test_cmd_reduce_writes_nothing_when_the_sidecar_fails(tmp_path, capsys, monkeypatch, command):
    g = write(tmp_path, "k2.g", "g 2\ne 1 2\n")
    out = tmp_path / "out"
    argv = {
        "reduce-sat": ["reduce-sat", write(tmp_path, "p3s.h", serialise_h(patterns.P3_STAR)),
                       g, "--out", str(out)],
        "reduce-ising": ["reduce-ising", g, write(tmp_path, "x3.h", serialise_h(patterns.X3)),
                         "--out", str(out)],
    }[command]

    def fail(*args, **kwargs):
        raise RuntimeError("no sidecar")

    monkeypatch.setattr(cli.json, "dumps", fail)
    assert main(argv) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: no sidecar\n"
    assert not out.exists() and not out.with_suffix(".json").exists()


def test_cmd_count_over_table_limit_exits_2(tmp_path, capsys):
    h = write(tmp_path, "k2p.h", serialise_h(patterns.K2_PRIME))
    edges = "".join(f"e {u} {v}\n" for u in range(1, 41) for v in range(u + 1, 41))
    inst = write(tmp_path, "k40.inst", "g 40\n" + edges)
    assert main(["count", h, inst]) == 2
    assert "induced width 39" in capsys.readouterr().err


def test_cmd_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    import listhom.cli

    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(listhom.cli, "cmd_count_sat", crash)
    assert main(["count-sat", write(tmp_path, "c.f", "f 1\n")]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_cmd_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: pass" in out
    assert "FAIL" not in out
    # determinism: run twice, identical output
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out == out


def test_cmd_selftest_runs_every_gadget_check_on_every_catalogue_case(capsys):
    assert main(["selftest"]) == 0
    lines = set(capsys.readouterr().out.splitlines())
    labels = ["X3", "X2", "T2", "Claw", "Net", "S3"]
    labels += [f"CycleNe4({q})" for q in (3, 5, 6, 7, 8)]
    labels += [f"CycleGe4({q})" for q in (4, 5, 6)]
    checks = ["D' matches catalog", "det D' = 1", "det D = -1",
              "brute force agrees with D", "D* symmetric", "det D* < 0",
              "brute force agrees with D*",
              "thickened matrix is the entrywise 2^0 power",
              "thickened matrix is the entrywise 2^1 power"]
    missing = [f"{label}: {check}" for label in labels for check in checks
               if f"ok catalog {label} {check}" not in lines]
    assert missing == []


def test_gadget_report_resolves_the_catalogue_row_once(tmp_path, capsys, monkeypatch):
    # a cycle row builds its dense q x q pattern, so each lookup costs O(q^2)
    import listhom.gadgets as gadgets_mod
    real = gadgets_mod.recipe
    looked_up = []

    def counted(kind, length=None):
        looked_up.append((kind, length))
        return real(kind, length)

    monkeypatch.setattr(gadgets_mod, "recipe", counted)
    path = write(tmp_path, "c8.h", serialise_h(patterns.cycle(8)))
    assert main(["gadget", path, "--witness", "cycle8", "--json", "--t", "1"]) == 0
    capsys.readouterr()
    assert looked_up == [("CycleNe4", 8)]


def test_cmd_selftest_detects_corruption(capsys, monkeypatch):
    import listhom.gadgets as gadgets_mod
    real = gadgets_mod.recipe

    def corrupted(kind, length=None):
        row = real(kind, length)
        if kind == "X3":
            broken = ((row.dprime[0][0] + 1, row.dprime[0][1]), row.dprime[1])
            row = replace(row, dprime=broken)
        return row

    monkeypatch.setattr(gadgets_mod, "recipe", corrupted)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL catalog X3 D'" in out


def test_cmd_classify_without_a_certificate_exits_3(tmp_path, capsys, monkeypatch):
    import listhom.recognizer

    # the staircase worker classify runs on every connected component
    monkeypatch.setattr(listhom.recognizer, "_sweep_form",
                        lambda h, row_side=None: None)
    path = write(tmp_path, "p4.h", serialise_h(patterns.P4))
    assert main(["classify", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: recognition failed")


def test_readme_usage_lines_name_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\nCommands (", 1)[1].split("```")[1]
    usage = {line.split()[1]: line.split("#")[0]
             for line in block.splitlines() if line.startswith("listhom ")}
    assert {name for name, *_ in cli._COMMANDS} <= set(usage)
    missing = []
    for name, _, _, arguments in cli._COMMANDS:
        named = set(re.findall(r"--[\w-]+", usage[name]))
        missing += [f"{name} {arg[0]}" for arg in arguments
                    if not isinstance(arg, str) and arg[0] not in named]
    assert missing == []
    assert f"--witness {_WITNESS_HELP}]" in usage["gadget"]
