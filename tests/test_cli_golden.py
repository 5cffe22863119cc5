"""The exact stdout of `classify` (text and --json) for one target per
certificate type, the witness object of `gadget --json`, and every usage,
help and error text of the parser against the one it replaced."""

import contextlib
import io
import json

import pytest

from helpers import reference_parser
from listhom import cli, patterns
from listhom.cli import build_parser, main
from listhom.formats import serialise_h
from listhom.graphs import ColourGraph


def _p4_beside_claw() -> ColourGraph:
    """P4 on the odd colours and the reflexive claw on the even ones, so
    both components' certificates are relabelled."""
    def edges(h, f):
        return [(f(u), f(v)) for u in h.colours for v in h.colours
                if u <= v and h.adjacent(u, v)]

    return ColourGraph.from_edges(8, edges(patterns.P4, lambda c: 2 * c - 1)
                                  + edges(patterns.CLAW, lambda c: 2 * c))


P4_FORM = {"type": "staircase", "kind": "biadjacency", "row_order": [1, 3],
           "col_order": [2, 4], "alpha": [1, 1], "beta": [1, 2]}
P4_TEXT = ("staircase  kind=biadjacency row_order=[1, 3] col_order=[2, 4]"
           " alpha=[1, 1] beta=[1, 2]")
CLAW_TEXT = "excluded_subgraph  kind=Claw length=None embedding=[2, 4, 6, 8]"

# (target, classify text, classify --json)
GOLDEN = {
    "complete reflexive K3": (
        patterns.complete(3, reflexive=True),
        "class: polytime\ndegree_threshold: None\ncertificate: complete_reflexive\n",
        {"class": "polytime", "degree_threshold": None, "vertices": [1, 2, 3],
         "certificate": {"type": "complete_reflexive"}},
    ),
    "K_{2,3}": (
        patterns.complete_bipartite(2, 3),
        "class: polytime\ndegree_threshold: None\n"
        "certificate: complete_bipartite_irreflexive\n",
        {"class": "polytime", "degree_threshold": None, "vertices": [1, 2, 3, 4, 5],
         "certificate": {"type": "complete_bipartite_irreflexive"}},
    ),
    "2-wrench": (
        patterns.TWO_WRENCH,
        "class: sat_equivalent\ndegree_threshold: 6\n"
        "certificate: loop_edge  unlooped=1 looped=2\n",
        {"class": "sat_equivalent", "degree_threshold": 6, "vertices": [1, 2, 3, 4],
         "certificate": {"type": "loop_edge", "unlooped": 1, "looped": 2}},
    ),
    "P4": (
        patterns.P4,
        f"class: bis_equivalent\ndegree_threshold: 6\ncertificate: {P4_TEXT}\n",
        {"class": "bis_equivalent", "degree_threshold": 6, "vertices": [1, 2, 3, 4],
         "certificate": P4_FORM},
    ),
    "P3*": (
        patterns.P3_STAR,
        "class: bis_equivalent\ndegree_threshold: 6\n"
        "certificate: staircase  kind=adjacency row_order=[1, 2, 3]"
        " col_order=[1, 2, 3] alpha=[1, 1, 2] beta=[2, 3, 3]\n",
        {"class": "bis_equivalent", "degree_threshold": 6, "vertices": [1, 2, 3],
         "certificate": {"type": "staircase", "kind": "adjacency",
                         "row_order": [1, 2, 3], "col_order": [1, 2, 3],
                         "alpha": [1, 1, 2], "beta": [2, 3, 3]}},
    ),
    "irreflexive C6": (
        patterns.cycle(6),
        "class: sat_equivalent\ndegree_threshold: 3\ncertificate: excluded_subgraph"
        "  kind=CycleNe4 length=6 embedding=[1, 2, 3, 4, 5, 6]\n",
        {"class": "sat_equivalent", "degree_threshold": 3,
         "vertices": [1, 2, 3, 4, 5, 6],
         "certificate": {"type": "excluded_subgraph", "kind": "CycleNe4",
                         "length": 6, "embedding": [1, 2, 3, 4, 5, 6]}},
    ),
    "claw": (
        patterns.CLAW,
        "class: sat_equivalent\ndegree_threshold: 3\ncertificate: excluded_subgraph"
        "  kind=Claw length=None embedding=[1, 2, 3, 4]\n",
        {"class": "sat_equivalent", "degree_threshold": 3, "vertices": [1, 2, 3, 4],
         "certificate": {"type": "excluded_subgraph", "kind": "Claw",
                         "length": None, "embedding": [1, 2, 3, 4]}},
    ),
    "P4 beside a claw": (
        _p4_beside_claw(),
        "class: sat_equivalent\ndegree_threshold: 3\n"
        f"certificate: {CLAW_TEXT}\n"
        "component [1, 3, 5, 7]: bis_equivalent threshold=6\n"
        "  certificate: staircase  kind=biadjacency row_order=[1, 5] col_order=[3, 7]"
        " alpha=[1, 1] beta=[1, 2]\n"
        "component [2, 4, 6, 8]: sat_equivalent threshold=3\n"
        f"  certificate: {CLAW_TEXT}\n",
        {"class": "sat_equivalent", "degree_threshold": 3,
         "vertices": [1, 2, 3, 4, 5, 6, 7, 8],
         "certificate": {"type": "excluded_subgraph", "kind": "Claw",
                         "length": None, "embedding": [2, 4, 6, 8]},
         "components": [
             {"class": "bis_equivalent", "degree_threshold": 6,
              "vertices": [1, 3, 5, 7],
              "certificate": {**P4_FORM, "row_order": [1, 5], "col_order": [3, 7]}},
             {"class": "sat_equivalent", "degree_threshold": 3,
              "vertices": [2, 4, 6, 8],
              "certificate": {"type": "excluded_subgraph", "kind": "Claw",
                              "length": None, "embedding": [2, 4, 6, 8]}},
         ]},
    ),
}


def _stdout(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", GOLDEN)
def test_classify_output_is_pinned(tmp_path, capsys, name):
    h, text, obj = GOLDEN[name]
    path = tmp_path / "h.h"
    path.write_text(serialise_h(h))
    assert _stdout(capsys, ["classify", str(path)]) == text
    # the dict literal pins the key order as well as the values
    assert _stdout(capsys, ["classify", str(path), "--json"]) == json.dumps(obj, indent=2) + "\n"


def test_gadget_json_witness_is_pinned(tmp_path, capsys):
    path = tmp_path / "x3.h"
    path.write_text(serialise_h(patterns.X3))
    witness = {"kind": "X3", "length": None, "embedding": [1, 2, 3, 4, 5, 6, 7]}
    report = _stdout(capsys, ["gadget", str(path), "--json"])
    # the report opens with the witness, and the next key follows
    assert report.startswith(json.dumps({"witness": witness}, indent=2)[:-2] + ",\n")


COMMANDS = ("classify", "count", "ising", "count-sat", "gadget", "reduce-sat",
            "reduce-ising", "selftest")

# usage and parse errors, and one well-formed argv per command (two where a
# default shows); each is parsed by both parsers
ARGVS = [
    [], ["-h"], ["nosuch"], *([name, "-h"] for name in COMMANDS),
    ["classify"], ["classify", "x.h", "--bogus"], ["gadget", "x.h", "--t", "abc"],
    ["ising", "g.g"], ["reduce-sat", "h.h", "i.inst"],
    ["classify", "x.h", "--json"], ["count", "h.h", "i.inst"],
    ["ising", "g.g", "--lambda", "3/2"], ["count-sat", "f.f"], ["gadget", "x.h"],
    ["gadget", "x.h", "--witness", "cycle6", "--t", "2", "--json"],
    ["reduce-sat", "h.h", "i.inst", "--out", "r.f"],
    ["reduce-ising", "g.g", "h.h", "--witness", "x3", "--t", "1", "--out", "r.inst"],
    ["selftest"], ["selftest", "--seed", "5"],
]


def _parse(parser, argv):
    """(exit code, stdout, stderr, namespace) of parser.parse_args(argv),
    the code None when it returns and the namespace None when it exits."""
    out, err = io.StringIO(), io.StringIO()
    code = ns = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), ns


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_parse_is_the_reference_parsers_byte_for_byte(monkeypatch, argv):
    # -h prints the parser's format_help(), so the help of the top level
    # and of every subcommand is compared here as well
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err, ns = _parse(build_parser(), argv)
    want_code, want_out, want_err, want_ns = _parse(reference_parser(), argv)
    assert (code, out, err) == (want_code, want_out, want_err)
    assert (ns is None) == (want_ns is None)
    if ns is not None:
        assert ns.func is getattr(cli, "cmd_" + ns.command.replace("-", "_"))
        del ns.func, want_ns.func
        assert vars(ns) == vars(want_ns)
