"""Command-line front end.

The commands (classify, count, ising, count-sat, gadget, reduce-sat,
reduce-ising, selftest) are the rows of _COMMANDS, each with its help, its
handler and its arguments, and build_parser adds them in that order.  Exit
codes: 0 success, 1 verification mismatch, 2 usage or parse error (a
Refusal, such as an exact count above the oracles' table limit, an
unreadable file or one that is not UTF-8 text), 3 internal error (any other
exception, reported on one line).

Every library call goes through the module that defines it
(formats.parse_h, oracles.count_1p1n, ...), so a wrapper put on that module
sees it; count_list_hcol alone is also bound here.  Certificates are
written by recognizer.certificate_json, their one format.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from . import formats, gadgets, graphs, oracles, patterns, recognizer, reductions
from .graphs import Refusal
# bench/selfcheck.py swaps cli's count_list_hcol for a wrong counter and
# checks that the count ops then fail, so cli calls it by this name
from .oracles import count_list_hcol

# the --witness selectors: a catalogue kind, or a cycle of length L
_WITNESS_HELP = "|".join([row.kind.lower() for row in patterns.RECIPES] + ["cycle<L>"])


def _exact(x) -> str:
    """An int or a Fraction in decimal, at any size.  str() of an int stops
    at the interpreter's digit limit (4,300 digits by default); str() of a
    Decimal, which holds an int exactly, does not."""
    x = Fraction(x)
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def _result_json(res) -> dict:
    """The classification as JSON; a disconnected target adds one entry per
    component (components are connected, so their results have no
    components of their own)."""
    def fields(r) -> dict:
        return {
            "class": r.klass.name.lower(),
            "degree_threshold": r.degree_threshold,
            "vertices": sorted(r.vertices),
            "certificate": recognizer.certificate_json(r.reason),
        }

    out = fields(res)
    if res.per_component:
        out["components"] = [fields(sub) for sub in res.per_component]
    return out


def _print_certificate(reason, indent: str = "") -> None:
    cert = recognizer.certificate_json(reason)
    parts = [f"{k}={v}" for k, v in cert.items() if k != "type"]
    print(f"{indent}certificate: {cert['type']}" + ("  " + " ".join(parts) if parts else ""))


def cmd_classify(args) -> int:
    h = formats.parse_h(Path(args.h_file).read_text())
    res = recognizer.classify(h)
    if args.json:
        print(json.dumps(_result_json(res), indent=2))
        return 0
    print(f"class: {res.klass.name.lower()}")
    print(f"degree_threshold: {res.degree_threshold}")
    _print_certificate(res.reason)
    for sub in res.per_component:
        print(f"component {sorted(sub.vertices)}: {sub.klass.name.lower()}"
              f" threshold={sub.degree_threshold}")
        _print_certificate(sub.reason, indent="  ")
    return 0


def cmd_count(args) -> int:
    h = formats.parse_h(Path(args.h_file).read_text())
    inst = formats.parse_instance(Path(args.instance_file).read_text(), h.n)
    print(_exact(count_list_hcol(h, inst)))
    return 0


def cmd_ising(args) -> int:
    g = formats.parse_graph(Path(args.g_file).read_text())
    lam = formats.parse_fraction(args.lam)
    print(_exact(oracles.ising_partition(g, lam)))
    return 0


def cmd_count_sat(args) -> int:
    f = formats.parse_formula(Path(args.formula_file).read_text())
    print(_exact(oracles.count_1p1n(f)))
    return 0


def _explicit_witness(h, selector: str) -> recognizer.ExcludedWitness:
    selector = selector.lower()
    kinds = {row.kind.lower(): row.kind for row in patterns.RECIPES}
    if selector in kinds:
        kind = kinds[selector]
        length = None
    elif selector.startswith("cycle"):
        try:
            length = int(selector[len("cycle"):])
        except ValueError:
            raise Refusal(f"unknown witness kind {selector!r}") from None
        status = graphs.reflexivity_status(h)
        if status == "mixed":
            raise Refusal("cycle witnesses need a purely reflexive or irreflexive target")
        kind = patterns.cycle_kind(status == "reflexive")
        if patterns.cycle_obstructs(kind, length) and length > h.n:
            # answer before building the length-by-length pattern
            raise Refusal(f"target contains no induced {kind} of length {length}")
    else:
        raise Refusal(f"unknown witness kind {selector!r}")
    pattern = patterns.recipe(kind, length).pattern
    emb = recognizer.find_induced_embedding(pattern, h)
    if emb is None:
        raise Refusal(f"target contains no induced {kind}"
                      + (f" of length {length}" if length else ""))
    return recognizer.ExcludedWitness(kind, length, emb)


def _gadget_witness(h, selector: str | None) -> recognizer.ExcludedWitness:
    if selector is not None:
        return _explicit_witness(h, selector)
    res = recognizer.classify(h)
    if res.klass is not recognizer.Hardness.SAT_EQUIVALENT:
        raise Refusal(f"no witness: target classifies as {res.klass.name.lower()}")
    if not isinstance(res.reason, recognizer.ExcludedWitness):
        raise Refusal(
            "no path-gadget witness: the hard core is a loop edge; "
            "pass --witness to pick a pattern inside a homogeneous part")
    return res.reason


def _fmt_matrix(m) -> str:
    return f"[[{m[0][0]}, {m[0][1]}], [{m[1][0]}, {m[1][1]}]]"


def _gadget_report(h, witness: recognizer.ExcludedWitness, levels) -> dict:
    """The gadget report for a witness in h, ending in its named checks: the
    catalogue's D', the determinants, brute force on D and on the
    symmetrised D*, and the thickened matrix at each level in levels (the
    report's thickening fields describe the last level)."""
    row, gg = gadgets.build_symmetrized(h, witness)
    track = gadgets.path_gadget_graph(h, row.pairs)
    d, dstar = track.matrix, gg.matrix
    dprime = gadgets.swap_cols(d)
    checks = {
        "D' matches catalog": dprime == row.dprime,
        "det D' = 1": gadgets.det2(dprime) == 1,
        "det D = -1": gadgets.det2(d) == -1,
        "brute force agrees with D": gadgets.interaction_matrix_bruteforce(h, track) == d,
        "D* symmetric": dstar[0][1] == dstar[1][0] and dstar[0][0] == dstar[1][1],
        "det D* < 0": gadgets.det2(dstar) < 0,
        "brute force agrees with D*": gadgets.interaction_matrix_bruteforce(h, gg) == dstar,
    }
    report = {
        "witness": recognizer.certificate_fields(witness),
        "gadget": [list(p) for p in row.pairs],
        "terminals": list(row.terminals),
        "dprime": [list(r) for r in dprime],
        "d": [list(r) for r in d],
        "dstar": [list(r) for r in dstar],
    }
    for t in levels:
        gt = gadgets.thicken(h, gg, row.pendants, t)
        expected = gadgets.entrywise_pow(dstar, 2**t)
        checks[f"thickened matrix is the entrywise 2^{t} power"] = (
            gadgets.interaction_matrix_bruteforce(h, gt) == expected and gt.matrix == expected)
        report["cond_pair"] = list(row.pendants)
        report["t"] = t
        report["dstar_t"] = [list(r) for r in gt.matrix]
        report["thickened_vertices"] = gt.m
    report["checks"] = checks
    return report


def cmd_gadget(args) -> int:
    h = formats.parse_h(Path(args.h_file).read_text())
    witness = _gadget_witness(h, args.witness)
    levels = () if args.t is None else (args.t,)
    report = _gadget_report(h, witness, levels)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"witness: {witness.kind}"
              + (f"({witness.length})" if witness.length else "")
              + f" embedding={list(witness.embedding)}")
        print(f"gadget: {[tuple(p) for p in report['gadget']]}")
        print(f"terminals: {tuple(report['terminals'])}")
        print(f"D' = {_fmt_matrix(report['dprime'])}")
        print(f"D  = {_fmt_matrix(report['d'])}")
        print(f"D* = {_fmt_matrix(report['dstar'])}")
        if args.t is not None:
            print(f"D*_{args.t} = {_fmt_matrix(report['dstar_t'])}"
                  f"  ({report['thickened_vertices']} vertices)")
        for name, flag in report["checks"].items():
            print(f"{'ok' if flag else 'FAIL'} {name}")
    return 0 if all(report["checks"].values()) else 1


def _write_both(out: Path, text: str, sidecar: dict) -> None:
    """Write text to out and the sidecar as JSON beside it (out plus
    ".json"), both worked out before either file is written."""
    meta = json.dumps(sidecar, indent=2) + "\n"
    out.write_text(text)
    out.with_suffix(out.suffix + ".json").write_text(meta)


def cmd_reduce_sat(args) -> int:
    h = formats.parse_h(Path(args.h_file).read_text())
    inst = formats.parse_instance(Path(args.instance_file).read_text(), h.n)
    form = recognizer.find_staircase_biadjacency(h) or recognizer.find_staircase_adjacency(h)
    if form is None:
        raise Refusal("target has no staircase certificate; reduction unavailable")
    enc = reductions.build_staircase_encoding(h, form)
    formula, sides = reductions.reduce_listhcol_to_1p1n(enc, inst)
    text = formats.serialise_formula(formula)
    sidecar = {
        **recognizer.certificate_fields(enc),
        "sides": list(sides),
        "variable_numbering": reductions.VARIABLE_NUMBERING,
        "variables": formula.var_count,
        "clauses": len(formula.clauses),
    }
    out = Path(args.out)
    _write_both(out, text, sidecar)
    print(f"wrote {out} ({formula.var_count} variables, {len(formula.clauses)} clauses)")
    return 0


def cmd_reduce_ising(args) -> int:
    g = formats.parse_graph(Path(args.g_file).read_text())
    h = formats.parse_h(Path(args.h_file).read_text())
    witness = _gadget_witness(h, args.witness)
    row, gg = gadgets.build_symmetrized(h, witness)
    if args.t is not None:
        gg = gadgets.thicken(h, gg, row.pendants, args.t)
    inst, lam, scale = gadgets.reduce_ising_to_listhcol(g, gg)
    text = formats.serialise_instance(inst)
    lam, scale = _exact(lam), _exact(scale)
    sidecar = {
        "lambda": lam,
        "scale": scale,
        "original_vertices": g.m,
        "original_edges": len(g.edges),
        "original_max_degree": graphs.max_degree(g),
        "max_degree": graphs.max_degree(inst.g),
        "witness": recognizer.certificate_fields(witness),
        "gadget_matrix": [list(r) for r in gg.matrix],
        "t": args.t,
        "identity": "count(instance) = scale * Z_lambda(g)",
    }
    out = Path(args.out)
    _write_both(out, text, sidecar)
    print(f"wrote {out} (lambda={lam}, scale={scale})")
    return 0


# ---------------------------------------------------------------------------
# selftest

def _selftest_checks(seed: int):
    rng = random.Random(seed)

    def pattern_witness(row):
        embedding = tuple(range(1, row.pattern.n + 1))
        return recognizer.ExcludedWitness(row.kind, row.length, embedding)

    # every fixed-shape row and cycle rows of both parities, class by class
    cases = []
    for reflexive, lengths in ((False, (3, 5, 7, 6, 8)), (True, (4, 5, 6))):
        cases += [row for row in patterns.RECIPES if row.reflexive == reflexive]
        cases += [patterns.cycle_recipe(patterns.cycle_kind(reflexive), q) for q in lengths]
    for row in cases:
        label = row.kind + (f"({row.length})" if row.length else "")
        report = _gadget_report(row.pattern, pattern_witness(row), (0, 1))
        for name, ok in report["checks"].items():
            yield (f"catalog {label} {name}", ok)

    k2 = graphs.InstanceGraph.from_edges(2, [(1, 2)])
    yield ("oracle K2' count", count_list_hcol(
        patterns.K2_PRIME, graphs.Instance.with_full_lists(k2, 2)) == 3)
    yield ("oracle looped-3-path count", count_list_hcol(
        patterns.P3_STAR, graphs.Instance.with_full_lists(k2, 3)) == 7)
    yield ("oracle two-spin value",
           oracles.ising_partition(k2, Fraction(9, 10)) == Fraction(19, 5))
    yield ("oracle chain formula", oracles.count_1p1n(
        oracles.ImplicationFormula(2, (oracles.unit_pos(1), oracles.implies(2, 1)))) == 2)
    # P8's formula on the full-list 8 x 8 grid beside the runs 577 (true),
    # 578-580 and 581-583 (582 false): 577 -> 578 -> 582 leaves no model,
    # through a run that keeps several levels
    grid = [(v, v + 1) for v in range(1, 65) if v % 8] + [(v, v + 8) for v in range(1, 57)]
    p8 = patterns.path(8)
    enc = reductions.build_staircase_encoding(p8, recognizer.find_staircase_biadjacency(p8))
    formula, _ = reductions.reduce_listhcol_to_1p1n(
        enc, graphs.Instance.with_full_lists(graphs.InstanceGraph.from_edges(64, grid), 8))
    extra = formats.parse_formula(
        "f 583\np 577\ni 579 578\ni 580 579\ni 582 581\ni 583 582\nn 582\ni 577 578\ni 578 582\n")
    yield ("oracle formula with no model", oracles.count_1p1n(oracles.ImplicationFormula(
        583, formula.clauses + extra.clauses)) == 0)

    fixtures = [
        (patterns.K2_PRIME, recognizer.Hardness.SAT_EQUIVALENT, 6),
        (patterns.TWO_WRENCH, recognizer.Hardness.SAT_EQUIVALENT, 6),
        (patterns.P4, recognizer.Hardness.BIS_EQUIVALENT, 6),
        (patterns.P3_STAR, recognizer.Hardness.BIS_EQUIVALENT, 6),
        (patterns.complete(5, reflexive=True), recognizer.Hardness.POLYTIME, None),
        (patterns.cycle(4), recognizer.Hardness.POLYTIME, None),
        (patterns.cycle(6), recognizer.Hardness.SAT_EQUIVALENT, 3),
        (patterns.CLAW, recognizer.Hardness.SAT_EQUIVALENT, 3),
    ]
    for idx, (h, klass, thr) in enumerate(fixtures):
        res = recognizer.classify(h)
        yield (f"classification fixture {idx + 1}",
               res.klass is klass and res.degree_threshold == thr)

    for trial in range(3):
        m = rng.randint(2, 5)
        edges = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)
                 if rng.random() < 0.5]
        g = graphs.InstanceGraph.from_edges(m, edges)
        _, gg = gadgets.build_symmetrized(patterns.X3, pattern_witness(patterns.RECIPES[0]))
        inst, lam, scale = gadgets.reduce_ising_to_listhcol(g, gg)
        ok = count_list_hcol(patterns.X3, inst) == scale * oracles.ising_partition(g, lam)
        yield (f"two-spin identity trial {trial + 1}", ok)

    for trial in range(3):
        m = rng.randint(1, 6)
        edges = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)
                 if rng.random() < 0.4]
        g = graphs.InstanceGraph.from_edges(m, edges)
        lists = tuple(frozenset(c for c in range(1, 4) if rng.random() < 0.7)
                      for _ in range(m))
        inst = graphs.Instance(g, lists, 3)
        enc = reductions.build_staircase_encoding(
            patterns.P3_STAR, recognizer.find_staircase_adjacency(patterns.P3_STAR))
        formula, _ = reductions.reduce_listhcol_to_1p1n(enc, inst)
        ok = oracles.count_1p1n(formula) == count_list_hcol(patterns.P3_STAR, inst)
        yield (f"formula identity trial {trial + 1}", ok)

    for trial in range(3):
        m = rng.randint(1, 6)
        sides = [rng.randint(0, 1) for _ in range(m)]
        edges = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)
                 if sides[u - 1] != sides[v - 1] and rng.random() < 0.5]
        g = graphs.InstanceGraph.from_edges(m, edges)
        inst, mult = reductions.reduce_p4_to_p3star(g)
        lhs = count_list_hcol(patterns.P4, graphs.Instance.with_full_lists(g, 4))
        ok = lhs == mult * count_list_hcol(patterns.P3_STAR, inst)
        yield (f"4-path identity trial {trial + 1}", ok)

    yield ("format round trip", formats.parse_h(formats.serialise_h(patterns.X3)) == patterns.X3
           and formats.parse_formula("f 2\np 1\ni 2 1\n").clauses == (("p", 1), ("i", 2, 1)))


def cmd_selftest(args) -> int:
    failures = 0
    for name, ok in _selftest_checks(args.seed):
        print(f"{'ok' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    print(f"selftest: {'pass' if failures == 0 else f'{failures} failure(s)'}")
    return 0 if failures == 0 else 1


# one row per command, in help order: (name, help, handler, arguments); an
# argument is a positional's name, or (option, add_argument's keywords)
_JSON = ("--json", {"action": "store_true"})
_OUT = ("--out", {"required": True})
_WITNESS = ("--witness", {"help": _WITNESS_HELP})
_COMMANDS = (
    ("classify", "classify a target graph", "cmd_classify", ("h_file", _JSON)),
    ("count", "count list colourings of an instance", "cmd_count",
     ("h_file", "instance_file")),
    ("ising", "exact two-spin partition function", "cmd_ising",
     ("g_file", ("--lambda", {"dest": "lam", "required": True, "metavar": "P/Q"}))),
    ("count-sat", "count models of an implication formula", "cmd_count_sat",
     ("formula_file",)),
    ("gadget", "build and verify the gadget for a target", "cmd_gadget",
     ("h_file", _WITNESS, ("--t", {"type": int, "help": "thickening level to verify"}), _JSON)),
    ("reduce-sat", "compile an instance to an implication formula", "cmd_reduce_sat",
     ("h_file", "instance_file", _OUT)),
    ("reduce-ising", "edge-replace a graph into a list instance", "cmd_reduce_ising",
     ("g_file", "h_file", _WITNESS, ("--t", {"type": int, "help": "thickening level"}), _OUT)),
    ("selftest", "verify the catalog and the invariants", "cmd_selftest",
     (("--seed", {"type": int, "default": 0}),)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="listhom",
        description="List-homomorphism counting toolkit: classification, "
                    "gadgets, reductions and exact oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for arg in arguments:
            flag, options = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(flag, **options)
        # looked up on each build, so a handler swapped on the module is called
        p.set_defaults(func=globals()[handler])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (Refusal, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
