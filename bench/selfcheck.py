"""Self-check of the benchmark's references and checks.

    python3 bench/selfcheck.py

1. The reference counters agree with the brute-force oracles of
   tests/helpers.py on small random instances.
2. Every op of one block of each workload passes its check, and the same
   op with a corrupted reference answer is counted as a failed op.

Exit code 0 when everything holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import shutil
import signal
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "tests")]

import helpers  # noqa: E402
import listhom.cli  # noqa: E402
from listhom.graphs import ColourGraph, Instance, InstanceGraph  # noqa: E402
from listhom.oracles import ImplicationFormula, implies  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

failures = 0


def verdict(name: str, ok: bool) -> None:
    global failures
    failures += not ok
    print(f"{'ok' if ok else 'FAIL'} {name}")


def small_graph(rng, kind):
    if kind == "tree":
        return workloads.random_tree(rng, rng.randint(1, 7))
    if kind == "cycle":
        return workloads.cycle_graph(rng.randint(3, 7))
    return workloads.grid(rng.randint(1, 2), rng.randint(1, 3))


def check_counters(rng) -> None:
    agree = True
    for _ in range(120):
        name = rng.choice(sorted(workloads.COUNT_TARGETS))
        t = workloads.COUNT_TARGETS[name]
        shape = rng.choice(("tree", "cycle", "grid"))
        m, edges = small_graph(rng, shape)
        lists = workloads.random_lists(rng, m, t.n, 0.4)
        edges, lists, order = workloads._shuffled_instance(rng, m, edges, lists)
        weight = ref.colouring_weight(t)
        got = (ref.tree_count(lists, edges, weight) if shape == "tree"
               else ref.weighted_sum(lists, edges, weight, order))
        h = ColourGraph.from_edges(t.n, t.edges())
        inst = Instance(InstanceGraph.from_edges(m, edges),
                        tuple(frozenset(c) for c in lists), t.n)
        agree &= got == len(helpers.enumerate_list_colourings(h, inst))
        agree &= ref.enumerate_sum(lists, edges, weight) == got
    verdict("list-colouring references match enumeration (120 instances)", agree)

    agree = True
    for _ in range(40):
        m, edges = small_graph(rng, rng.choice(("cycle", "grid", "tree")))
        edges, _, order = workloads._shuffled_instance(rng, m, edges, [[]] * m)
        lam = rng.choice(workloads.LAMBDAS)
        g = InstanceGraph.from_edges(m, edges)
        want = helpers.ising_direct(g, lam)
        agree &= ref.ising_value(m, edges, lam, order) == want
        a, b = lam.numerator, lam.denominator
        hist = workloads.spin_histogram(m, edges)
        spins = sum(c * a ** k * b ** (len(edges) - k) for k, c in enumerate(hist))
        agree &= Fraction(spins, b ** len(edges)) == want
    verdict("two-spin references match direct summation (40 graphs)", agree)

    agree = True
    for n in range(1, 13):
        f = ImplicationFormula(n, tuple(implies(v + 1, v) for v in range(1, n)))
        agree &= helpers.count_models_enumeration(f) == n + 1
    verdict("chain closed form n + 1 matches enumeration (n <= 12)", agree)


def check_ops(root: Path) -> None:
    for name in ("classify", "count", "gadget"):
        work = root / name
        work.mkdir()
        block = workloads.build(name, 7, work)[0]
        with run_in(work):
            # long chains hit the recursion limit at the seed commit; they
            # may fail but never give a wrong answer
            outcomes = [run.run_op(listhom.cli.main, op)[1] for op in block]
            verdict(f"{name}: every op of a block passes its check", all(
                o == "ok" or (op["slot"] == "chain-long" and o != "wrong")
                for op, o in zip(block, outcomes)))
            caught = []
            for op in block:
                if op["slot"] == "chain-long":
                    continue
                bad = corrupt(op)
                caught.append(run.run_op(listhom.cli.main, bad)[1] == "wrong")
            verdict(f"{name}: a corrupted reference fails the op ({sum(caught)}/{len(caught)})",
                    all(caught))
            if name == "count":
                check_wrong_count(block)
            if name == "classify":
                check_certificates(block)


_CERT_FLIPS = {"complete_reflexive": "complete_bipartite_irreflexive",
               "complete_bipartite_irreflexive": "complete_reflexive"}


def check_certificates(block) -> None:
    """A broken certificate in a real `classify --json` answer is rejected."""
    rejected = []
    for op in block:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            listhom.cli.main(op["steps"][0])
        res = json.loads(buf.getvalue())
        cert = res["certificate"]
        kind = cert["type"]
        if kind == "staircase":
            cert["row_order"].reverse()
        elif kind == "excluded_subgraph":
            cert["embedding"][0] = cert["embedding"][1]
        elif kind == "loop_edge":
            cert["unlooped"], cert["looped"] = cert["looped"], cert["unlooped"]
        else:
            cert["type"] = _CERT_FLIPS[kind]
        c = op["check"]
        expected = {frozenset(v): k for v, k in c["expected"]}
        rejected.append(not ref.check_classification(
            ref.Target.from_edges(c["n"], c["edges"]), expected, res))
    verdict(f"classify: a broken certificate is rejected ({sum(rejected)}/{len(rejected)})",
            all(rejected))


def check_wrong_count(block) -> None:
    """A counter that answers one too many fails every op that uses it."""
    real = listhom.cli.count_list_hcol
    listhom.cli.count_list_hcol = lambda h, inst: real(h, inst) + 1
    try:
        ops = [op for op in block if op["steps"][0][0] == "count"]
        wrong = [run.run_op(listhom.cli.main, op)[1] == "wrong" for op in ops]
    finally:
        listhom.cli.count_list_hcol = real
    verdict(f"count: a corrupted program answer fails the op ({sum(wrong)}/{len(wrong)})",
            all(wrong))


def corrupt(op: dict) -> dict:
    """The op with a wrong reference answer."""
    bad = copy.deepcopy(op)
    check = bad["check"]
    if check["type"] == "stdout":
        mode, text = check["want"][-1]
        try:
            text = str(Fraction(text) + 1)
        except ValueError:
            text = text + "x"
        check["want"][-1] = [mode, text]
    elif check["type"] == "classify":
        others = {"polytime": "sat_equivalent", "bis_equivalent": "polytime",
                  "sat_equivalent": "bis_equivalent"}
        check["expected"][0][1] = others[check["expected"][0][1]]
    elif check["type"] == "gadget":
        check["t"] += 1
    else:
        check["hist"][0] += 1
    return bad


@contextlib.contextmanager
def run_in(path: Path):
    """Work inside a directory, as the benchmark's worker does."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def main() -> int:
    signal.signal(signal.SIGALRM, run._alarm)
    check_counters(random.Random(2016))
    work = run.WORK / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        check_ops(work)
    finally:
        shutil.rmtree(work)
    print(json.dumps({"failures": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
