"""Size ladders: time `classify` on relabelled targets of 30 to 3,840
colours, the gadget report on those of 30 to 480, exact counts on k x k
grids, of list colourings and of the formulas reduce-sat compiles from
them, and reading and counting long implication chains, and write the
results as JSON.

    python3 tools/ladder.py --run parent=../parent/src --run change=src --out BENCH_9.json

Each ``--run LABEL=SRC`` imports listhom from the directory SRC (a checkout's
``src``), so two commits can be compared in one file.  The recogniser
families are relabelled at random with a fixed seed:

* ``even_cycle_leaves``: C_2k with a leaf on every other cycle colour (3k
  colours); bipartite, certified by the hole CycleNe4(2k);
* ``odd_cycle_leaves``: C_(2k+1) with k - 1 such leaves (3k colours);
  certified by the odd cycle CycleNe4(2k+1);
* ``reflexive_cycle_pendants``: the reflexive C_2k with a looped pendant on
  every other cycle colour (3k colours); certified by a Claw.

Each of their steps times only the ``classify`` call.  It records the class,
the witness kind and length, whether ``verify()`` accepts the witness,
whether that is the expected witness, and the step's peak RSS.  It also
times building the target, ``ColourGraph.from_edges`` on the relabelled
edges, as ``_timed`` times a call ("build_seconds", the fastest), and
records the peak memory that tracemalloc traces in one more build
("build_peak_mib", taken after the peak RSS).

The gadget family runs on the same relabelled hosts:

* ``gadget_even_cycle``: the ``even_cycle_leaves`` hosts; each step takes
  the witness from ``classify`` outside the timing and times only
  ``cli._gadget_report(h, witness, (0,))`` (the symmetrised gadget, its
  brute-force checks and thickening at level 0).  It records the witness,
  whether it is the expected one, whether every check of the report
  passes, the thickened gadget's vertex count and the step's peak RSS.

The counting families run on the k x k grid, k = 8 to 16:

* ``k2prime_grid``: K2' with full lists (``count_list_hcol``);
* ``two_spin_grid``: the two-spin model at lambda = 1/2 (``ising_partition``);
* ``k2prime_grid_refusal``: K2' on the 30 x 30 grid, for which every order
  the engine knows needs a table over its limit, so the step times the
  refusal.

Each of their steps times only the count.  It records the answer or the
refusal message, each elimination plan the engine drew up (its rule,
induced width, largest table and total table entries, where the engine
reports them), the step's peak RSS, and whether the answer equals a
row-by-row transfer-matrix count (``grid_transfer_count`` in
``tests/helpers.py``, run after the peak RSS is read).

The reduce-sat families compile full-list instances on the k x k grid with
``reduce_listhcol_to_1p1n`` and count them both ways:

* ``reduce_sat_grid_p6`` and ``reduce_sat_grid_p8``: the irreflexive 6-
  and 8-vertex paths, k = 3 to 6;
* ``reduce_sat_grid_p3star`` and ``reduce_sat_grid_p4star``: the reflexive
  3- and 4-vertex paths, k = 6 to 11 and 5 to 9.

Each of their steps times ``count_1p1n`` on the formula ("seconds", with
the formula built outside the timing) and ``count_list_hcol`` on the
instance ("count_seconds").  It records both answers or refusals, the plans
``count_1p1n`` drew up, the peak RSS, and whether each answer equals the
transfer-matrix count (null for a refusal).  A bit-level plan that stopped
once its total reached a grouped plan's that fits is recorded as far as it
got, its total at least the grouped one.  The largest k of each family is
past what either counter takes, so the step shows where both refuse.

The reduce-ising families write, as ``reduce-ising`` does, the X3 gadget
thickened at t = 1 on every edge of a graph:

* ``reduce_ising_count``: the k x k grid, k = 4 to 12;
* ``reduce_ising_cycle``: the m-cycle, m = 100 to 6,400.

Each of their steps times ``parse_instance`` and ``count_list_hcol`` on the
written instance, the path of ``count``.  It records the answer, the plans,
the graph's and the instance's vertex counts and the peak RSS, and whether
the answer is the expected one.  With the thickened gadget's matrix
[[a, b], [b, a]] as the edge weights, that is the grid's transfer-matrix
count, and (a + b)^m + (a - b)^m on the m-cycle.  The series-parallel phase
counts the cycle's instances whole, so their steps record no plan.  The
answer is written through ``helpers.decimal_text``: at m = 6,400 it has
more digits than ``str()`` converts.

The count-sat family reads and counts a formula file, the path of
``count-sat``:

* ``count_sat_chain``: the text "f n" with a line "i v+1 v" for each v
  below n, n = 1,500 to 150,000.

Each of its steps builds the text outside the timing and times
``parse_formula`` and ``count_1p1n`` on it.  It records the answer, the
plans and the peak RSS, and whether the answer is n + 1, the number of
prefixes of ones.

Every step runs REPEATS times per ``--run``, each time in a fresh
interpreter, the runs of the labels taking turns.  A run makes the timed
call up to CALLS times, fewer once its calls add up to BUDGET_S seconds,
and builds the input of each call anew outside the timing; the answer and
the plans are those of its first call.  A run's "seconds" is its fastest
call.  A step records its median run by that figure and, under "times",
the seconds of every call, run by run, in the order they ran.  A step with
a run past the cap is recorded as "timeout", and a step with a run that
exits non-zero (say, a family calling what an older checkout lacks) as
"failed" with the last line of its stderr under "error"; either ends its
family for that label.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIZES = (30, 60, 120, 240, 480)
# the classify families also run at these sizes, where a quadratic step shows
LARGE_SIZES = (960, 1920, 3840)
GRID_SIZES = tuple(range(8, 17))
CAP_S = 60
# fresh interpreters per step: one run carries the machine's noise
REPEATS = 3
# timed calls per run, at most, and the seconds of calls after which a run stops
CALLS = 7
BUDGET_S = 1.0
RELABEL_SEED = 1


def _cycle_with_leaves(q: int, leaves: int, reflexive: bool):
    """(colours, edges, kind, length): C_q on colours 1..q with a pendant on
    each of the cycle colours 1, 3, 5, ..., leaves of them in all."""
    edges = [(v, v % q + 1) for v in range(1, q + 1)]
    edges += [(2 * i - 1, q + i) for i in range(1, leaves + 1)]
    n = q + leaves
    if reflexive:
        return n, edges + [(v, v) for v in range(1, n + 1)], "Claw", None
    return n, edges, "CycleNe4", q


CLASSIFY_FAMILIES = {
    "even_cycle_leaves": lambda n: _cycle_with_leaves(2 * (n // 3), n // 3, False),
    "odd_cycle_leaves": lambda n: _cycle_with_leaves(2 * (n // 3) + 1, n // 3 - 1, False),
    "reflexive_cycle_pendants": lambda n: _cycle_with_leaves(2 * (n // 3), n // 3, True),
}
# each gadget family and the classify family whose hosts it uses
GADGET_FAMILIES = {"gadget_even_cycle": "even_cycle_leaves"}
GRID_FAMILIES = {"k2prime_grid": GRID_SIZES, "two_spin_grid": GRID_SIZES,
                 "k2prime_grid_refusal": (30,)}
# each reduce-sat family: (colours of its path target, reflexive) and its k
REDUCE_SAT_FAMILIES = {
    "reduce_sat_grid_p6": ((6, False), (3, 4, 5, 6)),
    "reduce_sat_grid_p8": ((8, False), (3, 4, 5, 6)),
    "reduce_sat_grid_p3star": ((3, True), tuple(range(6, 12))),
    "reduce_sat_grid_p4star": ((4, True), tuple(range(5, 10))),
}
# each reduce-ising family: (witness kind, thickening level, graph shape) and
# its sizes, the grid's side or the cycle's length
REDUCE_ISING_FAMILIES = {"reduce_ising_count": (("X3", 1, "grid"), tuple(range(4, 13))),
                         "reduce_ising_cycle": (("X3", 1, "cycle"), (100, 400, 1600, 6400))}
# each count-sat family and its variable counts
COUNT_SAT_FAMILIES = {"count_sat_chain": (1500, 15000, 150000)}
FAMILIES = {**{family: SIZES + LARGE_SIZES for family in CLASSIFY_FAMILIES},
            **{family: SIZES for family in GADGET_FAMILIES},
            **GRID_FAMILIES,
            **{family: sizes for family, (_, sizes) in REDUCE_SAT_FAMILIES.items()},
            **{family: sizes for family, (_, sizes) in REDUCE_ISING_FAMILIES.items()},
            **COUNT_SAT_FAMILIES}


def _peak_rss_mib() -> float:
    import resource

    # ru_maxrss is in KiB on Linux
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def _timed(build, call):
    """(first input, first result, seconds of each call) of call(build())
    made up to CALLS times, fewer once the calls add up to BUDGET_S; each
    input is built outside the timing."""
    times = []
    while len(times) < CALLS and sum(times) < BUDGET_S:
        arg = build()
        start = time.perf_counter()
        out = call(arg)
        times.append(round(time.perf_counter() - start, 6))
        if len(times) == 1:
            first = arg, out
    return *first, times


def step(src: str, family: str, size: int) -> dict:
    """One ladder step in this interpreter, with listhom imported from src."""
    sys.path.insert(0, src)
    if family in GRID_FAMILIES:
        return _grid_step(family, size)
    if family in REDUCE_SAT_FAMILIES:
        return _reduce_sat_step(family, size)
    if family in REDUCE_ISING_FAMILIES:
        return _reduce_ising_step(family, size)
    if family in COUNT_SAT_FAMILIES:
        return _count_sat_step(size)
    from listhom.graphs import ColourGraph
    from listhom.recognizer import ExcludedWitness, classify

    n, edges, kind, length = CLASSIFY_FAMILIES[GADGET_FAMILIES.get(family, family)](size)
    perm = list(range(1, n + 1))
    random.Random(RELABEL_SEED).shuffle(perm)
    edges = [(perm[u - 1], perm[v - 1]) for u, v in edges]

    def host():
        return ColourGraph.from_edges(n, edges)

    if family in GADGET_FAMILIES:
        return _gadget_step(host, (kind, length))
    h, res, times = _timed(host, classify)
    out = {"colours": n, "seconds": min(times), "times": times,
           "class": res.klass.name.lower(), "kind": None, "length": None, "verified": False}
    if isinstance(res.reason, ExcludedWitness):
        w = res.reason
        out.update(kind=w.kind, length=w.length, verified=w.verify(h))
    out["expected"] = out["verified"] and (out["kind"], out["length"]) == (kind, length)
    out["build_seconds"] = min(_timed(lambda: None, lambda _: host())[2])
    out["peak_rss_mib"] = _peak_rss_mib()
    tracemalloc.start()
    try:
        host()
        out["build_peak_mib"] = round(tracemalloc.get_traced_memory()[1] / 2 ** 20, 3)
    finally:
        tracemalloc.stop()
    return out


def _gadget_step(host, expected: tuple) -> dict:
    from listhom import cli
    from listhom.recognizer import classify

    witness = classify(host()).reason
    h, report, times = _timed(host, lambda h: cli._gadget_report(h, witness, (0,)))
    return {"colours": h.n, "seconds": min(times), "times": times, "kind": witness.kind,
            "length": witness.length, "expected": (witness.kind, witness.length) == expected,
            "checks_pass": all(report["checks"].values()),
            "thickened_vertices": report["thickened_vertices"],
            "peak_rss_mib": _peak_rss_mib()}


def _helpers():
    spec = importlib.util.spec_from_file_location("helpers", ROOT / "tests" / "helpers.py")
    helpers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helpers)
    return helpers


def _timed_count(build, count):
    """(answer, refusal, plans, seconds of each call) of count(build()), made
    as _timed makes its calls.  The answer is None on a refusal (a
    ValueError), whose message is the refusal; the plans are those the
    engine drew up on the first call."""
    from listhom import oracles

    plans = []
    real = oracles._plan

    def recording(*args):
        plan = real(*args)
        plans.append({"rule": plan.rule, "width": plan.width, "largest": plan.largest,
                      "total": getattr(plan, "total", None)})
        return plan

    def call(arg):
        try:
            return count(arg), None
        except ValueError as err:
            return None, str(err)
        finally:
            oracles._plan = real  # only the first call's plans are recorded

    oracles._plan = recording
    try:
        _, (answer, refused), times = _timed(build, call)
    finally:
        oracles._plan = real
    return answer, refused, plans, times


def _grid_step(family: str, k: int) -> dict:
    from fractions import Fraction

    from listhom import oracles, patterns
    from listhom.graphs import Instance, InstanceGraph

    helpers = _helpers()
    two_spin = family == "two_spin_grid"

    def build():
        g = InstanceGraph.from_edges(k * k, helpers.grid_edges(k))
        return g if two_spin else Instance.with_full_lists(g, 2)

    def count(arg):
        if two_spin:
            return oracles.ising_partition(arg, Fraction(1, 2))
        return oracles.count_list_hcol(patterns.K2_PRIME, arg)

    answer, refused, plans, times = _timed_count(build, count)
    out = {"vertices": k * k, "seconds": min(times), "times": times,
           "answer": None if answer is None else str(answer), "refused": refused,
           "plans": plans, "peak_rss_mib": _peak_rss_mib()}
    if answer is not None:
        if two_spin:
            # lam = 1/2: an agreeing edge weighs 1 and any other 2, over 2^|E|
            want = Fraction(helpers.grid_transfer_count(k, [[1, 2], [2, 1]]),
                            2 ** len(helpers.grid_edges(k)))
        else:
            want = helpers.grid_transfer_count(k, helpers.dense(patterns.K2_PRIME))
        out["expected"] = answer == want
    return out


def _reduce_sat_step(family: str, k: int) -> dict:
    from listhom import oracles, patterns
    from listhom.graphs import Instance, InstanceGraph
    from listhom.recognizer import find_staircase_adjacency, find_staircase_biadjacency
    from listhom.reductions import build_staircase_encoding, reduce_listhcol_to_1p1n

    helpers = _helpers()
    colours, reflexive = REDUCE_SAT_FAMILIES[family][0]
    h = patterns.path(colours, reflexive=reflexive)
    enc = build_staircase_encoding(
        h, find_staircase_biadjacency(h) or find_staircase_adjacency(h))

    def instance():
        return Instance.with_full_lists(InstanceGraph.from_edges(k * k, helpers.grid_edges(k)), h.n)

    answer, refused, plans, times = _timed_count(
        lambda: reduce_listhcol_to_1p1n(enc, instance())[0], oracles.count_1p1n)
    count, count_refused, _, count_times = _timed_count(
        instance, lambda inst: oracles.count_list_hcol(h, inst))
    out = {"vertices": k * k, "colours": h.n, "seconds": min(times), "times": times,
           "answer": None if answer is None else str(answer), "refused": refused,
           "plans": plans, "count_seconds": min(count_times), "count_times": count_times,
           "count_answer": None if count is None else str(count),
           "count_refused": count_refused, "peak_rss_mib": _peak_rss_mib()}
    if answer is not None or count is not None:
        want = helpers.grid_transfer_count(k, helpers.dense(h))
        out["expected"] = None if answer is None else answer == want
        out["count_expected"] = None if count is None else count == want
    return out


def _reduce_ising_step(family: str, size: int) -> dict:
    from listhom import oracles, patterns
    from listhom.formats import parse_instance, serialise_instance
    from listhom.gadgets import build_symmetrized, reduce_ising_to_listhcol, thicken
    from listhom.graphs import InstanceGraph
    from listhom.recognizer import ExcludedWitness

    helpers = _helpers()
    kind, t, shape = REDUCE_ISING_FAMILIES[family][0]
    h = patterns.recipe(kind).pattern
    entry, gg = build_symmetrized(h, ExcludedWitness(kind, None, tuple(h.colours)))
    thick = thicken(h, gg, entry.cond_pair, t)
    if shape == "grid":
        g = InstanceGraph.from_edges(size * size, helpers.grid_edges(size))
    else:
        g = InstanceGraph.from_edges(size, [(v, v % size + 1) for v in range(1, size + 1)])
    inst, _, _ = reduce_ising_to_listhcol(g, thick)
    text = serialise_instance(inst)

    answer, refused, plans, times = _timed_count(
        lambda: text, lambda text: oracles.count_list_hcol(h, parse_instance(text, h.n)))
    out = {f"{shape}_vertices": g.m, "vertices": inst.g.m, "seconds": min(times),
           "times": times, "answer": None if answer is None else helpers.decimal_text(answer),
           "refused": refused, "plans": plans, "peak_rss_mib": _peak_rss_mib()}
    if answer is not None:
        # the count is the graph's two-spin sum with weight a on each
        # agreeing edge and b on any other, where [[a, b], [b, a]] is the
        # gadget's matrix; on the cycle, the trace of its size-th power
        if shape == "grid":
            want = helpers.grid_transfer_count(size, thick.matrix)
        else:
            (a, b), _ = thick.matrix
            want = (a + b) ** size + (a - b) ** size
        out["expected"] = answer == want
    return out


def _count_sat_step(n: int) -> dict:
    from listhom.formats import parse_formula
    from listhom.oracles import count_1p1n

    # x_{v+1} -> x_v: the models are the n + 1 prefixes of ones
    text = "\n".join([f"f {n}"] + [f"i {v + 1} {v}" for v in range(1, n)]) + "\n"
    answer, refused, plans, times = _timed_count(
        lambda: text, lambda text: count_1p1n(parse_formula(text)))
    return {"variables": n, "seconds": min(times), "times": times,
            "answer": None if answer is None else str(answer), "refused": refused,
            "plans": plans, "peak_rss_mib": _peak_rss_mib(), "expected": answer == n + 1}


def _git(src: Path, *args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(src), *args],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def commit_of(src: Path) -> str | None:
    """The commit checked out at src, with "+dirty" if its tree has edits."""
    head = _git(src, "rev-parse", "HEAD")
    if head is None:
        return None
    return head + ("+dirty" if _git(src, "status", "--porcelain", "--", ".") else "")


def machine_note() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            model = next(
                line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{model}, {os.cpu_count()} CPUs, {platform.system()} {platform.release()}"


def _run(src: Path, family: str, size: int) -> dict:
    """One run of a step in a fresh interpreter.  Its "seconds" are
    "timeout" past the cap, and "failed" on a non-zero exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--step", str(src), family, str(size)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CAP_S)
    except subprocess.TimeoutExpired:
        return {"seconds": "timeout"}
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
        return {"seconds": "failed", "error": lines[-1]}
    return json.loads(proc.stdout)


def _ended(run: dict) -> bool:
    return isinstance(run["seconds"], str)


def ladder(srcs: dict[str, Path]) -> dict:
    """The families of each label.  The labels take turns on every run of
    every step, so a drift in the machine's load falls on all of them."""
    families = {label: {family: [] for family in FAMILIES} for label in srcs}
    for family, sizes in FAMILIES.items():
        live = dict(srcs)  # the labels whose family has not ended
        for size in sizes:
            runs = {label: [] for label in live}
            for _ in range(REPEATS):
                for label, src in live.items():
                    if not any(map(_ended, runs[label])):
                        runs[label].append(_run(src, family, size))
            for label, done in runs.items():
                steps = families[label][family]
                if _ended(done[-1]):
                    steps.append({"size": size, **done[-1]})
                    print(f"{label} {family} {size}: {done[-1]}", file=sys.stderr)
                    del live[label]
                    continue
                median = sorted(done, key=lambda run: run["seconds"])[REPEATS // 2]
                steps.append({"size": size, **median, "times": [run["times"] for run in done]})
                print(f"{label} {family} {size}: {steps[-1]['times']} s", file=sys.stderr)
    return families


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--run", action="append", metavar="LABEL=SRC",
                    help="a label and the src directory to import listhom from")
    ap.add_argument("--out", type=Path, help="where to write the JSON results")
    ap.add_argument("--step", nargs=3, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.step:
        src, family, size = args.step
        print(json.dumps(step(src, family, int(size))))
        return 0
    if not args.run or args.out is None:
        ap.error("--run and --out are required")
    srcs = {}
    for spec in args.run:
        label, sep, src = spec.partition("=")
        srcs[label] = Path(src).resolve()
        if not sep or not (srcs[label] / "listhom" / "recognizer.py").is_file():
            ap.error(f"--run {spec}: expected LABEL=SRC with listhom under SRC")
    families = ladder(srcs)
    runs = {label: {"commit": commit_of(src), "families": families[label]}
            for label, src in srcs.items()}
    report = {
        "what": "seconds of one classify call, one gadget report or one count per step"
                " (each input built outside the timing): the fastest call of the"
                " median run, and every call of every run under times; a reduce-sat"
                " step times count_1p1n there and count_list_hcol under count_seconds,"
                " and a count-sat step times parse_formula and count_1p1n",
        "python": platform.python_version(),
        "machine": machine_note(),
        "cap_s": CAP_S,
        "repeats": REPEATS,
        "calls": CALLS,
        "budget_s": BUDGET_S,
        "sizes": {family: sizes for family, sizes in FAMILIES.items()},
        "relabel_seed": RELABEL_SEED,
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
