"""listhom benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload classify|count|gadget --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Set-up, which is not measured as op time:
the cold start of `import listhom.cli` in fresh interpreters (setup_s), then
the seeded inputs and their reference answers, written under
.bench_work/.  A worker process then imports listhom from src/ and runs
the op list as a closed loop with one client: each op calls
`listhom.cli.main(argv)` in-process, its wall time is taken, and its output
is checked against the reference (untimed).  The worker runs whole blocks
until the op time reaches --seconds and at least MIN_OPS ops ran.

With --trace 1 every block runs twice, untraced and then traced, and the
result reports per-layer metrics per traced block instead of the
end-to-end ones; the spans go to .bench_work/spans-<workload>-<seed>.jsonl.

The last line of stdout is the JSON result.  Exit code 2 when the listhom
sources are missing, 1 when the worker fails or overruns.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_OPS = 100        # so that at least 10 samples lie beyond p90
OP_CAP_S = 5.0       # per-op wall-clock cap; an op over it fails
SETUP_SPAWNS = 9     # fresh interpreters timed per run, after one warm-up
RUN_LIMIT_S = 170.0  # the whole run, set-up included
CAL_LOOP = 20000     # iterations of the calibration loop
CAL_REF_S = 0.004    # its time on the reference host; times are scaled to it
CAL_EVERY = 4        # ops between two timings of the calibration loop

sys.path.insert(0, str(HERE))
from reference import check_op  # noqa: E402
from tracing import MODULES, Tracer  # noqa: E402
from workloads import build  # noqa: E402


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that overran OP_CAP_S.  A
    BaseException, so that no handler inside listhom swallows it."""


# ---------------------------------------------------------------------------
# worker


def _alarm(signum, frame):
    raise OpTimeout


def run_op(main, op, tracer=None) -> tuple[float, str]:
    """Run one op; returns (wall seconds, outcome).  outcome is "ok",
    "wrong" (an answer differing from the reference), "timeout", or
    "error:<exception type>"; a non-zero exit code is a wrong answer."""
    call = main if tracer is None else tracer.wrap("cli.main", main)
    outs = []
    outcome = None
    sink = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    start = time.perf_counter()
    try:
        try:
            for argv in op["steps"]:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(sink):
                    code = call(argv)
                outs.append((code, buf.getvalue()))
                if code != 0:
                    break
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
    except OpTimeout:
        outcome = "timeout"
    except SystemExit as exc:  # argparse rejected the argv
        outs.append((exc.code, ""))
    except Exception as exc:  # noqa: BLE001 - any crash is a failed op
        outcome = f"error:{type(exc).__name__}"
    if tracer is not None:
        tracer.stack.clear()
    if outcome is None:
        outcome = "ok" if check_op(op["check"], outs) else "wrong"
    return elapsed, outcome


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of dict and integer work; it
    tracks the host's speed at this moment."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(CAL_LOOP):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc ^= i * 31
    return time.perf_counter() - start


def nearest_rank(sorted_values, p: float) -> float:
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def summarise(records) -> dict:
    """End-to-end figures from (seconds, outcome) records; a failed op
    counts as missing every latency limit."""
    ok = [s for s, o in records if o == "ok"]
    lat = sorted(ok) + [math.inf] * (len(records) - len(ok))
    busy = sum(s for s, _ in records)
    return {
        "ops_per_s": len(ok) / busy,
        "latency_p50_ms": nearest_rank(lat, 0.5) * 1e3,
        "latency_p90_ms": nearest_rank(lat, 0.9) * 1e3,
        "success_rate": len(ok) / len(records),
    }


def run_pass(main, block, tracer=None, number=0):
    """Run a block's ops in order, timing the calibration loop before the
    first op and after every CAL_EVERY ops.  Each op's time is scaled by
    CAL_REF_S over the mean of the two calibrations around it.  Returns
    (normalised seconds, wall seconds, outcome, scale) per op."""
    out = []
    if tracer is not None:
        tracer.install()
    try:
        before = calibrate()
        for first in range(0, len(block), CAL_EVERY):
            timed = []
            for i in range(first, min(first + CAL_EVERY, len(block))):
                if tracer is not None:
                    tracer.op = (number, i)
                timed.append(run_op(main, block[i], tracer))
            after = calibrate()
            scale = 2 * CAL_REF_S / (before + after)
            out += [(s * scale, s, o, scale) for s, o in timed]
            before = after
    finally:
        if tracer is not None:
            tracer.uninstall()
    return out


def worker(plan_path: Path) -> int:
    plan = json.loads(plan_path.read_text())
    sys.path.insert(0, str(SRC))
    import listhom.cli

    if Path(listhom.cli.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: imported listhom from {listhom.cli.__file__}", file=sys.stderr)
        return 1
    signal.signal(signal.SIGALRM, _alarm)
    blocks, seconds = plan["blocks"], plan["seconds"]
    main = listhom.cli.main
    run_op(main, blocks[0][0])  # warm-up, not recorded

    tracer = Tracer() if plan["trace"] else None
    plain, traced = [], []
    scales = {}  # op id of a traced op -> its scale
    done = 0
    busy = 0.0
    while busy < seconds or len(plain) < MIN_OPS:
        block = blocks[done % len(blocks)]
        out = run_pass(main, block)
        plain += out
        busy += sum(r[1] for r in out)
        if tracer is not None:
            out = run_pass(main, block, tracer, done)
            traced += out
            busy += sum(r[1] for r in out)
            scales.update(((done, i), r[3]) for i, r in enumerate(out))
        done += 1
    result = {
        "blocks": done,
        "records": [(r[0], r[2]) for r in plain],
        "traced_records": [(r[0], r[2]) for r in traced],
        "raw": summarise([(r[1], r[2]) for r in plain]),
        "wrong": sum(r[2] == "wrong" for r in plain + traced),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.write(plan["spans_path"])
        result["self_s"] = tracer.self_times(lambda op: scales[op])
        result["calls"] = tracer.calls()
        result["counts"] = tracer.counts
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# set-up, worker and result


def measure_setup() -> tuple[float, float]:
    """Median seconds from spawning an interpreter until `import
    listhom.cli` returns in it, over SETUP_SPAWNS spawns after a warm-up
    (which also writes the bytecode cache): (normalised, wall clock)."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import listhom.cli\n"
        "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
    )
    samples, raw = [], []
    for _ in range(SETUP_SPAWNS + 1):
        cal = calibrate()
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=30)
        raw.append(float(out.stdout.split()[-1]) - start)
        samples.append(raw[-1] * CAL_REF_S / cal)
    return statistics.median(samples[1:]), statistics.median(raw[1:])


PER_LAYER = {
    # metric: (span or counter name, kind)
    "recognizer.classify.self_s": ("recognizer.classify", "self"),
    "recognizer.staircase.self_s": ("recognizer.staircase", "self"),
    "recognizer.excluded.self_s": ("recognizer.excluded", "self"),
    "recognizer.certify.self_s": ("recognizer.certify", "self"),
    "recognizer.staircase.calls": ("recognizer.staircase", "calls"),
    "oracles.count_list_hcol.self_s": ("oracles.count_list_hcol", "self"),
    "oracles.count_list_hcol.calls": ("oracles.count_list_hcol", "calls"),
    "oracles.count_list_hcol.vertices": ("oracles.count_list_hcol.vertices", "count"),
    "oracles.count_1p1n.self_s": ("oracles.count_1p1n", "self"),
    "oracles.count_1p1n.calls": ("oracles.count_1p1n", "calls"),
    "oracles.count_1p1n.vars": ("oracles.count_1p1n.vars", "count"),
    "oracles.ising_partition.self_s": ("oracles.ising_partition", "self"),
    "oracles.ising_partition.calls": ("oracles.ising_partition", "calls"),
    "reductions.encode.self_s": ("reductions.encode", "self"),
    "reductions.encode.clauses": ("reductions.encode.clauses", "count"),
    "gadgets.symmetrize.self_s": ("gadgets.symmetrize", "self"),
    "gadgets.thicken.self_s": ("gadgets.thicken", "self"),
    "gadgets.bruteforce.self_s": ("gadgets.bruteforce", "self"),
    "gadgets.edge_replace.self_s": ("gadgets.edge_replace", "self"),
    "gadgets.edge_replace.vertices": ("gadgets.edge_replace.vertices", "count"),
    "formats.parse.self_s": ("formats.parse", "self"),
    "formats.parse.bytes": ("formats.parse.bytes", "count"),
    "formats.serialise.self_s": ("formats.serialise", "self"),
    "formats.serialise.bytes": ("formats.serialise.bytes", "count"),
    "cli.main.self_s": ("cli.main", "self"),
    "graphs.construct.self_s": ("graphs.construct", "self"),
}
UNITS = {"self": "s", "calls": "count", "count": "count"}


def layer_metrics(res: dict) -> dict:
    """Per-layer figures per traced block, from the worker's trace."""
    blocks = res["blocks"]
    self_s, calls, counts = res["self_s"], res["calls"], res["counts"]
    table = {"self": self_s, "calls": calls, "count": counts}
    out = {}
    for metric, (key, kind) in PER_LAYER.items():
        unit = "B" if metric.endswith(".bytes") else UNITS[kind]
        out[metric] = (table[kind].get(key, 0) / blocks, unit)
    stair = calls.get("recognizer.staircase", 0)
    out["recognizer.staircase.hit_ratio"] = (
        counts.get("recognizer.staircase.hits", 0) / stair if stair else 0.0, "ratio")
    for module in MODULES:
        total = sum(v for k, v in self_s.items() if k.split(".")[0] == module)
        out[f"layer.{module}.self_s"] = (total / blocks, "s")
    traced_busy = sum(s for s, _ in res["traced_records"])
    out["trace.coverage"] = (sum(self_s.values()) / traced_busy, "ratio")
    out["trace.overhead_ratio"] = (
        summarise(res["traced_records"])["ops_per_s"] / summarise(res["records"])["ops_per_s"],
        "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("classify", "count", "gadget"))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return worker(Path(args.worker))
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not (SRC / "listhom" / "cli.py").is_file():
        print(f"error: no listhom sources under {SRC}", file=sys.stderr)
        return 2

    began = time.monotonic()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_s, raw_setup_s = measure_setup()
        t0 = time.monotonic()
        blocks = build(args.workload, args.seed, work)
        inputs_s = time.monotonic() - t0
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        plan = {"blocks": blocks, "seconds": args.seconds, "trace": args.trace,
                "spans_path": str(spans_path)}
        (work / "plan.json").write_text(json.dumps(plan))
        budget = RUN_LIMIT_S - (time.monotonic() - began)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker", "plan.json"],
            cwd=work, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        print("error: the worker overran the run limit", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    records = res["records"] + res["traced_records"]
    failed = sum(o != "ok" for _, o in records)
    outcomes = sorted({o for _, o in records if o != "ok"})
    e2e = summarise(res["records"])
    raw = res["raw"]
    print(f"workload={args.workload} seed={args.seed} blocks={res['blocks']} "
          f"ops={len(records)} latency_samples={len(res['records'])} failed={failed} "
          f"{outcomes} error_rate={1 - e2e['success_rate']:.4f} inputs={inputs_s:.2f}s; "
          f"wall clock: ops_per_s={raw['ops_per_s']:.2f} p50={raw['latency_p50_ms']:.2f}ms "
          f"p90={raw['latency_p90_ms']:.2f}ms setup={raw_setup_s:.3f}s", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(res)
        layers = {k[len("layer."):-len(".self_s")]: v for k, (v, _) in metrics.items()
                  if k.startswith("layer.")}
        print("self time by layer per block: " + ", ".join(
            f"{k}={v:.4f}s" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
            + f"; dominant={max(layers, key=layers.get)}", file=sys.stderr)
    else:
        metrics = {
            "ops_per_s": (e2e["ops_per_s"], "1/s"),
            "latency_p50_ms": (e2e["latency_p50_ms"], "ms"),
            "latency_p90_ms": (e2e["latency_p90_ms"], "ms"),
            "success_rate": (e2e["success_rate"], "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
        }
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
