"""Seeded benchmark of welldom: four workloads, timed end to end and per layer.

Run one workload (the last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
whenever that line is printed, and ``correct`` carries the verdict):

    python3 bench/run.py --workload eared --seed 3 --seconds 10 --trace 0

or every workload, each in its own process, with a table of the results:

    python3 bench/run.py --seed 3

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, run_s,
graph_p50_ms, peak_rss_mib); their times are scaled to a reference speed of
the machine measured between operations (pace.py).  With ``--trace 1`` the
run measures untraced rounds for half the seconds, then wraps the public
functions of welldom's layers and reports per-layer calls, times, self times
and counters for one set-up plus one round, with the tracing overhead; the
spans go to bench/out/.
The program is welldom from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
from pace import Pace
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5
EXIT_NO_PROGRAM = 2


def import_welldom():
    """Import welldom afresh from src/ (dropping any copy already imported)."""
    for name in [m for m in sys.modules if m == "welldom" or m.startswith("welldom.")]:
        del sys.modules[name]
    wd = importlib.import_module("welldom")
    importlib.import_module("welldom.cli")
    return wd


def set_up(workload, seed: int, workdir: Path, pace: Pace):
    """Set up once between two reference samples; returns the scaled set-up time."""
    pace.sample()
    started = perf_counter()
    wd = import_welldom()
    state = workload.setup(wd, seed, workdir)
    ended = perf_counter()
    pace.sample()
    return wd, state, pace.scaled(started, ended)


def run_round(ops, keep: bool, pace: Pace) -> tuple[list[tuple[float, float]], list, int]:
    """Run every operation once, with reference samples between operations
    when due; returns the (start, end) of each operation, the outputs if
    ``keep`` (None for a failed operation) and the number that failed."""
    op_spans, outputs, failed = [], [], 0
    for label, op in ops:
        pace.due()
        t0 = perf_counter()
        try:
            ok, output = op()
        except Exception:  # a crash in the program counts as a failed operation
            print(f"{label}: operation raised\n{traceback.format_exc(limit=3)}", file=sys.stderr)
            ok, output = False, None
        op_spans.append((t0, perf_counter()))
        if keep:
            outputs.append(output if ok else None)
        failed += not ok
    return op_spans, outputs, failed


def measure(workload, wd, state, seconds: float, tracer=None):
    """Whole rounds until ``seconds`` have passed (at least one).  Every
    operation's time is scaled by the reference samples around it (pace.py);
    a round's time is the sum of its operations' scaled times.  Only the first
    round's outputs are kept for the checks, so memory does not grow with the
    number of rounds."""
    ops = workload.ops(wd, state)
    pace = Pace()
    round_spans, roots = [], []
    attempted = failed = 0
    outputs = None
    started = perf_counter()
    while True:
        keep = outputs is None
        if tracer is None:
            op_spans, outs, fails = run_round(ops, keep, pace)
        else:
            with tracer.root("bench.round") as root:
                op_spans, outs, fails = run_round(ops, keep, pace)
            roots.append(root)
        round_spans.append(op_spans)
        attempted += len(ops)
        failed += fails
        if keep:
            outputs = outs
        if perf_counter() - started >= seconds:
            break
    pace.sample()
    op_times = [[pace.scaled(t0, t1) for t0, t1 in op_spans] for op_spans in round_spans]
    return {"rounds": [sum(times) for times in op_times], "op_times": op_times, "attempted": attempted,
            "failed": failed, "outputs": outputs, "roots": roots}


def run_s(result) -> float:
    return statistics.fmean(result["rounds"])


def graph_p50_ms(workload, state, result) -> float:
    if workload.per_graph_ops:
        # each graph's mean over the rounds, then the median over the graphs
        return statistics.median(statistics.fmean(times) for times in zip(*result["op_times"])) * 1000
    # one operation is a whole sweep: the round time per generated graph
    return run_s(result) / state["graphs"] * 1000


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "welldom" / "__init__.py").is_file():
        print(f"error: no welldom sources under {ROOT / 'src'}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[name]
    workdir = OUT / f"{name}-{seed}-inputs"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, pace = [], Pace()
        for _ in range(SETUP_REPEATS):
            wd, state, elapsed = set_up(workload, seed, workdir, pace)
            setups.append(elapsed)
        if Path(wd.__file__).resolve().parent != ROOT / "src" / "welldom":
            print(f"error: welldom was imported from {wd.__file__}", file=sys.stderr)
            return EXIT_NO_PROGRAM
        if trace:
            # the run's seconds are shared between the untraced and the traced rounds
            untraced = measure(workload, wd, state, seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            with tracer.root("bench.setup") as setup_root:
                state = workload.setup(wd, seed, workdir)
            result = measure(workload, wd, state, seconds / 2, tracer)
            layers = tracer.layer_metrics(result["roots"], setup_root)
            roots = set(result["roots"])
            round_spans = (sum(1 for s in tracer.spans if s[4] in roots) - len(roots)) / len(roots)
            metrics = spans.per_layer_values(layers, run_s(result), run_s(untraced), round_spans)
            tracer.write(OUT / f"trace-{name}-seed{seed}.json")
        else:
            result = measure(workload, wd, state, seconds)
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "run_s": {"value": run_s(result), "unit": "s"},
                "graph_p50_ms": {"value": graph_p50_ms(workload, state, result), "unit": "ms"},
                "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                 "unit": "MiB"},
            }
        try:
            errors = workload.check(wd, state, result["outputs"])
        except Exception as exc:  # the program raised while the checker asked it again
            errors = [f"check stopped: {exc!r}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in errors[:20]:
        print(f"incorrect: {error}", file=sys.stderr)
    rounds = len(result["rounds"])
    print(f"{name}: seed {seed}, {rounds} round(s), {result['attempted']} operations, "
          f"{result['failed']} failed, {len(errors)} mismatches")
    print(json.dumps({"correct": not errors, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; prints one table."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            worst = max(worst, proc.returncode or 1)
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(proc.stderr, file=sys.stderr)
            worst = max(worst, 1)
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:14.6g} {entry['unit']}")
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measure whole rounds for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
