"""qbrownian benchmark: seeded CLI workloads, checked rows, per-layer trace.

Usage, from the repository root::

    python3 bench/run.py --workload closed_form --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10   # all four, one table

Each op is one in-process call of ``qbrownian.cli.main(argv)`` on a config
file written before timing; single process, BLAS pinned to one thread.
The op list of a workload is repeated in rounds until ``--seconds`` is
spent, and every output row is checked once (later rounds must repeat the
first byte for byte).

``--trace 0`` reports the end-to-end metrics, all from each op's median
wall time over the rounds: rows_per_s (rows passing every check over the
sum of those medians, i.e. a typical round), op_p50_ms and op_tail_ms (the
highest percentile up to p99 with ten ops beyond it) across ops,
peak_rss_mb of a fresh process running one round, and setup_s, the median
cold start of a fresh interpreter running the first op minus that op's
warm time. ``--trace 1`` alternates untraced and traced rounds and reports
per-layer counters, self times, ``trace.overhead_frac`` and failed_frac.

The last stdout line is one JSON object: ``correct`` (every output could
be checked and was reproducible), ``attempted`` and ``failed`` rows per
round, and ``metrics``. Rows failing a check are counted by cause in the
lines above it. Exits 2 without a result when a check cannot run.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPS = 9


def _fail(message):
    print(f"benchmark cannot run: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "qbrownian" / "cli.py").is_file():
    _fail(f"no program source at {SRC}")
if not (ROOT / "BENCHMARK.json").is_file():
    _fail(f"no {ROOT / 'BENCHMARK.json'}")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from check import Checker, CheckError, Panel  # noqa: E402
from qbrownian import cli  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
    _fail(f"qbrownian imported from {cli.__file__}, not from {SRC}")

import layers  # noqa: E402


def call(argv):
    """Run one CLI op in-process: exit code, or the name of what it raised."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the op boundary: a raise is a counted failure
        return type(exc).__name__


def run_round(argvs, times=None, tracer=None):
    """All ops once; returns (wall s, outcomes, outputs)."""
    outcomes, outputs = [], []
    start = time.perf_counter()
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            outcome = call(argv)
        t1 = time.perf_counter()
        if times is not None:
            times.append(t1 - t0)
        outcomes.append(outcome)
        outputs.append(out.getvalue())
    return time.perf_counter() - start, outcomes, outputs


def fresh_process(ops_file):
    """Wall time and reply of a fresh interpreter running the ops in ops_file."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(ops_file)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        _fail(f"fresh-process probe exited {proc.returncode}: {proc.stderr[-400:]}")
    return wall, json.loads(proc.stdout.splitlines()[-1])


def tail(samples):
    """Highest percentile, at most p99, with at least ten samples beyond it.

    The p99 cap keeps runs with thousands of ops from reporting only their
    handful of slowest scheduler or collector pauses.
    Returns (value, percentile).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    beyond = max(10, math.ceil(0.01 * n))
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def record():
    """Machine and program identity stored with the results."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_workload(name, seed, seconds, traced, lines):
    ops = workloads.generate(name, seed)
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    argvs = workloads.materialize(ops, work)
    panel = Panel(HERE / "panel.json")
    (work / "first.json").write_text(json.dumps(argvs[:1]))
    (work / "all.json").write_text(json.dumps(argvs))

    rss = fresh_process(work / "all.json")[1]["peak_rss_kb"] / 1024.0
    cold = []
    run_round(argvs[:1])  # warm-up: lazy imports and first-call costs

    tracer = layers.Tracer() if traced else None
    walls, traced_walls, times, per_round = [], [], [], []
    first = None
    reproducible = True
    begin = time.perf_counter()
    while True:
        wall, outcomes, outputs = run_round(argvs, times)
        walls.append(wall)
        if first is None:
            first = (outcomes, outputs)
        elif (outcomes, outputs) != first:
            reproducible = False
        if traced:
            tracer.reset()
            tracer.install()
            try:
                wall, outcomes, outputs = run_round(argvs, tracer=tracer)
            finally:
                tracer.uninstall()
            tracer.keep_spans = False
            traced_walls.append(wall)
            per_round.append(tracer.metrics())
            if (outcomes, outputs) != first:
                reproducible = False
        spent = time.perf_counter() - begin
        if spent + spent / len(walls) > seconds:
            break
        if len(cold) < SETUP_REPS:  # spread the cold starts over the run, off the clock
            paused = time.perf_counter()
            cold.append(fresh_process(work / "first.json")[0])
            begin += time.perf_counter() - paused
    while len(cold) < SETUP_REPS:
        cold.append(fresh_process(work / "first.json")[0])

    checker = Checker(panel)
    for op, outcome, text in zip(ops, *first):
        checker.check(op, outcome, text)
    library_bad = panel.library_mismatches()
    correct = reproducible and checker.malformed == 0

    passed = checker.attempted - checker.failed
    # each op's median over rounds filters machine noise bursts that hit single rounds
    per_op = [statistics.median(times[i:: len(argvs)]) for i in range(len(argvs))]
    tail_value, tail_pct = tail(per_op)
    samples = f"{len(argvs)} ops x {len(walls)} rounds"
    end_to_end = {
        "rows_per_s": (passed / math.fsum(per_op), "rows/s", f"{passed} checked rows; {samples}"),
        "op_p50_ms": (1e3 * statistics.median(per_op), "ms", samples),
        "op_tail_ms": (1e3 * tail_value, "ms", f"p{tail_pct:.2f}; {samples}"),
        "peak_rss_mb": (rss, "MB", "1 fresh process running one round"),
        "setup_s": (statistics.median(cold) - per_op[0], "s", f"median of {SETUP_REPS} fresh processes"),
    }
    failed_frac = checker.failed / checker.attempted
    lines.append(f"== {name} seed {seed}: {len(walls)} rounds of {len(ops)} ops, {checker.attempted} rows")
    for key, (value, unit, samples) in end_to_end.items():
        lines.append(f"{key:<14}{value:>16.6g} {unit:<7} ({samples})")
    causes = ", ".join(f"{k} {v}" for k, v in sorted(checker.causes.items())) or "none"
    lines.append(f"{'failed_frac':<14}{failed_frac:>16.6g} {'1':<7} ({checker.failed}/{checker.attempted} rows; {causes})")
    lines.append(f"reference panel: {checker.panel_rows} rows matched; "
                 f"{len(panel.library)} library points, {len(library_bad)} outside 1e-12")
    if not reproducible:
        lines.append("outputs differ between rounds")

    if traced:
        metrics = layers.median_metrics(per_round)
        metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        metrics["failed_frac"] = failed_frac
        tracer.save(work / "spans.npz")
        lines.append(f"traced: {len(traced_walls)} rounds, spans of the first in {work / 'spans.npz'}")
    else:
        metrics = {k: v for k, (v, _, _) in end_to_end.items()}
    machine = record()
    lines.append("machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    units_of = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }
    (work / f"record-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(dict(result, workload=name, seed=seed, machine=machine, causes=checker.causes,
                        round_walls=walls, traced_round_walls=traced_walls, cold_starts=cold, op_times=times,
                        library_mismatches=library_bad, lines=lines), indent=1)
    )
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        lines = []
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), lines)
        except CheckError as exc:
            _fail(str(exc))
        print("\n".join(lines), flush=True)
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))


if __name__ == "__main__":
    main()
