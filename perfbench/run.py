"""Benchmark of `bek`: one workload per invocation, rounds in fresh processes.

    python3 perfbench/run.py --workload {sweep,tables,umbral,mc} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; `bek` is imported from its `src`.
Each round of the workload runs in a fresh single-threaded process
(worker.py), one after another, until S seconds have passed; a round is
never cut short.  Before the rounds, PROBES processes only import `bek`,
so set-up time has several samples in every run.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones, medians over the rounds (set-up time: over every process
started), with times in reference seconds (see speed.py).  With --trace 1
the untraced rounds are followed by one traced round, and the metrics are
that round's per-layer figures in raw seconds, the tracing overhead
(traced minus untraced median wall time, in reference seconds), and the
untraced raw medians with the machine speed they were measured at.

Exit status 0 means every process ran; `correct` says whether every
output passed the checks in checks.py.  Any other exit status means no
result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import CATCH_ALL_SHARE
from speed import NOMINAL_SLICE_S, reference_slice
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SRC = HERE.parent / "src"

PROBES = 9
# Whole run, all processes included, must end well inside this.
RUN_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion; its JSON line, plus set-up time."""
    parent_slice = reference_slice()
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            capture_output=True, text=True, env=_child_env(), timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args} ran past the run limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker {args} printed nothing: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    result["setup"] = result["ready"] - started
    speeds = [NOMINAL_SLICE_S / s for s in (parent_slice, result["ready_slice"])]
    result["setup_ref"] = result["setup"] * sum(speeds) / len(speeds)
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    reference_slice()  # warm the slice's code before the first sample
    probes = [spawn(["--probe"], deadline) for _ in range(PROBES)]
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(spawn(["--workload", workload, "--seed", str(seed)], deadline))
    traced = spawn(["--workload", workload, "--seed", str(seed), "--trace"], deadline) if trace else None

    checked = rounds + ([traced] if traced else [])
    errors = [e for r in checked for e in r["errors"]]
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    wall = statistics.median(r["wall_ref"] for r in rounds)
    if traced:
        figures = {
            **traced["figures"],
            "trace.overhead_s": traced["wall_ref"] - wall,
            "raw.wall_s": statistics.median(r["wall"] for r in rounds),
            "raw.setup_s": statistics.median(r["setup"] for r in probes + rounds),
            "speed.slice_s": statistics.median(r["slice_s"] for r in rounds),
        }
        share = figures["trace.catch_all_s"] / figures["trace.wall_s"]
        if share > CATCH_ALL_SHARE:
            print(f"closure check failed: catch-all self time is {share:.1%} of the traced round, "
                  f"above {CATCH_ALL_SHARE:.0%}; a layer function is not wrapped (see spans.py)",
                  file=sys.stderr)
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in figures.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_ref"] for r in probes + rounds), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "items_per_s": {"value": statistics.median(r["items"] / r["wall_ref"] for r in rounds), "unit": "items/s"},
            "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in rounds), "unit": "MB"},
        }
    return {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def _unit(name: str) -> str:
    if name.endswith((".s", "_s")) or ".eval_s." in name:
        return "s"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of bek; see perfbench/README.md.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "bek" / "__init__.py").is_file():
        print(f"perfbench: no bek sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
