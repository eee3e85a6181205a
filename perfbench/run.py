"""Benchmark for qdiscord: four closed-loop workloads, checked outputs.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout (the one holding ``src/qdiscord``).  Each
workload runs in a fresh worker process (``worker.py``) with ``src`` on the
path and one BLAS thread.  Without ``--workload`` all four run in turn.

With ``--trace 0`` the last stdout line is one JSON object with the
end-to-end metrics: ``setup_s`` (median over SETUP_SAMPLES fresh processes,
from process start to the first timed item), ``items_per_s``, ``item_p50_ms``
and ``peak_rss_mb``.  With ``--trace 1`` the worker records spans around the
calls into qdiscord's layers and the line holds the per-layer metrics,
including import times measured in IMPORT_SAMPLES child processes.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("oracle-corpus", "consistency-corpus", "dqc1-register", "cli-cold")

BLAS_THREADS = "1"
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 5
# Slack past --seconds for set-up and the round that crosses the deadline.
WORKER_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 30

IMPORT_PROBE = (
    "import json, time; t0 = time.monotonic(); import numpy; t1 = time.monotonic(); "
    "import qdiscord; t2 = time.monotonic(); print(json.dumps([t0, t1 - t0, t2 - t1]))"
)


class BenchError(Exception):
    """A child process failed; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["QDBENCH_SRC"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(args: list[str], timeout: float) -> tuple[float, dict]:
    """Start a Python child, wait for it, and parse its last stdout line."""
    launched = time.monotonic()
    cmd = [sys.executable, *[a.replace("{launched}", repr(launched)) for a in args]]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise BenchError(f"{' '.join(args[:2])} timed out after {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args[:2])} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return launched, json.loads(lines[-1])


def worker_args(workload: str, seed: int, seconds: float, *extra: str) -> list[str]:
    return [
        str(HERE / "worker.py"), workload, "--seed", str(seed), "--seconds", str(seconds),
        "--launched", "{launched}", "--out", str(OUT), *extra,
    ]  # fmt: skip


def import_metrics() -> dict:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        launched, (t0, numpy_s, qdiscord_s) = run_child(["-c", IMPORT_PROBE], SETUP_TIMEOUT_S)
        samples.append((t0 - launched, numpy_s, qdiscord_s))
    return {
        f"import.{name}": (statistics.median(s[i] for s in samples), "s")
        for i, name in enumerate(("interpreter_s", "numpy_s", "qdiscord_s"))
    }


def percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        _, res = run_child(worker_args(workload, seed, seconds, "--trace"), seconds + WORKER_TIMEOUT_S)
        metrics = {name: tuple(v) for name, v in res["layers"].items()}
        metrics.update(import_metrics())
        times = res["item_times_s"]
    else:
        setups = [
            run_child(worker_args(workload, seed, 0, "--setup-only"), SETUP_TIMEOUT_S)[1]["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        _, res = run_child(worker_args(workload, seed, seconds), seconds + WORKER_TIMEOUT_S)
        setups.append(res["setup_s"])
        times = res["item_times_s"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "items_per_s": (len(times) / res["wall_s"], "1/s"),
            "item_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    summary = (
        f"{workload}{' (traced)' if trace else ''}: {len(times)} items in {res['rounds']} rounds, "
        f"{res['wall_s']:.2f} s, {len(times) / res['wall_s']:.4g} items/s, "
        f"item p50 {statistics.median(times) * 1e3:.4g} ms"
    )
    if len(times) >= 100:  # a tail needs at least ten items beyond it
        summary += f", p90 {percentile(times, 90) * 1e3:.4g} ms"
    print(summary)
    for msg in res["errors"] + res["check_failures"]:
        print(f"{workload}: {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload}: {name} = {value:.6g} {unit}")
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qdiscord benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not (SRC / "qdiscord" / "__init__.py").is_file():
        print(f"no qdiscord sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    results = {}
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
