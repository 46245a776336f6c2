"""Benchmark of blocksketch: time to a sketch, memory and the query ledger.

Run from the repository root:

    python3 perfbench/run.py --workload dos-moments --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

A run starts fresh worker processes (perfbench/worker.py) with the BLAS
thread count pinned: SETUP_PROBES that only set up, then one that also
checks every job against the CLI's --oracle columns and times
`blocksketch.cli.main` for --seconds. The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics of a
traced run for --trace 1 (see BENCHMARK.json). The line before it records
the environment, the job_s samples, failed_frac and a SHA-256 of each
job's output. `--workload all` prints every workload's metrics with units.
The exit code is 1 if any estimate failed its check, 2 if the program is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

from spans import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60
# The job worker spends the measured seconds plus one oracle pass and at
# most one job past the deadline; the slowest job takes well under 10 s.
JOB_TIMEOUT_EXTRA_S = 120


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in BLAS_THREAD_VARS})
    env.pop("BLOCKSKETCH_SEED", None)
    return env


def _spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> dict | None:
    """Run one worker to completion; its result, or None if it failed."""
    timeout = PROBE_TIMEOUT_S if setup_only else seconds + JOB_TIMEOUT_EXTRA_S
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(seconds), str(trace)]
    cmd += [repr(time.monotonic())] + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(
            cmd, env=_worker_env(), stdout=subprocess.PIPE, text=True, timeout=timeout, check=False
        )
    except subprocess.TimeoutExpired:
        print(f"worker for {workload} timed out after {timeout} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker for {workload} exited {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["blocksketch"]).resolve().is_relative_to(ROOT / "src"):
        print(f"worker imported {result['blocksketch']}, not {ROOT / 'src'}", file=sys.stderr)
        return None
    return result


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, record)."""
    probes = [_spawn(workload, seed, 0.0, 0, True) for _ in range(SETUP_PROBES)]
    run = _spawn(workload, seed, seconds, trace, False)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": _commit(),
    }
    if run is None or None in probes:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, record

    record.update(
        setup_s_samples=[p["setup_s"] for p in probes] + [run["setup_s"]],
        job_s_samples=run["job_s"],
        traced_job_s_samples=run["traced_job_s"],
        failed_frac=run["failed"] / run["attempted"],
        outputs=run["outputs"],
    )
    if trace:
        values = layer_metrics(run["layers"], run["traced_job_s"], run["job_s"])
    else:
        values = {
            "job_s": (statistics.median(run["job_s"]), "s"),
            "setup_s": (statistics.median(record["setup_s_samples"]), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            "grover_queries": (run["queries"], "count"),
        }
    correct = run["failed"] == 0 and None not in run["outputs"].values()
    line = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="blocksketch benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "blocksketch" / "cli.py").is_file():
        print(f"error: no blocksketch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        line, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps({"record": record}))
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    all_correct = True
    for workload in WORKLOADS:
        line, record = run_workload(workload, args.seed, args.seconds, args.trace)
        all_correct = all_correct and line["correct"]
        print(json.dumps({"record": record}))
        print(f"{workload}: correct={line['correct']} attempted={line['attempted']}")
        for name, metric in line["metrics"].items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        print(f"  failed_frac = {line['failed'] / line['attempted']:.6g} frac")
        print(f"  job_s samples = {len(record.get('job_s_samples', []))} count")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
