"""One benchmark worker process, started by perfbench/run.py.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SPAWNED_AT [--setup-only]

Set-up is everything from process start (SPAWNED_AT, the parent's
time.monotonic() just before the spawn) to `blocksketch` imported and the
inputs written. With --setup-only the worker stops there. Otherwise it
runs each job once with --oracle, untimed, and checks every estimate;
then it calls `blocksketch.cli.main` on the jobs in turn for SECONDS,
timing each call, and requires every output to be byte-identical to the
checked one. With TRACE 1 every other pass over the jobs is traced.
The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
from workloads import build, check_against_oracle, strip_oracle

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"


def run_job(cli, job, out_path: str, oracle: bool = False) -> tuple[float, bytes | None]:
    """Time one cli.main call; the output is None if the job failed."""
    argv = [*job.argv, "--output", out_path, *(["--oracle"] if oracle else [])]
    if os.path.exists(out_path):
        os.remove(out_path)
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = None
    elapsed = time.perf_counter() - start
    if code != 0:
        print(f"job {job.label} failed (exit {code})", file=sys.stderr)
        return elapsed, None
    with open(out_path, "rb") as fh:
        return elapsed, fh.read()


def measure(cli, jobs, seconds: float, trace: bool, out_path: str) -> dict:
    attempted = failed = queries = 0
    expected = {}
    for job in jobs:
        _, text = run_job(cli, job, out_path, oracle=True)
        if text is None:
            expected[job.label] = (None, 1, 1)
            continue
        estimates, bad, job_queries = check_against_oracle(text.decode(), job.eps)
        expected[job.label] = (strip_oracle(text.decode()).encode(), estimates, bad)
        queries += job_queries

    job_s: dict[bool, list[float]] = {False: [], True: []}
    layers = []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or (trace and not job_s[True]):
        job = jobs[i % len(jobs)]
        traced = trace and (i // len(jobs)) % 2 == 1
        if traced:
            tracer = spans.Tracer()
            with spans.rebound(tracer):
                elapsed, text = run_job(cli, job, out_path)
            layers.append(spans.job_layers(tracer.spans))
        else:
            elapsed, text = run_job(cli, job, out_path)
        job_s[traced].append(elapsed)
        want, estimates, bad = expected[job.label]
        attempted += estimates
        if text is None or text != want:
            failed += estimates
            print(f"job {job.label}: output differs from the checked one", file=sys.stderr)
        else:
            failed += bad
        i += 1

    return {
        "attempted": attempted,
        "failed": failed,
        "queries": queries,
        "job_s": job_s[False],
        "traced_job_s": job_s[True],
        "layers": layers,
        "outputs": {
            label: hashlib.sha256(want).hexdigest() if want is not None else None
            for label, (want, _, _) in expected.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("spawned_at", type=float)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import blocksketch.cli as cli

    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as workdir:
        inputs = build(args.workload, args.seed, workdir)
        for name, text in inputs.files:
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s, "blocksketch": cli.__file__}
        if not args.setup_only:
            out_path = os.path.join(workdir, "out.csv")
            result.update(measure(cli, inputs.jobs, args.seconds, bool(args.trace), out_path))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
