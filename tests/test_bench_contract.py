"""The contract between blocksketch and the benchmark's tracer (perfbench/).

`perfbench/spans.py` rebinds public blocksketch functions by name and
reads their arguments and results by name (`apply_polynomial`'s `p` and
its `.degree`, the `.degree` of `window_poly`'s result, `a`, `eps` and
`delta` of `estimate_observable`). A change to one of those signatures
breaks `perfbench/run.py --trace 1` on the dos workloads; these jobs run
each path through the tracer.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
from blocksketch import cli  # noqa: E402

JOBS = {
    "integral": ["dos", "--integral", "-1.0", "1.0", "--eps", "0.3"],
    "moments": ["dos", "--moments", "3"],
}


def _layers(tmp_path, name, argv):
    plain, traced = tmp_path / f"{name}-plain.csv", tmp_path / f"{name}-traced.csv"
    assert cli.main(argv + ["--output", str(plain)]) == 0
    tracer = spans.Tracer()
    with spans.rebound(tracer):
        assert cli.main(argv + ["--output", str(traced)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
    return spans.job_layers(tracer.spans), plain.read_text()


def test_traced_dos_jobs_match_untraced_and_record_the_window_degree(tmp_path):
    (tmp_path / "h.txt").write_text("1.0 ZZ\n0.7 XI\n0.7 IX\n")
    jobs, outputs = [], {}
    for name, args in JOBS.items():
        argv = [args[0], "--hamiltonian", str(tmp_path / "h.txt"), *args[1:]]
        layers, outputs[name] = _layers(tmp_path, name, argv)
        jobs.append(layers)

    metrics = spans.layer_metrics(jobs, [1.0, 1.0], [1.0, 1.0])
    window_degree = int(outputs["integral"].splitlines()[1].split(",")[0])
    assert window_degree == 960  # eta = 0.3 / 3
    assert metrics["spectral.apply_polynomial.degree"][0] == window_degree
    assert metrics["chebyshev.window_poly.degree"][0] == window_degree
    assert metrics["chebyshev.window_poly.calls"][0] == 0.5  # median over the two jobs
    assert "chebyshev.compose" not in jobs[0]
    assert "chebyshev.amplifying_poly" not in jobs[0]
    assert jobs[1]["spectral.chebyshev_encoding"]["calls"] == 4
    assert 0.0 < metrics["estimation.queries_over_budget"][0] <= 1.0
