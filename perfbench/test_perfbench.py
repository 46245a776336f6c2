"""Tests of the benchmark's own logic: inputs, self time, oracle check, tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from blocksketch import cli  # noqa: E402
from blocksketch.block_encoding import linear_combine  # noqa: E402
from blocksketch.pauli import parse_pauli_text, pauli_sum_matrix  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    assert workloads.build(workload, 7, "d") == workloads.build(workload, 7, "d")
    others = {workloads.build(workload, seed, "d") for seed in range(8)}
    assert len(others) > 1


def test_seed_only_reorders_the_chain():
    chains = [workloads.tfim_chain(4, random.Random(s)) for s in range(4)]
    assert len(set(chains)) > 1
    matrices = [pauli_sum_matrix(parse_pauli_text(c)) for c in chains]
    for m in matrices[1:]:
        np.testing.assert_array_equal(m, matrices[0])
    terms = parse_pauli_text(chains[0]).terms
    assert sorted((t.coefficient, t.word) for t in terms) == [
        (0.7, "IIIX"), (0.7, "IIXI"), (0.7, "IXII"), (0.7, "XIII"),
        (1.0, "IIZZ"), (1.0, "IZZI"), (1.0, "ZZII"),
    ]


def _span(i, parent, start, end):
    return {"id": i, "name": f"f{i}", "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_children_once():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 9.0),
        _span(4, 3, 5.0, 7.0),
        _span(5, 3, 6.0, 8.0),  # overlaps its sibling: covered once
    ]
    assert spans.self_times(tree) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 2.0, 5: 2.0}


def test_job_layers_sums_self_time_per_function():
    tree = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0), _span(2, 0, 5.0, 6.0)]
    tree[2]["name"] = "f1"
    tree[1]["full_dim"] = 64
    layers = spans.job_layers(tree)
    assert layers["f0"]["self_s"] == 6.0
    assert layers["f1"]["calls"] == 2
    assert layers["f1"]["self_s"] == 4.0
    assert layers["f1"]["full_dim"] == 64


def test_oracle_check_flags_real_estimate_off_by_more_than_eps():
    csv = "n,value_re,value_im,queries,oracle\n0,0.5,0,10,0.5\n1,0.3,0,20,0.2\n"
    assert workloads.check_against_oracle(csv, 0.05) == (2, 1, 30)
    assert workloads.check_against_oracle(csv, 0.15) == (2, 0, 30)


def test_oracle_check_judges_each_part_of_a_complex_estimate():
    csv = (
        "n,value_re,value_im,queries,oracle_re,oracle_im\n"
        "0,0.1,0.1,5,0.15,0.05\n"
        "1,0.1,0.3,5,0.1,0.1\n"
    )
    assert workloads.check_against_oracle(csv, 0.06) == (2, 1, 10)


def test_strip_oracle_gives_the_plain_output():
    csv = "n,value_re,value_im,queries,oracle_re,oracle_im\n0,1,2,3,4,5\n"
    assert workloads.strip_oracle(csv) == "n,value_re,value_im,queries\n0,1,2,3\n"


def test_traced_run_matches_untraced_and_restores_functions(tmp_path):
    (tmp_path / "h.txt").write_text("1.0 ZZ\n0.7 XI\n0.7 IX\n")
    (tmp_path / "b.txt").write_text("1.0 ZI\n")
    (tmp_path / "rho.txt").write_text("basis 0\n")
    argv = ["response", "--hamiltonian", str(tmp_path / "h.txt"), "--moments", "2",
            "--mode", "sampled", "--seed", "5", "--eps", "0.2",
            "--observable-b", str(tmp_path / "b.txt"), "--observable-c", str(tmp_path / "b.txt"),
            "--state", str(tmp_path / "rho.txt")]

    assert cli.main(argv + ["--output", str(tmp_path / "plain.csv")]) == 0
    tracer = spans.Tracer()
    with spans.rebound(tracer):
        assert cli.main(argv + ["--output", str(tmp_path / "traced.csv")]) == 0
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    import blocksketch.estimation as estimation
    assert estimation.linear_combine is linear_combine

    roots = [s for s in tracer.spans if s["parent"] is None]
    assert [s["name"] for s in roots] == [spans.ROOT]
    layers = spans.job_layers(tracer.spans)
    assert layers["spectral.chebyshev_encoding"]["calls"] == 3
    assert layers["estimation.estimate_complex"]["calls"] == 3
    assert layers["estimation.estimate_observable"]["calls"] == 6
    assert layers["block_encoding.linear_combine"]["calls"] == 12
    assert layers["block_encoding.product"]["full_dim"] == 4 * 4
    assert 0 < layers["estimation.estimate_observable"]["queries"]
    assert layers["estimation.estimate_observable"]["queries"] < (
        layers["estimation.estimate_observable"]["budget"]
    )
    assert sum(layer["self_s"] for layer in layers.values()) == pytest.approx(
        roots[0]["end"] - roots[0]["start"]
    )


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    job = {"estimation.estimate_observable": {"calls": 1, "self_s": 0.5, "queries": 1, "budget": 2}}
    produced = spans.layer_metrics([job], [1.0], [1.0])
    assert [m["name"] for m in spec["per_layer"]] == list(produced)
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in produced.values()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
