"""Benchmark workloads: seeded inputs, CLI job lists and the oracle check.

Every workload runs the transverse-field Ising chain H = sum_i Z_i Z_{i+1}
+ 0.7 sum_i X_i with open boundary. The seed permutes the order of the
chain's terms (the prepare/select circuits change, H and the work do not)
and picks the workload's own seeded choices: the energy bins of
dos-integral and the sampling seeds of response-sampled. No choice changes
the amount of work a job does, so job times are comparable across seeds.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

ZZ_COUPLING = 1.0
X_FIELD = 0.7

# Why each workload is in the benchmark is recorded in BENCHMARK.json.
DOS_MOMENTS = "dos-moments"
DOS_INTEGRAL = "dos-integral"
RESPONSE_SAMPLED = "response-sampled"
WORKLOADS = (DOS_MOMENTS, DOS_INTEGRAL, RESPONSE_SAMPLED)

DOS_MOMENTS_QUBITS = 5
DOS_MOMENTS_N = 8

DOS_INTEGRAL_QUBITS = 4
# eta = eps / 3 = 0.025 stays above the 0.02 degree guard; degree n*k = 119,040.
DOS_INTEGRAL_EPS = 0.075
# Unit-width bins tiling [-5, 5], inside the scale alpha = 5.8 of the
# 4-qubit chain; each run sweeps a seed-chosen subset of them.
DOS_INTEGRAL_BINS = tuple((float(lo), float(lo + 1)) for lo in range(-5, 5))
DOS_INTEGRAL_SWEEP = 4

RESPONSE_QUBITS = 4
RESPONSE_N = 32
RESPONSE_EPS = 0.1
# Sampled query counts vary with the seed; summing the ledgers of three
# jobs cuts the spread of grover_queries across workload seeds by sqrt(3).
RESPONSE_SAMPLE_SEEDS = 3


@dataclass(frozen=True)
class Job:
    """One `blocksketch.cli.main` call: its label, argv and target eps."""

    label: str
    argv: tuple[str, ...]
    eps: float


@dataclass(frozen=True)
class Inputs:
    """The files a workload writes and the jobs that read them."""

    files: tuple[tuple[str, str], ...]
    jobs: tuple[Job, ...]


def tfim_chain(qubits: int, rng: random.Random) -> str:
    """Pauli-text file of the open TFIM chain, terms in a seeded order."""
    lines = []
    for i in range(qubits - 1):
        lines.append(f"{ZZ_COUPLING!r} {'I' * i}ZZ{'I' * (qubits - i - 2)}")
    for i in range(qubits):
        lines.append(f"{X_FIELD!r} {'I' * i}X{'I' * (qubits - i - 1)}")
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def build(workload: str, seed: int, workdir: str) -> Inputs:
    """Inputs of `workload` for `seed`, with file paths under `workdir`."""
    rng = random.Random(f"{workload}:{seed}")
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    if workload == DOS_MOMENTS:
        files = (("h.txt", tfim_chain(DOS_MOMENTS_QUBITS, rng)),)
        argv = ("dos", "--hamiltonian", path("h.txt"), "--moments", str(DOS_MOMENTS_N))
        jobs = (Job(f"moments-{DOS_MOMENTS_N}", argv, 0.05),)
    elif workload == DOS_INTEGRAL:
        files = (("h.txt", tfim_chain(DOS_INTEGRAL_QUBITS, rng)),)
        bins = sorted(rng.sample(DOS_INTEGRAL_BINS, DOS_INTEGRAL_SWEEP))
        jobs = tuple(
            Job(
                f"bin[{a:g},{b:g}]",
                ("dos", "--hamiltonian", path("h.txt"), "--integral", repr(a), repr(b),
                 "--eps", repr(DOS_INTEGRAL_EPS)),
                DOS_INTEGRAL_EPS,
            )
            for a, b in bins
        )
    elif workload == RESPONSE_SAMPLED:
        files = (
            ("h.txt", tfim_chain(RESPONSE_QUBITS, rng)),
            ("b.txt", f"1.0 Z{'I' * (RESPONSE_QUBITS - 1)}\n"),
            ("c.txt", f"1.0 X{'I' * (RESPONSE_QUBITS - 1)}\n"),
            ("rho.txt", "basis 0\n"),
        )
        jobs = tuple(
            Job(
                f"moments-{RESPONSE_N}-seed-{sample_seed}",
                ("response", "--hamiltonian", path("h.txt"), "--moments", str(RESPONSE_N),
                 "--mode", "sampled", "--seed", str(sample_seed), "--eps", repr(RESPONSE_EPS),
                 "--observable-b", path("b.txt"), "--observable-c", path("c.txt"),
                 "--state", path("rho.txt")),
                RESPONSE_EPS,
            )
            for sample_seed in rng.sample(range(2**31), RESPONSE_SAMPLE_SEEDS)
        )
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return Inputs(files, jobs)


def strip_oracle(csv_text: str) -> str:
    """The CSV a job writes without --oracle: the first four columns."""
    return "".join(",".join(line.split(",")[:4]) + "\n" for line in csv_text.splitlines())


def check_against_oracle(csv_text: str, eps: float) -> tuple[int, int, int]:
    """Check each row of a sketch CSV written with --oracle.

    A row fails when its real or imaginary part is more than eps from the
    oracle columns (a real oracle has imaginary part 0). Returns
    (estimates, failed estimates, Grover queries).
    """
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    estimates = failed = queries = 0
    for line in lines[1:]:
        row = line.split(",")
        value = complex(float(row[col["value_re"]]), float(row[col["value_im"]]))
        if "oracle" in col:
            oracle = complex(float(row[col["oracle"]]), 0.0)
        else:
            oracle = complex(float(row[col["oracle_re"]]), float(row[col["oracle_im"]]))
        estimates += 1
        queries += int(row[col["queries"]])
        if max(abs(value.real - oracle.real), abs(value.imag - oracle.imag)) > eps:
            failed += 1
    return estimates, failed, queries
