"""Memory ceilings of CLI commands at the qubit limit.

Every command at MAX_QUBITS works on D x D blocks, so its traced Python
and NumPy allocations stay far below what one full circuit unitary of the
pipeline would take (a 6-qubit shifted moment encoding is 8192 x 8192).
The maximally mixed state is likewise formed from D x D arrays alone.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from blocksketch.chebyshev import MAX_WINDOW_DEGREE, min_window_eta, window_poly
from blocksketch.cli import MAX_QUBITS, main
from blocksketch.state_prep import prepare_maximally_mixed

PEAK_LIMIT_MB = 100.0
# What `window-poly --output` may hold beyond the series it writes.
WINDOW_WRITE_SLACK_MB = 4.0
# What forming I/D may hold beyond its D x D complex arrays.
MIXED_STATE_SLACK_MB = 4.0
# Peak RSS of a fresh interpreter running `window-poly --output` at
# eta = 0.005 (degree 32,768), which includes what tracemalloc
# does not see. On an x86-64 Linux VM with one BLAS thread the command
# peaked at 34.8 MB, as it does without --output: the interpreter and numpy
# take nearly all of it.
WINDOW_OUTPUT_MAX_RSS_MB = 64.0
SRC = Path(__file__).resolve().parents[1] / "src"
# The child reports VmHWM, the peak RSS of its own address space in kB.
# Linux's ru_maxrss would not do: it keeps the RSS of the address space
# replaced at exec, which for a vfork-spawned child is the test process's.
_MAX_RSS_CHILD = """
import sys
from blocksketch.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak_kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(code, peak_kb)
"""


def _tfim_chain(qubits: int) -> str:
    lines = [f"1.0 {'I' * i}ZZ{'I' * (qubits - i - 2)}" for i in range(qubits - 1)]
    lines += [f"0.7 {'I' * i}X{'I' * (qubits - i - 1)}" for i in range(qubits)]
    return "\n".join(lines) + "\n"


def _local(letter: str, site: int, qubits: int) -> str:
    return "I" * site + letter + "I" * (qubits - site - 1)


@pytest.fixture
def inputs(tmp_path):
    n, m = MAX_QUBITS, 4
    files = {
        "h.txt": _tfim_chain(n),
        "b.txt": f"1.0 {_local('Z', 0, n)}\n",
        "c.txt": f"1.0 {_local('X', 0, n)}\n",
        "basis.txt": "basis 0\n",
        "h4.txt": _tfim_chain(m),
        "mixed.txt": "mixed\n",
    }
    for k, letters in enumerate(("ZXYZ", "XZXY", "YYZX")):
        files[f"o{k}.txt"] = "".join(
            f"{0.1 * (j + 1)!r} {_local(letter, j, m)}\n" for j, letter in enumerate(letters)
        )
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return tmp_path


COMMANDS = {
    "dos-moments": "dos --hamiltonian h.txt --moments 4",
    "dos-integral": "dos --hamiltonian h.txt --integral -2 2 --eps 0.1",
    # The default eps 0.05 gives eta = 0.0167 (window degree 8,192).
    "dos-integral-default-eps": "dos --hamiltonian h.txt --integral -2 2",
    # eta = 0.025 (window degree 5,120), the benchmark's dos-integral eta.
    "dos-integral-eps-0.075": "dos --hamiltonian h.txt --integral -2 2 --eps 0.075",
    # The smallest eps accepted, 3 min_window_eta(): window degree 2^19.
    "dos-integral-smallest-eps": "dos --hamiltonian h.txt --integral -2 2 "
    "--eps 0.0012550408392058986",
    "ldos-moments": "ldos --hamiltonian h.txt --moments 4 --state basis.txt",
    "ldos-integral": "ldos --hamiltonian h.txt --integral -2 2 --eps 0.1 --state basis.txt",
    "kpm": "kpm dos --hamiltonian h.txt --moments 4",
    "response-moments": "response --hamiltonian h.txt --moments 16 --observable-b b.txt "
    "--observable-c c.txt --state basis.txt",
    "correlate-4q": "correlate --hamiltonian h4.txt --observable o0.txt 0.5 "
    "--observable o1.txt 1.0 --observable o2.txt -0.7 --state mixed.txt",
}


def _traced_peak_mb(run):
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_peak_memory_at_qubit_limit(command, inputs):
    argv = [str(inputs / tok) if tok.endswith(".txt") else tok for tok in COMMANDS[command].split()]
    code, peak = _traced_peak_mb(lambda: main(argv + ["--output", str(inputs / "out.txt")]))
    assert code == 0
    assert peak <= PEAK_LIMIT_MB


def test_window_poly_output_holds_little_beyond_its_series(tmp_path):
    """The coefficient file (6,753 lines at eta 0.02) is written in
    chunks, so the command peaks near the series itself."""
    a, b, eta = -0.3, 0.2, 0.02
    _, series_peak = _traced_peak_mb(lambda: window_poly(a, b, eta).poly.coeffs)
    argv = ["window-poly", f"--a={a}", f"--b={b}", f"--eta={eta}"]
    code, peak = _traced_peak_mb(lambda: main(argv + ["--output", str(tmp_path / "w.csv")]))
    assert code == 0
    assert peak <= series_peak + WINDOW_WRITE_SLACK_MB


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_window_poly_output_max_rss_at_the_degree_guard(tmp_path):
    """The process-wide peak, which includes what tracemalloc misses."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["window-poly", "--a=-0.3", "--b=0.2", "--eta=0.005", "--output", str(tmp_path / "w.csv")]
    proc = subprocess.run(
        [sys.executable, "-c", _MAX_RSS_CHILD, *argv],
        env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = proc.stdout.split()[-2:]
    assert code == "0"
    assert int(peak_kb) / 2**10 <= WINDOW_OUTPUT_MAX_RSS_MB
    assert (tmp_path / "w.csv").read_text().count("\n") == 32_768 + 3


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_window_poly_output_max_rss_at_the_degree_ceiling(tmp_path):
    """At min_window_eta() the window has degree MAX_WINDOW_DEGREE. On an
    x86-64 Linux VM with one BLAS thread the command peaked at 67.8 MB."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = tmp_path / "w.csv"
    argv = ["window-poly", "--a=-0.3", "--b=0.2", f"--eta={min_window_eta()!r}", "--output", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", _MAX_RSS_CHILD, *argv],
        env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = proc.stdout.split()[-2:]
    assert code == "0"
    assert int(peak_kb) / 2**10 <= PEAK_LIMIT_MB
    with open(out) as fh:
        assert sum(1 for _ in fh) == MAX_WINDOW_DEGREE + 3


def test_maximally_mixed_density_holds_three_d_squared_arrays():
    """I/D at 10 qubits is formed from the D x D purification (a mirror
    purifier, no flag qubit), its adjoint and the product: three D^2
    complex arrays, 48 MB."""
    d = 2**10
    limit = 3 * d * d * np.dtype(complex).itemsize / 2**20 + MIXED_STATE_SLACK_MB
    _, peak = _traced_peak_mb(lambda: prepare_maximally_mixed(d).density)
    assert peak <= limit
