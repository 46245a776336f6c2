import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from blocksketch import algorithms, chebyshev, cli
from blocksketch.algorithms import SketchRequest
from blocksketch.chebyshev import kpm_reconstruct
from blocksketch.cli import main
from blocksketch.estimation import query_budget
from blocksketch.oracle import oracle_sketch
from blocksketch.pauli import PauliSum
from blocksketch.state_prep import prepare_pure

HATOL = 1e-9


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "hz.txt").write_text("1.0 Z\n")
    (tmp_path / "hx.txt").write_text("1.0 X\n")
    (tmp_path / "tilted.txt").write_text("0.3 Z\n0.2 X\n")
    (tmp_path / "ket0.txt").write_text("basis 0\n")
    (tmp_path / "plus.txt").write_text("pure 0.7071067811865476 0.7071067811865476\n")
    return tmp_path


def _run(args):
    return main([str(a) for a in args])


def test_dos_moments_with_oracle(workdir, capsys):
    out = workdir / "dos.csv"
    rc = _run(
        ["dos", "--hamiltonian", workdir / "hz.txt", "--moments", "2", "--eps", "0.05",
         "--delta", "0.05", "--mode", "exact", "--oracle", "--output", out]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,value_re,value_im,queries,oracle"
    rows = [line.split(",") for line in lines[1:]]
    values = [float(r[1]) for r in rows]
    oracles = [float(r[4]) for r in rows]
    assert values == pytest.approx([1.0, 0.0, 1.0], abs=HATOL)
    for v, o in zip(values, oracles):
        assert abs(v - o) <= 1e-6


def test_window_poly_summary(workdir, capsys):
    rc = _run(["window-poly", "--a", "-0.3", "--b", "0.4", "--eta", "0.1"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "kappa=0.025 tau=0.025 s=141.291558269 d=960\n" in text
    assert "\nfit_error=0.00625" in text


def test_window_poly_coefficients_file(workdir):
    out = workdir / "w.csv"
    rc = _run(["window-poly", "--a", "-0.2", "--b", "0.2", "--eta", "0.4", "--output", out])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# a_bar=-0.2 b_bar=0.2 eta=0.4")
    assert lines[1] == "k,coeff"
    # degree d = 162 rows plus the constant coefficient
    assert len(lines) == 2 + 162 + 1


def test_correlate_json(workdir, capsys):
    rc = _run(
        ["correlate", "--hamiltonian", workdir / "hz.txt", "--observable", workdir / "hz.txt",
         "0.0", "--state", workdir / "ket0.txt", "--oracle"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value_re"] == pytest.approx(1.0, abs=HATOL)
    assert payload["value_im"] == pytest.approx(0.0, abs=HATOL)
    assert payload["oracle_re"] == pytest.approx(1.0, abs=HATOL)
    assert payload["mode"] == "exact"


def test_parse_error_exit_code(workdir, capsys):
    bad = workdir / "bad.txt"
    bad.write_text("1.0 XQ\n")
    rc = _run(["dos", "--hamiltonian", bad, "--moments", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.txt" in err and ":1" in err


def test_qubit_guard(workdir, capsys):
    big = workdir / "big.txt"
    big.write_text("1.0 " + "Z" * 7 + "\n")
    rc = _run(["dos", "--hamiltonian", big, "--moments", "1"])
    assert rc == 2
    assert "6-qubit" in capsys.readouterr().err


def test_eps_guard(workdir, capsys):
    rc = _run(["dos", "--hamiltonian", workdir / "hz.txt", "--moments", "1", "--eps", "1.5"])
    assert rc == 2
    assert "eps" in capsys.readouterr().err


def test_moment_count_guard(workdir, capsys):
    rc = _run(["dos", "--hamiltonian", workdir / "hz.txt", "--moments", "5000"])
    assert rc == 2
    assert "4096" in capsys.readouterr().err


def test_sampled_determinism(workdir):
    out1, out2 = workdir / "a.csv", workdir / "b.csv"
    base = ["dos", "--hamiltonian", workdir / "tilted.txt", "--moments", "3", "--mode",
            "sampled", "--seed", "7", "--eps", "0.1", "--delta", "0.1"]
    assert _run(base + ["--output", out1]) == 0
    assert _run(base + ["--output", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_ldos_command(workdir):
    out = workdir / "ldos.csv"
    rc = _run(
        ["ldos", "--hamiltonian", workdir / "hx.txt", "--moments", "1", "--state",
         workdir / "ket0.txt", "--oracle", "--output", out]
    )
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert float(rows[0][1]) == pytest.approx(1.0, abs=HATOL)
    assert float(rows[1][1]) == pytest.approx(0.0, abs=HATOL)


def test_response_command(workdir):
    out = workdir / "resp.csv"
    rc = _run(
        ["response", "--hamiltonian", workdir / "hz.txt", "--observable-b", workdir / "hx.txt",
         "--observable-c", workdir / "hx.txt", "--state", workdir / "ket0.txt",
         "--moments", "1", "--oracle", "--output", out]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,value_re,value_im,queries,oracle_re,oracle_im"
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[0][1]) == pytest.approx(1.0, abs=HATOL)
    assert float(rows[1][1]) == pytest.approx(-1.0, abs=HATOL)
    assert float(rows[1][4]) == pytest.approx(-1.0, abs=HATOL)


def test_integral_row_reports_degree(workdir):
    out = workdir / "int.csv"
    rc = _run(
        ["dos", "--hamiltonian", workdir / "tilted.txt", "--integral", "0.2", "0.45",
         "--eps", "0.3", "--delta", "0.1", "--oracle", "--output", out]
    )
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    degree = int(rows[0][0])
    assert degree > 100  # the window degree, not a moment order
    # exact mode: windowed oracle column matches the estimate
    assert float(rows[0][1]) == pytest.approx(float(rows[0][4]), abs=1e-6)


def test_kpm_command(workdir):
    out = workdir / "kpm.csv"
    rc = _run(
        ["kpm", "dos", "--hamiltonian", workdir / "hz.txt", "--moments", "16", "--grid-points",
         "101", "--output", out]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,f_kpm"
    assert len(lines) == 102
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.max(np.abs(values[:, 1] - values[::-1, 1])) < 1e-9


def test_kpm_response_reconstructs_both_parts_of_the_complex_moments(workdir):
    (workdir / "hy.txt").write_text("1.0 Y\n")
    out = workdir / "kpm.csv"
    rc = _run(
        ["kpm", "response", "--hamiltonian", workdir / "tilted.txt", "--moments",
         "8", "--grid-points", "21", "--observable-b", workdir / "hy.txt", "--observable-c",
         workdir / "hz.txt", "--state", workdir / "ket0.txt", "--output", out]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,f_kpm,f_kpm_im"
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    req = SketchRequest(
        hamiltonian=PauliSum.from_terms([(0.3, "Z"), (0.2, "X")]), kind="response", eps=0.05,
        delta=0.05, num_moments=8, b_observable=PauliSum.from_terms([(1.0, "Y")]),
        c_observable=PauliSum.from_terms([(1.0, "Z")]), state=prepare_pure([1.0, 0.0]),
    )
    moments = np.array(oracle_sketch(req))
    grid = np.linspace(-0.99, 0.99, 21)
    assert np.max(np.abs(moments.imag)) > 0.1
    assert values[:, 1] == pytest.approx(kpm_reconstruct(moments.real, grid), abs=1e-9)
    assert values[:, 2] == pytest.approx(kpm_reconstruct(moments.imag, grid), abs=1e-9)


def test_cost_command(workdir, capsys):
    rc = _run(
        ["cost", "dos", "--hamiltonian", workdir / "tilted.txt",
         "--integral", "-0.2", "0.3", "--eps", "0.1", "--delta", "0.05"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "dos"
    assert payload["mode"] == "integral"
    assert payload["encoding_cost_Q"] == 2
    ratio = 1.0 / 0.1
    expected = (2 * ratio * math.log(ratio) + 1.0) * 10 * math.log(20)
    assert payload["total_queries"] == pytest.approx(expected, rel=1e-9)


def test_cost_correlation_command(workdir, capsys):
    rc = _run(
        ["cost", "correlate", "--hamiltonian", workdir / "hz.txt",
         "--observable", workdir / "hx.txt", "0.0", "--state", workdir / "ket0.txt",
         "--eps", "0.1", "--delta", "0.05"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["encoding_cost_W"] == 1
    assert payload["evolution_costs"] == [0.0, 0.0]


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit):
        main(["dos", "--help"])
    text = capsys.readouterr().out
    for flag in ("--hamiltonian", "--moments", "--integral", "--eps", "--delta",
                 "--mode", "--seed", "--rho-max", "--oracle", "--output"):
        assert flag in text


@pytest.mark.parametrize("command", ["correlate", "response"])
def test_help_says_delta_holds_per_part(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "per part" in text and ">= 1 - 2 delta" in text


def test_default_eps_integral_names_the_passing_eps(workdir, capsys):
    base = ["dos", "--hamiltonian", workdir / "hz.txt", "--integral", "-0.5", "0.5"]
    assert _run(base + ["--output", workdir / "default.csv"]) == 0
    assert _run(base + ["--eps", "0.001"]) == 2
    err = capsys.readouterr().err
    assert "--allow-large-degree" not in err and "allow_large_degree" not in err
    # 3 * min_window_eta() = 0.00125504..., rounded up to 6 significant digits
    assert "degree 675000, above the ceiling 524288; pass --eps 0.00125505 or larger" in err
    assert _run(base + ["--eps", "0.00125505", "--output", workdir / "int.csv"]) == 0


def test_response_integral_eps_advice_scales_with_observables(workdir, capsys):
    (workdir / "b.txt").write_text("0.5 X\n0.5 Z\n")
    (workdir / "c.txt").write_text("1.5 X\n")
    rc = _run(
        ["response", "--hamiltonian", workdir / "hz.txt", "--integral", "-0.5", "0.5",
         "--eps", "0.0009", "--rho-max", "0.5", "--observable-b", workdir / "b.txt", "--observable-c",
         workdir / "c.txt", "--state", workdir / "ket0.txt"]
    )
    assert rc == 2
    # 3 * min_window_eta() * rho_max * |B| |C| = 3 * 0.000418347 * 0.5 * 1.0 * 1.5, rounded up
    assert capsys.readouterr().err.endswith("; pass --eps 0.000941281 or larger\n")


@pytest.mark.parametrize(
    "command",
    [
        "window-poly --a -0.3 --b 0.2 --eta 0.0004",
        "dos --hamiltonian {hz} --integral -0.5 0.5 --eps 0.0012",
        "ldos --hamiltonian {hz} --integral -0.5 0.5 --eps 0.0012 --state {ket0}",
        "response --hamiltonian {hz} --integral -0.5 0.5 --eps 0.0012 --observable-b {hx} "
        "--observable-c {hx} --state {ket0}",
    ],
)
def test_the_value_a_degree_refusal_names_passes(workdir, capsys, command):
    """The refused value sits just below the floor; the floor printed,
    rounded up to 6 significant digits, passes when fed back."""
    argv = command.format(**{n: workdir / f"{n}.txt" for n in ("hz", "hx", "ket0")}).split()
    assert _run(argv) == 2
    err = capsys.readouterr().err
    match = re.search(r"; pass (--eps|--eta) (\S+) or larger\n$", err)
    assert match, err
    option, floor = match.groups()
    argv[argv.index(option) + 1] = floor
    assert _run(argv) == 0


def test_a_window_that_no_eps_below_1_fits_names_rho_max(workdir, capsys):
    argv = ["dos", "--hamiltonian", workdir / "hz.txt", "--integral", "-0.5", "0.5",
            "--rho-max", "1000"]
    assert _run(argv) == 2
    assert capsys.readouterr().err.endswith("; no --eps below 1 fits, so lower --rho-max\n")


def test_a_passing_integral_job_never_searches_for_the_floor(workdir, monkeypatch):
    def refuse():
        raise AssertionError("min_window_eta called by a job that passes")

    for module in (chebyshev, algorithms, cli):
        monkeypatch.setattr(module, "min_window_eta", refuse)
    hz, hx, ket0 = (workdir / f for f in ("hz.txt", "hx.txt", "ket0.txt"))
    integral = ["--integral", "-0.5", "0.5", "--eps", "0.05", "--output", workdir / "out.csv"]
    assert _run(["dos", "--hamiltonian", hz, *integral]) == 0
    assert _run(["ldos", "--hamiltonian", hz, "--state", ket0, *integral]) == 0
    assert _run(["response", "--hamiltonian", hz, "--observable-b", hx, "--observable-c", hx,
                 "--state", ket0, *integral]) == 0
    assert _run(["window-poly", "--a", "-0.3", "--b", "0.2", "--eta", "0.05"]) == 0


@pytest.mark.parametrize("flag", [[], ["--allow-large-degree"]])
@pytest.mark.parametrize(
    "command, named",
    [
        ("window-poly --a -0.3 --b 0.2 --eta 1e-300", "error: eta 1e-300 is too small"),
        ("window-poly --a -0.3 --b 0.2 --eta 1e-4", "error: --eta 0.0001 needs a window"),
        ("dos --hamiltonian {h} --integral -1 1 --eps 1e-12", "error: --eps 1e-12 needs a window"),
    ],
)
def test_window_degree_past_the_ceiling_exits_2_without_allocating(
    workdir, capsys, command, named, flag
):
    """A window degree that overflows, or passes MAX_WINDOW_DEGREE, is
    refused before the window is built, naming eta or eps. argparse
    refuses --allow-large-degree by name: no flag lifts the ceiling."""
    (workdir / "h.txt").write_text("1.0 ZZ\n0.7 XI\n0.7 IX\n")
    argv = command.format(h=workdir / "h.txt").split() + flag
    tracemalloc.start()
    try:
        if flag:
            with pytest.raises(SystemExit) as exc:
                _run(argv)
            assert exc.value.code == 2
        else:
            assert _run(argv) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 <= 4.0
    err = capsys.readouterr().err
    if flag:
        assert "unrecognized arguments: --allow-large-degree" in err
        return
    assert err.startswith(named)
    if "overflows" not in err:
        assert f"above the ceiling {cli.MAX_WINDOW_DEGREE}; pass " in err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "golden, hamiltonian, args",
    [
        ("cost_correlation.json", "1.0 Z\n",
         ["correlate", "--observable", "{hx}", "0.0", "--state", "{ket0}", "--eps", "0.1"]),
        ("cost_dos_integral.json", "0.5 ZI\n0.3 IX\n",
         ["dos", "--integral", "-0.2", "0.3", "--eps", "0.1"]),
        ("cost_response_moments.json", "1.0 Z\n",
         ["response", "--observable-b", "{hx}", "--observable-c", "{hx}",
          "--state", "{ket0}", "--moments", "2", "--eps", "0.05"]),
    ],
)
def test_cost_matches_golden(workdir, capsys, golden, hamiltonian, args):
    (workdir / "h.txt").write_text(hamiltonian)
    files = {"hx": workdir / "hx.txt", "ket0": workdir / "ket0.txt"}
    argv = ["cost", args[0], "--hamiltonian", workdir / "h.txt", "--delta", "0.05"]
    argv += [a.format(**files) for a in args[1:]]
    assert _run(argv) == 0
    assert json.loads(capsys.readouterr().out) == json.loads((GOLDEN / golden).read_text())


@pytest.fixture
def golden_inputs(tmp_path):
    """A 2-qubit Hamiltonian, a complex pure site state and response
    observables, the inputs of the CSV goldens."""
    (tmp_path / "h2.txt").write_text("0.5 ZI\n0.3 IX\n0.2 XX\n")
    (tmp_path / "site.txt").write_text("pure 0.6 0 0.48j 0.64\n")
    (tmp_path / "b.txt").write_text("0.5 XI\n0.5 IZ\n")
    (tmp_path / "c.txt").write_text("1.0 IX\n")
    return tmp_path


@pytest.mark.parametrize(
    "golden, args",
    [
        ("ldos_moments_exact.csv", ["ldos", "--moments", "6", "--oracle"]),
        ("ldos_moments_sampled.csv",
         ["ldos", "--moments", "4", "--mode", "sampled", "--seed", "7", "--oracle"]),
        ("ldos_integral.csv", ["ldos", "--integral", "-0.4", "0.3", "--eps", "0.15", "--oracle"]),
        ("kpm_ldos.csv", ["kpm", "ldos", "--moments", "8", "--grid-points", "21"]),
        ("kpm_response.csv",
         ["kpm", "response", "--observable-b", "{b}", "--observable-c", "{c}",
          "--moments", "8", "--grid-points", "21"]),
        ("response_moments_sampled.csv",
         ["response", "--moments", "4", "--mode", "sampled", "--seed", "7", "--oracle",
          "--observable-b", "{b}", "--observable-c", "{c}"]),
    ],
)
def test_site_state_sketch_matches_golden(golden_inputs, capsys, golden, args):
    d = golden_inputs
    argv = [a.format(b=d / "b.txt", c=d / "c.txt") for a in args]
    argv += ["--hamiltonian", d / "h2.txt", "--state", d / "site.txt"]
    assert _run(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_dos_integral_matches_golden(golden_inputs, capsys):
    # dos reads no --state; the value carries the window's leakage.
    argv = ["dos", "--hamiltonian", golden_inputs / "h2.txt", "--integral", "-0.7", "0.05",
            "--eps", "0.15", "--oracle"]
    assert _run(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "dos_integral.csv").read_text()


def _refused(argv, capsys) -> str:
    """The stderr of a command line that argparse refuses, which exits 2
    and prints nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def _names_the_unread_flag(err: str, flag: str) -> bool:
    """Whether argparse's refusal names flag: as an unrecognized argument,
    or as an ambiguous prefix of flags that the kind does read."""
    pattern = rf"error: (unrecognized arguments|ambiguous option): {re.escape(flag)} "
    return re.search(pattern, err) is not None


@pytest.mark.parametrize(
    "args",
    [
        ["kpm", "ldos", "--moments", "3"],
        ["cost", "ldos", "--moments", "3"],
        ["cost", "ldos", "--integral", "-0.5", "0.5"],
    ],
)
def test_ldos_without_state_names_the_flag(workdir, capsys, args):
    err = _refused(args + ["--hamiltonian", workdir / "hz.txt"], capsys)
    assert err.endswith("error: the following arguments are required: --state\n")


# Each case is named by the input that its kind never reads.
@pytest.mark.parametrize(
    "args, unread",
    [
        (["kpm", "dos", "--moments", "3", "--state", "{ket0}"],
         "dos does not read --state"),
        (["kpm", "dos", "--moments", "3", "--observable-b", "{hx}"],
         "dos does not read --observable-b"),
        (["kpm", "ldos", "--moments", "3", "--state", "{ket0}", "--observable-c", "{hx}"],
         "ldos does not read --observable-c"),
        (["cost", "dos", "--moments", "3", "--state", "{ket0}"],
         "dos does not read --state"),
        (["cost", "dos", "--integral", "-0.5", "0.5", "--observable-c", "{hx}"],
         "dos does not read --observable-c"),
        (["cost", "ldos", "--moments", "3", "--state", "{ket0}", "--observable-b", "{hx}"],
         "ldos does not read --observable-b"),
    ],
)
def test_kpm_and_cost_refuse_a_flag_the_kind_never_reads(workdir, capsys, args, unread):
    files = {"hx": workdir / "hx.txt", "ket0": workdir / "ket0.txt"}
    argv = [a.format(**files) for a in args] + ["--hamiltonian", workdir / "hz.txt"]
    assert _names_the_unread_flag(_refused(argv, capsys), unread.split()[-1])


@pytest.mark.parametrize(
    "args, unread",
    [
        (["cost", "dos", "--moments", "2", "--observable", "{hx}", "0"],
         "dos does not read --observable"),
        (["cost", "ldos", "--integral", "-0.5", "0.5", "--state", "{ket0}",
          "--observable", "{hx}", "0"],
         "ldos does not read --observable"),
        (["cost", "response", "--moments", "2", "--state", "{ket0}",
          "--observable-b", "{hx}", "--observable-c", "{hx}", "--observable", "{hx}", "0"],
         "response does not read --observable"),
        (["cost", "correlate", "--observable", "{hx}", "0", "--state", "{ket0}",
          "--moments", "3"],
         "correlation does not read --moments"),
        (["cost", "correlate", "--observable", "{hx}", "0", "--state", "{ket0}",
          "--integral", "-0.5", "0.5"],
         "correlation does not read --integral"),
        (["cost", "correlate", "--observable", "{hx}", "0", "--state", "{ket0}",
          "--observable-b", "{hx}"],
         "correlation does not read --observable-b"),
        (["cost", "correlate", "--observable", "{hx}", "0", "--state", "{ket0}",
          "--observable-c", "{hx}"],
         "correlation does not read --observable-c"),
    ],
)
def test_cost_refuses_an_observable_or_mode_flag_the_kind_never_reads(
    workdir, capsys, args, unread
):
    files = {"hx": workdir / "hx.txt", "ket0": workdir / "ket0.txt"}
    argv = [a.format(**files) for a in args] + ["--hamiltonian", workdir / "hz.txt"]
    assert _names_the_unread_flag(_refused(argv, capsys), unread.split()[-1])


def test_kpm_has_no_observable_flag(workdir, capsys):
    """Only correlate reads --observable: kpm dos does not know it, and
    kpm response refuses it as an ambiguous prefix of --observable-b/-c."""
    hz, hx, ket0 = (workdir / f for f in ("hz.txt", "hx.txt", "ket0.txt"))
    argv = ["kpm", "dos", "--moments", "2", "--observable", hx, "0", "--hamiltonian", hz]
    assert f"error: unrecognized arguments: --observable {hx} 0\n" in _refused(argv, capsys)
    argv[1] = "response"
    argv += ["--observable-b", hx, "--observable-c", hx, "--state", ket0]
    err = _refused(argv, capsys)
    assert "kpm response: error: ambiguous option: --observable could match" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["dos", "--moments", "2"], "dos --moments does not read --rho-max"),
        (["ldos", "--moments", "2", "--state", "{ket0}"], "ldos --moments does not read --rho-max"),
        (["response", "--moments", "2", "--state", "{ket0}", "--observable-b", "{hx}",
          "--observable-c", "{hx}"],
         "response --moments does not read --rho-max"),
        (["cost", "dos", "--moments", "2"],
         "dos --moments does not read --rho-max"),
        (["cost", "response", "--moments", "2", "--state", "{ket0}",
          "--observable-b", "{hx}", "--observable-c", "{hx}"],
         "response --moments does not read --rho-max"),
        (["cost", "correlate", "--observable", "{hx}", "0", "--state", "{ket0}"],
         "correlation does not read --rho-max"),
    ],
)
@pytest.mark.parametrize("rho_max", ["0.5", "1"])
def test_rho_max_is_refused_where_it_is_never_read(workdir, capsys, args, message, rho_max):
    """A sketch kind reads --rho-max only in integral mode, which argparse
    cannot declare, so moments mode refuses it with a message; a correlation
    cost has no --rho-max flag, so argparse refuses it."""
    files = {"hx": workdir / "hx.txt", "ket0": workdir / "ket0.txt"}
    argv = [a.format(**files) for a in args] + ["--hamiltonian", workdir / "hz.txt"]
    argv += ["--rho-max", rho_max]
    if "correlate" in args:
        assert f"error: unrecognized arguments: --rho-max {rho_max}\n" in _refused(argv, capsys)
        return
    assert _run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_kpm_has_no_rho_max_flag(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["kpm", "dos", "--moments", "2", "--rho-max", "0.5",
              "--hamiltonian", workdir / "hz.txt"])
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --rho-max 0.5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["dos"], ["cost", "dos"], ["ldos", "--state", "{ket0}"]]
)
def test_integral_mode_without_rho_max_reads_one(workdir, capsys, command):
    argv = [a.format(ket0=workdir / "ket0.txt") for a in command]
    argv += ["--hamiltonian", workdir / "tilted.txt", "--integral", "-0.2", "0.3", "--eps", "0.1"]
    assert _run(argv) == 0
    default = capsys.readouterr().out
    assert _run(argv + ["--rho-max", "1.0"]) == 0
    assert capsys.readouterr().out == default
    assert _run(argv + ["--rho-max", "0.5"]) == 0
    assert capsys.readouterr().out != default


def test_sampled_moment_at_amplitude_one_finishes_fast_at_tiny_eps(workdir, capsys):
    # T_0 has amplitude 1 (theta = pi/2). The plain scan of Grover powers
    # took 3.4 s at eps 1e-9 and about ten times that at 1e-10.
    start = time.perf_counter()
    rc = _run(["dos", "--hamiltonian", workdir / "hz.txt", "--moments", "0", "--mode",
               "sampled", "--seed", "1", "--eps", "1e-10"])
    assert time.perf_counter() - start < 1.0
    assert rc == 0
    assert capsys.readouterr().out == "n,value_re,value_im,queries\n0,1,0,2773035709708\n"


@pytest.mark.parametrize("beta", ["200", "3000"])
def test_correlation_cost_of_an_overflowing_thermal_state_exits_2(workdir, capsys, beta):
    (workdir / "h.txt").write_text("1.0 I\n0.5 Z\n")
    (workdir / "thermal.txt").write_text(f"thermal {beta}\n")
    rc = _run(
        ["cost", "correlate", "--hamiltonian", workdir / "h.txt", "--observable",
         workdir / "hx.txt", "0", "--state", workdir / "thermal.txt"]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: thermal preparation cost at inverse temperature" in captured.err
    assert "not at most 2^63 - 1" in captured.err


@pytest.mark.parametrize("points", ["-1", "0"])
def test_kpm_grid_points_guard(workdir, capsys, points):
    rc = _run(["kpm", "dos", "--hamiltonian", workdir / "hz.txt", "--moments", "3",
               "--grid-points", points])
    assert rc == 2
    assert f"--grid-points must be at least 1, got {points}" in capsys.readouterr().err


def test_kpm_grid_points_limit_is_checked_before_any_allocation(workdir, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(cli, "spectral_sketch", refuse)
    monkeypatch.setattr(cli.np, "linspace", refuse)
    points = cli.MAX_GRID_POINTS + 1
    rc = _run(["kpm", "dos", "--hamiltonian", workdir / "hz.txt", "--moments", "2",
               "--grid-points", points])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --grid-points {points} exceeds {cli.MAX_GRID_POINTS}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["response", "--moments", "1"],
        ["kpm", "response", "--moments", "1"],
        ["cost", "response", "--moments", "1"],
    ],
)
def test_observables_on_other_qubits_exit_2_before_any_matrix(workdir, capsys, args):
    (workdir / "chain.txt").write_text("1.0 ZZ\n0.7 XI\n0.7 IX\n")
    (workdir / "wide.txt").write_text("1.0 " + "Z" * 16 + "\n")
    argv = args + ["--hamiltonian", workdir / "chain.txt", "--state", workdir / "ket0.txt",
                   "--observable-b", workdir / "wide.txt", "--observable-c", workdir / "chain.txt"]
    assert _run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: observable and Hamiltonian qubit counts differ\n"


@pytest.mark.parametrize(
    "mode, other",
    [
        (["dos", "--integral", "-1", "1"], ["--moments", "3"]),
        (["dos", "--moments", "3"], ["--integral", "-1", "1"]),
    ],
)
def test_cost_refuses_the_other_mode_flag_by_name(workdir, capsys, mode, other):
    argv = ["cost", mode[0], "--hamiltonian", workdir / "hz.txt", *mode[1:], *other]
    err = _refused(argv, capsys)
    assert err.endswith(f"error: argument {other[0]}: not allowed with argument {mode[1]}\n")


@pytest.mark.parametrize(
    "args",
    [
        ["dos", "--hamiltonian", "{missing}", "--moments", "2"],
        ["ldos", "--hamiltonian", "{hz}", "--moments", "2", "--state", "{missing}"],
        ["correlate", "--hamiltonian", "{hz}", "--observable", "{missing}", "0", "--state", "{ket0}"],
        ["response", "--hamiltonian", "{hz}", "--moments", "2", "--observable-b", "{hx}",
         "--observable-c", "{missing}", "--state", "{ket0}"],
    ],
)
def test_missing_input_file(workdir, capsys, args):
    missing = workdir / "missing.txt"
    files = {"missing": missing, "hz": workdir / "hz.txt", "hx": workdir / "hx.txt",
             "ket0": workdir / "ket0.txt"}
    assert _run([a.format(**files) for a in args]) == 2
    assert f"error: cannot read {missing}: No such file or directory" in capsys.readouterr().err


def test_input_files_may_start_with_a_utf8_byte_order_mark(workdir):
    (workdir / "bom_h.txt").write_text("\ufeff1.0 ZZ\n", encoding="utf-8")
    (workdir / "bom_state.txt").write_text("\ufeffbasis 0\n", encoding="utf-8")
    assert _run(["dos", "--hamiltonian", workdir / "bom_h.txt", "--moments", "2",
                 "--output", workdir / "dos.csv"]) == 0
    assert _run(["ldos", "--hamiltonian", workdir / "bom_h.txt", "--moments", "2",
                 "--state", workdir / "bom_state.txt", "--output", workdir / "ldos.csv"]) == 0


def test_correlate_time_must_be_a_number(workdir, capsys):
    rc = _run(
        ["correlate", "--hamiltonian", workdir / "hz.txt", "--observable", workdir / "hx.txt",
         "soon", "--state", workdir / "ket0.txt"]
    )
    assert rc == 2
    assert "time 'soon' is not a number" in capsys.readouterr().err


def _run_chain_correlation(workdir, command, time) -> int:
    """Run a correlate or cost command on a 2-qubit chain with one
    observable at the given time."""
    chain = workdir / "chain.txt"
    chain.write_text("1.0 ZZ\n0.7 XI\n0.7 IX\n")
    observable = workdir / "zi.txt"
    observable.write_text("0.5 ZI\n")
    return _run(
        [*command, "--hamiltonian", chain, "--observable", observable, time,
         "--state", workdir / "ket0.txt"]
    )


@pytest.mark.parametrize(
    "time, message",
    [
        ("nan", "observable time must be finite, got nan"),
        ("inf", "observable time must be finite, got inf"),
        ("1e308", "evolution cost at time 1e+308 is inf, not at most 2^63 - 1"),
    ],
)
def test_correlate_time_must_be_finite_with_a_finite_cost(workdir, capsys, time, message):
    assert _run_chain_correlation(workdir, ["correlate"], time) == 2
    assert f"error: {message}\n" in capsys.readouterr().err


def test_correlation_cost_at_an_overflowing_time_exits_2(workdir, capsys):
    """The cost report refuses the time that correlate refuses, with the
    same message, rather than print Infinity."""
    assert _run_chain_correlation(workdir, ["cost", "correlate"], "1e308") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: evolution cost at time 1e+308 is inf, not at most 2^63 - 1\n" in captured.err


@pytest.mark.parametrize("time", ["-1e3", "-1.5e-2", "-1000", "-0.3"])
@pytest.mark.parametrize("command", ["correlate", "cost"])
def test_observable_time_may_be_negative(workdir, capsys, command, time):
    argv = [command, "--hamiltonian", workdir / "hz.txt", "--observable", workdir / "hx.txt", time,
            "--state", workdir / "ket0.txt"]
    if command == "cost":
        argv[1:1] = ["correlate"]
    assert _run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    if command == "cost":
        assert payload["taus"] == [float(time), -float(time)]


@pytest.mark.parametrize("option", ["--bogus", "-x"])
def test_unknown_option_still_errors(workdir, capsys, option):
    with pytest.raises(SystemExit) as exc:
        _run(["correlate", "--hamiltonian", workdir / "hz.txt", "--observable",
              workdir / "hx.txt", "0.5", "--state", workdir / "ket0.txt", option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_correlate_at_an_underflowing_time_costs_nothing(workdir, capsys):
    """alpha |t| underflows to 0 at t = 5e-324, alpha = 0.1: the cost is the
    t = 0 limit, and the correlation is the one at t = 0."""
    small = workdir / "small.txt"
    small.write_text("0.1 Z\n")
    outs = []
    for time in ("5e-324", "0"):
        rc = _run(
            ["correlate", "--hamiltonian", small, "--observable", workdir / "hz.txt", time,
             "--state", workdir / "ket0.txt"]
        )
        assert rc == 0
        outs.append(json.loads(capsys.readouterr().out))
    assert outs[0] == outs[1]


def test_overflowing_scale_names_the_file(workdir, capsys):
    big = workdir / "big.txt"
    big.write_text("1e308 ZI\n1e308 IZ\n")
    rc = _run(["dos", "--hamiltonian", big, "--moments", "1"])
    assert rc == 2
    assert f"error: {big}: the sum of |coefficients| (the scale alpha) overflows" in (
        capsys.readouterr().err
    )


GAMMA_OVERFLOWS = "gamma, the product of the observable scales, overflows to inf"
BC_OVERFLOWS = "|B| |C|, the product of the observable scales, overflows to inf"
QUERIES_OVERFLOW = "the query count overflows to inf"


@pytest.mark.parametrize(
    "command, message",
    [
        ("correlate --observable {big_x} 0 --observable {big_z} 0.5", GAMMA_OVERFLOWS),
        ("cost correlate --observable {big_x} 0 --observable {big_z} 0.5", GAMMA_OVERFLOWS),
        ("cost correlate --observable {huge_x} 0", QUERIES_OVERFLOW),
        ("response --moments 1 --observable-b {big_x} --observable-c {big_x}", BC_OVERFLOWS),
        ("cost response --moments 1 --observable-b {big_x} --observable-c {big_x}",
         BC_OVERFLOWS),
        ("cost response --moments 1 --observable-b {huge_x} --observable-c {hz}",
         QUERIES_OVERFLOW),
        ("cost dos --integral -0.5 0.5 --eps 1e-306 --rho-max 1e-304", QUERIES_OVERFLOW),
    ],
)
def test_overflowing_scale_products_exit_2(workdir, capsys, command, message):
    """An observable scale product or a query count that overflows is named,
    rather than read as a non-Hermitian block or printed as Infinity."""
    (workdir / "big_x.txt").write_text("1e200 X\n")
    (workdir / "big_z.txt").write_text("1e200 Z\n")
    (workdir / "huge_x.txt").write_text("1e307 X\n")
    paths = {name: workdir / f"{name}.txt" for name in ("big_x", "big_z", "huge_x", "hz")}
    argv = command.format(**paths).split() + ["--hamiltonian", workdir / "hz.txt"]
    if not command.startswith("cost dos "):  # a dos cost refuses --state
        argv += ["--state", workdir / "ket0.txt"]
    assert _run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_json_writer_refuses_non_finite_numbers():
    with pytest.raises(ValueError):
        cli._json_chunk({"total_queries": math.inf})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [["dos"], ["cost", "dos"]])
def test_non_finite_rho_max_is_named(workdir, capsys, command, value):
    argv = [*command, "--hamiltonian", workdir / "hz.txt", "--integral", "-0.5", "0.5",
            f"--rho-max={value}"]
    assert _run(argv) == 2
    assert f"error: rho_max must be positive and finite, got {value}\n" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["dos", "--moments", "2"], ["cost", "dos", "--moments", "2"]])
def test_unwritable_output_exits_2(workdir, capsys, command):
    target = workdir / "missing" / "out.txt"
    assert _run([*command, "--hamiltonian", workdir / "hz.txt", "--output", target]) == 2
    assert f"error: cannot write {target}: No such file or directory\n" in capsys.readouterr().err


@pytest.fixture
def counted_builds(monkeypatch):
    """The parser builds made by `main` from now on: `main`'s cached parser
    is dropped, and each `build_parser` call is recorded."""
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    yield builds
    cli._parser.cache_clear()


def _outcome(argv, output):
    """The exit code of one `main` call and the bytes of its output file
    (None if it wrote none)."""
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    return code, output.read_bytes() if output.exists() else None


def test_one_parser_serves_every_call_like_a_fresh_one(
    workdir, capsys, monkeypatch, counted_builds
):
    """A sequence of calls, with failures between them, reads one parser and
    gives what a parser built for each call alone gives."""
    hz, hx, ket0, plus = (workdir / f for f in ("hz.txt", "hx.txt", "ket0.txt", "plus.txt"))
    sampled = ["dos", "--hamiltonian", workdir / "tilted.txt", "--moments", "3", "--mode",
               "sampled", "--eps", "0.1", "--delta", "0.1"]
    steps = [
        ("5", sampled),
        (None, ["correlate", "--hamiltonian", hz, "--observable", hx, "0.3", "--observable", hz,
                "-0.2", "--state", plus, "--oracle"]),
        (None, ["dos", "--hamiltonian", hz, "--moments", "2", "--bogus"]),
        (None, ["ldos", "--hamiltonian", hx, "--moments", "2", "--state", ket0, "--oracle"]),
        (None, ["dos", "--hamiltonian", hz, "--moments", "2", "--eps", "2"]),
        (None, ["correlate", "--hamiltonian", hz, "--observable", hx, "0.3", "--state", plus]),
        (None, ["response", "--hamiltonian", hz, "--observable-b", hx, "--observable-c", hx,
                "--state", ket0, "--moments", "1"]),
        (None, ["dos", "--hamiltonian", workdir / "tilted.txt", "--integral", "0.2", "0.45",
                "--eps", "0.3"]),
        (None, ["kpm", "dos", "--hamiltonian", hz, "--moments", "4", "--grid-points", "5"]),
        (None, ["window-poly", "--a", "-0.2", "--b", "0.2", "--eta", "0.4"]),
        (None, ["cost", "correlate", "--hamiltonian", hz, "--observable", hx, "0.5",
                "--state", ket0]),
        ("6", sampled),
    ]

    def run_steps(tag):
        (workdir / tag).mkdir()
        outcomes = []
        for i, (seed, argv) in enumerate(steps):
            if seed is not None:
                argv = [*argv, "--seed", seed]
            output = workdir / tag / f"{i}.out"
            outcomes.append((*_outcome([*argv, "--output", output], output), *capsys.readouterr()))
        return outcomes

    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        fresh = run_steps("fresh")
    builds_for_fresh = len(counted_builds)
    reused = run_steps("reused")

    assert builds_for_fresh == len(steps)
    assert len(counted_builds) - builds_for_fresh == 1
    assert [o[0] for o in reused] == [0, 0, 2, 0, 2, 0, 0, 0, 0, 0, 0, 0]
    assert reused == fresh
    # The seed and the observable list are read per call.
    assert reused[0][1] != reused[-1][1]
    assert reused[1][1] != reused[5][1]


def test_help_of_the_reused_parser_is_a_fresh_parsers(capsys, monkeypatch, counted_builds):
    """Help is formatted when printed, at the terminal width of that moment,
    not at the width the reused parser was built at."""
    commands = ([], ["correlate"], ["dos"], ["ldos"], ["response"], ["kpm"], ["kpm", "response"],
                ["window-poly"], ["cost"], ["cost", "correlate"])
    top_level = []
    for columns in ("200", "60"):
        monkeypatch.setenv("COLUMNS", columns)
        for command in commands:
            texts = []
            for parse in (main, cli.build_parser().parse_args):
                capsys.readouterr()
                with pytest.raises(SystemExit) as exc:
                    parse([*command, "--help"])
                assert exc.value.code == 0
                texts.append(capsys.readouterr().out)
            assert texts[0] == texts[1]
            if not command:
                top_level.append(texts[0])
    assert top_level[0] != top_level[1]
    assert len(counted_builds) == 1 + 2 * len(commands)
    assert cli.build_parser() is not cli.build_parser()


BUDGET_OVERFLOWS = "error: the Grover query budget at amplitude precision"


@pytest.mark.parametrize(
    "command",
    [
        "correlate --observable {huge_x} 0 --state {ket0}",
        "response --moments 1 --observable-b {huge_x} --observable-c {hz} --state {ket0}",
        "dos --moments 1 --eps 1e-310",
        "dos --moments 1 --delta 1e-320 --eps 1e-300",
    ],
)
def test_overflowing_query_budget_exits_2(workdir, capsys, command):
    """An amplitude precision (eps / (2 scale)) or a delta so small that the
    worst-case Grover budget is not finite is refused, not met by
    math.ceil(inf)."""
    (workdir / "huge_x.txt").write_text("1e307 X\n")
    paths = {name: workdir / f"{name}.txt" for name in ("huge_x", "hz", "ket0")}
    argv = command.format(**paths).split()
    assert _run(argv + ["--hamiltonian", workdir / "hz.txt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(BUDGET_OVERFLOWS)
    assert "overflows to inf" in captured.err


def test_underflowing_amplitude_precision_exits_2(workdir, capsys):
    """|B| |C| = 1e300 is finite, so the request is accepted, but the
    amplitude precision eps / (2 |B| |C|) underflows to 0 at eps 1e-300,
    where no query count meets it."""
    (workdir / "h2.txt").write_text("1.0 ZZ\n0.7 XI\n0.7 IX\n")
    (workdir / "b.txt").write_text("1e200 XI\n")
    (workdir / "c.txt").write_text("1e100 XI\n")
    rc = _run(["response", "--hamiltonian", workdir / "h2.txt", "--moments", "1",
               "--observable-b", workdir / "b.txt", "--observable-c", workdir / "c.txt",
               "--state", workdir / "ket0.txt", "--eps", "1e-300"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{BUDGET_OVERFLOWS} 0 is unbounded")
    assert "raise eps" in captured.err


def test_overflowing_query_budget_in_sampled_mode_exits_2(workdir):
    """Sampled mode is refused before it simulates: without the budget check
    the iterative scheme does not finish at this precision, so the command
    runs in a child process under a timeout."""
    (workdir / "huge_x.txt").write_text("1e307 X\n")
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    argv = ["correlate", "--hamiltonian", "hz.txt", "--observable", "huge_x.txt", "0",
            "--state", "ket0.txt", "--mode", "sampled", "--seed", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "blocksketch.cli", *argv],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(BUDGET_OVERFLOWS)


@pytest.mark.parametrize(
    "command, named",
    [
        ("dos --integral -0.5 0.5 --rho-max 1e308", "rho_max 1e+308"),
        ("dos --integral -0.5 0.5 --rho-max 1e305", "rho_max 1e+305"),
        ("ldos --integral -0.5 0.5 --rho-max 1e305 --state {ket0}", "rho_max 1e+305"),
        ("cost dos --integral -0.5 0.5 --rho-max 1e305", "rho_max 1e+305"),
        ("response --integral -0.5 0.5 --observable-b {huge_x} --observable-c {hz} "
         "--state {ket0}", "rho_max 1.0 with |B| |C| = 1e+307"),
        ("cost response --integral -0.5 0.5 --observable-b {huge_x} "
         "--observable-c {hz} --state {ket0}", "rho_max 1.0 with |B| |C| = 1e+307"),
    ],
)
def test_underflowing_window_share_names_its_factor(workdir, capsys, command, named):
    """A window share eps / (3 rho_max |B| |C|) that underflows to 0, or whose
    window degree overflows, is refused naming rho_max (and |B| |C| for
    response), not eta, and not by an OverflowError."""
    (workdir / "huge_x.txt").write_text("1e307 X\n")
    paths = {name: workdir / f"{name}.txt" for name in ("huge_x", "hz", "ket0")}
    argv = command.format(**paths).split()
    assert _run(argv + ["--hamiltonian", workdir / "hz.txt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {named} is too large for eps 0.05: its window share")


@pytest.mark.parametrize(
    "command, named",
    [
        ("dos --integral -0.5 0.5 --rho-max 0.01", "rho_max 0.01"),
        ("cost dos --integral -0.5 0.5 --rho-max 0.01", "rho_max 0.01"),
        ("ldos --integral -0.5 0.5 --rho-max 0.01 --state {ket0}", "rho_max 0.01"),
        ("cost response --integral -0.5 0.5 --rho-max 0.01 --observable-b {hz} "
         "--observable-c {hx} --state {ket0}", "rho_max 0.01 with |B| |C| = 1.0"),
    ],
)
def test_window_share_of_one_or_more_names_its_factor(workdir, capsys, command, named):
    """A window share eps / (3 rho_max |B| |C|) of 1 or more is refused
    naming rho_max (and |B| |C| for response), not eta."""
    paths = {name: workdir / f"{name}.txt" for name in ("hz", "hx", "ket0")}
    argv = command.format(**paths).split()
    assert _run(argv + ["--hamiltonian", workdir / "hz.txt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {named} is too small for eps 0.05: its window share "
        f"{0.05 / 0.03!r} is not below 1\n"
    )


@pytest.mark.parametrize(
    "command",
    [
        "dos --moments 2",
        "correlate --observable {hz} 0 --state {ket0}",
        "response --moments 1 --observable-b {hz} --observable-c {hx} --state {ket0}",
    ],
)
@pytest.mark.parametrize("seed", [["--seed", "-1"], ["--seed", "-2"]])
def test_negative_seed_is_refused_in_sampled_mode(workdir, capsys, command, seed):
    paths = {name: workdir / f"{name}.txt" for name in ("hz", "hx", "ket0")}
    argv = command.format(**paths).split() + ["--hamiltonian", workdir / "hz.txt", *seed]
    assert _run(argv + ["--mode", "sampled"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: seed must be nonnegative, got {seed[1]}\n"
    # Exact mode never reads the seed.
    assert _run(argv + ["--mode", "exact"]) == 0


def test_queries_column_prints_an_exact_integer_above_1e12(workdir):
    """Exact-mode query counts are printed as integers, however large: the
    sketch table goes through the same writer as the kpm and window tables,
    whose floats are rounded to 12 significant digits."""
    (workdir / "b7.txt").write_text("1e7 Z\n")
    (workdir / "c7.txt").write_text("1e7 X\n")
    out = workdir / "r.csv"
    rc = _run(["response", "--hamiltonian", workdir / "hz.txt", "--moments", "1",
               "--observable-b", workdir / "b7.txt", "--observable-c", workdir / "c7.txt",
               "--state", workdir / "ket0.txt", "--oracle", "--output", out])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,value_re,value_im,queries,oracle_re,oracle_im"
    # Re and Im parts each run at amplitude precision eps / (2 |B| |C|).
    expected = 2 * query_budget(0.05 / (2.0 * 1e14), 0.05)
    assert expected >= 10**12
    for order, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert fields[0] == str(order)
        assert fields[3] == str(expected)


# A real chain (no Y letter) and one whose Y terms make its blocks complex.
REPEAT_HAMILTONIANS = {
    "real": "1.0 ZZI\n1.0 IZZ\n0.7 XII\n0.7 IXI\n0.7 IIX\n",
    "complex": "0.8 ZZI\n0.8 IZZ\n0.5 XYI\n0.4 IIY\n",
}
REPEAT_COMMANDS = {
    "dos-moments": ["dos", "--moments", "8"],
    "response-sampled": [
        "response", "--moments", "6", "--mode", "sampled", "--seed", "11", "--eps", "0.1",
        "--observable-b", "b.txt", "--observable-c", "c.txt", "--state", "ket.txt",
    ],
    "dos-integral": ["dos", "--integral", "-1", "1", "--eps", "0.1"],
}


@pytest.mark.parametrize("command", REPEAT_COMMANDS)
@pytest.mark.parametrize("hamiltonian", REPEAT_HAMILTONIANS)
def test_repeated_calls_in_one_process_write_the_same_bytes(tmp_path, command, hamiltonian):
    """One --oracle call, then two plain calls, as a long-running caller
    makes them: the plain outputs equal the first four columns of the
    oracle call's byte for byte, so nothing one call caches moves the
    next call's numbers."""
    (tmp_path / "h.txt").write_text(REPEAT_HAMILTONIANS[hamiltonian])
    (tmp_path / "b.txt").write_text("1.0 ZII\n")
    (tmp_path / "c.txt").write_text("1.0 XII\n")
    (tmp_path / "ket.txt").write_text("basis 0\n")
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in REPEAT_COMMANDS[command]]
    argv += ["--hamiltonian", str(tmp_path / "h.txt")]
    out = tmp_path / "out.csv"
    outputs = []
    for extra in (["--oracle"], [], []):
        assert main([*argv, *extra, "--output", str(out)]) == 0
        outputs.append(out.read_text())
    first = "".join(",".join(line.split(",")[:4]) + "\n" for line in outputs[0].splitlines())
    assert len(outputs[0].splitlines()[0].split(",")) > 4
    assert outputs[1] == first
    assert outputs[2] == first


README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_readme_command_parses():
    """Each `blocksketch ...` line of the README is a command line that the
    parser accepts, and together they show all seven commands."""
    lines = [line for line in README.read_text().splitlines() if line.startswith("blocksketch ")]
    parser = cli.build_parser()
    commands = {parser.parse_args(shlex.split(line)[1:]).command for line in lines}
    assert commands == {"correlate", "dos", "ldos", "response", "kpm", "window-poly", "cost"}
