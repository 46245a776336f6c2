"""Cold start of the CLI: no command loads scipy.

The package needs numpy alone. Each case runs `cli.main` in a fresh
interpreter whose import system refuses scipy, so a hidden scipy import
fails the command, and reports its exit code and whether scipy was
loaded. A scan of the package's source checks that no module imports it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import importlib.abc, json, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"refused to import {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())
from blocksketch.cli import main
rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "scipy": "scipy" in sys.modules}))
"""

SCIPY_FREE = {
    "dos-moments": ["dos", "--hamiltonian", "h.txt", "--moments", "4", "--oracle"],
    "ldos-moments": ["ldos", "--hamiltonian", "h.txt", "--moments", "4", "--state", "basis.txt"],
    "response-sampled": [
        "response", "--hamiltonian", "h.txt", "--moments", "4", "--mode", "sampled",
        "--seed", "3", "--observable-b", "b.txt", "--observable-c", "c.txt",
        "--state", "mixed.txt",
    ],
    "kpm": ["kpm", "dos", "--hamiltonian", "h.txt", "--moments", "4", "--grid-points", "5"],
    "correlate": [
        "correlate", "--hamiltonian", "h.txt", "--observable", "b.txt", "0.3",
        "--state", "pure.txt", "--oracle",
    ],
    "cost-dos-integral": ["cost", "dos", "--hamiltonian", "h.txt", "--integral", "-1", "1"],
}

# Commands that build a window polynomial or a thermal state.
WINDOW_AND_THERMAL = {
    "dos-integral": ["dos", "--hamiltonian", "h.txt", "--integral", "-1", "1", "--eps", "0.1"],
    "ldos-integral": [
        "ldos", "--hamiltonian", "h.txt", "--integral", "-1", "1", "--eps", "0.1",
        "--state", "basis.txt", "--oracle",
    ],
    "response-integral": [
        "response", "--hamiltonian", "h.txt", "--integral", "-1", "1", "--eps", "0.3",
        "--mode", "sampled", "--seed", "3", "--observable-b", "b.txt",
        "--observable-c", "c.txt", "--state", "mixed.txt",
    ],
    "window-poly-output": [
        "window-poly", "--a", "-0.2", "--b", "0.2", "--eta", "0.4", "--output", "w.csv",
    ],
    "thermal-response": [
        "response", "--hamiltonian", "h.txt", "--moments", "2", "--observable-b", "b.txt",
        "--observable-c", "c.txt", "--state", "thermal.txt",
    ],
}


@pytest.fixture
def workdir(tmp_path):
    files = {
        "h.txt": "1.0 ZZ\n0.7 XI\n0.7 IX\n",
        "b.txt": "1.0 ZI\n",
        "c.txt": "1.0 XI\n",
        "basis.txt": "basis 1\n",
        "mixed.txt": "mixed\n",
        "pure.txt": "pure 0.5 0.5 0.5 0.5\n",
        "thermal.txt": "thermal 0.5\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def _run_fresh(args, cwd) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SCIPY_FREE))
def test_command_runs_without_scipy(name, workdir):
    result = _run_fresh(SCIPY_FREE[name], workdir)
    assert result == {"rc": 0, "scipy": False}


@pytest.mark.parametrize("name", sorted(WINDOW_AND_THERMAL))
def test_window_and_thermal_commands_never_load_scipy(name, workdir):
    result = _run_fresh(WINDOW_AND_THERMAL[name], workdir)
    assert result == {"rc": 0, "scipy": False}


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, [node.module or ""]


def test_no_package_module_imports_scipy():
    paths = sorted((SRC / "blocksketch").rglob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, names in _imported_modules(tree):
            for name in names:
                assert name.partition(".")[0] != "scipy", f"{path.name}:{lineno} imports {name}"
