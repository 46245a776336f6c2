"""Command-line front end.

Subcommands: correlate, dos, ldos, response, kpm, window-poly, cost.
Inputs are the Pauli text format and the state directive format; outputs
are JSON (correlate, cost) or CSV (sketches, kpm, window coefficients)
with numbers serialized to 12 significant digits so identical configs and
seeds produce byte-identical files.

For integral sketches the optional oracle column reports the exact
spectral value of the windowed estimand (the quantity being estimated);
moment and correlation oracle columns are the sharp spectral sums.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .algorithms import (
    DOS,
    LDOS,
    RESPONSE,
    CorrelationSpec,
    SketchRequest,
    complexity_report,
    correlate,
    dos_sketch,
    kpm_sketch,
    min_window_eps,
    response_sketch,
)
from .chebyshev import MIN_ETA_REL, WindowPoly, window_poly
from .errors import BlockSketchError, DegreeTooLargeError, ValidationError
from .oracle import oracle_correlation, oracle_moments, oracle_response
from .pauli import PauliSum, parse_pauli_file, pauli_sum_matrix
from .state_prep import parse_state_file, reduced_density

MAX_QUBITS = 6
MAX_MOMENTS = 4096
SEED_ENV_VAR = "BLOCKSKETCH_SEED"


@dataclass(frozen=True)
class RunConfig:
    """A validated, normalized CLI invocation."""

    command: str
    hamiltonian_path: str | None = None
    observables: tuple = ()
    state_path: str | None = None
    b_path: str | None = None
    c_path: str | None = None
    kind: str = DOS
    eps: float = 0.05
    delta: float = 0.05
    mode: str = "exact"
    seed: int | None = None
    rho_max: float = 1.0
    num_moments: int | None = None
    interval: tuple[float, float] | None = None
    eta: float | None = None
    window_bounds: tuple[float, float] | None = None
    grid_points: int = 201
    allow_large_degree: bool = False
    emit_oracle: bool = False
    output: str | None = None


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load_hamiltonian(config: RunConfig) -> PauliSum:
    if config.hamiltonian_path is None:
        raise ValidationError("a --hamiltonian file is required")
    h = parse_pauli_file(config.hamiltonian_path)
    if h.qubits > MAX_QUBITS:
        raise ValidationError(
            f"{h.qubits} qubits exceeds the {MAX_QUBITS}-qubit limit for dense simulation"
        )
    return h


def _validate_common(config: RunConfig):
    if not 0.0 < config.eps < 1.0:
        raise ValidationError(f"eps must be in (0, 1), got {config.eps}")
    if not 0.0 < config.delta < 1.0:
        raise ValidationError(f"delta must be in (0, 1), got {config.delta}")
    if config.num_moments is not None and config.num_moments > MAX_MOMENTS:
        raise ValidationError(f"moment count {config.num_moments} exceeds {MAX_MOMENTS}")


def _site_vector(config: RunConfig, h: PauliSum) -> np.ndarray:
    prep = parse_state_file(config.state_path, h.dim, h)
    if prep.purifier_dim != 1:
        raise ValidationError("ldos requires a pure site state (pure or basis directive)")
    return prep.purified_state()


def _build_sketch_request(config: RunConfig, h: PauliSum) -> SketchRequest:
    kwargs: dict = {}
    if config.kind == LDOS:
        kwargs["site_state"] = _site_vector(config, h)
    if config.kind == RESPONSE:
        if config.b_path is None or config.c_path is None or config.state_path is None:
            raise ValidationError("response requires --observable-b, --observable-c, --state")
        b = parse_pauli_file(config.b_path)
        c = parse_pauli_file(config.c_path)
        kwargs["b_observable"] = b
        kwargs["c_observable"] = c
        kwargs["state"] = parse_state_file(config.state_path, h.dim, h)
    return SketchRequest(
        hamiltonian=h,
        kind=config.kind,
        eps=config.eps,
        delta=config.delta,
        rho_max=config.rho_max,
        interval=config.interval,
        num_moments=config.num_moments,
        allow_large_degree=config.allow_large_degree,
        **kwargs,
    )


def _weight_operator(req: SketchRequest) -> np.ndarray:
    if req.kind == DOS:
        return np.eye(req.hamiltonian.dim) / req.hamiltonian.dim
    site = np.asarray(req.site_state, dtype=complex)
    return np.outer(site, site.conj())


def _windowed_oracle(req: SketchRequest, window: WindowPoly) -> complex:
    """Exact spectral value of the windowed estimand."""
    h = req.hamiltonian
    energies, vecs = np.linalg.eigh(pauli_sum_matrix(h))
    weights = window.eval(energies / h.scale())
    if req.kind == RESPONSE:
        sandwich = (
            pauli_sum_matrix(req.c_observable)
            @ reduced_density(req.state)
            @ pauli_sum_matrix(req.b_observable)
        )
        per_state = np.einsum("si,st,ti->i", vecs.conj(), sandwich, vecs)
        return complex(np.sum(per_state * weights))
    a_op = _weight_operator(req)
    per_state = np.real(np.einsum("si,st,ti->i", vecs.conj(), a_op.astype(complex), vecs))
    return complex(np.sum(per_state * weights))


def _sketch_oracle_values(req: SketchRequest, sketch) -> list[complex]:
    if req.interval is not None:
        return [_windowed_oracle(req, sketch.window_meta)]
    alpha = req.hamiltonian.scale()
    if req.kind == RESPONSE:
        rho = reduced_density(req.state)
        return [
            oracle_response(
                req.hamiltonian, req.b_observable, req.c_observable, rho, moment=n, alpha=alpha
            )
            for n in sketch.chebyshev_orders
        ]
    moments = oracle_moments(req.hamiltonian, alpha, req.num_moments, _weight_operator(req))
    return [complex(m) for m in moments]


def _sketch_csv(req: SketchRequest, sketch, emit_oracle: bool) -> str:
    complex_oracle = req.kind == RESPONSE
    header = "n,value_re,value_im,queries"
    if emit_oracle:
        header += ",oracle_re,oracle_im" if complex_oracle else ",oracle"
    lines = [header]
    oracle_vals = _sketch_oracle_values(req, sketch) if emit_oracle else None
    for i, (order, res) in enumerate(zip(sketch.chebyshev_orders, sketch.values)):
        row = f"{order},{_fmt(res.value.real)},{_fmt(res.value.imag)},{res.grover_queries}"
        if emit_oracle:
            o = oracle_vals[i]
            row += f",{_fmt(o.real)},{_fmt(o.imag)}" if complex_oracle else f",{_fmt(o.real)}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def _degree_advice(req: SketchRequest) -> str:
    """Error text for an integral sketch whose eps trips the window degree
    guard: the smallest --eps that passes, or --allow-large-degree."""
    eps = min_window_eps(req)
    head = f"--eps {_fmt(req.eps)} needs a window polynomial above the degree limit; "
    if eps >= 1.0:
        return head + "no --eps below 1 passes it, so pass --allow-large-degree"
    shown = f"{eps:.6g}"
    if float(shown) < eps:
        shown = repr(eps)
    return head + f"pass --eps {shown} or larger, or --allow-large-degree"


def _cmd_sketch(config: RunConfig) -> int:
    h = _load_hamiltonian(config)
    req = _build_sketch_request(config, h)
    try:
        sketch = (
            response_sketch(req, config.mode, config.seed)
            if config.kind == RESPONSE
            else dos_sketch(req, config.mode, config.seed)
        )
    except DegreeTooLargeError:
        raise ValidationError(_degree_advice(req)) from None
    _write_output(_sketch_csv(req, sketch, config.emit_oracle), config.output)
    return 0


def _cmd_correlate(config: RunConfig) -> int:
    h = _load_hamiltonian(config)
    if not config.observables:
        raise ValidationError("correlate requires at least one --observable PATH TIME")
    observables = tuple(
        (parse_pauli_file(path), float(t)) for path, t in config.observables
    )
    if config.state_path is None:
        raise ValidationError("correlate requires a --state file")
    state = parse_state_file(config.state_path, h.dim, h)
    spec = CorrelationSpec(h, observables, state, config.eps, config.delta)
    result = correlate(spec, config.mode, config.seed)
    payload = result.to_json_dict()
    if config.emit_oracle:
        oracle = oracle_correlation(h, observables, reduced_density(state))
        payload["oracle_re"] = oracle.real
        payload["oracle_im"] = oracle.imag
    _write_output(json.dumps(_round12(payload), indent=2, sort_keys=True) + "\n", config.output)
    return 0


def _cmd_kpm(config: RunConfig) -> int:
    h = _load_hamiltonian(config)
    req = _build_sketch_request(config, h)
    grid = np.linspace(-0.99, 0.99, config.grid_points)
    _sketch, reconstruction = kpm_sketch(req, grid, config.mode, config.seed)
    lines = ["x,f_kpm"]
    lines += [f"{_fmt(x)},{_fmt(f)}" for x, f in zip(grid, reconstruction)]
    _write_output("\n".join(lines) + "\n", config.output)
    return 0


def _cmd_window(config: RunConfig) -> int:
    a_bar, b_bar = config.window_bounds
    try:
        w = window_poly(a_bar, b_bar, config.eta, allow_large_degree=config.allow_large_degree)
    except DegreeTooLargeError:
        raise ValidationError(
            f"--eta {_fmt(config.eta)} needs a window polynomial above the degree limit; "
            f"pass --eta {MIN_ETA_REL} or larger, or --allow-large-degree"
        ) from None
    summary = (
        f"a_bar={_fmt(a_bar)} b_bar={_fmt(b_bar)} eta={_fmt(config.eta)}\n"
        f"kappa={_fmt(w.kappa)} n={w.jackson_degree} k={w.amplifier_order} "
        f"d={w.degree} tau={_fmt(w.tau)}\n"
        f"grid_max_violation={_fmt(w.cert_max_violation)}\n"
    )
    sys.stdout.write(summary)
    if config.output is not None:
        lines = [
            f"# a_bar={_fmt(a_bar)} b_bar={_fmt(b_bar)} eta={_fmt(config.eta)} "
            f"n={w.jackson_degree} k={w.amplifier_order} tau={_fmt(w.tau)} d={w.degree}",
            "k,coeff",
        ]
        lines += [f"{i},{_fmt(c)}" for i, c in enumerate(w.poly.coeffs)]
        _write_output("\n".join(lines) + "\n", config.output)
    return 0


def _cmd_cost(config: RunConfig) -> int:
    h = _load_hamiltonian(config)
    if config.kind == "correlation":
        if not config.observables or config.state_path is None:
            raise ValidationError("correlation cost requires --observable and --state")
        observables = tuple(
            (parse_pauli_file(path), float(t)) for path, t in config.observables
        )
        state = parse_state_file(config.state_path, h.dim, h)
        report = complexity_report(
            CorrelationSpec(h, observables, state, config.eps, config.delta)
        )
    else:
        report = complexity_report(_build_sketch_request(config, h))
    _write_output(json.dumps(_round12(report), indent=2, sort_keys=True) + "\n", config.output)
    return 0


def _add_common(parser: argparse.ArgumentParser, needs_mode: bool = True):
    parser.add_argument("--hamiltonian", required=True, help="Pauli text file for H")
    parser.add_argument("--eps", type=float, default=0.05, help="target precision in (0, 1)")
    parser.add_argument("--delta", type=float, default=0.05, help="failure probability in (0, 1)")
    if needs_mode:
        parser.add_argument("--mode", choices=["exact", "sampled"], default="exact")
        parser.add_argument(
            "--seed",
            type=int,
            default=None,
            help=f"RNG seed for sampled mode (default: ${SEED_ENV_VAR})",
        )
    parser.add_argument("--output", default=None, help="output path (default: stdout)")


def _add_sketch_mode(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--moments", type=int, default=None, metavar="N")
    group.add_argument("--integral", type=float, nargs=2, default=None, metavar=("A", "B"))
    parser.add_argument("--rho-max", type=float, default=1.0)
    parser.add_argument("--allow-large-degree", action="store_true")
    parser.add_argument("--oracle", action="store_true", help="emit exact oracle columns")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocksketch",
        description="Block-encoding based estimation of correlation functions, "
        "density of states, and linear response, simulated densely at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("correlate", help="n-time correlation function")
    _add_common(p)
    p.add_argument(
        "--observable",
        action="append",
        nargs=2,
        metavar=("PATH", "TIME"),
        required=True,
        help="observable file and its Heisenberg time; repeatable, in order",
    )
    p.add_argument("--state", required=True, help="state directive file")
    p.add_argument("--oracle", action="store_true")

    for name, help_text in ((DOS, "density of states"), (LDOS, "local density of states")):
        p = sub.add_parser(name, help=f"sketch the {help_text}")
        _add_common(p)
        _add_sketch_mode(p)
        if name == LDOS:
            p.add_argument("--state", required=True, help="pure/basis site-state file")

    p = sub.add_parser("response", help="dynamical response sketch")
    _add_common(p)
    _add_sketch_mode(p)
    p.add_argument("--observable-b", required=True)
    p.add_argument("--observable-c", required=True)
    p.add_argument("--state", required=True)

    p = sub.add_parser("kpm", help="moments plus kernel-polynomial reconstruction")
    _add_common(p)
    p.add_argument("--kind", choices=[DOS, LDOS, RESPONSE], default=DOS)
    p.add_argument("--moments", type=int, required=True, metavar="N")
    p.add_argument("--grid-points", type=int, default=201)
    p.add_argument("--rho-max", type=float, default=1.0)
    p.add_argument("--state", default=None)
    p.add_argument("--observable-b", default=None)
    p.add_argument("--observable-c", default=None)

    p = sub.add_parser("window-poly", help="build and certify a window polynomial")
    p.add_argument("--a", type=float, required=True, dest="a_bar")
    p.add_argument("--b", type=float, required=True, dest="b_bar")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--allow-large-degree", action="store_true")
    p.add_argument("--output", default=None)

    p = sub.add_parser("cost", help="complexity report (unit constants)")
    _add_common(p, needs_mode=False)
    p.add_argument(
        "--kind",
        required=True,
        choices=[
            "correlation",
            "dos-integral",
            "dos-moments",
            "ldos-integral",
            "ldos-moments",
            "response-integral",
            "response-moments",
        ],
    )
    p.add_argument("--observable", action="append", nargs=2, metavar=("PATH", "TIME"))
    p.add_argument("--observable-b", default=None)
    p.add_argument("--observable-c", default=None)
    p.add_argument("--state", default=None)
    p.add_argument("--moments", type=int, default=None)
    p.add_argument("--integral", type=float, nargs=2, default=None)
    p.add_argument("--rho-max", type=float, default=1.0)

    return parser


def _default_seed() -> int | None:
    raw = os.environ.get(SEED_ENV_VAR)
    return int(raw) if raw else None


def config_from_args(args: argparse.Namespace) -> RunConfig:
    command = args.command
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = _default_seed()
    interval = getattr(args, "integral", None)
    if command in (DOS, LDOS, RESPONSE):
        kind = command
    elif command in ("kpm", "cost"):
        kind = args.kind
    else:
        kind = DOS
    if command == "cost" and kind != "correlation":
        kind, mode_name = kind.rsplit("-", 1)
        if mode_name == "integral" and interval is None:
            raise ValidationError("cost --kind *-integral requires --integral A B")
        if mode_name == "moments" and getattr(args, "moments", None) is None:
            raise ValidationError("cost --kind *-moments requires --moments N")
    return RunConfig(
        command=command,
        hamiltonian_path=getattr(args, "hamiltonian", None),
        observables=tuple(tuple(o) for o in (getattr(args, "observable", None) or ())),
        state_path=getattr(args, "state", None),
        b_path=getattr(args, "observable_b", None),
        c_path=getattr(args, "observable_c", None),
        kind=kind,
        eps=getattr(args, "eps", 0.05),
        delta=getattr(args, "delta", 0.05),
        mode=getattr(args, "mode", "exact"),
        seed=seed,
        rho_max=getattr(args, "rho_max", 1.0),
        num_moments=getattr(args, "moments", None),
        interval=tuple(interval) if interval is not None else None,
        eta=getattr(args, "eta", None),
        window_bounds=(args.a_bar, args.b_bar) if command == "window-poly" else None,
        grid_points=getattr(args, "grid_points", 201),
        allow_large_degree=getattr(args, "allow_large_degree", False),
        emit_oracle=getattr(args, "oracle", False),
        output=getattr(args, "output", None),
    )


def run(config: RunConfig) -> int:
    """Dispatch a validated config; returns the process exit code."""
    if config.command not in ("window-poly",):
        _validate_common(config)
    if config.command == "correlate":
        return _cmd_correlate(config)
    if config.command in (DOS, LDOS, RESPONSE):
        return _cmd_sketch(config)
    if config.command == "kpm":
        return _cmd_kpm(config)
    if config.command == "window-poly":
        return _cmd_window(config)
    if config.command == "cost":
        return _cmd_cost(config)
    raise ValidationError(f"unknown command {config.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(config_from_args(args))
    except BlockSketchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
