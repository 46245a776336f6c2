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

import numpy as np

from .algorithms import (
    DOS,
    LDOS,
    RESPONSE,
    CorrelationSpec,
    SketchRequest,
    complexity_report,
    correlate,
    kpm_sketch,
    min_window_eps,
    spectral_sketch,
)
from .chebyshev import MIN_ETA_REL, window_poly
from .errors import BlockSketchError, DegreeTooLargeError, ValidationError
from .oracle import oracle_correlation, oracle_sketch
from .pauli import PauliSum, parse_pauli_file
from .state_prep import parse_state_file, reduced_density

MAX_QUBITS = 6
MAX_MOMENTS = 4096
SEED_ENV_VAR = "BLOCKSKETCH_SEED"


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


def _load_hamiltonian(args: argparse.Namespace) -> PauliSum:
    h = parse_pauli_file(args.hamiltonian)
    if h.qubits > MAX_QUBITS:
        raise ValidationError(
            f"{h.qubits} qubits exceeds the {MAX_QUBITS}-qubit limit for dense simulation"
        )
    return h


def _validate_common(args: argparse.Namespace):
    if not 0.0 < args.eps < 1.0:
        raise ValidationError(f"eps must be in (0, 1), got {args.eps}")
    if not 0.0 < args.delta < 1.0:
        raise ValidationError(f"delta must be in (0, 1), got {args.delta}")
    if args.moments is not None and args.moments > MAX_MOMENTS:
        raise ValidationError(f"moment count {args.moments} exceeds {MAX_MOMENTS}")


def _build_sketch_request(args: argparse.Namespace, h: PauliSum) -> SketchRequest:
    kwargs: dict = {}
    if args.kind == LDOS:
        if args.state is None:
            raise ValidationError("ldos requires a --state file")
        prep = parse_state_file(args.state, h.dim, h)
        if prep.purifier_dim != 1:
            raise ValidationError("ldos requires a pure site state (pure or basis directive)")
        kwargs["site_state"] = prep.purification
    if args.kind == RESPONSE:
        if args.observable_b is None or args.observable_c is None or args.state is None:
            raise ValidationError("response requires --observable-b, --observable-c, --state")
        kwargs["b_observable"] = parse_pauli_file(args.observable_b)
        kwargs["c_observable"] = parse_pauli_file(args.observable_c)
        kwargs["state"] = parse_state_file(args.state, h.dim, h)
    return SketchRequest(
        hamiltonian=h,
        kind=args.kind,
        eps=args.eps,
        delta=args.delta,
        rho_max=args.rho_max,
        interval=args.integral,
        num_moments=args.moments,
        allow_large_degree=args.allow_large_degree,
        **kwargs,
    )


def _correlation_spec(args: argparse.Namespace, h: PauliSum) -> CorrelationSpec:
    observables = []
    for path, t in args.observable:
        try:
            time = float(t)
        except ValueError:
            raise ValidationError(f"--observable {path}: time {t!r} is not a number") from None
        observables.append((parse_pauli_file(path), time))
    state = parse_state_file(args.state, h.dim, h)
    return CorrelationSpec(h, observables, state, args.eps, args.delta)


def _sketch_csv(req: SketchRequest, sketch, emit_oracle: bool) -> str:
    complex_oracle = req.kind == RESPONSE
    header = "n,value_re,value_im,queries"
    if emit_oracle:
        header += ",oracle_re,oracle_im" if complex_oracle else ",oracle"
    lines = [header]
    oracle_vals = oracle_sketch(req, sketch.window_meta) if emit_oracle else None
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


def _cmd_sketch(args: argparse.Namespace) -> int:
    req = _build_sketch_request(args, _load_hamiltonian(args))
    try:
        sketch = spectral_sketch(req, args.mode, args.seed)
    except DegreeTooLargeError:
        raise ValidationError(_degree_advice(req)) from None
    _write_output(_sketch_csv(req, sketch, args.oracle), args.output)
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    spec = _correlation_spec(args, _load_hamiltonian(args))
    payload = correlate(spec, args.mode, args.seed).to_json_dict()
    if args.oracle:
        oracle = oracle_correlation(spec.hamiltonian, spec.observables, reduced_density(spec.state))
        payload["oracle_re"] = oracle.real
        payload["oracle_im"] = oracle.imag
    _write_output(json.dumps(_round12(payload), indent=2, sort_keys=True) + "\n", args.output)
    return 0


def _cmd_kpm(args: argparse.Namespace) -> int:
    if args.grid_points < 1:
        raise ValidationError(f"--grid-points must be at least 1, got {args.grid_points}")
    req = _build_sketch_request(args, _load_hamiltonian(args))
    grid = np.linspace(-0.99, 0.99, args.grid_points)
    _sketch, reconstruction = kpm_sketch(req, grid, args.mode, args.seed)
    lines = ["x,f_kpm"]
    lines += [f"{_fmt(x)},{_fmt(f)}" for x, f in zip(grid, reconstruction)]
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_window(args: argparse.Namespace) -> int:
    a_bar, b_bar, eta = args.a_bar, args.b_bar, args.eta
    try:
        w = window_poly(a_bar, b_bar, eta, allow_large_degree=args.allow_large_degree)
    except DegreeTooLargeError:
        raise ValidationError(
            f"--eta {_fmt(eta)} needs a window polynomial above the degree limit; "
            f"pass --eta {MIN_ETA_REL} or larger, or --allow-large-degree"
        ) from None
    summary = (
        f"a_bar={_fmt(a_bar)} b_bar={_fmt(b_bar)} eta={_fmt(eta)}\n"
        f"kappa={_fmt(w.kappa)} n={w.jackson_degree} k={w.amplifier_order} "
        f"d={w.degree} tau={_fmt(w.tau)}\n"
        f"grid_max_violation={_fmt(w.cert_max_violation)}\n"
    )
    sys.stdout.write(summary)
    if args.output is not None:
        lines = [
            f"# a_bar={_fmt(a_bar)} b_bar={_fmt(b_bar)} eta={_fmt(eta)} "
            f"n={w.jackson_degree} k={w.amplifier_order} tau={_fmt(w.tau)} d={w.degree}",
            "k,coeff",
        ]
        lines += [f"{i},{_fmt(c)}" for i, c in enumerate(w.poly.coeffs)]
        _write_output("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    h = _load_hamiltonian(args)
    if args.kind == "correlation":
        if not args.observable or args.state is None:
            raise ValidationError("correlation cost requires --observable and --state")
        report = complexity_report(_correlation_spec(args, h))
    else:
        report = complexity_report(_build_sketch_request(args, h))
    _write_output(json.dumps(_round12(report), indent=2, sort_keys=True) + "\n", args.output)
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
    p.set_defaults(run=_cmd_correlate)
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
        p.set_defaults(run=_cmd_sketch)
        _add_common(p)
        _add_sketch_mode(p)
        if name == LDOS:
            p.add_argument("--state", required=True, help="pure/basis site-state file")

    p = sub.add_parser("response", help="dynamical response sketch")
    p.set_defaults(run=_cmd_sketch)
    _add_common(p)
    _add_sketch_mode(p)
    p.add_argument("--observable-b", required=True)
    p.add_argument("--observable-c", required=True)
    p.add_argument("--state", required=True)

    p = sub.add_parser("kpm", help="moments plus kernel-polynomial reconstruction")
    p.set_defaults(run=_cmd_kpm)
    _add_common(p)
    p.add_argument("--kind", choices=[DOS, LDOS, RESPONSE], default=DOS)
    p.add_argument("--moments", type=int, required=True, metavar="N")
    p.add_argument("--grid-points", type=int, default=201)
    p.add_argument("--rho-max", type=float, default=1.0)
    p.add_argument("--state", default=None)
    p.add_argument("--observable-b", default=None)
    p.add_argument("--observable-c", default=None)

    p = sub.add_parser("window-poly", help="build and certify a window polynomial")
    p.set_defaults(run=_cmd_window)
    p.add_argument("--a", type=float, required=True, dest="a_bar")
    p.add_argument("--b", type=float, required=True, dest="b_bar")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--allow-large-degree", action="store_true")
    p.add_argument("--output", default=None)

    p = sub.add_parser("cost", help="complexity report (unit constants)")
    p.set_defaults(run=_cmd_cost)
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


# Values of the arguments read by shared set-up code that some subcommands
# do not define.
_ABSENT = {"seed": None, "moments": None, "integral": None, "allow_large_degree": False}


def _normalize(args: argparse.Namespace) -> None:
    """Derive the sketch kind, the $BLOCKSKETCH_SEED default and the
    tuple-valued arguments of a parsed command line."""
    if args.command in (DOS, LDOS, RESPONSE):
        args.kind = args.command
    elif args.command == "cost" and args.kind != "correlation":
        args.kind, mode_name = args.kind.rsplit("-", 1)
        if mode_name == "integral" and args.integral is None:
            raise ValidationError("cost --kind *-integral requires --integral A B")
        if mode_name == "moments" and args.moments is None:
            raise ValidationError("cost --kind *-moments requires --moments N")
    if args.seed is None:
        raw = os.environ.get(SEED_ENV_VAR)
        try:
            args.seed = int(raw) if raw else None
        except ValueError:
            raise ValidationError(f"${SEED_ENV_VAR}={raw!r} is not an integer") from None
    if args.integral is not None:
        args.integral = tuple(args.integral)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv, argparse.Namespace(**_ABSENT))
    try:
        _normalize(args)
        if args.command != "window-poly":
            _validate_common(args)
        return args.run(args)
    except BlockSketchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
