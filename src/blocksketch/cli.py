"""Command-line front end.

Subcommands: correlate, dos, ldos, response, kpm {dos,ldos,response},
window-poly and cost {correlate,dos,ldos,response}. The kind of a kpm or
cost command is its sub-command, and it takes the input flags of the
top-level command of the same name: each is required, and a flag for an
input the kind never reads is refused by argparse (exit 2).

Inputs are the Pauli text format and the state directive format; outputs
are JSON (correlate, cost) or CSV (sketches, kpm, window coefficients)
with numbers serialized to 12 significant digits so identical configs and
seeds produce byte-identical files.

For integral sketches the optional oracle column reports the exact
spectral value of the windowed estimand (the quantity being estimated);
moment and correlation oracle columns are the sharp spectral sums.

`main` builds the parser on its first call and reuses it on every later
call in the process: argparse keeps no state between `parse_args` calls,
and building the tree of subcommand parsers costs more than a small
moments sketch.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys

import numpy as np

from .algorithms import (
    DOS,
    LDOS,
    RESPONSE,
    CorrelationSpec,
    SketchRequest,
    _budget,
    complexity_report,
    correlate,
    min_window_eps,
    spectral_sketch,
)
from .chebyshev import (
    MAX_WINDOW_DEGREE,
    kpm_reconstruct,
    min_window_eta,
    window_parameters,
    window_poly,
)
from .errors import BlockSketchError, DegreeTooLargeError, ValidationError
from .oracle import oracle_correlation, oracle_sketch
from .pauli import PauliSum, parse_pauli_file
from .state_prep import parse_state_file, reduced_density

MAX_QUBITS = 6
MAX_MOMENTS = 4096
# kpm holds the grid, each reconstructed column and the Clenshaw
# recurrence's temporaries, about ten float64 arrays of the grid's length:
# 2^20 points keep each at 8 MiB, under 100 MiB in all.
MAX_GRID_POINTS = 2**20
_CSV_CHUNK_ROWS = 4096


def _fmt(x) -> str:
    """A Python int exactly, any other number to 12 significant digits."""
    return str(x) if isinstance(x, int) else f"{float(x):.12g}"


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _write_output(chunks, path: str | None):
    """Write the text chunks in order to path (default stdout).

    Raises:
        BlockSketchError: naming the path, if it cannot be written.
    """
    if path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise BlockSketchError(f"cannot write {path}: {exc.strerror or exc}") from None


def _json_chunk(payload: dict) -> str:
    """The payload as indented JSON with 12-significant-digit floats; a
    non-finite number raises rather than print non-standard JSON."""
    return json.dumps(_round12(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_chunks(head: str, rows):
    """The head line(s), then each row of numbers as a line of comma-separated
    `_fmt` values, formatted _CSV_CHUNK_ROWS rows per chunk so that a long
    table is never one string."""
    yield head + "\n"
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, _CSV_CHUNK_ROWS)):
        yield "".join(",".join(map(_fmt, row)) + "\n" for row in chunk)


def _load_hamiltonian(args: argparse.Namespace) -> PauliSum:
    h = parse_pauli_file(args.hamiltonian)
    if h.qubits > MAX_QUBITS:
        raise ValidationError(
            f"{h.qubits} qubits exceeds the {MAX_QUBITS}-qubit limit for dense simulation"
        )
    return h


def _build_sketch_request(args: argparse.Namespace, h: PauliSum) -> SketchRequest:
    # The parser declares the inputs each kind reads. `--rho-max` defaults
    # to None, so that moments mode, which never reads it, can refuse it
    # here; an integral sketch without it takes SketchRequest's 1.0.
    if args.moments is not None and args.rho_max is not None:
        raise ValidationError(f"{args.kind} --moments does not read --rho-max")
    kwargs: dict = {}
    if args.kind == RESPONSE:
        kwargs["b_observable"] = parse_pauli_file(args.observable_b)
        kwargs["c_observable"] = parse_pauli_file(args.observable_c)
    if args.kind != DOS:
        kwargs["state"] = parse_state_file(args.state, h.dim, h)
    if args.rho_max is not None:
        kwargs["rho_max"] = args.rho_max
    return SketchRequest(
        hamiltonian=h,
        kind=args.kind,
        eps=args.eps,
        delta=args.delta,
        interval=None if args.integral is None else tuple(args.integral),
        num_moments=args.moments,
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


def _sketch_rows(req: SketchRequest, sketch, emit_oracle: bool):
    """The header and rows of a sketch table, with the oracle column(s)
    (complex for response) if asked for."""
    header = "n,value_re,value_im,queries"
    rows = [
        (n, r.value.real, r.value.imag, r.grover_queries)
        for n, r in zip(sketch.chebyshev_orders, sketch.values)
    ]
    if not emit_oracle:
        return header, rows
    oracle = oracle_sketch(req, sketch.window_meta)
    if req.kind == RESPONSE:
        return header + ",oracle_re,oracle_im", [r + (o.real, o.imag) for r, o in zip(rows, oracle)]
    return header + ",oracle", [r + (o.real,) for r, o in zip(rows, oracle)]


def _degree_refusal(option: str, value: float, eta: float, floor: float) -> str:
    """Error text for a window of share eta whose degree passes
    MAX_WINDOW_DEGREE. option and value name the input to change (--eps or
    --eta) and floor the smallest value of it whose window fits, which is
    shown rounded up to 6 significant digits, so that the text passes."""
    digits, exp = f"{floor:.5e}".split("e")
    if float(f"{digits}e{exp}") < floor:
        digits = f"{float(digits) + 1e-5:.5f}"
    shown = float(f"{digits}e{exp}")
    head = (
        f"{option} {_fmt(value)} needs a window polynomial of degree "
        f"{window_parameters(eta)[3]}, above the ceiling {MAX_WINDOW_DEGREE}; "
    )
    if shown < 1.0:
        return head + f"pass {option} {shown:.6g} or larger"
    return head + f"no {option} below 1 fits, so lower --rho-max"


def _cmd_sketch(args: argparse.Namespace) -> int:
    req = _build_sketch_request(args, _load_hamiltonian(args))
    try:
        sketch = spectral_sketch(req, args.mode, args.seed)
    except DegreeTooLargeError:
        eta = _budget(req).window_eta
        raise ValidationError(_degree_refusal("--eps", req.eps, eta, min_window_eps(req))) from None
    _write_output(_csv_chunks(*_sketch_rows(req, sketch, args.oracle)), args.output)
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    spec = _correlation_spec(args, _load_hamiltonian(args))
    payload = correlate(spec, args.mode, args.seed).to_json_dict()
    if args.oracle:
        oracle = oracle_correlation(spec.hamiltonian, spec.observables, reduced_density(spec.state))
        payload["oracle_re"] = oracle.real
        payload["oracle_im"] = oracle.imag
    _write_output([_json_chunk(payload)], args.output)
    return 0


def _cmd_kpm(args: argparse.Namespace) -> int:
    if args.grid_points < 1:
        raise ValidationError(f"--grid-points must be at least 1, got {args.grid_points}")
    if args.grid_points > MAX_GRID_POINTS:
        raise ValidationError(f"--grid-points {args.grid_points} exceeds {MAX_GRID_POINTS}")
    req = _build_sketch_request(args, _load_hamiltonian(args))
    grid = np.linspace(-0.99, 0.99, args.grid_points)
    moments = [res.value for res in spectral_sketch(req, args.mode, args.seed).values]
    header, columns = "x,f_kpm", [grid, kpm_reconstruct([m.real for m in moments], grid)]
    if req.kind == RESPONSE:
        # Response moments are complex: reconstruct their imaginary parts too.
        header += ",f_kpm_im"
        columns.append(kpm_reconstruct([m.imag for m in moments], grid))
    _write_output(_csv_chunks(header, zip(*columns)), args.output)
    return 0


def _cmd_window(args: argparse.Namespace) -> int:
    a_bar, b_bar, eta = args.a_bar, args.b_bar, args.eta
    try:
        w = window_poly(a_bar, b_bar, eta)
    except DegreeTooLargeError:
        raise ValidationError(_degree_refusal("--eta", eta, eta, min_window_eta())) from None
    inputs = f"a_bar={_fmt(a_bar)} b_bar={_fmt(b_bar)} eta={_fmt(eta)}"
    window = f"kappa={_fmt(w.kappa)} tau={_fmt(w.tau)} s={_fmt(w.steepness)} d={w.degree}"
    proof = f"fit_error={_fmt(w.fit_error)}"
    sys.stdout.write(f"{inputs}\n{window}\n{proof}\n")
    if args.output is not None:
        head = f"# {inputs} {window} {proof}\nk,coeff"
        _write_output(_csv_chunks(head, enumerate(w.poly.coeffs)), args.output)
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    h = _load_hamiltonian(args)
    build = _correlation_spec if args.kind == "correlate" else _build_sketch_request
    report = complexity_report(build(args, h))
    _write_output([_json_chunk(report)], args.output)
    return 0


_DELTA_HELP = "failure probability in (0, 1)"
# correlate and response estimate a complex value part by part.
_PER_PART_DELTA_HELP = _DELTA_HELP + (
    ", per part: the real and the imaginary part are each within eps with probability "
    ">= 1 - delta, both together with >= 1 - 2 delta"
)
_KIND_HELP = {
    "correlate": "n-time correlation function",
    DOS: "density of states",
    LDOS: "local density of states",
    RESPONSE: "dynamical response",
}


def _add_kind(sub, kind: str, run, help_prefix: str = "", estimates: bool = True):
    """The parser of one kind (correlate, dos, ldos or response) under sub.

    It reads H, eps, delta and the output path, the mode and seed if the
    command estimates, and, as required flags, the inputs that the kind
    reads: so argparse requires each of them and refuses, by name, a flag
    for an input that the kind never reads."""
    p = sub.add_parser(kind, help=help_prefix + _KIND_HELP[kind])
    p.set_defaults(run=run, kind=kind)
    delta_help = _PER_PART_DELTA_HELP if kind in ("correlate", RESPONSE) else _DELTA_HELP
    p.add_argument("--hamiltonian", required=True, help="Pauli text file for H")
    p.add_argument("--eps", type=float, default=0.05, help="target precision in (0, 1)")
    p.add_argument("--delta", type=float, default=0.05, help=delta_help)
    if estimates:
        p.add_argument("--mode", choices=["exact", "sampled"], default="exact")
        seed_help = "RNG seed for sampled mode (default: none, a fresh draw per run)"
        p.add_argument("--seed", type=int, default=None, help=seed_help)
    p.add_argument("--output", default=None, help="output path (default: stdout)")
    if kind == "correlate":
        p.add_argument(
            "--observable",
            action="append",
            nargs=2,
            metavar=("PATH", "TIME"),
            required=True,
            help="observable file and its Heisenberg time; repeatable, in order",
        )
    if kind == RESPONSE:
        p.add_argument("--observable-b", required=True, help="Pauli text file for B")
        p.add_argument("--observable-c", required=True, help="Pauli text file for C")
    if kind != DOS:
        p.add_argument("--state", required=True, help="state directive file")
    return p


def _add_sketch_mode(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--moments", type=int, default=None, metavar="N")
    group.add_argument("--integral", type=float, nargs=2, default=None, metavar=("A", "B"))
    parser.add_argument("--rho-max", type=float, default=None, help="integral mode only (default 1)")


def _add_oracle(parser: argparse.ArgumentParser):
    parser.add_argument("--oracle", action="store_true", help="emit exact oracle columns")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number in exponent notation
    (-1e3, -1.5e-2) as a value, as argparse already reads -1000 and -0.3,
    rather than as an unknown option. argparse has no public hook for the
    pattern it reads, so this sets its attribute; subparsers inherit the
    class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the blocksketch command line."""
    parser = _Parser(
        prog="blocksketch",
        description="Block-encoding based estimation of correlation functions, "
        "density of states, and linear response, simulated densely at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_oracle(_add_kind(sub, "correlate", _cmd_correlate))
    for kind in (DOS, LDOS, RESPONSE):
        p = _add_kind(sub, kind, _cmd_sketch, "sketch the ")
        _add_sketch_mode(p)
        _add_oracle(p)

    kinds = sub.add_parser(
        "kpm",
        help="moments plus kernel-polynomial reconstruction",
        description="Chebyshev moments of KIND, reconstructed by the kernel polynomial "
        "method on a grid in [-0.99, 0.99]. KIND takes the input flags of the top-level "
        "command of the same name, in moments mode.",
    ).add_subparsers(metavar="KIND", required=True)
    for kind in (DOS, LDOS, RESPONSE):
        p = _add_kind(kinds, kind, _cmd_kpm, "reconstruct the ")
        p.add_argument("--moments", type=int, required=True, metavar="N")
        p.add_argument("--grid-points", type=int, default=201)

    p = sub.add_parser("window-poly", help="build and prove a window polynomial")
    p.set_defaults(run=_cmd_window)
    p.add_argument("--a", type=float, required=True, dest="a_bar")
    p.add_argument("--b", type=float, required=True, dest="b_bar")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--output", default=None)

    kinds = sub.add_parser(
        "cost",
        help="complexity report (unit constants)",
        description="The query and gate counts of a KIND run, with unit constants, as "
        "JSON. KIND takes the input flags of the top-level command of the same name, "
        "without --mode, --seed and --oracle.",
    ).add_subparsers(metavar="KIND", required=True)
    _add_kind(kinds, "correlate", _cmd_cost, "cost of the ", estimates=False)
    for kind in (DOS, LDOS, RESPONSE):
        p = _add_kind(kinds, kind, _cmd_cost, "cost of sketching the ", estimates=False)
        _add_sketch_mode(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reads, built by `build_parser` on the first call."""
    return build_parser()


# Values of the arguments read by shared set-up code that some commands do
# not define.
_ABSENT = dict(moments=None, integral=None, rho_max=None)


def main(argv=None) -> int:
    """Run one command line (default sys.argv[1:]) and return its exit code.

    The parser is built on the first call and reused by every later call
    in the process; each call parses into a fresh namespace."""
    args = _parser().parse_args(argv, argparse.Namespace(**_ABSENT))
    try:
        if args.moments is not None and args.moments > MAX_MOMENTS:
            raise ValidationError(f"moment count {args.moments} exceeds {MAX_MOMENTS}")
        return args.run(args)
    except BlockSketchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
