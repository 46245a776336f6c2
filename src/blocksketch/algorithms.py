"""The four estimation pipelines built on block encodings.

Heisenberg-picture correlation functions, density-of-states and local
density-of-states sketches (interval integrals and Chebyshev moments),
response-function sketches, the end-to-end kernel-polynomial pipeline, and
complexity reports evaluating the cost formulas with unit constants.

Moment jobs for different orders are independent; run them concurrently
with distinct seeds and merge by index if needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .block_encoding import BlockEncoding, encode_pauli_sum, product
from .chebyshev import MIN_ETA_REL, WindowPoly, kpm_reconstruct, window_parameters, window_poly
from .errors import BadIntervalError, EmptySumError, OutOfRangeError, ValidationError
from .estimation import EstimationResult, estimate_complex, estimate_observable
from .pauli import PauliSum
from .spectral import apply_polynomial, chebyshev_encoding, evolution_cost, evolution_encoding
from .state_prep import PreparationUnitary, prepare_maximally_mixed, prepare_pure

DOS = "dos"
LDOS = "ldos"
RESPONSE = "response"


@dataclass(frozen=True)
class CorrelationSpec:
    """A Hamiltonian, a time-ordered list of observables, a state, and
    the target precision/confidence."""

    hamiltonian: PauliSum
    observables: tuple
    state: PreparationUnitary
    eps: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "observables", tuple(self.observables))
        if not self.observables:
            raise EmptySumError("at least one observable is required")
        for obs, _t in self.observables:
            if obs.qubits != self.hamiltonian.qubits:
                raise ValidationError("observable and Hamiltonian qubit counts differ")
        if not (0.0 < self.eps < 1.0 and 0.0 < self.delta < 1.0):
            raise OutOfRangeError("eps and delta must lie in (0, 1)")

    def time_differences(self) -> list[float]:
        """tau_j = t_{j+1} - t_j with the time list padded by zeros."""
        times = [0.0] + [float(t) for _, t in self.observables] + [0.0]
        return [times[j + 1] - times[j] for j in range(len(times) - 1)]


@dataclass(frozen=True)
class SketchRequest:
    """Inputs for a density-of-states or response sketch.

    rho_max bounds the normalized dimension of the largest eigenspace
    (1 is always valid; smaller values tighten the window degree).
    """

    hamiltonian: PauliSum
    kind: str
    eps: float
    delta: float
    rho_max: float = 1.0
    interval: tuple[float, float] | None = None
    num_moments: int | None = None
    site_state: np.ndarray | None = None
    b_observable: PauliSum | None = None
    c_observable: PauliSum | None = None
    state: PreparationUnitary | None = None
    allow_large_degree: bool = False

    def __post_init__(self):
        if self.kind not in (DOS, LDOS, RESPONSE):
            raise ValidationError(f"unknown sketch kind {self.kind!r}")
        if not (0.0 < self.eps < 1.0 and 0.0 < self.delta < 1.0):
            raise OutOfRangeError("eps and delta must lie in (0, 1)")
        if self.rho_max <= 0:
            raise OutOfRangeError("rho_max must be positive")
        if (self.interval is None) == (self.num_moments is None):
            raise ValidationError("pass exactly one of interval or num_moments")
        if self.num_moments is not None and self.num_moments < 0:
            raise OutOfRangeError("moment count must be nonnegative")
        if self.interval is not None:
            a, b = self.interval
            alpha = self.hamiltonian.scale()
            if not (-alpha < a < b < alpha):
                raise BadIntervalError(
                    f"interval [{a}, {b}] must satisfy -alpha < a < b < alpha with alpha={alpha}"
                )
        if self.kind == LDOS and self.site_state is None:
            raise ValidationError("ldos requires a site state vector")
        if self.kind == RESPONSE:
            if self.b_observable is None or self.c_observable is None or self.state is None:
                raise ValidationError("response requires B, C, and a state")


@dataclass(frozen=True)
class SketchResult:
    values: tuple
    chebyshev_orders: tuple
    cost_report: dict = field(repr=False)
    window_meta: WindowPoly | None = field(default=None, repr=False)


def _window_share(req: SketchRequest) -> float:
    """eps / eta_rel of an integral sketch: the window gets a third of the
    budget, relative to rho_max and, for response, to |B| |C|."""
    share = 3.0 * req.rho_max
    if req.kind == RESPONSE:
        share = share * req.b_observable.scale() * req.c_observable.scale()
    return share


def min_window_eps(req: SketchRequest) -> float:
    """The smallest eps whose integral window passes the degree guard of
    window_poly (eta_rel >= MIN_ETA_REL) without allow_large_degree."""
    share = _window_share(req)
    eps = MIN_ETA_REL * share
    while eps / share < MIN_ETA_REL:
        eps = math.nextafter(eps, math.inf)
    return eps


def _moment_seed(seed, stride: int, j: int):
    return None if seed is None else seed + stride * j


def correlate(spec: CorrelationSpec, mode: str = "exact", seed: int | None = None) -> EstimationResult:
    """Estimate Tr(rho O_1(t_1) ... O_n(t_n)).

    Rewrites the Heisenberg product through consecutive time differences,
    interleaves evolution encodings (each charged to eps / (2 (n+1)^2) to
    control the composed product error) with the observable encodings, and
    estimates the resulting non-Hermitian operator part by part at eps/2.
    """
    n = len(spec.observables)
    eps_evolution = spec.eps / (2.0 * (n + 1) ** 2)
    taus = spec.time_differences()

    factors: list[BlockEncoding] = [evolution_encoding(spec.hamiltonian, taus[0], eps_evolution)]
    for j, (obs, _t) in enumerate(spec.observables, start=1):
        factors.append(encode_pauli_sum(obs))
        factors.append(evolution_encoding(spec.hamiltonian, taus[j], eps_evolution))
    gamma_encoding = product(factors)
    return estimate_complex(gamma_encoding, spec.state, spec.eps / 2.0, spec.delta, mode, seed)


def _sketch_state(req: SketchRequest) -> PreparationUnitary:
    if req.kind == DOS:
        return prepare_maximally_mixed(req.hamiltonian.dim)
    if req.kind == LDOS:
        return prepare_pure(req.site_state)
    return req.state


def dos_sketch(req: SketchRequest, mode: str = "exact", seed: int | None = None) -> SketchResult:
    """Sketch the (local) density of states.

    Integral mode estimates Tr(rho w(H/alpha)) for the certified window
    over the rescaled interval, splitting the error budget evenly across
    window construction, polynomial application, and estimation. Moments
    mode estimates Tr(rho T_n(H/alpha)) for n = 0..N, seeding moment n
    with seed + n.
    """
    if req.kind not in (DOS, LDOS):
        raise ValidationError(f"dos_sketch cannot handle kind {req.kind!r}")
    h_enc = encode_pauli_sum(req.hamiltonian)
    alpha = h_enc.scale
    state = _sketch_state(req)
    report = complexity_report(req)

    if req.interval is not None:
        a, b = req.interval
        window = window_poly(
            a / alpha,
            b / alpha,
            req.eps / _window_share(req),
            allow_large_degree=req.allow_large_degree,
        )
        w_enc = apply_polynomial(h_enc, window.poly, delta=req.eps / 3.0)
        result = estimate_observable(w_enc, state, req.eps / 3.0, req.delta, mode, seed)
        return SketchResult((result,), (window.degree,), report, window)

    values = []
    orders = list(range(req.num_moments + 1))
    previous: tuple[BlockEncoding, ...] = ()
    for n in orders:
        enc_n = chebyshev_encoding(h_enc, n, previous)
        previous = (enc_n, *previous[:1])
        values.append(
            estimate_observable(enc_n, state, req.eps, req.delta, mode, _moment_seed(seed, 1, n))
        )
    return SketchResult(tuple(values), tuple(orders), report, None)


def response_sketch(req: SketchRequest, mode: str = "exact", seed: int | None = None) -> SketchResult:
    """Sketch the dynamical response <B f(H/alpha) C> against the supplied
    state (any ground-energy shift is the caller's).

    Integral mode builds B w(H/alpha) C with the window budget scaled by
    the observable norms; moments mode builds B T_n(H/alpha) C. Real and
    imaginary parts are estimated separately; moment n is seeded with
    seed + 2n.
    """
    if req.kind != RESPONSE:
        raise ValidationError(f"response_sketch cannot handle kind {req.kind!r}")
    h_enc = encode_pauli_sum(req.hamiltonian)
    alpha = h_enc.scale
    b_enc = encode_pauli_sum(req.b_observable)
    c_enc = encode_pauli_sum(req.c_observable)
    report = complexity_report(req)

    if req.interval is not None:
        a, b = req.interval
        eta_rel = req.eps / _window_share(req)
        window = window_poly(
            a / alpha, b / alpha, eta_rel, allow_large_degree=req.allow_large_degree
        )
        w_enc = apply_polynomial(h_enc, window.poly, delta=req.eps / 3.0)
        xi_enc = product([b_enc, w_enc, c_enc])
        result = estimate_complex(xi_enc, req.state, req.eps / 3.0, req.delta, mode, seed)
        return SketchResult((result,), (window.degree,), report, window)

    values = []
    orders = list(range(req.num_moments + 1))
    previous: tuple[BlockEncoding, ...] = ()
    for n in orders:
        t_n = chebyshev_encoding(h_enc, n, previous)
        previous = (t_n, *previous[:1])
        z_enc = product([b_enc, t_n, c_enc])
        values.append(
            estimate_complex(z_enc, req.state, req.eps, req.delta, mode, _moment_seed(seed, 2, n))
        )
    return SketchResult(tuple(values), tuple(orders), report, None)


def kpm_sketch(
    req: SketchRequest, grid, mode: str = "exact", seed: int | None = None
) -> tuple[SketchResult, np.ndarray]:
    """Moments plus kernel-polynomial reconstruction on the given grid."""
    if req.num_moments is None:
        raise ValidationError("kpm_sketch requires a moments-mode request")
    if req.kind == RESPONSE:
        sketch = response_sketch(req, mode, seed)
    else:
        sketch = dos_sketch(req, mode, seed)
    moments = np.array([v.value.real for v in sketch.values])
    return sketch, kpm_reconstruct(moments, np.asarray(grid, dtype=float))


def _correlation_report(spec: CorrelationSpec) -> dict:
    n = len(spec.observables)
    h = spec.hamiltonian
    eps0 = spec.eps / (2.0 * (n + 1) ** 2)
    taus = spec.time_differences()
    q, alpha = len(h.terms), h.scale()
    evolution = [evolution_cost(q, alpha, tau, eps0) for tau in taus]
    loose = [q * alpha * abs(tau) + q * math.log(1.0 / eps0) for tau in taus]
    observable_costs = [len(obs.terms) for obs, _t in spec.observables]
    gamma = float(np.prod([obs.scale() for obs, _t in spec.observables]))
    w = sum(observable_costs) + sum(evolution)
    total = (spec.state.cost + w) * gamma / spec.eps * math.log(1.0 / spec.delta)
    return {
        "kind": "correlation",
        "num_observables": n,
        "eps_evolution": eps0,
        "taus": taus,
        "evolution_costs": evolution,
        "evolution_costs_loose": loose,
        "observable_costs": observable_costs,
        "encoding_cost_W": w,
        "encoding_cost_W_loose": sum(observable_costs) + sum(loose),
        "gamma": gamma,
        "state_cost": spec.state.cost,
        "total_queries": total,
    }


def _sketch_report(req: SketchRequest) -> dict:
    h = req.hamiltonian
    q, alpha = len(h.terms), h.scale()
    log_delta = math.log(1.0 / req.delta)
    out: dict = {"kind": req.kind, "alpha": alpha, "encoding_cost_Q": q}

    if req.kind == RESPONSE:
        s_b = len(req.b_observable.terms)
        s_c = len(req.c_observable.terms)
        beta_gamma = req.b_observable.scale() * req.c_observable.scale()
        r = req.state.cost
        out.update({"S_B": s_b, "S_C": s_c, "state_cost": r, "beta_gamma": beta_gamma})
        if req.interval is not None:
            ratio = req.rho_max * beta_gamma / req.eps
            d_formula = ratio * math.log(ratio)
            kappa, n_jack, k_amp, tau = window_parameters(
                req.eps / (3.0 * req.rho_max * beta_gamma)
            )
            out.update(
                {
                    "mode": "integral",
                    "degree_formula": d_formula,
                    "window": {"kappa": kappa, "n": n_jack, "k": k_amp, "tau": tau, "d": n_jack * k_amp},
                    "total_queries": (q * d_formula + s_b + s_c + r)
                    * beta_gamma
                    / req.eps
                    * log_delta,
                }
            )
        else:
            orders = list(range(req.num_moments + 1))
            out.update(
                {
                    "mode": "moments",
                    "orders": orders,
                    "per_moment_queries": [
                        (q * n + s_b + s_c + r) * beta_gamma / req.eps for n in orders
                    ],
                }
            )
        return out

    # dos / ldos: the state-preparation term is log2(D) for the maximally
    # mixed state and the preparation cost R for a supplied site state.
    prep_term = math.log2(h.dim) if req.kind == DOS else float(h.dim)
    out["state_term"] = prep_term
    if req.interval is not None:
        ratio = req.rho_max / req.eps
        d_formula = ratio * math.log(ratio)
        kappa, n_jack, k_amp, tau = window_parameters(req.eps / (3.0 * req.rho_max))
        out.update(
            {
                "mode": "integral",
                "degree_formula": d_formula,
                "window": {"kappa": kappa, "n": n_jack, "k": k_amp, "tau": tau, "d": n_jack * k_amp},
                "total_queries": (q * d_formula + prep_term) / req.eps * log_delta,
            }
        )
    else:
        orders = list(range(req.num_moments + 1))
        out.update(
            {
                "mode": "moments",
                "orders": orders,
                "per_moment_queries": [(q * n + prep_term) / req.eps * log_delta for n in orders],
            }
        )
    return out


def complexity_report(obj) -> dict:
    """Evaluate the applicable cost formulas with unit constants.

    Natural logarithms throughout except the maximally-mixed preparation
    term, which counts qubits (log base 2). These are ledger numbers, not
    simulation costs.
    """
    if isinstance(obj, CorrelationSpec):
        return _correlation_report(obj)
    if isinstance(obj, SketchRequest):
        return _sketch_report(obj)
    raise ValidationError(f"no complexity report for {type(obj).__name__}")
