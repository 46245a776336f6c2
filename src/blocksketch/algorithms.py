"""The estimation pipelines built on block encodings.

`correlate` estimates Heisenberg-picture n-time correlation functions.
`spectral_sketch` is the one kernel-polynomial pipeline: it estimates
Tr(rho B f(H/alpha) C) with f a proven interval window (integral mode)
or the Chebyshev polynomials T_0..T_N (moments mode), which covers the
density of states (B = C = I, rho = I/D), the local density of states
(B = C = I, rho = |s><s|) and linear response, with rho read from the one
field `SketchRequest.state` (I/D for dos). `complexity_report` evaluates
the cost formulas with unit constants.

Moment jobs for different orders are independent; run them concurrently
with distinct seeds and merge by index if needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .block_encoding import BlockEncoding, encode_pauli_sum, product
from .chebyshev import WindowPoly, min_window_eta, window_parameters, window_poly
from .errors import (
    BadIntervalError,
    CostOverflowError,
    DimensionMismatchError,
    EmptySumError,
    OutOfRangeError,
    ValidationError,
    _checked_cost,
)
from .estimation import EstimationResult, _validate_eps_delta, estimate_complex, estimate_observable
from .pauli import PauliSum
from .spectral import (
    apply_polynomial,
    chebyshev_encoding,
    evolution_cost,
    evolution_encoding,
)
from .state_prep import PreparationUnitary, prepare_maximally_mixed

DOS = "dos"
LDOS = "ldos"
RESPONSE = "response"


def _check_common(obj: CorrelationSpec | SketchRequest, observables, product_name: str) -> float:
    """The checks a correlation spec and a sketch request share, which
    leave them with the product of the observable scales: the observables
    act on the Hamiltonian's qubits, the state (if any) has its dimension,
    eps and delta lie in (0, 1), and the product is finite."""
    h = obj.hamiltonian
    if any(obs.qubits != h.qubits for obs in observables):
        raise ValidationError("observable and Hamiltonian qubit counts differ")
    if obj.state is not None and obj.state.system_dim != h.dim:
        raise DimensionMismatchError(
            f"state of dimension {obj.state.system_dim} for a Hamiltonian of dimension {h.dim}"
        )
    _validate_eps_delta(obj.eps, obj.delta)
    scales = math.prod(obs.scale() for obs in observables)
    if not math.isfinite(scales):
        raise OutOfRangeError(
            f"{product_name}, the product of the observable scales, overflows to {scales}"
        )
    return scales


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
        gamma = _check_common(self, [obs for obs, _t in self.observables], "gamma")
        for _obs, t in self.observables:
            if not math.isfinite(t):
                raise OutOfRangeError(f"observable time must be finite, got {t!r}")
        if _budget(self).evolution == 0.0:
            raise OutOfRangeError(
                f"gamma, the product of the observable scales, is {gamma!r}: the share "
                f"eps / (2 (n+1)^2 gamma) of each evolution underflows to 0 at eps {self.eps!r}"
            )

    def time_differences(self) -> list[float]:
        """tau_j = t_{j+1} - t_j with the time list padded by zeros."""
        times = [0.0] + [float(t) for _, t in self.observables] + [0.0]
        return [times[j + 1] - times[j] for j in range(len(times) - 1)]


@dataclass(frozen=True, eq=False)
class SketchRequest:
    """Inputs for a density-of-states or response sketch.

    `state` is rho for every kind: none for dos (rho = I/D), a pure state
    (`prepare_pure`) for ldos, any preparation for response. rho_max
    bounds the normalized dimension of the largest eigenspace (1 is always
    valid; smaller values tighten the window degree).
    """

    hamiltonian: PauliSum
    kind: str
    eps: float
    delta: float
    rho_max: float = 1.0
    interval: tuple[float, float] | None = None
    num_moments: int | None = None
    b_observable: PauliSum | None = None
    c_observable: PauliSum | None = None
    state: PreparationUnitary | None = None

    def __post_init__(self):
        if self.kind not in (DOS, LDOS, RESPONSE):
            raise ValidationError(f"unknown sketch kind {self.kind!r}")
        if self.kind == DOS and self.state is not None:
            raise ValidationError("dos takes no state: its state is I/D by definition")
        if self.kind == LDOS and (self.state is None or self.state.purifier_dim != 1):
            raise ValidationError("ldos requires a pure site state (pure or basis directive)")
        if self.kind == RESPONSE and None in (self.b_observable, self.c_observable, self.state):
            raise ValidationError("response requires B, C, and a state")
        given = [obs for obs in (self.b_observable, self.c_observable) if obs is not None]
        weight = _check_common(self, given, "|B| |C|")
        if not 0.0 < self.rho_max < math.inf:
            raise OutOfRangeError(f"rho_max must be positive and finite, got {self.rho_max}")
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
        if self.interval is None:
            return
        # A window share of 1 or more, or too small for any degree, is named
        # by its factors.
        eta = _budget(self).window_eta
        try:
            window_parameters(eta)
        except OutOfRangeError:
            named = f"rho_max {self.rho_max!r}"
            if self.kind == RESPONSE:
                named += f" with |B| |C| = {weight!r}"
            size, why = ("small", "is not below 1") if eta >= 1.0 else (
                "large", "admits no finite window degree"
            )
            raise OutOfRangeError(
                f"{named} is too {size} for eps {self.eps!r}: its window share {eta!r} {why}"
            ) from None


@dataclass(frozen=True, eq=False)
class SketchResult:
    values: tuple
    chebyshev_orders: tuple
    window_meta: WindowPoly | None = field(default=None, repr=False)


@dataclass(frozen=True)
class _Budget:
    """The split of a request's eps; a share the request does not spend is 0.

    window_eta is the eta_rel handed to window_poly, polynomial the delta
    handed to apply_polynomial, estimation the eps handed to estimate_*,
    and evolution the eps of each evolution_encoding in correlate.
    """

    window_eta: float = 0.0
    polynomial: float = 0.0
    estimation: float = 0.0
    evolution: float = 0.0


def _budget(obj: SketchRequest | CorrelationSpec, eps: float | None = None) -> _Budget:
    """The one place eps (default obj.eps) is split.

    An integral sketch gives a third to each part. The window's share is
    relative to rho_max and, for response, to |B| |C|. The polynomial's is
    divided by the scale 2 |B| |C| of the estimated encoding (2 for dos
    and ldos), so that its scale x accuracy is eps/3. A moments sketch
    estimates each moment at eps.

    correlate estimates at eps/2 and charges each of its n + 1 evolutions
    eps / (2 (n+1)^2 gamma) for gamma = max(1, prod_j beta_j). The
    estimated product has scale prod_j beta_j and accuracy at most
    (n+1)^2 times that share, so its scale x accuracy is at most eps/2.
    A product of scales below 1 keeps gamma = 1: its share could pass 1,
    which no evolution accepts.
    """
    eps = obj.eps if eps is None else eps
    if isinstance(obj, CorrelationSpec):
        n = len(obj.observables)
        gamma = max(1.0, math.prod(o.scale() for o, _t in obj.observables))
        return _Budget(estimation=eps / 2.0, evolution=eps / (2.0 * (n + 1) ** 2 * gamma))
    if obj.interval is None:
        return _Budget(estimation=eps)
    window_share, weight = 3.0 * obj.rho_max, 1.0
    if obj.kind == RESPONSE:
        beta_b, beta_c = obj.b_observable.scale(), obj.c_observable.scale()
        window_share, weight = window_share * beta_b * beta_c, beta_b * beta_c
    return _Budget(
        window_eta=eps / window_share,
        polynomial=eps / 3.0 / (2.0 * weight),
        estimation=eps / 3.0,
    )


def min_window_eps(req: SketchRequest) -> float:
    """The smallest eps whose integral window fits under MAX_WINDOW_DEGREE,
    that is whose window share is at least `min_window_eta()`; the float
    below it does not fit."""
    if req.interval is None:
        raise ValidationError("min_window_eps requires an integral-mode request")
    floor = min_window_eta()

    def passes(eps: float) -> bool:
        return _budget(req, eps).window_eta >= floor

    eps = floor / _budget(req, 1.0).window_eta
    while not passes(eps):
        eps = math.nextafter(eps, math.inf)
    while passes(math.nextafter(eps, 0.0)):
        eps = math.nextafter(eps, 0.0)
    return eps


def _moment_seed(seed, stride: int, j: int):
    return None if seed is None else seed + stride * j


def correlate(spec: CorrelationSpec, mode: str = "exact", seed: int | None = None) -> EstimationResult:
    """Estimate Tr(rho O_1(t_1) ... O_n(t_n)).

    Rewrites the Heisenberg product through consecutive time differences,
    interleaves evolution encodings with the observable encodings, and
    estimates the resulting non-Hermitian operator part by part; the
    evolution and estimation shares of eps are read from `_budget`. delta
    holds per part: both parts are within eps together with probability at
    least 1 - 2 delta (`estimate_complex`).
    """
    h, budget = spec.hamiltonian, _budget(spec)
    taus = spec.time_differences()

    factors: list[BlockEncoding] = [evolution_encoding(h, taus[0], budget.evolution)]
    for j, (obs, _t) in enumerate(spec.observables, start=1):
        factors.append(encode_pauli_sum(obs))
        factors.append(evolution_encoding(h, taus[j], budget.evolution))
    gamma_encoding = product(factors)
    return estimate_complex(gamma_encoding, spec.state, budget.estimation, spec.delta, mode, seed)


def spectral_sketch(req: SketchRequest, mode: str = "exact", seed: int | None = None) -> SketchResult:
    """Sketch Tr(rho B f(H/alpha) C) for the request's kind.

    rho is I/D for the density of states and `req.state` for every other
    kind. The density and local density of states are B = C = I, estimated
    as one Hermitian observable, and moment n is seeded with seed + n. The
    response estimates B f(H/alpha) C against the state part by part (any
    ground-energy shift is the caller's) and seeds moment n with seed + 2n.
    Its product is a recorded rule whose block is never formed here: each
    moment reads Tr(rho B f C) as one np.vdot of f's block against
    B^dagger rho C^dagger, which is formed once for the sketch
    (`block_encoding.product`).

    Integral mode takes f to be the proven window over the rescaled
    interval; the window, polynomial and estimation shares of eps are
    read from `_budget`. Moments mode takes f = T_n for n = 0..N.
    """
    h_enc = encode_pauli_sum(req.hamiltonian)
    alpha = h_enc.scale
    state = prepare_maximally_mixed(req.hamiltonian.dim) if req.kind == DOS else req.state
    if req.kind == RESPONSE:
        b_enc = encode_pauli_sum(req.b_observable)
        c_enc = encode_pauli_sum(req.c_observable)
        stride = 2

        def estimate(f_enc: BlockEncoding, eps: float, f_seed):
            xi_enc = product([b_enc, f_enc, c_enc])
            return estimate_complex(xi_enc, state, eps, req.delta, mode, f_seed)

    else:
        stride = 1

        def estimate(f_enc: BlockEncoding, eps: float, f_seed):
            return estimate_observable(f_enc, state, eps, req.delta, mode, f_seed)

    budget = _budget(req)
    if req.interval is not None:
        a, b = req.interval
        window = window_poly(a / alpha, b / alpha, budget.window_eta)
        w_enc = apply_polynomial(h_enc, window, delta=budget.polynomial)
        return SketchResult((estimate(w_enc, budget.estimation, seed),), (window.degree,), window)

    values = []
    orders = list(range(req.num_moments + 1))
    previous: tuple[BlockEncoding, ...] = ()
    for n in orders:
        t_n = chebyshev_encoding(h_enc, n, previous)
        previous = (t_n, *previous[:1])
        values.append(estimate(t_n, budget.estimation, _moment_seed(seed, stride, n)))
    return SketchResult(tuple(values), tuple(orders))


def _checked_queries(queries: float) -> float:
    """A report's query count, or CostOverflowError if it overflowed:
    reports are printed as standard JSON, which has no Infinity."""
    if not math.isfinite(queries):
        raise CostOverflowError(f"the query count overflows to {queries}")
    return queries


def _correlation_report(spec: CorrelationSpec) -> dict:
    n = len(spec.observables)
    h = spec.hamiltonian
    eps0 = _budget(spec).evolution
    taus = spec.time_differences()
    q, alpha = len(h.terms), h.scale()
    evolution = [evolution_cost(q, alpha, tau, eps0) for tau in taus]
    for tau, cost in zip(taus, evolution):
        _checked_cost(cost, f"evolution cost at time {tau!r}")
    loose = [q * alpha * abs(tau) + q * math.log(1.0 / eps0) for tau in taus]
    observable_costs = [len(obs.terms) for obs, _t in spec.observables]
    gamma = math.prod(obs.scale() for obs, _t in spec.observables)
    w = sum(observable_costs) + sum(evolution)
    total = _checked_queries((spec.state.cost + w) * gamma / spec.eps * math.log(1.0 / spec.delta))
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

    # Each query count is weighted by beta_B beta_C and carries the state
    # term S_B + S_C + R for response; dos and ldos have weight 1 and the
    # state term log2(D) for the maximally mixed state or D for a site state.
    if req.kind == RESPONSE:
        s_b = len(req.b_observable.terms)
        s_c = len(req.c_observable.terms)
        weight = req.b_observable.scale() * req.c_observable.scale()
        r = req.state.cost
        prep_term = s_b + s_c + r
        out.update({"S_B": s_b, "S_C": s_c, "state_cost": r, "beta_gamma": weight})
    else:
        weight = 1.0
        prep_term = math.log2(h.dim) if req.kind == DOS else float(h.dim)
        out["state_term"] = prep_term

    if req.interval is not None:
        # degree_formula is the paper's window degree law (the Jackson-times-
        # amplifier window); the window block is the erf window the sketch
        # builds, whose degree follows a different law (`window_poly`).
        ratio = req.rho_max * weight / req.eps
        d_formula = ratio * math.log(ratio)
        kappa, tau, s, degree = window_parameters(_budget(req).window_eta)
        total = _checked_queries((q * d_formula + prep_term) * weight / req.eps * log_delta)
        out.update(
            {
                "mode": "integral",
                "degree_formula": d_formula,
                "window": {"kappa": kappa, "tau": tau, "s": s, "d": degree},
                "total_queries": total,
            }
        )
    else:
        orders = list(range(req.num_moments + 1))
        out.update(
            {
                "mode": "moments",
                "orders": orders,
                "per_moment_queries": [
                    _checked_queries((q * n + prep_term) * weight / req.eps * log_delta)
                    for n in orders
                ],
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
