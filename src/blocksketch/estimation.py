"""Amplitude estimation and block-encoded observable estimation.

Sampled-mode estimation follows an iterative confidence-interval scheme:
the angle theta = arcsin(amplitude) is tracked inside a shrinking interval,
each round samples Bernoulli outcomes with probability sin^2((2k+1) theta)
at an exponentially growing Grover power k, and Hoeffding intervals are
intersected after inverting the quadrant-restricted sine. Outcomes are
drawn from the exactly computed probability rather than by propagating the
composite state, which is statistically identical and exponentially
cheaper.

The declared query-budget constant: a run targeting amplitude precision
eps at confidence 1 - delta uses at most

    GROVER_QUERY_CONSTANT * (1 / eps) * ln(1 / delta)

Grover applications. Observable estimation at value precision eps on an
alpha-scaled encoding runs the amplitude routine at precision
eps / (2 alpha), so its budget carries the extra 2 alpha factor; the
complex-valued variant doubles it (one run per Hermitian part).

Everything is pure given an explicit seed; concurrent jobs should use
distinct seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .block_encoding import (
    BlockEncoding,
    adjoint,
    identity_encoding,
    linear_combine,
)
from .errors import (
    DimensionMismatchError,
    InvalidProjectorError,
    NotHermitianError,
    NotNormalizedError,
    OutOfRangeError,
)
from .linalg import is_hermitian
from .state_prep import PreparationUnitary, reduced_density

GROVER_QUERY_CONSTANT = 250
_SHOTS_LOG_FACTOR = 40
_MAX_ROUNDS = 4096

EXACT = "exact"
SAMPLED = "sampled"


@dataclass(frozen=True)
class EstimationResult:
    """An estimate with its precision target, confidence, and query ledger."""

    value: complex
    target_eps: float
    confidence: float
    grover_queries: int
    mode: str
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "value_re": float(self.value.real),
            "value_im": float(self.value.imag),
            "eps": self.target_eps,
            "delta": 1.0 - self.confidence,
            "grover_queries": self.grover_queries,
            "mode": self.mode,
            "seed": self.seed,
        }


def query_budget(eps: float, delta: float) -> int:
    """Worst-case Grover applications for amplitude precision eps."""
    return math.ceil(GROVER_QUERY_CONSTANT * math.log(1.0 / delta) / eps)


@dataclass(frozen=True)
class AmplitudeProblem:
    """A state vector and the projector whose image norm is estimated."""

    psi: np.ndarray
    projector: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex).reshape(-1)
        proj = np.asarray(self.projector, dtype=complex)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "projector", proj)
        nrm = float(np.linalg.norm(psi))
        if not abs(nrm - 1.0) <= 1e-9:
            raise NotNormalizedError(f"state norm {nrm:.12g} differs from 1")
        if proj.shape != (psi.size, psi.size):
            raise DimensionMismatchError(
                f"projector shape {proj.shape} incompatible with state of size {psi.size}"
            )
        if not is_hermitian(proj, 1e-10):
            raise InvalidProjectorError("projector is not Hermitian within 1e-10")
        if float(np.max(np.abs(proj @ proj - proj))) > 1e-9:
            raise InvalidProjectorError("projector is not idempotent within 1e-9")

    def true_amplitude(self) -> float:
        return float(np.clip(np.linalg.norm(self.projector @ self.psi), 0.0, 1.0))


def grover_operator(p: AmplitudeProblem) -> np.ndarray:
    """-(I - 2 Pi)(I - 2 |psi><psi|): a rotation by twice the Grover angle
    on the plane spanned by Pi|psi> and its complement."""
    eye = np.eye(p.psi.size)
    reflect_state = eye - 2.0 * np.outer(p.psi, p.psi.conj())
    reflect_proj = eye - 2.0 * p.projector
    return -reflect_proj @ reflect_state


def _validate_eps_delta(eps: float, delta: float):
    if not 0.0 < eps < 1.0:
        raise OutOfRangeError(f"eps must be in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise OutOfRangeError(f"delta must be in (0, 1), got {delta}")


def _next_power(k: int, lo: float, hi: float) -> int:
    """Largest Grover power at least doubling 2k+1 whose scaled interval
    still fits inside a single quadrant of sin^2; keeps k if none fits."""
    width = hi - lo
    if width <= 0.0:
        return k
    half_pi = math.pi / 2.0
    cap = int(half_pi / width)
    if cap % 2 == 0:
        cap -= 1
    target = 2 * (2 * k + 1)
    for mult in range(cap, target - 1, -2):
        q = math.floor(mult * lo / half_pi + 1e-12)
        if mult * hi <= (q + 1) * half_pi + 1e-12:
            return (mult - 1) // 2
    return k


def _invert_quadrant(q: int, p_lo: float, p_hi: float) -> tuple[float, float]:
    """Preimages of a probability interval under sin^2 restricted to the
    quadrant [q pi/2, (q+1) pi/2]."""
    root_lo = math.asin(math.sqrt(p_lo))
    root_hi = math.asin(math.sqrt(p_hi))
    if q % 2 == 0:
        base = (q // 2) * math.pi
        return base + root_lo, base + root_hi
    base = ((q + 1) // 2) * math.pi
    return base - root_hi, base - root_lo


def _simulate_amplitude(amplitude: float, eps: float, delta: float, rng) -> tuple[float, int]:
    """Iterative confidence-interval estimation of arcsin(amplitude).

    Returns (estimate of the amplitude, Grover applications used). The
    returned estimate is within eps of the amplitude with probability at
    least 1 - delta: each round consumes a delta_j = 6 delta / (pi (j+1))^2
    slice of the failure budget, so the union over any number of rounds
    stays below delta.
    """
    theta = math.asin(float(np.clip(amplitude, 0.0, 1.0)))
    lo, hi = 0.0, math.pi / 2.0
    k = 0
    pool_ones = 0
    pool_shots = 0
    queries = 0

    for round_idx in range(_MAX_ROUNDS):
        if hi - lo <= 2.0 * eps:
            break
        k_new = _next_power(k, lo, hi)
        if k_new != k:
            k = k_new
            pool_ones = 0
            pool_shots = 0
        delta_round = 6.0 * delta / (math.pi**2 * (round_idx + 1) ** 2)
        shots = math.ceil(_SHOTS_LOG_FACTOR * math.log(2.0 / delta_round))
        prob = math.sin((2 * k + 1) * theta) ** 2
        pool_ones += int(rng.binomial(shots, prob))
        pool_shots += shots
        queries += shots * k

        half = math.sqrt(math.log(2.0 / delta_round) / (2.0 * pool_shots))
        p_hat = pool_ones / pool_shots
        p_lo = max(0.0, p_hat - half)
        p_hi = min(1.0, p_hat + half)
        big_k = 2 * k + 1
        q = math.floor(big_k * lo / (math.pi / 2.0) + 1e-12)
        x_lo, x_hi = _invert_quadrant(q, p_lo, p_hi)
        new_lo = max(lo, x_lo / big_k)
        new_hi = min(hi, x_hi / big_k)
        if new_lo > new_hi:
            # Confidence intervals disagreed (a budgeted failure event);
            # fall back to the fresh round's interval.
            new_lo, new_hi = x_lo / big_k, x_hi / big_k
        lo = float(np.clip(new_lo, 0.0, math.pi / 2.0))
        hi = float(np.clip(new_hi, 0.0, math.pi / 2.0))
    else:
        raise RuntimeError("amplitude estimation failed to converge")

    return math.sin((lo + hi) / 2.0), queries


def _estimate(
    amplitude: float, eps: float, delta: float, mode: str, rng_seed: int | None
) -> tuple[float, int]:
    """(estimate, Grover queries) of an amplitude: the amplitude itself at
    the worst-case budget in exact mode, the simulated iterative scheme in
    sampled mode."""
    if mode == EXACT:
        return amplitude, query_budget(eps, delta)
    if mode == SAMPLED:
        return _simulate_amplitude(amplitude, eps, delta, np.random.default_rng(rng_seed))
    raise OutOfRangeError(f"mode must be 'exact' or 'sampled', got {mode!r}")


def estimate_amplitude(
    p: AmplitudeProblem,
    eps: float,
    delta: float,
    mode: str = EXACT,
    rng_seed: int | None = None,
) -> EstimationResult:
    """Estimate |Pi psi| to additive precision eps, confidence 1 - delta.

    Exact mode returns the true amplitude and charges the worst-case query
    budget; sampled mode runs the simulated iterative scheme and is
    deterministic for a given seed.
    """
    _validate_eps_delta(eps, delta)
    value, queries = _estimate(p.true_amplitude(), eps, delta, mode, rng_seed)
    return EstimationResult(complex(value), eps, 1.0 - delta, queries, mode, rng_seed)


def _shifted_encoding(a: BlockEncoding) -> BlockEncoding:
    """1-scaled encoding of (I + A/alpha)/2, which is positive
    semi-definite whenever the encoded block is a Hermitian contraction."""
    normalized = replace(a, scale=1.0)
    return linear_combine([0.5, 0.5], [identity_encoding(a.system_dim), normalized])


def estimate_observable(
    a: BlockEncoding,
    rho: PreparationUnitary,
    eps: float,
    delta: float,
    mode: str = EXACT,
    rng_seed: int | None = None,
) -> EstimationResult:
    """Estimate Tr(rho A) for a Hermitian encoded observable.

    Shifts the normalized block to (I + A/alpha)/2 so the overlap of the
    composite state with the ancilla-zero/purification projector equals the
    shifted trace; estimates that amplitude to precision eps/(2 alpha) and
    returns (2 xi_0 - 1) alpha.
    """
    _validate_eps_delta(eps, delta)
    if a.system_dim != rho.system_dim:
        raise DimensionMismatchError(
            f"encoding system {a.system_dim} != state system {rho.system_dim}"
        )
    block = a.block
    if not is_hermitian(block, 1e-8):
        raise NotHermitianError("encoded block is not Hermitian within 1e-8")

    shifted = _shifted_encoding(a)
    density = reduced_density(rho)
    overlap = float(np.clip(np.real(np.trace(density @ shifted.block)), 0.0, 1.0))

    amp_eps = min(eps / (2.0 * a.scale), 0.5)
    xi0, queries = _estimate(overlap, amp_eps, delta, mode, rng_seed)
    value = (2.0 * xi0 - 1.0) * a.scale
    return EstimationResult(complex(value), eps, 1.0 - delta, queries, mode, rng_seed)


def hermitian_part_encoding(g: BlockEncoding) -> BlockEncoding:
    """Encoding of (G + G*)/2 at the scale of g."""
    return linear_combine([0.5, 0.5], [g, adjoint(g)])


def antihermitian_part_encoding(g: BlockEncoding) -> BlockEncoding:
    """Encoding of (G - G*)/(2i) at the scale of g."""
    return linear_combine([-0.5j, 0.5j], [g, adjoint(g)])


def estimate_complex(
    g: BlockEncoding,
    rho: PreparationUnitary,
    eps: float,
    delta: float,
    mode: str = EXACT,
    rng_seed: int | None = None,
) -> EstimationResult:
    """Estimate Tr(rho G) for a general (non-Hermitian) encoded operator.

    Real and imaginary parts come from separate observable estimations of
    the Hermitian and anti-Hermitian parts, each to precision eps with
    confidence 1 - delta. The imaginary run uses seed + 1.
    """
    _validate_eps_delta(eps, delta)
    seed_im = None if rng_seed is None else rng_seed + 1
    re = estimate_observable(hermitian_part_encoding(g), rho, eps, delta, mode, rng_seed)
    im = estimate_observable(antihermitian_part_encoding(g), rho, eps, delta, mode, seed_im)
    return EstimationResult(
        complex(re.value.real, im.value.real),
        eps,
        1.0 - delta,
        re.grover_queries + im.grover_queries,
        mode,
        rng_seed,
    )
