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

Observable estimation needs one number per run, the amplitude
Tr(rho (I + A/alpha)/2). It is read through the rules that built the
shifted encoding (`block_encoding._density_trace`): linear over a
combination, conjugated over an adjoint, and one np.vdot at a formed
block. The Hermitian and anti-Hermitian parts of a general G are
`linear_combine` conjugate pairs over [G, adjoint(G)], which that rule
proves Hermitian. The shifted, part and adjoint encodings keep every
ledger, but their blocks are never formed here.

Everything is pure given an explicit seed; concurrent jobs should use
distinct seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .block_encoding import (
    BlockEncoding,
    _density_trace,
    _require_hermitian,
    adjoint,
    identity_encoding,
    linear_combine,
    normalized,
)
from .errors import CostOverflowError, DimensionMismatchError, OutOfRangeError
from .state_prep import PreparationUnitary, reduced_density

if TYPE_CHECKING:
    from .circuits import AmplitudeProblem

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
        """The JSON fields. For a complex estimate "delta" holds per part:
        value_re and value_im are each within eps with probability at least
        1 - delta, both together with at least 1 - 2 delta."""
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
    """Worst-case Grover applications for amplitude precision eps; raises
    CostOverflowError if eps or delta is so small that the count overflows,
    and if eps is not positive (a precision eps / (2 scale) that underflowed
    to 0), where no count meets it."""
    if not eps > 0.0:
        raise CostOverflowError(
            f"the Grover query budget at amplitude precision {eps:.3g} is unbounded: "
            "the precision is not positive; raise eps"
        )
    budget = GROVER_QUERY_CONSTANT * math.log(1.0 / delta) / eps
    if not math.isfinite(budget):
        raise CostOverflowError(
            f"the Grover query budget at amplitude precision {eps:.3g} and "
            f"delta {delta:.3g} overflows to {budget}; raise eps or delta"
        )
    return math.ceil(budget)


def _validate_eps_delta(eps: float, delta: float):
    if not 0.0 < eps < 1.0:
        raise OutOfRangeError(f"eps must be in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise OutOfRangeError(f"delta must be in (0, 1), got {delta}")


def _next_power(k: int, lo: float, hi: float) -> int:
    """Largest Grover power at least doubling 2k+1 whose scaled interval
    still fits inside a single quadrant of sin^2; keeps k if none fits.

    The odd multipliers 2k'+1 are tested downwards from pi/(2 width). A
    failing multiplier jumps past every smaller one that `_certified_jump`
    proves to fail the same test, so the result is that of testing them
    one by one."""
    width = hi - lo
    if width <= 0.0:
        return k
    half_pi = math.pi / 2.0
    cap = int(half_pi / width)
    if cap % 2 == 0:
        cap -= 1
    target = 2 * (2 * k + 1)
    mult = cap
    while mult >= target:
        # Test a run of _MIN_JUMP multipliers, then try one jump, so a
        # descent whose jumps would be short costs no more than the tests.
        stop = max(mult - 2 * _MIN_JUMP, target - 1)
        for mult in range(mult, stop, -2):
            q = math.floor(mult * lo / half_pi + 1e-12)
            if mult * hi <= (q + 1) * half_pi + 1e-12:
                return (mult - 1) // 2
        if stop < target:
            break
        mult = min(mult - 2, _certified_jump(mult, lo, hi, q))
    return k


# Every float is a multiple of 2^-1074, so x * _SCALE is an exact integer.
_SCALE = 1 << 1074
# The slack m(c) = c * 2^-49 + 2^-36 of `_certified_jump`, times _SCALE.
_SLACK_PER_MULT = _SCALE >> 49
_SLACK = _SCALE >> 36
# A proof costs a few big-integer operations; a jump past fewer odd
# multipliers is not tried.
_MIN_JUMP = 256


def _scaled(x: float) -> int:
    num, den = x.as_integer_ratio()
    return num * (_SCALE // den)


def _certified_jump(mult: int, lo: float, hi: float, q: int) -> int:
    """An odd multiplier below the failing mult such that every odd
    multiplier between the two fails `_next_power`'s test; mult itself
    when float guesses put both jumps short of _MIN_JUMP odd multipliers.

    Let P be pi/2 as a float and 0 <= lo < hi <= P. If a quadrant boundary
    j P lies inside [c lo, c hi] with room m(c) = c 2^-49 + 2^-36 on both
    sides, the float test fails at c: its roundings move each side by at
    most about 3 c P 2^-53 and its tolerance adds 1e-12, both below m(c).
    As c falls, two such boundaries stay inside. The one just above
    mult lo stays while c (hi - 2^-49) > j P + 2^-36. The one just below
    mult hi, (c - j') P, is its mirror image under x -> P - x and stays
    while c (P - lo - 2^-49) > j' P + 2^-36. Both are decided in exact
    integer arithmetic on the floats."""
    half_pi = math.pi / 2.0
    if not (0.0 <= lo < hi <= half_pi and mult < 2**52):
        return mult
    # Float guesses of both jumps: only a long one is worth the proof.
    mirror_guess = (mult - math.floor(mult * hi / half_pi)) * half_pi / (half_pi - lo)
    guess = min((q + 1) * half_pi / hi, mirror_guess)
    if guess > mult - 2 * _MIN_JUMP:
        return mult
    lo_s, hi_s, p_s = _scaled(lo), _scaled(hi), _scaled(half_pi)
    slack = mult * _SLACK_PER_MULT + _SLACK
    bound = mult
    j = mult * lo_s // p_s + 1
    if mult * lo_s < j * p_s - slack and hi_s > _SLACK_PER_MULT:
        bound = min(bound, (j * p_s + _SLACK) // (hi_s - _SLACK_PER_MULT))
    j_mirror = mult * (p_s - hi_s) // p_s + 1
    if mult * (p_s - hi_s) + slack < j_mirror * p_s and p_s - lo_s > _SLACK_PER_MULT:
        bound = min(bound, (j_mirror * p_s + _SLACK) // (p_s - lo_s - _SLACK_PER_MULT))
    return bound if bound % 2 else bound - 1


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
    half_pi = math.pi / 2.0
    theta = math.asin(min(max(amplitude, 0.0), 1.0))
    lo, hi = 0.0, half_pi
    k = 0
    pool_ones = 0
    pool_shots = 0
    queries = 0
    # Hoisted out of the loop; every expression below keeps the operand
    # order of delta_j's formula, so the draws and intervals do not move.
    six_delta = 6.0 * delta
    pi_squared = math.pi**2
    binomial = rng.binomial

    for round_idx in range(_MAX_ROUNDS):
        if hi - lo <= 2.0 * eps:
            break
        k_new = _next_power(k, lo, hi)
        if k_new != k:
            k = k_new
            pool_ones = 0
            pool_shots = 0
        log_term = math.log(2.0 / (six_delta / (pi_squared * (round_idx + 1) ** 2)))
        shots = math.ceil(_SHOTS_LOG_FACTOR * log_term)
        big_k = 2 * k + 1
        pool_ones += int(binomial(shots, math.sin(big_k * theta) ** 2))
        pool_shots += shots
        queries += shots * k

        half = math.sqrt(log_term / (2.0 * pool_shots))
        p_hat = pool_ones / pool_shots
        p_lo = max(0.0, p_hat - half)
        p_hi = min(1.0, p_hat + half)
        q = math.floor(big_k * lo / half_pi + 1e-12)
        x_lo, x_hi = _invert_quadrant(q, p_lo, p_hi)
        new_lo = max(lo, x_lo / big_k)
        new_hi = min(hi, x_hi / big_k)
        if new_lo > new_hi:
            # Confidence intervals disagreed (a budgeted failure event);
            # fall back to the fresh round's interval.
            new_lo, new_hi = x_lo / big_k, x_hi / big_k
        lo = min(max(new_lo, 0.0), half_pi)
        hi = min(max(new_hi, 0.0), half_pi)
    else:
        raise RuntimeError("amplitude estimation failed to converge")

    return math.sin((lo + hi) / 2.0), queries


def _estimate(
    amplitude: float, eps: float, delta: float, mode: str, rng_seed: int | None
) -> tuple[float, int]:
    """(estimate, Grover queries) of an amplitude: the amplitude itself at
    the worst-case budget in exact mode, the simulated iterative scheme in
    sampled mode. Either mode refuses a budget that overflows, and sampled
    mode a negative seed."""
    budget = query_budget(eps, delta)
    if mode == EXACT:
        return amplitude, budget
    if mode == SAMPLED:
        if rng_seed is not None and rng_seed < 0:
            raise OutOfRangeError(f"seed must be nonnegative, got {rng_seed}")
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
    return linear_combine([0.5, 0.5], [identity_encoding(a.system_dim), normalized(a)])


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

    The Hermitian check reads a's ledger, and the shifted trace is read
    through the rules that built the shifted encoding (`_density_trace`),
    so no block of a or of its shift is formed where a rule records it.
    """
    _validate_eps_delta(eps, delta)
    if a.system_dim != rho.system_dim:
        raise DimensionMismatchError(
            f"encoding system {a.system_dim} != state system {rho.system_dim}"
        )
    _require_hermitian(a)
    shifted = _shifted_encoding(a)
    overlap = min(max(_density_trace(shifted, reduced_density(rho)).real, 0.0), 1.0)

    amp_eps = min(eps / (2.0 * a.scale), 0.5)
    xi0, queries = _estimate(overlap, amp_eps, delta, mode, rng_seed)
    value = (2.0 * xi0 - 1.0) * a.scale
    return EstimationResult(complex(value), eps, 1.0 - delta, queries, mode, rng_seed)


# The coefficients [c, conj(c)] of the Hermitian and anti-Hermitian parts.
_HERMITIAN_PART = [0.5, 0.5]
_ANTIHERMITIAN_PART = [-0.5j, 0.5j]


def hermitian_part_encoding(g: BlockEncoding) -> BlockEncoding:
    """Encoding of (G + G*)/2 at the scale of g, proven Hermitian by
    `linear_combine`'s conjugate-pair case."""
    return linear_combine(_HERMITIAN_PART, [g, adjoint(g)])


def antihermitian_part_encoding(g: BlockEncoding) -> BlockEncoding:
    """Encoding of (G - G*)/(2i) at the scale of g, proven Hermitian by
    `linear_combine`'s conjugate-pair case."""
    return linear_combine(_ANTIHERMITIAN_PART, [g, adjoint(g)])


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
    confidence 1 - delta, so delta and the result's confidence hold per
    part: both parts are within eps together only with probability at least
    1 - 2 delta (the union bound). The imaginary run uses seed + 1. Each
    part is `linear_combine` of [g, adjoint(g)], which proves it Hermitian;
    the two share one adjoint of g, and both runs read their traces
    through the rules down to Tr(rho G), so no part or adjoint block is
    formed.
    """
    _validate_eps_delta(eps, delta)
    seed_im = None if rng_seed is None else rng_seed + 1
    g_adjoint = adjoint(g)
    re_part = linear_combine(_HERMITIAN_PART, [g, g_adjoint])
    re = estimate_observable(re_part, rho, eps, delta, mode, rng_seed)
    im_part = linear_combine(_ANTIHERMITIAN_PART, [g, g_adjoint])
    im = estimate_observable(im_part, rho, eps, delta, mode, seed_im)
    return EstimationResult(
        complex(re.value.real, im.value.real),
        eps,
        1.0 - delta,
        re.grover_queries + im.grover_queries,
        mode,
        rng_seed,
    )
