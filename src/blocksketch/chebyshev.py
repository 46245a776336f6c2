"""Chebyshev-basis polynomials and the window-polynomial construction.

Provides Clenshaw evaluation, a constructive Jackson approximation of the
soft step, the Bernoulli-tail amplifying polynomial, their composition into
a certified window polynomial, and kernel-polynomial reconstruction from
Chebyshev moments.

Certification is a proof, not a sampled check. A degree-n series p is
evaluated at the M + 1 extrema cos(j pi / M) by one DCT-I. In theta,
p(cos theta) is a trigonometric polynomial of degree n, so Bernstein's
inequality |d/dtheta p| <= n sup|p| bounds p between those points:
sup|p| <= max_j |p| / (1 - n h) and sup|p - f| <= max_j |p - f| +
h (n sup|p| + L) for a target f with |d/dtheta f(cos theta)| <= L, where
h = pi / (2M). Constructors raise CertificationError rather than return a
polynomial that misses its guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft
from numpy.polynomial.chebyshev import chebval
from scipy.special import betainc

from .errors import (
    BadIntervalError,
    CertificationError,
    DegreeTooLargeError,
    GridOutOfRangeError,
    OutOfRangeError,
    RangeViolationError,
)

# Extrema per degree of the Bernstein certificate: M = 32 n gives n h = pi / 64.
CERT_EXTREMA_PER_DEGREE = 32
# Points of the sampled sup-norm of a series with no recorded bound.
SAMPLED_EXTREMA = 2**18
# Refusing very small eta keeps the window degree n k near or below ~2e5
# (the composed series of that degree is built only when `poly` is read).
MIN_ETA_REL = 0.02
AMPLIFIER_INNER_SCALE = 0.8
# Matrix entries per chunk of the cosine product in `WindowPoly.eval`
# (2 MB of float64), which bounds its memory at any number of points.
EVAL_CHUNK_ENTRIES = 2**18


@dataclass(frozen=True)
class ChebyshevPoly:
    """Coefficients c_0..c_d in the T_k basis, with an optional certified
    bound on sup |p(x)| over [-1, 1]."""

    coeffs: np.ndarray
    sup_norm_bound: float | None = None

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d array")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x):
        return chebval(x, self.coeffs)


def chebyshev_t(n: int) -> ChebyshevPoly:
    """The basis polynomial T_n."""
    if n < 0:
        raise OutOfRangeError("n must be nonnegative")
    c = np.zeros(n + 1)
    c[n] = 1.0
    return ChebyshevPoly(c, sup_norm_bound=1.0)


def cheb_values_at_nodes(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Values of a Chebyshev series at the m first-kind nodes cos(pi(i+1/2)/m).

    Exact (up to roundoff) whenever m >= len(coeffs); computed with a DCT-III
    in O(m log m).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size > m:
        raise ValueError("need at least as many nodes as coefficients")
    work = np.zeros(m)
    work[0] = coeffs[0]
    work[1 : coeffs.size] = coeffs[1:] / 2.0
    return scipy.fft.dct(work, type=3)


def cheb_values_at_extrema(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Values of a Chebyshev series at the m + 1 extrema cos(pi j/m), j = 0..m.

    Exact (up to roundoff) whenever m >= degree; computed with a DCT-I in
    O(m log m).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size > m + 1:
        raise ValueError("need m at least the degree of the series")
    work = np.zeros(m + 1)
    work[: coeffs.size] = coeffs / 2.0
    work[0] = coeffs[0]
    if coeffs.size == m + 1:
        work[m] = coeffs[m]
    return scipy.fft.dct(work, type=1)


def certified_bounds(coeffs: np.ndarray, target, target_slope: float) -> tuple[float, float]:
    """Proven bounds (sup |p|, sup |p - target|) over [-1, 1] for the series p.

    From the values at the M + 1 extrema, M = CERT_EXTREMA_PER_DEGREE * n,
    and Bernstein's inequality (see the module docstring). target_slope must
    bound |d/dtheta target(cos theta)|.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.size - 1
    m = CERT_EXTREMA_PER_DEGREE * max(n, 1)
    h = np.pi / (2.0 * m)
    values = cheb_values_at_extrema(coeffs, m)
    sup = float(np.max(np.abs(values))) / (1.0 - n * h)
    extrema = np.cos(np.pi * np.arange(m + 1) / m)
    gap = float(np.max(np.abs(values - target(extrema)))) + h * (n * sup + target_slope)
    return sup, gap


def sup_norm(p) -> float:
    """The recorded sup-norm bound of p, or for a series with none the
    largest |p| at the M + 1 extrema, M the smallest multiple of
    2 max(deg, 1) at least SAMPLED_EXTREMA (a sampled value, not a proof:
    it is exact for T_n, whose extrema the points include)."""
    if p.sup_norm_bound is not None:
        return p.sup_norm_bound
    step = 2 * max(p.degree, 1)
    m = -(-SAMPLED_EXTREMA // step) * step
    return float(np.max(np.abs(cheb_values_at_extrema(p.coeffs, m))))


def cheb_fit_at_nodes(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients interpolating values at the first-kind nodes.

    Inverse of cheb_values_at_nodes; exact for polynomials of degree
    < len(values).
    """
    values = np.asarray(values, dtype=float)
    m = values.size
    c = scipy.fft.dct(values, type=2) / m
    c[0] /= 2.0
    return c


def first_kind_nodes(m: int) -> np.ndarray:
    return np.cos(np.pi * (np.arange(m) + 0.5) / m)


def jackson_damping(n: int) -> np.ndarray:
    """Jackson smoothing coefficients g_0..g_n for a degree-n truncation."""
    if n < 0:
        raise OutOfRangeError("n must be nonnegative")
    m = np.arange(n + 1)
    big = n + 1
    return ((big - m) * np.cos(np.pi * m / big) + np.sin(np.pi * m / big) / np.tan(np.pi / big)) / big


def soft_step(x, a_bar: float, b_bar: float, kappa: float):
    """The piecewise-linear target: 1 on [a_bar, b_bar], -1 outside the
    kappa-strips, linear in between."""
    x = np.asarray(x, dtype=float)
    ramp_left = 2.0 * (x - (a_bar - kappa)) / kappa - 1.0
    ramp_right = 2.0 * ((b_bar + kappa) - x) / kappa - 1.0
    return np.clip(np.minimum(ramp_left, ramp_right), -1.0, 1.0)


def _validate_window_interval(a_bar, b_bar, kappa):
    if kappa <= 0:
        raise BadIntervalError(f"kappa must be positive, got {kappa}")
    if not a_bar < b_bar:
        raise BadIntervalError(f"need a_bar < b_bar, got [{a_bar}, {b_bar}]")
    if not (-1.0 < a_bar - kappa and b_bar + kappa < 1.0):
        raise BadIntervalError(
            f"window [{a_bar}, {b_bar}] with margin {kappa} does not fit inside (-1, 1)"
        )


def jackson_approx(a_bar: float, b_bar: float, kappa: float, n: int) -> ChebyshevPoly:
    """Degree-n polynomial proven within 1/4 of the soft step on [-1, 1].

    The Jackson-damped Chebyshev interpolant of the soft step, certified
    by `certified_bounds` against the step, whose slope in theta is at most
    2/kappa; raises CertificationError if the proven gap exceeds 1/4. The
    proven sup-norm bound (at most 5/4) is recorded on the result.
    """
    _validate_window_interval(a_bar, b_bar, kappa)
    n = int(n)
    if n < 24.0 / kappa - 1e-9:
        raise OutOfRangeError(f"degree n={n} below 24/kappa={24.0 / kappa:.6g}")
    nodes = first_kind_nodes(4 * n)
    raw = cheb_fit_at_nodes(soft_step(nodes, a_bar, b_bar, kappa))
    coeffs = raw[: n + 1] * jackson_damping(n)

    sup, gap = certified_bounds(coeffs, lambda x: soft_step(x, a_bar, b_bar, kappa), 2.0 / kappa)
    if gap > 0.25:
        raise CertificationError(f"step approximation not proven within 1/4 (gap bound {gap:.6g})")
    # |step| <= 1, so 1 + gap is a second proven bound.
    return ChebyshevPoly(coeffs, sup_norm_bound=min(sup, 1.0 + gap))


def amplifier_value(k: int, y):
    """The order-k amplifying polynomial evaluated through the regularized
    incomplete beta function: the probability that a Binomial(k, (1+y)/2)
    variable reaches k/2."""
    m = (k + 1) // 2
    p = np.clip((1.0 + np.asarray(y, dtype=float)) / 2.0, 0.0, 1.0)
    return betainc(m, k - m + 1, p)


def amplifying_poly(k: int) -> ChebyshevPoly:
    """Bernoulli-tail polynomial of degree k: maps [3/5, 1] to within
    e^{-k/6} of 1 and [-1, -3/5] to within e^{-k/6} of 0, monotonically."""
    if k < 1:
        raise OutOfRangeError("amplifier order must be at least 1")
    nodes = first_kind_nodes(k + 1)
    coeffs = cheb_fit_at_nodes(amplifier_value(k, nodes))
    # Values are probabilities, so sup |A_k| = 1 on [-1, 1] by construction.
    ends = chebval(np.array([-1.0, 1.0]), coeffs)
    if abs(ends[0]) > 1e-9 or abs(ends[1] - 1.0) > 1e-9:
        raise CertificationError(f"amplifier endpoints off: A({-1})={ends[0]}, A(1)={ends[1]}")
    return ChebyshevPoly(coeffs, sup_norm_bound=1.0)


def compose(outer: ChebyshevPoly, inner: ChebyshevPoly, scale_inner: float) -> ChebyshevPoly:
    """Coefficients of outer(scale_inner * inner(x)).

    The scaled inner values must stay within [-1, 1] (outer's certified
    domain); recovered by interpolation at deg(outer)*deg(inner) + 1
    Chebyshev nodes, which is exact for the composed polynomial.
    """
    reach = abs(scale_inner) * sup_norm(inner)
    if reach > 1.0 + 1e-9:
        raise RangeViolationError(
            f"scaled inner polynomial reaches {reach:.6g} > 1 on [-1, 1]"
        )
    if outer.degree == 0:
        return ChebyshevPoly(outer.coeffs.copy(), sup_norm_bound=abs(float(outer.coeffs[0])))
    d = outer.degree * inner.degree
    inner_vals = cheb_values_at_nodes(inner.coeffs, d + 1) * scale_inner
    outer_vals = chebval(inner_vals, outer.coeffs)
    coeffs = cheb_fit_at_nodes(outer_vals)
    return ChebyshevPoly(coeffs, sup_norm_bound=outer.sup_norm_bound)


@dataclass(frozen=True)
class WindowPoly:
    """A certified polynomial approximation of the indicator of
    [a_bar, b_bar]: within tau of 1 inside, within tau of 0 outside the
    kappa-strips, and bounded by 1 everywhere on [-1, 1].

    Called on x, it evaluates the factored form A_k(0.8 J(x)), which equals
    the composed series `poly` of degree n k up to roundoff. That series is
    built lazily, on the first read of `poly`; `degree` is n k without it.
    """

    # Proven by the certificate: 0.8 |J| <= 1, and A_k maps [-1, 1] to [0, 1].
    sup_norm_bound = 1.0

    a_bar: float
    b_bar: float
    kappa: float
    tau: float
    jackson_degree: int
    amplifier_order: int
    jackson_poly: ChebyshevPoly
    cert_max_violation: float

    @property
    def degree(self) -> int:
        return self.jackson_degree * self.amplifier_order

    @cached_property
    def poly(self) -> ChebyshevPoly:
        """The composed series A_k(0.8 J(x)) in the T_k basis, built on first
        read; raises CertificationError if its degree is not n k."""
        amplifier = amplifying_poly(self.amplifier_order)
        composed = compose(amplifier, self.jackson_poly, AMPLIFIER_INNER_SCALE)
        if composed.degree != self.degree:
            raise CertificationError(f"composed degree {composed.degree} != n*k = {self.degree}")
        return composed

    def eval(self, x):
        """A_k(0.8 J(x)) at x clipped to [-1, 1], with
        J(x) = sum_m c_m cos(m arccos x) summed as a (points x (n+1)) cosine
        product, at most EVAL_CHUNK_ENTRIES entries at a time."""
        x = np.asarray(x, dtype=float)
        theta = np.arccos(np.clip(x, -1.0, 1.0)).reshape(-1)
        coeffs = self.jackson_poly.coeffs
        orders = np.arange(coeffs.size)
        rows = max(1, EVAL_CHUNK_ENTRIES // coeffs.size)
        jackson = np.empty_like(theta)
        for start in range(0, theta.size, rows):
            chunk = theta[start : start + rows]
            jackson[start : start + rows] = np.cos(np.multiply.outer(chunk, orders)) @ coeffs
        inner = AMPLIFIER_INNER_SCALE * jackson.reshape(x.shape)
        return amplifier_value(self.amplifier_order, inner)

    __call__ = eval


def window_parameters(eta_rel: float) -> tuple[float, int, int, float]:
    """The (kappa, n, k, tau) parameter chain for a relative budget eta_rel."""
    if not 0.0 < eta_rel < 1.0:
        raise OutOfRangeError(f"eta must be in (0, 1), got {eta_rel}")
    kappa = eta_rel / 4.0
    n = math.ceil(24.0 / kappa - 1e-9)
    k = math.ceil(6.0 * math.log(4.0 / eta_rel) - 1e-9)
    tau = math.exp(-k / 6.0)
    return kappa, n, k, tau


def window_poly(
    a_bar: float,
    b_bar: float,
    eta_rel: float,
    allow_large_degree: bool = False,
) -> WindowPoly:
    """Construct and certify the window polynomial A_k(0.8 J(x)) for [a_bar, b_bar].

    eta_rel is the error budget relative to the bound on the integrand:
    the windowed integral of any measure bounded (in the running-integral
    sense) by f_max deviates from the sharp integral by at most
    eta_rel * f_max. Degree is n*k with n = ceil(24/kappa),
    k = ceil(6 ln(4/eta_rel)), kappa = eta_rel/4.

    The certificate is a proof: `jackson_approx` proves J within 1/4 of the
    soft step, and the amplifier lemma (A_k monotone, A_k(3/5) >= 1 - tau,
    A_k(-3/5) <= tau) carries that to the window regions. Evaluation goes
    through the factored form; the composed series `poly` is built only
    when read, and the degree n k needs no series.

    Raises:
        DegreeTooLargeError: for eta_rel below 0.02 unless allow_large_degree
            is set (the composed degree grows like (1/eta) ln(1/eta)).
        BadIntervalError: if the window plus margin does not fit in (-1, 1).
        CertificationError: if the step gap is not proven within 1/4 or the
            amplifier misses tau at +-3/5.
        RangeViolationError: if 0.8 J is not proven within [-1, 1], the
            amplifier's domain.
    """
    kappa, n, k, tau = window_parameters(eta_rel)
    if eta_rel < MIN_ETA_REL and not allow_large_degree:
        raise DegreeTooLargeError(
            f"eta={eta_rel:.4g} gives degree ~{n * k}; pass allow_large_degree=True to proceed"
        )
    if tau > eta_rel / 4.0 + 1e-15:
        raise CertificationError(f"tau={tau} exceeds eta/4={eta_rel / 4.0}")

    jackson = jackson_approx(a_bar, b_bar, kappa, n)
    # Checks the endpoints of A_k; the series itself is rebuilt by `poly`.
    amplifying_poly(k)
    reach = AMPLIFIER_INNER_SCALE * sup_norm(jackson)
    if reach > 1.0 + 1e-9:
        raise RangeViolationError(f"scaled inner polynomial reaches {reach:.6g} > 1 on [-1, 1]")

    # Region check by the amplifier lemma. The proven gap is at most 1/4,
    # so 0.8 J lies in [3/5, 1] inside the window and in [-1, -3/5] outside
    # the strips; A_k is monotone with values in [0, 1] on [-1, 1], so its
    # values at +-3/5 bound the window on both regions.
    ends = amplifier_value(k, np.array([-0.6, 0.6]))
    violation = max(float(ends[0]) - tau, (1.0 - tau) - float(ends[1]))
    if violation > 1e-12:
        raise CertificationError(f"window region check failed by {violation:.3g}")

    return WindowPoly(
        a_bar=a_bar,
        b_bar=b_bar,
        kappa=kappa,
        tau=tau,
        jackson_degree=n,
        amplifier_order=k,
        jackson_poly=jackson,
        cert_max_violation=max(violation, 0.0),
    )


def kpm_reconstruct(moments, grid) -> np.ndarray:
    """Kernel-polynomial reconstruction from Chebyshev moments mu_0..mu_N.

    Evaluates (g_0 mu_0 + 2 sum_{n>=1} g_n mu_n T_n(x)) / (pi sqrt(1-x^2))
    with Jackson damping g_n at each grid point in (-1, 1).
    """
    moments = np.asarray(moments, dtype=float)
    if moments.ndim != 1 or moments.size == 0:
        raise ValueError("moments must be a nonempty 1-d sequence")
    grid = np.asarray(grid, dtype=float)
    if np.any(np.abs(grid) >= 1.0):
        raise GridOutOfRangeError("grid points must lie strictly inside (-1, 1)")
    damped = moments * jackson_damping(moments.size - 1)
    damped[1:] *= 2.0
    return chebval(grid, damped) / (np.pi * np.sqrt(1.0 - grid**2))
