"""Chebyshev-basis polynomials and the window-polynomial construction.

Provides Clenshaw evaluation, proven sup-norm bounds, a proven Chebyshev
interpolant of an entire function, the error-function window built on it,
and kernel-polynomial reconstruction from Chebyshev moments. The
Bernoulli-tail amplifier (`amplifier_value`, `amplifying_poly`) and series
composition (`compose`) built the paper's Jackson-times-amplifier window, and
no package code has called them since the window became one erf
interpolant. They stay public only because `perfbench/spans.py` traces
`compose` and `amplifying_poly` by name; the benchmark rework (ROADMAP item
20) deletes all three.

A series is evaluated three ways. `ChebyshevPoly.__call__` and
`kpm_reconstruct` run Clenshaw's recurrence (`chebval`). The window's
series at P points is the cosine sum sum_m c_m cos(m theta) taken in
blocks of w = ceil(sqrt(n + 1)) orders (`_cosine_sum`): 2 P (w + (n+1)/w)
cosines and sines instead of P (n + 1) cosines. At the M + 1 extrema
cos(j pi / M), M >= n, the values are one DCT-I (`cheb_values_at_extrema`),
and one DCT-I takes values there back to the interpolant's coefficients
(`_fit_at_extrema`): every fit and grid value of this module runs through
that one transform.

Two proofs are made here, neither a sampled check.

The sup norm of a caller's series (`certified_sup`). A degree-n series p
is evaluated at the M + 1 extrema cos(j pi / M), M >= 8 n; in theta they
are a grid of covering radius h = pi / (2M). p(cos theta) is an even
trigonometric polynomial of degree n, so Bernstein's inequality, applied
twice, gives |d^2/dtheta^2 p| <= n^2 S with S = sup|p|. At a maximiser of
|p| the derivative vanishes (at 0 and pi by evenness), and a second-order
Taylor step to the nearest grid point gives S <= max_j |p| / (1 - (n h)^2 / 2).

The error of an interpolant (`_proven_interpolant`). If f is analytic in
the open Bernstein ellipse E_rho (foci +-1, semi-axes cosh r and sinh r for
rho = e^r) and |f| <= M(rho) there, its interpolant p_n in the n + 1
extrema satisfies ||f - p_n|| <= 4 M rho^-n / (rho - 1) on [-1, 1]
(L. N. Trefethen, Approximation Theory and Approximation Practice, SIAM
2013, Thm 8.2). The degree is the smallest n that some rho of a grid
proves, so it is known before anything is allocated; the roundoff of the
fit is bounded and added to the error, so the bound stays a proof.
Constructors raise CertificationError rather than return a polynomial that
misses its guarantees.

The window (`window_poly`) is one such interpolant, of the difference of
two error functions. The source paper builds its window as a
Jackson-damped soft step of degree 24/kappa composed with an order-k
amplifier, degree n k = 119,040 at eta = 0.025; this construction meets
the same (kappa, tau) guarantee at a proven degree of 5,120. The `cost`
report keeps the paper's degree formula.

The package needs numpy alone. The DCT-I is the real FFT of the even
extension, the error function is `math.erf`, and the amplifier is its
binomial tail sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .errors import (
    BadIntervalError,
    CertificationError,
    DegreeTooLargeError,
    GridOutOfRangeError,
    OutOfRangeError,
    RangeViolationError,
)

# Extrema per degree of the second-order Bernstein certificate: M >= 8 n
# gives n h <= pi / 16, so the slack factor (n h)^2 / 2 is at most 0.0193.
CERT_EXTREMA_PER_DEGREE = 8
# No window is built above this degree, the one limit on a window
# (`min_window_eta` is the smallest eta that fits). Its fit holds a few
# float64 arrays of n + 1 or 2 n entries, about 40 bytes per degree: 21 MB
# traced at n = 2^19 (eta = 4.2e-4), where `window-poly` peaks at 69 MB RSS.
# There the roundoff bound of `window_poly` is a tenth of its tau^2 / 2
# margin, which it would pass near n = 1.3e6.
MAX_WINDOW_DEGREE = 2**19
# Pairs of angles per chunk of points in `_cosine_sum` (4 MB of their
# cosines and sines), which bounds its memory at any number of points.
EVAL_CHUNK_ENTRIES = 2**18
# The unit roundoff of float64.
_U = 2.0**-53
_ERF = np.frompyfunc(math.erf, 1, 1)


@dataclass(frozen=True, eq=False)
class ChebyshevPoly:
    """Coefficients c_0..c_d in the T_k basis, with a proven bound
    `sup_norm_bound` on sup |p(x)| over [-1, 1]: the constructor's is
    min(sum_k |c_k|, the Bernstein bound of `certified_sup`), and the
    package's constructors record the bound their construction proves.
    No caller can assert a bound. The constructor refuses a degree above
    MAX_WINDOW_DEGREE with DegreeTooLargeError before its certificate,
    whose grid holds about 320 bytes per degree, allocates."""

    coeffs: np.ndarray
    sup_norm_bound: float = field(init=False)

    def __post_init__(self):
        _set_coeffs(self, self.coeffs, None)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x):
        return chebval(x, self.coeffs)


def _set_coeffs(p: ChebyshevPoly, coeffs, bound: float | None):
    """Check the coefficients, prove a sup-norm bound when bound is None,
    and set the fields of a frozen series."""
    c = np.array(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a nonempty 1-d array")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    c.flags.writeable = False
    if bound is None:
        if c.size - 1 > MAX_WINDOW_DEGREE:
            raise DegreeTooLargeError(
                f"degree {c.size - 1} is above the ceiling {MAX_WINDOW_DEGREE} "
                "of a series whose sup-norm bound is certified"
            )
        bound = min(float(np.sum(np.abs(c))), certified_sup(c))
    object.__setattr__(p, "coeffs", c)
    object.__setattr__(p, "sup_norm_bound", bound)


def _proven(coeffs, bound: float) -> ChebyshevPoly:
    """A series whose construction proves sup |p| <= bound on [-1, 1],
    recorded without a further certificate."""
    p = object.__new__(ChebyshevPoly)
    _set_coeffs(p, coeffs, bound)
    return p


def chebyshev_t(n: int) -> ChebyshevPoly:
    """The basis polynomial T_n."""
    if n < 0:
        raise OutOfRangeError("n must be nonnegative")
    c = np.zeros(n + 1)
    c[n] = 1.0
    return _proven(c, 1.0)


def _dct1(x: np.ndarray) -> np.ndarray:
    """DCT-I, y_k = x_0 + (-1)^k x_{N-1} + 2 sum_{0<j<N-1} x_j cos(pi j k/(N-1)),
    as the real FFT of the even extension; N >= 2. The real part is copied
    out, so the complex spectrum is freed at once and callers get a
    contiguous array."""
    return np.fft.rfft(np.concatenate([x, x[-2:0:-1]])).real.copy()


def cheb_values_at_extrema(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Values of a Chebyshev series at the m + 1 extrema cos(pi j/m), j = 0..m.

    Exact (up to roundoff) whenever m >= degree; one DCT-I of length m + 1,
    in O(m log m).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size > m + 1:
        raise ValueError("need m at least the degree of the series")
    work = np.zeros(m + 1)
    work[: coeffs.size] = coeffs / 2.0
    work[0] = coeffs[0]
    if coeffs.size == m + 1:
        work[m] = coeffs[m]
    return _dct1(work)


def _extrema(n: int) -> np.ndarray:
    """The n + 1 extrema cos(pi j / n), j = 0..n, formed as
    sin(pi (n - 2j) / (2n)), so that x_{n-j} = -x_j exactly, within 6u of
    the cosine (see `_proven_interpolant`); n >= 1."""
    return np.sin(np.pi / (2 * n) * np.arange(n, -n - 1, -2))


def _fit_at_extrema(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant of the values at the n + 1
    extrema of `_extrema(n)`: one DCT-I divided by n, with the two end
    coefficients halved. The inverse of `cheb_values_at_extrema(., n)`;
    n >= 1."""
    coeffs = _dct1(values) / (values.size - 1)
    coeffs[[0, -1]] /= 2.0
    return coeffs


def _next_even_5_smooth(m: int) -> int:
    """The smallest even 5-smooth number at least m.

    A DCT-I at M + 1 points is a real FFT of length 2M, which numpy runs
    fast only when that length has small prime factors."""
    half = max(-(-m // 2), 1)
    best = 1 << (half - 1).bit_length()
    odd = 1
    while odd < best:
        factor = odd
        while factor < best:
            candidate = factor << (-(-half // factor) - 1).bit_length()
            best = min(best, candidate)
            factor *= 3
        odd *= 5
    return 2 * best


def certificate_extrema(n: int) -> int:
    """M of the certificate of a degree-n series: the smallest even
    5-smooth number at least CERT_EXTREMA_PER_DEGREE * max(n, 1).

    At a prime n, M = 8 n would put n in the FFT length; a larger M only
    shrinks h = pi / (2M)."""
    return _next_even_5_smooth(CERT_EXTREMA_PER_DEGREE * max(n, 1))


def _cosine_sum(theta: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_m c_m cos(m theta) at each point of the 1-d theta, that is the
    series at cos theta, in blocks of w = ceil(sqrt(n + 1)) orders.

    With m = q w + r, cos(m theta) = cos(q w theta) cos(r theta) -
    sin(q w theta) sin(r theta), so the sum is
    sum_q [cos(q w theta) C_q - sin(q w theta) S_q] with
    (C_q, S_q) = sum_r c_{qw+r} (cos(r theta), sin(r theta)):
    2 P (w + Q) cosines and sines, Q = ceil((n+1)/w), and one real
    (2 x w)(w x Q) product per point, instead of P (n + 1) cosines.
    w = ceil(sqrt(n + 1)) minimises w + Q at every degree, with no constant
    to tune. Each point runs its own product, so its value does not depend
    on the other points; the points are taken at most EVAL_CHUNK_ENTRIES
    pairs of angles at a time."""
    width = math.isqrt(max(coeffs.size - 1, 0)) + 1
    blocks = -(-coeffs.size // width)
    table = np.zeros(width * blocks)
    table[: coeffs.size] = coeffs
    table = table.reshape(blocks, width).T  # table[r, q] = c_{qw+r}
    inner_orders = np.arange(width)
    outer_orders = width * np.arange(blocks)
    rows = max(1, EVAL_CHUNK_ENTRIES // (width + blocks))
    total = np.empty_like(theta)
    for start in range(0, theta.size, rows):
        chunk = theta[start : start + rows]
        inner = np.multiply.outer(chunk, inner_orders)
        cos_sin = np.stack([np.cos(inner), np.sin(inner)], axis=1) @ table
        outer = np.multiply.outer(chunk, outer_orders)
        total[start : start + rows] = (
            np.cos(outer) * cos_sin[:, 0] - np.sin(outer) * cos_sin[:, 1]
        ).sum(axis=1)
    return total


def certified_sup(coeffs: np.ndarray) -> float:
    """A proven bound on sup |p| over [-1, 1] for the series p, from its
    values at the M + 1 extrema, M = `certificate_extrema(n)`, and the
    second-order Bernstein bound (see the module docstring)."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.size - 1
    m = certificate_extrema(n)
    h = np.pi / (2.0 * m)
    values = cheb_values_at_extrema(coeffs, m)
    return float(np.max(np.abs(values))) / (1.0 - 0.5 * (n * h) ** 2)


def _proven_degree(log_m, target: float):
    """The smallest n that 4 M rho^-n / (rho - 1) <= target proves for some
    rho = e^r of a grid, rounded up to an even 5-smooth number (a larger n
    only lowers the bound), or inf if no rho of the grid proves any.

    log_m(r) is log M(e^r) for an array of r > 0. The grid's 256 values of
    r run geometrically from 1e-7, where the degree would pass 10^7, to 8."""
    r = 1e-7 * np.exp(np.arange(256) * (math.log(8e7) / 255))
    with np.errstate(over="ignore"):
        need = (math.log(4.0 / target) + log_m(r) - np.log(np.expm1(r))) / r
    best = float(np.min(need))
    return _next_even_5_smooth(math.floor(best) + 1) if math.isfinite(best) else math.inf


def _proven_interpolant(f, n: int, target: float, sample_error: float) -> tuple[np.ndarray, float]:
    """Chebyshev coefficients of the interpolant of f in the n + 1 extrema,
    and a proven bound on the sup error of their series against f on
    [-1, 1], for a degree n = `_proven_degree(log_m, target)` that the
    caller has found (for the window, `window_parameters`).

    f maps an array of points of [-1, 1] to its values, and sample_error
    bounds the error of each value f gives at a computed extremum against f
    at the exact one: the extrema, formed as sin(pi (n - 2j) / (2n)), are
    within 6u of cos(pi j / n) (an argument within 2.5u relative, which
    moves sin by at most 0.57 of that, and 4 ulp for sin). The bound is
    target plus the roundoff, with u the unit roundoff:
    - The sample errors add at most the Lebesgue constant of the extrema,
      (2/pi) ln(n + 1) + 1 (Trefethen, Thm 15.2), times sample_error.
    - The real FFT of length 2n errs by at most 8 log2(2n) u in relative
      2-norm (N. J. Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., Thm 24.2). Its output has 2-norm at most 2n
      max |f|, so the coefficients, divided by n, err by at most
      16 sqrt(n + 1) log2(2n) u max |f| in sum |c_k|.
    - The division by n adds u sum |c_k|.
    The caller checks the degree first: nothing here bounds it."""
    values = f(_extrema(n))
    coeffs = _fit_at_extrema(values)
    lebesgue = 2.0 / math.pi * math.log(n + 1) + 1.0
    transform = 16.0 * math.sqrt(n + 1) * math.log2(2 * n) * float(np.max(np.abs(values)))
    roundoff = lebesgue * sample_error + (transform + float(np.sum(np.abs(coeffs)))) * _U
    return coeffs, target + roundoff


def jackson_damping(n: int) -> np.ndarray:
    """Jackson smoothing coefficients g_0..g_n for a degree-n truncation."""
    if n < 0:
        raise OutOfRangeError("n must be nonnegative")
    m = np.arange(n + 1)
    big = n + 1
    return ((big - m) * np.cos(np.pi * m / big) + np.sin(np.pi * m / big) / np.tan(np.pi / big)) / big


def amplifier_value(k: int, y):
    """The order-k amplifying polynomial: the probability that a
    Binomial(k, p) variable, p = (1+y)/2, reaches k/2, as its tail sum
    sum_{j>=m} C(k, j) p^j (1-p)^(k-j) with m = ceil(k/2). The sum runs one
    term at a time, so memory stays that of the points. Unused by the
    package (see the module docstring)."""
    m = (k + 1) // 2
    p = np.clip((1.0 + np.asarray(y, dtype=float)) / 2.0, 0.0, 1.0)
    q = 1.0 - p
    tail = np.zeros_like(p)
    for j in range(m, k + 1):
        tail += float(math.comb(k, j)) * p**j * q ** (k - j)
    return tail[()]  # a numpy scalar for scalar input, as from a ufunc


def amplifying_poly(k: int) -> ChebyshevPoly:
    """Bernoulli-tail polynomial of degree k: maps [3/5, 1] to within
    e^{-k/6} of 1 and [-1, -3/5] to within e^{-k/6} of 0, monotonically,
    interpolated at the k + 1 extrema. Unused by the package (see the
    module docstring)."""
    if k < 1:
        raise OutOfRangeError("amplifier order must be at least 1")
    coeffs = _fit_at_extrema(amplifier_value(k, _extrema(k)))
    # Values are probabilities, so sup |A_k| = 1 on [-1, 1] by construction.
    ends = chebval(np.array([-1.0, 1.0]), coeffs)
    if abs(ends[0]) > 1e-9 or abs(ends[1] - 1.0) > 1e-9:
        raise CertificationError(f"amplifier endpoints off: A({-1})={ends[0]}, A(1)={ends[1]}")
    return _proven(coeffs, 1.0)


def compose(outer: ChebyshevPoly, inner: ChebyshevPoly, scale_inner: float) -> ChebyshevPoly:
    """Coefficients of outer(scale_inner * inner(x)).

    The scaled inner values must stay within [-1, 1] (outer's certified
    domain); recovered by interpolation at the d + 1 extrema,
    d = deg(outer) deg(inner), which is exact for the composed polynomial;
    a constant outer or inner gives a constant. Unused by the package (see
    the module docstring).
    """
    reach = abs(scale_inner) * inner.sup_norm_bound
    if reach > 1.0 + 1e-9:
        raise RangeViolationError(
            f"scaled inner polynomial reaches {reach:.6g} > 1 on [-1, 1]"
        )
    if outer.degree == 0 or inner.degree == 0:
        value = float(chebval(scale_inner * inner.coeffs[0], outer.coeffs))
        return _proven([value], abs(value))
    d = outer.degree * inner.degree
    inner_vals = cheb_values_at_extrema(inner.coeffs, d) * scale_inner
    coeffs = _fit_at_extrema(chebval(inner_vals, outer.coeffs))
    return _proven(coeffs, outer.sup_norm_bound)


@dataclass(frozen=True, eq=False)
class WindowPoly:
    """A proven polynomial approximation of the indicator of [a_bar, b_bar]:
    at least 1 - tau inside, at most tau outside the kappa-strips, and
    within [0, 1] everywhere on [-1, 1].

    `poly` is the series (p + e)/(1 + 2e), p the interpolant of the erf
    window of `window_poly` and e = `fit_error` its proven sup error;
    `steepness` is the s of that window. Called on x, it evaluates `poly`
    at x clipped to [-1, 1] by its cosine sum.
    """

    # Proven by the construction: |p - f| <= e and 0 <= f <= 1.
    sup_norm_bound = 1.0

    a_bar: float
    b_bar: float
    kappa: float
    tau: float
    steepness: float
    fit_error: float
    poly: ChebyshevPoly

    @property
    def degree(self) -> int:
        return self.poly.degree

    def eval(self, x):
        """The series at x clipped to [-1, 1], as sum_m c_m cos(m arccos x)
        summed by `_cosine_sum` in blocks of ceil(sqrt(n + 1)) orders; each
        point's value is independent of the other points."""
        x = np.asarray(x, dtype=float)
        theta = np.arccos(np.clip(x, -1.0, 1.0)).reshape(-1)
        return _cosine_sum(theta, self.poly.coeffs).reshape(x.shape)[()]

    __call__ = eval


def _steepness(kappa: float, tau: float) -> float:
    """The smallest float s found by bisection with erfc(s kappa / 2) <= tau / 2,
    inf when kappa is too small for a finite one."""
    lo, hi = 0.0, 60.0 / kappa
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if math.erfc(mid * kappa / 2.0) <= tau / 2.0:
            hi = mid
        else:
            lo = mid
    return hi


def _erf_log_bound(s: float):
    """log M(e^r) for the window of steepness s: on E_rho, |Im z| <= sinh r,
    and integrating e^{-t^2} from the real axis gives
    |erf(s (z - c))| <= 1 + (2/sqrt(pi)) y e^{y^2}, y = s sinh r, for real
    c, so the half difference of two such erf obeys the same bound. In
    logs, so that a large y gives inf rather than an overflow."""

    def log_m(r):
        y = s * np.sinh(r)
        return np.logaddexp(0.0, math.log(2.0 / math.sqrt(math.pi)) + np.log(y) + y * y)

    return log_m


def _erf_edge(x: np.ndarray, s: float, centre: float) -> np.ndarray:
    """erf(s (x - centre)) at the points x: `math.erf` where
    |s (x - centre)| < 6, and +-1 elsewhere, which is its float value
    there (math.erf(6.0) == 1.0)."""
    t = s * (x - centre)
    out = np.sign(t)
    band = np.abs(t) < 6.0
    out[band] = _ERF(t[band])
    return out


def window_parameters(eta_rel: float) -> tuple[float, float, float, float]:
    """The (kappa, tau, s, degree) of the window for a relative budget
    eta_rel in (0, 1): kappa = tau = eta_rel / 4, the steepness s, and the
    degree `_proven_degree` proves for the error tau / 4, which never rises
    as eta_rel grows. Nothing of the size of the degree is allocated.
    OutOfRangeError outside (0, 1) or if no finite degree is proven (the
    degree may still pass MAX_WINDOW_DEGREE, which `window_poly` refuses)."""
    if not 0.0 < eta_rel < 1.0:
        raise OutOfRangeError(f"eta must be in (0, 1), got {eta_rel}")
    kappa = tau = eta_rel / 4.0
    # A subnormal eta_rel can make tau / 4 0.0, where no degree is proven.
    s = _steepness(kappa, tau) if tau / 4.0 > 0.0 else math.inf
    degree = _proven_degree(_erf_log_bound(s), tau / 4.0) if math.isfinite(s) else math.inf
    if not math.isfinite(degree):
        raise OutOfRangeError(f"eta {eta_rel!r} is too small: the window degree overflows")
    return kappa, tau, s, degree


def min_window_eta() -> float:
    """The smallest float eta_rel whose window degree is at most
    MAX_WINDOW_DEGREE, by bisection over the floats of (0, 1/2], as the
    degree never rises as eta_rel grows: about 60 calls of
    `window_parameters`, a few milliseconds."""
    lo, hi = 0.0, 0.5
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if window_parameters(mid)[3] <= MAX_WINDOW_DEGREE else (mid, hi)
    return hi


def window_poly(a_bar: float, b_bar: float, eta_rel: float) -> WindowPoly:
    """Construct and prove the window polynomial for [a_bar, b_bar].

    eta_rel is the error budget relative to the bound on the integrand:
    the windowed integral of any measure bounded (in the running-integral
    sense) by f_max deviates from the sharp integral by at most
    eta_rel * f_max. With kappa = tau = eta_rel / 4 (`window_parameters`),
    the window is fitted to

        f(x) = [erf(s (x - a_bar + kappa/2)) - erf(s (x - b_bar - kappa/2))] / 2,

    with s set so that erfc(s kappa / 2) <= tau / 2. Then f >= 1 - tau/2 on
    [a_bar, b_bar], f <= tau/4 outside the kappa-strips, and 0 < f < 1.
    Its interpolant p is proven within tau/4 of f by the Bernstein-ellipse
    bound, with M(rho) = 1 + (2/sqrt(pi)) s b e^{(s b)^2}, b = sinh r
    (`_erf_log_bound`); the roundoff of the fit and of the map below is
    added, giving e. The series (p + e)/(1 + 2e) lies in [0, 1], is at least
    (1 - tau/2)/(1 + 2e) inside and at most (tau/4 + 2e)/(1 + 2e) outside
    the strips, which are 1 - tau and tau within the margin checked below. The paper's window, a Jackson-damped soft
    step composed with an amplifier of degree n k, meets the same contract
    at about 23 times this degree.

    Each sample errs by at most 4 (s + 4) u, u the unit roundoff: the
    extremum errs by 6u and f has slope at most s/sqrt(pi); the argument
    s (x - c), under 6 in the band, takes two roundings of at most 6u each,
    erf having slope at most 2/sqrt(pi); math.erf and the +-1 outside the
    band err by under u, and the half difference adds u. The affine map
    rounds each coefficient at most twice, which the 4u (sum |c_k| + 2)
    added to e covers.

    Raises:
        DegreeTooLargeError: for a degree above MAX_WINDOW_DEGREE, that is
            for eta_rel below `min_window_eta()` (the degree grows like
            (1/eta) sqrt(ln(1/eta))).
        BadIntervalError: if the window plus margin does not fit in (-1, 1).
        CertificationError: if the roundoff leaves the window no margin:
            the float centres shift f by up to 2 (s + 1) u, and the contract
            needs 2 (s + 1) u + 2 (e - tau/4) <= tau^2 / 2.
    """
    kappa, tau, s, degree = window_parameters(eta_rel)
    if degree > MAX_WINDOW_DEGREE:
        raise DegreeTooLargeError(
            f"eta={eta_rel:.4g} gives degree {degree}, above the ceiling {MAX_WINDOW_DEGREE}"
        )
    if not a_bar < b_bar:
        raise BadIntervalError(f"need a_bar < b_bar, got [{a_bar}, {b_bar}]")
    if not (-1.0 < a_bar - kappa and b_bar + kappa < 1.0):
        raise BadIntervalError(
            f"window [{a_bar}, {b_bar}] with margin {kappa} does not fit inside (-1, 1)"
        )
    left, right = a_bar - kappa / 2.0, b_bar + kappa / 2.0

    def window(x):
        return 0.5 * (_erf_edge(x, s, left) - _erf_edge(x, s, right))

    coeffs, fit_error = _proven_interpolant(window, degree, tau / 4.0, 4.0 * (s + 4.0) * _U)
    error = fit_error + 4.0 * _U * (float(np.sum(np.abs(coeffs))) + 2.0)
    slack = 2.0 * (s + 1.0) * _U + 2.0 * (error - tau / 4.0)
    if slack > tau * tau / 2.0:
        raise CertificationError(f"window roundoff {slack:.3g} exceeds its margin tau^2/2")
    coeffs[0] += error
    coeffs /= 1.0 + 2.0 * error
    return WindowPoly(a_bar, b_bar, kappa, tau, s, error, _proven(coeffs, 1.0))


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
