"""Chebyshev-basis polynomials and the window-polynomial construction.

Provides Clenshaw evaluation, a constructive Jackson approximation of the
soft step, the Bernoulli-tail amplifying polynomial, their composition into
a certified window polynomial, and kernel-polynomial reconstruction from
Chebyshev moments.

A series is evaluated three ways. `ChebyshevPoly.__call__` and
`kpm_reconstruct` run Clenshaw's recurrence (`chebval`). The window's
Jackson series at P points, and at the certificate's kinks, is the cosine
sum sum_m c_m cos(m theta) taken in blocks of w = ceil(sqrt(n + 1))
orders (`_cosine_sum`): P (w + (n+1)/w) complex exponentials instead of
P (n + 1) cosines. At the extrema cos(j pi / M) of an even M with
M/2 >= n + 1, the odd j are the first-kind nodes of the half grid (a
DCT-III) and the even j its extrema; the grid halves r times, until it
is odd or below 2(n + 1), and one DCT-I finishes it, so the FFT lengths
add up to M + M/2^r rather than 2M (`cheb_values_at_extrema`).

Certification is a proof, not a sampled check. A degree-n series p is
evaluated at the M + 1 extrema cos(j pi / M), M >= 8 n, as above; in
theta they are a grid of covering radius h = pi / (2M). p(cos theta) is an
even trigonometric polynomial of degree n, so Bernstein's inequality,
applied twice, gives |d^2/dtheta^2 p| <= n^2 S with S = sup|p|. At a
maximiser of |p| the derivative vanishes (at 0 and pi by evenness), and a
second-order Taylor step to the nearest grid point gives
S <= max_j |p| / (1 - (n h)^2 / 2). For a target f, piecewise linear in x
with kinks x_c in [-1, 1], the error g = p - f(cos theta) has
|g''| <= n^2 S + L on every piece, where L bounds |d^2/dtheta^2 f(cos theta)|
(the largest slope of f will do). A maximiser of |g| is either a kink or a
critical point of its piece, and a critical point lies within h of a grid
point or of a kink of that piece; so sup|g| <= max(max_j |g|, max_c |g|) +
h^2 (n^2 S + L) / 2. Constructors raise CertificationError rather than
return a polynomial that misses its guarantees.

The window is built and certified only where its step slopes: the soft
step is -1 or +1 but on two strips of width kappa, under 1% of the grid.
One reader, `_on_grid`, gives a piecewise-linear target on either grid:
it reads the target within one index of a sloped piece and fills each
flat piece with its value (for the certificate, its midpoint value). The
fit takes the nodes and forms only the n + 1 coefficients it keeps
(`jackson_approx`), the certificate the extrema (`certified_bounds`), and
bounds and coefficients are the whole-grid computation's bit for bit.

The package needs numpy alone. The cosine transforms are numpy FFTs: a
DCT-I is the real FFT of the even extension, and a DCT-II or DCT-III is
one half-spectrum real FFT after Makhoul's reordering (J. Makhoul, "A fast
cosine transform in one and two dimensions", IEEE Trans. ASSP 28, 1980).
The amplifier is its binomial tail sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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
# Refusing very small eta keeps the window degree n k at or below 787,200
# (eta = 0.005: n = 19,200, k = 41); the composed series of that degree is
# built only when `poly` is read.
MIN_ETA_REL = 0.005
AMPLIFIER_INNER_SCALE = 0.8
# Complex exponentials per chunk of points in `_cosine_sum` (4 MB of
# complex128), which bounds its memory at any number of points.
EVAL_CHUNK_ENTRIES = 2**18


@dataclass(frozen=True, eq=False)
class ChebyshevPoly:
    """Coefficients c_0..c_d in the T_k basis, with a proven bound
    `sup_norm_bound` on sup |p(x)| over [-1, 1]: the constructor's is
    min(sum_k |c_k|, the Bernstein bound of `certified_bounds`), and the
    package's constructors record the bound their construction proves.
    No caller can assert a bound."""

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
        bound = min(float(np.sum(np.abs(c))), certified_bounds(c, np.zeros_like, (), 0.0)[0])
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


def _dct2(x: np.ndarray) -> np.ndarray:
    """DCT-II, y_k = 2 sum_j x_j cos(pi k (2j+1)/(2N)), by Makhoul's reordering.

    With z_k = `_twiddled_spectrum` of x, y_k = 2 Re z_k and
    y_{N-k} = -2 Im z_k, so half the spectrum is enough.
    """
    n = x.size
    half = n // 2
    z = _twiddled_spectrum(x, half + 1)
    y = np.empty(n)
    y[: half + 1] = 2.0 * z.real
    y[half + 1 :] = -2.0 * z.imag[n - half - 1 : 0 : -1]
    return y


def _twiddled_spectrum(x: np.ndarray, count: int) -> np.ndarray:
    """z_k = e^{-i pi k/(2N)} V_k for k < count <= N/2 + 1, V the FFT of
    Makhoul's reordering v = (x_0, x_2, ..., x_3, x_1) of x."""
    z = np.fft.rfft(np.concatenate([x[::2], x[1::2][::-1]]))[:count]
    z *= np.exp(-0.5j * np.pi / x.size * np.arange(count))
    return z


def _dct3(x: np.ndarray) -> np.ndarray:
    """DCT-III, y_k = x_0 + 2 sum_{j>=1} x_j cos(pi j (2k+1)/(2N)), the inverse
    of `_dct2` up to the factor 2N, by undoing Makhoul's reordering."""
    n = x.size
    k = np.arange(n // 2 + 1)
    mirrored = np.concatenate([[0.0], x[:0:-1]])[k]  # x_{N-k}, with x_N = 0
    return _undo_reordering((x[k] - 1j * mirrored) * np.exp(0.5j * np.pi / n * k), n)


def _undo_reordering(u: np.ndarray, n: int) -> np.ndarray:
    """The DCT-III of length n from its pre-twiddled half spectrum
    u_k = (x_k - i x_{n-k}) e^{i pi k/(2n)}, k = 0..n/2."""
    v = np.fft.irfft(u, n, norm="forward")
    y = np.empty(n)
    y[::2] = v[: (n + 1) // 2]
    y[1::2] = v[(n + 1) // 2 :][::-1]
    return y


def cheb_values_at_nodes(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Values of a Chebyshev series at the m first-kind nodes cos(pi(i+1/2)/m).

    Exact (up to roundoff) whenever m >= len(coeffs); computed with a DCT-III
    in O(m log m). When len(coeffs) <= m/2 the zero-padded input has
    x_{m-k} = 0 for every k <= m/2, so only its nonzero entries are
    pre-twiddled, by the operations `_dct3` applies to them.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size > m:
        raise ValueError("need at least as many nodes as coefficients")
    if 2 * coeffs.size > m:
        work = np.zeros(m)
        work[0] = coeffs[0]
        work[1 : coeffs.size] = coeffs[1:] / 2.0
        return _dct3(work)
    head = np.empty(coeffs.size)
    head[0] = coeffs[0]
    head[1:] = coeffs[1:] / 2.0
    u = np.zeros(m // 2 + 1, dtype=complex)
    u[: coeffs.size] = head * np.exp(0.5j * np.pi / m * np.arange(coeffs.size))
    return _undo_reordering(u, m)


def cheb_values_at_extrema(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Values of a Chebyshev series at the m + 1 extrema cos(pi j/m), j = 0..m.

    Exact (up to roundoff) whenever m >= degree; computed in O(m log m) by
    `_values_at_extrema`.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size > m + 1:
        raise ValueError("need m at least the degree of the series")
    return _values_at_extrema(coeffs, m)


def _values_at_extrema(coeffs: np.ndarray, m: int) -> np.ndarray:
    """The values at cos(pi j/m). For even m with m/2 >= n + 1 the even j
    are the extrema of the half grid, and the odd j = 2i + 1 its first-kind
    nodes cos(pi (i + 1/2)/(m/2)), which a DCT-III of length m/2 gives; so
    the grid halves until it is odd or too coarse for the nodes, and that
    last grid takes one DCT-I."""
    half = m // 2
    if m % 2 or half < coeffs.size:
        work = np.zeros(m + 1)
        work[: coeffs.size] = coeffs / 2.0
        work[0] = coeffs[0]
        if coeffs.size == m + 1:
            work[m] = coeffs[m]
        return _dct1(work)
    values = np.empty(m + 1)
    values[::2] = _values_at_extrema(coeffs, half)
    values[1::2] = cheb_values_at_nodes(coeffs, half)
    return values


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

    With m = q w + r the sum is Re sum_q e^{i q w theta} sum_r c_{qw+r} e^{i r theta}:
    P (w + Q) complex exponentials, Q = ceil((n+1)/w), and one (1 x w)(w x Q)
    product per point, instead of P (n + 1) cosines. w = ceil(sqrt(n + 1))
    minimises w + Q at every degree, with no constant to tune. Each point
    runs its own product, so its value does not depend on the other points;
    the points are taken at most EVAL_CHUNK_ENTRIES exponentials at a time."""
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
        inner = np.exp(1j * np.multiply.outer(chunk, inner_orders))[:, None, :] @ table
        outer = np.exp(1j * np.multiply.outer(chunk, outer_orders))
        total[start : start + rows] = (outer * inner[:, 0]).real.sum(axis=1)
    return total


def certified_bounds(
    coeffs: np.ndarray, target, kinks, target_curvature: float
) -> tuple[float, float]:
    """Proven bounds (sup |p|, sup |p - target|) over [-1, 1] for the series p.

    From the values at the M + 1 extrema, M = `certificate_extrema(n)`, the
    values at the kinks, and the second-order Bernstein bound (see the
    module docstring). target must be linear in x between the kinks, and
    target_curvature must bound |d^2/dtheta^2 target(cos theta)| on each
    piece.

    target is read once at the knots -1, kinks, 1 and the midpoints of
    the pieces between them (`_knot_values`), and on the extrema only
    within one index of a sloped piece (`_on_grid`). Every extremum is
    still compared with the value target gives it, so the bounds, and the
    proof, are the whole grid's.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    kinks = np.asarray(kinks, dtype=float).reshape(-1)
    if not np.all(np.abs(kinks) <= 1.0):
        raise ValueError("kinks must lie in [-1, 1]")
    n = coeffs.size - 1
    m = certificate_extrema(n)
    h = np.pi / (2.0 * m)
    values = cheb_values_at_extrema(coeffs, m)
    sup = float(np.max(np.abs(values))) / (1.0 - 0.5 * (n * h) ** 2)
    knots = np.unique(np.concatenate([[-1.0], kinks, [1.0]]))
    at_knots, levels = _knot_values(target, knots)
    is_kink = np.isin(knots, kinks)
    at_kinks = _cosine_sum(np.arccos(knots[is_kink]), coeffs) - at_knots[is_kink]
    worst = max(
        _grid_error(values, target, knots, levels),
        float(np.max(np.abs(at_kinks), initial=0.0)),
    )
    gap = worst + 0.5 * h**2 * (n**2 * sup + target_curvature)
    return sup, gap


def _knot_values(target, knots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """target at the sorted knots, and each piece's level: its midpoint
    value where both its ends lie within the slack of it, NaN where the
    piece slopes. The slack is 1e-12 max(1, |y|) for the chord y plus the
    largest slope times eps, as the target's own kink may sit half an ulp
    from its float knot; a ValueError names a piece whose midpoint value
    is farther than that from its chord."""
    lo, hi = knots[:-1], knots[1:]
    mids = 0.5 * (lo + hi)
    y = np.asarray(target(np.concatenate([knots, mids])), dtype=float)
    at_knots, at_mids = y[: knots.size], y[knots.size :]
    slopes = (at_knots[1:] - at_knots[:-1]) / (hi - lo)
    chord = at_knots[:-1] + slopes * (mids - lo)
    slack = 1e-12 * np.maximum(1.0, np.abs(chord)) + np.finfo(float).eps * np.max(np.abs(slopes))
    off = np.flatnonzero(np.abs(at_mids - chord) > slack)
    if off.size:
        i = off[0]
        raise ValueError(
            f"target is not linear on the piece [{lo[i]:.17g}, {hi[i]:.17g}] between its "
            f"kinks: at its midpoint {mids[i]:.17g} it is {at_mids[i]:.17g}, the chord gives "
            f"{chord[i]:.17g}"
        )
    flat = (np.abs(at_knots[:-1] - at_mids) <= slack) & (np.abs(at_knots[1:] - at_mids) <= slack)
    return at_knots, np.where(flat, at_mids, np.nan)


def _grid_error(values: np.ndarray, target, knots: np.ndarray, levels: np.ndarray) -> float:
    """max_j |p(x_j) - target(x_j)| over the extrema x_j = cos(pi j/m) of
    the values p(x_j), taken in place: a second temporary of the grid's
    size would fault its pages in on every call."""
    error = _on_grid(target, knots, levels, values.size - 1, nodes=False)
    np.subtract(values, error, out=error)
    return float(np.max(np.abs(error, out=error)))


def _on_grid(target, knots: np.ndarray, levels: np.ndarray, m: int, nodes: bool) -> np.ndarray:
    """target at the m first-kind nodes cos(pi (i + 1/2)/m) if nodes, else
    at the m + 1 extrema cos(pi j/m) of an even m. target is linear between
    the sorted knots -1, ..., 1, and levels[i] is its value on the piece
    from knot i to i + 1, NaN if that piece slopes.

    Knot x sits at m arccos(x)/pi on the extrema, less 1/2 on the nodes;
    the index grows as x falls. Points within one index of a sloped piece
    read target; every other point lies in a flat piece, where target is
    the piece's level."""
    size, shift, points = (m, 0.5, _nodes_at) if nodes else (m + 1, 0.0, _extrema_at)
    at = m * np.arccos(knots) / np.pi - shift
    at[0], at[-1] = m - shift, -shift
    grid = np.empty(size)
    rows = []
    for i, level in enumerate(levels):
        if math.isnan(level):
            first, last = max(math.floor(at[i + 1]) - 1, 0), min(math.ceil(at[i]) + 1, size - 1)
            rows.append(np.arange(first, last + 1))
        else:
            grid[math.ceil(at[i + 1]) : math.floor(at[i]) + 1] = level
    if rows:
        j = np.concatenate(rows)
        grid[j] = target(points(j, m))
    return grid


def _extrema_at(j: np.ndarray, m: int) -> np.ndarray:
    """The extrema cos(pi j/m) at the indices j of an even m, the upper half
    mirrored from the lower as -cos(pi (m - j)/m), so the grid is
    antisymmetric bit for bit."""
    x = np.cos(np.pi * np.minimum(j, m - j) / m)
    np.negative(x, out=x, where=j > m // 2)
    return x


def cheb_fit_at_nodes(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients interpolating values at the first-kind nodes.

    Inverse of cheb_values_at_nodes; exact for polynomials of degree
    < len(values).
    """
    values = np.asarray(values, dtype=float)
    m = values.size
    c = _dct2(values) / m
    c[0] /= 2.0
    return c


def first_kind_nodes(m: int) -> np.ndarray:
    return _nodes_at(np.arange(m), m)


def _nodes_at(i: np.ndarray, m: int) -> np.ndarray:
    """The first-kind nodes cos(pi (i + 1/2)/m) at the indices i."""
    return np.cos(np.pi * (i + 0.5) / m)


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
    by `certified_bounds` against the step, with kinks a_bar - kappa, a_bar,
    b_bar, b_bar + kappa and curvature in theta at most its slope 2/kappa;
    raises CertificationError if the proven gap exceeds 1/4. The
    proven sup-norm bound (at most 5/4) is recorded on the result.

    The fit reads the step at the 4 n first-kind nodes only on its strips,
    where it slopes, and takes its levels -1, 1, -1 elsewhere (`_on_grid`);
    it forms only the first n + 1 twiddled entries of the DCT-II, by the
    operations `cheb_fit_at_nodes` applies to them: the coefficients are
    the whole fit's bit for bit, proven as before.
    """
    _validate_window_interval(a_bar, b_bar, kappa)
    n = int(n)
    if n < 24.0 / kappa - 1e-9:
        raise OutOfRangeError(f"degree n={n} below 24/kappa={24.0 / kappa:.6g}")
    kinks = (a_bar - kappa, a_bar, b_bar, b_bar + kappa)
    step = lambda x: soft_step(x, a_bar, b_bar, kappa)  # noqa: E731
    levels = np.array([-1.0, np.nan, 1.0, np.nan, -1.0])
    at_nodes = _on_grid(step, np.array([-1.0, *kinks, 1.0]), levels, 4 * n, nodes=True)
    raw = 2.0 * _twiddled_spectrum(at_nodes, n + 1).real
    raw /= 4 * n
    raw[0] /= 2.0
    coeffs = raw * jackson_damping(n)

    sup, gap = certified_bounds(coeffs, step, kinks, 2.0 / kappa)
    if gap > 0.25:
        raise CertificationError(f"step approximation not proven within 1/4 (gap bound {gap:.6g})")
    # |step| <= 1, so 1 + gap is a second proven bound.
    return _proven(coeffs, min(sup, 1.0 + gap))


def amplifier_value(k: int, y):
    """The order-k amplifying polynomial: the probability that a
    Binomial(k, p) variable, p = (1+y)/2, reaches k/2, as its tail sum
    sum_{j>=m} C(k, j) p^j (1-p)^(k-j) with m = ceil(k/2). The sum runs one
    term at a time, so memory stays that of the points."""
    m = (k + 1) // 2
    p = np.clip((1.0 + np.asarray(y, dtype=float)) / 2.0, 0.0, 1.0)
    q = 1.0 - p
    tail = np.zeros_like(p)
    for j in range(m, k + 1):
        tail += float(math.comb(k, j)) * p**j * q ** (k - j)
    return tail[()]  # a numpy scalar for scalar input, as from a ufunc


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
    return _proven(coeffs, 1.0)


def compose(outer: ChebyshevPoly, inner: ChebyshevPoly, scale_inner: float) -> ChebyshevPoly:
    """Coefficients of outer(scale_inner * inner(x)).

    The scaled inner values must stay within [-1, 1] (outer's certified
    domain); recovered by interpolation at deg(outer)*deg(inner) + 1
    Chebyshev nodes, which is exact for the composed polynomial.
    """
    reach = abs(scale_inner) * inner.sup_norm_bound
    if reach > 1.0 + 1e-9:
        raise RangeViolationError(
            f"scaled inner polynomial reaches {reach:.6g} > 1 on [-1, 1]"
        )
    if outer.degree == 0:
        return _proven(outer.coeffs, abs(float(outer.coeffs[0])))
    d = outer.degree * inner.degree
    inner_vals = cheb_values_at_nodes(inner.coeffs, d + 1) * scale_inner
    outer_vals = chebval(inner_vals, outer.coeffs)
    coeffs = cheb_fit_at_nodes(outer_vals)
    return _proven(coeffs, outer.sup_norm_bound)


@dataclass(frozen=True, eq=False)
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
        J(x) = sum_m c_m cos(m arccos x) summed by `_cosine_sum` in blocks
        of ceil(sqrt(n + 1)) orders; each point's value is independent of
        the other points."""
        x = np.asarray(x, dtype=float)
        theta = np.arccos(np.clip(x, -1.0, 1.0)).reshape(-1)
        jackson = _cosine_sum(theta, self.jackson_poly.coeffs)
        inner = AMPLIFIER_INNER_SCALE * jackson.reshape(x.shape)
        return amplifier_value(self.amplifier_order, inner)

    __call__ = eval


def window_parameters(eta_rel: float) -> tuple[float, int, int, float]:
    """The (kappa, n, k, tau) parameter chain for a relative budget eta_rel
    in (0, 1); OutOfRangeError outside it or if the degree n overflows."""
    if not 0.0 < eta_rel < 1.0:
        raise OutOfRangeError(f"eta must be in (0, 1), got {eta_rel}")
    kappa = eta_rel / 4.0
    # A subnormal eta_rel can make kappa 0.0, where the division would raise.
    degree = 24.0 / kappa - 1e-9 if kappa > 0.0 else math.inf
    if degree == math.inf:
        raise OutOfRangeError(f"eta {eta_rel!r} is too small: the window degree overflows")
    n = math.ceil(degree)
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
        DegreeTooLargeError: for eta_rel below MIN_ETA_REL unless allow_large_degree
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
    reach = AMPLIFIER_INNER_SCALE * jackson.sup_norm_bound
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
