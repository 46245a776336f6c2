import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.chebyshev import cheb2poly, chebval

from blocksketch import chebyshev
from blocksketch.block_encoding import encode_pauli_sum
from blocksketch.chebyshev import (
    ChebyshevPoly,
    amplifier_value,
    amplifying_poly,
    cheb_fit_at_nodes,
    cheb_values_at_extrema,
    cheb_values_at_nodes,
    certificate_extrema,
    certified_bounds,
    chebyshev_t,
    compose,
    jackson_approx,
    jackson_damping,
    kpm_reconstruct,
    soft_step,
    window_parameters,
    window_poly,
)
from blocksketch.cli import main
from blocksketch.errors import (
    BadIntervalError,
    CertificationError,
    GridOutOfRangeError,
    OutOfRangeError,
    RangeViolationError,
)
from blocksketch.spectral import apply_polynomial
from conftest import random_pauli_sum


def test_poly_call_examples():
    t3 = chebyshev_t(3)
    assert t3(1.0) == pytest.approx(1.0)
    assert t3(0.5) == pytest.approx(-1.0)  # 4 x^3 - 3 x at 1/2
    assert chebyshev_t(4)(-1.0) == pytest.approx(1.0)


def test_poly_call_matches_monomials(rng):
    for _ in range(10):
        d = int(rng.integers(1, 21))
        p = ChebyshevPoly(rng.normal(size=d + 1))
        xs = rng.uniform(-1, 1, size=40)
        mono = np.polynomial.polynomial.polyval(xs, cheb2poly(p.coeffs))
        assert np.max(np.abs(p(xs) - mono)) < 1e-9


def test_jackson_approx_bounds():
    kappa = 0.1
    n = 240
    j = jackson_approx(-0.2, 0.3, kappa, n)
    assert j.degree == n
    mid = 0.05
    assert abs(j(mid) - 1.0) <= 0.25
    for x in (-0.9, 0.8, -0.5):
        assert abs(j(x) + 1.0) <= 0.25
    assert j.sup_norm_bound <= 1.25


def test_jackson_symmetric_window_even():
    j = jackson_approx(-0.2, 0.2, 0.05, 480)
    assert np.max(np.abs(j.coeffs[1::2])) < 1e-9


def test_jackson_validation():
    with pytest.raises(BadIntervalError):
        jackson_approx(-0.99, 0.5, 0.1, 240)  # left margin pokes out
    with pytest.raises(BadIntervalError):
        jackson_approx(0.5, -0.5, 0.1, 240)
    with pytest.raises(OutOfRangeError):
        jackson_approx(-0.2, 0.2, 0.1, 100)  # n below 24/kappa


def test_amplifier_examples():
    a1 = amplifying_poly(1)
    assert np.allclose(a1.coeffs, [0.5, 0.5])
    assert a1(0.0) == pytest.approx(0.5)
    assert amplifying_poly(2)(0.0) == pytest.approx(0.75)
    for k in (1, 2, 5, 17, 40):
        ak = amplifying_poly(k)
        assert ak(1.0) == pytest.approx(1.0, abs=1e-9)
        assert ak(-1.0) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(OutOfRangeError):
        amplifying_poly(0)


def test_amplifier_envelope_and_monotone():
    grid = np.linspace(-1, 1, 10_000)
    for k in range(1, 41):
        vals = amplifier_value(k, grid)
        tau = math.exp(-k / 6.0)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(vals[grid >= 0.6] >= 1.0 - tau - 1e-12)
        assert np.all(vals[grid <= -0.6] <= tau + 1e-12)
        assert np.all((vals >= -1e-12) & (vals <= 1.0 + 1e-12))


def test_compose_semigroup():
    t6 = compose(chebyshev_t(2), chebyshev_t(3), 1.0)
    assert t6.degree == 6
    assert np.max(np.abs(t6.coeffs - chebyshev_t(6).coeffs)) < 1e-10
    t4 = compose(chebyshev_t(2), chebyshev_t(2), 1.0)
    assert np.max(np.abs(t4.coeffs - chebyshev_t(4).coeffs)) < 1e-10


def test_compose_identity_outer(rng):
    inner = ChebyshevPoly(rng.normal(size=5) / 10.0)
    out = compose(chebyshev_t(1), inner, 0.5)
    assert np.max(np.abs(out.coeffs - 0.5 * inner.coeffs)) < 1e-10


def test_compose_nested_agreement(rng):
    j = jackson_approx(-0.3, 0.2, 0.1, 240)
    a1 = amplifying_poly(1)
    w = compose(a1, j, 0.8)
    xs = rng.uniform(-1, 1, size=1000)
    nested = (1.0 + 0.8 * j(xs)) / 2.0
    assert np.max(np.abs(w(xs) - nested)) < 1e-8


def test_compose_range_violation():
    big = ChebyshevPoly(np.array([0.0, 2.0]))
    with pytest.raises(RangeViolationError):
        compose(chebyshev_t(2), big, 1.0)


def test_window_parameters_eta_01():
    kappa, n, k, tau = window_parameters(0.1)
    assert kappa == pytest.approx(0.025)
    assert (n, k) == (960, 23)
    assert tau == pytest.approx(math.exp(-23 / 6), rel=1e-12)
    assert tau <= 0.1 / 4


@pytest.mark.parametrize("eta", [1.7e-307, 1e-320, 5e-324, 0.0])
def test_window_parameters_refuse_an_eta_whose_degree_overflows(eta):
    """24/kappa is inf for a tiny eta, and kappa = eta/4 is 0.0 for the
    smallest subnormals: both are refused as out of range."""
    with pytest.raises(OutOfRangeError, match="eta"):
        window_parameters(eta)


def test_window_poly_metadata_and_guardrail():
    w = window_poly(-0.3, 0.4, 0.1)
    assert (w.jackson_degree, w.amplifier_order, w.degree) == (960, 23, 22080)
    assert w.tau == pytest.approx(math.exp(-23 / 6))
    with pytest.raises(OutOfRangeError):
        window_poly(-0.3, 0.4, 0.004)
    with pytest.raises(BadIntervalError):
        window_poly(-0.999, 0.4, 0.1)
    with pytest.raises(OutOfRangeError):
        window_poly(-0.3, 0.4, 1.5)


def test_window_regions_on_grid():
    w = window_poly(-0.5, 0.5, 0.2)
    grid = np.linspace(-1, 1, 100_000)
    vals = w.eval(grid)
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)
    inside = (grid >= -0.5) & (grid <= 0.5)
    outside = (grid < -0.5 - w.kappa) | (grid > 0.5 + w.kappa)
    assert np.all(vals[inside] >= 1.0 - w.tau - 1e-12)
    assert np.all(vals[outside] <= w.tau + 1e-12)
    assert np.all(vals[outside] >= -1e-12)
    # factored and coefficient forms agree
    xs = grid[::9999]
    assert np.max(np.abs(vals[::9999] - chebval(xs, w.poly.coeffs))) < 1e-9


def test_window_degree_growth_ratio():
    # d should grow like (1/eta) ln(1/eta): the normalized ratio stays bounded
    ratios = []
    for eta in (0.4, 0.2, 0.1, 0.05):
        _, n, k, _ = window_parameters(eta)
        ratios.append(n * k * eta / math.log(1.0 / eta))
    assert max(ratios) / min(ratios) < 8.0


def test_window_quadrature():
    w = window_poly(-0.3, 0.4, 0.2)
    m = 4 * w.degree
    nodes = np.cos(np.pi * (np.arange(m) + 0.5) / m)
    integral = np.pi / m * np.sum(w.eval(nodes) * np.sqrt(1.0 - nodes**2))
    width = 0.7
    slack = 2 * w.tau + 2 * w.kappa
    assert width - slack <= integral <= width + slack


def test_soft_step_shape():
    xs = np.array([-1.0, -0.35, -0.3, 0.0, 0.4, 0.45, 1.0])
    vals = soft_step(xs, -0.3, 0.4, 0.05)
    assert np.allclose(vals, [-1, -1, 1, 1, 1, -1, -1])
    assert soft_step(np.array([-0.325]), -0.3, 0.4, 0.05)[0] == pytest.approx(0.0)


def test_jackson_damping_normalization():
    g = jackson_damping(8)
    assert g[0] == pytest.approx(1.0)
    assert np.all(np.diff(g) <= 1e-12)


def _flat_measure_moments(max_order):
    # mu_n = integral of T_n(x) / 2 over [-1, 1], by midpoint quadrature
    edges = np.linspace(-1, 1, 200_001)
    xs = (edges[:-1] + edges[1:]) / 2.0
    out = []
    for n in range(max_order + 1):
        c = np.zeros(n + 1)
        c[n] = 1.0
        out.append(np.mean(chebval(xs, c)))
    return np.array(out)


def test_kpm_flat_measure():
    moments = _flat_measure_moments(64)
    assert moments[0] == pytest.approx(1.0, abs=1e-6)
    assert moments[1] == pytest.approx(0.0, abs=1e-6)
    assert moments[2] == pytest.approx(-1.0 / 3.0, abs=1e-6)
    grid = np.linspace(-0.999, 0.999, 801)
    recon = kpm_reconstruct(moments, grid)
    assert np.all(recon >= -1e-9)
    # Gauss-Chebyshev integral of the reconstruction recovers mu_0 within 2%
    m = 2048
    nodes = np.cos(np.pi * (np.arange(m) + 0.5) / m)
    total = np.pi / m * np.sum(kpm_reconstruct(moments, nodes) * np.sqrt(1 - nodes**2))
    assert total == pytest.approx(1.0, rel=0.02)


def test_kpm_point_spectrum():
    max_order = 48
    moments = np.array([chebval(0.0, np.eye(n + 1)[n]) for n in range(max_order + 1)])
    grid = np.linspace(-0.9, 0.9, 361)
    recon = kpm_reconstruct(moments, grid)
    assert grid[np.argmax(recon)] == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(recon - recon[::-1])) < 1e-9


def test_kpm_zeroth_only():
    grid = np.array([-0.5, 0.0, 0.7])
    recon = kpm_reconstruct([1.0], grid)
    expected = 1.0 / (np.pi * np.sqrt(1 - grid**2))
    assert np.allclose(recon, expected)


def test_kpm_grid_validation():
    with pytest.raises(GridOutOfRangeError):
        kpm_reconstruct([1.0, 0.0], [0.5, 1.0])


# SHA-256 of `window-poly --a=-0.5 --b=0.5 --eta 0.1 --output`; a change to
# the certificate or the evaluation must not move a coefficient.
WINDOW_SHA256 = "0f2d8525d5c806321ad0bf3479411467fc8987adfdf618962f09a187fd4ab1d7"


def _extrema(m):
    return np.cos(np.pi * np.arange(m + 1) / m)


def test_values_at_extrema_match_chebval(rng):
    for d in (0, 1, 2, 7, 40):
        coeffs = rng.normal(size=d + 1)
        for m in {max(d, 1), d + 1, 3 * d + 5}:
            got = cheb_values_at_extrema(coeffs, m)
            assert np.max(np.abs(got - chebval(_extrema(m), coeffs))) < 1e-12
    with pytest.raises(ValueError):
        cheb_values_at_extrema(np.ones(5), 3)


def test_proven_sup_bound_covers_a_dense_uniform_sample(rng):
    xs = np.linspace(-1.0, 1.0, 10**6)
    for d in (1, 2, 3, 5, 8, 13, 21, 34, 55, 64):
        coeffs = rng.normal(size=d + 1)
        sup, gap = certified_bounds(coeffs, np.zeros_like, (), 0.0)
        assert sup == pytest.approx(gap, rel=1e-12)
        assert sup >= np.max(np.abs(chebval(xs, coeffs)))


def test_proven_step_gap_covers_the_sampled_gap_on_workload_bins():
    # The 10 unit energy bins of the 4-qubit TFIM chain (alpha = 5.8) at eta 0.025.
    kappa, n, _, _ = window_parameters(0.025)
    fine = 256 * n
    for lo in range(-5, 5):
        a_bar, b_bar = lo / 5.8, (lo + 1) / 5.8
        j = jackson_approx(a_bar, b_bar, kappa, n)
        step = lambda x: soft_step(x, a_bar, b_bar, kappa)  # noqa: E731
        kinks = (a_bar - kappa, a_bar, b_bar, b_bar + kappa)
        sup, gap = certified_bounds(j.coeffs, step, kinks, 2.0 / kappa)
        assert j.sup_norm_bound == min(sup, 1.0 + gap)
        sampled = cheb_values_at_extrema(j.coeffs, fine)
        assert np.max(np.abs(sampled)) <= sup <= 1.25
        assert np.max(np.abs(sampled - step(_extrema(fine)))) <= gap <= 0.25
        first_sup, first_gap = _first_order_bounds(j.coeffs, step, 2.0 / kappa)
        assert sup < first_sup and gap <= first_gap


def _first_order_bounds(coeffs, target, slope):
    """The first-order Bernstein certificate on M = 32 n extrema, kept here
    as a reference: sup <= max |p| / (1 - n h) and
    gap <= max |p - f| + h (n sup + slope)."""
    n = coeffs.size - 1
    m = 32 * n
    h = np.pi / (2.0 * m)
    values = cheb_values_at_extrema(coeffs, m)
    sup = np.max(np.abs(values)) / (1.0 - n * h)
    return sup, np.max(np.abs(values - target(_extrema(m)))) + h * (n * sup + slope)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("eta", [0.4, 0.1, 0.025, 0.005])
def test_second_order_bounds_cover_a_dense_sample_on_seeded_windows(eta, seed):
    kappa, n, _, _ = window_parameters(eta)
    rng = np.random.default_rng(seed)
    a_bar = rng.uniform(-1.0 + kappa + 1e-3, 0.5)
    b_bar = rng.uniform(a_bar + 1e-3, 1.0 - kappa - 1e-3)
    j = jackson_approx(a_bar, b_bar, kappa, n)
    step = lambda x: soft_step(x, a_bar, b_bar, kappa)  # noqa: E731
    kinks = (a_bar - kappa, a_bar, b_bar, b_bar + kappa)
    sup, gap = certified_bounds(j.coeffs, step, kinks, 2.0 / kappa)
    dense = cheb_values_at_extrema(j.coeffs, 64 * n)
    assert np.max(np.abs(dense)) <= sup <= 1.02
    assert np.max(np.abs(dense - step(_extrema(64 * n)))) <= gap <= 0.25
    first_sup, first_gap = _first_order_bounds(j.coeffs, step, 2.0 / kappa)
    assert sup < first_sup and gap <= first_gap


def test_kink_between_grid_points_is_covered_by_the_kink_term():
    # p = T_16 / 2 is certified on M = 128 extrema. The target is a tent of
    # height 2 and half-width 0.004 with its apex midway between the grid
    # angles 64 pi / 128 and 65 pi / 128, so it vanishes at every grid point
    # and the worst error |p - f| sits at the apex kink.
    coeffs = np.zeros(17)
    coeffs[16] = 0.5
    m = certificate_extrema(16)
    assert m == 128
    apex, half_width = np.cos(np.pi / 2 + np.pi / (2 * m)), 0.004

    def tent(x):
        return 2.0 * np.maximum(0.0, 1.0 - np.abs(np.asarray(x) - apex) / half_width)

    assert np.all(tent(_extrema(m)) == 0.0)
    kinks = (apex - half_width, apex, apex + half_width)
    sup, gap = certified_bounds(coeffs, tent, kinks, 2.0 / half_width)
    worst = abs(chebval(apex, coeffs) - 2.0)
    assert worst > 1.5
    dense = np.concatenate([_extrema(64 * 16), kinks])
    assert np.max(np.abs(chebval(dense, coeffs) - tent(dense))) == pytest.approx(worst)
    assert worst <= gap and sup >= 0.5
    with pytest.raises(ValueError):
        certified_bounds(coeffs, tent, (1.5,), 0.0)


def test_window_at_the_degree_guard_has_a_pinned_memory_ceiling():
    tracemalloc.start()
    try:
        w = window_poly(-0.3, 0.2, 0.005, allow_large_degree=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.degree == 787_200
    # Measured 8.4 MB; a certificate on 32 n extrema would take 29.4 MB.
    assert peak / 2**20 <= 10.0


def test_overdamped_step_approximant_fails_the_certificate(monkeypatch):
    # A Jackson kernel of an eighth of the degree smooths the step over a
    # width far beyond kappa. (An undamped series passes: the soft step is
    # continuous, so truncation has no Gibbs overshoot.)
    def overdamped(n):
        return np.concatenate([jackson_damping(n // 8), np.zeros(n - n // 8)])

    monkeypatch.setattr(chebyshev, "jackson_damping", overdamped)
    with pytest.raises(CertificationError):
        jackson_approx(-0.3, 0.4, 0.025, 960)


def test_proven_sup_norm_of_the_chebyshev_basis_is_one():
    # sum |c_k| = 1 is exact; the Bernstein bound exceeds 1 by its slack
    for n in (0, 1, 5, 1000, 70_001):
        assert ChebyshevPoly(chebyshev_t(n).coeffs).sup_norm_bound == 1.0


def test_proven_sup_norm_is_the_smaller_proof_and_bounds_every_sample(monkeypatch):
    seen = []
    extrema = chebyshev.cheb_values_at_extrema

    def recording(coeffs, m):
        seen.append((np.asarray(coeffs).size - 1, m))
        return extrema(coeffs, m)

    # At the prime degree 3847 the certificate runs on its 5-smooth grid.
    coeffs = np.random.default_rng(3847).normal(size=3848)
    monkeypatch.setattr(chebyshev, "cheb_values_at_extrema", recording)
    p = ChebyshevPoly(coeffs)
    assert seen == [(3847, certificate_extrema(3847))]
    bernstein, _gap = certified_bounds(coeffs, np.zeros_like, (), 0.0)
    # For random coefficients the certificate (about sqrt(n)) beats sum |c_k|.
    assert p.sup_norm_bound == bernstein < np.sum(np.abs(coeffs))
    assert p.sup_norm_bound >= np.max(np.abs(extrema(coeffs, 2**18)))


def test_sup_norm_bound_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        ChebyshevPoly(np.array([0.0, 3.0]), sup_norm_bound=0.9)


def test_factored_window_application_matches_composed_series(rng):
    h = encode_pauli_sum(random_pauli_sum(rng, 3, 6))
    w = window_poly(-0.3, 0.4, 0.1)
    factored = apply_polynomial(h, w, 0.01)
    composed = apply_polynomial(h, w.poly, 0.01)
    assert np.max(np.abs(factored.block - composed.block)) < 1e-12
    assert (factored.scale, factored.accuracy, factored.cost) == (
        composed.scale, composed.accuracy, composed.cost
    )


def test_window_poly_coefficients_are_pinned(tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert main(["window-poly", "--a=-0.5", "--b=0.5", "--eta", "0.1", "--output", str(out)]) == 0
    assert "grid_max_violation=0\n" in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WINDOW_SHA256


@pytest.mark.parametrize("eta", [0.2, 0.1, 0.025, 0.02])
def test_window_eval_matches_the_clenshaw_factored_form(eta):
    w = window_poly(-0.3, 0.4, eta)
    xs = np.random.default_rng(7).uniform(-1.0, 1.0, 10**4)
    clenshaw = amplifier_value(w.amplifier_order, 0.8 * chebval(xs, w.jackson_poly.coeffs))
    assert np.max(np.abs(w(xs) - clenshaw)) <= 1e-12


def test_window_eval_keeps_the_input_shape():
    w = window_poly(-0.3, 0.4, 0.2)
    grid = np.linspace(-0.9, 0.9, 12).reshape(3, 4)
    for x in (0.25, np.array(0.25), grid, np.array([]), np.zeros((2, 0))):
        assert np.shape(w(x)) == np.shape(x)
    assert np.array_equal(w(grid), w(grid.ravel()).reshape(3, 4))
    assert w(0.25) == w(np.array([0.25]))[0]


def test_window_eval_memory_is_bounded_by_chunks():
    w = window_poly(-0.3, 0.4, 0.1)
    xs = np.linspace(-1.0, 1.0, 10**5)
    tracemalloc.start()
    try:
        w.eval(xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # An unchunked 10^5 x 961 cosine matrix alone would take 769 MB.
    assert peak / 2**20 <= 16.0


def test_window_series_is_built_once_on_first_read():
    w = window_poly(-0.3, 0.4, 0.1)
    assert "poly" not in vars(w)
    assert w.poly is w.poly
    assert w.poly.degree == w.jackson_degree * w.amplifier_order == w.degree


INTEGRAL_JOBS = {
    "dos": "dos --hamiltonian h.txt --integral -1 1 --eps 0.3",
    "ldos": "ldos --hamiltonian h.txt --integral -1 1 --eps 0.3 --state basis.txt",
    "response": "response --hamiltonian h.txt --integral -1 1 --eps 0.3 "
    "--observable-b b.txt --observable-c c.txt --state mixed.txt",
}


@pytest.mark.parametrize("job", sorted(INTEGRAL_JOBS))
@pytest.mark.parametrize("flags", ["--mode exact", "--mode sampled --seed 3", "--oracle"])
def test_integral_sketches_never_compose_the_window_series(job, flags, tmp_path, monkeypatch):
    files = {
        "h.txt": "1.0 ZZ\n0.7 XI\n0.7 IX\n",
        "b.txt": "0.6 ZI\n0.3 XY\n",
        "c.txt": "0.5 XI\n0.2 IZ\n",
        "basis.txt": "basis 1\n",
        "mixed.txt": "mixed\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)

    def refuse(*args, **kwargs):
        raise AssertionError("chebyshev.compose ran on the integral sketch path")

    monkeypatch.setattr(chebyshev, "compose", refuse)
    argv = [str(tmp_path / t) if t.endswith(".txt") else t for t in INTEGRAL_JOBS[job].split()]
    out = tmp_path / "out.csv"
    assert main(argv + flags.split() + ["--output", str(out)]) == 0
    assert out.read_text().count("\n") == 2


def test_window_poly_output_composes_the_series_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return compose(*args, **kwargs)

    monkeypatch.setattr(chebyshev, "compose", counted)
    out = tmp_path / "w.csv"
    assert main(["window-poly", "--a=-0.5", "--b=0.5", "--eta", "0.1", "--output", str(out)]) == 0
    assert len(calls) == 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WINDOW_SHA256


TRANSFORM_SIZES = (2, 3, 4, 5, 8, 31, 32, 33, 257)


def _direct_dct(x, kind):
    """The O(N^2) cosine sums of the DCT of type `kind`, with each integer
    phase reduced modulo its period before the cosine."""
    n = x.size
    j = np.arange(n)
    k = j[:, None]
    if kind == 1:
        weights = np.full(n, 2.0)
        weights[[0, -1]] = 1.0
        return (np.cos(np.pi * (k * j % (2 * (n - 1))) / (n - 1)) * weights) @ x
    if kind == 2:
        return 2.0 * np.cos(np.pi * (k * (2 * j + 1) % (4 * n)) / (2 * n)) @ x
    weights = np.full(n, 2.0)
    weights[0] = 1.0
    return (np.cos(np.pi * (j * (2 * k + 1) % (4 * n)) / (2 * n)) * weights) @ x


@pytest.mark.parametrize("kind", [1, 2, 3])
@pytest.mark.parametrize("n", TRANSFORM_SIZES)
def test_cosine_transforms_match_the_direct_sums(kind, n):
    x = np.random.default_rng(n).normal(size=n)
    got = {1: chebyshev._dct1, 2: chebyshev._dct2, 3: chebyshev._dct3}[kind](x)
    want = _direct_dct(x, kind)
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", TRANSFORM_SIZES)
def test_node_values_and_node_fit_invert_each_other(n):
    coeffs = np.random.default_rng(n).normal(size=n)
    for m in (n, n + 3):
        fitted = cheb_fit_at_nodes(cheb_values_at_nodes(coeffs, m))
        assert np.max(np.abs(fitted[:n] - coeffs)) <= 1e-13 * np.max(np.abs(coeffs))
        assert np.max(np.abs(fitted[n:]), initial=0.0) <= 1e-13 * np.max(np.abs(coeffs))


def test_window_with_a_prime_jackson_degree():
    # n = 967 is prime, so the DCT-I at 32 n + 1 extrema and the DCT-II at
    # 4 n nodes run FFTs whose length has a large prime factor.
    eta = 96.0 / 966.5
    w = window_poly(-0.3, 0.45, eta)
    assert w.jackson_degree == 967
    xs = np.random.default_rng(5).uniform(-1.0, 1.0, 1000)
    clenshaw = amplifier_value(w.amplifier_order, 0.8 * chebval(xs, w.jackson_poly.coeffs))
    assert np.max(np.abs(w(xs) - clenshaw)) <= 1e-12
    m = 32 * 967
    picks = np.arange(0, m + 1, 97)
    values = cheb_values_at_extrema(w.jackson_poly.coeffs, m)[picks]
    assert np.max(np.abs(values - chebval(_extrema(m)[picks], w.jackson_poly.coeffs))) <= 1e-12


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_certificate_extrema_is_the_next_even_5_smooth_number():
    for n in [*range(0, 400), 967, 3840, 3847, 119_040]:
        m = certificate_extrema(n)
        assert m >= 8 * max(n, 1) and m % 2 == 0 and _is_5_smooth(m)
        assert not any(_is_5_smooth(c) for c in range(8 * max(n, 1), m, 2))
    # The benchmark's n = 3840 keeps M = 8 n.
    assert certificate_extrema(3840) == 8 * 3840


def test_window_with_a_prime_jackson_degree_certifies_on_a_5_smooth_grid(monkeypatch):
    seen = []
    extrema = chebyshev.cheb_values_at_extrema

    def recording(coeffs, m):
        seen.append((np.asarray(coeffs).size - 1, m))
        return extrema(coeffs, m)

    monkeypatch.setattr(chebyshev, "cheb_values_at_extrema", recording)
    # a = -0.3, b = 0.45 at this eta gives the prime Jackson degree 3847.
    w = window_poly(-0.3, 0.45, 96.0 / 3846.5)
    assert w.jackson_degree == 3847
    assert seen == [(3847, 31_104)]
    assert _is_5_smooth(31_104) and 31_104 >= 8 * 3847
    assert w.jackson_poly.sup_norm_bound <= 1.25
    xs = np.random.default_rng(6).uniform(-1.0, 1.0, 200)
    clenshaw = amplifier_value(w.amplifier_order, 0.8 * chebval(xs, w.jackson_poly.coeffs))
    assert np.max(np.abs(w(xs) - clenshaw)) <= 1e-12


def _exact_binomial_tail(k, p):
    """P[Binomial(k, p) >= ceil(k/2)] in exact rational arithmetic."""
    num, den = Fraction(p).as_integer_ratio()
    m = (k + 1) // 2
    tail = sum(math.comb(k, j) * num**j * (den - num) ** (k - j) for j in range(m, k + 1))
    return Fraction(tail, den**k)


def test_amplifier_value_is_the_exact_binomial_tail():
    ys = np.concatenate([np.linspace(-1.0, 1.0, 41), [-1 + 1e-9, -0.999, 0.999, 1 - 1e-9]])
    grid = np.linspace(-1.0, 1.0, 10_001)
    for k in range(1, 62):
        got = amplifier_value(k, ys)
        ps = np.clip((1.0 + ys) / 2.0, 0.0, 1.0)
        for value, p in zip(got, ps):
            exact = _exact_binomial_tail(k, float(p))
            assert abs(Fraction(float(value)) - exact) <= Fraction(1, 10**13) * exact
        vals = amplifier_value(k, grid)
        assert (vals[0], vals[-1]) == (0.0, 1.0)
        # Monotone up to the roundoff of a sum of terms of size at most 1.
        assert np.all(np.diff(vals) >= -1e-15)


def test_written_window_series_evaluates_to_the_factored_window(tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert main(["window-poly", "--a=-0.5", "--b=0.5", "--eta", "0.1", "--output", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[1] == "k,coeff"
    coeffs = np.array([float(row.split(",")[1]) for row in rows[2:]])
    w = window_poly(-0.5, 0.5, 0.1)
    assert coeffs.size == w.degree + 1
    xs = np.random.default_rng(13).uniform(-1.0, 1.0, 1000)
    assert np.max(np.abs(chebval(xs, coeffs) - w(xs))) <= 1e-12


def _cosine_table_sum(theta, coeffs):
    """The series at cos theta as a (points x (n+1)) cosine table times the
    coefficients, chunked as `chebyshev._cosine_sum` once was: the reference
    for the blocked sum."""
    orders = np.arange(coeffs.size)
    rows = max(1, chebyshev.EVAL_CHUNK_ENTRIES // coeffs.size)
    total = np.empty_like(theta)
    for start in range(0, theta.size, rows):
        chunk = theta[start : start + rows]
        total[start : start + rows] = np.cos(np.multiply.outer(chunk, orders)) @ coeffs
    return total


# n + 1 = 64 fills the 8 x 8 coefficient table of the blocked sum; n = 62
# and n = 64 pad it. 3,840 and 19,200 are the Jackson degrees at eta 0.025
# and at the degree guard.
@pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 3840, 19_200])
def test_blocked_cosine_sum_matches_the_cosine_table(n):
    rng = np.random.default_rng(n)
    coeffs = rng.normal(size=n + 1)
    theta = np.concatenate([[0.0, np.pi, np.pi / 2], rng.uniform(0.0, np.pi, 200)])
    got = chebyshev._cosine_sum(theta, coeffs)
    assert got.shape == theta.shape
    assert np.max(np.abs(got - _cosine_table_sum(theta, coeffs))) <= 1e-13 * np.sum(np.abs(coeffs))
    assert chebyshev._cosine_sum(np.array([]), coeffs).shape == (0,)


def test_blocked_cosine_sum_of_a_point_does_not_depend_on_the_others(monkeypatch):
    coeffs = window_poly(-0.3, 0.4, 0.1).jackson_poly.coeffs
    theta = np.random.default_rng(5).uniform(0.0, np.pi, 300)
    together = chebyshev._cosine_sum(theta, coeffs)
    alone = [chebyshev._cosine_sum(theta[i : i + 1], coeffs)[0] for i in range(theta.size)]
    assert together.tobytes() == np.array(alone).tobytes()
    # Chunks of 2 or 3 points (62 exponentials per point at n = 960).
    monkeypatch.setattr(chebyshev, "EVAL_CHUNK_ENTRIES", 150)
    assert chebyshev._cosine_sum(theta, coeffs).tobytes() == together.tobytes()


@pytest.mark.parametrize(
    "n, m",
    [
        (40, 82),  # even m with m/2 = n + 1: one halving
        (40, 320),  # m = 8 n: halves to 80, where m/2 = n takes the DCT-I
        (40, 80),  # m/2 = n: the DCT-I directly
        (40, 81),  # odd m
        (0, 8),
    ],
)
def test_values_at_extrema_on_both_paths_match_chebval(n, m):
    coeffs = np.random.default_rng(m).normal(size=n + 1)
    got = cheb_values_at_extrema(coeffs, m)
    assert got.shape == (m + 1,)
    want = chebval(_extrema(m), coeffs)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(coeffs))


def test_values_at_extrema_on_the_certificate_grid_match_the_direct_sums():
    # At n = 3,840 Clenshaw's own error near x = +-1 exceeds the transform's,
    # so the reference is sum_k c_k cos(pi (k j mod 2m) / m) at sampled j.
    n = 3840
    m = certificate_extrema(n)
    coeffs = np.random.default_rng(n).normal(size=n + 1)
    got = cheb_values_at_extrema(coeffs, m)
    j = np.concatenate([[0, 1, m // 2, m - 1, m], np.random.default_rng(1).integers(0, m + 1, 200)])
    phases = np.multiply.outer(j, np.arange(n + 1)) % (2 * m)
    want = np.cos(np.pi * phases / m) @ coeffs
    assert np.max(np.abs(got[j] - want)) <= 1e-13 * np.sum(np.abs(coeffs))


def _whole_grid_jackson(a_bar, b_bar, kappa, n):
    """The step fit on every one of the 4 n nodes with the whole DCT-II,
    kept here as the reference for the strip-only fit."""
    nodes = chebyshev.first_kind_nodes(4 * n)
    return cheb_fit_at_nodes(soft_step(nodes, a_bar, b_bar, kappa))[: n + 1] * jackson_damping(n)


def _whole_grid_bounds(coeffs, target, kinks, target_curvature):
    """The certificate with target read at all M + 1 extrema, kept here as
    the reference for the piecewise one."""
    kinks = np.asarray(kinks, dtype=float).reshape(-1)
    n = coeffs.size - 1
    m = certificate_extrema(n)
    h = np.pi / (2.0 * m)
    values = cheb_values_at_extrema(coeffs, m)
    sup = float(np.max(np.abs(values))) / (1.0 - 0.5 * (n * h) ** 2)
    half = m // 2
    extrema = np.empty(m + 1)
    extrema[: half + 1] = np.cos(np.pi * np.arange(half + 1) / m)
    extrema[half + 1 :] = -extrema[half - 1 :: -1]
    at_kinks = chebyshev._cosine_sum(np.arccos(kinks), coeffs) - target(kinks)
    worst = max(
        float(np.max(np.abs(values - target(extrema)))),
        float(np.max(np.abs(at_kinks), initial=0.0)),
    )
    return sup, worst + 0.5 * h**2 * (n**2 * sup + target_curvature)


def _seeded_window(eta, seed):
    kappa, n, _, _ = window_parameters(eta)
    rng = np.random.default_rng(seed)
    a_bar = rng.uniform(-1.0 + kappa + 1e-3, 0.5)
    return a_bar, rng.uniform(a_bar + 1e-3, 1.0 - kappa - 1e-3), kappa, n


def _window_cases():
    kappa, n, _, _ = window_parameters(0.025)
    cases = [(lo / 5.8, (lo + 1) / 5.8, kappa, n) for lo in range(-5, 5)]
    cases += [_seeded_window(eta, seed) for eta in (0.4, 0.1, 0.025, 0.005) for seed in (1, 2, 3)]
    # The prime degree 3847, certified on M = 31,104 != 8 n.
    cases.append((-0.3, 0.45, *window_parameters(96.0 / 3846.5)[:2]))
    # Strips a few nodes from -1 and from +1: node i of 4 n sits at
    # cos(pi (i + 1/2) / (4 n)).
    kappa, n, _, _ = window_parameters(0.1)
    near_one = math.cos(np.pi * 3.0 / (4 * n))
    cases.append((-near_one + kappa, near_one - kappa, kappa, n))
    cases.append((-near_one + kappa, 0.2, kappa, n))
    # A plateau narrower than one node spacing (pi / (4 n) at x = 0).
    cases.append((0.01, 0.01 + 0.2 * np.pi / (4 * n), kappa, n))
    return cases


@pytest.mark.parametrize("a_bar, b_bar, kappa, n", _window_cases())
def test_strip_fit_and_piecewise_certificate_match_the_whole_grid_bit_for_bit(a_bar, b_bar, kappa, n):
    j = jackson_approx(a_bar, b_bar, kappa, n)
    reference = _whole_grid_jackson(a_bar, b_bar, kappa, n)
    assert np.array_equal(j.coeffs, reference)
    step = lambda x: soft_step(x, a_bar, b_bar, kappa)  # noqa: E731
    kinks = (a_bar - kappa, a_bar, b_bar, b_bar + kappa)
    sup, gap = _whole_grid_bounds(reference, step, kinks, 2.0 / kappa)
    assert certified_bounds(reference, step, kinks, 2.0 / kappa) == (sup, gap)
    assert j.sup_norm_bound == min(sup, 1.0 + gap)


@pytest.mark.parametrize("lo", range(-5, 5))
def test_certificate_reads_the_step_only_on_its_strips(lo):
    # The unit bins of the 4-qubit chain (alpha = 5.8) at eta = 0.025: the
    # knots and midpoints take 11 reads, and the M + 1 = 30,721 extrema at
    # most 220, however far soft_step(a_bar) sits from the 1.0 inside.
    kappa, n, _, _ = window_parameters(0.025)
    a_bar, b_bar = lo / 5.8, (lo + 1) / 5.8
    reads = []

    def step(x):
        reads.append(np.size(x))
        return soft_step(x, a_bar, b_bar, kappa)

    coeffs = jackson_approx(a_bar, b_bar, kappa, n).coeffs
    certified_bounds(coeffs, step, (a_bar - kappa, a_bar, b_bar, b_bar + kappa), 2.0 / kappa)
    assert reads[0] == 11
    assert sum(reads[1:]) <= 220


def test_piecewise_certificate_matches_the_whole_grid_on_other_targets():
    rng = np.random.default_rng(29)
    for d in (0, 1, 2, 17, 64, 3847):
        coeffs = rng.normal(size=d + 1)
        assert certified_bounds(coeffs, np.zeros_like, (), 0.0) == _whole_grid_bounds(
            coeffs, np.zeros_like, (), 0.0
        )
        # A kink at an end of [-1, 1] and a repeated one.
        kinks = (-1.0, -0.2, 0.3, 0.3, 0.8)
        tent = lambda x: np.maximum(0.0, 0.5 - np.abs(np.asarray(x) - 0.3))  # noqa: E731
        assert certified_bounds(coeffs, tent, kinks, 1.0) == _whole_grid_bounds(
            coeffs, tent, kinks, 1.0
        )


def test_certificate_refuses_a_target_that_is_not_linear_between_its_kinks():
    coeffs = np.random.default_rng(2).normal(size=9)
    with pytest.raises(ValueError, match=r"not linear on the piece \[-1, 1\]"):
        certified_bounds(coeffs, np.square, (), 2.0)
    a_bar, b_bar, kappa = -0.3, 0.4, 0.025
    step = lambda x: soft_step(x, a_bar, b_bar, kappa)  # noqa: E731
    with pytest.raises(ValueError, match=r"not linear on the piece \[-0.325\d*, 0.4\d*\]"):
        certified_bounds(coeffs, step, (a_bar - kappa, b_bar, b_bar + kappa), 2.0 / kappa)
    # The full kink list passes, at every window size down to tiny kappa.
    for kappa in (0.025, 0.00125, 2.5e-5):
        kinks = (a_bar - kappa, a_bar, b_bar, b_bar + kappa)
        chebyshev._knot_values(step, np.array([-1.0, *kinks, 1.0]))


@pytest.mark.parametrize("m", [*TRANSFORM_SIZES, 15_360])
def test_padded_node_values_skip_the_zero_padding_bit_for_bit(m):
    rng = np.random.default_rng(m)
    for size in sorted({1, 2, m // 4 + 1, m // 2, 3841} & set(range(1, m // 2 + 1))):
        coeffs = rng.normal(size=size)
        padded = np.zeros(m)
        padded[0] = coeffs[0]
        padded[1:size] = coeffs[1:] / 2.0
        assert np.array_equal(cheb_values_at_nodes(coeffs, m), chebyshev._dct3(padded))


def test_piecewise_grid_error_compares_every_extremum():
    # A spike at one extremum must show in the error wherever it sits:
    # on a constant piece, on a sloped one, at a knot on the grid, or at
    # the ends. Knots are drawn on and off the grid, with repeated values.
    rng = np.random.default_rng(4)
    for m in (8, 30, 128):
        for _ in range(30):
            kinks = rng.uniform(-1.0, 1.0, 4)
            kinks[:2] = chebyshev._extrema_at(rng.integers(0, m + 1, 2), m)
            knots = np.unique(np.concatenate([[-1.0], kinks, [1.0]]))
            y = rng.choice([-1.0, 0.5, 1.0], knots.size)
            target = lambda x: np.interp(x, knots, y)  # noqa: E731
            levels = chebyshev._knot_values(target, knots)[1]
            for j in range(m + 1):
                spike = np.zeros(m + 1)
                spike[j] = 1e6
                assert chebyshev._grid_error(spike, target, knots, levels) >= 1e6 - 1.0
