import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.chebyshev import cheb2poly, chebval

from blocksketch import chebyshev
from blocksketch.block_encoding import encode_pauli_sum
from blocksketch.chebyshev import (
    ChebyshevPoly,
    amplifier_value,
    amplifying_poly,
    cheb_values_at_extrema,
    certified_bounds,
    chebyshev_t,
    compose,
    jackson_approx,
    jackson_damping,
    kpm_reconstruct,
    soft_step,
    sup_norm,
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
    inner = ChebyshevPoly(rng.normal(size=5) / 10.0, sup_norm_bound=None)
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
    big = ChebyshevPoly(np.array([0.0, 2.0]), sup_norm_bound=2.0)
    with pytest.raises(RangeViolationError):
        compose(chebyshev_t(2), big, 1.0)


def test_window_parameters_eta_01():
    kappa, n, k, tau = window_parameters(0.1)
    assert kappa == pytest.approx(0.025)
    assert (n, k) == (960, 23)
    assert tau == pytest.approx(math.exp(-23 / 6), rel=1e-12)
    assert tau <= 0.1 / 4


def test_window_poly_metadata_and_guardrail():
    w = window_poly(-0.3, 0.4, 0.1)
    assert (w.jackson_degree, w.amplifier_order, w.degree) == (960, 23, 22080)
    assert w.tau == pytest.approx(math.exp(-23 / 6))
    with pytest.raises(OutOfRangeError):
        window_poly(-0.3, 0.4, 0.015)
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


# SHA-256 of `window-poly --a=-0.5 --b=0.5 --eta 0.1 --output` as written
# by the grid-certified construction; the proof must not move a coefficient.
WINDOW_SHA256 = "e3ddd4cbfa9f16b36dbf79ddb768b215e12710af1021fc9f87fc47ebc3c8781c"


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
        sup, gap = certified_bounds(coeffs, np.zeros_like, 0.0)
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
        sup, gap = certified_bounds(j.coeffs, step, 2.0 / kappa)
        assert j.sup_norm_bound == min(sup, 1.0 + gap)
        sampled = cheb_values_at_extrema(j.coeffs, fine)
        assert np.max(np.abs(sampled)) <= sup <= 1.25
        assert np.max(np.abs(sampled - step(_extrema(fine)))) <= gap <= 0.25


def test_overdamped_step_approximant_fails_the_certificate(monkeypatch):
    # A Jackson kernel of an eighth of the degree smooths the step over a
    # width far beyond kappa. (An undamped series passes: the soft step is
    # continuous, so truncation has no Gibbs overshoot.)
    def overdamped(n):
        return np.concatenate([jackson_damping(n // 8), np.zeros(n - n // 8)])

    monkeypatch.setattr(chebyshev, "jackson_damping", overdamped)
    with pytest.raises(CertificationError):
        jackson_approx(-0.3, 0.4, 0.025, 960)


def test_sampled_sup_norm_is_exact_for_chebyshev_basis():
    for n in (0, 1, 5, 1000, 70_001):
        assert sup_norm(ChebyshevPoly(chebyshev_t(n).coeffs)) == pytest.approx(1.0, abs=1e-12)


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
