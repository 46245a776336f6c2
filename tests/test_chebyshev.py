import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import cheb2poly, chebval

from blocksketch import chebyshev
from blocksketch.block_encoding import encode_pauli_sum
from blocksketch.chebyshev import (
    MAX_WINDOW_DEGREE,
    ChebyshevPoly,
    amplifier_value,
    amplifying_poly,
    cheb_values_at_extrema,
    certificate_extrema,
    certified_sup,
    chebyshev_t,
    compose,
    jackson_damping,
    kpm_reconstruct,
    min_window_eta,
    window_parameters,
    window_poly,
)
from blocksketch.cli import main
from blocksketch.errors import (
    BadIntervalError,
    CertificationError,
    DegreeTooLargeError,
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
    j = window_poly(-0.3, 0.2, 0.1).poly
    a1 = amplifying_poly(1)
    w = compose(a1, j, 0.8)
    xs = rng.uniform(-1, 1, size=1000)
    nested = (1.0 + 0.8 * j(xs)) / 2.0
    assert np.max(np.abs(w(xs) - nested)) < 1e-8


def test_compose_with_a_constant_inner_series_is_a_constant():
    inner = ChebyshevPoly(np.array([0.4]))
    out = compose(chebyshev_t(3), inner, 0.5)
    assert out.degree == 0
    assert out.coeffs[0] == pytest.approx(chebval(0.2, chebyshev_t(3).coeffs), abs=1e-15)
    assert out.sup_norm_bound == abs(out.coeffs[0])


def test_compose_range_violation():
    big = ChebyshevPoly(np.array([0.0, 2.0]))
    with pytest.raises(RangeViolationError):
        compose(chebyshev_t(2), big, 1.0)


def test_window_parameters_eta_01():
    kappa, tau, s, degree = window_parameters(0.1)
    assert kappa == tau == 0.1 / 4
    # s is the bisection's smallest float with erfc(s kappa / 2) <= tau / 2.
    assert math.erfc(s * kappa / 2) <= tau / 2 < math.erfc(math.nextafter(s, 0.0) * kappa / 2)
    assert degree == 960


@pytest.mark.parametrize("eta", [1.7e-307, 1e-320, 5e-324, 0.0])
def test_window_parameters_refuse_an_eta_whose_degree_overflows(eta):
    """24/kappa is inf for a tiny eta, and kappa = eta/4 is 0.0 for the
    smallest subnormals: both are refused as out of range."""
    with pytest.raises(OutOfRangeError, match="eta"):
        window_parameters(eta)


def test_window_poly_metadata_and_guardrail():
    w = window_poly(-0.3, 0.4, 0.1)
    assert (w.kappa, w.tau, w.steepness, w.degree) == window_parameters(0.1)
    assert w.degree == w.poly.degree == 960
    with pytest.raises(DegreeTooLargeError):
        window_poly(-0.3, 0.4, math.nextafter(min_window_eta(), 0.0))
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
    # d should grow like (1/eta) sqrt(ln(1/eta)): the normalized ratio stays bounded
    ratios = []
    for eta in (0.4, 0.2, 0.1, 0.05, 0.01, 0.005):
        degree = window_parameters(eta)[3]
        ratios.append(degree * eta / math.sqrt(math.log(1.0 / eta)))
    assert max(ratios) / min(ratios) < 2.0


def test_window_quadrature():
    w = window_poly(-0.3, 0.4, 0.2)
    m = 4 * w.degree
    nodes = np.cos(np.pi * (np.arange(m) + 0.5) / m)
    integral = np.pi / m * np.sum(w.eval(nodes) * np.sqrt(1.0 - nodes**2))
    width = 0.7
    slack = 2 * w.tau + 2 * w.kappa
    assert width - slack <= integral <= width + slack


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
# the fit or the evaluation must not move a coefficient.
WINDOW_SHA256 = "c01ad54d9ccd686d942754c66e7e9843d4a1b44b5741db35c2a09411707fcd7e"


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
        assert certified_sup(coeffs) >= np.max(np.abs(chebval(xs, coeffs)))


def test_window_at_the_degree_guard_has_a_pinned_memory_ceiling():
    tracemalloc.start()
    try:
        w = window_poly(-0.3, 0.2, 0.005)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.degree == 32_768
    # Measured 1.4 MB.
    assert peak / 2**20 <= 2.0


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
    bernstein = certified_sup(coeffs)
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
    assert "\nfit_error=0.00625" in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WINDOW_SHA256


@pytest.mark.parametrize("eta", [0.2, 0.1, 0.025, 0.02])
def test_window_eval_matches_clenshaw_on_its_series(eta):
    w = window_poly(-0.3, 0.4, eta)
    xs = np.random.default_rng(7).uniform(-1.0, 1.0, 10**4)
    assert np.max(np.abs(w(xs) - chebval(xs, w.poly.coeffs))) <= 1e-12


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


TRANSFORM_SIZES = (2, 3, 4, 5, 8, 31, 32, 33, 257)


def _direct_dct(x, kind):
    """The O(N^2) cosine sums of the DCT of type `kind`, with each integer
    phase reduced modulo its period before the cosine. Only type 1, the
    module's one transform, is written out."""
    assert kind == 1
    n = x.size
    j = np.arange(n)
    k = j[:, None]
    weights = np.full(n, 2.0)
    weights[[0, -1]] = 1.0
    return (np.cos(np.pi * (k * j % (2 * (n - 1))) / (n - 1)) * weights) @ x


@pytest.mark.parametrize("kind", [1])
@pytest.mark.parametrize("n", TRANSFORM_SIZES)
def test_cosine_transforms_match_the_direct_sums(kind, n):
    x = np.random.default_rng(n).normal(size=n)
    got = chebyshev._dct1(x)
    want = _direct_dct(x, kind)
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", TRANSFORM_SIZES)
def test_node_values_and_node_fit_invert_each_other(n):
    """The nodes are the extrema (second-kind Chebyshev points): the fit
    at m + 1 of them inverts the values there, for m >= the degree."""
    coeffs = np.random.default_rng(n).normal(size=n)
    for m in (n - 1, n + 3):
        fitted = chebyshev._fit_at_extrema(cheb_values_at_extrema(coeffs, m))
        assert fitted.shape == (m + 1,)
        assert np.max(np.abs(fitted[:n] - coeffs)) <= 1e-13 * np.max(np.abs(coeffs))
        assert np.max(np.abs(fitted[n:]), initial=0.0) <= 1e-13 * np.max(np.abs(coeffs))


def test_extrema_are_the_cosines_and_odd_exactly():
    for n in (1, 2, 7, 960, 5120):
        x = chebyshev._extrema(n)
        assert np.max(np.abs(x - np.cos(np.pi * np.arange(n + 1) / n))) <= 6 * 2.0**-53
        assert np.array_equal(x, -x[::-1])


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
    # n = 3840 = 2^8 * 3 * 5 keeps M = 8 n.
    assert certificate_extrema(3840) == 8 * 3840


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
# and n = 64 pad it, as do the large degrees 3,840 (62 x 62) and 19,200
# (139 x 139).
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
    coeffs = window_poly(-0.3, 0.4, 0.1).poly.coeffs
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
        (40, 82),
        (40, 320),  # m = 8 n, as on a certificate grid
        (40, 80),
        (40, 81),  # odd m
        (0, 8),
    ],
)
def test_values_at_extrema_by_one_dct1_match_chebval(n, m):
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


def _erf_window(x, a_bar, b_bar, kappa, s):
    """The window's target f at x, with math.erf at every point and the
    edge centres `window_poly` uses."""
    erf = np.frompyfunc(math.erf, 1, 1)
    left, right = a_bar - kappa / 2.0, b_bar + kappa / 2.0
    return 0.5 * (erf(s * (x - left)).astype(float) - erf(s * (x - right)).astype(float))


def _seeded_windows():
    cases = [(lo / 5.8, (lo + 1) / 5.8, 0.025) for lo in range(-5, 5)]  # the workload bins
    for eta in (0.4, 0.1, 0.05, 0.025, 0.01, 0.005):
        kappa = eta / 4.0
        for seed in range(15):
            rng = np.random.default_rng(seed)
            a_bar = rng.uniform(-1.0 + kappa + 1e-3, 0.5)
            cases.append((a_bar, rng.uniform(a_bar + 1e-3, 1.0 - kappa - 1e-3), eta))
    return cases


PROOF_POINTS = 2**16


@pytest.mark.parametrize("a_bar, b_bar, eta", _seeded_windows())
def test_window_fit_error_and_contract_hold_on_dense_extrema(a_bar, b_bar, eta):
    w = window_poly(a_bar, b_bar, eta)
    x = np.concatenate([_extrema(PROOF_POINTS), [a_bar, b_bar, a_bar - w.kappa, b_bar + w.kappa]])
    values = np.concatenate([cheb_values_at_extrema(w.poly.coeffs, PROOF_POINTS), w(x[-4:])])
    # The interpolant before the affine map is (1 + 2e) w - e.
    fitted = values * (1.0 + 2.0 * w.fit_error) - w.fit_error
    assert np.max(np.abs(fitted - _erf_window(x, a_bar, b_bar, w.kappa, w.steepness))) <= w.fit_error
    inside = (x >= a_bar) & (x <= b_bar)
    outside = (x < a_bar - w.kappa) | (x > b_bar + w.kappa)
    assert np.min(values[inside]) >= 1.0 - w.tau
    assert np.max(values[outside]) <= w.tau
    assert 0.0 <= np.min(values) and np.max(values) <= 1.0


def _bessel_j(z, count):
    """J_0(z)..J_{count-1}(z) by Miller's downward recurrence
    J_{k-1} = (2k/z) J_k - J_{k+1}, started well above count and z and
    normalised by J_0 + 2 sum_k J_{2k} = 1."""
    top = count + int(z) + 60
    values = np.zeros(count)
    above, here, total = 0.0, 1.0, 0.0  # here is J_k, up to a common factor
    for k in range(top, 0, -1):
        if k % 2 == 0:
            total += 2.0 * here
        if k < count:
            values[k] = here
        above, here = here, 2.0 * k / z * here - above
        if abs(here) > 1e200:
            above, here, total = above / 1e200, here / 1e200, total / 1e200
            values /= 1e200
    values[0] = here
    return values / (total + here)


@pytest.mark.parametrize("z", [1.0, 10.0, 100.0])
def test_proven_interpolant_of_a_cosine_matches_jacobi_anger(z):
    """cos(z x) = J_0(z) + 2 sum_k (-1)^k J_2k(z) T_2k(x), and on E_rho
    |cos(z w)| <= cosh(z sinh r). The coefficients' distance from the
    closed form, aliasing included, and the error at dense extrema both
    stay within the proven bound."""
    u = np.finfo(float).eps / 2.0

    def log_m(r):
        y = z * np.sinh(r)
        return np.logaddexp(y, -y) - math.log(2.0)

    degree = chebyshev._proven_degree(log_m, 1e-10)
    coeffs, error = chebyshev._proven_interpolant(
        lambda x: np.cos(z * x), degree, 1e-10, 8.0 * (z + 1.0) * u
    )
    n = coeffs.size - 1
    assert n <= 2 * z + 60
    exact = np.zeros(n + 1)
    j = _bessel_j(z, n + 1)
    exact[0::2] = 2.0 * j[0::2] * (-1.0) ** np.arange(n // 2 + 1)
    exact[0] = j[0]
    assert 1e-10 <= error <= 2e-10
    assert np.sum(np.abs(coeffs - exact)) <= error
    x = _extrema(PROOF_POINTS)
    assert np.max(np.abs(cheb_values_at_extrema(coeffs, PROOF_POINTS) - np.cos(z * x))) <= error


def test_a_window_build_searches_the_degree_grid_once(monkeypatch):
    """`window_poly` fits at the degree `window_parameters` proved."""
    calls = []
    search = chebyshev._proven_degree

    def counting_search(log_m, target):
        calls.append(target)
        return search(log_m, target)

    monkeypatch.setattr(chebyshev, "_proven_degree", counting_search)
    w = window_poly(-0.2, 0.3, 0.1)
    assert len(calls) == 1
    assert w.degree == window_parameters(0.1)[3]


def test_symmetric_window_is_even():
    coeffs = window_poly(-0.2, 0.2, 0.05).poly.coeffs
    assert np.max(np.abs(coeffs[1::2])) <= 1e-15


def test_window_above_the_ceiling_is_refused_before_any_allocation():
    eta = 1e-4
    degree = window_parameters(eta)[3]
    assert degree > MAX_WINDOW_DEGREE
    tracemalloc.start()
    try:
        with pytest.raises(DegreeTooLargeError, match=f"degree {degree}, above the ceiling"):
            window_poly(-0.3, 0.2, eta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 <= 0.5


def test_min_window_eta_is_the_smallest_eta_that_fits_the_ceiling():
    eta = min_window_eta()
    assert window_parameters(eta)[3] <= MAX_WINDOW_DEGREE
    assert window_parameters(math.nextafter(eta, 0.0))[3] > MAX_WINDOW_DEGREE


@settings(max_examples=200, deadline=None)
@given(st.floats(min_window_eta(), 0.99), st.floats(min_window_eta(), 0.99))
def test_window_degree_never_rises_as_eta_grows(eta, other):
    """The bisection of `min_window_eta` rests on this."""
    lo, hi = sorted((eta, other))
    assert window_parameters(lo)[3] >= window_parameters(hi)[3]


def test_window_at_the_ceiling_keeps_its_roundoff_far_inside_the_margin():
    w = window_poly(-0.3, 0.2, min_window_eta())
    assert w.degree == MAX_WINDOW_DEGREE
    u = np.finfo(float).eps / 2.0
    slack = 2.0 * (w.steepness + 1.0) * u + 2.0 * (w.fit_error - w.tau / 4.0)
    assert slack <= w.tau**2 / 20.0


def test_window_without_a_roundoff_margin_fails_its_proof(monkeypatch):
    # A unit roundoff of 1e-7 makes the proven roundoff exceed tau^2 / 2.
    monkeypatch.setattr(chebyshev, "_U", 1e-7)
    with pytest.raises(CertificationError, match="margin"):
        window_poly(-0.3, 0.4, 0.1)


def test_constructor_refuses_a_degree_above_the_ceiling_before_certifying():
    degree = MAX_WINDOW_DEGREE + 1
    coeffs = np.zeros(degree + 1)
    coeffs[0] = 0.5
    tracemalloc.start()
    try:
        with pytest.raises(DegreeTooLargeError, match=f"degree {degree} "):
            ChebyshevPoly(coeffs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The checked copy of the 4 MB coefficients; the certificate's grid
    # would take about 320 bytes per degree, 168 MB here.
    assert peak <= 2 * coeffs.nbytes
    # The package's constructors, whose bound is proven, take any degree.
    assert chebyshev_t(degree).sup_norm_bound == 1.0
