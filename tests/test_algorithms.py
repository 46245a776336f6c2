import math

import numpy as np
import pytest

from blocksketch.algorithms import (
    CorrelationSpec,
    SketchRequest,
    complexity_report,
    correlate,
    kpm_sketch,
    spectral_sketch,
)
from blocksketch.errors import (
    BadIntervalError,
    EmptySumError,
    OutOfRangeError,
    ValidationError,
)
from blocksketch.oracle import oracle_correlation, oracle_sketch
from blocksketch.pauli import PauliSum, pauli_sum_matrix
from blocksketch.state_prep import (
    prepare_basis_state,
    prepare_maximally_mixed,
    prepare_pure,
    reduced_density,
)

from conftest import random_pauli_sum, random_state_vector

Z_SUM = PauliSum.from_terms([(1.0, "Z")])
X_SUM = PauliSum.from_terms([(1.0, "X")])
TILTED = PauliSum.from_terms([(0.3, "Z"), (0.2, "X")])
KET0 = prepare_basis_state(0, 2)


def test_correlate_examples():
    spec = CorrelationSpec(Z_SUM, ((Z_SUM, 0.0),), KET0, 0.05, 0.05)
    assert correlate(spec).value == pytest.approx(1.0, abs=1e-9)

    spec = CorrelationSpec(Z_SUM, ((X_SUM, np.pi / 4), (X_SUM, 0.0)), KET0, 0.05, 0.05)
    assert correlate(spec).value == pytest.approx(1j, abs=1e-7)

    h_diag = PauliSum.from_terms([(0.4, "Z"), (0.3, "I")])
    spec = CorrelationSpec(h_diag, ((Z_SUM, 0.8), (Z_SUM, -0.3)), KET0, 0.05, 0.05)
    assert correlate(spec).value == pytest.approx(1.0, abs=1e-9)


def test_correlate_random_vs_oracle(rng):
    for _ in range(10):
        qubits = 2
        h = random_pauli_sum(rng, qubits, 3)
        n_obs = int(rng.integers(1, 3))
        observables = tuple(
            (random_pauli_sum(rng, qubits, 2), float(rng.uniform(-2, 2))) for _ in range(n_obs)
        )
        state = prepare_pure(random_state_vector(rng, 2**qubits))
        spec = CorrelationSpec(h, observables, state, 0.05, 0.05)
        expected = oracle_correlation(h, observables, reduced_density(state))
        assert correlate(spec).value == pytest.approx(expected, abs=1e-6)


def test_correlate_requires_observables():
    with pytest.raises(EmptySumError):
        CorrelationSpec(Z_SUM, (), KET0, 0.05, 0.05)


def test_correlate_sampled_deterministic():
    spec = CorrelationSpec(Z_SUM, ((X_SUM, 0.5),), KET0, 0.1, 0.1)
    a = correlate(spec, "sampled", 11)
    b = correlate(spec, "sampled", 11)
    assert a == b
    assert abs(a.value - oracle_correlation(Z_SUM, ((X_SUM, 0.5),), reduced_density(KET0))) < 0.2


def test_dos_moments_examples():
    req = SketchRequest(Z_SUM, "dos", eps=0.05, delta=0.05, num_moments=4)
    sketch = spectral_sketch(req)
    got = [v.value.real for v in sketch.values]
    assert np.allclose(got, [1, 0, 1, 0, 1], atol=1e-9)
    assert sketch.chebyshev_orders == (0, 1, 2, 3, 4)

    req = SketchRequest(
        X_SUM, "ldos", eps=0.05, delta=0.05, num_moments=1, site_state=np.array([1.0, 0.0])
    )
    got = [v.value.real for v in spectral_sketch(req).values]
    assert np.allclose(got, [1, 0], atol=1e-9)


def test_dos_moments_match_oracle(rng):
    for _ in range(5):
        h = random_pauli_sum(rng, 2, 4)
        req = SketchRequest(h, "dos", eps=0.05, delta=0.05, num_moments=8)
        got = np.array([v.value.real for v in spectral_sketch(req).values])
        expected = np.real(oracle_sketch(req))
        assert np.max(np.abs(got - expected)) < 1e-7


def test_dos_integral_two_eigenvalues():
    req = SketchRequest(
        TILTED,
        "dos",
        eps=0.05,
        delta=0.05,
        interval=(0.2, 0.45),
        allow_large_degree=True,
    )
    sketch = spectral_sketch(req)
    w = sketch.window_meta
    assert abs(sketch.values[0].value.real - 0.5) <= w.tau + 0.05
    assert sketch.chebyshev_orders == (w.degree,)


def test_dos_integral_window_envelope(rng):
    for _ in range(4):
        h = random_pauli_sum(rng, 2, 3)
        alpha = h.scale()
        a = float(rng.uniform(-0.6, 0.0)) * alpha
        b = a + float(rng.uniform(0.2, 0.5)) * alpha
        req = SketchRequest(
            h, "dos", eps=0.15, delta=0.05, interval=(a, b), allow_large_degree=True
        )
        sketch = spectral_sketch(req)
        w = sketch.window_meta
        energies = np.linalg.eigvalsh(pauli_sum_matrix(h)) / alpha
        inside = (energies >= a / alpha) & (energies <= b / alpha)
        extended = (energies >= a / alpha - w.kappa) & (energies <= b / alpha + w.kappa)
        strip_mass = np.sum(extended & ~inside) / energies.size
        sharp = oracle_sketch(req)[0].real
        assert abs(sketch.values[0].value.real - sharp) <= w.tau + strip_mass + 0.15


def test_moment_symmetry():
    # single non-identity word: spectrum symmetric about zero
    h = PauliSum.from_terms([(0.7, "XZ")])
    req = SketchRequest(h, "dos", eps=0.05, delta=0.05, num_moments=7)
    got = [v.value.real for v in spectral_sketch(req).values]
    assert np.max(np.abs(np.array(got)[1::2])) < 1e-9


def test_response_moment_examples():
    req = SketchRequest(
        Z_SUM,
        "response",
        eps=0.05,
        delta=0.05,
        num_moments=1,
        b_observable=X_SUM,
        c_observable=X_SUM,
        state=KET0,
    )
    sketch = spectral_sketch(req)
    values = [v.value for v in sketch.values]
    assert values[0] == pytest.approx(1.0, abs=1e-9)
    assert values[1] == pytest.approx(-1.0, abs=1e-9)


def test_response_matches_oracle(rng):
    for _ in range(5):
        h = random_pauli_sum(rng, 2, 3)
        b = random_pauli_sum(rng, 2, 2)
        c = random_pauli_sum(rng, 2, 2)
        state = prepare_pure(random_state_vector(rng, 4))
        req = SketchRequest(
            h,
            "response",
            eps=0.05,
            delta=0.05,
            num_moments=4,
            b_observable=b,
            c_observable=c,
            state=state,
        )
        sketch = spectral_sketch(req)
        expected = oracle_sketch(req)
        for n, res in zip(sketch.chebyshev_orders, sketch.values):
            assert res.value == pytest.approx(expected[n], abs=1e-6)


def test_response_identity_consistent_with_dos(rng):
    ident = PauliSum.from_terms([(1.0, "II")])
    for _ in range(3):
        h = random_pauli_sum(rng, 2, 3)
        dos_req = SketchRequest(h, "dos", eps=0.05, delta=0.05, num_moments=3)
        resp_req = SketchRequest(
            h,
            "response",
            eps=0.05,
            delta=0.05,
            num_moments=3,
            b_observable=ident,
            c_observable=ident,
            state=prepare_maximally_mixed(4),
        )
        dos_vals = np.array([v.value.real for v in spectral_sketch(dos_req).values])
        resp_vals = np.array([v.value.real for v in spectral_sketch(resp_req).values])
        assert np.max(np.abs(dos_vals - resp_vals)) <= 2 * 0.05


def test_kpm_sketch_symmetric():
    req = SketchRequest(Z_SUM, "dos", eps=0.05, delta=0.05, num_moments=32)
    grid = np.linspace(-0.99, 0.99, 199)
    sketch, recon = kpm_sketch(req, grid)
    assert len(sketch.values) == 33
    assert np.max(np.abs(recon - recon[::-1])) <= 1e-6
    top_two = np.abs(grid[np.argsort(recon)[-2:]])
    assert np.all(top_two > 0.9)


def test_kpm_zero_order_flat():
    req = SketchRequest(Z_SUM, "dos", eps=0.05, delta=0.05, num_moments=0)
    grid = np.array([-0.4, 0.0, 0.6])
    _sketch, recon = kpm_sketch(req, grid)
    assert np.allclose(recon, 1.0 / (np.pi * np.sqrt(1 - grid**2)), atol=1e-9)


def test_kpm_requires_moments_mode():
    req = SketchRequest(
        Z_SUM, "dos", eps=0.05, delta=0.05, interval=(-0.5, 0.5), allow_large_degree=True
    )
    with pytest.raises(ValidationError):
        kpm_sketch(req, np.array([0.0]))


def test_request_validation():
    with pytest.raises(ValidationError):
        SketchRequest(Z_SUM, "banana", eps=0.05, delta=0.05, num_moments=2)
    with pytest.raises(BadIntervalError):
        SketchRequest(Z_SUM, "dos", eps=0.05, delta=0.05, interval=(-2.0, 0.5))
    with pytest.raises(ValidationError):
        SketchRequest(Z_SUM, "dos", eps=0.05, delta=0.05)
    with pytest.raises(ValidationError):
        SketchRequest(Z_SUM, "ldos", eps=0.05, delta=0.05, num_moments=2)
    with pytest.raises(ValidationError):
        SketchRequest(Z_SUM, "response", eps=0.05, delta=0.05, num_moments=2)
    with pytest.raises(OutOfRangeError):
        SketchRequest(Z_SUM, "dos", eps=1.5, delta=0.05, num_moments=2)


def test_sampled_sketch_deterministic():
    req = SketchRequest(TILTED, "dos", eps=0.1, delta=0.1, num_moments=3)
    a = spectral_sketch(req, "sampled", 5)
    b = spectral_sketch(req, "sampled", 5)
    assert [v.value for v in a.values] == [v.value for v in b.values]
    exact = [v.value.real for v in spectral_sketch(req).values]
    for got, want in zip(a.values, exact):
        assert abs(got.value.real - want) <= 0.1


def test_complexity_report_correlation_zero_time():
    spec = CorrelationSpec(Z_SUM, ((X_SUM, 0.0),), KET0, 0.1, 0.05)
    report = complexity_report(spec)
    assert report["taus"] == [0.0, 0.0]
    assert report["evolution_costs"] == [0.0, 0.0]
    assert report["encoding_cost_W"] == 1
    assert report["gamma"] == 1.0
    # W bounded by the loosened form
    assert report["encoding_cost_W"] <= report["encoding_cost_W_loose"] + 1e-12


def test_complexity_report_loose_bound(rng):
    h = random_pauli_sum(rng, 2, 4)
    observables = tuple((random_pauli_sum(rng, 2, 2), float(t)) for t in (0.3, -1.2))
    spec = CorrelationSpec(h, observables, prepare_maximally_mixed(4), 0.05, 0.05)
    report = complexity_report(spec)
    assert report["encoding_cost_W"] <= report["encoding_cost_W_loose"] + 1e-12


def test_complexity_report_dos_moments_n0():
    req = SketchRequest(TILTED, "dos", eps=0.1, delta=0.05, num_moments=0)
    report = complexity_report(req)
    # only the preparation term survives at n = 0
    assert report["per_moment_queries"][0] == pytest.approx(
        math.log2(2) / 0.1 * math.log(1 / 0.05)
    )


def test_seeded_moments_use_distinct_streams():
    req = SketchRequest(TILTED, "dos", eps=0.1, delta=0.1, num_moments=2)
    sketch = spectral_sketch(req, "sampled", 100)
    seeds = [v.seed for v in sketch.values]
    assert seeds == [100, 101, 102]
