import math
from functools import partial

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from blocksketch.algorithms import SketchRequest
from blocksketch.chebyshev import window_poly
from blocksketch.errors import BadIntervalError, ValidationError
from blocksketch.circuits import psd_sqrt, unitary_completion
from blocksketch.oracle import eigen_expectations, oracle_correlation, oracle_sketch
from blocksketch.pauli import PauliSum, pauli_sum_matrix
from blocksketch.state_prep import (
    PreparationUnitary,
    prepare_basis_state,
    prepare_maximally_mixed,
    prepare_pure,
    reduced_density,
)

from conftest import random_density_matrix, random_pauli_sum, random_state_vector

Z_SUM = PauliSum.from_terms([(1.0, "Z")])
X_SUM = PauliSum.from_terms([(1.0, "X")])
# eigenvalues +-sqrt(0.13) ~ +-0.36, strictly inside (-alpha, alpha) = (-0.5, 0.5)
TILTED = PauliSum.from_terms([(0.3, "Z"), (0.2, "X")])
IDENT = PauliSum.from_terms([(1.0, "I")])
KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def _request(h, kind, **kwargs):
    return SketchRequest(h, kind, eps=0.05, delta=0.05, **kwargs)


def _dos_mass(h, a, b) -> float:
    return oracle_sketch(_request(h, "dos", interval=(a, b)))[0].real


def _mixed_state(rho) -> PreparationUnitary:
    """A preparation of the density matrix rho through its purification
    vec(sqrt(rho)), whose partial trace over the purifier is rho."""
    purification = psd_sqrt(rho).reshape(-1)
    dim = rho.shape[0]
    return PreparationUnitary(
        purification, dim, dim, circuit=partial(unitary_completion, purification)
    )


def test_correlation_examples():
    assert oracle_correlation(Z_SUM, [(Z_SUM, 0.0)], KET0) == pytest.approx(1.0)
    got = oracle_correlation(Z_SUM, [(X_SUM, np.pi / 4), (X_SUM, 0.0)], KET0)
    assert got == pytest.approx(1j, abs=1e-12)

    ident = PauliSum.from_terms([(1.0, "II")])
    h = random_pauli_sum(np.random.default_rng(0), 2, 3)
    rho = np.eye(4) / 4
    got = oracle_correlation(h, [(ident, 0.3), (ident, -1.0)], rho)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_dos_integral_examples():
    assert _dos_mass(TILTED, 0.0, 0.45) == pytest.approx(0.5)
    assert _dos_mass(TILTED, -0.45, 0.45) == pytest.approx(1.0)
    assert _dos_mass(TILTED, 0.2, 0.45) == pytest.approx(0.5)
    with pytest.raises(BadIntervalError):
        _request(TILTED, "dos", interval=(0.3, 0.2))


def test_sharp_mass_counts_eigenvalues_on_the_interval_edges():
    # H = 0.5 ZI + 0.25 IZ has the eigenvalue 0.25 exactly; the interval is closed
    h = PauliSum.from_terms([(0.5, "ZI"), (0.25, "IZ")])
    assert _dos_mass(h, 0.25, 0.5) == 0.25
    assert _dos_mass(h, 0.0, 0.25) == 0.25
    assert _dos_mass(h, -0.25, 0.25) == 0.5


def test_dos_integral_weights():
    # a one-hot site state picks out the local spectral mass: H = 0.3 X + 0.2 Y
    # has eigenvectors (1, +-e^{i phi})/sqrt 2, so site 0 carries half of each
    h = PauliSum.from_terms([(0.3, "X"), (0.2, "Y")])
    site = prepare_pure([1.0, 0.0])

    def local_mass(a, b):
        return oracle_sketch(_request(h, "ldos", interval=(a, b), state=site))[0].real

    assert local_mass(0.2, 0.45) == pytest.approx(0.5)
    assert local_mass(-0.45, 0.45) == pytest.approx(1.0)


def test_moments_examples():
    mus = oracle_sketch(_request(Z_SUM, "dos", num_moments=6))
    assert np.allclose(mus, [1, 0, 1, 0, 1, 0, 1], atol=1e-12)
    # the weight I/3 of trace 2/3: B = (2/3) I and C = I on I/2
    two_thirds = PauliSum.from_terms([(2.0 / 3.0, "I")])
    req = _request(
        TILTED,
        "response",
        num_moments=0,
        b_observable=two_thirds,
        c_observable=IDENT,
        state=prepare_maximally_mixed(2),
    )
    assert oracle_sketch(req)[0] == pytest.approx(2.0 / 3.0)
    got = oracle_sketch(_request(TILTED, "dos", num_moments=2))
    # energies / alpha are +-sqrt(0.52): T_2 there is 2*0.52 - 1 = 0.04
    assert got[2].real == pytest.approx(0.04, abs=1e-12)


def test_response_examples():
    # B = C = I on I/2 reduces to the dos values
    req = _request(
        TILTED,
        "response",
        interval=(0.2, 0.45),
        b_observable=IDENT,
        c_observable=IDENT,
        state=prepare_maximally_mixed(2),
    )
    assert oracle_sketch(req)[0] == pytest.approx(_dos_mass(TILTED, 0.2, 0.45), abs=1e-12)

    ket0 = prepare_basis_state(0, 2)
    kwargs = dict(b_observable=X_SUM, c_observable=X_SUM, state=ket0)
    got = oracle_sketch(_request(Z_SUM, "response", num_moments=1, **kwargs))
    assert got[1] == pytest.approx(-1.0)
    # n = 0 gives Tr(rho B C)
    assert got[0] == pytest.approx(1.0)

    # a request carries exactly one of an interval and a moment count
    with pytest.raises(ValidationError):
        _request(Z_SUM, "response", **kwargs)
    with pytest.raises(ValidationError):
        _request(Z_SUM, "response", interval=(0.0, 0.5), num_moments=2, **kwargs)


def test_phase_invariance(rng):
    # a hand-rolled spectral sum with randomly re-phased eigenvectors
    # reproduces the oracle: the estimands are phase free
    h = random_pauli_sum(rng, 2, 4)
    alpha = h.scale()
    m = pauli_sum_matrix(h)
    energies, vecs = np.linalg.eigh(m)
    vecs = vecs * np.exp(1j * rng.uniform(0, 2 * np.pi, size=vecs.shape[1]))
    weight = np.eye(4) / 4

    per_state = np.real(np.einsum("si,st,ti->i", vecs.conj(), weight.astype(complex), vecs))
    for n in (0, 1, 3):
        c = np.zeros(n + 1)
        c[n] = 1.0
        manual = float(np.sum(chebval(energies / alpha, c) * per_state))
        got = oracle_sketch(_request(h, "dos", num_moments=n))[n].real
        assert got == pytest.approx(manual, abs=1e-10)


def test_indicator_expansion_converges_to_sharp_mass(rng):
    # Chebyshev-expanded indicator applied through moments approaches the
    # closed-interval mass as the degree grows; window edges are placed
    # midway between eigenvalues so the jump discontinuity stays away from
    # the point spectrum
    h = random_pauli_sum(rng, 2, 4)
    alpha = h.scale()
    energies = np.sort(np.linalg.eigvalsh(pauli_sum_matrix(h))) / alpha
    a_bar = (energies[0] + energies[1]) / 2.0
    b_bar = (energies[2] + energies[3]) / 2.0
    sharp = _dos_mass(h, a_bar * alpha, b_bar * alpha)

    def indicator_coeffs(d):
        hi, lo = math.acos(a_bar), math.acos(b_bar)
        c = np.zeros(d + 1)
        c[0] = (hi - lo) / math.pi
        for n in range(1, d + 1):
            c[n] = 2.0 / (n * math.pi) * (math.sin(n * hi) - math.sin(n * lo))
        return c

    gaps = []
    for d in (64, 256):
        mus = np.real(oracle_sketch(_request(h, "dos", num_moments=d)))
        approx = float(indicator_coeffs(d) @ mus)
        gaps.append(abs(approx - sharp))
    assert gaps[1] < gaps[0]


def test_response_matches_direct_sum(rng):
    h = random_pauli_sum(rng, 2, 3)
    b = random_pauli_sum(rng, 2, 2)
    c = random_pauli_sum(rng, 2, 2)
    rho = random_density_matrix(rng, 4)
    energies, vecs = np.linalg.eigh(pauli_sum_matrix(h))
    state = _mixed_state(rho)
    # the spectrum is +-1.52, +-1.59 (alpha 2.18): the first interval holds
    # no eigenvalue, the second the inner two
    for lo, hi in ((-0.5, 0.8), (-1.55, 1.55)):
        total = 0.0 + 0.0j
        for i in range(4):
            proj = np.outer(vecs[:, i], vecs[:, i].conj())
            if lo <= energies[i] <= hi:
                total += np.trace(rho @ pauli_sum_matrix(b) @ proj @ pauli_sum_matrix(c))
        req = _request(h, "response", interval=(lo, hi), b_observable=b, c_observable=c, state=state)
        assert oracle_sketch(req)[0] == pytest.approx(total, abs=1e-10)


def _sketch_cases(rng):
    """Random 2-qubit dos, ldos and response requests on an interval, each
    with its weight operator C rho B."""
    for kind in ("dos", "ldos", "response"):
        h = random_pauli_sum(rng, 2, 4)
        alpha = h.scale()
        a = float(rng.uniform(-0.6, 0.0)) * alpha
        interval = (a, a + float(rng.uniform(0.2, 0.5)) * alpha)
        if kind == "dos":
            yield _request(h, kind, interval=interval), np.eye(4) / 4
        elif kind == "ldos":
            site = random_state_vector(rng, 4)
            yield (
                _request(h, kind, interval=interval, state=prepare_pure(site)),
                np.outer(site, site.conj()),
            )
        else:
            b, c = random_pauli_sum(rng, 2, 2), random_pauli_sum(rng, 2, 2)
            state = prepare_pure(random_state_vector(rng, 4))
            weight = pauli_sum_matrix(c) @ reduced_density(state) @ pauli_sum_matrix(b)
            yield _request(
                h, kind, interval=interval, b_observable=b, c_observable=c, state=state
            ), weight


def test_windowed_and_sharp_values_differ_by_tau_plus_strip_mass(rng):
    for _ in range(3):
        for req, weight in _sketch_cases(rng):
            h = req.hamiltonian
            alpha = h.scale()
            a, b = req.interval[0] / alpha, req.interval[1] / alpha
            window = window_poly(a, b, 0.1)
            energies, per_state = eigen_expectations(h, weight)
            x = energies / alpha
            strip = ((x >= a - window.kappa) & (x < a)) | ((x > b) & (x <= b + window.kappa))
            bound = window.tau * np.sum(np.abs(per_state)) + np.sum(np.abs(per_state[strip]))
            windowed = oracle_sketch(req, window)[0]
            sharp = oracle_sketch(req)[0]
            assert abs(windowed - sharp) <= bound + 1e-12


def test_dos_and_ldos_values_are_real(rng):
    for _ in range(3):
        for req, _weight in _sketch_cases(rng):
            if req.kind == "response":
                continue
            alpha = req.hamiltonian.scale()
            window = window_poly(req.interval[0] / alpha, req.interval[1] / alpha, 0.1)
            moments = _request(req.hamiltonian, req.kind, num_moments=5, state=req.state)
            values = oracle_sketch(req) + oracle_sketch(req, window) + oracle_sketch(moments)
            assert all(v.imag == 0.0 for v in values)
