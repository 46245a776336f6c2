import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from blocksketch.block_encoding import encode_pauli_sum
from blocksketch.chebyshev import ChebyshevPoly, chebyshev_t, window_poly
from blocksketch.errors import (
    CostOverflowError,
    InexactInputError,
    NotHermitianError,
    OutOfRangeError,
    PolyNotBoundedError,
    ValidationError,
)
from blocksketch import block_encoding
from blocksketch.circuits import is_unitary
from blocksketch.estimation import estimate_observable
from blocksketch.pauli import PauliSum, pauli_sum_matrix
from blocksketch.spectral import (
    apply_polynomial,
    chebyshev_encoding,
    evolution_cost,
    evolution_encoding,
)
from blocksketch.state_prep import prepare_maximally_mixed

from conftest import contraction_encoding, random_hermitian_contraction


def _spectral_chebyshev(a: np.ndarray, n: int) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    c = np.zeros(n + 1)
    c[n] = 1.0
    return (v * chebval(w, c)) @ v.conj().T


def test_evolution_examples():
    h = PauliSum.from_terms([(1.0, "Z")])
    assert np.allclose(evolution_encoding(h, 0.0, 0.5).block, np.eye(2))
    assert np.allclose(evolution_encoding(h, np.pi, 0.5).block, -np.eye(2))

    h2 = PauliSum.from_terms([(0.3, "Z"), (0.2, "X")])
    b = evolution_encoding(h2, 1.0, 0.5)
    phases = np.sort(np.angle(np.linalg.eigvals(b.block)))
    assert np.allclose(phases, [-np.sqrt(0.13), np.sqrt(0.13)], atol=1e-10)
    assert b.scale == 1.0 and b.ancilla_dim == 1 and b.accuracy == 0.5


def test_evolution_unitary_of_time():
    h = PauliSum.from_terms([(0.5, "ZZ"), (0.3, "XI")])
    energies, vecs = np.linalg.eigh(pauli_sum_matrix(h))
    for t in (-2.0, 0.3, 7.0):
        b = evolution_encoding(h, t, 0.01)
        expected = (vecs * np.exp(1j * energies * t)) @ vecs.conj().T
        assert np.max(np.abs(b.block - expected)) < 1e-10
        assert is_unitary(b.unitary, 1e-10)


def test_evolution_cost_values():
    # Q=1, alpha=1, t=10, eps=0.5
    expected = 10.0 + math.log(2.0) / math.log(math.e + math.log(2.0) / 10.0)
    assert evolution_cost(1, 1.0, 10.0, 0.5) == pytest.approx(expected, rel=1e-12)
    # eps = 1: the logarithmic term vanishes exactly
    assert evolution_cost(3, 2.0, 1.5, 1.0) == pytest.approx(9.0)
    assert evolution_cost(3, 2.0, 0.0, 0.5) == 0.0
    with pytest.raises(OutOfRangeError):
        evolution_cost(0, 1.0, 1.0, 0.5)
    with pytest.raises(OutOfRangeError):
        evolution_cost(1, 1.0, 1.0, 2.0)


def test_evolution_cost_monotone():
    base = evolution_cost(2, 1.0, 1.0, 0.1)
    assert evolution_cost(2, 1.0, 2.0, 0.1) > base
    assert evolution_cost(2, 1.0, 1.0, 0.01) > base


def test_chebyshev_encoding_examples():
    b = encode_pauli_sum(PauliSum.from_terms([(0.3, "Z"), (0.2, "X")]))
    t0 = chebyshev_encoding(b, 0)
    assert np.allclose(t0.block, np.eye(2))
    t1 = chebyshev_encoding(b, 1)
    assert np.max(np.abs(t1.block - b.block)) < 1e-12

    # block is A = 0.6 Z + 0.4 X with eigenvalues +-sqrt(0.52);
    # T_2(A) = 2 A^2 - I = 0.04 I
    t2 = chebyshev_encoding(b, 2)
    assert np.max(np.abs(t2.block - 0.04 * np.eye(2))) < 1e-10
    assert t2.cost == 2 * b.cost and t2.scale == 1.0


def test_chebyshev_encoding_vs_spectral(rng):
    for dim in (4, 8):
        for _ in range(3):
            a = random_hermitian_contraction(rng, dim)
            enc = contraction_encoding(a)
            for n in range(17):
                tn = chebyshev_encoding(enc, n)
                assert np.max(np.abs(tn.block - _spectral_chebyshev(a, n))) <= 1e-8
                assert tn.cost == n * enc.cost


def test_chebyshev_recurrence_cross_check(rng):
    a = random_hermitian_contraction(rng, 4)
    enc = contraction_encoding(a)
    for n in (3, 7):
        t_prev = chebyshev_encoding(enc, n - 1).block
        t_n = chebyshev_encoding(enc, n).block
        t_next = chebyshev_encoding(enc, n + 1).block
        assert np.max(np.abs(t_next - (2 * a @ t_n - t_prev))) < 1e-7


def test_chebyshev_encoding_validation():
    b = encode_pauli_sum(PauliSum.from_terms([(1.0, "Z")]))
    with pytest.raises(InexactInputError):
        chebyshev_encoding(replace(b, accuracy=0.1), 2)
    with pytest.raises(OutOfRangeError):
        chebyshev_encoding(b, -1)
    w, v = np.linalg.eigh(pauli_sum_matrix(PauliSum.from_terms([(1.0, "Y")])))
    u = (v * np.exp(0.3j * w)) @ v.conj().T
    from blocksketch.block_encoding import encode_unitary

    with pytest.raises(NotHermitianError):
        chebyshev_encoding(encode_unitary(u), 2)
    with pytest.raises(CostOverflowError):
        chebyshev_encoding(replace(b, cost=2**62), 4)


def test_chebyshev_encoding_measures_the_hermitian_gap_once_per_encoding(monkeypatch, rng):
    measured = []
    gap = block_encoding.hermitian_gap
    monkeypatch.setattr(block_encoding, "hermitian_gap", lambda m: measured.append(m) or gap(m))
    h = encode_pauli_sum(PauliSum.from_terms([(0.5, "ZZ"), (0.3, "XI"), (0.2, "IY")]))
    previous = ()
    for n in range(8):
        t_n = chebyshev_encoding(h, n, previous)
        assert t_n.norm_bound == 1.0
        previous = (t_n, *previous[:1])
    # The Pauli sum is Hermitian by its ledger, so nothing is measured.
    assert h.hermitian and measured == []

    # A block Hermitian only within tolerance is measured once, and
    # every order still takes the SVD path; a non-Hermitian one fails at
    # every order.
    a = random_hermitian_contraction(rng, 4)
    near = contraction_encoding(a + 1e-12 * np.triu(np.ones((4, 4)), 1))
    skew = contraction_encoding(0.5 * a + 0.2j * np.eye(4))
    measured.clear()
    for n in (1, 2, 3):
        assert chebyshev_encoding(near, n).norm_bound != 1.0
        with pytest.raises(NotHermitianError):
            chebyshev_encoding(skew, n)
    assert len(measured) == 2


def test_t0_and_t1_are_hermitian_by_proof_and_estimated_without_a_measured_gap(rng):
    h = encode_pauli_sum(PauliSum.from_terms([(0.5, "ZZ"), (0.3, "XI"), (0.2, "IY")]))
    rho = prepare_maximally_mixed(4)
    for n in (0, 1):
        t = chebyshev_encoding(h, n)
        assert t.hermitian
        estimate_observable(t, rho, 0.05, 0.05)
        assert "hermitian_gap" not in vars(t)
    assert not chebyshev_encoding(h, 2).hermitian
    # T_0 is the identity whatever the input; T_1 carries the input's ledger.
    measured = contraction_encoding(random_hermitian_contraction(rng, 4))
    assert not measured.hermitian
    assert chebyshev_encoding(measured, 0).hermitian
    assert not chebyshev_encoding(measured, 1).hermitian


def test_apply_polynomial_examples():
    b = encode_pauli_sum(PauliSum.from_terms([(1.0, "Z")]))
    r = apply_polynomial(b, chebyshev_t(0), 1e-3)
    assert np.allclose(r.block, np.eye(2) / 2)
    assert r.scale == 2.0 and r.accuracy == 1e-3

    w = window_poly(-0.5, 0.5, 0.2)
    rw = apply_polynomial(b, w.poly, 1e-3)
    eigs = np.linalg.eigvalsh(rw.block)
    # both eigenvalues of Z sit outside the window, so w(+-1)/2 is in [0, tau/2]
    assert np.all(eigs >= -1e-12) and np.all(eigs <= w.tau / 2 + 1e-12)
    assert rw.cost == w.poly.degree * b.cost
    assert rw.ancilla_dim == 2 * b.ancilla_dim

    m = np.diag([0.5, -0.5]).astype(complex)
    enc = contraction_encoding(m)
    r3 = apply_polynomial(enc, chebyshev_t(3), 1e-4)
    assert np.max(np.abs(r3.block - np.diag([-0.5, 0.5]))) < 1e-10


def test_apply_polynomial_linearity(rng):
    a = random_hermitian_contraction(rng, 4)
    enc = contraction_encoding(a)
    p = ChebyshevPoly(np.array([0.1, 0.2, 0.15]))
    q = ChebyshevPoly(np.array([0.05, -0.1, 0.0, 0.2]))
    sum_coeffs = np.zeros(4)
    sum_coeffs[:3] += p.coeffs
    sum_coeffs += q.coeffs
    both = apply_polynomial(enc, ChebyshevPoly(sum_coeffs), 0.0)
    separate = apply_polynomial(enc, p, 0.0).block + apply_polynomial(enc, q, 0.0).block
    assert np.max(np.abs(both.block - separate)) < 1e-8


def test_apply_polynomial_validation():
    b = encode_pauli_sum(PauliSum.from_terms([(1.0, "Z")]))
    with pytest.raises(PolyNotBoundedError):
        apply_polynomial(b, ChebyshevPoly(np.array([0.0, 2.0])), 1e-3)
    # 3 T_1 is proven bounded by 3 only, so no encoding of norm 1.5 is built
    with pytest.raises(PolyNotBoundedError):
        apply_polynomial(b, ChebyshevPoly(np.array([0.0, 3.0])), 0.0)
    with pytest.raises(CostOverflowError):
        apply_polynomial(replace(b, cost=2**62), chebyshev_t(4), 1e-3)
    assert is_unitary(apply_polynomial(b, chebyshev_t(2), 0.0).unitary, 1e-10)


def test_chebyshev_encoding_continues_from_previous_orders(rng):
    a = random_hermitian_contraction(rng, 8)
    enc = contraction_encoding(a, cost=3)
    previous = ()
    for n in range(12):
        step = chebyshev_encoding(enc, n, previous)
        scratch = chebyshev_encoding(enc, n)
        assert np.array_equal(step.block, scratch.block)
        assert (step.cost, step.ancilla_dim) == (scratch.cost, scratch.ancilla_dim)
        previous = (step, *previous[:1])

    t3, t2 = chebyshev_encoding(enc, 3), chebyshev_encoding(enc, 2)
    other = contraction_encoding(a, cost=1)
    with pytest.raises(ValidationError):
        chebyshev_encoding(enc, 4, (t2, t3))
    with pytest.raises(ValidationError):
        chebyshev_encoding(other, 4, (t3, t2))
    with pytest.raises(ValidationError):
        chebyshev_encoding(enc, 4, (t3,))


def test_chebyshev_encoding_refuses_the_orders_of_another_encoding():
    """T_1 and T_0 of another encoding with the same ledgers would give a
    T_2 block off by 2.25 whose norm, 2.47, passes the recorded bound 1
    unchecked: previous must come from this same b."""
    b = encode_pauli_sum(PauliSum.from_terms([(0.3, "XX"), (0.9, "ZZ")]))
    other = encode_pauli_sum(PauliSum.from_terms([(1.0, "ZI"), (0.5, "IX")]))
    t1, t0 = chebyshev_encoding(other, 1), chebyshev_encoding(other, 0)
    ledgers = [(t.ancilla_dim, t.system_dim, t.cost) for t in (t1, t0)]
    assert ledgers == [(b.ancilla_dim, b.system_dim, k * b.cost) for k in (1, 0)]
    with pytest.raises(ValidationError, match="encodings of b"):
        chebyshev_encoding(b, 2, (t1, t0))
    with pytest.raises(ValidationError, match="encodings of b"):
        chebyshev_encoding(b, 1, (t0,))
    own = (chebyshev_encoding(b, 1), chebyshev_encoding(b, 0))
    assert np.array_equal(chebyshev_encoding(b, 2, own).block, chebyshev_encoding(b, 2).block)
