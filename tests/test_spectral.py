import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from blocksketch.block_encoding import BlockEncoding, encode_pauli_sum
from blocksketch.chebyshev import ChebyshevPoly, chebyshev_t, window_poly
from blocksketch.errors import (
    CostOverflowError,
    InexactInputError,
    NotHermitianError,
    OutOfRangeError,
    PolyNotBoundedError,
)
from blocksketch.linalg import is_unitary, unitary_dilation
from blocksketch.pauli import PauliSum, pauli_sum_matrix
from blocksketch.spectral import (
    apply_polynomial,
    chebyshev_encoding,
    evolution_cost,
    evolution_encoding,
)

from conftest import random_hermitian_contraction


def _contraction_encoding(a: np.ndarray, cost: int = 1) -> BlockEncoding:
    return BlockEncoding(unitary_dilation(a), 2, a.shape[0], scale=1.0, accuracy=0.0, cost=cost)


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
            enc = _contraction_encoding(a)
            for n in range(17):
                tn = chebyshev_encoding(enc, n)
                assert np.max(np.abs(tn.block - _spectral_chebyshev(a, n))) <= 1e-8
                assert tn.cost == n * enc.cost


def test_chebyshev_recurrence_cross_check(rng):
    a = random_hermitian_contraction(rng, 4)
    enc = _contraction_encoding(a)
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
    enc = _contraction_encoding(m)
    r3 = apply_polynomial(enc, chebyshev_t(3), 1e-4)
    assert np.max(np.abs(r3.block - np.diag([-0.5, 0.5]))) < 1e-10


def test_apply_polynomial_linearity(rng):
    a = random_hermitian_contraction(rng, 4)
    enc = _contraction_encoding(a)
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
    with pytest.raises(CostOverflowError):
        apply_polynomial(replace(b, cost=2**62), chebyshev_t(4), 1e-3)
    assert is_unitary(apply_polynomial(b, chebyshev_t(2), 0.0).unitary, 1e-10)


def test_chebyshev_encoding_continues_from_previous_orders(rng):
    a = random_hermitian_contraction(rng, 8)
    enc = _contraction_encoding(a, cost=3)
    previous = ()
    for n in range(12):
        step = chebyshev_encoding(enc, n, previous)
        scratch = chebyshev_encoding(enc, n)
        assert np.array_equal(step.block, scratch.block)
        assert (step.cost, step.ancilla_dim) == (scratch.cost, scratch.ancilla_dim)
        previous = (step, *previous[:1])

    t3, t2 = chebyshev_encoding(enc, 3), chebyshev_encoding(enc, 2)
    other = _contraction_encoding(a, cost=1)
    from blocksketch.errors import ValidationError

    with pytest.raises(ValidationError):
        chebyshev_encoding(enc, 4, (t2, t3))
    with pytest.raises(ValidationError):
        chebyshev_encoding(other, 4, (t3, t2))
    with pytest.raises(ValidationError):
        chebyshev_encoding(enc, 4, (t3,))
