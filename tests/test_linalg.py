import numpy as np
import pytest

from blocksketch.block_encoding import BlockEncoding
from blocksketch.errors import NormTooLargeError, NotUnitaryError
from blocksketch.linalg import (
    EXACT_UNITARY_DIM,
    check_circuit_unitary,
    embed_operator,
    is_hermitian,
    is_unitary,
    spectral_norm,
    unitary_completion,
    unitary_dilation,
)
from blocksketch.pauli import PauliSum, pauli_sum_matrix

from conftest import random_hermitian_contraction, random_pauli_sum


def test_predicates():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert is_hermitian(x)
    assert is_unitary(x)
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert not is_unitary(0.5 * x)


def test_spectral_norm_examples():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0)
    assert spectral_norm(np.diag([0.3, -0.7])) == pytest.approx(0.7)
    m = pauli_sum_matrix(PauliSum.from_terms([(0.3, "Z"), (0.2, "X")]))
    assert spectral_norm(m) == pytest.approx(np.sqrt(0.13), rel=1e-9)


def test_dilation_examples():
    assert np.allclose(unitary_dilation(np.zeros((1, 1))), [[0, 1], [1, 0]])
    d = unitary_dilation(np.eye(2))
    assert np.allclose(d, np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), -np.eye(2)]]))
    d = unitary_dilation(np.array([[0.6]]))
    assert np.allclose(d, [[0.6, 0.8], [0.8, -0.6]])


def test_dilation_rejects_expansion():
    with pytest.raises(NormTooLargeError):
        unitary_dilation(1.5 * np.eye(2))


def test_dilation_random_contractions(rng):
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m /= np.linalg.norm(m, 2) * (1.0 + rng.uniform(0, 2))
        u = unitary_dilation(m)
        assert is_unitary(u, 1e-10)
        assert np.max(np.abs(u[:dim, :dim] - m)) < 1e-12


def test_norm_bounded_by_pauli_scale(rng):
    for _ in range(20):
        qubits = int(rng.integers(1, 5))
        s = random_pauli_sum(rng, qubits, 8)
        assert spectral_norm(pauli_sum_matrix(s)) <= s.scale() + 1e-12


def test_embed_operator_tensor_consistency(rng):
    dims = [2, 3, 2]
    u = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    # act on factors (0, 2): compare against kron-with-permutation by brute force
    full = embed_operator(u, dims, [0, 2])
    big = np.zeros((12, 12), dtype=complex)
    for a in range(2):
        for b in range(3):
            for c in range(2):
                for ap in range(2):
                    for cp in range(2):
                        row = (a * 3 + b) * 2 + c
                        col = (ap * 3 + b) * 2 + cp
                        big[row, col] += u[a * 2 + c, ap * 2 + cp]
    assert np.max(np.abs(full - big)) < 1e-12


def test_unitary_completion(rng):
    for dim in (1, 2, 5, 8):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        u = unitary_completion(v)
        assert is_unitary(u, 1e-10)
        assert np.max(np.abs(u[:, 0] - v)) < 1e-12
    with pytest.raises(ValueError):
        unitary_completion(np.array([1.0, 1.0]))


def test_unitary_completion_rejects_nan():
    with pytest.raises(ValueError):
        unitary_completion(np.array([np.nan, 0.0]))


def test_circuit_unitary_check_stays_on_above_the_exact_limit(rng):
    n = 512
    assert n > EXACT_UNITARY_DIM
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    assert check_circuit_unitary(u, n) is not None
    bad = u.copy()
    bad[:, 7] *= 1.01
    assert not is_unitary(bad)
    with pytest.raises(NotUnitaryError):
        check_circuit_unitary(bad, n)
    with pytest.raises(NotUnitaryError):
        BlockEncoding(unitary=bad, ancilla_dim=2, system_dim=n // 2, scale=1.0)
