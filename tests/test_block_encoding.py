import numpy as np
import pytest

from blocksketch.block_encoding import (
    BlockEncoding,
    adjoint,
    encode_pauli_sum,
    encode_unitary,
    identity_encoding,
    linear_combine,
    product,
    product_error_bound,
)
from blocksketch.errors import (
    DimensionMismatchError,
    EmptySumError,
    LengthMismatchError,
    NotUnitaryError,
    OutOfRangeError,
)
from blocksketch.linalg import is_hermitian, is_unitary, spectral_norm, unitary_dilation
from blocksketch.pauli import PauliSum, pauli_sum_matrix

from conftest import random_pauli_sum

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_encode_unitary_examples():
    b = encode_unitary(Z)
    assert b.ancilla_dim == 1 and b.scale == 1.0 and b.accuracy == 0.0
    assert np.allclose(b.block, Z)
    assert np.allclose(encode_unitary(np.eye(4)).block, np.eye(4))

    w, v = np.linalg.eigh(X)
    u = (v * np.exp(1j * 0.7 * w)) @ v.conj().T
    b = encode_unitary(u)
    phases = np.sort(np.angle(np.linalg.eigvals(b.block)))
    assert np.allclose(phases, [-0.7, 0.7])


def test_encode_unitary_rejects():
    with pytest.raises(NotUnitaryError):
        encode_unitary(0.5 * np.eye(2))


def test_encode_pauli_sum_examples():
    b = encode_pauli_sum(PauliSum.from_terms([(1.0, "Z")]))
    assert b.scale == 1.0 and b.ancilla_dim == 1
    assert np.allclose(b.block, Z)

    b = encode_pauli_sum(PauliSum.from_terms([(0.5, "X"), (0.5, "Z")]))
    assert b.scale == pytest.approx(1.0)
    assert np.allclose(b.block, (X + Z) / 2)
    assert spectral_norm(b.block) == pytest.approx(1 / np.sqrt(2))

    b = encode_pauli_sum(PauliSum.from_terms([(0.3, "Z"), (0.2, "X")]))
    assert b.scale == pytest.approx(0.5)
    assert np.allclose(b.block, 0.6 * Z + 0.4 * X)
    assert b.cost == 2

    with pytest.raises(EmptySumError):
        encode_pauli_sum(None)


def test_encode_pauli_sum_random(rng):
    for _ in range(20):
        s = random_pauli_sum(rng, int(rng.integers(1, 4)), 4)
        b = encode_pauli_sum(s)
        assert is_unitary(b.unitary, 1e-9)
        assert np.max(np.abs(b.block * b.scale - pauli_sum_matrix(s))) < 1e-9


def test_product_examples():
    bx, bz = encode_unitary(X), encode_unitary(Z)
    assert np.allclose(product([bx, bz]).block, X @ Z)

    b = encode_pauli_sum(PauliSum.from_terms([(0.5, "X"), (0.5, "Z")]))
    bb = product([b, b])
    assert bb.scale == pytest.approx(1.0)
    assert np.allclose(bb.block, np.eye(2) / 2)
    assert bb.cost == 4

    assert product([bx]) is bx
    assert np.allclose(product([bx, bx]).block, np.eye(2))

    with pytest.raises(DimensionMismatchError):
        product([bx, encode_unitary(np.eye(4))])
    with pytest.raises(LengthMismatchError):
        product([])


def test_product_scale_and_unitarity(rng):
    for _ in range(10):
        s1 = random_pauli_sum(rng, 2, 3)
        s2 = random_pauli_sum(rng, 2, 3)
        b1, b2 = encode_pauli_sum(s1), encode_pauli_sum(s2)
        pr = product([b1, b2])
        assert pr.scale == pytest.approx(b1.scale * b2.scale)
        assert is_unitary(pr.unitary, 1e-9)
        expected = b1.block @ b2.block
        assert np.max(np.abs(pr.block - expected)) < 1e-9


def test_linear_combine_hermitian_parts():
    w, v = np.linalg.eigh(pauli_sum_matrix(PauliSum.from_terms([(0.4, "X"), (0.3, "Y")])))
    gamma = encode_unitary((v * np.exp(1j * w)) @ v.conj().T)
    herm = linear_combine([0.5, 0.5], [gamma, adjoint(gamma)])
    assert is_hermitian(herm.block, 1e-9)
    anti = linear_combine([-0.5j, 0.5j], [gamma, adjoint(gamma)])
    assert is_hermitian(anti.block, 1e-9)
    g = gamma.block
    assert np.max(np.abs(herm.block - (g + g.conj().T) / 2)) < 1e-9
    assert np.max(np.abs(anti.block - (g - g.conj().T) / 2j)) < 1e-9


def test_linear_combine_matches_pauli_encoding():
    lc = linear_combine([0.3, 0.2], [encode_unitary(Z), encode_unitary(X)])
    direct = encode_pauli_sum(PauliSum.from_terms([(0.3, "Z"), (0.2, "X")]))
    assert lc.scale == pytest.approx(direct.scale)
    assert np.max(np.abs(lc.block - direct.block)) < 1e-9


def test_linear_combine_errors():
    bx = encode_unitary(X)
    with pytest.raises(LengthMismatchError):
        linear_combine([1.0], [bx, bx])
    with pytest.raises(DimensionMismatchError):
        linear_combine([1.0, 1.0], [bx, encode_unitary(np.eye(4))])
    with pytest.raises(OutOfRangeError):
        linear_combine([0.0, 0.0], [bx, bx])


def test_linear_combine_unitarity_random(rng):
    for _ in range(10):
        s1 = random_pauli_sum(rng, 2, 4)
        s2 = random_pauli_sum(rng, 2, 2)
        b1, b2 = encode_pauli_sum(s1), encode_pauli_sum(s2)
        coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
        lc = linear_combine(coeffs, [b1, b2])
        assert is_unitary(lc.unitary, 1e-9)
        assert lc.scale == pytest.approx(
            abs(coeffs[0]) * b1.scale + abs(coeffs[1]) * b2.scale
        )
        expected = coeffs[0] * pauli_sum_matrix(s1) + coeffs[1] * pauli_sum_matrix(s2)
        assert np.max(np.abs(lc.block * lc.scale - expected)) < 1e-9


def test_adjoint():
    bz = encode_unitary(Z)
    assert np.allclose(adjoint(bz).block, Z)

    b_iI = linear_combine([1j], [identity_encoding(2)])
    assert np.allclose(b_iI.block, 1j * np.eye(2))
    assert np.allclose(adjoint(b_iI).block, -1j * np.eye(2))

    b = encode_pauli_sum(PauliSum.from_terms([(0.3, "Z"), (0.2, "X")]))
    bb = adjoint(adjoint(b))
    assert np.array_equal(bb.unitary, b.unitary)
    assert (bb.scale, bb.accuracy, bb.cost, bb.ancilla_dim) == (
        b.scale,
        b.accuracy,
        b.cost,
        b.ancilla_dim,
    )


def test_product_error_bound():
    assert product_error_bound([0.0]) == 0.0
    assert product_error_bound([]) == 0.0
    assert product_error_bound([0.01, 0.04]) == pytest.approx(0.09)
    assert product_error_bound([0.01] * 3) <= 9 * 0.01 + 1e-12
    assert product_error_bound([0.01] * 3) == pytest.approx(0.09)
    # closed form: fold equals the squared sum of square roots
    errs = [0.02, 0.005, 0.01]
    assert product_error_bound(errs) == pytest.approx(sum(np.sqrt(errs)) ** 2)
    with pytest.raises(OutOfRangeError):
        product_error_bound([-0.1])


def test_empirical_error_within_bound(rng):
    # deliberately perturbed encodings of Hermitian contractions
    for _ in range(10):
        dims = 2
        blocks, perturbed, errs = [], [], []
        for _j in range(3):
            a = rng.normal(size=(dims, dims)) + 1j * rng.normal(size=(dims, dims))
            a = (a + a.conj().T) / 2
            a /= np.linalg.norm(a, 2) * 1.2
            noise = rng.normal(size=(dims, dims)) + 1j * rng.normal(size=(dims, dims))
            a_wrong = a + 0.02 * noise
            a_wrong /= max(1.0, np.linalg.norm(a_wrong, 2))
            eps = float(np.linalg.norm(a - a_wrong, 2))
            blocks.append(a)
            perturbed.append(
                BlockEncoding(unitary_dilation(a_wrong), 2, dims, scale=1.0, accuracy=eps)
            )
            errs.append(eps)
        pr = product(perturbed)
        exact = np.eye(dims)
        for a in blocks:
            exact = exact @ a
        empirical = np.linalg.norm(pr.block - exact, 2)
        assert empirical <= product_error_bound(errs) + 1e-12
        assert pr.accuracy == pytest.approx(product_error_bound(errs))
