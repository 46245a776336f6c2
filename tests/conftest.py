from functools import partial

import numpy as np
import pytest

from blocksketch.block_encoding import BlockEncoding
from blocksketch.circuits import unitary_dilation
from blocksketch.pauli import PauliSum

PAULI_LETTERS = ("I", "X", "Y", "Z")


def random_pauli_sum(rng, qubits: int, max_terms: int, coeff_scale: float = 1.0) -> PauliSum:
    """A random Pauli sum with distinct words and nonzero coefficients."""
    n_terms = int(rng.integers(1, min(max_terms, 4**qubits) + 1))
    words = set()
    while len(words) < n_terms:
        words.add("".join(rng.choice(PAULI_LETTERS, size=qubits)))
    pairs = []
    for word in sorted(words):
        coeff = 0.0
        while coeff == 0.0:
            coeff = float(rng.normal()) * coeff_scale
        pairs.append((coeff, word))
    return PauliSum.from_terms(pairs)


def random_state_vector(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density_matrix(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian_contraction(rng, dim: int, margin: float = 1.05) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = (a + a.conj().T) / 2.0
    return a / (np.linalg.norm(a, 2) * margin)


def contraction_encoding(a: np.ndarray, accuracy: float = 0.0, cost: int = 1) -> BlockEncoding:
    """A 1-scaled encoding of the contraction a (norm measured), whose
    circuit is its single-qubit unitary dilation."""
    return BlockEncoding(
        a, 2, a.shape[0], scale=1.0, accuracy=accuracy, cost=cost, circuit=partial(unitary_dilation, a)
    )


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(rho - sigma)
    return 0.5 * float(np.sum(np.abs(eigs)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
