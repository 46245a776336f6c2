"""Circuit unitaries: the verification layer behind the block-first values.

An encoding or preparation carries its block (or purification) and
ledgers; its circuit is ``partial(<builder of this module>, ...)``, which
`.unitary` calls once and validates with `check_circuit_unitary`. Tests
read it; no estimation pipeline does. This is the only module that forms
a full ancilla (x) system or system (x) purifier matrix, and it imports
nothing from the package but `errors`.

The layout, stated once. An encoding acts on ancilla (x) system, the
ancilla most significant, so its block is the top-left system_dim square.
A Pauli sum or linear combination puts a prepare register of power-of-two
dimension in front, loading the square-root weights; prepare states past
the last branch select the identity. The branches of a combination share
one register of the largest input ancilla dimension, a smaller input
padded by the identity (a direct sum). A product gives each factor its own
ancilla register, in factor order. T_n(A) alternates U and U^dagger with
the reflection (2|0><0| - I) (x) I. p(A)/2 is a unitary dilation on one
new most significant qubit. A preparation acts on system (x) purifier,
the system most significant, with the purification as its first column:
n Bell pairs (a Hadamard layer, then a CNOT from each system qubit onto
its purifier mirror) for the maximally mixed state, a QR completion of
the vector otherwise.

Also the model the amplitude-estimation tests check the sin^2((2k+1)
theta) law against: `AmplitudeProblem` and its `grover_operator`, which
reflects about the good subspace first and then about psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidProjectorError,
    NormTooLargeError,
    NotNormalizedError,
    NotUnitaryError,
)

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10
# Circuit unitaries up to this dimension get the exact O(dim^3) check; larger
# ones get the O(dim^2) isometry probe on PROBE_COLUMNS seeded random columns.
EXACT_UNITARY_DIM = 256
PROBE_COLUMNS = 4
PROBE_SEED = 0

def as_complex_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    return a


def hermitian_gap(m: np.ndarray) -> float:
    """Max-entry deviation of a square matrix from its conjugate transpose;
    0 exactly when the two are equal entry for entry."""
    return float(np.max(np.abs(m - m.conj().T)))


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """Max-entry deviation from the conjugate transpose is at most tol."""
    m = as_complex_matrix(m)
    return m.shape[0] == m.shape[1] and hermitian_gap(m) <= tol


def is_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """Max-entry deviation of m @ m^dagger from the identity is at most tol."""
    m = as_complex_matrix(m)
    eye = np.eye(m.shape[0])
    return m.shape == eye.shape and float(np.max(np.abs(m @ m.conj().T - eye))) <= tol


def passes_isometry_probe(m: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """Seeded randomized isometry check of a square matrix in O(dim^2).

    For PROBE_COLUMNS random unit columns V, the Gram matrix (m V)^dagger
    (m V) must match V^dagger V within tol in every entry; its diagonal
    compares ||m v|| with ||v||. A unitary passes; a matrix with
    m^dagger m != I fails unless V happens to miss the deviation.
    """
    rng = np.random.default_rng(PROBE_SEED)
    shape = (m.shape[0], PROBE_COLUMNS)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    v /= np.linalg.norm(v, axis=0)
    mv = m @ v
    return float(np.max(np.abs(mv.conj().T @ mv - v.conj().T @ v))) <= tol


def check_circuit_unitary(u: np.ndarray, full_dim: int) -> np.ndarray:
    """Validate a circuit unitary and return it as a complex array.

    Up to EXACT_UNITARY_DIM, u u^dagger is checked against the identity;
    above it, u must pass the isometry probe. No size goes unchecked.

    Raises:
        DimensionMismatchError: if u is not full_dim x full_dim.
        NotUnitaryError: if u fails the check for its size within UNITARY_TOL.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (full_dim, full_dim):
        raise DimensionMismatchError(f"unitary shape {u.shape} != ({full_dim}, {full_dim})")
    check = is_unitary if full_dim <= EXACT_UNITARY_DIM else passes_isometry_probe
    if not check(u, UNITARY_TOL):
        raise NotUnitaryError(f"matrix is not unitary within {UNITARY_TOL:.0e}")
    return u


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    Negative rounding residues in the spectrum are clamped to zero.
    """
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    w = np.maximum(w, 0.0)
    return (v * np.sqrt(w)) @ v.conj().T


def unitary_dilation(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Single-ancilla unitary embedding of a contraction.

    For square m with spectral norm at most 1 returns the 2D x 2D unitary

        [[m,              sqrt(I - m m*)],
         [sqrt(I - m* m), -m*           ]]

    whose top-left D x D block equals m.

    Raises:
        NormTooLargeError: if the spectral norm of m exceeds 1 + tol.
    """
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("dilation requires a square matrix")
    norm = float(np.linalg.norm(m, 2))
    if norm > 1.0 + tol:
        raise NormTooLargeError(f"spectral norm {norm:.12g} exceeds 1")
    d = m.shape[0]
    eye = np.eye(d)
    out = np.empty((2 * d, 2 * d), dtype=complex)
    out[:d, :d] = m
    out[:d, d:] = psd_sqrt(eye - m @ m.conj().T)
    out[d:, :d] = psd_sqrt(eye - m.conj().T @ m)
    out[d:, d:] = -m.conj().T
    return out


def embed_operator(op: np.ndarray, dims, targets) -> np.ndarray:
    """Extend an operator by identity onto a full tensor-product space.

    `op` acts on the tensor factors listed in `targets` (in that order);
    `dims` are the dimensions of all factors. Returns the matrix of
    op (x) identity reordered to the original factor ordering.
    """
    dims = list(dims)
    targets = list(targets)
    n = len(dims)
    rest = [i for i in range(n) if i not in targets]
    perm = targets + rest
    d_rest = int(np.prod([dims[i] for i in rest], initial=1))
    big = np.kron(np.asarray(op, dtype=complex), np.eye(d_rest))
    perm_dims = [dims[p] for p in perm]
    big = big.reshape(perm_dims + perm_dims)
    inv = np.argsort(perm)
    big = big.transpose(list(inv) + [n + i for i in inv])
    full = int(np.prod(dims))
    return np.ascontiguousarray(big.reshape(full, full))


def unitary_completion(v: np.ndarray) -> np.ndarray:
    """A unitary whose first column is the given unit vector.

    Completed by QR factorization of [v | I]; the global phase is fixed so
    the first column equals v to roundoff.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    n = v.size
    nrm = float(np.linalg.norm(v))
    if not abs(nrm - 1.0) <= 1e-9:
        raise ValueError(f"first column must be a unit vector, norm is {nrm:.12g}")
    q, _ = np.linalg.qr(np.column_stack([v, np.eye(n, dtype=complex)]))
    phase = complex(np.vdot(q[:, 0], v))
    phase /= abs(phase)
    return q * phase


def own_circuit(u: np.ndarray) -> np.ndarray:
    """The circuit of a unitary that is its own encoding: u itself."""
    return u


def _select_circuit(weights, branches: list[np.ndarray], dim_prep: int) -> np.ndarray:
    """Prepare/select/unprepare unitary: branch i on prepare state i."""
    branch_dim = branches[0].shape[0]
    col = np.zeros(dim_prep, dtype=complex)
    col[: len(weights)] = np.sqrt(weights)
    v_prep = unitary_completion(col)
    v_select = np.eye(dim_prep * branch_dim, dtype=complex)
    for lo, branch in zip(range(0, len(v_select), branch_dim), branches):
        v_select[lo : lo + branch_dim, lo : lo + branch_dim] = branch

    eye = np.eye(branch_dim)
    return np.kron(v_prep.conj().T, eye) @ v_select @ np.kron(v_prep, eye)


def pauli_sum_circuit(s, dim_anc: int, word_matrix) -> np.ndarray:
    """Prepare/select/unprepare unitary of a Pauli sum s: branch i is the
    signed matrix of term i's word, as `word_matrix` (the caller's
    `pauli.pauli_word_matrix`) builds it."""
    weights = np.array([abs(t.coefficient) for t in s.terms]) / s.scale()
    branches = [(1.0 if t.coefficient > 0 else -1.0) * word_matrix(t.word) for t in s.terms]
    return _select_circuit(weights, branches, dim_anc)


def adjoint_circuit(b) -> np.ndarray:
    """The conjugate transpose of the encoding b's unitary."""
    return b.unitary.conj().T


def product_circuit(encodings) -> np.ndarray:
    """Product of the factor unitaries, each on its own ancilla register."""
    dim_sys = encodings[0].system_dim
    dims = [b.ancilla_dim for b in encodings] + [dim_sys]
    sys_pos = len(encodings)
    u = np.eye(int(np.prod(dims)), dtype=complex)
    for i, b in enumerate(encodings):
        u = u @ embed_operator(b.unitary, dims, [i, sys_pos])
    return u


def combine_circuit(phases: list[complex], encodings, weights, dim_prep: int) -> np.ndarray:
    """Prepare/select/unprepare unitary of a linear combination: branch i
    is phase i times the unitary of encoding i, padded by the identity."""
    branch_dim = max(b.ancilla_dim for b in encodings) * encodings[0].system_dim
    branches = []
    for p, b in zip(phases, encodings):
        padded = np.eye(branch_dim, dtype=complex)
        padded[: len(b.unitary), : len(b.unitary)] = b.unitary
        branches.append(p * padded)
    return _select_circuit(weights, branches, dim_prep)


def alternating_word(b, n: int) -> np.ndarray:
    """U R U^dagger R U ... (n factors of the encoding b's U or U^dagger)
    with the ancilla reflection R; the identity for n = 0."""
    full = b.ancilla_dim * b.system_dim
    if n == 0:
        return np.eye(full, dtype=complex)
    reflect = -np.eye(full, dtype=complex)
    reflect[: b.system_dim, : b.system_dim] += 2.0 * np.eye(b.system_dim)
    u_adj = b.unitary.conj().T
    word = np.array(b.unitary)
    for j in range(2, n + 1):
        word = word @ reflect @ (u_adj if j % 2 == 0 else b.unitary)
    return word


def dilation_circuit(halved: np.ndarray, ancilla_dim: int) -> np.ndarray:
    """The unitary dilation of the halved block, on a new qubit."""
    dilated = unitary_dilation(halved)
    return embed_operator(dilated, [2, ancilla_dim, halved.shape[0]], [0, 2])


def bell_unitary(n_qubits: int) -> np.ndarray:
    """Unitary sending |0> to the maximally entangled state of n Bell
    pairs on C^{2^n} (x) C^{2^n}."""
    dim = 1 << n_qubits
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    h_all = reduce(np.kron, [had] * n_qubits, np.ones((1, 1)))
    # The layers send |a>|b> to sum_i H[i, a] |i>|b xor i>, so the entry at
    # row (i, j), column (a, b) is H[i, a] where b = i xor j and 0 elsewhere.
    i, j = np.indices((dim, dim), sparse=True)
    u = np.zeros((dim, dim, dim, dim), dtype=complex)
    u[i, j, :, i ^ j] = h_all[i]
    return u.reshape(dim * dim, dim * dim)


@dataclass(frozen=True, eq=False)
class AmplitudeProblem:
    """A state vector and the projector whose image norm is estimated."""

    psi: np.ndarray
    projector: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex).reshape(-1)
        proj = np.asarray(self.projector, dtype=complex)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "projector", proj)
        nrm = float(np.linalg.norm(psi))
        if not abs(nrm - 1.0) <= 1e-9:
            raise NotNormalizedError(f"state norm {nrm:.12g} differs from 1")
        if proj.shape != (psi.size, psi.size):
            raise DimensionMismatchError(
                f"projector shape {proj.shape} incompatible with state of size {psi.size}"
            )
        if not is_hermitian(proj, 1e-10):
            raise InvalidProjectorError("projector is not Hermitian within 1e-10")
        if float(np.max(np.abs(proj @ proj - proj))) > 1e-9:
            raise InvalidProjectorError("projector is not idempotent within 1e-9")

    def true_amplitude(self) -> float:
        return float(np.clip(np.linalg.norm(self.projector @ self.psi), 0.0, 1.0))


def grover_operator(p: AmplitudeProblem) -> np.ndarray:
    """-(I - 2 |psi><psi|)(I - 2 Pi), the good subspace flipped first
    (Brassard, Hoyer, Mosca and Tapp 2002), so that ||Pi Q^k psi||^2 =
    sin^2((2k + 1) theta) with sin theta = ||Pi psi||."""
    eye = np.eye(p.psi.size)
    reflect_state = eye - 2.0 * np.outer(p.psi, p.psi.conj())
    reflect_proj = eye - 2.0 * p.projector
    return -reflect_state @ reflect_proj
