"""Dense complex linear algebra helpers used by every other module.

All functions are pure and operate on immutable inputs; values are safe to
share across concurrent tasks.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NormTooLargeError, NotUnitaryError

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
    if m.shape[0] != m.shape[1]:
        return False
    return hermitian_gap(m) <= tol


def is_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """Max-entry deviation of m @ m^dagger from the identity is at most tol."""
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    eye = np.eye(m.shape[0])
    return float(np.max(np.abs(m @ m.conj().T - eye))) <= tol


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


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(as_complex_matrix(m), 2))


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
        NormTooLargeError: if spectral_norm(m) > 1 + tol.
    """
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("dilation requires a square matrix")
    norm = spectral_norm(m)
    if norm > 1.0 + tol:
        raise NormTooLargeError(f"spectral norm {norm:.12g} exceeds 1")
    d = m.shape[0]
    eye = np.eye(d)
    top_right = psd_sqrt(eye - m @ m.conj().T)
    bottom_left = psd_sqrt(eye - m.conj().T @ m)
    out = np.empty((2 * d, 2 * d), dtype=complex)
    out[:d, :d] = m
    out[:d, d:] = top_right
    out[d:, :d] = bottom_left
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


def embed_direct_sum(u: np.ndarray, full_dim: int) -> np.ndarray:
    """Pad a unitary to act as identity on the trailing coordinates."""
    d = u.shape[0]
    if d > full_dim:
        raise ValueError(f"cannot embed dimension {d} into {full_dim}")
    out = np.eye(full_dim, dtype=complex)
    out[:d, :d] = u
    return out


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
