"""Brute-force spectral oracles for every estimand.

Ground truth for tests: dense eigendecompositions and exact matrix
exponentials, no block-encoding machinery. Interval masses use the closed
interval [a, b]; window-function comparisons must budget for strip mass so
the endpoint convention never decides a result.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .algorithms import DOS, RESPONSE, SketchRequest, SketchResult
from .errors import BadIntervalError, ScaleTooSmallError
from .linalg import spectral_norm
from .pauli import PauliSum, pauli_sum_matrix
from .state_prep import reduced_density


def eigen_expectations(h: PauliSum, op) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues E_i of H (ascending) and the expectations <psi_i| op |psi_i>
    in the matching eigenvectors."""
    energies, vecs = np.linalg.eigh(pauli_sum_matrix(h))
    return energies, np.einsum("si,st,ti->i", vecs.conj(), np.asarray(op, dtype=complex), vecs)


def _expm_hermitian(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    return (v * np.exp(1j * w * t)) @ v.conj().T


def oracle_correlation(h: PauliSum, observables, rho: np.ndarray) -> complex:
    """Tr(rho prod_i e^{iHt_i} O_i e^{-iHt_i}) by dense exponentials."""
    w, v = np.linalg.eigh(pauli_sum_matrix(h))
    prod = np.eye(h.dim, dtype=complex)
    for obs, t in observables:
        forward = _expm_hermitian(w, v, t)
        prod = prod @ forward @ pauli_sum_matrix(obs) @ forward.conj().T
    return complex(np.trace(np.asarray(rho, dtype=complex) @ prod))


def oracle_dos_integral(h: PauliSum, a: float, b: float, weights=None) -> float:
    """Spectral mass in the closed interval [a, b].

    Each eigenpair contributes <psi_i| diag(weights) |psi_i>; the default
    weight vector is 1/D everywhere (plain density of states). A one-hot
    weight vector gives the local density of states at that site.
    """
    if not a < b:
        raise BadIntervalError(f"need a < b, got [{a}, {b}]")
    energies, vecs = np.linalg.eigh(pauli_sum_matrix(h))
    if weights is None:
        weights = np.full(h.dim, 1.0 / h.dim)
    weights = np.asarray(weights, dtype=float)
    site_mass = np.real(np.sum(np.abs(vecs) ** 2 * weights[:, None], axis=0))
    inside = (energies >= a) & (energies <= b)
    return float(np.sum(site_mass[inside]))


def oracle_moments(h: PauliSum, alpha: float, max_order: int, weight_operator) -> np.ndarray:
    """Chebyshev moments sum_i T_n(E_i / alpha) <psi_i| A |psi_i>, n = 0..N."""
    energies, a_diag = eigen_expectations(h, weight_operator)
    if spectral_norm(pauli_sum_matrix(h)) > alpha * (1.0 + 1e-9):
        raise ScaleTooSmallError(
            f"spectral norm exceeds alpha={alpha}; rescale before taking moments"
        )
    vander = chebvander(np.clip(energies / alpha, -1.0, 1.0), max_order)
    return vander.T @ np.real(a_diag)


def oracle_response(
    h: PauliSum,
    b_obs: PauliSum,
    c_obs: PauliSum,
    rho: np.ndarray,
    interval: tuple[float, float] | None = None,
    moment: int | None = None,
    alpha: float | None = None,
) -> complex:
    """Exact spectral sum for B-weighted response.

    With `interval` returns sum over eigenpairs in [a, b] of
    Tr(rho B |psi_i><psi_i| C); with `moment` (and alpha) weights each
    eigenpair by T_n(E_i / alpha) instead.
    """
    if (interval is None) == (moment is None):
        raise ValueError("pass exactly one of interval or moment")
    sandwich = (
        pauli_sum_matrix(c_obs) @ np.asarray(rho, dtype=complex) @ pauli_sum_matrix(b_obs)
    )
    energies, per_state = eigen_expectations(h, sandwich)
    if interval is not None:
        a, b = interval
        if not a < b:
            raise BadIntervalError(f"need a < b, got [{a}, {b}]")
        mask = (energies >= a) & (energies <= b)
        return complex(np.sum(per_state[mask]))
    if alpha is None:
        raise ValueError("moment queries require alpha")
    if spectral_norm(pauli_sum_matrix(h)) > alpha * (1.0 + 1e-9):
        raise ScaleTooSmallError(f"spectral norm exceeds alpha={alpha}")
    coeffs = np.zeros(moment + 1)
    coeffs[moment] = 1.0
    weights = np.polynomial.chebyshev.chebval(np.clip(energies / alpha, -1.0, 1.0), coeffs)
    return complex(np.sum(per_state * weights))


def _sketch_weight_operator(req: SketchRequest) -> np.ndarray:
    """C rho B: the operator whose eigenstate expectations weight f(E_i/alpha)
    in the sketched Tr(rho B f(H/alpha) C)."""
    if req.kind == DOS:
        return np.eye(req.hamiltonian.dim) / req.hamiltonian.dim
    if req.kind == RESPONSE:
        return (
            pauli_sum_matrix(req.c_observable)
            @ reduced_density(req.state)
            @ pauli_sum_matrix(req.b_observable)
        )
    site = np.asarray(req.site_state, dtype=complex)
    return np.outer(site, site.conj())


def oracle_sketch(req: SketchRequest, sketch: SketchResult) -> list[complex]:
    """Exact values of the quantities a sketch estimates.

    For an integral sketch this is the windowed estimand
    sum_i w(E_i/alpha) <psi_i| C rho B |psi_i> with the sketch's own
    window; for a moments sketch, the sharp Chebyshev moments
    sum_i T_n(E_i/alpha) <psi_i| C rho B |psi_i>, n = 0..N.
    """
    h = req.hamiltonian
    energies, weights = eigen_expectations(h, _sketch_weight_operator(req))
    if req.kind != RESPONSE:
        weights = np.real(weights)
    x = energies / h.scale()
    if req.interval is not None:
        return [complex(np.sum(weights * sketch.window_meta.eval(x)))]
    vander = chebvander(np.clip(x, -1.0, 1.0), req.num_moments)
    return [complex(v) for v in vander.T @ weights]
