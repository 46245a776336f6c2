"""Brute-force spectral oracles for every estimand.

Ground truth: dense eigendecompositions and exact matrix exponentials, no
block-encoding machinery. `oracle_correlation` covers the n-time
correlation functions and `oracle_sketch` every spectral sketch. A sharp
interval sum uses the closed interval [a, b]; window-function comparisons
must budget for strip mass so the endpoint convention never decides a
result.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .algorithms import DOS, RESPONSE, SketchRequest
from .chebyshev import WindowPoly
from .pauli import PauliSum, pauli_sum_matrix
from .state_prep import reduced_density


def eigen_expectations(h: PauliSum, op) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues E_i of H (ascending) and the expectations <psi_i| op |psi_i>
    in the matching eigenvectors."""
    energies, vecs = np.linalg.eigh(pauli_sum_matrix(h))
    return energies, np.einsum("si,si->i", vecs.conj(), np.asarray(op, dtype=complex) @ vecs)


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


def _sketch_weight_operator(req: SketchRequest) -> np.ndarray:
    """C rho B: the operator whose eigenstate expectations weight f(E_i/alpha)
    in the sketched Tr(rho B f(H/alpha) C). rho is I/D for dos, the outer
    product |s><s| of the pure `req.state` for ldos and its reduced density
    for response."""
    if req.kind == DOS:
        return np.eye(req.hamiltonian.dim) / req.hamiltonian.dim
    if req.kind == RESPONSE:
        return (
            pauli_sum_matrix(req.c_observable)
            @ reduced_density(req.state)
            @ pauli_sum_matrix(req.b_observable)
        )
    site = req.state.purification
    return np.outer(site, site.conj())


def oracle_sketch(req: SketchRequest, window: WindowPoly | None = None) -> list[complex]:
    """Exact values of the quantities a sketch of `req` estimates.

    Every value is sum_i f(E_i) <psi_i| C rho B |psi_i>, with rho = I/D for
    dos and `req.state` otherwise, real for dos and ldos. A moments request
    takes f = T_n(E/alpha), n = 0..N. An integral request takes
    f = w(E/alpha) with the sketch's proven `window`, or, with no
    window, the sharp indicator of the closed interval a <= E <= b.
    """
    h = req.hamiltonian
    energies, weights = eigen_expectations(h, _sketch_weight_operator(req))
    if req.kind != RESPONSE:
        weights = np.real(weights)
    x = energies / h.scale()
    if req.interval is None:
        vander = chebvander(np.clip(x, -1.0, 1.0), req.num_moments)
        return [complex(v) for v in vander.T @ weights]
    if window is None:
        a, b = req.interval
        return [complex(np.sum(weights[(energies >= a) & (energies <= b)]))]
    return [complex(np.sum(weights * window.eval(x)))]
