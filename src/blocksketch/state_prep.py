"""Preparation unitaries: purifications of density operators.

A preparation unitary acts on system (x) purifier (system most significant)
and sends basis state zero to a purification of the target density
operator. Values are purification-first: a `PreparationUnitary` stores the
purification vector, which is all `reduced_density` and the estimators
read, and builds its circuit unitary only when `.unitary` is first read.
Covers pure states (QR completion of the vector), the maximally mixed
state (an exact Grover amplification with a flag qubit), and thermal
states computed spectrally with the standard cost formula preserved for
the ledger (QR completion of the purification).

Also defines the on-disk state format consumed by the CLI:
``pure <amplitudes>`` | ``mixed`` | ``thermal <beta>`` | ``basis <index>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np
from scipy.special import logsumexp

from .errors import (
    DimensionMismatchError,
    NotNormalizedError,
    OutOfRangeError,
    ParseError,
)
from .linalg import check_circuit_unitary, unitary_completion
from .pauli import PauliSum, pauli_sum_matrix, read_input

THERMAL_COST_EPS = 1e-3
NORM_TOL = 1e-10


@dataclass(frozen=True)
class PreparationUnitary:
    """A purification on system (x) purifier of a density operator, with
    the circuit that prepares it from basis state zero.

    `purification` is the unit vector, stored read-only; `circuit` is a
    zero-argument callable building the full unitary, whose first column
    is the purification. `.unitary` calls it, validates the result and
    caches it on first access.
    """

    purification: np.ndarray
    system_dim: int
    purifier_dim: int
    circuit: Callable[[], np.ndarray] = field(repr=False, compare=False)
    cost: int = 0

    def __post_init__(self):
        purification = np.array(self.purification, dtype=complex).reshape(-1)
        if purification.size != self.system_dim * self.purifier_dim:
            raise DimensionMismatchError(
                f"purification of size {purification.size} for "
                f"system {self.system_dim} x purifier {self.purifier_dim}"
            )
        nrm = float(np.linalg.norm(purification))
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise NotNormalizedError(f"purification norm {nrm:.12g} differs from 1")
        purification.setflags(write=False)
        object.__setattr__(self, "purification", purification)

    @cached_property
    def unitary(self) -> np.ndarray:
        """The full system (x) purifier unitary, built from the circuit on
        first access and validated by `check_circuit_unitary`."""
        return check_circuit_unitary(self.circuit(), self.system_dim * self.purifier_dim)


def reduced_density(p: PreparationUnitary) -> np.ndarray:
    """Partial trace of the purification over the purifier register."""
    psi = p.purification.reshape(p.system_dim, p.purifier_dim)
    return psi @ psi.conj().T


def prepare_pure(v) -> PreparationUnitary:
    """Trivial (purifier dimension 1) preparation of a normalized vector;
    the circuit is a QR completion of the vector."""
    v = np.array(v, dtype=complex).reshape(-1)
    return PreparationUnitary(
        system_dim=v.size,
        purifier_dim=1,
        cost=v.size,
        purification=v,
        circuit=partial(unitary_completion, v),
    )


def prepare_basis_state(index: int, dim: int) -> PreparationUnitary:
    if not 0 <= index < dim:
        raise OutOfRangeError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros(dim)
    v[index] = 1.0
    return prepare_pure(v)


def exact_amplification_params(beta: float) -> tuple[int, float]:
    """Grover count and shrink factor making amplification exact.

    Returns the smallest k >= 0 with (2k+1) arcsin(beta) >= pi/2 and
    gamma = sin(pi / (2(2k+1))) / beta, so that
    sin((2k+1) arcsin(gamma beta)) = 1 exactly.
    """
    if not 0.0 < beta <= 1.0:
        raise OutOfRangeError(f"beta must be in (0, 1], got {beta}")
    theta = math.asin(beta)
    k = max(0, math.ceil((math.pi / (2.0 * theta) - 1.0) / 2.0 - 1e-12))
    gamma = math.sin(math.pi / (2.0 * (2 * k + 1))) / beta
    return k, min(gamma, 1.0)


def _bell_unitary(n_qubits: int) -> np.ndarray:
    """Unitary sending |0> to the maximally entangled pair state on
    C^{2^n} (x) C^{2^n}, built from the Hadamard/CNOT structure."""
    dim = 1 << n_qubits
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    h_all = np.array([[1.0]])
    for _ in range(n_qubits):
        h_all = np.kron(h_all, had)
    u = np.kron(h_all, np.eye(dim)).astype(complex)
    # CNOT layer |i>|j> -> |i>|j xor i>: an involutive row permutation.
    idx = np.arange(dim * dim)
    i, j = idx // dim, idx % dim
    perm = i * dim + (j ^ i)
    return u[perm]


def _grover_preparation(d: int) -> np.ndarray:
    """The flag-qubit amplitude-amplification circuit of
    prepare_maximally_mixed(d)."""
    n = max(0, (d - 1).bit_length())
    dim = 1 << n
    beta = math.sqrt(d / dim)
    k, gamma = exact_amplification_params(beta)

    u_bell = _bell_unitary(n)
    full = dim * dim * 2
    flag_rot = np.array([[gamma, -math.sqrt(1.0 - gamma**2)], [math.sqrt(1.0 - gamma**2), gamma]])
    controlled = np.kron(u_bell, np.diag([1.0, 0.0])) + np.kron(
        np.eye(dim * dim), np.diag([0.0, 1.0])
    )
    u_start = controlled @ np.kron(np.eye(dim * dim), flag_rot).astype(complex)

    if k > 0:
        good = np.zeros(full)
        sys_index = np.arange(full) // (dim * 2)
        flag_index = np.arange(full) % 2
        good[(sys_index < d) & (flag_index == 0)] = 1.0
        reflect_good = np.eye(full) - 2.0 * np.diag(good)
        zero = np.zeros(full)
        zero[0] = 1.0
        reflect_zero = np.eye(full) - 2.0 * np.outer(zero, zero)
        grover = u_start @ reflect_zero @ u_start.conj().T @ reflect_good
        prep = np.linalg.matrix_power(grover, k) @ u_start
    else:
        prep = u_start
    return prep


def prepare_maximally_mixed(system_dim: int) -> PreparationUnitary:
    """Exact preparation of I/D through flag-qubit amplitude amplification.

    The system register is the qubit embedding space of dimension
    2^ceil(log2 D); the purifier is a mirror register of the same size plus
    a flag qubit. The purification is (1/sqrt D) sum_{i<D} |i>|i>|0>_flag,
    so the reduced density equals I/D on the leading D-dimensional subspace
    exactly. The circuit prepares it from |0> with a Bell-pair layer and a
    flag rotation whose angle is shrunk so that k Grover steps land the
    overlap exactly on 1; for power-of-two D the flag branch is degenerate
    (gamma = 1, k = 0).
    """
    if system_dim < 1:
        raise OutOfRangeError("system dimension must be at least 1")
    d = int(system_dim)
    n = max(0, (d - 1).bit_length())
    dim = 1 << n
    purification = np.zeros(dim * dim * 2, dtype=complex)
    mirrored = np.arange(d)
    purification[mirrored * (dim * 2) + mirrored * 2] = 1.0 / math.sqrt(d)
    return PreparationUnitary(
        system_dim=dim,
        purifier_dim=dim * 2,
        cost=2 * n,
        purification=purification,
        circuit=partial(_grover_preparation, d),
    )


def thermal_cost_estimate(
    num_terms: int, alpha: float, beta: float, dim: int, log_z: float, eps: float = THERMAL_COST_EPS
) -> float:
    """Gate-cost formula for thermal-state preparation, unit constants.

    Q alpha sqrt(D beta / Z) log(sqrt(D / Z) / eps), evaluated in log space
    so large beta does not overflow; the log factor is clamped at zero.
    """
    if beta == 0.0:
        return 0.0
    log_factor = max(0.0, 0.5 * (math.log(dim) - log_z) + math.log(1.0 / eps))
    if log_factor == 0.0:
        return 0.0
    log_r = (
        math.log(num_terms)
        + math.log(alpha)
        + 0.5 * (math.log(dim) + math.log(beta) - log_z)
        + math.log(log_factor)
    )
    return math.exp(log_r) if log_r < 700.0 else math.inf


def prepare_thermal(h: PauliSum, beta_inv_temp: float) -> tuple[PreparationUnitary, float]:
    """Spectral purification of exp(-beta H)/Z plus its cost estimate.

    The purification is sum_i sqrt(p_i) |psi_i>|i> with p_i the Gibbs
    weights, and its circuit is a QR completion of that vector; the
    circuit-level construction is out of scope but its cost formula is
    evaluated (Q = number of terms, alpha = coefficient one-norm,
    eps = 1e-3, unit constants) and rounded up into the cost ledger.
    """
    if not 0.0 <= beta_inv_temp < math.inf:
        raise OutOfRangeError(
            f"inverse temperature must be finite and nonnegative, got {beta_inv_temp}"
        )
    energies, vecs = np.linalg.eigh(pauli_sum_matrix(h))
    with np.errstate(over="ignore"):
        logits = -beta_inv_temp * energies
    if not np.all(np.isfinite(logits)):
        raise OutOfRangeError(f"beta * H overflows at inverse temperature {beta_inv_temp}")
    weights = np.exp(logits - logits.max())
    weights /= weights.sum()

    dim = h.dim
    purification = (vecs * np.sqrt(weights)).reshape(-1)

    log_z = float(logsumexp(logits))
    cost = thermal_cost_estimate(len(h.terms), h.scale(), beta_inv_temp, dim, log_z)
    cost_int = int(min(math.ceil(cost), 2**62)) if math.isfinite(cost) else 2**62
    prep = PreparationUnitary(
        system_dim=dim,
        purifier_dim=dim,
        cost=cost_int,
        purification=purification,
        circuit=partial(unitary_completion, purification),
    )
    return prep, cost


def parse_state_text(
    text: str, dim: int, hamiltonian: PauliSum | None = None, source: str = "<string>"
) -> PreparationUnitary:
    """Parse the CLI state format into a preparation unitary.

    One directive on the first non-comment line:
    ``pure <amps>`` | ``mixed`` | ``thermal <beta>`` | ``basis <index>``.
    """
    directive = None
    lineno = 0
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            directive, lineno = line, no
            break
    if directive is None:
        raise ParseError(f"{source}: no state directive found")

    fields = directive.split()
    kind = fields[0].lower()
    try:
        if kind == "pure":
            amps = np.array([complex(tok) for tok in fields[1:]])
            if amps.size != dim:
                raise ParseError(
                    f"{source}:{lineno}: expected {dim} amplitudes, got {amps.size}"
                )
            with np.errstate(over="ignore"):
                nrm = float(np.linalg.norm(amps))
            if not abs(nrm - 1.0) <= 1e-6:
                raise ParseError(f"{source}:{lineno}: amplitudes have norm {nrm:.6g}, not 1")
            return prepare_pure(amps / nrm)
        if kind == "mixed":
            if len(fields) != 1:
                raise ParseError(f"{source}:{lineno}: mixed takes no arguments")
            return prepare_maximally_mixed(dim)
        if kind == "thermal":
            if len(fields) != 2:
                raise ParseError(f"{source}:{lineno}: thermal requires exactly one beta value")
            if hamiltonian is None:
                raise ParseError(f"{source}:{lineno}: thermal state requires a Hamiltonian")
            prep, _ = prepare_thermal(hamiltonian, float(fields[1]))
            return prep
        if kind == "basis":
            if len(fields) != 2:
                raise ParseError(f"{source}:{lineno}: basis requires exactly one index")
            return prepare_basis_state(int(fields[1]), dim)
    except ParseError:
        raise
    except (ValueError, OutOfRangeError) as exc:
        raise ParseError(f"{source}:{lineno}: {exc}") from None
    raise ParseError(f"{source}:{lineno}: unknown state kind {kind!r}")


def parse_state_file(path, dim: int, hamiltonian: PauliSum | None = None) -> PreparationUnitary:
    return parse_state_text(read_input(path), dim, hamiltonian, source=str(path))
