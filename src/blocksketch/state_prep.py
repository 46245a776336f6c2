"""Preparation unitaries: purifications of density operators.

A preparation unitary sends basis state zero to a purification of the
target density operator. Values are purification-first: a
`PreparationUnitary` stores the purification vector, which is all
`reduced_density` and the estimators read, and the verification layer
`circuits` builds its unitary, in the layout stated there, only when
`.unitary` is first read. Covers pure states, the maximally mixed state
on n qubits (n Bell pairs), and thermal states computed spectrally with
the standard cost formula preserved for the ledger.

Also defines the on-disk state format consumed by the CLI:
``pure <amplitudes>`` | ``mixed`` | ``thermal <beta>`` | ``basis <index>``.

A purification is float64 where it is real by construction: the Bell
pairs of I/D, basis states, real vectors and `pure` directives whose
imaginary parts are all zero; its density is then real too. Thermal and
other complex purifications stay complex (the dtype rule of
`block_encoding`).

The thermal state needs numpy alone: its log partition function is the
max-shifted log-sum-exp of the Gibbs logits, from the same shifted
exponentials that give its weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import circuits
from .errors import (
    DimensionMismatchError,
    NotNormalizedError,
    OutOfRangeError,
    ParseError,
    _checked_cost,
)
from .pauli import PauliSum, pauli_sum_matrix, read_input

THERMAL_COST_EPS = 1e-3
NORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PreparationUnitary:
    """A purification on system (x) purifier of a density operator, with
    the circuit that prepares it from basis state zero.

    `purification` is the unit vector, stored read-only as float64 if it
    is given real and as complex128 otherwise; `circuit` is a
    zero-argument callable building the full unitary, whose first column
    is the purification. `.unitary` calls it, validates the result and
    caches it on first access; `.density` (what `reduced_density` returns)
    is likewise formed once, on first access, and cached read-only.
    """

    purification: np.ndarray
    system_dim: int
    purifier_dim: int
    circuit: Callable[[], np.ndarray] = field(repr=False, compare=False)
    cost: int = 0

    def __post_init__(self):
        purification = np.array(self.purification).reshape(-1)
        real = purification.dtype.kind in "biuf"
        purification = purification.astype(float if real else complex, copy=False)
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
        first access and validated by `circuits.check_circuit_unitary`."""
        return circuits.check_circuit_unitary(self.circuit(), self.system_dim * self.purifier_dim)

    @cached_property
    def density(self) -> np.ndarray:
        """Partial trace of the purification over the purifier register,
        formed on first access and cached read-only."""
        psi = self.purification.reshape(self.system_dim, self.purifier_dim)
        rho = psi @ psi.conj().T
        rho.setflags(write=False)
        return rho


def reduced_density(p: PreparationUnitary) -> np.ndarray:
    """The reduced density of p on the system register (read-only)."""
    return p.density


def prepare_pure(v) -> PreparationUnitary:
    """Trivial (purifier dimension 1) preparation of a normalized vector,
    real if v is."""
    v = np.array(v).reshape(-1)
    return PreparationUnitary(
        system_dim=v.size,
        purifier_dim=1,
        cost=v.size,
        purification=v,
        circuit=partial(circuits.unitary_completion, v),
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


def prepare_maximally_mixed(system_dim: int) -> PreparationUnitary:
    """Exact preparation of I/D on n = log2(D) qubits as n Bell pairs.

    The purifier mirrors the system register, so the purification is
    (1/sqrt D) sum_i |i>|i> and its reduced density is I/D. Its circuit
    (`circuits.bell_unitary`) is 2n gates.

    Raises:
        OutOfRangeError: if D is not a power of two (2^n for n qubits).
    """
    d = int(system_dim)
    if d < 1 or d & (d - 1):
        raise OutOfRangeError(
            f"system dimension must be a power of two (2^n for n qubits), got {system_dim}"
        )
    n = d.bit_length() - 1
    purification = np.zeros(d * d)
    purification[:: d + 1] = 1.0 / math.sqrt(d)
    return PreparationUnitary(
        system_dim=d,
        purifier_dim=d,
        cost=2 * n,
        purification=purification,
        circuit=partial(circuits.bell_unitary, n),
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
    weights; the circuit-level construction is out of scope but its cost
    formula is evaluated (Q = number of terms, alpha = coefficient
    one-norm, eps = 1e-3, unit constants) and rounded up into the cost
    ledger; CostOverflowError if it exceeds 2^63 - 1, as for every ledger.
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
    top = logits.max()
    weights = np.exp(logits - top)
    total = weights.sum()
    weights /= total
    log_z = float(top + np.log(total))

    dim = h.dim
    purification = (vecs * np.sqrt(weights)).reshape(-1)

    cost = thermal_cost_estimate(len(h.terms), h.scale(), beta_inv_temp, dim, log_z)
    _checked_cost(cost, f"thermal preparation cost at inverse temperature {beta_inv_temp!r}")
    prep = PreparationUnitary(
        system_dim=dim,
        purifier_dim=dim,
        cost=math.ceil(cost),
        purification=purification,
        circuit=partial(circuits.unitary_completion, purification),
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
            # Divided in complex arithmetic, so that a real directive keeps
            # the amplitudes it had as a complex one bit for bit.
            amps = amps / nrm
            return prepare_pure(amps if np.any(amps.imag) else amps.real)
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
