"""Block encodings and their arithmetic.

A block encoding of a target matrix A is a unitary on ancilla (x) system
whose top-left system block, times a scale alpha, represents A:
``alpha * U[:D, :D] ~ A`` within ``alpha * accuracy``. The ancilla
register is the most significant tensor factor, so the encoded block is
always the fixed top-left slice, stored read-only as ``.block``.

Values are block-first. A `BlockEncoding` carries its D x D block with the
scale, accuracy, cost and dimension ledgers, and every operation here
computes the new block from the input blocks by an exact rule. Each
operation also records its circuit recipe (prepare/select/unprepare,
ancilla-wise products); the full ancilla (x) system unitary is built from
that recipe only when `.unitary` is first read, which verification code
does and the estimation pipelines never do.

The norm ledger. A block of a unitary is a contraction, and every value
carries ``norm_bound``, an upper bound on the spectral norm of its block,
which construction checks against 1 + CONTRACTION_TOL in O(1). Each rule
proves its bound from its inputs' (Gilyen-Su-Low-Wiebe normalization
bookkeeping), so no rule runs an SVD:

- `encode_pauli_sum`: sum_i |beta_i| / alpha = 1;
- `identity_encoding`, `encode_unitary` and any explicit unitary: 1 (the
  unitary itself is still checked by `check_circuit_unitary`);
- `adjoint` and `normalized`: the input's bound;
- `product`: the product of the input bounds;
- `linear_combine`: sum_i w_i bound_i over the convex weights w_i;
- `spectral.chebyshev_encoding`: 1 for an exactly Hermitian input block
  with bound at most 1 (else an SVD, see there);
- `spectral.apply_polynomial`: sup_norm(p) / 2.

Where no rule exists the bound is measured: ``BlockEncoding(block=...,
circuit=...)``, and so `dataclasses.replace`, which passes the block back
through that constructor, run the SVD and record the measured norm.
``norm_bound`` is not a constructor argument, so no caller can assert a
bound for an arbitrary block.

All values are immutable and all operations pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptySumError,
    LengthMismatchError,
    NormTooLargeError,
    NotUnitaryError,
    OutOfRangeError,
)
from .linalg import (
    check_circuit_unitary,
    embed_direct_sum,
    embed_operator,
    is_unitary,
    spectral_norm,
    unitary_completion,
)
from .pauli import PauliSum, pauli_sum_matrix, pauli_word_matrix

CONTRACTION_TOL = 1e-10


@dataclass(frozen=True, init=False, eq=False)
class BlockEncoding:
    """The encoded block on C^system_dim of a unitary on
    C^ancilla_dim (x) C^system_dim, with a scale, an accuracy bound, and an
    abstract gate-cost ledger.

    Construct either from an explicit unitary,
    ``BlockEncoding(u, ancilla_dim, system_dim, scale=..., accuracy=..., cost=...)``,
    which is checked like a built circuit and whose top-left block is
    stored with norm bound 1, or from ``block=`` and ``circuit=``: the
    block and a zero-argument callable building the unitary, which
    `.unitary` calls, validates and caches on first access. A block passed
    this way has no rule behind it, so its spectral norm is measured by an
    SVD, checked to be at most 1 + CONTRACTION_TOL and recorded as
    ``norm_bound``. The arithmetic of this module and of `spectral` builds
    its values through the rule path instead, which records the bound its
    rule proves (see the module docstring) and checks it in O(1).
    """

    block: np.ndarray
    norm_bound: float = field(init=False)
    ancilla_dim: int
    system_dim: int
    scale: float
    accuracy: float = 0.0
    cost: int = 0
    circuit: Callable[[], np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __init__(
        self,
        unitary=None,
        ancilla_dim: int | None = None,
        system_dim: int | None = None,
        scale: float | None = None,
        accuracy: float = 0.0,
        cost: int = 0,
        *,
        block=None,
        circuit: Callable[[], np.ndarray] | None = None,
    ):
        if None in (ancilla_dim, system_dim, scale):
            raise TypeError("ancilla_dim, system_dim and scale are required")
        _check_ledger(ancilla_dim, scale, accuracy, cost)
        d = system_dim
        if unitary is not None:
            if block is not None or circuit is not None:
                raise TypeError("an explicit unitary takes no block or circuit")
            u = check_circuit_unitary(unitary, ancilla_dim * d)
            block = u[:d, :d].copy()
            circuit = lambda: u  # noqa: E731
            self.__dict__["_unitary"] = u
            norm_bound = 1.0
        elif block is None or circuit is None:
            raise TypeError("pass a unitary, or a block with the circuit that builds it")
        else:
            block = _square(np.array(block, dtype=complex), d)
            norm_bound = spectral_norm(block)
        _set_fields(self, block, norm_bound, ancilla_dim, system_dim, scale, accuracy, cost, circuit)

    @property
    def unitary(self) -> np.ndarray:
        """The full ancilla (x) system unitary, built from the circuit on
        first access and validated like an explicitly supplied one."""
        u = self.__dict__.get("_unitary")
        if u is None:
            u = check_circuit_unitary(self.circuit(), self.ancilla_dim * self.system_dim)
            self.__dict__["_unitary"] = u
        return u


def _check_ledger(ancilla_dim: int, scale: float, accuracy: float, cost: int):
    if scale <= 0:
        raise OutOfRangeError(f"scale must be positive, got {scale}")
    if accuracy < 0:
        raise OutOfRangeError(f"accuracy must be nonnegative, got {accuracy}")
    if cost < 0:
        raise OutOfRangeError(f"cost must be nonnegative, got {cost}")
    if ancilla_dim < 1:
        raise DimensionMismatchError(f"ancilla dimension must be positive, got {ancilla_dim}")


def _square(block: np.ndarray, d: int) -> np.ndarray:
    if block.shape != (d, d):
        raise DimensionMismatchError(f"block shape {block.shape} != ({d}, {d})")
    return block


def _set_fields(enc, block, norm_bound, ancilla_dim, system_dim, scale, accuracy, cost, circuit):
    """Check the norm bound and set the fields of a frozen encoding."""
    if norm_bound > 1.0 + CONTRACTION_TOL:
        raise NormTooLargeError(f"encoded block has spectral norm bound {norm_bound:.12g} > 1")
    block.setflags(write=False)
    # Frozen dataclass: fields are set through the instance dict.
    enc.__dict__.update(
        block=block,
        norm_bound=norm_bound,
        ancilla_dim=ancilla_dim,
        system_dim=system_dim,
        scale=scale,
        accuracy=accuracy,
        cost=cost,
        circuit=circuit,
    )


def _by_rule(
    block, norm_bound: float, *, ancilla_dim, system_dim, scale, accuracy, cost, circuit
) -> BlockEncoding:
    """An encoding whose block an arithmetic rule computed, recorded with
    the norm bound that rule proves and checked without an SVD.

    Package-private: the block is taken as it is (no copy) and must be a
    fresh array or an already read-only input block.
    """
    _check_ledger(ancilla_dim, scale, accuracy, cost)
    enc = object.__new__(BlockEncoding)
    block = _square(np.asarray(block, dtype=complex), system_dim)
    _set_fields(enc, block, norm_bound, ancilla_dim, system_dim, scale, accuracy, cost, circuit)
    return enc


def encode_unitary(u: np.ndarray, cost: int = 0) -> BlockEncoding:
    """Trivial encoding of a unitary: scale 1, no ancilla, exact."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, 1e-10):
        raise NotUnitaryError("input is not unitary within 1e-10")
    return BlockEncoding(u, 1, u.shape[0], scale=1.0, accuracy=0.0, cost=cost)


def _read_only_eye(d: int) -> np.ndarray:
    eye = np.eye(d, dtype=complex)
    eye.setflags(write=False)
    return eye


@lru_cache(maxsize=4)
def identity_encoding(system_dim: int) -> BlockEncoding:
    """The identity as its own exact encoding: block I, norm bound 1.

    One value per dimension, built on first use and shared while the
    dimension is among the last four asked for; its block and its unitary
    are read-only."""
    return _by_rule(
        np.eye(system_dim, dtype=complex),
        1.0,
        ancilla_dim=1,
        system_dim=system_dim,
        scale=1.0,
        accuracy=0.0,
        cost=0,
        circuit=partial(_read_only_eye, system_dim),
    )


def normalized(b: BlockEncoding) -> BlockEncoding:
    """b read as a 1-scaled encoding of A/alpha: the same block, norm
    bound, circuit and other ledgers at scale 1."""
    return _by_rule(
        b.block,
        b.norm_bound,
        ancilla_dim=b.ancilla_dim,
        system_dim=b.system_dim,
        scale=1.0,
        accuracy=b.accuracy,
        cost=b.cost,
        circuit=b.circuit,
    )


def _prepare_unitary(weights, dim: int) -> np.ndarray:
    """Unitary sending |0> to the sqrt-weight superposition, zero padded."""
    col = np.zeros(dim, dtype=complex)
    col[: len(weights)] = np.sqrt(weights)
    return unitary_completion(col)


def _pauli_sum_circuit(s: PauliSum, dim_anc: int) -> np.ndarray:
    """Prepare/select/unprepare unitary of a Pauli sum (see encode_pauli_sum)."""
    m = len(s.terms)
    dim_sys = s.dim
    weights = np.array([abs(t.coefficient) for t in s.terms]) / s.scale()
    v_prep = _prepare_unitary(weights, dim_anc)

    v_select = np.zeros((dim_anc * dim_sys, dim_anc * dim_sys), dtype=complex)
    for i in range(dim_anc):
        lo = i * dim_sys
        if i < m:
            term = s.terms[i]
            sign = 1.0 if term.coefficient > 0 else -1.0
            v_select[lo : lo + dim_sys, lo : lo + dim_sys] = sign * pauli_word_matrix(term.word)
        else:
            v_select[lo : lo + dim_sys, lo : lo + dim_sys] = np.eye(dim_sys)

    eye = np.eye(dim_sys)
    return np.kron(v_prep.conj().T, eye) @ v_select @ np.kron(v_prep, eye)


def encode_pauli_sum(s: PauliSum) -> BlockEncoding:
    """Prepare/select/unprepare encoding of a weighted Pauli sum.

    The block is sum_i (beta_i / alpha) P_i with scale alpha = sum |beta_i|;
    it is exact and the cost is the number of terms. The circuit loads
    sqrt(|beta_i| / alpha) on a power-of-two ancilla (zero padded), and the
    select unitary applies the sign-corrected Pauli word on branch i and
    the identity on padding branches.
    """
    if not isinstance(s, PauliSum) or not s.terms:
        raise EmptySumError("encode_pauli_sum requires a nonempty PauliSum")
    m = len(s.terms)
    alpha = s.scale()
    dim_anc = 1 << max(0, (m - 1).bit_length())
    return _by_rule(
        pauli_sum_matrix(s) / alpha,
        1.0,
        ancilla_dim=dim_anc,
        system_dim=s.dim,
        scale=alpha,
        accuracy=0.0,
        cost=m,
        circuit=partial(_pauli_sum_circuit, s, dim_anc),
    )


def _adjoint_circuit(b: BlockEncoding) -> np.ndarray:
    return b.unitary.conj().T


def adjoint(b: BlockEncoding) -> BlockEncoding:
    """Encoding of the conjugate transpose of the target; same ledger."""
    return _by_rule(
        b.block.conj().T,
        b.norm_bound,
        ancilla_dim=b.ancilla_dim,
        system_dim=b.system_dim,
        scale=b.scale,
        accuracy=b.accuracy,
        cost=b.cost,
        circuit=partial(_adjoint_circuit, b),
    )


def product_error_bound(errors) -> float:
    """Left fold of the two-factor composition bound
    e0 + e1 + 2 sqrt(e0 e1) over a list of per-factor accuracies.

    For n+1 equal entries e this evaluates to (n+1)^2 e.
    """
    total = 0.0
    for e in errors:
        if e < 0:
            raise OutOfRangeError("accuracies must be nonnegative")
        total = total + e + 2.0 * math.sqrt(total * e)
    return total


def _product_circuit(encodings: list[BlockEncoding]) -> np.ndarray:
    """Product of the factor unitaries, each on its own ancilla register."""
    dim_sys = encodings[0].system_dim
    dims = [b.ancilla_dim for b in encodings] + [dim_sys]
    sys_pos = len(encodings)
    u = np.eye(int(np.prod(dims)), dtype=complex)
    for i, b in enumerate(encodings):
        u = u @ embed_operator(b.unitary, dims, [i, sys_pos])
    return u


def product(encodings) -> BlockEncoding:
    """Encoding of the ordered product of the targets.

    Each factor keeps its own ancilla register (concatenated in list
    order, most significant first), so the blocks multiply; scales
    multiply, costs add, and the accuracy composes through
    product_error_bound.
    """
    encodings = list(encodings)
    if not encodings:
        raise LengthMismatchError("product requires at least one encoding")
    dims_sys = {b.system_dim for b in encodings}
    if len(dims_sys) != 1:
        raise DimensionMismatchError(f"system dimensions differ: {sorted(dims_sys)}")
    if len(encodings) == 1:
        return encodings[0]

    return _by_rule(
        reduce(np.matmul, [b.block for b in encodings]),
        math.prod(b.norm_bound for b in encodings),
        ancilla_dim=int(np.prod([b.ancilla_dim for b in encodings])),
        system_dim=encodings[0].system_dim,
        scale=float(np.prod([b.scale for b in encodings])),
        accuracy=product_error_bound([b.accuracy for b in encodings]),
        cost=int(sum(b.cost for b in encodings)),
        circuit=partial(_product_circuit, encodings),
    )


def _combine_circuit(
    phases: list[complex], encodings: list[BlockEncoding], weights: list[float], dim_prep: int
) -> np.ndarray:
    """Prepare/select/unprepare unitary of a linear combination (see
    linear_combine)."""
    m = len(encodings)
    branch_dim = max(b.ancilla_dim for b in encodings) * encodings[0].system_dim
    v_prep = _prepare_unitary(weights, dim_prep)

    v_select = np.zeros((dim_prep * branch_dim, dim_prep * branch_dim), dtype=complex)
    for i in range(dim_prep):
        lo = i * branch_dim
        if i < m:
            branch = phases[i] * embed_direct_sum(encodings[i].unitary, branch_dim)
        else:
            branch = np.eye(branch_dim)
        v_select[lo : lo + branch_dim, lo : lo + branch_dim] = branch

    eye = np.eye(branch_dim)
    return np.kron(v_prep.conj().T, eye) @ v_select @ np.kron(v_prep, eye)


def linear_combine(coeffs, encodings) -> BlockEncoding:
    """Encoding of sum_i beta_i A_i for complex beta_i.

    The block is sum_i (alpha_i |beta_i| / total) phase_i block_i with
    scale total = sum_i alpha_i |beta_i|; costs add. In the circuit the
    coefficient magnitudes go into a new prepare register of power-of-two
    dimension and the phases are absorbed into the select unitary. The
    input encodings share one ancilla register of the largest input
    ancilla dimension (each input embedded as a direct summand), so the
    ancilla dimension is prepare_dim * max_i ancilla_dim_i.
    """
    coeffs = [complex(c) for c in coeffs]
    encodings = list(encodings)
    if not encodings:
        raise LengthMismatchError("linear_combine requires at least one encoding")
    if len(coeffs) != len(encodings):
        raise LengthMismatchError(f"{len(coeffs)} coefficients for {len(encodings)} encodings")
    dims_sys = {b.system_dim for b in encodings}
    if len(dims_sys) != 1:
        raise DimensionMismatchError(f"system dimensions differ: {sorted(dims_sys)}")

    m = len(encodings)
    strengths = [b.scale * abs(c) for c, b in zip(coeffs, encodings)]
    # numpy's pairwise order, which differs from a left fold from 8 terms on.
    total = float(np.sum(strengths))
    if total <= 0:
        raise OutOfRangeError("all coefficients are zero; the combination has no scale")
    weights = [s / total for s in strengths]
    phases = [c / abs(c) if c != 0 else 1.0 for c in coeffs]
    dim_prep = 1 << max(0, (m - 1).bit_length())
    d = encodings[0].system_dim

    # A running sum from +0, which also turns the first term's -0 entries
    # into +0 as sum() from 0 would.
    block = np.zeros((d, d), dtype=complex)
    for w, p, b in zip(weights, phases, encodings):
        block += w * p * b.block
    return _by_rule(
        block,
        sum(w * b.norm_bound for w, b in zip(weights, encodings)),
        ancilla_dim=dim_prep * max(b.ancilla_dim for b in encodings),
        system_dim=d,
        scale=total,
        accuracy=sum(s * b.accuracy for s, b in zip(strengths, encodings)) / total,
        cost=int(sum(b.cost for b in encodings)),
        circuit=partial(_combine_circuit, phases, encodings, weights, dim_prep),
    )
