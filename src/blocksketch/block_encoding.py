"""Block encodings and their arithmetic.

A block encoding of a target matrix A is a unitary on ancilla (x) system
whose top-left system block, times a scale alpha, represents A:
``alpha * U[:D, :D] ~ A`` within ``alpha * accuracy``. The ancilla
register is the most significant tensor factor, so the encoded block is
always the fixed top-left slice, stored read-only as ``.block``.

Values are block-first. A `BlockEncoding` carries its D x D block with the
scale, accuracy, cost and dimension ledgers, and its circuit recipe,
``partial(circuits.<builder>, ...)``: the verification layer `circuits`
builds the full ancilla (x) system unitary in the layout it states. The
unitary is built, validated and cached only when `.unitary` is first
read, which verification code does and the estimation pipelines never do.

An encoding is built in one of three ways:

- by a rule that forms its block: `encode_pauli_sum`,
  `identity_encoding`, `encode_unitary` and the rules of `spectral`
  compute the new block from their inputs' blocks and record the norm
  bound the rule proves;
- by a rule that records itself: `product`, `linear_combine` and
  `adjoint` check and record every ledger from their inputs' ledgers, but
  form the block only when `.block` is first read (by tests,
  `hermitian_gap`, `repr`, `dataclasses.replace`, or a rule of the first
  kind taking the value as input), with the same arithmetic in the same
  order, and cache it read-only. The estimators do not read it:
  `_density_trace` reads Tr(rho B) through the rule, from the traces of
  the formed blocks at its leaves. A product of k >= 3 factors is read as one np.vdot,
  Tr(rho P_1 M P_k) = vdot(P_1^dagger rho P_k^dagger, M) with
  M = P_2 ... P_{k-1}; the sandwich P_1^dagger rho P_k^dagger is
  remembered on the first factor for the last density and last factor
  (weakly held), so the products B T_n C of a response sketch, which
  share B, C and rho, form it once. Two factors are read as
  vdot(P_1^dagger rho, P_2), and every product remembers its own trace
  for the last density. The relabels (`normalized`, `_relabeled`) add no
  rule of their own: they record new ledgers over their input's rule, or
  over its formed block when it has none;
- by measurement: ``BlockEncoding(block, ancilla_dim, system_dim, scale,
  accuracy, cost, circuit=...)`` for a block with no rule behind it, whose
  spectral norm is measured by an SVD. `dataclasses.replace`, which passes
  the block back through that constructor, measures too. No rule of the
  package builds its values this way.

The norm ledger. A block of a unitary is a contraction, and every value
carries ``norm_bound``, an upper bound on the spectral norm of its block,
which construction checks against 1 + CONTRACTION_TOL in O(1). Each rule
proves its bound from its inputs' (Gilyen-Su-Low-Wiebe normalization
bookkeeping), so no rule runs an SVD except `spectral.chebyshev_encoding`
where it proves no bound:

- `encode_pauli_sum`: sum_i |beta_i| / alpha = 1;
- `identity_encoding`, `encode_unitary`, `spectral.evolution_encoding`:
  1, a unitary;
- `adjoint` and `normalized`: the input's bound;
- `product`: the product of the input bounds;
- `linear_combine`: sum_i w_i bound_i over the convex weights w_i;
- `spectral.chebyshev_encoding`: 1 at n = 0, and for an exactly
  Hermitian input block with bound at most 1; for a block Hermitian only
  within tolerance the rule measures its norm by an SVD and keeps the
  block's dtype (see there);
- `spectral.apply_polynomial`: p.sup_norm_bound / 2, proven with p.

The Hermitian ledger. ``hermitian`` is True only where a rule proves
that the block equals its conjugate transpose entry for entry, so that
`hermitian_gap` of it is exactly 0; False means unproven, and
`hermitian_block` then measures the gap. The rules that prove it:

- `encode_pauli_sum`: real coefficients scattered symmetrically (see
  there);
- `identity_encoding`: the identity;
- `adjoint` and `normalized`: the input's ledger;
- `linear_combine` with real coefficients over Hermitian inputs (as in
  the shifted encoding (I + A)/2 of estimation): see there;
- `estimation.hermitian_part_encoding` and
  `estimation.antihermitian_part_encoding`: c G + conj(c) G^dagger, see
  `_conjugate_pair_sum`;
- `spectral.chebyshev_encoding` at n = 0, whose block is the identity,
  and at n = 1 the input's ledger, since its block is the input's own
  array.

`product`, `encode_unitary`, `spectral.chebyshev_encoding` at n >= 2
(matmul roundoff), `spectral.apply_polynomial` and every measured
encoding stay unproven.

``norm_bound`` and ``hermitian`` are not constructor arguments, so no
caller can assert a bound or a symmetry for an arbitrary block.

The dtype rule. A block, purification or density is float64 where its
entries are real by construction, and complex128 otherwise; the dtype is
read from how the value was built, never from scanning its entries.
`encode_pauli_sum` is real when every word has an even number of Y
letters (`pauli._scatter`), `identity_encoding` is real, and every rule
keeps numpy's dtype: `product`, `adjoint`, the relabels,
`linear_combine` (unless a phase is complex) and the rules of `spectral`
stay real over real inputs (`spectral`). A preparation is real for the
Bell pairs of I/D, basis states, real vectors and `pure` directives whose
imaginary parts are all zero, and so is its density (`state_prep`). A
real block equals the real part of the complex block the same rule would
form, up to the roundoff of real against complex matrix products (bit for
bit for `encode_pauli_sum`), and a trace against a real density is read
in real arithmetic. Measured encodings, `encode_unitary`, evolution
encodings, thermal states, `pauli.pauli_sum_matrix` and the `circuits`
unitaries, which are read-only, stay complex.

All values are immutable and all operations pure.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from . import circuits
from .circuits import hermitian_gap
from .errors import (
    DimensionMismatchError,
    EmptySumError,
    LengthMismatchError,
    NormTooLargeError,
    NotHermitianError,
    NotUnitaryError,
    OutOfRangeError,
)
from .pauli import PauliSum, _scatter, pauli_word_matrix

CONTRACTION_TOL = 1e-10


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(circuits.as_complex_matrix(m), 2))


@dataclass(frozen=True, init=False, eq=False)
class BlockEncoding:
    """The encoded block on C^system_dim of a unitary on
    C^ancilla_dim (x) C^system_dim, with a scale, an accuracy bound, and an
    abstract gate-cost ledger.

    The constructor is the measurement path: ``block`` has no rule behind
    it, so its spectral norm is measured by an SVD, checked to be at most
    1 + CONTRACTION_TOL and recorded as ``norm_bound``; ``circuit`` is the
    zero-argument callable building the unitary. The arithmetic of this
    module and of `spectral` builds its values by rule instead, recording
    the bound the rule proves (see the module docstring) without an SVD,
    and ``hermitian`` where the rule proves the block Hermitian.

    `.unitary` and `.hermitian_gap`, and `.block` where a rule was
    recorded, are computed on first access and cached with the value,
    which is immutable.
    """

    # The block of a recorded rule is formed on first access (see the
    # module docstring); every other encoding sets it at construction.
    block: np.ndarray = cached_property(lambda self: _form_block(self))
    norm_bound: float = field(init=False)
    hermitian: bool = field(init=False)
    ancilla_dim: int
    system_dim: int
    scale: float
    accuracy: float = 0.0
    cost: int = 0
    circuit: Callable[[], np.ndarray] = field(repr=False, compare=False)
    # The recorded rule (None for a formed block), the (weak reference
    # to the density, trace) that `_density_trace` last read from a formed
    # block, the (weak references to the density and last factor,
    # sandwich) of the last product read with this value first
    # (`_sandwich`), and the (k, T_k, T_{k-1}) blocks of the last
    # Chebyshev order k >= 2 computed on it (`spectral.chebyshev_encoding`).
    _rule = None
    _trace_memo = None
    _sandwich_memo = None
    _chebyshev_memo = None

    def __init__(
        self,
        block,
        ancilla_dim: int,
        system_dim: int,
        scale: float,
        accuracy: float = 0.0,
        cost: int = 0,
        *,
        circuit: Callable[[], np.ndarray],
    ):
        block = np.array(block, dtype=complex)
        _set_fields(
            self, block, None, False, ancilla_dim, system_dim, scale, accuracy, cost, circuit
        )

    @cached_property
    def unitary(self) -> np.ndarray:
        """The full ancilla (x) system unitary, built from the circuit on
        first access and validated by `circuits.check_circuit_unitary`."""
        return circuits.check_circuit_unitary(self.circuit(), self.ancilla_dim * self.system_dim)

    @cached_property
    def hermitian_gap(self) -> float:
        """`hermitian_gap` of the block, measured on first access."""
        return hermitian_gap(self.block)


class _Sum:
    """The recorded rule sum_i w_i p_i B_i over weights w_i, phases p_i
    and encodings B_i. Every rule has `form`, its block from the inputs'
    blocks, and `trace`, Tr(rho B) from the inputs' (`_density_trace`)."""

    __slots__ = ("weights", "phases", "encodings")

    def __init__(self, weights, phases, encodings):
        self.weights, self.phases, self.encodings = weights, phases, encodings

    def form(self) -> np.ndarray:
        d = self.encodings[0].system_dim
        blocks = [b.block for b in self.encodings]
        real = all(p.imag == 0.0 for p in self.phases)
        # A running sum from +0, which also turns the first term's -0
        # entries into +0 as sum() from 0 would. It is real when every
        # block is and every phase, of imaginary part 0, is read as real.
        block = np.zeros((d, d), dtype=np.result_type(*blocks, float if real else complex))
        for w, p, m in zip(self.weights, self.phases, blocks):
            block += w * (p.real if block.dtype == float else p) * m
        return block

    def trace(self, density) -> complex:
        total = 0j
        for w, p, b in zip(self.weights, self.phases, self.encodings):
            total += w * p * _density_trace(b, density)
        return total


class _Adjoint:
    """The recorded rule B^dagger: Tr(rho B^dagger) = conj Tr(rho B) for a
    Hermitian rho."""

    __slots__ = ("b",)

    def __init__(self, b):
        self.b = b

    def form(self) -> np.ndarray:
        return self.b.block.conj().T

    def trace(self, density) -> complex:
        return _density_trace(self.b, density).conjugate()


class _Product:
    """The recorded rule P_1 ... P_k over k >= 2 encodings: its block is
    the left fold of theirs, and its trace one np.vdot (module docstring),
    remembered for the last density read."""

    __slots__ = ("encodings", "memo")

    def __init__(self, encodings):
        self.encodings, self.memo = encodings, None

    def form(self) -> np.ndarray:
        return _fold(self.encodings)

    def trace(self, density) -> complex:
        memo = self.memo
        if memo is None or memo[0]() is not density:
            first, *middle, last = self.encodings
            if middle:
                value = np.vdot(_sandwich(first, density, last), _fold(middle))
            else:
                value = np.vdot(first.block.conj().T @ density, last.block)
            memo = self.memo = (weakref.ref(density), complex(value))
        return memo[1]


def _fold(encodings) -> np.ndarray:
    """The left fold of the blocks, ((B_1 B_2) B_3) ...; a lone block is
    returned as it is."""
    block = encodings[0].block
    for b in encodings[1:]:
        block = block @ b.block
    return block


def _sandwich(first: BlockEncoding, density: np.ndarray, last: BlockEncoding) -> np.ndarray:
    """S = F^dagger rho L^dagger, so that Tr(rho F M L) = vdot(S, M) for
    every M. It is remembered on `first` for the last (density, last)
    pair, both held by weak reference: a response sketch, whose products
    share their first and last factors, forms it once for all moments."""
    memo = first._sandwich_memo
    if memo is None or memo[0]() is not density or memo[1]() is not last:
        s = first.block.conj().T @ density @ last.block.conj().T
        memo = (weakref.ref(density), weakref.ref(last), s)
        first.__dict__["_sandwich_memo"] = memo
    return memo[2]


def _form_block(enc: BlockEncoding) -> np.ndarray:
    """The block of a recorded rule, formed from its inputs' blocks and
    made read-only; `.block` calls this once and caches the result."""
    block = enc._rule.form()
    block.setflags(write=False)
    return block


def _density_trace(b: BlockEncoding, density: np.ndarray) -> complex:
    """Tr(rho B) = sum_ij conj(rho_ij) B_ij for the Hermitian density rho:
    read through b's recorded rule, and from a formed block by one
    np.vdot, which is remembered for the last (read-only) density it was
    read for. The memo holds that density by a weak reference, so a
    long-lived encoding such as a cached identity does not keep it alive.

    It agrees with np.vdot(density, b.block) up to roundoff, not bit for
    bit: a rule adds its inputs' traces where the block adds entries."""
    if b._rule is not None:
        return b._rule.trace(density)
    memo = b._trace_memo
    if memo is None or memo[0]() is not density:
        memo = (weakref.ref(density), complex(np.vdot(density, b.block)))
        b.__dict__["_trace_memo"] = memo
    return memo[1]


def _set_fields(
    enc, block, norm_bound, hermitian, ancilla_dim, system_dim, scale, accuracy, cost, circuit
):
    """Check the ledgers, the block's shape and its norm bound (measured by
    an SVD when None, of a block that must then be finite), and set the
    fields of a frozen encoding. A None block is a recorded rule's, formed
    on first access. Every check is written so that NaN fails it."""
    if not 0.0 < scale < math.inf:
        raise OutOfRangeError(f"scale must be positive and finite, got {scale}")
    if not accuracy >= 0:
        raise OutOfRangeError(f"accuracy must be nonnegative, got {accuracy}")
    if not cost >= 0:
        raise OutOfRangeError(f"cost must be nonnegative, got {cost}")
    if ancilla_dim < 1:
        raise DimensionMismatchError(f"ancilla dimension must be positive, got {ancilla_dim}")
    if block is not None:
        if block.shape != (system_dim, system_dim):
            raise DimensionMismatchError(
                f"block shape {block.shape} != ({system_dim}, {system_dim})"
            )
        if norm_bound is None:
            if not np.isfinite(block).all():
                raise OutOfRangeError("a measured block must have finite entries")
            norm_bound = spectral_norm(block)
    if not norm_bound <= 1.0 + CONTRACTION_TOL:
        raise NormTooLargeError(f"encoded block has spectral norm bound {norm_bound:.12g} > 1")
    # Frozen dataclass: fields are set through the instance dict, one item
    # at a time (update(**fields) would build a dict first).
    fields = enc.__dict__
    if block is not None:
        block.setflags(write=False)
        fields["block"] = block
    fields["norm_bound"] = norm_bound
    fields["hermitian"] = hermitian
    fields["ancilla_dim"] = ancilla_dim
    fields["system_dim"] = system_dim
    fields["scale"] = scale
    fields["accuracy"] = accuracy
    fields["cost"] = cost
    fields["circuit"] = circuit


def _by_rule(
    block,
    norm_bound: float | None,
    *,
    hermitian: bool = False,
    ancilla_dim,
    system_dim,
    scale,
    accuracy,
    cost,
    circuit,
) -> BlockEncoding:
    """An encoding whose block an arithmetic rule computed, or whose
    recorded rule (`_Product`, `_Sum`, `_Adjoint`) forms it on
    first access, with the norm bound that rule proves, checked without an
    SVD (None where the rule proves none: an SVD of the computed block then
    measures it), and Hermitian where the rule proves it (see the module
    docstring).

    Package-private: a computed block, float64 or complex128 by the dtype
    rule (module docstring), is taken as it is (no copy) and must be a
    fresh array or an already read-only input block.
    """
    enc = object.__new__(BlockEncoding)
    if not isinstance(block, np.ndarray):
        enc.__dict__["_rule"] = block
        block = None
    _set_fields(
        enc, block, norm_bound, hermitian, ancilla_dim, system_dim, scale, accuracy, cost, circuit
    )
    return enc


def _own_block(u: np.ndarray, accuracy: float, cost: int, hermitian=False) -> BlockEncoding:
    """A unitary as its own encoding: no ancilla, scale 1, norm bound 1,
    and a circuit that returns u (a fresh array, made read-only here)."""
    return _by_rule(
        u,
        1.0,
        hermitian=hermitian,
        ancilla_dim=1,
        system_dim=u.shape[0],
        scale=1.0,
        accuracy=accuracy,
        cost=cost,
        circuit=partial(circuits.own_circuit, u),
    )


def encode_unitary(u: np.ndarray, cost: int = 0) -> BlockEncoding:
    """Trivial encoding of a unitary: scale 1, no ancilla, exact."""
    u = np.array(u, dtype=complex)
    if not circuits.is_unitary(u, 1e-10):
        raise NotUnitaryError("input is not unitary within 1e-10")
    return _own_block(u, 0.0, cost)


def _require_hermitian(b: BlockEncoding):
    """Check that b's block is Hermitian within 1e-8 in every entry:
    proven by its ledger, which reads no block, or else measured.

    Raises:
        NotHermitianError: if its Hermitian gap exceeds 1e-8.
    """
    if not (b.hermitian or b.hermitian_gap <= 1e-8):
        raise NotHermitianError("encoded block is not Hermitian within 1e-8")


def hermitian_block(b: BlockEncoding) -> np.ndarray:
    """The block of b, which must be Hermitian within 1e-8 in every entry
    (`_require_hermitian`)."""
    _require_hermitian(b)
    return b.block


@lru_cache(maxsize=4)
def identity_encoding(system_dim: int) -> BlockEncoding:
    """The identity as its own exact encoding: block I (float64), norm
    bound 1.

    One value per dimension, built on first use and shared while the
    dimension is among the last four asked for; its block and its
    (complex) unitary are read-only."""
    return _own_block(np.eye(system_dim), 0.0, 0, hermitian=True)


def _relabeled(b: BlockEncoding, scale: float, hermitian: bool) -> BlockEncoding:
    """b's block, norm bound, circuit and other ledgers under a new scale
    and Hermitian ledger, which the caller's rule justifies: b's recorded
    rule, whose block the relabel forms on first access with the same
    arithmetic, or else b's own formed array."""
    return _by_rule(
        b.block if b._rule is None else b._rule,
        b.norm_bound,
        hermitian=hermitian,
        ancilla_dim=b.ancilla_dim,
        system_dim=b.system_dim,
        scale=scale,
        accuracy=b.accuracy,
        cost=b.cost,
        circuit=b.circuit,
    )


def normalized(b: BlockEncoding) -> BlockEncoding:
    """b read as a 1-scaled encoding of A/alpha: the same block, norm
    bound, circuit and other ledgers at scale 1."""
    return _relabeled(b, 1.0, b.hermitian)


def encode_pauli_sum(s: PauliSum) -> BlockEncoding:
    """Prepare/select/unprepare encoding of a weighted Pauli sum.

    The block is sum_i (beta_i / alpha) P_i with scale alpha = sum |beta_i|;
    it is exact, the cost is the number of terms, and the ancilla is the
    power-of-two prepare register of `circuits.pauli_sum_circuit`. It is
    float64 when every word has an even number of Y letters (`pauli._scatter`),
    and then equals the real part of pauli_sum_matrix(s) / alpha bit for
    bit: numpy divides a complex array by the real alpha as a product with
    1 / alpha, so the real block is scaled by that product too.

    Hermitian ledger: `pauli._scatter` scatters every term in one
    unbuffered add, in term order, so each entry (j xor x, j) sums its real
    coefficients times +-1 or +-i in term order from +0.0. A Pauli
    word is Hermitian, so entries (r, c) and (c, r) receive the same
    real parts and negated imaginary parts, term by term and in the same
    order; as rounding is symmetric under negation, the sums are
    conjugates, and so are their products with the real 1 / alpha. Diagonal
    entries come from words without X or Y and are real.
    """
    if not isinstance(s, PauliSum) or not s.terms:
        raise EmptySumError("encode_pauli_sum requires a nonempty PauliSum")
    m = len(s.terms)
    alpha = s.scale()
    if not math.isfinite(1.0 / alpha):
        raise OutOfRangeError(f"the scale alpha = {alpha!r} is too small to divide by")
    dim_anc = 1 << max(0, (m - 1).bit_length())
    return _by_rule(
        _scatter([t.masks for t in s.terms], [t.coefficient for t in s.terms], s.qubits)
        * (1.0 / alpha),
        1.0,
        hermitian=True,
        ancilla_dim=dim_anc,
        system_dim=s.dim,
        scale=alpha,
        accuracy=0.0,
        cost=m,
        circuit=partial(circuits.pauli_sum_circuit, s, dim_anc, pauli_word_matrix),
    )


def adjoint(b: BlockEncoding) -> BlockEncoding:
    """Encoding of the conjugate transpose of the target; same ledger. The
    block b.block.conj().T is formed when first asked for."""
    return _by_rule(
        _Adjoint(b),
        b.norm_bound,
        hermitian=b.hermitian,
        ancilla_dim=b.ancilla_dim,
        system_dim=b.system_dim,
        scale=b.scale,
        accuracy=b.accuracy,
        cost=b.cost,
        circuit=partial(circuits.adjoint_circuit, b),
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


def _dimension_mismatch(encodings: list[BlockEncoding]) -> DimensionMismatchError:
    """The error for a list of encodings whose system dimensions differ."""
    dims = sorted({b.system_dim for b in encodings})
    return DimensionMismatchError(f"system dimensions differ: {dims}")


def product(encodings) -> BlockEncoding:
    """Encoding of the ordered product of the targets.

    Each factor keeps its own ancilla register, so the blocks multiply;
    scales multiply, costs add, and the accuracy composes through
    product_error_bound. The rule is recorded and the block, the left
    fold of the factors' blocks, formed when first asked for.
    """
    encodings = list(encodings)
    if not encodings:
        raise LengthMismatchError("product requires at least one encoding")
    first, *rest = encodings
    if not rest:
        return first
    d = first.system_dim
    bound, scale = first.norm_bound, first.scale
    cost, ancilla_dim = first.cost, first.ancilla_dim
    for b in rest:
        if b.system_dim != d:
            raise _dimension_mismatch(encodings)
        bound *= b.norm_bound
        scale *= b.scale
        cost += b.cost
        ancilla_dim *= b.ancilla_dim
    return _by_rule(
        _Product(encodings),
        bound,
        ancilla_dim=ancilla_dim,
        system_dim=d,
        scale=scale,
        accuracy=product_error_bound([b.accuracy for b in encodings]),
        cost=int(cost),
        circuit=partial(circuits.product_circuit, encodings),
    )


def linear_combine(coeffs, encodings) -> BlockEncoding:
    """Encoding of sum_i beta_i A_i for complex beta_i.

    The block is sum_i (alpha_i |beta_i| / total) phase_i block_i with
    scale total = sum_i alpha_i |beta_i|; costs add. The rule is recorded
    and the block formed when first asked for. The ancilla dimension
    is prepare_dim * max_i ancilla_dim_i (see `circuits`).

    Hermitian ledger: for real beta_i each weight times phase has a zero
    imaginary part, so each part of its product with an entry is one
    rounded real product, and the scaling commutes with conjugation entry
    by entry. Over Hermitian inputs every term is then Hermitian, and the
    terms are added in the same order at (r, c) and (c, r).
    """
    coeffs = [complex(c) for c in coeffs]
    encodings = list(encodings)
    if not encodings:
        raise LengthMismatchError("linear_combine requires at least one encoding")
    if len(coeffs) != len(encodings):
        raise LengthMismatchError(f"{len(coeffs)} coefficients for {len(encodings)} encodings")
    d = encodings[0].system_dim
    strengths = []
    for c, b in zip(coeffs, encodings):
        if b.system_dim != d:
            raise _dimension_mismatch(encodings)
        strengths.append(b.scale * abs(c))
    total = 0.0
    for s in strengths:
        total += s
    if total <= 0:
        raise OutOfRangeError("all coefficients are zero; the combination has no scale")

    weights, phases = [], []
    bound = accuracy = 0.0
    cost, ancilla_dim, hermitian = 0, 1, True
    for c, s, b in zip(coeffs, strengths, encodings):
        w = s / total
        p = c / abs(c) if c != 0 else 1.0
        weights.append(w)
        phases.append(p)
        bound += w * b.norm_bound
        accuracy += s * b.accuracy
        cost += b.cost
        ancilla_dim = max(ancilla_dim, b.ancilla_dim)
        hermitian = hermitian and b.hermitian and c.imag == 0.0
    dim_prep = 1 << max(0, (len(encodings) - 1).bit_length())
    return _by_rule(
        _Sum(weights, phases, encodings),
        bound,
        hermitian=hermitian,
        ancilla_dim=dim_prep * ancilla_dim,
        system_dim=d,
        scale=total,
        accuracy=accuracy / total,
        cost=int(cost),
        circuit=partial(circuits.combine_circuit, phases, encodings, weights, dim_prep),
    )
