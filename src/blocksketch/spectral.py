"""Block encodings of functions of a Hamiltonian.

Like every encoding in `block_encoding`, these are block-first values: the
D x D block and its ledgers are computed directly, and the full circuit
unitary is built only when `.unitary` is read.

Time evolution is realized by exact matrix exponentiation behind the
standard cost formula. Chebyshev polynomials T_n(A) of an encoded
Hermitian block follow the three-term recurrence on the block; their
circuit alternates the encoding with ancilla reflections (qubitization),
whose top-left block is exactly T_n(A). General bounded polynomials are
applied spectrally under the standard interface (halved block, accuracy
and cost ledgers from the degree); their circuit re-embeds the halved
block through a unitary dilation.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial

import numpy as np

from .block_encoding import BlockEncoding, encode_unitary
from .chebyshev import ChebyshevPoly, WindowPoly, sup_norm
from .errors import (
    CostOverflowError,
    InexactInputError,
    NotHermitianError,
    OutOfRangeError,
    PolyNotBoundedError,
    ValidationError,
)
from .linalg import embed_operator, is_hermitian, unitary_dilation
from .pauli import PauliSum, pauli_sum_matrix

_COST_LIMIT = 2**63 - 1


def evolution_cost(num_terms: int, alpha: float, t: float, eps: float) -> float:
    """Gate cost of an eps-accurate encoding of exp(iHt), unit constants:

        Q alpha |t| + Q log(1/eps) / log(e + log(1/eps) / (alpha |t|))

    with the t = 0 limit taken as 0.
    """
    if num_terms < 1:
        raise OutOfRangeError(f"need at least one term, got {num_terms}")
    if alpha <= 0:
        raise OutOfRangeError(f"alpha must be positive, got {alpha}")
    if not 0.0 < eps <= 1.0:
        raise OutOfRangeError(f"eps must be in (0, 1], got {eps}")
    if t == 0.0:
        return 0.0
    log_eps = math.log(1.0 / eps)
    first = num_terms * alpha * abs(t)
    second = num_terms * log_eps / math.log(math.e + log_eps / (alpha * abs(t)))
    return first + second


def evolution_encoding(h: PauliSum, t: float, eps: float) -> BlockEncoding:
    """Exact encoding of exp(i H t), 1-scaled, no ancilla.

    The simulation is spectrally exact; the accuracy field records the
    requested eps so that downstream error bounds reproduce the composed
    product budget, and the cost ledger evaluates the standard formula.
    """
    if not 0.0 < eps < 1.0:
        raise OutOfRangeError(f"eps must be in (0, 1), got {eps}")
    energies, vecs = np.linalg.eigh(pauli_sum_matrix(h))
    u = (vecs * np.exp(1j * energies * t)) @ vecs.conj().T
    cost = math.ceil(evolution_cost(len(h.terms), h.scale(), t, eps))
    return replace(encode_unitary(u, cost=cost), accuracy=eps)


def _require_hermitian_block(b: BlockEncoding) -> np.ndarray:
    block = b.block
    if not is_hermitian(block, 1e-8):
        raise NotHermitianError("encoded block is not Hermitian within 1e-8")
    return block


def _alternating_word(b: BlockEncoding, n: int) -> np.ndarray:
    """U R U^dagger R U ... (n factors of U or U^dagger) with the ancilla
    reflection R = (2|0><0| - I) (x) I; the identity for n = 0."""
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


def chebyshev_encoding(b: BlockEncoding, n: int, previous=()) -> BlockEncoding:
    """Exact encoding of T_n(A) for the Hermitian block A of b.

    The block follows the recurrence T_n = 2 A T_{n-1} - T_{n-2} from
    T_0 = I and T_1 = A. `previous` may hold the encodings of T_{n-1} and
    T_{n-2} (most recent first; just T_0 for n = 1) that earlier calls
    returned for the same b; then T_n takes one recurrence step instead of
    n - 1, so a loop over n = 0..N costs N block products in total.

    The circuit interleaves the encoding unitary and its adjoint with the
    ancilla reflection (2|0><0| - I) (x) I, whose top-left block is exactly
    T_n(A) (Low-Chuang qubitization; Gilyen-Su-Low-Wiebe, Lemma 9).
    Requires an exact input encoding; T_n is 1-scaled and costs n times
    the input.
    """
    if n < 0:
        raise OutOfRangeError("Chebyshev order must be nonnegative")
    if b.accuracy != 0.0:
        raise InexactInputError("alternating reflections require an exact encoding")
    a = _require_hermitian_block(b)
    if n * b.cost > _COST_LIMIT:
        raise CostOverflowError(f"cost ledger {n} * {b.cost} exceeds 2^63 - 1")
    previous = tuple(previous)
    expected = [(b.ancilla_dim, b.system_dim, k * b.cost) for k in range(n - 1, max(n - 3, -1), -1)]
    if previous and [(t.ancilla_dim, t.system_dim, t.cost) for t in previous] != expected:
        raise ValidationError("previous must hold the T_{n-1}, T_{n-2} encodings of b")

    if n == 0:
        block = np.eye(b.system_dim, dtype=complex)
    elif n == 1:
        block = a
    else:
        if len(previous) == 2:
            t_1, t_2 = previous[0].block, previous[1].block
        else:
            t_1, t_2 = a, np.eye(b.system_dim, dtype=complex)
            for _ in range(2, n):
                t_1, t_2 = 2.0 * (a @ t_1) - t_2, t_1
        block = 2.0 * (a @ t_1) - t_2
    return BlockEncoding(
        block=block,
        ancilla_dim=b.ancilla_dim,
        system_dim=b.system_dim,
        scale=1.0,
        accuracy=0.0,
        cost=n * b.cost,
        circuit=partial(_alternating_word, b, n),
    )


def apply_polynomial(b: BlockEncoding, p: ChebyshevPoly | WindowPoly, delta: float) -> BlockEncoding:
    """Encoding of p(A) for a polynomial bounded by 1 on [-1, 1].

    p is a Chebyshev series or a certified window, which is evaluated in
    its factored form A_k(0.8 J(x)) rather than as the composed series of
    degree n k. The bound on p is its recorded sup_norm_bound (or, for a
    series with none, the sampled `chebyshev.sup_norm`).

    Realized spectrally: p is applied to the eigenvalues of the encoded
    block, so the new block is p(A)/2 and the recovery scale is 2; the
    circuit re-embeds the halved block with a unitary dilation on one more
    ancilla qubit. The accuracy field records delta and the cost ledger
    charges degree * input cost, matching the interface of a
    singular-value-transformation circuit whose phase factors are out of
    scope here.
    """
    if delta < 0:
        raise OutOfRangeError(f"delta must be nonnegative, got {delta}")
    bound = sup_norm(p)
    if bound > 1.0 + 1e-9:
        raise PolyNotBoundedError(f"polynomial reaches {bound:.6g} > 1 on [-1, 1]")
    block = _require_hermitian_block(b)
    if p.degree * b.cost > _COST_LIMIT:
        raise CostOverflowError(f"cost ledger {p.degree} * {b.cost} exceeds 2^63 - 1")

    eigvals, vecs = np.linalg.eigh((block + block.conj().T) / 2.0)
    transformed = p(np.clip(eigvals, -1.0, 1.0))
    halved = (vecs * (transformed / 2.0)) @ vecs.conj().T
    return BlockEncoding(
        block=halved,
        ancilla_dim=2 * b.ancilla_dim,
        system_dim=b.system_dim,
        scale=2.0,
        accuracy=delta,
        cost=p.degree * b.cost,
        circuit=partial(_dilation_circuit, halved, b.ancilla_dim),
    )


def _dilation_circuit(halved: np.ndarray, ancilla_dim: int) -> np.ndarray:
    """The unitary dilation of the halved block on a new qubit, acting as
    the identity on the input ancilla register."""
    dilated = unitary_dilation(halved)
    return embed_operator(dilated, [2, ancilla_dim, halved.shape[0]], [0, 2])
