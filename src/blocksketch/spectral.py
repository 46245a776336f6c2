"""Block encodings of functions of a Hamiltonian.

Like every encoding in `block_encoding`, these are block-first values: the
D x D block and its ledgers are computed directly, and the verification
layer `circuits` builds the full unitary only when `.unitary` is read.

Time evolution is realized by exact matrix exponentiation behind the
standard cost formula. Chebyshev polynomials T_n(A) of an encoded
Hermitian block follow the three-term recurrence on the block; their
circuit is the qubitized alternating word. General bounded polynomials
are applied spectrally under the standard interface (halved block,
accuracy and cost ledgers from the degree); their circuit is a unitary
dilation of the halved block.

Both rules keep the dtype of their input block (the dtype rule of
`block_encoding`): a real block gives real T_n, from a real recurrence
seeded with a real identity, and a real p(A)/2, from the real-symmetric
`eigh`. Evolution encodings are complex.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import circuits
from .block_encoding import BlockEncoding, _by_rule, _own_block, hermitian_block
from .chebyshev import ChebyshevPoly, WindowPoly
from .errors import (
    InexactInputError,
    _checked_cost,
    OutOfRangeError,
    PolyNotBoundedError,
    ValidationError,
)
from .pauli import PauliSum, pauli_sum_matrix

def evolution_cost(num_terms: int, alpha: float, t: float, eps: float) -> float:
    """Gate cost of an eps-accurate encoding of exp(iHt), unit constants:

        Q alpha |t| + Q log(1/eps) / log(e + log(1/eps) / (alpha |t|))

    with the alpha |t| -> 0 limit taken as 0, also where alpha |t|
    underflows to 0 for a nonzero t.
    """
    if num_terms < 1:
        raise OutOfRangeError(f"need at least one term, got {num_terms}")
    if alpha <= 0:
        raise OutOfRangeError(f"alpha must be positive, got {alpha}")
    if not 0.0 < eps <= 1.0:
        raise OutOfRangeError(f"eps must be in (0, 1], got {eps}")
    if alpha * abs(t) == 0.0:
        return 0.0
    log_eps = math.log(1.0 / eps)
    first = num_terms * alpha * abs(t)
    second = num_terms * log_eps / math.log(math.e + log_eps / (alpha * abs(t)))
    return first + second


def evolution_encoding(h: PauliSum, t: float, eps: float) -> BlockEncoding:
    """Exact encoding of exp(i H t), 1-scaled, no ancilla.

    The simulation is spectrally exact; the accuracy field records the
    requested eps so that downstream error bounds reproduce the composed
    product budget, and the cost ledger evaluates the standard formula,
    which must be finite and at most 2^63 - 1.
    """
    if not 0.0 < eps < 1.0:
        raise OutOfRangeError(f"eps must be in (0, 1), got {eps}")
    cost = evolution_cost(len(h.terms), h.scale(), t, eps)
    _checked_cost(cost, f"evolution cost at time {t!r}")
    energies, vecs = np.linalg.eigh(pauli_sum_matrix(h))
    u = (vecs * np.exp(1j * energies * t)) @ vecs.conj().T
    return _own_block(u, eps, math.ceil(cost))


def _is_chebyshev_of(t: BlockEncoding, b: BlockEncoding, k: int) -> bool:
    """Whether t is an encoding of T_k(A) that `chebyshev_encoding`
    returned for this same b, read from its circuit recipe: equal ledgers
    alone would pass the T_k of another encoding."""
    c = t.circuit
    return (
        isinstance(c, partial) and c.func is circuits.alternating_word
        and c.args[0] is b and c.args[1] == k
    )


def chebyshev_encoding(b: BlockEncoding, n: int, previous=()) -> BlockEncoding:
    """Exact encoding of T_n(A) for the Hermitian block A of b.

    The block follows the recurrence T_n = 2 A T_{n-1} - T_{n-2} from
    T_0 = I and T_1 = A. `previous` may hold the encodings of T_{n-1} and
    T_{n-2} (most recent first; just T_0 for n = 1) that earlier calls
    returned for this same b (the same object; any other is refused, also
    one with equal ledgers); then T_n takes one recurrence step instead of
    n - 1, so a loop over n = 0..N costs N block products in total.

    The circuit `circuits.alternating_word` has top-left block exactly
    T_n(A) (Low-Chuang qubitization; Gilyen-Su-Low-Wiebe, Lemma 9).
    Requires an exact input encoding; T_n is 1-scaled and costs n times
    the input.

    Norm ledger: |T_n| <= 1 on [-1, 1], so for an exactly Hermitian block
    (equal to its conjugate transpose bit for bit) with norm bound at most
    1 the bound of T_n is 1, and T_0 = I has bound 1 for any input. A
    block Hermitian only within tolerance can give a T_n of norm above 1,
    so there the norm is measured by an SVD.
    Both checks read the Hermitian ledger of b first and measure
    `b.hermitian_gap`, once per encoding, only where it is unproven.

    Hermitian ledger: T_0 is proven Hermitian, its block is the identity.
    T_1 is proven where b is, its block is b's own array. T_n for n >= 2
    stays unproven: the block products round asymmetrically.
    """
    if n < 0:
        raise OutOfRangeError("Chebyshev order must be nonnegative")
    if b.accuracy != 0.0:
        raise InexactInputError("alternating reflections require an exact encoding")
    a = hermitian_block(b)
    _checked_cost(n * b.cost, f"cost ledger {n} * {b.cost}")
    previous = tuple(previous)
    orders = range(n - 1, max(n - 3, -1), -1)
    if previous and not (
        len(previous) == len(orders)
        and all(_is_chebyshev_of(t, b, k) for t, k in zip(previous, orders))
    ):
        raise ValidationError("previous must hold the T_{n-1}, T_{n-2} encodings of b")

    if n == 0:
        block = np.eye(b.system_dim, dtype=a.dtype)
    elif n == 1:
        block = a
    else:
        if len(previous) == 2:
            t_1, t_2 = previous[0].block, previous[1].block
        else:
            t_1, t_2 = a, np.eye(b.system_dim, dtype=a.dtype)
            for _ in range(2, n):
                t_1, t_2 = 2.0 * (a @ t_1) - t_2, t_1
        block = 2.0 * (a @ t_1) - t_2
    ledger = dict(
        ancilla_dim=b.ancilla_dim,
        system_dim=b.system_dim,
        scale=1.0,
        accuracy=0.0,
        cost=n * b.cost,
        circuit=partial(circuits.alternating_word, b, n),
    )
    if n == 0 or (b.norm_bound <= 1.0 and (b.hermitian or b.hermitian_gap == 0.0)):
        return _by_rule(block, 1.0, hermitian=n == 0 or (n == 1 and b.hermitian), **ledger)
    return BlockEncoding(block, **ledger)


def apply_polynomial(b: BlockEncoding, p: ChebyshevPoly | WindowPoly, delta: float) -> BlockEncoding:
    """Encoding of p(A) for a polynomial bounded by 1 on [-1, 1].

    p is a Chebyshev series, evaluated by Clenshaw's recurrence, or a
    proven window, evaluated by its blocked cosine sum. The bound on p is
    its sup_norm_bound, which every ChebyshevPoly and WindowPoly carries
    proven.

    Realized spectrally: p is applied to the eigenvalues of the encoded
    block, so the new block is p(A)/2 and the recovery scale is 2, on one
    more ancilla qubit (`circuits.dilation_circuit`). The accuracy field
    records delta and the cost ledger charges degree * input cost, matching
    the interface of a singular-value-transformation circuit whose phase
    factors are out of scope here. The norm ledger records
    p.sup_norm_bound / 2.
    """
    if delta < 0:
        raise OutOfRangeError(f"delta must be nonnegative, got {delta}")
    bound = p.sup_norm_bound
    if bound > 1.0 + 1e-9:
        raise PolyNotBoundedError(f"polynomial bound {bound:.6g} exceeds 1 on [-1, 1]")
    block = hermitian_block(b)
    _checked_cost(p.degree * b.cost, f"cost ledger {p.degree} * {b.cost}")

    eigvals, vecs = np.linalg.eigh((block + block.conj().T) / 2.0)
    transformed = p(np.clip(eigvals, -1.0, 1.0))
    halved = (vecs * (transformed / 2.0)) @ vecs.conj().T
    return _by_rule(
        halved,
        bound / 2.0,
        ancilla_dim=2 * b.ancilla_dim,
        system_dim=b.system_dim,
        scale=2.0,
        accuracy=delta,
        cost=p.degree * b.cost,
        circuit=partial(circuits.dilation_circuit, halved, b.ancilla_dim),
    )

