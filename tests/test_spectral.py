import gc
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from blocksketch.block_encoding import encode_pauli_sum
from blocksketch.chebyshev import ChebyshevPoly, chebyshev_t, window_poly
from blocksketch.errors import (
    CostOverflowError,
    InexactInputError,
    NotHermitianError,
    OutOfRangeError,
    PolyNotBoundedError,
)
from blocksketch import block_encoding
from blocksketch.circuits import is_unitary
from blocksketch.estimation import estimate_observable
from blocksketch.pauli import PauliSum, pauli_sum_matrix
from blocksketch.spectral import (
    apply_polynomial,
    chebyshev_encoding,
    evolution_cost,
    evolution_encoding,
)
from blocksketch.state_prep import prepare_maximally_mixed

from conftest import contraction_encoding, random_hermitian_contraction


def _spectral_chebyshev(a: np.ndarray, n: int) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    c = np.zeros(n + 1)
    c[n] = 1.0
    return (v * chebval(w, c)) @ v.conj().T


def test_evolution_examples():
    h = PauliSum.from_terms([(1.0, "Z")])
    assert np.allclose(evolution_encoding(h, 0.0, 0.5).block, np.eye(2))
    assert np.allclose(evolution_encoding(h, np.pi, 0.5).block, -np.eye(2))

    h2 = PauliSum.from_terms([(0.3, "Z"), (0.2, "X")])
    b = evolution_encoding(h2, 1.0, 0.5)
    phases = np.sort(np.angle(np.linalg.eigvals(b.block)))
    assert np.allclose(phases, [-np.sqrt(0.13), np.sqrt(0.13)], atol=1e-10)
    assert b.scale == 1.0 and b.ancilla_dim == 1 and b.accuracy == 0.5


def test_evolution_unitary_of_time():
    h = PauliSum.from_terms([(0.5, "ZZ"), (0.3, "XI")])
    energies, vecs = np.linalg.eigh(pauli_sum_matrix(h))
    for t in (-2.0, 0.3, 7.0):
        b = evolution_encoding(h, t, 0.01)
        expected = (vecs * np.exp(1j * energies * t)) @ vecs.conj().T
        assert np.max(np.abs(b.block - expected)) < 1e-10
        assert is_unitary(b.unitary, 1e-10)


def test_evolution_cost_values():
    # Q=1, alpha=1, t=10, eps=0.5
    expected = 10.0 + math.log(2.0) / math.log(math.e + math.log(2.0) / 10.0)
    assert evolution_cost(1, 1.0, 10.0, 0.5) == pytest.approx(expected, rel=1e-12)
    # eps = 1: the logarithmic term vanishes exactly
    assert evolution_cost(3, 2.0, 1.5, 1.0) == pytest.approx(9.0)
    assert evolution_cost(3, 2.0, 0.0, 0.5) == 0.0
    with pytest.raises(OutOfRangeError):
        evolution_cost(0, 1.0, 1.0, 0.5)
    with pytest.raises(OutOfRangeError):
        evolution_cost(1, 1.0, 1.0, 2.0)


def test_evolution_cost_monotone():
    base = evolution_cost(2, 1.0, 1.0, 0.1)
    assert evolution_cost(2, 1.0, 2.0, 0.1) > base
    assert evolution_cost(2, 1.0, 1.0, 0.01) > base


def test_chebyshev_encoding_examples():
    b = encode_pauli_sum(PauliSum.from_terms([(0.3, "Z"), (0.2, "X")]))
    t0 = chebyshev_encoding(b, 0)
    assert np.allclose(t0.block, np.eye(2))
    t1 = chebyshev_encoding(b, 1)
    assert np.max(np.abs(t1.block - b.block)) < 1e-12

    # block is A = 0.6 Z + 0.4 X with eigenvalues +-sqrt(0.52);
    # T_2(A) = 2 A^2 - I = 0.04 I
    t2 = chebyshev_encoding(b, 2)
    assert np.max(np.abs(t2.block - 0.04 * np.eye(2))) < 1e-10
    assert t2.cost == 2 * b.cost and t2.scale == 1.0


def test_chebyshev_encoding_vs_spectral(rng):
    for dim in (4, 8):
        for _ in range(3):
            a = random_hermitian_contraction(rng, dim)
            enc = contraction_encoding(a)
            for n in range(17):
                tn = chebyshev_encoding(enc, n)
                assert np.max(np.abs(tn.block - _spectral_chebyshev(a, n))) <= 1e-8
                assert tn.cost == n * enc.cost


def test_chebyshev_recurrence_cross_check(rng):
    a = random_hermitian_contraction(rng, 4)
    enc = contraction_encoding(a)
    for n in (3, 7):
        t_prev = chebyshev_encoding(enc, n - 1).block
        t_n = chebyshev_encoding(enc, n).block
        t_next = chebyshev_encoding(enc, n + 1).block
        assert np.max(np.abs(t_next - (2 * a @ t_n - t_prev))) < 1e-7


def test_chebyshev_encoding_validation():
    b = encode_pauli_sum(PauliSum.from_terms([(1.0, "Z")]))
    with pytest.raises(InexactInputError):
        chebyshev_encoding(replace(b, accuracy=0.1), 2)
    with pytest.raises(OutOfRangeError):
        chebyshev_encoding(b, -1)
    w, v = np.linalg.eigh(pauli_sum_matrix(PauliSum.from_terms([(1.0, "Y")])))
    u = (v * np.exp(0.3j * w)) @ v.conj().T
    from blocksketch.block_encoding import encode_unitary

    with pytest.raises(NotHermitianError):
        chebyshev_encoding(encode_unitary(u), 2)
    with pytest.raises(CostOverflowError):
        chebyshev_encoding(replace(b, cost=2**62), 4)


def test_chebyshev_encoding_measures_the_hermitian_gap_once_per_encoding(monkeypatch, rng):
    measured = []
    gap = block_encoding.hermitian_gap
    monkeypatch.setattr(block_encoding, "hermitian_gap", lambda m: measured.append(m) or gap(m))
    h = encode_pauli_sum(PauliSum.from_terms([(0.5, "ZZ"), (0.3, "XI"), (0.2, "IY")]))
    for n in range(8):
        t_n = chebyshev_encoding(h, n)
        assert t_n.norm_bound == 1.0
    # The Pauli sum is Hermitian by its ledger, so nothing is measured.
    assert h.hermitian and measured == []

    # A block Hermitian only within tolerance is measured once, and
    # every order still takes the SVD path; a non-Hermitian one fails at
    # every order.
    a = random_hermitian_contraction(rng, 4)
    near = contraction_encoding(a + 1e-12 * np.triu(np.ones((4, 4)), 1))
    skew = contraction_encoding(0.5 * a + 0.2j * np.eye(4))
    measured.clear()
    for n in (1, 2, 3):
        assert chebyshev_encoding(near, n).norm_bound != 1.0
        with pytest.raises(NotHermitianError):
            chebyshev_encoding(skew, n)
    assert len(measured) == 2


def test_t0_and_t1_are_hermitian_by_proof_and_estimated_without_a_measured_gap(rng):
    h = encode_pauli_sum(PauliSum.from_terms([(0.5, "ZZ"), (0.3, "XI"), (0.2, "IY")]))
    rho = prepare_maximally_mixed(4)
    for n in (0, 1):
        t = chebyshev_encoding(h, n)
        assert t.hermitian
        estimate_observable(t, rho, 0.05, 0.05)
        assert "hermitian_gap" not in vars(t)
    assert not chebyshev_encoding(h, 2).hermitian
    # T_0 is the identity whatever the input; T_1 carries the input's ledger.
    measured = contraction_encoding(random_hermitian_contraction(rng, 4))
    assert not measured.hermitian
    assert chebyshev_encoding(measured, 0).hermitian
    assert not chebyshev_encoding(measured, 1).hermitian


def test_apply_polynomial_examples():
    b = encode_pauli_sum(PauliSum.from_terms([(1.0, "Z")]))
    r = apply_polynomial(b, chebyshev_t(0), 1e-3)
    assert np.allclose(r.block, np.eye(2) / 2)
    assert r.scale == 2.0 and r.accuracy == 1e-3

    w = window_poly(-0.5, 0.5, 0.2)
    rw = apply_polynomial(b, w.poly, 1e-3)
    eigs = np.linalg.eigvalsh(rw.block)
    # both eigenvalues of Z sit outside the window, so w(+-1)/2 is in [0, tau/2]
    assert np.all(eigs >= -1e-12) and np.all(eigs <= w.tau / 2 + 1e-12)
    assert rw.cost == w.poly.degree * b.cost
    assert rw.ancilla_dim == 2 * b.ancilla_dim

    m = np.diag([0.5, -0.5]).astype(complex)
    enc = contraction_encoding(m)
    r3 = apply_polynomial(enc, chebyshev_t(3), 1e-4)
    assert np.max(np.abs(r3.block - np.diag([-0.5, 0.5]))) < 1e-10


def test_apply_polynomial_linearity(rng):
    a = random_hermitian_contraction(rng, 4)
    enc = contraction_encoding(a)
    p = ChebyshevPoly(np.array([0.1, 0.2, 0.15]))
    q = ChebyshevPoly(np.array([0.05, -0.1, 0.0, 0.2]))
    sum_coeffs = np.zeros(4)
    sum_coeffs[:3] += p.coeffs
    sum_coeffs += q.coeffs
    both = apply_polynomial(enc, ChebyshevPoly(sum_coeffs), 0.0)
    separate = apply_polynomial(enc, p, 0.0).block + apply_polynomial(enc, q, 0.0).block
    assert np.max(np.abs(both.block - separate)) < 1e-8


def test_apply_polynomial_validation():
    b = encode_pauli_sum(PauliSum.from_terms([(1.0, "Z")]))
    with pytest.raises(PolyNotBoundedError):
        apply_polynomial(b, ChebyshevPoly(np.array([0.0, 2.0])), 1e-3)
    # 3 T_1 is proven bounded by 3 only, so no encoding of norm 1.5 is built
    with pytest.raises(PolyNotBoundedError):
        apply_polynomial(b, ChebyshevPoly(np.array([0.0, 3.0])), 0.0)
    with pytest.raises(CostOverflowError):
        apply_polynomial(replace(b, cost=2**62), chebyshev_t(4), 1e-3)
    assert is_unitary(apply_polynomial(b, chebyshev_t(2), 0.0).unitary, 1e-10)


def _ledger(t):
    return (t.norm_bound, t.hermitian, t.ancilla_dim, t.system_dim, t.scale, t.accuracy, t.cost)


def test_chebyshev_encoding_continues_from_previous_orders(rng):
    """On one encoding, T_n after any earlier orders equals the T_n of a
    fresh encoding of the same block, bit for bit and with equal ledgers:
    ascending, a jump, a descent and a repeat, with the norm proven and
    (for a block Hermitian only within tolerance) measured."""
    a = random_hermitian_contraction(rng, 8)
    near = a + 1e-12 * np.triu(np.ones((8, 8)), 1)
    for m in (a, near):
        enc = contraction_encoding(m, cost=3)
        for n in [*range(12), 3, 7, 2, 2, 5]:
            t_n = chebyshev_encoding(enc, n)
            fresh = chebyshev_encoding(contraction_encoding(m, cost=3), n)
            assert np.array_equal(t_n.block, fresh.block) and t_n.block.dtype == fresh.block.dtype
            assert _ledger(t_n) == _ledger(fresh)
    with pytest.raises(TypeError):
        chebyshev_encoding(enc, 2, (t_n, t_n))


def test_chebyshev_encoding_refuses_the_orders_of_another_encoding():
    """T_1 and T_0 of another encoding with the same ledgers would give a
    T_2 block off by 2.25 whose norm, 2.47, passes the recorded bound 1
    unchecked: each encoding continues only from its own orders."""
    terms = [(0.3, "XX"), (0.9, "ZZ")]
    b = encode_pauli_sum(PauliSum.from_terms(terms))
    other = encode_pauli_sum(PauliSum.from_terms([(1.0, "ZI"), (0.5, "IX")]))
    assert (other.ancilla_dim, other.system_dim, other.cost) == (b.ancilla_dim, b.system_dim, b.cost)
    for n in range(4):
        chebyshev_encoding(other, n)
    t_2 = chebyshev_encoding(b, 2)
    fresh = chebyshev_encoding(encode_pauli_sum(PauliSum.from_terms(terms)), 2)
    assert np.array_equal(t_2.block, fresh.block)
    assert t_2.norm_bound == 1.0 and np.linalg.norm(t_2.block, 2) <= 1.0 + 1e-12


# What the recurrence memo may add beyond its two D x D blocks: the memo
# tuple and its slot in the encoding's dict.
CHEBYSHEV_MEMO_SLACK_BYTES = 2048


def test_chebyshev_encoding_holds_two_blocks_for_as_long_as_its_encoding_lives():
    qubits = 5
    terms = [(1.0, "I" * i + "ZZ" + "I" * (qubits - i - 2)) for i in range(qubits - 1)]
    terms += [(0.7, "I" * i + "X" + "I" * (qubits - i - 1)) for i in range(qubits)]
    b = encode_pauli_sum(PauliSum.from_terms(terms))
    block_bytes = b.block.nbytes
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for n in range(65):
            chebyshev_encoding(b, n)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
        del b
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert 2 * block_bytes <= held <= 2 * block_bytes + CHEBYSHEV_MEMO_SLACK_BYTES
    assert left <= CHEBYSHEV_MEMO_SLACK_BYTES and held - left >= 2 * block_bytes


def test_concurrent_callers_of_one_encoding_never_mix_its_orders(rng):
    """Threads asking one encoding for orders in shuffled sequences each
    get the block of a fresh encoding bit for bit: a call reads the memo
    once, so a concurrent update can only make it recompute."""
    m = random_hermitian_contraction(rng, 16)
    expected = [chebyshev_encoding(contraction_encoding(m), n).block for n in range(24)]
    enc = contraction_encoding(m)
    sequences = [rng.permutation(np.repeat(np.arange(24), 3)) for _ in range(4)]
    wrong = []

    def work(orders):
        for n in orders:
            if not np.array_equal(chebyshev_encoding(enc, int(n)).block, expected[n]):
                wrong.append(int(n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in sequences]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and wrong == []
