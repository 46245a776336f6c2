"""The dtype rule of `block_encoding`: float64 blocks, purifications and
densities where they are real by construction, complex128 elsewhere, and
every rule on a real encoding within roundoff of the same rule on a
complex copy of its block."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksketch.block_encoding import (
    BlockEncoding,
    _density_trace,
    adjoint,
    encode_pauli_sum,
    identity_encoding,
    linear_combine,
    normalized,
    product,
)
from blocksketch.chebyshev import ChebyshevPoly
from blocksketch.circuits import check_circuit_unitary
from blocksketch.pauli import PauliSum, PauliTerm, pauli_sum_matrix
from blocksketch.spectral import apply_polynomial, chebyshev_encoding, evolution_encoding
from blocksketch.state_prep import (
    parse_state_text,
    prepare_basis_state,
    prepare_maximally_mixed,
    prepare_pure,
    prepare_thermal,
)

DTYPE = settings(max_examples=100, deadline=None)
U = np.finfo(float).eps / 2.0


def _even_y(word: str) -> str:
    return word if word.count("Y") % 2 == 0 else _flip_y_parity(word)


def _flip_y_parity(word: str) -> str:
    """word with its last letter changed so that its Y count changes by one."""
    return word[:-1] + ("I" if word[-1] == "Y" else "Y")


@st.composite
def pauli_sums(draw, even_y: bool, extremes: bool = True):
    """A sum on 1-4 qubits; with even_y every word has an even number of Y
    letters, else the first word has an odd number. Coefficients include
    1e-300 and 1e10 where extremes is set."""
    qubits = draw(st.integers(1, 4))
    word = st.text(alphabet="IXYZ", min_size=qubits, max_size=qubits)
    coeff = st.one_of(
        st.floats(-10.0, 10.0, allow_subnormal=False).filter(lambda c: abs(c) >= 1e-3),
        st.sampled_from([1.0, -1.0, 0.5] + ([1e-300, 1e10] if extremes else [])),
    )
    words = draw(st.lists(word, min_size=1, max_size=8))
    if even_y:
        words = [_even_y(w) for w in words]
    elif words[0].count("Y") % 2 == 0:
        words[0] = _flip_y_parity(words[0])
    words = list(dict.fromkeys(words))
    s = PauliSum(tuple(PauliTerm(draw(coeff), w) for w in words), qubits)
    # encode_pauli_sum refuses a scale too small to divide by.
    if not math.isfinite(1.0 / s.scale()):
        s = PauliSum(s.terms[:1], qubits)
    return s


def xxz_chain(qubits: int) -> PauliSum:
    pairs = [(0.3, "Z" + "I" * (qubits - 1))]
    for i in range(qubits - 1):
        for letters, c in (("XX", 1.0), ("YY", 1.0), ("ZZ", 0.6)):
            pairs.append((c, "I" * i + letters + "I" * (qubits - i - 2)))
    return PauliSum.from_terms(pairs)


@DTYPE
@given(pauli_sums(even_y=True))
def test_even_y_sums_are_real_blocks_equal_to_the_complex_real_part_bit_for_bit(s):
    b = encode_pauli_sum(s)
    complex_block = pauli_sum_matrix(s) / s.scale()
    assert b.block.dtype == np.float64
    assert not b.block.flags.writeable
    assert pauli_sum_matrix(s).dtype == np.complex128
    assert not np.any(complex_block.imag)
    # Bytes, not values: signed zeros count too.
    assert b.block.tobytes() == np.ascontiguousarray(complex_block.real).tobytes()


@pytest.mark.parametrize("qubits", [2, 3, 4])
def test_yy_chains_are_real(qubits):
    s = xxz_chain(qubits)
    b = encode_pauli_sum(s)
    assert b.block.dtype == np.float64
    assert b.block.tobytes() == np.ascontiguousarray((pauli_sum_matrix(s) / s.scale()).real).tobytes()


@DTYPE
@given(pauli_sums(even_y=False))
def test_odd_y_sums_stay_complex_and_unchanged(s):
    b = encode_pauli_sum(s)
    assert b.block.dtype == np.complex128
    assert b.block.tobytes() == (pauli_sum_matrix(s) / s.scale()).tobytes()


def _complex_copy(b: BlockEncoding) -> BlockEncoding:
    """A measured encoding of b's block as a complex array."""
    return BlockEncoding(
        b.block.astype(complex), b.ancilla_dim, b.system_dim, b.scale, b.accuracy, b.cost,
        circuit=b.circuit,
    )


def _max_gap(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.max(np.abs(x - y)))


@DTYPE
@given(
    pauli_sums(even_y=True, extremes=False),
    pauli_sums(even_y=True, extremes=False),
    st.integers(0, 2**32 - 1),
)
def test_rules_keep_float64_and_agree_with_their_complex_copies(s, s2, seed):
    """Roundoff bounds, for blocks of norm at most 1 in dimension D: a
    matrix product in real and in complex arithmetic sums the same D
    products, each side within D u of the exact sum, so entries differ by
    at most 2 D u; the recurrence to T_n accumulates that at most n^2
    times. p(A) from two eigendecompositions, each exact for a block
    within 16 D u of A, differs by at most sum_k k^2 |c_k| (the Lipschitz
    bound of the series) times that, plus 16 D u for each reassembly. A
    trace against a density (sum_ij |rho_ij| <= D) differs by 2 D^2 u."""
    if s2.qubits != s.qubits:
        s2 = s
    h, g = encode_pauli_sum(s), encode_pauli_sum(s2)
    hc, gc = _complex_copy(h), _complex_copy(g)
    d = h.system_dim
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d)
    densities = [
        prepare_maximally_mixed(d).density,
        prepare_basis_state(int(rng.integers(d)), d).density,
        prepare_pure(v / np.linalg.norm(v)).density,
    ]
    for rho in densities:
        assert rho.dtype == np.float64

    for n in range(6):
        t_n = chebyshev_encoding(h, n)
        t_nc = chebyshev_encoding(hc, n)
        assert t_n.block.dtype == np.float64 and t_nc.block.dtype == np.complex128
        assert _max_gap(t_n.block, t_nc.block) <= 2.0 * max(n, 1) ** 2 * d * U

    rules = [
        (product([h, g]), product([hc, gc]), 2.0 * d * U),
        (product([g, h, g]), product([gc, hc, gc]), 4.0 * d * U),
        (adjoint(h), adjoint(hc), 0.0),
        (normalized(g), normalized(gc), 0.0),
        (linear_combine([0.5, -2.0], [h, g]), linear_combine([0.5, -2.0], [hc, gc]), 0.0),
    ]
    coeffs = rng.normal(size=int(rng.integers(1, 5)))
    p = ChebyshevPoly(coeffs / np.sum(np.abs(coeffs)))
    lipschitz = float(np.sum(np.arange(p.degree + 1) ** 2 * np.abs(p.coeffs)))
    rules.append(
        (apply_polynomial(h, p, 0.0), apply_polynomial(hc, p, 0.0), 32.0 * d * U * (1.0 + lipschitz))
    )
    for b, bc, bound in rules:
        assert b.block.dtype == np.float64 and bc.block.dtype == np.complex128
        assert _max_gap(b.block, bc.block) <= bound
        for rho in densities:
            gap = abs(_density_trace(b, rho) - _density_trace(bc, rho))
            assert gap <= d * bound + 2.0 * d * d * U


def test_a_real_block_hermitian_only_within_tolerance_keeps_real_chebyshev_orders():
    """Its T_n norms are measured by an SVD, and the blocks stay real."""
    h = encode_pauli_sum(PauliSum.from_terms([(0.5, "ZZI"), (0.3, "XIX"), (0.2, "IXZ")]))
    cube = product([h, h, h])
    assert not cube.hermitian and 0.0 < cube.hermitian_gap <= 1e-15
    for n in range(4):
        t_n = chebyshev_encoding(cube, n)
        assert t_n.block.dtype == np.float64
        assert (t_n.norm_bound == 1.0) is (n == 0)


def test_a_complex_phase_or_input_makes_a_combination_complex():
    h = encode_pauli_sum(xxz_chain(2))
    y = encode_pauli_sum(PauliSum.from_terms([(1.0, "YI")]))
    assert linear_combine([1.0, 1.0], [h, identity_encoding(4)]).block.dtype == np.float64
    assert linear_combine([1.0, 1j], [h, identity_encoding(4)]).block.dtype == np.complex128
    assert linear_combine([1.0, 1.0], [h, y]).block.dtype == np.complex128
    assert product([h, y]).block.dtype == np.complex128
    assert evolution_encoding(xxz_chain(2), 0.3, 0.01).block.dtype == np.complex128


def test_checking_a_unitary_leaves_the_callers_array_writable():
    u = np.eye(2, dtype=complex)
    checked = check_circuit_unitary(u, 2)
    assert not checked.flags.writeable and u.flags.writeable
    assert check_circuit_unitary(np.eye(2), 2).dtype == np.complex128


@pytest.mark.parametrize(
    "make, dtype",
    [
        (lambda: prepare_basis_state(2, 4), np.float64),
        (lambda: prepare_maximally_mixed(4), np.float64),
        (lambda: prepare_pure([0.6, 0.8]), np.float64),
        (lambda: prepare_pure([1, 0]), np.float64),
        (lambda: parse_state_text("pure 0.6 0.8", 2), np.float64),
        (lambda: parse_state_text("pure 0.6+0j 0.8-0j", 2), np.float64),
        (lambda: parse_state_text("basis 1", 2), np.float64),
        (lambda: parse_state_text("mixed", 2), np.float64),
        (lambda: prepare_pure([0.6, 0.8j]), np.complex128),
        (lambda: parse_state_text("pure 0.6 0.8j", 2), np.complex128),
        (lambda: prepare_thermal(xxz_chain(2), 0.5)[0], np.complex128),
    ],
)
def test_states_are_real_where_they_are_built_real(make, dtype):
    p = make()
    assert p.purification.dtype == dtype
    assert p.density.dtype == dtype
    assert p.unitary.dtype == np.complex128
    assert not p.unitary.flags.writeable


def test_a_real_pure_directive_is_the_real_part_of_the_complex_one_bit_for_bit():
    # Unit norm to roundoff, so the directive is divided by its norm.
    amps = np.array([0.3, -0.4, 0.5, 0.7]) / math.sqrt(0.99)
    text = "pure " + " ".join(map(repr, amps.tolist()))
    complex_v = amps.astype(complex) / np.linalg.norm(amps)
    assert parse_state_text(text, 4).purification.tobytes() == complex_v.real.tobytes()
