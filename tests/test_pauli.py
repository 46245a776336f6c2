from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksketch.errors import EmptySumError, ParseError
from blocksketch.pauli import (
    PauliSum,
    PauliTerm,
    parse_pauli_file,
    parse_pauli_text,
    pauli_sum_matrix,
    pauli_term_matrix,
    pauli_word_matrix,
    word_masks,
)

# The kron-product reference for the bit-mask matrices.
KRON_LETTERS = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _kron_word(word):
    return reduce(np.kron, [KRON_LETTERS[c] for c in word], np.ones((1, 1), dtype=complex))


def _kron_sum(s):
    out = np.zeros((s.dim, s.dim), dtype=complex)
    for t in s.terms:
        out += t.coefficient * _kron_word(t.word)
    return out


@st.composite
def pauli_sums(draw):
    qubits = draw(st.integers(1, 6))
    word = st.text(alphabet="IXYZ", min_size=qubits, max_size=qubits)
    coeff = st.one_of(
        st.floats(-10.0, 10.0, allow_subnormal=False).filter(lambda c: c != 0.0),
        st.sampled_from([1.0, -1.0, 0.5, 1e-300, -3e300]),
    )
    pairs = draw(st.lists(st.tuples(coeff, word), min_size=1, max_size=8, unique_by=lambda p: p[1]))
    return PauliSum(tuple(PauliTerm(c, w) for c, w in pairs), qubits)

# X (x) Z expanded by hand
XZ = np.array(
    [
        [0, 0, 1, 0],
        [0, 0, 0, -1],
        [1, 0, 0, 0],
        [0, -1, 0, 0],
    ],
    dtype=complex,
)


def test_term_matrix_examples():
    assert np.allclose(pauli_term_matrix(PauliTerm(1.0, "I")), np.eye(2))
    assert np.allclose(pauli_term_matrix(PauliTerm(0.5, "Z")), np.diag([0.5, -0.5]))
    assert np.allclose(pauli_term_matrix(PauliTerm(1.0, "XZ")), XZ)


@settings(max_examples=200, deadline=None)
@given(pauli_sums())
def test_bit_mask_matrices_equal_the_kron_products(s):
    assert np.array_equal(pauli_sum_matrix(s), _kron_sum(s))
    for t in s.terms:
        assert np.array_equal(pauli_word_matrix(t.word), _kron_word(t.word))
        assert np.array_equal(pauli_term_matrix(t), t.coefficient * _kron_word(t.word))


def test_word_masks():
    assert word_masks("I") == (0, 0, 0)
    assert word_masks("XYZI") == (0b1100, 0b0110, 1)
    assert word_masks("YY") == (0b11, 0b11, 2)
    assert PauliTerm(0.5, "ZXY").masks == (0b011, 0b101, 1)
    with pytest.raises(ValueError):
        pauli_word_matrix("XQ")
    with pytest.raises(ValueError):
        pauli_word_matrix("")


def test_term_matrix_hermitian(rng):
    from conftest import random_pauli_sum

    for _ in range(10):
        s = random_pauli_sum(rng, 3, 4)
        m = pauli_sum_matrix(s)
        assert np.max(np.abs(m - m.conj().T)) < 1e-12


def test_sum_matrix_examples():
    s = PauliSum.from_terms([(0.5, "X"), (0.5, "Z")])
    assert np.allclose(pauli_sum_matrix(s), [[0.5, 0.5], [0.5, -0.5]])
    assert np.allclose(pauli_sum_matrix(PauliSum.from_terms([(1.0, "I")])), np.eye(2))
    s = PauliSum.from_terms([(0.3, "Z"), (0.2, "X")])
    assert np.allclose(np.linalg.eigvalsh(pauli_sum_matrix(s)), [-np.sqrt(0.13), np.sqrt(0.13)])


def test_term_validation():
    with pytest.raises(ValueError):
        PauliTerm(1.0, "")
    with pytest.raises(ValueError):
        PauliTerm(1.0, "XQ")
    with pytest.raises(ValueError):
        PauliTerm(0.0, "X")
    with pytest.raises(ValueError):
        PauliTerm(float("nan"), "X")


def test_merge_and_scale():
    s = PauliSum.from_terms([(0.3, "Z"), (0.2, "Z"), (0.1, "X")])
    assert len(s.terms) == 2
    assert dict((t.word, t.coefficient) for t in s.terms) == {"Z": 0.5, "X": 0.1}
    assert s.scale() == pytest.approx(0.6)
    with pytest.raises(EmptySumError):
        PauliSum.from_terms([(1.0, "Z"), (-1.0, "Z")])


def test_parse_text():
    text = "# a comment\n0.5 XZ\n\n0.3 ZI # trailing\n0.2 ZI\n"
    s = parse_pauli_text(text)
    assert s.qubits == 2
    words = {t.word: t.coefficient for t in s.terms}
    assert words == {"XZ": pytest.approx(0.5), "ZI": pytest.approx(0.5)}


def test_parse_merges_duplicates():
    s = parse_pauli_text("0.3 Z\n0.2 Z\n")
    assert len(s.terms) == 1
    assert s.terms[0].coefficient == pytest.approx(0.5)


def test_parse_errors_name_line():
    with pytest.raises(ParseError, match="h.txt:2"):
        parse_pauli_text("1.0 Z\n1.0 XQ\n", source="h.txt")
    with pytest.raises(ParseError, match=":1"):
        parse_pauli_text("oops\n")
    with pytest.raises(ParseError, match="no terms"):
        parse_pauli_text("# nothing\n")
    with pytest.raises(ParseError, match="inconsistent"):
        parse_pauli_text("1.0 Z\n1.0 ZZ\n")
    with pytest.raises(ParseError, match="cancel"):
        parse_pauli_text("1.0 Z\n-1.0 Z\n")


@pytest.mark.parametrize("coeff", ["nan", "inf", "-inf", "1e400"])
def test_parse_rejects_nonfinite_coefficients_with_line(coeff):
    with pytest.raises(ParseError, match=f"h.txt:2: coefficient '{coeff}' is not finite"):
        parse_pauli_text(f"1.0 Z\n{coeff} Z\n", source="h.txt")


def test_parse_rejects_merged_overflow():
    with pytest.raises(ParseError, match="h.txt: .*finite"):
        parse_pauli_text("1e308 Z\n1e308 Z\n", source="h.txt")


def test_parse_file_reports_unreadable_path(tmp_path):
    missing = tmp_path / "missing.txt"
    with pytest.raises(ParseError, match=f"cannot read {missing}: No such file or directory"):
        parse_pauli_file(missing)
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe Z\n")
    with pytest.raises(ParseError, match=f"cannot read {binary}: .*utf-8"):
        parse_pauli_file(binary)


def test_parse_file_drops_a_utf8_byte_order_mark(tmp_path):
    """Some editors start a UTF-8 file with U+FEFF; it is not part of the
    first coefficient."""
    bom = tmp_path / "bom.txt"
    bom.write_text("\ufeff1.0 ZZ\n0.5 XI\n", encoding="utf-8")
    assert parse_pauli_file(bom) == parse_pauli_text("1.0 ZZ\n0.5 XI\n")


def _per_term_matrix(s):
    """The matrix of s with one fancy-indexed add per term, as
    `pauli_sum_matrix` once built it: the reference for the one-pass scatter."""
    out = np.zeros((s.dim, s.dim), dtype=complex)
    cols = np.arange(s.dim)
    for t in s.terms:
        x, z, num_y = t.masks
        parity = cols & z
        shift = 1
        while shift < s.qubits:
            parity ^= parity >> shift
            shift *= 2
        part = out.imag if num_y % 2 else out.real
        value = t.coefficient if num_y % 4 < 2 else -t.coefficient
        part[cols ^ x, cols] += value * (1 - 2 * (parity & 1))
    return out


@settings(max_examples=300, deadline=None)
@given(pauli_sums())
def test_one_pass_scatter_is_bitwise_the_per_term_sum(s):
    # Bytes, not values, so signed zeros count too: encode_pauli_sum's
    # Hermitian proof rests on each entry's additions and their order.
    assert pauli_sum_matrix(s).tobytes() == _per_term_matrix(s).tobytes()

