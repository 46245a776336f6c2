"""Fuzzing of the two input parsers: whatever the text, parsing either
returns a valid value or raises ParseError naming the source."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksketch.errors import ParseError
from blocksketch.pauli import PauliSum, parse_pauli_text
from blocksketch.state_prep import PreparationUnitary, parse_state_text

FUZZ = settings(max_examples=200, deadline=None)

NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["nan", "-inf", "1e400", "1e-400", "-0.0", "0.5", "1e308", "1_0", "0x1"]),
    st.complex_numbers().map(str),
)
JUNK = st.text(alphabet="IXYZixyz01.e+-j#\t ", max_size=6)
WORDS = st.text(alphabet="IXYZ", min_size=1, max_size=3)


def _lines(line):
    return st.one_of(
        st.lists(line, max_size=5).map("\n".join),
        st.text(max_size=40),
    )


PAULI_TEXT = _lines(
    st.one_of(
        st.tuples(NUMBERS, WORDS).map(" ".join),
        st.lists(st.one_of(NUMBERS, WORDS, JUNK), max_size=3).map(" ".join),
    )
)
STATE_TEXT = _lines(
    st.tuples(
        st.sampled_from(["pure", "mixed", "thermal", "basis", "PURE", "squeezed", "#"]),
        st.lists(st.one_of(NUMBERS, JUNK), max_size=5),
    ).map(lambda d: " ".join([d[0], *d[1]]))
)
HAMILTONIAN = PauliSum.from_terms([(1.0, "ZI"), (0.5, "IX")])


@FUZZ
@given(PAULI_TEXT)
def test_parse_pauli_text_fails_only_with_parse_error(text):
    try:
        result = parse_pauli_text(text, source="h.txt")
    except ParseError as exc:
        assert str(exc).startswith("h.txt:")
    else:
        assert isinstance(result, PauliSum)


@FUZZ
@given(STATE_TEXT, st.sampled_from([1, 2, 4]), st.sampled_from([None, HAMILTONIAN]))
def test_parse_state_text_fails_only_with_parse_error(text, dim, hamiltonian):
    try:
        result = parse_state_text(text, dim, hamiltonian, source="s.txt")
    except ParseError as exc:
        assert str(exc).startswith("s.txt:")
    else:
        assert isinstance(result, PreparationUnitary)
        assert abs(np.linalg.norm(result.purification) - 1.0) <= 1e-10
