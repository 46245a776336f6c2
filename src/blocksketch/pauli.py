"""Pauli-string algebra: weighted sums of Pauli words and their dense matrices.

A word is held in the symplectic form of Aaronson and Gottesman (2004):
bit masks x and z (the first letter is the most significant bit) and the
number of Y letters. As Y = iXZ, the word maps |j> to
i^(#Y) (-1)^popcount(z & j) |j xor x>, so its matrix has one entry per
column and a sum of m words is scattered into its D x D matrix in O(m D).

Also defines the on-disk text format for Hamiltonians and observables:
one term per line as ``<real coefficient> <pauli word>``, ``#`` starts a
comment, blank lines are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySumError, ParseError

_ALPHABET = frozenset("IXYZ")


def word_masks(word: str) -> tuple[int, int, int]:
    """(x_mask, z_mask, number of Y letters) of a Pauli word; the first
    letter is the most significant bit."""
    x = z = 0
    for c in word:
        x = 2 * x + (c in "XY")
        z = 2 * z + (c in "YZ")
    return x, z, word.count("Y")


@dataclass(frozen=True)
class PauliTerm:
    """A real coefficient times a Pauli word such as ``0.5 * XZ``."""

    coefficient: float
    word: str
    masks: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.word:
            raise ValueError("Pauli word must be nonempty")
        bad = set(self.word) - _ALPHABET
        if bad:
            raise ValueError(f"invalid Pauli letters {sorted(bad)} in word {self.word!r}")
        if not math.isfinite(self.coefficient) or self.coefficient == 0.0:
            raise ValueError(f"coefficient must be finite and nonzero, got {self.coefficient}")
        object.__setattr__(self, "masks", word_masks(self.word))

    @property
    def qubits(self) -> int:
        return len(self.word)


@dataclass(frozen=True)
class PauliSum:
    """A Hamiltonian or observable as a merged list of Pauli terms.

    Duplicate words are merged on construction and zero-merged terms are
    dropped; the one-norm of the coefficients (``scale``) must stay positive.
    """

    terms: tuple[PauliTerm, ...]
    qubits: int

    def __post_init__(self):
        if not self.terms:
            raise EmptySumError("PauliSum requires at least one term")
        for t in self.terms:
            if t.qubits != self.qubits:
                raise ValueError(
                    f"word {t.word!r} has length {t.qubits}, expected {self.qubits}"
                )
        words = [t.word for t in self.terms]
        if len(set(words)) != len(words):
            raise ValueError("duplicate Pauli words; use PauliSum.from_terms to merge")

    @classmethod
    def from_terms(cls, pairs) -> "PauliSum":
        """Build from (coefficient, word) pairs, merging duplicate words."""
        merged: dict[str, float] = {}
        order: list[str] = []
        qubits = None
        for coeff, word in pairs:
            if qubits is None:
                qubits = len(word)
            if word not in merged:
                merged[word] = 0.0
                order.append(word)
            merged[word] += float(coeff)
        kept = [(merged[w], w) for w in order if merged[w] != 0.0]
        if not kept:
            raise EmptySumError("all terms cancelled; scale would be zero")
        return cls(tuple(PauliTerm(c, w) for c, w in kept), qubits)

    def scale(self) -> float:
        """One-norm of the coefficients; the block-encoding scale alpha."""
        return float(sum(abs(t.coefficient) for t in self.terms))

    @property
    def dim(self) -> int:
        return 2**self.qubits


def _scatter(masks, coefficients, qubits: int) -> np.ndarray:
    """The matrix of sum_t coefficients[t] times the word with masks[t]:
    coefficient i^(#Y) (-1)^popcount(z & j) at row j xor x of each column
    j. It is float64 when every word has an even number of Y letters, whose
    entries are then real, and complex otherwise (the dtype rule of
    `block_encoding`). One unbuffered add scatters every term, in term
    order, onto the entries of a real matrix, or onto the real parts (even
    #Y) or the imaginary parts (odd #Y) of a complex one seen as one float
    array, so each entry sums its terms in order from +0.0 and a real
    matrix equals the real part of the complex one bit for bit. The parity
    is an xor fold of z & j (numpy before 2.0 has no bitwise_count)."""
    dim = 1 << qubits
    x, z, num_y = (np.array(v, dtype=np.int64)[:, None] for v in zip(*masks))
    cols = np.arange(dim)
    parity = cols & z
    shift = 1
    while shift < qubits:
        parity ^= parity >> shift
        shift *= 2
    signed = np.where(num_y % 4 < 2, 1.0, -1.0) * np.array(coefficients)[:, None]
    values = signed * (1 - 2 * (parity & 1))
    real = not np.any(num_y % 2)
    # Entry (r, c) is float r dim + c of a real matrix; a complex one holds
    # its real part at 2 (r dim + c) and its imaginary part after it.
    index = ((cols ^ x) * dim + cols) * (1 if real else 2) + num_y % 2
    out = np.zeros((dim, dim), dtype=float if real else complex)
    np.add.at(out.reshape(-1).view(np.float64), index.reshape(-1), values.reshape(-1))
    return out


def pauli_word_matrix(word: str) -> np.ndarray:
    """Dense complex matrix of the tensor product of the Pauli letters of word."""
    if not word or not set(word) <= _ALPHABET:
        raise ValueError(f"not a Pauli word: {word!r}")
    return _scatter([word_masks(word)], [1.0], len(word)).astype(complex, copy=False)


def pauli_term_matrix(term: PauliTerm) -> np.ndarray:
    """Dense matrix of coefficient times the tensor product of Pauli factors."""
    return term.coefficient * pauli_word_matrix(term.word)


def pauli_sum_matrix(s: PauliSum) -> np.ndarray:
    """Dense complex Hermitian matrix of the full sum, the terms added in order."""
    return _scatter(
        [t.masks for t in s.terms], [t.coefficient for t in s.terms], s.qubits
    ).astype(complex, copy=False)


def parse_pauli_text(text: str, source: str = "<string>") -> PauliSum:
    """Parse the one-term-per-line text format, merging duplicate words.

    Raises:
        ParseError: naming `source` and the offending line number.
    """
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(
                f"{source}:{lineno}: expected '<coefficient> <word>', got {raw.strip()!r}"
            )
        coeff_text, word = fields
        try:
            coeff = float(coeff_text)
        except ValueError:
            raise ParseError(f"{source}:{lineno}: bad coefficient {coeff_text!r}") from None
        if not math.isfinite(coeff):
            raise ParseError(f"{source}:{lineno}: coefficient {coeff_text!r} is not finite")
        bad = set(word) - _ALPHABET
        if bad:
            raise ParseError(
                f"{source}:{lineno}: invalid Pauli letters {''.join(sorted(bad))!r} in {word!r}"
            )
        pairs.append((coeff, word))
    if not pairs:
        raise ParseError(f"{source}: no terms found")
    lengths = {len(w) for _, w in pairs}
    if len(lengths) != 1:
        raise ParseError(f"{source}: inconsistent word lengths {sorted(lengths)}")
    try:
        parsed = PauliSum.from_terms(pairs)
    except EmptySumError:
        raise ParseError(f"{source}: all terms cancel to zero") from None
    except ValueError as exc:  # merged coefficients of one word overflowed
        raise ParseError(f"{source}: {exc}") from None
    if not math.isfinite(parsed.scale()):
        raise ParseError(f"{source}: the sum of |coefficients| (the scale alpha) overflows")
    return parsed


def read_input(path) -> str:
    """The text of an input file, read as UTF-8; a leading byte-order mark,
    which some editors write, is dropped.

    Raises:
        ParseError: naming the path, if the file cannot be read as UTF-8.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def parse_pauli_file(path) -> PauliSum:
    return parse_pauli_text(read_input(path), source=str(path))
