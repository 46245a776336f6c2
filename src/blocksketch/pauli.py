"""Pauli-string algebra: weighted sums of Pauli words and their dense matrices.

Also defines the on-disk text format for Hamiltonians and observables:
one term per line as ``<real coefficient> <pauli word>``, ``#`` starts a
comment, blank lines are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySumError, ParseError
from .linalg import kron_all

PAULI_MATRICES = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_ALPHABET = frozenset("IXYZ")


@dataclass(frozen=True)
class PauliTerm:
    """A real coefficient times a Pauli word such as ``0.5 * XZ``."""

    coefficient: float
    word: str

    def __post_init__(self):
        if not self.word:
            raise ValueError("Pauli word must be nonempty")
        bad = set(self.word) - _ALPHABET
        if bad:
            raise ValueError(f"invalid Pauli letters {sorted(bad)} in word {self.word!r}")
        if not math.isfinite(self.coefficient) or self.coefficient == 0.0:
            raise ValueError(f"coefficient must be finite and nonzero, got {self.coefficient}")

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


def pauli_word_matrix(word: str) -> np.ndarray:
    return kron_all(PAULI_MATRICES[c] for c in word)


def pauli_term_matrix(term: PauliTerm) -> np.ndarray:
    """Dense matrix of coefficient times the tensor product of Pauli factors."""
    return term.coefficient * pauli_word_matrix(term.word)


def pauli_sum_matrix(s: PauliSum) -> np.ndarray:
    """Dense Hermitian matrix of the full sum."""
    out = np.zeros((s.dim, s.dim), dtype=complex)
    for t in s.terms:
        out += pauli_term_matrix(t)
    return out


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
    """The text of an input file.

    Raises:
        ParseError: naming the path, if the file cannot be read as UTF-8.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def parse_pauli_file(path) -> PauliSum:
    return parse_pauli_text(read_input(path), source=str(path))
