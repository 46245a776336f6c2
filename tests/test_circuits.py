"""The circuit unitaries behind the block-first values.

Every encoding and preparation carries its block (or purification) and
ledgers, and builds its full unitary only when `.unitary` is read. These
tests materialize each constructor's circuit on random inputs and check it
against the stored value, and check that no pipeline reads a circuit.
"""

import math

import numpy as np
import pytest

from blocksketch.block_encoding import (
    BlockEncoding,
    adjoint,
    encode_pauli_sum,
    linear_combine,
    product,
    product_error_bound,
)
from blocksketch.chebyshev import ChebyshevPoly
from blocksketch.cli import main
from blocksketch.errors import NormTooLargeError
from blocksketch.estimation import (
    _shifted_encoding,
    antihermitian_part_encoding,
    hermitian_part_encoding,
)
from blocksketch.linalg import is_unitary
from blocksketch.spectral import apply_polynomial, chebyshev_encoding, evolution_encoding
from blocksketch.state_prep import (
    PreparationUnitary,
    prepare_maximally_mixed,
    prepare_pure,
    prepare_thermal,
)

from conftest import random_pauli_sum, random_state_vector

TOL = 1e-10


def _ledger(b: BlockEncoding) -> tuple:
    return (b.ancilla_dim, b.system_dim, b.scale, b.accuracy, b.cost)


def _pauli_inputs(rng, qubits: int = 2, count: int = 2):
    return [encode_pauli_sum(random_pauli_sum(rng, qubits, 4)) for _ in range(count)]


def _case_encode_pauli_sum(rng):
    s = random_pauli_sum(rng, 3, 6)
    dim_anc = 1 << max(0, (len(s.terms) - 1).bit_length())
    return encode_pauli_sum(s), (dim_anc, 8, s.scale(), 0.0, len(s.terms))


def _case_adjoint(rng):
    (b,) = _pauli_inputs(rng, count=1)
    g = product([b, evolution_encoding(random_pauli_sum(rng, 2, 3), 0.7, 0.01)])
    return adjoint(g), _ledger(g)


def _case_product(rng):
    b1, b2 = _pauli_inputs(rng)
    ev = evolution_encoding(random_pauli_sum(rng, 2, 3), -1.3, 0.02)
    factors = [b1, ev, b2]
    ledger = (
        b1.ancilla_dim * b2.ancilla_dim,
        4,
        b1.scale * b2.scale,
        product_error_bound([0.0, 0.02, 0.0]),
        b1.cost + ev.cost + b2.cost,
    )
    return product(factors), ledger


def _case_linear_combine(rng):
    b1, b2 = _pauli_inputs(rng)
    coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
    total = abs(coeffs[0]) * b1.scale + abs(coeffs[1]) * b2.scale
    ledger = (2 * max(b1.ancilla_dim, b2.ancilla_dim), 4, total, 0.0, b1.cost + b2.cost)
    return linear_combine(coeffs, [b1, b2]), ledger


def _case_chebyshev_encoding(rng):
    (b,) = _pauli_inputs(rng, count=1)
    n = int(rng.integers(2, 8))
    return chebyshev_encoding(b, n), (b.ancilla_dim, 4, 1.0, 0.0, n * b.cost)


def _case_apply_polynomial(rng):
    (b,) = _pauli_inputs(rng, count=1)
    coeffs = rng.normal(size=6)
    p = ChebyshevPoly(coeffs / (np.sum(np.abs(coeffs)) * 1.01))
    return apply_polynomial(b, p, 1e-3), (2 * b.ancilla_dim, 4, 2.0, 1e-3, 5 * b.cost)


def _case_evolution_encoding(rng):
    h = random_pauli_sum(rng, 3, 4)
    enc = evolution_encoding(h, 0.9, 0.05)
    return enc, (1, 8, 1.0, 0.05, enc.cost)


def _case_shifted_encoding(rng):
    (b,) = _pauli_inputs(rng, count=1)
    return _shifted_encoding(b), (2 * b.ancilla_dim, 4, 1.0, 0.0, b.cost)


def _part_case(part):
    def case(rng):
        b1, b2 = _pauli_inputs(rng)
        g = product([b1, b2])
        return part(g), (2 * g.ancilla_dim, 4, g.scale, 0.0, 2 * g.cost)

    return case


ENCODING_CASES = {
    "encode_pauli_sum": _case_encode_pauli_sum,
    "adjoint": _case_adjoint,
    "product": _case_product,
    "linear_combine": _case_linear_combine,
    "chebyshev_encoding": _case_chebyshev_encoding,
    "apply_polynomial": _case_apply_polynomial,
    "evolution_encoding": _case_evolution_encoding,
    "_shifted_encoding": _case_shifted_encoding,
    "hermitian_part_encoding": _part_case(hermitian_part_encoding),
    "antihermitian_part_encoding": _part_case(antihermitian_part_encoding),
}


@pytest.mark.parametrize("name", sorted(ENCODING_CASES))
def test_circuit_block_matches_stored_block(name):
    rng = np.random.default_rng(sorted(ENCODING_CASES).index(name))
    for _ in range(3):
        enc, ledger = ENCODING_CASES[name](rng)
        full = enc.ancilla_dim * enc.system_dim
        assert full <= 256
        u = enc.unitary
        assert u.shape == (full, full)
        assert is_unitary(u, TOL)
        d = enc.system_dim
        assert np.max(np.abs(u[:d, :d] - enc.block)) <= TOL
        assert _ledger(enc) == pytest.approx(ledger, rel=1e-12, abs=0.0)


def _check_preparation(prep: PreparationUnitary, ledger: tuple):
    full = prep.system_dim * prep.purifier_dim
    u = prep.unitary
    assert u.shape == (full, full)
    assert is_unitary(u, TOL)
    column = u[:, 0]
    stored = prep.purification
    phase = np.vdot(stored, column)
    assert abs(abs(phase) - 1.0) <= TOL
    assert np.max(np.abs(column - phase * stored)) <= TOL
    assert (prep.system_dim, prep.purifier_dim, prep.cost) == ledger


@pytest.mark.parametrize("d", range(2, 17))
def test_maximally_mixed_circuit_prepares_stored_purification(d):
    dim = 1 << (d - 1).bit_length()
    _check_preparation(prepare_maximally_mixed(d), (dim, 2 * dim, 2 * int(math.log2(dim))))


@pytest.mark.parametrize("d", range(2, 17))
def test_pure_circuit_prepares_stored_vector(d, rng):
    _check_preparation(prepare_pure(random_state_vector(rng, d)), (d, 1, d))


@pytest.mark.parametrize("qubits", range(1, 5))
def test_thermal_circuit_prepares_stored_purification(qubits, rng):
    h = random_pauli_sum(rng, qubits, 4)
    prep, cost = prepare_thermal(h, float(rng.uniform(0.1, 2.0)))
    _check_preparation(prep, (h.dim, h.dim, math.ceil(cost)))


def test_rule_built_block_must_be_a_contraction():
    with pytest.raises(NormTooLargeError):
        BlockEncoding(block=1.01 * np.eye(2), ancilla_dim=2, system_dim=2, scale=1.0,
                      circuit=lambda: np.eye(4))


@pytest.fixture
def no_circuits(monkeypatch):
    """Make reading any encoding's or preparation's circuit unitary fail."""

    def refuse(self):
        raise AssertionError(f"{type(self).__name__}.unitary was built on the execution path")

    monkeypatch.setattr(BlockEncoding, "unitary", property(refuse))
    monkeypatch.setattr(PreparationUnitary, "unitary", property(refuse))


@pytest.fixture
def inputs(tmp_path):
    files = {
        "h.txt": "1.0 ZZI\n1.0 IZZ\n0.7 XII\n0.7 IXI\n0.7 IIX\n",
        "b.txt": "0.6 ZII\n0.3 XYI\n",
        "c.txt": "0.5 XII\n0.2 IZZ\n",
        "o1.txt": "0.5 ZII\n0.3 IXI\n",
        "o2.txt": "0.4 XII\n0.1 ZZZ\n",
        "mixed.txt": "mixed\n",
        "thermal.txt": "thermal 0.8\n",
        "basis.txt": "basis 3\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return tmp_path


PIPELINES = {
    "dos-moments": "dos --hamiltonian h.txt --moments 5 --oracle",
    "dos-integral": "dos --hamiltonian h.txt --integral -1 1 --eps 0.3 --oracle",
    "ldos-moments": "ldos --hamiltonian h.txt --moments 5 --state basis.txt --oracle",
    "ldos-integral": "ldos --hamiltonian h.txt --integral -1 1 --eps 0.3 --state basis.txt --oracle",
    "response-moments": "response --hamiltonian h.txt --moments 5 --observable-b b.txt "
    "--observable-c c.txt --state thermal.txt --oracle",
    "response-integral": "response --hamiltonian h.txt --integral -1 1 --eps 0.3 "
    "--observable-b b.txt --observable-c c.txt --state mixed.txt --oracle",
    "kpm": "kpm --hamiltonian h.txt --moments 6 --grid-points 11",
    "correlate": "correlate --hamiltonian h.txt --observable o1.txt 0.4 --observable o2.txt -0.3 "
    "--state mixed.txt --oracle",
}


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_pipelines_never_build_a_circuit(pipeline, mode, inputs, no_circuits):
    argv = [str(inputs / tok) if tok.endswith(".txt") else tok for tok in PIPELINES[pipeline].split()]
    out = inputs / "out.txt"
    assert main(argv + ["--mode", mode, "--seed", "3", "--output", str(out)]) == 0
    assert out.read_text()
