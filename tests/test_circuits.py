"""The circuit unitaries and norm ledger behind the block-first values.

Every encoding and preparation carries its block (or purification) and
ledgers, and builds its full unitary only when `.unitary` is read. These
tests materialize each constructor's circuit on random inputs and check it
against the stored value, check that every circuit is a builder of
`blocksketch.circuits`, check that each rule records the norm bound it
proves and that the bound holds, and check that no pipeline reads a
circuit, checks a unitary, runs a contraction SVD or forms a reduced
density twice. The last tests check the module's matrix helpers: the
predicates, the dilation, the completion, the embedding and the unitary
check.
"""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from blocksketch import block_encoding, circuits
from blocksketch.block_encoding import (
    CONTRACTION_TOL,
    BlockEncoding,
    adjoint,
    encode_pauli_sum,
    encode_unitary,
    identity_encoding,
    linear_combine,
    normalized,
    product,
    product_error_bound,
    spectral_norm,
)
from blocksketch.chebyshev import ChebyshevPoly
from blocksketch.cli import main
from blocksketch.errors import NormTooLargeError, NotUnitaryError, OutOfRangeError
from blocksketch.estimation import (
    _shifted_encoding,
    antihermitian_part_encoding,
    hermitian_part_encoding,
)
from blocksketch.circuits import (
    EXACT_UNITARY_DIM,
    check_circuit_unitary,
    embed_operator,
    is_hermitian,
    is_unitary,
    passes_isometry_probe,
    unitary_completion,
    unitary_dilation,
)
from blocksketch.pauli import PauliSum, pauli_sum_matrix
from blocksketch.spectral import apply_polynomial, chebyshev_encoding, evolution_encoding
from blocksketch.state_prep import (
    PreparationUnitary,
    prepare_basis_state,
    prepare_maximally_mixed,
    prepare_pure,
    prepare_thermal,
)

from conftest import (
    contraction_encoding,
    random_hermitian_contraction,
    random_pauli_sum,
    random_state_vector,
)

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


def _case_encode_unitary(rng):
    u = unitary_completion(random_state_vector(rng, 8))
    return encode_unitary(u, cost=3), (1, 8, 1.0, 0.0, 3)


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
    "encode_unitary": _case_encode_unitary,
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
    # u u^dagger costs O(full^3): above EXACT_UNITARY_DIM, probe in O(full^2).
    assert (is_unitary if full <= EXACT_UNITARY_DIM else passes_isometry_probe)(u, TOL)
    column = u[:, 0]
    stored = prep.purification
    phase = np.vdot(stored, column)
    assert abs(abs(phase) - 1.0) <= TOL
    assert np.max(np.abs(column - phase * stored)) <= TOL
    assert (prep.system_dim, prep.purifier_dim, prep.cost) == ledger


@pytest.mark.parametrize("d", [*range(1, 17), 32, 64])
def test_maximally_mixed_circuit_prepares_stored_purification(d):
    """D = 2^n for n = 0..6 gets n Bell pairs: a D-dimensional mirror
    purifier and 2n gates. Any other D has no qubit register and raises."""
    n = d.bit_length() - 1
    if d != 1 << n:
        with pytest.raises(OutOfRangeError, match="power of two"):
            prepare_maximally_mixed(d)
        return
    _check_preparation(prepare_maximally_mixed(d), (d, d, 2 * n))


@pytest.mark.parametrize("n", range(5))
def test_bell_circuit_is_a_hadamard_layer_then_a_cnot_layer(n):
    dim = 1 << n
    hadamards = np.eye(1)
    for _ in range(n):
        hadamards = np.kron(hadamards, np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
    # CNOT from each system qubit onto its purifier mirror: |i>|j> -> |i>|j xor i>.
    cnots = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            cnots[i * dim + (j ^ i), i * dim + j] = 1.0
    assert np.array_equal(circuits.bell_unitary(n), cnots @ np.kron(hadamards, np.eye(dim)))


@pytest.mark.parametrize("d", range(2, 17))
def test_pure_circuit_prepares_stored_vector(d, rng):
    _check_preparation(prepare_pure(random_state_vector(rng, d)), (d, 1, d))


@pytest.mark.parametrize("qubits", range(1, 5))
def test_thermal_circuit_prepares_stored_purification(qubits, rng):
    h = random_pauli_sum(rng, qubits, 4)
    prep, cost = prepare_thermal(h, float(rng.uniform(0.1, 2.0)))
    _check_preparation(prep, (h.dim, h.dim, math.ceil(cost)))


def _shrunk(rng):
    """An exact encoding whose norm bound is below 1: a halved polynomial
    of a Pauli-sum encoding."""
    (b,) = _pauli_inputs(rng, count=1)
    coeffs = rng.normal(size=4)
    return apply_polynomial(b, ChebyshevPoly(coeffs / (np.sum(np.abs(coeffs)) * 1.2)), 0.0)


def _bound_encode_pauli_sum(rng):
    return encode_pauli_sum(random_pauli_sum(rng, 3, 6)), 1.0


def _bound_identity_encoding(rng):
    return identity_encoding(int(rng.integers(1, 9))), 1.0


def _bound_encode_unitary(rng):
    return encode_unitary(unitary_completion(random_state_vector(rng, 8))), 1.0


def _bound_adjoint(rng):
    s = _shrunk(rng)
    return adjoint(s), s.norm_bound


def _bound_normalized(rng):
    s = _shrunk(rng)
    return normalized(s), s.norm_bound


def _bound_product(rng):
    s1, s2 = _shrunk(rng), _shrunk(rng)
    (b,) = _pauli_inputs(rng, count=1)
    return product([s1, b, s2]), s1.norm_bound * s2.norm_bound


def _bound_linear_combine(rng):
    (b,) = _pauli_inputs(rng, count=1)
    s = _shrunk(rng)
    coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
    strengths = np.abs(coeffs) * [b.scale, s.scale]
    weights = strengths / strengths.sum()
    return linear_combine(coeffs, [b, s]), weights[0] + weights[1] * s.norm_bound


def _bound_chebyshev_encoding(rng):
    (b,) = _pauli_inputs(rng, count=1)
    return chebyshev_encoding(b, int(rng.integers(0, 8))), 1.0


def _bound_apply_polynomial(rng):
    (b,) = _pauli_inputs(rng, count=1)
    coeffs = rng.normal(size=6)
    p = ChebyshevPoly(coeffs / (np.sum(np.abs(coeffs)) * 1.01))
    return apply_polynomial(b, p, 1e-3), p.sup_norm_bound / 2.0


def _bound_evolution_encoding(rng):
    return evolution_encoding(random_pauli_sum(rng, 3, 4), 0.9, 0.05), 1.0


def _bound_shifted_encoding(rng):
    s = _shrunk(rng)
    return _shifted_encoding(s), 0.5 + 0.5 * s.norm_bound


# Each rule constructor with the norm bound its rule gives on its inputs.
NORM_RULES = {
    "encode_pauli_sum": _bound_encode_pauli_sum,
    "identity_encoding": _bound_identity_encoding,
    "encode_unitary": _bound_encode_unitary,
    "adjoint": _bound_adjoint,
    "normalized": _bound_normalized,
    "product": _bound_product,
    "linear_combine": _bound_linear_combine,
    "chebyshev_encoding": _bound_chebyshev_encoding,
    "apply_polynomial": _bound_apply_polynomial,
    "evolution_encoding": _bound_evolution_encoding,
    "_shifted_encoding": _bound_shifted_encoding,
}


# Each preparation constructor on a small input.
PREPARATIONS = {
    "prepare_pure": lambda rng: prepare_pure(random_state_vector(rng, 4)),
    "prepare_basis_state": lambda rng: prepare_basis_state(2, 4),
    "prepare_maximally_mixed": lambda rng: prepare_maximally_mixed(4),
    "prepare_thermal": lambda rng: prepare_thermal(random_pauli_sum(rng, 2, 3), 0.7)[0],
}


@pytest.mark.parametrize("name", sorted(NORM_RULES) + sorted(PREPARATIONS))
def test_every_circuit_is_a_builder_of_the_circuits_module(name):
    """Each rule and preparation reaches the verification layer one way:
    its circuit is a partial of a function defined in `circuits`."""
    rng = np.random.default_rng(0)
    value = NORM_RULES[name](rng)[0] if name in NORM_RULES else PREPARATIONS[name](rng)
    assert isinstance(value.circuit, partial)
    builder = value.circuit.func
    assert builder.__module__ == "blocksketch.circuits"
    assert getattr(circuits, builder.__name__) is builder


@pytest.fixture
def no_svd(monkeypatch):
    """Make the contraction SVD of `BlockEncoding(block=...)` fail."""

    def refuse(m):
        raise AssertionError("a contraction SVD ran where a rule proves the bound")

    monkeypatch.setattr(block_encoding, "spectral_norm", refuse)


@pytest.mark.parametrize("name", sorted(NORM_RULES))
def test_norm_ledger_follows_its_rule_and_bounds_the_block(name, no_svd):
    rng = np.random.default_rng(sorted(NORM_RULES).index(name))
    for _ in range(3):
        enc, bound = NORM_RULES[name](rng)
        assert enc.ancilla_dim * enc.system_dim <= 256
        assert enc.norm_bound == pytest.approx(bound, rel=1e-12, abs=0.0)
        assert spectral_norm(enc.block) - 1e-12 <= enc.norm_bound <= 1.0 + CONTRACTION_TOL


def test_rule_built_block_must_be_a_contraction():
    with pytest.raises(NormTooLargeError):
        BlockEncoding(block=1.01 * np.eye(2), ancilla_dim=2, system_dim=2, scale=1.0,
                      circuit=lambda: np.eye(4))


def test_a_block_without_a_rule_has_its_norm_measured(rng):
    enc = encode_pauli_sum(random_pauli_sum(rng, 2, 4))
    with pytest.raises(NormTooLargeError):
        replace(enc, block=1.01 * np.eye(4))
    half = replace(enc, block=0.5 * enc.block)
    assert half.norm_bound == pytest.approx(spectral_norm(0.5 * enc.block), rel=1e-12)
    assert half.norm_bound < 0.5 + 1e-12
    with pytest.raises(ValueError):
        replace(enc, norm_bound=0.5)
    with pytest.raises(TypeError):
        BlockEncoding(block=enc.block, norm_bound=1.0, ancilla_dim=enc.ancilla_dim,
                      system_dim=4, scale=1.0, circuit=enc.circuit)


def test_replace_forms_a_recorded_rule_block_and_measures_its_norm(rng):
    """`linear_combine` records its rule; `replace` reads the block, which
    forms it, and measures its norm as it does for an eager encoding."""
    a = encode_pauli_sum(random_pauli_sum(rng, 2, 4))
    lazy = linear_combine([0.5, 0.5j], [a, adjoint(a)])
    assert "block" not in lazy.__dict__
    same = replace(lazy, scale=2.0)
    assert "block" in lazy.__dict__
    assert np.array_equal(same.block, lazy.block)
    assert same.norm_bound == pytest.approx(spectral_norm(lazy.block), rel=1e-12)
    assert same.norm_bound <= lazy.norm_bound + 1e-12
    assert (same.scale, same.ancilla_dim, same.cost) == (2.0, lazy.ancilla_dim, lazy.cost)
    assert not same.hermitian
    with pytest.raises(NormTooLargeError):
        replace(adjoint(a), block=1.01 * np.eye(4))


def test_chebyshev_of_a_nearly_hermitian_block_is_measured(rng):
    """T_n of a block that is Hermitian only within 1e-8 can leave the unit
    ball, so its norm is measured rather than taken to be 1."""
    a = np.array([[0.9, 5e-9], [0.0, 0.9]], dtype=complex)
    a *= (1.0 - 1e-12) / np.linalg.norm(a, 2)
    enc = contraction_encoding(a)
    assert enc.norm_bound <= 1.0 and not np.array_equal(enc.block, enc.block.conj().T)
    t_100 = chebyshev_encoding(enc, 100)
    assert t_100.norm_bound == pytest.approx(spectral_norm(t_100.block), rel=1e-12)
    with pytest.raises(NormTooLargeError):
        chebyshev_encoding(enc, 800)

    exact = random_hermitian_contraction(rng, 4)
    assert chebyshev_encoding(contraction_encoding(exact), 5).norm_bound == 1.0


@pytest.fixture
def no_circuits(monkeypatch):
    """Make reading any encoding's or preparation's circuit unitary, or
    checking any unitary, fail."""

    def refuse(self):
        raise AssertionError(f"{type(self).__name__}.unitary was built on the execution path")

    def refuse_check(u, full_dim):
        raise AssertionError("a unitary was checked on the execution path")

    monkeypatch.setattr(BlockEncoding, "unitary", property(refuse))
    monkeypatch.setattr(PreparationUnitary, "unitary", property(refuse))
    monkeypatch.setattr(circuits, "check_circuit_unitary", refuse_check)


@pytest.fixture
def densities(monkeypatch):
    """Record each preparation whose reduced density is formed."""
    prop = PreparationUnitary.__dict__["density"]
    formed = []
    form = prop.func

    def recorded(prep):
        formed.append(prep)
        return form(prep)

    monkeypatch.setattr(prop, "func", recorded)
    return formed


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
    "kpm": "kpm dos --hamiltonian h.txt --moments 6 --grid-points 11",
    "correlate": "correlate --hamiltonian h.txt --observable o1.txt 0.4 --observable o2.txt -0.3 "
    "--state mixed.txt --oracle",
}


def _run_pipeline(pipeline: str, mode: str, inputs) -> str:
    argv = [str(inputs / tok) if tok.endswith(".txt") else tok for tok in PIPELINES[pipeline].split()]
    out = inputs / "out.txt"
    assert main(argv + ["--mode", mode, "--seed", "3", "--output", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_pipelines_never_build_a_circuit(pipeline, mode, inputs, no_circuits):
    assert _run_pipeline(pipeline, mode, inputs)


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_pipelines_run_no_svd_and_form_one_density(pipeline, mode, inputs, no_svd, densities):
    assert _run_pipeline(pipeline, mode, inputs)
    assert len(densities) == 1


def test_predicates():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert is_hermitian(x)
    assert is_unitary(x)
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert not is_unitary(0.5 * x)


def test_spectral_norm_examples():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0)
    assert spectral_norm(np.diag([0.3, -0.7])) == pytest.approx(0.7)
    m = pauli_sum_matrix(PauliSum.from_terms([(0.3, "Z"), (0.2, "X")]))
    assert spectral_norm(m) == pytest.approx(np.sqrt(0.13), rel=1e-9)


def test_dilation_examples():
    assert np.allclose(unitary_dilation(np.zeros((1, 1))), [[0, 1], [1, 0]])
    d = unitary_dilation(np.eye(2))
    assert np.allclose(d, np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), -np.eye(2)]]))
    d = unitary_dilation(np.array([[0.6]]))
    assert np.allclose(d, [[0.6, 0.8], [0.8, -0.6]])


def test_dilation_rejects_expansion():
    with pytest.raises(NormTooLargeError):
        unitary_dilation(1.5 * np.eye(2))


def test_dilation_random_contractions(rng):
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m /= np.linalg.norm(m, 2) * (1.0 + rng.uniform(0, 2))
        u = unitary_dilation(m)
        assert is_unitary(u, 1e-10)
        assert np.max(np.abs(u[:dim, :dim] - m)) < 1e-12


def test_norm_bounded_by_pauli_scale(rng):
    for _ in range(20):
        qubits = int(rng.integers(1, 5))
        s = random_pauli_sum(rng, qubits, 8)
        assert spectral_norm(pauli_sum_matrix(s)) <= s.scale() + 1e-12


def test_embed_operator_tensor_consistency(rng):
    dims = [2, 3, 2]
    u = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    # act on factors (0, 2): compare against kron-with-permutation by brute force
    full = embed_operator(u, dims, [0, 2])
    big = np.zeros((12, 12), dtype=complex)
    for a in range(2):
        for b in range(3):
            for c in range(2):
                for ap in range(2):
                    for cp in range(2):
                        row = (a * 3 + b) * 2 + c
                        col = (ap * 3 + b) * 2 + cp
                        big[row, col] += u[a * 2 + c, ap * 2 + cp]
    assert np.max(np.abs(full - big)) < 1e-12


def test_unitary_completion(rng):
    for dim in (1, 2, 5, 8):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        u = unitary_completion(v)
        assert is_unitary(u, 1e-10)
        assert np.max(np.abs(u[:, 0] - v)) < 1e-12
    with pytest.raises(ValueError):
        unitary_completion(np.array([1.0, 1.0]))


def test_unitary_completion_rejects_nan():
    with pytest.raises(ValueError):
        unitary_completion(np.array([np.nan, 0.0]))


def test_circuit_unitary_check_stays_on_above_the_exact_limit(rng):
    n = 512
    assert n > EXACT_UNITARY_DIM
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    assert check_circuit_unitary(u, n) is not None
    bad = u.copy()
    bad[:, 7] *= 1.01
    assert not is_unitary(bad)
    with pytest.raises(NotUnitaryError):
        check_circuit_unitary(bad, n)
    d = n // 2
    enc = BlockEncoding(u[:d, :d], 2, d, scale=1.0, circuit=lambda: bad)
    with pytest.raises(NotUnitaryError):
        enc.unitary
