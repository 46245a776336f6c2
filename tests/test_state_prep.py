import dataclasses
import math
import re
import warnings
from functools import partial

import numpy as np
import pytest

from blocksketch import state_prep
from blocksketch.errors import (
    CostOverflowError,
    DimensionMismatchError,
    NotNormalizedError,
    OutOfRangeError,
    ParseError,
)
from blocksketch.circuits import unitary_completion
from blocksketch.pauli import PauliSum, pauli_sum_matrix
from blocksketch.state_prep import (
    PreparationUnitary,
    exact_amplification_params,
    parse_state_file,
    parse_state_text,
    prepare_basis_state,
    prepare_maximally_mixed,
    prepare_pure,
    prepare_thermal,
    reduced_density,
    thermal_cost_estimate,
)

from conftest import random_state_vector, trace_distance


def test_prepare_pure_examples():
    assert np.allclose(reduced_density(prepare_pure([1.0, 0.0])), [[1, 0], [0, 0]])

    p = prepare_pure(np.ones(2) / np.sqrt(2))
    assert np.allclose(reduced_density(p), np.full((2, 2), 0.5))

    p = prepare_basis_state(3, 8)
    rho = reduced_density(p)
    expected = np.zeros((8, 8))
    expected[3, 3] = 1.0
    assert np.allclose(rho, expected)
    assert p.cost == 8

    with pytest.raises(NotNormalizedError):
        prepare_pure([1.0, 1.0])


def test_amplification_params_examples():
    assert exact_amplification_params(1.0) == (0, 1.0)

    k, gamma = exact_amplification_params(math.sqrt(3) / 2)
    assert k == 1
    assert gamma == pytest.approx(1 / math.sqrt(3), abs=1e-15)

    # the D=3 embedding overlap sqrt(3/4) is the same number
    k, gamma = exact_amplification_params(math.sqrt(3.0 / 4.0))
    assert k == 1 and gamma == pytest.approx(0.5 / (math.sqrt(3) / 2))

    with pytest.raises(OutOfRangeError):
        exact_amplification_params(0.0)
    with pytest.raises(OutOfRangeError):
        exact_amplification_params(1.5)


def test_amplification_params_random(rng):
    for beta in rng.uniform(1e-6, 1.0, size=1000):
        k, gamma = exact_amplification_params(float(beta))
        assert 0 < gamma <= 1.0
        assert abs(math.sin((2 * k + 1) * math.asin(gamma * beta)) - 1.0) < 1e-12
        if beta >= 1 / math.sqrt(2):
            assert k <= 1


def test_maximally_mixed_examples():
    assert np.array_equal(reduced_density(prepare_maximally_mixed(1)), [[1.0]])
    assert np.allclose(reduced_density(prepare_maximally_mixed(2)), np.eye(2) / 2)

    p4 = prepare_maximally_mixed(4)
    assert np.allclose(reduced_density(p4), np.eye(4) / 4)
    # two Bell pairs: the purifier mirrors the system, 2 gates per qubit
    assert (p4.system_dim, p4.purifier_dim, p4.cost) == (4, 4, 4)
    expected = np.zeros((4, 4))
    np.fill_diagonal(expected, 0.5)
    assert np.array_equal(p4.purification.reshape(4, 4), expected)

    # no qubit register has dimension 3, 0 or -4
    for d in (3, 0, -4):
        with pytest.raises(OutOfRangeError, match=f"power of two .*got {d}"):
            prepare_maximally_mixed(d)


def test_maximally_mixed_all_small_dims():
    for n in range(7):
        d = 1 << n
        p = prepare_maximally_mixed(d)
        assert (p.system_dim, p.purifier_dim, p.cost) == (d, d, 2 * n)
        assert trace_distance(reduced_density(p), np.eye(d) / d) <= 1e-12
        assert np.count_nonzero(p.purification) == d


def test_thermal_examples():
    h = PauliSum.from_terms([(1.0, "Z")])

    prep, _ = prepare_thermal(h, 0.0)
    assert np.allclose(reduced_density(prep), np.eye(2) / 2)

    prep, _ = prepare_thermal(h, 50.0)
    rho = reduced_density(prep)
    assert rho[1, 1].real == pytest.approx(1.0, abs=1e-9)

    prep, cost = prepare_thermal(h, 1.0)
    z = math.exp(-1.0) + math.exp(1.0)
    assert np.allclose(
        reduced_density(prep), np.diag([math.exp(-1.0) / z, math.exp(1.0) / z]), atol=1e-9
    )
    # cost formula by hand: Q=1, alpha=1, sqrt(D beta / Z) log(sqrt(D/Z)/eps)
    expected = math.sqrt(2.0 / z) * math.log(math.sqrt(2.0 / z) * 1e3)
    assert cost == pytest.approx(expected, rel=1e-12)
    assert prep.cost == math.ceil(expected)

    with pytest.raises(OutOfRangeError):
        prepare_thermal(h, -1.0)


@pytest.mark.parametrize("beta, shown", [(200.0, "1.78108e+25"), (3000.0, "inf")])
def test_thermal_cost_past_the_ledger_limit_is_refused_not_clamped(beta, shown):
    h = PauliSum.from_terms([(1.0, "I"), (0.5, "Z")])
    message = re.escape(f"inverse temperature {beta!r} is {shown}, not at most 2^63 - 1")
    with pytest.raises(CostOverflowError, match=message):
        prepare_thermal(h, beta)
    with pytest.raises(CostOverflowError, match=message):
        parse_state_text(f"thermal {beta}", 2, h)


THERMAL_HAMILTONIANS = {
    2: [(1.0, "ZZ"), (0.7, "XI"), (0.7, "IX")],
    3: [(1.0, "ZZI"), (0.3, "IZZ"), (0.7, "XII"), (0.7, "IXI"), (0.7, "IIX"), (-0.2, "YIY")],
}


@pytest.mark.parametrize("beta", [0.0, 0.5, 5.0, 50.0])
@pytest.mark.parametrize("qubits", sorted(THERMAL_HAMILTONIANS))
def test_thermal_log_partition_matches_an_exact_sum(qubits, beta, monkeypatch):
    h = PauliSum.from_terms(THERMAL_HAMILTONIANS[qubits])
    seen = []

    def recording(*args):
        seen.append(args[4])
        return thermal_cost_estimate(*args)

    monkeypatch.setattr(state_prep, "thermal_cost_estimate", recording)
    prepare_thermal(h, beta)
    energies = np.linalg.eigh(pauli_sum_matrix(h))[0]
    exact = math.log(math.fsum(math.exp(-beta * float(e)) for e in energies))
    assert seen == [pytest.approx(exact, rel=1e-13, abs=1e-13)]


def test_thermal_cost_zero_beta():
    assert thermal_cost_estimate(3, 2.0, 0.0, 8, math.log(8)) == 0.0


def test_reduced_density_valid(rng):
    h = PauliSum.from_terms([(0.5, "ZZ"), (0.25, "XI"), (0.25, "IY")])
    preps = [
        prepare_pure(random_state_vector(rng, 4)),
        prepare_maximally_mixed(4),
        prepare_thermal(h, 0.7)[0],
    ]
    for p in preps:
        rho = reduced_density(p)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-10
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)


def test_parse_state_text():
    p = parse_state_text("pure 0.70710678118654752 0.70710678118654752", 2)
    assert np.allclose(reduced_density(p), np.full((2, 2), 0.5))

    p = parse_state_text("# comment\nbasis 1\n", 4)
    assert reduced_density(p)[1, 1].real == pytest.approx(1.0)

    p = parse_state_text("mixed", 2)
    assert np.allclose(reduced_density(p), np.eye(2) / 2)

    h = PauliSum.from_terms([(1.0, "Z")])
    p = parse_state_text("thermal 1.0", 2, h)
    z = math.exp(-1.0) + math.exp(1.0)
    assert reduced_density(p)[0, 0].real == pytest.approx(math.exp(-1.0) / z)

    with pytest.raises(ParseError, match="no state directive"):
        parse_state_text("# nothing", 2)
    with pytest.raises(ParseError, match="expected 2 amplitudes"):
        parse_state_text("pure 1.0", 2)
    with pytest.raises(ParseError, match="norm"):
        parse_state_text("pure 1.0 1.0", 2)
    with pytest.raises(ParseError, match="requires a Hamiltonian"):
        parse_state_text("thermal 0.5", 2)
    with pytest.raises(ParseError, match="unknown state kind"):
        parse_state_text("squeezed 1", 2)
    with pytest.raises(ParseError):
        parse_state_text("basis 7", 4)


def test_parse_state_file_drops_a_utf8_byte_order_mark(tmp_path):
    bom = tmp_path / "bom.txt"
    bom.write_text("\ufeffbasis 1\n", encoding="utf-8")
    assert np.array_equal(reduced_density(parse_state_file(bom, 2)), np.diag([0.0, 1.0]))


def test_parse_state_complex_amplitudes():
    p = parse_state_text("pure 0.6 0.8j", 2)
    rho = reduced_density(p)
    assert rho[0, 0].real == pytest.approx(0.36)
    assert rho[1, 1].real == pytest.approx(0.64)


@pytest.mark.parametrize(
    "text, message",
    [
        ("pure nan 0", "norm nan"),
        ("pure inf 0", "norm inf"),
        ("thermal nan", "finite"),
        ("thermal inf", "finite"),
        ("thermal -inf", "finite"),
        ("thermal 1e308", "overflows"),
        ("mixed extra", "mixed takes no arguments"),
    ],
)
def test_parse_state_rejects_nonfinite_values_and_extra_tokens(text, message):
    h = PauliSum.from_terms([(2.0, "Z")])
    with pytest.raises(ParseError, match=f"s.txt:1: .*{message}"):
        parse_state_text(text, 2, h, source="s.txt")


def test_overflowing_amplitudes_are_rejected_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="s.txt:1: .*norm inf"):
            parse_state_text("pure 1e200 1e200", 2, source="s.txt")


def test_preparation_checks_size_and_norm_and_builds_its_unitary_once(rng):
    v = random_state_vector(rng, 4)
    with pytest.raises(DimensionMismatchError):
        PreparationUnitary(v, system_dim=2, purifier_dim=1, circuit=partial(unitary_completion, v))
    prep = prepare_pure(v)
    # replace re-runs the checks of __post_init__
    with pytest.raises(NotNormalizedError):
        dataclasses.replace(prep, purification=2 * v)
    assert prep.unitary is prep.unitary


def test_nan_purifications_are_rejected():
    with pytest.raises(NotNormalizedError):
        prepare_pure([math.nan, 0.0])
    h = PauliSum.from_terms([(1.0, "Z")])
    for beta in (math.nan, math.inf):
        with pytest.raises(OutOfRangeError):
            prepare_thermal(h, beta)
