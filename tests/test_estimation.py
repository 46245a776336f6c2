import math

import numpy as np
import pytest

from blocksketch.block_encoding import (
    encode_pauli_sum,
    encode_unitary,
    identity_encoding,
    linear_combine,
)
from blocksketch.errors import (
    InvalidProjectorError,
    NotHermitianError,
    NotNormalizedError,
    OutOfRangeError,
)
from blocksketch.estimation import (
    AmplitudeProblem,
    GROVER_QUERY_CONSTANT,
    _shifted_encoding,
    estimate_amplitude,
    estimate_complex,
    estimate_observable,
    grover_operator,
    query_budget,
)
from blocksketch.linalg import is_unitary
from blocksketch.pauli import PauliSum, pauli_sum_matrix
from blocksketch.state_prep import (
    prepare_maximally_mixed,
    prepare_pure,
    prepare_thermal,
    reduced_density,
)

from conftest import random_pauli_sum, random_state_vector

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _plus_state():
    return prepare_pure(np.ones(2) / np.sqrt(2))


def test_grover_operator_examples():
    psi = random_state_vector(np.random.default_rng(3), 4)
    p = AmplitudeProblem(psi, np.outer(psi, psi.conj()))
    assert np.max(np.abs(grover_operator(p) + np.eye(4))) < 1e-12

    p = AmplitudeProblem(psi, np.zeros((4, 4)))
    expected = -(np.eye(4) - 2 * np.outer(psi, psi.conj()))
    assert np.max(np.abs(grover_operator(p) - expected)) < 1e-12

    psi = np.ones(2) / np.sqrt(2)
    p = AmplitudeProblem(psi, np.diag([1.0, 0.0]))
    g = grover_operator(p)
    assert is_unitary(g, 1e-10)
    phases = np.sort(np.angle(np.linalg.eigvals(g)))
    assert np.allclose(phases, [-np.pi / 2, np.pi / 2])


def test_grover_rotation_angle(rng):
    # restricted to the 2-d invariant subspace G rotates by 2 theta
    for _ in range(10):
        psi = random_state_vector(rng, 8)
        mask = np.zeros(8)
        mask[: int(rng.integers(1, 7))] = 1.0
        p = AmplitudeProblem(psi, np.diag(mask))
        theta = math.asin(p.true_amplitude())
        if theta < 1e-3 or theta > math.pi / 2 - 1e-3:
            continue
        g = grover_operator(p)
        phases = np.angle(np.linalg.eigvals(g))
        # the +-2 theta pair must be present among the eigenphases
        assert np.min(np.abs(phases - 2 * theta)) < 1e-9
        assert np.min(np.abs(phases + 2 * theta)) < 1e-9


def test_amplitude_problem_validation():
    psi = np.array([1.0, 0.0])
    with pytest.raises(NotNormalizedError):
        AmplitudeProblem(2 * psi, np.eye(2))
    with pytest.raises(InvalidProjectorError):
        AmplitudeProblem(psi, np.array([[0.5, 0], [0, 0]]))
    with pytest.raises(InvalidProjectorError):
        AmplitudeProblem(psi, np.array([[0, 1], [0, 0]]))


def test_estimate_amplitude_edges():
    psi = np.array([1.0, 0.0])
    p0 = AmplitudeProblem(psi, np.diag([0.0, 1.0]))
    p1 = AmplitudeProblem(psi, np.diag([1.0, 0.0]))
    for seed in range(20):
        r0 = estimate_amplitude(p0, 0.05, 0.05, "sampled", seed)
        r1 = estimate_amplitude(p1, 0.05, 0.05, "sampled", seed)
        assert abs(r0.value) <= 0.05
        assert abs(r1.value - 1.0) <= 0.05

    exact = estimate_amplitude(p1, 0.05, 0.05, "exact")
    assert exact.value == 1.0
    assert exact.grover_queries == query_budget(0.05, 0.05)

    with pytest.raises(OutOfRangeError):
        estimate_amplitude(p1, 0.0, 0.05)
    with pytest.raises(OutOfRangeError):
        estimate_amplitude(p1, 0.05, 1.0)
    with pytest.raises(OutOfRangeError):
        estimate_amplitude(p1, 0.05, 0.05, "psychic")


def test_estimate_amplitude_deterministic():
    psi = np.ones(2) / np.sqrt(2)
    p = AmplitudeProblem(psi, np.diag([1.0, 0.0]))
    a = estimate_amplitude(p, 0.01, 0.05, "sampled", 42)
    b = estimate_amplitude(p, 0.01, 0.05, "sampled", 42)
    assert a == b


def test_estimate_amplitude_calibration_spot():
    psi = np.ones(2) / np.sqrt(2)
    p = AmplitudeProblem(psi, np.diag([1.0, 0.0]))
    target = 1 / math.sqrt(2)
    hits = 0
    for seed in range(200):
        r = estimate_amplitude(p, 0.01, 0.05, "sampled", seed)
        if abs(r.value.real - target) <= 0.01:
            hits += 1
        assert r.grover_queries <= query_budget(0.01, 0.05)
    assert hits >= 188  # 94 percent of 200


def test_estimate_observable_examples():
    bz = encode_pauli_sum(PauliSum.from_terms([(1.0, "Z")]))
    assert estimate_observable(bz, prepare_pure([1.0, 0.0]), 0.05, 0.05).value.real == pytest.approx(
        1.0, abs=1e-10
    )
    assert estimate_observable(bz, prepare_maximally_mixed(2), 0.05, 0.05).value.real == pytest.approx(
        0.0, abs=1e-10
    )
    b = encode_pauli_sum(PauliSum.from_terms([(0.3, "Z"), (0.2, "X")]))
    r = estimate_observable(b, _plus_state(), 0.05, 0.05)
    assert r.value.real == pytest.approx(0.2, abs=1e-10)


def test_estimate_observable_random_exact(rng):
    for _ in range(25):
        qubits = int(rng.integers(1, 4))
        s = random_pauli_sum(rng, qubits, 4)
        b = encode_pauli_sum(s)
        state = prepare_pure(random_state_vector(rng, 2**qubits))
        rho = reduced_density(state)
        expected = float(np.real(np.trace(rho @ pauli_sum_matrix(s))))
        got = estimate_observable(b, state, 0.03, 0.05).value.real
        assert abs(got - expected) <= 1e-8


def test_shifted_block_is_psd(rng):
    for _ in range(10):
        s = random_pauli_sum(rng, 2, 4)
        shifted = _shifted_encoding(encode_pauli_sum(s))
        eigs = np.linalg.eigvalsh(shifted.block)
        assert eigs.min() >= -1e-10
        assert eigs.max() <= 1.0 + 1e-10


def test_estimate_observable_rejects_nonhermitian():
    w, v = np.linalg.eigh(pauli_sum_matrix(PauliSum.from_terms([(1.0, "Y")])))
    u = (v * np.exp(0.3j * w)) @ v.conj().T
    with pytest.raises(NotHermitianError):
        estimate_observable(encode_unitary(u), prepare_pure([1.0, 0.0]), 0.05, 0.05)


def test_query_accounting_monotone():
    bz = encode_pauli_sum(PauliSum.from_terms([(1.0, "Z")]))
    state = prepare_pure([1.0, 0.0])
    queries = [
        estimate_observable(bz, state, eps, 0.05).grover_queries
        for eps in (0.4, 0.2, 0.1, 0.05, 0.01)
    ]
    assert queries == sorted(queries)
    queries_delta = [
        estimate_observable(bz, state, 0.05, delta).grover_queries
        for delta in (0.5, 0.2, 0.1, 0.01)
    ]
    assert queries_delta == sorted(queries_delta)


def test_amplitude_matches_trace_identity(rng):
    # the scalar shortcut equals the norm of the projected composite state
    s = random_pauli_sum(rng, 1, 2)
    b = encode_pauli_sum(s)
    shifted = _shifted_encoding(b)
    state = prepare_thermal(PauliSum.from_terms([(0.8, "Z"), (0.4, "X")]), 0.9)[0]
    rho_vec = state.purification
    k = shifted.ancilla_dim
    # |0>_k (x) |rho>, then Psi = (U (x) I_l) |0>_k |rho>
    zero_rho = np.zeros(k * rho_vec.size, dtype=complex)
    zero_rho[: rho_vec.size] = rho_vec
    psi = np.kron(shifted.unitary, np.eye(state.purifier_dim)) @ zero_rho
    projector = np.zeros((k, k))
    projector[0, 0] = 1.0
    pi = np.kron(projector, np.outer(rho_vec, rho_vec.conj()))
    problem = AmplitudeProblem(psi, pi)
    rho = reduced_density(state)
    shifted_trace = float(np.real(np.trace(rho @ shifted.block)))
    assert problem.true_amplitude() == pytest.approx(shifted_trace, abs=1e-10)


def test_estimate_complex_examples():
    # Hermitian target: imaginary part vanishes
    b = encode_pauli_sum(PauliSum.from_terms([(0.3, "Z"), (0.2, "X")]))
    r = estimate_complex(b, _plus_state(), 0.05, 0.05)
    assert r.value.imag == pytest.approx(0.0, abs=1e-10)
    assert r.value.real == pytest.approx(0.2, abs=1e-10)

    b_iI = linear_combine([1j], [identity_encoding(2)])
    r = estimate_complex(b_iI, prepare_maximally_mixed(2), 0.05, 0.05)
    assert r.value == pytest.approx(1j, abs=1e-10)

    # X(t) X at t = pi/4 under H = Z on |0><0| equals exp(i pi / 2) = i
    h = pauli_sum_matrix(PauliSum.from_terms([(1.0, "Z")]))
    w, v = np.linalg.eigh(h)
    t = np.pi / 4
    evolve = (v * np.exp(1j * w * t)) @ v.conj().T
    from blocksketch.block_encoding import product

    gamma = product(
        [encode_unitary(evolve), encode_unitary(X), encode_unitary(evolve.conj().T), encode_unitary(X)]
    )
    r = estimate_complex(gamma, prepare_pure([1.0, 0.0]), 0.05, 0.05)
    assert r.value == pytest.approx(1j, abs=1e-9)


def test_estimate_complex_sampled_budget():
    b = encode_pauli_sum(PauliSum.from_terms([(0.3, "Z"), (0.2, "X")]))
    r = estimate_complex(b, _plus_state(), 0.05, 0.1, "sampled", 3)
    assert abs(r.value - 0.2) <= 0.05 * math.sqrt(2)
    # two part estimates, each at amplitude precision eps / (2 alpha)
    amp_eps = 0.05 / (2 * 0.5)
    assert r.grover_queries <= 2 * query_budget(amp_eps, 0.1)
    assert GROVER_QUERY_CONSTANT == 250


def test_result_json_shape():
    bz = encode_pauli_sum(PauliSum.from_terms([(1.0, "Z")]))
    r = estimate_observable(bz, prepare_pure([1.0, 0.0]), 0.05, 0.1, "sampled", 17)
    d = r.to_json_dict()
    assert set(d) == {"value_re", "value_im", "eps", "delta", "grover_queries", "mode", "seed"}
    assert d["seed"] == 17 and d["mode"] == "sampled"
    assert d["delta"] == pytest.approx(0.1)


def test_amplitude_problem_rejects_nan_state():
    with pytest.raises(NotNormalizedError):
        AmplitudeProblem(np.array([math.nan, 0.0]), np.eye(2))
