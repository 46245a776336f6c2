import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksketch import block_encoding, cli
from blocksketch.block_encoding import (
    encode_pauli_sum,
    encode_unitary,
    identity_encoding,
    linear_combine,
    product,
)
from blocksketch.circuits import AmplitudeProblem, grover_operator, is_unitary
from blocksketch.errors import (
    CostOverflowError,
    InvalidProjectorError,
    NotHermitianError,
    NotNormalizedError,
    OutOfRangeError,
)
from blocksketch.estimation import (
    GROVER_QUERY_CONSTANT,
    _next_power,
    _shifted_encoding,
    _simulate_amplitude,
    estimate_amplitude,
    estimate_complex,
    estimate_observable,
    hermitian_part_encoding,
    query_budget,
)
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


def test_grover_powers_follow_the_sin_squared_law(rng):
    """||Pi Q^k psi||^2 = sin^2((2k + 1) theta), sin theta = ||Pi psi||,
    for random psi and random (not diagonal) projectors Pi."""
    for _ in range(10):
        psi = random_state_vector(rng, 8)
        rank = int(rng.integers(1, 8))
        basis, _ = np.linalg.qr(rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank)))
        p = AmplitudeProblem(psi, basis @ basis.conj().T)
        theta = math.asin(p.true_amplitude())
        q = grover_operator(p)
        state = p.psi
        for k in range(6):
            good = np.linalg.norm(p.projector @ state) ** 2
            assert good == pytest.approx(math.sin((2 * k + 1) * theta) ** 2, abs=1e-10)
            state = q @ state


def test_amplitude_problem_validation():
    psi = np.array([1.0, 0.0])
    with pytest.raises(NotNormalizedError):
        AmplitudeProblem(2 * psi, np.eye(2))
    with pytest.raises(InvalidProjectorError):
        AmplitudeProblem(psi, np.array([[0.5, 0], [0, 0]]))
    with pytest.raises(InvalidProjectorError):
        AmplitudeProblem(psi, np.array([[0, 1], [0, 0]]))


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("eps, delta", [(1e-310, 0.05), (0.01, 1e-320)])
def test_non_finite_query_budget_is_refused_in_both_modes(mode, eps, delta):
    p = AmplitudeProblem(np.array([1.0, 0.0]), np.diag([1.0, 0.0]))
    with pytest.raises(CostOverflowError, match="Grover query budget"):
        estimate_amplitude(p, eps, delta, mode, 1)
    with pytest.raises(CostOverflowError):
        query_budget(eps, delta)


def test_query_budget_refuses_an_amplitude_precision_that_is_not_positive():
    for eps in (0.0, -0.0, -0.01):
        with pytest.raises(CostOverflowError, match="amplitude precision .* raise eps"):
            query_budget(eps, 0.05)


def test_sampled_mode_refuses_a_negative_seed():
    p = AmplitudeProblem(np.array([1.0, 0.0]), np.diag([1.0, 0.0]))
    with pytest.raises(OutOfRangeError, match="seed must be nonnegative, got -1"):
        estimate_amplitude(p, 0.05, 0.05, "sampled", -1)
    assert estimate_amplitude(p, 0.05, 0.05, "exact", -1).value == 1.0


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


AMPLITUDE_GOLDEN = Path(__file__).parent / "golden" / "amplitude_sampled.json"


def test_sampled_amplitude_estimates_match_golden():
    # Amplitudes 0 and 1, values just inside both ends and around 0.5; each
    # estimate must reproduce its recorded repr and Grover query count exactly.
    cases = json.loads(AMPLITUDE_GOLDEN.read_text())
    assert len(cases) == 42
    for case in cases:
        a = case["amplitude"]
        problem = AmplitudeProblem(np.array([math.sqrt(1.0 - a * a), a]), np.diag([0.0, 1.0]))
        r = estimate_amplitude(problem, case["eps"], case["delta"], "sampled", case["seed"])
        assert (repr(r.value.real), r.value.imag, r.grover_queries) == (
            case["estimate"],
            0.0,
            case["grover_queries"],
        ), case


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


def _binomial_quantile(trials: int, p: float, tail: float) -> int:
    """Smallest m with P(Binomial(trials, p) > m) <= tail."""
    cdf = 0.0
    for m in range(trials + 1):
        cdf += math.comb(trials, m) * p**m * (1.0 - p) ** (trials - m)
        if 1.0 - cdf <= tail:
            return m
    return trials


@pytest.mark.parametrize("amplitude", [0.05, 0.37, 0.5, 0.98])
def test_amplitude_queries_scale_as_inverse_eps(amplitude):
    """The iterative scheme uses O(1/eps) Grover queries (Rall, amplitude
    estimation): the median count over seeds grows with slope about 1 in
    log(1/eps). Measured slopes: 1.02 / 1.26 / 1.18 / 1.11 at amplitudes
    0.05 / 0.37 / 0.5 / 0.98, with counts at most 0.19 of the budget and
    no misses. eps = 2^-3 is left out: there the median run at 0.5 stops
    at k = 0 with no query, and counted as one query it pulls the fit to
    about 2."""
    delta, seeds = 0.05, 100
    epss = [2.0**-j for j in range(4, 10)]
    medians = []
    for eps in epss:
        counts, misses = [], 0
        for seed in range(seeds):
            est, queries = _simulate_amplitude(amplitude, eps, delta, np.random.default_rng(seed))
            counts.append(queries)
            misses += abs(est - amplitude) > eps
        assert max(counts) <= query_budget(eps, delta)
        assert misses <= _binomial_quantile(seeds, delta, 1e-6)
        medians.append(float(np.median(counts)))
    slope = np.polyfit(np.log(1.0 / np.array(epss)), np.log(medians), 1)[0]
    assert 0.8 < slope < 1.5


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


def test_a_response_sketch_forms_no_part_adjoint_or_shifted_block(tmp_path, monkeypatch):
    """At MAX_QUBITS, `response --moments 4` reads every Tr(rho .) through
    the rules: no block of a product B T_n C, a pair sum, an adjoint, a
    relabel or a shifted encoding is formed. Formations are counted
    through the one helper that forms a recorded rule's block. The
    sandwich B^dagger rho C^dagger that reads the products' traces is
    formed once for the sketch, not once per moment."""
    q = cli.MAX_QUBITS
    terms = [f"1.0 {'I' * i}ZZ{'I' * (q - i - 2)}" for i in range(q - 1)]
    terms += [f"0.7 {'I' * i}X{'I' * (q - i - 1)}" for i in range(q)]
    (tmp_path / "h.txt").write_text("\n".join(terms) + "\n")
    (tmp_path / "b.txt").write_text(f"1.0 Z{'I' * (q - 1)}\n")
    (tmp_path / "c.txt").write_text(f"1.0 X{'I' * (q - 1)}\n")
    (tmp_path / "rho.txt").write_text("basis 0\n")
    formed = []
    form = block_encoding._form_block

    def counting_form(enc):
        formed.append(enc)
        return form(enc)

    monkeypatch.setattr(block_encoding, "_form_block", counting_form)
    sandwiches = []
    sandwich = block_encoding._sandwich

    def recording_sandwich(*args):
        sandwiches.append(sandwich(*args))
        return sandwiches[-1]

    monkeypatch.setattr(block_encoding, "_sandwich", recording_sandwich)
    argv = ["response", "--hamiltonian", str(tmp_path / "h.txt"), "--moments", "4",
            "--mode", "sampled", "--seed", "1",
            "--observable-b", str(tmp_path / "b.txt"), "--observable-c", str(tmp_path / "c.txt"),
            "--state", str(tmp_path / "rho.txt"), "--output", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 0
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 1 + 5
    assert formed == []
    # One read per moment (each product remembers its trace), all of one
    # array: the recorded list keeps every returned array alive, so a
    # sandwich formed per moment would show distinct ids.
    assert len(sandwiches) == 5
    assert len({id(s) for s in sandwiches}) == 1

    # The count sees formations: a part's block forms its pair sum (the
    # relabel reads the pair's rule), the adjoint below it and the product g.
    g = product([encode_pauli_sum(PauliSum.from_terms([(1.0, "Z")])), encode_unitary(X)])
    part = hermitian_part_encoding(g)
    assert np.array_equal(part.block, (g.block + g.block.conj().T) / 2)
    assert len(formed) == 3


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


HALF_PI = math.pi / 2.0
# Multipliers the reference scan may test per example, so each stays fast.
SCAN_SPAN = 2**16


def _scan_next_power(k, lo, hi):
    """`_next_power` as the plain scan: every odd multiplier downwards from
    pi/(2 width), each tested with the same float expression."""
    width = hi - lo
    if width <= 0.0:
        return k
    cap = int(HALF_PI / width)
    if cap % 2 == 0:
        cap -= 1
    for mult in range(cap, 2 * (2 * k + 1) - 1, -2):
        q = math.floor(mult * lo / HALF_PI + 1e-12)
        if mult * hi <= (q + 1) * HALF_PI + 1e-12:
            return (mult - 1) // 2
    return k


@st.composite
def power_intervals(draw):
    """(k, lo, hi) with widths down to 1e-12: anywhere in [0, pi/2], at its
    ends, theta near pi/2, with an end scaled to within 1e-12 of a quadrant
    boundary, or an end r w^2 / (pi/2) from 0 or pi/2, which puts the
    answer about r below the cap, one long jump away. k starts the scan at
    most SCAN_SPAN below the cap."""
    width = 10.0 ** draw(st.floats(-12.0, 0.0))
    where = draw(st.sampled_from(
        ["inside", "near_zero", "near_half_pi", "near_boundary", "off_zero", "off_half_pi"]
    ))
    if where == "inside":
        lo = draw(st.floats(0.0, HALF_PI - width))
    elif where == "near_zero":
        lo = draw(st.floats(0.0, 1e-12))
    elif where == "near_half_pi":
        below = st.one_of(st.floats(0.0, 1e-12), st.floats(0.0, 100.0).map(lambda t: t * width))
        lo = HALF_PI - width - draw(below)
    elif where in ("off_zero", "off_half_pi"):
        offset = draw(st.integers(0, SCAN_SPAN // 2)) * width * width / HALF_PI
        lo = offset if where == "off_zero" else HALF_PI - width - offset
    else:
        c = draw(st.integers(1, max(1, int(HALF_PI / width))))
        end = draw(st.integers(0, c)) * HALF_PI / c + draw(st.floats(-1e-12, 1e-12)) / c
        lo = end - draw(st.sampled_from([0.0, width]))
    lo = min(max(lo, 0.0), HALF_PI)
    hi = min(lo + width, HALF_PI)
    cap = int(HALF_PI / (hi - lo)) if hi > lo else 0
    low_k = max(0, (cap - SCAN_SPAN) // 4)
    return draw(st.integers(low_k, max(low_k, cap // 4 + 1))), lo, hi


@settings(max_examples=300, deadline=None)
@given(power_intervals())
def test_next_power_is_the_scans_power(case):
    k, lo, hi = case
    assert _next_power(k, lo, hi) == _scan_next_power(k, lo, hi)


def test_next_power_jumps_near_half_pi():
    # The last round of `dos --moments 0 --mode sampled --seed 1 --eps 1e-9`
    # on 1.0 Z. The scan tests 1.4e7 multipliers (3.8 s) to find this power.
    assert _next_power(21464428, 1.5707963026210456, 1.570796308073766) == 129958303


def test_next_power_keeps_a_power_accepted_only_by_the_tolerance():
    # c hi exceeds pi/2 by 5e-13, inside the test's 1e-12 tolerance, so the
    # scan accepts c = 1,569,795, about 1,000 below the cap. A jump proven
    # in exact arithmetic without its slack would skip it.
    c = 1_569_795
    hi = (HALF_PI + 0.5e-12) / c
    lo = hi - 1e-6
    assert HALF_PI < c * hi <= HALF_PI + 1e-12
    assert _scan_next_power(0, lo, hi) == (c - 1) // 2
    assert _next_power(0, lo, hi) == (c - 1) // 2
