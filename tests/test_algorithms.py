import copy
import math

import numpy as np
import pytest

from blocksketch import algorithms
from blocksketch.algorithms import (
    CorrelationSpec,
    SketchRequest,
    _budget,
    complexity_report,
    correlate,
    min_window_eps,
    spectral_sketch,
)
from blocksketch.block_encoding import encode_pauli_sum
from blocksketch.chebyshev import (
    MAX_WINDOW_DEGREE,
    chebyshev_t,
    kpm_reconstruct,
    min_window_eta,
    window_parameters,
    window_poly,
)
from blocksketch.errors import (
    BadIntervalError,
    DegreeTooLargeError,
    DimensionMismatchError,
    EmptySumError,
    OutOfRangeError,
    ValidationError,
)
from blocksketch.circuits import AmplitudeProblem
from blocksketch.oracle import oracle_correlation, oracle_sketch
from blocksketch.pauli import PauliSum, pauli_sum_matrix
from blocksketch.state_prep import (
    prepare_basis_state,
    prepare_maximally_mixed,
    prepare_pure,
    reduced_density,
)

from conftest import random_pauli_sum, random_state_vector

Z_SUM = PauliSum.from_terms([(1.0, "Z")])
X_SUM = PauliSum.from_terms([(1.0, "X")])
TILTED = PauliSum.from_terms([(0.3, "Z"), (0.2, "X")])
KET0 = prepare_basis_state(0, 2)


def test_correlate_examples():
    spec = CorrelationSpec(Z_SUM, ((Z_SUM, 0.0),), KET0, 0.05, 0.05)
    assert correlate(spec).value == pytest.approx(1.0, abs=1e-9)

    spec = CorrelationSpec(Z_SUM, ((X_SUM, np.pi / 4), (X_SUM, 0.0)), KET0, 0.05, 0.05)
    assert correlate(spec).value == pytest.approx(1j, abs=1e-7)

    h_diag = PauliSum.from_terms([(0.4, "Z"), (0.3, "I")])
    spec = CorrelationSpec(h_diag, ((Z_SUM, 0.8), (Z_SUM, -0.3)), KET0, 0.05, 0.05)
    assert correlate(spec).value == pytest.approx(1.0, abs=1e-9)


def test_correlate_random_vs_oracle(rng):
    for _ in range(10):
        qubits = 2
        h = random_pauli_sum(rng, qubits, 3)
        n_obs = int(rng.integers(1, 3))
        observables = tuple(
            (random_pauli_sum(rng, qubits, 2), float(rng.uniform(-2, 2))) for _ in range(n_obs)
        )
        state = prepare_pure(random_state_vector(rng, 2**qubits))
        spec = CorrelationSpec(h, observables, state, 0.05, 0.05)
        expected = oracle_correlation(h, observables, reduced_density(state))
        assert correlate(spec).value == pytest.approx(expected, abs=1e-6)


def test_correlate_requires_observables():
    with pytest.raises(EmptySumError):
        CorrelationSpec(Z_SUM, (), KET0, 0.05, 0.05)


def test_correlate_sampled_deterministic():
    spec = CorrelationSpec(Z_SUM, ((X_SUM, 0.5),), KET0, 0.1, 0.1)
    a = correlate(spec, "sampled", 11)
    b = correlate(spec, "sampled", 11)
    assert a == b
    assert abs(a.value - oracle_correlation(Z_SUM, ((X_SUM, 0.5),), reduced_density(KET0))) < 0.2


def test_dos_moments_examples():
    req = SketchRequest(Z_SUM, "dos", eps=0.05, delta=0.05, num_moments=4)
    sketch = spectral_sketch(req)
    got = [v.value.real for v in sketch.values]
    assert np.allclose(got, [1, 0, 1, 0, 1], atol=1e-9)
    assert sketch.chebyshev_orders == (0, 1, 2, 3, 4)

    req = SketchRequest(X_SUM, "ldos", eps=0.05, delta=0.05, num_moments=1, state=KET0)
    got = [v.value.real for v in spectral_sketch(req).values]
    assert np.allclose(got, [1, 0], atol=1e-9)


def test_dos_moments_match_oracle(rng):
    for _ in range(5):
        h = random_pauli_sum(rng, 2, 4)
        req = SketchRequest(h, "dos", eps=0.05, delta=0.05, num_moments=8)
        got = np.array([v.value.real for v in spectral_sketch(req).values])
        expected = np.real(oracle_sketch(req))
        assert np.max(np.abs(got - expected)) < 1e-7


def test_dos_integral_two_eigenvalues():
    req = SketchRequest(
        TILTED,
        "dos",
        eps=0.05,
        delta=0.05,
        interval=(0.2, 0.45),
    )
    sketch = spectral_sketch(req)
    w = sketch.window_meta
    assert abs(sketch.values[0].value.real - 0.5) <= w.tau + 0.05
    assert sketch.chebyshev_orders == (w.degree,)


def test_dos_integral_window_envelope(rng):
    for _ in range(4):
        h = random_pauli_sum(rng, 2, 3)
        alpha = h.scale()
        a = float(rng.uniform(-0.6, 0.0)) * alpha
        b = a + float(rng.uniform(0.2, 0.5)) * alpha
        req = SketchRequest(h, "dos", eps=0.15, delta=0.05, interval=(a, b))
        sketch = spectral_sketch(req)
        w = sketch.window_meta
        energies = np.linalg.eigvalsh(pauli_sum_matrix(h)) / alpha
        inside = (energies >= a / alpha) & (energies <= b / alpha)
        extended = (energies >= a / alpha - w.kappa) & (energies <= b / alpha + w.kappa)
        strip_mass = np.sum(extended & ~inside) / energies.size
        sharp = oracle_sketch(req)[0].real
        assert abs(sketch.values[0].value.real - sharp) <= w.tau + strip_mass + 0.15


def test_moment_symmetry():
    # single non-identity word: spectrum symmetric about zero
    h = PauliSum.from_terms([(0.7, "XZ")])
    req = SketchRequest(h, "dos", eps=0.05, delta=0.05, num_moments=7)
    got = [v.value.real for v in spectral_sketch(req).values]
    assert np.max(np.abs(np.array(got)[1::2])) < 1e-9


def test_response_moment_examples():
    req = SketchRequest(
        Z_SUM,
        "response",
        eps=0.05,
        delta=0.05,
        num_moments=1,
        b_observable=X_SUM,
        c_observable=X_SUM,
        state=KET0,
    )
    sketch = spectral_sketch(req)
    values = [v.value for v in sketch.values]
    assert values[0] == pytest.approx(1.0, abs=1e-9)
    assert values[1] == pytest.approx(-1.0, abs=1e-9)


def test_response_matches_oracle(rng):
    for _ in range(5):
        h = random_pauli_sum(rng, 2, 3)
        b = random_pauli_sum(rng, 2, 2)
        c = random_pauli_sum(rng, 2, 2)
        state = prepare_pure(random_state_vector(rng, 4))
        req = SketchRequest(
            h,
            "response",
            eps=0.05,
            delta=0.05,
            num_moments=4,
            b_observable=b,
            c_observable=c,
            state=state,
        )
        sketch = spectral_sketch(req)
        expected = oracle_sketch(req)
        for n, res in zip(sketch.chebyshev_orders, sketch.values):
            assert res.value == pytest.approx(expected[n], abs=1e-6)


def test_response_identity_consistent_with_dos(rng):
    ident = PauliSum.from_terms([(1.0, "II")])
    for _ in range(3):
        h = random_pauli_sum(rng, 2, 3)
        dos_req = SketchRequest(h, "dos", eps=0.05, delta=0.05, num_moments=3)
        resp_req = SketchRequest(
            h,
            "response",
            eps=0.05,
            delta=0.05,
            num_moments=3,
            b_observable=ident,
            c_observable=ident,
            state=prepare_maximally_mixed(4),
        )
        dos_vals = np.array([v.value.real for v in spectral_sketch(dos_req).values])
        resp_vals = np.array([v.value.real for v in spectral_sketch(resp_req).values])
        assert np.max(np.abs(dos_vals - resp_vals)) <= 2 * 0.05


def _real_moments(req: SketchRequest) -> list[float]:
    return [v.value.real for v in spectral_sketch(req).values]


def test_kpm_sketch_symmetric():
    req = SketchRequest(Z_SUM, "dos", eps=0.05, delta=0.05, num_moments=32)
    grid = np.linspace(-0.99, 0.99, 199)
    moments = _real_moments(req)
    assert len(moments) == 33
    recon = kpm_reconstruct(moments, grid)
    assert np.max(np.abs(recon - recon[::-1])) <= 1e-6
    top_two = np.abs(grid[np.argsort(recon)[-2:]])
    assert np.all(top_two > 0.9)


def test_kpm_zero_order_flat():
    req = SketchRequest(Z_SUM, "dos", eps=0.05, delta=0.05, num_moments=0)
    grid = np.array([-0.4, 0.0, 0.6])
    recon = kpm_reconstruct(_real_moments(req), grid)
    assert np.allclose(recon, 1.0 / (np.pi * np.sqrt(1 - grid**2)), atol=1e-9)


def test_request_validation():
    with pytest.raises(ValidationError):
        SketchRequest(Z_SUM, "banana", eps=0.05, delta=0.05, num_moments=2)
    with pytest.raises(BadIntervalError):
        SketchRequest(Z_SUM, "dos", eps=0.05, delta=0.05, interval=(-2.0, 0.5))
    with pytest.raises(ValidationError):
        SketchRequest(Z_SUM, "dos", eps=0.05, delta=0.05)
    with pytest.raises(ValidationError):
        SketchRequest(Z_SUM, "ldos", eps=0.05, delta=0.05, num_moments=2)
    with pytest.raises(ValidationError):
        SketchRequest(Z_SUM, "response", eps=0.05, delta=0.05, num_moments=2)
    with pytest.raises(OutOfRangeError):
        SketchRequest(Z_SUM, "dos", eps=1.5, delta=0.05, num_moments=2)


@pytest.mark.parametrize("b_qubits, c_qubits", [(2, 1), (1, 2), (1, 16)])
def test_sketch_request_refuses_observables_on_other_qubits(b_qubits, c_qubits):
    with pytest.raises(ValidationError, match="observable and Hamiltonian qubit counts differ"):
        SketchRequest(
            Z_SUM, "response", eps=0.05, delta=0.05, num_moments=1,
            b_observable=PauliSum.from_terms([(1.0, "Z" * b_qubits)]),
            c_observable=PauliSum.from_terms([(1.0, "Z" * c_qubits)]), state=KET0,
        )


def test_requests_name_eps_and_delta_apart():
    with pytest.raises(OutOfRangeError, match=r"^eps must be in \(0, 1\), got 1.5$"):
        SketchRequest(Z_SUM, "dos", eps=1.5, delta=0.05, num_moments=2)
    with pytest.raises(OutOfRangeError, match=r"^delta must be in \(0, 1\), got 0.0$"):
        CorrelationSpec(Z_SUM, ((X_SUM, 0.5),), KET0, 0.05, 0.0)


@pytest.mark.parametrize(
    "kind, state, message",
    [
        ("dos", KET0, "dos takes no state: its state is I/D by definition"),
        ("ldos", None, "ldos requires a pure site state (pure or basis directive)"),
        ("ldos", prepare_maximally_mixed(2),
         "ldos requires a pure site state (pure or basis directive)"),
        ("response", None, "response requires B, C, and a state"),
    ],
)
def test_state_field_rules_per_kind(kind, state, message):
    with pytest.raises(ValidationError) as err:
        SketchRequest(
            Z_SUM, kind, eps=0.05, delta=0.05, num_moments=2,
            b_observable=X_SUM, c_observable=X_SUM, state=state,
        )
    assert str(err.value) == message


@pytest.mark.parametrize("kind", ["ldos", "response"])
def test_state_must_match_the_hamiltonian_dimension(kind):
    message = "state of dimension 4 for a Hamiltonian of dimension 2"
    with pytest.raises(DimensionMismatchError, match=message):
        SketchRequest(
            Z_SUM, kind, eps=0.05, delta=0.05, num_moments=2,
            b_observable=X_SUM, c_observable=X_SUM, state=prepare_pure([1.0, 0.0, 0.0, 0.0]),
        )


@pytest.mark.parametrize(
    "run",
    [
        correlate,
        lambda spec: oracle_correlation(
            spec.hamiltonian, spec.observables, reduced_density(spec.state)
        ),
    ],
    ids=["correlate", "oracle_correlation"],
)
def test_correlation_state_must_match_the_hamiltonian_dimension(run):
    message = "state of dimension 4 for a Hamiltonian of dimension 2"
    with pytest.raises(DimensionMismatchError, match=message):
        run(CorrelationSpec(Z_SUM, ((X_SUM, 0.5),), prepare_pure([1, 0, 0, 0]), 0.05, 0.05))


def test_ldos_is_the_response_with_identity_observables_on_its_state():
    site = prepare_pure([0.6, 0.8j])
    req = SketchRequest(TILTED, "ldos", eps=0.05, delta=0.05, num_moments=3, state=site)
    got = [v.value for v in spectral_sketch(req).values]
    assert np.allclose(got, oracle_sketch(req), atol=1e-9)
    ident = PauliSum.from_terms([(1.0, "I")])
    resp = SketchRequest(
        TILTED, "response", eps=0.05, delta=0.05, num_moments=3,
        b_observable=ident, c_observable=ident, state=site,
    )
    assert np.allclose(got, [v.value for v in spectral_sketch(resp).values], atol=1e-9)


def test_sampled_sketch_deterministic():
    req = SketchRequest(TILTED, "dos", eps=0.1, delta=0.1, num_moments=3)
    a = spectral_sketch(req, "sampled", 5)
    b = spectral_sketch(req, "sampled", 5)
    assert [v.value for v in a.values] == [v.value for v in b.values]
    exact = [v.value.real for v in spectral_sketch(req).values]
    for got, want in zip(a.values, exact):
        assert abs(got.value.real - want) <= 0.1


def test_complexity_report_correlation_zero_time():
    spec = CorrelationSpec(Z_SUM, ((X_SUM, 0.0),), KET0, 0.1, 0.05)
    report = complexity_report(spec)
    assert report["taus"] == [0.0, 0.0]
    assert report["evolution_costs"] == [0.0, 0.0]
    assert report["encoding_cost_W"] == 1
    assert report["gamma"] == 1.0
    # W bounded by the loosened form
    assert report["encoding_cost_W"] <= report["encoding_cost_W_loose"] + 1e-12


def test_complexity_report_loose_bound(rng):
    h = random_pauli_sum(rng, 2, 4)
    observables = tuple((random_pauli_sum(rng, 2, 2), float(t)) for t in (0.3, -1.2))
    spec = CorrelationSpec(h, observables, prepare_maximally_mixed(4), 0.05, 0.05)
    report = complexity_report(spec)
    assert report["encoding_cost_W"] <= report["encoding_cost_W_loose"] + 1e-12


def test_complexity_report_dos_moments_n0():
    req = SketchRequest(TILTED, "dos", eps=0.1, delta=0.05, num_moments=0)
    report = complexity_report(req)
    # only the preparation term survives at n = 0
    assert report["per_moment_queries"][0] == pytest.approx(
        math.log2(2) / 0.1 * math.log(1 / 0.05)
    )


def test_seeded_moments_use_distinct_streams():
    req = SketchRequest(TILTED, "dos", eps=0.1, delta=0.1, num_moments=2)
    sketch = spectral_sketch(req, "sampled", 100)
    seeds = [v.seed for v in sketch.values]
    assert seeds == [100, 101, 102]


# Values holding an ndarray (or, for SketchResult, a window) compare and hash
# by identity; the named lazy attribute is a cached_property, read before
# hashing.
ARRAY_VALUES = {
    "BlockEncoding": (lambda: encode_pauli_sum(TILTED), "unitary"),
    "PreparationUnitary": (lambda: prepare_pure([1.0, 0.0]), "unitary"),
    "ChebyshevPoly": (lambda: chebyshev_t(3), None),
    "WindowPoly": (lambda: window_poly(-0.2, 0.2, 0.4), "poly"),
    "AmplitudeProblem": (
        lambda: AmplitudeProblem(np.array([1.0, 0.0]), np.diag([1.0, 0.0])),
        None,
    ),
    "SketchRequest": (
        lambda: SketchRequest(TILTED, "ldos", 0.05, 0.05, num_moments=2, state=KET0),
        None,
    ),
    "SketchResult": (
        lambda: spectral_sketch(SketchRequest(TILTED, "dos", 0.1, 0.05, num_moments=1)),
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(ARRAY_VALUES))
def test_array_values_compare_by_identity(name):
    build, lazy = ARRAY_VALUES[name]
    a = build()
    if lazy is not None:
        assert getattr(a, lazy) is getattr(a, lazy)
    twin = copy.copy(a)
    assert a == a
    assert a != twin
    assert hash(a) == hash(a)
    assert a in {a} and len({a, twin}) == 2


def test_correlation_spec_compares_by_fields():
    spec = CorrelationSpec(Z_SUM, ((X_SUM, 0.5),), KET0, 0.05, 0.05)
    same = CorrelationSpec(Z_SUM, ((X_SUM, 0.5),), KET0, 0.05, 0.05)
    other_state = CorrelationSpec(Z_SUM, ((X_SUM, 0.5),), prepare_basis_state(0, 2), 0.05, 0.05)
    assert spec == same and hash(spec) == hash(same)
    assert spec != other_state
    assert len({spec, same, other_state}) == 2


# Integral requests of each kind with non-dyadic rho_max, |B| and |C|.
INTEGRAL_REQUESTS = {
    "dos": dict(kind="dos", eps=0.3, rho_max=0.7),
    "ldos": dict(kind="ldos", eps=0.45, rho_max=0.9, state=prepare_pure([0.6, 0.8])),
    "response": dict(
        kind="response",
        eps=0.3,
        rho_max=0.7,
        b_observable=PauliSum.from_terms([(1.1, "X")]),
        c_observable=PauliSum.from_terms([(0.6, "Z")]),
        state=KET0,
    ),
}


def _integral_request(kind: str, **changes) -> SketchRequest:
    kwargs = dict(INTEGRAL_REQUESTS[kind], delta=0.05, interval=(-0.2, 0.1))
    kwargs.update(changes)
    return SketchRequest(TILTED, **kwargs)


def _weight(req: SketchRequest) -> float:
    if req.kind != "response":
        return 1.0
    return req.b_observable.scale() * req.c_observable.scale()


@pytest.mark.parametrize("kind", sorted(INTEGRAL_REQUESTS))
def test_integral_budget_adds_up_in_value_units(kind, monkeypatch):
    """The window's error (eta_rel rho_max |B| |C|), the estimated
    encoding's scale x accuracy and the estimation eps sum to at most eps."""
    req = _integral_request(kind)
    seen = []
    for name in ("estimate_observable", "estimate_complex"):
        real = getattr(algorithms, name)

        def spy(enc, state, eps, *rest, real=real):
            seen.append((enc, eps))
            return real(enc, state, eps, *rest)

        monkeypatch.setattr(algorithms, name, spy)
    sketch = spectral_sketch(req)
    budget = _budget(req)
    [(enc, eps)] = seen
    assert eps == budget.estimation
    assert sketch.window_meta.kappa == budget.window_eta / 4.0
    window_error = budget.window_eta * req.rho_max * _weight(req)
    assert window_error + enc.scale * enc.accuracy + eps <= req.eps * (1.0 + 1e-12)


def test_moments_budget_estimates_at_eps():
    budget = _budget(SketchRequest(TILTED, "dos", eps=0.3, delta=0.05, num_moments=2))
    assert (budget.window_eta, budget.polynomial, budget.estimation) == (0.0, 0.0, 0.3)


XZ_SUM = PauliSum.from_terms([(1.0, "XI"), (1.0, "ZI")])


@pytest.mark.parametrize(
    "observables",
    [
        ((XZ_SUM, 0.4), (XZ_SUM, -0.3)),
        ((XZ_SUM, 0.4),),
        ((PauliSum.from_terms([(0.25, "XI"), (0.25, "ZI")]), 0.4), (XZ_SUM, 1.1)),
        ((PauliSum.from_terms([(0.1, "XI"), (0.1, "ZZ")]), 0.4), (XZ_SUM, -0.3)),
    ],
)
def test_correlate_budget_bounds_the_estimated_product_by_half_eps(observables, monkeypatch):
    """The product correlate estimates has scale gamma = prod_j beta_j and
    scale x accuracy at most eps/2, whatever gamma is."""
    h = PauliSum.from_terms([(1.0, "ZZ"), (0.7, "XI"), (0.7, "IX")])
    spec = CorrelationSpec(h, observables, prepare_maximally_mixed(4), 0.1, 0.05)
    seen = []
    real = algorithms.estimate_complex

    def spy(enc, state, eps, *rest):
        seen.append((enc, eps))
        return real(enc, state, eps, *rest)

    monkeypatch.setattr(algorithms, "estimate_complex", spy)
    correlate(spec)
    [(enc, eps)] = seen
    assert enc.scale == pytest.approx(math.prod(o.scale() for o, _t in observables), rel=1e-12)
    assert eps == _budget(spec).estimation == spec.eps / 2.0
    assert enc.scale * enc.accuracy <= spec.eps / 2.0 * (1.0 + 1e-12)


def test_correlate_evolution_share_that_underflows_names_gamma():
    huge = PauliSum.from_terms([(1e300, "X")])
    with pytest.raises(OutOfRangeError, match=r"gamma, the product of the observable scales, is 1e\+300"):
        CorrelationSpec(Z_SUM, ((huge, 0.5),), KET0, 1e-300, 0.05)


def test_cost_report_and_sketch_see_one_window():
    req = _integral_request("response")
    w = spectral_sketch(req).window_meta
    window = complexity_report(req)["window"]
    assert window == {"kappa": w.kappa, "tau": w.tau, "s": w.steepness, "d": w.degree}


@pytest.mark.parametrize("kind", sorted(INTEGRAL_REQUESTS))
def test_min_window_eps_is_the_smallest_eps_past_the_degree_guard(kind):
    req = _integral_request(kind)
    eps = min_window_eps(req)
    assert _budget(req, eps).window_eta >= min_window_eta()
    assert window_parameters(_budget(req, eps).window_eta)[3] <= MAX_WINDOW_DEGREE
    below = math.nextafter(eps, 0.0)
    assert window_parameters(_budget(req, below).window_eta)[3] > MAX_WINDOW_DEGREE
    with pytest.raises(DegreeTooLargeError):
        spectral_sketch(_integral_request(kind, eps=below))


def test_min_window_eps_requires_an_integral_request():
    with pytest.raises(ValidationError):
        min_window_eps(SketchRequest(TILTED, "dos", eps=0.1, delta=0.05, num_moments=2))


def _tfim_chain(qubits):
    """The open transverse-field Ising chain of the benchmark: ZZ = 1.0, X = 0.7."""
    terms = [(1.0, "I" * i + "ZZ" + "I" * (qubits - i - 2)) for i in range(qubits - 1)]
    terms += [(0.7, "I" * i + "X" + "I" * (qubits - i - 1)) for i in range(qubits)]
    return PauliSum.from_terms(terms)


@pytest.mark.parametrize("kind", ["dos", "ldos"])
@pytest.mark.parametrize("lo", range(-5, 5))
def test_exact_integrals_on_unit_bins_lie_within_eps_of_the_sharp_oracle(kind, lo):
    """The 10 unit energy bins of the 4-qubit chain (alpha = 5.8) at eps 0.075:
    the windowed value differs from the sharp one by eigenvalues in the
    strips and by the window's tau, all within eps."""
    h = _tfim_chain(4)
    state = {"ldos": prepare_pure(random_state_vector(np.random.default_rng(lo + 5), 16))}
    req = SketchRequest(
        h, kind, eps=0.075, delta=0.05, interval=(float(lo), float(lo + 1)), state=state.get(kind)
    )
    value = spectral_sketch(req).values[0].value
    assert abs(value - oracle_sketch(req)[0]) <= req.eps
