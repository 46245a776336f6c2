"""End-to-end calibration of the sampled sketches.

Each part (real or imaginary) of a sampled sketch value is within eps of
the oracle with probability at least 1 - delta. Over n parts, each run
from its own seed, the misses are then at most Binomial(n, delta) in
distribution, so a test run allows the smallest k with
P(Binomial(n, delta) > k) <= 1e-9. The Grover queries of each sketch
stay within its budget: the sum, over its parts, of the worst-case
`query_budget` that exact mode charges for the same request.
"""

import itertools
import math

import numpy as np
import pytest

from blocksketch.algorithms import DOS, LDOS, RESPONSE, SketchRequest, spectral_sketch
from blocksketch.oracle import oracle_sketch
from blocksketch.pauli import PauliSum
from blocksketch.state_prep import prepare_pure

DELTA = 0.05
MISS_TAIL = 1e-9
# Seeds per sketch: more than the 2 (N + 1) that a response of N = 4 reads.
SEED_STRIDE = 16
QUBITS = pytest.mark.parametrize("qubits", [2, 3])


def _allowed_misses(n: int, p: float, tail: float = MISS_TAIL) -> int:
    """The smallest k with P(Binomial(n, p) > k) <= tail."""
    above = 0.0  # P(X > k) for the k of the loop
    for k in range(n, -1, -1):
        if above > tail:
            return k + 1
        log_pmf = (
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p)
        )
        above += math.exp(log_pmf)
    return 0


def test_allowed_misses_is_the_binomial_tail_quantile():
    # P(Binomial(10, 1/2) > 9) = 2^-10 and P(> 8) = 11 * 2^-10.
    assert _allowed_misses(10, 0.5, 0.5 * 2.0**-10) == 10
    assert _allowed_misses(10, 0.5, 2 * 2.0**-10) == 9
    assert _allowed_misses(10, 0.5, 12 * 2.0**-10) == 8
    assert _allowed_misses(4000, 0.05) < 400


def _pauli_sum(rng, qubits: int, terms: int = 3, scale: float | None = None) -> PauliSum:
    """terms distinct Pauli words on qubits qubits with coefficients drawn
    from [-1, 1], rescaled to the given sum of |coefficients| if one is
    given."""
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=qubits)]
    words = rng.choice(words, size=terms, replace=False)
    coeffs = rng.uniform(-1.0, 1.0, terms)
    if scale is not None:
        coeffs *= scale / np.abs(coeffs).sum()
    return PauliSum.from_terms(zip(coeffs.tolist(), words.tolist()))


def _pure_state(rng, qubits: int):
    v = rng.normal(size=2**qubits) + 1j * rng.normal(size=2**qubits)
    return prepare_pure(v / np.linalg.norm(v))


def _requests(rng, qubits: int, eps: float, integral: bool):
    """A dos, an ldos and a response request on one random Hamiltonian: N = 4
    moments, or one random interval. |B| = |C| = 1, so the response window
    share is the dos one."""
    h = _pauli_sum(rng, qubits)
    if integral:
        a, b = np.sort(rng.uniform(-0.8, 0.8, 2)) * h.scale()
        mode = dict(interval=(float(a), float(b)))
    else:
        mode = dict(num_moments=4)
    yield SketchRequest(h, DOS, eps, DELTA, **mode)
    yield SketchRequest(h, LDOS, eps, DELTA, state=_pure_state(rng, qubits), **mode)
    yield SketchRequest(
        h, RESPONSE, eps, DELTA, b_observable=_pauli_sum(rng, qubits, scale=1.0),
        c_observable=_pauli_sum(rng, qubits, scale=1.0), state=_pure_state(rng, qubits), **mode,
    )


def _calibrate(qubits: int, draws: int, eps: float, integral: bool) -> tuple[int, int, int]:
    """(estimates, parts, misses) of sampled sketches on `draws` random
    Hamiltonians on qubits qubits, each sketch from its own seeds; checks
    each sketch's queries against its budget on the way."""
    rng = np.random.default_rng(20_04_06832)
    estimates = parts = misses = 0
    seed = 0
    for _ in range(draws):
        for req in _requests(rng, qubits, eps, integral):
            sketch = spectral_sketch(req, "sampled", seed)
            seed += SEED_STRIDE
            budget = sum(r.grover_queries for r in spectral_sketch(req, "exact").values)
            assert sum(r.grover_queries for r in sketch.values) <= budget
            oracle = oracle_sketch(req, sketch.window_meta)
            for result, exact in zip(sketch.values, oracle, strict=True):
                errors = [result.value.real - exact.real]
                if req.kind == RESPONSE:
                    errors.append(result.value.imag - exact.imag)
                estimates += 1
                parts += len(errors)
                misses += sum(abs(e) > eps for e in errors)
    return estimates, parts, misses


@QUBITS
def test_sampled_moment_sketches_are_within_eps_at_the_confidence_they_claim(qubits):
    estimates, parts, misses = _calibrate(qubits, draws=200, eps=0.1, integral=False)
    assert (estimates, parts) == (3000, 4000)
    assert misses <= _allowed_misses(parts, DELTA)


@QUBITS
def test_sampled_integral_sketches_are_within_eps_of_their_windowed_estimand(qubits):
    """The oracle of an integral sketch is its windowed estimand, so the
    test judges the estimation and polynomial shares of eps."""
    estimates, parts, misses = _calibrate(qubits, draws=134, eps=0.15, integral=True)
    assert (estimates, parts) == (402, 536)
    assert misses <= _allowed_misses(parts, DELTA)
