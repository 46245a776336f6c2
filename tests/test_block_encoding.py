import gc
import math
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blocksketch.block_encoding import (
    BlockEncoding,
    _by_rule,
    _density_trace,
    adjoint,
    encode_pauli_sum,
    encode_unitary,
    identity_encoding,
    linear_combine,
    normalized,
    product,
    product_error_bound,
)
from blocksketch.chebyshev import chebyshev_t
from blocksketch.errors import (
    DimensionMismatchError,
    EmptySumError,
    LengthMismatchError,
    NormTooLargeError,
    NotUnitaryError,
    OutOfRangeError,
)
from blocksketch.estimation import (
    _shifted_encoding,
    antihermitian_part_encoding,
    hermitian_part_encoding,
)
from blocksketch.block_encoding import hermitian_gap, spectral_norm
from blocksketch import circuits
from blocksketch.circuits import check_circuit_unitary, is_hermitian, is_unitary
from blocksketch.pauli import PauliSum, PauliTerm, pauli_sum_matrix
from blocksketch.spectral import apply_polynomial, chebyshev_encoding

from blocksketch.state_prep import prepare_maximally_mixed, prepare_pure, prepare_thermal

from conftest import (
    contraction_encoding,
    random_density_matrix,
    random_pauli_sum,
    random_state_vector,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_identity_encoding_is_one_read_only_value_per_dimension():
    for d in (1, 2, 8, 64):
        eye = identity_encoding(d)
        assert identity_encoding(d) is eye
        assert np.array_equal(eye.block, np.eye(d))
        assert eye.block.dtype == np.float64 and eye.unitary.dtype == np.complex128
        assert (eye.ancilla_dim, eye.system_dim, eye.scale, eye.accuracy, eye.cost) == (1, d, 1.0, 0.0, 0)
        assert eye.norm_bound == 1.0
        for part in (eye.block, eye.unitary):
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0, 0] = 2.0
        assert np.array_equal(check_circuit_unitary(eye.unitary, d), np.eye(d))
        assert identity_encoding(d).unitary is eye.unitary


def test_encode_unitary_examples():
    b = encode_unitary(Z)
    assert b.ancilla_dim == 1 and b.scale == 1.0 and b.accuracy == 0.0
    assert np.allclose(b.block, Z)
    assert np.allclose(encode_unitary(np.eye(4)).block, np.eye(4))

    w, v = np.linalg.eigh(X)
    u = (v * np.exp(1j * 0.7 * w)) @ v.conj().T
    b = encode_unitary(u)
    phases = np.sort(np.angle(np.linalg.eigvals(b.block)))
    assert np.allclose(phases, [-0.7, 0.7])


def test_encode_unitary_rejects():
    with pytest.raises(NotUnitaryError):
        encode_unitary(0.5 * np.eye(2))


def test_encode_pauli_sum_examples():
    b = encode_pauli_sum(PauliSum.from_terms([(1.0, "Z")]))
    assert b.scale == 1.0 and b.ancilla_dim == 1
    assert np.allclose(b.block, Z)

    b = encode_pauli_sum(PauliSum.from_terms([(0.5, "X"), (0.5, "Z")]))
    assert b.scale == pytest.approx(1.0)
    assert np.allclose(b.block, (X + Z) / 2)
    assert spectral_norm(b.block) == pytest.approx(1 / np.sqrt(2))

    b = encode_pauli_sum(PauliSum.from_terms([(0.3, "Z"), (0.2, "X")]))
    assert b.scale == pytest.approx(0.5)
    assert np.allclose(b.block, 0.6 * Z + 0.4 * X)
    assert b.cost == 2

    with pytest.raises(EmptySumError):
        encode_pauli_sum(None)


def test_encode_pauli_sum_random(rng):
    for _ in range(20):
        s = random_pauli_sum(rng, int(rng.integers(1, 4)), 4)
        b = encode_pauli_sum(s)
        assert is_unitary(b.unitary, 1e-9)
        assert np.max(np.abs(b.block * b.scale - pauli_sum_matrix(s))) < 1e-9


def test_product_examples():
    bx, bz = encode_unitary(X), encode_unitary(Z)
    assert np.allclose(product([bx, bz]).block, X @ Z)

    b = encode_pauli_sum(PauliSum.from_terms([(0.5, "X"), (0.5, "Z")]))
    bb = product([b, b])
    assert bb.scale == pytest.approx(1.0)
    assert np.allclose(bb.block, np.eye(2) / 2)
    assert bb.cost == 4

    assert product([bx]) is bx
    assert np.allclose(product([bx, bx]).block, np.eye(2))

    with pytest.raises(DimensionMismatchError):
        product([bx, encode_unitary(np.eye(4))])
    with pytest.raises(LengthMismatchError):
        product([])


def test_product_scale_and_unitarity(rng):
    for _ in range(10):
        s1 = random_pauli_sum(rng, 2, 3)
        s2 = random_pauli_sum(rng, 2, 3)
        b1, b2 = encode_pauli_sum(s1), encode_pauli_sum(s2)
        pr = product([b1, b2])
        assert pr.scale == pytest.approx(b1.scale * b2.scale)
        assert is_unitary(pr.unitary, 1e-9)
        expected = b1.block @ b2.block
        assert np.max(np.abs(pr.block - expected)) < 1e-9


def test_product_accuracy_is_the_product_error_bound(rng):
    for size in (2, 3, 7):
        accuracies = rng.uniform(0.0, 0.1, size)
        encs = [BlockEncoding(np.eye(2), 1, 2, 1.0, e, 0, circuit=lambda: np.eye(2)) for e in accuracies]
        assert product(encs).accuracy == product_error_bound(list(accuracies))


def test_product_refuses_an_overflowing_scale_without_a_warning():
    big = encode_pauli_sum(PauliSum.from_terms([(1e200, "X")]))
    with pytest.raises(OutOfRangeError, match="scale must be positive and finite, got inf"):
        product([big, big])
    with pytest.raises(OutOfRangeError, match="got nan"):
        BlockEncoding(np.eye(2), 1, 2, math.nan, 0.0, 0, circuit=lambda: np.eye(2))


def test_linear_combine_hermitian_parts():
    w, v = np.linalg.eigh(pauli_sum_matrix(PauliSum.from_terms([(0.4, "X"), (0.3, "Y")])))
    gamma = encode_unitary((v * np.exp(1j * w)) @ v.conj().T)
    herm = linear_combine([0.5, 0.5], [gamma, adjoint(gamma)])
    assert is_hermitian(herm.block, 1e-9)
    anti = linear_combine([-0.5j, 0.5j], [gamma, adjoint(gamma)])
    assert is_hermitian(anti.block, 1e-9)
    g = gamma.block
    assert np.max(np.abs(herm.block - (g + g.conj().T) / 2)) < 1e-9
    assert np.max(np.abs(anti.block - (g - g.conj().T) / 2j)) < 1e-9


def test_linear_combine_matches_pauli_encoding():
    lc = linear_combine([0.3, 0.2], [encode_unitary(Z), encode_unitary(X)])
    direct = encode_pauli_sum(PauliSum.from_terms([(0.3, "Z"), (0.2, "X")]))
    assert lc.scale == pytest.approx(direct.scale)
    assert np.max(np.abs(lc.block - direct.block)) < 1e-9


def test_linear_combine_errors():
    bx = encode_unitary(X)
    with pytest.raises(LengthMismatchError):
        linear_combine([1.0], [bx, bx])
    with pytest.raises(DimensionMismatchError):
        linear_combine([1.0, 1.0], [bx, encode_unitary(np.eye(4))])
    with pytest.raises(OutOfRangeError):
        linear_combine([0.0, 0.0], [bx, bx])


def test_linear_combine_unitarity_random(rng):
    for _ in range(10):
        s1 = random_pauli_sum(rng, 2, 4)
        s2 = random_pauli_sum(rng, 2, 2)
        b1, b2 = encode_pauli_sum(s1), encode_pauli_sum(s2)
        coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
        lc = linear_combine(coeffs, [b1, b2])
        assert is_unitary(lc.unitary, 1e-9)
        assert lc.scale == pytest.approx(
            abs(coeffs[0]) * b1.scale + abs(coeffs[1]) * b2.scale
        )
        expected = coeffs[0] * pauli_sum_matrix(s1) + coeffs[1] * pauli_sum_matrix(s2)
        assert np.max(np.abs(lc.block * lc.scale - expected)) < 1e-9


def test_adjoint():
    bz = encode_unitary(Z)
    assert np.allclose(adjoint(bz).block, Z)

    b_iI = linear_combine([1j], [identity_encoding(2)])
    assert np.allclose(b_iI.block, 1j * np.eye(2))
    assert np.allclose(adjoint(b_iI).block, -1j * np.eye(2))

    b = encode_pauli_sum(PauliSum.from_terms([(0.3, "Z"), (0.2, "X")]))
    bb = adjoint(adjoint(b))
    assert np.array_equal(bb.unitary, b.unitary)
    assert (bb.scale, bb.accuracy, bb.cost, bb.ancilla_dim) == (
        b.scale,
        b.accuracy,
        b.cost,
        b.ancilla_dim,
    )


def test_product_error_bound():
    assert product_error_bound([0.0]) == 0.0
    assert product_error_bound([]) == 0.0
    assert product_error_bound([0.01, 0.04]) == pytest.approx(0.09)
    assert product_error_bound([0.01] * 3) <= 9 * 0.01 + 1e-12
    assert product_error_bound([0.01] * 3) == pytest.approx(0.09)
    # closed form: fold equals the squared sum of square roots
    errs = [0.02, 0.005, 0.01]
    assert product_error_bound(errs) == pytest.approx(sum(np.sqrt(errs)) ** 2)
    with pytest.raises(OutOfRangeError):
        product_error_bound([-0.1])


def test_empirical_error_within_bound(rng):
    # deliberately perturbed encodings of Hermitian contractions
    for _ in range(10):
        dims = 2
        blocks, perturbed, errs = [], [], []
        for _j in range(3):
            a = rng.normal(size=(dims, dims)) + 1j * rng.normal(size=(dims, dims))
            a = (a + a.conj().T) / 2
            a /= np.linalg.norm(a, 2) * 1.2
            noise = rng.normal(size=(dims, dims)) + 1j * rng.normal(size=(dims, dims))
            a_wrong = a + 0.02 * noise
            a_wrong /= max(1.0, np.linalg.norm(a_wrong, 2))
            eps = float(np.linalg.norm(a - a_wrong, 2))
            blocks.append(a)
            perturbed.append(contraction_encoding(a_wrong, accuracy=eps))
            errs.append(eps)
        pr = product(perturbed)
        exact = np.eye(dims)
        for a in blocks:
            exact = exact @ a
        empirical = np.linalg.norm(pr.block - exact, 2)
        assert empirical <= product_error_bound(errs) + 1e-12
        assert pr.accuracy == pytest.approx(product_error_bound(errs))


# The Hermitian ledger: wherever a rule claims a Hermitian block, the block
# equals its conjugate transpose entry for entry, at any magnitude.
LEDGER = settings(max_examples=150, deadline=None)
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1e-300]),
    st.floats(-1e150, 1e150, allow_nan=False),
)


@st.composite
def complex_operators(draw):
    """A BlockEncoding, built by measurement, of a random complex operator
    G whose entries include signed zeros, subnormals and large values."""
    dim = draw(st.sampled_from([1, 2, 4, 8]))
    parts = draw(st.lists(ENTRIES, min_size=2 * dim * dim, max_size=2 * dim * dim))
    g = (np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(dim, dim)
    norm = spectral_norm(g)
    scale = 1.0 if norm <= 1.0 else 2.0 * norm
    return BlockEncoding(g / scale, 1, dim, scale=scale, circuit=partial(np.eye, 2 * dim))


@st.composite
def real_pauli_sums(draw, qubits: int):
    word = st.text(alphabet="IXYZ", min_size=qubits, max_size=qubits)
    coeff = st.one_of(
        st.floats(-10.0, 10.0).filter(lambda c: c != 0.0),
        st.sampled_from([1.0, -1.0, 0.5, 1e-300, -3e300, 1e10]),
    )
    pairs = draw(st.lists(st.tuples(coeff, word), min_size=1, max_size=8, unique_by=lambda p: p[1]))
    s = PauliSum(tuple(PauliTerm(c, w) for c, w in pairs), qubits)
    # encode_pauli_sum refuses a scale too small to divide by (see
    # test_a_pauli_sum_with_a_subnormal_scale_is_refused); subnormal terms
    # of a sum it accepts stay in.
    assume(math.isfinite(1.0 / s.scale()))
    return s


def _assert_proven_hermitian(b: BlockEncoding):
    assert b.hermitian
    assert hermitian_gap(b.block) == 0.0


@LEDGER
@given(complex_operators())
def test_hermitian_and_antihermitian_parts_are_hermitian_by_proof(g):
    assert not g.hermitian
    for part in (hermitian_part_encoding(g), antihermitian_part_encoding(g)):
        _assert_proven_hermitian(part)
        _assert_proven_hermitian(adjoint(part))
        _assert_proven_hermitian(normalized(part))
        _assert_proven_hermitian(_shifted_encoding(part))


def _random_contraction(rng, d: int, real: bool = False) -> BlockEncoding:
    g = rng.normal(size=(d, d)) + (0.0 if real else 1j * rng.normal(size=(d, d)))
    return contraction_encoding(g / (1.1 * np.linalg.norm(g, 2)))


def _pair_operand(kind: str, rng) -> BlockEncoding:
    """A non-Hermitian g: a complex measured contraction, a 3-factor
    product or a real (float64) measured contraction."""
    if kind == "product":
        h = encode_pauli_sum(random_pauli_sum(rng, 2, 4))
        return product([h, _random_contraction(rng, 4), _random_contraction(rng, 4)])
    return _random_contraction(rng, 4, real=kind == "real")


@pytest.mark.parametrize(
    "kind, c",
    [("contraction", c) for c in (0.5, -0.5j, -2.0, 3.0j)]
    + [("product", 0.5), ("product", -0.5j), ("real", -0.5j), ("real", 0.5)],
)
def test_linear_combine_proves_a_conjugate_pair_over_an_encoding_and_its_adjoint_hermitian(kind, c):
    g = _pair_operand(kind, np.random.default_rng(7))
    assert not g.hermitian
    pair = linear_combine([c, complex(c).conjugate()], [g, adjoint(g)])
    _assert_proven_hermitian(pair)


def test_linear_combine_leaves_other_pairs_of_an_encoding_and_its_adjoint_unproven():
    rng = np.random.default_rng(8)
    g = _random_contraction(rng, 4)
    g_adjoint = adjoint(g)
    twin = contraction_encoding(g.block)
    h = _pair_operand("product", rng)
    rescaled = linear_combine([0.5, 0.5], [h, normalized(adjoint(h))])
    assert h.scale != 1.0
    assert hermitian_gap(rescaled.block) > 0.0
    c = 0.3 + 0.4j
    unproven = [
        linear_combine([c, c.conjugate()], [g, g_adjoint]),
        linear_combine([0.5, 0.4], [g, g_adjoint]),
        linear_combine([0.5, 0.5], [g, adjoint(twin)]),
        rescaled,
        linear_combine([0.5, 0.5, 0.5], [g, g_adjoint, identity_encoding(4)]),
        # The swapped order [G^dagger, G] is Hermitian by the same proof;
        # these two show a gap in the check, not a requirement.
        linear_combine([0.5, 0.5], [g_adjoint, g]),
        linear_combine([-0.5j, 0.5j], [g_adjoint, g]),
    ]
    for b in unproven:
        assert not b.hermitian


@LEDGER
@given(
    st.integers(1, 3).flatmap(lambda q: st.lists(real_pauli_sums(q), min_size=1, max_size=3)),
    st.lists(
        st.tuples(st.floats(1e-3, 1e6), st.sampled_from([1.0, -1.0])).map(lambda p: p[0] * p[1]),
        min_size=3,
        max_size=3,
    ),
)
def test_pauli_sums_and_their_real_combinations_are_hermitian_by_proof(sums, coeffs):
    encodings = [encode_pauli_sum(s) for s in sums]
    for b in encodings:
        _assert_proven_hermitian(b)
        _assert_proven_hermitian(_shifted_encoding(b))
    _assert_proven_hermitian(identity_encoding(encodings[0].system_dim))
    combined = linear_combine(coeffs[: len(encodings)], encodings)
    _assert_proven_hermitian(combined)
    assert not linear_combine([1j] + coeffs[1 : len(encodings)], encodings).hermitian


def test_a_pauli_sum_with_a_subnormal_scale_is_refused():
    """Dividing by it would fill the block with inf and nan, which neither
    ledger could then claim to bound or to be Hermitian."""
    with pytest.raises(OutOfRangeError, match="the scale alpha = 1e-310 is too small"):
        encode_pauli_sum(PauliSum.from_terms([(1e-310, "Z")]))
    assert encode_pauli_sum(PauliSum.from_terms([(1e-300, "Z")])).block[1, 1] == pytest.approx(-1.0)


@pytest.mark.parametrize("entry", [math.inf, math.nan])
def test_a_measured_block_must_have_finite_entries(entry):
    """An inf entry would be measured as norm nan, a nan entry would fail
    inside the SVD; both are refused before it."""
    block = 0.5 * np.eye(2)
    block[1, 0] = entry
    with pytest.raises(OutOfRangeError, match="finite entries"):
        BlockEncoding(block, 2, 2, scale=1.0, circuit=lambda: np.eye(4))


@pytest.mark.parametrize("ledger", [{"accuracy": math.nan}, {"cost": math.nan}])
def test_a_nan_accuracy_or_cost_is_refused(ledger):
    with pytest.raises(OutOfRangeError, match="must be nonnegative"):
        BlockEncoding(0.5 * np.eye(2), 2, 2, scale=1.0, circuit=lambda: np.eye(4), **ledger)


def test_a_nan_norm_bound_is_refused():
    with pytest.raises(NormTooLargeError, match="bound nan"):
        _by_rule(
            0.5 * np.eye(2), math.nan, ancilla_dim=2, system_dim=2, scale=1.0, accuracy=0.0,
            cost=0, circuit=lambda: np.eye(4),
        )


def test_products_polynomials_unitaries_and_measurements_stay_unproven():
    h = encode_pauli_sum(PauliSum.from_terms([(0.5, "ZZ"), (0.3, "XI"), (0.2, "IY")]))
    assert not product([h, h]).hermitian
    for n in range(5):
        t_n = chebyshev_encoding(h, n)
        # T_0 = I and T_1 = the input's block are proven; from T_2 on the
        # block products round asymmetrically.
        assert t_n.hermitian is (n < 2)
    assert not apply_polynomial(h, chebyshev_t(2), 1e-3).hermitian
    assert not encode_unitary(np.eye(2)).hermitian
    assert not BlockEncoding(h.block, 4, 4, scale=1.0, circuit=h.circuit).hermitian


# The trace evaluator and the blocks formed on demand.
#
# A drawn tree records, for every node, the encoding and the reference
# block that the eager formulas (copied below) give from the reference
# blocks of its inputs. `linear_combine`, `adjoint` and the relabel
# `normalized` record their rule and form the block on first access; products and
# Chebyshev encodings form theirs at once and are leaves of the evaluator.

U = np.finfo(float).eps / 2.0


def _eager_combination(coeffs, encodings, blocks):
    """The block `linear_combine` formed eagerly, from the input blocks.
    Its pairwise np.add.reduce total equals the left fold `linear_combine`
    sums below 8 terms, and the trees here draw at most 3."""
    coeffs = [complex(c) for c in coeffs]
    strengths = [b.scale * abs(c) for c, b in zip(coeffs, encodings)]
    total = float(np.add.reduce(strengths))
    d = encodings[0].system_dim
    block = np.zeros((d, d), dtype=complex)
    for c, s, inner in zip(coeffs, strengths, blocks):
        w = s / total
        p = c / abs(c) if c != 0 else 1.0
        block += w * p * inner
    return block


def _eager_chebyshev(a, n):
    """The recurrence `chebyshev_encoding` runs on the block a."""
    if n == 0:
        return np.eye(a.shape[0], dtype=complex)
    t_1, t_2 = a, np.eye(a.shape[0], dtype=complex)
    for _ in range(1, n):
        t_1, t_2 = 2.0 * (a @ t_1) - t_2, t_1
    return t_1


COEFFICIENTS = st.floats(0.05, 2.0).flatmap(
    lambda x: st.sampled_from([x, -x, 1j * x, -1j * x, x * complex(0.6, 0.8), x * complex(-0.28, 0.96)])
)


@st.composite
def rule_trees(draw):
    """(nodes, dim): a list of (encoding, reference block, size), the last
    node the root; size counts the leaf reads and rule steps below it."""
    qubits = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = 2**qubits
    h = encode_pauli_sum(random_pauli_sum(rng, qubits, 4))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    general = contraction_encoding(g / (1.1 * np.linalg.norm(g, 2)))
    leaves = [h, general, identity_encoding(d), chebyshev_encoding(h, draw(st.integers(2, 3)))]
    nodes = [(b, np.array(b.block), 1) for b in leaves]
    for _ in range(draw(st.integers(1, 7))):
        op = draw(st.sampled_from(["combine", "adjoint", "normalized", "product", "chebyshev"]))
        picks = draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=3))
        inputs = [nodes[i] for i in picks]
        first, ref, size = inputs[0]
        if op == "chebyshev" and not (first.hermitian and first.accuracy == 0.0):
            op = "adjoint"
        if op == "combine":
            coeffs = [draw(COEFFICIENTS) for _ in inputs]
            encodings = [b for b, _, _ in inputs]
            node = (
                linear_combine(coeffs, encodings),
                _eager_combination(coeffs, encodings, [r for _, r, _ in inputs]),
                1 + sum(s for _, _, s in inputs),
            )
        elif op == "adjoint":
            node = (adjoint(first), ref.conj().T, size + 1)
        elif op == "normalized":
            node = (normalized(first), ref, size + 1)
        elif op == "product":
            other, other_ref, _ = inputs[-1]
            node = (product([first, other]), ref @ other_ref, 1)
        else:
            n = draw(st.integers(0, 3))
            node = (chebyshev_encoding(first, n), _eager_chebyshev(ref, n), 1)
        nodes.append(node)
    return nodes, d


def _densities(d, rng):
    return {
        "pure": prepare_pure(random_state_vector(rng, d)).density,
        "mixed": random_density_matrix(rng, d),
        "maximally mixed": prepare_maximally_mixed(d).density,
    }


@settings(max_examples=150, deadline=None)
@given(rule_trees(), st.integers(0, 2**32 - 1))
def test_the_trace_evaluator_reads_tr_rho_b_through_the_rules(tree, seed):
    """Roundoff bound: each np.vdot of a block of norm at most 1 against a
    density (sum_ij |rho_ij| <= D) errs by at most about D^2 u D, and each
    combination step adds a few u per entry or per trace, so every one of
    the `size` leaf reads and rule steps below a node contributes at most
    4 D^3 u to the distance of the two readings."""
    nodes, d = tree
    for name, density in _densities(d, np.random.default_rng(seed)).items():
        traces = [_density_trace(b, density) for b, _, _ in nodes]
        for (b, _, size), trace in zip(nodes, traces):
            bound = 4.0 * size * d**3 * U
            assert abs(trace - np.vdot(density, b.block)) <= bound, name


@settings(max_examples=150, deadline=None)
@given(rule_trees())
def test_blocks_formed_on_demand_equal_the_eager_formulas_bit_for_bit(tree):
    nodes, _ = tree
    root, root_ref, _ = nodes[-1]
    # Form the root first, so that its rule forms whatever lies below it.
    assert np.array_equal(root.block, root_ref)
    for b, ref, _ in nodes:
        assert np.array_equal(b.block, ref)
        assert not b.block.flags.writeable
        assert b.block is b.block


def _factor_pool(qubits: int, rng):
    """(a Pauli sum S, encodings): encodings of every kind a product reads,
    on 2^qubits dimensions. The first is the encoding of S, then another
    Pauli sum, a unitary, an adjoint, a combination and a Chebyshev word."""
    d = 2**qubits
    hamiltonian = random_pauli_sum(rng, qubits, 4)
    h = encode_pauli_sum(hamiltonian)
    g = encode_pauli_sum(random_pauli_sum(rng, qubits, 3))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    general = contraction_encoding(q[:, ::-1] / 1.1, accuracy=1e-3)
    return hamiltonian, [
        h,
        g,
        encode_unitary(q, cost=3),
        adjoint(general),
        linear_combine([0.4, -0.7j], [h, general]),
        chebyshev_encoding(h, 3),
    ]


def _eager_fold(encodings):
    """The left fold of the blocks that `product` once formed eagerly."""
    block = encodings[0].block
    for b in encodings[1:]:
        block = block @ b.block
    return block


@pytest.mark.parametrize("qubits", [1, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_a_recorded_product_keeps_the_eager_block_ledgers_and_circuit(qubits, k):
    rng = np.random.default_rng(100 * qubits + k)
    _, pool = _factor_pool(qubits, rng)
    for _ in range(6):
        factors = [pool[i] for i in rng.integers(0, len(pool), size=k)]
        p = product(factors)
        if k == 1:
            assert p is factors[0]
            continue
        assert np.array_equal(p.block, _eager_fold(factors))
        assert not p.block.flags.writeable
        assert p.norm_bound == math.prod(b.norm_bound for b in factors)
        assert p.scale == math.prod(b.scale for b in factors)
        assert p.cost == sum(b.cost for b in factors)
        assert p.ancilla_dim == math.prod(b.ancilla_dim for b in factors)
        assert p.system_dim == 2**qubits
        assert p.accuracy == product_error_bound([b.accuracy for b in factors])
        assert p.hermitian is False
        assert p.circuit.func is circuits.product_circuit
        assert p.circuit.args == (factors,)


@pytest.mark.parametrize("qubits", [1, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_a_product_trace_is_one_vdot_through_the_rule(qubits, k):
    """Roundoff bound: every factor is a contraction and the density has
    sum_ij |rho_ij| <= D, so each of the k - 1 matrix products of either
    reading (the eager fold, or the sandwich and the middle fold) errs by
    at most about D u per entry, and each np.vdot adds about D^2 u D; the
    two readings differ by at most 4 k D^3 u."""
    rng = np.random.default_rng(7 * qubits + k)
    hamiltonian, pool = _factor_pool(qubits, rng)
    d = 2**qubits
    thermal, _ = prepare_thermal(hamiltonian, 0.8)
    densities = {
        "pure": prepare_pure(random_state_vector(rng, d)).density,
        "thermal": thermal.density,
        "maximally mixed": prepare_maximally_mixed(d).density,
    }
    for _ in range(6):
        factors = [pool[i] for i in rng.integers(0, len(pool), size=k)]
        for name, density in densities.items():
            trace = _density_trace(product(factors), density)
            reference = np.vdot(density, _eager_fold(factors))
            assert abs(trace - reference) <= 4.0 * k * d**3 * U, name


def test_a_shared_first_factor_reads_each_product_and_density_afresh():
    """The sandwich B^dagger rho C^dagger is remembered on B for one
    (density, last factor) pair: a new last factor or a new density forms
    a new one, and the products' own memos never hand back another
    reading. Per response sketch this is one extra live D^2 array (the
    sandwich, on the sketch's B), where each moment's product once held
    its own D^2 block."""
    rng = np.random.default_rng(5)
    _, pool = _factor_pool(2, rng)
    b, c, c_prime = pool[1], pool[2], pool[4]
    t = chebyshev_encoding(pool[0], 2)
    rho = prepare_pure(random_state_vector(rng, 4)).density
    sigma = random_density_matrix(rng, 4)
    btc, btc_prime = product([b, t, c]), product([b, t, c_prime])
    bound = 4.0 * 3 * 4**3 * U
    for density in (rho, rho, sigma, rho):
        for p in (btc, btc_prime, btc, product([b, t, c])):
            assert abs(_density_trace(p, density) - np.vdot(density, p.block)) <= bound
        sandwich = b._sandwich_memo[2]
        assert np.array_equal(sandwich, b.block.conj().T @ density @ c.block.conj().T)


def test_a_cached_first_factor_does_not_keep_the_density_or_last_factor_alive():
    rng = np.random.default_rng(6)
    _, pool = _factor_pool(2, rng)
    eye = identity_encoding(4)
    c = encode_unitary(np.linalg.qr(rng.normal(size=(4, 4)))[0])
    density = random_density_matrix(rng, 4)
    p = product([eye, chebyshev_encoding(pool[0], 2), c])
    assert abs(_density_trace(p, density) - np.vdot(density, p.block)) <= 12 * 4**3 * U
    assert identity_encoding(4) is eye and eye._sandwich_memo is not None
    dead_density, dead_factor = weakref.ref(density), weakref.ref(c)
    del density, c, p
    gc.collect()
    assert dead_density() is None and dead_factor() is None
