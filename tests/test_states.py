import numpy as np
import pytest
from numpy.testing import assert_allclose

import qdiscord as qd
from qdiscord.linalg import ID2, PAULIS


def _pure(ket):
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


class TestBellDiagonal:
    def test_origin_is_maximally_mixed(self):
        assert_allclose(qd.bell_diagonal_state([0, 0, 0]).mat, np.eye(4) / 4)

    def test_vertex_is_bell_projector(self):
        phi_plus = _pure(np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert_allclose(qd.bell_diagonal_state([1, -1, 1]).mat, phi_plus, atol=1e-15)

    def test_rejects_outside_tetrahedron(self):
        with pytest.raises(qd.OutsidePhysicalError):
            qd.bell_diagonal_state([2.0, 0.0, 0.0])

    def test_bloch_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            # rejection-sample the tetrahedron
            while True:
                t = rng.uniform(-1, 1, 3)
                if qd.tetrahedron_contains(t):
                    break
            b = qd.bloch_triple(qd.bell_diagonal_state(t))
            assert_allclose(np.diag(b.corr), t, atol=1e-12)
            assert_allclose(b.x, 0, atol=1e-12)
            assert_allclose(b.y, 0, atol=1e-12)

    def test_equals_pauli_sum(self):
        rng = np.random.default_rng(4)
        points = [rng.uniform(-1, 1, 3) for _ in range(200)]
        points = [t for t in points if qd.tetrahedron_contains(t)]
        points += [np.array(v, dtype=float) for v in [(1, -1, 1), (-1, -1, -1), (0.5, 0.5, 0.0)]]
        for t in points:
            mat = np.kron(ID2, ID2)
            for ti, sigma in zip(t, PAULIS):
                mat = mat + ti * np.kron(sigma, sigma)
            assert np.array_equal(qd.bell_diagonal_state(t).mat, mat / 4.0)


class TestBellStates:
    _KETS = {
        0: np.array([1, 0, 0, 1]) / np.sqrt(2),
        1: np.array([1, 0, 0, -1]) / np.sqrt(2),
        2: np.array([0, 1, 1, 0]) / np.sqrt(2),
        3: np.array([0, 1, -1, 0]) / np.sqrt(2),
    }

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_matches_projector(self, index):
        assert_allclose(qd.bell_state(index).mat, _pure(self._KETS[index]), atol=1e-15)

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_marginals_maximally_mixed(self, index):
        rho = qd.bell_state(index)
        assert np.trace(rho.mat).real == pytest.approx(1.0)
        assert_allclose(qd.partial_trace(rho, "A"), ID2 / 2, atol=1e-14)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            qd.bell_state(4)

    @pytest.mark.parametrize("index", [-1, 5])
    def test_index_outside_range(self, index):
        with pytest.raises(qd.ValidationError, match="^Bell index must be 0..3"):
            qd.bell_state(index)


class TestFourNonorthogonal:
    def test_trace(self, eq4_state):
        assert np.trace(eq4_state.mat).real == pytest.approx(1.0)

    def test_has_discord(self, eq4_state):
        assert not qd.zero_discord_test(eq4_state).is_zero_discord

    def test_geometric_discord_positive(self, eq4_state):
        value = qd.geometric_discord_2q(eq4_state).value
        assert value > 1e-3
        oracle = qd.geometric_discord_oracle(eq4_state, restarts=16)
        assert oracle == pytest.approx(value, abs=1e-6)


class TestFacetStates:
    @pytest.mark.parametrize("signs", [(1, 1, 1), (-1, 1, -1), (-1, -1, -1)])
    def test_bloch_and_marginals(self, signs):
        rho = qd.facet_state(*signs)
        assert_allclose(qd.partial_trace(rho, "A"), ID2 / 2, atol=1e-14)
        b = qd.bloch_triple(rho)
        assert_allclose(np.diag(b.corr), np.array(signs) / 3, atol=1e-12)

    def test_separable_region(self):
        rho = qd.facet_state(1, -1, 1)
        t = np.diag(qd.bloch_triple(rho).corr)
        assert qd.octahedron_contains(t)

    def test_discord_value(self):
        assert qd.geometric_discord_2q(qd.facet_state(1, 1, -1)).value == pytest.approx(
            1 / 18, abs=1e-12
        )

    @pytest.mark.parametrize("signs", [(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)])
    def test_every_facet_center(self, signs):
        # t = s/3 lies on an octahedron facet, and D_G = (|t|^2 - max t_i^2)/4 = 1/18
        t = np.diag(qd.bloch_triple(qd.facet_state(*signs)).corr)
        assert np.abs(t).sum() == pytest.approx(1.0, abs=1e-12)
        assert qd.octahedron_contains(t)
        assert qd.geometric_discord_2q(qd.facet_state(*signs)).value == pytest.approx(1 / 18, abs=1e-12)

    def test_rejects_bad_signs(self):
        with pytest.raises(ValueError):
            qd.facet_state(1, 0, 1)

    @pytest.mark.parametrize("signs", [(0, 1, 1), (1, 2, 1), (1, 1, -3)])
    def test_rejects_sign_off_unit(self, signs):
        with pytest.raises(qd.ValidationError, match="^facet signs must be \\+1 or -1"):
            qd.facet_state(*signs)


def test_integral_float_index_and_signs_are_kept():
    assert np.array_equal(qd.bell_state(1.0).mat, qd.bell_state(1).mat)
    assert np.array_equal(qd.facet_state(1.0, -1.0, 1.0).mat, qd.facet_state(1, -1, 1).mat)


class TestClassicalQuantum:
    def test_single_term_is_product(self):
        rho_b = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
        rho = qd.classical_quantum_state([1.0], [np.array([1, 0])], [rho_b])
        assert_allclose(rho.mat, np.kron(_pure([1, 0]), rho_b), atol=1e-15)

    def test_correlated_bits(self, classical_bits):
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 0.5
        assert_allclose(classical_bits.mat, expected)

    def test_equal_states_give_product(self):
        rho_b = np.array([[0.6, 0.2j], [-0.2j, 0.4]], dtype=complex)
        rho = qd.classical_quantum_state(
            [0.5, 0.5], [np.array([1, 0]), np.array([0, 1])], [rho_b, rho_b]
        )
        assert_allclose(rho.mat, np.kron(ID2 / 2, rho_b), atol=1e-15)

    def test_rank_bounded_by_dim_a(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            dim_a = int(rng.integers(2, 4))
            dim_b = int(rng.integers(2, 4))
            u = qd.random_unitary(dim_a, 100 + trial)
            k = int(rng.integers(1, dim_a + 1))
            p = rng.uniform(0.05, 1.0, k)
            p /= p.sum()
            states = []
            for i in range(k):
                g = rng.standard_normal((dim_b, dim_b)) + 1j * rng.standard_normal((dim_b, dim_b))
                m = g @ g.conj().T
                states.append(m / np.trace(m).real)
            rho = qd.classical_quantum_state(p, [u[:, i] for i in range(k)], states)
            cm = qd.correlation_matrix(rho)
            assert qd.numerical_rank(cm) <= dim_a

    def test_rejects_bad_probabilities(self):
        with pytest.raises(qd.ValidationError):
            qd.classical_quantum_state(
                [0.7, 0.7], [np.array([1, 0]), np.array([0, 1])], [ID2 / 2, ID2 / 2]
            )

    def test_rejects_unequal_lengths(self):
        with pytest.raises(qd.ValidationError, match="^p, kets and states must have equal lengths"):
            qd.classical_quantum_state([0.5, 0.5], [np.array([1, 0])], [ID2 / 2, ID2 / 2])

    def test_rejects_negative_probability(self):
        # sums to 1, so only the sign check can refuse it
        with pytest.raises(qd.ValidationError, match="^p must be nonnegative"):
            qd.classical_quantum_state(
                [1.2, -0.2], [np.array([1, 0]), np.array([0, 1])], [ID2 / 2, ID2 / 2]
            )

    def test_rejects_more_kets_than_dim_a(self):
        kets = [np.array([1, 0]), np.array([0, 1]), np.array([1, 1]) / np.sqrt(2)]
        with pytest.raises(qd.ValidationError, match="^at most 2 orthonormal kets fit in dimension 2"):
            qd.classical_quantum_state([0.4, 0.3, 0.3], kets, [ID2 / 2] * 3)

    def test_rejects_nonorthogonal_kets(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        with pytest.raises(qd.ValidationError):
            qd.classical_quantum_state([0.5, 0.5], [np.array([1, 0]), plus], [ID2 / 2, ID2 / 2])

    @pytest.mark.parametrize(
        "p, states, shapes",
        [
            ([0.5, 0.5], [np.eye(2) / 2, np.eye(3) / 3], r"\[\(2, 2\), \(3, 3\)\]"),
            ([1.0], [np.eye(2, 3) / 2], r"\[\(2, 3\)\]"),
        ],
        ids=["sizes-differ", "not-square"],
    )
    def test_rejects_bad_b_shapes(self, p, states, shapes):
        kets = [np.array([1, 0]), np.array([0, 1])][: len(p)]
        with pytest.raises(qd.DimensionError, match=shapes):
            qd.classical_quantum_state(p, kets, states)

    def test_rejects_scalar_p(self):
        # a scalar once reached len(p) and raised a TypeError
        with pytest.raises(qd.DimensionError, match=r"^p must be a 1-d array"):
            qd.classical_quantum_state(1.0, [np.array([1, 0])], [ID2 / 2])

    @pytest.mark.parametrize(
        "kets, shapes",
        [([[1, 0], [0, 1, 0]], r"\[\(2,\), \(3,\)\]"), ([[[1, 0]]], r"\[\(1, 2\)\]")],
        ids=["lengths-differ", "two-dimensional"],
    )
    def test_rejects_bad_ket_shapes(self, kets, shapes):
        p = [1.0 / len(kets)] * len(kets)
        with pytest.raises(qd.DimensionError, match=shapes):
            qd.classical_quantum_state(p, kets, [ID2 / 2] * len(kets))

    @pytest.mark.parametrize(
        "p, kets, match",
        [
            ([np.nan, 1.0], [[1, 0], [0, 1]], "^p must"),
            ([0.5, 0.5], [[np.nan, 0], [0, 1]], "^kets are not orthonormal"),
        ],
        ids=["p", "kets"],
    )
    def test_nan_is_refused_by_argument(self, p, kets, match):
        kets = [np.array(k, dtype=complex) for k in kets]
        with pytest.raises(qd.ValidationError, match=match):
            qd.classical_quantum_state(p, kets, [ID2 / 2, ID2 / 2])


class TestRandomGenerators:
    def test_density_matrix_valid_and_reproducible(self):
        a = qd.random_density_matrix(2, 3, 42)
        b = qd.random_density_matrix(2, 3, 42)
        assert np.array_equal(a.mat, b.mat)
        assert np.trace(a.mat).real == pytest.approx(1.0)

    def test_unitary_is_unitary(self):
        u = qd.random_unitary(8, 3)
        assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-10
        assert abs(np.linalg.det(u)) == pytest.approx(1.0, abs=1e-10)

    def test_unitary_dim_one(self):
        u = qd.random_unitary(1, 5)
        assert abs(u[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_haar_trace_moment(self):
        # E |Tr U|^2 = 1 for the Haar measure in any dimension.
        vals = np.array([abs(np.trace(qd.random_unitary(8, seed))) ** 2 for seed in range(500)])
        stderr = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - 1.0) <= 3 * stderr


class TestMeasurePrepareChannel:
    def test_orthonormal_kets_leave_classical_state_alone(self, classical_bits):
        out = qd.measure_prepare_channel_a(
            classical_bits, [np.array([1, 0]), np.array([0, 1])]
        )
        assert_allclose(out.mat, classical_bits.mat, atol=1e-15)

    def test_nonorthogonal_kets_create_discord(self, classical_bits):
        plus = np.array([1, 1]) / np.sqrt(2)
        out = qd.measure_prepare_channel_a(classical_bits, [np.array([1, 0]), plus])
        assert not qd.zero_discord_test(out).is_zero_discord

    def test_discord_increases_under_local_channel(self, classical_bits):
        before = qd.geometric_discord_2q(classical_bits).value
        plus = np.array([1, 1]) / np.sqrt(2)
        out = qd.measure_prepare_channel_a(classical_bits, [np.array([1, 0]), plus])
        after = qd.geometric_discord_2q(out).value
        assert before <= 1e-12
        assert after > 1e-3

    def test_preserves_b_marginal(self):
        rho = qd.random_density_matrix(2, 2, 9)
        plus = np.array([1, 1]) / np.sqrt(2)
        out = qd.measure_prepare_channel_a(rho, [np.array([1, 0]), plus])
        assert_allclose(qd.partial_trace(out, "B"), qd.partial_trace(rho, "B"), atol=1e-12)

    def test_rejects_qutrit_a(self):
        rho = qd.random_density_matrix(3, 2, 9)
        with pytest.raises(qd.DimensionError, match="^channel is defined for a qubit A side"):
            qd.measure_prepare_channel_a(rho, [np.array([1, 0]), np.array([0, 1])])

    @pytest.mark.parametrize(
        "kets",
        [[[1, 0]], [[1, 0], [0, 1], [1, 0]], [[1, 0, 0], [0, 1, 0]]],
        ids=["one-ket", "three-kets", "qutrit-kets"],
    )
    def test_rejects_other_than_two_qubit_kets(self, kets):
        rho = qd.random_density_matrix(2, 2, 9)
        with pytest.raises(qd.ValidationError, match="^need exactly two single-qubit kets"):
            qd.measure_prepare_channel_a(rho, [np.array(k) for k in kets])

    def test_rejects_unnormalized_kets(self):
        rho = qd.random_density_matrix(2, 2, 9)
        with pytest.raises(qd.ValidationError):
            qd.measure_prepare_channel_a(rho, [np.array([1, 1]), np.array([0, 1])])

    def test_nan_ket_is_refused_by_argument(self):
        rho = qd.random_density_matrix(2, 2, 9)
        with pytest.raises(qd.ValidationError, match="^kets must be normalized"):
            qd.measure_prepare_channel_a(rho, [np.array([np.nan, 0]), np.array([0, 1])])
