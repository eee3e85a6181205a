import numpy as np
import pytest
from numpy.testing import assert_allclose

import qdiscord as qd


def _random_tetrahedron_point(rng):
    while True:
        t = rng.uniform(-1, 1, 3)
        if qd.tetrahedron_contains(t):
            return t


class TestRegionTests:
    def test_bell_vertex(self):
        assert qd.tetrahedron_contains([1, -1, 1])
        assert not qd.octahedron_contains([1, -1, 1])

    def test_facet_center(self):
        t = [1 / 3, 1 / 3, 1 / 3]
        assert qd.tetrahedron_contains(t)
        assert qd.octahedron_contains(t)

    def test_origin(self):
        assert qd.tetrahedron_contains([0, 0, 0])
        assert qd.octahedron_contains([0, 0, 0])

    def test_outside(self):
        assert not qd.tetrahedron_contains([1, 1, 1])
        assert not qd.octahedron_contains([0.6, 0.6, 0.0])

    def test_tetrahedron_matches_eigenvalues(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = rng.uniform(-1.2, 1.2, 3)
            mat = np.eye(4, dtype=complex)
            for ti, s in zip(t, qd.linalg.PAULIS):
                mat += ti * np.kron(s, s)
            wmin = np.linalg.eigvalsh(mat / 4)[0]
            assert qd.tetrahedron_contains(t) == (wmin >= -1e-12)


class TestBlochTriple:
    def test_bell(self, bell):
        b = qd.bloch_triple(bell)
        assert_allclose(b.x, 0, atol=1e-14)
        assert_allclose(b.y, 0, atol=1e-14)
        assert_allclose(b.corr, np.diag([1.0, -1.0, 1.0]), atol=1e-14)

    def test_bell_diagonal(self):
        t = [0.3, -0.2, 0.5]
        b = qd.bloch_triple(qd.bell_diagonal_state(t))
        assert_allclose(b.corr, np.diag(t), atol=1e-14)

    def test_computational_basis_product(self):
        ket = np.zeros(4, dtype=complex)
        ket[0] = 1.0
        rho = qd.DensityMatrix(np.outer(ket, ket), 2, 2)
        b = qd.bloch_triple(rho)
        assert_allclose(b.x, [0, 0, 1], atol=1e-14)
        assert_allclose(b.y, [0, 0, 1], atol=1e-14)
        expected = np.zeros((3, 3))
        expected[2, 2] = 1.0
        assert_allclose(b.corr, expected, atol=1e-14)

    def test_reconstruction_roundtrip(self):
        for seed in range(10):
            rho = qd.random_density_matrix(2, 2, seed)
            b = qd.bloch_triple(rho)
            assert np.abs(qd.state_from_bloch(b.x, b.y, b.corr) - rho.mat).max() <= 1e-12

    def test_rejects_wrong_dims(self):
        with pytest.raises(qd.DimensionError):
            qd.bloch_triple(qd.random_density_matrix(2, 3, 0))

    def test_matches_pauli_traces(self):
        paulis = (np.eye(2),) + qd.linalg.PAULIS
        for seed in range(50):
            rho = qd.random_density_matrix(2, 2, 300 + seed)
            # ref[i, j] = Tr[rho (s_i x s_j)] with s_0 = 1, one Kronecker product at a time
            ref = np.array(
                [[np.trace(rho.mat @ np.kron(si, sj)).real for sj in paulis] for si in paulis]
            )
            b = qd.bloch_triple(rho)
            assert np.abs(b.x - ref[1:, 0]).max() <= 1e-15
            assert np.abs(b.y - ref[0, 1:]).max() <= 1e-15
            assert np.abs(b.corr - ref[1:, 1:]).max() <= 1e-15


class TestHsDistance:
    def test_zero_on_equal(self, bell):
        assert qd.hs_distance_sq(bell, bell) == 0.0

    def test_orthogonal_pure_qubits(self):
        assert qd.hs_distance_sq(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(2.0)

    def test_bell_to_maximally_mixed(self, bell):
        chi = qd.DensityMatrix(np.eye(4, dtype=complex) / 4, 2, 2)
        assert qd.hs_distance_sq(bell, chi) == pytest.approx(0.75, abs=1e-14)

    def test_matches_bloch_expansion(self):
        for seed in range(10):
            rho = qd.random_density_matrix(2, 2, seed)
            chi = qd.random_density_matrix(2, 2, seed + 100)
            br, bc = qd.bloch_triple(rho), qd.bloch_triple(chi)
            expansion = 0.25 * (
                np.sum((br.x - bc.x) ** 2)
                + np.sum((br.y - bc.y) ** 2)
                + np.sum((br.corr - bc.corr) ** 2)
            )
            assert qd.hs_distance_sq(rho, chi) == pytest.approx(expansion, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(qd.DimensionError):
            qd.hs_distance_sq(np.eye(2) / 2, np.eye(3) / 3)


class TestClosedForm:
    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_bell_states(self, index):
        assert qd.geometric_discord_2q(qd.bell_state(index)).value == pytest.approx(
            0.5, abs=1e-12
        )

    def test_product_states_vanish(self, product_mixed):
        assert abs(qd.geometric_discord_2q(product_mixed).value) <= 1e-12

    def test_facet_state(self):
        result = qd.geometric_discord_2q(qd.facet_state(-1, 1, 1))
        assert result.value == pytest.approx(1 / 18, abs=1e-12)

    def test_matches_bell_diagonal_formula(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            t = _random_tetrahedron_point(rng)
            closed = qd.geometric_discord_2q(qd.bell_diagonal_state(t)).value
            assert closed == pytest.approx(qd.bell_diagonal_discord(t), abs=1e-12)

    def test_minimizer_is_zero_discord_at_value(self):
        for seed in range(20):
            rho = qd.random_density_matrix(2, 2, seed)
            res = qd.geometric_discord_2q(rho)
            assert qd.zero_discord_test(res.chi_star).is_zero_discord
            assert qd.hs_distance_sq(rho, res.chi_star) == pytest.approx(res.value, abs=1e-10)

    def test_minimizer_is_state_measured_along_e_star(self):
        paulis = (qd.linalg.SIGMA_X, qd.linalg.SIGMA_Y, qd.linalg.SIGMA_Z)
        states = [qd.random_density_matrix(2, 2, seed) for seed in range(20)]
        for seed in range(20):
            psi = qd.random_unitary(4, 400 + seed)[:, 0]
            states.append(qd.DensityMatrix(np.outer(psi, psi.conj()), 2, 2))
        states += [qd.bell_state(i) for i in range(4)]
        for rho in states:
            res = qd.geometric_discord_2q(rho)
            e_sigma = sum(e * s for e, s in zip(res.e_star, paulis))
            measured = np.zeros((4, 4), dtype=complex)
            for sign in (1.0, -1.0):
                proj = np.kron((np.eye(2) + sign * e_sigma) / 2.0, np.eye(2))
                measured += proj @ rho.mat @ proj
            assert_allclose(res.chi_star.mat, measured, rtol=0, atol=1e-15)

    def test_stationarity_of_minimizer(self):
        for seed in range(10):
            rho = qd.random_density_matrix(2, 2, seed)
            res = qd.geometric_discord_2q(rho)
            b = qd.bloch_triple(rho)
            bc = qd.bloch_triple(res.chi_star)
            e = res.e_star
            assert bc.x @ e == pytest.approx(b.x @ e, abs=1e-10)
            assert_allclose(bc.y, b.y, atol=1e-10)
            assert_allclose(bc.corr.T @ e, b.corr.T @ e, atol=1e-10)

    def test_local_unitary_invariance(self):
        for seed in range(10):
            rho = qd.random_density_matrix(2, 2, seed)
            value = qd.geometric_discord_2q(rho).value
            w = np.kron(qd.random_unitary(2, seed + 1), qd.random_unitary(2, seed + 2))
            rotated = qd.DensityMatrix(w @ rho.mat @ w.conj().T, 2, 2)
            assert qd.geometric_discord_2q(rotated).value == pytest.approx(value, abs=1e-10)

    def test_deterministic_e_star_for_degenerate_k(self, bell):
        a = qd.geometric_discord_2q(bell)
        b = qd.geometric_discord_2q(bell)
        assert np.array_equal(a.e_star, b.e_star)
        first_nonzero = a.e_star[np.abs(a.e_star) > 1e-12][0]
        assert first_nonzero > 0


class TestBellDiagonalFormula:
    def test_vertex(self):
        assert qd.bell_diagonal_discord([1, -1, 1]) == pytest.approx(0.5)

    def test_axis_states_are_exactly_zero(self):
        assert qd.bell_diagonal_discord([0.8, 0.0, 0.0]) == 0.0
        assert qd.bell_diagonal_discord([0.0, -0.5, 0.0]) == 0.0

    def test_facet_center(self):
        assert qd.bell_diagonal_discord([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(1 / 18)

    def test_rejects_unphysical(self):
        with pytest.raises(qd.OutsidePhysicalError):
            qd.bell_diagonal_discord([1.0, 1.0, 1.0])


class TestZeroDiscordPoint:
    def test_to_state_is_zero_discord(self):
        for seed in range(10):
            chi = qd.random_zero_discord_state(seed)
            assert qd.zero_discord_test(chi).is_zero_discord

    def test_rejects_non_unit_direction(self):
        with pytest.raises(qd.OutsidePhysicalError):
            qd.ZeroDiscordPoint(e=[1.0, 1.0, 0.0], t=0.0, s_plus=[0, 0, 0], s_minus=[0, 0, 0])

    def test_rejects_large_bias(self):
        with pytest.raises(qd.OutsidePhysicalError):
            qd.ZeroDiscordPoint(e=[0, 0, 1.0], t=1.5, s_plus=[0, 0, 0], s_minus=[0, 0, 0])

    def test_mixture_construction_matches_direct(self):
        point = qd.ZeroDiscordPoint.from_mixture([0, 0, 1.0], 0.7, [0.1, 0, 0.2], [0, 0.3, 0])
        assert point.t == pytest.approx(0.4)
        chi = point.to_state()
        proj0 = np.diag([1.0, 0.0]).astype(complex)
        proj1 = np.diag([0.0, 1.0]).astype(complex)
        b1 = 0.5 * (np.eye(2, dtype=complex) + 0.1 * qd.linalg.SIGMA_X + 0.2 * qd.linalg.SIGMA_Z)
        b2 = 0.5 * (np.eye(2, dtype=complex) + 0.3 * qd.linalg.SIGMA_Y)
        direct = 0.7 * np.kron(proj0, b1) + 0.3 * np.kron(proj1, b2)
        assert_allclose(chi.mat, direct, atol=1e-12)


class TestOracle:
    def test_product_state(self, product_mixed):
        assert qd.geometric_discord_oracle(product_mixed, restarts=16) <= 1e-8

    def test_bell_state(self, bell):
        assert qd.geometric_discord_oracle(bell, restarts=16) == pytest.approx(0.5, abs=1e-6)

    def test_matches_closed_form(self):
        for seed in range(10):
            rho = qd.random_density_matrix(2, 2, seed)
            closed = qd.geometric_discord_2q(rho).value
            oracle = qd.geometric_discord_oracle(rho)
            assert abs(oracle - closed) <= 1e-6
            assert oracle >= closed - 1e-8

    def test_deterministic(self, eq4_state):
        a = qd.geometric_discord_oracle(eq4_state, restarts=8, seed=3)
        b = qd.geometric_discord_oracle(eq4_state, restarts=8, seed=3)
        assert a == b

    def test_upper_bound_property(self):
        rho = qd.random_density_matrix(2, 2, 77)
        value = qd.geometric_discord_2q(rho).value
        for seed in range(1000):
            chi = qd.random_zero_discord_state(seed)
            assert qd.hs_distance_sq(rho, chi) >= value - 1e-10

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"maxiter": 0}, {"maxiter": -5}])
    def test_rejects_empty_search(self, bell, kwargs):
        with pytest.raises(qd.ValidationError):
            qd.geometric_discord_oracle(bell, **kwargs)

    def test_one_step_is_allowed(self, bell):
        assert 0.0 <= qd.geometric_discord_oracle(bell, restarts=2, maxiter=1) <= 1.0
