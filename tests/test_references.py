"""The test-side references, pinned on values that hold by hand.

Other tests compare the library against these helpers, so a slip in one would
pass unseen there; each helper is checked here on closed forms.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qdiscord as qd
from qdiscord.linalg import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z
from references import (
    chi_distance_sq,
    chi_starts,
    commutator_norm,
    direction_projectors,
    hs_distance_sq,
    qubit_state,
    swap_subsystems,
    zero_discord_mixture,
)


class TestDirectionProjectors:
    @pytest.mark.parametrize("e", [[0.3, -0.4, 0.5], [1.0, 0.0, 0.0], [0.0, -2.0, 0.0]])
    def test_complete_rank_one_projectors(self, e):
        projectors = direction_projectors(e)
        assert projectors.shape == (2, 2, 2)
        assert_allclose(projectors.sum(axis=0), ID2, atol=1e-14)
        for p in projectors:
            assert np.linalg.norm(p @ p - p) <= 1e-12
            assert np.linalg.norm(p - p.conj().T) <= 1e-15
            assert np.trace(p).real == pytest.approx(1.0)

    def test_z_direction(self):
        projectors = direction_projectors([0.0, 0.0, 1.0])
        assert_allclose(projectors[0], np.diag([1.0, 0.0]), atol=1e-15)
        assert_allclose(projectors[1], np.diag([0.0, 1.0]), atol=1e-15)

    def test_length_of_direction_is_ignored(self):
        e = np.array([0.2, 0.5, -0.1])
        assert_allclose(direction_projectors(5.0 * e), direction_projectors(e), atol=1e-15)

    def test_opposite_direction_swaps_outcomes(self):
        e = np.array([0.6, 0.0, -0.8])
        assert_allclose(direction_projectors(-e), direction_projectors(e)[::-1], atol=1e-15)


class TestQubitState:
    def test_z_axis(self):
        assert_allclose(qubit_state([0.0, 0.0, 1.0]), np.diag([1.0, 0.0]), atol=0)
        assert_allclose(qubit_state([0.0, 0.0, 0.0]), ID2 / 2, atol=0)

    def test_bloch_vector_is_read_back(self):
        b = np.array([0.3, -0.5, 0.1])
        rho = qubit_state(b)
        assert np.trace(rho) == pytest.approx(1.0)
        assert_allclose([np.trace(rho @ s).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)], b, atol=1e-15)


class TestZeroDiscordMixture:
    def test_mixture_construction_matches_direct(self):
        chi = zero_discord_mixture([0, 0, 1.0], 0.7, [0.1, 0, 0.2], [0, 0.3, 0])
        proj0 = np.diag([1.0, 0.0]).astype(complex)
        proj1 = np.diag([0.0, 1.0]).astype(complex)
        b1 = 0.5 * (np.eye(2, dtype=complex) + 0.1 * SIGMA_X + 0.2 * SIGMA_Z)
        b2 = 0.5 * (np.eye(2, dtype=complex) + 0.3 * SIGMA_Y)
        direct = 0.7 * np.kron(proj0, b1) + 0.3 * np.kron(proj1, b2)
        assert (chi.dim_a, chi.dim_b) == (2, 2)
        assert_allclose(chi.mat, direct, atol=1e-12)

    # conditional Bloch vectors inside the ball, on its surface and at its centre, with
    # outcome weights inside [0, 1] and at its ends
    @pytest.mark.parametrize(
        "p1, r1, r2",
        [(0.7, 0.4, 0.9), (0.3, 1.0, 0.0), (0.0, 0.5, 1.0), (1.0, 1.0, 0.2)],
        ids=["inside", "surface-centre", "p1-zero", "p1-one"],
    )
    def test_spectrum_is_the_branch_weights(self, p1, r1, r2):
        # P+(e) x beta1 and P-(e) x beta2 have orthogonal supports, so the eigenvalues are
        # p1 (1 +- |b1|)/2 and (1 - p1)(1 +- |b2|)/2
        rng = np.random.default_rng(4)
        e, b1, b2 = rng.standard_normal((3, 3))
        b1 *= r1 / np.linalg.norm(b1)
        b2 *= r2 / np.linalg.norm(b2)
        chi = zero_discord_mixture(e, p1, b1, b2)
        expected = [p1 * (1 - r1) / 2, p1 * (1 + r1) / 2]
        expected += [(1 - p1) * (1 - r2) / 2, (1 - p1) * (1 + r2) / 2]
        assert_allclose(chi.mat, chi.mat.conj().T, atol=0)
        assert_allclose(np.linalg.eigvalsh(chi.mat), np.sort(expected), atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_classical_quantum_state_on_eigenkets(self, seed):
        rng = np.random.default_rng(seed)
        e = rng.standard_normal(3)
        p1 = rng.uniform()
        b1, b2 = rng.uniform(-0.5, 0.5, (2, 3))
        # e.sigma's eigenkets for +|e| and -|e|; eigh sorts the eigenvalues ascending
        _, kets = np.linalg.eigh(e[0] * SIGMA_X + e[1] * SIGMA_Y + e[2] * SIGMA_Z)
        cq = qd.classical_quantum_state(
            [p1, 1.0 - p1], [kets[:, 1], kets[:, 0]], [qubit_state(b1), qubit_state(b2)]
        )
        assert_allclose(zero_discord_mixture(e, p1, b1, b2).mat, cq.mat, atol=1e-15)


class TestChiDistanceSq:
    def test_matches_state_distance(self):
        rng = np.random.default_rng(4)
        rho = qd.random_density_matrix(2, 2, 88)
        b = qd.bloch_triple(rho)
        z = rng.standard_normal((50, 9))
        z[0, 3:6] = 0.0  # a conditional state at the centre of the ball
        values = chi_distance_sq(z, b.x, b.y, b.corr)
        assert values.shape == (50,)

        def ball(v):
            r = np.linalg.norm(v)
            return v * np.tanh(r) / r if r > 1e-12 else v

        for zi, val in zip(z, values):
            theta, phi = zi[0], zi[1]
            e = np.array(
                [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
            )
            p1 = 0.5 * (1.0 + np.tanh(zi[2]))
            chi = zero_discord_mixture(e, p1, ball(zi[3:6]), ball(zi[6:9]))
            assert val == pytest.approx(hs_distance_sq(rho.mat, chi.mat), abs=1e-12)

    def test_bits_do_not_depend_on_memory_layout(self):
        b = qd.bloch_triple(qd.random_density_matrix(2, 2, 31))
        z = np.random.default_rng(6).standard_normal((80, 9))
        wide = np.random.default_rng(7).standard_normal((160, 9))
        wide[::2] = z  # wide[::2] is z as a row slice with a stride of two rows
        values = chi_distance_sq(z, b.x, b.y, b.corr)
        for other in (np.asfortranarray(z), wide[::2]):
            assert np.array_equal(chi_distance_sq(other, b.x, b.y, b.corr), values)

    def test_ball_weight_is_one_at_the_radius_clamp(self):
        # chi_distance_sq clamps the ball radius at 1e-12 and takes tanh(r)/r
        # without a case for r = 0; that holds only while this ratio is exactly 1
        assert np.tanh(1e-12) / 1e-12 == 1.0
        assert np.array_equal(np.tanh(np.full(5, 1e-12)) / 1e-12, np.ones(5))

    def test_starts_draw_in_a_fixed_order(self):
        # theta, phi, tau, then the ball vectors, from one generator
        rng = np.random.default_rng(5)
        theta = np.arccos(rng.uniform(-1.0, 1.0, 6))
        phi = rng.uniform(0.0, 2.0 * np.pi, 6)
        tau = rng.standard_normal(6)
        balls = rng.standard_normal((6, 6))
        expected = np.column_stack([theta, phi, tau, balls])
        assert np.array_equal(chi_starts(6, 5), expected)


class TestHsDistanceSq:
    def test_zero_on_equal(self, bell):
        assert hs_distance_sq(bell.mat, bell.mat) == 0.0

    def test_orthogonal_pure_qubits(self):
        assert hs_distance_sq(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(2.0)

    def test_bell_to_maximally_mixed(self, bell):
        # 1 - 2/4 + 1/4: the purity of the Bell state, the overlap, and that of 1/4
        assert hs_distance_sq(bell.mat, np.eye(4) / 4) == pytest.approx(0.75, abs=1e-14)


class TestCommutatorNorm:
    def test_self_commutes(self):
        assert commutator_norm(SIGMA_X, SIGMA_X) == 0.0

    @pytest.mark.parametrize(
        "a, b", [(SIGMA_X, SIGMA_Y), (SIGMA_Y, SIGMA_Z), (SIGMA_Z, SIGMA_X)], ids=["xy", "yz", "zx"]
    )
    def test_pauli_pairs(self, a, b):
        # [s_i, s_j] = 2i s_k, whose Frobenius norm is 2 sqrt(2)
        assert commutator_norm(a, b) == pytest.approx(2 * np.sqrt(2), abs=1e-14)

    def test_diagonal_matrices(self):
        assert commutator_norm(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0


class TestSwapSubsystems:
    def test_involution(self):
        rho = qd.random_density_matrix(2, 3, 3)
        back = swap_subsystems(swap_subsystems(rho))
        assert (back.dim_a, back.dim_b) == (2, 3)
        assert_allclose(back.mat, rho.mat, atol=0)

    def test_swaps_marginals(self):
        rho = qd.random_density_matrix(2, 3, 4)
        swapped = swap_subsystems(rho)
        assert (swapped.dim_a, swapped.dim_b) == (3, 2)
        assert_allclose(qd.partial_trace(swapped, "A"), qd.partial_trace(rho, "B"), atol=1e-14)
        assert_allclose(qd.partial_trace(swapped, "B"), qd.partial_trace(rho, "A"), atol=1e-14)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 4)], ids=lambda d: f"{d[0]}x{d[1]}")
    def test_reverses_a_product(self, dims):
        a = qd.partial_trace(qd.random_density_matrix(dims[0], 2, 5), "A")
        b = qd.partial_trace(qd.random_density_matrix(dims[1], 2, 6), "A")
        swapped = swap_subsystems(qd.DensityMatrix(np.kron(a, b), *dims))
        assert (swapped.dim_a, swapped.dim_b) == (dims[1], dims[0])
        assert_allclose(swapped.mat, np.kron(b, a), atol=1e-15)
