"""The test-side references, pinned on values that hold by hand.

Other tests compare the library against these helpers, so a slip in one would
pass unseen there; each helper is checked here on closed forms.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qdiscord as qd
from qdiscord.linalg import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z
from references import commutator_norm, direction_projectors, hs_distance_sq, swap_subsystems


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
