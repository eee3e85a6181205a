from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qdiscord as qd
from qdiscord.geometric import nelder_mead
from sphere_simplex import _angles_to_dir


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

    @pytest.mark.parametrize("contains", ["tetrahedron_contains", "octahedron_contains"])
    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
    def test_rejects_bad_tolerance(self, contains, bad):
        # nan would call the origin outside both regions; inf would call every point inside
        with pytest.raises(qd.ValidationError, match="^atol must be finite and >= 0"):
            getattr(qd, contains)([0.0, 0.0, 0.0], atol=bad)

    @pytest.mark.parametrize(
        "func",
        [
            "tetrahedron_contains",
            "octahedron_contains",
            "bell_diagonal_discord",
            "bell_diagonal_state",
        ],
    )
    @pytest.mark.parametrize(
        "t",
        [[0.1, 0.2], [0.1, 0.2, 0.0, 0.0], 0.1, [[0.1, 0.2, 0.0]]],
        ids=["2-vector", "4-vector", "scalar", "row"],
    )
    def test_rejects_t_that_is_not_a_3_vector(self, func, t):
        with pytest.raises(qd.DimensionError, match="^t must be a real 3-vector$"):
            getattr(qd, func)(t)

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


def _dephased(rho, e):
    """rho measured along e on A: sum over +-e of (P x 1) rho (P x 1), built with np.kron."""
    e_sigma = np.tensordot(e, np.stack(qd.linalg.PAULIS), 1)
    out = np.zeros_like(rho.mat)
    for sign in (1.0, -1.0):
        proj = np.kron((np.eye(2) + sign * e_sigma) / 2.0, np.eye(rho.dim_b))
        out += proj @ rho.mat @ proj
    return out


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
        """rho dephased along e_star is a zero-discord state at distance D_G from rho."""
        states = [qd.random_density_matrix(2, 2, seed) for seed in range(20)]
        for seed in range(20):
            psi = qd.random_unitary(4, 400 + seed)[:, 0]
            states.append(qd.DensityMatrix(np.outer(psi, psi.conj()), 2, 2))
        states += [qd.bell_state(i) for i in range(4)]
        for rho in states:
            res = qd.geometric_discord_2q(rho)
            chi = qd.DensityMatrix(_dephased(rho, res.e_star), 2, 2)
            assert qd.zero_discord_test(chi).is_zero_discord
            assert qd.hs_distance_sq(rho, chi) == pytest.approx(res.value, abs=1e-10)

    def test_stationarity_of_minimizer(self):
        for seed in range(10):
            rho = qd.random_density_matrix(2, 2, seed)
            res = qd.geometric_discord_2q(rho)
            b = qd.bloch_triple(rho)
            bc = qd.bloch_triple(qd.DensityMatrix(_dephased(rho, res.e_star), 2, 2))
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


def _dephasing_scan(rho):
    """min over unit e of ||rho - rho dephased along e||^2: Fibonacci grid, then nelder_mead."""

    def distance_sq(dirs):
        return np.array([np.linalg.norm(rho.mat - _dephased(rho, e)) ** 2 for e in dirs])

    grid = qd.fibonacci_sphere(400)
    e0 = grid[np.argmin(distance_sq(grid))]
    start = np.array([np.arccos(e0[2]), np.arctan2(e0[1], e0[0])])
    sim = (start + np.vstack([np.zeros(2), 0.05 * np.eye(2)]))[None]
    best, _ = nelder_mead(lambda a: distance_sq(_angles_to_dir(a)), sim, 2000, 1e-16, 1e-10)
    return float(best[0])


class TestQubitQudit:
    @pytest.mark.parametrize("dim_b", [3, 4, 5])
    def test_matches_dephasing_scan(self, dim_b):
        """The closed form at 2 x d_B against a scan of ||rho - Pi_e(rho)||^2 over e.

        The scan's minimum is the geometric discord only through the lemma of Luo
        and Fu (PRA 82, 034302 (2010)): for a fixed measurement along e, the nearest
        zero-discord state is rho dephased along e.  So this oracle is less
        independent than the 2x2 oracle, which searches the whole zero-discord family.
        """
        for seed in range(5):
            rho = qd.random_density_matrix(2, dim_b, 50 * dim_b + seed)
            res = qd.geometric_discord_2q(rho)
            assert res.value == pytest.approx(_dephasing_scan(rho), abs=1e-12)
            chi = qd.DensityMatrix(_dephased(rho, res.e_star), 2, dim_b)
            assert qd.hs_distance_sq(rho, chi) == pytest.approx(res.value, abs=1e-15)
            assert qd.zero_discord_test(chi).is_zero_discord
            w = np.kron(np.eye(2), qd.random_unitary(dim_b, seed))
            rotated = qd.DensityMatrix(w @ rho.mat @ w.conj().T, 2, dim_b)
            assert qd.geometric_discord_2q(rotated).value == pytest.approx(res.value, abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dephased_dqc1_output_state_is_at_value(self, n):
        """On DQC1 output states, where D_G = alpha^2 (1 - |Tr U^2|/2^n)/2^(n+2), rho
        dephased along e_star is a state at squared distance D_G, and has zero discord."""
        rng = np.random.default_rng(n)
        paulis = (np.eye(2),) + qd.linalg.PAULIS
        pauli_string = reduce(np.kron, [paulis[k] for k in rng.integers(0, 4, n)])
        phased_pauli = np.exp(1j * rng.uniform(-np.pi, np.pi)) * pauli_string
        for u in (qd.random_unitary(2**n, 60 + n), phased_pauli):
            for alpha in (1.0, 0.3):
                rho = qd.dqc1_output_state(qd.Dqc1Instance(n=n, alpha=alpha, unitary=u))
                res = qd.geometric_discord_2q(rho)
                chi = qd.DensityMatrix(_dephased(rho, res.e_star), 2, rho.dim_b)
                assert qd.hs_distance_sq(rho, chi) == pytest.approx(res.value, abs=1e-15)
                if n <= 5:  # zero_discord_test at 2x64 needs gell_mann_basis(64), about 11 s
                    assert qd.zero_discord_test(chi).is_zero_discord

    def test_e_star_has_no_negative_zero(self):
        # DQC1 output states have no sigma_z x . part, so e_star's z component is an exact 0
        for seed in range(8):
            u = qd.random_unitary(4, seed)
            rho = qd.dqc1_output_state(qd.Dqc1Instance(n=2, alpha=0.6, unitary=u))
            e_star = qd.geometric_discord_2q(rho).e_star
            assert e_star[2] == 0.0 and not np.signbit(e_star[2])

    def test_rejects_qutrit_a_side(self):
        with pytest.raises(qd.DimensionError, match="qubit A side"):
            qd.geometric_discord_2q(qd.random_density_matrix(3, 2, 0))


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

    def test_min_eigenvalue_matches_eigvalsh(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            e = rng.standard_normal(3)
            b1, b2 = rng.standard_normal((2, 3))
            # conditional Bloch vectors inside the ball, on its surface, or at its centre
            b1 *= rng.choice([rng.uniform(0, 1), 1.0, 0.0]) / np.linalg.norm(b1)
            b2 *= rng.choice([rng.uniform(0, 1), 1.0, 0.0]) / np.linalg.norm(b2)
            p1 = rng.choice([rng.uniform(0, 1), 0.0, 1.0])
            point = qd.ZeroDiscordPoint.from_mixture(e / np.linalg.norm(e), p1, b1, b2)
            wmin = np.linalg.eigvalsh(point.to_state().mat)[0]
            assert abs(point._min_eigenvalue() - wmin) <= 1e-15

    def test_min_eigenvalue_keeps_the_norm_of_e(self):
        # |e| = 1 + 9e-10 passes the unit check, and with t = 1 the state's
        # minimum eigenvalue is -|e|/4 + 1/4 = -2.25e-10, below -PSD_ATOL
        e = np.array([0.0, 0.0, 1.0 + 9e-10])
        mat = qd.state_from_bloch(e, np.zeros(3), np.zeros((3, 3)))
        assert np.linalg.eigvalsh(mat)[0] == pytest.approx(-2.25e-10, rel=1e-6)
        with pytest.raises(qd.OutsidePhysicalError, match=r"min eigenvalue -2\.25\de-10"):
            qd.ZeroDiscordPoint(e=e, t=1.0, s_plus=np.zeros(3), s_minus=np.zeros(3))

    def test_rejects_slightly_outside_ball(self):
        # lambda_min = (1 - (1 + 5e-10))/4 = -1.25e-10; before, the state was clipped silently
        with pytest.raises(qd.OutsidePhysicalError, match=r"min eigenvalue -1\.25\de-10"):
            qd.ZeroDiscordPoint(e=[0, 0, 1.0], t=0.0, s_plus=[1 + 5e-10, 0, 0], s_minus=[0, 0, 0])

    def test_rejects_non_state_at_construction(self):
        # each s vector lies in the unit ball, but |s+ +- s-| = 1.13 > 1 - |t|
        with pytest.raises(qd.OutsidePhysicalError, match="min eigenvalue"):
            qd.ZeroDiscordPoint(e=[0, 0, 1.0], t=0.0, s_plus=[0.8, 0, 0], s_minus=[0, 0.8, 0])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"e": [float("nan"), 0, 1.0], "t": 0.0},
            {"e": [0, 0, 1.0], "t": float("nan")},
            {"e": [0, 0, 1.0], "t": 0.0, "s_plus": [float("nan"), 0, 0]},
            {"e": [0, 0, 1.0], "t": 0.0, "s_minus": [0, float("nan"), 0]},
        ],
    )
    def test_rejects_nan(self, kwargs):
        kwargs = {"s_plus": [0, 0, 0], "s_minus": [0, 0, 0], **kwargs}
        with pytest.raises(qd.OutsidePhysicalError):
            qd.ZeroDiscordPoint(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"s_plus": 0.9},  # a scalar would broadcast into all three Bloch components
            {"s_minus": 0.0},
            {"s_plus": [0.1, 0, 0, 0]},
            {"s_minus": [0, 0]},
            {"s_plus": [[0.1, 0, 0]]},
            {"e": [0, 0, 1.0, 0]},
            {"e": [1.0, 0]},
            {"e": 1.0},
            {"t": [0.5]},
            {"t": [0.1, 0.2]},
            {"t": 0.5j},
        ],
    )
    def test_rejects_bad_shapes(self, kwargs):
        kwargs = {"e": [0, 0, 1.0], "t": 0.0, "s_plus": [0, 0, 0], "s_minus": [0, 0, 0], **kwargs}
        with pytest.raises(qd.DimensionError, match="must be a 3-vector|must be a real scalar"):
            qd.ZeroDiscordPoint(**kwargs)

    def test_t_is_stored_as_float(self):
        zeros = [0, 0, 0]
        point = qd.ZeroDiscordPoint(e=[0, 0, 1], t=np.float64(0.25), s_plus=zeros, s_minus=zeros)
        assert type(point.t) is float and point.t == 0.25

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
