import itertools
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qdiscord as qd
from qdiscord.geometric import _projected_distance_sq, nelder_mead
from references import (
    chi_distance_sq,
    chi_starts,
    hs_distance_sq,
    sample_zero_discord_state,
    zero_discord_mixture,
)
from sphere_simplex import _angles_to_dir, _initial_simplices


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

    @pytest.mark.parametrize(
        "x, y, corr, match",
        [
            (0.5, np.zeros(3), np.zeros((3, 3)), r"^x must have shape \(3,\), got \(\)"),
            (np.zeros(3), np.zeros(2), np.zeros((3, 3)), r"^y must have shape \(3,\), got \(2,\)"),
            (np.zeros(3), np.zeros(3), 0.1, r"^corr must have shape \(3, 3\), got \(\)"),
            (np.zeros(3), np.zeros(3), np.zeros(9), r"^corr must have shape \(3, 3\), got \(9,\)"),
            (np.zeros(4), np.zeros(3), np.zeros((3, 3)), r"^x must have shape \(3,\), got \(4,\)"),
            ([[0.1, 0, 0]], np.zeros(3), np.zeros((3, 3)), r"^x must have shape \(3,\), got \(1, 3\)"),
            (np.zeros(3), 0.0, np.zeros((3, 3)), r"^y must have shape \(3,\), got \(\)"),
            (np.zeros(3), np.zeros(3), np.zeros((3, 4)), r"^corr must have shape \(3, 3\), got \(3, 4\)"),
            (np.zeros(3), np.zeros(3), np.zeros((1, 3, 3)), r"^corr must have shape \(3, 3\), got \(1, 3, 3\)"),
        ],
        ids=["scalar-x", "short-y", "scalar-corr", "flat-corr", "long-x", "row-x", "scalar-y",
             "wide-corr", "stacked-corr"],
    )
    def test_state_from_bloch_rejects_bad_shapes(self, x, y, corr, match):
        # numpy would broadcast a scalar into every entry, and a 9-vector T raised its own error
        with pytest.raises(qd.DimensionError, match=match):
            qd.state_from_bloch(x, y, corr)

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
            assert hs_distance_sq(rho.mat, chi.mat) == pytest.approx(expansion, abs=1e-12)


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
            assert hs_distance_sq(rho.mat, chi.mat) == pytest.approx(res.value, abs=1e-10)

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
            assert hs_distance_sq(rho.mat, chi.mat) == pytest.approx(res.value, abs=1e-15)
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
                assert hs_distance_sq(rho.mat, chi.mat) == pytest.approx(res.value, abs=1e-15)
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


class TestOracle:
    def test_product_state(self, product_mixed):
        assert qd.geometric_discord_oracle(product_mixed, restarts=16) <= 1e-8

    def test_bell_state(self, bell):
        assert qd.geometric_discord_oracle(bell, restarts=16) == pytest.approx(0.5, abs=1e-15)

    def test_matches_closed_form(self):
        for seed in range(10):
            rho = qd.random_density_matrix(2, 2, seed)
            closed = qd.geometric_discord_2q(rho).value
            oracle = qd.geometric_discord_oracle(rho)
            assert abs(oracle - closed) <= 1e-15
            assert oracle >= closed - 1e-8

    def test_zero_discord_states_read_zero_and_never_below(self):
        # the sum of squares is >= 0 by construction; |T|^2 - |T^T e|^2 + ... written out
        # cancels to as low as -2.8e-17 at these states' optimum
        for seed in range(10):
            oracle = qd.geometric_discord_oracle(sample_zero_discord_state(seed))
            assert 0.0 <= oracle <= 1e-12

    @pytest.mark.parametrize("signs", itertools.product((1, -1), repeat=3))
    def test_facet_states(self, signs):
        oracle = qd.geometric_discord_oracle(qd.facet_state(*signs), restarts=16)
        assert abs(oracle - 1 / 18) <= 1e-15

    @pytest.mark.parametrize("restarts", [8, 16, 32])
    def test_batches_stop_before_maxiter(self, monkeypatch, restarts):
        # criterion 03's first 20 states; a batch that runs every step makes at least
        # maxiter + 1 objective calls
        plain = qd.geometric.nelder_mead
        runs = []

        def counting(fun, sim, maxiter, *args, **kwargs):
            counted, calls = _counted(fun)
            result = plain(counted, sim, maxiter, *args, **kwargs)
            runs.append((len(calls), maxiter))
            return result

        monkeypatch.setattr(qd.geometric, "nelder_mead", counting)
        for seed in range(20):
            qd.geometric_discord_oracle(qd.random_density_matrix(2, 2, seed), restarts=restarts)
        assert len(runs) == 20
        assert all(calls - 1 < maxiter for calls, maxiter in runs)

    def test_deterministic(self, eq4_state):
        a = qd.geometric_discord_oracle(eq4_state, restarts=8, seed=3)
        b = qd.geometric_discord_oracle(eq4_state, restarts=8, seed=3)
        assert a == b

    def test_upper_bound_property(self):
        rho = qd.random_density_matrix(2, 2, 77)
        value = qd.geometric_discord_2q(rho).value
        for seed in range(1000):
            chi = sample_zero_discord_state(seed)
            assert hs_distance_sq(rho.mat, chi.mat) >= value - 1e-10

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"maxiter": 0}, {"maxiter": -5}])
    def test_rejects_empty_search(self, bell, kwargs):
        with pytest.raises(qd.ValidationError):
            qd.geometric_discord_oracle(bell, **kwargs)

    def test_one_step_is_allowed(self, bell):
        assert 0.0 <= qd.geometric_discord_oracle(bell, restarts=2, maxiter=1) <= 1.0


def _oracle_simplices(restarts, seed):
    starts = chi_starts(restarts, seed)
    return starts[:, None, :] + np.vstack([np.zeros(9), 0.5 * np.eye(9)])


def _projected_pairs(z, b):
    """The library's (e, t, u, w) at rows z = (theta, phi, tau): a, b = (y +- T^T e)/2
    projected onto the balls of radius p1, p2, one row at a time."""
    out = []
    for theta, phi, tau in z:
        e = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
        t = np.tanh(tau)
        pair = []
        for sign, radius in ((1.0, 0.5 * (1 + t)), (-1.0, 0.5 * (1 - t))):
            target = 0.5 * (b.y + sign * b.corr.T @ e)
            norm = np.linalg.norm(target)
            pair.append(target if norm <= radius else target * (radius / norm))
        out.append((e, t, *pair))
    return out


def _ball_preimage(v):
    """z-block that chi_distance_sq maps to the ball vector v: |v| = tanh(r); r = 20 at
    the surface, where tanh is 1.0 in floating point."""
    r = np.linalg.norm(v)
    if r == 0.0:
        return v
    return v * ((20.0 if r >= 1.0 else np.arctanh(r)) / r)


def _pin_states():
    # random mixed, pure and zero-discord states, so both inactive and active projections occur
    states = [qd.random_density_matrix(2, 2, 90 + seed) for seed in range(3)]
    for seed in range(3):
        psi = qd.random_unitary(4, 500 + seed)[:, 0]
        states.append(qd.DensityMatrix(np.outer(psi, psi.conj()), 2, 2))
    return states + [sample_zero_discord_state(seed) for seed in range(3)]


class TestProjectedDistance:
    def test_below_the_nine_parameter_family_at_any_ball_pair(self):
        rng = np.random.default_rng(8)
        for rho in _pin_states():
            b = qd.bloch_triple(rho)
            z = rng.standard_normal((200, 9))
            reduced = _projected_distance_sq(z[:, :3], b.x, b.y, b.corr)
            assert np.all(reduced <= chi_distance_sq(z, b.x, b.y, b.corr))

    def test_equals_the_nine_parameter_family_at_the_projected_pair(self):
        rng = np.random.default_rng(9)
        active = 0
        for rho in _pin_states():
            b = qd.bloch_triple(rho)
            z = rng.standard_normal((40, 3))
            reduced = _projected_distance_sq(z, b.x, b.y, b.corr)
            for zi, val, (e, t, u, w) in zip(z, reduced, _projected_pairs(z, b)):
                p1, p2 = 0.5 * (1 + t), 0.5 * (1 - t)
                z9 = np.concatenate([zi, _ball_preimage(u / p1), _ball_preimage(w / p2)])
                assert abs(val - chi_distance_sq(z9[None], b.x, b.y, b.corr)[0]) <= 1e-15
                active += np.linalg.norm(u) >= p1 * (1 - 1e-12)
        assert 0 < active < 9 * 40  # some projections clip to the sphere and some do not

    def test_is_attained_by_an_explicit_zero_discord_state(self):
        rng = np.random.default_rng(10)
        for rho in _pin_states():
            b = qd.bloch_triple(rho)
            z = rng.standard_normal((20, 3))
            reduced = _projected_distance_sq(z, b.x, b.y, b.corr)
            for val, (e, t, u, w) in zip(reduced, _projected_pairs(z, b)):
                p1, p2 = 0.5 * (1 + t), 0.5 * (1 - t)
                chi = zero_discord_mixture(e, p1, u / p1, w / p2)
                assert abs(val - hs_distance_sq(rho.mat, chi.mat)) <= 1e-15

    def test_bits_do_not_depend_on_memory_layout(self):
        b = qd.bloch_triple(qd.random_density_matrix(2, 2, 31))
        z = np.random.default_rng(6).standard_normal((80, 3))
        wide = np.random.default_rng(7).standard_normal((160, 3))
        wide[::2] = z  # wide[::2] is z as a row slice with a stride of two rows
        values = _projected_distance_sq(z, b.x, b.y, b.corr)
        for other in (np.asfortranarray(z), wide[::2]):
            assert np.array_equal(_projected_distance_sq(other, b.x, b.y, b.corr), values)

    def test_starts_are_the_first_columns_of_the_nine_parameter_starts(self):
        for restarts, seed in [(1, 0), (8, 3), (32, 0)]:
            starts = qd.geometric.oracle_starts(restarts, seed)
            assert starts.shape == (restarts, 3)
            assert np.array_equal(starts, chi_starts(restarts, seed)[:, :3])


@pytest.mark.parametrize("n", [2, 9])
def test_trial_points_are_the_centroid_formula(n):
    # one step of nelder_mead evaluates cen + c (v - cen) for each moved
    # vertex v and each c of reflection, expansion and both contractions
    rng = np.random.default_rng(n)
    sim = 10.0 * rng.standard_normal((5, n + 1, n)) + 100.0
    seen = []

    def fun(x):
        seen.append(x.copy())
        return (x * x).sum(axis=1) + x[:, 0]

    nelder_mead(fun, sim, 1, -1.0, -1.0)
    order = np.argsort(fun(seen[0]).reshape(5, n + 1), axis=1)
    ordered = np.take_along_axis(sim, order[..., None], axis=1)
    p = max(1, n // 3)
    cen = ordered[:, : n + 1 - p].mean(axis=1)[:, None, None, :]
    contract = 0.75 - 0.5 / n
    coefs = np.array([-1.0, -(1.0 + 2.0 / n), -contract, contract])[:, None]
    expected = cen + coefs * (ordered[:, n + 1 - p :, None, :] - cen)
    got = seen[1].reshape(5, p, 4, n)
    atol = 8.0 * np.finfo(float).eps * np.abs(sim).max()
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=atol)


def test_oracle_search_deterministic():
    rho = qd.random_density_matrix(2, 2, 13)
    a = qd.geometric_discord_oracle(rho, restarts=8, maxiter=800)
    b = qd.geometric_discord_oracle(rho, restarts=8, maxiter=800)
    assert a == b


def test_batched_simplices_do_not_interact():
    b = qd.bloch_triple(qd.random_density_matrix(2, 2, 21))

    def fun(z):
        return chi_distance_sq(z, b.x, b.y, b.corr)

    sim = _oracle_simplices(6, 2)
    f_batch, x_batch = nelder_mead(fun, sim, 400, 1e-13, 1e-8)
    for k in range(len(sim)):
        f_alone, x_alone = nelder_mead(fun, sim[k : k + 1], 400, 1e-13, 1e-8)
        assert f_alone[0] == f_batch[k]
        assert np.array_equal(x_alone[0], x_batch[k])


def test_simplex_freezes_converged_starts():
    # a bowl around 0.3 next to a ramp that falls without end for x0 > 50:
    # the bowl's simplex converges, then stays as it was while the ramp's
    # simplex keeps expanding for every remaining step
    calls = []

    def fun(x):
        calls.append(len(x))
        return np.where(x[:, 0] > 50.0, -x[:, 0], ((x - 0.3) ** 2).sum(axis=1))

    sim = _initial_simplices(np.array([[1.0, -2.0], [100.0, 1.0]]))
    f_alone, x_alone = nelder_mead(fun, sim[:1], 300, 1e-13, 1e-10)
    steps_alone = len(calls) - 1
    assert steps_alone < 300  # stopped early: converged
    np.testing.assert_allclose(x_alone[0], 0.3, atol=1e-9)

    calls.clear()
    f_batch, x_batch = nelder_mead(fun, sim, 300, 1e-13, 1e-10)
    assert len(calls) - 1 >= 300  # the ramp never converges
    assert f_batch[0] == f_alone[0]
    assert np.array_equal(x_batch[0], x_alone[0])
    assert x_batch[1, 0] > 1e6


def _counted(fun):
    calls = []

    def counted(x):
        calls.append(len(x))
        return fun(x)

    return counted, calls


def _oracle_objective(seed):
    b = qd.bloch_triple(qd.random_density_matrix(2, 2, seed))
    return lambda z: chi_distance_sq(z, b.x, b.y, b.corr)


def test_settle_stops_oracle_early_with_same_minimum():
    sim = _oracle_simplices(32, 0)
    for seed in range(5):  # criterion 03's first states
        full, full_calls = _counted(_oracle_objective(seed))
        settled, settled_calls = _counted(_oracle_objective(seed))
        f_full, _ = nelder_mead(full, sim, 1500, 1e-13, 1e-8)
        f_settled, _ = nelder_mead(settled, sim, 1500, 1e-13, 1e-8, settle=2)
        assert len(settled_calls) < len(full_calls)
        assert abs(f_settled.min() - f_full.min()) <= 1e-15


def _three_basins(gap, floor):
    # bowl A (minimum 0 near the origin), bowl B (minimum `gap` near x0 = 50)
    # and a Rosenbrock valley (minimum `floor` near x0 = 100) that its
    # simplex descends far more slowly than the bowls'
    def fun(x):
        x0, x1 = x[:, 0], x[:, 1]
        bowl_a = (x0 - 0.3) ** 2 + (x1 - 0.3) ** 2
        bowl_b = (x0 - 50.3) ** 2 + (x1 - 0.3) ** 2 + gap
        u = x0 - 100.0
        valley = floor + (1.0 - u) ** 2 + 100.0 * (x1 - u * u) ** 2
        return np.where(x0 < 25.0, bowl_a, np.where(x0 < 75.0, bowl_b, valley))

    starts = np.array([[1.0, -2.0], [51.0, -2.0], [98.8, 1.0]])
    return fun, starts[:, None, :] + np.vstack([np.zeros(2), 0.5 * np.eye(2)])


def _run_both(fun, sim, maxiter=2000):
    plain, plain_calls = _counted(fun)
    settled, settled_calls = _counted(fun)
    f0, x0 = nelder_mead(plain, sim, maxiter, 1e-13, 1e-10)
    f2, x2 = nelder_mead(settled, sim, maxiter, 1e-13, 1e-10, settle=2)
    return (f0, x0, len(plain_calls)), (f2, x2, len(settled_calls))


def test_settle_stops_when_two_frozen_agree_below_the_rest():
    # control for the two tests below: the bowls agree and the valley is above
    (f0, _, calls0), (f2, x2, calls2) = _run_both(*_three_basins(gap=0.0, floor=5.0))
    assert calls2 < calls0
    assert f2.min() == f0.min()
    assert f2[2] > 5.0  # the valley's simplex stopped where it stood
    np.testing.assert_allclose(x2[:2], [[0.3, 0.3], [50.3, 0.3]], atol=1e-9)


def test_settle_waits_for_a_simplex_descending_below_the_frozen():
    (f0, x0, calls0), (f2, x2, calls2) = _run_both(*_three_basins(gap=0.0, floor=-5.0))
    assert calls2 == calls0
    assert np.array_equal(f2, f0) and np.array_equal(x2, x0)
    assert f2.min() < -4.0


def test_settle_needs_frozen_values_to_agree_within_fatol():
    (f0, x0, calls0), (f2, x2, calls2) = _run_both(*_three_basins(gap=1e-9, floor=5.0))
    assert calls2 == calls0
    assert np.array_equal(f2, f0) and np.array_equal(x2, x0)


def test_settle_with_one_restart_is_the_plain_run():
    sim = _oracle_simplices(1, 3)
    (f0, x0, calls0), (f2, x2, calls2) = _run_both(_oracle_objective(7), sim, 1500)
    assert calls2 == calls0
    assert np.array_equal(f2, f0) and np.array_equal(x2, x0)


def test_settle_survives_flat_steps_before_any_freeze():
    # a constant objective makes every simplex flat from the first step, long
    # before shrinking brings any of them within xatol
    sim = _oracle_simplices(3, 1)
    (f0, x0, calls0), (f2, x2, calls2) = _run_both(lambda z: np.zeros(len(z)), sim, 300)
    assert calls2 == calls0
    assert np.array_equal(x2, x0)


@pytest.mark.parametrize("restarts, seed", [(16, 5), (16, 30), (8, 48), (8, 82), (8, 86)])
def test_oracle_batches_stop_before_maxiter(restarts, seed):
    # criterion 03's states that once ran into maxiter = 1500 at these restart
    # counts; a batch that stops on its own gives the same answer with more room
    sim = _oracle_simplices(restarts, 0)
    runs = []
    for maxiter in (1500, 3000):
        fun, calls = _counted(_oracle_objective(seed))
        f, x = nelder_mead(fun, sim, maxiter, 1e-13, 1e-8, settle=2)
        runs.append((f, x, len(calls)))
    (f0, x0, calls0), (f1, x1, calls1) = runs
    assert calls0 == calls1 < 1500
    assert np.array_equal(f0, f1) and np.array_equal(x0, x1)


def test_simplex_converges_on_a_9d_quadratic():
    # the oracle's dimension, without its objective: a convex quadratic with
    # condition number 100 and a known minimizer
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
    hess = (q * np.logspace(0, 2, 9)) @ q.T
    xmin = rng.standard_normal(9)

    def quadratic(x):
        d = x - xmin
        return np.einsum("mi,ij,mj->m", d, hess, d)

    fun, calls = _counted(quadratic)
    starts = 3.0 * rng.standard_normal((4, 9))
    sim = starts[:, None, :] + np.vstack([np.zeros(9), 0.5 * np.eye(9)])
    f, x = nelder_mead(fun, sim, 3000, 1e-13, 1e-8)
    assert len(calls) - 1 < 3000  # every simplex froze before maxiter
    assert np.abs(x - xmin).max() <= 1e-6
    assert f.max() <= 1e-12
