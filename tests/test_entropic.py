import numpy as np
import pytest
from numpy.testing import assert_allclose

import qdiscord as qd
from qdiscord.entropic import GRID_POINTS, REFINE_ITERS, REFINE_STARTS, conditional_entropy_scan
from qdiscord.geometric import nelder_mead
from qdiscord.linalg import _PAULI_STACK, ID2, a_side_blocks
from sphere_simplex import _angles_to_dir, _initial_simplices


def _random_b_state(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _criterion_05_qubit_cq_states():
    """The d_A = 2 classical-quantum states of acceptance criterion 05, same seeds and draws."""
    out = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        dim_a = int(rng.integers(2, 4))
        dim_b = int(rng.integers(2, 4))
        k = int(rng.integers(2, dim_a + 1))
        if dim_a != 2:
            continue
        u = qd.random_unitary(dim_a, seed + 10_000)
        p = rng.uniform(0.05, 1.0, k)
        p /= p.sum()
        states = [_random_b_state(rng, dim_b) for _ in range(k)]
        out.append(qd.classical_quantum_state(p, [u[:, i] for i in range(k)], states))
    return out


def _pure_conditional_cq_states(dim_b, count, seed):
    """Seeded qubit cq states whose two conditional states of B are pure kets."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        u = qd.random_unitary(2, int(rng.integers(2**31)))
        p = rng.uniform(0.05, 1.0, 2)
        kets = rng.standard_normal((2, dim_b)) + 1j * rng.standard_normal((2, dim_b))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        states = [np.outer(k, k.conj()) for k in kets]
        out.append(qd.classical_quantum_state(p / p.sum(), [u[:, 0], u[:, 1]], states))
    return out


def _bell_diagonal_eigenvalues(t):
    t1, t2, t3 = t
    return np.array(
        [1 - t1 - t2 - t3, 1 - t1 + t2 + t3, 1 + t1 - t2 + t3, 1 + t1 + t2 - t3]
    ) / 4.0


def _inner_tetrahedron_points(seed, count, margin=1e-3):
    """Seeded points of the physical tetrahedron at least ``margin`` from each face.

    The face where eigenvalue lam_k vanishes lies 4 lam_k / sqrt(3) away.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        t = rng.uniform(-1.0, 1.0, 3)
        if 4.0 * _bell_diagonal_eigenvalues(t).min() / np.sqrt(3.0) >= margin:
            out.append(t)
    return out


class _CountedScan:
    """The entropy scan, counting its calls and the directions it evaluates."""

    def __init__(self):
        self.calls = 0
        self.points = 0

    def __call__(self, g0, gx, gy, gz, dirs):
        self.calls += 1
        self.points += len(dirs)
        return conditional_entropy_scan(g0, gx, gy, gz, dirs)


def _full_sphere_minimum(rho, scan):
    """Minimum conditional entropy by the earlier optimizer: the whole lattice,
    then the best REFINE_STARTS points refined to xatol = 1e-10, no settle stop."""
    g0, gx, gy, gz = a_side_blocks(rho, _PAULI_STACK)
    dirs = qd.fibonacci_sphere(GRID_POINTS)
    values = scan(g0, gx, gy, gz, dirs)
    starts = dirs[np.argsort(values, kind="stable")[:REFINE_STARTS]]
    angles = np.column_stack(
        [np.arccos(np.clip(starts[:, 2], -1.0, 1.0)), np.arctan2(starts[:, 1], starts[:, 0])]
    )
    refined, _ = nelder_mead(
        lambda a: scan(g0, gx, gy, gz, _angles_to_dir(a)),
        _initial_simplices(angles),
        REFINE_ITERS,
        fatol=1e-13,
        xatol=1e-10,
    )
    return min(float(values.min()), float(refined.min()))


class TestMeasurementA:
    def test_from_direction_is_complete(self):
        m = qd.MeasurementA.from_direction([0.3, -0.4, 0.5])
        assert_allclose(m.projectors.sum(axis=0), ID2, atol=1e-14)
        for p in m.projectors:
            assert np.linalg.norm(p @ p - p) <= 1e-12
            assert np.trace(p).real == pytest.approx(1.0)

    def test_z_direction(self):
        m = qd.MeasurementA.from_direction([0, 0, 1.0])
        assert_allclose(m.projectors[0], np.diag([1.0, 0.0]), atol=1e-15)

    def test_rejects_incomplete(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(qd.ValidationError):
            qd.MeasurementA(np.stack([p0, p0]))

    def test_rejects_rank_two(self):
        with pytest.raises(qd.ValidationError):
            qd.MeasurementA(np.stack([np.eye(2, dtype=complex), np.zeros((2, 2), complex)]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_projectors(self, bad):
        ops = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        ops[1, 0, 1] = bad
        with pytest.raises(qd.ValidationError, match="finite"):
            qd.MeasurementA(ops)
        with pytest.raises(qd.ValidationError, match="finite"):
            qd.MeasurementA(np.full((2, 2, 2), bad))

    @pytest.mark.parametrize(
        "direction", [[0.0, 0.0, 0.0], [float("nan"), 0.0, 1.0], [float("inf"), 0.0, 0.0]]
    )
    def test_rejects_zero_or_non_finite_direction(self, direction):
        # checked before dividing: pytest would turn a 0/0 RuntimeWarning into an error
        with pytest.raises(qd.ValidationError, match="direction must be finite and nonzero"):
            qd.MeasurementA.from_direction(direction)

    @pytest.mark.parametrize(
        "direction", [[1.0, 0.0], [0.0, 0.0, 1.0, 0.0], 1.0, [[0.0, 0.0, 1.0]]]
    )
    def test_rejects_non_3_vector_direction(self, direction):
        with pytest.raises(qd.DimensionError, match="direction must be a 3-vector"):
            qd.MeasurementA.from_direction(direction)


class TestConditionalEnsemble:
    def test_product_state_conditionals_equal_marginal(self, product_mixed):
        rho_b = qd.partial_trace(product_mixed, "B")
        for direction in ([0, 0, 1.0], [1.0, 0, 0], [0.6, 0.0, 0.8]):
            ens = qd.conditional_ensemble(product_mixed, qd.MeasurementA.from_direction(direction))
            for state in ens.states:
                assert_allclose(state, rho_b, atol=1e-12)

    def test_bell_z_measurement(self, bell):
        ens = qd.conditional_ensemble(bell, qd.MeasurementA.from_direction([0, 0, 1.0]))
        assert_allclose(ens.probs, [0.5, 0.5], atol=1e-14)
        assert_allclose(ens.states[0], np.diag([1.0, 0.0]), atol=1e-14)
        assert_allclose(ens.states[1], np.diag([0.0, 1.0]), atol=1e-14)

    def test_bell_x_measurement_pure_conditionals(self, bell):
        ens = qd.conditional_ensemble(bell, qd.MeasurementA.from_direction([1.0, 0, 0]))
        assert_allclose(ens.probs, [0.5, 0.5], atol=1e-14)
        for state in ens.states:
            purity = np.trace(state @ state).real
            assert purity == pytest.approx(1.0, abs=1e-12)

    def test_mixture_recovers_marginal(self):
        rho = qd.random_density_matrix(2, 3, 5)
        ens = qd.conditional_ensemble(rho, qd.MeasurementA.from_direction([0.1, 0.7, -0.7]))
        assert ens.probs.sum() == pytest.approx(1.0, abs=1e-10)
        mix = sum(p * s for p, s in zip(ens.probs, ens.states))
        assert_allclose(mix, qd.partial_trace(rho, "B"), atol=1e-10)

    def test_zero_probability_outcomes_omitted(self):
        ket = np.zeros(4, dtype=complex)
        ket[0] = 1.0  # |00>, A is pure |0>
        rho = qd.DensityMatrix(np.outer(ket, ket), 2, 2)
        ens = qd.conditional_ensemble(rho, qd.MeasurementA.from_direction([0, 0, 1.0]))
        assert len(ens.probs) == 1
        assert ens.probs[0] == pytest.approx(1.0)

    def test_qutrit_measurement_from_kets(self):
        # the ensemble API covers any measured dimension, only the optimizer
        # is qubit-specific
        rho = qd.random_density_matrix(3, 2, 7)
        u = qd.random_unitary(3, 2)
        m = qd.MeasurementA.from_kets([u[:, k] for k in range(3)])
        ens = qd.conditional_ensemble(rho, m)
        assert ens.probs.sum() == pytest.approx(1.0, abs=1e-10)
        mix = sum(p * s for p, s in zip(ens.probs, ens.states))
        assert_allclose(mix, qd.partial_trace(rho, "B"), atol=1e-10)

    def test_dim_mismatch(self):
        rho = qd.random_density_matrix(3, 2, 1)
        with pytest.raises(qd.DimensionError):
            qd.conditional_ensemble(rho, qd.MeasurementA.from_direction([0, 0, 1.0]))


class TestMutualInformation:
    def test_product_state(self, product_mixed):
        assert abs(qd.mutual_information(product_mixed)) <= 1e-10

    def test_bell_state(self, bell):
        assert qd.mutual_information(bell) == pytest.approx(2.0, abs=1e-10)

    def test_classical_bits(self, classical_bits):
        assert qd.mutual_information(classical_bits) == pytest.approx(1.0, abs=1e-10)

    def test_bounds_random(self):
        for seed in range(10):
            rho = qd.random_density_matrix(2, 3, seed)
            info = qd.mutual_information(rho)
            assert -1e-10 <= info <= 2 * min(1.0, np.log2(3)) + 1e-10

    def test_state_at_the_psd_boundary(self):
        # min eigenvalue -PSD_ATOL is accepted; its B marginal has -2 PSD_ATOL,
        # which von_neumann_entropy refuses on its own, but the marginal of a
        # validated state is not checked again
        eps = qd.linalg.PSD_ATOL
        rho = qd.DensityMatrix(np.diag([1.0 + 2.0 * eps, -eps, 0.0, -eps]), 2, 2)
        with pytest.raises(qd.ValidationError):
            qd.von_neumann_entropy(qd.partial_trace(rho, "B"))
        assert abs(qd.mutual_information(rho)) <= 1e-9
        assert abs(qd.entropic_discord(rho)) <= 1e-9
        # each entropy drops the eigenvalues below its floor, which would leave
        # H(A) + H(B) - H(AB) at about -1.4e-10 here
        assert qd.mutual_information(rho) >= 0.0


class TestPauliBlocks:
    @pytest.mark.parametrize("dim_b", [2, 3, 4])
    def test_equal_sliced_block_sums(self, dim_b):
        for seed in range(20):
            rho = qd.random_density_matrix(2, dim_b, 50 + seed)
            t = rho.blocks()
            r00, r01, r10, r11 = t[0, :, 0, :], t[0, :, 1, :], t[1, :, 0, :], t[1, :, 1, :]
            expected = (r00 + r11, r01 + r10, 1j * (r01 - r10), r00 - r11)
            blocks = a_side_blocks(rho, _PAULI_STACK)
            assert len(blocks) == 4
            for got, want in zip(blocks, expected):
                assert np.array_equal(got, want)


class TestClassicalCorrelation:
    def test_product_state(self, product_mixed):
        assert qd.classical_correlation_qa(product_mixed).value == pytest.approx(0.0, abs=1e-9)

    def test_bell_state(self, bell):
        assert qd.classical_correlation_qa(bell).value == pytest.approx(1.0, abs=1e-4)

    def test_classical_bits_optimum_along_z(self, classical_bits):
        res = qd.classical_correlation_qa(classical_bits)
        assert res.value == pytest.approx(1.0, abs=1e-4)
        assert abs(res.best_direction[2]) == pytest.approx(1.0, abs=1e-3)

    def test_rejects_large_a_side(self):
        with pytest.raises(qd.DimensionError):
            qd.classical_correlation_qa(qd.random_density_matrix(3, 2, 0))

    def test_float_grid_points_accepted(self):
        rho = qd.random_density_matrix(2, 2, 9)
        res = qd.classical_correlation_qa(rho, grid_points=2048.0)
        assert res.min_conditional_entropy == qd.classical_correlation_qa(rho).min_conditional_entropy
        assert res.grid_points == 2048 and type(res.grid_points) is int

    @pytest.mark.parametrize(
        "name, value",
        [
            ("grid_points", float("nan")),
            ("grid_points", float("inf")),
            ("grid_points", 1.5),
            ("grid_points", True),
            ("grid_points", "2048"),
            ("refine_iters", 10.5),
            ("refine_iters", None),
            ("refine_starts", 2.5),
            ("refine_starts", True),
        ],
    )
    def test_rejects_counts_that_are_not_integers(self, name, value):
        rho = qd.random_density_matrix(2, 2, 9)
        with pytest.raises(qd.ValidationError, match=f"^{name} must be an integer"):
            qd.classical_correlation_qa(rho, **{name: value})

    def test_reports_grid_minimum_scans_and_agreeing_starts(self, monkeypatch):
        counted = _CountedScan()
        monkeypatch.setattr(qd.entropic, "conditional_entropy_scan", counted)
        rho = qd.random_density_matrix(2, 3, 12)
        res = qd.classical_correlation_qa(rho)
        assert res.scans == counted.calls > 1
        assert res.min_conditional_entropy < res.grid_minimum
        assert 2 <= res.starts_agreeing <= REFINE_STARTS  # the settle stop fires on two
        grid = qd.classical_correlation_qa(rho, refine_starts=0)
        assert (grid.scans, grid.starts_agreeing) == (1, 0)
        assert grid.grid_minimum == grid.min_conditional_entropy == res.grid_minimum

    def test_entropic_path_makes_no_simplex_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("nelder_mead called")

        monkeypatch.setattr(qd.geometric, "nelder_mead", refuse)
        monkeypatch.setattr(qd.entropic, "nelder_mead", refuse, raising=False)
        rho = qd.random_density_matrix(2, 3, 31)
        assert 0.0 < qd.entropic_discord(rho) <= 1.0

    def test_no_worse_and_cheaper_than_full_sphere_refinement(self, monkeypatch):
        states = _criterion_05_qubit_cq_states()
        states += [s for d in (2, 3) for s in _pure_conditional_cq_states(d, 20, 700 + d)]
        states += [qd.random_density_matrix(2, d, 300 + seed) for d in (2, 3) for seed in range(25)]
        states += [qd.bell_diagonal_state(t) for t in _inner_tetrahedron_points(7, 20)]
        reference = _CountedScan()
        expected = [_full_sphere_minimum(rho, reference) for rho in states]
        counted = _CountedScan()
        monkeypatch.setattr(qd.entropic, "conditional_entropy_scan", counted)
        got = [qd.classical_correlation_qa(rho).min_conditional_entropy for rho in states]
        assert max(g - e for g, e in zip(got, expected)) <= 1e-12
        assert counted.calls < reference.calls
        assert counted.points < reference.points

    def test_grid_refinement_monotone(self):
        for seed in (1, 5):
            rho = qd.random_density_matrix(2, 2, seed)
            minima = [
                qd.classical_correlation_qa(rho, grid_points=n, refine_iters=80)
                .min_conditional_entropy
                for n in (256, 512, 1024, 2048)
            ]
            for coarse, fine in zip(minima, minima[1:]):
                assert fine <= coarse + 1e-9


class TestEntropicDiscord:
    def test_classical_quantum_states_vanish(self, classical_bits):
        assert qd.entropic_discord(classical_bits) <= 1e-6

    def test_bell_state(self, bell):
        assert qd.entropic_discord(bell) == pytest.approx(1.0, abs=1e-4)

    def test_eq4_state_positive_and_grid_checked(self, eq4_state):
        value = qd.entropic_discord(eq4_state)
        assert value > 1e-3
        # independent dense-grid cross-check of the measurement minimum
        coarse = qd.classical_correlation_qa(eq4_state)
        dense = qd.classical_correlation_qa(eq4_state, grid_points=200_000, refine_iters=0)
        assert coarse.min_conditional_entropy <= dense.min_conditional_entropy + 1e-9
        assert coarse.min_conditional_entropy == pytest.approx(
            dense.min_conditional_entropy, abs=1e-5
        )

    def test_bell_diagonal_matches_luo(self):
        # S. Luo, PRA 77, 042303 (2008): for rho = (1 + sum_i t_i sigma_i x sigma_i)/4,
        # I = 2 + sum_k lam_k log2 lam_k and the classical correlation is
        # C = ((1 - c) log2(1 - c) + (1 + c) log2(1 + c))/2 with c = max_i |t_i|
        for t in _inner_tetrahedron_points(2008, 60):
            lam = _bell_diagonal_eigenvalues(t)
            c = np.abs(t).max()
            info = 2.0 + float(np.sum(lam * np.log2(lam)))
            classical = ((1 - c) * np.log2(1 - c) + (1 + c) * np.log2(1 + c)) / 2.0
            got = qd.entropic_discord(qd.bell_diagonal_state(t))
            assert got == pytest.approx(info - classical, abs=1e-12)

    def test_asymmetry(self):
        # classical on A, quantum on B: D_A = 0 while D_B > 0
        plus = np.array([1, 1]) / np.sqrt(2)
        rho = qd.classical_quantum_state(
            [0.5, 0.5],
            [np.array([1, 0]), np.array([0, 1])],
            [np.diag([1.0, 0.0]), np.outer(plus, plus)],
        )
        d_a = qd.entropic_discord(rho)
        d_b = qd.entropic_discord(qd.swap_subsystems(rho))
        assert d_a <= 1e-6
        assert abs(d_a - d_b) > 1e-3

    def test_facet_states_symmetric(self):
        rho = qd.facet_state(1, -1, 1)
        d_a = qd.entropic_discord(rho)
        d_b = qd.entropic_discord(qd.swap_subsystems(rho))
        assert abs(d_a - d_b) <= 1e-6

    def test_agrees_with_commutator_criterion(self, classical_bits, eq4_state, bell):
        catalog = [
            (classical_bits, True),
            (qd.bell_diagonal_state([0.6, 0.0, 0.0]), True),
            (eq4_state, False),
            (bell, False),
            (qd.bell_diagonal_state([0.5, -0.4, 0.1]), False),
        ]
        for rho, classical in catalog:
            verdict = qd.zero_discord_test(rho, tol=1e-6)
            value = qd.entropic_discord(rho)
            assert verdict.is_zero_discord == classical
            assert (value <= 1e-6) == classical
