import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qdiscord as qd
from qdiscord.entropic import GRID_POINTS, REFINE_ITERS, REFINE_STARTS, conditional_entropy_scan
from qdiscord.entropic import fibonacci_sphere
from qdiscord.geometric import nelder_mead
from qdiscord.linalg import ENTROPY_EIG_FLOOR, OUTCOME_FLOOR, _PAULI_STACK, a_side_blocks
from references import conditional_ensemble, direction_projectors, swap_subsystems
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


class TestConditionalEnsemble:
    """The reference ensemble that the entropy scan is checked against."""

    def test_product_state_conditionals_equal_marginal(self, product_mixed):
        rho_b = qd.partial_trace(product_mixed, "B")
        for direction in ([0, 0, 1.0], [1.0, 0, 0], [0.6, 0.0, 0.8]):
            ens = conditional_ensemble(product_mixed, direction_projectors(direction))
            for _, state in ens:
                assert_allclose(state, rho_b, atol=1e-12)

    def test_bell_z_measurement(self, bell):
        (p0, s0), (p1, s1) = conditional_ensemble(bell, direction_projectors([0, 0, 1.0]))
        assert_allclose([p0, p1], [0.5, 0.5], atol=1e-14)
        assert_allclose(s0, np.diag([1.0, 0.0]), atol=1e-14)
        assert_allclose(s1, np.diag([0.0, 1.0]), atol=1e-14)

    def test_bell_x_measurement_pure_conditionals(self, bell):
        ens = conditional_ensemble(bell, direction_projectors([1.0, 0, 0]))
        assert_allclose([p for p, _ in ens], [0.5, 0.5], atol=1e-14)
        for _, state in ens:
            purity = np.trace(state @ state).real
            assert purity == pytest.approx(1.0, abs=1e-12)

    def test_mixture_recovers_marginal(self):
        rho = qd.random_density_matrix(2, 3, 5)
        ens = conditional_ensemble(rho, direction_projectors([0.1, 0.7, -0.7]))
        assert sum(p for p, _ in ens) == pytest.approx(1.0, abs=1e-10)
        mix = sum(p * s for p, s in ens)
        assert_allclose(mix, qd.partial_trace(rho, "B"), atol=1e-10)

    def test_zero_probability_outcomes_omitted(self):
        ket = np.zeros(4, dtype=complex)
        ket[0] = 1.0  # |00>, A is pure |0>
        rho = qd.DensityMatrix(np.outer(ket, ket), 2, 2)
        ens = conditional_ensemble(rho, direction_projectors([0, 0, 1.0]))
        assert len(ens) == 1
        assert ens[0][0] == pytest.approx(1.0)

    def test_qutrit_measurement_from_kets(self):
        # the ensemble covers any measured dimension, only the optimizer is qubit-specific
        rho = qd.random_density_matrix(3, 2, 7)
        u = qd.random_unitary(3, 2)
        ens = conditional_ensemble(rho, np.stack([qd.projector(u[:, k]) for k in range(3)]))
        assert sum(p for p, _ in ens) == pytest.approx(1.0, abs=1e-10)
        mix = sum(p * s for p, s in ens)
        assert_allclose(mix, qd.partial_trace(rho, "B"), atol=1e-10)


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
        d_b = qd.entropic_discord(swap_subsystems(rho))
        assert d_a <= 1e-6
        assert abs(d_a - d_b) > 1e-3

    def test_facet_states_symmetric(self):
        rho = qd.facet_state(1, -1, 1)
        d_a = qd.entropic_discord(rho)
        d_b = qd.entropic_discord(swap_subsystems(rho))
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


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4)])
def test_scan_matches_conditional_ensemble(dims):
    rho = qd.random_density_matrix(*dims, seed=dims[1])
    g0, gx, gy, gz = a_side_blocks(rho, _PAULI_STACK)
    dirs = fibonacci_sphere(33)
    values = conditional_entropy_scan(g0, gx, gy, gz, dirs)
    for e, value in zip(dirs, values):
        ens = conditional_ensemble(rho, direction_projectors(e))
        expected = sum(p * qd.von_neumann_entropy(s) for p, s in ens)
        assert value == pytest.approx(expected, abs=1e-12)


def test_scan_handles_pure_outcomes(bell):
    g0, gx, gy, gz = a_side_blocks(bell, _PAULI_STACK)
    dirs = fibonacci_sphere(64)
    values = conditional_entropy_scan(g0, gx, gy, gz, dirs)
    # any measurement on one half of a Bell state leaves B pure
    assert np.abs(values).max() <= 1e-10


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4)])
def test_scan_is_even_in_the_direction(dims):
    # e and -e give the same two projectors with the outcomes swapped, so the
    # optimizer may scan one hemisphere; the symmetry holds bit for bit
    for seed in range(5):
        rho = qd.random_density_matrix(*dims, seed=40 + seed)
        g0, gx, gy, gz = a_side_blocks(rho, _PAULI_STACK)
        dirs = fibonacci_sphere(257)
        values = conditional_entropy_scan(g0, gx, gy, gz, dirs)
        assert np.array_equal(conditional_entropy_scan(g0, gx, gy, gz, -dirs), values)


def _eigvalsh_scan(g0, gx, gy, gz, dirs):
    """conditional_entropy_scan with LAPACK's eigvalsh on every block, at any d_B."""
    d = g0.shape[0]
    g = (dirs @ np.stack([gx, gy, gz]).reshape(3, d * d)).reshape(-1, d, d)
    w = np.linalg.eigvalsh(0.5 * (g0 + np.stack([g, -g])))
    p = w.sum(axis=-1)
    wn = w / np.maximum(p, OUTCOME_FLOOR)[..., None]
    ent = -np.where(wn > ENTROPY_EIG_FLOOR, wn * np.log2(np.maximum(wn, ENTROPY_EIG_FLOOR)), 0.0)
    return np.where(p > OUTCOME_FLOOR, p * ent.sum(axis=-1), 0.0).sum(axis=0)


def _ket(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _gram(rng, d, rank):
    """G G† / Tr(G G†) for a complex Ginibre G of d x rank."""
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def _qubit_state(kind, seed, d=3):
    """A seeded 2 x d state of one kind; cq kinds hold mixed or pure conditional states."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return qd.random_density_matrix(2, d, seed)
    if kind in ("cq mixed", "cq pure"):
        u = qd.random_unitary(2, seed)
        if kind == "cq pure":
            states = [np.outer(k, k.conj()) for k in (_ket(rng, d), _ket(rng, d))]
        else:
            states = [_gram(rng, d, d), _gram(rng, d, d)]
        p = rng.uniform(0.05, 0.95)
        return qd.classical_quantum_state([p, 1.0 - p], [u[:, 0], u[:, 1]], states)
    if kind == "product":
        v = np.kron(_ket(rng, 2), _ket(rng, d))
        return qd.DensityMatrix(np.outer(v, v.conj()), 2, d)
    if kind == "maximally mixed":
        return qd.DensityMatrix(np.eye(2 * d) / (2.0 * d), 2, d)
    return qd.DensityMatrix(_gram(rng, 2 * d, {"rank 1": 1, "rank 2": 2}[kind]), 2, d)


@pytest.mark.parametrize(
    "kind", ["random", "cq mixed", "cq pure", "rank 1", "rank 2", "product", "maximally mixed"]
)
def test_qutrit_scan_matches_eigvalsh(kind):
    # Smith's closed form above the guard and eigvalsh below it, over both
    # hemispheres of the lattice
    dirs = fibonacci_sphere(qd.entropic.GRID_POINTS)
    for seed in range(6):
        g = a_side_blocks(_qubit_state(kind, 70 + seed), _PAULI_STACK)
        values = conditional_entropy_scan(*g, dirs)
        np.testing.assert_allclose(values, _eigvalsh_scan(*g, dirs), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("kind", ["random", "cq pure", "rank 1", "product", "maximally mixed"])
def test_qubit_scan_matches_eigvalsh(kind):
    # the d_B = 2 closed form on rows, over both hemispheres of the lattice
    dirs = fibonacci_sphere(qd.entropic.GRID_POINTS)
    for seed in range(6):
        g = a_side_blocks(_qubit_state(kind, 70 + seed, d=2), _PAULI_STACK)
        values = conditional_entropy_scan(*g, dirs)
        np.testing.assert_allclose(values, _eigvalsh_scan(*g, dirs), rtol=0.0, atol=1e-13)


def test_qutrit_scan_stays_exact_at_pure_conditional_states():
    # without the guard near |r| = 1, rounding splits a pure state's double zero
    # eigenvalue by about 1e-8 and entropic D of these zero-discord states
    # reaches about 1e-10
    for seed in range(40):
        assert qd.entropic_discord(_qubit_state("cq pure", seed)) <= 1e-12


def test_entropic_refinement_matches_full_sphere_simplex():
    # two-sided: the library's minimum is neither above nor below the reference's
    for rho in (
        qd.random_density_matrix(2, 2, 3),
        qd.random_density_matrix(2, 3, 8),
        qd.bell_diagonal_state([0.5, -0.3, 0.2]),
        qd.four_nonorthogonal_state(),
    ):
        got = qd.classical_correlation_qa(rho).min_conditional_entropy
        assert abs(got - _full_sphere_minimum(rho, conditional_entropy_scan)) <= 1e-12


def test_refine_starts_zero_returns_grid_result():
    dirs = fibonacci_sphere(512)[:256]  # the z >= 0 half of the lattice
    assert dirs[:, 2].min() >= 0.0
    # over the whole sphere, seed 5's grid minimum lies at z > 0 and seed 6's at z < 0
    for seed in (5, 6):
        rho = qd.random_density_matrix(2, 2, seed)
        g0, gx, gy, gz = a_side_blocks(rho, _PAULI_STACK)
        values = conditional_entropy_scan(g0, gx, gy, gz, dirs)
        res = qd.classical_correlation_qa(rho, grid_points=512, refine_starts=0)
        assert res.min_conditional_entropy == float(values.min())
        assert np.array_equal(res.best_direction, dirs[int(np.argmin(values))])
        assert res.best_direction[2] >= 0.0
        assert res.grid_points == 512
        refined = qd.classical_correlation_qa(rho, grid_points=512)
        assert refined.min_conditional_entropy <= res.min_conditional_entropy


def test_best_direction_is_a_fresh_array():
    # the half lattice is cached read-only; a grid point handed out must be a copy
    rho = qd.random_density_matrix(2, 2, 5)
    lattice = qd.entropic._half_lattice(512)
    for starts in (0, qd.entropic.REFINE_STARTS):
        first = qd.classical_correlation_qa(rho, grid_points=512, refine_starts=starts)
        second = qd.classical_correlation_qa(rho, grid_points=512, refine_starts=starts)
        assert first.best_direction.flags.writeable
        assert not np.shares_memory(first.best_direction, lattice)
        assert np.array_equal(first.best_direction, second.best_direction)
        assert (first.value, first.min_conditional_entropy, first.scans) == (
            second.value, second.min_conditional_entropy, second.scans
        )
        first.best_direction[:] = 0.0
        third = qd.classical_correlation_qa(rho, grid_points=512, refine_starts=starts)
        assert np.array_equal(third.best_direction, second.best_direction)


def test_import_leaves_out_scipy_and_numba():
    code = (
        "import sys, qdiscord; "
        "print(sorted(m for m in ('scipy', 'numba') if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(qd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"
