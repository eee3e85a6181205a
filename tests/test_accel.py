"""Tests of the numeric kernels: the oracle's batched Nelder-Mead and its
9-parameter objective (in ``qdiscord.geometric``), and the measurement-direction
entropy scan (in ``qdiscord.entropic``), whose d_B = 3 spectra are closed-form.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import qdiscord as qd
from qdiscord.entropic import conditional_entropy_scan, fibonacci_sphere
from qdiscord.geometric import chi_distance_sq, nelder_mead
from qdiscord.linalg import ENTROPY_EIG_FLOOR, OUTCOME_FLOOR, _PAULI_STACK, a_side_blocks
from sphere_simplex import _angles_to_dir, _initial_simplices


def _oracle_simplices(restarts, seed):
    starts = qd.geometric.oracle_starts(restarts, seed)
    return starts[:, None, :] + np.vstack([np.zeros(9), 0.5 * np.eye(9)])


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4)])
def test_scan_matches_conditional_ensemble(dims):
    rho = qd.random_density_matrix(*dims, seed=dims[1])
    g0, gx, gy, gz = a_side_blocks(rho, _PAULI_STACK)
    dirs = fibonacci_sphere(33)
    values = conditional_entropy_scan(g0, gx, gy, gz, dirs)
    for e, value in zip(dirs, values):
        ens = qd.conditional_ensemble(rho, qd.MeasurementA.from_direction(e))
        expected = sum(p * qd.von_neumann_entropy(s) for p, s in zip(ens.probs, ens.states))
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


def _qubit_qutrit_state(kind, seed):
    """A seeded 2x3 state of one kind; cq kinds hold mixed or pure conditional states."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return qd.random_density_matrix(2, 3, seed)
    if kind in ("cq mixed", "cq pure"):
        u = qd.random_unitary(2, seed)
        if kind == "cq pure":
            states = [np.outer(k, k.conj()) for k in (_ket(rng, 3), _ket(rng, 3))]
        else:
            states = [_gram(rng, 3, 3), _gram(rng, 3, 3)]
        p = rng.uniform(0.05, 0.95)
        return qd.classical_quantum_state([p, 1.0 - p], [u[:, 0], u[:, 1]], states)
    if kind == "product":
        v = np.kron(_ket(rng, 2), _ket(rng, 3))
        return qd.DensityMatrix(np.outer(v, v.conj()), 2, 3)
    if kind == "maximally mixed":
        return qd.DensityMatrix(np.eye(6) / 6.0, 2, 3)
    return qd.DensityMatrix(_gram(rng, 6, {"rank 1": 1, "rank 2": 2}[kind]), 2, 3)


@pytest.mark.parametrize(
    "kind", ["random", "cq mixed", "cq pure", "rank 1", "rank 2", "product", "maximally mixed"]
)
def test_qutrit_scan_matches_eigvalsh(kind):
    # Smith's closed form above the guard and eigvalsh below it, over both
    # hemispheres of the lattice
    dirs = fibonacci_sphere(qd.entropic.GRID_POINTS)
    for seed in range(6):
        g = a_side_blocks(_qubit_qutrit_state(kind, 70 + seed), _PAULI_STACK)
        values = conditional_entropy_scan(*g, dirs)
        np.testing.assert_allclose(values, _eigvalsh_scan(*g, dirs), rtol=0.0, atol=1e-13)


def test_qutrit_scan_stays_exact_at_pure_conditional_states():
    # without the guard near |r| = 1, rounding splits a pure state's double zero
    # eigenvalue by about 1e-8 and entropic D of these zero-discord states
    # reaches about 1e-10
    for seed in range(40):
        assert qd.entropic_discord(_qubit_qutrit_state("cq pure", seed)) <= 1e-12


def test_chi_distance_matches_state_distance():
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
        chi = qd.ZeroDiscordPoint.from_mixture(e, p1, ball(zi[3:6]), ball(zi[6:9])).to_state()
        assert val == pytest.approx(qd.hs_distance_sq(rho, chi), abs=1e-12)


def test_chi_distance_bits_do_not_depend_on_memory_layout():
    b = qd.bloch_triple(qd.random_density_matrix(2, 2, 31))
    z = np.random.default_rng(6).standard_normal((80, 9))
    wide = np.random.default_rng(7).standard_normal((160, 9))
    wide[::2] = z  # wide[::2] is z as a row slice with a stride of two rows
    values = chi_distance_sq(z, b.x, b.y, b.corr)
    for other in (np.asfortranarray(z), wide[::2]):
        assert np.array_equal(chi_distance_sq(other, b.x, b.y, b.corr), values)


def test_ball_weight_is_one_at_the_radius_clamp():
    # chi_distance_sq clamps the ball radius at 1e-12 and takes tanh(r)/r
    # without a case for r = 0; that holds only while this ratio is exactly 1
    assert np.tanh(1e-12) / 1e-12 == 1.0
    assert np.array_equal(np.tanh(np.full(5, 1e-12)) / 1e-12, np.ones(5))


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


def test_entropic_refinement_matches_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    for rho in (
        qd.random_density_matrix(2, 2, 3),
        qd.random_density_matrix(2, 3, 8),
        qd.bell_diagonal_state([0.5, -0.3, 0.2]),
        qd.four_nonorthogonal_state(),
    ):
        g0, gx, gy, gz = a_side_blocks(rho, _PAULI_STACK)
        dirs = fibonacci_sphere(qd.entropic.GRID_POINTS)
        values = conditional_entropy_scan(g0, gx, gy, gz, dirs)
        order = np.argsort(values, kind="stable")
        best = float(values[order[0]])

        def objective(angles):
            return float(
                conditional_entropy_scan(g0, gx, gy, gz, _angles_to_dir(angles)[None])[0]
            )

        for e in dirs[order[: qd.entropic.REFINE_STARTS]]:
            x0 = np.array([np.arccos(np.clip(e[2], -1.0, 1.0)), np.arctan2(e[1], e[0])])
            res = optimize.minimize(
                objective,
                x0,
                method="Nelder-Mead",
                options={"maxiter": qd.entropic.REFINE_ITERS, "xatol": 1e-10, "fatol": 1e-13},
            )
            best = min(best, float(res.fun))
        got = qd.classical_correlation_qa(rho).min_conditional_entropy
        assert got == pytest.approx(best, abs=1e-12)


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
