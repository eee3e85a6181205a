import os
import subprocess
import sys

import numpy as np
import pytest

import qdiscord as qd
from qdiscord import _accel
from qdiscord.entropic import _angles_to_dir, _initial_simplices, _pauli_blocks, fibonacci_sphere


def _oracle_simplices(restarts, seed):
    starts = qd.geometric.oracle_starts(restarts, seed)
    return starts[:, None, :] + np.vstack([np.zeros(9), 0.5 * np.eye(9)])


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4)])
def test_scan_matches_conditional_ensemble(dims):
    rho = qd.random_density_matrix(*dims, seed=dims[1])
    g0, gx, gy, gz = _pauli_blocks(rho)
    dirs = fibonacci_sphere(33)
    values = _accel.conditional_entropy_scan(g0, gx, gy, gz, dirs)
    for e, value in zip(dirs, values):
        ens = qd.conditional_ensemble(rho, qd.MeasurementA.from_direction(e))
        expected = sum(p * qd.von_neumann_entropy(s) for p, s in zip(ens.probs, ens.states))
        assert value == pytest.approx(expected, abs=1e-12)


def test_scan_handles_pure_outcomes(bell):
    g0, gx, gy, gz = _pauli_blocks(bell)
    dirs = fibonacci_sphere(64)
    values = _accel.conditional_entropy_scan(g0, gx, gy, gz, dirs)
    # any measurement on one half of a Bell state leaves B pure
    assert np.abs(values).max() <= 1e-10


def test_chi_distance_matches_state_distance():
    rng = np.random.default_rng(4)
    rho = qd.random_density_matrix(2, 2, 88)
    b = qd.bloch_triple(rho)
    z = rng.standard_normal((50, 9))
    z[0, 3:6] = 0.0  # a conditional state at the centre of the ball
    values = _accel.chi_distance_sq(z, b.x, b.y, b.corr)
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


def test_oracle_search_deterministic():
    rho = qd.random_density_matrix(2, 2, 13)
    a = qd.geometric_discord_oracle(rho, restarts=8, maxiter=800)
    b = qd.geometric_discord_oracle(rho, restarts=8, maxiter=800)
    assert a == b


def test_batched_simplices_do_not_interact():
    b = qd.bloch_triple(qd.random_density_matrix(2, 2, 21))

    def fun(z):
        return _accel.chi_distance_sq(z, b.x, b.y, b.corr)

    sim = _oracle_simplices(6, 2)
    f_batch, x_batch = _accel.nelder_mead(fun, sim, 400, 1e-13, 1e-8)
    for k in range(len(sim)):
        f_alone, x_alone = _accel.nelder_mead(fun, sim[k : k + 1], 400, 1e-13, 1e-8)
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
    f_alone, x_alone = _accel.nelder_mead(fun, sim[:1], 300, 1e-13, 1e-10)
    steps_alone = len(calls) - 1
    assert steps_alone < 300  # stopped early: converged
    np.testing.assert_allclose(x_alone[0], 0.3, atol=1e-9)

    calls.clear()
    f_batch, x_batch = _accel.nelder_mead(fun, sim, 300, 1e-13, 1e-10)
    assert len(calls) - 1 >= 300  # the ramp never converges
    assert f_batch[0] == f_alone[0]
    assert np.array_equal(x_batch[0], x_alone[0])
    assert x_batch[1, 0] > 1e6


def test_entropic_refinement_matches_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    for rho in (
        qd.random_density_matrix(2, 2, 3),
        qd.random_density_matrix(2, 3, 8),
        qd.bell_diagonal_state([0.5, -0.3, 0.2]),
        qd.four_nonorthogonal_state(),
    ):
        g0, gx, gy, gz = _pauli_blocks(rho)
        dirs = fibonacci_sphere(qd.entropic.GRID_POINTS)
        values = _accel.conditional_entropy_scan(g0, gx, gy, gz, dirs)
        order = np.argsort(values, kind="stable")
        best = float(values[order[0]])

        def objective(angles):
            return float(
                _accel.conditional_entropy_scan(g0, gx, gy, gz, _angles_to_dir(angles)[None])[0]
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
    rho = qd.random_density_matrix(2, 2, 5)
    g0, gx, gy, gz = _pauli_blocks(rho)
    dirs = fibonacci_sphere(512)
    values = _accel.conditional_entropy_scan(g0, gx, gy, gz, dirs)
    res = qd.classical_correlation_qa(rho, grid_points=512, refine_starts=0)
    assert res.min_conditional_entropy == float(values.min())
    assert np.array_equal(res.best_direction, dirs[int(np.argmin(values))])
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
