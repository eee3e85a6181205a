"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line with the measured numbers (run with -s or -rA to see them all).
"""

import itertools
import time

import numpy as np
import pytest

import qdiscord as qd
from parity import criterion_05_states, random_b_state

_SIGMAS = [np.eye(2, dtype=complex), qd.linalg.SIGMA_X, qd.linalg.SIGMA_Y, qd.linalg.SIGMA_Z]


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {num:02d}: {label}{suffix}")
    assert ok, f"criterion {num:02d}: {label}{suffix}"


def _random_tetrahedron_point(rng):
    while True:
        t = rng.uniform(-1, 1, 3)
        if qd.tetrahedron_contains(t):
            return t


def _pauli_string_unitary(indices, phase):
    out = np.array([[np.exp(1j * phase)]], dtype=complex)
    for i in indices:
        out = np.kron(out, _SIGMAS[i])
    return out


def test_criterion_01_bell_geometric_discord():
    qd.geometric_discord_2q(qd.bell_state(0))  # warm caches before timing
    worst_err = 0.0
    worst_ms = 0.0
    for index in range(4):
        rho = qd.bell_state(index)
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            value = qd.geometric_discord_2q(rho).value
            best = min(best, time.perf_counter() - t0)
        worst_err = max(worst_err, abs(value - 0.5))
        worst_ms = max(worst_ms, best * 1e3)
    _report(
        1,
        "Bell states have geometric discord 1/2",
        worst_err <= 1e-12 and worst_ms < 1.0,
        f"max |D - 0.5| = {worst_err:.2e}, max runtime = {worst_ms:.3f} ms",
    )


def test_criterion_02_bell_diagonal_closed_form():
    rng = np.random.default_rng(2024)
    worst = 0.0
    zero_violations = 0
    for _ in range(1000):
        t = _random_tetrahedron_point(rng)
        formula = qd.bell_diagonal_discord(t)
        closed = qd.geometric_discord_2q(qd.bell_diagonal_state(t)).value
        worst = max(worst, abs(formula - closed))
        if (formula == 0.0) != (np.count_nonzero(t) <= 1):
            zero_violations += 1
    for axis_t in ([0.8, 0.0, 0.0], [0.0, -0.6, 0.0], [0.0, 0.0, 0.3], [0.0, 0.0, 0.0]):
        if qd.bell_diagonal_discord(axis_t) != 0.0:
            zero_violations += 1
    _report(
        2,
        "Bell-diagonal formula matches the closed form on 1000 random states",
        worst <= 1e-12 and zero_violations == 0,
        f"max |formula - closed| = {worst:.2e}, zero-set violations = {zero_violations}",
    )


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rho = qd.random_density_matrix(2, 2, seed)
        closed = qd.geometric_discord_2q(rho).value
        oracle = qd.geometric_discord_oracle(rho)
        worst = max(worst, abs(oracle - closed))
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "minimization oracle matches the closed form on 100 random states",
        worst <= 1e-6 and elapsed <= 300.0,
        f"max |oracle - closed| = {worst:.2e}, runtime = {elapsed:.1f} s",
    )


def test_criterion_04_facet_states_and_octahedron_maximum():
    worst_closed = 0.0
    worst_oracle = 0.0
    for signs in itertools.product((1, -1), repeat=3):
        rho = qd.facet_state(*signs)
        worst_closed = max(worst_closed, abs(qd.geometric_discord_2q(rho).value - 1 / 18))
        worst_oracle = max(
            worst_oracle, abs(qd.geometric_discord_oracle(rho, restarts=16) - 1 / 18)
        )

    # grid over the separable octahedron; 89 points per axis puts the edge
    # midpoints (and the facet centers' neighborhoods) on the lattice
    axis = np.linspace(-1.0, 1.0, 89)
    pts = np.array(np.meshgrid(axis, axis, axis, indexing="ij")).reshape(3, -1).T
    inside = np.abs(pts).sum(axis=1) <= 1.0 + 1e-12
    pts = pts[inside]
    sq = pts**2
    values = 0.25 * (sq.sum(axis=1) - sq.max(axis=1))
    grid_max = float(values.max())
    argmax = pts[int(values.argmax())]
    edge_midpoints = np.unique(
        [
            np.array(perm) * signs
            for perm in itertools.permutations([0.5, 0.5, 0.0])
            for signs in itertools.product((1, -1), repeat=3)
        ],
        axis=0,
    )
    dist_to_edge = float(np.min(np.linalg.norm(edge_midpoints - argmax, axis=1)))

    print(
        "    octahedron grid search: "
        f"{pts.shape[0]} points, max D = {grid_max:.6f} at t = {np.round(argmax, 4).tolist()} "
        f"(distance {dist_to_edge:.3f} from the nearest edge midpoint)"
    )
    print(
        "    facet centers (+-1/3, +-1/3, +-1/3) give D = 1/18 ~= 0.0556; the grid maximum "
        "1/16 = 0.0625 sits at edge midpoints such as (1/2, 1/2, 0)."
    )
    print(
        "    the sometimes-quoted separable maximum 1/6 is NOT attained by the "
        "Hilbert-Schmidt formula anywhere in the octahedron."
    )
    ok = (
        worst_closed <= 1e-6
        and worst_oracle <= 1e-6
        and pts.shape[0] >= 100_000
        and abs(grid_max - 1 / 16) <= 1e-6
        and grid_max > 1 / 18
        and grid_max < 1 / 6 - 0.05
        and dist_to_edge <= 0.05
    )
    _report(
        4,
        "facet states give 1/18; octahedron maximum is 1/16 at edge midpoints",
        ok,
        f"facet closed err = {worst_closed:.2e}, oracle err = {worst_oracle:.2e}, "
        f"grid max = {grid_max:.6f}",
    )


def test_criterion_05_criterion_consistency_corpus():
    cq_states, full_rank_states = criterion_05_states(qd)
    cq_failures = 0
    entropic_failures = 0
    computable = 0
    for rho in cq_states:
        if not qd.zero_discord_test(rho).is_zero_discord:
            cq_failures += 1
        if rho.dim_a == 2:
            computable += 1
            if qd.entropic_discord(rho) > 1e-6:
                entropic_failures += 1

    full_rank_passes = 0
    for rho in full_rank_states:
        if qd.zero_discord_test(rho).is_zero_discord:
            full_rank_passes += 1
    ok = cq_failures == 0 and entropic_failures == 0 and full_rank_passes == 0
    _report(
        5,
        "200 classical-quantum states pass, 200 random full-rank states fail",
        ok,
        f"cq failures = {cq_failures}, entropic failures = {entropic_failures}/{computable}, "
        f"false classical verdicts = {full_rank_passes}",
    )


def test_criterion_06_four_nonorthogonal_state():
    rho = qd.four_nonorthogonal_state()
    verdict = qd.zero_discord_test(rho)
    geometric = qd.geometric_discord_2q(rho).value
    entropic = qd.entropic_discord(rho)
    ok = (
        verdict.rank_l > 2
        and verdict.witness_triggered
        and verdict.max_commutator > qd.correlation.COMMUTATOR_TOL
        and not verdict.is_zero_discord
        and geometric > 1e-3
        and entropic > 1e-3
    )
    _report(
        6,
        "four-nonorthogonal-states mixture is discordant by every measure",
        ok,
        f"rank L = {verdict.rank_l}, max commutator = {verdict.max_commutator:.3f}, "
        f"geometric = {geometric:.4f}, entropic = {entropic:.4f}",
    )


def test_criterion_07_entropic_benchmarks():
    bell = qd.bell_state(0)
    classical = qd.classical_quantum_state(
        [0.5, 0.5],
        [np.array([1, 0]), np.array([0, 1])],
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
    )
    qd.entropic_discord(bell)  # warm the kernels before timing

    info = qd.mutual_information(bell)
    t0 = time.perf_counter()
    d_bell = qd.entropic_discord(bell)
    t_bell = time.perf_counter() - t0
    t0 = time.perf_counter()
    d_classical = qd.entropic_discord(classical)
    t_classical = time.perf_counter() - t0
    ok = (
        abs(info - 2.0) <= 1e-10
        and abs(d_bell - 1.0) <= 1e-4
        and d_classical <= 1e-6
        and t_bell < 2.0
        and t_classical < 2.0
    )
    _report(
        7,
        "entropic benchmarks: I(Bell) = 2, D(Bell) = 1, D(classical) = 0",
        ok,
        f"I = {info:.12f}, D_bell = {d_bell:.6f} in {t_bell:.2f} s, "
        f"D_classical = {d_classical:.2e} in {t_classical:.2f} s",
    )


def test_criterion_08_dqc1_exact_readout():
    worst = 0.0
    for seed in range(20):
        u = qd.random_unitary(16, 3000 + seed)
        tau = np.trace(u) / 16
        for alpha in (1.0, 0.5, 0.25):
            inst = qd.Dqc1Instance(n=4, alpha=alpha, unitary=u)
            got = qd.dqc1_exact_readout(qd.dqc1_output_state(inst), alpha)
            worst = max(worst, abs(got - tau))
    _report(
        8,
        "DQC1 readout reproduces Tr(U)/2^n exactly for 20 unitaries x 3 purities",
        worst <= 1e-12,
        f"max |readout - trace| = {worst:.2e}",
    )


def test_criterion_09_dqc1_sampling_overhead():
    t0 = time.perf_counter()
    u = qd.random_unitary(16, 42)
    m = 1_000_000
    se_full = qd.dqc1_sample_trace(
        qd.Dqc1Instance(n=4, alpha=1.0, unitary=u), m, seed=9
    ).std_error
    se_quarter = qd.dqc1_sample_trace(
        qd.Dqc1Instance(n=4, alpha=0.25, unitary=u), m, seed=9
    ).std_error
    elapsed = time.perf_counter() - t0
    ratio = se_quarter / se_full
    ok = abs(ratio - 4.0) <= 1.0 and elapsed < 30.0
    _report(
        9,
        "quartering the control purity quadruples the shot noise",
        ok,
        f"std-error ratio = {ratio:.3f} (expect 4 +- 25%), runtime = {elapsed:.2f} s",
    )


def test_criterion_10_dqc1_classicality():
    rng = np.random.default_rng(77)
    mismatches = 0
    classical_wrong = 0
    for k in range(10):
        n = 1 + k % 4
        indices = [int(i) for i in rng.integers(0, 4, n)]
        phase = float(rng.uniform(-np.pi, np.pi))
        u = _pauli_string_unitary(indices, phase)
        verdict = qd.dqc1_classicality_check(u)
        if not verdict.zero_discord:
            classical_wrong += 1
        inst = qd.Dqc1Instance(n=n, alpha=0.8, unitary=u)
        if verdict.zero_discord != qd.zero_discord_test(qd.dqc1_output_state(inst)).is_zero_discord:
            mismatches += 1

    random_wrong = 0
    for k in range(50):
        n = 1 + k % 4
        u = qd.random_unitary(2**n, 9000 + k)
        verdict = qd.dqc1_classicality_check(u)
        if verdict.zero_discord:
            random_wrong += 1
        inst = qd.Dqc1Instance(n=n, alpha=0.8, unitary=u)
        if verdict.zero_discord != qd.zero_discord_test(qd.dqc1_output_state(inst)).is_zero_discord:
            mismatches += 1
    ok = classical_wrong == 0 and random_wrong == 0 and mismatches == 0
    _report(
        10,
        "classicality test: 10 phased involutions true, 50 Haar unitaries false",
        ok,
        f"classical misses = {classical_wrong}, random false-positives = {random_wrong}, "
        f"state-verdict mismatches = {mismatches}/60",
    )


def test_criterion_11_local_channel_creates_discord():
    classical = qd.classical_quantum_state(
        [0.5, 0.5],
        [np.array([1, 0]), np.array([0, 1])],
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
    )
    before = qd.geometric_discord_2q(classical).value
    plus = np.array([1, 1]) / np.sqrt(2)
    moved = qd.measure_prepare_channel_a(classical, [np.array([1, 0]), plus])
    after = qd.geometric_discord_2q(moved).value
    ok = before <= 1e-12 and after > 1e-3
    _report(
        11,
        "measure-and-prepare with overlap 1/sqrt(2) creates geometric discord",
        ok,
        f"before = {before:.2e}, after = {after:.4f}",
    )


def test_criterion_12_partial_tomography_witness():
    bell_cm = qd.correlation_matrix(qd.bell_state(0))
    proven = False
    for subset in itertools.combinations(range(4), 3):
        rows = [(n, bell_cm.r[n]) for n in subset]
        if qd.partial_rows_witness(rows, 2).discord_proven:
            proven = True
            break

    false_positives = 0
    rng = np.random.default_rng(123)
    for trial in range(500):
        parts = [random_b_state(rng, 2) for _ in range(2)]
        rho = qd.DensityMatrix(np.kron(parts[0], parts[1]), 2, 2)
        cm = qd.correlation_matrix(rho)
        size = int(rng.integers(1, 5))
        subset = rng.choice(4, size=size, replace=False)
        rows = [(int(n), cm.r[int(n)]) for n in subset]
        if qd.partial_rows_witness(rows, 2).discord_proven:
            false_positives += 1
    ok = proven and false_positives == 0
    _report(
        12,
        "three Bell rows certify discord; product rows never do (500 subsets)",
        ok,
        f"bell 3-row subset found = {proven}, product false positives = {false_positives}",
    )
