"""Run one workload in this process: set up, time whole rounds, check outputs.

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S --launched T
        [--trace] [--setup-only] --out DIR

``run.py`` starts this script with ``src`` on ``PYTHONPATH`` and the BLAS
thread count fixed; ``--launched`` is its ``time.monotonic()`` just before the
start, so set-up time counts interpreter start, the import of qdiscord and
the building of the inputs.  The last stdout line is one JSON object.

Each workload is a closed loop with one client: items run one at a time, in
whole rounds, and every round of a workload holds the same item kinds.
``README.md`` describes the workloads and the make-up of their inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference

ORACLE_POOL = 40
ORACLE_RESTARTS = 32

CONSISTENCY_POOL = 40
# 5 items cheaper than a 3x3 full-rank one, 4 full-rank 3x3, 5 that run the
# entropic optimizer: the median item sits in the middle of the 3x3 block.
CONSISTENCY_SLOTS = (
    ("cq", (2, 2)), ("full", (3, 3)), ("cq", (3, 2)), ("full", (2, 2)),
    ("cq", (3, 3)), ("full", (3, 3)), ("bell", (2, 2)), ("full", (3, 2)),
    ("cq", (2, 3)), ("full", (3, 3)), ("cq", (3, 2)), ("full", (2, 3)),
    ("cq", (3, 3)), ("full", (3, 3)),
)  # fmt: skip

DQC1_POOL = 3
# 5 registers below 4 qubits, 6 of 4 qubits, 5 above: the median item sits in
# the middle of the 4-qubit block.
DQC1_SLOTS = (
    ("haar", 2), ("inv", 2), ("haar", 3), ("inv", 3), ("haar", 3),
    ("haar", 4), ("inv", 4), ("haar", 4), ("inv", 4), ("haar", 4), ("inv", 4),
    ("haar", 5), ("inv", 8), ("haar", 8), ("inv", 9), ("haar", 9),
)  # fmt: skip
DQC1_CROSS_CHECK_MAX_N = 5
DQC1_SHOTS = 10**6

CLI_KINDS = ("bell", "cq", "r22", "r33")

_SIGMAS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _random_b_state(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _cq_state(qd, dims, seed):
    """Criterion-05 classical-quantum recipe with the dimensions given."""
    dim_a, dim_b = dims
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, dim_a + 1))
    u = qd.random_unitary(dim_a, seed + 10_000)
    p = rng.uniform(0.05, 1.0, k)
    p /= p.sum()
    states = [_random_b_state(rng, dim_b) for _ in range(k)]
    return qd.classical_quantum_state(p, [u[:, i] for i in range(k)], states)


def _bell_diagonal_t(rng):
    """Uniform point of the tetrahedron, kept off its faces."""
    while True:
        t = rng.uniform(-1.0, 1.0, 3)
        if reference.in_tetrahedron(t, margin=1e-3):
            return t


def _pauli_string(indices, phase):
    out = np.array([[np.exp(1j * phase)]], dtype=complex)
    for i in indices:
        out = np.kron(out, _SIGMAS[i])
    return out


def Item(kind, **inputs):
    """One unit of work with the inputs its check needs."""
    return SimpleNamespace(kind=kind, **inputs)


# --- set-up: each returns the pool of rounds, a round being a list of items ---


def setup_oracle(qd, seed, workdir):
    return [
        [Item("oracle", rho=qd.random_density_matrix(2, 2, 1000 * seed + r))]
        for r in range(ORACLE_POOL)
    ]


def setup_consistency(qd, seed, workdir):
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(CONSISTENCY_POOL):
        items = []
        for kind, dims in CONSISTENCY_SLOTS:
            state_seed = int(rng.integers(2**31))
            if kind == "cq":
                items.append(Item(kind, rho=_cq_state(qd, dims, state_seed), t=None))
            elif kind == "full":
                items.append(Item(kind, rho=qd.random_density_matrix(*dims, state_seed), t=None))
            else:
                t = _bell_diagonal_t(rng)
                items.append(Item(kind, rho=qd.bell_diagonal_state(t), t=t))
        rounds.append(items)
    return rounds


def setup_dqc1(qd, seed, workdir):
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(DQC1_POOL):
        items = []
        for kind, n in DQC1_SLOTS:
            alpha = float(rng.uniform(0.2, 1.0))
            sample_seed = int(rng.integers(2**31))
            if kind == "haar":
                u = qd.random_unitary(2**n, int(rng.integers(2**31)))
                phase = None
            else:
                phase = float(rng.uniform(-np.pi, np.pi))
                u = _pauli_string([int(i) for i in rng.integers(0, 4, n)], phase)
            items.append(Item(kind, n=n, u=u, alpha=alpha, sample_seed=sample_seed, phase=phase))
        rounds.append(items)
    return rounds


def setup_cli(qd, seed, workdir):
    from qdiscord import fileio

    rng = np.random.default_rng(seed)
    states = {
        "bell": qd.bell_state(0),
        "cq": _cq_state(qd, (2, 3), int(rng.integers(2**31))),
        "r22": qd.random_density_matrix(2, 2, int(rng.integers(2**31))),
        "r33": qd.random_density_matrix(3, 3, int(rng.integers(2**31))),
    }
    workdir.mkdir(parents=True, exist_ok=True)
    items = []
    for kind in CLI_KINDS:
        path = workdir / f"cli-{kind}-seed{seed}.json"
        fileio.save_state(states[kind], path)
        items.append(Item(kind, path=str(path), mat=np.array(states[kind].mat)))
    return [items]


# --- one item of work: returns the outputs the check reads ---


def run_oracle(qd, item):
    closed = qd.geometric_discord_2q(item.rho).value
    oracle = qd.geometric_discord_oracle(item.rho, restarts=ORACLE_RESTARTS)
    return {"closed": closed, "oracle": oracle}


def run_consistency(qd, item):
    rho = item.rho
    verdict = qd.zero_discord_test(rho)
    out = {"is_zero": verdict.is_zero_discord, "rank_l": verdict.rank_l}
    if rho.dim_a == 2:
        out["entropic"] = qd.entropic_discord(rho)
    if (rho.dim_a, rho.dim_b) == (2, 2):
        out["closed"] = qd.geometric_discord_2q(rho).value
    return out


def run_dqc1(qd, item):
    inst = qd.Dqc1Instance(n=item.n, alpha=item.alpha, unitary=item.u)
    state = qd.dqc1_output_state(inst)
    estimate = qd.dqc1_sample_trace(inst, DQC1_SHOTS, item.sample_seed)
    verdict = qd.dqc1_classicality_check(item.u)
    out = {
        "readout": qd.dqc1_exact_readout(state, item.alpha),
        "tau_hat": estimate.tau_hat,
        "classical": verdict.zero_discord,
        "phase": verdict.phase,
    }
    if item.n <= DQC1_CROSS_CHECK_MAX_N:
        out["state_zero"] = qd.zero_discord_test(state).is_zero_discord
    return out


def run_cli_process(qd, item):
    proc = subprocess.run(
        [sys.executable, "-m", "qdiscord.cli", "analyze", item.path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    return {"returncode": proc.returncode, "stdout": proc.stdout}


def run_cli_in_process(qd, item):
    from qdiscord import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["analyze", item.path])
    return {"returncode": code, "stdout": buf.getvalue()}


# --- checks against reference values computed without qdiscord ---


def check_oracle(item, out):
    return reference.check_oracle(item.rho.mat, out["closed"], out["oracle"])


def check_consistency(item, out):
    dims = (item.rho.dim_a, item.rho.dim_b)
    return reference.check_consistency(item.kind, dims, item.rho.mat, item.t, out)


def check_dqc1(item, out):
    return reference.check_dqc1(item.u, item.alpha, DQC1_SHOTS, item.phase, out)


def check_cli(item, out):
    return reference.check_cli(item.kind, item.mat, out["returncode"], out["stdout"])


# workload: (set-up, item run in a plain run, item run in a traced run, check)
WORKLOADS = {
    "oracle-corpus": (setup_oracle, run_oracle, run_oracle, check_oracle),
    "consistency-corpus": (setup_consistency, run_consistency, run_consistency, check_consistency),
    "dqc1-register": (setup_dqc1, run_dqc1, run_dqc1, check_dqc1),
    "cli-cold": (setup_cli, run_cli_process, run_cli_in_process, check_cli),
}


def timed_rounds(qd, rounds, run_item, seconds):
    """Run whole rounds until ``seconds`` have passed; at least one round."""
    times, results = [], []
    start = time.monotonic()
    r = 0
    while True:
        for item in rounds[r % len(rounds)]:
            t0 = time.perf_counter()
            try:
                out, error = run_item(qd, item), None
            except Exception as exc:  # a failed item is counted, the run goes on
                out, error = None, f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            results.append((item, out, error))
        r += 1
        if time.monotonic() - start >= seconds:
            break
    return times, results, time.monotonic() - start, r


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import qdiscord as qd

    src = Path(os.environ["QDBENCH_SRC"]).resolve()
    if src not in Path(qd.__file__).resolve().parents:
        print(f"qdiscord imported from {qd.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    setup, run_plain, run_traced, check = WORKLOADS[args.workload]
    rounds = setup(qd, args.seed, args.out)
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    times, results, wall, n_rounds = timed_rounds(
        qd, rounds, run_traced if args.trace else run_plain, args.seconds
    )

    failures, errors = [], []
    for item, out, error in results:
        if error is not None:
            errors.append(f"{item.kind}: {error}")
            continue
        failures.extend(f"{item.kind}: {msg}" for msg in check(item, out))

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" and not args.trace else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "item_times_s": times,
        "wall_s": wall,
        "rounds": n_rounds,
        "attempted": len(results),
        "failed": len(errors),
        "errors": errors[:10],
        "check_failures": failures[:10],
        "correct": not failures,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        tracer.dump(args.out / f"spans-{args.workload}-seed{args.seed}.json")
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
