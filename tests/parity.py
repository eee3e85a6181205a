"""Results of two source trees on one seeded corpus, field by field.

    python3 tests/parity.py --base REV [--small]

REV is a git revision of this repository, exported with ``git archive`` from
local git only, or a directory that holds a checkout (a directory wins when
both exist).  The other side is the working tree that holds this script.  Each
side runs the corpus that this script builds, in a fresh process with its own
``src`` first on ``PYTHONPATH`` and one BLAS thread, so both sides draw the
states with their own library.  The JSON report goes to stdout.

For each field the report gives how many values were compared and how many are
bit-identical.  For numbers it adds the largest absolute difference and the
largest absolute value on each side; for booleans, integers and strings
(``state.sha256`` hashes the state's matrix) it lists every flip with its
state.  ``identical`` is true when every value of every state is.

The corpus: criterion 05's 400 states; random and classical-quantum states at
{2, 3, 4} x {2, 3, 4, 5, 8, 9, 16}; Bell-diagonal and facet states; DQC1
output states of Haar and phased Pauli-string unitaries at n = 2..9 qubits
(alpha = 0.6); and criterion 03's 100 states with the 2x2 oracle's value and
its gap to the closed form.  ``--small`` keeps a few states of each group, for
a run of about a second.

Both sides run this script's corpus and fields.  The corpus is drawn with numpy
and the state constructors only (``random_density_matrix``, ``random_unitary``,
``classical_quantum_state``, ``bell_diagonal_state``, ``facet_state``,
``Dqc1Instance`` and ``dqc1_output_state``), so it imports nothing from the
test suite.  The fields call the library's analyses by name; when a change
renames or removes one of those names, or an attribute of its result, the base
side stops with a traceback and no report is printed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import pickle
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
DIMS_A = (2, 3, 4)
DIMS_B = (2, 3, 4, 5, 8, 9, 16)
# the Bell-diagonal tetrahedron's vertices: the sign vectors whose product is -1
TETRAHEDRON = np.array([(1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1)], dtype=float)
PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def random_b_state(rng, d):
    """A random d x d density matrix, g g^dagger / Tr for a complex Gaussian g."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _random_cq_state(qd, seed):
    rng = np.random.default_rng(seed)
    dim_a = int(rng.integers(2, 4))
    dim_b = int(rng.integers(2, 4))
    k = int(rng.integers(2, dim_a + 1))
    u = qd.random_unitary(dim_a, seed + 10_000)
    p = rng.uniform(0.05, 1.0, k)
    p /= p.sum()
    states = [random_b_state(rng, dim_b) for _ in range(k)]
    return qd.classical_quantum_state(p, [u[:, i] for i in range(k)], states)


def criterion_05_states(qd):
    """Criterion 05's corpus: 200 classical-quantum states, then 200 random full-rank states."""
    cq = [_random_cq_state(qd, seed) for seed in range(200)]
    rng = np.random.default_rng(55)
    full = []
    for seed in range(200):
        dim_a = int(rng.integers(2, 4))
        dim_b = int(rng.integers(2, 4))
        full.append(qd.random_density_matrix(dim_a, dim_b, 5000 + seed))
    return cq, full


def _criterion_fields(qd, rho):
    """One state's fields: the criterion's; the closed form's at d_A = 2; the entropic
    optimizer's and the mutual information at d_A = 2, d_B <= 4."""
    verdict = qd.zero_discord_test(rho)
    cm = qd.correlation_matrix(rho)
    fields = {
        "state.sha256": hashlib.sha256(np.ascontiguousarray(rho.mat).tobytes()).hexdigest(),
        "criterion.is_zero_discord": bool(verdict.is_zero_discord),
        "criterion.rank_l": int(verdict.rank_l),
        "criterion.witness_triggered": bool(verdict.witness_triggered),
        "criterion.max_commutator": float(verdict.max_commutator),
        "criterion.r": np.array(cm.r, dtype=float),
        "criterion.singulars": np.array(cm.singulars, dtype=float),
    }
    if rho.dim_a == 2:
        closed = qd.geometric_discord_2q(rho)
        fields["closed.value"] = float(closed.value)
        fields["closed.k_max"] = float(closed.k_max)
        fields["closed.e_star"] = np.array(closed.e_star, dtype=float)
    if rho.dim_a == 2 and rho.dim_b <= 4:
        c = qd.classical_correlation_qa(rho)
        d = np.array(c.best_direction, dtype=float)
        d *= np.sign(d[np.flatnonzero(np.abs(d) > 1e-12)[0]])  # a direction up to sign
        fields["entropic.min_conditional_entropy"] = float(c.min_conditional_entropy)
        fields["entropic.best_direction"] = d + 0.0
        fields["entropic.scans"] = int(c.scans)
        fields["entropic.starts_agreeing"] = int(c.starts_agreeing)
        fields["entropic.mutual_information"] = float(qd.mutual_information(rho))
    return fields


def _states(qd, small):
    """(name, state) pairs of every group but DQC1 and the oracle's."""
    keep = 3 if small else None
    cq, full = criterion_05_states(qd)
    yield from ((f"criterion05/cq/{k}", rho) for k, rho in enumerate(cq[:keep]))
    yield from ((f"criterion05/random/{k}", rho) for k, rho in enumerate(full[:keep]))
    for dim_a in DIMS_A[:2] if small else DIMS_A:
        for dim_b in DIMS_B[:2] if small else DIMS_B:
            for k in range(1 if small else 2):
                seed = 1000 * dim_a + 10 * dim_b + k
                yield f"random/{dim_a}x{dim_b}/{k}", qd.random_density_matrix(dim_a, dim_b, seed)
                rng = np.random.default_rng(seed)
                u = qd.random_unitary(dim_a, seed)
                p = rng.uniform(0.05, 1.0, dim_a)
                states = [random_b_state(rng, dim_b) for _ in range(dim_a)]
                yield f"cq/{dim_a}x{dim_b}/{k}", qd.classical_quantum_state(
                    p / p.sum(), list(u.T), states
                )
    rng = np.random.default_rng(19)
    for k in range(2 if small else 10):
        yield f"bell-diagonal/{k}", qd.bell_diagonal_state(rng.dirichlet(np.ones(4)) @ TETRAHEDRON)
    for k, signs in enumerate(list(itertools.product((1, -1), repeat=3))[: 2 if small else 8]):
        yield f"facet/{k}", qd.facet_state(*signs)


def _registers(qd, small):
    """(name, n, U) for the DQC1 group: a Haar U and a phased Pauli string at each n."""
    for n in range(2, 4 if small else 10):
        yield f"dqc1/haar/{n}", n, qd.random_unitary(2**n, n)
        indices = np.random.default_rng(n).integers(0, 4, n)
        pauli = functools.reduce(np.kron, PAULIS[indices])
        yield f"dqc1/pauli/{n}", n, np.exp(0.7j) * pauli


def _records(small: bool) -> dict:
    """{state name: {field: value}} computed with the qdiscord first on the path."""
    import qdiscord as qd

    out = {name: _criterion_fields(qd, rho) for name, rho in _states(qd, small)}
    for name, n, u in _registers(qd, small):
        rho = qd.dqc1_output_state(qd.Dqc1Instance(n=n, alpha=0.6, unitary=u))
        fields = _criterion_fields(qd, rho)
        check = qd.dqc1_classicality_check(u)
        fields["dqc1.zero_discord"] = bool(check.zero_discord)
        fields["dqc1.trace_u2"] = np.array([check.trace_u2.real, check.trace_u2.imag])
        out[name] = fields
    for seed in range(2 if small else 100):
        rho = qd.random_density_matrix(2, 2, seed)
        fields = _criterion_fields(qd, rho)
        fields["oracle.value"] = float(qd.geometric_discord_oracle(rho))
        fields["oracle.gap"] = fields["oracle.value"] - fields["closed.value"]
        out[f"criterion03/{seed}"] = fields
    return out


def _same_bits(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    return type(a) is type(b) and a == b


def _numeric(value) -> bool:
    return isinstance(value, (float, np.ndarray))


def compare(base: dict, head: dict) -> dict:
    """Per-field summary of two {state: {field: value}} maps, and the states one side lacks."""
    fields: dict = {}
    for state in sorted(base.keys() & head.keys()):
        a, b = base[state], head[state]
        for name in sorted(a.keys() | b.keys()):
            x, y = a.get(name), b.get(name)
            entry = fields.setdefault(name, {"compared": 0, "identical": 0})
            entry["compared"] += 1
            if _same_bits(x, y):
                entry["identical"] += 1
            if _numeric(x) and _numeric(y) and np.shape(x) == np.shape(y):
                diff = float(np.max(np.abs(np.subtract(x, y)), initial=0.0))
                entry["max_abs_diff"] = max(entry.get("max_abs_diff", 0.0), diff)
                top = entry.setdefault("max_abs", {"base": 0.0, "head": 0.0})
                top["base"] = max(top["base"], float(np.max(np.abs(x), initial=0.0)))
                top["head"] = max(top["head"], float(np.max(np.abs(y), initial=0.0)))
            elif not _same_bits(x, y):
                shown = [np.shape(v) if _numeric(v) else v for v in (x, y)]
                entry.setdefault("flips", []).append(
                    {"state": state, "base": shown[0], "head": shown[1]}
                )
    missing = {
        "base": sorted(head.keys() - base.keys()),
        "head": sorted(base.keys() - head.keys()),
    }
    identical = not (missing["base"] or missing["head"]) and all(
        e["identical"] == e["compared"] for e in fields.values()
    )
    return {
        "identical": identical,
        "states": len(base.keys() & head.keys()),
        "missing": missing,
        "fields": dict(sorted(fields.items())),
    }


def source_tree(rev: str, tmp: Path) -> tuple[Path, str | None]:
    """(directory holding src/qdiscord, commit or None): REV as a directory, else its
    ``git archive`` unpacked into tmp."""
    if Path(rev).is_dir():
        return Path(rev).resolve(), None
    git = ["git", "-C", str(REPO)]
    found = subprocess.run(
        git + ["rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        capture_output=True,
        text=True,
    )
    if found.returncode:
        raise SystemExit(f"--base {rev}: neither a directory nor a git revision of {REPO}")
    commit = found.stdout.strip()
    archive = subprocess.run(git + ["archive", commit], capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
    return tmp, commit


def _run_side(tree: Path, out: Path, small: bool) -> tuple[dict, float]:
    """Records of the qdiscord in tree/src, computed in a fresh process; and its seconds."""
    path = filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, __file__, "--worker", str(out)]
    cmd += ["--small"] * small
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, check=True)
    seconds = time.perf_counter() - t0
    with open(out, "rb") as fh:
        module, records = pickle.load(fh)
    if Path(module).resolve().parent != (tree / "src" / "qdiscord").resolve():
        raise SystemExit(f"the worker imported {module}, not the tree at {tree}")
    return records, seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision or directory to compare against")
    parser.add_argument("--small", action="store_true", help="a few states of each group")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        import qdiscord

        records = _records(args.small)
        with open(args.worker, "wb") as fh:
            pickle.dump((qdiscord.__file__, records), fh)
        return
    if args.base is None:
        parser.error("--base is required")
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = Path(tmp)
        (tmp / "base").mkdir()
        base_tree, commit = source_tree(args.base, tmp / "base")
        base, base_s = _run_side(base_tree, tmp / "base.pkl", args.small)
        head, head_s = _run_side(REPO, tmp / "head.pkl", args.small)
    report = {
        "base": args.base,
        "base_commit": commit,
        "corpus": "small" if args.small else "full",
        "seconds": {"base": round(base_s, 2), "head": round(head_s, 2)},
        **compare(base, head),
    }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
