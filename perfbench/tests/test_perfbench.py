"""Tests of the benchmark itself: short runs, the checks, the reference values.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import qdiscord as qd  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_one_round_passes_every_check(workload, seed):
    res = bench("--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "0")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", ["consistency-corpus", "cli-cold"])
def test_traced_round_reports_every_layer(workload):
    res = bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1")
    assert res["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = res["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == want
    calls = {k[: -len(".calls")]: v["value"] for k, v in metrics.items() if k.endswith(".calls")}
    assert calls["correlation.zero_discord_test"] == calls["correlation.correlation_matrix"] > 0
    assert calls["basis.gell_mann_basis"] == 2 * calls["correlation.correlation_matrix"]
    assert calls["entropic.grid"] == calls["entropic.refine"] > 0
    assert calls["geometric.geometric_discord_oracle"] == 0
    if workload == "cli-cold":
        assert calls["cli.main"] == calls["fileio.load_state"] == calls["fileio.dumps_report"] == 4
    assert metrics["import.qdiscord_s"]["value"] > 0
    assert 0.0 <= metrics["entropic.refine_useful_ratio"]["value"] <= 1.0


def _first(rounds, kind, pred=lambda item: True):
    return next(item for items in rounds for item in items if item.kind == kind and pred(item))


def _rejects(check, item, out, fragment):
    fails = check(item, out)
    assert any(fragment in msg for msg in fails), (fragment, fails)


def _with(out, **changes):
    out = copy.deepcopy(out)
    out.update(changes)
    return out


def test_oracle_check_rejects_perturbed_values():
    item = worker.setup_oracle(qd, 0, None)[0][0]
    out = worker.run_oracle(qd, item)
    assert worker.check_oracle(item, out) == []
    c, o = out["closed"], out["oracle"]
    _rejects(worker.check_oracle, item, _with(out, closed=c + 1e-10, oracle=o + 1e-10), "differs from reference")
    _rejects(worker.check_oracle, item, _with(out, oracle=c + 2e-6), "|oracle - closed|")
    _rejects(worker.check_oracle, item, _with(out, oracle=c - 2e-9), "below closed form")
    _rejects(worker.check_oracle, item, _with(out, oracle=-1e-7), "outside [0, 1/2]")


def test_consistency_check_rejects_perturbed_values():
    rounds = worker.setup_consistency(qd, 0, None)
    check = worker.check_consistency
    cq = _first(rounds, "cq", lambda i: i.rho.dim_a == 2 and i.rho.dim_b == 2)
    full = _first(rounds, "full", lambda i: i.rho.dim_a == 2 and i.rho.dim_b == 2)
    bell = _first(rounds, "bell")
    outs = {name: worker.run_consistency(qd, item) for name, item in (("cq", cq), ("full", full), ("bell", bell))}
    assert [check(i, outs[i.kind]) for i in (cq, full, bell)] == [[], [], []]
    _rejects(check, cq, _with(outs["cq"], is_zero=False), "judged to carry discord")
    _rejects(check, cq, _with(outs["cq"], entropic=2e-6), "entropic discord")
    _rejects(check, cq, _with(outs["cq"], closed=outs["cq"]["closed"] + 1e-10), "differs from reference")
    _rejects(check, full, _with(outs["full"], is_zero=True), "judged to have zero discord")
    _rejects(check, full, _with(outs["full"], rank_l=2), "not above d_A")
    _rejects(check, bell, _with(outs["bell"], entropic=outs["bell"]["entropic"] + 2e-6), "Luo")
    # closed-form value moved off (sum t^2 - max t^2)/4 while the Pauli reference is kept
    item = copy.copy(bell)
    item.t = bell.t * (1 + 1e-9)
    _rejects(check, item, outs["bell"], "(sum t^2 - max t^2)/4")


def test_dqc1_check_rejects_perturbed_values():
    rounds = worker.setup_dqc1(qd, 0, None)
    check = worker.check_dqc1
    haar = _first(rounds, "haar", lambda i: i.n == 3)
    inv = _first(rounds, "inv", lambda i: i.n == 3)
    out_h, out_i = worker.run_dqc1(qd, haar), worker.run_dqc1(qd, inv)
    assert check(haar, out_h) == [] and check(inv, out_i) == []
    _rejects(check, haar, _with(out_h, readout=out_h["readout"] + 1e-11), "Tr(U)/2^n")
    # 7 standard errors at the largest sigma the check can use, 1/(alpha sqrt(shots))
    step = 7.0 / (haar.alpha * np.sqrt(worker.DQC1_SHOTS))
    tau, hat = reference.normalized_trace(haar.u), out_h["tau_hat"]
    _rejects(check, haar, _with(out_h, tau_hat=complex(tau.real + step, hat.imag)), "sampled real part")
    _rejects(check, haar, _with(out_h, tau_hat=complex(hat.real, tau.imag - step)), "sampled imag part")
    _rejects(check, haar, _with(out_h, classical=True, state_zero=True), "Haar unitary judged classical")
    _rejects(check, inv, _with(out_i, classical=False, phase=None, state_zero=False), "judged non-classical")
    _rejects(check, inv, _with(out_i, phase=out_i["phase"] + 1e-6), "mod pi")
    _rejects(check, haar, _with(out_h, state_zero=True), "disagrees with zero_discord_test")


def test_cli_check_rejects_perturbed_values():
    items = worker.setup_cli(qd, 0, ROOT / "perfbench" / "out")[0]
    outs = {item.kind: worker.run_cli_in_process(qd, item) for item in items}
    by_kind = {item.kind: item for item in items}
    assert all(worker.check_cli(by_kind[k], outs[k]) == [] for k in by_kind)

    def doc_with(kind, **changes):
        doc = json.loads(outs[kind]["stdout"])
        doc.update(changes)
        return {"returncode": 0, "stdout": json.dumps(doc)}

    check = worker.check_cli
    _rejects(check, by_kind["r33"], {"returncode": 2, "stdout": ""}, "exit code 2")
    _rejects(check, by_kind["r33"], {"returncode": 0, "stdout": "{"}, "not JSON")
    _rejects(check, by_kind["bell"], doc_with("bell", geometric_discord=0.5 + 1e-11), "Bell D_G")
    _rejects(check, by_kind["bell"], doc_with("bell", mutual_information=2.0 - 1e-11), "Bell I")
    bell_ent = dict(json.loads(outs["bell"]["stdout"])["entropic_discord"], value=1.0 - 2e-4)
    _rejects(check, by_kind["bell"], doc_with("bell", entropic_discord=bell_ent), "Bell entropic")
    _rejects(check, by_kind["cq"], doc_with("cq", is_zero_discord=False), "judged to carry discord")
    r22 = json.loads(outs["r22"]["stdout"])["geometric_discord"]
    _rejects(check, by_kind["r22"], doc_with("r22", geometric_discord=r22 + 1e-11), "differs from reference")
    _rejects(check, by_kind["r33"], doc_with("r33", witness_triggered=False), "witness did not fire")


def test_reference_values_at_known_points():
    bell = qd.bell_state(0).mat
    assert reference.geometric_closed_form(bell) == pytest.approx(0.5, abs=1e-15)
    assert reference.bell_diagonal_entropic([1.0, -1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)
    assert reference.bell_diagonal_entropic([0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    # t = (c, 0, 0) is classically correlated along x: zero discord.
    assert reference.bell_diagonal_entropic([0.6, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert reference.bell_diagonal_geometric([0.5, -0.3, 0.1]) == pytest.approx((0.09 + 0.01) / 4)
    assert reference.normalized_trace(np.diag([1, 1j, -1, 1])) == pytest.approx(0.25 + 0.25j)
