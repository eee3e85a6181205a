"""Reference values computed with numpy alone, and the per-item checks.

Nothing here imports qdiscord: every value a check compares against is
derived from the raw input matrices by formulas written out below.

- Two-qubit geometric discord, (|x|^2 + |T|^2 - k_max)/4, from Pauli
  expectation values taken with this module's own Pauli matrices.
- Bell-diagonal geometric discord, (sum t_i^2 - max t_i^2)/4.
- Bell-diagonal entropic discord after S. Luo, PRA 77, 042303 (2008):
  I = 2 - H(lambda) with lambda_v = (1 + t.v)/4 over the Bell vertices v,
  C = 1 - H2((1 + c)/2) with c = max |t_i|, discord = I - C.
- The DQC1 normalized trace Tr(U)/2^n by ``numpy.trace``.

Each ``check_*`` function returns a list of failure messages, empty when the
item's outputs are correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

_I2 = np.eye(2, dtype=complex)
_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# Correlation vectors t of the four Bell states, the tetrahedron's vertices.
_BELL_VERTICES = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float)

CLOSED_FORM_ATOL = 1e-12
ORACLE_ATOL = 1e-6
ORACLE_BELOW_SLACK = 1e-9
ENTROPIC_ZERO_ATOL = 1e-6
LUO_ATOL = 1e-6
READOUT_ATOL = 1e-12
SAMPLE_SIGMAS = 6.0
PHASE_ATOL = 1e-9
CLI_ENTROPIC_ATOL = 1e-4


def _xlog2x(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    safe = np.where(p > 0.0, p, 1.0)
    return np.where(p > 0.0, p * np.log2(safe), 0.0)


def geometric_closed_form(mat: np.ndarray) -> float:
    """(|x|^2 + |T|^2 - k_max)/4 from expectation values of Pauli products."""
    mat = np.asarray(mat, dtype=complex)
    x = np.array([np.trace(mat @ np.kron(s, _I2)).real for s in _PAULI])
    corr = np.array([[np.trace(mat @ np.kron(si, sj)).real for sj in _PAULI] for si in _PAULI])
    k = np.outer(x, x) + corr @ corr.T
    k_max = float(np.linalg.eigvalsh(k)[-1])
    return 0.25 * (float(x @ x) + float(np.sum(corr * corr)) - k_max)


def bell_diagonal_geometric(t) -> float:
    sq = np.asarray(t, dtype=float) ** 2
    return float(0.25 * (sq.sum() - sq.max()))


def bell_diagonal_entropic(t) -> float:
    """Luo's analytic discord of the Bell-diagonal state with correlation vector t."""
    t = np.asarray(t, dtype=float)
    lam = np.clip((1.0 + _BELL_VERTICES @ t) / 4.0, 0.0, None)
    mutual = 2.0 + float(np.sum(_xlog2x(lam)))
    c = float(np.max(np.abs(t)))
    classical = float(np.sum(_xlog2x(np.array([(1.0 - c) / 2.0, (1.0 + c) / 2.0])))) + 1.0
    return mutual - classical


def in_tetrahedron(t, margin: float = 0.0) -> bool:
    return bool(np.all(1.0 + _BELL_VERTICES @ np.asarray(t, dtype=float) >= margin))


def normalized_trace(u: np.ndarray) -> complex:
    u = np.asarray(u)
    return complex(np.trace(u)) / u.shape[0]


def check_oracle(mat, closed: float, oracle: float) -> list[str]:
    fails = []
    ref = geometric_closed_form(mat)
    if not abs(closed - ref) <= CLOSED_FORM_ATOL:
        fails.append(f"closed form {closed!r} differs from reference {ref!r}")
    if not abs(oracle - closed) <= ORACLE_ATOL:
        fails.append(f"|oracle - closed| = {abs(oracle - closed):.3e}")
    if not oracle >= closed - ORACLE_BELOW_SLACK:
        fails.append(f"oracle {oracle!r} below closed form {closed!r}")
    for name, v in (("closed", closed), ("oracle", oracle)):
        if not 0.0 <= v <= 0.5:
            fails.append(f"{name} D_G = {v!r} outside [0, 1/2]")
    return fails


def check_consistency(kind: str, dims, mat, t, out: dict) -> list[str]:
    """kind is "cq", "full" or "bell"; t is the Bell-diagonal vector or None."""
    fails = []
    dim_a, _ = dims
    if "closed" in out:
        ref = geometric_closed_form(mat)
        if not abs(out["closed"] - ref) <= CLOSED_FORM_ATOL:
            fails.append(f"closed form {out['closed']!r} differs from reference {ref!r}")
    if kind == "cq":
        if out["is_zero"] is not True:
            fails.append("classical-quantum state judged to carry discord")
        if "entropic" in out and not out["entropic"] <= ENTROPIC_ZERO_ATOL:
            fails.append(f"classical-quantum entropic discord {out['entropic']!r}")
    elif kind == "full":
        if out["is_zero"] is not False:
            fails.append("full-rank state judged to have zero discord")
        if not out["rank_l"] > dim_a:
            fails.append(f"rank_L = {out['rank_l']} not above d_A = {dim_a}")
    elif kind == "bell":
        luo = bell_diagonal_entropic(t)
        if not abs(out["entropic"] - luo) <= LUO_ATOL:
            fails.append(f"entropic {out['entropic']!r} differs from Luo's {luo!r}")
        bd = bell_diagonal_geometric(t)
        if not abs(out["closed"] - bd) <= CLOSED_FORM_ATOL:
            fails.append(f"closed form {out['closed']!r} differs from (sum t^2 - max t^2)/4 = {bd!r}")
    else:
        fails.append(f"unknown item kind {kind!r}")
    return fails


def check_dqc1(u, alpha: float, samples: int, involution_phase, out: dict) -> list[str]:
    """involution_phase is the phase phi of U = exp(i phi) P, or None for Haar U."""
    fails = []
    tau = normalized_trace(u)
    if not abs(out["readout"] - tau) <= READOUT_ATOL:
        fails.append(f"readout {out['readout']!r} differs from Tr(U)/2^n = {tau!r}")
    for part, exact, hat in (("real", tau.real, out["tau_hat"].real), ("imag", tau.imag, out["tau_hat"].imag)):
        sigma = math.sqrt(max(0.0, 1.0 - (alpha * exact) ** 2) / samples) / alpha
        if not abs(hat - exact) <= SAMPLE_SIGMAS * sigma + 1e-12:
            fails.append(f"sampled {part} part off by {abs(hat - exact):.3e}, sigma {sigma:.3e}")
    if involution_phase is None:
        if out["classical"] is not False:
            fails.append("Haar unitary judged classical")
    else:
        if out["classical"] is not True:
            fails.append("phased involution judged non-classical")
        else:
            off = (out["phase"] - involution_phase) % math.pi
            if not min(off, math.pi - off) <= PHASE_ATOL:
                fails.append(f"phase {out['phase']!r} differs from {involution_phase!r} mod pi")
    if "state_zero" in out and out["state_zero"] != out["classical"]:
        fails.append("classicality verdict disagrees with zero_discord_test")
    return fails


def check_cli(kind: str, mat, returncode: int, stdout: str) -> list[str]:
    """kind is "bell", "cq", "r22" or "r33"."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    fails = []
    if kind == "bell":
        if not abs(doc.get("geometric_discord", math.nan) - 0.5) <= CLOSED_FORM_ATOL:
            fails.append(f"Bell D_G {doc.get('geometric_discord')!r}")
        if not abs(doc.get("mutual_information", math.nan) - 2.0) <= CLOSED_FORM_ATOL:
            fails.append(f"Bell I {doc.get('mutual_information')!r}")
        ent = doc.get("entropic_discord") or {}
        if not abs(ent.get("value", math.nan) - 1.0) <= CLI_ENTROPIC_ATOL:
            fails.append(f"Bell entropic {ent.get('value')!r}")
    elif kind == "cq":
        if doc.get("is_zero_discord") is not True:
            fails.append("classical-quantum state judged to carry discord")
    elif kind == "r22":
        ref = geometric_closed_form(mat)
        if not abs(doc.get("geometric_discord", math.nan) - ref) <= CLOSED_FORM_ATOL:
            fails.append(f"D_G {doc.get('geometric_discord')!r} differs from reference {ref!r}")
    elif kind == "r33":
        if doc.get("witness_triggered") is not True:
            fails.append("rank witness did not fire on a full-rank 3x3 state")
    else:
        fails.append(f"unknown item kind {kind!r}")
    return fails
