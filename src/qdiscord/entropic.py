"""Quantum mutual information and entropic discord via measurement optimization.

Classical correlation Q_A is the entropy drop of B after the best projective
measurement on A; discord is mutual information minus Q_A.  The optimizer
covers a qubit A side: a deterministic Fibonacci grid of measurement
directions over the z >= 0 hemisphere (e and -e are one measurement),
followed by simplex refinement from the best grid points.  The projective
optimum is an upper bound on the POVM-optimized discord and is flagged as
such in reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._accel import conditional_entropy_scan, nelder_mead
from .errors import DimensionError, ValidationError
from .linalg import (
    _PAULI_STACK, OUTCOME_FLOOR, DensityMatrix, a_side_blocks, partial_trace, von_neumann_entropy,
)

GRID_POINTS = 2048
REFINE_ITERS = 200
REFINE_STARTS = 8

MEASUREMENT_CLASS = "projective optimum (upper bound on discord)"


@dataclass(frozen=True)
class MeasurementA:
    """Complete rank-1 projective measurement on subsystem A."""

    projectors: np.ndarray

    def __post_init__(self):
        ops = np.array(self.projectors, dtype=complex)
        ops.setflags(write=False)
        object.__setattr__(self, "projectors", ops)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or ops.shape[0] != ops.shape[1]:
            raise DimensionError(f"expected d rank-1 projectors of size d, got {ops.shape}")
        if not np.all(np.isfinite(ops)):
            raise ValidationError("projectors must have finite entries")
        for p in ops:
            if np.linalg.norm(p @ p - p) > 1e-10:
                raise ValidationError("projectors must be idempotent")
            if abs(np.trace(p) - 1.0) > 1e-10:
                raise ValidationError("projectors must be rank 1")
        if np.linalg.norm(ops.sum(axis=0) - np.eye(ops.shape[1])) > 1e-10:
            raise ValidationError("projectors must resolve the identity")

    @classmethod
    def from_kets(cls, kets) -> "MeasurementA":
        return cls(np.stack([np.outer(k, np.conj(k)) for k in np.asarray(kets, dtype=complex)]))

    @classmethod
    def from_direction(cls, e) -> "MeasurementA":
        """Qubit measurement along a Bloch direction: (1 +- e.sigma)/2."""
        e = np.asarray(e, dtype=float)
        if e.shape != (3,):
            raise DimensionError(f"direction must be a 3-vector, got shape {e.shape}")
        norm = np.linalg.norm(e)
        if not 0.0 < norm < np.inf:
            raise ValidationError(f"direction must be finite and nonzero, got {e.tolist()}")
        e = e / norm
        esig = np.array(
            [[e[2], e[0] - 1j * e[1]], [e[0] + 1j * e[1], -e[2]]], dtype=complex
        )
        eye = np.eye(2, dtype=complex)
        return cls(np.stack([(eye + esig) / 2.0, (eye - esig) / 2.0]))


@dataclass(frozen=True)
class ConditionalEnsemble:
    """Outcome probabilities and normalized conditional states of B."""

    probs: np.ndarray
    states: list


def conditional_ensemble(rho: DensityMatrix, m: MeasurementA) -> ConditionalEnsemble:
    """Post-measurement ensemble of B; outcomes below 1e-12 are omitted."""
    if m.projectors.shape[1] != rho.dim_a:
        raise DimensionError(
            f"measurement dim {m.projectors.shape[1]} does not match d_A {rho.dim_a}"
        )
    # Tr_A[(P x 1) rho (P x 1)] = Tr_A[(P x 1) rho] for a projector P
    blocks = a_side_blocks(rho, m.projectors)
    probs = np.trace(blocks, axis1=1, axis2=2).real
    kept = probs >= OUTCOME_FLOOR
    states = [0.5 * (s + s.conj().T) for s in blocks[kept] / probs[kept, None, None]]
    return ConditionalEnsemble(probs=probs[kept], states=states)


def mutual_information(rho: DensityMatrix) -> float:
    """I = H(A) + H(B) - H(AB) in bits."""
    return (
        von_neumann_entropy(partial_trace(rho, "A"))
        + von_neumann_entropy(partial_trace(rho, "B"))
        - von_neumann_entropy(rho)
    )


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform lattice of n unit vectors."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _angles_to_dir(angles: np.ndarray) -> np.ndarray:
    """Unit vectors (..., 3) from sphere angles (..., 2) = (theta, phi)."""
    theta = angles[..., 0]
    phi = angles[..., 1]
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def _initial_simplices(x0: np.ndarray) -> np.ndarray:
    """Nelder-Mead start simplices (R, n+1, n) around the rows of x0 (R, n).

    Vertex k+1 scales coordinate k by 1.05, or sets it to 0.00025 when it is
    zero: the customary default start simplex of Nelder-Mead codes.
    """
    r, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    sim[:, k + 1, k] = np.where(x0 != 0.0, 1.05 * x0, 0.00025)
    return sim


@dataclass(frozen=True)
class ClassicalCorrelationResult:
    """Optimized classical correlation with the winning measurement direction."""

    value: float
    best_direction: np.ndarray
    min_conditional_entropy: float
    grid_points: int
    refine_iters: int


def classical_correlation_qa(
    rho: DensityMatrix,
    grid_points: int = GRID_POINTS,
    refine_iters: int = REFINE_ITERS,
    refine_starts: int = REFINE_STARTS,
) -> ClassicalCorrelationResult:
    """Q_A = H(B) - min over projective A-measurements of sum_k p_k H(B|k).

    Deterministic: the z >= 0 half of a ``grid_points``-point Fibonacci
    lattice is scanned, since e and -e are the same measurement; ties resolve
    to the lowest lattice index.  Nelder-Mead then refines the best
    ``refine_starts`` points in sphere angles and stops once two of them
    settle on the same minimum.  Its ``xatol`` is 1e-7 rad: near a minimum
    f(x + d) - f* ~ d^2, so smaller steps only chase rounding in the
    entropy.  Only a qubit A side is supported.
    """
    if rho.dim_a != 2:
        raise DimensionError(
            f"measurement optimizer supports d_A = 2 only, got d_A = {rho.dim_a}"
        )
    if grid_points < 1 or refine_iters < 0 or refine_starts < 0:
        raise ValidationError(
            f"need grid_points >= 1 and refine_iters, refine_starts >= 0; got "
            f"{grid_points}, {refine_iters}, {refine_starts}"
        )
    g0, gx, gy, gz = a_side_blocks(rho, _PAULI_STACK)  # g0 = Tr_A rho
    dirs = fibonacci_sphere(grid_points)
    dirs = dirs[dirs[:, 2] >= 0.0]  # e and -e are one measurement
    values = conditional_entropy_scan(g0, gx, gy, gz, dirs)

    best_order = np.argsort(values, kind="stable")
    best_idx = int(best_order[0])
    best_val = float(values[best_idx])
    best_dir = dirs[best_idx]

    starts = dirs[best_order[:refine_starts]]
    if len(starts):
        angles = np.column_stack(
            [np.arccos(np.clip(starts[:, 2], -1.0, 1.0)), np.arctan2(starts[:, 1], starts[:, 0])]
        )
        refined, minimizers = nelder_mead(
            lambda a: conditional_entropy_scan(g0, gx, gy, gz, _angles_to_dir(a)),
            _initial_simplices(angles),
            refine_iters,
            fatol=1e-13,
            xatol=1e-7,
            settle=2,
        )
        for value, x in zip(refined, minimizers):
            if value < best_val - 1e-15:
                best_val = float(value)
                best_dir = _angles_to_dir(x)

    h_b = von_neumann_entropy(g0)
    return ClassicalCorrelationResult(
        value=h_b - best_val + 0.0,
        best_direction=best_dir,
        min_conditional_entropy=best_val,
        grid_points=grid_points,
        refine_iters=refine_iters,
    )


def entropic_discord(
    rho: DensityMatrix,
    grid_points: int = GRID_POINTS,
    refine_iters: int = REFINE_ITERS,
    refine_starts: int = REFINE_STARTS,
) -> float:
    """Discord D_A = I - Q_A in bits, clamped at zero against float noise."""
    qa = classical_correlation_qa(rho, grid_points, refine_iters, refine_starts)
    return max(0.0, mutual_information(rho) - qa.value)
