"""Two-qubit Bloch decomposition and geometric discord.

The geometric discord of a two-qubit state is the squared Hilbert-Schmidt
distance to the nearest zero-discord state.  It has a closed form,
(|x|^2 + |T|^2 - k_max)/4 with k_max the top eigenvalue of x x^T + T T^T,
which :func:`geometric_discord_oracle` cross-checks by direct minimization
over the zero-discord family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _accel
from .correlation import _expand, _rebuild
from .errors import DimensionError, OutsidePhysicalError, ValidationError
from .linalg import _PAULI_STACK, DensityMatrix, _as_matrix

GEOM_PSD_SLACK = 1e-8

# Bell-diagonal tetrahedron vertices; 1 + t.v >= 0 for each vertex v is
# exactly eigenvalue positivity of (1x1 + sum t_i sigma_i x sigma_i)/4.
_TETRA_VERTICES = np.array(
    [[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=float
)


def tetrahedron_contains(t, atol: float = 1e-12) -> bool:
    """True if the Bell-diagonal state with correlation vector t is physical."""
    t = np.asarray(t, dtype=float)
    return bool(np.all(1.0 + _TETRA_VERTICES @ t >= -atol))


def octahedron_contains(t, atol: float = 1e-12) -> bool:
    """True if the Bell-diagonal state with correlation vector t is separable."""
    t = np.asarray(t, dtype=float)
    return bool(np.abs(t).sum() <= 1.0 + atol)


@dataclass(frozen=True)
class BlochTriple:
    """Local Bloch vectors x, y and 3x3 correlation tensor of a two-qubit state."""

    x: np.ndarray
    y: np.ndarray
    corr: np.ndarray


def bloch_triple(rho: DensityMatrix) -> BlochTriple:
    """Bloch representation (x, y, T) of a two-qubit state."""
    if (rho.dim_a, rho.dim_b) != (2, 2):
        raise DimensionError(f"need a 2x2 bipartite state, got dims ({rho.dim_a}, {rho.dim_b})")
    r = _expand(rho, _PAULI_STACK, _PAULI_STACK)
    return BlochTriple(x=r[1:, 0], y=r[0, 1:], corr=r[1:, 1:])


def state_from_bloch(x, y, corr) -> np.ndarray:
    """Two-qubit matrix (1x1 + x.sigma x 1 + 1 x y.sigma + sum T_ij sigma_i x sigma_j)/4."""
    coeffs = np.empty((4, 4))
    coeffs[0, 0] = 1.0
    coeffs[1:, 0] = x
    coeffs[0, 1:] = y
    coeffs[1:, 1:] = corr
    return _rebuild(coeffs, _PAULI_STACK, _PAULI_STACK) / 4.0


def hs_distance_sq(rho, chi) -> float:
    """Squared Hilbert-Schmidt distance Tr (rho - chi)^2."""
    a = _as_matrix(rho)
    b = _as_matrix(chi)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b) ** 2)


def _clamped_state(mat: np.ndarray) -> DensityMatrix:
    """Build a two-qubit DensityMatrix, flooring tiny negative eigenvalues."""
    mat = 0.5 * (mat + mat.conj().T)
    w, v = np.linalg.eigh(mat)
    if w[0] < -GEOM_PSD_SLACK:
        raise OutsidePhysicalError(f"matrix is not a state: min eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    mat = (v * w) @ v.conj().T
    return DensityMatrix(mat / np.trace(mat).real, 2, 2)


@dataclass(frozen=True)
class ZeroDiscordPoint:
    """Parameters (e, t, s+, s-) of a two-qubit zero-discord state.

    The state mixes the projectors along +-e with weights (1 +- t)/2 and
    carries conditional B states whose Bloch vectors combine to s+ and s-.
    """

    e: np.ndarray
    t: float
    s_plus: np.ndarray
    s_minus: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.e, dtype=float)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "s_plus", np.asarray(self.s_plus, dtype=float))
        object.__setattr__(self, "s_minus", np.asarray(self.s_minus, dtype=float))
        if abs(np.linalg.norm(e) - 1.0) > 1e-9:
            raise OutsidePhysicalError("e must be a unit vector")
        if abs(self.t) > 1.0 + 1e-12:
            raise OutsidePhysicalError("t must lie in [-1, 1]")
        if np.linalg.norm(self.s_plus) > 1.0 + 1e-9 or np.linalg.norm(self.s_minus) > 1.0 + 1e-9:
            raise OutsidePhysicalError("s vectors must lie in the unit ball")

    @classmethod
    def from_mixture(cls, e, p1: float, b1, b2) -> "ZeroDiscordPoint":
        """Build from outcome weight p1 and conditional Bloch vectors b1, b2."""
        p1 = float(p1)
        b1 = np.asarray(b1, dtype=float)
        b2 = np.asarray(b2, dtype=float)
        return cls(
            e=np.asarray(e, dtype=float),
            t=2.0 * p1 - 1.0,
            s_plus=p1 * b1 + (1.0 - p1) * b2,
            s_minus=p1 * b1 - (1.0 - p1) * b2,
        )

    def to_state(self) -> DensityMatrix:
        """The induced density matrix, with PSD enforced at construction."""
        return _clamped_state(
            state_from_bloch(self.t * self.e, self.s_plus, np.outer(self.e, self.s_minus))
        )


@dataclass(frozen=True)
class GeometricResult:
    """Closed-form geometric discord with its minimizer."""

    value: float
    k_max: float
    e_star: np.ndarray
    chi_star: DensityMatrix


def geometric_discord_2q(rho: DensityMatrix) -> GeometricResult:
    """Closed-form geometric discord of a two-qubit state.

    The minimizing direction e_star is the top eigenvector of
    K = x x^T + T T^T, sign-canonicalized (first nonzero component positive)
    so degenerate spectra still give a deterministic output.
    """
    b = bloch_triple(rho)
    k = np.outer(b.x, b.x) + b.corr @ b.corr.T
    w, v = np.linalg.eigh(k)
    k_max = float(w[-1])
    e_star = v[:, -1].copy()
    for comp in e_star:
        if abs(comp) > 1e-12:
            if comp < 0:
                e_star = -e_star
            break
    value = 0.25 * (float(b.x @ b.x) + float(np.sum(b.corr**2)) - k_max)
    # rho measured along e_star: PSD by construction, so no clamping is needed.
    chi_star = DensityMatrix(
        state_from_bloch(float(b.x @ e_star) * e_star, b.y, np.outer(e_star, b.corr.T @ e_star)), 2, 2
    )
    return GeometricResult(value=value, k_max=k_max, e_star=e_star, chi_star=chi_star)


def bell_diagonal_discord(t) -> float:
    """Geometric discord (t1^2 + t2^2 + t3^2 - max t_i^2)/4 of a Bell-diagonal state."""
    t = np.asarray(t, dtype=float)
    if not tetrahedron_contains(t):
        raise OutsidePhysicalError(f"t={t.tolist()} lies outside the physical tetrahedron")
    sq = t * t
    return float(0.25 * (sq.sum() - sq.max()))


def oracle_starts(restarts: int, seed: int) -> np.ndarray:
    """Deterministic multi-start points for the oracle's 9-parameter search."""
    rng = np.random.default_rng(seed)
    starts = np.empty((restarts, 9))
    starts[:, 0] = np.arccos(rng.uniform(-1.0, 1.0, restarts))
    starts[:, 1] = rng.uniform(0.0, 2.0 * np.pi, restarts)
    starts[:, 2] = rng.standard_normal(restarts)
    starts[:, 3:9] = rng.standard_normal((restarts, 6))
    return starts


def geometric_discord_oracle(
    rho: DensityMatrix,
    restarts: int = 32,
    seed: int = 0,
    maxiter: int = 1500,
) -> float:
    """Geometric discord by direct minimization over zero-discord states.

    Multi-start Nelder-Mead over the physical parametrization (measurement
    direction, outcome bias, two conditional Bloch vectors); independent of
    the closed form and used to validate it.  The restarts run as one batch,
    which stops once two of them converge to the same minimum and none is
    lower, or after ``maxiter`` steps.
    """
    if restarts < 1:
        raise ValidationError(f"the oracle needs at least one restart, got {restarts}")
    if maxiter < 1:
        raise ValidationError(f"the oracle needs at least one simplex step, got maxiter={maxiter}")
    b = bloch_triple(rho)
    starts = oracle_starts(restarts, seed)
    sim = starts[:, None, :] + np.vstack([np.zeros(9), 0.5 * np.eye(9)])
    best, _ = _accel.nelder_mead(
        lambda z: _accel.chi_distance_sq(z, b.x, b.y, b.corr), sim, maxiter, 1e-13, 1e-8, settle=2
    )
    return float(best.min())


def random_zero_discord_state(seed: int) -> DensityMatrix:
    """Seeded random sample from the two-qubit zero-discord family."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(3)
    e /= np.linalg.norm(e)
    p1 = rng.uniform(0.0, 1.0)
    balls = rng.standard_normal((2, 3))
    balls /= np.linalg.norm(balls, axis=1, keepdims=True)
    radii = rng.uniform(0.0, 1.0, 2) ** (1.0 / 3.0)
    b1, b2 = balls * radii[:, None]
    return ZeroDiscordPoint.from_mixture(e, p1, b1, b2).to_state()
