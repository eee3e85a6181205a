"""Geometric discord of states with a qubit A side, and the 2x2 Bloch picture.

The geometric discord is the squared Hilbert-Schmidt distance to the nearest
zero-discord state.  Its closed form, (Tr K - k_max)/4 with K_ij = 2 Tr(X_i X_j)
over the A-side blocks X_i = Tr_A[(sigma_i x 1) rho], holds for every 2 x d_B
state; at 2x2, :func:`geometric_discord_oracle` cross-checks it by direct
minimization over the zero-discord family in its Bloch parametrization.

A zero-discord state measured along e with bias t = p1 - p2 has the Bloch triple
(t e, u + w, e (u - w)^T), u = p1 b1 and w = p2 b2, at squared distance (|x - t e|^2 +
|T|^2 - |T^T e|^2 + 2|u - a|^2 + 2|w - b|^2)/4 for a, b = (y +- T^T e)/2.  So the oracle
searches (e, t) and projects a, b onto the balls of radius p1, p2: exact algebra on its
own objective, without Luo and Fu's dephasing lemma, on which the closed form rests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, OutsidePhysicalError
from .linalg import _PAULI_STACK, DensityMatrix, _check_tolerances
from .linalg import _count_arg, _expand, _rebuild, a_side_blocks

# Bell-diagonal tetrahedron vertices; 1 + t.v >= 0 for each vertex v is
# exactly eigenvalue positivity of (1x1 + sum t_i sigma_i x sigma_i)/4.
_TETRA_VERTICES = np.array(
    [[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=float
)
_HALF_SIGNS = np.array([[0.5], [-0.5]])  # a, b = y/2 +- T^T e/2 and p1, p2 = 1/2 +- t/2


def _correlation_vector(t) -> np.ndarray:
    """t as a float array of shape (3,), else DimensionError."""
    t = np.asarray(t, dtype=float)
    if t.shape != (3,):
        raise DimensionError("t must be a real 3-vector")
    return t


def tetrahedron_contains(t, atol: float = 1e-12) -> bool:
    """True if the Bell-diagonal state with correlation vector t is physical."""
    _check_tolerances(atol=atol)
    return bool(np.all(1.0 + _TETRA_VERTICES @ _correlation_vector(t) >= -atol))


def octahedron_contains(t, atol: float = 1e-12) -> bool:
    """True if the Bell-diagonal state with correlation vector t is separable."""
    _check_tolerances(atol=atol)
    return bool(np.abs(_correlation_vector(t)).sum() <= 1.0 + atol)


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
    """Two-qubit matrix (1x1 + x.sigma x 1 + 1 x y.sigma + sum T_ij sigma_i x sigma_j)/4.

    x and y must be 3-vectors and corr (T) a 3x3 matrix (DimensionError).
    """
    for name, value, shape in (("x", x, (3,)), ("y", y, (3,)), ("corr", corr, (3, 3))):
        if np.shape(value) != shape:
            raise DimensionError(f"{name} must have shape {shape}, got {np.shape(value)}")
    coeffs = np.empty((4, 4))
    coeffs[0, 0] = 1.0
    coeffs[1:, 0] = x
    coeffs[0, 1:] = y
    coeffs[1:, 1:] = corr
    return _rebuild(coeffs, _PAULI_STACK, _PAULI_STACK) / 4.0


@dataclass(frozen=True)
class GeometricResult:
    """Closed-form geometric discord and the measurement direction that attains it."""

    value: float
    k_max: float
    e_star: np.ndarray


def geometric_discord_2q(rho: DensityMatrix) -> GeometricResult:
    """Closed-form geometric discord (Tr K - k_max)/4 of a state with a qubit A side.

    K_ij = 2 Tr(X_i X_j) over the blocks X_i = Tr_A[(sigma_i x 1) rho] (x x^T + T T^T
    at 2x2).  Of the zero-discord states classical along e, rho dephased along e is
    nearest (Luo and Fu, PRA 82, 034302 (2010)), at (Tr K - e^T K e)/4.  So e_star is
    K's top eigenvector, its first nonzero component made positive for a deterministic output.
    A caller who needs the nearest zero-discord state forms it from e_star as
    (rho + (e_star.sigma x 1) rho (e_star.sigma x 1))/2.
    """
    if rho.dim_a != 2:
        raise DimensionError(f"need a qubit A side, got dims ({rho.dim_a}, {rho.dim_b})")
    x = a_side_blocks(rho, _PAULI_STACK)
    flat = x[1:].reshape(3, -1)
    k = 2.0 * (flat @ flat.conj().T).real  # X_j is Hermitian: Tr(X_i X_j) = <X_i, X_j>
    w, v = np.linalg.eigh(k)
    k_max = float(w[-1])
    # + 0.0 folds the -0.0 that the sign flip makes of an exact 0 into 0.0
    e_star = v[:, -1] * np.sign(v[np.abs(v[:, -1]) > 1e-12, -1][0]) + 0.0
    value = 0.25 * (float(np.trace(k)) - k_max)
    return GeometricResult(value=value, k_max=k_max, e_star=e_star)


def bell_diagonal_discord(t) -> float:
    """Geometric discord (t1^2 + t2^2 + t3^2 - max t_i^2)/4 of a Bell-diagonal state."""
    t = np.asarray(t, dtype=float)
    if not tetrahedron_contains(t):
        raise OutsidePhysicalError(f"t={t.tolist()} lies outside the physical tetrahedron")
    sq = t * t
    return float(0.25 * (sq.sum() - sq.max()))


def oracle_starts(restarts: int, seed: int) -> np.ndarray:
    """Deterministic multi-start points (theta, phi, tau) for the oracle's search."""
    rng = np.random.default_rng(seed)
    theta = np.arccos(rng.uniform(-1.0, 1.0, restarts))  # theta, phi, tau: the draw order
    phi = rng.uniform(0.0, 2.0 * np.pi, restarts)
    return np.column_stack([theta, phi, rng.standard_normal(restarts)])


def _projected_distance_sq(z, xv, yv, tmat):
    """Squared Hilbert-Schmidt distance from the Bloch triple (xv, yv, tmat) to the nearest
    zero-discord state along e with bias t, for each row (theta, phi, tau) of z: e's sphere
    angles and t = tanh(tau).  It sums squared residuals at the projected u, w, so it is >= 0.
    """
    zt = np.ascontiguousarray(z.T)
    m = zt.shape[1]
    sin = np.sin(zt[:2])
    cos = np.cos(zt[:2])
    t = np.tanh(zt[2])
    # model rows: t e, u + w, then e_i (u - w)
    model = np.empty((15, m))
    e = model[:3]
    np.multiply(sin[0], cos[1], out=e[0])
    np.multiply(sin[0], sin[1], out=e[1])
    e[2] = cos[0]
    ab = _HALF_SIGNS[:, :, None] * (tmat.T @ e) + 0.5 * yv[:, None]  # a and b
    norm = np.sqrt((ab * ab).sum(axis=1))
    radius = 0.5 + _HALF_SIGNS * t  # p1 and p2
    ab *= np.minimum(1.0, radius / np.maximum(norm, 1e-300))[:, None]  # floor: no 0/0 at a = 0
    u, w = ab
    np.multiply(e[:, None], u - w, out=model[6:].reshape(3, 3, m))
    e *= t
    np.add(u, w, out=model[3:6])
    model -= np.concatenate([xv, yv, np.ravel(tmat)])[:, None]
    model *= model
    return 0.25 * model.sum(axis=0)


def nelder_mead(fun, sim, maxiter: int, fatol: float, xatol: float, settle: int = 0):
    """Minimize ``fun`` from R initial simplices at once; returns (f, x).

    ``sim`` has shape (R, n+1, n) with n >= 2, and ``fun`` maps an (m, n)
    array of points to their (m,) values.  Each step sorts every simplex and
    moves its p = max(1, n // 3) worst vertices, each through the centroid
    of the n + 1 - p others (the parallel simplex of D. Lee and M. Wiswall,
    Comput. Econ. 30, 171 (2007)), with the dimension-adapted coefficients
    of F. Gao and L. Han (Comput. Optim. Appl. 51, 259 (2012)): reflection
    1, expansion 1 + 2/n, contractions 3/4 - 1/(2n) outside and inside,
    shrink 1 - 1/n.  One objective call evaluates every trial point of the
    batch; it costs about the same numpy dispatch at 8 points as at 128,
    which is why a step moves several vertices.  Each moved vertex expands
    if its reflection beats the best vertex, keeps the reflection if that
    beats the worst vertex not being moved, and otherwise contracts, outside
    or inside, against its own value; a simplex shrinks towards its best
    vertex only when none of its p moves was accepted.  At n = 2 this is the
    classic single-vertex step with coefficients 1, 2, 1/2 and 1/2.

    A simplex whose values span at most ``fatol`` and whose vertices lie
    within ``xatol`` of its best one stops and stays frozen; the others run
    for at most ``maxiter`` steps.  With ``settle=0`` simplices never
    interact, so each result equals that start run alone.  With
    ``settle > 0`` the whole batch stops once at least ``settle`` frozen
    simplices have best values within ``fatol`` of the lowest frozen value
    and no simplex, active or frozen, has a lower best vertex; simplices
    still active then return where they stood.  Active simplices only go
    down, so this can first hold on a step where one freezes.
    f has shape (R,) and x shape (R, n): the best vertex of each simplex.
    """
    sim = np.array(sim, dtype=float)
    r, n1, n = sim.shape
    f = fun(sim.reshape(r * n1, n)).reshape(r, n1)
    p = max(1, n // 3)
    kept = n1 - p  # sorted vertices 0..kept-1 stay, kept..n move
    contract = 0.75 - 0.5 / n
    coefs = np.array([-1.0, -(1.0 + 2.0 / n), -contract, contract])[:, None]
    shrink_by = 1.0 - 1.0 / n
    idx = np.arange(r)
    rows = idx[:, None]
    # trial point k (reflect, expand, contract out or in) of moved vertex j,
    # cen + c_k (v_j - cen) with cen the kept vertices' centroid, is row
    # 4j + k of mix @ sorted simplex
    mix = np.hstack([np.tile((1.0 - coefs) / kept, (p, kept)), np.kron(np.eye(p), coefs)])
    row4j = 4 * (p * rows + np.arange(p))
    active = np.ones(r, dtype=bool)
    for _ in range(maxiter):
        order = np.argsort(f, axis=1)
        sim = sim[rows, order]
        f = f[rows, order]
        flat = active & (f[:, n] - f[:, 0] <= fatol)
        if flat.any():
            near = sim[flat]
            active[flat] = np.abs(near - near[:, :1]).max(axis=(1, 2)) > xatol
            if not active.any():
                break
            if settle and not active.all():
                frozen = f[~active, 0]
                low = frozen.min()
                if np.count_nonzero(frozen <= low + fatol) >= settle and low <= f[:, 0].min():
                    break
        worst = sim[:, kept:]
        fw = f[:, kept:]
        trial = (mix @ sim).reshape(-1, n)
        ft = fun(trial).reshape(r, p, 4)
        fr = ft[..., 0]
        expand = fr < f[:, :1]
        outside = fr < fw
        # reflect; expand if that beat the best vertex; contract if it did
        # not beat the worst kept vertex: outside when it beat the moved
        # vertex, else inside
        pick = np.where(
            expand,
            np.where(ft[..., 1] < fr, 1, 0),
            np.where(fr < f[:, kept - 1 : kept], 0, np.where(outside, 2, 3)),
        )
        fnew = ft.ravel()[row4j + pick]
        accept = active[:, None] & ((pick < 2) | np.where(outside, fnew <= fr, fnew < fw))
        sim[:, kept:] = np.where(accept[..., None], trial[row4j + pick], worst)
        f[:, kept:] = np.where(accept, fnew, fw)
        shrink = active & ~accept.any(axis=1)
        if shrink.any():
            s = np.flatnonzero(shrink)
            sim[s, 1:] = sim[s, :1] + shrink_by * (sim[s, 1:] - sim[s, :1])
            f[s, 1:] = fun(sim[s, 1:].reshape(-1, n)).reshape(s.size, n)
    best = np.argmin(f, axis=1)
    return f[idx, best], sim[idx, best]


def geometric_discord_oracle(
    rho: DensityMatrix,
    restarts: int = 32,
    seed: int = 0,
    maxiter: int = 1500,
) -> float:
    """Geometric discord by direct minimization over zero-discord states.

    Multi-start Nelder-Mead over the measurement direction and outcome bias, with
    the conditional Bloch vectors set exactly at each point (module docstring): each
    value is attained by an explicit zero-discord state, and none uses Luo and Fu's
    lemma or K.  The restarts run as one batch, which stops once two of them converge
    to the same minimum and none is lower, or after ``maxiter`` steps.
    """
    restarts, maxiter = _count_arg("restarts", restarts, 1), _count_arg("maxiter", maxiter, 1)
    b = bloch_triple(rho)
    starts = oracle_starts(restarts, _count_arg("seed", seed, 0))
    sim = starts[:, None, :] + np.vstack([np.zeros(3), 0.5 * np.eye(3)])
    best, _ = nelder_mead(
        lambda z: _projected_distance_sq(z, b.x, b.y, b.corr), sim, maxiter, 1e-13, 1e-8, settle=2
    )
    return float(best.min())
