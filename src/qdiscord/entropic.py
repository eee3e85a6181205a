"""Quantum mutual information and entropic discord via measurement optimization.

Classical correlation Q_A is the entropy drop of B after the best projective
measurement on A; discord is mutual information minus Q_A.  The optimizer
covers a qubit A side: a deterministic Fibonacci grid of measurement
directions over the z >= 0 hemisphere (e and -e are one measurement),
followed by stencil Newton refinement from the best grid points.  The
projective optimum is an upper bound on the POVM-optimized discord and is
flagged as such in reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError
from .linalg import (
    _PAULI_STACK, ENTROPY_EIG_FLOOR, OUTCOME_FLOOR, DensityMatrix, _count_arg, _entropy,
    a_side_blocks, partial_trace,
)

GRID_POINTS = 2048
REFINE_ITERS = 200
REFINE_STARTS = 8

MEASUREMENT_CLASS = "projective optimum (upper bound on discord)"


def mutual_information(rho: DensityMatrix) -> float:
    """I = H(A) + H(B) - H(AB) in bits, clamped at zero against float noise.

    A state accepted at the PSD tolerance can have eigenvalues between
    -PSD_ATOL and the entropy floor, which each entropy drops, so the raw
    sum can fall below zero by about that tolerance.
    """
    h_a, h_b, h_ab = (
        _entropy(np.linalg.eigvalsh(m))
        for m in (partial_trace(rho, "A"), partial_trace(rho, "B"), rho.mat)
    )
    return max(0.0, h_a + h_b - h_ab)


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform lattice of n >= 1 unit vectors."""
    n = _count_arg("n", n, 1)
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


@lru_cache(maxsize=8)
def _half_lattice(n: int) -> np.ndarray:
    """The z >= 0 half of fibonacci_sphere(n), read-only: e and -e are one measurement."""
    dirs = fibonacci_sphere(n)
    dirs = dirs[dirs[:, 2] >= 0.0]
    dirs.setflags(write=False)
    return dirs


# the columns of a block's float view that the closed forms read: Re X00, Re X11, Re X01,
# Im X01 at d_B = 2; the diagonal, X01, X02 and X12 at d_B = 3
_ROWS = {2: np.array([0, 6, 2, 3]), 3: np.array([0, 8, 16, 2, 3, 4, 5, 10, 11])}
_SIGNS = np.array([[1.0], [-1.0]])  # the two outcomes


def conditional_entropy_scan(g0, gx, gy, gz, dirs):
    """Average conditional entropy of B after measuring A along each direction.

    g0, gx, gy, gz are the complex B-side blocks Tr_A[(s x 1) rho] for s = 1,
    sigma_x, sigma_y, sigma_z; dirs is an (n, 3) array of unit vectors.  Measuring
    A along e leaves B in the unnormalized blocks (g0 +- (e1 gx + e2 gy + e3 gz))/2.
    Returns an (n,) array of sum_k p_k H(rho_B|k) values in bits.
    """
    d = g0.shape[0]
    if d in _ROWS:
        # f[i] is one contiguous (2, n) row, both outcomes, per real entry a closed form reads
        m = 0.5 * np.array([g0, gx, gy, gz]).reshape(4, d * d).view(float)[:, _ROWS[d]]
        f = m[0, :, None, None] + (m[1:].T @ dirs.T)[:, None] * _SIGNS
    else:
        g = (dirs @ np.stack([gx, gy, gz]).reshape(3, d * d)).reshape(-1, d, d)
        w = np.moveaxis(np.linalg.eigvalsh(0.5 * (g0 + np.stack([g, -g]))), -1, 0)
    if d == 2:
        # closed-form eigenvalues of [[a, c], [c*, b]]
        a, b, cr, ci = f
        half_gap = 0.5 * np.sqrt((a - b) ** 2 + 4.0 * (cr**2 + ci**2))
        mid = 0.5 * (a + b)
        w = np.array([mid - half_gap, mid + half_gap])
    elif d == 3:
        # Smith's eigenvalues (Commun. ACM 4, 168 (1961)): with q = tr X/3 and X - q1 = 2s C,
        # they are q + 2s cos(phi + 2 pi k/3) for phi = arccos(det C / 2)/3
        q = (f[0] + f[1] + f[2]) / 3.0
        a0, a1, a2 = f[0] - q, f[1] - q, f[2] - q
        xr, xi, zr, zi, yr, yi = f[3:]  # X01, X02, X12
        xx, yy, zz = xr * xr + xi * xi, yr * yr + yi * yi, zr * zr + zi * zi
        s = np.sqrt((a0 * a0 + a1 * a1 + a2 * a2 + 2.0 * (xx + yy + zz)) / 6.0)
        det = a0 * (a1 * a2 - yy) - a1 * zz - a2 * xx + 2.0 * (
            (xr * yr - xi * yi) * zr + (xr * yi + xi * yr) * zi  # Re(X01 X12 X02*)
        )
        # the floor keeps X = q1 (s = 0) out of 0/0; r is clipped to arccos's domain
        r = np.minimum(np.maximum(det / np.maximum(2.0 * s * s * s, 1e-300), -1.0), 1.0)
        phi = np.arccos(r) / 3.0
        hi = q + 2.0 * s * np.cos(phi)
        lo = q + 2.0 * s * np.cos(phi + 2.0 * np.pi / 3.0)
        w = np.array([lo, 3.0 * q - hi - lo, hi])
        # near |r| = 1 rounding in r splits a degenerate pair by about s sqrt(eps), so those
        # blocks are rebuilt from their rows for eigvalsh, which reads the lower triangle
        near = 1.0 - np.abs(r) < 1e-3
        if near.any():
            v = f[:, near]
            x = np.zeros((9, v.shape[1]), dtype=complex)
            x[[0, 4, 8]], x[[3, 6, 7]] = v[:3], v[3::2] - 1j * v[4::2]  # X10, X20, X21
            w[:, near] = np.linalg.eigvalsh(x.T.reshape(-1, 3, 3)).T
    p = w.sum(axis=0)
    wn = w / np.maximum(p, OUTCOME_FLOOR)
    ent = -np.where(wn > ENTROPY_EIG_FLOOR, wn * np.log2(np.maximum(wn, ENTROPY_EIG_FLOOR)), 0.0)
    return np.where(p > OUTCOME_FLOOR, p * ent.sum(axis=0), 0.0).sum(axis=0)


# a 3x3 stencil without its centre, in units of the spacing h
_STENCIL = np.array([[-1, -1], [-1, 0], [-1, 1], [0, -1], [0, 1], [1, -1], [1, 0], [1, 1.0]])


def _newton_refine(scan, starts, f, h, maxiter, fatol, xatol):
    """Minimize ``scan`` from each unit vector start (R, 3) of value f (R,).

    Start e moves in its tangent plane, x -> normalize(e + x1 u + x2 v).  An
    iteration scans a 3x3 stencil of spacing h around every active centre,
    whose central differences give the gradient and Hessian, then the Newton
    point where that Hessian is positive definite, capped at 4h.  A start
    keeps the best of centre, stencil and Newton point; h becomes a quarter
    of the step if it moved, else a quarter of h.  It stops at h < xatol, or
    after a gain <= fatol on a flat stencil; all stop once two stopped starts
    agree within fatol and no start is lower.  Returns (f, dirs, scans).
    """
    r = len(starts)
    k = np.abs(starts).argmin(axis=1)  # the axis least aligned with e
    u = np.eye(3)[k] - starts * starts[np.arange(r), k, None]
    u /= np.sqrt((u * u).sum(axis=1, keepdims=True))
    v = starts[:, [1, 2, 0]] * u[:, [2, 0, 1]] - starts[:, [2, 0, 1]] * u[:, [1, 2, 0]]  # e x u
    uv = np.stack([u, v], axis=1)

    def dirs(i, x):  # the unit vectors of points x (len(i), m, 2)
        d = starts[i, None] + x @ uv[i]
        return d / np.sqrt((d * d).sum(axis=-1, keepdims=True))

    x, f, h = np.zeros((r, 2)), np.array(f, dtype=float), np.full(r, h)
    active = np.ones(r, dtype=bool)
    scans = 0
    for _ in range(maxiter):
        a = active.nonzero()[0]
        if a.size == 0:
            break
        xa, fa, ha = x[a], f[a], h[a]
        fs = scan(dirs(a, xa[:, None] + ha[:, None, None] * _STENCIL).reshape(-1, 3)).reshape(-1, 8)
        df = fs - fa[:, None]
        # in units of h; columns 1, 6, 3, 4 are the points (-1, 0), (1, 0), (0, -1), (0, 1)
        g1, g2 = 0.5 * (df[:, 6] - df[:, 1]), 0.5 * (df[:, 4] - df[:, 3])
        h11, h22 = df[:, 6] + df[:, 1], df[:, 4] + df[:, 3]
        h12 = 0.25 * (df[:, 7] - df[:, 5] - df[:, 2] + df[:, 0])
        det = h11 * h22 - h12 * h12
        best = fs.argmin(axis=1)
        new_f, step = fs[np.arange(a.size), best], _STENCIL[best]
        pd = ((h11 > 0.0) & (det > 0.0)).nonzero()[0]
        if pd.size:
            t = np.array([h12 * g2 - h22 * g1, h12 * g1 - h11 * g2])[:, pd] / det[pd]
            t = (t * (4.0 / np.maximum(np.sqrt(t[0] * t[0] + t[1] * t[1]), 4.0))).T  # |t| <= 4
            fn = scan(dirs(a[pd], (xa[pd] + ha[pd, None] * t)[:, None])[:, 0])
            newton = fn < new_f[pd]
            new_f[pd[newton]], step[pd[newton]] = fn[newton], t[newton]
        scans += 1 + bool(pd.size)
        moved = new_f < fa
        gain = np.where(moved, fa - new_f, 0.0)
        x[a] = xa + np.where(moved[:, None], ha[:, None] * step, 0.0)
        f[a] = np.minimum(fa, new_f)
        h[a] = ha = ha * (0.25 * np.where(moved, np.sqrt((step * step).sum(axis=1)), 1.0))
        active[a] = (ha >= xatol) & ((gain > fatol) | (np.abs(df).max(axis=1) > fatol))
        frozen = f[~active]
        if frozen.size > 1:
            low = frozen.min()
            if np.count_nonzero(frozen <= low + fatol) >= 2 and low <= f.min():
                break
    return f, dirs(np.arange(r), x[:, None])[:, 0], scans


@dataclass(frozen=True)
class ClassicalCorrelationResult:
    """Optimized classical correlation with the winning measurement direction.

    ``grid_minimum`` is the lattice's best conditional entropy before
    refinement, ``scans`` counts objective calls (the grid scan included),
    and ``starts_agreeing`` counts refined starts that ended within 1e-9 of
    ``min_conditional_entropy``.
    """

    value: float
    best_direction: np.ndarray
    min_conditional_entropy: float
    grid_points: int
    refine_iters: int
    grid_minimum: float
    scans: int
    starts_agreeing: int


def classical_correlation_qa(
    rho: DensityMatrix,
    grid_points: int = GRID_POINTS,
    refine_iters: int = REFINE_ITERS,
    refine_starts: int = REFINE_STARTS,
) -> ClassicalCorrelationResult:
    """Q_A = H(B) - min over projective A-measurements of sum_k p_k H(B|k).

    Deterministic: the z >= 0 half of a ``grid_points``-point Fibonacci
    lattice is scanned, since e and -e are the same measurement; ties resolve
    to the lowest lattice index.  The best ``refine_starts`` points then
    take at most ``refine_iters`` stencil Newton iterations in their tangent
    planes, from a quarter of the lattice spacing.  The objective is smooth
    where both conditional states have full rank.  Where one is pure, its
    vanishing eigenvalue lam ~ |x - x*|^2 makes the term -lam log lam a kink
    whose Hessian diverges like log(1/|x - x*|), and zero-discord states
    live exactly there.  The stencil's Hessian stays finite but too large,
    the Newton point falls short, and the best stencil point moves the start
    instead: a pattern search.  A start stops when its spacing is below
    1e-7 rad: near a minimum f(x + d) - f* ~ d^2, so smaller steps only chase
    rounding in the entropy.  Only a qubit A side is supported.
    """
    if rho.dim_a != 2:
        raise DimensionError(
            f"measurement optimizer supports d_A = 2 only, got d_A = {rho.dim_a}"
        )
    grid_points = _count_arg("grid_points", grid_points, 1)
    refine_iters = _count_arg("refine_iters", refine_iters, 0)
    refine_starts = _count_arg("refine_starts", refine_starts, 0)
    g0, gx, gy, gz = a_side_blocks(rho, _PAULI_STACK)  # g0 = Tr_A rho
    dirs = _half_lattice(grid_points)
    values = conditional_entropy_scan(g0, gx, gy, gz, dirs)

    best_order = np.argsort(values, kind="stable")
    best_idx = int(best_order[0])
    grid_minimum = best_val = float(values[best_idx])
    best_dir = dirs[best_idx].copy()  # not a view of the cached lattice

    start_idx = best_order[:refine_starts]
    refined, ends, scans = _newton_refine(
        lambda d: conditional_entropy_scan(g0, gx, gy, gz, d),
        dirs[start_idx],
        values[start_idx],
        0.25 * np.sqrt(4.0 * np.pi / grid_points),
        refine_iters,
        fatol=1e-13,
        xatol=1e-7,
    )
    if len(refined) and refined.min() < best_val - 1e-15:
        i = int(np.argmin(refined))
        best_val, best_dir = float(refined[i]), ends[i]

    h_b = _entropy(np.linalg.eigvalsh(g0))
    return ClassicalCorrelationResult(
        value=h_b - best_val + 0.0,
        best_direction=best_dir,
        min_conditional_entropy=best_val,
        grid_points=grid_points,
        refine_iters=refine_iters,
        grid_minimum=grid_minimum,
        scans=1 + scans,
        starts_agreeing=int(np.count_nonzero(refined <= best_val + 1e-9)),
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
