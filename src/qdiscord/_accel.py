"""Hot numeric kernels in plain numpy.

One batched Nelder-Mead advances many independent simplices per numpy call;
it drives the geometric-discord oracle, one simplex per restart.  A step
costs about the same numpy dispatch at 8 points as at 128, so it moves
several vertices of each simplex at once (D. Lee and M. Wiswall, Comput.
Econ. 30, 171 (2007)), with coefficients adapted to the dimension (F. Gao
and L. Han, Comput. Optim. Appl. 51, 259 (2012)): three of the oracle's 10
vertices.  The entropic refinement does not use it: its stencil Newton steps
(``entropic._newton_refine``) call the measurement-direction entropy scan
below.  Both objectives, the squared distance to a zero-discord state and
that scan, are vectorized over points.
"""

from __future__ import annotations

import numpy as np

from .linalg import ENTROPY_EIG_FLOOR, OUTCOME_FLOOR

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
    batch.  Each moved vertex expands if its reflection beats the best
    vertex, keeps the reflection if that beats the worst vertex not being
    moved, and otherwise contracts, outside or inside, against its own
    value; a simplex shrinks towards its best vertex only when none of its
    p moves was accepted.  At n = 2 this is the classic single-vertex step
    with coefficients 1, 2, 1/2 and 1/2.

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
    # trial points cen + c (vertex - cen): reflection, expansion, outside and
    # inside contraction
    coefs = np.array([-1.0, -(1.0 + 2.0 / n), -contract, contract])[:, None]
    shrink_by = 1.0 - 1.0 / n
    idx = np.arange(r)
    rows = idx[:, None]
    cols = np.arange(p)
    # centroid of the kept vertices of a sorted simplex
    weights = np.append(np.full(kept, 1.0 / kept), np.zeros(p))
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
        cen = weights @ sim
        trial = cen[:, None, None, :] + coefs * (worst - cen[:, None, :])[:, :, None, :]
        ft = fun(trial.reshape(4 * r * p, n)).reshape(r, p, 4)
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
        fnew = ft[rows, cols, pick]
        accept = active[:, None] & ((pick < 2) | np.where(outside, fnew <= fr, fnew < fw))
        sim[:, kept:] = np.where(accept[..., None], trial[rows, cols, pick], worst)
        f[:, kept:] = np.where(accept, fnew, fw)
        shrink = active & ~accept.any(axis=1)
        if shrink.any():
            s = np.flatnonzero(shrink)
            sim[s, 1:] = sim[s, :1] + shrink_by * (sim[s, 1:] - sim[s, :1])
            f[s, 1:] = fun(sim[s, 1:].reshape(-1, n)).reshape(s.size, n)
    best = np.argmin(f, axis=1)
    return f[idx, best], sim[idx, best]


def chi_distance_sq(z, xv, yv, tmat):
    """Squared Hilbert-Schmidt distance from the target Bloch triple
    (xv, yv, tmat) to the zero-discord states encoded by the rows of z.

    z has shape (N, 9) and the result shape (N,).  z[:, 0:2] are sphere
    angles of the measured direction e, tanh(z[:, 2]) is the outcome bias
    p1 - p2, and z[:, 3:6], z[:, 6:9] map into the unit ball as the Bloch
    vectors of the two conditional states, so every z is physical.
    """
    zt = z.T
    m = zt.shape[1]
    sin = np.sin(zt[:2])
    cos = np.cos(zt[:2])
    t = np.tanh(zt[2])
    p1 = 0.5 * (1.0 + t)
    balls = zt[3:9].reshape(2, 3, m)
    radius = np.sqrt((balls * balls).sum(axis=1))
    weight = np.where(radius > 1e-12, np.tanh(radius) / np.maximum(radius, 1e-12), 1.0)
    weight[0] *= p1
    weight[1] *= 1.0 - p1
    b1, b2 = balls * weight[:, None, :]  # p1 b1 and p2 b2

    # model rows: t e, s+ = p1 b1 + p2 b2, then e_i s- for s- = p1 b1 - p2 b2
    model = np.empty((5, 3, m))
    e = model[0]
    np.multiply(sin[0], cos[1], out=e[0])
    np.multiply(sin[0], sin[1], out=e[1])
    e[2] = cos[0]
    np.multiply(e[:, None, :], b1 - b2, out=model[2:])
    e *= t
    np.add(b1, b2, out=model[1])
    res = np.concatenate([xv, yv, np.ravel(tmat)])[:, None] - model.reshape(15, m)
    return 0.25 * (res * res).sum(axis=0)


def conditional_entropy_scan(g0, gx, gy, gz, dirs):
    """Average conditional entropy of B after measuring A along each direction.

    g0, gx, gy, gz are the B-side blocks Tr_A[(s x 1) rho] for s = 1, sigma_x,
    sigma_y, sigma_z; dirs is an (n, 3) array of unit vectors.  Measuring A along
    e leaves B in the unnormalized blocks (g0 +- (e1 gx + e2 gy + e3 gz))/2.
    Returns an (n,) array of sum_k p_k H(rho_B|k) values in bits.
    """
    d = g0.shape[0]
    g = (dirs @ np.stack([gx, gy, gz]).reshape(3, d * d)).reshape(-1, d, d)
    blocks = 0.5 * (g0 + np.stack([g, -g]))  # the two outcomes' unnormalized B states
    if d == 2:
        # closed-form eigenvalues of [[a, c], [c*, b]]
        a = blocks[..., 0, 0].real
        b = blocks[..., 1, 1].real
        c = blocks[..., 0, 1]
        half_gap = 0.5 * np.sqrt((a - b) ** 2 + 4.0 * (c.real**2 + c.imag**2))
        mid = 0.5 * (a + b)
        w = np.stack([mid - half_gap, mid + half_gap], axis=-1)
    else:
        w = np.linalg.eigvalsh(blocks)
    p = w.sum(axis=-1)
    wn = w / np.maximum(p, OUTCOME_FLOOR)[..., None]
    ent = -np.where(wn > ENTROPY_EIG_FLOOR, wn * np.log2(np.maximum(wn, ENTROPY_EIG_FLOOR)), 0.0)
    return np.where(p > OUTCOME_FLOOR, p * ent.sum(axis=-1), 0.0).sum(axis=0)
