"""Hot numeric kernels in plain numpy.

One batched Nelder-Mead advances many independent simplices per numpy call;
it drives both the geometric-discord oracle (one simplex per restart) and the
entropic refinement (one simplex per refined grid point).  The two objectives
it minimizes, the squared distance to a zero-discord state and the
measurement-direction entropy scan, are vectorized over points.
"""

from __future__ import annotations

import numpy as np

from .linalg import ENTROPY_EIG_FLOOR, OUTCOME_FLOOR

# trial points cen + c (worst - cen): reflection, expansion, outside and
# inside contraction
_TRIAL_COEFS = np.array([-1.0, -2.0, -0.5, 0.5])[:, None]


def nelder_mead(fun, sim, maxiter: int, fatol: float, xatol: float, settle: int = 0):
    """Minimize ``fun`` from R initial simplices at once; returns (f, x).

    ``sim`` has shape (R, n+1, n) and ``fun`` maps an (m, n) array of points
    to their (m,) values.  Each step sorts every simplex and reflects its
    worst vertex through the centroid of the others; masks then pick, per
    simplex, expansion, the reflected point, an outside or inside
    contraction, or a shrink towards the best vertex.  A simplex whose values
    span at most ``fatol`` and whose vertices lie within ``xatol`` of its best
    one stops and stays frozen; the others run for at most ``maxiter`` steps.
    With ``settle=0`` simplices never interact, so each result equals that
    start run alone.  With ``settle > 0`` the whole batch stops once at least
    ``settle`` frozen simplices have best values within ``fatol`` of the
    lowest frozen value and no simplex, active or frozen, has a lower best
    vertex; simplices still active then return where they stood.  Active
    simplices only go down, so this can first hold on a step where one
    freezes.
    f has shape (R,) and x shape (R, n): the best vertex of each simplex.
    """
    sim = np.array(sim, dtype=float)
    r, n1, n = sim.shape
    f = fun(sim.reshape(r * n1, n)).reshape(r, n1)
    idx = np.arange(r)
    rows = idx[:, None]
    # centroid of the n best vertices of a sorted simplex
    weights = np.append(np.full(n, 1.0 / n), 0.0)
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
        worst = sim[:, n]
        fw = f[:, n]
        cen = weights @ sim
        trial = cen[:, None, :] + _TRIAL_COEFS * (worst - cen)[:, None, :]
        ft = fun(trial.reshape(4 * r, n)).reshape(r, 4)
        fr = ft[:, 0]
        expand = fr < f[:, 0]
        outside = fr < fw
        # reflect; expand if that beat the best vertex; contract if it did
        # not beat the second-worst: outside when it beat the worst, else inside
        pick = np.where(
            expand,
            np.where(ft[:, 1] < fr, 1, 0),
            np.where(fr < f[:, n - 1], 0, np.where(outside, 2, 3)),
        )
        fnew = ft[idx, pick]
        accept = active & ((pick < 2) | np.where(outside, fnew <= fr, fnew < fw))
        sim[:, n] = np.where(accept[:, None], trial[idx, pick], worst)
        f[:, n] = np.where(accept, fnew, fw)
        shrink = active & ~accept
        if shrink.any():
            s = np.flatnonzero(shrink)
            sim[s, 1:] = sim[s, :1] + 0.5 * (sim[s, 1:] - sim[s, :1])
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

    g0, gx, gy, gz are the Pauli components of the state's B-side blocks;
    dirs is an (n, 3) array of unit vectors.  Returns an (n,) array of
    sum_k p_k H(rho_B|k) values in bits.
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
