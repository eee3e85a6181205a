"""Plain numpy references that tests compare the library's results against.

Each is the textbook formula, written without the library's realigned products.
"""

import numpy as np

from qdiscord.linalg import ID2, PAULIS, DensityMatrix


def qubit_state(b):
    """The qubit state (1 + b.sigma)/2 with Bloch vector b."""
    return (ID2 + np.tensordot(np.asarray(b, dtype=float), np.stack(PAULIS), 1)) / 2.0


def direction_projectors(e):
    """The qubit projectors (1 +- e.sigma)/2 along the direction of a 3-vector e."""
    n = np.asarray(e, dtype=float) / np.linalg.norm(e)
    return np.stack([qubit_state(n), qubit_state(-n)])


def zero_discord_mixture(e, p1, b1, b2):
    """p1 P+(e) x (1 + b1.sigma)/2 + (1 - p1) P-(e) x (1 + b2.sigma)/2, the two-qubit
    zero-discord state that measures A along e with outcome weight p1 and leaves B
    with Bloch vector b1 or b2."""
    plus, minus = direction_projectors(e)
    mat = p1 * np.kron(plus, qubit_state(b1)) + (1.0 - p1) * np.kron(minus, qubit_state(b2))
    return DensityMatrix(mat, 2, 2)


def sample_zero_discord_state(seed):
    """zero_discord_mixture at a seeded draw: e uniform on the sphere, p1 uniform on
    [0, 1], and b1, b2 uniform in the unit ball, drawn in that order."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(3)
    e /= np.linalg.norm(e)
    p1 = rng.uniform(0.0, 1.0)
    balls = rng.standard_normal((2, 3))
    balls /= np.linalg.norm(balls, axis=1, keepdims=True)
    radii = rng.uniform(0.0, 1.0, 2) ** (1.0 / 3.0)
    b1, b2 = balls * radii[:, None]
    return zero_discord_mixture(e, p1, b1, b2)


def chi_starts(restarts, seed):
    """Multi-start points of chi_distance_sq's 9-parameter family, drawn in the order theta,
    phi, tau, then the two ball vectors: the first three columns are the library's
    oracle_starts."""
    rng = np.random.default_rng(seed)
    starts = np.empty((restarts, 9))
    starts[:, 0] = np.arccos(rng.uniform(-1.0, 1.0, restarts))
    starts[:, 1] = rng.uniform(0.0, 2.0 * np.pi, restarts)
    starts[:, 2] = rng.standard_normal(restarts)
    starts[:, 3:9] = rng.standard_normal((restarts, 6))
    return starts


def chi_distance_sq(z, xv, yv, tmat):
    """Squared Hilbert-Schmidt distance from the target Bloch triple
    (xv, yv, tmat) to the zero-discord states encoded by the rows of z.

    z has shape (N, 9) and the result shape (N,).  z[:, 0:2] are sphere
    angles of the measured direction e, tanh(z[:, 2]) is the outcome bias
    p1 - p2, and z[:, 3:6], z[:, 6:9] map into the unit ball as the Bloch
    vectors of the two conditional states, so every z is physical.  This is
    the oracle's whole family searched directly, a batched objective for
    testing the simplex on.
    """
    zt = np.ascontiguousarray(z.T)
    m = zt.shape[1]
    sin = np.sin(zt[:2])
    cos = np.cos(zt[:2])
    t = np.tanh(zt[2])
    sq = zt[3:9] ** 2
    radius = np.maximum(np.sqrt(sq[::3] + sq[1::3] + sq[2::3]), 1e-12)
    weight = np.tanh(radius) / radius  # exactly 1 at the clamp
    weight[0] *= 0.5 + 0.5 * t
    weight[1] *= 0.5 - 0.5 * t
    b1, b2 = zt[3:9].reshape(2, 3, m) * weight[:, None]  # p1 b1 and p2 b2

    # model rows: t e, s+ = p1 b1 + p2 b2, then e_i s- for s- = p1 b1 - p2 b2
    model = np.empty((15, m))
    e = model[:3]
    np.multiply(sin[0], cos[1], out=e[0])
    np.multiply(sin[0], sin[1], out=e[1])
    e[2] = cos[0]
    np.multiply(e[:, None], b1 - b2, out=model[6:].reshape(3, 3, m))
    e *= t
    np.add(b1, b2, out=model[3:6])
    model -= np.concatenate([xv, yv, np.ravel(tmat)])[:, None]
    model *= model
    return 0.25 * model.sum(axis=0)


def conditional_ensemble(rho, projectors):
    """(p_k, normalized state of B) after measuring A with a projector stack;
    outcomes below 1e-12 are dropped."""
    blocks = [np.einsum("ai,ibac->bc", p, rho.blocks()) for p in projectors]  # Tr_A[(P x 1) rho]
    probs = [np.trace(x).real for x in blocks]
    return [(p, (x + x.conj().T) / (2.0 * p)) for p, x in zip(probs, blocks) if p >= 1e-12]


def hs_distance_sq(a, b):
    """||a - b||_F^2."""
    return float(np.linalg.norm(a - b) ** 2)


def commutator_norm(a, b):
    """||ab - ba||_F."""
    return float(np.linalg.norm(a @ b - b @ a))


def swap_subsystems(rho):
    """rho with the roles of A and B exchanged."""
    t = rho.blocks().transpose(1, 0, 3, 2).reshape(rho.dim, rho.dim)
    return DensityMatrix(t, rho.dim_b, rho.dim_a)


def gell_mann_coefficients(h, basis):
    """v_n = Tr(h A_n) over an operator stack."""
    return np.einsum("ij,nji->n", h, basis).real


def zero_discord_verdict(rho, ops_a, ops_b, tol=1e-9, rank_atol=1e-10, rank_rtol=1e-9):
    """(is_zero_discord, rank_l) of the paper's criterion over any orthonormal Hermitian bases.

    r_nm = Tr[rho (A_n x B_m)] by einsum, its SVD, and the largest ||[S_i, S_j]||_F over
    the retained S_n = sum_k U_kn A_k, one pair at a time.
    """
    r = np.einsum("abcd,nca,mdb->nm", rho.blocks(), ops_a, ops_b).real
    u, c, _ = np.linalg.svd(r)
    rank = int(np.sum(c > max(rank_atol, rank_rtol * c[0])))
    s = np.einsum("kn,kij->nij", u[:, :rank], ops_a)
    comm = max(
        (commutator_norm(s[i], s[j]) for i in range(rank) for j in range(i + 1, rank)),
        default=0.0,
    )
    return rank <= rho.dim_a and comm <= tol, rank
