"""Plain numpy references that tests compare the library's results against.

Each is the textbook formula, written without the library's realigned products.
"""

import numpy as np

from qdiscord.linalg import ID2, PAULIS, DensityMatrix


def direction_projectors(e):
    """The qubit projectors (1 +- e.sigma)/2 along the direction of a 3-vector e."""
    e_sigma = np.tensordot(np.asarray(e, dtype=float) / np.linalg.norm(e), np.stack(PAULIS), 1)
    return np.stack([(ID2 + e_sigma) / 2.0, (ID2 - e_sigma) / 2.0])


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
