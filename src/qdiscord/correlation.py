"""Correlation matrix of a bipartite state and the zero-discord criterion.

Expanding rho = sum_nm r_nm A_n x B_m over orthonormal Hermitian bases gives
a real matrix R whose SVD rotates the local bases into operators S_n, F_n
with rho = sum_n c_n S_n x F_n.  The state has zero discord iff R keeps at
most d_A singular values and the retained S_n pairwise commute.  The
commutator is bilinear, so any orthonormal basis of the retained span, and
hence any SVD under degenerate singular values, gives the same verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import HermitianBasis, gell_mann_basis
from .errors import DimensionError, ValidationError
from .linalg import DensityMatrix, _check_tolerances

RANK_ATOL = 1e-10
RANK_RTOL = 1e-9
COMMUTATOR_TOL = 1e-9


@dataclass(frozen=True)
class CorrelationMatrix:
    """Expansion coefficients r_nm with their thin SVD.

    r = svd_u @ diag(singulars) @ svd_v.T, where svd_u is d_A² x k and svd_v
    is d_B² x k with orthonormal columns, k = min(d_A², d_B²).
    rank_tolerance is the resolved singular-value cutoff used for the
    numerical rank.
    """

    r: np.ndarray
    basis_a: HermitianBasis
    basis_b: HermitianBasis
    svd_u: np.ndarray
    svd_v: np.ndarray
    singulars: np.ndarray
    rank_tolerance: float
    dim_a: int
    dim_b: int


@dataclass(frozen=True)
class LocalOperatorPair:
    """One term c_n S_n x F_n of the SVD-rotated product expansion."""

    weight: float
    op_a: np.ndarray
    op_b: np.ndarray


@dataclass(frozen=True)
class ZeroDiscordVerdict:
    is_zero_discord: bool
    rank_l: int
    max_commutator: float
    witness_triggered: bool


@dataclass(frozen=True)
class PartialRowsVerdict:
    discord_proven: bool
    independent_count: int


def _half_contract(rho: DensityMatrix, ops_a: np.ndarray) -> np.ndarray:
    """Tr_A[(A_n x 1) rho] for every n, as [n, b, b'] = sum_{a a'} A_n[a', a] rho[a, b, a', b']."""
    return np.einsum("abcd,nca->nbd", rho.blocks(), ops_a)


def _expand(rho: DensityMatrix, ops_a: np.ndarray, ops_b: np.ndarray) -> np.ndarray:
    """Real coefficients r_nm = Tr[rho (A_n x B_m)] over two stacks of Hermitian operators."""
    half = _half_contract(rho, ops_a)
    # The sum over (b', b) is one BLAS product of the flattened half[n, b', b] and B_m[b', b].
    n_a, n_b = len(ops_a), len(ops_b)
    return (half.transpose(0, 2, 1).reshape(n_a, -1) @ ops_b.reshape(n_b, -1).T).real


def _rebuild(r: np.ndarray, ops_a: np.ndarray, ops_b: np.ndarray) -> np.ndarray:
    """The matrix sum_nm r_nm A_n x B_m; for orthonormal stacks the inverse of _expand."""
    t = np.einsum("nm,nac,mbd->abcd", r, ops_a, ops_b)
    d = ops_a.shape[1] * ops_b.shape[1]
    return t.reshape(d, d)


def _rank_cutoff(c: np.ndarray, atol: float, rtol: float) -> float:
    """Singular-value cutoff max(atol, rtol * c_max) for descending, possibly empty, c."""
    return max(atol, rtol * (c[0] if c.size else 0.0))


def correlation_matrix(
    rho: DensityMatrix,
    basis_a: HermitianBasis | None = None,
    basis_b: HermitianBasis | None = None,
    atol: float = RANK_ATOL,
    rtol: float = RANK_RTOL,
) -> CorrelationMatrix:
    """Correlation matrix r_nm = Tr[rho (A_n x B_m)] with eager SVD."""
    _check_tolerances(atol=atol, rtol=rtol)
    basis_a = basis_a if basis_a is not None else gell_mann_basis(rho.dim_a)
    basis_b = basis_b if basis_b is not None else gell_mann_basis(rho.dim_b)
    if basis_a.dim != rho.dim_a or basis_b.dim != rho.dim_b:
        raise DimensionError(
            f"basis dims ({basis_a.dim}, {basis_b.dim}) do not match state dims "
            f"({rho.dim_a}, {rho.dim_b})"
        )
    r = _expand(rho, basis_a.ops, basis_b.ops)
    u, c, vh = np.linalg.svd(r, full_matrices=False)
    return CorrelationMatrix(
        r=r,
        basis_a=basis_a,
        basis_b=basis_b,
        svd_u=u,
        svd_v=vh.T,
        singulars=c,
        rank_tolerance=_rank_cutoff(c, atol, rtol),
        dim_a=rho.dim_a,
        dim_b=rho.dim_b,
    )


def numerical_rank(cm: CorrelationMatrix) -> int:
    """Number of singular values above the resolved cutoff."""
    return int(np.sum(cm.singulars > cm.rank_tolerance))


def local_operators(cm: CorrelationMatrix) -> list[LocalOperatorPair]:
    """Retained terms (c_n, S_n, F_n); S_n mixes basis A with column n of U."""
    rank = numerical_rank(cm)
    ops_a = _rotated_operators(cm.svd_u[:, :rank], cm.basis_a)
    ops_b = _rotated_operators(cm.svd_v[:, :rank], cm.basis_b)
    return [
        LocalOperatorPair(weight=float(cm.singulars[n]), op_a=ops_a[n], op_b=ops_b[n])
        for n in range(rank)
    ]


def _rotated_operators(columns: np.ndarray, basis: HermitianBasis) -> np.ndarray:
    """sum_k columns[k, n] basis.ops[k] for every column n, as one BLAS product."""
    return np.tensordot(columns.T, basis.ops, axes=1)


def reconstruct_state(cm: CorrelationMatrix) -> DensityMatrix:
    """Rebuild the state sum_nm r_nm A_n x B_m from its correlation matrix."""
    mat = _rebuild(cm.r, cm.basis_a.ops, cm.basis_b.ops)
    return DensityMatrix(mat, cm.dim_a, cm.dim_b)


def zero_discord_test(
    rho: DensityMatrix,
    tol: float = COMMUTATOR_TOL,
    basis_a: HermitianBasis | None = None,
    basis_b: HermitianBasis | None = None,
    rank_atol: float = RANK_ATOL,
    rank_rtol: float = RANK_RTOL,
) -> ZeroDiscordVerdict:
    """Decide whether a state has zero discord with respect to subsystem A.

    The verdict is rank_l <= d_A and max_commutator <= tol, where rank_l
    counts the singular values of R above the rank cutoff and max_commutator
    is the largest Frobenius norm ||S_i S_j - S_j S_i|| over the retained S_n.
    The S_n are orthonormal (an orthonormal basis rotated by orthonormal
    columns of U), so these norms need no rescaling.
    """
    _check_tolerances(tol=tol, rank_atol=rank_atol, rank_rtol=rank_rtol)
    cm = correlation_matrix(rho, basis_a, basis_b, atol=rank_atol, rtol=rank_rtol)
    rank = numerical_rank(cm)
    witness = rank > rho.dim_a

    ops = _rotated_operators(cm.svd_u[:, :rank], cm.basis_a)
    max_comm = 0.0
    for i in range(rank - 1):
        # [S_i, S_j] for every j > i as one batched product: O(rank d_A^2) memory.
        comm = ops[i] @ ops[i + 1 :] - ops[i + 1 :] @ ops[i]
        max_comm = max(max_comm, float(np.linalg.norm(comm, axis=(1, 2)).max()))

    return ZeroDiscordVerdict(
        is_zero_discord=not witness and max_comm <= tol,
        rank_l=rank,
        max_commutator=max_comm,
        witness_triggered=witness,
    )


def _coerce_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    indices = []
    vectors = []
    for a_index, values in rows:
        indices.append(int(a_index))
        vectors.append(np.asarray(values, dtype=float))
    if len(set(indices)) != len(indices):
        raise ValidationError("duplicate a_index in rows")
    if not vectors:
        raise ValidationError("no rows supplied")
    lengths = {v.shape for v in vectors}
    if len(lengths) != 1 or vectors[0].ndim != 1:
        raise DimensionError("rows must be 1-d vectors of equal length")
    stacked = np.stack(vectors)
    if not np.all(np.isfinite(stacked)):
        raise ValidationError("rows contain non-finite values")
    return np.array(indices), stacked


def partial_rows_witness(
    rows,
    dim_a: int,
    atol: float = RANK_ATOL,
    rtol: float = RANK_RTOL,
) -> PartialRowsVerdict:
    """Discord witness from a subset of correlation-matrix rows.

    ``rows`` is an iterable of (a_index, vector) pairs.  Finding d_A + 1
    linearly independent rows proves the state has non-zero discord.
    """
    _check_tolerances(atol=atol, rtol=rtol)
    _, stacked = _coerce_rows(rows)
    c = np.linalg.svd(stacked, compute_uv=False)
    count = int(np.sum(c > _rank_cutoff(c, atol, rtol)))
    return PartialRowsVerdict(discord_proven=count >= dim_a + 1, independent_count=count)


def certifying_rows(rows, dim_a: int, atol: float = RANK_ATOL, rtol: float = RANK_RTOL):
    """Greedy minimal list of a_index values whose rows certify the witness.

    Returns None when the supplied rows cannot prove discord.
    """
    _check_tolerances(atol=atol, rtol=rtol)
    indices, stacked = _coerce_rows(rows)
    picked: list[int] = []
    kept = np.empty((0, stacked.shape[1]))
    for pos in range(len(indices)):
        candidate = np.vstack([kept, stacked[pos]])
        c = np.linalg.svd(candidate, compute_uv=False)
        if int(np.sum(c > _rank_cutoff(c, atol, rtol))) == candidate.shape[0]:
            kept = candidate
            picked.append(int(indices[pos]))
            if len(picked) >= dim_a + 1:
                return picked
    return None
