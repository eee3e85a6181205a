"""Correlation matrix of a bipartite state and the zero-discord criterion.

Expanding rho = sum_nm r_nm A_n x B_m over the local Gell-Mann bases gives a
real matrix R whose SVD rotates them into operators S_n, F_n with
rho = sum_n c_n S_n x F_n.  The state has zero discord iff R keeps at most
d_A singular values and the retained S_n pairwise commute.  The commutator
is bilinear, so any orthonormal basis of the retained span, and hence any
SVD under degenerate singular values or any other orthonormal Hermitian
local bases (which only rotate R), gives the same verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import _gell_mann_combinations, _gell_mann_traces, gell_mann_basis
from .errors import DimensionError, ValidationError
from .linalg import DensityMatrix, _check_tolerances, _expand, _is_integer, a_side_blocks

RANK_ATOL = 1e-10
RANK_RTOL = 1e-9
COMMUTATOR_TOL = 1e-9
# complex entries (1 MiB) per batched commutator temporary; at 16x16 a block is one row
_COMM_BLOCK = 1 << 16
# Above this d_B, r is read from the entries of the A-side blocks; at or below it the dense
# product with the (d_B², d_B, d_B) Gell-Mann stack is faster (measured crossover, 1 BLAS thread)
_READ_ENTRIES_ABOVE_DIM_B = 8


@dataclass(frozen=True)
class CorrelationMatrix:
    """Expansion coefficients r_nm with their thin SVD.

    r = svd_u @ diag(singulars) @ svd_v.T, where svd_u is d_A² x k and svd_v
    is d_B² x k with orthonormal columns, k = min(d_A², d_B²).
    basis_a is A's (d², d, d) Gell-Mann stack; no B stack is kept.
    rank_tolerance is the resolved singular-value cutoff used for the
    numerical rank.
    """

    r: np.ndarray
    basis_a: np.ndarray
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


def _rank_cutoff(c: np.ndarray, atol: float, rtol: float) -> float:
    """Singular-value cutoff max(atol, rtol * c_max) for descending, possibly empty, c."""
    return max(atol, rtol * (c[0] if c.size else 0.0))


def correlation_matrix(
    rho: DensityMatrix,
    atol: float = RANK_ATOL,
    rtol: float = RANK_RTOL,
) -> CorrelationMatrix:
    """Correlation matrix r_nm = Tr[rho (A_n x B_m)] with eager SVD; no B stack above d_B = 8."""
    _check_tolerances(atol=atol, rtol=rtol)
    if rho.dim_a < 2 or rho.dim_b < 2:
        raise DimensionError(
            f"the criterion needs subsystem dimensions >= 2, got state dims ({rho.dim_a}, {rho.dim_b})"
        )
    basis_a = gell_mann_basis(rho.dim_a)
    if rho.dim_b > _READ_ENTRIES_ABOVE_DIM_B:
        r = _gell_mann_traces(a_side_blocks(rho, basis_a))
    else:
        r = _expand(rho, basis_a, gell_mann_basis(rho.dim_b))
    u, c, vh = np.linalg.svd(r, full_matrices=False)
    return CorrelationMatrix(
        r, basis_a, u, vh.T, c, _rank_cutoff(c, atol, rtol), rho.dim_a, rho.dim_b
    )


def numerical_rank(cm: CorrelationMatrix) -> int:
    """Number of singular values above the resolved cutoff."""
    return int(np.count_nonzero(cm.singulars > cm.rank_tolerance))


def local_operators(cm: CorrelationMatrix) -> list[LocalOperatorPair]:
    """Retained terms (c_n, S_n, F_n), with S_n and F_n written entry by entry from
    columns n of U and V; no Gell-Mann stack is built for either side."""
    rank = numerical_rank(cm)
    ops_a = _gell_mann_combinations(cm.svd_u[:, :rank].T, cm.dim_a)
    ops_b = _gell_mann_combinations(cm.svd_v[:, :rank].T, cm.dim_b)
    return [
        LocalOperatorPair(weight=float(cm.singulars[n]), op_a=ops_a[n], op_b=ops_b[n])
        for n in range(rank)
    ]


def zero_discord_test(
    rho: DensityMatrix,
    tol: float = COMMUTATOR_TOL,
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
    cm = correlation_matrix(rho, atol=rank_atol, rtol=rank_rtol)
    rank = numerical_rank(cm)
    witness = rank > rho.dim_a

    d_a = rho.dim_a  # S_n = sum_k U_kn A_k as one BLAS product
    ops = (cm.svd_u[:, :rank].T @ cm.basis_a.reshape(-1, d_a * d_a)).reshape(-1, d_a, d_a)
    max_comm = 0.0
    # [S_i, S_j] for a block of rows i against every j > i0, one batched product per block
    # of at most _COMM_BLOCK entries.  The pairs with j <= i add only [S_i, S_i] = 0 and
    # -[S_j, S_i], whose norm the row j already gave, so the maximum is unchanged.
    block = max(1, _COMM_BLOCK // max(1, rank * rho.dim_a**2))
    for i0 in range(0, rank - 1, block):
        left, right = ops[i0 : i0 + block, None], ops[i0 + 1 :]
        comm = left @ right - right @ left
        max_comm = max(max_comm, float(np.linalg.norm(comm, axis=(2, 3)).max()))

    return ZeroDiscordVerdict(
        is_zero_discord=not witness and max_comm <= tol,
        rank_l=rank,
        max_commutator=max_comm,
        witness_triggered=witness,
    )


def _coerce_rows(rows, dim_a) -> tuple[np.ndarray, np.ndarray]:
    if not (_is_integer(dim_a) and dim_a >= 1):
        raise DimensionError(f"dim_a must be an integer >= 1, got {dim_a!r}")
    indices = []
    vectors = []
    for a_index, values in rows:
        if not (_is_integer(a_index) and 0 <= a_index < dim_a**2):
            raise ValidationError(
                f"a_index must be an integer in 0..{dim_a**2 - 1}, got {a_index!r}"
            )
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
    linearly independent rows proves the state has non-zero discord.  ``dim_a``
    must be an integer >= 1 (DimensionError) and each a_index an integer in
    0..dim_a^2 - 1 (ValidationError).
    """
    _check_tolerances(atol=atol, rtol=rtol)
    _, stacked = _coerce_rows(rows, dim_a)
    c = np.linalg.svd(stacked, compute_uv=False)
    count = int(np.sum(c > _rank_cutoff(c, atol, rtol)))
    return PartialRowsVerdict(discord_proven=count >= dim_a + 1, independent_count=count)


def certifying_rows(rows, dim_a: int, atol: float = RANK_ATOL, rtol: float = RANK_RTOL):
    """Greedy minimal list of a_index values whose rows certify the witness.

    Returns None when the supplied rows cannot prove discord.
    """
    _check_tolerances(atol=atol, rtol=rtol)
    indices, stacked = _coerce_rows(rows, dim_a)
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
