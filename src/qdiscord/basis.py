"""Orthonormal Hermitian operator bases for local Hilbert-Schmidt spaces.

The generalized Gell-Mann family, rescaled so that Tr(A_i A_j) = delta_ij,
with the normalized identity in slot 0.  Ordering is deterministic: identity,
then symmetric pair operators, antisymmetric pair operators, and diagonal
operators, each group in lexicographic index order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonHermitianError, ValidationError
from .linalg import _count_arg

ORTHONORMAL_ATOL = 1e-12
# Distinct dimensions whose Gell-Mann basis stays cached; a d = 64 basis is 268 MB.
BASIS_CACHE_SIZE = 8


@dataclass(frozen=True)
class HermitianBasis:
    """d*d orthonormal Hermitian operators stacked as an (d², d, d) array."""

    dim: int
    ops: np.ndarray

    def __post_init__(self):
        ops = np.array(self.ops, dtype=complex)
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)
        d = self.dim
        if ops.shape != (d * d, d, d):
            raise DimensionError(f"expected {(d*d, d, d)} operator stack, got {ops.shape}")
        herm = np.linalg.norm(ops - ops.conj().transpose(0, 2, 1), axis=(1, 2))
        if not herm.max() <= ORTHONORMAL_ATOL:  # written so that NaN fails
            raise NonHermitianError(f"basis operator Hermiticity defect {herm.max():.3e}")
        # Tr(A_n A_m) = sum_ij A_n[i, j] conj(A_m[i, j]) for Hermitian A_m: one BLAS product.
        flat = ops.reshape(d * d, d * d)
        gram = (flat @ flat.conj().T).real
        if not np.abs(gram - np.eye(d * d)).max() <= ORTHONORMAL_ATOL:
            raise ValidationError("basis is not orthonormal")
        if not np.abs(ops[0] - np.eye(d) / np.sqrt(d)).max() <= ORTHONORMAL_ATOL:
            raise ValidationError("ops[0] must be the normalized identity")

    def __len__(self) -> int:
        return self.ops.shape[0]


@functools.lru_cache(maxsize=BASIS_CACHE_SIZE)
def gell_mann_basis(d: int) -> HermitianBasis:
    """Orthonormal Hermitian basis of the d-dimensional operator space.

    For d = 2 this is {1/sqrt(2), sigma_x/sqrt(2), sigma_y/sqrt(2), sigma_z/sqrt(2)}.
    Cached per dimension: every call with the same d returns the same
    immutable basis.
    """
    d = _count_arg("d", d)
    if d < 2:
        raise DimensionError(f"basis needs dimension >= 2, got {d}")
    ops = np.zeros((d * d, d, d), dtype=complex)
    ops[0] = np.eye(d, dtype=complex) / np.sqrt(d)
    j, k = np.triu_indices(d, 1)
    sym = np.arange(1, 1 + j.size)
    asym = sym + j.size
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    ops[sym, j, k] = inv_sqrt2
    ops[sym, k, j] = inv_sqrt2
    ops[asym, j, k] = -1j * inv_sqrt2
    ops[asym, k, j] = 1j * inv_sqrt2
    # Row l - 1 is diag(1, ..., 1, -l, 0, ..., 0) / sqrt(l (l + 1)) with l ones.
    l = np.arange(1, d)
    diag = np.tri(d - 1, d, dtype=complex)
    diag[l - 1, l] = -l
    diag /= np.sqrt(l * (l + 1))[:, None]
    ops[1 + 2 * j.size :, np.arange(d), np.arange(d)] = diag
    return HermitianBasis(dim=d, ops=ops)
