"""Orthonormal Hermitian operator bases for local Hilbert-Schmidt spaces.

The generalized Gell-Mann family, rescaled so that Tr(A_i A_j) = delta_ij,
with the normalized identity in slot 0.  Ordering is deterministic: identity,
then symmetric pair operators, antisymmetric pair operators, and diagonal
operators, each group in lexicographic index order.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError
from .linalg import _count_arg

# Distinct dimensions whose Gell-Mann basis stays cached; a d = 64 basis is 268 MB.
BASIS_CACHE_SIZE = 8


@functools.lru_cache(maxsize=BASIS_CACHE_SIZE)
def gell_mann_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis of the d-dimensional operator space, as a (d², d, d) stack.

    For d = 2 this is {1/sqrt(2), sigma_x/sqrt(2), sigma_y/sqrt(2), sigma_z/sqrt(2)}.
    Cached per dimension: every call with the same d returns the same
    read-only array.
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
    ops.setflags(write=False)
    return ops
