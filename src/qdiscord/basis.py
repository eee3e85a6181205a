"""Orthonormal Hermitian operator bases for local Hilbert-Schmidt spaces.

The generalized Gell-Mann family, rescaled so that Tr(A_i A_j) = delta_ij,
with the normalized identity in slot 0.  Ordering is deterministic: identity,
then symmetric pair operators, antisymmetric pair operators, and diagonal
operators, each group in lexicographic index order.  ``_gell_mann_traces`` and
its adjoint ``_gell_mann_combinations`` read and write the basis as matrix
entries, so the layout is known here alone.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError
from .linalg import _count_arg

# Distinct dimensions whose Gell-Mann basis stays cached; a d = 64 basis is 268 MB.
BASIS_CACHE_SIZE = 8

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@functools.lru_cache(maxsize=BASIS_CACHE_SIZE)
def _layout(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs j < k of the pair slots and the (d, d) real diagonals of the other slots.

    Row 0 of the diagonals is the normalized identity's; row l is diagonal slot l's,
    diag(1, ..., 1, -l, 0, ..., 0) / sqrt(l (l + 1)) with l ones.  Each entry is
    a * (1 / sqrt(l (l + 1))), the rounding of complex division by a real, so the
    stack equals one built in complex arithmetic bit for bit.
    """
    j, k = np.triu_indices(d, 1)
    l = np.arange(1, d)
    diagonals = np.zeros((d, d))
    diagonals[0] = 1.0 / np.sqrt(d)
    diagonals[1:] = np.tri(d - 1, d)
    diagonals[l, l] = -l
    diagonals[1:] *= (1.0 / np.sqrt(l * (l + 1)))[:, None]
    diagonals.setflags(write=False)
    return j, k, diagonals


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
    j, k, diagonals = _layout(d)
    sym = np.arange(1, 1 + j.size)
    asym = sym + j.size
    ops[sym, j, k] = _INV_SQRT2
    ops[sym, k, j] = _INV_SQRT2
    ops[asym, j, k] = -1j * _INV_SQRT2
    ops[asym, k, j] = 1j * _INV_SQRT2
    slots = np.r_[0, 1 + 2 * j.size : d * d]
    ops[slots[:, None], np.arange(d), np.arange(d)] = diagonals
    ops.setflags(write=False)
    return ops


def _gell_mann_traces(x: np.ndarray) -> np.ndarray:
    """Re Tr(X_n G_m) for a stack x[n] of d x d matrices and G = gell_mann_basis(d), as (n, d²).

    Each G_m is diagonal or has two nonzero entries, so the traces are read from
    x's entries in O(n d²), where a product with the stack costs O(n d⁴):
    symmetric slot (j, k) is (Re X_jk + Re X_kj)/sqrt(2), antisymmetric slot
    (j, k) is (Im X_kj - Im X_jk)/sqrt(2), and the identity and diagonal slots
    are Re diag(X) times their diagonals.  x need not be Hermitian.
    """
    d = x.shape[1]
    j, k, diagonals = _layout(d)
    # X + X† holds Re X_jk + Re X_kj in its real part and Im X_jk - Im X_kj in its imaginary part
    pairs = (x + x.conj().transpose(0, 2, 1))[:, j, k]
    diag = np.diagonal(x, axis1=1, axis2=2).real @ diagonals.T
    return np.concatenate(
        [diag[:, :1], pairs.real * _INV_SQRT2, pairs.imag * -_INV_SQRT2, diag[:, 1:]], axis=1
    )


def _gell_mann_combinations(v: np.ndarray, d: int) -> np.ndarray:
    """sum_m v[n, m] G_m for real rows v[n] of length d², as (n, d, d): the adjoint of
    ``_gell_mann_traces``, O(n d²) where a product with the stack takes O(n d⁴) and d⁴ memory."""
    j, k, diagonals = _layout(d)
    sym, asym = np.split(v[:, 1 : 1 + 2 * j.size] * _INV_SQRT2, 2, axis=1)
    out = np.zeros((v.shape[0], d, d), dtype=complex)
    out[:, j, k] = sym - 1j * asym
    out[:, k, j] = sym + 1j * asym
    diag = np.concatenate([v[:, :1], v[:, 1 + 2 * j.size :]], axis=1) @ diagonals
    out[:, np.arange(d), np.arange(d)] = diag
    return out
