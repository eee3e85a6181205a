"""Constructors for the two-qubit state families used throughout, plus
seeded random states, Haar-random unitaries, and the local measure-and-prepare
channel that can create discord.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, OutsidePhysicalError, ValidationError
from .geometric import state_from_bloch, tetrahedron_contains
from .linalg import DensityMatrix, _count_arg, a_side_blocks, a_side_sum

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)

# Bell states as tetrahedron vertices of the Bell-diagonal family.
_BELL_T = {
    0: (1.0, -1.0, 1.0),   # (|00> + |11>)/sqrt(2)
    1: (-1.0, 1.0, 1.0),   # (|00> - |11>)/sqrt(2)
    2: (1.0, 1.0, -1.0),   # (|01> + |10>)/sqrt(2)
    3: (-1.0, -1.0, -1.0),  # (|01> - |10>)/sqrt(2)
}


def projector(ket: np.ndarray) -> np.ndarray:
    """|psi><psi| for a (not necessarily normalized) ket."""
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


def bell_diagonal_state(t) -> DensityMatrix:
    """State (1x1 + sum_i t_i sigma_i x sigma_i)/4 with maximally mixed marginals."""
    t = np.asarray(t, dtype=float)
    if not tetrahedron_contains(t):  # DimensionError unless t is a 3-vector
        raise OutsidePhysicalError(f"t={t.tolist()} lies outside the physical tetrahedron")
    return DensityMatrix(state_from_bloch(np.zeros(3), np.zeros(3), np.diag(t)), 2, 2)


def bell_state(index: int) -> DensityMatrix:
    """One of the four Bell states: 0 Phi+, 1 Phi-, 2 Psi+, 3 Psi-."""
    index = _count_arg("index", index)
    if index not in _BELL_T:
        raise ValidationError(f"Bell index must be 0..3, got {index}")
    return bell_diagonal_state(_BELL_T[index])


def facet_state(s1: int, s2: int, s3: int) -> DensityMatrix:
    """Separable Bell-diagonal state at t = (s1, s2, s3)/3 with each s = +-1.

    These eight states sit at the centers of the separability octahedron's
    facets and maximize discord over the facet centers.
    """
    signs = tuple(_count_arg(name, s) for name, s in zip(("s1", "s2", "s3"), (s1, s2, s3)))
    if any(s not in (1, -1) for s in signs):
        raise ValidationError(f"facet signs must be +1 or -1, got {signs}")
    return bell_diagonal_state(np.array(signs, dtype=float) / 3.0)


def four_nonorthogonal_state() -> DensityMatrix:
    """Equal mixture correlating four nonorthogonal single-qubit states.

    (|0><0| x |+><+| + |1><1| x |-><-| + |+><+| x |1><1| + |-><-| x |0><0|)/4;
    separable by construction yet carries non-zero discord.
    """
    ops_a = np.stack([projector(k) for k in (KET0, KET1, KET_PLUS, KET_MINUS)])
    ops_b = np.stack([projector(k) for k in (KET_PLUS, KET_MINUS, KET1, KET0)])
    return DensityMatrix(a_side_sum(ops_a, ops_b) / 4.0, 2, 2)


def classical_quantum_state(p, kets, states) -> DensityMatrix:
    """Zero-discord state sum_k p_k |psi_k><psi_k| x rho_k.

    ``kets`` must be orthonormal vectors on A; ``states`` are density matrices
    on B (raw arrays or DensityMatrix values of a single system).
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise DimensionError(f"p must be a 1-d array of weights, got shape {p.shape}")
    kets = [np.asarray(k, dtype=complex) for k in kets]
    mats = [np.asarray(getattr(s, "mat", s), dtype=complex) for s in states]
    if len(kets) != len(p) or len(mats) != len(p):
        raise ValidationError("p, kets and states must have equal lengths")
    if any(k.ndim != 1 or k.shape != kets[0].shape for k in kets):
        raise DimensionError(f"kets must be 1-d and of one length, got {[k.shape for k in kets]}")
    if any(m.ndim != 2 or m.shape != mats[0].shape[:1] * 2 for m in mats):
        raise DimensionError(f"B states must be square and of one size, got {[m.shape for m in mats]}")
    if not (np.all(p >= -1e-12) and abs(p.sum() - 1.0) <= 1e-10):  # written so that NaN fails
        raise ValidationError(f"p must be nonnegative and sum to 1, got {p.tolist()}")
    dim_a = kets[0].shape[0]
    if len(p) > dim_a:
        raise ValidationError(f"at most {dim_a} orthonormal kets fit in dimension {dim_a}")
    gram = np.array([[np.vdot(u, v) for v in kets] for u in kets])
    if not np.abs(gram - np.eye(len(kets))).max() <= 1e-10:
        raise ValidationError("kets are not orthonormal")
    ops_a = np.stack([pk * projector(ket) for pk, ket in zip(p, kets)])
    return DensityMatrix(a_side_sum(ops_a, np.stack(mats)), dim_a, mats[0].shape[0])


def random_density_matrix(dim_a: int, dim_b: int, seed: int) -> DensityMatrix:
    """Full-rank random state G G† / Tr(G G†) from a seeded complex Ginibre G."""
    dim_a, dim_b = _count_arg("dim_a", dim_a), _count_arg("dim_b", dim_b)
    if dim_a < 2 or dim_b < 2:
        raise DimensionError("subsystem dimensions must be >= 2")
    d = dim_a * dim_b
    rng = np.random.default_rng(_count_arg("seed", seed, 0))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat).real, dim_a, dim_b)


def random_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed d x d unitary via phase-fixed QR of a Ginibre matrix."""
    d = _count_arg("d", d)
    if d < 1:
        raise DimensionError("dimension must be >= 1")
    rng = np.random.default_rng(_count_arg("seed", seed, 0))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def measure_prepare_channel_a(rho: DensityMatrix, kets) -> DensityMatrix:
    """Read A in the computational basis and re-prepare |psi_k> for outcome k.

    The replacement kets need not be orthogonal, which is how this local
    channel can create discord; the B marginal is untouched.
    """
    if rho.dim_a != 2:
        raise DimensionError("channel is defined for a qubit A side")
    kets = [np.asarray(k, dtype=complex) for k in kets]
    if len(kets) != 2 or any(k.shape != (2,) for k in kets):
        raise ValidationError("need exactly two single-qubit kets")
    if not all(abs(np.linalg.norm(k) - 1.0) <= 1e-10 for k in kets):  # written so that NaN fails
        raise ValidationError("kets must be normalized")
    diagonal = a_side_blocks(rho, np.stack([projector(KET0), projector(KET1)]))
    return DensityMatrix(a_side_sum(np.stack([projector(k) for k in kets]), diagonal), 2, rho.dim_b)
