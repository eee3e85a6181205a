"""Dense complex-matrix substrate for bipartite states.

Tensor products, partial traces, Hermitian eigendecompositions, von Neumann
entropy (base 2) and commutator norms.  All functions are pure;
:class:`DensityMatrix` values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonHermitianError, ValidationError

# Validation tolerances for density matrices.
HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10

# Eigenvalues below this threshold contribute nothing to entropies.
ENTROPY_EIG_FLOOR = 1e-12
# Measurement outcomes less likely than this are dropped.
OUTCOME_FLOOR = 1e-12

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# (1, sigma_x, sigma_y, sigma_z): the local operator stack of the two-qubit Bloch expansion.
_PAULI_STACK = np.stack((ID2,) + PAULIS)


def _as_matrix(op) -> np.ndarray:
    """Accept a raw ndarray or anything exposing a ``.mat`` attribute."""
    return np.asarray(getattr(op, "mat", op))


def _check_tolerances(**tolerances: float) -> None:
    """Raise ValidationError naming the first tolerance outside 0 <= value < inf."""
    for name, value in tolerances.items():
        if not 0.0 <= value < float("inf"):
            raise ValidationError(f"{name} must be finite and >= 0, got {value}")


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _cholesky_psd(mat: np.ndarray) -> bool:
    """True when mat + PSD_ATOL * 1 has a Cholesky factor, so min eigenvalue >= -PSD_ATOL.

    About five times cheaper than eigvalsh, and like it reads the lower
    triangle only; a False near the boundary is settled by eigvalsh.
    """
    shifted = mat.copy()
    shifted.flat[:: mat.shape[0] + 1] += PSD_ATOL
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class DensityMatrix:
    """Validated bipartite density matrix with subsystem dimensions.

    ``mat`` is (dim_a*dim_b) x (dim_a*dim_b), Hermitian, unit trace and
    positive semidefinite within the module tolerances.  Construction fails
    with :class:`ValidationError` otherwise.
    """

    mat: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        mat = _frozen(self.mat)
        object.__setattr__(self, "mat", mat)
        d = self.dim_a * self.dim_b
        if self.dim_a < 1 or self.dim_b < 1:
            raise DimensionError("subsystem dimensions must be >= 1")
        if mat.shape != (d, d):
            raise DimensionError(
                f"matrix shape {mat.shape} does not match dims ({self.dim_a}, {self.dim_b})"
            )
        finite = np.isfinite(mat)
        if not finite.all():
            i, j = (int(v) for v in np.argwhere(~finite)[0])
            raise ValidationError(f"entry ({i}, {j}) is not finite: {mat[i, j]}")
        herm_defect = np.linalg.norm(mat - mat.conj().T)
        if herm_defect > HERMITIAN_ATOL:
            raise ValidationError(f"not Hermitian: defect {herm_defect:.3e}")
        tr = np.trace(mat)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValidationError(f"trace is {tr:.12g}, expected 1")
        if not _cholesky_psd(mat):
            wmin = float(np.linalg.eigvalsh(mat)[0])
            if wmin < -PSD_ATOL:
                raise ValidationError(f"not positive semidefinite: min eigenvalue {wmin:.3e}")

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def blocks(self) -> np.ndarray:
        """View as a (dim_a, dim_b, dim_a, dim_b) tensor rho[a, b, a', b']."""
        return self.mat.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order with matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two operators."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def partial_trace(rho: DensityMatrix, keep: str) -> np.ndarray:
    """Reduced state of one subsystem; ``keep`` is "A" or "B"."""
    t = rho.blocks()
    if keep == "A":
        return np.einsum("abcb->ac", t)
    if keep == "B":
        return np.einsum("abad->bd", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def swap_subsystems(rho: DensityMatrix) -> DensityMatrix:
    """Exchange the roles of A and B."""
    t = rho.blocks().transpose(1, 0, 3, 2)
    return DensityMatrix(t.reshape(rho.dim, rho.dim), rho.dim_b, rho.dim_a)


def eig_hermitian(h, atol: float = 1e-9) -> Spectrum:
    """Descending-order eigendecomposition of a Hermitian matrix."""
    mat = _as_matrix(h)
    defect = np.linalg.norm(mat - mat.conj().T)
    if defect > atol:
        raise NonHermitianError(f"Hermiticity defect {defect:.3e} exceeds {atol:.1e}")
    w, v = np.linalg.eigh(mat)
    return Spectrum(eigenvalues=w[::-1].copy(), eigenvectors=v[:, ::-1].copy())


def von_neumann_entropy(rho) -> float:
    """Entropy -Tr(rho log2 rho) in bits; eigenvalues below 1e-12 contribute 0."""
    w = np.linalg.eigvalsh(_as_matrix(rho))
    w = w[w > ENTROPY_EIG_FLOOR]
    return float(-np.sum(w * np.log2(w))) + 0.0  # + 0.0 folds -0.0 into 0.0


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr(a† b)."""
    return complex(np.trace(_as_matrix(a).conj().T @ _as_matrix(b)))


def commutator_norm(a, b) -> float:
    """Frobenius norm of the commutator ab - ba."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimensionError(f"need equal square matrices, got {a.shape} and {b.shape}")
    return float(np.linalg.norm(a @ b - b @ a))
