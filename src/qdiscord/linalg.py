"""Dense complex-matrix substrate for bipartite states.

Partial traces, the realigned A-side products behind every expansion, and
von Neumann entropy (base 2).  All functions are pure;
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


def _is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _count_arg(name: str, value, least: float = -np.inf) -> int:
    """``value`` as an int >= least; integral floats such as 2048.0 pass, booleans do not.

    Without ``least`` only the type is checked, for a caller with its own range error.
    """
    whole = _is_integer(value) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer()
    )
    if not whole:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"need {name} >= {least}, got {value!r}")
    return int(value)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """Validated bipartite density matrix with subsystem dimensions.

    ``mat`` is (dim_a*dim_b) x (dim_a*dim_b), Hermitian, unit trace and
    positive semidefinite within the module tolerances.  Construction fails
    with :class:`ValidationError` otherwise.  Every state from a file or a
    caller is validated in full; only a state the library derives, with a
    proof in its builder's docstring, skips validation through ``_certified``.
    """

    mat: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        mat = _frozen(self.mat)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dim_a", _count_arg("dim_a", self.dim_a))
        object.__setattr__(self, "dim_b", _count_arg("dim_b", self.dim_b))
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
        wmin = float(np.linalg.eigvalsh(mat)[0])
        if wmin < -PSD_ATOL:
            raise ValidationError(f"not positive semidefinite: min eigenvalue {wmin:.3e}")

    @classmethod
    def _certified(cls, mat: np.ndarray, dim_a: int, dim_b: int) -> DensityMatrix:
        """Wrap ``mat`` without copying or validating it; ``mat`` becomes read-only.

        Only for a caller that has proven every invariant ``__post_init__``
        checks: a complex (dim_a*dim_b)-square matrix with finite entries,
        Hermitian within HERMITIAN_ATOL, trace 1 within TRACE_ATOL and minimum
        eigenvalue >= -PSD_ATOL.  The caller must hold no other writable
        reference to ``mat``.  ``dqc1_output_state`` is the one caller; its
        docstring carries the proof.
        """
        mat.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "mat", mat)
        object.__setattr__(rho, "dim_a", dim_a)
        object.__setattr__(rho, "dim_b", dim_b)
        return rho

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def blocks(self) -> np.ndarray:
        """View as a (dim_a, dim_b, dim_a, dim_b) tensor rho[a, b, a', b']."""
        return self.mat.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)


def partial_trace(rho: DensityMatrix, keep: str) -> np.ndarray:
    """Reduced state of one subsystem; ``keep`` is "A" or "B"."""
    t = rho.blocks()
    if keep == "A":
        return np.einsum("abcb->ac", t)
    if keep == "B":
        return np.einsum("abad->bd", t)
    raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")


def a_side_blocks(rho: DensityMatrix, ops: np.ndarray) -> np.ndarray:
    """X_n = Tr_A[(A_n x 1) rho] for a stack ops[n] of d_A x d_A operators, as [n, b, b'].

    X_n = sum_{a a'} A_n[a', a] M[(a, a'), :] is one BLAS product over the realignment
    M[(a, a'), (b, b')] = rho[a, b, a', b'] of Chen and Wu, Quantum Inf. Comput. 3, 193 (2003).
    """
    n, da, db = len(ops), rho.dim_a, rho.dim_b
    m = rho.blocks().transpose(0, 2, 1, 3).reshape(da * da, db * db)
    return (ops.transpose(0, 2, 1).reshape(n, da * da) @ m).reshape(n, db, db)


def a_side_sum(ops: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The matrix sum_n A_n x X_n for stacks ops[n] (d_A x d_A) and blocks[n] (d_B x d_B).

    The inverse of :func:`a_side_blocks`' realignment: M[(a, a'), (b, b')] =
    sum_n A_n[a, a'] X_n[b, b'] is one BLAS product, read back as rho[a, b, a', b'].
    """
    n, da, db = len(ops), ops.shape[1], blocks.shape[1]
    m = ops.reshape(n, da * da).T @ blocks.reshape(n, db * db)
    return m.reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(da * db, da * db)


def _expand(rho: DensityMatrix, ops_a: np.ndarray, ops_b: np.ndarray) -> np.ndarray:
    """Real coefficients r_nm = Tr[rho (A_n x B_m)] over two stacks of Hermitian operators."""
    half = a_side_blocks(rho, ops_a)
    # The sum over (b', b) is one BLAS product of the flattened half[n, b', b] and B_m[b', b].
    n_a, n_b = len(ops_a), len(ops_b)
    return (half.transpose(0, 2, 1).reshape(n_a, -1) @ ops_b.reshape(n_b, -1).T).real


def _rebuild(r: np.ndarray, ops_a: np.ndarray, ops_b: np.ndarray) -> np.ndarray:
    """The matrix sum_nm r_nm A_n x B_m; for orthonormal stacks the inverse of _expand."""
    n_b, d_b = len(ops_b), ops_b.shape[1]
    return a_side_sum(ops_a, (r @ ops_b.reshape(n_b, -1)).reshape(-1, d_b, d_b))


def von_neumann_entropy(rho) -> float:
    """Entropy -Tr(rho log2 rho) in bits; eigenvalues below 1e-12 contribute 0.

    rho must be a square matrix (DimensionError) of finite entries, Hermitian
    within HERMITIAN_ATOL (NonHermitianError; eigvalsh reads one triangle
    only) and without an eigenvalue below -PSD_ATOL (ValidationError).  The
    entries are checked first, since eigvalsh does not always pass a NaN on
    (it returns (0, -0) for diag(NaN, 1)).  The trace is not checked.
    """
    mat = _as_matrix(rho)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"entropy needs a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValidationError("entropy needs a matrix of finite entries")
    defect = np.linalg.norm(mat - mat.conj().T)
    if not defect <= HERMITIAN_ATOL:  # written so that NaN fails
        raise NonHermitianError(f"not Hermitian: defect {defect:.3e}")
    w = np.linalg.eigvalsh(mat)
    wmin = float(np.min(w, initial=0.0))  # 0.0 for a 0 x 0 matrix
    if not wmin >= -PSD_ATOL:
        raise ValidationError(f"not positive semidefinite: min eigenvalue {wmin:.3e}")
    return _entropy(w)


def _entropy(w) -> float:
    """-sum w log2 w in bits over the eigenvalues w above ENTROPY_EIG_FLOOR, unchecked.

    For marginals of a validated state: Tr_A of a state whose eigenvalues reach
    -PSD_ATOL can reach -d_A PSD_ATOL, which von_neumann_entropy refuses.
    """
    w = w[w > ENTROPY_EIG_FLOOR]
    return float(-np.sum(w * np.log2(w))) + 0.0  # + 0.0 folds -0.0 into 0.0
