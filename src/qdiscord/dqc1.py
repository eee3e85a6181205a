"""One-clean-qubit (DQC1) trace estimation and its discord classification.

The circuit correlates a control qubit of purity alpha with an n-qubit
maximally mixed register through a controlled unitary; measuring the control
in the sigma_1 / sigma_2 bases estimates the normalized trace Tr(U)/2^n with
shot overhead 1/alpha^2.  The output state carries zero discord exactly when
U is a phase times a Hermitian unitary, i.e. U^2 is proportional to the
identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotUnitaryError, ValidationError
from .linalg import DensityMatrix, _check_tolerances

UNITARY_ATOL = 1e-9
CLASSICALITY_RTOL = 1e-9
MAX_REGISTER_QUBITS = 11
MAX_SAMPLES = int(np.iinfo(np.int64).max)


def _check_unitary(u: np.ndarray, atol: float = UNITARY_ATOL) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionError(f"unitary must be square, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise NotUnitaryError("unitary has non-finite entries")
    defect = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
    if defect > atol:
        raise NotUnitaryError(f"unitarity defect {defect:.3e} exceeds {atol:.1e}")
    return u


@dataclass(frozen=True)
class Dqc1Instance:
    """Register size n, control purity alpha in (0, 1], and the n-qubit unitary."""

    n: int
    alpha: float
    unitary: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.n > MAX_REGISTER_QUBITS:
            raise DimensionError(f"register size must be 1..{MAX_REGISTER_QUBITS}, got {self.n}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValidationError(
                f"alpha must lie in (0, 1]; alpha = {self.alpha} gives no signal"
            )
        u = _check_unitary(self.unitary)
        if u.shape[0] != 2**self.n:
            raise DimensionError(f"unitary dim {u.shape[0]} does not match 2^{self.n}")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)

    def normalized_trace(self) -> complex:
        """Tr(U)/2^n, the value the DQC1 readout estimates."""
        return complex(np.trace(self.unitary)) / 2**self.n


def dqc1_output_state(inst: Dqc1Instance) -> DensityMatrix:
    """Output state (1 x 1 + alpha |1><0| x U + alpha |0><1| x U†) / 2^(n+1)."""
    d = 2**inst.n
    u = inst.unitary
    mat = np.zeros((2 * d, 2 * d), dtype=complex)
    np.fill_diagonal(mat, 1.0 / (2 * d))
    # Scaled in place, in the order alpha * u / (2d): no full-size temporaries.
    lower, upper = mat[d:, :d], mat[:d, d:]
    np.multiply(u, inst.alpha, out=lower)
    lower /= 2 * d
    np.conjugate(lower.T, out=upper)
    return DensityMatrix(mat, 2, d)


def dqc1_exact_readout(state: DensityMatrix, alpha: float) -> complex:
    """Normalized trace (⟨sigma_1 x 1⟩ + i ⟨sigma_2 x 1⟩) / alpha of the control."""
    if state.dim_a != 2:
        raise DimensionError(f"control subsystem must be a qubit, got d_A = {state.dim_a}")
    if alpha == 0.0:
        raise ValidationError("alpha must be nonzero")
    t = state.blocks()
    z01 = np.trace(t[0, :, 1, :])
    m1 = 2.0 * z01.real
    m2 = -2.0 * z01.imag
    return complex(m1, m2) / alpha


@dataclass(frozen=True)
class TraceEstimate:
    """Sampled normalized trace with its shot-noise error bar."""

    tau_hat: complex
    samples: int
    std_error: float
    seed: int


def dqc1_sample_trace(inst: Dqc1Instance, samples: int, seed: int) -> TraceEstimate:
    """Simulate ``samples`` shots each of sigma_1 and sigma_2 on the control.

    Outcome probabilities (1 + alpha Re/Im tau)/2 come from the exact
    tau = Tr(U)/2^n; no output state is built.  The two observables are
    measured in separate shot batches.  Deterministic per seed; the
    estimator is unbiased with standard error scaling 1/alpha.
    """
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValidationError(f"samples must lie in 1..{MAX_SAMPLES}, got {samples}")
    exact = inst.normalized_trace()
    p1 = float(np.clip((1.0 + inst.alpha * exact.real) / 2.0, 0.0, 1.0))
    p2 = float(np.clip((1.0 + inst.alpha * exact.imag) / 2.0, 0.0, 1.0))
    rng = np.random.default_rng(seed)
    m1 = 2.0 * rng.binomial(samples, p1) / samples - 1.0
    m2 = 2.0 * rng.binomial(samples, p2) / samples - 1.0
    var = max(0.0, 1.0 - m1 * m1) + max(0.0, 1.0 - m2 * m2)
    return TraceEstimate(
        tau_hat=complex(m1, m2) / inst.alpha,
        samples=samples,
        std_error=float(np.sqrt(var / samples) / inst.alpha),
        seed=seed,
    )


@dataclass(frozen=True)
class Dqc1Classicality:
    """Zero-discord verdict for a DQC1 unitary, with the phase when classical."""

    zero_discord: bool
    phase: float | None


def _hermitian_parts_gram(u: np.ndarray) -> tuple[float, float, float]:
    """Tr(a a), Tr(b b) and Tr(a b) for a = (U + U†)/2 and b = (U - U†)/(2i)."""
    a = (u + u.conj().T) / 2.0
    b = (u - u.conj().T) / 2.0j
    # a and b are Hermitian, so Tr(x y) = sum(conj(x) * y): no matrix product
    return np.vdot(a, a).real, np.vdot(b, b).real, np.vdot(a, b).real


def _hermitian_parts_dependent(u: np.ndarray, tol: float) -> bool:
    """Linear dependence of (U + U†)/2 and (U - U†)/(2i) via their Gram matrix."""
    gaa, gbb, gab = _hermitian_parts_gram(u)
    det = gaa * gbb - gab * gab
    return det <= tol * max(gaa, gbb, 1e-300) ** 2


def dqc1_classicality_check(u, tol: float = CLASSICALITY_RTOL) -> Dqc1Classicality:
    """The DQC1 output state has zero discord iff U^2 is proportional to 1.

    Equivalent to U = exp(i phi) A with A a Hermitian unitary; the returned
    phase is phi modulo pi.
    """
    _check_tolerances(tol=tol)
    u = _check_unitary(u)
    d = u.shape[0]
    u2 = u @ u
    c = np.trace(u2) / d
    defect = np.linalg.norm(u2 - c * np.eye(d))
    zero = bool(defect <= tol * np.linalg.norm(u2))
    if not zero:
        return Dqc1Classicality(zero_discord=False, phase=None)
    if not _hermitian_parts_dependent(u, max(tol, 1e-12) * 10.0):
        raise RuntimeError(
            "internal inconsistency: U^2 is proportional to the identity but the "
            "Hermitian parts of U are linearly independent"
        )
    return Dqc1Classicality(zero_discord=True, phase=float(np.angle(c) / 2.0))
