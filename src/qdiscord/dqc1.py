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
from .linalg import PSD_ATOL, DensityMatrix, _count_arg

UNITARY_ATOL = 1e-9
CLASSICALITY_RTOL = 1e-9
MAX_REGISTER_QUBITS = 11
MAX_SAMPLES = int(np.iinfo(np.int64).max)


def _check_unitary(u: np.ndarray, atol: float = UNITARY_ATOL) -> np.ndarray:
    """Return u as a complex array if ||U†U - 1||_F <= atol, else raise.

    With X = Re U, Y = Im U and W = [X; Y] (2d x d), U†U - 1 has real part
    WᵀW - 1, one BLAS syrk, and imaginary part XᵀY - (XᵀY)ᵀ, one real
    product: 2d³ real multiply-adds where the complex product takes 4d³.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionError(f"unitary must be square, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise NotUnitaryError("unitary has non-finite entries")
    d = u.shape[0]
    w = np.concatenate((u.real, u.imag))
    re = w.T @ w
    re.ravel()[:: d + 1] -= 1.0
    im = w[:d].T @ w[d:]
    im = im - im.T
    defect = np.sqrt(np.vdot(re, re) + np.vdot(im, im))
    if defect > atol:
        raise NotUnitaryError(f"unitarity defect {defect:.3e} exceeds {atol:.1e}")
    return u


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:  # NaN fails too
        raise ValidationError(f"alpha must lie in (0, 1], got {alpha}")


@dataclass(frozen=True)
class Dqc1Instance:
    """Register size n, control purity alpha in (0, 1], and the n-qubit unitary."""

    n: int
    alpha: float
    unitary: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _count_arg("n", self.n))
        if self.n < 1 or self.n > MAX_REGISTER_QUBITS:
            raise DimensionError(f"register size must be 1..{MAX_REGISTER_QUBITS}, got {self.n}")
        _check_alpha(self.alpha)
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
    """Output state (1 x 1 + alpha |1><0| x U + alpha |0><1| x U†) / 2^(n+1).

    With d = 2^n, the spectrum is (1 ± alpha s_k)/(2d) over the singular
    values s_k of U, so the state's validity follows from the instance's
    checks instead of a factorization:

    - ``Dqc1Instance`` accepts U only with ||U†U - 1||_F <= UNITARY_ATOL, so
      s_max² <= 1 + UNITARY_ATOL and s_max <= 1 + UNITARY_ATOL/2.
    - With 0 < alpha <= 1 the minimum eigenvalue (1 - alpha s_max)/(2d) is
      >= -UNITARY_ATOL/(4d), which clears -PSD_ATOL when
      UNITARY_ATOL <= 4d PSD_ATOL: today n >= 2.  The smallest margin,
      3.75e-11 at n = 2, dwarfs the ~1e-16 that rounding alpha U moves an
      eigenvalue by.
    - The upper block is written as the conjugate transpose of the lower
      one and the diagonal is real, so the matrix is exactly Hermitian.
    - 1/(2d) is a power of 2, so the trace is exactly 1.
    - U is checked finite and 0 < alpha <= 1 excludes NaN and inf, so every
      entry is finite.

    When the bound clears, the state is built by ``DensityMatrix._certified``
    with no copy and no eigendecomposition; otherwise (n = 1 with today's
    constants) the full validation runs.
    """
    d = 2**inst.n
    u = inst.unitary
    mat = np.zeros((2 * d, 2 * d), dtype=complex)
    np.fill_diagonal(mat, 1.0 / (2 * d))
    # Scaled in place, in the order alpha * u / (2d): no full-size temporaries.
    lower, upper = mat[d:, :d], mat[:d, d:]
    np.multiply(u, inst.alpha, out=lower)
    lower /= 2 * d
    np.conjugate(lower.T, out=upper)
    if UNITARY_ATOL <= 4 * d * PSD_ATOL:
        return DensityMatrix._certified(mat, 2, d)
    return DensityMatrix(mat, 2, d)


def dqc1_exact_readout(state: DensityMatrix, alpha: float) -> complex:
    """Normalized trace (⟨sigma_1 x 1⟩ + i ⟨sigma_2 x 1⟩) / alpha of the control.

    Reads the block rho[0, :, 1, :] as a view, not through ``linalg.a_side_blocks``,
    whose realignment would copy the 2^(n+1) state (16 MB at n = 9).
    """
    if state.dim_a != 2:
        raise DimensionError(f"control subsystem must be a qubit, got d_A = {state.dim_a}")
    _check_alpha(alpha)
    z01 = np.trace(state.blocks()[0, :, 1, :])
    return complex(2.0 * z01.real, -2.0 * z01.imag) / alpha


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
    samples, seed = _count_arg("samples", samples), _count_arg("seed", seed, 0)
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
    """Zero-discord verdict for a DQC1 unitary, with the phase when classical.

    ``trace_u2`` is Tr U^2, from which the output state's geometric discord
    alpha^2 (1 - |Tr U^2|/2^n)/2^(n+2) follows without building the state.
    """

    zero_discord: bool
    phase: float | None
    trace_u2: complex


def dqc1_classicality_check(u) -> Dqc1Classicality:
    """The DQC1 output state has zero discord iff U = exp(i phi) A, A a Hermitian unitary.

    phi = arg(Tr U^2)/2, and the verdict is ||A - A†||_F <= CLASSICALITY_RTOL ||U||_F for
    A = exp(-i phi) U; no U^2 product is formed.  U† is built once: Tr U^2 =
    sum_ij U_ij U_ji is the dot product <U†, U> of the flattened arrays, and
    U - exp(2i phi) U† = exp(i phi)(A - A†), of the same norm, is formed in
    U†'s buffer.  For unitary U this is U^2 proportional to 1, and to first
    order the defect is ||U^2 - (Tr U^2/d) 1||_F / ||U^2||_F.  The returned
    phase is phi modulo pi.

    ``u`` is a raw unitary, checked for unitarity here, or a ``Dqc1Instance``,
    whose unitary passed that check when the instance was built.
    """
    u = u.unitary if isinstance(u, Dqc1Instance) else _check_unitary(u)
    skew = np.conjugate(u.T, out=np.empty_like(u))
    trace_u2 = complex(np.vdot(skew, u))
    phase = float(np.angle(trace_u2) / 2.0)
    skew *= -np.exp(2j * phase)
    skew += u
    zero = bool(np.linalg.norm(skew) <= CLASSICALITY_RTOL * np.linalg.norm(u))
    return Dqc1Classicality(zero_discord=zero, phase=phase if zero else None, trace_u2=trace_u2)
