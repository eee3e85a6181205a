import numpy as np
import pytest

import qdiscord as qd
from qdiscord.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z


def _pauli_string(indices):
    paulis = [np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z]
    out = np.array([[1.0]], dtype=complex)
    for i in indices:
        out = np.kron(out, paulis[i])
    return out


# A defect just inside UNITARY_ATOL (1e-9): the largest singular value is sqrt(1 + BOUNDARY_DEFECT).
BOUNDARY_DEFECT = 0.99e-9


def _scaled_unitary(v, w, excess):
    """V diag(sqrt(1 + excess), 1, ...) W: ||U†U - 1||_F is excess, up to rounding."""
    s = np.ones(v.shape[0])
    s[0] = np.sqrt(1.0 + excess)
    return (v * s) @ w


def _boundary_unitary(n, seed):
    """V diag(sqrt(1 + BOUNDARY_DEFECT), 1, ...) W for two seeded Haar unitaries V and W."""
    return _scaled_unitary(
        qd.random_unitary(2**n, seed), qd.random_unitary(2**n, seed + 1), BOUNDARY_DEFECT
    )


def _unitarity_defect(u):
    """||U†U - 1||_F through the complex product, the check's reference."""
    return np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))


def _written_out_classicality(u):
    """||A - A†||_F/||U||_F and phi, from Tr U^2 = sum(U * U.T) and A = exp(-i phi) U."""
    phase = np.angle(np.sum(u * u.T)) / 2.0
    a = np.exp(-1j * phase) * u
    return np.linalg.norm(a - a.conj().T) / np.linalg.norm(u), phase


def _u2_defect(u):
    """||U^2 - c 1||_F / ||U^2||_F with c = Tr U^2/d, and c: the classicality rule on U^2."""
    u2 = u @ u
    c = np.trace(u2) / u.shape[0]
    return np.linalg.norm(u2 - c * np.eye(u.shape[0])) / np.linalg.norm(u2), c


def _exp_ih(h, eps):
    """exp(i eps h) for a Hermitian h, unitary to rounding."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * eps * w)) @ v.conj().T


def _classicality_corpus(n, near_tol=True):
    """Haar, phased Pauli strings, phased V diag(+-1) V†, and A exp(i eps H) near tol.

    With near_tol=False, only the first nine: the near-tol cases cost seven d x d
    eigendecompositions.
    """
    d = 2**n
    rng = np.random.default_rng(1000 + n)
    cases = [qd.random_unitary(d, 10 * n + k) for k in range(3)]
    for _ in range(3):
        phase = np.exp(1j * rng.uniform(-np.pi, np.pi))
        cases.append(phase * _pauli_string(rng.integers(0, 4, n)))
    for k in range(3):
        v = qd.random_unitary(d, 20 * n + k)
        signs = rng.choice([-1.0, 1.0], d)
        cases.append(np.exp(1j * rng.uniform(-np.pi, np.pi)) * (v * signs) @ v.conj().T)
    if not near_tol:
        return cases
    # A exp(i eps H) with the U^2 defect at 0.3 to 3 times tol: the defect is
    # linear in eps, so one probe at eps = 1e-6 sets the scale.
    tol = qd.dqc1.CLASSICALITY_RTOL
    v = qd.random_unitary(d, 30 * n)
    a = np.exp(0.4j) * (v * rng.choice([-1.0, 1.0], d)) @ v.conj().T
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2.0
    slope = _u2_defect(a @ _exp_ih(h, 1e-6))[0] / 1e-6
    for factor in (0.3, 0.7, 0.9, 1.1, 1.5, 3.0):
        cases.append(a @ _exp_ih(h, factor * tol / slope))
    return cases


def _certificate_unitary(kind, n):
    if kind == "haar":
        return qd.random_unitary(2**n, 100 + n)
    if kind == "involution":
        rng = np.random.default_rng(n)
        return np.exp(1j * rng.uniform(-np.pi, np.pi)) * _pauli_string(rng.integers(0, 4, n))
    return _boundary_unitary(n, 200 + n)


class TestInstance:
    def test_rejects_alpha_zero(self):
        with pytest.raises(qd.ValidationError):
            qd.Dqc1Instance(n=1, alpha=0.0, unitary=np.eye(2))

    def test_rejects_non_unitary(self):
        with pytest.raises(qd.NotUnitaryError):
            qd.Dqc1Instance(n=1, alpha=1.0, unitary=np.array([[1, 1], [0, 1.0]]))

    def test_rejects_wrong_dim(self):
        with pytest.raises(qd.DimensionError):
            qd.Dqc1Instance(n=2, alpha=1.0, unitary=np.eye(2))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_unitarity_decisions_match_the_complex_product(self, n):
        """The real-split defect decides as ||U†U - 1||_F does, and lies within 1e-13 of it."""
        v, w = qd.random_unitary(2**n, 300 + n), qd.random_unitary(2**n, 400 + n)
        atol = qd.dqc1.UNITARY_ATOL
        accepted = []
        for factor in (0.0, 0.5, 0.99, 1.01, 2.0):
            u = _scaled_unitary(v, w, factor * atol)
            ref = _unitarity_defect(u)
            accepted.append(bool(ref <= atol))
            for check in (
                qd.dqc1._check_unitary,
                lambda u: qd.Dqc1Instance(n=n, alpha=0.5, unitary=u),
            ):
                if ref <= atol:
                    check(u)
                else:
                    with pytest.raises(qd.NotUnitaryError, match="unitarity defect"):
                        check(u)
            # the defect itself: accepted just above the reference, refused just below it
            qd.dqc1._check_unitary(u, atol=ref + 1e-13)
            with pytest.raises(qd.NotUnitaryError):
                qd.dqc1._check_unitary(u, atol=ref - 1e-13)
        assert accepted == [True, True, True, False, False]


class TestOutputState:
    def test_identity_unitary_polarizes_sigma_x(self):
        inst = qd.Dqc1Instance(n=1, alpha=1.0, unitary=np.eye(2))
        rho = qd.dqc1_output_state(inst)
        m1 = np.trace(rho.mat @ np.kron(SIGMA_X, np.eye(2))).real
        assert m1 == pytest.approx(1.0, abs=1e-14)

    def test_random_unitary_gives_valid_state(self):
        u = qd.random_unitary(8, 5)
        rho = qd.dqc1_output_state(qd.Dqc1Instance(n=3, alpha=0.8, unitary=u))
        assert np.trace(rho.mat).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(rho.mat)[0] >= -1e-12

    def test_matches_pauli_form(self):
        # same state written with sigma_1, sigma_2 on the control
        u = qd.random_unitary(4, 9)
        alpha = 0.6
        rho = qd.dqc1_output_state(qd.Dqc1Instance(n=2, alpha=alpha, unitary=u))
        re_u = (u + u.conj().T) / 2
        im_u = (u - u.conj().T) / 2j
        expected = (
            np.kron(np.eye(2), np.eye(4))
            + alpha * np.kron(SIGMA_X, re_u)
            + alpha * np.kron(SIGMA_Y, im_u)
        ) / 8
        assert np.abs(rho.mat - expected).max() <= 1e-12


    def test_matches_out_of_place_construction_bitwise(self):
        for n in range(1, 10):
            d = 2**n
            alpha = (0.8, 1.0, 0.37)[n % 3]
            u = qd.random_unitary(d, n)
            rho = qd.dqc1_output_state(qd.Dqc1Instance(n=n, alpha=alpha, unitary=u))
            mat = np.zeros((2 * d, 2 * d), dtype=complex)
            mat[:d, :d] = np.eye(d)
            mat[d:, d:] = np.eye(d)
            mat[d:, :d] = alpha * u
            mat[:d, d:] = alpha * u.conj().T
            assert np.array_equal(rho.mat, mat / (2 * d))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_pure_control_states_pass(self, n):
        inst = qd.Dqc1Instance(n=n, alpha=1.0, unitary=qd.random_unitary(2**n, n))
        rho = qd.dqc1_output_state(inst)
        w = np.linalg.eigvalsh(rho.mat)
        # rank 2^n of 2^(n+1): the eigenvalues are 0 and 1/2^n, half each
        assert np.sum(np.abs(w) <= 1e-12) == 2**n
        assert np.allclose(w[2**n :], 1.0 / 2**n, atol=1e-12)


class TestCertifiedPositivity:
    @pytest.mark.parametrize("kind", ["haar", "involution", "boundary"])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_full_validation_accepts_certified_states(self, n, kind):
        u = _certificate_unitary(kind, n)
        for alpha in (0.2, 0.7, 1.0):
            rho = qd.dqc1_output_state(qd.Dqc1Instance(n=n, alpha=alpha, unitary=u))
            qd.DensityMatrix(rho.mat, 2, 2**n)
            if n <= 8:
                assert np.linalg.eigvalsh(rho.mat)[0] >= -qd.linalg.PSD_ATOL

    @pytest.mark.parametrize("n", range(1, 10))
    def test_certified_states_skip_the_factorizations(self, n, monkeypatch):
        inst = qd.Dqc1Instance(n=n, alpha=0.7, unitary=qd.random_unitary(2**n, n))

        class Reached(Exception):
            pass

        def forbidden(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        if n == 1:
            # 1e-9/(4 * 2) > 1e-10: the bound cannot clear PSD_ATOL, so the full validation runs
            with pytest.raises(Reached):
                qd.dqc1_output_state(inst)
        else:
            assert qd.dqc1_output_state(inst).dim_b == 2**n

    def test_certificate_follows_the_constants(self, monkeypatch):
        # with a tighter PSD_ATOL, 1e-9 <= 4 * 2^n * PSD_ATOL needs n >= 8
        monkeypatch.setattr(qd.dqc1, "PSD_ATOL", 1e-12)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(a.shape[0])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        for n in (7, 8):
            qd.dqc1_output_state(qd.Dqc1Instance(n=n, alpha=1.0, unitary=np.eye(2**n)))
        assert calls == [2 * 2**7]  # only the 7-qubit state, 256 x 256, was diagonalized

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_state_is_read_only(self, n):
        rho = qd.dqc1_output_state(qd.Dqc1Instance(n=n, alpha=0.5, unitary=np.eye(2**n)))
        assert not rho.mat.flags.writeable
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 1.0

    def test_boundary_defect_at_one_qubit_fails_validation(self):
        u = _boundary_unitary(1, 7)
        defect = _unitarity_defect(u)
        assert 0.98e-9 <= defect <= qd.dqc1.UNITARY_ATOL
        inst = qd.Dqc1Instance(n=1, alpha=1.0, unitary=u)
        # lambda_min = (1 - sqrt(1 + 0.99e-9))/4 = -1.24e-10, below -PSD_ATOL
        with pytest.raises(qd.ValidationError, match=r"min eigenvalue -1\.2[34]\de-10"):
            qd.dqc1_output_state(inst)

    def test_boundary_defect_at_two_qubits_is_certified(self):
        u = _boundary_unitary(2, 7)
        rho = qd.dqc1_output_state(qd.Dqc1Instance(n=2, alpha=1.0, unitary=u))
        # lambda_min = (1 - sqrt(1 + 0.99e-9))/8 = -6.19e-11, within -PSD_ATOL
        assert np.linalg.eigvalsh(rho.mat)[0] == pytest.approx(-6.19e-11, abs=0.02e-11)
        qd.DensityMatrix(rho.mat, 2, 4)


class TestExactReadout:
    def test_identity(self):
        inst = qd.Dqc1Instance(n=1, alpha=1.0, unitary=np.eye(2))
        assert qd.dqc1_exact_readout(qd.dqc1_output_state(inst), 1.0) == pytest.approx(1.0)

    def test_traceless_unitary(self):
        u = np.kron(SIGMA_Z, SIGMA_Z)
        inst = qd.Dqc1Instance(n=2, alpha=1.0, unitary=u)
        assert abs(qd.dqc1_exact_readout(qd.dqc1_output_state(inst), 1.0)) <= 1e-14

    def test_phase_gate(self):
        u = np.diag([1.0, 1j])
        inst = qd.Dqc1Instance(n=1, alpha=0.5, unitary=u)
        tau = qd.dqc1_exact_readout(qd.dqc1_output_state(inst), 0.5)
        assert tau == pytest.approx((1 + 1j) / 2, abs=1e-14)

    def test_sign_convention_against_direct_traces(self):
        # oracle for the readout: expectation values computed as full traces
        u = qd.random_unitary(8, 21)
        alpha = 0.7
        rho = qd.dqc1_output_state(qd.Dqc1Instance(n=3, alpha=alpha, unitary=u))
        tau = np.trace(u) / 8
        m1 = np.trace(rho.mat @ np.kron(SIGMA_X, np.eye(8))).real
        m2 = np.trace(rho.mat @ np.kron(SIGMA_Y, np.eye(8))).real
        assert m1 == pytest.approx(alpha * tau.real, abs=1e-12)
        assert m2 == pytest.approx(alpha * tau.imag, abs=1e-12)
        assert qd.dqc1_exact_readout(rho, alpha) == pytest.approx(tau, abs=1e-12)

    def test_exactness_over_alphas(self):
        for seed in range(5):
            u = qd.random_unitary(16, seed)
            tau = np.trace(u) / 16
            for alpha in (1.0, 0.5, 0.25):
                inst = qd.Dqc1Instance(n=4, alpha=alpha, unitary=u)
                got = qd.dqc1_exact_readout(qd.dqc1_output_state(inst), alpha)
                assert abs(got - tau) <= 1e-12

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -0.5, 1.5, 0.0])
    def test_rejects_alpha_outside_instance_range(self, alpha):
        inst = qd.Dqc1Instance(n=1, alpha=1.0, unitary=np.eye(2))
        with pytest.raises(qd.ValidationError, match=r"alpha must lie in \(0, 1\]"):
            qd.dqc1_exact_readout(qd.dqc1_output_state(inst), alpha)


class TestSampling:
    def test_degenerate_probability_is_exact(self):
        inst = qd.Dqc1Instance(n=1, alpha=1.0, unitary=np.eye(2))
        est = qd.dqc1_sample_trace(inst, 100_000, seed=0)
        assert est.tau_hat.real == pytest.approx(1.0)

    def test_estimate_within_four_sigma(self):
        u = qd.random_unitary(16, 7)
        inst = qd.Dqc1Instance(n=4, alpha=1.0, unitary=u)
        exact = np.trace(u) / 16
        est = qd.dqc1_sample_trace(inst, 1_000_000, seed=11)
        assert abs(est.tau_hat - exact) <= 4 * est.std_error

    def test_builds_no_output_state(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("no output state should be built")

        monkeypatch.setattr(qd.dqc1, "dqc1_output_state", forbidden)
        monkeypatch.setattr(qd.dqc1, "DensityMatrix", forbidden)
        u = qd.random_unitary(16, 7)
        inst = qd.Dqc1Instance(n=4, alpha=0.5, unitary=u)
        est = qd.dqc1_sample_trace(inst, 1_000_000, seed=11)
        assert abs(est.tau_hat - np.trace(u) / 16) <= 4 * est.std_error

    def test_normalized_trace_matches_readout(self):
        for n in (1, 3, 6):
            u = qd.random_unitary(2**n, n)
            inst = qd.Dqc1Instance(n=n, alpha=0.4, unitary=u)
            readout = qd.dqc1_exact_readout(qd.dqc1_output_state(inst), inst.alpha)
            assert abs(inst.normalized_trace() - readout) <= 1e-15
            assert inst.normalized_trace() == complex(np.trace(u)) / 2**n

    def test_ten_qubit_register(self):
        u = qd.random_unitary(2**10, 4)
        inst = qd.Dqc1Instance(n=10, alpha=0.6, unitary=u)
        est = qd.dqc1_sample_trace(inst, 1_000_000, seed=2)
        assert abs(est.tau_hat - np.trace(u) / 2**10) <= 5 * est.std_error

    def test_deterministic_per_seed(self):
        u = qd.random_unitary(4, 3)
        inst = qd.Dqc1Instance(n=2, alpha=0.5, unitary=u)
        a = qd.dqc1_sample_trace(inst, 1000, seed=5)
        b = qd.dqc1_sample_trace(inst, 1000, seed=5)
        assert a.tau_hat == b.tau_hat

    def test_shot_overhead_scales_inverse_alpha(self):
        u = qd.random_unitary(16, 7)
        m = 1_000_000
        se_full = qd.dqc1_sample_trace(
            qd.Dqc1Instance(n=4, alpha=1.0, unitary=u), m, seed=1
        ).std_error
        se_quarter = qd.dqc1_sample_trace(
            qd.Dqc1Instance(n=4, alpha=0.25, unitary=u), m, seed=1
        ).std_error
        assert se_quarter / se_full == pytest.approx(4.0, rel=0.25)

    def test_error_bar_matches_spread(self):
        u = qd.random_unitary(8, 2)
        inst = qd.Dqc1Instance(n=3, alpha=0.5, unitary=u)
        estimates = [qd.dqc1_sample_trace(inst, 20_000, seed=s) for s in range(50)]
        taus = np.array([e.tau_hat for e in estimates])
        spread = np.sqrt(taus.real.var(ddof=1) + taus.imag.var(ddof=1))
        mean_se = np.mean([e.std_error for e in estimates])
        assert spread / mean_se < 1.5
        assert mean_se / spread < 1.5


class TestClassicality:
    @pytest.mark.parametrize(
        "eps, zero", [(0.5e-9, True), (2e-9, False)], ids=["inside", "outside"]
    )
    def test_cutoff_is_classicality_rtol(self, eps, zero):
        # U = diag(1, -exp(i eps)) has ||A - A^dagger||_F / ||U||_F = 2 sin(eps / 2) ~ eps
        assert qd.dqc1.CLASSICALITY_RTOL == 1e-9
        u = np.diag([1.0, -np.exp(1j * eps)])
        assert qd.dqc1_classicality_check(u).zero_discord == zero

    def test_hadamard(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        verdict = qd.dqc1_classicality_check(h)
        assert verdict.zero_discord
        assert verdict.phase == pytest.approx(0.0, abs=1e-12)

    def test_phased_pauli_string(self):
        u = np.exp(1j * np.pi / 5) * np.kron(SIGMA_X, SIGMA_X)
        verdict = qd.dqc1_classicality_check(u)
        assert verdict.zero_discord
        assert verdict.phase == pytest.approx(np.pi / 5, abs=1e-12)

    def test_t_gate_is_not_classical(self):
        verdict = qd.dqc1_classicality_check(np.diag([1.0, np.exp(1j * np.pi / 4)]))
        assert not verdict.zero_discord
        assert verdict.phase is None

    def test_rejects_non_unitary(self):
        with pytest.raises(qd.NotUnitaryError):
            qd.dqc1_classicality_check(np.ones((2, 2)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_written_out_u2_rule(self, n):
        verdicts = []
        for u in _classicality_corpus(n):
            got = qd.dqc1_classicality_check(u)
            defect, c = _u2_defect(u)
            zero = bool(defect <= qd.dqc1.CLASSICALITY_RTOL)
            assert got.zero_discord == zero
            verdicts.append(zero)
            if zero:
                gap = (got.phase - np.angle(c) / 2.0) % np.pi
                assert min(gap, np.pi - gap) <= 1e-12
            else:
                assert got.phase is None
        # Haar: discordant; Pauli strings and V diag(+-1) V†: classical; then 0.3 to 3 x tol
        assert verdicts == [False] * 3 + [True] * 6 + [True] * 3 + [False] * 3

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_written_out_trace_rule(self, n):
        for u in _classicality_corpus(n):
            got = qd.dqc1_classicality_check(u)
            defect, phase = _written_out_classicality(u)
            zero = bool(defect <= qd.dqc1.CLASSICALITY_RTOL)
            assert got.zero_discord == zero
            assert abs(got.trace_u2 - np.sum(u * u.T)) <= 1e-13 * 2**n
            if zero:
                assert abs(got.phase - phase) <= 1e-14
            else:
                assert got.phase is None

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_involution_perturbed_just_past_tol(self, n):
        """A exp(i eps H) with ||A - A†||_F at 0.999 and 1.001 times tol ||U||_F."""
        d = 2**n
        rng = np.random.default_rng(500 + n)
        v = qd.random_unitary(d, 500 + n)
        a = np.exp(1.3j) * (v * rng.choice([-1.0, 1.0], d)) @ v.conj().T
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2.0
        tol = qd.dqc1.CLASSICALITY_RTOL
        slope = _written_out_classicality(a @ _exp_ih(h, 1e-6))[0] / 1e-6
        for factor, expected in ((0.999, True), (1.001, False)):
            u = a @ _exp_ih(h, factor * tol / slope)
            got = qd.dqc1_classicality_check(u)
            defect, phase = _written_out_classicality(u)
            assert got.zero_discord == bool(defect <= tol) == expected
            if expected:
                assert abs(got.phase - phase) <= 1e-14

    @pytest.mark.parametrize("n", range(1, 8))
    def test_instance_matches_raw_unitary(self, n):
        for u in _classicality_corpus(n):
            inst = qd.Dqc1Instance(n=n, alpha=0.5, unitary=u)
            assert qd.dqc1_classicality_check(inst) == qd.dqc1_classicality_check(u)

    def test_matches_state_verdict(self):
        cases = []
        for seed in range(6):
            n = 1 + seed % 3
            cases.append((n, qd.random_unitary(2**n, seed)))
        cases.append((2, np.exp(0.3j) * _pauli_string([1, 3])))
        cases.append((1, np.exp(-1.1j) * _pauli_string([2])))
        # d_B = 16 to 256, where correlation_matrix reads r from the A-side blocks' entries
        # and builds no B stack (at n = 8 that stack would take 64 GiB)
        for n in (4, 5, 6, 7, 8):
            cases.append((n, qd.random_unitary(2**n, 10 + n)))
            cases.append((n, np.exp(0.4j * n) * _pauli_string([1 + (n + i) % 3 for i in range(n)])))
        for n, u in cases:
            inst = qd.Dqc1Instance(n=n, alpha=0.75, unitary=u)
            from_u = qd.dqc1_classicality_check(u).zero_discord
            from_state = qd.zero_discord_test(qd.dqc1_output_state(inst)).is_zero_discord
            assert from_u == from_state


class TestGeometricDiscord:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_output_state_value(self, n):
        """D_G = alpha^2 (1 - |Tr U^2|/2^n)/2^(n+2): zero exactly when U is a phased
        involution, and of order 2^-(n+2) for a Haar unitary."""
        # Haar unitaries, phased Pauli strings, phased V diag(+-1) V†
        for k, u in enumerate(_classicality_corpus(n, near_tol=False)):
            classical = qd.dqc1_classicality_check(u).zero_discord
            trace_u2 = abs(np.sum(u * u.T))
            for alpha in (1.0, 0.8, 0.3):
                inst = qd.Dqc1Instance(n=n, alpha=alpha, unitary=u)
                value = qd.geometric_discord_2q(qd.dqc1_output_state(inst)).value
                scale = alpha**2 / 2 ** (n + 2)
                assert value == pytest.approx(scale * (1.0 - trace_u2 / 2**n), abs=1e-15)
                assert (value <= 1e-15) == classical
                assert value <= scale + 1e-15
                if k < 3 and n >= 3:  # Haar: |Tr U^2| is O(1), far below 2^(n-1)
                    assert value >= scale / 2
