import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qdiscord as qd
from qdiscord.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z


def _pauli_string(indices):
    paulis = [np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z]
    out = np.array([[1.0]], dtype=complex)
    for i in indices:
        out = np.kron(out, paulis[i])
    return out


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
        for n, alpha in ((1, 1.0), (3, 0.37), (5, 0.8)):
            d = 2**n
            u = qd.random_unitary(d, n)
            rho = qd.dqc1_output_state(qd.Dqc1Instance(n=n, alpha=alpha, unitary=u))
            mat = np.zeros((2 * d, 2 * d), dtype=complex)
            mat[:d, :d] = np.eye(d)
            mat[d:, d:] = np.eye(d)
            mat[d:, :d] = alpha * u
            mat[:d, d:] = alpha * u.conj().T
            assert np.array_equal(rho.mat, mat / (2 * d))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_pure_control_states_pass_without_eigendecomposition(self, n, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        inst = qd.Dqc1Instance(n=n, alpha=1.0, unitary=qd.random_unitary(2**n, n))

        def forbidden(*args, **kwargs):
            raise AssertionError("the Cholesky check should have decided")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        rho = qd.dqc1_output_state(inst)
        monkeypatch.undo()
        w = eigvalsh(rho.mat)
        # rank 2^n of 2^(n+1): the eigenvalues are 0 and 1/2^n, half each
        assert np.sum(np.abs(w) <= 1e-12) == 2**n
        assert np.allclose(w[2**n :], 1.0 / 2**n, atol=1e-12)


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

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
    def test_rejects_bad_tolerance(self, bad):
        with pytest.raises(qd.ValidationError, match="^tol must be finite and >= 0"):
            qd.dqc1_classicality_check(qd.random_unitary(2, 5), tol=bad)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32, 64])
    def test_gram_matches_trace_products(self, d):
        rng = np.random.default_rng(d)
        # a non-normal matrix at a unitary's scale: Frobenius norm about sqrt(d)
        generic = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2 * d)
        for u in (qd.random_unitary(d, d), np.exp(0.7j) * np.eye(d), generic):
            a = (u + u.conj().T) / 2.0
            b = (u - u.conj().T) / 2.0j
            expected = [np.trace(x @ y).real for x, y in ((a, a), (b, b), (a, b))]
            assert_allclose(qd.dqc1._hermitian_parts_gram(u), expected, rtol=0, atol=1e-12)

    def test_inconsistent_parts_raise_internal_error(self, monkeypatch):
        monkeypatch.setattr(qd.dqc1, "_hermitian_parts_dependent", lambda u, tol: False)
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        with pytest.raises(RuntimeError, match="internal inconsistency"):
            qd.dqc1_classicality_check(h)

    def test_internal_check_survives_optimized_mode(self):
        # python -O strips assert statements; the check must not be one
        code = (
            "import numpy as np, qdiscord.dqc1 as m\n"
            "m._hermitian_parts_dependent = lambda u, tol: False\n"
            "try:\n"
            "    m.dqc1_classicality_check(np.eye(2))\n"
            "except RuntimeError:\n"
            "    print('raised')\n"
        )
        src = os.path.dirname(os.path.dirname(qd.__file__))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=src),
        ).stdout
        assert out.strip() == "raised"

    def test_matches_state_verdict(self):
        cases = []
        for seed in range(6):
            n = 1 + seed % 3
            cases.append((n, qd.random_unitary(2**n, seed)))
        cases.append((2, np.exp(0.3j) * _pauli_string([1, 3])))
        cases.append((1, np.exp(-1.1j) * _pauli_string([2])))
        for n, u in cases:
            inst = qd.Dqc1Instance(n=n, alpha=0.75, unitary=u)
            from_u = qd.dqc1_classicality_check(u).zero_discord
            from_state = qd.zero_discord_test(qd.dqc1_output_state(inst)).is_zero_discord
            assert from_u == from_state
