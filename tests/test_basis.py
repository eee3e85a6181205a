import numpy as np
import pytest
from numpy.testing import assert_allclose

import qdiscord as qd
from qdiscord.basis import _gell_mann_combinations, _gell_mann_traces
from qdiscord.linalg import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z
from references import gell_mann_coefficients


class TestGellMannBasis:
    def test_qubit_basis_is_scaled_paulis(self):
        ops = qd.gell_mann_basis(2)
        s = np.sqrt(2)
        assert_allclose(ops[0], ID2 / s)
        assert_allclose(ops[1], SIGMA_X / s)
        assert_allclose(ops[2], SIGMA_Y / s)
        assert_allclose(ops[3], SIGMA_Z / s)

    def test_identity_trace(self):
        assert np.trace(qd.gell_mann_basis(2)[0]).real == pytest.approx(np.sqrt(2))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 16, 32])
    def test_gram_matrix_is_identity(self, d):
        # d = 32 is the largest basis the dqc1-register benchmark builds
        ops = qd.gell_mann_basis(d)
        assert np.array_equal(ops, ops.conj().transpose(0, 2, 1))
        # Tr(A_n A_m) = sum_ij A_n[i, j] conj(A_m[i, j]) for Hermitian A_m: one BLAS product
        flat = ops.reshape(d * d, d * d)
        gram = (flat @ flat.conj().T).real
        assert np.abs(gram - np.eye(d * d)).max() <= 1e-12

    def test_deterministic(self):
        a = qd.gell_mann_basis(3)
        b = qd.gell_mann_basis(3)
        assert np.array_equal(a, b)

    def test_rejects_small_dim(self):
        with pytest.raises(qd.DimensionError):
            qd.gell_mann_basis(1)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_matches_loop_reference_bitwise(self, d):
        ref = _loop_gell_mann_ops(d)
        ops = qd.gell_mann_basis(d)
        assert ops.shape == ref.shape
        assert np.array_equal(ops.view(np.uint64), ref.view(np.uint64))


def _loop_gell_mann_ops(d):
    """Operator-by-operator construction in the documented order."""
    ops = [np.eye(d, dtype=complex) / np.sqrt(d)]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = inv_sqrt2
            m[k, j] = inv_sqrt2
            ops.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j * inv_sqrt2
            m[k, j] = 1j * inv_sqrt2
            ops.append(m)
    for l in range(1, d):
        diag = np.zeros(d, dtype=complex)
        diag[:l] = 1.0
        diag[l] = -float(l)
        ops.append(np.diag(diag) / np.sqrt(l * (l + 1)))
    return np.stack(ops)


class TestBasisCache:
    def test_same_object_per_dimension(self):
        assert qd.gell_mann_basis(4) is qd.gell_mann_basis(4)
        assert qd.gell_mann_basis(4) is not qd.gell_mann_basis(3)

    def test_ops_are_read_only(self):
        ops = qd.gell_mann_basis(3)
        with pytest.raises(ValueError):
            ops[1, 0, 1] = 5.0
        assert np.array_equal(ops, _loop_gell_mann_ops(3))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_blas_gram_matches_einsum(self, d):
        ops = qd.gell_mann_basis(d)
        flat = ops.reshape(d * d, d * d)
        blas = (flat @ flat.conj().T).real
        einsum = np.einsum("nij,mji->nm", ops, ops).real
        assert np.abs(blas - einsum).max() <= 1e-15


class TestTraceReader:
    @pytest.mark.parametrize("d", [*range(2, 10), 16, 32])
    def test_matches_traces_with_the_stack(self, d):
        # a reordered basis without a matching reader fails here
        rng = np.random.default_rng(d)
        x = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
        expected = np.einsum("nij,mji->nm", x, qd.gell_mann_basis(d)).real
        got = _gell_mann_traces(x)
        assert got.shape == (5, d * d)
        assert np.abs(got - expected).max() <= 1e-15 * np.abs(x).max()


class TestCombinationWriter:
    @pytest.mark.parametrize("d", range(2, 21))
    def test_matches_the_stack_product(self, d):
        # rows of orthonormal columns, as local_operators passes the columns of U and V
        k = min(5, d * d)
        q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d * d, k)))
        expected = (q.T @ qd.gell_mann_basis(d).reshape(d * d, -1)).reshape(k, d, d)
        got = _gell_mann_combinations(q.T, d)
        assert got.shape == (k, d, d)
        assert np.abs(got - expected).max() <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 7, 16])
    def test_is_the_adjoint_of_the_trace_reader(self, d):
        # orthonormal basis: the traces against G_m of sum_m v_m G_m give back v
        v = np.random.default_rng(d).standard_normal((4, d * d))
        assert np.abs(_gell_mann_traces(_gell_mann_combinations(v, d)) - v).max() <= 1e-14


class TestExpand:
    """Gell-Mann coefficients by einsum: the basis' ordering and completeness."""

    def test_maximally_mixed_qubit(self):
        coeffs = gell_mann_coefficients(ID2 / 2, qd.gell_mann_basis(2))
        assert_allclose(coeffs, [1 / np.sqrt(2), 0, 0, 0], atol=1e-15)

    def test_sigma_z(self):
        coeffs = gell_mann_coefficients(SIGMA_Z, qd.gell_mann_basis(2))
        assert_allclose(coeffs, [0, 0, 0, np.sqrt(2)], atol=1e-15)

    def test_basis_elements_give_unit_vectors(self):
        basis = qd.gell_mann_basis(3)
        for k in (0, 3, 8):
            coeffs = gell_mann_coefficients(basis[k], basis)
            expected = np.zeros(9)
            expected[k] = 1.0
            assert_allclose(coeffs, expected, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_completeness_roundtrip(self, d):
        basis = qd.gell_mann_basis(d)
        rng = np.random.default_rng(d)
        for _ in range(100):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = (g + g.conj().T) / 2
            back = np.einsum("n,nij->ij", gell_mann_coefficients(h, basis), basis)
            assert np.abs(back - h).max() <= 1e-12 * max(1.0, np.abs(h).max())
