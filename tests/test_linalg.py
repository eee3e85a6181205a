import numpy as np
import pytest
from numpy.testing import assert_allclose

import qdiscord as qd
from qdiscord import linalg
from qdiscord.linalg import ID2


class TestDensityMatrix:
    def test_rejects_bad_trace(self):
        with pytest.raises(qd.ValidationError, match="trace"):
            qd.DensityMatrix(np.eye(4, dtype=complex), 2, 2)

    def test_rejects_non_hermitian(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.1
        with pytest.raises(qd.ValidationError, match="Hermitian"):
            qd.DensityMatrix(mat, 2, 2)

    def test_rejects_negative_eigenvalue(self):
        mat = np.diag([1.5, -0.5, 0, 0]).astype(complex)
        with pytest.raises(qd.ValidationError, match="positive"):
            qd.DensityMatrix(mat, 2, 2)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(qd.DimensionError):
            qd.DensityMatrix(np.eye(4, dtype=complex) / 4, 2, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.25, np.nan)])
    def test_rejects_non_finite(self, bad):
        mat = np.eye(4, dtype=complex) / 4
        mat[2, 1] = bad
        with pytest.raises(qd.ValidationError, match=r"entry \(2, 1\) is not finite"):
            qd.DensityMatrix(mat, 2, 2)

    def test_immutable(self, bell):
        with pytest.raises(ValueError):
            bell.mat[0, 0] = 2.0


def _state_with_min_eigenvalue(wmin, d=4, seed=3):
    """Unit-trace Hermitian matrix, spectrum (1 - wmin, 0, ..., 0, wmin) in a random basis."""
    w = np.zeros(d)
    w[0], w[-1] = 1.0 - wmin, wmin
    v = qd.random_unitary(d, seed)
    return (v * w) @ v.conj().T


_PSD_FACTORS = (0.0, -0.5, -0.9, -1.1, -2.0, -10.0)


class TestPsdCheck:
    # the d = 4 cases keep their original ids
    @pytest.mark.parametrize(
        ("d", "factor"),
        [pytest.param(4, f, id=str(f)) for f in _PSD_FACTORS]
        + [pytest.param(64, f, id=f"d64-{f}") for f in _PSD_FACTORS],
    )
    def test_same_rule_as_min_eigenvalue(self, d, factor):
        mat = _state_with_min_eigenvalue(factor * qd.linalg.PSD_ATOL, d=d)
        dims = (2, d // 2)
        if factor >= -1.0:
            qd.DensityMatrix(mat, *dims)
        else:
            with pytest.raises(qd.ValidationError, match="positive"):
                qd.DensityMatrix(mat, *dims)

    def test_rejection_names_min_eigenvalue(self):
        mat = _state_with_min_eigenvalue(-2 * qd.linalg.PSD_ATOL, d=6)
        with pytest.raises(qd.ValidationError, match=r"min eigenvalue -2\.000e-10"):
            qd.DensityMatrix(mat, 2, 3)

    @pytest.mark.parametrize("dims", [(2, 1), (4, 4), (8, 8)])
    def test_pure_states_pass(self, dims):
        d = dims[0] * dims[1]
        rng = np.random.default_rng(d)
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        mat = np.outer(psi, psi.conj())
        assert qd.DensityMatrix(mat, *dims).dim == d

    def test_check_leaves_matrices_unshifted(self):
        mat = _state_with_min_eigenvalue(0.0)
        before = mat.copy()
        rho = qd.DensityMatrix(mat, 2, 2)
        assert np.array_equal(mat, before)
        assert np.array_equal(rho.mat, before)


class TestPartialTrace:
    def test_bell_marginals_maximally_mixed(self, bell):
        assert_allclose(qd.partial_trace(bell, "A"), ID2 / 2, atol=1e-14)
        assert_allclose(qd.partial_trace(bell, "B"), ID2 / 2, atol=1e-14)

    def test_product_recovers_factor(self, product_mixed):
        rho_a = qd.partial_trace(product_mixed, "A")
        rho_b = qd.partial_trace(product_mixed, "B")
        assert_allclose(np.kron(rho_a, rho_b), product_mixed.mat, atol=1e-12)

    def test_bell_diagonal_marginals(self):
        rho = qd.bell_diagonal_state([1.0, 0.0, 0.0])
        assert_allclose(qd.partial_trace(rho, "B"), ID2 / 2, atol=1e-14)

    def test_product_roundtrip_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mats = []
            for d in (2, 3):
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                m = g @ g.conj().T
                mats.append(m / np.trace(m).real)
            rho = qd.DensityMatrix(np.kron(mats[0], mats[1]), 2, 3)
            assert_allclose(qd.partial_trace(rho, "A"), mats[0], atol=1e-12)
            assert_allclose(qd.partial_trace(rho, "B"), mats[1], atol=1e-12)

    @pytest.mark.parametrize("keep", ["C", "a", "", None])
    def test_rejects_bad_keep(self, bell, keep):
        with pytest.raises(qd.ValidationError, match="keep must be 'A' or 'B'"):
            qd.partial_trace(bell, keep)


class TestRealignedPair:
    @pytest.mark.parametrize(
        "dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 16)], ids=lambda d: f"{d[0]}x{d[1]}"
    )
    def test_matches_kron_and_explicit_partial_trace(self, dims):
        da, db = dims
        rho = qd.random_density_matrix(da, db, seed=da * 100 + db)
        rng = np.random.default_rng(db)
        # non-Hermitian stacks: mixing up A_n and its transpose changes the result
        ops = rng.standard_normal((5, da, da)) + 1j * rng.standard_normal((5, da, da))
        blocks = rng.standard_normal((5, db, db)) + 1j * rng.standard_normal((5, db, db))

        for op, x in zip(ops, linalg.a_side_blocks(rho, ops)):
            lifted = (np.kron(op, np.eye(db)) @ rho.mat).reshape(da, db, da, db)
            assert_allclose(x, sum(lifted[a, :, a, :] for a in range(da)), atol=1e-12)
        expected = sum(np.kron(op, x) for op, x in zip(ops, blocks))
        assert_allclose(linalg.a_side_sum(ops, blocks), expected, atol=1e-12)

        basis = qd.gell_mann_basis(da)
        roundtrip = linalg.a_side_sum(basis, linalg.a_side_blocks(rho, basis))
        assert_allclose(roundtrip, rho.mat, atol=1e-14)


class TestEntropy:
    def test_maximally_mixed(self):
        rho = qd.DensityMatrix(np.eye(4, dtype=complex) / 4, 2, 2)
        assert qd.von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-12)

    def test_pure_state(self, bell):
        assert qd.von_neumann_entropy(bell) == pytest.approx(0.0, abs=1e-12)

    def test_rank_two_bell_diagonal(self):
        rho = qd.bell_diagonal_state([1.0, 0.0, 0.0])
        # eigenvalues (1/2, 1/2, 0, 0)
        assert qd.von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_additive_on_products(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            mats = []
            for d in (2, 3):
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                m = g @ g.conj().T
                mats.append(m / np.trace(m).real)
            joint = qd.von_neumann_entropy(np.kron(mats[0], mats[1]))
            split = qd.von_neumann_entropy(mats[0]) + qd.von_neumann_entropy(mats[1])
            assert joint == pytest.approx(split, abs=1e-10)

    @pytest.mark.parametrize(
        "mat, error",
        [
            # eigvalsh reads the lower triangle only: these read 1.0 and -0.877 bits
            ([[0.5, 1.0], [0.0, 0.5]], qd.NonHermitianError),
            ([[0.5, 0.0], [1.0, 0.5]], qd.NonHermitianError),
            ([[1.0 + 2e-10, 0.0], [0.0, -2e-10]], qd.ValidationError),
            (np.eye(2, 3) / 2, qd.DimensionError),
        ],
        ids=["upper", "lower", "past-psd-atol", "not-square"],
    )
    def test_refuses_matrices_that_are_not_states(self, mat, error):
        with pytest.raises(error):
            qd.von_neumann_entropy(np.array(mat))

    def test_accepts_matrices_at_the_tolerances(self):
        # min eigenvalue -PSD_ATOL; Hermiticity defect 0.99 HERMITIAN_ATOL
        edge = np.diag([1.0 + 1e-10, -1e-10])
        assert qd.von_neumann_entropy(edge) == pytest.approx(0.0, abs=1e-9)
        skew = np.array([[0.5, 0.7e-10], [0.0, 0.5]])
        assert qd.von_neumann_entropy(skew) == pytest.approx(1.0, abs=1e-9)


_NAN_ENTRY = np.array([[np.nan, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: qd.von_neumann_entropy(_NAN_ENTRY), qd.ValidationError),
        (lambda: qd.von_neumann_entropy(np.diag([np.inf, 1.0])), qd.ValidationError),
    ],
    ids=["entropy-nan", "entropy-inf"],
)
def test_nan_fails_every_check(call, error):
    with pytest.raises(error):
        call()


_BELL = qd.bell_state(0)
_U4 = qd.random_unitary(4, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: qd.geometric_discord_oracle(_BELL, restarts=1.5), "restarts must be an"),
        (lambda: qd.geometric_discord_oracle(_BELL, restarts=True), "restarts must be an"),
        (lambda: qd.geometric_discord_oracle(_BELL, seed=-1), "need seed >= 0"),
        (lambda: qd.dqc1_sample_trace(qd.Dqc1Instance(2, 1.0, _U4), 2.5, 0), "samples must be an"),
        (lambda: qd.dqc1_sample_trace(qd.Dqc1Instance(2, 1.0, _U4), 10, -1), "need seed >= 0"),
        (lambda: qd.Dqc1Instance(n=True, alpha=1.0, unitary=np.eye(2)), "n must be an"),
        (lambda: qd.Dqc1Instance(n=2.5, alpha=1.0, unitary=_U4), "n must be an"),
        (lambda: qd.DensityMatrix(np.eye(4) / 4, 2.5, 2), "dim_a must be an"),
        (lambda: qd.DensityMatrix(np.eye(4) / 4, 2, "2"), "dim_b must be an"),
        (lambda: qd.random_density_matrix(2.5, 2, 0), "dim_a must be an"),
        (lambda: qd.random_density_matrix(2, 2, -1), "need seed >= 0"),
        (lambda: qd.random_unitary(2.5, 0), "d must be an"),
        (lambda: qd.random_unitary(2, 1.5), "seed must be an"),
        (lambda: qd.gell_mann_basis(2.5), "d must be an"),
        (lambda: qd.fibonacci_sphere(2.5), "n must be an"),
        (lambda: qd.fibonacci_sphere(True), "n must be an"),
        (lambda: qd.fibonacci_sphere(-1), "need n >= 1"),
        (lambda: qd.fibonacci_sphere(0), "need n >= 1"),
        # a boolean once passed as 1: bell_state(True) gave Phi-
        (lambda: qd.bell_state(True), "index must be an"),
        (lambda: qd.bell_state(np.True_), "index must be an"),
        (lambda: qd.bell_state(1.5), "index must be an"),
        (lambda: qd.facet_state(True, -1, 1), "s1 must be an"),
        (lambda: qd.facet_state(1, np.True_, 1), "s2 must be an"),
        (lambda: qd.facet_state(1, -1, True), "s3 must be an"),
        (lambda: qd.facet_state(1, -1, np.True_), "s3 must be an"),
        (lambda: qd.facet_state(1, -1, 1.5), "s3 must be an"),
        (lambda: qd.Dqc1Instance(n=2.0, alpha=1.0, unitary=_U4).n, None),
        (lambda: qd.DensityMatrix(np.eye(4) / 4, 2.0, np.int64(2)).dim, None),
    ],
    ids=[
        "oracle-restarts-fraction", "oracle-restarts-bool", "oracle-seed",
        "samples", "sample-seed", "n-bool", "n-fraction", "dim_a", "dim_b-str",
        "random-state-dim", "random-state-seed", "unitary-dim", "unitary-seed", "gell-mann-d",
        "sphere-fraction", "sphere-bool", "sphere-negative", "sphere-zero",
        "bell-bool", "bell-numpy-bool", "bell-fraction", "facet-bool-s1",
        "facet-numpy-bool-s2", "facet-bool",
        "facet-numpy-bool", "facet-fraction", "n-integral-float", "dims-integral-float",
    ],
)
def test_counts_and_seeds_are_integers(call, message):
    """A count or seed that is not an integer, or a negative seed, is a named error;
    an integral float such as 2.0 is accepted and kept as an int."""
    if message is None:
        value = call()
        assert type(value) is int
    else:
        with pytest.raises(qd.ValidationError, match=f"^{message}"):
            call()
