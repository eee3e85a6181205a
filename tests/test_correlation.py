import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qdiscord as qd
from qdiscord.linalg import ID2
from references import commutator_norm, sample_zero_discord_state, zero_discord_verdict

BAD_TOLERANCES = [float("nan"), -1.0, float("inf")]


def _random_b_state(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _random_cq_state(seed, dim_a=2, dim_b=2):
    rng = np.random.default_rng(seed)
    u = qd.random_unitary(dim_a, seed + 1000)
    p = rng.uniform(0.05, 1.0, dim_a)
    p /= p.sum()
    states = [_random_b_state(rng, dim_b) for _ in range(dim_a)]
    return qd.classical_quantum_state(p, [u[:, i] for i in range(dim_a)], states)


def _criterion_05_cq_state(seed, dim_a, dim_b):
    """Classical-quantum state with 2..dim_a terms, as in acceptance criterion 05."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, dim_a + 1))
    u = qd.random_unitary(dim_a, seed + 10_000)
    p = rng.uniform(0.05, 1.0, k)
    p /= p.sum()
    states = [_random_b_state(rng, dim_b) for _ in range(k)]
    return qd.classical_quantum_state(p, [u[:, i] for i in range(k)], states)


def _eps_mixed_cq_state(seed, eps):
    """A 2x2 classical-quantum state mixed with eps of a random state."""
    mat = (1.0 - eps) * _random_cq_state(seed).mat + eps * qd.random_density_matrix(2, 2, seed + 7).mat
    return qd.DensityMatrix(mat, 2, 2)


class TestCorrelationMatrix:
    def test_product_of_maximally_mixed(self):
        rho = qd.DensityMatrix(np.eye(4, dtype=complex) / 4, 2, 2)
        cm = qd.correlation_matrix(rho)
        expected = np.zeros((4, 4))
        expected[0, 0] = 0.5
        assert_allclose(cm.r, expected, atol=1e-15)
        assert qd.numerical_rank(cm) == 1

    def test_bell_state_entries(self, bell):
        cm = qd.correlation_matrix(bell)
        assert_allclose(cm.r, np.diag([0.5, 0.5, -0.5, 0.5]), atol=1e-14)
        assert qd.numerical_rank(cm) == 4
        assert_allclose(cm.singulars, [0.5, 0.5, 0.5, 0.5], atol=1e-14)

    def test_two_term_mixture_rank(self):
        rng = np.random.default_rng(3)
        rho0 = _random_b_state(rng, 2)
        rho1 = _random_b_state(rng, 2)
        rho = qd.classical_quantum_state(
            [0.5, 0.5], [np.array([1, 0]), np.array([0, 1])], [rho0, rho1]
        )
        assert qd.numerical_rank(qd.correlation_matrix(rho)) <= 2

    def test_svd_factors_reconstruct_r(self):
        rho = qd.random_density_matrix(2, 3, 17)
        cm = qd.correlation_matrix(rho)
        assert np.linalg.norm(cm.svd_u * cm.singulars @ cm.svd_v.T - cm.r) <= 1e-10 * max(
            1.0, np.linalg.norm(cm.r)
        )

    @pytest.mark.parametrize("bad", BAD_TOLERANCES)
    @pytest.mark.parametrize("name", ["atol", "rtol"])
    def test_rejects_bad_tolerance(self, bell, name, bad):
        with pytest.raises(qd.ValidationError, match=f"^{name} must be finite and >= 0"):
            qd.correlation_matrix(bell, **{name: bad})

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 8), (2, 16)])
    def test_entries_match_elementwise_sum(self, dims):
        rho = qd.random_density_matrix(*dims, 40 + sum(dims))
        cm = qd.correlation_matrix(rho)
        ops_a, ops_b = cm.basis_a, qd.gell_mann_basis(cm.dim_b)
        # r_nm = Tr[rho (A_n x B_m)], one Kronecker product at a time
        expected = np.array(
            [[np.trace(rho.mat @ np.kron(a, b)).real for b in ops_b] for a in ops_a]
        )
        assert np.abs(cm.r - expected).max() <= 1e-14

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 16)])
    def test_thin_svd_factors(self, dims):
        rho = qd.random_density_matrix(*dims, 5)
        cm = qd.correlation_matrix(rho)
        n_a, n_b = dims[0] ** 2, dims[1] ** 2
        k = min(n_a, n_b)
        assert cm.svd_u.shape == (n_a, k)
        assert cm.svd_v.shape == (n_b, k)
        assert cm.singulars.shape == (k,)
        assert np.abs(cm.svd_u.T @ cm.svd_u - np.eye(k)).max() <= 1e-12
        assert np.abs(cm.svd_v.T @ cm.svd_v - np.eye(k)).max() <= 1e-12
        assert np.abs(cm.svd_u * cm.singulars @ cm.svd_v.T - cm.r).max() <= 1e-14
        assert not hasattr(cm, "svd_w")

    @pytest.mark.parametrize("dim_a", [2, 3])
    def test_entry_reader_agrees_with_dense_product_at_the_crossover(self, dim_a):
        below = qd.correlation._READ_ENTRIES_ABOVE_DIM_B
        for dim_b in (below, below + 1):
            rho = qd.random_density_matrix(dim_a, dim_b, 7 + dim_b)
            cm = qd.correlation_matrix(rho)
            dense = qd.linalg._expand(rho, qd.gell_mann_basis(dim_a), qd.gell_mann_basis(dim_b))
            if dim_b == below:
                assert np.array_equal(cm.r, dense)
            else:
                assert np.abs(cm.r - dense).max() <= 1e-15

    def test_singulars_match_full_svd(self):
        for seed in range(10):
            cm = qd.correlation_matrix(qd.random_density_matrix(2, 8, seed))
            c = np.linalg.svd(cm.r, compute_uv=False)
            assert np.abs(cm.singulars - c).max() <= 1e-15


def _rebuilt(rho):
    """sum_n c_n S_n x F_n over the retained terms of rho's expansion."""
    pairs = qd.local_operators(qd.correlation_matrix(rho))
    return sum(p.weight * np.kron(p.op_a, p.op_b) for p in pairs)


class TestReconstructState:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_roundtrip_random(self, dims):
        for seed in range(100 if dims == (2, 2) else 20):
            rho = qd.random_density_matrix(*dims, seed)
            assert np.abs(_rebuilt(rho) - rho.mat).max() <= 1e-12

    def test_bell_roundtrip_exact_pattern(self, bell):
        assert_allclose(_rebuilt(bell), bell.mat, atol=1e-14)


class TestLocalOperators:
    def test_product_single_pair(self):
        rho = qd.DensityMatrix(np.eye(4, dtype=complex) / 4, 2, 2)
        pairs = qd.local_operators(qd.correlation_matrix(rho))
        assert len(pairs) == 1
        op = pairs[0].op_a
        assert np.linalg.norm(op - np.trace(op) / 2 * ID2) <= 1e-12

    def test_bell_four_pairs(self, bell):
        pairs = qd.local_operators(qd.correlation_matrix(bell))
        assert len(pairs) == 4
        assert_allclose([p.weight for p in pairs], 0.5, atol=1e-14)

    def test_axis_state_two_pairs(self):
        rho = qd.bell_diagonal_state([0.6, 0.0, 0.0])
        pairs = qd.local_operators(qd.correlation_matrix(rho))
        assert len(pairs) == 2

    def test_operators_match_per_term_sums(self):
        cm = qd.correlation_matrix(qd.random_density_matrix(2, 4, 9))
        pairs = qd.local_operators(cm)
        assert len(pairs) == qd.numerical_rank(cm)
        for n, p in enumerate(pairs):
            op_a = np.einsum("k,kij->ij", cm.svd_u[:, n], cm.basis_a)
            op_b = np.einsum("k,kij->ij", cm.svd_v[:, n], qd.gell_mann_basis(cm.dim_b))
            assert np.abs(p.op_a - op_a).max() <= 1e-14
            assert np.abs(p.op_b - op_b).max() <= 1e-14

    def test_terms_rebuild_state(self):
        for seed in (1, 2, 3):
            rho = qd.random_density_matrix(2, 3, seed)
            pairs = qd.local_operators(qd.correlation_matrix(rho))
            acc = np.zeros((6, 6), dtype=complex)
            for p in pairs:
                acc += p.weight * np.kron(p.op_a, p.op_b)
            assert np.linalg.norm(acc - rho.mat) <= 1e-10
            for p in pairs:
                assert np.linalg.norm(p.op_a - p.op_a.conj().T) <= 1e-10
                assert np.linalg.norm(p.op_b - p.op_b.conj().T) <= 1e-10


    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)], ids=lambda d: f"{d[0]}x{d[1]}")
    def test_operators_are_hs_orthonormal(self, dims):
        # Tr(S_m S_n) = Tr(F_m F_n) = delta_mn: the columns of U and V rotate an orthonormal basis
        pairs = qd.local_operators(qd.correlation_matrix(qd.random_density_matrix(*dims, 11)))
        assert len(pairs) == min(dims) ** 2
        for side in ("op_a", "op_b"):
            ops = np.stack([getattr(p, side) for p in pairs])
            gram = np.einsum("mij,nji->mn", ops, ops)
            assert np.abs(gram - np.eye(len(pairs))).max() <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)], ids=lambda d: f"{d[0]}x{d[1]}")
    def test_weights_are_the_retained_singular_values(self, dims):
        cm = qd.correlation_matrix(qd.random_density_matrix(*dims, 12))
        weights = [p.weight for p in qd.local_operators(cm)]
        assert weights == sorted(weights, reverse=True)
        assert_allclose(weights, cm.singulars[: qd.numerical_rank(cm)], rtol=0, atol=0)

    @pytest.mark.parametrize("dim_a", [2, 3])
    def test_zero_discord_state_operators_commute(self, dim_a):
        # the paper's criterion: for a classical-quantum state every pair S_m, S_n commutes
        for seed in range(5):
            pairs = qd.local_operators(qd.correlation_matrix(_random_cq_state(seed, dim_a, 2)))
            assert len(pairs) <= dim_a
            for p in pairs:
                for q in pairs:
                    assert commutator_norm(p.op_a, q.op_a) <= 1e-10

    def test_discordant_state_operators_do_not_commute(self, eq4_state):
        pairs = qd.local_operators(qd.correlation_matrix(eq4_state))
        largest = max(commutator_norm(p.op_a, q.op_a) for p in pairs for q in pairs)
        assert largest > 0.1

    def test_2x256_leaves_no_b_stack_in_the_cache(self):
        # each F_n is written from its column of V; the d_B = 256 stack alone would be 64 GiB
        u = qd.random_unitary(256, 1)
        rho = qd.dqc1_output_state(qd.Dqc1Instance(n=8, alpha=0.6, unitary=u))
        qd.gell_mann_basis.cache_clear()
        cm = qd.correlation_matrix(rho)
        pairs = qd.local_operators(cm)
        assert len(pairs) == qd.numerical_rank(cm) >= 1
        assert all(p.op_b.shape == (256, 256) for p in pairs)
        assert qd.gell_mann_basis.cache_info().currsize == 1  # d_A = 2's stack only
        acc = sum(p.weight * np.kron(p.op_a, p.op_b) for p in pairs)
        assert np.abs(acc - rho.mat).max() <= 1e-15


class TestZeroDiscordTest:
    def test_classical_quantum_passes(self):
        for seed in range(10):
            verdict = qd.zero_discord_test(_random_cq_state(seed))
            assert verdict.is_zero_discord
            assert verdict.rank_l <= 2

    @pytest.mark.parametrize("seed", range(10))
    def test_two_qubit_zero_discord_mixtures_pass(self, seed):
        assert qd.zero_discord_test(sample_zero_discord_state(seed)).is_zero_discord

    def test_eq4_state_fails(self, eq4_state):
        verdict = qd.zero_discord_test(eq4_state)
        assert not verdict.is_zero_discord
        assert verdict.rank_l == 3
        assert verdict.witness_triggered

    def test_bell_witness_triggers(self, bell):
        verdict = qd.zero_discord_test(bell)
        assert not verdict.is_zero_discord
        assert verdict.witness_triggered
        assert verdict.rank_l == 4

    def test_axis_states_are_classical(self):
        verdict = qd.zero_discord_test(qd.bell_diagonal_state([0.7, 0.0, 0.0]))
        assert verdict.is_zero_discord

    def test_two_component_bell_diagonal_fails(self):
        verdict = qd.zero_discord_test(qd.bell_diagonal_state([0.5, 0.4, 0.0]))
        assert not verdict.is_zero_discord

    def test_witness_soundness_random_states(self):
        for seed in range(20):
            rho = qd.random_density_matrix(2, 2, seed)
            verdict = qd.zero_discord_test(rho)
            if verdict.rank_l > 2:
                assert not verdict.is_zero_discord

    def test_basis_covariance(self):
        # rotate the traceless sector of both local bases by a seeded orthogonal matrix;
        # the reference verdict over those bases must match the library's Gell-Mann one
        rng = np.random.default_rng(7)

        def rotated_basis(d):
            k = d * d - 1
            q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            mix = np.zeros((d * d, d * d))
            mix[0, 0] = 1.0
            mix[1:, 1:] = q
            return np.einsum("nk,kij->nij", mix, qd.gell_mann_basis(d))

        for rho, expected in [
            (_random_cq_state(21), True),
            (qd.four_nonorthogonal_state(), False),
            (qd.bell_state(1), False),
        ]:
            verdict = qd.zero_discord_test(rho)
            assert verdict.is_zero_discord == expected
            ref = zero_discord_verdict(rho, rotated_basis(rho.dim_a), rotated_basis(rho.dim_b))
            assert ref == (verdict.is_zero_discord, verdict.rank_l)

    def test_local_unitary_invariance(self):
        for seed, rho in [(0, _random_cq_state(31)), (1, qd.bell_state(2)), (2, qd.four_nonorthogonal_state())]:
            expected = qd.zero_discord_test(rho).is_zero_discord
            u = qd.random_unitary(rho.dim_a, 50 + seed)
            v = qd.random_unitary(rho.dim_b, 60 + seed)
            w = np.kron(u, v)
            rotated = qd.DensityMatrix(w @ rho.mat @ w.conj().T, rho.dim_a, rho.dim_b)
            assert qd.zero_discord_test(rotated).is_zero_discord == expected

    def test_degenerate_singular_values_accepted(self, classical_bits):
        # R = diag(1/2, 0, 0, 1/2): the SVD may mix the two equal directions
        verdict = qd.zero_discord_test(classical_bits)
        assert verdict.is_zero_discord

    def test_verdict_is_rank_and_commutator_rule(self):
        # near the commutator tolerance no second rule may overturn the two printed inputs
        states = [_eps_mixed_cq_state(seed, eps) for eps in (3e-10, 1e-9, 3e-9) for seed in range(100)]
        for dim_a in (2, 3, 4):
            for dim_b in (2, 3, 4, 5):
                for seed in range(5):
                    states.append(_criterion_05_cq_state(100 * dim_a + 10 * dim_b + seed, dim_a, dim_b))
                    states.append(qd.random_density_matrix(dim_a, dim_b, 500 + 20 * dim_a + 4 * dim_b + seed))
        tol = qd.correlation.COMMUTATOR_TOL
        near_tol = 0
        for rho in states:
            v = qd.zero_discord_test(rho)
            assert v.is_zero_discord == (not v.witness_triggered and v.max_commutator <= tol)
            assert v.witness_triggered == (v.rank_l > rho.dim_a)
            near_tol += not v.witness_triggered and tol < v.max_commutator < 2 * tol
        # the corpus does probe the boundary
        assert near_tol > 0

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_max_commutator_matches_pairwise_norms(self, dims):
        for seed in range(5):
            for rho in (qd.random_density_matrix(*dims, seed), _random_cq_state(seed, *dims)):
                ops = [p.op_a for p in qd.local_operators(qd.correlation_matrix(rho))]
                expected = 0.0
                for i in range(len(ops)):
                    for j in range(i + 1, len(ops)):
                        scale = np.linalg.norm(ops[i]) * np.linalg.norm(ops[j])
                        expected = max(expected, commutator_norm(ops[i], ops[j]) / scale)
                got = qd.zero_discord_test(rho).max_commutator
                assert type(got) is float
                assert abs(got - expected) <= 1e-14

    def test_local_operators_are_normalized(self):
        states = [_random_cq_state(21), qd.four_nonorthogonal_state(), qd.bell_state(1)]
        states += [qd.random_density_matrix(3, 2, 4), _random_cq_state(5, 3, 3)]
        for rho in states:
            for p in qd.local_operators(qd.correlation_matrix(rho)):
                assert abs(np.linalg.norm(p.op_a) - 1.0) <= 1e-12

    def test_large_state_memory_stays_linear_in_rank(self):
        # 16x16 keeps 256 operators; one k x k x d_A x d_A product stack alone is 268 MB
        rho = qd.random_density_matrix(16, 16, 0)
        tracemalloc.start()
        try:
            verdict = qd.zero_discord_test(rho)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.witness_triggered
        assert peak < 64 * 2**20

    def test_large_b_side_leaves_no_b_stack_in_the_cache(self):
        # above d_B = 8, r is read from the A-side blocks' entries, so d_A = 2's stack is the
        # only one built; a d_B = 64 stack alone is 268 MB
        qd.gell_mann_basis.cache_clear()
        for dim_b in (16, 64):
            assert qd.zero_discord_test(qd.random_density_matrix(2, dim_b, 0)).witness_triggered
        assert qd.gell_mann_basis.cache_info().currsize == 1

    # 1 takes one row per product; 128 splits the 3 rows of a rank-4 4x2 state 2 + 1, 405 the
    # 8 rows of a rank-9 3x3 state 5 + 3, and 1536 the 15 rows of a rank-16 4x4 state 6 + 6 + 3
    @pytest.mark.parametrize("entries", [1, 128, 405, 1536])
    def test_commutator_blocks_do_not_change_the_verdict(self, monkeypatch, entries):
        states = []
        for dims in [(3, 3), (4, 2), (4, 4)]:
            for seed in range(3):
                states += [qd.random_density_matrix(*dims, seed), _random_cq_state(seed, *dims)]
        expected = [qd.zero_discord_test(rho) for rho in states]
        monkeypatch.setattr(qd.correlation, "_COMM_BLOCK", entries)
        assert [qd.zero_discord_test(rho) for rho in states] == expected

    def test_rank_cutoff_above_every_singular_value(self):
        # rank_atol is any finite value >= 0; a cutoff of 10 keeps no operator at all
        verdict = qd.zero_discord_test(qd.random_density_matrix(3, 3, 0), rank_atol=10.0)
        assert verdict == qd.correlation.ZeroDiscordVerdict(True, 0, 0.0, False)

    def test_agrees_with_geometric_discord_on_clear_cases(self):
        states = [_random_cq_state(seed) for seed in range(50)]
        states += [qd.random_density_matrix(2, 2, 700 + seed) for seed in range(50)]
        states += [qd.bell_diagonal_state(t) for t in ([0.7, 0, 0], [0, -0.4, 0], [0, 0, 1.0], [0, 0, 0])]
        states += [qd.bell_state(i) for i in range(4)] + [qd.four_nonorthogonal_state()]
        for rho in states:
            zero_geometric = qd.geometric_discord_2q(rho).value <= 1e-12
            assert qd.zero_discord_test(rho).is_zero_discord == zero_geometric

    @pytest.mark.parametrize("bad", BAD_TOLERANCES)
    @pytest.mark.parametrize("name", ["tol", "rank_atol", "rank_rtol"])
    def test_rejects_bad_tolerance(self, bell, name, bad):
        with pytest.raises(qd.ValidationError, match=f"^{name} must be finite and >= 0"):
            qd.zero_discord_test(bell, **{name: bad})


class TestPartialRowsWitness:
    def test_product_rows_never_prove(self):
        rho = qd.DensityMatrix(np.kron(np.diag([0.7, 0.3]), ID2 / 2).astype(complex), 2, 2)
        cm = qd.correlation_matrix(rho)
        rows = [(n, cm.r[n]) for n in range(4)]
        verdict = qd.partial_rows_witness(rows, 2)
        assert not verdict.discord_proven
        assert verdict.independent_count <= 2

    def test_bell_three_rows_prove(self, bell):
        cm = qd.correlation_matrix(bell)
        rows = [(n, cm.r[n]) for n in (0, 1, 2)]
        verdict = qd.partial_rows_witness(rows, 2)
        assert verdict.discord_proven
        assert verdict.independent_count == 3

    def test_insufficient_rows(self, bell):
        cm = qd.correlation_matrix(bell)
        rows = [(n, cm.r[n]) for n in (0, 1)]
        assert not qd.partial_rows_witness(rows, 2).discord_proven

    def test_duplicate_index_rejected(self):
        with pytest.raises(qd.ValidationError):
            qd.partial_rows_witness([(0, [1.0, 0, 0, 0]), (0, [0, 1.0, 0, 0])], 2)

    @pytest.mark.parametrize("bad", BAD_TOLERANCES)
    @pytest.mark.parametrize("name", ["atol", "rtol"])
    @pytest.mark.parametrize("func", [qd.partial_rows_witness, qd.certifying_rows])
    def test_rejects_bad_tolerance(self, bell, func, name, bad):
        cm = qd.correlation_matrix(bell)
        rows = [(n, cm.r[n]) for n in range(4)]
        with pytest.raises(qd.ValidationError, match=f"^{name} must be finite and >= 0"):
            func(rows, 2, **{name: bad})

    @pytest.mark.parametrize(
        "dim_a, indices, error",
        [
            (2, (0, 1, 99), qd.ValidationError),  # a_index past dim_a^2 - 1
            (2, (0, 1, 7), qd.ValidationError),
            (2, (-1, 0, 1), qd.ValidationError),
            (2, (0, 1, 2.0), qd.ValidationError),
            (0, (0, 1, 2), qd.DimensionError),  # one row would "prove" discord at dim_a = 0
            (2.5, (0, 1, 2), qd.DimensionError),
            (-1, (0, 1, 2), qd.DimensionError),
            (True, (0, 1, 2), qd.DimensionError),
        ],
    )
    @pytest.mark.parametrize("func", [qd.partial_rows_witness, qd.certifying_rows])
    def test_rejects_bad_dim_a_or_a_index(self, bell, func, dim_a, indices, error):
        cm = qd.correlation_matrix(bell)
        rows = [(i, cm.r[n]) for n, i in enumerate(indices)]
        with pytest.raises(error, match="^(dim_a|a_index) must be an integer"):
            func(rows, dim_a)

    def test_certifying_rows(self, bell):
        cm = qd.correlation_matrix(bell)
        rows = [(n, cm.r[n]) for n in range(4)]
        picked = qd.certifying_rows(rows, 2)
        assert picked is not None and len(picked) == 3
        subset = [(i, cm.r[i]) for i in picked]
        assert qd.partial_rows_witness(subset, 2).discord_proven
