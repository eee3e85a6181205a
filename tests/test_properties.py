"""Invariants of the discord measures, checked on states Hypothesis draws.

Local unitaries U_A x U_B change no discord, so entropic discord and the
closed-form geometric discord must not move, and a classical-quantum state
must stay zero-discord.  D_G of a 2x2 state lies in [0, 1/2] and entropic
discord in [0, S(A)].  The entropy scan's closed-form 3x3 spectra must give
eigvalsh's entropies where eigenvalues vanish, repeat or nearly repeat.
The correlation matrix's singular values follow from the A-side blocks
alone, with no B basis.  The 2x2 oracle lies at or above the closed form and
does not move under local unitaries either.
States are full rank, rank 1 or rank 2, built from
drawn seeds; the profile is derandomized so tier-1 runs the same examples
every time.  Each deviation is passed to ``target``, which steers the search
towards the worst case and reports it under ``--hypothesis-show-statistics``.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, target
from hypothesis import strategies as st

import qdiscord as qd
from qdiscord.entropic import conditional_entropy_scan
from qdiscord.linalg import _entropy, a_side_blocks

TOL = 1e-12

PROFILE = settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(0, 2**32 - 1)


def _state(dim_a, dim_b, rank, seed):
    """G G† / Tr(G G†) for a seeded complex Ginibre G of d x rank, d = dim_a dim_b."""
    d = dim_a * dim_b
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    return qd.DensityMatrix(mat / np.trace(mat).real, dim_a, dim_b)


@st.composite
def states(draw, dims):
    dim_a, dim_b = draw(st.sampled_from(dims))
    rank = draw(st.sampled_from([1, 2, dim_a * dim_b]))
    return _state(dim_a, dim_b, rank, draw(seeds))


@st.composite
def rotated(draw, dims):
    """A state and the same state under a Haar-random U_A x U_B."""
    rho = draw(states(dims))
    u = np.kron(
        qd.random_unitary(rho.dim_a, draw(seeds)), qd.random_unitary(rho.dim_b, draw(seeds))
    )
    return rho, qd.DensityMatrix(u @ rho.mat @ u.conj().T, rho.dim_a, rho.dim_b)


@PROFILE
@given(rotated([(2, 2), (2, 3)]))
def test_entropic_discord_is_locally_invariant(pair):
    rho, moved = pair
    deviation = abs(qd.entropic_discord(rho) - qd.entropic_discord(moved))
    target(deviation, label="entropic invariance deviation")
    assert deviation <= TOL


@PROFILE
@given(rotated([(2, 3), (2, 4)]))
def test_closed_form_is_locally_invariant(pair):
    rho, moved = pair
    deviation = abs(qd.geometric_discord_2q(rho).value - qd.geometric_discord_2q(moved).value)
    target(deviation, label="closed-form invariance deviation")
    assert deviation <= TOL


@PROFILE
@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]), st.data())
def test_cq_zero_verdict_survives_local_unitaries(dims, data):
    dim_a, dim_b = dims
    rng = np.random.default_rng(data.draw(seeds))
    kets = list(qd.random_unitary(dim_a, data.draw(seeds)).T)  # columns: an orthonormal basis
    ranks = data.draw(st.lists(st.sampled_from([1, dim_b]), min_size=dim_a, max_size=dim_a))
    b_states = [_state(dim_b, 1, r, data.draw(seeds)).mat for r in ranks]
    rho = qd.classical_quantum_state(rng.dirichlet(np.ones(dim_a)), kets, b_states)
    u = np.kron(
        qd.random_unitary(dim_a, data.draw(seeds)), qd.random_unitary(dim_b, data.draw(seeds))
    )
    moved = qd.DensityMatrix(u @ rho.mat @ u.conj().T, dim_a, dim_b)
    assert qd.zero_discord_test(rho).is_zero_discord
    assert qd.zero_discord_test(moved).is_zero_discord


@settings(PROFILE, max_examples=20)
@given(rotated([(2, 2)]))
def test_oracle_is_locally_invariant_and_bounds_closed_form(pair):
    """The oracle minimizes over the zero-discord family, so it cannot go below the closed
    form's exact minimum, and a local unitary maps that family onto itself."""
    oracle = [qd.geometric_discord_oracle(r) for r in pair]
    excess = max(qd.geometric_discord_2q(r).value - v for r, v in zip(pair, oracle))
    deviation = abs(oracle[0] - oracle[1])
    target(excess, label="closed form - oracle")
    target(deviation, label="oracle invariance deviation")
    assert excess <= 1e-9
    assert deviation <= 1e-9


@PROFILE
@given(states([(2, 2)]))
def test_geometric_discord_lies_in_zero_to_half(rho):
    value = qd.geometric_discord_2q(rho).value
    target(max(-value, value - 0.5), label="D_G outside [0, 1/2]")
    assert 0.0 <= value <= 0.5


@PROFILE
@given(states([(2, 2), (2, 3)]))
def test_entropic_discord_is_at_most_entropy_of_a(rho):
    value = qd.entropic_discord(rho)
    excess = value - qd.von_neumann_entropy(qd.partial_trace(rho, "A"))
    target(excess, label="D - S(A)")
    assert 0.0 <= value
    assert excess <= TOL


@PROFILE
@given(states([(dim_a, dim_b) for dim_a in (2, 3) for dim_b in range(2, 21)]))
def test_singulars_need_no_b_basis(rho):
    """r's singular values are Y = [Re X, Im X]'s, X_n = Tr_A[(A_n x 1) rho] flattened over B.

    Each X_n is Hermitian and the B basis is orthonormal, so Y Y^T = r r^T.
    """
    x = a_side_blocks(rho, qd.gell_mann_basis(rho.dim_a)).reshape(rho.dim_a**2, -1)
    y_singulars = np.linalg.svd(np.hstack([x.real, x.imag]), compute_uv=False)
    singulars = qd.correlation_matrix(rho).singulars
    k = singulars.size
    # at 3 x 2, Y has 8 singular values and r 4; the other 4 vanish
    gap = max(np.abs(singulars - y_singulars[:k]).max(), y_singulars[k:].max(initial=0.0))
    target(gap)
    assert gap <= 1e-13


@st.composite
def qutrit_spectra(draw):
    """Three eigenvalues of unit sum, with zeros, exact repeats and near-equal pairs."""
    a, b = draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0))
    gap = 10.0 ** draw(st.floats(-12.0, -3.0))
    lam = draw(st.sampled_from([
        [a, b, draw(st.floats(0.01, 1.0))],
        [a, b, 0.0],
        [a, 0.0, 0.0],
        [a, a, b],
        [a, a, a],
        [a, a + gap, b],
        [a, gap, 0.0],
    ]))
    return np.array(lam) / sum(lam)


@PROFILE
@given(qutrit_spectra(), seeds)
def test_qutrit_scan_entropy_matches_eigvalsh(lam, seed):
    # measuring along z with g0 = gz = X leaves B in X with probability Tr X = 1
    v = qd.random_unitary(3, seed)
    x = (v * lam) @ v.conj().T
    x = 0.5 * (x + x.conj().T)
    zero = np.zeros((3, 3), dtype=complex)
    value = conditional_entropy_scan(x, zero, zero, x, np.array([[0.0, 0.0, 1.0]]))[0]
    deviation = abs(value - _entropy(np.linalg.eigvalsh(x)))
    target(deviation, label="closed-form 3x3 entropy deviation")
    assert deviation <= 1e-13
