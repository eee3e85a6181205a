"""Invariants of the discord measures, checked on states Hypothesis draws.

Local unitaries U_A x U_B change no discord, so entropic discord and the
closed-form geometric discord must not move, and a classical-quantum state
must stay zero-discord.  D_G of a 2x2 state lies in [0, 1/2] and entropic
discord in [0, S(A)].  States are full rank, rank 1 or rank 2, built from
drawn seeds; the profile is derandomized so tier-1 runs the same examples
every time.  Each deviation is passed to ``target``, which steers the search
towards the worst case and reports it under ``--hypothesis-show-statistics``.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, target
from hypothesis import strategies as st

import qdiscord as qd

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
