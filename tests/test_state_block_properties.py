"""Property tests for state blocks: B states held as one tagged table.

`random_trial_block` plays and analyses its trials as one `StateBlock`,
whose rows carry an owner and never merge across owners.  Each result on
a block must equal the per-state result it replaces, term for term and
bit for bit, down to the sign of zero: `run_schedule` for evolution and
the per-state `_region_marginals` and `branch_decompose` for analysis.
A golden digest pins the first 2,048 per-trial deviations of the random
suite.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchsim as bs
from branchsim import analysis, gates, oracle, verify
from branchsim.lattice import StateBlock, first_appearance, row_keys
from branchsim.schedule import GateApplication, Schedule, run_schedule

components = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5]),
                       st.floats(-1.0, 1.0, allow_nan=False))


@st.composite
def states_on(draw, lattice, max_terms=8):
    """A normalised sparse state of a few terms, some amplitudes signed zeros."""
    n = lattice.n_sites
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                         min_size=1, max_size=max_terms, unique_by=tuple))
    amps = [complex(draw(components), draw(components)) for _ in rows]
    if sum(abs(a) for a in amps) < 1e-3:
        amps[0] = 1.0
    return bs.entangled_state(lattice, list(zip(map(tuple, rows), amps)))


def phased_swap():
    """A U_swap whose matrix carries a phase that its action lacks."""
    matrix = gates.field_swap_gate().matrix.copy()
    matrix[1, 2] = np.exp(1e-3j)
    gate = gates.Gate2("U_swap", matrix)
    object.__setattr__(gate, "action", gates.field_swap_gate().action)
    return gate


def library(seeds):
    """Named permutation gates, a phased swap, a rotation that leaves
    amplitudes below PRUNE_EPS, and Haar gates, one per seed."""
    dust = gates.Gate2("dust", np.kron(bs.rotation_gate(1e-15).matrix, np.eye(2)))
    return ([bs.gate_by_name(name) for name in ("U_si", "U_copy", "U_swap")]
            + [phased_swap(), dust]
            + [oracle.random_gate2(np.random.default_rng(seed)) for seed in seeds])


def same_table(a, b):
    return (a.bits.tobytes() == b.bits.tobytes() and a.bits.shape == b.bits.shape
            and a.amps.tobytes() == b.amps.tobytes())


def seeded_states(rng, lattice, n_states):
    """Normalised states of 1 to 4 terms, amplitude parts drawn from
    signed zeros, halves and Gaussians."""
    n = lattice.n_sites
    states = []
    for _ in range(n_states):
        codes = rng.choice(2 ** n, size=rng.integers(1, min(4, 2 ** n) + 1), replace=False)
        parts = np.where(rng.random((len(codes), 2)) < 0.3,
                         rng.choice([0.0, -0.0, 0.5, -0.5], (len(codes), 2)),
                         rng.normal(size=(len(codes), 2)))
        amps = parts[:, 0] + 1j * parts[:, 1]
        if np.abs(amps).sum() < 1e-3:
            amps[0] = 1.0
        states.append(bs.entangled_state(lattice, [
            (tuple((int(c) >> (n - 1 - p)) & 1 for p in range(n)), complex(a))
            for c, a in zip(codes, amps)]))
    return states


@pytest.mark.filterwarnings("ignore:schedule applies two-site gates to non-adjacent sites")
@settings(max_examples=40, deadline=None)
@given(n_sites=st.integers(2, 6), n_steps=st.integers(1, 4), n_trials=st.integers(0, 70),
       haar=st.lists(st.integers(0, 2 ** 32 - 1), max_size=3), seed=st.integers(0, 2 ** 32 - 1))
def test_a_tagged_play_equals_per_trial_runs(n_sites, n_steps, n_trials, haar, seed):
    rng = np.random.default_rng(seed)
    lattice = bs.chain_lattice([0], range(1, n_sites))
    gate_list = library(haar)
    states = seeded_states(rng, lattice, n_trials)
    # any two distinct sites, in either order
    pairs = np.argsort(rng.random((n_trials, n_steps, n_sites)), axis=-1)[..., :2]
    picks = rng.integers(0, len(gate_list), (n_trials, n_steps))

    runs = [run_schedule(state, Schedule(tuple(
        GateApplication(t, tuple(pairs[b, t].tolist()), gate_list[picks[b, t]])
        for t in range(n_steps))))
        for b, state in enumerate(states)]
    if not n_trials:
        return
    actions = gates.join_actions([gate.action for gate in gate_list])
    table = StateBlock.of(states).table
    for t in range(n_steps):
        table = gates.apply_columns(table, pairs[:, t], gates.take_actions(actions, picks[:, t]))
        played = StateBlock(lattice, table, n_trials).states()
        assert all(same_table(p.table, run[t + 1].table) for p, run in zip(played, runs))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_owner_axis_marginals_equal_per_state_marginals(data):
    # up to 70 sites, so keys of (owner, region, outside bits) take both
    # the uint64 and the void encoding
    n_sites = data.draw(st.integers(2, 70))
    lattice = bs.chain_lattice([0], range(1, n_sites))
    states = data.draw(st.lists(states_on(lattice), min_size=1, max_size=5))
    k = data.draw(st.integers(1, 2))
    regions = data.draw(st.lists(st.permutations(range(n_sites)).map(lambda p: tuple(p[:k])),
                                 min_size=1, max_size=6))
    block = StateBlock.of(states)
    stacked = analysis._region_marginals(block, regions)
    assert stacked.shape == (len(states), len(regions), 2 ** k, 2 ** k)
    for state, rho in zip(states, stacked):
        assert rho.tobytes() == analysis._region_marginals(state, regions).tobytes()

    marginals = analysis.site_marginals(block)
    assert marginals.sites == lattice.indices * len(states)
    owner, bits, weights, branched = analysis.branch_table(block, marginals,
                                                           analysis.BRANCH_TOL)
    for b, state in enumerate(states):
        alone = analysis.site_marginals(state)
        for field in ("matrices", "coherence", "purity", "entropy"):
            ours = getattr(marginals, field)[b * n_sites:(b + 1) * n_sites]
            assert ours.tobytes() == getattr(alone, field).tobytes()
        decomp = analysis.branch_decompose(state)
        mine = owner == b
        assert np.float64(decomp.weights).tobytes() == weights[mine].tobytes()
        assert [list(br.assignment.values()) for br in decomp.branches] == \
            bits[mine][:, branched[b]].tolist()


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 64), n_rows=st.integers(0, 40), owner_bits=st.integers(0, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_both_key_encodings_group_and_sort_alike(n, n_rows, owner_bits, seed):
    rng = np.random.default_rng(seed)
    # few distinct rows and owners, so that rows repeat
    bits = rng.integers(0, 2, (4, n), dtype=np.uint8)[rng.integers(0, 4, n_rows)]
    owner = rng.integers(0, 2 ** owner_bits, 3)[rng.integers(0, 3, n_rows)]
    for tags in (None, owner):
        packed = row_keys(bits, tags)
        # zero columns change no row's grouping or order, and push it past 64 bits
        wide = row_keys(np.concatenate([bits, np.zeros((n_rows, 65), np.uint8)], axis=1), tags)
        assert packed.dtype == np.uint64 or tags is not None
        assert wide.dtype.kind == "V"
        for got, want in zip(first_appearance(packed), first_appearance(wide)):
            assert np.array_equal(got, want)
        assert np.array_equal(packed.argsort(kind="stable"), wide.argsort(kind="stable"))


def test_row_keys_sort_like_owner_then_bits():
    bits = np.array([[1, 0], [0, 1], [1, 0], [0, 0]], dtype=np.uint8)
    owner = np.array([0, 1, 1, 1])
    for width in (2, 80):
        padded = np.pad(bits, ((0, 0), (0, width - 2)))
        assert row_keys(padded, owner).argsort(kind="stable").tolist() == [0, 3, 1, 2]


# ---------------------------------------------------------------------------
# golden pin of the random suite
# ---------------------------------------------------------------------------

#: sha256 of the float64 bytes of the first 2,048 per-trial deviations at
#: the suite's default seed, recorded before the suite played blocks as
#: one tagged table.
GOLDEN_DEVIATIONS = "f7118b8bb5d32f3437e2896c3efe811f8b79cf1ec5a6cac29cae1b61cfeb9230"


def test_random_suite_deviations_are_pinned():
    rng = np.random.default_rng(verify.DEFAULT_SEED)
    deviations = np.concatenate([verify.random_trial_block(rng, verify.TRIAL_BLOCK)
                                 for _ in range(2048 // verify.TRIAL_BLOCK)])
    assert len(deviations) == 2048 and deviations.max() <= verify.DEFAULT_TOL
    assert hashlib.sha256(deviations.astype(np.float64).tobytes()).hexdigest() \
        == GOLDEN_DEVIATIONS


def test_random_gates_of_a_block_are_checked_in_one_stack():
    good = oracle.haar_unitaries(oracle.gaussian_matrix(4, np.random.default_rng(1))[None])
    bad = np.concatenate([good, good + 1e-9])
    with pytest.raises(bs.GateError, match="random: matrix is not unitary"):
        gates.unitary_stack(bad, 4, "random")
    with pytest.raises(bs.GateError, match="want a 4x4 matrix"):
        bs.Gate2("stacked", good)
    assert gates.unitary_stack(good, 4, "random").shape == (1, 4, 4)
