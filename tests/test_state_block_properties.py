"""Property tests for state blocks: B states held as one tagged table.

`random_trial_block` plays and analyses its trials as one `StateBlock`,
whose rows carry an owner and never merge across owners.  Each result on
a block must equal the per-state result it replaces, term for term and
bit for bit, down to the sign of zero: `run_schedule` for evolution and
the per-state `_region_marginals`, the dict-loop partial trace
(`test_analysis_properties.loop_rdm`) and the branch dict loop
(`test_analysis_properties.loop_decompose`) for analysis.  A one-state
table keeps its zero-stride owner through every gate, and the block of
one state holds that state's own table.
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
from branchsim.lattice import StateBlock, TermTable, first_appearance, row_keys
from branchsim.schedule import GateApplication, Schedule, run_schedule
from test_analysis_properties import loop_decompose, loop_rdm

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


@settings(max_examples=60, deadline=None)
@given(n_sites=st.integers(2, 6), n_steps=st.integers(1, 4), n_states=st.integers(1, 6),
       haar=st.lists(st.integers(0, 2 ** 32 - 1), max_size=2), seed=st.integers(0, 2 ** 32 - 1))
def test_a_shared_gate_plays_every_owner_as_alone(n_sites, n_steps, n_states, haar, seed):
    # k positions play one gate on every owner, as runs and record scans do;
    # the library mixes permutation gates with Haar, dust and one-site gates
    rng = np.random.default_rng(seed)
    lattice = bs.chain_lattice([0], range(1, n_sites))
    gate_list = library(haar) + [bs.hadamard_gate(), bs.rotation_gate(0.3)]
    states = seeded_states(rng, lattice, n_states)
    table = StateBlock.of(states).table
    alone = [state.table for state in states]
    for _ in range(n_steps):
        gate = gate_list[rng.integers(len(gate_list))]
        positions = tuple(rng.permutation(n_sites)[:gate.n_sites].tolist())
        table = gates.apply_columns(table, positions, gate.action)
        alone = [gates.apply_columns(t, positions, gate.action) for t in alone]
        assert np.array_equal(table.owner, np.arange(n_states).repeat(list(map(len, alone))))
        played = StateBlock(lattice, table, n_states).states()
        assert all(same_table(p.table, t) for p, t in zip(played, alone))


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
        assert rho.tobytes() == analysis._region_marginals(state, regions)[0].tobytes()

    analysed = analysis.BlockAnalysis(block, analysis.BRANCH_TOL)
    marginals = analysed.marginals
    assert marginals.sites == lattice.indices * len(states)
    owner, bits, weights, branched = analysed.branch_table
    for b, state in enumerate(states):
        alone = analysis.site_marginals(state)
        for field in ("matrices", "coherence", "purity", "entropy"):
            ours = getattr(marginals, field)[b * n_sites:(b + 1) * n_sites]
            assert ours.tobytes() == getattr(alone, field).tobytes()
        decomp = loop_decompose(state, analysis.BRANCH_TOL)
        mine = owner == b
        assert np.float64(decomp.weights).tobytes() == weights[mine].tobytes()
        assert [list(br.assignment.values()) for br in decomp.branches] == \
            bits[mine][:, branched[b]].tolist()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_kernel_equals_the_loop_on_shuffled_pairs(data):
    # (owner, region) pairs in any order, repeats included; site ids are
    # lattice positions here, so a region is both
    n_sites = data.draw(st.integers(1, 8))
    lattice = bs.chain_lattice([0], range(1, n_sites))
    states = data.draw(st.lists(states_on(lattice), min_size=1, max_size=5))
    k = data.draw(st.integers(1, min(3, n_sites)))
    pairs = data.draw(st.lists(st.tuples(
        st.integers(0, len(states) - 1),
        st.permutations(range(n_sites)).map(lambda p: tuple(p[:k]))), min_size=1, max_size=12))
    table = StateBlock.of(states).table
    owners = np.array([owner for owner, _ in pairs], dtype=np.intp)
    regions = np.array([region for _, region in pairs], dtype=np.intp)
    rho = analysis._pair_marginals(table, owners, regions)
    assert rho.shape == (len(pairs), 2 ** k, 2 ** k)
    for (owner, region), m in zip(pairs, rho):
        assert m.tobytes() == loop_rdm(states[owner], region).tobytes()
    # every owner but the last left without a pair
    last = analysis._pair_marginals(table, np.full(len(pairs), len(states) - 1), regions)
    for region, m in zip(regions.tolist(), last):
        assert m.tobytes() == loop_rdm(states[-1], region).tobytes()


def owned(table):
    """The table with its owner 0 held as a real array, one word per row."""
    return TermTable(table.bits, table.amps, np.zeros(len(table), dtype=np.intp))


@pytest.mark.parametrize("gate", [
    bs.hadamard_gate(), bs.rotation_gate(0.3), oracle.random_gate2(np.random.default_rng(5)),
    gates.Gate2("dust", np.kron(bs.rotation_gate(1e-15).matrix, np.eye(2)))],
    ids=["H", "rotation", "Haar", "dust"])
def test_a_one_state_table_keeps_its_zero_stride_owner(gate):
    # merging, pruning and Haar gates gather rows; a one-state owner stays
    # a view of no memory and the terms are those of a real owner array
    table = bs.scenario_single(0.6, 0.8, 4).initial.table
    positions = tuple(range(gate.n_sites))
    for _ in range(3):
        ours = gates.apply_columns(table, positions, gate.action)
        theirs = gates.apply_columns(owned(table), positions, gate.action)
        assert ours.owner.strides == (0,) and theirs.owner.strides == (8,)
        assert same_table(ours, theirs) and not theirs.owner.any()
        assert len(ours.owner) == len(ours)
        table = ours
    re = np.array([0.6, 1e-15, -0.0, 0.8])
    pruned = TermTable.pruned(np.eye(4, dtype=np.uint8), re, np.zeros(4))
    assert pruned.owner.strides == (0,) and len(pruned.owner) == 2
    assert pruned.bits.tolist() == [[1, 0, 0, 0], [0, 0, 0, 1]]
    assert pruned.amps.tobytes() == np.array([0.6, 0.8], dtype=complex).tobytes()


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


def test_block_of_one_state_holds_its_arrays():
    # a chunk of one state is analysed without a copy of its terms
    state = bs.scenario_epr().run()[-1]
    block = StateBlock.of([state])
    assert (block.lattice, block.size) == (state.lattice, 1)
    assert block.table is state.table
    assert block.table.owner.strides == (0,)
