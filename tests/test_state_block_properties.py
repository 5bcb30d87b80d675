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
The partner index must give the kernel's one-site and two-site matrices
byte for byte, on blocks whose owners share rows, with one-flip and
two-flip partners on some sites only, past 64 sites and on a table of
32,768 rows, and a block's analyses must not depend on which of the two
traced it; the kernel must give the same matrices however few rows it
gathers at once.
A golden digest pins the first 2,048 per-trial deviations of the random
suite, and another those of the scalar drawer it replaced, played by
the same player.
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
from test_random_differential import reference_draw

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


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 12))
def test_a_bounded_gather_changes_no_matrix(data, limit):
    # with at most `limit` rows per gather, the kernel splits its pairs
    # over several calls, each within the limit or of one pair, and the
    # partner index reads its sites and pairs in as many passes; every
    # matrix keeps its bytes
    n_sites = data.draw(st.integers(2, 6))
    lattice = bs.chain_lattice([0], range(1, n_sites))
    block = StateBlock.of(data.draw(st.lists(states_on(lattice), min_size=1, max_size=4)))
    pairs = data.draw(st.lists(st.tuples(
        st.integers(0, block.size - 1),
        st.permutations(range(n_sites)).map(lambda p: tuple(p[:2]))), min_size=1, max_size=10))
    owners = np.array([owner for owner, _ in pairs])
    regions = np.array([region for _, region in pairs])
    whole = analysis._pair_marginals(block.table, owners, regions)
    sites = analysis.PartnerIndex(block).site_matrices(np.arange(n_sites))
    gathered, original = [], analysis._gathered_marginals
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_GATHER_ROWS", limit)
        patch.setattr(analysis, "_gathered_marginals", lambda table, sizes, owners, regions: (
            gathered.append(sizes[owners].tolist()) or original(table, sizes, owners, regions)))
        assert analysis._pair_marginals(block.table, owners, regions).tobytes() == whole.tobytes()
        assert all(sum(rows) <= limit or len(rows) == 1 for rows in gathered)
        assert sum(map(len, gathered)) == len(pairs)
        assert analysis.PartnerIndex(block).site_matrices(np.arange(n_sites)).tobytes() == \
            sites.tobytes()
        assert_index_equals_kernel(block, [(o, a, b) for o, (a, b) in pairs])


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
# the partner index against the kernel
# ---------------------------------------------------------------------------

def assert_index_equals_kernel(block, pairs=None):
    """Every one-site matrix of every state of `block`, and the two-site
    matrix of each (owner, position, position) triple of `pairs` (every
    ordered pair of distinct sites of every state if None), read off the
    block's `PartnerIndex` equal `_pair_marginals`'s byte for byte."""
    n = block.lattice.n_sites
    index = analysis.PartnerIndex(block)
    kernel = analysis._region_marginals(block, [(p,) for p in range(n)])
    assert index.site_matrices(np.arange(n)).tobytes() == kernel.tobytes()
    if pairs is None:
        a, b = np.nonzero(~np.eye(n, dtype=bool))
        pairs = np.stack([np.arange(block.size).repeat(len(a)),
                          np.tile(a, block.size), np.tile(b, block.size)], axis=1)
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 3)
    ours = index.pair_matrices(pairs[:, 0], pairs[:, 1:])
    assert ours.tobytes() == analysis._pair_marginals(block.table, pairs[:, 0],
                                                      pairs[:, 1:]).tobytes()


@st.composite
def partnered_blocks(draw):
    """(block, flips): states whose rows are a few base rows and those
    rows with one or two sites flipped, so that they have one-flip and
    two-flip partners on some sites only; several states hold the same
    rows in other orders, and amplitude parts include signed zeros.  Up
    to 12 sites, or 60 to 80, where row keys are byte strings."""
    n = draw(st.one_of(st.integers(2, 12), st.integers(60, 80)))
    lattice = bs.chain_lattice([0], range(1, n))
    bases = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple),
                          min_size=1, max_size=4))
    flips = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True),
                          max_size=4))
    pool = list(dict.fromkeys(bases + [tuple(bit ^ (p in flip) for p, bit in enumerate(base))
                                       for base in bases for flip in flips]))
    states = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.permutations(pool))[:draw(st.integers(1, len(pool)))]
        amps = [complex(draw(components), draw(components)) for _ in rows]
        if sum(abs(a) for a in amps) < 1e-3:
            amps[0] = 1.0
        states.append(bs.entangled_state(lattice, list(zip(rows, amps))))
    return StateBlock.of(states), flips


@settings(max_examples=150, deadline=None)
@given(partnered_blocks(), st.data())
def test_the_index_equals_the_kernel_on_partnered_blocks(drawn, data):
    block, flips = drawn
    n, size = block.lattice.n_sites, block.size
    # the flipped sites in both orders, each flipped site against another,
    # and any pairs of sites
    picked = [pair for flip in flips if len(flip) == 2 for pair in (flip, flip[::-1])]
    picked += [(flip[0], (flip[0] + 1) % n) for flip in flips]
    picked += data.draw(st.lists(st.permutations(range(n)).map(lambda p: tuple(p[:2])),
                                 max_size=6))
    pairs = [(owner, a, b) for owner in range(size) for a, b in picked]
    if n <= 12:
        pairs = None   # every pair of sites of every state
    assert_index_equals_kernel(block, pairs)
    for k in range(1, min(3, n) + 1):   # site ids are lattice positions here
        regions = [tuple(range(k)), tuple(range(n - k, n))[::-1]]
        assert analysis.region_matrices(block, regions).tobytes() == \
            analysis._region_marginals(block, regions).tobytes()


def analysed_with(block, index_cells, settings):
    """Every array of a `BlockAnalysis` of `block` and its correlations of
    `settings`, with blocks of fewer than `index_cells` table rows times
    sites traced by the kernel alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_INDEX_CELLS", index_cells)
        analysed = analysis.BlockAnalysis(block, 1e-3)
        m = analysed.marginals
        arrays = [m.matrices, m.coherence, m.purity, m.entropy, *analysed.branch_table,
                  *analysed.cluster_sites, *analysed.cluster_table,
                  analysed.correlations(settings)]
    return [a.tobytes() for a in arrays]


@settings(max_examples=100, deadline=None)
@given(partnered_blocks(), st.lists(st.tuples(st.integers(0, 79), st.integers(0, 79)),
                                    max_size=3), st.floats(-3.0, 3.0))
def test_a_block_analyses_alike_from_the_index_and_the_kernel(drawn, picks, theta):
    # correlations on the flipped pairs, in both orders, and on any pairs
    block, flips = drawn
    n = block.lattice.n_sites
    pairs = [pair for flip in flips if len(flip) == 2 for pair in (flip, flip[::-1])]
    pairs += [(a % n, b % n) for a, b in picks if a % n != b % n] or [(0, 1)]
    settings = [(analysis.MeasurementSetting(a, theta), analysis.MeasurementSetting(b, 0.7))
                for a, b in pairs]
    assert analysed_with(block, 0, settings) == analysed_with(block, 2 ** 62, settings)


def test_two_flip_partners_send_their_pair_to_the_kernel(monkeypatch):
    # 0000 and 0110 differ at sites 1 and 2 only: no site has a one-flip
    # partner, and the pair (1, 2) has off-diagonal entries
    lattice = bs.chain_lattice([0], [1, 2, 3])
    state = bs.entangled_state(lattice, [("0000", 0.6), ("0110", 0.8j), ("1011", -0.0 + 0.3j)])
    index = analysis.PartnerIndex(state)
    assert not index.partnered.any()
    calls, original = [], analysis._pair_marginals

    def recorded(table, owners, regions):
        calls.append(regions.tolist())
        return original(table, owners, regions)

    monkeypatch.setattr(analysis, "_pair_marginals", recorded)
    rho = index.pair_matrices([0, 0, 0], [[1, 2], [2, 1], [0, 3]])
    assert calls == [[[1, 2], [2, 1]]]
    assert rho[0, 0, 3] != 0 and rho[1, 0, 3] != 0
    assert not rho[2][~np.eye(4, dtype=bool)].any()
    monkeypatch.undo()
    assert_index_equals_kernel(state)


def test_the_index_equals_the_kernel_on_a_table_of_32768_rows():
    # 15 |+> sites with random phases on 18, and copies onto two of the
    # up sites: one-flip partners at 13 sites, two-flip partners at the
    # copied pairs.  Past some 2 * 10^4 elements a 1-D ``amps * amps.conj()``
    # can leave another imaginary residue than the kernel's product.
    rng = np.random.default_rng(3)
    lattice = bs.chain_lattice([0], range(1, 18))
    r = 0.7071067811865475
    state = bs.product_state(lattice, {
        s: ([r, r * complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))] if s < 15 else [1.0, 0.0])
        for s in range(18)})
    state = bs.apply_gate2(state, bs.field_copy_gate(), (3, 15))
    state = bs.apply_gate2(state, bs.field_copy_gate(), (8, 16))
    assert state.n_terms == 2 ** 15
    index = analysis.PartnerIndex(state)
    assert 0 < index.partnered.sum() < 18
    pairs = [(0, a, b) for a, b in [(3, 15), (15, 3), (8, 16), (16, 8), (3, 8), (15, 16),
                                    (0, 17), (17, 1), (2, 3)]]
    assert_index_equals_kernel(state, pairs)
    kernel = analysis._region_marginals(state, [(p,) for p in range(18)])
    assert kernel[..., [0, 1], [0, 1]].imag.any()   # the rounding residue is there


# ---------------------------------------------------------------------------
# golden pin of the random suite
# ---------------------------------------------------------------------------

#: sha256 of the float64 bytes of the first 2,048 per-trial deviations at
#: the suite's default seed, recorded when the suite began to draw its
#: trials a chunk at a time.
GOLDEN_DEVIATIONS = "831f79c427256288881cdfa94a94d7c84c42b071553530dbada442369a583859"

#: The same digest of the trials of the scalar drawer, which read the rng
#: one trial at a time, recorded before the suite played blocks as one
#: tagged table.
SCALAR_DRAW_DEVIATIONS = "f7118b8bb5d32f3437e2896c3efe811f8b79cf1ec5a6cac29cae1b61cfeb9230"


def pinned_digest(draw):
    """sha256 of the deviations of 2,048 trials at the default seed, drawn
    a block at a time by ``draw(rng, TRIAL_BLOCK)``."""
    rng = np.random.default_rng(verify.DEFAULT_SEED)
    deviations = np.concatenate([verify.play_trials(*draw(rng, verify.TRIAL_BLOCK))
                                 for _ in range(2048 // verify.TRIAL_BLOCK)])
    assert len(deviations) == 2048 and deviations.max() <= verify.DEFAULT_TOL
    return hashlib.sha256(deviations.astype(np.float64).tobytes()).hexdigest()


def test_random_suite_deviations_are_pinned():
    rng = np.random.default_rng(verify.DEFAULT_SEED)
    deviations = np.concatenate([verify.random_trial_block(rng, verify.TRIAL_BLOCK)
                                 for _ in range(2048 // verify.TRIAL_BLOCK)])
    assert len(deviations) == 2048 and deviations.max() <= verify.DEFAULT_TOL
    assert hashlib.sha256(deviations.astype(np.float64).tobytes()).hexdigest() \
        == GOLDEN_DEVIATIONS
    assert pinned_digest(lambda rng, n: verify._draw_trials(rng, n, 8, 5)) == GOLDEN_DEVIATIONS


def test_the_scalar_draws_keep_their_pinned_deviations():
    # the player plays and compares the scalar drawer's trials bit for bit
    # as the suite did before it drew chunks
    assert pinned_digest(reference_draw) == SCALAR_DRAW_DEVIATIONS


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
