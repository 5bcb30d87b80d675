"""The batched random differential suite against the sequential trial loop.

`verify._draw_trials` draws random trials a chunk of `TRIAL_BLOCK` at a
time, one rng call per kind, and `verify.play_trials` plays a block of
them on one dense stack and one sparse table and analyses the final
states together.  `reference_trial` below is the one-trial-at-a-time
loop the player replaced, kept as the reference: it plays one drawn
trial, and every per-trial deviation must match it bit for bit.  A
fault must stop the check at the same trial with the same detail.

`reference_draw` is the scalar drawer the suite used before chunks,
which read the rng one trial at a time.  The chunked drawer reads
another stream, so each kind of draw is held to the scalar one's
distribution, and the parent stream's pinned deviations still hold when
its draws go through the player (`test_state_block_properties`).
"""

import math
import sys

import numpy as np
import pytest

import branchsim as bs
from branchsim import gates, oracle, verify
from branchsim.gates import gate_by_name
from branchsim.schedule import GateApplication, Schedule, run_schedule

SEEDS = (20260825, 7)
#: Longest run compared; not a multiple of the block, so its last block is partial.
MANY = 1000
NAMED = ("U_si", "U_copy", "U_swap")


def reference_draw(rng, n_trials, n_sites=8, n_gates=5):
    """`verify._draw_trials` as it was before chunks: the rng read one
    trial at a time, three or four scalar calls per gate, in the layout
    that `verify.play_trials` takes."""
    bits, pairs, numbers, parts = [], [], [], []
    for _ in range(n_trials):
        bits.append(rng.integers(0, 2, n_sites))
        for _ in range(n_gates):
            left = int(rng.integers(0, n_sites - 1))
            pairs.append((left, left + 1) if rng.random() < 0.5 else (left + 1, left))
            if rng.random() < 0.4:
                numbers.append(rng.integers(len(NAMED)))
            else:
                numbers.append(len(NAMED) + len(parts))
                parts.append(rng.normal(size=(2, 4, 4)))
    return (np.array(bits, dtype=np.uint8).reshape(n_trials, n_sites),
            np.array(pairs, dtype=np.intp).reshape(n_trials, n_gates, 2),
            np.array(numbers, dtype=np.intp).reshape(n_trials, n_gates),
            np.array(parts).reshape(-1, 2, 4, 4))


def drawn_trials(draw):
    """Each trial of a draw as (bits, pairs, gates): a gate is its named
    gate's number, or its own raw (2, 4, 4) draw."""
    bits, pairs, numbers, parts = draw
    for b in range(len(bits)):
        yield bits[b], pairs[b], [n if n < len(NAMED) else parts[n - len(NAMED)]
                                  for n in numbers[b].tolist()]


def reference_trial(bits, pairs, draws):
    """One drawn random gate sequence through both engines, as the suite
    played it before blocks: a sparse run, a dense run, a compare per
    step.  A random gate is made unitary from its raw draw by
    `oracle.random_unitary`'s formula."""
    n_sites = len(bits)
    lattice = bs.chain_lattice([0], range(1, n_sites))
    amps = np.zeros((n_sites, 2))
    amps[range(n_sites), bits] = 1.0
    state = bs.product_state(lattice, dict(enumerate(amps)))

    named = [gate_by_name(name) for name in NAMED]
    apps = []
    for t, (pair, draw) in enumerate(zip(pairs.tolist(), draws)):
        gate = named[draw] if np.ndim(draw) == 0 else \
            bs.Gate2("random", oracle.haar_unitaries(oracle.complex_gaussians(draw)))
        apps.append(GateApplication(t, tuple(pair), gate))
    schedule = Schedule(tuple(apps))
    states = run_schedule(state, schedule)
    dense_states = oracle.dense_run(oracle.densify(state), schedule)
    worst = max((abs(oracle.dense_overlap(oracle.densify(s), d) - 1.0)
                 for s, d in zip(states[1:], dense_states[1:])), default=0.0)
    return max(worst, verify.compare_states(states[-1], dense_states[-1]))


def reference_deviations(n_trials, seed, n_sites=8, n_gates=5):
    draw = verify._draw_trials(np.random.default_rng(seed), n_trials, n_sites, n_gates)
    return [reference_trial(*trial) for trial in drawn_trials(draw)]


def reference_detail(deviations, tol=1e-10):
    """The check's detail as the sequential loop computed it."""
    worst = 0.0
    for deviation in deviations:
        worst = max(worst, deviation)
        if worst > tol:
            break
    return f"worst deviation {worst:.3g}"


def bits(values):
    return np.array(values, dtype=np.float64).tobytes()


def recorded_check(monkeypatch, n_trials, seed):
    """The check of `n_trials` at `seed`, and the deviations of its blocks."""
    batched, original = [], verify.random_trial_block

    def recorded(*args):
        block = original(*args)
        batched.extend(block)
        return block

    monkeypatch.setattr(verify, "random_trial_block", recorded)
    check = verify.check_random_differential(n_trials, 1e-10, seed)
    monkeypatch.undo()
    return check, batched


@pytest.fixture(scope="module")
def references():
    return {seed: reference_deviations(MANY, seed) for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_trials", [0, 1, verify.TRIAL_BLOCK, verify.TRIAL_BLOCK + 1, MANY])
def test_deviations_match_the_sequential_loop(monkeypatch, references, seed, n_trials):
    check, batched = recorded_check(monkeypatch, n_trials, seed)
    assert bits(batched) == bits(references[seed][:n_trials])
    assert check.passed
    assert check.detail == reference_detail(references[seed][:n_trials])


@pytest.mark.parametrize("n_sites, n_gates", [(2, 0), (3, 1), (5, 7)])
def test_other_shapes_match_the_sequential_loop(n_sites, n_gates):
    reference = reference_deviations(20, 11, n_sites, n_gates)
    assert bits(verify.random_trial_block(np.random.default_rng(11), 20, n_sites, n_gates)) \
        == bits(reference)


@pytest.fixture(scope="module")
def long_run():
    """The deviations of a 1,000-trial check at the default seed, and
    one 1,000-trial block at that seed."""
    monkeypatch = pytest.MonkeyPatch()
    _, run = recorded_check(monkeypatch, MANY, verify.DEFAULT_SEED)
    block = verify.random_trial_block(np.random.default_rng(verify.DEFAULT_SEED), MANY)
    return run, block


@pytest.mark.parametrize("n_trials", [0, 1, 63, 64, 65, 100])
def test_a_short_run_is_the_head_of_a_long_run(monkeypatch, long_run, n_trials):
    # a call draws whole chunks, so trial i comes from chunk i // 64
    # however the trials are split into blocks
    run, block = long_run
    assert len(run) == len(block) == MANY
    _, short = recorded_check(monkeypatch, n_trials, verify.DEFAULT_SEED)
    assert bits(short) == bits(run[:n_trials]) == bits(block[:n_trials])
    rng = np.random.default_rng(verify.DEFAULT_SEED)
    assert bits([verify.random_differential_trial(rng)]) == bits(run[:1])


def test_a_block_draws_whole_chunks():
    # a tail block of 36 trials reads a whole chunk, so the rng ends where
    # a full block leaves it; a block of none reads nothing
    rngs = [np.random.default_rng(5) for _ in range(3)]
    verify.random_trial_block(rngs[0], 36)
    verify.random_trial_block(rngs[1], verify.TRIAL_BLOCK)
    verify.random_trial_block(rngs[2], 0)
    assert rngs[0].random() == rngs[1].random()
    assert rngs[2].random() == np.random.default_rng(5).random()


def assert_shares_agree(counts_a, counts_b, n_a, n_b, expected):
    """Each category's share in two samples equals the other sample's,
    and its expected share, within 5 binomial sigma."""
    for a, b, p in zip(counts_a, counts_b, expected):
        for count, n in ((a, n_a), (b, n_b)):
            assert abs(count / n - p) <= 5 * math.sqrt(p * (1 - p) / n)
        pooled = (a + b) / (n_a + n_b)
        assert abs(a / n_a - b / n_b) <= 5 * math.sqrt(pooled * (1 - pooled) * (1 / n_a + 1 / n_b))


def test_the_chunked_draws_have_the_scalar_draws_distribution():
    n_trials, n_sites, n_gates = 10_000, 8, 5
    old = reference_draw(np.random.default_rng(1), n_trials, n_sites, n_gates)
    new = verify._draw_trials(np.random.default_rng(1), n_trials, n_sites, n_gates)
    samples = []
    for start_bits, pairs, numbers, parts in (old, new):
        left = pairs.min(-1)
        named = numbers < len(NAMED)
        assert (np.abs(pairs[..., 1] - pairs[..., 0]) == 1).all()
        assert parts.shape == (int((~named).sum()), 2, 4, 4)
        # random gates are numbered in draw order, trial by trial
        assert (numbers[~named] == np.arange(len(parts)) + len(NAMED)).all()
        samples.append({
            "bits": ([start_bits.sum()], start_bits.size, [0.5]),
            "left": (np.bincount(left.ravel(), minlength=n_sites - 1), left.size,
                     [1 / (n_sites - 1)] * (n_sites - 1)),
            "in order": ([(pairs[..., 0] < pairs[..., 1]).sum()], pairs[..., 0].size, [0.5]),
            "named": ([named.sum()], named.size, [0.4]),
            "which": (np.bincount(numbers[named], minlength=3), named.sum(), [1 / 3] * 3)})
        # |U_ij|^2 of a Haar unitary of dimension 4 is Beta(1, 3): mean 1/4,
        # variance 3/80
        squares = np.abs(oracle.haar_unitaries(oracle.complex_gaussians(parts))) ** 2
        sigma = math.sqrt(3 / 80 / len(parts))
        assert (np.abs(squares.mean(0) - 0.25) <= 5 * sigma).all()
    for kind in samples[0]:
        (counts_a, n_a, expected), (counts_b, n_b, _) = samples[0][kind], samples[1][kind]
        assert_shares_agree(counts_a, counts_b, n_a, n_b, expected)


def phased_swap():
    """A U_swap whose dense matrix carries a small phase on one entry,
    while the sparse engine plays the plain swap: the engines disagree
    wherever the swap moves part of a superposition."""
    matrix = gates.field_swap_gate().matrix.copy()
    matrix[1, 2] = np.exp(1e-3j)
    gate = gates.Gate2("U_swap", matrix)
    object.__setattr__(gate, "action", gates.field_swap_gate().action)
    return gate


def test_a_fault_stops_the_check_at_the_same_trial(monkeypatch):
    faulty = phased_swap()

    def lookup(name):
        return faulty if name == "U_swap" else gates.gate_by_name(name)

    monkeypatch.setattr(verify, "gate_by_name", lookup)
    monkeypatch.setattr(sys.modules[__name__], "gate_by_name", lookup)
    seed, n_trials = SEEDS[0], 3 * verify.TRIAL_BLOCK
    reference = reference_deviations(verify.TRIAL_BLOCK, seed)
    stop = int(np.argmax(np.maximum.accumulate(reference) > 1e-10))
    # the fault first shows at trial `stop` of the first block, and a later
    # trial of that block deviates more, so stopping anywhere else would
    # print another detail
    assert 0 < stop and max(reference[stop + 1:]) > max(reference[:stop + 1]) > 1e-10

    blocks = []
    original = verify.random_trial_block
    monkeypatch.setattr(verify, "random_trial_block",
                        lambda *args: blocks.append(args[1]) or original(*args))
    check = verify.check_random_differential(n_trials, 1e-10, seed)
    assert not check.passed
    assert check.detail == reference_detail(reference) == \
        f"worst deviation {max(reference[:stop + 1]):.3g}"
    assert blocks == [verify.TRIAL_BLOCK]     # later blocks are never drawn
    monkeypatch.setattr(verify, "random_trial_block", original)
    assert bits(verify.random_trial_block(np.random.default_rng(seed), verify.TRIAL_BLOCK)) \
        == bits(reference)
