"""The batched random differential suite against the sequential trial loop.

`verify.random_trial_block` draws a block of trials first, plays the
dense oracle on one stack and analyses the final dense states together.
`reference_trial` below is the one-trial-at-a-time loop it replaced,
kept as the reference: every per-trial deviation must match it bit for
bit, and a fault must stop the check at the same trial with the same
detail.
"""

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


def reference_trial(rng, n_sites=8, n_gates=5):
    """One random gate sequence through both engines, as the suite played
    it before blocks: a sparse run, a dense run, a compare per step."""
    lattice = bs.chain_lattice([0], range(1, n_sites))
    amps = np.zeros((n_sites, 2))
    amps[range(n_sites), rng.integers(0, 2, n_sites)] = 1.0
    state = bs.product_state(lattice, dict(enumerate(amps)))

    named = [gate_by_name(name) for name in ("U_si", "U_copy", "U_swap")]
    apps = []
    for t in range(n_gates):
        left = int(rng.integers(0, n_sites - 1))
        pair = (left, left + 1) if rng.random() < 0.5 else (left + 1, left)
        gate = named[rng.integers(len(named))] if rng.random() < 0.4 \
            else oracle.random_gate2(rng)
        apps.append(GateApplication(t, pair, gate))
    schedule = Schedule(tuple(apps))
    states = run_schedule(state, schedule)
    dense_states = oracle.dense_run(oracle.densify(state), schedule)
    worst = max((abs(oracle.dense_overlap(oracle.densify(s), d) - 1.0)
                 for s, d in zip(states[1:], dense_states[1:])), default=0.0)
    return max(worst, verify.compare_states(states[-1], dense_states[-1]))


def reference_deviations(n_trials, seed):
    rng = np.random.default_rng(seed)
    return [reference_trial(rng) for _ in range(n_trials)]


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


@pytest.fixture(scope="module")
def references():
    return {seed: reference_deviations(MANY, seed) for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_trials", [0, 1, verify.TRIAL_BLOCK, verify.TRIAL_BLOCK + 1, MANY])
def test_deviations_match_the_sequential_loop(monkeypatch, references, seed, n_trials):
    batched, original = [], verify.random_trial_block

    def recorded(*args):
        block = original(*args)
        batched.extend(block)
        return block

    monkeypatch.setattr(verify, "random_trial_block", recorded)
    check = verify.check_random_differential(n_trials, 1e-10, seed)
    assert bits(batched) == bits(references[seed][:n_trials])
    assert check.passed
    assert check.detail == reference_detail(references[seed][:n_trials])


def test_one_trial_calls_match_a_block():
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    one_by_one = [verify.random_differential_trial(rng_a) for _ in range(5)]
    assert bits(one_by_one) == bits(verify.random_trial_block(rng_b, 5))
    # both rngs have read the same draws
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("n_sites, n_gates", [(2, 0), (3, 1), (5, 7)])
def test_other_shapes_match_the_sequential_loop(n_sites, n_gates):
    rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
    reference = [reference_trial(rng_a, n_sites, n_gates) for _ in range(20)]
    assert bits(verify.random_trial_block(rng_b, 20, n_sites, n_gates)) == bits(reference)


def phased_swap():
    """A U_swap whose dense matrix carries a small phase on one entry,
    while the sparse engine plays the plain swap: the engines disagree
    wherever the swap moves part of a superposition."""
    matrix = gates.field_swap_gate().matrix.copy()
    matrix[1, 2] = np.exp(1e-3j)
    gate = gates.Gate2("U_swap", matrix)
    object.__setattr__(gate, "action", gates.field_swap_gate().action)
    return gate


@pytest.mark.parametrize("n_trials", [1, 7, 64])
def test_a_block_draw_is_its_one_trial_draws_concatenated(n_trials):
    # the block keeps each random gate's raw (2, 4, 4) draw and makes the
    # block's draws complex and unitary at once; each trial must get the
    # bits, pairs and gate matrices of a one-trial draw, and the rng must
    # end where the one-trial draws leave it
    block_rng, trial_rng = np.random.default_rng(5), np.random.default_rng(5)
    bits, pairs, numbers, matrices, _ = verify._draw_trials(block_rng, n_trials, 8, 5)
    trials = [verify._draw_trials(trial_rng, 1, 8, 5) for _ in range(n_trials)]
    assert bits.tobytes() == np.concatenate([t[0] for t in trials]).tobytes()
    assert pairs.tobytes() == np.concatenate([t[1] for t in trials]).tobytes()
    want = np.concatenate([t[3][t[2]] for t in trials])
    assert matrices[numbers].tobytes() == want.tobytes()
    assert len(matrices) == 3 + sum(len(t[3]) - 3 for t in trials)
    assert block_rng.random() == trial_rng.random()


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
