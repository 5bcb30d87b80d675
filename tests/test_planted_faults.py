"""Every verification check can fail.

`FAULTS` plants one fault for each of the checks `run_verification`
reports, by monkeypatching, and the named check must fail under it.
The clean suite passes all of them.  Two faults planted in the partner
index must fail its byte-for-byte comparison with the partial-trace
kernel.  The NaN cases below show that a
NaN fails each place that folds or tests a deviation: a Python
``min``/``max`` over floats drops a NaN, and ``worst > tol`` is false
for one, so each of these used to pass.
"""

import dataclasses
import math

import numpy as np
import pytest

import branchsim as bs
from branchsim import analysis, cli, gates, oracle, verify
from branchsim.lattice import TermTable
from test_state_block_properties import assert_index_equals_kernel

#: Random trials the suite runs here: one block, in which the phased
#: swap below shows.
TRIALS = verify.TRIAL_BLOCK


def non_unitary(name):
    """Replace a library gate's matrix by a non-unitary one of its size."""
    def plant(monkeypatch):
        size = 2 if name.startswith("rot") else 4
        bad = np.eye(size, dtype=complex)
        bad[0, 1] = 0.5
        return {"gate_overrides": {name: bad}}
    return plant


def perturbed_reference(name):
    """Rotate the qubit of the closed-form state at t = 1 by 1e-3 rad."""
    def plant(monkeypatch):
        original = verify.REFERENCE_SEQUENCES[name]

        def reference():
            states = original()
            qubit = states[1].lattice.system_sites[0]
            states[1] = bs.apply_gate1(states[1], bs.rotation_gate(1e-3), qubit)
            return states

        monkeypatch.setitem(verify.REFERENCE_SEQUENCES, name, reference)
    return plant


def single_qubit(swap):
    """`scenario_single` prepares an even superposition slightly biased
    (swap=False), or a biased qubit with its two weights swapped."""
    def plant(monkeypatch):
        original = verify.scenario_single

        def scenario(alpha, beta, n_sites):
            if swap and alpha != beta:
                return original(beta, alpha, n_sites)
            if not swap and alpha == beta:
                return original(0.8, 0.6, n_sites)
            return original(alpha, beta, n_sites)

        monkeypatch.setattr(verify, "scenario_single", scenario)
    return plant


def biased_sparse_branch_weight(monkeypatch):
    """The first branch of every sparse decomposition weighs 1e-9 more."""
    original = analysis.branch_decompose

    def decompose(state, tol=analysis.BRANCH_TOL):
        decomp = original(state, tol)
        first, *rest = decomp.branches
        return dataclasses.replace(
            decomp, branches=(dataclasses.replace(first, weight=first.weight + 1e-9), *rest))

    monkeypatch.setattr(analysis, "branch_decompose", decompose)


def flipped_correlator_sign(monkeypatch):
    original = analysis.correlation
    monkeypatch.setattr(analysis, "correlation", lambda *args: -original(*args))


def inflated_plane_max(monkeypatch):
    original = verify.chsh_grid_max
    monkeypatch.setattr(verify, "chsh_grid_max",
                        lambda *args, **kwargs: dataclasses.replace(original(*args, **kwargs),
                                                                    plane_max=3.0))


def dense_initial_phase(name):
    """The dense engine starts scenario `name` with a phase of 1e-3 on its
    first term; the sparse engine and the other scenarios are untouched."""
    def plant(monkeypatch):
        target = bs.state_to_document(bs.SCENARIOS[name]().initial)
        original = oracle.densify

        def densify(state):
            dense = original(state)
            if bs.state_to_document(state) != target:
                return dense
            vector = dense.vector.copy()
            vector[np.flatnonzero(vector)[0]] *= np.exp(1e-3j)
            return oracle.DenseState(dense.lattice, vector)

        monkeypatch.setattr(oracle, "densify", densify)
    return plant


def biased_dense_branch_weight(name, bias=1e-9):
    """Every dense branch weight of states on scenario `name`'s lattice is
    off by `bias`."""
    def plant(monkeypatch):
        lattice = bs.SCENARIOS[name]().lattice
        original = oracle.analyse_stack

        def analyse_stack(at, vectors, regions, tol):
            dense = original(at, vectors, regions, tol)
            if at != lattice:
                return dense
            owner, bits, weights, branched = dense.branches
            return dense._replace(branches=(owner, bits, weights + bias, branched))

        monkeypatch.setattr(oracle, "analyse_stack", analyse_stack)
    return plant


def phased_swap(monkeypatch):
    """The random trials' U_swap carries a phase of 1e-3 on one entry of
    its dense matrix, while the sparse engine plays the plain swap."""
    matrix = gates.field_swap_gate().matrix.copy()
    matrix[1, 2] = np.exp(1e-3j)
    faulty = gates.Gate2("U_swap", matrix)
    object.__setattr__(faulty, "action", gates.field_swap_gate().action)
    monkeypatch.setattr(verify, "gate_by_name",
                        lambda name: faulty if name == "U_swap" else gates.gate_by_name(name))


#: Check name -> the fault planted for it.  A planting function may
#: return keyword arguments for `run_verification`.
FAULTS = {
    "gate unitarity: U_si": non_unitary("U_si"),
    "gate unitarity: U_copy": non_unitary("U_copy"),
    "gate unitarity: U_swap": non_unitary("U_swap"),
    "gate unitarity: rot(0.7)": non_unitary("rot(0.7)"),
    "scenario states: single": perturbed_reference("single"),
    "scenario states: bidirectional": perturbed_reference("bidirectional"),
    "scenario states: collision": perturbed_reference("collision"),
    "scenario states: epr": perturbed_reference("epr"),
    "qubit fully mixed after one coupling": single_qubit(swap=False),
    "biased qubit density matrix and rotated basis": single_qubit(swap=True),
    "collision: four equal branches": biased_sparse_branch_weight,
    "epr: two branches, anticorrelated records": flipped_correlator_sign,
    "CHSH within Tsirelson bound": inflated_plane_max,
    "engines agree: scenario single": dense_initial_phase("single"),
    "engines agree: scenario bidirectional": biased_dense_branch_weight("bidirectional"),
    "engines agree: scenario collision": dense_initial_phase("collision"),
    "engines agree: scenario epr": dense_initial_phase("epr"),
    f"engines agree: {TRIALS} random sequences": phased_swap,
}


def checks(**kwargs) -> dict:
    return {r.name: r for r in verify.run_verification(n_trials=TRIALS, **kwargs)}


def test_the_clean_suite_passes_every_check_in_the_table():
    results = checks()
    assert list(results) == list(FAULTS)
    assert len(results) == 18
    assert all(r.passed for r in results.values()), \
        [r.name for r in results.values() if not r.passed]


@pytest.mark.parametrize("name", list(FAULTS))
def test_a_planted_fault_fails_its_check(monkeypatch, name):
    kwargs = FAULTS[name](monkeypatch) or {}
    result = checks(**kwargs)[name]
    assert not result.passed, result.detail


# ---------------------------------------------------------------------------
# a NaN fails every check it reaches
# ---------------------------------------------------------------------------

def test_a_nan_overlap_fails_the_reference_check(monkeypatch):
    # a NaN overlap at step 2 of each scenario; Python's `min` kept the
    # step-0 overlap instead
    marked = set()
    original = dict(verify.REFERENCE_SEQUENCES)

    def marking(reference):
        def wrapped():
            states = reference()
            marked.add(id(states[2]))
            return states
        return wrapped

    for name, reference in original.items():
        monkeypatch.setitem(verify.REFERENCE_SEQUENCES, name, marking(reference))
    overlap = verify.overlap
    monkeypatch.setattr(verify, "overlap",
                        lambda a, b: math.nan if id(b) in marked else overlap(a, b))
    results = verify.check_reference_sequences()
    assert len(results) == len(original)
    for result in results:
        assert not result.passed
        assert result.detail.startswith("min overlap nan")


def test_a_nan_dense_branch_weight_fails_the_comparison(monkeypatch):
    # the branch check's Python `max` dropped a NaN weight deviation
    state = bs.scenario_epr().run()[-1]
    dense = oracle.densify(state)
    assert verify.compare_states(state, dense) <= verify.DEFAULT_TOL
    biased_dense_branch_weight("epr", bias=math.nan)(monkeypatch)
    assert math.isnan(verify.compare_states(state, dense))
    check = {r.name: r for r in verify.check_scenario_differential()}["engines agree: scenario epr"]
    assert not check.passed
    assert check.detail == "worst deviation nan"


def nan_at_step(monkeypatch, step):
    """Make `compare_stack` report NaN for step `step` of the run it is
    called on, counting rows across calls (a step past the run plants
    nothing); returns the list of each call's row count."""
    sizes = []
    original = verify.compare_stack

    def compare(block, vectors):
        worst = original(block, vectors)
        first = sum(sizes)
        sizes.append(len(worst))
        if first <= step < first + len(worst):
            worst[step - first] = math.nan
        return worst

    monkeypatch.setattr(verify, "compare_stack", compare)
    return sizes


def test_a_nan_after_the_first_step_fails_the_dense_deviation(monkeypatch):
    # Python's `max` over the steps dropped a NaN after step 0
    sizes = nan_at_step(monkeypatch, 1)
    config = bs.scenario_single()
    assert math.isnan(verify.dense_deviation(config, config.run()))
    assert sizes == [config.horizon + 1]       # the whole run is one stack


def test_a_run_split_over_several_stacks_deviates_as_one_stack(monkeypatch):
    config = bs.scenario_single()
    states = config.run()
    whole = verify.dense_deviation(config, states)
    # 2^6 >> 5 sites: two steps per stack, so the run's 5 states take 3
    monkeypatch.setattr(verify, "STACK_AMPLITUDES", 2 ** 6)
    sizes = nan_at_step(monkeypatch, math.inf)
    split = verify.dense_deviation(config, states)
    assert sizes == [2, 2, 1]
    assert np.float64(split).tobytes() == np.float64(whole).tobytes()


def test_a_lattice_past_fourteen_sites_compares_one_state_per_stack(monkeypatch):
    config = bs.scenario_single(n_sites=14)           # 15 sites
    sizes = nan_at_step(monkeypatch, math.inf)
    assert verify.dense_deviation(config, config.run()) <= verify.DEFAULT_TOL
    assert sizes == [1] * (config.horizon + 1)


def test_a_nan_in_the_last_stack_fails_the_dense_deviation(monkeypatch):
    config = bs.scenario_single()
    monkeypatch.setattr(verify, "STACK_AMPLITUDES", 2 ** 6)
    sizes = nan_at_step(monkeypatch, config.horizon)
    assert math.isnan(verify.dense_deviation(config, config.run()))
    assert sizes == [2, 2, 1]


def test_the_scenario_checks_compare_one_stack_per_scenario(monkeypatch):
    sizes = nan_at_step(monkeypatch, math.inf)
    assert all(result.passed for result in verify.check_scenario_differential())
    assert sizes == [config.horizon + 1 for config in
                     (factory() for factory in bs.SCENARIOS.values())]


def test_nan_trials_fail_the_random_check(monkeypatch):
    # `max(worst, nan)` kept `worst`, so the check passed with "worst deviation 0"
    drawn = []

    def nan_block(rng, n_trials, *args):
        drawn.append(n_trials)
        return np.full(n_trials, math.nan)

    monkeypatch.setattr(verify, "random_trial_block", nan_block)
    check = verify.check_random_differential(3 * verify.TRIAL_BLOCK)
    assert not check.passed
    assert check.detail == "worst deviation nan"
    assert drawn == [verify.TRIAL_BLOCK]      # later blocks are never drawn


def test_a_nan_deviation_fails_run_verify(monkeypatch, tmp_path, capsys):
    # `worst > tol` is false for NaN, so `run --verify` printed "verified"
    monkeypatch.setattr(verify, "dense_deviation", lambda config, states: math.nan)
    config = tmp_path / "config.json"
    config.write_text('{"scenario": "epr"}')
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--verify"])
    assert code == cli.EXIT_VERIFY
    assert "verification FAILED: engines deviate by nan" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# faults of the partner index fail its comparison with the kernel
# ---------------------------------------------------------------------------

def dropped_two_flips(monkeypatch):
    """The index flips only the first of two sites, so it finds no
    two-flip partner and calls every such pair partner-free."""
    original = analysis.flipped_keys
    monkeypatch.setattr(analysis, "flipped_keys",
                        lambda keys, n, *positions: original(keys, n, *positions[:1]))


def later_member_first(monkeypatch):
    """The index orders a one-flip pair's group by its later row."""
    original = analysis._group_rows
    monkeypatch.setattr(analysis, "_group_rows", lambda zero, one: original(zero, one)[::-1])


def two_flip_state():
    """0000 and 0110 differ at sites 1 and 2 alone; no site has a
    one-flip partner."""
    lattice = bs.chain_lattice([0], [1, 2, 3])
    return bs.entangled_state(lattice, [("0000", 0.6), ("0110", 0.8j), ("1011", 0.3)])


def crossed_pair_state():
    """Site 0's one-flip pair (010, 110) has a row between its two rows
    with the later row's bit, and the later row's |amp|^2 joins that
    site's diagonal in a different order if it is placed at itself."""
    lattice = bs.chain_lattice([0], [1, 2])
    bits = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0]], dtype=np.uint8)
    return bs.PureState(lattice, TermTable(bits, np.array([0.1, 0.5, 0.1, 0.3], dtype=complex)))


#: Fault -> (the planting function, the state it must show on).
INDEX_FAULTS = {
    "dropped two-flip partners": (dropped_two_flips, two_flip_state),
    "group at its later member": (later_member_first, crossed_pair_state),
}


@pytest.mark.parametrize("name", list(INDEX_FAULTS))
def test_a_planted_index_fault_fails_the_kernel_comparison(monkeypatch, name):
    plant, state = INDEX_FAULTS[name]
    assert_index_equals_kernel(state())
    plant(monkeypatch)
    with pytest.raises(AssertionError):
        assert_index_equals_kernel(state())
