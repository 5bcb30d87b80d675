"""`verify.compare_stack` and `compare_states` on the shared analysis path.

The cross-check analyses a whole `StateBlock` of compared states at
once; `compare_states` compares the block of one state.  These tests pin
it bit for bit to the per-region loop it replaced (kept here as the
reference), show that a row of a stacked comparison depends on its own
state only, and that a fault in the shared marginals, the ones reports
print, makes it fail.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings

import branchsim as bs
from branchsim import analysis, oracle, verify
from branchsim.lattice import StateBlock
from test_analysis_properties import (eigenvalue_entropy, loop_decompose, loop_rdm,
                                      sparse_states)


def loop_compare_states(state, dense):
    """Reference: one partial trace and one entropy per region, then a
    separate branch decomposition."""
    worst = abs(oracle.dense_overlap(oracle.densify(state), dense) - 1.0)
    sites = state.lattice.indices
    for region in [(s,) for s in sites] + [tuple(sites[:2]), tuple(sites[-2:])]:
        rho = loop_rdm(state, region)
        worst = max(worst, float(np.abs(rho - oracle.dense_rdm(dense, region)).max()))
        worst = max(worst, abs(eigenvalue_entropy(rho) - oracle.dense_entropy(dense, region)))
    decomp = loop_decompose(state, 1e-6)
    sparse_weights = {b.key(): b.weight for b in decomp.branches}
    dense_weights = oracle.dense_branch_weights(dense, tol=1e-6)
    if set(sparse_weights) != set(dense_weights):
        return math.inf
    return max([worst] + [abs(sparse_weights[k] - dense_weights[k]) for k in sparse_weights])


def assert_same_bits(state, dense):
    assert (np.float64(verify.compare_states(state, dense)).tobytes()
            == np.float64(loop_compare_states(state, dense)).tobytes())


def bits(values):
    return np.array(values, dtype=np.float64).tobytes()


def compared_block(monkeypatch, n_trials, seed=5):
    """The final states, dense stack and rows of the one `compare_stack`
    that a random block of `n_trials` makes."""
    calls, original = [], verify.compare_stack

    def recorded(block, vectors):
        rows = original(block, vectors)
        calls.append((block.states(), vectors, rows))
        return rows

    monkeypatch.setattr(verify, "compare_stack", recorded)
    verify.random_trial_block(np.random.default_rng(seed), n_trials)
    monkeypatch.undo()
    assert len(calls) == 1
    return calls[0]


def test_random_trial_states_match_the_region_loop(monkeypatch):
    states, vectors, rows = compared_block(monkeypatch, 150)
    assert len(rows) == 150
    lattice = states[0].lattice
    assert bits(rows) == bits([loop_compare_states(state, oracle.DenseState(lattice, vector))
                               for state, vector in zip(states, vectors)])


def test_a_row_does_not_depend_on_the_rest_of_its_stack(monkeypatch):
    states, vectors, rows = compared_block(monkeypatch, 40)
    lattice = states[0].lattice
    alone = [verify.compare_states(state, oracle.DenseState(lattice, vector))
             for state, vector in zip(states, vectors)]
    assert bits(rows) == bits(alone)
    assert bits(verify.compare_stack(StateBlock.of(states[::-1]), vectors[::-1])) \
        == bits(alone[::-1])
    # a row that disagrees, first in the stack, changes no other row
    mixed = verify.compare_stack(StateBlock.of([states[0]] + states),
                                 np.concatenate([vectors[1:2], vectors]))
    assert mixed[0] > 1e-3
    assert bits(mixed[1:]) == bits(alone)


@pytest.mark.parametrize("name", sorted(bs.SCENARIOS))
def test_scenario_states_match_the_region_loop(name):
    config = bs.SCENARIOS[name]()
    dense_states = oracle.dense_run(oracle.densify(config.initial), config.schedule,
                                    config.horizon)
    for state, dense in zip(config.run(), dense_states):
        assert_same_bits(state, dense)


@settings(max_examples=150, deadline=None)
@given(sparse_states())
def test_random_sparse_states_match_the_region_loop(state):
    dense = oracle.densify(state)
    assert_same_bits(state, dense)
    assert_same_bits(state, oracle.densify(bs.apply_gate1(state, bs.rotation_gate(0.3),
                                                          state.lattice.indices[0])))


@pytest.mark.parametrize("field", ["matrices", "entropy"])
@pytest.mark.parametrize("index", range(6))
def test_a_perturbed_shared_marginal_fails_the_check(monkeypatch, field, index):
    # every one-site off-diagonal of the final epr state is exactly 0 in
    # both engines, so the perturbation is the whole deviation
    state = bs.scenario_epr().run()[-1]
    dense = oracle.densify(state)
    assert verify.compare_states(state, dense) <= 1e-15
    original = analysis.site_marginals

    def perturbed(s):
        m = original(s)
        values = getattr(m, field).copy()
        if field == "matrices":
            values[index, 0, 1] += 1e-6
        else:
            values[index] += 1e-6
        return dataclasses.replace(m, **{field: values})

    monkeypatch.setattr(analysis, "site_marginals", perturbed)
    worst = verify.compare_states(state, dense)
    if field == "matrices":
        assert worst >= 1e-6
    else:
        assert worst == pytest.approx(1e-6, rel=1e-9)


def plant_dense_branches(monkeypatch, change):
    """`oracle.analyse_stack` returns its branch table after `change` has
    edited copies of its four arrays in place."""
    original = oracle.analyse_stack

    def analyse_stack(*args):
        dense = original(*args)
        table = tuple(part.copy() for part in dense.branches)
        change(*table)
        return dense._replace(branches=table)

    monkeypatch.setattr(oracle, "analyse_stack", analyse_stack)


def extra_branched_site(target):
    """The dense side counts one more site of state `target` as branched;
    its rows, zero there, are unchanged."""
    def change(owner, branch_bits, weights, branched):
        branched[target, np.flatnonzero(~branched[target])[0]] = True
    return change


def swapped_rows(target):
    """The dense side lists state `target`'s first two branches, bits and
    weights, the other way round."""
    def change(owner, branch_bits, weights, branched):
        pair = np.flatnonzero(owner == target)[:2]
        branch_bits[pair], weights[pair] = branch_bits[pair[::-1]], weights[pair[::-1]]
    return change


@pytest.mark.parametrize("fault", [extra_branched_site, swapped_rows])
def test_a_planted_branch_table_fault_fails_its_state_only(monkeypatch, fault):
    states, vectors, rows = compared_block(monkeypatch, 40)
    block = StateBlock.of(states)
    owner, _, _, branched = oracle.analyse_stack(
        block.lattice, vectors, [block.lattice.indices[:1]], verify.COMPARE_TOL).branches
    # the last state that the fault can touch, so states before it are checked too
    candidates = ~branched.all(1) if fault is extra_branched_site else \
        np.bincount(owner, minlength=len(states)) >= 2
    target = int(np.flatnonzero(candidates)[-1])
    assert target > 0 and rows[target] <= verify.DEFAULT_TOL
    plant_dense_branches(monkeypatch, fault(target))
    faulty = verify.compare_stack(block, vectors)
    assert faulty[target] == math.inf
    others = np.arange(len(states)) != target
    assert bits(faulty[others]) == bits(rows[others])
