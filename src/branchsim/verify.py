"""Self-verification: reference-state reproduction and engine cross-checks.

Two independent kinds of evidence are collected:

* the sparse engine reproduces the hand-entered closed-form states of
  every built-in scenario, step by step, together with a handful of
  derived quantities (density matrices, branch counts, correlations)
  whose values are known exactly;
* the sparse and dense engines agree on the scenarios and on a large
  batch of randomized gate sequences they were never tuned for.

`run_verification` returns one CheckResult per check; the CLI renders
them as a table and fails on any miss.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis, oracle
from .analysis import MeasurementSetting, chsh_grid_max
from .gates import (UNITARITY_TOL, apply_columns, column_action, field_copy_gate,
                    field_swap_gate, gate_by_name, join_actions, rotation_gate,
                    system_field_gate, take_actions, unitary_stack)
from .lattice import PureState, StateBlock, TermTable, chain_lattice, norm, overlap
from .reference_states import REFERENCE_SEQUENCES
from .schedule import SCENARIOS, ScenarioConfig, scenario_single

#: Random trials used by the full differential suite.
DEFAULT_TRIALS = 10_000

#: Largest deviation a check allows by default, also between the engines
#: in `run --verify`.
DEFAULT_TOL = 1e-10

#: Seed of the random differential suite's default trials.
DEFAULT_SEED = 20260825


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _result(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def check_gate_unitarity(tol: float = UNITARITY_TOL,
                         gate_overrides: Optional[dict] = None) -> list:
    """U^dag U = 1 for every library gate.

    `gate_overrides` (name -> matrix) substitutes matrices before
    checking; it exists so tests can inject a corrupted gate and watch
    verification fail.
    """
    overrides = gate_overrides or {}
    library = {
        "U_si": system_field_gate().matrix,
        "U_copy": field_copy_gate().matrix,
        "U_swap": field_swap_gate().matrix,
        "rot(0.7)": rotation_gate(0.7).matrix,
    }
    results = []
    for name, matrix in library.items():
        m = np.asarray(overrides.get(name, matrix), dtype=complex)
        err = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
        results.append(_result(f"gate unitarity: {name}", err <= tol,
                               f"max deviation {err:.3g}"))
    return results


def check_reference_sequences(tol: float = DEFAULT_TOL) -> list:
    """Each scenario reproduces its closed-form state at every step."""
    results = []
    for name, reference in REFERENCE_SEQUENCES.items():
        expected = reference()
        states = SCENARIOS[name]().run(horizon=len(expected) - 1)
        worst = np.min([overlap(simulated, known) for simulated, known in zip(states, expected)])
        drift = np.max([abs(norm(s) - 1.0) for s in states])
        ok = worst >= 1.0 - tol and drift <= tol
        results.append(_result(f"scenario states: {name}",
                               ok, f"min overlap {worst:.15f}, norm drift {drift:.3g}"))
    return results


def check_known_values(tol: float = DEFAULT_TOL) -> list:
    """Spot values with exact closed forms."""
    results = []

    # an even superposition decoheres the qubit to the maximally mixed state
    state = scenario_single(1 / math.sqrt(2), 1 / math.sqrt(2), 4).run()[1]
    rho = analysis.reduced_density_matrix(state, [0])
    results.append(_result(
        "qubit fully mixed after one coupling",
        bool(np.allclose(rho.matrix, np.eye(2) / 2, atol=tol, rtol=0.0)),
        f"rho = {np.round(rho.matrix.real, 12).tolist()}"))

    # a biased qubit keeps its weights; a rotated readout sees residual
    # coherence 1/3 on top of the 1/2-1/2 diagonal
    biased = scenario_single(math.sqrt(2 / 3), math.sqrt(1 / 3), 4).run()[1]
    rho = analysis.reduced_density_matrix(biased, [0])
    rotated = analysis.change_basis(rho, {0: rotation_gate(math.pi / 2)})
    expected = np.array([[0.5, 1 / 6], [1 / 6, 0.5]])
    ok = (np.allclose(rho.matrix, np.diag([2 / 3, 1 / 3]), atol=tol, rtol=0.0)
          and np.allclose(rotated.matrix, expected, atol=tol, rtol=0.0)
          and abs(analysis.coherence(rotated) - 1 / 3) <= tol
          and abs(analysis.purity(rho) - 5 / 9) <= tol)
    results.append(_result("biased qubit density matrix and rotated basis", ok,
                           "diag(2/3, 1/3); rotated coherence 1/3"))

    # collision: four equal-weight branches once the records have crossed
    collision = SCENARIOS["collision"]().run()[-1]
    decomp = analysis.branch_decompose(collision)
    ok = (decomp.n_branches == 4
          and all(abs(w - 0.25) <= tol for w in decomp.weights))
    results.append(_result("collision: four equal branches", ok,
                           f"{decomp.n_branches} branches, weights {decomp.weights}"))

    # epr: two branches; the records are perfectly anticorrelated
    epr = SCENARIOS["epr"]().run()[-1]
    decomp = analysis.branch_decompose(epr)
    e_records = analysis.correlation(epr, MeasurementSetting(2), MeasurementSetting(3))
    ok = decomp.n_branches == 2 and abs(e_records + 1.0) <= tol
    results.append(_result("epr: two branches, anticorrelated records", ok,
                           f"{decomp.n_branches} branches, E(2,3) = {e_records:.12f}"))

    # no state beats the Tsirelson bound, neither on a coarse grid nor at
    # the exact plane maximum; both sit at the bound for the epr qubits
    scan = chsh_grid_max(SCENARIOS["epr"]().initial, 0, 5, resolution_deg=15.0)
    bound = 2 * math.sqrt(2) + 1e-9
    ok = scan.value <= scan.plane_max + 1e-12 and scan.plane_max <= bound
    results.append(_result("CHSH within Tsirelson bound", ok,
                           f"max S = {scan.value:.12f}, plane max {scan.plane_max:.12f}"))
    return results


# ---------------------------------------------------------------------------
# differential suite: sparse engine vs dense engine
# ---------------------------------------------------------------------------

#: Branch tolerance of `compare_states`: loose, so that both engines agree
#: on which sites count as branched; the weights must then match tightly.
COMPARE_TOL = 1e-6

#: Random trials drawn, played and analysed together.  Larger blocks
#: batch little more of the dense work, and hold more states and stacks.
TRIAL_BLOCK = 64


def compare_stack(states: list, vectors: np.ndarray) -> np.ndarray:
    """Worst deviation of each sparse state from its row of a (B, 2^n)
    dense stack, across overlap, RDMs, entropies and branch weights, as
    a (B,) array.

    The sparse states are joined into one `StateBlock`, and each kind
    comes from one call on it: the site marginals that reports print,
    the first two and the last two sites, and `analysis.branch_table`.
    The dense side is one `oracle.analyse_stack`.  A branch is compared
    as its bits on its state's branched sites and 2 elsewhere; both
    engines sort a state's branches by bits, and a state whose branches
    differ deviates by inf.  Each kind is folded in with `np.maximum`,
    which keeps a NaN; a row depends on its own state only.
    """
    block = StateBlock.of(states)
    lattice, size = block.lattice, block.size
    regions = (lattice.indices[:2], lattice.indices[-2:])
    dense = oracle.analyse_stack(lattice, vectors, regions, COMPARE_TOL)
    marginals = analysis.site_marginals(block)
    rhos = analysis.region_matrices(block, regions)
    worst = np.abs(oracle.dense_overlaps(oracle.dense_vectors(lattice, block.table, size),
                                         vectors) - 1.0)
    for sparse, dense_kind in (
            (marginals.matrices, dense.site_rdms),
            (marginals.entropy, dense.site_entropy),
            (rhos, dense.region_rdms),
            (analysis.entropies(rhos), dense.region_entropy)):
        deviation = np.abs(sparse.reshape(dense_kind.shape) - dense_kind)
        worst = np.maximum(worst, deviation.reshape(size, -1).max(1))

    owner, bits, weights, branched = analysis.branch_table(block, marginals, COMPARE_TOL)
    sites, dense_bits, dense_weights = zip(*dense.branches)
    counts = np.array(list(map(len, dense_weights)))
    dense_owner = np.arange(size).repeat(counts)
    covered = np.zeros_like(branched)
    covered[np.arange(size).repeat(list(map(len, sites))),
            np.searchsorted(lattice.indices, np.concatenate(sites))] = True
    dense_rows = np.full((len(dense_owner), lattice.n_sites), 2, dtype=np.uint8)
    dense_rows[covered[dense_owner]] = np.concatenate(dense_bits, axis=None)
    bad = np.bincount(owner, minlength=size) != counts
    mine, theirs = ~bad[owner], ~bad[dense_owner]      # the same branches, in order
    rows = np.where(branched[owner], bits, 2)[mine]
    bad[owner[mine][(rows != dense_rows[theirs]).any(1)]] = True
    deviation = np.zeros(size)
    present, starts = np.unique(owner[mine], return_index=True)
    deviation[present] = np.maximum.reduceat(
        np.abs(weights[mine] - np.concatenate(dense_weights)[theirs]), starts)
    return np.maximum(worst, np.where(bad, math.inf, deviation))


def compare_states(state: PureState, dense: oracle.DenseState) -> float:
    """Worst deviation of `state` from `dense`: the one-row `compare_stack`."""
    if state.lattice != dense.lattice:
        raise oracle.OracleError("compared states must be on the same lattice")
    return float(compare_stack([state], dense.vector[None])[0])


def dense_deviation(config: ScenarioConfig, states: list) -> float:
    """Worst `compare_states` deviation of a sparse run of `config` (its
    states at t = 0 .. len(states) - 1) from the dense engine's run,
    which is advanced beside them and holds one dense state at a time."""
    dense_states = oracle.dense_steps(oracle.densify(config.initial), config.schedule,
                                      len(states) - 1)
    return np.max([compare_states(s, d) for s, d in zip(states, dense_states)])


def check_scenario_differential(tol: float = DEFAULT_TOL) -> list:
    """Both engines produce the same physics for every scenario, each step."""
    results = []
    for name, factory in SCENARIOS.items():
        config = factory()
        worst = dense_deviation(config, config.run())
        results.append(_result(f"engines agree: scenario {name}", worst <= tol,
                               f"worst deviation {worst:.3g}"))
    return results


def _draw_trials(rng: np.random.Generator, n_trials: int, n_sites: int,
                 n_gates: int) -> tuple:
    """Draw random trials: the initial bits (B, n), the site pairs
    (B, G, 2) and each gate's number (B, G) among the block's gates: the
    three named ones, then the random ones, whose Gaussian matrices one
    stacked QR makes unitary.  The rng is read in the order that drawing
    one trial at a time reads it.  Also returns the gates' (L, 4, 4)
    matrices and their joined column actions, for the two engines."""
    named = [gate_by_name(name) for name in ("U_si", "U_copy", "U_swap")]
    bits, pairs, gates, gaussians = [], [], [], []
    for _ in range(n_trials):
        bits.append(rng.integers(0, 2, n_sites))
        for _ in range(n_gates):
            left = int(rng.integers(0, n_sites - 1))
            pairs.append((left, left + 1) if rng.random() < 0.5 else (left + 1, left))
            if rng.random() < 0.4:
                gates.append(rng.integers(len(named)))
            else:
                gates.append(len(named) + len(gaussians))
                gaussians.append(oracle.gaussian_matrix(4, rng))
    randoms = unitary_stack(oracle.haar_unitaries(np.array(gaussians).reshape(-1, 4, 4)),
                            4, "random")
    return (np.array(bits, dtype=np.uint8).reshape(n_trials, n_sites),
            np.array(pairs, dtype=np.intp).reshape(n_trials, n_gates, 2),
            np.array(gates, dtype=np.intp).reshape(n_trials, n_gates),
            np.concatenate([[gate.matrix for gate in named], randoms]),
            join_actions([gate.action for gate in named] + [column_action(randoms)]))


def random_trial_block(rng: np.random.Generator, n_trials: int,
                       n_sites: int = 8, n_gates: int = 5) -> np.ndarray:
    """Worst deviations of `n_trials` random gate sequences, played as
    one block, as a (B,) array; entry i is what the i-th of `n_trials`
    one-trial calls of `random_differential_trial` on the same rng
    returns.

    Each sequence plays one two-site gate per step.  The sparse side
    plays the block as one tagged table, one `apply_columns` per step,
    which gives every trial the terms `run_schedule` gives it alone; the
    dense side as one (B, 2^n) stack.  Their overlaps are compared after
    every step, and every derived quantity by one final `compare_stack`.
    """
    lattice = chain_lattice([0], range(1, n_sites))
    bits, pairs, gates, matrices, actions = _draw_trials(rng, n_trials, n_sites, n_gates)
    if not n_trials:
        return np.zeros(0)
    # sites 0 .. n-1 sit at lattice positions 0 .. n-1
    table = TermTable(bits, np.ones(n_trials, dtype=complex), np.arange(n_trials))
    vectors = oracle.dense_vectors(lattice, table, n_trials)
    # `worst` is each trial's worst overlap deviation so far; the final
    # step's overlaps are `compare_stack`'s, so they are taken there only
    worst = np.zeros(n_trials)
    for t in range(n_gates):
        vectors = oracle.apply_stack(vectors, matrices[gates[:, t]], pairs[:, t])
        table = apply_columns(table, pairs[:, t], take_actions(actions, gates[:, t]))
        if t < n_gates - 1:
            overlaps = oracle.dense_overlaps(oracle.dense_vectors(lattice, table, n_trials),
                                             vectors)
            worst = np.maximum(worst, np.abs(overlaps - 1.0))
    return np.maximum(worst, compare_stack(StateBlock(lattice, table, n_trials).states(),
                                           vectors))


def random_differential_trial(rng: np.random.Generator,
                              n_sites: int = 8, n_gates: int = 5) -> float:
    """Run one random gate sequence through both engines; worst deviation.
    The one-trial case of `random_trial_block`."""
    return float(random_trial_block(rng, 1, n_sites, n_gates)[0])


def check_random_differential(n_trials: int = DEFAULT_TRIALS, tol: float = DEFAULT_TOL,
                              seed: int = DEFAULT_SEED) -> CheckResult:
    """Randomized 8-site gate sequences agree across both engines.

    The trials are drawn, played and analysed TRIAL_BLOCK at a time.
    The check stops at the first trial whose running worst deviation is
    not within `tol` (a NaN is not), and draws no later block; the
    detail is the worst deviation up to that trial."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for start in range(0, n_trials, TRIAL_BLOCK):
        block = random_trial_block(rng, min(TRIAL_BLOCK, n_trials - start))
        running = np.maximum.accumulate(np.append(worst, block))
        within = running <= tol
        worst = running[-1] if within.all() else running[within.argmin()]
        if not worst <= tol:
            break
    return _result(f"engines agree: {n_trials} random sequences", worst <= tol,
                   f"worst deviation {worst:.3g}")


def run_verification(tol: float = DEFAULT_TOL, n_trials: int = DEFAULT_TRIALS,
                     seed: int = DEFAULT_SEED,
                     gate_overrides: Optional[dict] = None) -> list:
    """The full verification suite; returns one CheckResult per check."""
    results = []
    results += check_gate_unitarity(gate_overrides=gate_overrides)
    results += check_reference_sequences(tol)
    results += check_known_values(tol)
    results += check_scenario_differential(tol)
    results.append(check_random_differential(n_trials, tol, seed))
    return results
