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

import itertools
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

#: Most dense amplitudes `dense_deviation` compares in one stack, as many
#: as a block of random trials holds (64 states of 8 sites).  Stacking
#: saves a call per state on small lattices; on large ones it saves
#: little, and the oracle's copies of a larger stack cost memory and time.
STACK_AMPLITUDES = 2 ** 14

#: Random trials drawn, played and analysed together; `_draw_trials`
#: draws them a chunk of this many at a time.  Larger blocks batch
#: little more of the dense work, and hold more states and stacks.
TRIAL_BLOCK = 64

#: Fewest random trials for which `run_verification` runs the fixed checks
#: in a forked child beside them.  The child costs about 7-9 ms on a
#: 2-core host (the fork, its copy-on-write page faults and the pipe),
#: which 32 trials (about 6 ms) just repay; the fixed checks take about
#: 10 ms in process.
FORK_TRIALS = 32


def compare_stack(block, vectors: np.ndarray) -> np.ndarray:
    """Worst deviation of each state of a sparse `StateBlock`, or of a
    state (the block of one), from its row of a (B, 2^n) dense stack,
    across overlap, RDMs, entropies and branch weights, as a (B,) array.

    Each kind comes from one call on the block: the `BlockAnalysis`
    marginals that reports print, the first two and the last two sites
    (read off the same analysis's `traces`), and its `branch_table`.
    The dense side is one `oracle.analyse_stack`, whose branches have
    `branch_table`'s layout, so the two tables are compared as they are.
    A state whose branched sites, branch count or any branch's bits
    differ deviates by inf; otherwise by its largest weight difference.
    Each kind is folded in with `np.maximum`, which keeps a NaN; a row
    depends on its own state only.
    """
    lattice, size = block.lattice, block.size
    regions = (lattice.indices[:2], lattice.indices[-2:])
    dense = oracle.analyse_stack(lattice, vectors, regions, COMPARE_TOL)
    analysed = analysis.BlockAnalysis(block, COMPARE_TOL)
    rhos = analysis.region_matrices(analysed.traces, regions)
    worst = np.abs(oracle.dense_overlaps(oracle.dense_vectors(lattice, block.table, size),
                                         vectors) - 1.0)
    for sparse, dense_kind in (
            (analysed.marginals.matrices, dense.site_rdms),
            (analysed.marginals.entropy, dense.site_entropy),
            (rhos, dense.region_rdms),
            (analysis.entropies(rhos), dense.region_entropy)):
        deviation = np.abs(sparse.reshape(dense_kind.shape) - dense_kind)
        worst = np.maximum(worst, deviation.reshape(size, -1).max(1))

    owner, bits, weights, branched = analysed.branch_table
    dense_owner, dense_bits, dense_weights, dense_branched = dense.branches
    bad = ((branched != dense_branched).any(1)
           | (np.bincount(owner, minlength=size) != np.bincount(dense_owner, minlength=size)))
    mine, theirs = ~bad[owner], ~bad[dense_owner]      # the same branches, in order
    bad[owner[mine][(bits[mine] != dense_bits[theirs]).any(1)]] = True
    deviation = np.zeros(size)
    with np.errstate(invalid="ignore"):                # a NaN is kept, not warned about
        np.maximum.at(deviation, owner[mine], np.abs(weights[mine] - dense_weights[theirs]))
    return np.maximum(worst, np.where(bad, math.inf, deviation))


def compare_states(state: PureState, dense: oracle.DenseState) -> float:
    """Worst deviation of `state` from `dense`: the one-row `compare_stack`."""
    if state.lattice != dense.lattice:
        raise oracle.OracleError("compared states must be on the same lattice")
    return float(compare_stack(state, dense.vector[None])[0])


def dense_deviation(config: ScenarioConfig, states: list) -> float:
    """Worst `compare_stack` deviation of a sparse run of `config` (its
    states at t = 0 .. len(states) - 1) from the dense engine's run.

    The dense run is advanced beside the states, and they are compared
    ``max(1, STACK_AMPLITUDES >> n)`` steps per `compare_stack` call, so a
    lattice of more than 14 sites holds one dense state at a time.  A
    row depends on its own state only, so the result does not depend on
    how the run is split.
    """
    per_stack = max(1, STACK_AMPLITUDES >> config.lattice.n_sites)
    dense_states = oracle.dense_steps(oracle.densify(config.initial), config.schedule,
                                      len(states) - 1)
    worst = []
    for start in range(0, len(states), per_stack):
        chunk = states[start:start + per_stack]
        vectors = [dense.vector for dense in itertools.islice(dense_states, len(chunk))]
        # one state is compared as a view, with no copy of its vector
        stack = vectors[0][None] if len(vectors) == 1 else np.stack(vectors)
        worst.append(compare_stack(StateBlock.of(chunk), stack))
    return np.max(np.concatenate(worst))


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
    """Draw `n_trials` (at least one) random sequences of `n_gates`
    two-site gates on `n_sites` sites: the initial bits (B, n), the site
    pairs (B, G, 2), each gate's number (B, G) and the (R, 2, 4, 4) real
    draws of the R random gates.  Gates 0 .. 2 are the named ones, and
    gate 3 + k is the one of the k-th random draw, trial by trial.

    Trials are drawn a chunk of TRIAL_BLOCK at a time, and a chunk is
    always drawn whole: a call draws every chunk its trials touch and
    keeps the first `n_trials`, so trial i comes from chunk
    i // TRIAL_BLOCK however a run is split into calls.  A chunk reads
    the rng once per kind: its bits, its left sites, one array of
    uniforms (whether each pair is in site order, and whether its gate
    is named, with chance 0.4), its named-gate numbers, and the
    (2, 4, 4) draws of its random gates.
    """
    chunks = []
    for _ in range(-(-n_trials // TRIAL_BLOCK)):
        bits = rng.integers(0, 2, (TRIAL_BLOCK, n_sites), dtype=np.uint8)
        left = rng.integers(0, n_sites - 1, (TRIAL_BLOCK, n_gates))
        uniforms = rng.random((2, TRIAL_BLOCK, n_gates))
        named = rng.integers(0, 3, (TRIAL_BLOCK, n_gates))
        random = uniforms[1] >= 0.4
        parts = rng.normal(size=(int(random.sum()), 2, 4, 4))
        chunks.append((bits, left, uniforms[0] < 0.5, random, named, parts))
    *trials, parts = (np.concatenate(kind) for kind in zip(*chunks))
    bits, left, forward, random, named = (kind[:n_trials] for kind in trials)
    pairs = np.stack([left + ~forward, left + forward], axis=-1)
    gates = np.where(random, 2 + np.cumsum(random).reshape(random.shape), named)
    return bits, pairs, gates, parts[:random.sum()]


def play_trials(bits: np.ndarray, pairs: np.ndarray, gates: np.ndarray,
                parts: np.ndarray) -> np.ndarray:
    """Worst deviations of drawn trials, played as one block, as a (B,)
    array: the initial bits (B, n), site pairs (B, G, 2), gate numbers
    (B, G) and random draws (R, 2, 4, 4) of `_draw_trials`.

    The draws are made complex by one `oracle.complex_gaussians` and
    unitary by one stacked QR, and the three named gates go in front of
    them: their matrices for the dense side and their joined column
    actions for the sparse side.  Each sequence plays one two-site gate
    per step.  The sparse side plays the block as one table, trial b as
    owner b, one `apply_columns` per step with each owner's gate, which
    gives every trial the terms `run_schedule` gives it alone; the dense
    side as one (B, 2^n) stack.  Their overlaps are compared after
    every step, and every derived quantity by one final `compare_stack`.
    A row depends on its own trial only.
    """
    n_trials, n_sites = bits.shape
    n_gates = gates.shape[1]
    named = [gate_by_name(name) for name in ("U_si", "U_copy", "U_swap")]
    randoms = unitary_stack(oracle.haar_unitaries(oracle.complex_gaussians(parts)), 4, "random")
    matrices = np.concatenate([[gate.matrix for gate in named], randoms])
    actions = join_actions([gate.action for gate in named] + [column_action(randoms)])
    lattice = chain_lattice([0], range(1, n_sites))
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
    return np.maximum(worst, compare_stack(StateBlock(lattice, table, n_trials), vectors))


def random_trial_block(rng: np.random.Generator, n_trials: int,
                       n_sites: int = 8, n_gates: int = 5) -> np.ndarray:
    """Worst deviations of `n_trials` random gate sequences on a chain of
    `n_sites`, as a (B,) array: `play_trials` of `_draw_trials`.  A call
    draws whole chunks of TRIAL_BLOCK trials and keeps its first
    `n_trials`, so its rows are the first rows of any longer call on the
    same rng; 0 trials draw nothing."""
    if not n_trials:
        return np.zeros(0)
    return play_trials(*_draw_trials(rng, n_trials, n_sites, n_gates))


def random_differential_trial(rng: np.random.Generator,
                              n_sites: int = 8, n_gates: int = 5) -> float:
    """Run one random gate sequence through both engines; worst deviation.
    The one-trial `random_trial_block`: it draws a whole chunk of
    TRIAL_BLOCK trials and plays the first, so consecutive calls do not
    give the trials of one block."""
    return float(random_trial_block(rng, 1, n_sites, n_gates)[0])


def check_random_differential(n_trials: int = DEFAULT_TRIALS, tol: float = DEFAULT_TOL,
                              seed: int = DEFAULT_SEED) -> CheckResult:
    """Randomized 8-site gate sequences agree across both engines.

    The trials are drawn, played and analysed TRIAL_BLOCK at a time;
    the last block may be shorter, but draws a whole chunk, so the
    deviations of n trials are the first n of any longer run at the
    same seed.  The check stops at the first trial whose running worst
    deviation is not within `tol` (a NaN is not), and draws no later
    block; the detail is the worst deviation up to that trial."""
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


def _beside(first, second, fork: bool) -> tuple:
    """``(first(), second())``.  If `fork` is true, `os.fork` exists and
    this process may run on 2 CPUs or more, `first` runs in a forked
    child while this process runs `second`; `first` must then be a pure
    function of what the child inherits, monkeypatches included, and
    return a value that pickles.

    The child writes nothing to stdout or stderr.  It sends its pickled
    result through a pipe, or nothing if `first` raised or showed a
    warning, and it always ends by `os._exit`.  With no result from the
    child, `first` runs here after `second`.  If `second` raises, the
    child is killed, and for an Exception `first` runs here before it is
    raised again.  So the results, exceptions and warnings are those of
    the two calls made in order.  The child is reaped before this
    returns or raises.
    """
    import os
    import pickle
    import warnings

    if not (fork and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        return first(), second()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            with warnings.catch_warnings(record=True) as shown:
                data = pickle.dumps(first())
            if not shown:
                with os.fdopen(write_end, "wb") as pipe:
                    pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        try:
            later = second()
            data = pipe.read()
        except BaseException as exc:
            import signal          # not loaded at start-up; needed only here
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            if isinstance(exc, Exception):
                first()
            raise
        _, status = os.waitpid(pid, 0)
    return (pickle.loads(data) if data and status == 0 else first()), later


def _fixed_checks(tol: float, gate_overrides: Optional[dict]) -> list:
    """Every check but the random suite: pure functions of their arguments."""
    return (check_gate_unitarity(gate_overrides=gate_overrides)
            + check_reference_sequences(tol)
            + check_known_values(tol)
            + check_scenario_differential(tol))


def run_verification(tol: float = DEFAULT_TOL, n_trials: int = DEFAULT_TRIALS,
                     seed: int = DEFAULT_SEED,
                     gate_overrides: Optional[dict] = None) -> list:
    """The full verification suite; returns one CheckResult per check.

    From FORK_TRIALS random trials on, the fixed checks run in a forked
    child beside the random suite (`_beside`); their results are the
    same either way, and come first."""
    fixed, random = _beside(lambda: _fixed_checks(tol, gate_overrides),
                            lambda: check_random_differential(n_trials, tol, seed),
                            n_trials >= FORK_TRIALS)
    return fixed + [random]
