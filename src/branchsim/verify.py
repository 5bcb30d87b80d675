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
from .gates import (UNITARITY_TOL, field_copy_gate, field_swap_gate, gate_by_name,
                    rotation_gate, system_field_gate)
from .lattice import PureState, chain_lattice, norm, overlap, product_state
from .reference_states import REFERENCE_SEQUENCES
from .schedule import (SCENARIOS, GateApplication, Schedule, ScenarioConfig, run_schedule,
                       scenario_single)

#: Random trials used by the full differential suite.
DEFAULT_TRIALS = 10_000


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


def check_reference_sequences(tol: float = 1e-10) -> list:
    """Each scenario reproduces its closed-form state at every step."""
    results = []
    for name, reference in REFERENCE_SEQUENCES.items():
        expected = reference()
        states = SCENARIOS[name]().run(horizon=len(expected) - 1)
        worst = min(
            overlap(simulated, known)
            for simulated, known in zip(states, expected)
        )
        drift = max(abs(norm(s) - 1.0) for s in states)
        ok = worst >= 1.0 - tol and drift <= tol
        results.append(_result(f"scenario states: {name}",
                               ok, f"min overlap {worst:.15f}, norm drift {drift:.3g}"))
    return results


def check_known_values(tol: float = 1e-10) -> list:
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

def compare_states(state: PureState, dense: oracle.DenseState) -> float:
    """Worst deviation across overlap, RDMs, entropies, branch weights; the
    sparse side is one `StateAnalysis`, the marginals reports print."""
    worst = abs(oracle.dense_overlap(oracle.densify(state), dense) - 1.0)

    # branch decisions use a loose threshold so both engines agree on
    # which sites count as branched; the weights must then match tightly
    summary = analysis.StateAnalysis(state, tol=1e-6)
    m = summary.marginals
    for site, matrix, entropy in zip(m.sites, m.matrices, m.entropy):
        worst = max(worst, float(np.abs(matrix - oracle.dense_rdm(dense, (site,))).max()),
                    abs(float(entropy) - oracle.dense_entropy(dense, (site,))))
    for region in (m.sites[:2], m.sites[-2:]):
        rho = analysis.reduced_density_matrix(state, region)
        worst = max(worst, float(np.abs(rho.matrix - oracle.dense_rdm(dense, region)).max()),
                    abs(analysis.entropy_of(rho) - oracle.dense_entropy(dense, region)))

    sparse_weights = {b.key(): b.weight for b in summary.branches.branches}
    dense_weights = oracle.dense_branch_weights(dense, tol=1e-6)
    if set(sparse_weights) != set(dense_weights):
        return math.inf
    return max([worst] + [abs(sparse_weights[k] - dense_weights[k]) for k in sparse_weights])


def dense_deviation(config: ScenarioConfig, states: list) -> float:
    """Worst `compare_states` deviation of a sparse run of `config` (its
    states at t = 0 .. len(states) - 1) from the dense engine's run."""
    dense_states = oracle.dense_run(oracle.densify(config.initial), config.schedule,
                                    len(states) - 1)
    return max(compare_states(s, d) for s, d in zip(states, dense_states))


def check_scenario_differential(tol: float = 1e-10) -> list:
    """Both engines produce the same physics for every scenario, each step."""
    results = []
    for name, factory in SCENARIOS.items():
        config = factory()
        worst = dense_deviation(config, config.run())
        results.append(_result(f"engines agree: scenario {name}", worst <= tol,
                               f"worst deviation {worst:.3g}"))
    return results


def random_differential_trial(rng: np.random.Generator,
                              n_sites: int = 8, n_gates: int = 5) -> float:
    """Run one random gate sequence through both engines; worst deviation.

    The sequence is a schedule with one two-site gate per step, so the
    sparse side plays it exactly as `run` plays a config.
    """
    lattice = chain_lattice([0], range(1, n_sites))
    amps = np.zeros((n_sites, 2))
    amps[range(n_sites), rng.integers(0, 2, n_sites)] = 1.0
    state = product_state(lattice, dict(enumerate(amps)))

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
    # states must track each other after every gate; the full battery
    # of derived quantities is compared once, on the final state
    worst = max((abs(oracle.dense_overlap(oracle.densify(s), d) - 1.0)
                 for s, d in zip(states[1:], dense_states[1:])), default=0.0)
    return max(worst, compare_states(states[-1], dense_states[-1]))


def check_random_differential(n_trials: int = DEFAULT_TRIALS, tol: float = 1e-10,
                              seed: int = 20260825) -> CheckResult:
    """Randomized 8-site gate sequences agree across both engines."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        worst = max(worst, random_differential_trial(rng))
        if worst > tol:
            break
    return _result(f"engines agree: {n_trials} random sequences", worst <= tol,
                   f"worst deviation {worst:.3g}")


def run_verification(tol: float = 1e-10, n_trials: int = DEFAULT_TRIALS,
                     seed: int = 20260825,
                     gate_overrides: Optional[dict] = None) -> list:
    """The full verification suite; returns one CheckResult per check."""
    results = []
    results += check_gate_unitarity(gate_overrides=gate_overrides)
    results += check_reference_sequences(tol)
    results += check_known_values(tol)
    results += check_scenario_differential(tol)
    results.append(check_random_differential(n_trials, tol, seed))
    return results
