"""Bell tests on decoherence records.

The interesting CHSH experiment in this model is *not* a rotated
readout of the final state: once the records have decohered the
qubits, every local density matrix is an incoherent mixture and no
choice of late measurement axes can beat the classical bound.  The
violation lives in the choice made *before* the records are written:
rotate each system qubit by its setting angle first, let the schedule
imprint records of the rotated qubits into the field, and then read
the records by their plain bit value.

`record_correlation` runs one such experiment for a single pair of
setting angles; `record_chsh_scan` grids both angles, re-running the
scenario once per grid point, and maximises the CHSH combination over
all setting 4-tuples drawn from the grid.  For the entangled-qubit
scenario the scan reaches the Tsirelson bound 2*sqrt(2); for the
product-state collision scenario it stays at 2.

Each experiment plays the same compiled steps (`compile_schedule`) as
a run of the config and as verification's random trials, up to the
config's horizon.  At settings (0, 0) the records are therefore read
from the state a run reports at its last step.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import AnalysisError, max_chsh_from_grid
from .gates import apply_columns, column_action, rotation_gate
from .schedule import ScenarioConfig, compile_schedule, play_step


def _experiment_frame(config: ScenarioConfig, record_sites) -> tuple:
    """Precompile everything reused across grid points."""
    lattice = config.lattice
    systems = lattice.system_sites
    if len(systems) != 2:
        raise AnalysisError(f"record Bell test needs exactly two system sites, "
                            f"got {systems}")
    ra, rb = record_sites
    if ra == rb:
        raise AnalysisError(f"record sites must be distinct, got {ra} twice")
    rpos = (lattice.position(ra), lattice.position(rb))
    spos = (lattice.position(systems[0]), lattice.position(systems[1]))
    steps = compile_schedule(config.schedule, lattice, config.horizon)
    compiled = [pair for step in steps for pair in step]
    base = dict(config.initial.amplitudes)
    return base, spos, compiled, rpos


def _run_one(base: dict, spos: tuple, compiled: list, rpos: tuple,
             action_a, action_b) -> float:
    """One experiment: rotate, evolve, read <Z Z> at the record sites."""
    amps = apply_columns(base, (spos[0],), action_a)
    amps = apply_columns(amps, (spos[1],), action_b)
    amps = play_step(amps, compiled)
    pa, pb = rpos
    e = 0.0
    for bits, amp in amps.items():
        w = amp.real * amp.real + amp.imag * amp.imag
        e += w if bits[pa] == bits[pb] else -w
    return e


def record_correlation(config: ScenarioConfig, record_sites, theta_a: float,
                       theta_b: float) -> float:
    """E(theta_a, theta_b) for one pair of pre-rotation settings.

    The first/second system site (in lattice order) is rotated by
    theta_a/theta_b before the schedule runs; the returned value is the
    bit-basis <Z Z> correlator of the two record sites at the horizon.
    """
    frame = _experiment_frame(config, record_sites)
    action_a = column_action(rotation_gate(theta_a).matrix)
    action_b = column_action(rotation_gate(theta_b).matrix)
    return _run_one(*frame, action_a, action_b)


@dataclass(frozen=True)
class RecordScanResult:
    value: float          # best CHSH combination found
    settings: tuple       # (theta_a, theta_a', theta_b, theta_b') in radians
    angles: np.ndarray    # scanned angles in radians
    e_grid: np.ndarray    # E[i, j] at (angles[i], angles[j])


def record_chsh_scan(config: ScenarioConfig, record_sites,
                     resolution_deg: float = 1.0) -> RecordScanResult:
    """Grid both setting angles, one full experiment per grid point."""
    frame = _experiment_frame(config, record_sites)
    angles = np.deg2rad(np.arange(0.0, 360.0, resolution_deg))
    actions = [column_action(rotation_gate(float(t)).matrix) for t in angles]
    k = len(angles)
    e_grid = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            e_grid[i, j] = _run_one(*frame, actions[i], actions[j])
    value, settings = max_chsh_from_grid(angles, e_grid)
    return RecordScanResult(value, settings, angles, e_grid)
