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
setting angles, by brute force: rotate, play the schedule, read.  It is
the independent reference for the scan.

`record_chsh_scan` grids both angles in closed form.  The setting
rotation is linear in the half-angle, R(theta) = cos(theta/2) I +
sin(theta/2) J with J = [[0, 1], [-1, 0]], so every experiment's final
state is a real combination of the four evolved states
phi_kl = U (A_k x B_l) psi_0, A, B in {I, J}.  The schedule is played
once on the four starts, held as the owners of one table; the records'
<Z Z> is taken between those four states once (a real 4x4 Gram matrix
G), and the whole grid follows as
E(theta_a, theta_b) = sum v_k(a) v_m(a) v_l(b) v_n(b) G[kl, mn] with
v(theta) = (cos theta/2, sin theta/2).  The CHSH combination is then
maximised over all setting 4-tuples drawn from the grid, in O(k^2):
in either angle every grid line is c0 + c1 cos + c2 sin, so for each
(b, b') the best a and a' sit at the grid angles that flank a
closed-form direction (`max_chsh_from_grid`).  For the
entangled-qubit scenario the scan reaches the Tsirelson bound
2*sqrt(2); for the product-state collision scenario it stays at 2.

Both play the same compiled steps (`compile_schedule`) as a run of the
config, up to the config's horizon.  At settings (0, 0) the records are
therefore read from the state a run reports at its last step.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import AnalysisError, max_chsh_from_grid, scan_angles
from .gates import apply_columns, column_action, rotation_gate
from .lattice import TermTable, first_appearance, ordered_sum, row_keys
from .schedule import ScenarioConfig, compile_schedule, play_step

#: The sine part of a setting rotation: R(theta) = cos(theta/2) I + sin(theta/2) J.
_J_ACTION = column_action(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _experiment_frame(config: ScenarioConfig, record_sites) -> tuple:
    """Precompile what every experiment on this config and record pair reuses."""
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
    return config.initial.table, spos, compiled, rpos


def _run_one(base: TermTable, spos: tuple, compiled: list, rpos: tuple,
             action_a, action_b) -> float:
    """One experiment: rotate, evolve, read <Z Z> at the record sites."""
    table = play_step(base, [((spos[0],), action_a), ((spos[1],), action_b), *compiled])
    re, im = table.amps.real, table.amps.imag
    return ordered_sum(_record_signs(table.bits, rpos) * (re * re + im * im))


def _record_signs(bits: np.ndarray, rpos: tuple) -> np.ndarray:
    """Z x Z at the record positions of each row: +1 where the two record
    bits agree, -1 where they differ."""
    pa, pb = rpos
    return np.where(bits[:, pa] == bits[:, pb], 1.0, -1.0)


def record_correlation(config: ScenarioConfig, record_sites, theta_a: float,
                       theta_b: float) -> float:
    """E(theta_a, theta_b) for one pair of pre-rotation settings.

    The first/second system site (in lattice order) is rotated by
    theta_a/theta_b before the schedule runs; the returned value is the
    bit-basis <Z Z> correlator of the two record sites at the horizon.
    """
    frame = _experiment_frame(config, record_sites)
    return _run_one(*frame, rotation_gate(theta_a).action, rotation_gate(theta_b).action)


@dataclass(frozen=True)
class RecordScanResult:
    value: float          # best CHSH combination found
    settings: tuple       # (theta_a, theta_a', theta_b, theta_b') in radians
    angles: np.ndarray    # scanned angles in radians
    e_grid: np.ndarray    # E[i, j] at (angles[i], angles[j])


def _evolved_basis(base: TermTable, spos: tuple, compiled: list) -> TermTable:
    """The four evolved states phi_kl = U (A_k x B_l) psi_0, A, B in {I, J},
    as one table whose rows of owner 2k + l are phi_kl's terms.

    The four inputs are stacked as owners 0 to 3 and the schedule is
    played once, each gate on every owner: rows of different owners
    never merge, so each state's rows come out in its own term order with
    its own sums.
    """
    a = apply_columns(base, (spos[0],), _J_ACTION)
    inputs = (base, apply_columns(base, (spos[1],), _J_ACTION),
              a, apply_columns(a, (spos[1],), _J_ACTION))
    stacked = TermTable(np.concatenate([t.bits for t in inputs]),
                        np.concatenate([t.amps for t in inputs]),
                        np.arange(4).repeat([len(t) for t in inputs]))
    return play_step(stacked, compiled)


def _record_gram(phis: TermTable, rpos: tuple) -> np.ndarray:
    """G[kl, mn] = Re <phi_kl| Z x Z |phi_mn> at the record positions,
    summed over the union of the four supports (owner 2k + l of `phis`
    is phi_kl)."""
    column, first = first_appearance(row_keys(phis.bits))
    m = np.zeros((4, len(first)), dtype=complex)
    m[phis.owner, column] = phis.amps
    z = _record_signs(phis.bits[first], rpos)
    return ((m.conj() * z) @ m.T).real


def record_grid(g: np.ndarray, angles: np.ndarray) -> tuple:
    """The record grid E[i, j] = sum P[i, km] H[km, ln] P[j, ln] of a Gram
    matrix G, with P[i, km] = v_k v_m at angles[i] and H[km, ln] =
    G[kl, mn], and each column's coefficients in the form that
    `max_chsh_from_grid` takes.  With x = H P[j], P[i] . x =
    (x0 + x3)/2 + (x0 - x3)/2 cos theta_i + (x1 + x2)/2 sin theta_i,
    since v0^2, v1^2 = (1 +- cos theta)/2 and v0 v1 = sin theta / 2."""
    v = np.stack([np.cos(angles / 2.0), np.sin(angles / 2.0)], axis=1)   # (K, 2)
    p = (v[:, :, None] * v[:, None, :]).reshape(len(angles), 4)
    h = g.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    x = h @ p.T
    coeffs = np.stack([x[0] + x[3], x[0] - x[3], x[1] + x[2]]) / 2.0
    return p @ h @ p.T, coeffs


def record_chsh_scan(config: ScenarioConfig, record_sites,
                     resolution_deg: float = 1.0) -> RecordScanResult:
    """Grid both setting angles in closed form from four evolved states,
    and search the grid in O(k^2) with `max_chsh_from_grid`."""
    angles = scan_angles(resolution_deg)
    base, spos, compiled, rpos = _experiment_frame(config, record_sites)
    g = _record_gram(_evolved_basis(base, spos, compiled), rpos)
    e_grid, coeffs = record_grid(g, angles)
    value, settings = max_chsh_from_grid(angles, e_grid, coeffs)
    return RecordScanResult(value, settings, angles, e_grid)
