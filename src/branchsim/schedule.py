"""Discrete-time gate schedules and the built-in scenarios.

Time advances in integer steps.  A schedule assigns each step a set of
gate applications whose site supports must be disjoint, so the gates of
one step commute and the step is a well-defined product unitary.  Steps
with no gates are the identity.

The model is local: two-site gates are meant to act on adjacent sites,
which is what produces the strict light cone (a record can spread at
most one site per step).  Non-adjacent applications are allowed for
experiments but are flagged with a warning.

Built-in scenarios
------------------
``single``         one qubit at site 0 coupled once to an up-spin chain
                   on its right; the record then copies outward one site
                   per step and every visited site keeps a copy.
``bidirectional``  the same, plus a single late coupling to one field
                   site on the *left*, showing records spreading both
                   ways from the system.
``collision``      two qubits at the ends of a four-spin chain; each
                   imprints a record that is *swapped* (not copied)
                   toward the other side, so the two records pass
                   through each other and arrive at the far qubit's
                   doorstep.
``epr``            the collision geometry, but the two qubits start in
                   the entangled (|01> + |10>)/sqrt(2) state, so the
                   travelling records end up entangled with each other.
"""

import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .gates import Gate, Gate1, Gate2, GateError, apply_columns, gate_by_name, move_layer
from .gates import apply_gate2  # noqa: F401 - a binding the benchmark's trace self-test checks
from .lattice import (Lattice, PureState, TermTable, chain_lattice, entangled_state,
                      product_state, read_lattice, read_list, read_number, read_object,
                      read_terms, read_whole)


#: Longest horizon a schedule is played to: 40 times the 256-site chain's
#: 256 steps.  Compiling a horizon allocates one list per step before any
#: gate is read, so without a bound a horizon of 10^11 runs out of memory.
MAX_HORIZON = 10_000


class ScheduleError(ValueError):
    """Overlapping supports within a step, or a malformed application."""


class ConfigError(ValueError):
    """Malformed scenario configuration document."""


@dataclass(frozen=True)
class GateApplication:
    """One gate applied to one or two sites at one time step.

    `gate` may be a Gate1/Gate2 or a name resolvable by `gate_by_name`
    (names keep configs serialisable).  For two-site gates the site
    order is meaningful: the first site feeds the gate's left slot.
    """

    time: int
    sites: tuple
    gate: Union[Gate, str]

    def __post_init__(self):
        sites = self.sites
        if type(sites) is not tuple:
            sites = tuple(sites)
            object.__setattr__(self, "sites", sites)
        if not (len(sites) == 1 or len(sites) == 2 and sites[0] != sites[1]):
            raise ScheduleError(f"application needs 1 or 2 distinct sites, got {sites}")
        if self.time < 0:
            raise ScheduleError(f"negative time {self.time}")

    def resolved_gate(self) -> Gate:
        gate = gate_by_name(self.gate) if isinstance(self.gate, str) else self.gate
        if gate.n_sites != len(self.sites):
            raise ScheduleError(
                f"gate {gate.name} acts on {gate.n_sites} site(s), got sites {self.sites}")
        return gate


@dataclass(frozen=True)
class Schedule:
    """An immutable collection of gate applications grouped by time."""

    applications: tuple

    def __post_init__(self):
        apps = tuple(sorted(self.applications, key=lambda a: (a.time, min(a.sites))))
        object.__setattr__(self, "applications", apps)
        t, seen = None, set()       # the sites of step t hit so far
        for app in apps:
            if app.time != t:
                t, seen = app.time, set()
            if not seen.isdisjoint(app.sites):
                raise ScheduleError(f"step {t}: site(s) {sorted(seen.intersection(app.sites))} "
                                    f"hit by two gates at once")
            seen.update(app.sites)

    def by_step(self) -> dict:
        steps: dict = {}
        for app in self.applications:
            steps.setdefault(app.time, []).append(app)
        return steps

    @property
    def horizon(self) -> int:
        """Number of steps needed to play every scheduled gate."""
        return 1 + max((a.time for a in self.applications), default=-1)


def compile_schedule(schedule: Schedule, lattice: Lattice,
                     horizon: Optional[int] = None) -> list:
    """Resolve every gate application played before `horizon`, once.

    Returns one list per step t = 0 .. horizon-1 of ``(positions,
    action)`` pairs: the lattice positions of the application's sites
    (first site = the gate's left slot) and the gate's column action,
    ready for `apply_columns`.  Within a step, gates keep the schedule's
    order (lowest site first).  The default horizon is the schedule's
    own; a negative one, or one past `MAX_HORIZON`, is a ScheduleError.
    Two-site gates played on non-adjacent sites give one warning.  Runs
    and record experiments play these steps; verification's random
    trials draw their own gates and call `apply_columns` with (B, 2)
    positions, one gate per trial.
    """
    if horizon is None:
        horizon = schedule.horizon
    if horizon < 0:
        raise ScheduleError(f"negative horizon {horizon}")
    if horizon > MAX_HORIZON:
        raise ScheduleError(f"horizon {horizon} exceeds the limit of {MAX_HORIZON} steps")
    steps: list = [[] for _ in range(horizon)]
    local = True
    position = lattice.position
    for app in schedule.applications:
        if app.time >= horizon:
            break  # applications are sorted by time
        action = app.resolved_gate().action
        positions = tuple(map(position, app.sites))
        if len(positions) == 2 and abs(positions[0] - positions[1]) != 1:
            local = False
        steps[app.time].append((positions, action))
    if not local:
        warnings.warn("schedule applies two-site gates to non-adjacent sites; "
                      "light-cone locality does not hold", stacklevel=3)
    return steps


#: A run of classical gates is played layer by layer once its layers hold
#: this many gates on average.  On a 2-core host (numpy 2.4), one layer's
#: pass and the run's two transposes cost as much as 4 gates played one at
#: a time on tables of 8 to 64 rows, and as 4 to 6 gates at 1,024 rows; a
#: brickwork layer of 16 gates is 2.4 times faster.  A lone gate, as on a
#: long `single` chain, and `bell`'s flattened steps of two gates at a
#: time are played gate by gate.
LAYER_GATES = 4

#: Terms played at a time by a layered run: each block is transposed,
#: played and transposed back while it is in cache, and the run holds one
#: block's transposed copy, not the whole table's.
RUN_BLOCK = 8192


def play_step(table: TermTable, step) -> TermTable:
    """Apply compiled ``(positions, action)`` pairs in order to a state's
    `TermTable`, or to a table of several owners; returns the new table.

    A run of consecutive classical pairs (`U_si`, `U_copy`, `U_swap`,
    `I`: permutations whose coefficients are all 1) is cut into
    *layers*.  A layer is the longest stretch of the run whose positions
    are pairwise disjoint: a brickwork step is one layer, and in a
    flattened run of several steps, as `bell` plays, a gate that touches
    a position of the layer so far starts the next one.  When the layers
    hold `LAYER_GATES` gates or more on average, the run is played
    `RUN_BLOCK` terms at a time on a copy of the bits transposed to one
    row per position, each layer in one pass of `gates.move_layer`;
    otherwise it is played gate by gate on one copy of the bits.  The
    amplitudes are carried over once, with ``0.0 +`` and one prune, at
    the end of the run.  That is the table that playing the run gate by
    gate with `apply_columns` gives, bit for bit: the gates of a layer
    commute, such a gate changes no modulus, so the prune keeps the same
    rows, and it merges no rows, so their order and owners stay.  Every
    other gate goes through `apply_columns`.
    """
    run: list = []                  # the classical pairs since the last other gate
    for positions, action in step:
        if action.classical:
            run.append((positions, action))
            continue
        if run:
            table, run = _play_run(table, run), []
        table = apply_columns(table, positions, action)
    return _play_run(table, run) if run else table


def _play_run(table: TermTable, run: list) -> TermTable:
    """`table` after a run of classical pairs, played layer by layer on a
    transposed copy of its bits, or gate by gate on a copy as it is when
    the layers hold fewer than LAYER_GATES gates on average."""
    layers = [run] if len(run) == 1 else list(_layers(run))
    if len(run) < LAYER_GATES * len(layers):
        bits = table.bits.copy()
        rows = bits.T               # viewed by position
        for pair in run:
            move_layer(rows, [pair])
    else:                           # a block of terms at a time, one row per position
        bits = np.empty_like(table.bits)
        for lo in range(0, len(bits), RUN_BLOCK):
            rows = table.bits[lo:lo + RUN_BLOCK].T.copy()
            for layer in layers:
                move_layer(rows, layer)
            bits[lo:lo + RUN_BLOCK] = rows.T
    amps = table.amps
    return TermTable.pruned(bits, 0.0 + amps.real, 0.0 + amps.imag, table.owner)


def _layers(run: list) -> Iterator:
    """The layers of a run of pairs, in order: each is as long as the
    positions of its pairs stay pairwise disjoint."""
    layer: list = []
    used: set = set()
    for positions, action in run:
        if not used.isdisjoint(positions):
            yield layer
            layer, used = [], set()
        layer.append((positions, action))
        used.update(positions)
    yield layer


def run_steps(state: PureState, schedule: Schedule,
              horizon: Optional[int] = None) -> Iterator:
    """Evolve a state through a schedule, yielding its states at
    t = 0 .. horizon (inclusive) one at a time, so the state yielded at t
    is the one after the gates of steps 0..t-1.  The default horizon is
    the schedule's own.  Within a step, gates are applied in order of
    their lowest site (they commute regardless — supports are disjoint).

    The schedule is compiled when this is called, so a bad horizon or
    gate raises before any state is made; each state is made when the
    iterator reaches it, and nothing here holds an earlier one.
    """
    return _play(state, compile_schedule(schedule, state.lattice, horizon))


def _play(state: PureState, steps: list) -> Iterator:
    yield state
    table = state.table
    for step in steps:
        if step:
            table = play_step(table, step)
            state = PureState(state.lattice, table)
        yield state


def run_schedule(state: PureState, schedule: Schedule,
                 horizon: Optional[int] = None) -> list:
    """Every state of `run_steps`, as a list: `result[t]` is the state at t."""
    return list(run_steps(state, schedule, horizon))


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

#: Analyses the CLI runs per step when a config does not choose its own.
DEFAULT_ANALYSES = ("sites", "branches", "clusters")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to run and analyse one scenario."""

    name: str
    lattice: Lattice
    initial: PureState
    schedule: Schedule
    horizon: int
    analyses: tuple = DEFAULT_ANALYSES

    def run(self, horizon: Optional[int] = None) -> list:
        return run_schedule(self.initial, self.schedule,
                            self.horizon if horizon is None else horizon)


def _check_horizon(key: str, size: int, horizon: int):
    """A scenario whose horizon grows with a size param is refused before
    its lattice, state and schedule are built when that horizon is past
    MAX_HORIZON, which `compile_schedule` would refuse after them."""
    if horizon > MAX_HORIZON:
        raise ConfigError(f"{key} {size} gives a horizon of {horizon} steps, "
                          f"past the limit of {MAX_HORIZON}")


def _up() -> np.ndarray:
    return np.array([1.0, 0.0], dtype=complex)


def scenario_single(alpha: complex = 1 / math.sqrt(2),
                    beta: complex = 1 / math.sqrt(2),
                    n_sites: int = 4) -> ScenarioConfig:
    """One qubit, one coupling, then copying: a record spreads rightward.

    The qubit starts at site 0 in alpha|0> + beta|1>; field sites
    1..n_sites start up.  Step 0 couples the qubit to site 1; step t
    copies site t onto site t+1, until the record reaches the boundary.
    """
    if n_sites < 1:
        raise ConfigError("need at least one field site")
    _check_horizon("n_sites", n_sites, n_sites)
    lattice = chain_lattice([0], range(1, n_sites + 1))
    site_states: dict = {0: np.array([alpha, beta], dtype=complex)}
    site_states.update({i: _up() for i in range(1, n_sites + 1)})
    apps = [GateApplication(0, (0, 1), "U_si")]
    apps += [GateApplication(t, (t, t + 1), "U_copy") for t in range(1, n_sites)]
    return ScenarioConfig("single", lattice, product_state(lattice, site_states),
                          Schedule(tuple(apps)), horizon=n_sites)


def scenario_bidirectional(n_right: int = 4) -> ScenarioConfig:
    """A rightward record as in `single`, then one late leftward coupling.

    One extra field site sits at -1, to the system's left.  Steps 0..2
    build a three-site record on the right; step 3 couples the qubit to
    site -1, so branching happens on both sides of the system.
    """
    if n_right < 3:
        raise ConfigError("need at least three field sites on the right")
    if n_right > MAX_HORIZON:
        # the horizon stays 4, so bound the chain as `single`'s is bounded
        raise ConfigError(f"n_right {n_right} is past the limit of {MAX_HORIZON} sites")
    lattice = chain_lattice([0], [-1, *range(1, n_right + 1)])
    site_states: dict = {0: np.array([1, 1], dtype=complex) / math.sqrt(2), -1: _up()}
    site_states.update({i: _up() for i in range(1, n_right + 1)})
    apps = [
        GateApplication(0, (0, 1), "U_si"),
        GateApplication(1, (1, 2), "U_copy"),
        GateApplication(2, (2, 3), "U_copy"),
        GateApplication(3, (0, -1), "U_si"),
    ]
    return ScenarioConfig("bidirectional", lattice,
                          product_state(lattice, site_states),
                          Schedule(tuple(apps)), horizon=4)


def _collision_frame(n_field: int):
    """Lattice and swap-transport schedule shared by collision and epr."""
    if n_field < 2 or n_field % 2:
        # an odd chain has no single central pair for the records to meet at
        raise ConfigError(f"collision needs an even field count >= 2, got {n_field}")
    _check_horizon("n_field", n_field, n_field // 2 + 1)
    right = n_field + 1
    lattice = chain_lattice([0, right], range(1, right))
    apps = [
        GateApplication(0, (0, 1), "U_si"),
        GateApplication(0, (right, right - 1), "U_si"),  # mirrored coupling
    ]
    for k in range(1, n_field // 2):
        apps.append(GateApplication(k, (k, k + 1), "U_swap"))
        apps.append(GateApplication(k, (right - k, right - k - 1), "U_swap"))
    center = n_field // 2
    apps.append(GateApplication(center, (center, center + 1), "U_swap"))
    return lattice, Schedule(tuple(apps)), center + 1


def scenario_collision(n_field: int = 4) -> ScenarioConfig:
    """Two independent qubits whose records swap toward each other.

    Qubits at the chain ends start in (|0> + |1>)/sqrt(2) each; the run
    halts right after the central swap, where the two records have just
    passed through each other.
    """
    lattice, sched, horizon = _collision_frame(n_field)
    right = n_field + 1
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    site_states = {0: plus, right: plus}
    site_states.update({i: _up() for i in range(1, right)})
    return ScenarioConfig("collision", lattice, product_state(lattice, site_states),
                          sched, horizon=horizon)


def scenario_epr(n_field: int = 4) -> ScenarioConfig:
    """The collision geometry with the qubits starting entangled.

    The two system qubits begin in (|01> + |10>)/sqrt(2); the travelling
    records inherit that entanglement.
    """
    lattice, sched, horizon = _collision_frame(n_field)
    right = n_field + 1
    ups = (0,) * n_field
    terms = [
        ((0, *ups, 1), 1.0),
        ((1, *ups, 0), 1.0),
    ]
    return ScenarioConfig("epr", lattice, entangled_state(lattice, terms),
                          sched, horizon=horizon)


SCENARIOS = {
    "single": scenario_single,
    "bidirectional": scenario_bidirectional,
    "collision": scenario_collision,
    "epr": scenario_epr,
}


# ---------------------------------------------------------------------------
# configuration documents
# ---------------------------------------------------------------------------
#
# A scenario config is a JSON object.  Either it names a built-in:
#
#   {"scenario": "epr"}
#   {"scenario": "single", "params": {"alpha": [0.8164965809277261, 0.0],
#                                     "beta":  [0.5773502691896257, 0.0],
#                                     "n_sites": 4}}
#   {"scenario": "epr", "horizon": 5}
#
# or it spells everything out:
#
#   {"lattice": [{"index": 0, "kind": "system"}, {"index": 1, "kind": "field"}],
#    "initial": {"product": {"0": [[1,0],[0,0]], "1": [[1,0],[0,0]]}},
#    "schedule": [{"time": 0, "sites": [0, 1], "gate": "U_si"}],
#    "horizon": 1,
#    "analyses": ["sites", "branches"]}
#
# `initial` may instead list explicit terms:
#    {"terms": [{"basis": "01", "re": 0.707106..., "im": 0.0}, ...]}
# and a schedule entry's "gate" may be an inline 4x4 (or 2x2) matrix of
# [re, im] pairs instead of a name.

def _complex_from(value, key: str) -> complex:
    """A number, or an [re, im] pair of numbers; `key` names it in errors."""
    if isinstance(value, list) and len(value) == 2:
        return complex(read_number(value[0], key), read_number(value[1], key))
    return complex(read_number(value, key))


def _gate_from_config(entry, inline: dict) -> Union[str, Gate]:
    """A schedule entry's gate: a gate name, checked and kept as the name,
    or an inline matrix as a `Gate`.  `inline` maps the ``repr`` of each
    inline matrix read so far from the document to its gate, so a matrix
    that the schedule repeats is checked and compiled once."""
    if isinstance(entry, str):
        gate_by_name(entry)  # fail fast on unknown names
        return entry
    if isinstance(entry, Sequence):
        key = repr(entry)
        if key not in inline:
            rows = [[_complex_from(cell, "gate") for cell in row] for row in entry]
            matrix = np.array(rows, dtype=complex)
            try:
                inline[key] = (Gate1("custom", matrix) if matrix.shape == (2, 2)
                               else Gate2("custom", matrix))
            except GateError as exc:
                raise ConfigError(str(exc)) from exc
        return inline[key]
    raise ConfigError(f"bad gate entry {entry!r}")


def _initial_from_config(entry, lattice: Lattice) -> PureState:
    if not isinstance(entry, Mapping):
        raise ConfigError("'initial' must be an object with 'product' or 'terms'")
    if "product" in entry:
        if not isinstance(entry["product"], Mapping):
            raise ConfigError(f"'product' must be an object, got {entry['product']!r}")
        # a key that is no index's str, such as "01", stays a string, which
        # product_state reports as an extra site
        sites = {str(i): i for i in lattice.indices}
        site_states = {sites.get(key, key): [_complex_from(c, f"product {key}") for c in vec]
                       for key, vec in entry["product"].items()}
        return product_state(lattice, site_states)
    if "terms" in entry:
        return entangled_state(lattice, read_terms(entry["terms"]).items())
    raise ConfigError("'initial' needs a 'product' or 'terms' key")


#: Per-step analyses a config may name; correlations are mappings.
ANALYSIS_NAMES = ("sites", "branches", "clusters")


def _analyses_from_config(entry, lattice: Lattice) -> tuple:
    """Validate an ``analyses`` list: names from ANALYSIS_NAMES, or
    ``{"type": "correlation", "site_a": A, "site_b": B}`` with two
    different whole-number lattice sites, stored as ints, and optional
    finite ``theta_a`` / ``theta_b``, kept as given."""
    if not isinstance(entry, list):
        raise ConfigError(f"'analyses' must be a list, got {entry!r}")
    analyses = []
    for item in entry:
        if isinstance(item, str):
            if item not in ANALYSIS_NAMES:
                raise ConfigError(f"unknown analysis {item!r}; "
                                  f"available: {', '.join(ANALYSIS_NAMES)}, correlation")
            analyses.append(item)
            continue
        if not isinstance(item, Mapping) or item.get("type") != "correlation":
            raise ConfigError(f"bad analysis {item!r}: want a name or a correlation object")
        item = dict(item)
        for key in ("site_a", "site_b"):
            item[key] = read_whole(item.get(key), key)
            if item[key] not in lattice.indices:
                raise ConfigError(f"correlation {key} must be an integer lattice site, "
                                  f"got {item[key]!r}")
        if item["site_a"] == item["site_b"]:
            raise ConfigError(f"correlation needs two different sites, "
                              f"got {item['site_a']!r} twice")
        for key in ("theta_a", "theta_b"):
            theta = read_number(item.get(key, 0.0), key)
            # NaN, infinities and integers past the float range all fail
            if not abs(theta) <= sys.float_info.max:
                raise ConfigError(f"correlation {key} must be a finite number, got {theta!r}")
        analyses.append(item)
    return tuple(analyses)


def _horizon_from_config(doc: Mapping) -> Optional[int]:
    """A config's top-level ``horizon``, a whole number, or None if it has
    none; one past MAX_HORIZON is refused before anything is built."""
    if "horizon" not in doc:
        return None
    horizon = read_whole(doc["horizon"], "horizon")
    if horizon > MAX_HORIZON:
        raise ConfigError(f"horizon {horizon} exceeds the limit of {MAX_HORIZON} steps")
    return horizon


def config_from_document(text: str) -> ScenarioConfig:
    """Parse a scenario configuration document (JSON text).  Every
    malformed part is a ConfigError.  A built-in scenario's ``params``
    alpha and beta are complex numbers, and its other params whole
    numbers.  A top-level ``horizon`` sets the number of steps of a
    built-in scenario as of an explicit config."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, Mapping):
            raise ConfigError("config must be a JSON object")
        horizon = _horizon_from_config(doc)
        if "scenario" in doc:
            name = doc["scenario"]
            if not isinstance(name, str) or name not in SCENARIOS:
                raise ConfigError(f"unknown scenario {name!r}; "
                                  f"available: {', '.join(sorted(SCENARIOS))}")
            params = doc.get("params", {})
            if not isinstance(params, Mapping):
                raise ConfigError(f"'params' must be an object, got {params!r}")
            config = SCENARIOS[name](**{
                key: _complex_from(value, key) if key in ("alpha", "beta")
                else read_whole(value, key)
                for key, value in params.items()})
            if horizon is not None:
                config = replace(config, horizon=horizon)
        else:
            lattice = read_lattice(doc["lattice"])
            initial = _initial_from_config(doc["initial"], lattice)
            entries = [read_object(e, "schedule") for e in read_list(doc.get("schedule", []),
                                                                     "schedule")]
            inline: dict = {}
            sched = Schedule(tuple([
                GateApplication(read_whole(e["time"], "time"),
                                tuple([read_whole(site, "sites")
                                       for site in read_list(e["sites"], "sites")]),
                                _gate_from_config(e["gate"], inline))
                for e in entries]))
            if horizon is None:
                horizon = sched.horizon
            config = ScenarioConfig(str(doc.get("name", "custom")), lattice, initial,
                                    sched, horizon)
        if "analyses" in doc:
            config = replace(config, analyses=_analyses_from_config(doc["analyses"],
                                                                   config.lattice))
        return config
    except ConfigError:
        raise
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


def load_config(path) -> ScenarioConfig:
    """Read and parse a scenario configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_document(text)
