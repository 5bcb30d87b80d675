"""Property tests for the closed-form record-Bell scan.

Random experiments (at most 6 sites, two of them system qubits in a
random normalised joint state, at most 8 applications mixing the named
two-site gates with `rot(theta)`, any horizon up to one past the
schedule's) must give a scan grid equal to the brute-force
`record_correlation` at every grid point, and no scan may beat the
Tsirelson bound.  The four evolved states the scan plays as one stacked
table must equal four separate plays bit for bit.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import branchsim as bs
from branchsim import bell, gates
from branchsim.schedule import play_step
from test_bell import horizon_cut_config

NAMED_GATE2 = ("U_si", "U_copy", "U_swap")
TSIRELSON = 2 * math.sqrt(2)


@st.composite
def experiments(draw):
    """(config, record sites) for a random record-Bell experiment."""
    n_sites = draw(st.integers(2, 6))
    positions = list(range(n_sites))
    systems = draw(st.permutations(positions))[:2]
    lattice = bs.chain_lattice(systems, [p for p in positions if p not in systems])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    field = [draw(st.integers(0, 1)) for _ in positions]
    sa, sb = lattice.system_sites
    terms = []
    for bit_a in (0, 1):
        for bit_b in (0, 1):
            bits = list(field)
            bits[sa], bits[sb] = bit_a, bit_b
            terms.append((bits, complex(*rng.normal(size=2))))
    initial = bs.entangled_state(lattice, terms)

    apps, busy = [], {}
    for _ in range(draw(st.integers(0, 8))):
        time = draw(st.integers(0, 4))
        if draw(st.booleans()):
            support = (draw(st.sampled_from(positions)),)
            gate = f"rot({draw(st.floats(-7.0, 7.0, allow_nan=False))!r})"
        else:
            left = draw(st.integers(0, n_sites - 2))
            support = (left, left + 1)
            if draw(st.booleans()):
                support = support[::-1]
            gate = draw(st.sampled_from(NAMED_GATE2))
        if busy.setdefault(time, set()).isdisjoint(support):
            busy[time].update(support)
            apps.append(bs.GateApplication(time, support, gate))
    schedule = bs.Schedule(tuple(apps))
    horizon = draw(st.integers(0, schedule.horizon + 1))
    config = bs.ScenarioConfig("random", lattice, initial, schedule, horizon)
    record_sites = tuple(draw(st.permutations(positions))[:2])
    return config, record_sites


@settings(max_examples=120, deadline=None)
@given(experiments())
@example((horizon_cut_config(), (1, 2)))
def test_closed_form_scan_equals_brute_force(case):
    config, record_sites = case
    result = bs.record_chsh_scan(config, record_sites, resolution_deg=45.0)
    for i, theta_a in enumerate(result.angles):
        for j, theta_b in enumerate(result.angles):
            e = bs.record_correlation(config, record_sites, float(theta_a), float(theta_b))
            assert abs(result.e_grid[i, j] - e) <= 1e-12, (i, j)
    assert result.value <= TSIRELSON + 1e-9


@settings(max_examples=120, deadline=None)
@given(experiments())
def test_fine_scan_stays_within_tsirelson(case):
    config, record_sites = case
    result = bs.record_chsh_scan(config, record_sites, resolution_deg=5.0)
    assert result.value <= TSIRELSON + 1e-9


@settings(max_examples=120, deadline=None)
@given(experiments())
def test_stacked_evolution_equals_four_separate_plays(case):
    # the scan plays its four input states as the owners of one table;
    # each state's rows must come out exactly as a play of that state alone
    config, record_sites = case
    base, spos, compiled, _ = bell._experiment_frame(config, record_sites)
    phis = bell._evolved_basis(base, spos, compiled)
    assert phis.bits.shape[1] == base.bits.shape[1]   # no tag columns
    a = gates.apply_columns(base, (spos[0],), bell._J_ACTION)
    inputs = (base, gates.apply_columns(base, (spos[1],), bell._J_ACTION),
              a, gates.apply_columns(a, (spos[1],), bell._J_ACTION))
    for kl, table in enumerate(inputs):
        alone = play_step(table, compiled)
        rows = phis.owner == kl
        assert np.array_equal(phis.bits[rows], alone.bits)
        assert phis.amps[rows].tobytes() == alone.amps.tobytes()
