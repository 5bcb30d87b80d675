"""Property tests for the compiled evolution path.

Random schedules (at most 6 sites, at most 8 applications) mix one-site
gates with two-site gates in both orientations.  `run_schedule`, which
plays `compile_schedule` steps, must equal the per-gate loop it replaced
term for term, and agree with the dense oracle at every step.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import branchsim as bs
from branchsim import oracle

NAMED_GATE2 = ("U_si", "U_copy", "U_swap")


def per_gate_run(state, schedule, horizon):
    """Reference: one resolved gate and one new state per application."""
    steps = schedule.by_step()
    out = [state]
    for t in range(horizon):
        current = out[-1]
        for app in steps.get(t, ()):
            gate = app.resolved_gate()
            if isinstance(gate, bs.Gate1):
                current = bs.apply_gate1(current, gate, app.sites[0])
            else:
                current = bs.apply_gate2(current, gate, app.sites)
        out.append(current)
    return out


@st.composite
def runs(draw):
    """(initial state, schedule, horizon) on a chain of at most 6 sites."""
    n_sites = draw(st.integers(2, 6))
    # negative field ids, so site ids and lattice positions differ
    lattice = bs.chain_lattice([0], range(1 - n_sites, 0))
    sites = lattice.indices
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    site_states = {}
    for site in sites:  # basis sites keep the state sparse, others grow it
        if draw(st.booleans()):
            site_states[site] = np.eye(2)[draw(st.integers(0, 1))]
        else:
            vec = rng.normal(size=2) + 1j * rng.normal(size=2)
            site_states[site] = vec / np.linalg.norm(vec)
    initial = bs.product_state(lattice, site_states)

    apps, busy = [], {}
    for _ in range(draw(st.integers(0, 8))):
        time = draw(st.integers(0, 4))
        if draw(st.booleans()):
            support = (draw(st.sampled_from(sites)),)
            gate = (oracle.random_gate1(rng) if draw(st.booleans())
                    else f"rot({draw(st.floats(-7.0, 7.0, allow_nan=False))!r})")
        else:
            left = draw(st.integers(0, n_sites - 2))
            support = (sites[left], sites[left + 1])
            if draw(st.booleans()):
                support = support[::-1]
            gate = (draw(st.sampled_from(NAMED_GATE2)) if draw(st.booleans())
                    else oracle.random_gate2(rng))
        if busy.setdefault(time, set()).isdisjoint(support):
            busy[time].update(support)
            apps.append(bs.GateApplication(time, support, gate))
    schedule = bs.Schedule(tuple(apps))
    horizon = draw(st.integers(0, schedule.horizon + 1))
    return initial, schedule, horizon


@settings(max_examples=300, deadline=None)
@given(runs())
def test_compiled_run_equals_per_gate_loop_term_for_term(case):
    initial, schedule, horizon = case
    compiled = bs.run_schedule(initial, schedule, horizon)
    reference = per_gate_run(initial, schedule, horizon)
    assert len(compiled) == len(reference) == horizon + 1
    for t, (a, b) in enumerate(zip(compiled, reference)):
        assert list(a.amplitudes.items()) == list(b.amplitudes.items()), f"step {t}"


@settings(max_examples=300, deadline=None)
@given(runs())
def test_compiled_run_agrees_with_dense_oracle(case):
    initial, schedule, horizon = case
    states = bs.run_schedule(initial, schedule, horizon)
    dense = oracle.dense_run(oracle.densify(initial), schedule, horizon)
    assert len(states) == len(dense)
    for t, (s, d) in enumerate(zip(states, dense)):
        assert abs(oracle.dense_overlap(oracle.densify(s), d) - 1.0) <= 1e-10, f"step {t}"
        assert abs(bs.norm(s) - 1.0) <= 1e-12, f"step {t}"
