"""Classical gates played in place.

`U_si`, `U_copy`, `U_swap` and `I` are permutations whose coefficients
are all exactly 1, which `ColumnAction.classical` records.
`schedule.play_step` moves the bits of a run of them in place on one
copy (`gates.move_bits`) and carries the amplitudes over once, with
``0.0 +`` and one prune.  The result must be the table that playing the
same pairs gate by gate with `apply_columns` gives, bit for bit: bits,
amplitude bytes down to the sign of zero, and owners, a one-state
table's zero-stride owner included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchsim as bs
from branchsim import bell, gates, oracle, schedule
from branchsim.lattice import PRUNE_EPS, TermTable

CLASSICAL = {name: bs.gate_by_name(name).action for name in ("U_si", "U_copy", "U_swap", "I")}

#: Actions that are not classical: permutations with a sign (`bell`'s J,
#: a swap with -1 on |11>) or a phase (S), and real and Haar mixing.
OTHERS = {
    "J": bell._J_ACTION,
    "signed_swap": gates.column_action(np.diag([1.0, 1.0, 1.0, -1.0])
                                       @ bs.field_swap_gate().matrix),
    "S": gates.column_action(np.diag([1.0, 1j])),
    "H": bs.hadamard_gate().action,
    "rot": bs.rotation_gate(0.7).action,
    "random": oracle.random_gate2(np.random.default_rng(3)).action,
}

#: Amplitude parts: signed zeros, halves, parts that put a modulus just
#: below, at or just above PRUNE_EPS, and others.
components = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, PRUNE_EPS, -PRUNE_EPS, 7e-15, -7e-15,
                     7.1e-15, 0.99 * PRUNE_EPS]),
    st.floats(-1.0, 1.0, allow_nan=False))


@st.composite
def tables(draw):
    """A table of 1 to 4 owners on 1 to 6 sites, of up to 8 rows each
    (none at all included); one owner keeps the zero-stride owner column
    of a single state."""
    n_sites = draw(st.integers(1, 6))
    n_owners = draw(st.sampled_from([1, 1, 2, 4]))
    rows, owners = [], []
    for owner in range(n_owners):
        mine = draw(st.lists(st.lists(st.integers(0, 1), min_size=n_sites, max_size=n_sites),
                             max_size=8, unique_by=tuple))
        rows += mine
        owners += [owner] * len(mine)
    amps = np.array([complex(draw(components), draw(components)) for _ in rows])
    bits = np.array(rows, dtype=np.uint8).reshape(len(rows), n_sites)
    if n_owners == 1:
        return TermTable(bits, amps)
    return TermTable(bits, amps, np.array(owners, dtype=np.intp))


@st.composite
def steps(draw, n_sites):
    """Up to 10 (positions, action) pairs, classical ones mostly, broken
    now and then by another gate; positions are any distinct sites."""
    pairs = []
    for _ in range(draw(st.integers(0, 10))):
        names = CLASSICAL if draw(st.integers(0, 3)) else OTHERS
        action = names[draw(st.sampled_from(sorted(names)))]
        width = action.row_bits.shape[1]
        if width > n_sites:
            continue
        positions = draw(st.permutations(range(n_sites)))[:width]
        pairs.append((tuple(positions), action))
    return pairs


def gate_by_gate(table, step):
    for positions, action in step:
        table = gates.apply_columns(table, positions, action)
    return table


def assert_same(ours, theirs):
    assert ours.bits.shape == theirs.bits.shape
    assert ours.bits.tobytes() == theirs.bits.tobytes()
    assert ours.amps.tobytes() == theirs.amps.tobytes()
    assert ours.owner.tobytes() == theirs.owner.tobytes()
    assert (ours.owner.strides == (0,)) == (theirs.owner.strides == (0,))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_played_step_equals_apply_columns_gate_by_gate(data):
    table = data.draw(tables())
    step = data.draw(steps(table.bits.shape[1]))
    assert_same(schedule.play_step(table, step), gate_by_gate(table, step))


def test_the_classical_flag_is_read_from_the_matrix():
    assert all(action.classical and (action.counts == 1).all() for action in CLASSICAL.values())
    assert not any(action.classical for action in OTHERS.values())
    assert all((OTHERS[name].counts == 1).all() for name in ("J", "signed_swap", "S"))
    assert bs.rotation_gate(0.0).action.classical          # exactly the identity
    assert not bs.rotation_gate(2 * math.pi).action.classical   # -1 on the diagonal


def test_a_classical_run_makes_no_apply_columns_call(monkeypatch):
    calls = []
    original = schedule.apply_columns
    monkeypatch.setattr(schedule, "apply_columns",
                        lambda *args: calls.append(args[2]) or original(*args))
    config = bs.scenario_epr()
    compiled = schedule.compile_schedule(config.schedule, config.lattice)
    flat = [pair for step in compiled for pair in step]
    table = schedule.play_step(config.initial.table, flat)
    assert calls == []
    assert_same(table, gate_by_gate(config.initial.table, flat))
    h = bs.hadamard_gate().action
    schedule.play_step(table, flat[:2] + [((1,), h)] + flat[2:])
    assert calls == [h]


def test_signed_zeros_and_dust_come_out_as_gate_by_gate():
    # -0.0 parts become +0.0; a modulus below PRUNE_EPS is dropped, one at
    # PRUNE_EPS kept
    bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    amps = np.array([complex(-0.0, 0.6), complex(0.8, -0.0), complex(-0.0, -0.0) + 7e-15j,
                     complex(PRUNE_EPS, -0.0)])
    table = TermTable(bits, amps)
    step = [((0, 1), CLASSICAL["U_swap"]), ((1,), CLASSICAL["I"]),
            ((1, 0), CLASSICAL["U_si"])]
    ours = schedule.play_step(table, step)
    assert_same(ours, gate_by_gate(table, step))
    assert len(ours) == 3 and ours.owner.strides == (0,)
    assert not np.signbit(ours.amps.real).any() and not np.signbit(ours.amps.imag).any()


@pytest.mark.parametrize("name", sorted(OTHERS))
def test_a_run_broken_by_another_gate_equals_gate_by_gate(name):
    rng = np.random.default_rng(11)
    codes = rng.choice(16, 6, replace=False)
    bits = ((codes[:, None] >> np.arange(3, -1, -1)) & 1).astype(np.uint8)
    parts = rng.normal(size=(6, 2))
    parts[::3] = -0.0
    table = TermTable(bits, parts[:, 0] + 1j * parts[:, 1], np.array([0, 0, 1, 1, 2, 3]))
    other = OTHERS[name]
    where = (2,) if other.row_bits.shape[1] == 1 else (2, 1)
    step = [((0, 1), CLASSICAL["U_copy"]), ((3, 2), CLASSICAL["U_swap"]), (where, other),
            ((1, 3), CLASSICAL["U_si"]), ((0,), CLASSICAL["I"])]
    assert_same(schedule.play_step(table, step), gate_by_gate(table, step))
