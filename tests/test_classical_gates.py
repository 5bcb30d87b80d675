"""Classical gates played in place, one layer at a time.

`U_si`, `U_copy`, `U_swap` and `I` are permutations whose coefficients
are all exactly 1, which `ColumnAction.classical` records, and so is
any other such permutation, such as X or a swap read from a config's
inline matrix.  `schedule.play_step` cuts a run of them into *layers*,
stretches of gates on pairwise disjoint positions, and carries the
amplitudes over once, with ``0.0 +`` and one prune.  A run whose layers
hold `schedule.LAYER_GATES` gates or more on average is played on a
transposed copy of the bits, one pass of `gates.move_layer` per layer;
any other run is played gate by gate on a copy of the bits.  Either way
the result must be the table that playing the same pairs gate by gate
with `apply_columns` gives, bit for bit: bits, amplitude bytes down to
the sign of zero, and owners, a one-state table's zero-stride owner
included.

The layer tests draw runs of up to four layers of up to 16 gates on up
to 34 sites: all 24 two-site permutations and the one-site I and X, read
from inline config matrices, on shuffled sites, so pairs come reversed
and non-adjacent, and each layer's gates read the bits the layer before
wrote.  A layering that ignores overlaps fails them.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchsim as bs
from branchsim import bell, cli, gates, oracle, schedule
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


def inline_action(matrix):
    """The action of a gate read from a config's inline matrix of
    [re, im] pairs: a 2x2 matrix plays on one site, a 4x4 on two."""
    doc = {"lattice": [{"index": 0, "kind": "field"}, {"index": 1, "kind": "field"}],
           "initial": {"terms": [{"basis": "00", "re": 1.0}]},
           "schedule": [{"time": 0, "sites": [0, 1][:len(matrix) // 2],
                         "gate": [[[float(x), 0.0] for x in row] for row in matrix]}]}
    return bs.config_from_document(json.dumps(doc)).schedule.applications[0].gate.action


def permutation_matrix(perm):
    """The matrix that sends basis state j to basis state perm[j]."""
    matrix = np.zeros((len(perm), len(perm)))
    matrix[list(perm), range(len(perm))] = 1.0
    return matrix


#: All 24 two-site permutation matrices with unit coefficients, and the
#: one-site classical gates, each read from an inline config matrix.
PERMUTATIONS = {perm: inline_action(permutation_matrix(perm))
                for perm in itertools.permutations(range(4))}
ONE_SITE = {"I": inline_action(np.eye(2)), "X": inline_action(permutation_matrix((1, 0)))}


@st.composite
def tables(draw, max_sites=6, max_rows=8):
    """A table of 1 to 4 owners on 1 to `max_sites` sites, of up to
    `max_rows` rows each (none at all included); one owner keeps the
    zero-stride owner column of a single state."""
    n_sites = draw(st.integers(1, max_sites))
    n_owners = draw(st.sampled_from([1, 1, 2, 4]))
    rows, owners = [], []
    for owner in range(n_owners):
        mine = draw(st.lists(st.lists(st.integers(0, 1), min_size=n_sites, max_size=n_sites),
                             max_size=max_rows, unique_by=tuple))
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


@st.composite
def layered_runs(draw, n_sites):
    """1 to 4 layers of up to 16 classical gates each, drawn from
    PERMUTATIONS and ONE_SITE.  A layer's gates sit on consecutive slices
    of a shuffled list of the sites, so they are disjoint, and pairs come
    reversed and non-adjacent; the next layer reshuffles, so its gates
    read bits that the layer before wrote."""
    run = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(range(n_sites)))
        start = 0
        for width in draw(st.lists(st.sampled_from([1, 2, 2, 2]), max_size=16)):
            if start + width > n_sites:
                break
            names = PERMUTATIONS if width == 2 else ONE_SITE
            run.append((tuple(order[start:start + width]),
                        names[draw(st.sampled_from(sorted(names)))]))
            start += width
    return run


def test_inline_permutations_are_classical():
    actions = [*PERMUTATIONS.values(), *ONE_SITE.values()]
    assert len(actions) == 26 and all(action.classical for action in actions)
    # the inline swap and identity have the built-ins' row bits
    assert (PERMUTATIONS[(0, 2, 1, 3)].row_bits == CLASSICAL["U_swap"].row_bits).all()
    assert (ONE_SITE["I"].row_bits == CLASSICAL["I"].row_bits).all()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_layered_run_equals_apply_columns_gate_by_gate(data):
    table = data.draw(tables(max_sites=34, max_rows=12))
    run = data.draw(layered_runs(table.bits.shape[1]))
    assert_same(schedule.play_step(table, run), gate_by_gate(table, run))


def wide_table(n_sites, n_rows, seed):
    """`n_rows` random distinct rows on `n_sites` sites, held by 3 owners."""
    rng = np.random.default_rng(seed)
    bits = np.unique(rng.integers(0, 2, (n_rows, n_sites), dtype=np.uint8), axis=0)
    bits = bits[rng.permutation(len(bits))]
    parts = rng.normal(size=(len(bits), 2))
    owner = np.sort(rng.integers(0, 3, len(bits)))
    return TermTable(bits, parts[:, 0] + 1j * parts[:, 1], owner.astype(np.intp))


@pytest.mark.parametrize("perm", sorted(PERMUTATIONS), ids=str)
def test_each_permutation_in_a_layer_of_16_gates(perm):
    # a layer of 16 gates on 34 sites, its pairs reversed and non-adjacent,
    # then a second that overlaps it, then a lone gate
    table = wide_table(34, 300, sum(perm))
    rng = np.random.default_rng(len(perm))
    run = []
    for _ in range(2):
        order = rng.permutation(34).tolist()
        run += [((order[2 * k], order[2 * k + 1]), PERMUTATIONS[perm]) for k in range(16)]
    run.append(((33, 0), PERMUTATIONS[perm]))
    assert_same(schedule.play_step(table, run), gate_by_gate(table, run))


@pytest.mark.parametrize("block", [1, 7, 64])
def test_a_run_is_played_the_same_in_blocks_of_terms(monkeypatch, block):
    # 300 rows in blocks of `block` terms, the last block short
    monkeypatch.setattr(schedule, "RUN_BLOCK", block)
    table = wide_table(34, 300, 4)
    perms = sorted(PERMUTATIONS)
    run = []
    for shift in range(3):
        order = np.random.default_rng(shift).permutation(34).tolist()
        run += [((order[2 * k], order[2 * k + 1]), PERMUTATIONS[perms[(k + shift) % 24]])
                for k in range(16)]
        run.append(((order[32],), ONE_SITE["X"]))
    assert_same(schedule.play_step(table, run), gate_by_gate(table, run))


def test_one_site_gates_in_layers():
    # X on every site, one layer of 34 gates; then I and X beside two-site gates
    table = wide_table(34, 200, 5)
    run = [((p,), ONE_SITE["X"]) for p in range(34)]
    run += [((0,), ONE_SITE["I"]), ((7, 3), CLASSICAL["U_copy"]), ((1,), ONE_SITE["X"]),
            ((33, 20), CLASSICAL["U_si"]), ((5,), CLASSICAL["I"])]
    assert [len(layer) for layer in schedule._layers(run)] == [34, 5]
    played = schedule.play_step(table, run)
    assert_same(played, gate_by_gate(table, run))
    # X on every site flips every bit
    flipped = schedule.play_step(table, run[:34])
    assert (flipped.bits == 1 - table.bits).all()


def copy_chain(n_sites):
    """U_copy down a chain: each gate reads the bit the one before wrote."""
    return [((p, p + 1), CLASSICAL["U_copy"]) for p in range(n_sites - 1)]


def test_a_later_gate_reads_an_earlier_gates_output():
    table = wide_table(34, 200, 9)
    run = copy_chain(34)
    ours = schedule.play_step(table, run)
    assert_same(ours, gate_by_gate(table, run))
    # each site ends as the parity of itself and every site before it
    assert (ours.bits == np.bitwise_xor.accumulate(table.bits, axis=1)).all()


def test_layers_are_cut_where_an_overlap_starts():
    flat = [pair for step in schedule.compile_schedule(bs.scenario_epr().schedule,
                                                       bs.scenario_epr().lattice)
            for pair in step]
    assert [len(layer) for layer in schedule._layers(flat)] == [2, 2, 1]
    brickwork = [((a, a + 1), CLASSICAL["U_swap"]) for a in range(0, 31, 2)]
    assert [len(layer) for layer in schedule._layers(brickwork)] == [16]
    assert [len(layer) for layer in schedule._layers(brickwork + brickwork)] == [16, 16]
    assert [len(layer) for layer in schedule._layers(copy_chain(34))] == [1] * 33


@pytest.mark.parametrize("check", [
    test_a_later_gate_reads_an_earlier_gates_output,
    lambda: test_each_permutation_in_a_layer_of_16_gates((0, 1, 3, 2)),
    lambda: test_one_site_gates_in_layers(),
], ids=["copy-chain", "permutation-layers", "one-site-layers"])
def test_a_layering_that_ignores_overlaps_fails(monkeypatch, check):
    # every run as one layer: gates that overlap read the bits as the run
    # found them, not as the gate before left them
    monkeypatch.setattr(schedule, "_layers", lambda run: iter([run]))
    with pytest.raises(AssertionError):
        check()


def dense_brickwork() -> dict:
    """16 sites, eight in |+> (256 terms), and 8 steps that each touch
    every site once: brickworks of adjacent pairs, every other one
    reversed, with X and I on the sites a brickwork leaves out, and
    steps of pairs two sites apart, reversed in turn.  The gates cycle
    through U_si, U_copy, U_swap and all 24 inline permutation matrices.
    CI runs the same config with ``run --verify``."""
    r = 0.7071067811865475
    gates_ = ["U_si", "U_copy", "U_swap"] + [
        [[[1.0 if perm[j] == i else 0.0, 0.0] for j in range(4)] for i in range(4)]
        for perm in itertools.permutations(range(4))]
    x = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    schedule = []
    for t in range(8):
        if t % 2 == 0:      # adjacent pairs; an odd offset leaves the two ends
            pairs = [(a, a + 1) if (a + t) % 4 < 2 else (a + 1, a)
                     for a in range(t // 2 % 2, 15, 2)]
            if t // 2 % 2:
                schedule += [{"time": t, "sites": [0], "gate": x},
                             {"time": t, "sites": [15], "gate": "I"}]
        else:               # pairs two sites apart, in blocks of four
            pairs = [(a, a + 2) if (a + t) % 3 else (a + 2, a)
                     for b in range(0, 16, 4) for a in (b, b + 1)]
        for k, (a, b) in enumerate(pairs):
            schedule.append({"time": t, "sites": [a, b],
                             "gate": gates_[(7 * t + 5 * k) % len(gates_)]})
    return {"name": "dense brickwork",
            "lattice": [{"index": s, "kind": "system" if s in (0, 8) else "field"}
                        for s in range(16)],
            "initial": {"product": {str(s): [[r, 0], [r, 0]] if s in (0, 2, 5, 7, 8, 11, 13, 14)
                                    else [[1, 0], [0, 0]] for s in range(16)}},
            "schedule": schedule,
            "horizon": 8}


def test_dense_brickwork_verifies_against_the_dense_engine(tmp_path, monkeypatch, capsys):
    layers = []
    original = schedule.move_layer
    monkeypatch.setattr(schedule, "move_layer",
                        lambda rows, layer: layers.append(len(layer)) or original(rows, layer))
    config = tmp_path / "dense.json"
    config.write_text(json.dumps(dense_brickwork()))
    with pytest.warns(UserWarning, match="non-adjacent"):
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                         "--verify"])
    assert code == 0
    assert "verified against dense engine" in capsys.readouterr().out
    # every step is one layer of 8 or 9 gates, one-site gates included
    assert layers == [8, 8, 9, 8, 8, 8, 9, 8]
