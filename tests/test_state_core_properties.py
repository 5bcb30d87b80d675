"""Property tests for the array state core.

States are stored as a term-ordered bit matrix plus an amplitude vector,
and gates act on those arrays.  The dict-of-tuples core they replaced is
kept here as the reference: `dict_column_action`, `dict_apply_columns`
and `dict_product_state` are the old loops.  Every result must equal the
reference term for term, in order and value, down to the sign of zero.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchsim as bs
from branchsim import bell, gates, oracle
from branchsim.lattice import PRUNE_EPS, TermTable, complex_product

NAMED_GATE2 = ("U_si", "U_copy", "U_swap")


# ---------------------------------------------------------------------------
# the dict reference
# ---------------------------------------------------------------------------

def dict_column_action(matrix):
    dim = matrix.shape[0]
    return [
        [(i, complex(matrix[i, j])) for i in range(dim) if abs(matrix[i, j]) != 0.0]
        for j in range(dim)
    ]


def dict_apply_columns(amps, positions, action):
    out = {}
    if len(positions) == 1:
        (p,) = positions
        for bits, amp in amps.items():
            for i, coeff in action[bits[p]]:
                nb = bits[:p] + (i,) + bits[p + 1:]
                out[nb] = out.get(nb, 0j) + coeff * amp
    else:
        pa, pb = positions
        for bits, amp in amps.items():
            for i, coeff in action[2 * bits[pa] + bits[pb]]:
                nb = list(bits)
                nb[pa], nb[pb] = i >> 1, i & 1
                nb = tuple(nb)
                out[nb] = out.get(nb, 0j) + coeff * amp
    return {b: a for b, a in out.items() if abs(a) >= PRUNE_EPS}


def dict_product_state(lattice, site_states):
    amps = {(): 1 + 0j}
    for site_id in lattice.indices:
        vec = np.asarray(site_states[site_id], dtype=complex).reshape(-1)
        amps = {
            bits + (b,): amp * vec[b]
            for bits, amp in amps.items()
            for b in (0, 1)
            if abs(vec[b]) >= PRUNE_EPS
        }
    return bs.PureState(lattice, amps)


def assert_same_terms(state, reference: dict):
    """Equal term lists, and equal amplitude bits (0.0 and -0.0 differ)."""
    items = list(state.amplitudes.items())
    assert items == list(reference.items())
    got = np.array([a for _, a in items], dtype=complex)
    want = np.array(list(reference.values()), dtype=complex)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def random_vector(rng):
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    return vec / np.linalg.norm(vec)


@st.composite
def product_states(draw, max_sites=130, max_superposed=6):
    """(lattice, site states) with at most `max_superposed` sites in
    superposition; some of them carry a dust component below PRUNE_EPS."""
    n_sites = draw(st.integers(1, max_sites))
    lattice = bs.chain_lattice([0], range(1, n_sites))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    superposed = set(draw(st.lists(st.integers(0, n_sites - 1),
                                   max_size=max_superposed, unique=True)))
    site_states = {}
    for site in lattice.indices:
        kind = draw(st.sampled_from(["complex", "real", "dust"])) if site in superposed else ""
        if not kind:
            site_states[site] = np.eye(2)[int(rng.integers(2))]
        elif kind == "complex":
            site_states[site] = random_vector(rng)
        elif kind == "real":  # signed real components: products carry signed zeros
            vec = rng.normal(size=2)
            site_states[site] = vec / np.linalg.norm(vec)
        else:  # one component below PRUNE_EPS: that bit is never written
            dust = draw(st.sampled_from([1e-15, 3e-16, 9.9e-15]))
            vec = np.array([1.0, dust]) if rng.random() < 0.5 else np.array([dust, 1.0])
            site_states[site] = vec * np.exp(1j * rng.uniform(0, 6.3))
    return lattice, site_states


def random_monomial(rng, dim):
    """A permutation matrix with random phases, or random signs: one
    entry per column."""
    m = np.zeros((dim, dim), dtype=complex)
    phases = (np.exp(1j * rng.uniform(0, 6.3, dim)) if rng.random() < 0.5
              else rng.choice([-1.0, 1.0], dim))
    m[rng.permutation(dim), np.arange(dim)] = phases
    return m


@st.composite
def gate_matrices(draw, n_sites):
    """A one- or two-site gate matrix: named permutations, phased
    permutations, rotations (some by angles that leave dust), Haar-ish."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = 2 ** n_sites
    kind = draw(st.sampled_from(["named", "monomial", "dense", "rotation"]))
    if kind == "named":
        names = NAMED_GATE2 if n_sites == 2 else ("H", "I")
        return bs.gate_by_name(draw(st.sampled_from(names))).matrix
    if kind == "monomial":
        return random_monomial(rng, dim)
    if kind == "dense" or n_sites == 2:
        return oracle.random_unitary(dim, rng)
    theta = draw(st.sampled_from([np.pi / 2, np.pi, 1e-15, 2e-14, 0.7]))
    return bs.rotation_gate(theta).matrix


@st.composite
def gate_runs(draw):
    """(initial state, [(positions, matrix), ...]) on up to 7 sites: each
    gate may be followed by its inverse, which merges terms back and
    leaves dust for pruning."""
    lattice, site_states = draw(product_states(max_sites=7, max_superposed=4))
    n = lattice.n_sites
    plays = []
    for _ in range(draw(st.integers(1, 6))):
        width = 1 if n == 1 else draw(st.integers(1, 2))
        if width == 1:
            positions = (draw(st.integers(0, n - 1)),)
        else:  # either orientation, not necessarily adjacent
            positions = tuple(draw(st.permutations(range(n)))[:2])
        matrix = draw(gate_matrices(width))
        plays.append((positions, matrix))
        if draw(st.booleans()):
            plays.append((positions, matrix.conj().T))
    return bs.product_state(lattice, site_states), plays


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(product_states())
def test_product_state_equals_dict_loop(case):
    lattice, site_states = case
    state = bs.product_state(lattice, site_states)
    reference = dict_product_state(lattice, site_states)
    assert_same_terms(state, dict(reference.amplitudes))
    assert state.table.bits.shape == (state.n_terms, lattice.n_sites)


def loop_product_table(lattice, site_states):
    """`product_state`'s table as its loop built it before it skipped
    unit factors: every one-valued site multiplies every term."""
    vecs = np.array([site_states[i] for i in lattice.indices], dtype=complex)
    kept = np.hypot(vecs.real, vecs.imag) >= PRUNE_EPS
    re, im, rows = np.ones(1), np.zeros(1), np.zeros((1, 0), dtype=np.uint8)
    for p, vec in enumerate(vecs):
        bits = np.flatnonzero(kept[p])
        if len(bits) == 2:
            re, im = complex_product(re[:, None], im[:, None], vec.real, vec.imag)
            re, im = re.ravel(), im.ravel()
        else:
            re, im = complex_product(re, im, vec[bits[0]].real, vec[bits[0]].imag)
        rows = np.column_stack([np.repeat(rows, len(bits), axis=0),
                                np.tile(bits, len(rows)).astype(np.uint8)])
    return TermTable.pruned(rows, re, im)


#: One-valued site vectors whose factor is +-1, +-i or 1 with either
#: signed zero, |+>, |->, and phases: products of them carry -0.0 parts.
SIGNED_SITES = ([1, 0], [complex(1, -0.0), 0], [0, 1], [0, complex(1, -0.0)],
                [-1, 0], [0, complex(-1, 0.0)], [1j, 0], [-1j, 0], [0, complex(-0.0, 1)],
                [0, complex(0, -1)], [complex(-0.0, -1), 0])


@st.composite
def signed_site_lists(draw):
    n_sites = draw(st.integers(1, 24))
    r = 0.7071067811865475
    signed = st.sampled_from(SIGNED_SITES)
    kinds = st.one_of(signed, signed, signed,
                      st.sampled_from([[r, r], [r, -r], [r, complex(0, r)], [complex(-0.0, r), r]]),
                      st.floats(0.0, 6.3).map(lambda phi: [0, complex(np.exp(1j * phi))]),
                      st.floats(0.0, 6.3).map(lambda phi: [complex(np.exp(1j * phi)), 0]))
    sites = draw(st.lists(kinds, min_size=n_sites, max_size=n_sites))
    superposed = [i for i, vec in enumerate(sites) if all(abs(c) > 0 for c in vec)]
    for i in superposed[6:]:       # at most 2^6 terms
        sites[i] = [1, 0]
    return sites


@settings(max_examples=300, deadline=None)
@given(signed_site_lists())
def test_product_state_skips_unit_factors_exactly(sites):
    # every prefix of the list, so that a signed zero met early is also
    # checked before later factors can cover it
    for n_sites in range(1, len(sites) + 1):
        lattice = bs.chain_lattice([0], range(1, n_sites))
        site_states = dict(enumerate(sites[:n_sites]))
        table = bs.product_state(lattice, site_states).table
        reference = loop_product_table(lattice, site_states)
        assert table.bits.tobytes() == reference.bits.tobytes()
        assert table.amps.tobytes() == reference.amps.tobytes()


def test_product_state_skips_unit_factors_exactly_on_every_triple():
    lattice = bs.chain_lattice([0], [1, 2])
    for sites in itertools.product(SIGNED_SITES, repeat=3):
        table = bs.product_state(lattice, dict(enumerate(sites))).table
        reference = loop_product_table(lattice, dict(enumerate(sites)))
        assert table.amps.tobytes() == reference.amps.tobytes(), sites


def test_a_unit_factor_after_a_signed_zero_is_multiplied():
    # (-1)(+i) = -0 - i: times 1 + 0j the real part becomes +0.0
    lattice = bs.chain_lattice([0], [1, 2])
    state = bs.product_state(lattice, {0: [-1, 0], 1: [1j, 0], 2: [1, 0]})
    (amp,) = state.table.amps
    assert math.copysign(1.0, amp.real) == 1.0 and amp.imag == -1.0


@settings(max_examples=400, deadline=None)
@given(gate_runs())
def test_apply_columns_equals_dict_loop(case):
    state, plays = case
    table, amps = state.table, dict(state.amplitudes)
    for positions, matrix in plays:
        table = gates.apply_columns(table, positions, gates.column_action(matrix))
        amps = dict_apply_columns(amps, positions, dict_column_action(matrix))
        assert_same_terms(bs.PureState(state.lattice, table), amps)
    assert bs.norm(bs.PureState(state.lattice, table)) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(gate_runs())
def test_norm_adds_in_term_order(case):
    state, plays = case
    for positions, matrix in plays:
        width = len(positions)
        sites = tuple(state.lattice.indices[p] for p in positions)
        state = (bs.apply_gate1(state, bs.Gate1("g", matrix), sites[0]) if width == 1
                 else bs.apply_gate2(state, bs.Gate2("g", matrix), sites))
    expected = sum(a.real * a.real + a.imag * a.imag for a in state.amplitudes.values())
    assert bs.norm(state) == float(expected)


@st.composite
def long_chain_runs(draw):
    """A record spreading down a chain of up to 130 sites from a few
    superposed sites, with brickwork copies and swaps."""
    lattice, site_states = draw(product_states(max_sites=130, max_superposed=5))
    n = lattice.n_sites
    apps = []
    for t in range(draw(st.integers(0, 4))):
        for left in range(t % 2, n - 1, 2):
            pair = lattice.indices[left], lattice.indices[left + 1]
            if draw(st.booleans()):
                pair = pair[::-1]
            apps.append(bs.GateApplication(t, pair, draw(st.sampled_from(NAMED_GATE2))))
    if n > 1 and draw(st.booleans()):  # one dense gate makes merges possible
        left = draw(st.integers(0, n - 2))
        apps.append(bs.GateApplication(
            4, lattice.indices[left:left + 2],
            bs.Gate2("dense", oracle.random_unitary(4, np.random.default_rng(left)))))
    return bs.product_state(lattice, site_states), bs.Schedule(tuple(apps))


@settings(max_examples=60, deadline=None)
@given(long_chain_runs())
def test_run_schedule_equals_dict_loop_on_long_chains(case):
    initial, schedule = case
    states = bs.run_schedule(initial, schedule)
    steps = schedule.by_step()
    amps = dict(initial.amplitudes)
    for t in range(schedule.horizon):
        for app in steps.get(t, ()):
            positions = tuple(initial.lattice.position(s) for s in app.sites)
            amps = dict_apply_columns(amps, positions,
                                      dict_column_action(app.resolved_gate().matrix))
        assert_same_terms(states[t + 1], amps)


@settings(max_examples=100, deadline=None)
@given(gate_runs(), st.data())
def test_record_reading_equals_dict_loop(case, data):
    state, _ = case
    n = state.lattice.n_sites
    if n < 2:
        return
    pa, pb = data.draw(st.permutations(range(n)))[:2]
    e = 0.0
    for bits, amp in state.amplitudes.items():
        w = amp.real * amp.real + amp.imag * amp.imag
        e += w if bits[pa] == bits[pb] else -w
    identity = gates.column_action(np.eye(2))
    assert bell._run_one(state.table, (0, 0), [], (pa, pb), identity, identity) == e


def test_basis_strings_are_still_validated():
    lattice = bs.chain_lattice([0], [1, 2])
    with pytest.raises(bs.StateError):
        bs.PureState(lattice, {"012": 1})
    with pytest.raises(bs.StateError):
        bs.PureState(lattice, {"01": 1})
    with pytest.raises(bs.StateError):
        bs.PureState(lattice, {(0, 1, 2): 1})


def test_amplitude_view_is_built_once_and_sized_without_it():
    state = bs.scenario_single(0.6, 0.8, 8).run()[-1]
    view = state.amplitudes
    assert len(view) == state.n_terms == 2
    assert view._dict is None              # len needs no dict
    built = view._map()
    assert dict(view) == built and view.get((1,) + (0,) * 8) == 0.8 + 0j
    assert view._map() is built
    with pytest.raises(TypeError):
        view[(0,) * 9] = 1.0
    with pytest.raises(ValueError):
        state.table.bits[0, 0] = 1          # the arrays are read-only


@settings(max_examples=150, deadline=None)
@given(gate_runs(), st.data())
def test_sample_measurement_equals_dict_loop(case, data):
    state, _ = case
    site = data.draw(st.sampled_from(state.lattice.indices))
    theta = data.draw(st.sampled_from([0.0, 0.3, np.pi / 2]))
    seed = data.draw(st.integers(0, 2 ** 16))
    setting = bs.MeasurementSetting(site, theta)

    rng = np.random.default_rng(seed)
    rotated = bs.apply_gate1(state, bs.rotation_gate(theta), site) if theta else state
    pos = state.lattice.position(site)
    p1 = sum(a.real * a.real + a.imag * a.imag
             for bits, a in rotated.amplitudes.items() if bits[pos] == 1)
    outcome = 1 if rng.random() < p1 else 0
    scale = 1.0 / math.sqrt(p1 if outcome == 1 else 1.0 - p1)
    collapsed = bs.PureState(state.lattice, {
        bits: a * scale for bits, a in rotated.amplitudes.items() if bits[pos] == outcome})
    if theta:
        collapsed = bs.apply_gate1(collapsed, bs.rotation_gate(-theta), site)

    got_outcome, post = bs.sample_measurement(state, setting, seed)
    assert got_outcome == outcome
    assert_same_terms(post, dict(collapsed.amplitudes))


@settings(max_examples=150, deadline=None)
@given(gate_runs())
def test_branch_weights_equal_dict_loop(case):
    state, _ = case
    decomp = bs.branch_decompose(state)
    branched = sorted({s for b in decomp.branches for s in b.support})
    bpos = [state.lattice.position(s) for s in branched]
    merged = {}
    for bits, amp in state.amplitudes.items():
        key = tuple(bits[p] for p in bpos)
        merged[key] = merged.get(key, 0.0) + (amp.real * amp.real + amp.imag * amp.imag)
    merged = {key: w for key, w in merged.items() if w > decomp.tolerance}
    total = sum(merged.values())
    assert [b.weight for b in decomp.branches] == [w / total for _, w in sorted(merged.items())]
