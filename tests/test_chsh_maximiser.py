"""The CHSH grid maximiser against the cubic loop it replaced.

`max_chsh_from_grid` bounds every setting pair (b, b') in closed form,
reads only the pairs whose bound reaches the best value found, and
reads each such row at the two grid angles that flank its closed-form
peak, scanning the full row only where rounding could hide the peak.
The cubic loop below scans every row of every pair in full.  On grids
built exactly as both scan protocols build them (from drawn correlator
matrices T and Gram matrices G: zero, rank one, entries of about 1e-13,
generic), on resolutions that do and do not divide 360 degrees, and on
angles that are not equal steps from 0, the two must give the same
value bit for bit and the same settings.  The bound must be at least
the cand that the cubic loop computes for every pair.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import branchsim as bs
from branchsim import analysis, bell


def cubic_max_chsh(angles, e_grid):
    """The reference: for each b' every row of E[a,b] -+ E[a,b'] in full,
    first index on ties within a row, first (b', b) in b'-major order."""
    k = len(angles)
    et = np.ascontiguousarray(e_grid.T)   # et[j, a] = E[a, j]: rows are contiguous
    d = np.empty_like(et)
    s = np.empty_like(et)
    rows = np.arange(k)
    best = -math.inf
    best_idx = (0, 0, 0, 0)
    for jp in range(k):  # j' column against all j at once
        np.subtract(et, et[jp], out=d)   # d[j, a]  = E[a,j] - E[a,j']
        np.add(et, et[jp], out=s)        # s[j, a'] = E[a',j] + E[a',j']
        ia = d.argmax(axis=1)
        iap = s.argmax(axis=1)
        cand = d[rows, ia] + s[rows, iap]
        j = int(cand.argmax())
        if cand[j] > best:
            best = float(cand[j])
            best_idx = (int(ia[j]), int(iap[j]), j, jp)
    ia, iap, j, jp = best_idx
    return best, (float(angles[ia]), float(angles[iap]), float(angles[j]), float(angles[jp]))


def cubic_cands(e_grid):
    """cand[b', b] = max_a (E[a,b] - E[a,b']) + max_a' (E[a',b] + E[a',b']),
    rounded as the cubic loop rounds it."""
    et = np.ascontiguousarray(e_grid.T)
    return np.array([(et - row).max(axis=1) + (et + row).max(axis=1) for row in et])


def assert_same_as_cubic(angles, e_grid, coeffs):
    value, chosen = analysis.max_chsh_from_grid(angles, e_grid, coeffs)
    ref_value, ref_chosen = cubic_max_chsh(angles, e_grid)
    assert value.hex() == ref_value.hex()
    assert chosen == ref_chosen


def matrices(n, symmetric=False):
    """n x n matrices: zero, rank one, entries of about 1e-13, or generic;
    symmetric ones also c I."""
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    vectors = st.lists(entries, min_size=n, max_size=n).map(np.array)
    generic = st.lists(entries, min_size=n * n, max_size=n * n).map(
        lambda v: np.array(v).reshape(n, n))
    if symmetric:
        generic = generic.map(lambda m: (m + m.T) / 2.0)
        rank_one = st.tuples(vectors, st.sampled_from([1.0, -1.0])).map(
            lambda vs: vs[1] * np.outer(vs[0], vs[0]))
    else:
        rank_one = st.tuples(vectors, vectors).map(lambda vs: np.outer(*vs))
    families = [st.just(np.zeros((n, n))), rank_one,
                generic.map(lambda m: m * 1e-13), generic]
    if symmetric:
        # G = c I makes every record grid entry c (v0^2 + v1^2)^2: constant
        # but for rounding, so every row is flat
        families.append(entries.map(lambda c: c * np.eye(n)))
    return st.one_of(*families)


# k <= 360; 7 and 11 degrees leave a short last gap (3 and 8 degrees)
resolutions = st.one_of(st.sampled_from([7.0, 11.0, 1.0, 2.0, 10.0, 15.0, 30.0, 90.0]),
                        st.floats(1.0, 90.0))


@settings(max_examples=60, deadline=None)
@given(matrices(2), resolutions)
@example(np.zeros((2, 2)), 7.0)
@example(np.array([[-1.0, 0.0], [0.0, 1.0]]), 11.0)
# rank one: rows of mirror pairs b, b' are flat, and maxima tie among them
@example(np.array([[4.0, 2.0], [2.0, 1.0]]), 30.0)
@example(np.array([[-1.0, 2.0], [0.0, 0.0]]), 10.0)
def test_state_protocol_grid(t, resolution):
    angles = analysis.scan_angles(resolution)
    assert_same_as_cubic(angles, *analysis.correlation_grid(t, angles))


@settings(max_examples=60, deadline=None)
@given(matrices(4, symmetric=True), resolutions)
@example(np.zeros((4, 4)), 11.0)
@example(np.diag([1.0, -1.0, -1.0, 1.0]), 7.0)
@example(np.eye(4), 15.0)
def test_record_protocol_grid(g, resolution):
    angles = analysis.scan_angles(resolution)
    assert_same_as_cubic(angles, *bell.record_grid(g, angles))


@pytest.mark.parametrize("factory, resolution, sites", [
    (bs.scenario_epr, 7.0, [(2, 3), (1, 4), (0, 5)]),
    (bs.scenario_collision, 7.0, [(2, 3), (1, 4), (0, 5)]),
    (bs.scenario_epr, 0.7, [(2, 3)]),
])
def test_scenario_scans(factory, resolution, sites):
    # 0.7 degrees: 515 angles, the last gap 0.2 degrees wide; sites (1, 4)
    # give constant record grids, so every row of those is flat
    config = factory()
    final = config.run()[-1]
    for a, b in sites:
        for result in (bs.record_chsh_scan(config, (a, b), resolution),
                       bs.chsh_grid_max(final, a, b, resolution)):
            ref_value, ref_chosen = cubic_max_chsh(result.angles, result.e_grid)
            assert result.value.hex() == ref_value.hex()
            assert result.settings == ref_chosen


@pytest.mark.parametrize("seed", range(4))
def test_wrong_coefficients_cost_time_not_the_result(seed):
    # a grid of no closed form, given coefficients that do not describe it
    rng = np.random.default_rng(seed)
    angles = analysis.scan_angles(10.0)
    e_grid = rng.normal(size=(len(angles), len(angles)))
    assert_same_as_cubic(angles, e_grid, rng.normal(size=(3, len(angles))))


def assert_bound_holds(angles, e_grid, coeffs):
    """Every pair's bound is a number, and at least the pair's cand."""
    eps = analysis._column_slack(angles, e_grid, coeffs)
    columns = analysis._bound_columns(coeffs, eps)
    bound = analysis._pair_bounds(coeffs, columns, np.arange(len(angles)))
    cand = cubic_cands(e_grid)
    assert not np.isnan(bound).any()
    short = np.argwhere(bound < cand)
    assert len(short) == 0, [(bp, b, bound[bp, b], cand[bp, b]) for bp, b in short[:5]]


@settings(max_examples=40, deadline=None)
@given(matrices(2), resolutions)
def test_bound_holds_on_state_protocol_grids(t, resolution):
    angles = analysis.scan_angles(resolution)
    assert_bound_holds(angles, *analysis.correlation_grid(t, angles))


@settings(max_examples=40, deadline=None)
@given(matrices(4, symmetric=True), resolutions)
@example(np.eye(4), 15.0)
def test_bound_holds_on_record_protocol_grids(g, resolution):
    # record grids have c0 != 0, so the bound's 2 c0_b term matters
    angles = analysis.scan_angles(resolution)
    assert_bound_holds(angles, *bell.record_grid(g, angles))


@pytest.mark.parametrize("seed", range(4))
def test_bound_holds_with_wrong_coefficients(seed):
    # only the measured slack eps makes these bounds hold
    rng = np.random.default_rng(seed)
    angles = analysis.scan_angles(10.0)
    e_grid = rng.normal(size=(len(angles), len(angles)))
    assert_bound_holds(angles, e_grid, rng.normal(size=(3, len(angles))))


def test_pair_whose_bound_meets_the_floor_is_read():
    # column 0 is zero, the others -1: cand(0, b') = 0 for every b' is the
    # maximum, and the first such pair, (0, 0), has a bound of exactly 0
    angles = analysis.scan_angles(30.0)
    k = len(angles)
    e_grid = np.full((k, k), -1.0)
    e_grid[:, 0] = 0.0
    coeffs = np.zeros((3, k))
    coeffs[0, 1:] = -1.0
    assert_same_as_cubic(angles, e_grid, coeffs)
    assert analysis.max_chsh_from_grid(angles, e_grid, coeffs)[1] == (0.0, 0.0, 0.0, 0.0)


@st.composite
def uneven_angles(draw):
    """Angles that are not equal steps from 0: sorted draws in [0, 2 pi),
    an even grid shifted off 0, or an even grid reversed."""
    kind = draw(st.sampled_from(["sorted", "offset", "reversed"]))
    if kind == "sorted":
        seed = draw(st.integers(0, 2 ** 32 - 1))
        return np.sort(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, 50))
    angles = analysis.scan_angles(draw(st.sampled_from([7.0, 10.0, 15.0])))
    if kind == "offset":
        return angles + draw(st.floats(1e-3, 0.5))
    return angles[::-1].copy()


@settings(max_examples=40, deadline=None)
@given(uneven_angles(), st.one_of(matrices(2), matrices(4, symmetric=True)))
def test_uneven_angles(angles, m):
    grid = analysis.correlation_grid(m, angles) if len(m) == 2 else bell.record_grid(m, angles)
    assert_same_as_cubic(angles, *grid)


@pytest.mark.parametrize("seed", range(3))
def test_sorted_random_angles_read_every_row(seed):
    # flanks found by floor(phi / angles[1]) missed the peak on such grids:
    # seed 0 gave 2.77819 where the full scan gives 2.78980
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, 50))
    t = rng.uniform(-1.0, 1.0, size=(2, 2))
    assert_same_as_cubic(angles, *analysis.correlation_grid(t, angles))
