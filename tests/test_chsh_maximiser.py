"""The O(k^2) CHSH grid maximiser against the cubic loop it replaced.

`max_chsh_from_grid` reads each (b, b') row at the two grid angles that
flank its closed-form peak, and scans the full row only where rounding
could hide the peak.  The cubic loop below scans every row in full.  On
grids built exactly as both scan protocols build them (from drawn
correlator matrices T and Gram matrices G: zero, rank one, entries of
about 1e-13, generic) and on resolutions that do and do not divide 360
degrees, the two must give the same value bit for bit and the same
settings.
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
