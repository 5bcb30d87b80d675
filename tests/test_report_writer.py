"""Property tests for the report's JSON text, its site rows and its
streamed steps.

A report's `report.json` must give the bytes of ``json.dumps(doc,
sort_keys=True, indent=2)`` and a newline for the document the run
describes, for scenario configs and for configs written by `json.dumps`
whose names, lattices and correlation analyses carry awkward values.
`_SiteRows.chunk` must render each site row as `json.dumps` does once
every value is rounded by `_g12` alone, down to the sign bit.  A
streamed report must give, step by step, the text and CSV rows
that the whole-document assembly it replaced gave: `reference_report`
below keeps that assembly, `_site_records` its site block, and
`entry_loop_sites` the per-entry loop before that.  The branch and
cluster blocks, rendered from the branch and cluster tables by
`_BranchRows`, must give the text of the records that the `Branch`
objects and the per-cluster dict loop gave: `reference_branches`,
`_branch_clusters` and `_branch_item` below keep that loop.  Embedded
states, rendered a chunk at a time by `_state_texts`, must give the
text of the dict per term that `conftest.terms_to_json` builds.
"""

import itertools
import json
import math
import struct
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import branchsim as bs
from branchsim import reporting
from branchsim.analysis import (BRANCH_TOL, BlockAnalysis, Branch, BranchClusters,
                                BranchDecomposition, Cluster, MeasurementSetting,
                                SiteMarginals)
from branchsim.lattice import StateBlock, lattice_to_json, norm
from branchsim.reporting import EMBED_TERMS_LIMIT, _g12, build_report, write_report
from conftest import terms_to_json


def reference_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


SPECIAL_TEXT = ("", "é", "é中\U0001f600", '"', "\\", "\x00\x1f\x7f",
                "\n\t\r\b\f", "\ud800", "a \"quoted\" \\ path")

texts = st.text(max_size=8) | st.sampled_from(SPECIAL_TEXT)
#: Values a config may hold under a correlation analysis's extra keys.
json_values = st.recursive(
    st.none() | st.booleans() | texts
    | st.integers() | st.sampled_from([2 ** 63, -2 ** 63 - 1, 2 ** 64 + 1, 10 ** 30])
    | st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e22, math.nan, math.inf]),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(texts, children, max_size=3),
    max_leaves=10)
CORRELATION_KEYS = ("type", "site_a", "site_b", "theta_a", "theta_b")
angles = (st.integers(-7, 7) | st.sampled_from([2 ** 63, 2 ** 64, -2 ** 64])
          | st.floats(-7.0, 7.0) | st.sampled_from([0.0, -0.0, 1e-300, 1e300]))
R = 0.7071067811865475


@st.composite
def json_configs(draw) -> str:
    """An explicit config as `json.dumps` writes it: two to five sites
    whose indices may be negative, a product start, a brickwork of the
    three interactions, a name that may hold quotes, escapes or text
    outside ASCII, and any of the named analyses with up to two
    correlations, whose angles are ints or floats (or left out) and whose
    extra keys hold any JSON value."""
    start = draw(st.integers(-6, 1))
    indices = list(range(start, start + draw(st.integers(2, 5))))
    horizon = draw(st.integers(0, 3))
    vectors = st.sampled_from([[1, 0], [0, 1], [[R, 0], [R, 0]], [[0.6, 0], [0, 0.8]]])
    gates = st.sampled_from(["U_si", "U_copy", "U_swap"])
    analyses = [a for a in ANALYSES if draw(st.booleans())]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.permutations(indices))[:2]
        item = {"type": "correlation", "site_a": a, "site_b": b}
        for key in ("theta_a", "theta_b"):
            if draw(st.booleans()):
                item[key] = draw(angles)
        item.update(draw(st.dictionaries(texts.filter(lambda k: k not in CORRELATION_KEYS),
                                         json_values, max_size=3)))
        analyses.append(item)
    return json.dumps({
        "name": draw(texts | st.sampled_from(['say "hi"', "été 中", "a\\b"])),
        "lattice": [{"index": i, "kind": "system" if i == start else "field"} for i in indices],
        "initial": {"product": {str(i): draw(vectors) for i in indices}},
        "schedule": [{"time": t, "sites": [a, a + 1], "gate": draw(gates)}
                     for t in range(horizon) for a in indices[t % 2:-1:2]],
        "horizon": horizon,
        "analyses": analyses,
    })


class TestJsonText:
    @pytest.mark.parametrize("scenario", ["single", "bidirectional", "collision", "epr"])
    def test_scenario_report_matches_json_dumps(self, scenario, tmp_path):
        config = bs.schedule.config_from_document(json.dumps({"scenario": scenario}))
        states = config.run()
        write_report(build_report(config, iter(states), 1e-9, config.horizon), tmp_path)
        doc = reference_report(config, states, 1e-9)
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == reference_text(doc)
        assert (tmp_path / "timeseries.csv").read_text() == reference_timeseries(doc)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "timeseries.csv"]

    @settings(max_examples=60, deadline=None)
    @given(json_configs())
    def test_report_of_a_json_config_matches_json_dumps(self, text):
        """The head's templates and the ``analyses`` list, which the
        report copies from the config, against `json.dumps` of the whole
        document."""
        config = bs.config_from_document(text)
        states = config.run()
        report = build_report(config, iter(states), 1e-9, config.horizon)
        files = [[] for _ in report.files]
        reporting._stream(report, *(f.append for f in files))
        doc = reference_report(config, states, 1e-9)
        assert "".join(files[0]) == reference_text(doc)
        assert "".join(files[1]) == reference_timeseries(doc)
        assert ["".join(f) for f in files[2:]] == (
            [reference_correlations(doc)] if any("correlations" in r for r in doc["steps"])
            else [])


def from_bits(pattern: int) -> float:
    return struct.unpack("<d", struct.pack("<q", pattern))[0]


#: ±0, NaNs with either sign and a payload, ±inf, subnormals and ties at
#: the twelfth significant digit (13-digit integers ending in 5, exact in
#: float64, which `.12g` rounds half to even).
EDGE_FLOATS = (0.0, -0.0, math.nan, -math.nan, from_bits(0x7FF8000000000123),
               from_bits(-0x0007FFFFFFFFFFFF), math.inf, -math.inf, 5e-324, -5e-324,
               1e-310, -2.225073858507e-308, 1234567890125.0, 1234567890135.0,
               -9999999999995.0, 1000000000000.5, 0.30000000000000004, 1e16, 1.0, -1.0)


def site_rows_of(values: np.ndarray, flags: np.ndarray, size: int) -> list:
    """`_SiteRows.chunk` of `size` states whose site rows are the rows of
    `values`, an (size n, 11) float64 array, with decohered `flags`, a
    function of the row.  The rows are grouped by the bytes of all 11
    values, since here the scalars need not follow from the matrix."""
    n = len(values) // size
    matrices = np.empty((len(values), 4), dtype=complex)
    matrices.real, matrices.imag = values[:, 0:8:2], values[:, 1:8:2]   # bit for bit
    codes = values.view(np.dtype((np.void, 8 * 11))).ravel()
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    marginals = SiteMarginals(tuple(range(n)) * size, matrices.reshape(-1, 2, 2),
                              values[:, 8], values[:, 9], values[:, 10], first, inverse)
    analysed = SimpleNamespace(marginals=marginals, decohered=flags.reshape(size, n),
                               block=SimpleNamespace(size=size))
    return reporting._SiteRows(bs.chain_lattice([0], range(1, n))).chunk(analysed)


def reference_site_row(row: list, flag: bool) -> tuple:
    """A site row's JSON object, by `json.dumps` at a site block's indent,
    and its CSV fields, each value rounded by `_g12` on its own."""
    r = [_g12(x) for x in row]
    obj = {"rdm": [r[0:2], r[2:4], r[4:6], r[6:8]], "coherence": r[8], "purity": r[9],
           "entropy": r[10], "decohered": flag}
    return (json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + " " * 8),
            f"{r[8]:.12g},{r[9]:.12g},{r[10]:.12g},")


edge_values = (st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
               | st.integers(-2 ** 63, 2 ** 63 - 1).map(from_bits))


class TestSiteRowRounding:
    """`_SiteRows.chunk` rounds and renders each distinct row once; every
    row must come out as rounding each of its values alone gives it."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(edge_values, min_size=11, max_size=11), min_size=1, max_size=4),
           st.integers(1, 3), st.integers(1, 3), st.data())
    @example([list(EDGE_FLOATS[:11]), list(EDGE_FLOATS[9:])], 2, 2, None)
    def test_each_row_renders_as_its_values_rounded_alone(self, distinct, n, size, data):
        # rows repeat within and across states, so some are rendered once for many sites
        picks = (data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n * size,
                                    max_size=n * size))
                 if data is not None else [i % len(distinct) for i in range(n * size)])
        values = np.array([distinct[i] for i in picks], dtype=np.float64)
        flags = values.view(np.int64)[:, 8] % 2 == 0   # a function of the row, as in a run
        rows = site_rows_of(values, flags, size)
        assert [text for state in rows for text in state] == [
            reference_site_row(row, bool(flag)) for row, flag in zip(values.tolist(), flags)]

    def test_rows_that_differ_in_the_sign_of_zero_keep_their_own(self):
        values = np.array([[0.0] * 11, [-0.0] * 11, [0.0] * 11], dtype=np.float64)
        rows = site_rows_of(values, np.zeros(3, dtype=bool), 1)[0]
        assert rows[0] == rows[2] != rows[1]
        assert "-0.0" not in rows[0][0] and rows[1][0].count("-0.0") == 11
        assert rows[1][1] == "-0,-0,-0,"


def _site_records(marginals, decohered) -> dict:
    """The ``sites`` block of a step: every one-site matrix as row-major
    [re, im] pairs, with its rounded scalars and decohered flag."""
    m = marginals
    n = len(m.sites)
    rows = [[_g12(x) for x in row] for row in np.concatenate([
        np.stack([m.matrices.real, m.matrices.imag], axis=-1).reshape(n, 8),
        np.stack([m.coherence, m.purity, m.entropy], axis=1)], axis=1).tolist()]
    return {
        str(site): {
            "rdm": [row[0:2], row[2:4], row[4:6], row[6:8]],
            "coherence": row[8],
            "purity": row[9],
            "entropy": row[10],
            "decohered": flag,
        }
        for site, row, flag in zip(m.sites, rows, decohered.tolist())
    }


def _branch_item(branch) -> dict:
    return {
        "weight": _g12(branch.weight),
        "assignment": {str(site): bit for site, bit in sorted(branch.assignment.items())},
    }


def reference_branches(analysed) -> list:
    """Each state's `BranchDecomposition`, built from the block's branch
    table one `Branch` and one dict per branch, as reports once did."""
    owner, bits, weights, branched = analysed.branch_table
    indices = analysed.block.lattice.indices
    ends = np.bincount(owner, minlength=analysed.block.size).cumsum().tolist()
    weights = weights.tolist()
    decomps = []
    for lo, hi, mask in zip([0] + ends, ends, branched):
        sites = [s for s, m in zip(indices, mask.tolist()) if m]
        support = frozenset(sites)
        decomps.append(BranchDecomposition(tuple([
            Branch(w, dict(zip(sites, row)), support)
            for w, row in zip(weights[lo:hi], bits[lo:hi, mask].tolist())
        ]), frozenset(indices) - support, analysed.tol))
    return decomps


def cluster_members(analysed) -> list:
    """Each state's clusters as lists of site ids, from `cluster_sites`."""
    indices = analysed.block.lattice.indices
    members = [[] for _ in range(analysed.block.size)]
    for o, mask in zip(*analysed.cluster_sites):
        members[o].append([indices[p] for p in np.flatnonzero(mask).tolist()])
    return members


def _branch_clusters(members: list, decomp: BranchDecomposition, tol: float) -> BranchClusters:
    """A state's clusters from each one's sites, with its branches: the
    state's branches regrouped per cluster in a dict, each key's weights
    added in branch order onto 0.0, and the keys sorted."""
    clusters = []
    for sites in members:
        sites = tuple(sorted(sites))
        local: dict = {}
        for br in decomp.branches:
            key = tuple([(s, br.assignment[s]) for s in sites])
            local[key] = local.get(key, 0.0) + br.weight
        branches = tuple([
            Branch(w, dict(key), frozenset(sites)) for key, w in sorted(local.items())
        ])
        clusters.append(Cluster(sites, branches))
    return BranchClusters(tuple(clusters), decomp.unbranched, tol)


def branches_record(decomp: BranchDecomposition) -> dict:
    return {"count": decomp.n_branches,
            "unbranched": sorted(decomp.unbranched),
            "items": [_branch_item(b) for b in decomp.branches]}


def clusters_record(clusters: BranchClusters) -> dict:
    return {"count": clusters.n_clusters,
            "items": [{"sites": list(c.sites), "branches": [_branch_item(b) for b in c.branches]}
                      for c in clusters.clusters]}


def reference_report(config, states: list, tolerance: float) -> dict:
    """The whole report document, assembled as before reports were
    streamed: each state analysed alone, as the block of one owner, and
    each site block built as dicts."""
    lattice = lattice_to_json(config.lattice)
    names = {a for a in config.analyses if isinstance(a, str)}
    settings = [(MeasurementSetting(a["site_a"], float(a.get("theta_a", 0.0))),
                 MeasurementSetting(a["site_b"], float(a.get("theta_b", 0.0))))
                for a in config.analyses if isinstance(a, dict)]
    steps = []
    for t, state in enumerate(states):
        record = {"step": t, "norm": _g12(norm(state)), "n_terms": state.n_terms}
        if state.n_terms <= EMBED_TERMS_LIMIT:
            record["state"] = {"lattice": lattice, "terms": terms_to_json(state)}
        summary = BlockAnalysis(StateBlock.of([state]), tolerance)
        if "sites" in names:
            record["sites"] = _site_records(summary.marginals, summary.decohered[0])
        decomp = reference_branches(summary)[0]
        if "branches" in names:
            record["branches"] = branches_record(decomp)
        if "clusters" in names:
            record["clusters"] = clusters_record(
                _branch_clusters(cluster_members(summary)[0], decomp, tolerance))
        if settings:
            record["correlations"] = [
                {"site_a": a.site, "site_b": b.site,
                 "theta_a": _g12(a.theta), "theta_b": _g12(b.theta), "value": _g12(value)}
                for (a, b), value in zip(settings, summary.correlations(settings)[0])]
        steps.append(record)
    return {
        "engine": {"name": "branchsim", "version": bs.__version__, "tolerance": _g12(tolerance)},
        "scenario": {"name": config.name, "horizon": len(states) - 1, "lattice": lattice,
                     "analyses": list(config.analyses)},
        "steps": steps,
    }


def reference_timeseries(report: dict) -> str:
    rows = ["step,site,coherence,purity,entropy,branch_count,cluster_count\n"]
    for record in report["steps"]:
        counts = (f'{record.get("branches", {}).get("count", "")},'
                  f'{record.get("clusters", {}).get("count", "")}\n')
        for site, data in sorted(record.get("sites", {}).items(), key=lambda kv: int(kv[0])):
            rows.append(f'{record["step"]},{site},{data["coherence"]:.12g},'
                        f'{data["purity"]:.12g},{data["entropy"]:.12g},{counts}')
    return "".join(rows)


def reference_correlations(report: dict) -> str:
    rows = ["step,site_a,site_b,theta_a,theta_b,value\n"]
    for record in report["steps"]:
        for c in record.get("correlations", ()):
            rows.append(f'{record["step"]},{c["site_a"]},{c["site_b"]},{c["theta_a"]:.12g},'
                        f'{c["theta_b"]:.12g},{c["value"]:.12g}\n')
    return "".join(rows)


def entry_loop_sites(marginals, decohered) -> dict:
    """The site block as built before rounding went by distinct value."""
    def rdm_entries(matrix):
        return [[_g12(z.real), _g12(z.imag)] for z in matrix.reshape(-1)]

    return {
        str(site): {
            "rdm": rdm_entries(marginals.matrices[i]),
            "coherence": _g12(marginals.coherence[i]),
            "purity": _g12(marginals.purity[i]),
            "entropy": _g12(marginals.entropy[i]),
            "decohered": bool(decohered[i]),
        }
        for i, site in enumerate(marginals.sites)
    }


class TestSiteRecords:
    @pytest.mark.parametrize("fixture", ["single_states", "bidirectional_states",
                                         "collision_states", "epr_states"])
    def test_equal_to_the_entry_loop(self, fixture, request):
        for state in request.getfixturevalue(fixture):
            summary = BlockAnalysis(StateBlock.of([state]))
            new = _site_records(summary.marginals, summary.decohered[0])
            old = entry_loop_sites(summary.marginals, summary.decohered[0])
            # repr keeps the sign of zero that == ignores
            assert repr(new) == repr(old)
            assert all(type(v) is float for rec in new.values() for pair in rec["rdm"]
                       for v in pair)


ANALYSES = ("sites", "branches", "clusters")
AMPLITUDES = st.sampled_from([0.5, -0.5, 0.0, -0.0, 1e-15, 0.3]) | st.floats(-1.0, 1.0)


@st.composite
def runs(draw):
    """A config and the states of a run of it: a scenario's own run, or
    random states on a lattice of 1 to 14 sites whose indices may be
    negative, with up to 70 terms, so that some are not embedded."""
    if draw(st.booleans()):
        config = bs.SCENARIOS[draw(st.sampled_from(sorted(bs.SCENARIOS)))]()
        states = config.run()
    else:
        n = draw(st.sampled_from([10, 12, 14]) | st.integers(1, 14))
        start = draw(st.integers(-12, 3))
        lattice = bs.chain_lattice([start], range(start + 1, start + n))
        n_terms = min(2 ** n, draw(st.just(EMBED_TERMS_LIMIT + 6) | st.integers(1, 70)))
        states = []
        for _ in range(draw(st.integers(1, 4))):
            rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                                 min_size=n_terms, max_size=n_terms, unique_by=tuple))
            amps = [complex(draw(AMPLITUDES), draw(AMPLITUDES)) for _ in rows]
            amps[0] += 1.0
            states.append(bs.entangled_state(lattice, list(zip(map(tuple, rows), amps))))
        config = bs.ScenarioConfig("random \u00e9", lattice, states[0], bs.Schedule(()),
                                   len(states) - 1)
    indices = config.lattice.indices
    analyses = [a for a in ANALYSES if draw(st.booleans())]
    if len(indices) > 1 and draw(st.booleans()):
        a, b = draw(st.permutations(indices))[:2]
        analyses.append({"type": "correlation", "site_a": a, "site_b": b,
                         "theta_a": draw(st.floats(-3.0, 3.0)), "theta_b": 0.5})
    return bs.ScenarioConfig(config.name, config.lattice, config.initial, config.schedule,
                             config.horizon, tuple(analyses)), states


#: Amplitude parts at the edges of the embedded-state text: integral
#: parts (written as ints), signed zeros (-0.0 is written as 0), 1e17 and
#: the floats one ulp either side of it (the largest integral part
#: written as an int is the one below), and parts that are not integral.
EMBED_PARTS = (0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5, -0.25, 1e16, -1e16, 2.0 ** 53,
               2.0 ** 53 + 2, 123456789.0, 1e17, -1e17, float(np.nextafter(1e17, 0.0)),
               float(np.nextafter(-1e17, 0.0)), float(np.nextafter(1e17, 2e17)),
               float(np.nextafter(-1e17, -2e17)), 1e22, 1e-7, 5e-324, 0.1, 0.7071067811865476)


def edge_run(analyses=()) -> tuple:
    """A config and its states on three sites, one to eight terms each,
    whose amplitude parts run through `EMBED_PARTS`."""
    lattice = bs.chain_lattice([0], range(1, 3))
    k = len(EMBED_PARTS)
    states = [bs.PureState(lattice, {format(j, "03b"): complex(EMBED_PARTS[(i + j) % k],
                                                               EMBED_PARTS[(3 * i + j) % k])
                                     for j in range(1 + i % 8)})
              for i in range(k)]
    return bs.ScenarioConfig("edges", lattice, states[0], bs.Schedule(()), len(states) - 1,
                             analyses), states


def limit_run(analyses=()) -> tuple:
    """A config and states of 1, EMBED_TERMS_LIMIT, EMBED_TERMS_LIMIT + 1
    and 1 terms on seven sites, so a chunk mixes embedded and unembedded
    states."""
    lattice = bs.chain_lattice([-3], range(-2, 4))
    states = [bs.entangled_state(lattice, [(format(5 * i % 128, "07b"),
                                            complex((-1) ** i, -0.0 if i % 3 else 1.0))
                                           for i in range(count)])
              for count in (1, EMBED_TERMS_LIMIT, EMBED_TERMS_LIMIT + 1, 1)]
    return bs.ScenarioConfig("limit", lattice, states[0], bs.Schedule(()), len(states) - 1,
                             analyses), states


class TestStreamedSteps:
    """Each streamed step against `json.dumps` of the step record that
    `reference_report` builds, with chunks of one to all steps, a run's
    site rows rendered once per distinct row of a chunk, and its embedded
    states rendered a chunk at a time, among them states of exactly
    EMBED_TERMS_LIMIT and EMBED_TERMS_LIMIT + 1 terms."""

    @settings(max_examples=100, deadline=None)
    @given(runs(), st.integers(1, 2 ** 14))
    @example(limit_run(), 1)
    @example(limit_run(), 2 ** 22)
    @example(limit_run(ANALYSES), 1)
    @example(limit_run(ANALYSES), 2 ** 22)
    @example(edge_run(), 2 ** 22)
    def test_each_step_matches_the_reference(self, run, chunk_cells):
        config, states = run
        doc = reference_report(config, states, 1e-9)
        with mock.patch.object(reporting, "CHUNK_CELLS", chunk_cells):
            steps = list(build_report(config, iter(states), 1e-9, len(states) - 1).steps)
            report = build_report(config, iter(states), 1e-9, len(states) - 1)
            files = [[] for _ in report.files]
            reporting._stream(report, *(f.append for f in files))

        assert len(steps) == len(states)
        for step, record in zip(steps, doc["steps"]):
            assert step.text == reference_text(record)[:-1].replace("\n", "\n    ")
            assert step.series == reference_timeseries({"steps": [record]}).partition("\n")[2]
            assert step.correlations == reference_correlations(
                {"steps": [record]}).partition("\n")[2]
        texts = ["".join(f) for f in files]
        assert texts[0] == reference_text(doc)
        assert texts[1] == reference_timeseries(doc)
        assert texts[2:] == ([reference_correlations(doc)]
                             if any("correlations" in r for r in doc["steps"]) else [])

    def test_chunks_bound_the_correlation_matrices(self, monkeypatch):
        # with more correlation settings than sites, a chunk's largest
        # temporaries are its two-site matrices, not its one-site marginals
        single = bs.scenario_single(0.6, 0.8, 5)
        n = single.lattice.n_sites
        pairs = list(itertools.combinations(single.lattice.indices, 2))
        assert len(pairs) > n
        config = bs.ScenarioConfig(single.name, single.lattice, single.initial,
                                   single.schedule, single.horizon, ("sites",) + tuple(
                                       {"type": "correlation", "site_a": a, "site_b": b}
                                       for a, b in pairs))
        states = config.run()
        blocks, real = [], reporting.analysis.BlockAnalysis

        def recorded(block, tol):
            blocks.append(block)
            return real(block, tol)

        monkeypatch.setattr(reporting.analysis, "BlockAnalysis", recorded)
        monkeypatch.setattr(reporting, "CHUNK_CELLS", n * len(pairs) * 4)
        steps = list(build_report(config, iter(states), 1e-9, len(states) - 1).steps)
        assert len(steps) == sum(block.size for block in blocks) == len(states)
        assert max(block.size for block in blocks) > 1
        assert all(len(block.table) * n * len(pairs) <= reporting.CHUNK_CELLS
                   for block in blocks)


@st.composite
def edge_states(draw, lattice):
    """Up to 70 terms whose amplitude parts come from `EMBED_PARTS` or any
    float; terms below PRUNE_EPS are pruned, so a state may have none."""
    n = lattice.n_sites
    rows = draw(st.lists(st.integers(0, 2 ** n - 1), min_size=1, max_size=min(70, 2 ** n),
                         unique=True)) if draw(st.integers(0, 9)) else []
    parts = st.sampled_from(EMBED_PARTS) | st.floats(-1e30, 1e30)
    return bs.PureState(lattice, {format(row, f"0{n}b"): complex(draw(parts), draw(parts))
                                  for row in rows})


class TestEmbeddedStates:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.lists(
               edge_states(bs.chain_lattice([-2], range(-1, n - 2))), min_size=1, max_size=4)),
           st.data())
    @example(edge_run()[1], None)
    def test_each_flagged_state_renders_as_its_terms(self, states, data):
        """`_state_texts` renders the flagged states of a block, and only
        those, as `json.dumps` writes the dict per term of `terms_to_json`."""
        flags = (data.draw(st.lists(st.booleans(), min_size=len(states), max_size=len(states)))
                 if data is not None else [True] * len(states))
        lattice = states[0].lattice
        texts = reporting._state_texts(StateBlock.of(states), flags,
                                       reporting._lattice_text(lattice).replace("\n", "\n    "))
        assert len(texts) == len(states)
        for state, flag, text in zip(states, flags, texts):
            if flag:
                reference = {"lattice": lattice_to_json(lattice), "terms": terms_to_json(state)}
                assert text == reference_text(reference)[:-1].replace("\n", "\n" + " " * 6)
            else:
                assert text is None
            if state.n_terms == 0:
                event("a state with no term")


#: Tolerances of the branch-row tests: at 0.3 a state of four or more
#: equal branches keeps none.
BRANCH_TOLERANCES = (0.0, BRANCH_TOL, 1e-2, 0.3)
PATTERN_AMPLITUDES = st.sampled_from([1.0, -0.5, 0.3, 1e-3, 0.1]) | st.floats(0.05, 1.0)


@st.composite
def branch_lattices(draw):
    """Chains of 1 to 14 sites whose indices may be negative, so that `str`
    order and numeric order of the sites differ."""
    n = draw(st.sampled_from([10, 12, 14]) | st.integers(1, 14))
    start = draw(st.integers(-12, 3))
    return bs.chain_lattice([start], range(start + 1, start + n))


@st.composite
def segmented_states(draw, lattice):
    """A product of independent segments over a shuffled order of the
    lattice's positions, with at most 64 terms.  A segment holds one to
    four bit patterns: one of several patterns branches and clusters apart
    from the others, and each of its cluster branches merges the branches
    that the other segments' patterns make, so three or more when another
    segment has three patterns or more."""
    n = lattice.n_sites
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4))) if n > 1 else []
    factors, n_terms = [], 1
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        width = hi - lo
        most = min(4, 2 ** width, 64 // n_terms)
        k = min(most, draw(st.integers(2, 4) | st.integers(1, 4)))
        n_terms *= k
        patterns = draw(st.lists(st.integers(0, 2 ** width - 1), min_size=k, max_size=k,
                                 unique=True))
        factors.append([([(pattern >> (width - 1 - j)) & 1 for j in range(width)],
                         complex(draw(PATTERN_AMPLITUDES), draw(st.sampled_from([0.0, 0.25]))))
                        for pattern in patterns])
    terms = []
    for combo in itertools.product(*factors):
        bits, amp = [0] * n, 1.0
        for pos, bit in zip(order, [b for segment, _ in combo for b in segment]):
            bits[pos] = bit
        for _, a in combo:
            amp *= a
        terms.append((tuple(bits), amp))
    return bs.entangled_state(lattice, terms)


@st.composite
def scattered_states(draw, lattice):
    """Up to 24 random terms with random amplitudes."""
    n = lattice.n_sites
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                         min_size=1, max_size=min(24, 2 ** n), unique_by=tuple))
    amps = [complex(draw(AMPLITUDES), draw(AMPLITUDES)) for _ in rows]
    amps[0] += 1.0
    return bs.entangled_state(lattice, list(zip(map(tuple, rows), amps)))


def basis_state(lattice):
    """All sites up: no site is branched."""
    return bs.entangled_state(lattice, [((0,) * lattice.n_sites, 1.0)])


@st.composite
def branch_blocks(draw):
    lattice = draw(branch_lattices())
    states = draw(st.lists(st.one_of(segmented_states(lattice), segmented_states(lattice),
                                     scattered_states(lattice), st.just(basis_state(lattice))),
                           min_size=1, max_size=4))
    return lattice, states


def record_text(record: dict) -> str:
    """`json.dumps` text of a step's ``branches`` or ``clusters`` record,
    at the indent of a step's keys."""
    return json.dumps(record, sort_keys=True, indent=2).replace("\n", "\n" + " " * 6)


def assert_same_branches(found: tuple, reference: tuple):
    assert (np.float64([b.weight for b in found]).tobytes()
            == np.float64([b.weight for b in reference]).tobytes())
    assert [b.assignment for b in found] == [b.assignment for b in reference]
    assert [list(b.assignment) for b in found] == [list(b.assignment) for b in reference]
    assert [b.support for b in found] == [b.support for b in reference]


def assert_same_clusters(found: BranchClusters, reference: BranchClusters):
    assert [c.sites for c in found.clusters] == [c.sites for c in reference.clusters]
    for c, r in zip(found.clusters, reference.clusters):
        assert_same_branches(c.branches, r.branches)
    assert (found.unbranched, found.tolerance) == (reference.unbranched, reference.tolerance)


def check_branch_rows(lattice, states, tol, names=("branches", "clusters")) -> list:
    """Check `_BranchRows` text against `json.dumps` of the reference
    records, and the library objects against the reference loop; returns
    each state's reference clusters."""
    analysed = BlockAnalysis(StateBlock.of(states), tol)
    rows = reporting._BranchRows(lattice, set(names)).chunk(analysed)
    assert len(rows) == len(states)
    found = []
    for b, (state, decomp, members, row) in enumerate(zip(
            states, reference_branches(analysed), cluster_members(analysed), rows)):
        n_branches, branches, n_clusters, clusters = row
        reference = _branch_clusters(members, decomp, tol)
        if "branches" in names:
            assert n_branches == decomp.n_branches
            assert branches == record_text(branches_record(decomp))
        else:
            assert (n_branches, branches) == (None, None)
        if "clusters" in names:
            assert n_clusters == reference.n_clusters
            assert clusters == record_text(clusters_record(reference))
        else:
            assert (n_clusters, clusters) == (None, None)
        for library in (analysed.branches[b], bs.branch_decompose(state, tol)):
            assert_same_branches(library.branches, decomp.branches)
            assert (library.unbranched, library.tolerance) == (decomp.unbranched, tol)
        for library in (analysed.clusters[b], bs.extended_branch_clusters(state, tol)):
            assert_same_clusters(library, reference)
        found.append(reference)
    return found


def merged_weights():
    """A state on sites -3 .. 8 of six branches: a pair on sites -3 and 8
    times a three-pattern pair on sites -2 and -1, so that each branch of
    the cluster on sites -3 and 8 merges three of the state's branches."""
    lattice = bs.chain_lattice([-3], range(-2, 9))
    outer = [((1, 0), 0.57), ((0, 1), 0.08)]
    inner = [((0, 0), 0.45), ((1, 0), 0.84), ((1, 1), 0.44)]
    terms = [((a[0],) + b + (0,) * 8 + (a[1],), complex(x * y))
             for a, x in outer for b, y in inner]
    return lattice, bs.entangled_state(lattice, terms)


class TestBranchRows:
    """`_BranchRows` renders each step's ``branches`` and ``clusters``
    objects from the branch and cluster tables; every text must equal
    `json.dumps` of the records built from `Branch` objects and the
    per-cluster dict loop, and `branch_decompose` and
    `extended_branch_clusters` must return the loop's objects."""

    @settings(max_examples=200, deadline=None)
    @given(branch_blocks(), st.sampled_from(BRANCH_TOLERANCES),
           st.sampled_from([("branches", "clusters"), ("branches",), ("clusters",)]))
    def test_text_and_objects_equal_the_reference(self, block, tol, names):
        found = check_branch_rows(*block, tol, names)
        lattice, states = block
        if lattice.n_sites >= 10 and min(lattice.indices) < 0:
            event("10 or more sites, some negative")
        for state, clusters in zip(states, found):
            decomp = bs.branch_decompose(state, tol)
            if not decomp.branches:
                event("no branch kept")
            elif not decomp.branches[0].assignment:
                event("no branched site")
            if clusters.n_clusters > 1:
                event("several clusters")
            if any(3 * c.n_branches <= decomp.n_branches for c in clusters.clusters):
                event("a cluster of 3 or more state branches per branch")

    def test_sites_go_in_str_order(self):
        # sites -3 .. 10, where "-1" < "-3" and "10" < "2" as strings
        lattice = bs.chain_lattice([-3], range(-2, 11))
        state = bs.entangled_state(lattice, [((0,) * 14, 1.0), ((1,) * 14, 1.0)])
        check_branch_rows(lattice, [state], BRANCH_TOL)
        row = reporting._BranchRows(lattice, {"branches"}).chunk(BlockAnalysis(state))[0]
        keys = list(json.loads(row[1])["items"][0]["assignment"])
        assert keys == sorted(map(str, lattice.indices))
        assert keys[:7] == ["-1", "-2", "-3", "0", "1", "10", "2"]

    def test_a_state_with_no_branched_site_has_one_empty_branch(self):
        lattice = bs.chain_lattice([-2], range(-1, 10))
        state = basis_state(lattice)
        (reference,) = check_branch_rows(lattice, [state], BRANCH_TOL)
        assert reference.n_clusters == 0
        text = reporting._BranchRows(lattice, {"branches"}).chunk(BlockAnalysis(state))[0][1]
        assert '"assignment": {}' in text and '"weight": 1.0' in text

    def test_a_state_whose_groups_fall_below_tol_keeps_no_branch(self):
        lattice = bs.chain_lattice([0], range(1, 4))
        # two Bell pairs: four branched sites and four branches of 1/4
        state = bs.entangled_state(lattice, [((a, a, b, b), 1.0) for a in (0, 1) for b in (0, 1)])
        analysed = BlockAnalysis(state, 0.3)
        assert analysed.branch_table[3].sum() == 4 and analysed.branches[0].n_branches == 0
        (reference,) = check_branch_rows(lattice, [state], 0.3)
        assert reference.n_clusters == 0

    def test_clusters_of_part_of_the_branched_sites_are_grouped(self):
        # sites 0, 1 in one Bell pair and 2, 3 in another: two clusters of
        # two branches, each merging two of the state's four
        lattice = bs.chain_lattice([0], range(1, 5))
        state = bs.entangled_state(lattice, [((a, a, b, b, 0), 1.0) for a in (0, 1)
                                             for b in (0, 1)])
        (reference,) = check_branch_rows(lattice, [state], BRANCH_TOL)
        assert [c.sites for c in reference.clusters] == [(0, 1), (2, 3)]
        assert [c.n_branches for c in reference.clusters] == [2, 2]

    def test_merged_weights_are_added_in_branch_order(self):
        lattice, state = merged_weights()
        (reference,) = check_branch_rows(lattice, [state], BRANCH_TOL)
        assert [c.sites for c in reference.clusters] == [(-3, 8), (-2, -1)]
        # the state's branches go in bit order, so the cluster branch with
        # site -3 up merges branches 3, 4 and 5, in that order
        first, second, third = [b.weight for b in bs.branch_decompose(state).branches][3:]
        merged = reference.clusters[0].branches[1].weight
        assert merged == 0.0 + first + second + third
        # ... and no other order gives those bits
        assert merged != 0.0 + third + second + first and merged != first + (second + third)
