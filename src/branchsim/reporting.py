"""Run reports: per-step analysis records serialised to JSON and CSV.

Reports are deterministic: given the same config and package version,
the emitted bytes are identical across runs.  Scalars are rounded to 12
significant digits, keys are sorted, and row order is fixed.  Wall
time is therefore *not* part of a report; the CLI prints it separately.

`report.json` is written by `json_text`, whose bytes equal those of
``json.dumps(doc, sort_keys=True, indent=2)`` and a newline, without
going through the pure-Python encoder that ``indent`` selects.
"""

import os
from json.encoder import encode_basestring_ascii as _quote
from typing import Mapping

import numpy as np

from . import __version__
from . import analysis
from .lattice import lattice_to_json, norm, terms_to_json
from .schedule import ScenarioConfig

#: States up to this many terms are embedded verbatim in the report.
EMBED_TERMS_LIMIT = 64


def _g12(x: float) -> float:
    return float(f"{x:.12g}")


def _g12_array(values: np.ndarray) -> list:
    """`_g12` of every entry of a float64 array, as nested lists of its shape.

    `_g12` runs once per distinct bit pattern, not once per entry.  The
    patterns, not the values, are the keys: keyed on values, -0.0 would
    share 0.0's result and lose its sign.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    keys, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    rounded = np.array([_g12(x) for x in keys.view(np.float64).tolist()], dtype=np.float64)
    return rounded[inverse].reshape(np.shape(values)).tolist()


def _site_records(marginals, decohered) -> dict:
    """The ``sites`` block of a step: every one-site matrix as row-major
    [re, im] pairs, with its rounded scalars and decohered flag."""
    m = marginals
    n = len(m.sites)
    rows = _g12_array(np.concatenate([
        np.stack([m.matrices.real, m.matrices.imag], axis=-1).reshape(n, 8),
        np.stack([m.coherence, m.purity, m.entropy], axis=1)], axis=1))
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


def build_report(config: ScenarioConfig, states: list, tolerance: float) -> dict:
    """Analyse a run of `config` and assemble the report document.

    Each state of at most EMBED_TERMS_LIMIT terms is embedded as the
    object `json.loads` reads from its `state_to_document` text; every
    embedded state shares the scenario's lattice list.
    """
    lattice = lattice_to_json(config.lattice)
    names = {a for a in config.analyses if isinstance(a, str)}
    settings = [(analysis.MeasurementSetting(a["site_a"], a.get("theta_a", 0.0)),
                 analysis.MeasurementSetting(a["site_b"], a.get("theta_b", 0.0)))
                for a in config.analyses
                if isinstance(a, Mapping) and a.get("type") == "correlation"]

    steps = []
    for t, state in enumerate(states):
        record = {
            "step": t,
            "norm": _g12(norm(state)),
            "n_terms": state.n_terms,
        }
        if state.n_terms <= EMBED_TERMS_LIMIT:
            record["state"] = {"lattice": lattice, "terms": terms_to_json(state)}

        # built lazily: a run that requests none of these does no RDM work
        summary = analysis.StateAnalysis(state, tolerance)
        if "sites" in names:
            record["sites"] = _site_records(summary.marginals, summary.decohered)

        if "branches" in names:
            decomp = summary.branches
            record["branches"] = {
                "count": decomp.n_branches,
                "unbranched": sorted(decomp.unbranched),
                "items": [_branch_item(b) for b in decomp.branches],
            }

        if "clusters" in names:
            clusters = summary.clusters
            record["clusters"] = {
                "count": clusters.n_clusters,
                "items": [
                    {"sites": list(c.sites),
                     "branches": [_branch_item(b) for b in c.branches]}
                    for c in clusters.clusters
                ],
            }

        if settings:
            record["correlations"] = [
                {"site_a": a.site, "site_b": b.site,
                 "theta_a": _g12(a.theta), "theta_b": _g12(b.theta), "value": _g12(value)}
                for (a, b), value in zip(settings, summary.correlations(settings))
            ]
        steps.append(record)

    return {
        "engine": {"name": "branchsim", "version": __version__,
                   "tolerance": _g12(tolerance)},
        "scenario": {
            "name": config.name,
            "horizon": len(states) - 1,
            "lattice": lattice,
            "analyses": list(config.analyses),
        },
        "steps": steps,
    }


#: How `json` spells the non-finite floats.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _leaf_text(value) -> str:
    """The text of a scalar, tested in `json`'s order: booleans before
    ints, and subclasses such as numpy floats or enum ints by isinstance."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


#: Scalar writers by exact type, so the common leaves skip `_leaf_text`'s tests.
_LEAVES = {float: _float_text, str: _quote, int: int.__repr__,
           bool: _leaf_text, type(None): _leaf_text}


def _write(value, pad: str, out) -> None:
    """Pass the text of `value`, indented by `pad`, to `out` in pieces."""
    if isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = pad + "  "
        if len(value) == 2 and type(value[0]) is float and type(value[1]) is float:
            # the hot leaf: an [re, im] pair
            out(f"[\n{inner}{_float_text(value[0])},\n{inner}{_float_text(value[1])}\n{pad}]")
            return
        lead = "[\n" + inner
        for item in value:
            leaf = _LEAVES.get(type(item))
            if leaf is None:
                out(lead)
                _write(item, inner, out)
            else:
                out(lead + leaf(item))
            lead = ",\n" + inner
        out("\n" + pad + "]")
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = pad + "  "
        lead = "{\n" + inner
        for key in sorted(value):
            item = value[key]
            leaf = _LEAVES.get(type(item))
            if leaf is None:
                out(lead + _quote(key) + ": ")
                _write(item, inner, out)
            else:
                out(lead + _quote(key) + ": " + leaf(item))
            lead = ",\n" + inner
        out("\n" + pad + "}")
    else:
        out(_leaf_text(value))


def json_text(doc) -> str:
    """The text of ``json.dumps(doc, sort_keys=True, indent=2)`` and a
    newline, byte for byte.

    `doc` holds dicts with string keys, lists, tuples, strings, ints,
    floats, booleans and None.  Strings are ASCII-escaped, floats print
    as `float.__repr__` (NaN and the infinities as ``NaN``, ``Infinity``
    and ``-Infinity``), and booleans are tested before ints, as `json`
    does.
    """
    chunks: list = []
    _write(doc, "", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def timeseries_csv(report: dict) -> str:
    """Per-(step, site) series: coherence, purity, entropy, branch and
    cluster counts (counts are per step, repeated on each site row).

    Every field is a number, a site id or an empty count, none of which a
    CSV writer would quote, so rows are joined directly."""
    rows = ["step,site,coherence,purity,entropy,branch_count,cluster_count\n"]
    for record in report["steps"]:
        counts = (f'{record.get("branches", {}).get("count", "")},'
                  f'{record.get("clusters", {}).get("count", "")}\n')
        for site, data in sorted(record.get("sites", {}).items(), key=lambda kv: int(kv[0])):
            rows.append(f'{record["step"]},{site},{data["coherence"]:.12g},'
                        f'{data["purity"]:.12g},{data["entropy"]:.12g},{counts}')
    return "".join(rows)


def correlations_csv(report: dict) -> str:
    rows = ["step,site_a,site_b,theta_a,theta_b,value\n"]
    for record in report["steps"]:
        for c in record.get("correlations", ()):
            rows.append(f'{record["step"]},{c["site_a"]},{c["site_b"]},{c["theta_a"]:.12g},'
                        f'{c["theta_b"]:.12g},{c["value"]:.12g}\n')
    return "".join(rows)


def write_report(report: dict, out_dir) -> list:
    """Write report.json and timeseries.csv (and correlations.csv when
    present) into `out_dir`; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def emit(name: str, text: str):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        written.append(path)

    emit("report.json", json_text(report))
    emit("timeseries.csv", timeseries_csv(report))
    if any(r.get("correlations") for r in report["steps"]):
        emit("correlations.csv", correlations_csv(report))
    return written
