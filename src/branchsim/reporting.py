"""Run reports: per-step analysis records serialised to JSON and CSV.

Reports are deterministic: given the same config and package version,
the emitted bytes are identical across runs.  Scalars are rounded to 12
significant digits, keys are sorted, and row order is fixed.  Wall
time is therefore *not* part of a report; the CLI prints it separately.
"""

import csv
import io
import json
import os
from typing import Mapping

from . import __version__
from . import analysis
from .lattice import norm, state_to_document
from .schedule import ScenarioConfig

#: States up to this many terms are embedded verbatim in the report.
EMBED_TERMS_LIMIT = 64


def _g12(x: float) -> float:
    return float(f"{x:.12g}")


def _rdm_entries(matrix) -> list:
    """Row-major [re, im] pairs."""
    return [[_g12(z.real), _g12(z.imag)] for z in matrix.reshape(-1)]


def _branch_item(branch) -> dict:
    return {
        "weight": _g12(branch.weight),
        "assignment": {str(site): bit for site, bit in sorted(branch.assignment.items())},
    }


def build_report(config: ScenarioConfig, states: list, tolerance: float) -> dict:
    """Analyse a run and assemble the report document."""
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
            record["state"] = json.loads(state_to_document(state))

        # built lazily: a run that requests none of these does no RDM work
        summary = analysis.StateAnalysis(state, tolerance)
        if "sites" in names:
            m = summary.marginals
            decohered = summary.decohered
            record["sites"] = {
                str(site): {
                    "rdm": _rdm_entries(m.matrices[i]),
                    "coherence": _g12(m.coherence[i]),
                    "purity": _g12(m.purity[i]),
                    "entropy": _g12(m.entropy[i]),
                    "decohered": bool(decohered[i]),
                }
                for i, site in enumerate(m.sites)
            }

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
            "lattice": [{"index": s.index, "kind": s.kind.value}
                        for s in config.lattice.sites],
            "analyses": list(config.analyses),
        },
        "steps": steps,
    }


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def timeseries_csv(report: dict) -> str:
    """Per-(step, site) series: coherence, purity, entropy, branch and
    cluster counts (counts are per step, repeated on each site row)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["step", "site", "coherence", "purity", "entropy",
                     "branch_count", "cluster_count"])
    for record in report["steps"]:
        branch_count = record.get("branches", {}).get("count", "")
        cluster_count = record.get("clusters", {}).get("count", "")
        for site, data in sorted(record.get("sites", {}).items(), key=lambda kv: int(kv[0])):
            writer.writerow([
                record["step"], site,
                f'{data["coherence"]:.12g}', f'{data["purity"]:.12g}',
                f'{data["entropy"]:.12g}', branch_count, cluster_count,
            ])
    return out.getvalue()


def correlations_csv(report: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["step", "site_a", "site_b", "theta_a", "theta_b", "value"])
    for record in report["steps"]:
        for c in record.get("correlations", ()):
            writer.writerow([record["step"], c["site_a"], c["site_b"],
                             f'{c["theta_a"]:.12g}', f'{c["theta_b"]:.12g}',
                             f'{c["value"]:.12g}'])
    return out.getvalue()


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

    emit("report.json", report_json(report))
    emit("timeseries.csv", timeseries_csv(report))
    if any(r.get("correlations") for r in report["steps"]):
        emit("correlations.csv", correlations_csv(report))
    return written
