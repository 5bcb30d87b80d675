"""Golden digests of the `run` report files.

Each case runs the CLI and compares the sha256 of `report.json` and
`timeseries.csv` against digests recorded before the analysis path was
reworked, so any change to the emitted bytes shows up here.  The
128-site case, recorded before the state core moved onto arrays, pins
a chain longer than one 64-bit word.  The correlation case, recorded
while every correlation still built its own two-site matrix, pins
`correlations.csv` too.  The `wide_unembedded` case, recorded while
`json.dumps` still wrote `report.json`, pins a custom lattice and
schedule, a name outside ASCII, an empty analyses list, and states too
large to embed.  The `single_n256` and `twelve_negative` cases were
recorded while `run` still built the whole report before writing it:
the first pins a 256-site chain, the second a lattice with negative
indices and more than ten sites (so site keys sort as strings, not as
numbers), 128 to 256 unembedded terms per step, and every analysis.
The `wide_brickwork` case, recorded while clusters still grew one state
at a time, pins the default analyses on 1,024-term states of 32 sites.
Three cases are also run with every chunk of steps one state, whose
block holds the state's own arrays, to the same digests.

The digests are tied to the numpy/LAPACK build they were recorded with
(numpy 2.4 on x86-64 OpenBLAS): entropies of pure sites carry eigenvalue
round-off such as ``2.07777949014e-15``, and another LAPACK may round
those differently.  If only this file fails after a numpy upgrade, diff
the reports before re-recording.
"""

import hashlib
import json

import pytest

from branchsim import cli, reporting
from branchsim.reporting import EMBED_TERMS_LIMIT


def _wide_unembedded() -> dict:
    """Eight sites, the even ones in |+> and the odd ones in
    0.6|0> + 0.8i|1>, so every step holds 256 terms; a brickwork of
    library gates and one rotation; no analyses."""
    r = 0.7071067811865475
    schedule = [{"time": 1, "sites": [0], "gate": "rot(0.3)"}]
    for t in range(4):
        for a in range(t % 2, 7, 2):
            gate = "U_si" if a == 0 else ("U_copy", "U_swap")[(a + t) % 2]
            schedule.append({"time": t, "sites": [a, a + 1], "gate": gate})
    return {
        "name": "wide \"\u00e9\" eight",
        "lattice": [{"index": s, "kind": "system" if s == 0 else "field"} for s in range(8)],
        "initial": {"product": {str(s): [[r, 0], [r, 0]] if s % 2 == 0 else [[0.6, 0], [0, 0.8]]
                                for s in range(8)}},
        "schedule": schedule,
        "analyses": [],
    }

def _twelve_negative() -> dict:
    """Twelve sites -3 .. 8: six in |+>, site 3 in 0.6|0> + 0.8i|1>, the
    rest up, so every step holds 128 terms until an H on site 1 doubles
    them; a brickwork of the three interactions, one rotation, every
    analysis and one correlation."""
    r = 0.7071067811865475
    sites = range(-3, 9)
    product = {str(s): ([[r, 0], [r, 0]] if s in (-3, -1, 0, 2, 4, 6)
                        else [[0.6, 0], [0, 0.8]] if s == 3 else [[1, 0], [0, 0]])
               for s in sites}
    schedule = [{"time": 5, "sites": [1], "gate": "H"},
                {"time": 6, "sites": [-2], "gate": "rot(0.4)"}]
    for t in range(5):
        for k, a in enumerate(range(-3 + t % 2, 8, 2)):
            gate = ("U_copy", "U_swap", "U_si")[(k + t) % 3]
            schedule.append({"time": t, "sites": [a, a + 1], "gate": gate})
    return {
        "name": "twelve \u00e9\u00df negative",
        "lattice": [{"index": s, "kind": "system" if s in (-3, 0) else "field"} for s in sites],
        "initial": {"product": product},
        "schedule": schedule,
        "horizon": 8,
        "analyses": ["sites", "branches", "clusters",
                     {"type": "correlation", "site_a": -2, "site_b": 7,
                      "theta_a": 0.3, "theta_b": -0.9}],
    }


def _wide_brickwork() -> dict:
    """The many-term shape: 32 sites, ten of them in |+> and the rest
    up, so every step holds 1,024 terms; an 8-step brickwork of U_si on
    the first pair and U_copy or U_swap elsewhere; the default analyses."""
    r = 0.7071067811865475
    plus = {1, 3, 6, 10, 13, 17, 20, 24, 27, 30}
    schedule = []
    for t in range(8):
        for a in range(t % 2, 31, 2):
            gate = "U_si" if a == 0 else ("U_copy", "U_swap")[(3 * a + t) % 5 < 2]
            schedule.append({"time": t, "sites": [a, a + 1], "gate": gate})
    return {
        "name": "wide brickwork",
        "lattice": [{"index": s, "kind": "system" if s == 0 else "field"} for s in range(32)],
        "initial": {"product": {str(s): [[r, 0], [r, 0]] if s in plus else [[1, 0], [0, 0]]
                                for s in range(32)}},
        "schedule": schedule,
        "horizon": 8,
    }


# name -> (config document, report.json sha256, timeseries.csv sha256)
GOLDEN = {
    "single": (
        {"scenario": "single"},
        "d767f407b66196b469f38fd9f4c56de62fe2ef5fea43336b199f01766949b921",
        "9fdc9c62a71145563b46b1e2c424b13a2767e94219b5c77123cb28086c8dfaea",
    ),
    "bidirectional": (
        {"scenario": "bidirectional"},
        "a48d6bf48edf69c05867424078fdbfade9fd8ada3a45b196b8916cbd9f9db6e4",
        "39f468c0ba63b97fabf15d6fc1c0fb1d1f5b509b4b14712b0adb55da5a0ddc6c",
    ),
    "collision": (
        {"scenario": "collision"},
        "7773c997fc5b4f7426a68d2d7d0c1cc2d2cd861466d15368f230151365bcc983",
        "6f6c429b9d7e4d50acbfd0029fca466978e040ad676550d60212e11103d0e89e",
    ),
    "epr": (
        {"scenario": "epr"},
        "62701223ad459be6ef5c2900dc792817485c13d69ebcb1a5f9d7abb02d1c3c8d",
        "f6a813edd4f539478627b7ab5bb65a4ae18063bc9f5b9cc00ca6621242a44e42",
    ),
    "single_n32": (
        {"scenario": "single", "params": {"alpha": 0.6, "beta": 0.8, "n_sites": 32}},
        "77bb2467ab8586bab28df7e977bfa5727dbc0ead76d0c915257b45b95fd69498",
        "2ba0101d42e411a717c6948f1fa03335703451ece2e07146fa50e538595d5adb",
    ),
    "single_n64": (
        {"scenario": "single", "params": {"alpha": 0.6, "beta": 0.8, "n_sites": 64}},
        "f08b70226545503fb8bee21e389b662c73a33bbe3024fac6c8bdd1f3b35a5447",
        "7ef62c47147cd84b2a6887d013d09c14bc8b058e0fef41702cd14d484c637463",
    ),
    "single_n128": (
        {"scenario": "single", "params": {"alpha": 0.6, "beta": 0.8, "n_sites": 128}},
        "12757578dc105684b3bd51bec3a1c9d4e04610758929134888306a12e84d7d3e",
        "9639af712846badb8a62cbc1525be05c3be13ac26706aec494dae7e2783328b1",
    ),
    "single_n256": (
        {"scenario": "single", "params": {"alpha": 0.6, "beta": 0.8, "n_sites": 256}},
        "d2ad83b87ce3582e49746f067b86aedb178cf631cc1eb318157889d2b8f2c4d4",
        "e61b3d54a74248c6c7ec1754a29803de2ba16ff03e9eb002a6dd0125b0459fa5",
    ),
    "wide_unembedded": (
        _wide_unembedded(),
        "ca0a0fd14c86614c2b4cf679a6457fd042d137c20b958b35dd5f0f16b3e158eb",
        "ad17925f01bdf5b917c17df10a28e0d52a4e07a709746a270dd458ea2b84e9bc",
    ),
    "wide_brickwork": (
        _wide_brickwork(),
        "ce7c9d0fd4babfc9f0496ddeee0a8e0130f8606195bbf0bfa5704769be36bc7d",
        "4a9052ae88ba577068c58aece8892c7cff08ef76fbf1969eb1b0307fa1dcb80a",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_match_golden(name, tmp_path):
    doc, report_digest, series_digest = GOLDEN[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out_dir)]) == 0
    assert _sha256(out_dir / "report.json") == report_digest
    assert _sha256(out_dir / "timeseries.csv") == series_digest


@pytest.mark.parametrize("name", ["epr", "wide_unembedded", "wide_brickwork"])
def test_one_state_chunks_match_golden(name, tmp_path, monkeypatch):
    # every chunk is one state, whose block holds the state's own arrays
    monkeypatch.setattr(reporting, "CHUNK_CELLS", 1)
    test_report_bytes_match_golden(name, tmp_path)


#: epr with correlation requests: reversed pairs and nonzero angles
CORRELATIONS = {"scenario": "epr", "analyses": [
    "sites", "branches", "clusters",
    {"type": "correlation", "site_a": 2, "site_b": 3, "theta_b": 0.5},
    {"type": "correlation", "site_a": 3, "site_b": 2, "theta_a": 0.5},
    {"type": "correlation", "site_a": 5, "site_b": 0, "theta_a": 0.3, "theta_b": -1.1},
    {"type": "correlation", "site_a": 0, "site_b": 5, "theta_a": 0.7853981633974483},
    {"type": "correlation", "site_a": 1, "site_b": 4, "theta_a": 2.0, "theta_b": 1.0}]}

CORRELATION_DIGESTS = {
    "report.json": "50dd2898b54ec65a5b332a0039b3eb4611aa50e135f5c3068b5e81a7ff42dae2",
    "timeseries.csv": "f6a813edd4f539478627b7ab5bb65a4ae18063bc9f5b9cc00ca6621242a44e42",
    "correlations.csv": "e14313657992640efae12163eca5bb76efa017181417d116c8836749ad1a7a29",
}


def test_correlation_report_bytes_match_golden(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CORRELATIONS))
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out_dir)]) == 0
    assert {name: _sha256(out_dir / name) for name in CORRELATION_DIGESTS} == CORRELATION_DIGESTS


TWELVE_NEGATIVE_DIGESTS = {
    "report.json": "3ecc467baeb898a60ef395a2637362f60a324a5a9ea08527443686042134cad0",
    "timeseries.csv": "2d768ae3ef433d2b2e7bc52169b3ac3cf00634c4f400c78984478606b10a3402",
    "correlations.csv": "b5bbad019181115b565bb22e1495f20e1eeff9045d743648e5522fd14ba43fc3",
}


def test_twelve_negative_report_bytes_match_golden(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_twelve_negative()))
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out_dir)]) == 0
    assert {name: _sha256(out_dir / name) for name in TWELVE_NEGATIVE_DIGESTS} == \
        TWELVE_NEGATIVE_DIGESTS


def test_wide_unembedded_reaches_its_branches(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GOLDEN["wide_unembedded"][0]))
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["scenario"]["name"] == 'wide "\u00e9" eight'
    assert report["scenario"]["analyses"] == []
    assert all(step["n_terms"] > EMBED_TERMS_LIMIT and "state" not in step
               for step in report["steps"])
