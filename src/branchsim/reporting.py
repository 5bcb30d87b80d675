"""Run reports: per-step analysis records, streamed to JSON and CSV.

Reports are deterministic: given the same config and package version,
the emitted bytes are identical across runs.  Scalars are rounded to 12
significant digits, keys are sorted, and row order is fixed.  Wall
time is therefore *not* part of a report; the CLI prints it separately.

`write_report` streams a run.  It analyses the states one chunk of
steps at a time, writes each step's record to `report.json` and its
rows to the CSV files as soon as the step is analysed, and then drops
the step.  No whole-report document or string is ever built, so memory
follows one chunk of steps, not the horizon.  `write_files` writes the
files of `run` and of `chsh-scan --out`, each under a temporary name in
the output directory, renamed over its final name once every file is
complete; on any error the temporary files, and any directory it made,
are removed, so no partial output is left.

`report.json`'s bytes are those of ``json.dumps(doc, sort_keys=True,
indent=2)`` and a newline for the document the run describes, written
without the pure-Python encoder that ``indent`` selects (`json_text` is
that writer).  The document's top-level keys sort as ``engine``,
``scenario``, ``steps``, so its head goes first and each step follows
as it is analysed.  A step's site, branch and cluster blocks and its
embedded state are spliced in as text rendered from a chunk's arrays,
each once per chunk of steps: the site rows once per distinct marginal
matrix, grouped as `analysis.site_marginals` grouped them (`_SiteRows`);
the branch and cluster blocks from the analysed block's branch and
cluster tables, each table's assignment codes gathered in one call
(`_BranchRows`), with no `analysis.Branch` object in between; and the
embedded states from one sort of the block's table (`_state_texts`),
with no dict per term.  The scenario lattice's text is rendered once
for every embedded state.
"""

import contextlib
import functools
import os
from dataclasses import dataclass
from itertools import compress
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterator, Mapping, NamedTuple, Optional

import numpy as np

from . import __version__
from . import analysis
from .lattice import Lattice, StateBlock, lattice_to_json, norm, owner_rows, row_keys
from .schedule import ScenarioConfig

#: States up to this many terms are embedded verbatim in the report.
EMBED_TERMS_LIMIT = 64

#: A chunk of steps is analysed as one block of states until its terms
#: times sites times the larger of sites and correlation settings reach
#: this: the (owner, region) rows of the block's one-site marginals or
#: two-site correlation matrices, which bounds the arrays its analyses
#: hold at once.
CHUNK_CELLS = 2 ** 22

_SERIES_HEADER = "step,site,coherence,purity,entropy,branch_count,cluster_count\n"
_CORRELATIONS_HEADER = "step,site_a,site_b,theta_a,theta_b,value\n"

#: Indent of a step's record within `report.json`, and of the objects
#: inside its site block and embedded state.
_STEP_PAD = " " * 4
_INNER_PAD = " " * 8


def _g12(x: float) -> float:
    return float(f"{x:.12g}")


class Rendered:
    """A value's JSON text, which `_write` emits as it is.  It must have
    been rendered (`_render`) at the indent where it is written."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


class _SiteRows:
    """The site blocks of one run's steps, rendered once per distinct row.

    A site's row is its 11 float64 values (the matrix's four [re, im]
    pairs, coherence, purity and entropy) and its decohered flag, which
    follows from the coherence and purity at the run's tolerance.  Each
    distinct row of a chunk of steps, told apart by the bit patterns of
    its values (so -0.0 is not 0.0), is rounded and rendered once, as its
    JSON object at the indent of a step's site block and as its
    timeseries.csv fields.  Sites go in `str` order in the JSON, as
    `json` sorts keys ("-1" before "-2", "10" before "2"), and in
    lattice order in the CSV.
    """

    def __init__(self, lattice: Lattice):
        keys = [str(site) for site in lattice.indices]
        self.order = sorted(range(len(keys)), key=keys.__getitem__)
        self.leads = [f"{_INNER_PAD}{_quote(keys[i])}: " for i in self.order]
        self.fields = [f",{key}," for key in keys]

    def chunk(self, analysed: analysis.BlockAnalysis) -> list:
        """The rows of each state of an analysed block, in lattice order,
        as (JSON object, CSV fields) text pairs, from its marginals and
        decohered flags.  A row is a function of its matrix, so the
        marginals' own grouping of the matrices gives the distinct rows."""
        m = analysed.marginals
        first, inverse = m.first, m.inverse
        values = np.concatenate([
            np.stack([m.matrices.real[first], m.matrices.imag[first]], axis=-1).reshape(-1, 8),
            np.stack([m.coherence[first], m.purity[first], m.entropy[first]], axis=1)], axis=1)
        texts = []
        for row, flag in zip(values.tolist(), analysed.decohered.reshape(-1)[first].tolist()):
            r = [_g12(x) for x in row]
            texts.append((_render({"rdm": [r[0:2], r[2:4], r[4:6], r[6:8]], "coherence": r[8],
                                   "purity": r[9], "entropy": r[10], "decohered": flag},
                                  _INNER_PAD),
                          f"{r[8]:.12g},{r[9]:.12g},{r[10]:.12g},"))
        n = len(inverse) // analysed.block.size
        return [[texts[i] for i in inverse[lo:lo + n].tolist()]
                for lo in range(0, len(inverse), n)]

    def block(self, rows: list) -> Rendered:
        """A step's ``sites`` object, from its rows."""
        items = ",\n".join([lead + rows[i][0] for lead, i in zip(self.leads, self.order)])
        return Rendered(f"{{\n{items}\n{_STEP_PAD}  }}")

    def series(self, rows: list, step: int, counts: str) -> str:
        """A step's timeseries.csv lines, from its rows and the branch and
        cluster count fields that end each line."""
        return "".join([f"{step}{lead}{row[1]}{counts}" for lead, row in zip(self.fields, rows)])


class _BranchRows:
    """The ``branches`` and ``clusters`` blocks of one run's steps,
    rendered from an analysed block's branch and cluster tables.

    A branch is written as its ``assignment`` object and its weight.  The
    ``"<site>": <bit>`` texts of every site are made once per run, at the
    indent of an assignment in a step's branch list (depth 0) and in a
    cluster's (depth 1), each at index ``2 p + bit`` for lattice position
    p, and an assignment's sites go in `str` order, as `json` sorts keys
    ("-1" before "-2", "10" before "2").  Weights are rounded by `_g12`
    and written as `float.__repr__` writes them.  Once per chunk, and not
    per state, each table gives every row's codes on its owner's sites in
    `str` order (one gather and one `tolist`), its weights' texts, and its
    owners' site masks as lists; the branch lists are then joined from
    those lists alone.

    A cluster whose sites are all of its state's branched sites has one
    branch in each of its groups, added onto 0.0 alone and in the same
    order, so its branch list is its state's: its text is the state's
    branch list indented one level deeper, which is exact because no JSON
    string in it holds a newline.
    """

    def __init__(self, lattice: Lattice, names: set):
        self.branches, self.clusters = "branches" in names, "clusters" in names
        keys = [str(site) for site in lattice.indices]
        self.order = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp)
        self.base = 2 * self.order   # the code of bit 0 at each position, in `str` order
        # per depth, at 2 p + bit: position p's key and that bit
        self.keys = [[f"{_INNER_PAD}{' ' * (6 + 4 * depth)}{_quote(key)}: {bit}"
                      for key in keys for bit in (0, 1)] for depth in (0, 1)]
        self.unbranched = [f"{_INNER_PAD}  {_leaf_text(site)}" for site in lattice.indices]
        self.sites = [f"{_INNER_PAD}      {_leaf_text(site)}" for site in lattice.indices]

    def _lists(self, depth: int, owner: np.ndarray, bits: np.ndarray, weights: np.ndarray,
               masks: np.ndarray, wanted=None) -> list:
        """The branch list at `depth` of each row of `masks`, from a table
        whose rows, grouped by `owner`, are its branches: each branch's
        assignment on the positions its owner's mask marks and its weight.
        Owners that `wanted` (a list of flags) leaves out get None."""
        marked = masks[:, self.order]
        codes = (bits[:, self.order] + self.base)[marked[owner]].tolist()
        texts = [_float_text(_g12(w)) for w in weights.tolist()]
        counts = np.bincount(owner, minlength=len(masks)).tolist()
        widths = np.count_nonzero(marked, axis=1).tolist()
        lists, lo, at = [], 0, 0
        for g, (count, width) in enumerate(zip(counts, widths)):
            if wanted is None or wanted[g]:
                lists.append(self._items(depth, codes, at, width, texts[lo:lo + count]))
            else:
                lists.append(None)
            lo, at = lo + count, at + count * width
        return lists

    def _items(self, depth: int, codes: list, at: int, width: int, weights: list) -> str:
        """A branch list at `depth`: one branch per weight text, whose
        assignment is the next `width` codes of `codes` from index `at`."""
        if not weights:
            return "[]"
        pad = _INNER_PAD + " " * (4 * depth)   # the list's indent
        item, key = pad + "  ", pad + "    "
        if width:
            texts = self.keys[depth]
            assignments = ["{\n" + ",\n".join(map(texts.__getitem__, codes[i:i + width]))
                           + f"\n{key}}}"
                           for i in range(at, at + width * len(weights), width)]
        else:
            assignments = ["{}"] * len(weights)
        return f"[\n{item}" + f",\n{item}".join([
            f'{{\n{key}"assignment": {a},\n{key}"weight": {w}\n{item}}}'
            for a, w in zip(assignments, weights)]) + f"\n{pad}]"

    def chunk(self, analysed: analysis.BlockAnalysis) -> list:
        """Each state's (branch count, ``branches`` object, cluster count,
        ``clusters`` object) of an analysed block, the branch pair None
        unless the run asks for branches and the cluster pair None unless
        it asks for clusters."""
        owner, bits, weights, branched = analysed.branch_table
        counts = np.bincount(owner, minlength=analysed.block.size).tolist()
        lists = self._lists(0, owner, bits, weights, branched)
        found = [[] for _ in lists]
        if self.clusters:
            cluster_owner, sites = analysed.cluster_sites
            full = (sites.sum(1) == branched.sum(1)[cluster_owner]).tolist()
            if not all(full):   # the grouping is needed
                cluster, cluster_bits, cluster_weights = analysed.cluster_table
                grouped = self._lists(1, cluster, cluster_bits, cluster_weights, sites,
                                      [not f for f in full])
            for c, (o, mask) in enumerate(zip(cluster_owner.tolist(), sites.tolist())):
                items = lists[o].replace("\n", "\n    ") if full[c] else grouped[c]
                members = ",\n".join(compress(self.sites, mask))
                found[o].append(f'{{\n{_INNER_PAD}    "branches": {items},\n'
                                f'{_INNER_PAD}    "sites": [\n{members}\n'
                                f'{_INNER_PAD}    ]\n{_INNER_PAD}  }}')
        rows = []
        for count, items, mask, state in zip(counts, lists, (~branched).tolist(), found):
            branches = clusters = None
            if self.branches:
                unbranched = ",\n".join(compress(self.unbranched, mask))
                unbranched = f"[\n{unbranched}\n{_INNER_PAD}]" if unbranched else "[]"
                branches = Rendered(
                    f'{{\n{_INNER_PAD}"count": {count},\n{_INNER_PAD}"items": {items},'
                    f'\n{_INNER_PAD}"unbranched": {unbranched}\n{_STEP_PAD}  }}')
            if self.clusters:
                listed = (f"[\n{_INNER_PAD}  " + f",\n{_INNER_PAD}  ".join(state)
                          + f"\n{_INNER_PAD}]") if state else "[]"
                clusters = Rendered(f'{{\n{_INNER_PAD}"count": {len(state)},'
                                    f'\n{_INNER_PAD}"items": {listed}\n{_STEP_PAD}  }}')
            rows.append((count if self.branches else None, branches,
                         len(state) if self.clusters else None, clusters))
        return rows


class Step(NamedTuple):
    """One step of a report: its record in `report.json`, whose site,
    branch and cluster blocks are pre-rendered, its lines of
    timeseries.csv, and its branch count, None unless the run asks for
    branches."""

    record: dict
    series: str
    n_branches: Optional[int]


@dataclass
class Report:
    """A run's report as `write_report` streams it.

    `head` holds the document's ``engine`` and ``scenario`` objects,
    `steps` yields each `Step` once, analysing its state as it goes, and
    `files` names the files the report fills.  `final` is the last
    `Step` written.
    """

    head: dict
    steps: Iterator
    files: tuple
    final: Optional[Step] = None


def build_report(config: ScenarioConfig, states, tolerance: float, horizon: int) -> Report:
    """The report of a run of `config` whose states at t = 0 .. horizon
    `states` yields, each analysed only when `write_report` reaches it.

    Each state of at most EMBED_TERMS_LIMIT terms is embedded as the
    object `json.loads` reads from its `state_to_document` text; every
    embedded state shares the scenario's lattice text.
    """
    names = {a for a in config.analyses if isinstance(a, str)}
    settings = [(analysis.MeasurementSetting(a["site_a"], a.get("theta_a", 0.0)),
                 analysis.MeasurementSetting(a["site_b"], a.get("theta_b", 0.0)))
                for a in config.analyses
                if isinstance(a, Mapping) and a.get("type") == "correlation"]
    head = {
        "engine": {"name": "branchsim", "version": __version__, "tolerance": _g12(tolerance)},
        "scenario": {
            "name": config.name,
            "horizon": horizon,
            "lattice": lattice_to_json(config.lattice),
            "analyses": list(config.analyses),
        },
    }
    files = ("report.json", "timeseries.csv") + (("correlations.csv",) if settings else ())
    return Report(head, _steps(config.lattice, states, tolerance, names, settings), files)


def _chunks(states, cells_per_term: int) -> Iterator:
    """Consecutive states in lists whose terms times `cells_per_term`
    stay within CHUNK_CELLS, or of one state."""
    chunk, cells = [], 0
    for state in states:
        cells += state.n_terms * cells_per_term
        if chunk and cells > CHUNK_CELLS:
            yield chunk
            chunk, cells = [], state.n_terms * cells_per_term
        chunk.append(state)
    if chunk:
        yield chunk


def _part_texts(x: np.ndarray) -> list:
    """The text of each float of `x` as `json.dumps` writes what
    `json.loads` reads from its ``.17g`` text: an int when the float is
    integral and below 1e17 in magnitude (``.17g`` then writes no point
    or exponent, and -0.0 as ``-0``, which reads back as 0), otherwise the
    float itself."""
    texts = list(map(_float_text, x.tolist()))
    whole = np.flatnonzero((np.floor(x) == x) & (np.abs(x) < 1e17))
    for i, value in zip(whole.tolist(), x[whole].astype(np.int64).tolist()):
        texts[i] = int.__repr__(value)
    return texts


def _state_texts(block: StateBlock, embedded: list, lattice_text: str) -> list:
    """The ``state`` object of each state of a block that `embedded` flags,
    and None for the others: the object that `json.loads` reads from its
    `state_to_document` text, rendered at the indent of a step's keys, with
    the scenario lattice's `lattice_text`.  One pass over the block's
    table renders every flagged state: one sort of its rows by owner and
    basis string (the order of `PureState.terms`), the basis strings from
    one byte view of the bits, and the amplitude parts by `_part_texts`."""
    table = block.table
    bits, amps, owner = table.bits, table.amps, table.owner
    if not all(embedded):
        rows = np.flatnonzero(np.array(embedded)[owner])
        bits, amps, owner = bits[rows], amps[rows], owner_rows(owner, rows)
    order = row_keys(bits, owner).argsort()
    n = bits.shape[1]
    basis = np.ascontiguousarray(bits[order] + 48).view(f"S{n}").astype(f"U{n}").ravel().tolist()
    parts = _part_texts(amps[order].view(np.float64))   # each term's re, then its im
    pad, inner = _INNER_PAD + "  ", _INNER_PAD + "    "
    terms = [f'{{\n{inner}"basis": "{b}",\n{inner}"im": {i},\n{inner}"re": {r}\n{pad}}}'
             for b, r, i in zip(basis, parts[0::2], parts[1::2])]
    texts, lo = [], 0
    for flag, count in zip(embedded, np.bincount(owner, minlength=block.size).tolist()):
        if not flag:
            texts.append(None)
            continue
        listed = (f"[\n{pad}" + f",\n{pad}".join(terms[lo:lo + count])
                  + f"\n{_INNER_PAD}]") if count else "[]"
        texts.append(Rendered(f'{{\n{_INNER_PAD}"lattice": {lattice_text},'
                              f'\n{_INNER_PAD}"terms": {listed}\n{_STEP_PAD}  }}'))
        lo += count
    return texts


def _steps(lattice: Lattice, states, tolerance: float, names: set, settings: list) -> Iterator:
    """The `Step` of each state, analysed a chunk of states at a time: one
    `BlockAnalysis` of the chunk's `StateBlock`, read state by state, and
    the chunk's embedded states rendered from the same block.  A chunk
    that needs no analysis, no correlation and no embedded state builds
    neither."""
    lattice_text = None  # rendered for the first embedded state
    site_rows = _SiteRows(lattice) if "sites" in names else None
    branch_rows = _BranchRows(lattice, names) if names & {"branches", "clusters"} else None
    analyse = bool(site_rows or branch_rows or settings)
    t = 0
    for chunk in _chunks(states, lattice.n_sites * max(lattice.n_sites, len(settings))):
        embedded = [state.n_terms <= EMBED_TERMS_LIMIT for state in chunk]
        block = StateBlock.of(chunk) if analyse or any(embedded) else None
        embeds = [None] * len(chunk)
        if any(embedded):
            if lattice_text is None:
                lattice_text = _render(lattice_to_json(lattice), _INNER_PAD)
            embeds = _state_texts(block, embedded, lattice_text)
        analysed = analysis.BlockAnalysis(block, tolerance) if analyse else None
        rows = site_rows.chunk(analysed) if site_rows else [None] * len(chunk)
        blocks = branch_rows.chunk(analysed) if branch_rows else [(None,) * 4] * len(chunk)
        values = analysed.correlations(settings).tolist() if settings else None
        for i, (state, step_rows, embed) in enumerate(zip(chunk, rows, embeds)):
            record = {
                "step": t,
                "norm": _g12(norm(state)),
                "n_terms": state.n_terms,
            }
            if embed is not None:
                record["state"] = embed

            n_branches, branches, n_clusters, clusters = blocks[i]
            if branches is not None:
                record["branches"] = branches
            if clusters is not None:
                record["clusters"] = clusters

            if settings:
                record["correlations"] = [
                    {"site_a": a.site, "site_b": b.site,
                     "theta_a": _g12(a.theta), "theta_b": _g12(b.theta), "value": _g12(value)}
                    for (a, b), value in zip(settings, values[i])
                ]

            series = ""
            if site_rows:
                record["sites"] = site_rows.block(step_rows)
                counts = (f'{"" if n_branches is None else n_branches},'
                          f'{"" if n_clusters is None else n_clusters}\n')
                series = site_rows.series(step_rows, t, counts)
            yield Step(record, series, n_branches)
            t += 1


#: How `json` spells the non-finite floats.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _leaf_text(value) -> str:
    """The text of a scalar, tested in `json`'s order: booleans before
    ints, and subclasses such as numpy floats or enum ints by isinstance."""
    if isinstance(value, Rendered):
        return value.text
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
           bool: _leaf_text, type(None): _leaf_text, Rendered: _leaf_text}


def _write(value, pad: str, out) -> None:
    """Pass the text of `value`, indented by `pad`, to `out` in pieces."""
    if isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = pad + "  "
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


def _render(value, pad: str) -> str:
    """The text of `value` as `_write` gives it at indent `pad`."""
    chunks: list = []
    _write(value, pad, chunks.append)
    return "".join(chunks)


def json_text(doc) -> str:
    """The text of ``json.dumps(doc, sort_keys=True, indent=2)`` and a
    newline, byte for byte.

    `doc` holds dicts with string keys, lists, tuples, strings, ints,
    floats, booleans and None.  Strings are ASCII-escaped, floats print
    as `float.__repr__` (NaN and the infinities as ``NaN``, ``Infinity``
    and ``-Infinity``), and booleans are tested before ints, as `json`
    does.  A `Rendered` value is written as its text.
    """
    return _render(doc, "") + "\n"


def _stream(report: Report, json_out, series_out, correlations_out=None) -> None:
    """Pass the text of each of a report's files to its writer, one step
    at a time."""
    lead = "{\n  "
    for key in sorted(report.head):  # "engine" and "scenario" sort before "steps"
        json_out(f"{lead}{_quote(key)}: {_render(report.head[key], '  ')}")
        lead = ",\n  "
    json_out(f'{lead}"steps": [')
    series_out(_SERIES_HEADER)
    if correlations_out:
        correlations_out(_CORRELATIONS_HEADER)
    lead = "\n" + _STEP_PAD
    for step in report.steps:
        json_out(lead + _render(step.record, _STEP_PAD))
        lead = ",\n" + _STEP_PAD
        series_out(step.series)
        if correlations_out:
            t = step.record["step"]
            correlations_out("".join([
                f'{t},{c["site_a"]},{c["site_b"]},{c["theta_a"]:.12g},'
                f'{c["theta_b"]:.12g},{c["value"]:.12g}\n'
                for c in step.record["correlations"]]))
        report.final = step
    json_out("\n  ]\n}\n" if report.final is not None else "]\n}\n")


def write_files(out_dir, names, fill) -> list:
    """Write the files `names` into `out_dir` by calling `fill` with each
    one's ``write``, and return their paths.  Each is written as
    ``<name>.tmp`` and renamed over ``<name>`` once `fill` returns.  On
    any error the temporary files, and the directories this call made,
    are removed before the error propagates, so files of an earlier run
    in `out_dir` stay as they were and a new `out_dir` is not left behind.
    """
    made = []                       # the directories to make, deepest first
    probe = os.path.abspath(out_dir)
    while not os.path.exists(probe):
        made.append(probe)
        probe = os.path.dirname(probe)
    paths = [os.path.join(out_dir, name) for name in names]
    staged = [path + ".tmp" for path in paths]
    try:
        os.makedirs(out_dir, exist_ok=True)
        with contextlib.ExitStack() as stack:
            fill(*[stack.enter_context(open(tmp, "w", encoding="utf-8", newline="")).write
                   for tmp in staged])
        for tmp, path in zip(staged, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        for directory in made:
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise
    return paths


def write_report(report: Report, out_dir) -> list:
    """Stream `report` into `out_dir` through `write_files`: report.json,
    timeseries.csv and, when the run asks for correlations,
    correlations.csv.  Returns the written paths."""
    return write_files(out_dir, report.files, functools.partial(_stream, report))
