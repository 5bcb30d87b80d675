"""The config reader, pinned by one digest over seeded mutations of valid
documents.

Each document is a valid config with one or two parts dropped,
duplicated, retyped or replaced by an awkward value (2.0, 2.5, -1, -0.0,
1e308, 10**400, NaN, infinities, booleans, strings, nulls, and schedule
entries of 1 or 3 sites, with clashing or repeated sites or an unknown
gate).  The outcome of reading it is hashed: the config's lattice,
initial-table bits and amplitude bytes, applications, horizon and
analyses, and the steps `compile_schedule` makes of them with any
warning, or else the exception's class and text.  A reader rewritten for
speed must give every document the same outcome, so the same digest.
"""

import copy
import hashlib
import json
import random
import warnings

import pytest

import branchsim as bs
from branchsim.schedule import compile_schedule

R = 0.7071067811865475

#: Values put in place of a part of a document.
AWKWARD = (2.0, 2.5, -1, -0.0, 0, 1, 3, 1e308, 10 ** 400, float("nan"), float("inf"),
           float("-inf"), True, False, "1", "U_si", "x", None, [], {}, [0, 1], [[1, 0], [0, 0]])

GATE_NAMES = ("U_si", "U_copy", "U_swap", "H", "I", "rot(0.25)", "U_nope", "rot(x)", "u_si")


def wide_brickwork() -> dict:
    """The benchmark's many-term shape: 32 sites, ten in |+>, and an
    8-step brickwork of 124 gates."""
    plus = {1, 3, 6, 10, 13, 17, 20, 24, 27, 30}
    return {
        "name": "wide brickwork",
        "lattice": [{"index": s, "kind": "system" if s == 0 else "field"} for s in range(32)],
        "initial": {"product": {str(s): [[R, 0], [R, 0]] if s in plus else [[1, 0], [0, 0]]
                                for s in range(32)}},
        "schedule": [{"time": t, "sites": [a, a + 1],
                      "gate": "U_si" if a == 0 else ("U_copy", "U_swap")[(3 * a + t) % 5 < 2]}
                     for t in range(8) for a in range(t % 2, 31, 2)],
        "horizon": 8,
        "analyses": [],
    }


def inline_gates() -> dict:
    """Inline 4x4 and 2x2 matrices, complex product vectors, entries out
    of time order and one non-adjacent pair."""
    cnot = [[[1.0 if (0, 1, 3, 2)[j] == i else 0.0, 0.0] for j in range(4)] for i in range(4)]
    phase = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    return {
        "lattice": [{"index": -1, "kind": "field"}, {"index": 0, "kind": "system"},
                    {"index": 1, "kind": "field"}, {"index": 2, "kind": "field"}],
        "initial": {"product": {"-1": [1, 0], "0": [[0.6, 0], [0, 0.8]],
                                "1": [[R, 0], [0, -R]], "2": [[1, 0], [0, 0]]}},
        "schedule": [{"time": 1, "sites": [1, 2], "gate": cnot},
                     {"time": 0, "sites": [0, 1], "gate": "U_si"},
                     {"time": 0, "sites": [-1], "gate": phase},
                     {"time": 1, "sites": [0], "gate": "rot(0.25)"},
                     {"time": 2, "sites": [2, 0], "gate": cnot},
                     {"time": 2, "sites": [-1], "gate": "H"}],
        "analyses": ["sites", "branches"],
    }


def explicit_terms() -> dict:
    return {
        "name": "terms",
        "lattice": [{"index": 0, "kind": "system"}, {"index": 1, "kind": "field"},
                    {"index": 2, "kind": "field"}],
        "initial": {"terms": [{"basis": "000", "re": 0.6},
                              {"basis": "011", "re": 0.0, "im": 0.8}]},
        "schedule": [{"time": 0, "sites": [0, 1], "gate": "U_si"},
                     {"time": 1, "sites": [1, 2], "gate": "U_copy"}],
        "horizon": 3,
        "analyses": ["clusters", {"type": "correlation", "site_a": 0, "site_b": 2,
                                  "theta_a": 0.5}],
    }


#: The documents mutated, explicit ones more often than built-in scenarios.
BASES = (
    wide_brickwork(), wide_brickwork(), wide_brickwork(),
    inline_gates(), inline_gates(),
    explicit_terms(), explicit_terms(),
    {"scenario": "single", "params": {"alpha": [0.6, 0.0], "beta": [0.0, 0.8], "n_sites": 5}},
    {"scenario": "bidirectional", "params": {"n_right": 4}, "horizon": 3},
    {"scenario": "collision", "params": {"n_field": 4}},
    {"scenario": "epr", "params": {"n_field": 2},
     "analyses": ["sites", {"type": "correlation", "site_a": 2, "site_b": 3, "theta_b": 0.5}]},
)


class Pairs:
    """A JSON object written as a list of (key, value) pairs, so a key may
    repeat (`json.loads` keeps the last)."""

    def __init__(self, pairs):
        self.pairs = pairs


def dumps(value) -> str:
    if isinstance(value, (Pairs, dict)):
        pairs = value.pairs if isinstance(value, Pairs) else value.items()
        return "{" + ", ".join(f"{json.dumps(k)}: {dumps(v)}" for k, v in pairs) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dumps(v) for v in value) + "]"
    return json.dumps(value)


def paths(value, prefix=()):
    """The path of every part of a document, the document itself first."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from paths(item, prefix + (i,))


def mutate(doc, rng: random.Random):
    """Change one part of `doc` in place, or return a new document."""
    kind = rng.choice(("value", "value", "drop", "dup", "retype", "entry", "entry"))
    entries = doc.get("schedule")
    if kind == "entry" and isinstance(entries, list) and entries:
        entry = rng.choice(entries)
        if not isinstance(entry, dict):
            return doc
        other = rng.choice(entries)
        sites = entry.get("sites") if isinstance(entry.get("sites"), list) else [0, 1]
        how = rng.randrange(6)
        if how == 0:
            entry["sites"] = sites[:1]
        elif how == 1:
            entry["sites"] = sites + [rng.choice((2, 7, -1, 2.0))]
        elif how == 2:
            entry["sites"] = [sites[0], sites[0]] if sites else []
        elif how == 3 and isinstance(other, dict):    # a clash, unless it is the same entry
            entry["time"], entry["sites"] = other.get("time"), other.get("sites")
        elif how == 4:
            entry["gate"] = rng.choice(GATE_NAMES)
        else:
            entry["time"] = rng.choice((0, 1, 2.0, 9, -1, 10_001))
        return doc
    path = rng.choice(list(paths(doc))[1:] or [()])
    if not path:
        return rng.choice(AWKWARD)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if kind == "drop":
        del parent[last]
    elif kind == "dup":
        if isinstance(parent, list):
            parent.insert(last, copy.deepcopy(parent[last]))
        else:
            pairs = list(parent.items())
            pairs.insert(rng.randrange(len(pairs) + 1), (last, rng.choice(AWKWARD)))
            return replace_at(doc, path[:-1], Pairs(pairs))
    elif kind == "retype":
        value = parent[last]
        parent[last] = ({str(i): v for i, v in enumerate(value)} if isinstance(value, list)
                        else list(value.values()) if isinstance(value, dict)
                        else str(value) if rng.random() < 0.5 else [value])
    else:
        parent[last] = rng.choice(AWKWARD)
    return doc


def replace_at(doc, path, value):
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


def documents(count: int, seed: int = 32) -> list:
    """`count` mutated documents as JSON text, the same for one seed."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        doc = copy.deepcopy(rng.choice(BASES))
        for _ in range(rng.choice((1, 1, 2))):
            if type(doc) is not dict:
                break
            doc = mutate(doc, rng)
        texts.append(dumps(doc))
    return texts


def _gate_text(gate) -> str:
    return gate if isinstance(gate, str) else f"{gate.name} {gate.matrix.tobytes().hex()}"


def _action_text(action) -> str:
    arrays = (action.start, action.row_bits, action.re, action.im)
    return (hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()[:16]
            + f" {action.classical} {action.masks}")


#: numpy's text for a ragged inline matrix, whose tail differs between
#: numpy versions; the outcome keeps this prefix of it.
RAGGED = "setting an array element with a sequence."


def outcome(text: str) -> str:
    """What reading `text` gives, as text: the config and its compiled
    steps, or the exception's class and text."""
    try:
        config = bs.config_from_document(text)
    except Exception as exc:   # noqa: BLE001 - the class is part of the outcome
        message = str(exc)
        if RAGGED in message:
            message = message[:message.index(RAGGED) + len(RAGGED)]
        return f"{type(exc).__name__}: {message}"
    table = config.initial.table
    parts = [
        config.name,
        repr([(s.index, s.kind.value) for s in config.lattice.sites]),
        f"{table.bits.shape} {table.bits.tobytes().hex()} {table.amps.tobytes().hex()}",
        repr([(a.time, a.sites, _gate_text(a.gate)) for a in config.schedule.applications]),
        repr(config.horizon),
        repr(config.analyses),
    ]
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            steps = compile_schedule(config.schedule, config.lattice, config.horizon)
        parts.append(repr([[(positions, _action_text(action)) for positions, action in step]
                           for step in steps]))
        parts.append(repr([str(w.message) for w in caught]))
    except Exception as exc:   # noqa: BLE001
        parts.append(f"compile {type(exc).__name__}: {exc}")
    return "\n".join(parts)


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
        h.update(outcome(text).encode())
        h.update(b"\0")
    return h.hexdigest()


DOCUMENTS = 1000

#: Recorded from the reader that checked every value through `read_whole`,
#: `read_list`, `read_object`, `_site_vector`, `GateApplication` and `Schedule`.
READER_DIGEST = "e30433eee399753e302bb3a39f598e3bedaf208563977eb4b701f7232597b12f"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_reader_digest_is_pinned():
    assert digest(documents(DOCUMENTS)) == READER_DIGEST


def test_the_documents_reach_every_kind_of_outcome():
    # every document either reads or fails with one ConfigError
    outcomes = [outcome(text) for text in documents(DOCUMENTS)]
    failed = [o for o in outcomes if o.startswith("ConfigError: ")]
    read = [o for o in outcomes if "\n" in o]
    assert len(failed) + len(read) == DOCUMENTS
    assert len(read) >= DOCUMENTS // 10 and len(failed) >= DOCUMENTS // 2
    assert sum("compile " not in o for o in read) >= DOCUMENTS // 10
    for mention in ("compile ScheduleError", "compile LatticeError", "non-adjacent"):
        assert any(mention in o for o in read), mention
    # the many-term document reads in some mutations, with its 1,024 terms
    assert any(o.startswith("wide brickwork\n") and "(1024, 32)" in o for o in read)
    for mention in ("must be a whole number, got 2.5", "hit by two gates at once",
                    "unknown gate name", "application needs 1 or 2 distinct sites",
                    "must be a list", "entries must be objects", "has no",
                    "negative time", "must cover the lattice", "not normalised",
                    "must strictly increase", "not unitary"):
        assert any(mention in o for o in failed), mention
