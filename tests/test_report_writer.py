"""Property tests for the report's JSON writer and its array rounding.

`json_text` must give the bytes of ``json.dumps(doc, sort_keys=True,
indent=2)`` and a newline for any document of dicts, lists, tuples and
scalars.  `_g12_array` must give each entry the float that `_g12` gives
it, down to the sign bit, and `_site_records` the site block that the
per-entry loop it replaced built.
"""

import enum
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import branchsim as bs
from branchsim.analysis import StateAnalysis
from branchsim.reporting import _g12, _g12_array, _site_records, json_text


def reference_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2 ** 70


SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e-7,
                  1e22, 0.1, math.nan, math.inf, -math.inf)
SPECIAL_TEXT = ("", "é", "é中\U0001f600", '"', "\\", "\x00\x1f\x7f",
                "\n\t\r\b\f", "\ud800", "a \"quoted\" \\ path")

keys = st.text() | st.sampled_from(SPECIAL_TEXT)
leaves = (st.none() | st.booleans()
          | st.integers() | st.sampled_from([2 ** 63, -2 ** 63 - 1, 2 ** 64 + 1, 10 ** 30])
          | st.floats(allow_nan=True, allow_infinity=True)
          | st.sampled_from(SPECIAL_FLOATS)
          | st.floats(allow_nan=True, allow_infinity=True).map(np.float64)
          | st.sampled_from(list(Level))
          | st.text() | st.sampled_from(SPECIAL_TEXT))
documents = st.recursive(
    leaves,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(keys, children, max_size=4)),
    max_leaves=30)


class TestJsonText:
    @settings(max_examples=400, deadline=None)
    @given(documents)
    @example({})
    @example([])
    @example(())
    @example({"a": {}, "b": [], "c": (), "d": [[]], "e": [{}]})
    @example([True, 1, False, 0, None, 1.0, -0.0])
    @example({"": [0.5, -0.0], "é": {"\"": "\\"}})
    @example([math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-7])
    def test_matches_json_dumps(self, doc):
        assert json_text(doc) == reference_text(doc)

    @pytest.mark.parametrize("scenario", ["single", "bidirectional", "collision", "epr"])
    def test_scenario_report_matches_json_dumps(self, scenario):
        config = bs.schedule.config_from_document(json.dumps({"scenario": scenario}))
        report = bs.reporting.build_report(config, config.run(), 1e-9)
        assert json_text(report) == reference_text(report)

    @pytest.mark.parametrize("value", [object(), np.bool_(True), np.int64(3), {1, 2},
                                       {"a": [b"x"]}])
    def test_rejects_what_json_rejects(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            json_text(value)

    @pytest.mark.parametrize("value", [{1: "x"}, {"a": {2.0: 1}}, {None: 0}])
    def test_rejects_keys_that_are_not_strings(self, value):
        # json would print these keys as strings; a report has none
        with pytest.raises(TypeError):
            json_text(value)


def bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def from_bits(pattern: int) -> float:
    return struct.unpack("<d", struct.pack("<q", pattern))[0]


#: ±0, NaNs with either sign and a payload, ±inf, subnormals and ties at
#: the twelfth significant digit (13-digit integers ending in 5, exact in
#: float64, which `.12g` rounds half to even).
EDGE_FLOATS = (0.0, -0.0, math.nan, -math.nan, from_bits(0x7FF8000000000123),
               from_bits(-0x0007FFFFFFFFFFFF), math.inf, -math.inf, 5e-324, -5e-324,
               1e-310, -2.225073858507e-308, 1234567890125.0, 1234567890135.0,
               -9999999999995.0, 1000000000000.5, 0.30000000000000004, 1e16, 1.0, -1.0)


class TestRoundingOnce:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True)
                    | st.sampled_from(EDGE_FLOATS)
                    | st.integers(-2 ** 63, 2 ** 63 - 1).map(from_bits), max_size=40),
           st.sampled_from([1, 2, 4]))
    @example(list(EDGE_FLOATS), 4)
    @example([0.0, -0.0, 0.0, -0.0], 2)
    def test_bit_identical_to_each_entry(self, values, width):
        values = values[: len(values) // width * width]
        table = np.array(values, dtype=np.float64).reshape(-1, width)
        rows = _g12_array(table)
        assert len(rows) == table.shape[0] and all(len(row) == width for row in rows)
        assert [bits(row) for row in rows] == [bits([_g12(x) for x in row])
                                               for row in table.tolist()]

    def test_signed_zero_keeps_its_sign(self):
        assert bits(_g12_array(np.array([0.0, -0.0, -0.0, 0.0]))) == bits([0.0, -0.0, -0.0, 0.0])


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
            summary = StateAnalysis(state)
            new = _site_records(summary.marginals, summary.decohered)
            old = entry_loop_sites(summary.marginals, summary.decohered)
            # repr keeps the sign of zero that == ignores
            assert repr(new) == repr(old)
            assert all(type(v) is float for rec in new.values() for pair in rec["rdm"]
                       for v in pair)
