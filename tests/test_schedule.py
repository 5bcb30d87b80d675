import json
import math

import numpy as np
import pytest

import branchsim as bs
from branchsim.reference_states import REFERENCE_SEQUENCES

R2 = 1 / math.sqrt(2)


class TestScheduleValidation:
    def test_overlapping_supports_rejected(self):
        with pytest.raises(bs.ScheduleError):
            bs.Schedule((bs.GateApplication(0, (0, 1), "U_copy"),
                         bs.GateApplication(0, (1, 2), "U_copy")))

    def test_same_sites_different_steps_fine(self):
        sched = bs.Schedule((bs.GateApplication(0, (0, 1), "U_copy"),
                             bs.GateApplication(1, (0, 1), "U_copy")))
        assert sched.horizon == 2

    def test_negative_time_rejected(self):
        with pytest.raises(bs.ScheduleError):
            bs.GateApplication(-1, (0, 1), "U_copy")

    def test_duplicate_sites_rejected(self):
        with pytest.raises(bs.ScheduleError):
            bs.GateApplication(0, (1, 1), "U_copy")

    def test_site_count_must_match_gate(self):
        app = bs.GateApplication(0, (0,), "U_copy")  # two-site gate, one site
        with pytest.raises(bs.ScheduleError):
            app.resolved_gate()

    def test_unknown_gate_name_fails_at_run(self):
        lat = bs.chain_lattice([0], [1])
        state = bs.product_state(lat, {0: [1, 0], 1: [1, 0]})
        sched = bs.Schedule((bs.GateApplication(0, (0, 1), "U_nope"),))
        with pytest.raises(bs.GateError):
            bs.run_schedule(state, sched)

    def test_horizon_bound(self):
        limit = bs.schedule.MAX_HORIZON
        lat = bs.chain_lattice([0], [1])
        sched = bs.Schedule((bs.GateApplication(limit - 1, (0, 1), "U_si"),))
        steps = bs.schedule.compile_schedule(sched, lat)
        assert len(steps) == limit and len(steps[-1]) == 1
        with pytest.raises(bs.ScheduleError, match="exceeds the limit"):
            bs.schedule.compile_schedule(sched, lat, limit + 1)


class TestRunSchedule:
    def test_empty_schedule_is_identity(self):
        lat = bs.chain_lattice([0], [1])
        state = bs.product_state(lat, {0: [R2, R2], 1: [1, 0]})
        states = bs.run_schedule(state, bs.Schedule(()), horizon=3)
        assert len(states) == 4
        for s in states:
            assert bs.overlap(s, state) == pytest.approx(1.0, abs=1e-12)

    def test_horizon_beyond_schedule_pads_with_identity(self):
        config = bs.scenario_single(R2, R2, 4)
        states = config.run(horizon=7)
        assert len(states) == 8
        assert bs.overlap(states[4], states[7]) == pytest.approx(1.0, abs=1e-12)

    def test_runs_are_deterministic(self):
        a = bs.scenario_collision().run()
        b = bs.scenario_collision().run()
        for s, t in zip(a, b):
            assert dict(s.amplitudes) == dict(t.amplitudes)

    def test_run_steps_yields_the_run_one_state_at_a_time(self):
        config = bs.scenario_collision()
        steps = bs.run_steps(config.initial, config.schedule)
        assert next(steps) is config.initial
        rest = list(steps)
        expected = config.run()
        assert len(rest) == len(expected) - 1
        for s, t in zip(rest, expected[1:]):
            assert s.table.bits.tobytes() == t.table.bits.tobytes()
            assert s.table.amps.tobytes() == t.table.amps.tobytes()

    def test_run_steps_refuses_a_bad_horizon_before_any_state(self):
        config = bs.scenario_single(R2, R2, 4)
        with pytest.raises(bs.ScheduleError, match="negative horizon"):
            bs.run_steps(config.initial, config.schedule, -1)

    def test_non_adjacent_gate_warns(self):
        lat = bs.chain_lattice([0], [1, 2])
        state = bs.product_state(lat, {0: [1, 0], 1: [1, 0], 2: [1, 0]})
        sched = bs.Schedule((bs.GateApplication(0, (0, 2), "U_swap"),))
        with pytest.warns(UserWarning, match="non-adjacent"):
            bs.run_schedule(state, sched)

    def test_single_site_applications_run(self):
        lat = bs.chain_lattice([0], [1])
        state = bs.product_state(lat, {0: [1, 0], 1: [1, 0]})
        sched = bs.Schedule((bs.GateApplication(0, (0,), f"rot({math.pi})"),))
        final = bs.run_schedule(state, sched)[-1]
        assert abs(final.amplitude("10")) == pytest.approx(1.0, abs=1e-12)


class TestScenarioSequences:
    @pytest.mark.parametrize("name", sorted(REFERENCE_SEQUENCES))
    def test_matches_closed_form(self, name):
        expected = REFERENCE_SEQUENCES[name]()
        states = bs.SCENARIOS[name]().run(horizon=len(expected) - 1)
        for t, (sim, known) in enumerate(zip(states, expected)):
            assert bs.overlap(sim, known) == pytest.approx(1.0, abs=1e-12), f"step {t}"
            assert bs.norm(sim) == pytest.approx(1.0, abs=1e-12)

    def test_single_biased_weights(self):
        states = bs.scenario_single(math.sqrt(2 / 3), math.sqrt(1 / 3), 4).run()
        final = states[-1]
        assert abs(final.amplitude("01111")) ** 2 == pytest.approx(2 / 3, abs=1e-12)
        assert abs(final.amplitude("10000")) ** 2 == pytest.approx(1 / 3, abs=1e-12)

    def test_single_needs_a_field_site(self):
        with pytest.raises(bs.ConfigError):
            bs.scenario_single(n_sites=0)

    def test_bidirectional_needs_three_right_sites(self):
        with pytest.raises(bs.ConfigError):
            bs.scenario_bidirectional(2)

    def test_collision_rejects_odd_chains(self):
        # an odd chain has no central pair for the records to cross at
        with pytest.raises(bs.ConfigError):
            bs.scenario_collision(5)

    def test_collision_longer_chain_still_crosses(self):
        states = bs.scenario_collision(6).run()
        final = states[-1]
        decomp = bs.branch_decompose(final)
        assert decomp.n_branches == 4
        # records have passed each other: left record now right of center
        assert bs.is_decohered(final, 4) and bs.is_decohered(final, 3)

    def test_epr_two_terms_throughout(self):
        for state in bs.scenario_epr().run():
            assert state.n_terms == 2


class TestConfigDocuments:
    def test_named_scenario(self):
        config = bs.config_from_document('{"scenario": "epr"}')
        assert config.name == "epr"
        assert len(config.lattice.system_sites) == 2

    def test_named_scenario_with_params(self):
        doc = {"scenario": "single",
               "params": {"alpha": [0.6, 0.0], "beta": [0.0, 0.8], "n_sites": 6}}
        config = bs.config_from_document(json.dumps(doc))
        assert config.lattice.n_sites == 7
        assert abs(config.initial.amplitude("0000000") - 0.6) < 1e-12

    def test_explicit_document(self):
        doc = {
            "lattice": [{"index": 0, "kind": "system"}, {"index": 1, "kind": "field"}],
            "initial": {"product": {"0": [[0.6, 0], [0.8, 0]], "1": [[1, 0], [0, 0]]}},
            "schedule": [{"time": 0, "sites": [0, 1], "gate": "U_si"}],
            "horizon": 2,
            "analyses": ["sites"],
        }
        config = bs.config_from_document(json.dumps(doc))
        states = config.run()
        assert len(states) == 3
        assert states[1].amplitude("01") == pytest.approx(0.6, abs=1e-12)

    def test_terms_initial_state(self):
        doc = {
            "lattice": [{"index": 0, "kind": "system"}, {"index": 1, "kind": "system"}],
            "initial": {"terms": [{"basis": "01", "re": 1.0}, {"basis": "10", "re": 1.0}]},
            "schedule": [],
        }
        config = bs.config_from_document(json.dumps(doc))
        assert config.initial.amplitude("01") == pytest.approx(R2, abs=1e-12)

    def test_inline_matrix_gate(self):
        swap = [[[1, 0], [0, 0], [0, 0], [0, 0]],
                [[0, 0], [0, 0], [1, 0], [0, 0]],
                [[0, 0], [1, 0], [0, 0], [0, 0]],
                [[0, 0], [0, 0], [0, 0], [1, 0]]]
        doc = {
            "lattice": [{"index": 0, "kind": "field"}, {"index": 1, "kind": "field"}],
            "initial": {"terms": [{"basis": "10", "re": 1.0}]},
            "schedule": [{"time": 0, "sites": [0, 1], "gate": swap}],
        }
        final = bs.config_from_document(json.dumps(doc)).run()[-1]
        assert abs(final.amplitude("01")) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_json_rejected(self):
        with pytest.raises(bs.ConfigError):
            bs.config_from_document("{not json")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(bs.ConfigError):
            bs.config_from_document('{"scenario": "quantum_gravity"}')

    def test_bad_gate_name_rejected(self):
        doc = {
            "lattice": [{"index": 0, "kind": "field"}, {"index": 1, "kind": "field"}],
            "initial": {"terms": [{"basis": "00", "re": 1.0}]},
            "schedule": [{"time": 0, "sites": [0, 1], "gate": "U_nope"}],
        }
        with pytest.raises(bs.ConfigError):
            bs.config_from_document(json.dumps(doc))

    def test_non_unitary_inline_matrix_rejected(self):
        doc = {
            "lattice": [{"index": 0, "kind": "field"}, {"index": 1, "kind": "field"}],
            "initial": {"terms": [{"basis": "00", "re": 1.0}]},
            "schedule": [{"time": 0, "sites": [0, 1],
                          "gate": [[[1, 0]] * 4] * 4}],
        }
        with pytest.raises(bs.ConfigError):
            bs.config_from_document(json.dumps(doc))


#: A well-formed explicit config that the error table breaks one part of.
_DOC = {"lattice": [{"index": 0, "kind": "system"}, {"index": 1, "kind": "field"},
                    {"index": 2, "kind": "field"}],
        "initial": {"product": {"0": [[R2, 0], [R2, 0]], "1": [[1, 0], [0, 0]], "2": [1, 0]}},
        "schedule": [{"time": 0, "sites": [0, 1], "gate": "U_si"},
                     {"time": 1, "sites": [1, 2], "gate": "U_copy"}]}
_ENTRY = _DOC["schedule"][1]


def _with_entry(entry):
    doc = json.loads(json.dumps(_DOC))
    doc["schedule"][1] = entry
    return doc


def _entry_with(**fields):
    return _with_entry(dict(_ENTRY, **fields))


def _entry_without(field):
    return _with_entry({k: v for k, v in _ENTRY.items() if k != field})


def _with_product(site, vector):
    doc = json.loads(json.dumps(_DOC))
    doc["initial"]["product"][site] = vector
    return doc


class TestConfigErrors:
    """Each malformed schedule or product entry gives one ConfigError,
    whose text is pinned here."""

    CASES = {
        "entry-number": (_with_entry(5),
                         "malformed config: 'schedule' entries must be objects, got 5"),
        "entry-list": (_with_entry([1, [1, 2], "U_copy"]),
                       "malformed config: 'schedule' entries must be objects, "
                       "got [1, [1, 2], 'U_copy']"),
        "schedule-object": (dict(_DOC, schedule={"time": 0}),
                            "malformed config: 'schedule' must be a list, got {'time': 0}"),
        "no-time": (_entry_without("time"), "malformed config: 'schedule' entry "
                    "{'sites': [1, 2], 'gate': 'U_copy'} has no 'time'"),
        "no-sites": (_entry_without("sites"), "malformed config: 'schedule' entry "
                     "{'time': 1, 'gate': 'U_copy'} has no 'sites'"),
        "no-gate": (_entry_without("gate"), "malformed config: 'schedule' entry "
                    "{'time': 1, 'sites': [1, 2]} has no 'gate'"),
        "bool-time": (_entry_with(time=True),
                      "malformed config: 'time' must be a whole number, got True"),
        "fraction-time": (_entry_with(time=2.5),
                          "malformed config: 'time' must be a whole number, got 2.5"),
        "string-time": (_entry_with(time="1"),
                        "malformed config: 'time' must be a whole number, got '1'"),
        "null-time": (_entry_with(time=None),
                      "malformed config: 'time' must be a whole number, got None"),
        "negative-time": (_entry_with(time=-1), "malformed config: negative time -1"),
        "bool-site": (_entry_with(sites=[1, True]),
                      "malformed config: 'sites' must be a whole number, got True"),
        "list-site": (_entry_with(sites=[[1], 2]),
                      "malformed config: 'sites' must be a whole number, got [1]"),
        "fraction-site": (_entry_with(sites=[1, 2.5]),
                          "malformed config: 'sites' must be a whole number, got 2.5"),
        "string-sites": (_entry_with(sites="12"),
                         "malformed config: 'sites' must be a list, got '12'"),
        "three-sites": (_entry_with(sites=[0, 1, 2]), "malformed config: application needs "
                        "1 or 2 distinct sites, got (0, 1, 2)"),
        "no-site": (_entry_with(sites=[]),
                    "malformed config: application needs 1 or 2 distinct sites, got ()"),
        "repeated-site": (_entry_with(sites=[2, 2]), "malformed config: application needs "
                          "1 or 2 distinct sites, got (2, 2)"),
        "clash": (_entry_with(time=0, sites=[1, 2]),
                  "malformed config: step 0: site(s) [1] hit by two gates at once"),
        "unknown-gate": (_entry_with(gate="U_nope"),
                         "malformed config: unknown gate name 'U_nope'"),
        "number-gate": (_entry_with(gate=3), "bad gate entry 3"),
        "string-cell": (_entry_with(gate=[[["a", 0], [0, 0]], [[0, 0], [1, 0]]]),
                        "malformed config: 'gate' must be a number, got 'a'"),
        "non-unitary": (_entry_with(gate=[[[1, 0]] * 4] * 4),
                        "custom: matrix is not unitary within 1e-12"),
        "product-three": (_with_product("1", [[1, 0], [0, 0], [0, 0]]),
                          "malformed config: site 1: want 2 components, got shape (3,)"),
        "product-one": (_with_product("1", [1]),
                        "malformed config: site 1: want 2 components, got shape (1,)"),
        "product-norm": (_with_product("1", [[1, 0], [1, 0]]),
                         "malformed config: site 1: vector not normalised (|v|^2 = 2.0)"),
        "product-nan": (_with_product("1", [float("nan"), 0]),
                        "malformed config: site 1: vector not normalised (|v|^2 = nan)"),
        "product-string": (_with_product("1", ["a", 0]),
                           "malformed config: 'product 1' must be a number, got 'a'"),
        "product-bool": (_with_product("1", [True, 0]),
                         "malformed config: 'product 1' must be a number, got True"),
        "product-pair-bool": (_with_product("1", [[1, False], [0, 0]]),
                              "malformed config: 'product 1' must be a number, got False"),
        "product-number": (_with_product("1", 5),
                           "malformed config: 'int' object is not iterable"),
        "product-missing": (dict(_DOC, initial={"product": {"0": [1, 0], "1": [1, 0]}}),
                            "malformed config: site states must cover the lattice exactly "
                            "(missing [2], extra [])"),
        "product-extra": (_with_product("7", [1, 0]),
                          "malformed config: site states must cover the lattice exactly "
                          "(missing [], extra ['7'])"),
        "product-list": (dict(_DOC, initial={"product": [[1, 0]]}),
                         "'product' must be an object, got [[1, 0]]"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_malformed_entry(self, name):
        doc, text = self.CASES[name]
        with pytest.raises(bs.ConfigError) as caught:
            bs.config_from_document(json.dumps(doc))
        assert str(caught.value) == text

    @pytest.mark.parametrize("sites, error, text", [
        ([1], bs.ScheduleError, "gate U_copy acts on 2 site(s), got sites (1,)"),
        ([1, 9], bs.LatticeError, "site 9 is not on the lattice (0, 1, 2)"),
    ], ids=["arity", "off-lattice"])
    def test_an_entry_the_run_refuses(self, sites, error, text):
        config = bs.config_from_document(json.dumps(_entry_with(sites=sites)))
        with pytest.raises(error) as caught:
            config.run()
        assert str(caught.value) == text

    def test_the_well_formed_document_reads(self):
        config = bs.config_from_document(json.dumps(_DOC))
        assert [(a.time, a.sites, a.gate) for a in config.schedule.applications] == [
            (0, (0, 1), "U_si"), (1, (1, 2), "U_copy")]
        assert config.initial.amplitude("000") == pytest.approx(R2, abs=1e-15)


class TestLightCone:
    def test_records_spread_one_site_per_step(self):
        n = 6
        states = bs.scenario_single(R2, R2, n).run()
        for t, state in enumerate(states):
            for k in range(1, n + 1):
                rho = bs.reduced_density_matrix(state, [k])
                if t < k:  # outside the cone: still exactly up
                    assert bs.purity(rho) == pytest.approx(1.0, abs=1e-10)
                else:      # inside: carries a full record
                    assert bs.is_decohered(state, k)

    def test_swap_transport_leaves_no_copies(self, collision_states):
        # after the records move on, interior sites return to purity 1
        t2 = collision_states[2]
        assert bs.purity(bs.reduced_density_matrix(t2, [1])) == pytest.approx(1.0, abs=1e-10)
        assert bs.purity(bs.reduced_density_matrix(t2, [4])) == pytest.approx(1.0, abs=1e-10)
        assert bs.is_decohered(t2, 2) and bs.is_decohered(t2, 3)
