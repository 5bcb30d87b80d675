import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import branchsim as bs
from branchsim import cli, reporting
from branchsim.bell import RecordScanResult


def write_config(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestScenarioList:
    def test_lists_all_four(self, capsys):
        assert cli.main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("single", "bidirectional", "collision", "epr"):
            assert name in out


class TestRun:
    def test_epr_run_writes_report(self, tmp_path, capsys):
        config = write_config(tmp_path, {"scenario": "epr"})
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["scenario"]["name"] == "epr"
        final = report["steps"][-1]
        assert final["branches"]["count"] == 2
        assert final["clusters"]["count"] == 1
        assert final["clusters"]["items"][0]["sites"] == [0, 2, 3, 5]
        series = (out_dir / "timeseries.csv").read_text().splitlines()
        assert series[0] == "step,site,coherence,purity,entropy,branch_count,cluster_count"
        assert len(series) == 1 + 4 * 6  # header + 4 steps x 6 sites

    def test_reports_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path, {"scenario": "collision"})
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", config, "--out", str(a)]) == 0
        assert cli.main(["run", "--config", config, "--out", str(b)]) == 0
        for name in ("report.json", "timeseries.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_run_with_oracle_cross_check(self, tmp_path):
        config = write_config(tmp_path, {"scenario": "bidirectional"})
        code = cli.main(["run", "--config", config, "--out", str(tmp_path / "o"),
                         "--verify"])
        assert code == 0

    def test_horizon_override(self, tmp_path):
        config = write_config(tmp_path, {"scenario": "single"})
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out_dir),
                         "--horizon", "2"]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert len(report["steps"]) == 3

    # a built-in scenario's config horizon used to be ignored: 3 steps
    # were run whatever it said
    @pytest.mark.parametrize("horizon, extra, steps", [(5, [], 6), (0, [], 1), (2.0, [], 3),
                                                       (5, ["--horizon", "1"], 2)])
    def test_scenario_config_horizon(self, tmp_path, horizon, extra, steps):
        config = write_config(tmp_path, {"scenario": "single", "params": {"n_sites": 3},
                                         "horizon": horizon})
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out_dir), *extra]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert len(report["steps"]) == steps
        assert report["scenario"]["horizon"] == steps - 1

    @pytest.mark.parametrize("analyses, printed", [(None, "4"), (["sites", "clusters"], "?"),
                                                   ([], "?")])
    def test_final_branch_count_is_the_last_steps(self, tmp_path, capsys, analyses, printed):
        doc = {"scenario": "collision"}
        if analyses is not None:
            doc["analyses"] = analyses
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", write_config(tmp_path, doc),
                         "--out", str(out_dir)]) == 0
        assert f"3 steps, {printed} final branches" in capsys.readouterr().out
        final = json.loads((out_dir / "report.json").read_text())["steps"][-1]
        assert str(final.get("branches", {}).get("count", "?")) == printed

    def test_correlation_analyses_emit_csv(self, tmp_path):
        doc = {"scenario": "epr",
               "analyses": ["sites", "branches", "clusters",
                            {"type": "correlation", "site_a": 2, "site_b": 3}]}
        config = write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out_dir)]) == 0
        rows = (out_dir / "correlations.csv").read_text().splitlines()
        assert rows[0] == "step,site_a,site_b,theta_a,theta_b,value"
        assert rows[-1] == "3,2,3,0,0,-1"

    def test_integer_angle_past_int64_reads_as_its_float(self, tmp_path):
        # 2**64 is inside the float range, so the config reader keeps it;
        # the analysis handed the int to np.cos, which ended the run in a
        # TypeError traceback
        outputs = []
        for name, theta in (("int", 2 ** 64), ("float", float(2 ** 64))):
            config = write_config(tmp_path, {"scenario": "epr", "analyses": [
                {"type": "correlation", "site_a": 2, "site_b": 3, "theta_a": theta}]})
            out_dir = tmp_path / name
            assert cli.main(["run", "--config", config, "--out", str(out_dir)]) == 0
            outputs.append((out_dir / "correlations.csv").read_text())
            report = json.loads((out_dir / "report.json").read_text())
            assert report["scenario"]["analyses"][0]["theta_a"] == theta   # as given
            assert report["steps"][0]["correlations"][0]["theta_a"] == 1.84467440737e+19
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[1].startswith("0,2,3,1.84467440737e+19,0,")

    def test_missing_config_is_config_error(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "out")]) == 1

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 1

    def test_unknown_scenario_is_config_error(self, tmp_path):
        config = write_config(tmp_path, {"scenario": "wormhole"})
        assert cli.main(["run", "--config", config,
                         "--out", str(tmp_path / "out")]) == 1


class TestBadInput:
    """Each bad input gives exit 1 and one ``error:`` line, no traceback."""

    @staticmethod
    def run_fails_cleanly(tmp_path, capsys, doc, *extra):
        """`doc` is a JSON document, or the bytes of the config file."""
        if isinstance(doc, bytes):
            (tmp_path / "config.json").write_bytes(doc)
            config = str(tmp_path / "config.json")
        else:
            config = write_config(tmp_path, doc)
        code = cli.main(["run", "--config", config, "--out", str(tmp_path / "out"),
                         *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_negative_horizon(self, tmp_path, capsys):
        err = self.run_fails_cleanly(tmp_path, capsys, {"scenario": "single"},
                                     "--horizon", "-1")
        assert "negative horizon" in err

    # each of these used to build one list per step before reading a
    # gate, and a horizon of 10^11 was killed for want of memory
    def test_horizon_option_past_the_limit(self, tmp_path, capsys):
        err = self.run_fails_cleanly(tmp_path, capsys, {"scenario": "single"},
                                     "--horizon", "100000000000")
        assert f"exceeds the limit of {bs.schedule.MAX_HORIZON} steps" in err

    def test_config_horizon_past_the_limit(self, tmp_path, capsys):
        doc = {"lattice": [{"index": 0, "kind": "system"}, {"index": 1, "kind": "field"}],
               "initial": {"product": {"0": [1, 0], "1": [1, 0]}},
               "schedule": [{"time": 0, "sites": [0, 1], "gate": "U_si"}],
               "horizon": 10 ** 12}
        err = self.run_fails_cleanly(tmp_path, capsys, doc)
        assert "horizon 1000000000000 exceeds the limit" in err

    def test_gate_time_past_the_limit(self, tmp_path, capsys):
        doc = {"lattice": [{"index": 0, "kind": "system"}, {"index": 1, "kind": "field"}],
               "initial": {"product": {"0": [1, 0], "1": [1, 0]}},
               "schedule": [{"time": 10 ** 12, "sites": [0, 1], "gate": "U_si"}]}
        err = self.run_fails_cleanly(tmp_path, capsys, doc)
        assert "horizon 1000000000001 exceeds the limit" in err

    # the whole lattice, state and schedule were built before the horizon
    # was refused: 2.65 s and 135 MiB for n_sites = 100000
    @pytest.mark.parametrize("name, key, horizon", [("single", "n_sites", 100000),
                                                    ("collision", "n_field", 50001),
                                                    ("epr", "n_field", 50001)])
    def test_size_param_past_the_horizon_limit(self, tmp_path, capsys, monkeypatch,
                                               name, key, horizon):
        monkeypatch.setattr(bs.schedule, "chain_lattice", None)   # never reached
        err = self.run_fails_cleanly(tmp_path, capsys,
                                     {"scenario": name, "params": {key: 100000}})
        assert f"{key} 100000 gives a horizon of {horizon} steps" in err

    @pytest.mark.parametrize("horizon", ["x", 2.7, True, None])
    def test_scenario_config_horizon_that_is_not_whole(self, tmp_path, capsys, horizon):
        err = self.run_fails_cleanly(tmp_path, capsys, {"scenario": "single",
                                                        "params": {"n_sites": 3},
                                                        "horizon": horizon})
        assert "'horizon' must be a whole number" in err
        assert not (tmp_path / "out").exists()

    # refused before the lattice is built, even where --horizon would
    # override it
    @pytest.mark.parametrize("builder, doc", [
        ("chain_lattice", {"scenario": "single", "horizon": 10 ** 12}),
        ("read_lattice", {"lattice": [{"index": 0, "kind": "system"}],
                          "initial": {"product": {"0": [1, 0]}}, "horizon": 10 ** 12})],
        ids=["scenario", "explicit"])
    @pytest.mark.parametrize("extra", [[], ["--horizon", "3"]])
    def test_config_horizon_past_the_limit_is_refused_first(self, tmp_path, capsys, monkeypatch,
                                                           builder, doc, extra):
        monkeypatch.setattr(bs.schedule, builder, None)   # never reached
        err = self.run_fails_cleanly(tmp_path, capsys, doc, *extra)
        assert f"horizon 1000000000000 exceeds the limit of {bs.schedule.MAX_HORIZON}" in err

    def test_negative_scenario_config_horizon(self, tmp_path, capsys):
        err = self.run_fails_cleanly(tmp_path, capsys, {"scenario": "epr", "horizon": -1})
        assert "negative horizon" in err

    def test_bidirectional_chain_past_the_limit(self, tmp_path, capsys, monkeypatch):
        # its horizon is 4 whatever n_right is, so n_right = 10^8 built 10^8
        # sites before anything could refuse it
        monkeypatch.setattr(bs.schedule, "chain_lattice", None)   # never reached
        n_right = bs.schedule.MAX_HORIZON + 1
        err = self.run_fails_cleanly(tmp_path, capsys, {"scenario": "bidirectional",
                                                        "params": {"n_right": n_right}})
        assert f"n_right {n_right} is past the limit of {bs.schedule.MAX_HORIZON} sites" in err

    def test_correlation_without_site_b(self, tmp_path, capsys):
        err = self.run_fails_cleanly(
            tmp_path, capsys,
            {"scenario": "epr", "analyses": [{"type": "correlation", "site_a": 2}]})
        assert "site_b" in err

    @pytest.mark.parametrize("key, theta", [("theta_a", math.nan), ("theta_b", math.inf),
                                            ("theta_b", -math.inf), ("theta_a", 10 ** 400)],
                             ids=["nan", "inf", "-inf", "int-past-float-range"])
    def test_correlation_angle_that_is_not_finite(self, tmp_path, capsys, key, theta):
        # NaN and infinities used to exit 0 and write NaN or Infinity
        # tokens, which are not JSON, into report.json; an integer past
        # the float range ended in an OverflowError traceback
        err = self.run_fails_cleanly(tmp_path, capsys, {"scenario": "epr", "analyses": [
            {"type": "correlation", "site_a": 2, "site_b": 3, key: theta}]})
        assert f"correlation {key} must be a finite number" in err
        assert not (tmp_path / "out").exists()

    def test_correlation_of_a_site_with_itself(self, tmp_path, capsys):
        # used to fail only after the whole run, from the partial trace
        err = self.run_fails_cleanly(tmp_path, capsys, {"scenario": "epr", "analyses": [
            {"type": "correlation", "site_a": 2, "site_b": 2}]})
        assert "correlation needs two different sites" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_analysis_name(self, tmp_path, capsys):
        err = self.run_fails_cleanly(tmp_path, capsys,
                                     {"scenario": "epr", "analyses": ["branch"]})
        assert "'branch'" in err

    @staticmethod
    def fails_cleanly(capsys, argv):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("resolution", ["nan", "1e-300", "0.09"])
    def test_resolution_outside_its_range(self, tmp_path, capsys, resolution):
        # nan passed a `<= 0 or > 90` test; both small values built a huge grid
        config = write_config(tmp_path, {"scenario": "epr"})
        err = self.fails_cleanly(capsys, ["chsh-scan", "--config", config,
                                          "--sites", "2", "3", "--resolution", resolution])
        assert "--resolution" in err

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf", "1"])
    def test_run_tolerance_outside_its_range(self, tmp_path, capsys, tolerance):
        # -1 used to exit 0 with no site decohered and no site unbranched
        err = self.run_fails_cleanly(tmp_path, capsys, {"scenario": "epr"},
                                     "--tolerance", tolerance)
        assert "--tolerance" in err

    def test_run_tolerance_zero_is_accepted(self, tmp_path):
        config = write_config(tmp_path, {"scenario": "epr"})
        assert cli.main(["run", "--config", config, "--out", str(tmp_path / "out"),
                         "--tolerance", "0"]) == 0

    def test_quick_and_trials_are_exclusive(self, capsys):
        # --quick used to override --trials without a word
        err = self.fails_cleanly(capsys, ["verify", "--quick", "--trials", "5"])
        assert "--quick" in err and "--trials" in err

    def test_infinite_gate_entry_gives_one_stderr_line(self, tmp_path):
        # numpy used to print a RuntimeWarning and its source line first;
        # a fresh process shows what a user sees on stderr
        config = write_config(tmp_path, {
            "lattice": [{"index": 0, "kind": "system"}, {"index": 1, "kind": "field"}],
            "initial": {"product": {"0": [[1, 0], [0, 0]], "1": [[1, 0], [0, 0]]}},
            "schedule": [{"time": 0, "sites": [0], "gate": [[1, 0], [0, math.inf]]}]})
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        proc = subprocess.run([sys.executable, "-m", "branchsim.cli", "run", "--config", config,
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 1
        assert proc.stderr == "error: custom: matrix is not unitary within 1e-12\n"

    def test_negative_trials(self, capsys):
        # used to pass as "engines agree: -3 random sequences"
        err = self.fails_cleanly(capsys, ["verify", "--trials", "-3"])
        assert "--trials" in err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.1"])
    def test_verify_tolerance_outside_its_range(self, capsys, tolerance):
        # nan used to fail every check with exit 2
        err = self.fails_cleanly(capsys, ["verify", "--quick", "--tolerance", tolerance])
        assert "--tolerance" in err

    @pytest.mark.parametrize("argv, mention", [
        (["verify", "--trials", "abc"], "--trials"),
        # argparse reads -1e-10 as an option, not as a negative number
        (["verify", "--tolerance", "-1e-10"], "--tolerance"),
        (["run", "--no-such-flag"], "required"),
    ])
    def test_usage_errors_exit_1_with_one_line(self, capsys, argv, mention):
        # argparse's own handler exited 2, the verification-failure code,
        # after a usage block
        err = self.fails_cleanly(capsys, argv)
        assert mention in err

    def test_negative_seed(self, capsys):
        # used to raise ValueError from numpy's default_rng after the other checks
        err = self.fails_cleanly(capsys, ["verify", "--quick", "--seed", "-1"])
        assert "--seed" in err

    def test_verify_on_more_sites_than_the_dense_engine_holds(self, tmp_path, capsys):
        # used to raise OracleError, after the whole run
        err = self.run_fails_cleanly(
            tmp_path, capsys, {"scenario": "single", "params": {"n_sites": 20}}, "--verify")
        assert "--verify" in err and "21" in err

    @pytest.mark.parametrize("params", [[1, 2], "ab"])
    def test_params_that_are_not_an_object(self, tmp_path, capsys, params):
        err = self.run_fails_cleanly(tmp_path, capsys, {"scenario": "single", "params": params})
        assert "'params'" in err

    def test_unhashable_scenario_name(self, tmp_path, capsys):
        err = self.run_fails_cleanly(tmp_path, capsys, {"scenario": ["epr"]})
        assert "unknown scenario ['epr']" in err

    EXPLICIT = {"lattice": [{"index": 0, "kind": "system"}, {"index": 1, "kind": "field"}],
                "initial": {"product": {"0": [[1, 0], [0, 0]], "1": [[1, 0], [0, 0]]}},
                "schedule": [{"time": 0, "sites": [0, 1], "gate": "U_si"}]}

    @pytest.mark.parametrize("key, doc", [
        ("horizon", dict(EXPLICIT, horizon=2.7)),
        ("horizon", dict(EXPLICIT, horizon=math.inf)),   # was an OverflowError
        ("time", dict(EXPLICIT, schedule=[{"time": 0.5, "sites": [0, 1], "gate": "U_si"}])),
        ("index", dict(EXPLICIT, lattice=[{"index": 0.5, "kind": "system"},
                                          {"index": 1, "kind": "field"}])),
    ])
    def test_fractional_step_numbers(self, tmp_path, capsys, key, doc):
        # used to be truncated to an integer without a word
        err = self.run_fails_cleanly(tmp_path, capsys, doc)
        assert f"'{key}' must be a whole number" in err

    @pytest.mark.parametrize("key, doc", [
        ("index", dict(EXPLICIT, lattice=[{"index": 0, "kind": "system"},
                                          {"index": True, "kind": "field"}])),
        ("index", dict(EXPLICIT, lattice=[{"index": 0, "kind": "system"},
                                          {"index": "1", "kind": "field"}])),
        ("time", dict(EXPLICIT, schedule=[{"time": True, "sites": [0, 1], "gate": "U_si"}])),
        ("time", dict(EXPLICIT, schedule=[{"time": "0", "sites": [0, 1], "gate": "U_si"}])),
        ("sites", dict(EXPLICIT, schedule=[{"time": 0, "sites": [0, True], "gate": "U_si"}])),
        ("sites", dict(EXPLICIT, schedule=[{"time": 0, "sites": ["0", 1], "gate": "U_si"}])),
        ("horizon", dict(EXPLICIT, horizon=True)),
        ("horizon", dict(EXPLICIT, horizon="1")),
    ], ids=["index-bool", "index-string", "time-bool", "time-string", "sites-bool",
            "sites-string", "horizon-bool", "horizon-string"])
    def test_booleans_and_strings_for_whole_numbers(self, tmp_path, capsys, key, doc):
        # true was read as 1 and a string of digits parsed, and the run
        # exited 0; a string site failed later, comparing it with an int
        err = self.run_fails_cleanly(tmp_path, capsys, doc)
        assert f"'{key}' must be a whole number" in err
        assert not (tmp_path / "out").exists()

    def test_product_that_is_not_an_object(self, tmp_path, capsys):
        # used to raise AttributeError
        doc = dict(self.EXPLICIT, initial={"product": [[1, 0], [1, 0]]})
        err = self.run_fails_cleanly(tmp_path, capsys, doc)
        assert "'product' must be an object" in err

    @pytest.mark.parametrize("key, doc", [
        ("schedule", dict(EXPLICIT, schedule={"a": 1})),
        ("lattice", dict(EXPLICIT, lattice={"index": 0, "kind": "system"})),
        ("terms", dict(EXPLICIT, initial={"terms": {"basis": "00", "re": 1.0}})),
        ("sites", dict(EXPLICIT, schedule=[{"time": 0, "sites": 0, "gate": "U_si"}])),
    ])
    def test_object_or_number_where_a_list_belongs(self, tmp_path, capsys, key, doc):
        # an object was read as its list of keys, and the error named no key
        # ("string indices must be integers", "'int' object is not iterable")
        err = self.run_fails_cleanly(tmp_path, capsys, doc)
        assert f"'{key}' must be a list" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, mention", [
        (dict(EXPLICIT, lattice=[1, 2]), "'lattice' entries must be objects, got 1"),
        (dict(EXPLICIT, initial={"terms": ["0"]}), "'terms' entries must be objects, got '0'"),
        (dict(EXPLICIT, schedule=[[0, 1]]), "'schedule' entries must be objects, got [0, 1]"),
        (dict(EXPLICIT, lattice=[{"index": 0}]), "'lattice' entry {'index': 0} has no 'kind'"),
    ], ids=["lattice-int", "terms-string", "schedule-list", "lattice-missing-kind"])
    def test_list_entry_that_is_not_a_whole_object(self, tmp_path, capsys, doc, mention):
        # "'int' object is not subscriptable", "string indices must be
        # integers", "list indices must be integers or slices" and "'kind'"
        # named neither the list nor the field
        err = self.run_fails_cleanly(tmp_path, capsys, doc)
        assert mention in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("part, value", [("re", math.nan), ("im", math.inf)],
                             ids=["re-nan", "im-infinity"])
    def test_term_amplitude_that_is_not_finite(self, tmp_path, capsys, part, value):
        # used to build a state with no terms, on which `run` died with a
        # reshape ValueError traceback
        term = {"basis": "10", "re": 1.0, "im": 0.0}
        term[part] = value
        err = self.run_fails_cleanly(tmp_path, capsys, {
            "lattice": [{"index": 0, "kind": "system"}, {"index": 1, "kind": "field"}],
            "initial": {"terms": [{"basis": "00", "re": 1.0}, term]},
            "schedule": [{"time": 0, "sites": [0, 1], "gate": "U_si"}]})
        assert "not finite" in err
        assert not (tmp_path / "out").exists()

    def test_whole_step_numbers_written_as_floats_are_accepted(self, tmp_path):
        config = write_config(tmp_path, dict(self.EXPLICIT, horizon=1.0))
        assert cli.main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 0

    def test_whole_site_numbers_written_as_floats_are_accepted(self, tmp_path):
        doc = dict(self.EXPLICIT,
                   lattice=[{"index": 0.0, "kind": "system"}, {"index": 1.0, "kind": "field"}],
                   schedule=[{"time": 0.0, "sites": [0.0, 1.0], "gate": "U_si"}])
        config = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [site["index"] for site in report["scenario"]["lattice"]] == [0, 1]

    @pytest.mark.parametrize("doc, mention", [
        ({"scenario": "single", "params": {"alpha": "ab"}}, "'alpha' must be a number"),
        ({"scenario": "single", "params": {"alpha": [None, 0]}}, "'alpha' must be a number"),
        ({"scenario": "single", "params": {"n_sites": True}}, "'n_sites' must be a whole number"),
        (dict(EXPLICIT, initial={"product": {"0": [1, 0], "1": [1, 0], "01": [0, 1]}}),
         "extra ['01']"),
        (dict(EXPLICIT, initial={"product": {"0": [1, 0], "1_0": [1, 0]}}), "extra ['1_0']"),
        (dict(EXPLICIT, initial={"terms": [{"basis": "00", "re": "0.5"}]}),
         "'re' must be a number"),
        (dict(EXPLICIT, initial={"terms": [{"basis": "00", "re": True}]}),
         "'re' must be a number"),
    ], ids=["alpha-string", "alpha-null", "n_sites-bool", "product-key-01",
            "product-key-1_0", "re-string", "re-bool"])
    def test_values_outside_the_document_rules(self, tmp_path, capsys, doc, mention):
        # "ab" and [null, 0] ended in a ValueError or TypeError traceback;
        # true ran as n_sites 1, int("01") overwrote site 1's vector and a
        # string or boolean amplitude was read as a number, each exiting 0
        err = self.run_fails_cleanly(tmp_path, capsys, doc)
        assert mention in err
        assert not (tmp_path / "out").exists()

    def test_unnormalised_product_vector_prints_a_plain_number(self, tmp_path, capsys):
        # numpy 2 printed (|v|^2 = np.float64(2.0))
        doc = dict(self.EXPLICIT, initial={"product": {"0": [1, 1], "1": [1, 0]}})
        err = self.run_fails_cleanly(tmp_path, capsys, doc)
        assert "site 0: vector not normalised (|v|^2 = 2.0)" in err

    # each of these ended in a traceback: a UnicodeDecodeError from reading
    # the file, a RecursionError from json.loads, and, with RuntimeWarnings
    # as errors, numpy's overflow warning from squaring the components
    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        err = self.run_fails_cleanly(tmp_path, capsys, b"\xff\xfe{}")
        assert "is not UTF-8 text" in err

    def test_config_nested_past_the_recursion_limit(self, tmp_path, capsys):
        err = self.run_fails_cleanly(tmp_path, capsys, b"[" * 100000 + b"]" * 100000)
        assert "config is nested too deeply to read" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("vector", [[1e308, 0], [[0, 1e308], [0, 0]], [[1e200, 0], [1, 1]]])
    def test_product_vector_whose_square_overflows(self, tmp_path, capsys, vector):
        doc = dict(self.EXPLICIT, initial={"product": {"0": vector, "1": [1, 0]}})
        err = self.run_fails_cleanly(tmp_path, capsys, doc)
        assert "site 0: vector not normalised (|v|^2 = inf)" in err

    # these printed every digit: 309 of them for 1e308
    @pytest.mark.parametrize("doc, extra, text", [
        ({"scenario": "collision", "params": {"n_field": 1e308}}, [],
         "n_field 1e+308 gives a horizon of 5e+307 steps, past the limit of 10000"),
        ({"scenario": "single", "params": {"n_sites": 12345678901234567890123}}, [],
         "n_sites 1.23457e+22 gives a horizon of 1.23457e+22 steps"),
        ({"scenario": "single", "params": {"n_sites": 10 ** 400}}, [],   # past float range
         "n_sites 1e+400 gives a horizon of 1e+400 steps"),
        ({"scenario": "bidirectional", "params": {"n_right": 1e308}}, [],
         "n_right 1e+308 is past the limit of 10000 sites"),
        ({"scenario": "single", "horizon": 1e308}, [],
         "horizon 1e+308 exceeds the limit of 10000 steps"),
        (dict(EXPLICIT, schedule=[{"time": 1e308, "sites": [0, 1], "gate": "U_si"}]), [],
         "horizon 1e+308 exceeds the limit of 10000 steps"),
        ({"scenario": "epr", "analyses": [{"type": "correlation", "site_a": 1e308,
                                           "site_b": 3}]}, [],
         "correlation site_a must be an integer lattice site, got 1e+308"),
        ({"scenario": "single"}, ["--horizon", str(10 ** 40)],
         "horizon 1e+40 exceeds the limit of 10000 steps"),
        ({"scenario": "single"}, ["--horizon", str(-10 ** 40)], "negative horizon -1e+40"),
        ({"scenario": "single"}, ["--horizon", str(10 ** 20 - 1)],
         "horizon 99999999999999999999 exceeds the limit"),   # 20 digits: in full
        (dict(EXPLICIT, schedule=[{"time": 0, "sites": [0, 1e308], "gate": "U_si"}]), [],
         "site 1e+308 is not on the lattice (0, 1)"),
        (dict(EXPLICIT, lattice=[{"index": 0, "kind": "system"},
                                 {"index": 1e308, "kind": "field"}]), [],
         "site states must cover the lattice exactly (missing [1e+308], extra ['1'])"),
    ], ids=["n_field", "n_sites", "n_sites_past_float", "n_right", "horizon", "time",
            "site_a", "option", "negative", "20-digit", "schedule-site", "lattice-index"])
    def test_huge_whole_numbers_print_six_digits(self, tmp_path, capsys, doc, extra, text):
        err = self.run_fails_cleanly(tmp_path, capsys, doc, *extra)
        assert text in err and len(err) < 200

    # each printed every index of the lattice: 58,923 and 58,949 bytes
    @pytest.mark.parametrize("fault, text", [
        ("schedule-site", "site 10005 is not on the lattice (0, 1, 2, 3, 4, 5, 6, 7, ... "
                          "10000 sites)"),
        ("indices-out-of-order", "site indices must strictly increase, got [0, 1, 2, 3, 4, "
                                 "5, 6, 7, ... 10000 sites]"),
    ], ids=["schedule-site", "indices-out-of-order"])
    def test_long_lattice_errors_print_a_few_ids(self, tmp_path, capsys, fault, text):
        indices = list(range(10_000))
        if fault == "indices-out-of-order":
            indices[5000], indices[5001] = indices[5001], indices[5000]
        doc = {"lattice": [{"index": i, "kind": "field"} for i in indices],
               "initial": {"product": {str(i): [1, 0] for i in indices}},
               "schedule": [{"time": 0, "sites": [10005], "gate": "H"}]}
        err = self.run_fails_cleanly(tmp_path, capsys, doc)
        assert text in err and len(err.encode()) < 300

    # 64 ids of 20 digits fell under the count of 64 and printed in full: 1,437 bytes
    def test_a_lattice_of_long_ids_prints_a_few(self, tmp_path, capsys):
        ids = [10 ** 19 + i for i in range(64)]
        doc = {"lattice": [{"index": i, "kind": "field"} for i in ids],
               "initial": {"product": {str(i): [1, 0] for i in ids}},
               "schedule": [{"time": 0, "sites": [5], "gate": "H"}]}
        err = self.run_fails_cleanly(tmp_path, capsys, doc)
        first = ", ".join(str(i) for i in ids[:8])
        assert f"site 5 is not on the lattice ({first}, ... 64 sites)" in err
        assert len(err.encode()) < 300

    # each key prints cut to its first 48 characters, but all 8 made 665 bytes
    def test_many_long_product_keys_print_a_few(self, tmp_path, capsys):
        product = dict(self.EXPLICIT["initial"]["product"])
        product.update({chr(ord("a") + k) * 100_000: [1, 0] for k in range(8)})
        err = self.run_fails_cleanly(tmp_path, capsys, dict(self.EXPLICIT,
                                                            initial={"product": product}))
        assert "'bbb" in err and "'ccc" not in err and "... 8 sites])" in err
        assert len(err.encode()) < 300

    # each gave "int too large to convert to float", which named no key
    @pytest.mark.parametrize("doc, key, value", [
        ({"scenario": "single", "params": {"alpha": 10 ** 400}}, "alpha", "1e+400"),
        ({"scenario": "single", "params": {"beta": [0, -10 ** 400]}}, "beta", "-1e+400"),
        (dict(EXPLICIT, initial={"product": {"0": [1, 0], "1": [[10 ** 400, 0], 0]}}),
         "product 1", "1e+400"),
        (dict(EXPLICIT, schedule=[{"time": 0, "sites": [0],
                                   "gate": [[1, 0], [0, [0, 10 ** 400]]]}]), "gate", "1e+400"),
        (dict(EXPLICIT, initial={"terms": [{"basis": "00", "re": 10 ** 400}]}), "re", "1e+400"),
    ], ids=["alpha", "beta", "product", "gate-cell", "term"])
    def test_an_int_past_the_float_range_is_named(self, tmp_path, capsys, doc, key, value):
        err = self.run_fails_cleanly(tmp_path, capsys, doc)
        assert f"'{key}' must be a number within the float range, got {value}" in err

    # each echoed a value in full: 100,000-byte lines, or 10**400 as its 401 digits
    @pytest.mark.parametrize("doc, text", [
        (dict(EXPLICIT, schedule=[{"time": 0, "sites": [0], "gate": "U" * 100_000}]),
         "unknown gate name 'UUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUU... "
         "(100002 characters)"),
        ({"lattice": {"0": "x" * 100_000}, "initial": {}},
         "'lattice' must be a list, got {'0': '" + "x" * 41 + "... (100009 characters)"),
        (dict(EXPLICIT, initial={"product": {"0": [1, 0], "1": [1, 0], "y" * 100_000: [1, 0]}}),
         "(missing [], extra ['yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy... "
         "(100002 characters)])"),
        (dict(EXPLICIT, lattice=[{"index": 0, "kind": "k" * 100_000}]),
         "'kkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkk... (100002 characters) "
         "is not a valid SiteKind"),
        ({"scenario": "single", "params": 10 ** 400}, "'params' must be an object, got 1e+400"),
        ({"scenario": "single", "params": {"z" * 100_000: 3}},
         "unknown param 'zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz... (100002 characters) "
         "of scenario single"),
        (dict(EXPLICIT, schedule=[{"time": 0, "sites": 10 ** 400, "gate": "H"}]),
         "'sites' must be a list, got 1e+400"),
    ], ids=["gate-name", "lattice-object", "product-key", "kind", "params", "param-name",
            "sites"])
    def test_long_values_print_cut(self, tmp_path, capsys, doc, text):
        err = self.run_fails_cleanly(tmp_path, capsys, doc)
        assert text in err and len(err.encode()) < 300

    # a number where a list of cells or amplitudes belongs gave Python's
    # "'float' object is not iterable", which named neither the row nor the site
    @pytest.mark.parametrize("doc, text", [
        (dict(EXPLICIT, schedule=[{"time": 0, "sites": [0],
                                   "gate": [[[1, 0], [0, 0]], 2.0]}]),
         "'gate matrix row 1' must be a list, got 2.0"),
        (dict(EXPLICIT, schedule=[{"time": 0, "sites": [0], "gate": [1, 2]}]),
         "'gate matrix row 0' must be a list, got 1"),
        (dict(EXPLICIT, schedule=[{"time": 0, "sites": [0], "gate": ["U_si"]}]),
         "'gate matrix row 0' must be a list, got 'U_si'"),
        (dict(EXPLICIT, initial={"product": {"0": 2.0, "1": [1, 0]}}),
         "'product 0' must be a list, got 2.0"),
        (dict(EXPLICIT, initial={"product": {"0": [1, 0], "1": 10 ** 400}}),
         "'product 1' must be a list, got 1e+400"),
        ({"scenario": "single", "params": {"n_site": 3}},
         "unknown param 'n_site' of scenario single; available: alpha, beta, n_sites"),
    ], ids=["float-row", "int-row", "string-row", "float-vector", "int-vector",
            "unknown-param"])
    def test_values_of_the_wrong_kind_are_named(self, tmp_path, capsys, doc, text):
        err = self.run_fails_cleanly(tmp_path, capsys, doc)
        assert text in err

    @pytest.mark.parametrize("whole, written", [
        ({"scenario": "single", "params": {"n_sites": 3}},
         {"scenario": "single", "params": {"n_sites": 3.0}}),
        ({"scenario": "epr", "analyses": [
            {"type": "correlation", "site_a": 2, "site_b": 3, "theta_b": 1}]},
         {"scenario": "epr", "analyses": [
             {"type": "correlation", "site_a": 2.0, "site_b": 3.0, "theta_b": 1}]}),
    ], ids=["param", "correlation-sites"])
    def test_whole_params_and_sites_written_as_floats_give_the_same_report(
            self, tmp_path, whole, written):
        # both used to be errors, unlike a horizon of 2.0
        outputs = []
        for name, doc in (("whole", whole), ("written", written)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            out_dir = tmp_path / name
            assert cli.main(["run", "--config", str(path), "--out", str(out_dir)]) == 0
            outputs.append({f.name: f.read_bytes() for f in sorted(out_dir.iterdir())})
        assert outputs[0] == outputs[1]


    @pytest.mark.parametrize("command", ["run", "chsh-scan"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, monkeypatch,
                                            command, below):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        monkeypatch.setattr(cli, "run_steps", no_work)
        monkeypatch.setattr(cli, "record_chsh_scan", no_work)
        config = write_config(tmp_path, {"scenario": "epr"})
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken / "report" if below else taken
        argv = {"run": ["run", "--config", config, "--out", str(out)],
                "chsh-scan": ["chsh-scan", "--config", config, "--sites", "2", "3",
                              "--out", str(out)]}[command]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out {out}: {taken} is not a directory\n"
        assert taken.read_text() == "kept"


    @pytest.mark.parametrize("command", ["run", "chsh-scan"])
    def test_empty_out(self, tmp_path, capsys, command):
        config = write_config(tmp_path, {"scenario": "epr"})
        argv = {"run": ["run", "--config", config, "--out", ""],
                "chsh-scan": ["chsh-scan", "--config", config, "--sites", "2", "3",
                              "--out", ""]}[command]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out must not be empty\n"


class TestFailedRun:
    """An error while a report streams leaves no partial report and no
    temporary file, and the files of an earlier report as they were."""

    DOC = {"scenario": "epr", "analyses": [
        "sites", "branches", "clusters", {"type": "correlation", "site_a": 2, "site_b": 3}]}

    @staticmethod
    def plant(monkeypatch, step, error):
        """Make the record of `step` raise `error`, from the `norm` call
        that `reporting._steps` makes once per step."""
        real = reporting.norm
        made = []

        def norm(state):
            made.append(None)
            if len(made) == step + 1:
                raise error
            return real(state)

        monkeypatch.setattr(reporting, "norm", norm)

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "earlier-report"])
    @pytest.mark.parametrize("step", [0, 2, 3])
    def test_error_mid_stream_leaves_no_partial_report(self, tmp_path, monkeypatch, capsys,
                                                       step, earlier):
        config = write_config(tmp_path, self.DOC)
        out_dir = tmp_path / "out"
        argv = ["run", "--config", config, "--out", str(out_dir)]
        before = {}
        if earlier:
            assert cli.main(argv) == 0
            before = {f.name: f.read_bytes() for f in out_dir.iterdir()}
            assert sorted(before) == ["correlations.csv", "report.json", "timeseries.csv"]
        capsys.readouterr()
        self.plant(monkeypatch, step, RuntimeError("planted"))
        with pytest.raises(RuntimeError, match="planted"):
            cli.main(argv)
        if earlier:
            assert {f.name: f.read_bytes() for f in out_dir.iterdir()} == before
        else:   # the directory the run made is removed too
            assert not out_dir.exists()
        assert capsys.readouterr().out == ""

    def test_handled_error_mid_stream_exits_1(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, self.DOC)
        out_dir = tmp_path / "out"
        self.plant(monkeypatch, 2, bs.AnalysisError("planted"))
        assert cli.main(["run", "--config", config, "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == "error: planted\n"
        assert not out_dir.exists()

    def test_a_failed_run_removes_only_the_directories_it_made(self, tmp_path, monkeypatch,
                                                             capsys):
        config = write_config(tmp_path, self.DOC)
        kept = tmp_path / "kept"
        kept.mkdir()
        for out_dir in (kept, kept / "a" / "b" / "out"):
            self.plant(monkeypatch, 2, bs.AnalysisError("planted"))
            assert cli.main(["run", "--config", config, "--out", str(out_dir)]) == 1
            assert capsys.readouterr().err == "error: planted\n"
            assert [f.name for f in tmp_path.iterdir() if f.is_dir()] == ["kept"]
            assert list(kept.iterdir()) == []


class TestFailedScan:
    """An error while a scan's files are written leaves no partial file
    and no temporary file, and the files of an earlier scan as they were."""

    @staticmethod
    def plant(monkeypatch, rows, error):
        """Make the scan's grid raise `error` once more than `rows` of its
        rows are read as lists, in either protocol: after the summary and
        `rows` rows of the grid are written, or at once when the whole grid
        is read in one call."""
        read = []

        class Planted(np.ndarray):
            def tolist(self):
                read.append(len(self) if self.ndim > 1 else 1)
                if sum(read) > rows:
                    raise error
                return super().tolist()

        def planted(scan):
            def wrapped(*args):
                result = scan(*args)
                return dataclasses.replace(result, e_grid=result.e_grid.view(Planted))
            return wrapped

        monkeypatch.setattr(cli, "record_chsh_scan", planted(cli.record_chsh_scan))
        monkeypatch.setattr(cli.analysis, "chsh_grid_max", planted(cli.analysis.chsh_grid_max))

    @staticmethod
    def argv(config, out_dir, protocol, resolution):
        return ["chsh-scan", "--config", config, "--sites", "2", "3", "--resolution",
                resolution, "--protocol", protocol, "--out", str(out_dir)]

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "earlier-scan"])
    @pytest.mark.parametrize("protocol", ["record", "state"])
    def test_error_mid_grid_leaves_no_partial_file(self, tmp_path, monkeypatch, capsys,
                                                   protocol, earlier):
        config = write_config(tmp_path, {"scenario": "epr"})
        out_dir = tmp_path / "out"
        before = {}
        if earlier:
            assert cli.main(self.argv(config, out_dir, protocol, "15")) == 0
            before = {f.name: f.read_bytes() for f in out_dir.iterdir()}
            assert sorted(before) == ["chsh_grid.csv", "chsh_summary.json"]
        capsys.readouterr()
        self.plant(monkeypatch, 5, RuntimeError("planted"))
        with pytest.raises(RuntimeError, match="planted"):
            cli.main(self.argv(config, out_dir, protocol, "5"))
        if earlier:
            assert {f.name: f.read_bytes() for f in out_dir.iterdir()} == before
        else:   # the directory the scan made is removed too
            assert not out_dir.exists()
        assert "wrote" not in capsys.readouterr().out

    @pytest.mark.parametrize("protocol", ["record", "state"])
    def test_handled_error_mid_grid_exits_1(self, tmp_path, monkeypatch, capsys, protocol):
        config = write_config(tmp_path, {"scenario": "epr"})
        out_dir = tmp_path / "out"
        self.plant(monkeypatch, 5, OSError("planted"))
        assert cli.main(self.argv(config, out_dir, protocol, "5")) == 1
        assert capsys.readouterr().err == "error: planted\n"
        assert not out_dir.exists()


class TestClosedStdout:
    """A reader that closes stdout early, as ``head`` does, gets exit code
    141 (128 + SIGPIPE) and nothing on stderr, whatever the command."""

    @pytest.mark.parametrize("argv", [["scenario", "list"], ["verify", "--quick"]],
                             ids=["scenario-list", "verify-quick"])
    def test_closed_pipe_exits_141_quietly(self, argv):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        read_end, write_end = os.pipe()
        os.close(read_end)     # every write to the pipe now fails
        try:
            proc = subprocess.run([sys.executable, "-m", "branchsim.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=env, check=False)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""


class TestParserReuse:
    """`main` builds its parser once per process; each call still gets
    its own options and defaults, whatever the call before it gave."""

    def test_the_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_run_horizon_then_none(self, tmp_path):
        config = write_config(tmp_path, {"scenario": "single", "params": {"n_sites": 3},
                                         "horizon": 2})
        for extra, steps in ((["--horizon", "1"], 2), ([], 3)):
            out_dir = tmp_path / f"out{steps}"
            assert cli.main(["run", "--config", config, "--out", str(out_dir), *extra]) == 0
            report = json.loads((out_dir / "report.json").read_text())
            assert len(report["steps"]) == steps

    def test_verify_quick_then_trials(self, monkeypatch, capsys):
        calls = []

        def record(**kwargs):
            calls.append(kwargs)
            return [bs.verify.CheckResult("recorded", True)]

        monkeypatch.setattr(cli.verify, "run_verification", record)
        assert cli.main(["verify", "--quick"]) == 0
        assert cli.main(["verify", "--trials", "3"]) == 0
        assert cli.main(["verify"]) == 0
        assert [c["n_trials"] for c in calls] == [100, 3, bs.verify.DEFAULT_TRIALS]
        for c in calls:
            assert c["tol"] == bs.verify.DEFAULT_TOL and c["seed"] == bs.verify.DEFAULT_SEED
            assert c["gate_overrides"] is None
        assert capsys.readouterr().out.count("1/1 checks passed") == 3

    def test_version_twice(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["--version"])
            assert exit_info.value.code == 0
            assert capsys.readouterr().out == f"branchsim {bs.__version__}\n"

    @pytest.mark.parametrize("bad", [["run", "--no-such-flag"],
                                     ["verify", "--quick", "--trials", "5"]],
                             ids=["unknown-flag", "exclusive-options"])
    def test_usage_error_then_a_good_call(self, monkeypatch, capsys, bad):
        monkeypatch.setattr(cli.verify, "run_verification",
                            lambda **kwargs: [bs.verify.CheckResult(str(kwargs["n_trials"]), True)])
        assert cli.main(bad) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert cli.main(["verify", "--trials", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("ok    5 ")
        assert cli.main(["scenario", "list"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == len(bs.SCENARIOS)


class TestVerify:
    def test_quick_suite_passes(self, capsys):
        assert cli.main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_injected_fault_fails_with_exit_2(self, capsys):
        code = cli.main(["verify", "--quick", "--inject-fault", "corrupt-gate"])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out


class TestChshScan:
    def test_record_protocol_violates_for_epr(self, tmp_path, capsys):
        config = write_config(tmp_path, {"scenario": "epr"})
        out_dir = tmp_path / "scan"
        code = cli.main(["chsh-scan", "--config", config, "--sites", "2", "3",
                         "--resolution", "15", "--out", str(out_dir)])
        assert code == 0
        summary = json.loads((out_dir / "chsh_summary.json").read_text())
        assert summary["value"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert summary["protocol"] == "record"
        grid = (out_dir / "chsh_grid.csv").read_text().splitlines()
        assert grid[0] == "theta_a_deg,theta_b_deg,correlation"
        assert len(grid) == 1 + 24 * 24

    @pytest.mark.parametrize("protocol", ["record", "state"])
    @pytest.mark.parametrize("resolution", ["15", "5", "crafted"])
    def test_grid_csv_matches_the_entry_loop(self, tmp_path, capsys, monkeypatch,
                                             resolution, protocol):
        # the writer formats each angle once and each grid row with one %
        # template; its bytes must be those of formatting all three fields
        # per entry.  The crafted grid holds the values whose text is
        # easiest to get wrong (-0.0, NaN, the infinities, a subnormal and
        # 1e17) on angles that are not evenly spaced.
        config = write_config(tmp_path, {"scenario": "epr"})
        out_dir = tmp_path / "scan"
        if resolution == "crafted":
            angles = np.array([-0.0, 1e-9, 0.3, 0.5, math.pi / 3, 2.0])
            e_grid = np.linspace(-1.0, 1.0, 36).reshape(6, 6) / 3.0
            e_grid.flat[:8] = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e17, -2.5e-7,
                               123456789012.5]
            result = RecordScanResult(2.5, (0.3, 0.5, 1e-9, 2.0), angles, e_grid)
            monkeypatch.setattr(cli, "record_chsh_scan", lambda *args: result)
            monkeypatch.setattr(cli.analysis, "chsh_grid_max", lambda *args: result)
            resolution = "45"
        elif protocol == "record":
            result = bs.record_chsh_scan(bs.scenario_epr(), (2, 3), float(resolution))
        else:
            result = bs.chsh_grid_max(bs.scenario_epr().run()[-1], 2, 3, float(resolution))
        assert cli.main(["chsh-scan", "--config", config, "--sites", "2", "3",
                         "--resolution", resolution, "--protocol", protocol,
                         "--out", str(out_dir)]) == 0
        degs = np.rad2deg(result.angles)
        lines = ["theta_a_deg,theta_b_deg,correlation\n"]
        for i, ta in enumerate(degs):
            for j, tb in enumerate(degs):
                lines.append(f"{ta:.12g},{tb:.12g},{result.e_grid[i, j]:.12g}\n")
        assert (out_dir / "chsh_grid.csv").read_bytes() == "".join(lines).encode()

    @pytest.mark.parametrize("protocol", ["record", "state"])
    def test_summary_bytes_match_json_dump(self, tmp_path, capsys, protocol):
        # the summary is written with the report's rounding and writer,
        # whose bytes must be those of json.dump as it was used before
        config = write_config(tmp_path, {"scenario": "epr"})
        out_dir = tmp_path / "scan"
        assert cli.main(["chsh-scan", "--config", config, "--sites", "2", "3",
                         "--resolution", "15", "--protocol", protocol,
                         "--out", str(out_dir)]) == 0
        if protocol == "record":
            result = bs.record_chsh_scan(bs.scenario_epr(), (2, 3), 15.0)
        else:
            result = bs.chsh_grid_max(bs.scenario_epr().run()[-1], 2, 3, 15.0)
        summary = {
            "protocol": protocol,
            "sites": [2, 3],
            "resolution_deg": 15.0,
            "value": float(f"{result.value:.12g}"),
            "settings_rad": [float(f"{t:.12g}") for t in result.settings],
            "settings_deg": [float(f"{math.degrees(t):.12g}") for t in result.settings],
        }
        expected = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        assert (out_dir / "chsh_summary.json").read_bytes() == expected.encode()

    @pytest.mark.parametrize("scenario", ["epr", "collision"])
    def test_state_protocol_keeps_only_the_last_state(self, tmp_path, capsys, monkeypatch,
                                                      scenario):
        # it scans the state at the horizon without listing the whole run:
        # ScenarioConfig.run is never called, and the lines it prints are
        # those of the scan of run()[-1]
        config = write_config(tmp_path, {"scenario": scenario})
        result = bs.chsh_grid_max(cli.load_config(config).run()[-1], 2, 3, 15.0)
        degs = [math.degrees(t) for t in result.settings]
        expected = (f"CHSH max {result.value:.9f} (protocol state, resolution 15 deg, "
                    "sites 2,3)\n"
                    "settings (deg): a={:.6g} a'={:.6g} b={:.6g} b'={:.6g}\n".format(*degs))

        def listed(*args, **kwargs):
            raise AssertionError("ScenarioConfig.run called")
        monkeypatch.setattr(bs.ScenarioConfig, "run", listed)
        assert cli.main(["chsh-scan", "--config", config, "--sites", "2", "3",
                         "--resolution", "15", "--protocol", "state"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(expected)
        assert out[len(expected):].startswith("wall time ")
        assert out.count("\n") == 3

    def test_state_protocol_stays_classical_for_epr(self, tmp_path, capsys):
        config = write_config(tmp_path, {"scenario": "epr"})
        code = cli.main(["chsh-scan", "--config", config, "--sites", "2", "3",
                         "--resolution", "15", "--protocol", "state"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CHSH max 2.000000000" in out

    def test_bad_resolution_is_config_error(self, tmp_path):
        config = write_config(tmp_path, {"scenario": "epr"})
        assert cli.main(["chsh-scan", "--config", config, "--sites", "2", "3",
                         "--resolution", "0"]) == 1
        assert cli.main(["chsh-scan", "--config", config, "--sites", "2", "3",
                         "--resolution", "90.5"]) == 1

    def test_coarsest_grid_still_runs(self, tmp_path, capsys):
        config = write_config(tmp_path, {"scenario": "epr"})
        code = cli.main(["chsh-scan", "--config", config, "--sites", "2", "3",
                         "--resolution", "90"])
        assert code == 0
        # E(a, b) = -cos(a+b) sampled at multiples of 90 degrees peaks
        # at the classical corner value S = 2
        assert "CHSH max 2.000000000" in capsys.readouterr().out

    def test_repeated_record_site_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {"scenario": "epr"})
        code = cli.main(["chsh-scan", "--config", config, "--sites", "2", "2",
                         "--resolution", "45"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_scan_needs_two_system_sites(self, tmp_path):
        config = write_config(tmp_path, {"scenario": "single"})
        assert cli.main(["chsh-scan", "--config", config, "--sites", "1", "2",
                         "--resolution", "45"]) == 1
