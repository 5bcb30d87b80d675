import dataclasses
import json
import math

import numpy as np
import pytest

import branchsim as bs
from branchsim import bell, oracle


def _record_e_via_dense(config, record_sites, theta_a, theta_b):
    """Re-derive the record correlator with the dense engine end to end."""
    sa, sb = config.lattice.system_sites
    state = bs.apply_gate1(config.initial, bs.rotation_gate(theta_a), sa)
    state = bs.apply_gate1(state, bs.rotation_gate(theta_b), sb)
    dense = oracle.dense_run(oracle.densify(state), config.schedule, config.horizon)[-1]
    ra, rb = record_sites
    z = np.diag([1.0, -1.0]).astype(complex)
    rho = oracle.dense_rdm(dense, (ra, rb))
    return float(np.trace(rho @ np.kron(z, z)).real)


class TestRecordCorrelation:
    def test_cross_checks_against_dense_engine(self):
        config = bs.scenario_epr()
        for ta, tb in [(0.0, 0.0), (0.3, 1.1), (2.0, 4.4), (math.pi, 0.5)]:
            fast = bs.record_correlation(config, (2, 3), ta, tb)
            slow = _record_e_via_dense(config, (2, 3), ta, tb)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_entangled_records_follow_minus_cosine(self):
        # the records inherit E = -cos(theta_a + theta_b) from the qubits
        config = bs.scenario_epr()
        for ta, tb in [(0.0, 0.0), (0.7, 0.3), (1.2, 2.0)]:
            e = bs.record_correlation(config, (2, 3), ta, tb)
            assert e == pytest.approx(-math.cos(ta + tb), abs=1e-12)

    def test_product_records_factorise(self):
        # independent |+> qubits give E = sin(theta_a) sin(theta_b)
        config = bs.scenario_collision()
        for ta, tb in [(0.0, 0.0), (0.7, 0.3), (1.2, 2.0)]:
            e = bs.record_correlation(config, (2, 3), ta, tb)
            assert e == pytest.approx(math.sin(ta) * math.sin(tb), abs=1e-12)

    def test_needs_two_system_sites(self):
        with pytest.raises(bs.AnalysisError):
            bs.record_correlation(bs.scenario_single(), (2, 3), 0.0, 0.0)

    def test_rejects_a_repeated_record_site(self):
        with pytest.raises(bs.AnalysisError, match="distinct"):
            bs.record_correlation(bs.scenario_epr(), (2, 2), 0.0, 0.0)


def horizon_cut_config():
    """Entangled qubits at 0 and 3 each write a record at step 0; a step-1
    rotation of record site 1 lies beyond the horizon and must not play."""
    return bs.config_from_document(json.dumps({
        "lattice": [{"index": 0, "kind": "system"}, {"index": 1, "kind": "field"},
                    {"index": 2, "kind": "field"}, {"index": 3, "kind": "system"}],
        "initial": {"terms": [{"basis": "0001", "re": 1.0}, {"basis": "1000", "re": 1.0}]},
        "schedule": [{"time": 0, "sites": [0, 1], "gate": "U_si"},
                     {"time": 0, "sites": [3, 2], "gate": "U_si"},
                     {"time": 1, "sites": [1], "gate": "rot(1.0)"}],
        "horizon": 1,
    }))


class TestRecordProtocolPlaysTheRun:
    def test_honours_the_config_horizon(self):
        config = horizon_cut_config()
        at_horizon = bs.correlation(config.run()[-1], bs.MeasurementSetting(1),
                                    bs.MeasurementSetting(2))
        assert at_horizon == pytest.approx(-1.0, abs=1e-12)
        e = bs.record_correlation(config, (1, 2), 0.0, 0.0)
        assert e == pytest.approx(at_horizon, abs=1e-12)

    def test_scan_honours_the_config_horizon(self):
        result = bs.record_chsh_scan(horizon_cut_config(), (1, 2), resolution_deg=90.0)
        assert result.e_grid[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_non_adjacent_gate_warns(self):
        reaching = bs.Schedule((bs.GateApplication(0, (0, 2), "U_si"),))
        config = dataclasses.replace(bs.scenario_epr(), schedule=reaching)
        with pytest.warns(UserWarning, match="non-adjacent"):
            bs.record_correlation(config, (2, 3), 0.0, 0.0)


class TestRecordScan:
    def test_epr_reaches_tsirelson_on_coarse_grid(self):
        # 15-degree grid contains the optimal settings (0, 90, 135, 45)
        result = bs.record_chsh_scan(bs.scenario_epr(), (2, 3), resolution_deg=15.0)
        assert result.value == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        ta, tap, tb, tbp = result.settings
        combo = (bs.record_correlation(bs.scenario_epr(), (2, 3), ta, tb)
                 - bs.record_correlation(bs.scenario_epr(), (2, 3), ta, tbp)
                 + bs.record_correlation(bs.scenario_epr(), (2, 3), tap, tb)
                 + bs.record_correlation(bs.scenario_epr(), (2, 3), tap, tbp))
        assert combo == pytest.approx(result.value, abs=1e-12)

    def test_collision_stays_classical(self):
        result = bs.record_chsh_scan(bs.scenario_collision(), (2, 3),
                                     resolution_deg=15.0)
        assert result.value <= 2.0 + 1e-9
        assert result.value == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("resolution", [0.0, -5.0, math.nan, math.inf])
    def test_resolution_must_be_finite_and_positive(self, monkeypatch, resolution):
        # 0 raised ZeroDivisionError, -5 an IndexError, NaN numpy's arange
        # ValueError, and inf scanned a one-angle grid; the check comes
        # before any evolution
        monkeypatch.setattr(bell, "_evolved_basis", None)
        with pytest.raises(bs.AnalysisError, match="resolution"):
            bs.record_chsh_scan(bs.scenario_epr(), (2, 3), resolution_deg=resolution)

    @pytest.mark.parametrize("resolution", [1e-300, 0.001, 0.09])
    def test_resolution_below_the_finest_step(self, monkeypatch, resolution):
        # 1e-300 raised numpy's arange ValueError, and 0.001 degrees asked
        # for a 360,000 x 360,000 grid (about 1 TB)
        monkeypatch.setattr(bell, "_evolved_basis", None)
        with pytest.raises(bs.AnalysisError, match="at least 0.1 degrees"):
            bs.record_chsh_scan(bs.scenario_epr(), (2, 3), resolution_deg=resolution)

    def test_coarse_90_degree_grid(self):
        result = bs.record_chsh_scan(bs.scenario_epr(), (2, 3), resolution_deg=90.0)
        assert result.e_grid.shape == (4, 4)
        assert result.value == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("resolution", [15.0, 30.0, 45.0])
    @pytest.mark.parametrize("factory", [bs.scenario_epr, bs.scenario_collision])
    def test_reported_settings_reproduce_the_value(self, factory, resolution):
        # the closed-form grid differs from brute force in the last bits,
        # so among tied maxima the scan may report any one; whichever it
        # reports, four brute-force experiments must give its value
        config = factory()
        result = bs.record_chsh_scan(config, (2, 3), resolution_deg=resolution)
        ta, tap, tb, tbp = result.settings
        e = lambda t1, t2: bs.record_correlation(config, (2, 3), t1, t2)
        combo = e(ta, tb) - e(ta, tbp) + e(tap, tb) + e(tap, tbp)
        assert combo == pytest.approx(result.value, abs=1e-12)

    def test_grid_values_match_single_runs(self):
        result = bs.record_chsh_scan(bs.scenario_epr(), (2, 3), resolution_deg=45.0)
        config = bs.scenario_epr()
        for i in (0, 3, 5):
            for j in (1, 2, 7):
                e = bs.record_correlation(config, (2, 3),
                                          float(result.angles[i]), float(result.angles[j]))
                assert result.e_grid[i, j] == pytest.approx(e, abs=1e-12)
