import dataclasses
import math

import numpy as np
import pytest

import branchsim as bs
from branchsim import analysis, oracle, verify
from conftest import random_state


class TestDenseRepresentation:
    def test_densify_known_amplitudes(self, epr_states):
        dense = oracle.densify(epr_states[0])
        # |000001> is index 1, |100000> is index 32 (leftmost site = MSB)
        assert dense.vector[1] == pytest.approx(1 / math.sqrt(2))
        assert dense.vector[32] == pytest.approx(1 / math.sqrt(2))
        assert np.count_nonzero(dense.vector) == 2

    def test_round_trip(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            state = random_state(rng)
            back = oracle.sparsify(oracle.densify(state))
            assert bs.overlap(back, state) == pytest.approx(1.0, abs=1e-12)
            assert dict(back.amplitudes) == dict(state.amplitudes)

    def test_site_cap(self):
        lat = bs.chain_lattice([0], range(1, 22))
        state = bs.entangled_state(lat, [((0,) * 22, 1.0)])
        with pytest.raises(oracle.OracleError):
            oracle.densify(state)

    def test_norm_and_overlap(self, single_states):
        dense = oracle.densify(single_states[2])
        assert oracle.dense_norm(dense) == pytest.approx(1.0, abs=1e-12)
        assert oracle.dense_overlap(dense, dense) == pytest.approx(1.0, abs=1e-12)


class TestDenseEvolution:
    def test_matches_sparse_engine_on_random_sequences(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            worst = verify.random_differential_trial(rng)
            assert worst <= 1e-10

    def test_dense_run_mirrors_run_schedule(self, collision_states):
        config = bs.scenario_collision()
        dense_states = oracle.dense_run(oracle.densify(config.initial),
                                        config.schedule, config.horizon)
        for sparse, dense in zip(collision_states, dense_states):
            assert oracle.dense_overlap(oracle.densify(sparse), dense) == pytest.approx(
                1.0, abs=1e-12)

    def test_dense_run_rejects_a_negative_horizon(self):
        # as the sparse run_schedule does, instead of returning the start
        config = bs.scenario_epr()
        with pytest.raises(oracle.OracleError, match="negative horizon"):
            oracle.dense_run(oracle.densify(config.initial), config.schedule, -1)

    def test_mirrored_pair_application(self):
        # dense engine honours slot order on reversed pairs too
        lat = bs.chain_lattice([0], [1])
        state = bs.entangled_state(lat, [("00", 1.0)])
        gate = bs.system_field_gate()
        sparse = bs.apply_gate2(state, gate, (1, 0))
        dense = oracle.dense_apply(oracle.densify(state), gate, (1, 0))
        assert oracle.dense_overlap(oracle.densify(sparse), dense) == pytest.approx(
            1.0, abs=1e-12)


class TestDenseAnalysis:
    def test_rdm_agrees_with_sparse(self, epr_states):
        for state in epr_states:
            dense = oracle.densify(state)
            for region in [(0,), (5,), (2, 3), (0, 5)]:
                assert np.allclose(
                    bs.reduced_density_matrix(state, region).matrix,
                    oracle.dense_rdm(dense, region), atol=1e-12)

    def test_entropy_agrees_with_sparse(self, collision_states):
        state = collision_states[-1]
        dense = oracle.densify(state)
        for region in [(0,), (0, 3), (2, 5), (1, 4)]:
            assert oracle.dense_entropy(dense, region) == pytest.approx(
                bs.entanglement_entropy(state, region), abs=1e-10)

    def test_branch_weights_agree_with_sparse(self, collision_states):
        for state in collision_states:
            decomp = bs.branch_decompose(state)
            sparse_weights = {b.key(): b.weight for b in decomp.branches}
            dense_weights = oracle.dense_branch_weights(oracle.densify(state))
            assert set(sparse_weights) == set(dense_weights)
            for key, w in sparse_weights.items():
                assert dense_weights[key] == pytest.approx(w, abs=1e-12)

    @pytest.mark.parametrize("n_sites, tol", [(11, 1e-3), (3, 0.2)])
    def test_small_terms_merge_before_threshold(self, n_sites, tol):
        r = 1 / np.sqrt(2)
        state = bs.product_state(bs.chain_lattice([0], range(1, n_sites)),
                                 {s: [r, r] for s in range(n_sites)})
        assert oracle.dense_branch_weights(oracle.densify(state), tol) == {(): 1.0}


class TestRandomUnitaries:
    def test_unitary_within_tolerance(self):
        rng = np.random.default_rng(43)
        for dim in (2, 4):
            for _ in range(20):
                u = oracle.random_unitary(dim, rng)
                assert np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)

    def test_seeded_reproducibility(self):
        a = oracle.random_unitary(4, np.random.default_rng(7))
        b = oracle.random_unitary(4, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestVerificationSuite:
    def test_all_checks_pass(self):
        results = verify.run_verification(n_trials=50)
        assert all(r.passed for r in results), [r.name for r in results if not r.passed]

    def test_corrupted_gate_is_caught(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 0.5
        results = verify.run_verification(n_trials=0, gate_overrides={"U_copy": bad})
        failed = [r for r in results if not r.passed]
        assert any("U_copy" in r.name for r in failed)

    def test_tsirelson_check_compares_the_plane_maximum(self, monkeypatch):
        def inflated(*args, **kwargs):
            scan = analysis.chsh_grid_max(*args, **kwargs)
            return dataclasses.replace(scan, plane_max=3.0)

        monkeypatch.setattr(verify, "chsh_grid_max", inflated)
        check = {r.name: r for r in verify.check_known_values()}["CHSH within Tsirelson bound"]
        assert not check.passed
        assert "plane max 3.0" in check.detail

    def test_tsirelson_check_runs_at_the_bound(self):
        # on the entangled epr qubits, not a decohered record pair at S = 2
        check = {r.name: r for r in verify.check_known_values()}["CHSH within Tsirelson bound"]
        assert check.passed
        plane_max = float(check.detail.split("plane max ")[1])
        assert abs(plane_max - 2 * math.sqrt(2)) <= 1e-9
