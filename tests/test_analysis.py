import math

import numpy as np
import pytest

import branchsim as bs
from branchsim import analysis, oracle
from conftest import random_state

R2 = 1 / math.sqrt(2)
LN2 = math.log(2.0)


def _dense_expectation(state, obs, region):
    """<psi| obs_on_region |psi> computed straight from the dense vector."""
    n = state.lattice.n_sites
    positions = [state.lattice.position(s) for s in region]
    psi = oracle.densify(state).vector.reshape([2] * n)
    k = len(positions)
    acted = np.tensordot(obs.reshape([2] * (2 * k)), psi,
                         axes=(list(range(k, 2 * k)), positions))
    acted = np.moveaxis(acted, list(range(k)), positions)
    return complex(np.vdot(psi.reshape(-1), acted.reshape(-1))).real


def plus_product(n_sites):
    """Every site of an n-site chain in |+>."""
    return bs.product_state(bs.chain_lattice([0], range(1, n_sites)),
                            {s: [R2, R2] for s in range(n_sites)})


def bell_pair_with_spectators(n_plus):
    """(|00> + |11>)/sqrt(2) on sites 0, 1, then n_plus sites in |+>."""
    lat = bs.chain_lattice([0], range(1, n_plus + 2))
    terms = [(pair + format(k, f"0{n_plus}b"), 1.0)
             for pair in ("00", "11") for k in range(2 ** n_plus)]
    return bs.entangled_state(lat, terms)


def bell_pair_with_spectator():
    """(|0.0> + |1.1>)/sqrt(2) on sites 0,2 with |+> parked at site 1."""
    lat = bs.chain_lattice([0], [1, 2])
    h = 0.5
    return bs.PureState(lat, {"000": h, "010": h, "101": h, "111": h})


class TestReducedDensityMatrix:
    def test_product_state_gives_projector(self):
        lat = bs.chain_lattice([0], [1])
        state = bs.product_state(lat, {0: [0.6, 0.8], 1: [1, 0]})
        rho = bs.reduced_density_matrix(state, [0])
        v = np.array([0.6, 0.8])
        assert np.allclose(rho.matrix, np.outer(v, v), atol=1e-12)

    def test_qubit_maximally_mixed_after_coupling(self, single_states):
        rho = bs.reduced_density_matrix(single_states[1], [0])
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_keep_order_sets_bit_significance(self, epr_states):
        ab = bs.reduced_density_matrix(epr_states[0], [0, 5]).matrix
        ba = bs.reduced_density_matrix(epr_states[0], [5, 0]).matrix
        swap = bs.field_swap_gate().matrix
        assert np.allclose(ba, swap @ ab @ swap, atol=1e-12)

    def test_matches_dense_engine(self, collision_states):
        state = collision_states[-1]
        dense = oracle.densify(state)
        for region in [(0,), (2, 3), (0, 3, 5)]:
            sparse = bs.reduced_density_matrix(state, region).matrix
            assert np.allclose(sparse, oracle.dense_rdm(dense, region), atol=1e-12)

    def test_local_expectations_preserved(self):
        # the defining property of the partial trace, on generic states
        rng = np.random.default_rng(21)
        for _ in range(10):
            state = random_state(rng, n_sites=5)
            region = tuple(int(s) for s in rng.choice(5, size=2, replace=False))
            h = oracle.random_unitary(4, rng)
            obs = h + h.conj().T
            rho = bs.reduced_density_matrix(state, region)
            assert np.trace(rho.matrix @ obs).real == pytest.approx(
                _dense_expectation(state, obs, region), abs=1e-10)

    def test_rdm_is_valid_density_matrix(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            state = random_state(rng, n_sites=6)
            region = tuple(int(s) for s in rng.choice(6, size=3, replace=False))
            rho = bs.reduced_density_matrix(state, region)  # ctor checks herm/trace
            assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10

    def test_oversized_region_rejected(self):
        state = bs.scenario_single(R2, R2, 13).run(horizon=0)[0]
        with pytest.raises(bs.AnalysisError):
            bs.reduced_density_matrix(state, state.lattice.indices[:13])

    def test_duplicate_region_rejected(self, single_states):
        with pytest.raises(bs.AnalysisError):
            bs.reduced_density_matrix(single_states[0], [0, 0])

    def test_non_hermitian_matrix_rejected(self):
        with pytest.raises(bs.AnalysisError):
            bs.DensityMatrix((0,), np.array([[0.5, 1.0], [0.0, 0.5]]))


class TestBasisChange:
    def test_identity_rotation_is_noop(self, single_states):
        rho = bs.reduced_density_matrix(single_states[1], [0])
        same = bs.change_basis(rho, {})
        assert np.allclose(rho.matrix, same.matrix, atol=0)

    def test_biased_qubit_in_hadamard_basis(self):
        state = bs.scenario_single(math.sqrt(2 / 3), math.sqrt(1 / 3), 4).run()[1]
        rho = bs.reduced_density_matrix(state, [0])
        assert np.allclose(rho.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-12)
        rotated = bs.change_basis(rho, {0: bs.hadamard_gate()})
        assert np.allclose(rotated.matrix, [[0.5, 1 / 6], [1 / 6, 0.5]], atol=1e-12)
        assert bs.coherence(rotated) == pytest.approx(1 / 3, abs=1e-12)

    def test_purity_and_entropy_are_basis_invariant(self):
        rng = np.random.default_rng(23)
        state = random_state(rng)
        rho = bs.reduced_density_matrix(state, [0, 1])
        for _ in range(10):
            rotated = bs.change_basis(rho, {0: oracle.random_gate1(rng),
                                            1: oracle.random_gate1(rng)})
            assert bs.purity(rotated) == pytest.approx(bs.purity(rho), abs=1e-12)
            assert bs.entropy_of(rotated) == pytest.approx(bs.entropy_of(rho), abs=1e-10)

    def test_multi_site_rotation(self, epr_states):
        # rotating both qubits of the entangled pair by the same angle
        # leaves the singlet-like correlations unchanged on the diagonal
        rho = bs.reduced_density_matrix(epr_states[0], [0, 5])
        gate = bs.rotation_gate(0.3)
        rotated = bs.change_basis(rho, {0: gate, 5: gate})
        assert np.trace(rotated.matrix).real == pytest.approx(1.0, abs=1e-12)


class TestScalars:
    def test_coherence_of_diagonal_is_zero(self, single_states):
        rho = bs.reduced_density_matrix(single_states[1], [0])
        assert bs.coherence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_coherence_of_plus_projector_is_one(self):
        lat = bs.chain_lattice([0], [1])
        state = bs.product_state(lat, {0: [R2, R2], 1: [1, 0]})
        rho = bs.reduced_density_matrix(state, [0])
        assert bs.coherence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_purity_values(self, single_states):
        biased = bs.scenario_single(math.sqrt(2 / 3), math.sqrt(1 / 3), 4).run()[1]
        assert bs.purity(bs.reduced_density_matrix(biased, [0])) == pytest.approx(
            5 / 9, abs=1e-12)
        both = bs.reduced_density_matrix(single_states[2], [0, 1])
        assert bs.purity(both) == pytest.approx(0.5, abs=1e-12)

    def test_entropy_in_nats(self, single_states):
        assert bs.entanglement_entropy(single_states[1], [0]) == pytest.approx(
            LN2, abs=1e-10)
        assert bs.entanglement_entropy(single_states[0], [0]) == pytest.approx(
            0.0, abs=1e-10)

    def test_entropy_handles_zero_eigenvalues(self):
        rho = bs.DensityMatrix((0,), np.diag([1.0, 0.0]))
        assert bs.entropy_of(rho) == 0.0


class TestMutualInformation:
    def test_entangled_qubits_share_two_ln_two(self, epr_states):
        assert bs.mutual_information(epr_states[0], [0], [5]) == pytest.approx(
            2 * LN2, abs=1e-10)

    def test_product_regions_share_nothing(self, collision_states):
        assert bs.mutual_information(collision_states[0], [0], [5]) == pytest.approx(
            0.0, abs=1e-10)

    def test_records_decouple_the_qubits(self, collision_states):
        final = collision_states[-1]
        assert bs.mutual_information(final, [0], [5]) == pytest.approx(0.0, abs=1e-10)
        assert bs.mutual_information(final, [0], [3]) == pytest.approx(2 * LN2, abs=1e-10)

    def test_region_mi_sees_joint_records(self, collision_states):
        # neither record site alone tells anything about qubit 0 beyond
        # its partner, but the record *pair* carries the full story
        final = collision_states[-1]
        assert bs.mutual_information(final, [0], [2]) == pytest.approx(0.0, abs=1e-10)
        assert bs.mutual_information(final, [0], [2, 3]) == pytest.approx(
            2 * LN2, abs=1e-10)

    def test_overlapping_regions_rejected(self, epr_states):
        with pytest.raises(bs.AnalysisError):
            bs.mutual_information(epr_states[0], [0, 1], [1, 2])


class TestIsDecohered:
    def test_untouched_site_is_not_decohered(self, single_states):
        assert not bs.is_decohered(single_states[1], 3)

    def test_coherent_site_is_not_decohered(self, single_states):
        assert not bs.is_decohered(single_states[0], 0)  # still |+>

    def test_recorded_qubit_is_decohered(self, single_states):
        assert bs.is_decohered(single_states[1], 0)
        assert bs.is_decohered(single_states[1], 1)


class TestBranchDecompose:
    def test_single_chain_branches(self, single_states):
        decomp = bs.branch_decompose(single_states[3])
        assert decomp.n_branches == 2
        assert decomp.unbranched == frozenset({4})
        by_key = {b.key(): b for b in decomp.branches}
        down = by_key[((0, 0), (1, 1), (2, 1), (3, 1))]
        up = by_key[((0, 1), (1, 0), (2, 0), (3, 0))]
        assert down.weight == pytest.approx(0.5, abs=1e-12)
        assert up.weight == pytest.approx(0.5, abs=1e-12)

    def test_weights_are_born_probabilities(self):
        final = bs.scenario_single(math.sqrt(2 / 3), math.sqrt(1 / 3), 4).run()[-1]
        decomp = bs.branch_decompose(final)
        assert sorted(decomp.weights) == pytest.approx([1 / 3, 2 / 3], abs=1e-12)

    def test_unbranched_state_is_one_branch(self, collision_states):
        decomp = bs.branch_decompose(collision_states[0])
        assert decomp.n_branches == 1
        assert decomp.branches[0].weight == pytest.approx(1.0, abs=1e-12)
        assert decomp.branches[0].assignment == {}

    def test_collision_final_branches(self, collision_states):
        decomp = bs.branch_decompose(collision_states[-1])
        assert decomp.n_branches == 4
        assert all(w == pytest.approx(0.25, abs=1e-12) for w in decomp.weights)
        assert decomp.unbranched == frozenset({1, 4})

    def test_strings_merge_over_unbranched_sites(self):
        decomp = bs.branch_decompose(bell_pair_with_spectator())
        assert decomp.unbranched == frozenset({1})
        assert decomp.n_branches == 2
        assert {b.key() for b in decomp.branches} == {
            ((0, 0), (2, 0)), ((0, 1), (2, 1))}
        assert all(w == pytest.approx(0.5, abs=1e-12) for w in decomp.weights)

    def test_weights_renormalised(self, epr_states):
        assert sum(bs.branch_decompose(epr_states[-1]).weights) == pytest.approx(
            1.0, abs=1e-12)

    @pytest.mark.parametrize("n_sites, tol", [(11, 1e-3), (3, 0.2)])
    def test_small_terms_merge_before_threshold(self, n_sites, tol):
        # every term weighs 2^-n_sites <= tol; the merged branch does not
        state = plus_product(n_sites)
        decomp = bs.branch_decompose(state, tol)
        assert decomp.weights == (1.0,)
        assert decomp.unbranched == frozenset(state.lattice.indices)

    def test_branches_spread_over_small_terms_survive(self):
        # a Bell pair next to ten |+> spectators: each term weighs 2^-11
        state = bell_pair_with_spectators(10)
        decomp = bs.branch_decompose(state, 1e-3)
        assert {b.key() for b in decomp.branches} == {((0, 0), (1, 0)), ((0, 1), (1, 1))}
        assert decomp.weights == pytest.approx((0.5, 0.5), abs=1e-12)


class TestBranchClusters:
    def test_collision_midway_two_independent_clusters(self, collision_states):
        clusters = bs.extended_branch_clusters(collision_states[1])
        assert clusters.n_clusters == 2
        assert [c.sites for c in clusters.clusters] == [(0, 1), (4, 5)]
        for c in clusters.clusters:
            assert c.n_branches == 2
            assert all(b.weight == pytest.approx(0.5, abs=1e-12) for b in c.branches)

    def test_epr_is_one_extended_branch_pair(self, epr_states):
        clusters = bs.extended_branch_clusters(epr_states[1])
        assert clusters.n_clusters == 1
        assert clusters.clusters[0].sites == (0, 1, 4, 5)
        assert clusters.clusters[0].n_branches == 2

    def test_epr_final_cluster_spans_qubits_and_records(self, epr_states):
        clusters = bs.extended_branch_clusters(epr_states[-1])
        assert clusters.n_clusters == 1
        assert clusters.clusters[0].sites == (0, 2, 3, 5)
        assert clusters.clusters[0].n_branches == 2

    def test_collision_final_splits_into_bell_pairs(self, collision_states):
        # after crossing, each qubit is entangled only with the record it
        # wrote; pairwise mutual information links exactly those pairs
        clusters = bs.extended_branch_clusters(collision_states[-1])
        assert [c.sites for c in clusters.clusters] == [(0, 3), (2, 5)]
        for c in clusters.clusters:
            assert c.n_branches == 2
            assert all(b.weight == pytest.approx(0.5, abs=1e-12) for b in c.branches)


class TestCorrelationAndChsh:
    def test_records_perfectly_anticorrelated(self, epr_states):
        e = bs.correlation(epr_states[-1], bs.MeasurementSetting(2),
                           bs.MeasurementSetting(3))
        assert e == pytest.approx(-1.0, abs=1e-10)

    def test_rotated_correlation_of_entangled_qubits(self, epr_states):
        # E(theta_a, theta_b) = -cos(theta_a + theta_b) for (|01>+|10>)/sqrt(2)
        for ta, tb in [(0.0, 0.0), (0.4, 0.9), (2.0, 5.0)]:
            e = bs.correlation(epr_states[0], bs.MeasurementSetting(0, ta),
                               bs.MeasurementSetting(5, tb))
            assert e == pytest.approx(-math.cos(ta + tb), abs=1e-12)

    def test_chsh_of_fresh_entangled_qubits_hits_tsirelson(self, epr_states):
        settings = (0.0, math.pi / 2, 3 * math.pi / 4, math.pi / 4)
        s = bs.chsh(epr_states[0], 0, 5, settings)
        assert s == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_grid_max_matches_exhaustive_search(self, epr_states):
        state = epr_states[0]
        result = bs.chsh_grid_max(state, 0, 5, resolution_deg=30.0)
        k = len(result.angles)
        brute = max(
            result.e_grid[a, b] - result.e_grid[a, bp]
            + result.e_grid[ap, b] + result.e_grid[ap, bp]
            for a in range(k) for ap in range(k)
            for b in range(k) for bp in range(k))
        assert result.value == pytest.approx(brute, abs=1e-12)
        assert bs.chsh(state, 0, 5, result.settings) == pytest.approx(
            result.value, abs=1e-12)

    def test_decohered_records_cannot_violate(self, epr_states):
        # once the qubits are measured devices, the record pair is an
        # incoherent mixture: the late-choice CHSH maximum is exactly 2
        result = bs.chsh_grid_max(epr_states[-1], 2, 3, resolution_deg=1.0)
        assert result.value == pytest.approx(2.0, abs=1e-9)

    def test_uncorrelated_records_scan_to_zero(self, collision_states):
        result = bs.chsh_grid_max(collision_states[-1], 2, 3, resolution_deg=5.0)
        assert abs(result.value) <= 1e-10

    @pytest.mark.parametrize("resolution", [0.0, -5.0, math.nan, math.inf])
    def test_grid_resolution_must_be_finite_and_positive(self, epr_states, monkeypatch,
                                                         resolution):
        # 0 raised ZeroDivisionError, -5 an IndexError, NaN numpy's arange
        # ValueError, and inf scanned a one-angle grid; the check comes
        # before the correlator matrix is built
        monkeypatch.setattr(analysis, "correlator_matrix", None)
        with pytest.raises(bs.AnalysisError, match="resolution"):
            bs.chsh_grid_max(epr_states[0], 0, 5, resolution_deg=resolution)

    @pytest.mark.parametrize("resolution", [1e-300, 0.001, 0.09])
    def test_grid_resolution_below_the_finest_step(self, epr_states, monkeypatch,
                                                   resolution):
        # 1e-300 raised numpy's arange ValueError, and 0.001 degrees asked
        # for a 360,000 x 360,000 grid (about 1 TB)
        monkeypatch.setattr(analysis, "correlator_matrix", None)
        with pytest.raises(bs.AnalysisError, match="at least 0.1 degrees"):
            bs.chsh_grid_max(epr_states[0], 0, 5, resolution_deg=resolution)

    def test_chsh_builds_one_correlator_matrix(self, epr_states, monkeypatch):
        calls = []
        build = analysis.correlator_matrix
        monkeypatch.setattr(analysis, "correlator_matrix",
                            lambda *args: calls.append(args) or build(*args))
        settings = (0.0, math.pi / 2, 3 * math.pi / 4, math.pi / 4)
        assert bs.chsh(epr_states[0], 0, 5, settings) == pytest.approx(
            2 * math.sqrt(2), abs=1e-12)
        assert calls == [(epr_states[0], 0, 5)]

    def test_tsirelson_bound_on_random_states(self):
        rng = np.random.default_rng(31)
        bound = 2 * math.sqrt(2) + 1e-9
        for _ in range(25):
            state = random_state(rng)
            sites = rng.choice(5, size=2, replace=False)
            settings = tuple(rng.uniform(0, 2 * math.pi, size=4))
            assert abs(bs.chsh(state, int(sites[0]), int(sites[1]), settings)) <= bound
            result = bs.chsh_grid_max(state, int(sites[0]), int(sites[1]),
                                      resolution_deg=15.0)
            assert result.value <= bound


class TestPlaneChshMax:
    def test_entangled_qubits_reach_tsirelson(self, epr_states):
        assert bs.plane_chsh_max(epr_states[0], 0, 5) == pytest.approx(
            2 * math.sqrt(2), abs=1e-12)

    def test_grid_never_beats_the_plane_maximum(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            state = random_state(rng)
            a, b = (int(s) for s in rng.choice(5, size=2, replace=False))
            plane = bs.plane_chsh_max(state, a, b)
            assert bs.chsh_grid_max(state, a, b, resolution_deg=15.0).value <= plane + 1e-12
            assert plane <= 2 * math.sqrt(2) + 1e-9

    @pytest.mark.parametrize("sites", [(0, 5), (2, 3)])
    @pytest.mark.parametrize("fixture", ["epr_states", "collision_states"])
    def test_one_degree_grid_agrees(self, request, fixture, sites):
        states = request.getfixturevalue(fixture)
        for state in (states[0], states[-1]):
            grid = bs.chsh_grid_max(state, *sites, resolution_deg=1.0)
            assert abs(grid.value - bs.plane_chsh_max(state, *sites)) <= 1e-3

    def test_grid_scan_shares_one_correlator_matrix(self, epr_states, monkeypatch):
        calls = []
        build = analysis.correlator_matrix
        monkeypatch.setattr(analysis, "correlator_matrix",
                            lambda *args: calls.append(args) or build(*args))
        result = bs.chsh_grid_max(epr_states[0], 0, 5, resolution_deg=30.0)
        assert len(calls) == 1
        assert result.plane_max == bs.plane_chsh_max(epr_states[0], 0, 5)


class TestSampling:
    def test_deterministic_given_seed(self, epr_states):
        a = bs.sample_measurement(epr_states[-1], bs.MeasurementSetting(2), seed=123)
        b = bs.sample_measurement(epr_states[-1], bs.MeasurementSetting(2), seed=123)
        assert a[0] == b[0]
        assert dict(a[1].amplitudes) == dict(b[1].amplitudes)

    def test_collapse_selects_consistent_branch(self, epr_states):
        state = epr_states[-1]
        for seed in range(20):
            outcome, post = bs.sample_measurement(state, bs.MeasurementSetting(2), seed)
            decomp = bs.branch_decompose(post)
            assert decomp.n_branches == 1
            # record 2 = outcome, record 3 = opposite, qubits follow suit
            (bits, amp), = post.terms()
            assert bits[2] == outcome and bits[3] == 1 - outcome
            assert abs(abs(amp) - 1.0) < 1e-12

    def test_certain_outcome_leaves_state_alone(self, single_states):
        # site 4 is still exactly up at t=3: outcome 0 with certainty
        outcome, post = bs.sample_measurement(single_states[3],
                                              bs.MeasurementSetting(4), seed=5)
        assert outcome == 0
        assert bs.overlap(post, single_states[3]) == pytest.approx(1.0, abs=1e-12)

    def test_rotated_measurement_of_own_eigenstate(self):
        lat = bs.chain_lattice([0], [1])
        plus = bs.product_state(lat, {0: [R2, R2], 1: [1, 0]})
        outcome, post = bs.sample_measurement(
            plus, bs.MeasurementSetting(0, math.pi / 2), seed=9)
        assert outcome == 0  # |+> is the +1 eigenstate of X
        assert bs.overlap(post, plus) == pytest.approx(1.0, abs=1e-12)

    def test_half_turn_swaps_outcome_labels(self, single_states):
        outcome, _ = bs.sample_measurement(single_states[3],
                                           bs.MeasurementSetting(4, math.pi), seed=5)
        assert outcome == 1  # up along -Z is down

    def test_frequencies_near_born_weights(self, epr_states):
        n = 2000
        downs = sum(
            bs.sample_measurement(epr_states[-1], bs.MeasurementSetting(2), seed)[0]
            for seed in range(n))
        sigma = math.sqrt(n * 0.25)
        assert abs(downs - n / 2) <= 3 * sigma
