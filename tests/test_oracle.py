import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchsim as bs
from branchsim import analysis, oracle, verify
from branchsim.lattice import StateBlock
from conftest import random_state
from test_analysis_properties import sparse_states


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

    def test_dense_steps_yields_before_it_applies_a_gate(self, monkeypatch):
        config = bs.scenario_epr()
        start = oracle.densify(config.initial)
        steps = oracle.dense_steps(start, config.schedule)
        monkeypatch.setattr(oracle, "dense_apply", None)   # any gate would fail
        assert next(steps) is start

    @pytest.mark.parametrize("name", sorted(bs.SCENARIOS))
    @pytest.mark.parametrize("horizon", [None, 1])
    def test_dense_deviation_equals_the_materialised_comparison(self, name, horizon):
        # the comparison as it was before the dense run was streamed: the
        # whole dense run listed first, then one compare per step
        config = bs.SCENARIOS[name]()
        states = config.run(horizon=horizon)
        dense_states = oracle.dense_run(oracle.densify(config.initial), config.schedule,
                                        len(states) - 1)
        assert len(dense_states) == len(states)
        materialised = max(verify.compare_states(s, d) for s, d in zip(states, dense_states))
        streamed = verify.dense_deviation(config, states)
        assert np.float64(streamed).tobytes() == np.float64(materialised).tobytes()

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

    @pytest.mark.parametrize("dim", [2, 4])
    def test_gaussian_matrix_reads_the_rng_as_two_draws(self, dim):
        # one (2, d, d) draw gives the numbers of a (d, d) draw per part,
        # and leaves the rng where the two draws leave it
        ours, twin = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(3):
            got = oracle.gaussian_matrix(dim, ours)
            want = twin.normal(size=(dim, dim)) + 1j * twin.normal(size=(dim, dim))
            assert got.shape == (dim, dim) and got.tobytes() == want.tobytes()
        assert ours.random() == twin.random()


def contract_one(vector, matrix, positions):
    """One state times one gate on lattice positions `positions`, by the
    moveaxis / reshape / matmul formula `oracle._contract` applies to a
    one-state stack."""
    n, k = vector.size.bit_length() - 1, len(positions)
    front = tuple(range(1, k + 1))
    axes = tuple(1 + p for p in positions)
    psi = np.moveaxis(vector.reshape((1,) + (2,) * n), axes, front)
    psi = np.matmul(matrix[None], psi.reshape(1, 2 ** k, -1))
    return np.moveaxis(psi.reshape((1,) + (2,) * n), front, axes).reshape(-1)


def signed_noise(rng, shape):
    """Complex Gaussian entries, a fifth of their parts set to +0.0 or
    -0.0, so that a result's signs of zero are compared too."""
    parts = rng.normal(size=(2,) + shape)
    zeros = rng.random(parts.shape) < 0.2
    parts[zeros] = np.where(rng.random(parts.shape) < 0.5, 0.0, -0.0)[zeros]
    return parts[0] + 1j * parts[1]


def assert_apply_stack_is_per_state(vectors, matrices, positions):
    got = oracle.apply_stack(vectors, matrices, positions)
    want = np.array([contract_one(v, m, tuple(p))
                     for v, m, p in zip(vectors, matrices, positions)]).reshape(vectors.shape)
    assert got.shape == vectors.shape and got.dtype == complex
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestApplyStack:
    """`apply_stack` gathers every state's gate sites to the front, runs
    one stacked matmul and scatters back; each row must have the bits of
    the per-state contraction, signs of zero included."""

    @settings(max_examples=120, deadline=None)
    @given(n_states=st.integers(1, 70), n_sites=st.integers(1, 10), k=st.sampled_from([1, 2]),
           shared=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_equal_the_per_state_contraction(self, n_states, n_sites, k, shared, seed):
        k = min(k, n_sites)
        rng = np.random.default_rng(seed)
        vectors = signed_noise(rng, (n_states, 2 ** n_sites))
        matrices = signed_noise(rng, (n_states, 2 ** k, 2 ** k))
        picks = np.argsort(rng.random((1 if shared else n_states, n_sites)), axis=1)[:, :k]
        positions = np.broadcast_to(picks, (n_states, k))
        assert_apply_stack_is_per_state(vectors, matrices, positions)

    @pytest.mark.parametrize("n_sites", [2, 3, 8])
    def test_both_orders_of_every_neighbour_pair(self, n_sites):
        # a gate on (p + 1, p) feeds its most significant slot from p + 1
        rng = np.random.default_rng(n_sites)
        pairs = [(p, p + 1) for p in range(n_sites - 1)]
        positions = pairs + [pair[::-1] for pair in pairs]
        vectors = signed_noise(rng, (len(positions), 2 ** n_sites))
        matrices = signed_noise(rng, (len(positions), 4, 4))
        assert_apply_stack_is_per_state(vectors, matrices, positions)
        # the same gates on the same states, one reversed pair at a time
        for b in range(len(pairs), len(positions)):
            assert_apply_stack_is_per_state(vectors[b:b + 1], matrices[b:b + 1],
                                            positions[b:b + 1])

    def test_an_empty_stack(self):
        out = oracle.apply_stack(np.zeros((0, 8), dtype=complex),
                                 np.zeros((0, 4, 4), dtype=complex), [])
        assert out.shape == (0, 8)


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


class TestIndependence:
    def test_oracle_imports_no_analysis_or_sparse_gate_code(self):
        # sharing code with the sparse path would make the cross-check a tautology
        tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(alias.name for alias in node.names)
        assert not any("analysis" in name for name in imported), imported
        sparse = {"apply_columns", "column_action", "apply_gate1", "apply_gate2",
                  "compile_schedule", "play_step", "run_schedule", "run_steps"}
        assert not imported & sparse
        assert not hasattr(oracle, "analysis") and not hasattr(oracle, "apply_columns")


# ---------------------------------------------------------------------------
# the stacked analysis against the per-state loops it replaced
# ---------------------------------------------------------------------------

def loop_dense_entropy(dense, region):
    """Reference: the entropy summed over the positive eigenvalues only."""
    w = np.linalg.eigvalsh(oracle.dense_rdm(dense, region))
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum()) if w.size else 0.0


def loop_dense_branch_weights(dense, tol):
    """Reference: one purity per site, then one dict entry per nonzero index,
    merged weights kept and totalled in order of first appearance."""
    n = dense.lattice.n_sites
    branched = []
    for p, site in enumerate(dense.lattice.indices):
        rho = oracle.dense_rdm(dense, [site])
        if np.trace(rho @ rho).real < 1.0 - tol:
            branched.append((p, site))
    probs = np.abs(dense.vector) ** 2
    merged = {}
    for idx in np.flatnonzero(probs):
        key = tuple((site, (int(idx) >> (n - 1 - p)) & 1) for p, site in branched)
        merged[key] = merged.get(key, 0.0) + float(probs[idx])
    merged = {key: w for key, w in merged.items() if w > tol}
    total = 0.0
    for w in merged.values():   # left to right, as `sum` is before Python 3.12
        total += w
    return {key: w / total for key, w in merged.items()}


def assert_same_weights(got, want):
    """Equal key sets, and equal weights down to the last bit."""
    assert set(got) == set(want)
    assert np.array([got[k] for k in want]).tobytes() == np.array(list(want.values())).tobytes()


def dense_variants(state):
    """The state, and the state after a rotation that fills in more terms."""
    rotated = bs.apply_gate1(state, bs.rotation_gate(0.3), state.lattice.indices[-1])
    return [oracle.densify(state), oracle.densify(rotated)]


@settings(max_examples=150, deadline=None)
@given(sparse_states(), st.sampled_from([1e-9, 1e-6, 0.05]))
def test_branch_weights_match_the_index_loop(state, tol):
    for dense in dense_variants(state):
        assert_same_weights(oracle.dense_branch_weights(dense, tol),
                            loop_dense_branch_weights(dense, tol))


@settings(max_examples=150, deadline=None)
@given(sparse_states())
def test_entropies_match_the_filtered_sum(state):
    # regions of three or more sites have 8 or more eigenvalues, some of
    # them zero or below, which numpy would add pairwise
    indices = state.lattice.indices
    regions = [indices[:k] for k in range(1, len(indices) + 1)] + [indices[::-1]]
    for dense in dense_variants(state):
        for region in regions:
            assert (np.float64(oracle.dense_entropy(dense, region)).tobytes()
                    == np.float64(loop_dense_entropy(dense, region)).tobytes())


def test_branch_totals_add_in_order_of_first_appearance():
    # site 0 is unbranched within the tolerance, but branch (0, 1) has no
    # term with site 0 at bit 0, so it first appears after branches (1, 0)
    # and (1, 1); the total in that order differs in its last bit from the
    # total in key order
    lattice = bs.chain_lattice([0], [1, 2])
    eps = 1e-3
    vector = np.zeros(8, dtype=complex)
    for code, weight in enumerate([0.1, 0.05, 0.41, 0.44]):
        if code == 1:
            vector[4 + code] = np.sqrt(weight)
        else:
            vector[code] = np.sqrt(weight) * np.sin(eps)
            vector[4 + code] = np.sqrt(weight) * np.cos(eps)
    dense = oracle.DenseState(lattice, vector)
    probs = np.abs(vector) ** 2
    group = [probs[code] + probs[4 + code] for code in range(4)]
    assert ((group[0] + group[2]) + group[3]) + group[1] != \
        ((group[0] + group[1]) + group[2]) + group[3]
    want = loop_dense_branch_weights(dense, 1e-6)
    assert len(want) == 4
    assert_same_weights(oracle.dense_branch_weights(dense, 1e-6), want)


def random_vectors(rng, n_states, n_sites):
    """Normalised random states, most with some amplitudes zeroed, so that
    some sites come out pure and the branch lists differ in length."""
    dim = 2 ** n_sites
    vectors = rng.normal(size=(n_states, dim)) + 1j * rng.normal(size=(n_states, dim))
    vectors *= rng.random((n_states, dim)) < rng.uniform(0.1, 1.0, (n_states, 1))
    vectors[:, 0] += np.all(vectors == 0, axis=1)     # no row is left empty
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def same_bits(a, b):
    return np.asarray(a, dtype=complex).tobytes() == np.asarray(b, dtype=complex).tobytes()


@pytest.mark.parametrize("n_states, n_sites, region_size",
                         [(1, 2, 2), (9, 2, 1), (1, 5, 3), (17, 4, 2), (12, 6, 3)])
def test_stack_rows_equal_the_single_state_functions(n_states, n_sites, region_size):
    rng = np.random.default_rng(100 * n_states + n_sites)
    lattice = bs.chain_lattice([0], range(1, n_sites))
    vectors = random_vectors(rng, n_states, n_sites)
    indices = lattice.indices
    regions = (indices[:region_size], indices[::-1][:region_size])
    tol = 1e-6
    stack = oracle.analyse_stack(lattice, vectors, regions, tol)
    dim = 2 ** region_size
    assert stack.site_rdms.shape == (n_states, n_sites, 2, 2)
    assert stack.site_entropy.shape == (n_states, n_sites)
    assert stack.region_rdms.shape == (n_states, len(regions), dim, dim)
    assert stack.region_entropy.shape == (n_states, len(regions))
    owner, branch_bits, weights, branched = stack.branches
    assert owner.dtype == np.intp and branch_bits.dtype == np.uint8
    assert weights.dtype == np.float64 and branched.dtype == bool
    assert branch_bits.shape == (len(owner), n_sites) and weights.shape == owner.shape
    assert branched.shape == (n_states, n_sites)
    assert (np.diff(owner) >= 0).all()
    for b, vector in enumerate(vectors):
        dense = oracle.DenseState(lattice, vector)
        for i, site in enumerate(indices):
            assert same_bits(stack.site_rdms[b, i], oracle.dense_rdm(dense, [site]))
            assert same_bits(stack.site_entropy[b, i], oracle.dense_entropy(dense, [site]))
        for r, region in enumerate(regions):
            assert same_bits(stack.region_rdms[b, r], oracle.dense_rdm(dense, region))
            assert same_bits(stack.region_entropy[b, r], oracle.dense_entropy(dense, region))
        # state b's rows, on its branched sites only, are its branches alone
        mine = owner == b
        assert not branch_bits[mine][:, ~branched[b]].any()
        sites = [s for s, m in zip(indices, branched[b].tolist()) if m]
        rows = {tuple(zip(sites, row)): w for row, w in
                zip(branch_bits[mine][:, branched[b]].tolist(), weights[mine].tolist())}
        want = oracle.dense_branch_weights(dense, tol)
        assert list(rows) == list(want)       # in the same order, by bits
        assert_same_weights(rows, want)


@pytest.mark.parametrize("n_states, n_sites", [(1, 2), (1, 8), (64, 8), (64, 3), (5, 14)])
def test_stacked_overlaps_equal_the_vdot_loop(n_states, n_sites):
    # a matmul item sums as `vdot` does, and `np.hypot` of its parts is
    # the scalar `abs`; overlaps near 1 are what the random suite compares
    rng = np.random.default_rng(10 * n_states + n_sites)
    a = random_vectors(rng, n_states, n_sites)
    near = a * np.exp(1j * rng.uniform(0, 6.3, (n_states, 1))) \
        + 1e-15 * (rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape))
    for b in (random_vectors(rng, n_states, n_sites), near, a):
        loop = np.array([abs(np.vdot(x, y)) for x, y in zip(a, b)])
        assert oracle.dense_overlaps(a, b).tobytes() == loop.tobytes()
    one = oracle.DenseState(bs.chain_lattice([0], range(1, n_sites)), a[0])
    assert oracle.dense_overlap(one, one) == abs(np.vdot(a[0], a[0]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(sparse_states(n), min_size=1, max_size=5)),
       st.sampled_from([verify.COMPARE_TOL, 1e-2]))
def test_stack_branches_equal_the_sparse_branch_table(states, tol):
    # the two engines fill one layout with their own code
    block = StateBlock.of(states)
    vectors = oracle.dense_vectors(block.lattice, block.table, block.size)
    indices = block.lattice.indices
    dense = oracle.analyse_stack(block.lattice, vectors, [indices[:1]], tol).branches
    sparse = analysis.BlockAnalysis(block, tol).branch_table
    for got, want in zip(dense[:2] + dense[3:], sparse[:2] + sparse[3:]):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert dense[2].shape == sparse[2].shape
    assert np.abs(dense[2] - sparse[2]).max(initial=0.0) <= 1e-12
