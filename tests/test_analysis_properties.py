"""Property tests for the shared analysis path.

Random sparse states (at most 6 sites, at most 16 terms) check that the
one-pass site marginals and the batched pair mutual information agree
with the one-region functions, that the branches of a state, alone or
in a block, equal the per-state dict loop kept here as the reference,
that the clusters of every state of a block, grown together, equal the
components of that state's all-pairs graph, that `entropy_of` and
`correlation` agree with their textbook formulas, that `entropies`
reads the spectrum of an exactly diagonal matrix off its diagonal bit
for bit as `eigvalsh` would, and that every density matrix built on the
way is a valid one.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import branchsim as bs
from branchsim import analysis, verify
from branchsim.lattice import StateBlock

# includes signed zeros, so sign handling of the partial trace is pinned
components = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5]),
                       st.floats(-1.0, 1.0, allow_nan=False))


@st.composite
def sparse_states(draw, n_sites=None):
    if n_sites is None:
        n_sites = draw(st.integers(1, 6))
    # negative field ids, so site ids and lattice positions differ
    lattice = bs.chain_lattice([0], range(1 - n_sites, 0))
    indices = draw(st.lists(st.integers(0, 2 ** n_sites - 1), min_size=1,
                            max_size=min(16, 2 ** n_sites), unique=True))
    amps = [complex(draw(components), draw(components)) for _ in indices]
    if sum(abs(a) for a in amps) < 1e-3:
        amps[0] = 1.0
    terms = [(format(i, f"0{n_sites}b"), a) for i, a in zip(indices, amps)]
    return bs.entangled_state(lattice, terms)


def loop_rdm(state, sites):
    """Reference partial trace: one dict group and one outer product per
    pattern of the traced bits, summed in order of first appearance."""
    kpos = [state.lattice.position(s) for s in sites]
    rest = [p for p in range(state.lattice.n_sites) if p not in kpos]
    groups = {}
    for bits, amp in state.amplitudes.items():
        idx = 0
        for p in kpos:
            idx = (idx << 1) | bits[p]
        groups.setdefault(tuple(bits[p] for p in rest), []).append((idx, amp))
    dim = 2 ** len(sites)
    rho = np.zeros((dim, dim), dtype=complex)
    for entries in groups.values():
        v = np.zeros(dim, dtype=complex)
        for idx, amp in entries:
            v[idx] += amp
        rho += v[:, None] * v.conj()
    return rho


def loop_decompose(state, tol):
    """Reference branch decomposition: one dict entry per bit pattern on
    the sites whose one-site purity is below 1 - tol, weights added in
    term order, patterns above `tol` kept and divided by their total,
    added left to right."""
    marginals = analysis.site_marginals(state)
    branched = [s for s, p in zip(marginals.sites, marginals.purity) if p < 1.0 - tol]
    bpos = [state.lattice.position(s) for s in branched]
    re, im = state.table.amps.real, state.table.amps.imag
    merged = {}
    for key, w in zip(map(tuple, state.table.bits[:, bpos].tolist()),
                      (re * re + im * im).tolist()):
        merged[key] = merged.get(key, 0.0) + w
    merged = {key: w for key, w in merged.items() if w > tol}
    total = 0.0
    for w in merged.values():
        total += w
    support = frozenset(branched)
    branches = tuple(analysis.Branch(w / total, dict(zip(branched, key)), support)
                     for key, w in sorted(merged.items()))
    return analysis.BranchDecomposition(branches, frozenset(state.lattice.indices) - support,
                                        tol)


def assert_valid_density_matrix(m):
    assert np.abs(m - m.conj().T).max() <= 1e-12
    assert abs(np.trace(m).real - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(m).min() >= -1e-12


@settings(max_examples=300, deadline=None)
@given(sparse_states())
def test_site_marginals_equal_single_site_rdms_bit_for_bit(state):
    marginals = analysis.site_marginals(state)
    assert marginals.sites == state.lattice.indices
    for i, site in enumerate(marginals.sites):
        rho = analysis.reduced_density_matrix(state, [site])
        assert marginals.matrices[i].tobytes() == rho.matrix.tobytes()
        assert rho.matrix.tobytes() == loop_rdm(state, [site]).tobytes()
        assert marginals.coherence[i].tobytes() == np.float64(bs.coherence(rho)).tobytes()
        assert marginals.purity[i].tobytes() == np.float64(bs.purity(rho)).tobytes()
        assert marginals.entropy[i].tobytes() == np.float64(bs.entropy_of(rho)).tobytes()
        assert_valid_density_matrix(marginals.matrices[i])


def eigenvalue_entropy(m):
    """Reference entropy: -sum w ln w over the positive eigenvalues only."""
    w = np.linalg.eigvalsh(m)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum()) if w.size else 0.0


@settings(max_examples=200, deadline=None)
@given(sparse_states(), st.data())
def test_entropy_of_matches_the_eigenvalue_sum(state, data):
    # equal bit for bit while a region has fewer than 8 eigenvalues, where
    # numpy sums them in plain order; larger regions differ in round-off
    sites = state.lattice.indices
    region = data.draw(st.lists(st.sampled_from(sites), min_size=1,
                                max_size=len(sites), unique=True))
    rho = analysis.reduced_density_matrix(state, region)
    if len(region) <= 2:
        assert bs.entropy_of(rho) == eigenvalue_entropy(rho.matrix)
    else:
        assert abs(bs.entropy_of(rho) - eigenvalue_entropy(rho.matrix)) <= 1e-14


def kron_correlation(state, a, b):
    """Reference E(a, b): trace of the pair RDM against sigma(theta_a) x sigma(theta_b)."""
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    axis = lambda theta: math.cos(theta) * z + math.sin(theta) * x
    rho = analysis.reduced_density_matrix(state, [a.site, b.site]).matrix
    return float(np.trace(rho @ np.kron(axis(a.theta), axis(b.theta))).real)


angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


def eigvalsh_entropies(matrices):
    """`entropies` with every matrix's spectrum from one eigvalsh."""
    w = np.linalg.eigvalsh(matrices)
    positive = w > 0.0
    terms = np.where(positive, w * np.log(np.where(positive, w, 1.0)), 0.0)
    return np.where(positive.any(-1), -terms.sum(-1), 0.0)


tiny = bs.PRUNE_EPS ** 2
diagonal_entries = st.one_of(
    st.sampled_from([0.0, 0.5, 0.25, 1.0, tiny, 1.0 - tiny, 2.0 * tiny, tiny / 3.0]),
    st.floats(0.0, 1.0).map(lambda x: x * tiny), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 4]), st.data())
def test_diagonal_spectra_equal_eigvalsh_bit_for_bit(d, data):
    # exactly diagonal stacks, imaginary residues on the diagonal as the
    # partial trace leaves them; zeros, equal entries and entries near
    # PRUNE_EPS^2
    n = data.draw(st.integers(1, 12))
    stack = np.zeros((n, d, d), dtype=complex)
    for m in stack:
        same = data.draw(st.booleans())
        first = data.draw(diagonal_entries)
        for i in range(d):
            m[i, i] = complex(first if same else data.draw(diagonal_entries),
                              data.draw(st.sampled_from([0.0, -0.0, 1e-17, -3e-18])))
    diag = np.sort(stack.diagonal(axis1=1, axis2=2).real, axis=1)
    top = diag[:, -1]
    unscaled = (top == 0.0) | (top >= 2.0 ** -480)   # eigvalsh scales the rest
    assert diag[unscaled].tobytes() == np.linalg.eigvalsh(stack[unscaled]).tobytes()
    assert analysis.entropies(stack).tobytes() == eigvalsh_entropies(stack).tobytes()


def test_entropies_of_mixed_stacks_take_one_eigvalsh_for_the_rest(monkeypatch):
    # a single off-diagonal entry of 1e-300 makes a matrix coherent, and
    # eigvalsh scales a matrix whose largest entry is 5e-247 or 1e200
    stack = np.zeros((6, 4, 4), dtype=complex)
    stack[:, [0, 1, 2, 3], [0, 1, 2, 3]] = [0.25, 0.25, 0.5, 0.0]
    stack[1, 0, 2] = stack[1, 2, 0] = 1e-300
    stack[3, 1, 3] = 0.1j
    stack[3, 3, 1] = -0.1j
    stack[4, [0, 1, 2, 3], [0, 1, 2, 3]] = [0.0, 4.877390071377493e-247, 1e-250, 0.0]
    stack[5, 2, 2] = 1e200
    seen, original = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.copy()) or original(a))
    ours = analysis.entropies(stack)
    assert len(seen) == 1 and seen[0].tobytes() == stack[[1, 3, 4, 5]].tobytes()
    monkeypatch.undo()
    assert ours.tobytes() == eigvalsh_entropies(stack).tobytes()
    assert analysis.entropies(stack.reshape(3, 2, 4, 4)).tobytes() == ours.tobytes()


@settings(max_examples=300, deadline=None)
@given(sparse_states(), st.data(), angles, angles)
def test_correlation_matches_the_kron_trace(state, data, theta_a, theta_b):
    sites = state.lattice.indices
    assume(len(sites) >= 2)
    site_a, site_b = data.draw(st.lists(st.sampled_from(sites), min_size=2, max_size=2,
                                        unique=True))
    a = analysis.MeasurementSetting(site_a, theta_a)
    b = analysis.MeasurementSetting(site_b, theta_b)
    assert abs(bs.correlation(state, a, b) - kron_correlation(state, a, b)) <= 1e-15


@settings(max_examples=300, deadline=None)
@given(sparse_states())
def test_batched_pair_mutual_information_matches_per_pair(state):
    sites = state.lattice.indices
    pairs = np.array(list(itertools.combinations(range(len(sites)), 2)), dtype=np.intp)
    if not pairs.size:
        return
    # the growth's formula on one kernel call, against the public one pair
    # at a time: the same matrices and entropies, so the same bits
    entropy = analysis.site_marginals(state).entropy
    rho = analysis._pair_marginals(state.table, np.zeros(len(pairs), dtype=np.intp), pairs)
    batched = entropy[pairs[:, 0]] + entropy[pairs[:, 1]] - analysis.entropies(rho)
    for (a, b), value in zip(pairs, batched):
        assert value == bs.mutual_information(state, [sites[a]], [sites[b]])


@settings(max_examples=200, deadline=None)
@given(sparse_states(), st.data())
def test_every_rdm_is_a_density_matrix(state, data):
    sites = state.lattice.indices
    region = data.draw(st.lists(st.sampled_from(sites), min_size=1,
                                max_size=len(sites), unique=True))
    rho = analysis.reduced_density_matrix(state, region).matrix
    assert rho.tobytes() == loop_rdm(state, region).tobytes()
    assert_valid_density_matrix(rho)
    pairs = list(itertools.combinations(range(len(sites)), 2))
    if pairs:
        stacked = analysis._region_marginals(state, pairs)
        assert stacked.shape == (1, len(pairs), 4, 4)   # a state is the block of one
        for m in stacked[0]:
            assert_valid_density_matrix(m)


def test_large_region_sums_groups_in_chunks_bit_for_bit():
    # a 9-site region has 512 x 512 outer products, more than one chunk holds
    rng = np.random.default_rng(11)
    lattice = bs.chain_lattice([0], range(1, 11))
    terms = [(format(int(i), "011b"), complex(*rng.normal(size=2)))
             for i in rng.choice(2 ** 11, 64, replace=False)]
    state = bs.entangled_state(lattice, terms)
    region = [7, 0, 3, 1, 9, 2, 8, 5, 10]
    assert analysis._OUTER_CHUNK < 512 * 512 * 2
    rho = analysis.reduced_density_matrix(state, region).matrix
    assert rho.tobytes() == loop_rdm(state, region).tobytes()


@settings(max_examples=100, deadline=None)
@given(sparse_states())
def test_shared_decohered_flags_match_is_decohered(state):
    shared = analysis.BlockAnalysis(StateBlock.of([state]))
    assert shared.decohered.shape == (1, state.lattice.n_sites)
    assert list(shared.decohered[0]) == [bs.is_decohered(state, s)
                                         for s in state.lattice.indices]


TOLERANCES = (0.0, bs.BRANCH_TOL, verify.COMPARE_TOL, 1e-2)


@settings(max_examples=150, deadline=None)
@given(sparse_states(), st.sampled_from(TOLERANCES), st.data())
def test_a_state_is_analysed_as_the_block_of_one(state, tol, data):
    # the state taken as it is, and copied into a block of one
    ours, copied = analysis.BlockAnalysis(state, tol), analysis.BlockAnalysis(
        StateBlock.of([state]), tol)
    for field in ("matrices", "coherence", "purity", "entropy"):
        assert (getattr(ours.marginals, field).tobytes()
                == getattr(copied.marginals, field).tobytes())
    assert ours.marginals.sites == copied.marginals.sites == state.lattice.indices
    assert ours.decohered.shape == (1, state.lattice.n_sites)
    assert np.array_equal(ours.decohered, copied.decohered)
    assert ours.branches == copied.branches
    assert ours.clusters == copied.clusters
    sites = state.lattice.indices
    if len(sites) > 1:
        settings_ = [(bs.MeasurementSetting(a, ta), bs.MeasurementSetting(b, tb))
                     for (a, b), ta, tb in data.draw(st.lists(st.tuples(
                         st.permutations(sites).map(lambda p: tuple(p[:2])),
                         st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=4))]
        values = ours.correlations(settings_)
        assert values.shape == (1, len(settings_))
        assert values.tobytes() == copied.correlations(settings_).tobytes()


def assert_same_decomposition(found, reference):
    assert (np.float64(found.weights).tobytes()
            == np.float64(reference.weights).tobytes())
    assert [b.assignment for b in found.branches] == [b.assignment for b in reference.branches]
    assert all(type(bit) is int for b in found.branches for bit in b.assignment.values())
    assert [b.support for b in found.branches] == [b.support for b in reference.branches]
    assert found.unbranched == reference.unbranched
    assert found.tolerance == reference.tolerance


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(TOLERANCES))
def test_branches_equal_the_loop_reference_alone_and_in_blocks(data, tol):
    n_sites = data.draw(st.integers(1, 6))
    states = data.draw(st.lists(sparse_states(n_sites), min_size=1, max_size=5))
    decomps = analysis.BlockAnalysis(StateBlock.of(states), tol).branches
    assert len(decomps) == len(states)
    for state, decomp in zip(states, decomps):
        reference = loop_decompose(state, tol)
        assert_same_decomposition(bs.branch_decompose(state, tol), reference)
        assert_same_decomposition(decomp, reference)


def all_pairs_clusters(state, tol=bs.BRANCH_TOL):
    """Reference clusters: the mutual information of every pair of
    branched sites, one pair at a time, then the connected components of
    the graph of pairs above `tol`, each found from its lowest site.
    Returns (sites, {assignment: weight}) per cluster."""
    decomp = bs.branch_decompose(state, tol)
    branched = sorted(decomp.branches[0].support) if decomp.branches else []
    neighbours = {s: set() for s in branched}
    for a, b in itertools.combinations(branched, 2):   # lower site, and position, first
        if bs.mutual_information(state, [a], [b]) > tol:
            neighbours[a].add(b)
            neighbours[b].add(a)
    clusters, placed = [], set()
    for start in branched:
        if start in placed:
            continue
        component, stack = {start}, [start]
        while stack:
            for other in neighbours[stack.pop()] - component:
                component.add(other)
                stack.append(other)
        placed |= component
        sites = tuple(sorted(component))
        local = {}
        for br in decomp.branches:
            key = tuple((s, br.assignment[s]) for s in sites)
            local[key] = local.get(key, 0.0) + br.weight
        clusters.append((sites, local))
    return clusters


def assert_clusters_match_all_pairs(state, found=None, tol=bs.BRANCH_TOL):
    """`found`, the state's clusters (by default its own), against the
    all-pairs reference."""
    found = found or bs.extended_branch_clusters(state, tol)
    reference = all_pairs_clusters(state, tol)
    assert [c.sites for c in found.clusters] == [sites for sites, _ in reference]
    for cluster, (sites, local) in zip(found.clusters, reference):
        assert [(b.key(), b.weight) for b in cluster.branches] == sorted(local.items())
        assert all(b.support == frozenset(sites) for b in cluster.branches)
    assert found.unbranched == bs.branch_decompose(state, tol).unbranched
    assert found.tolerance == tol


@st.composite
def function_states(draw, n_sites=None):
    """Even superpositions over m free bits on which every other site is a
    Boolean function, in a shuffled site order: records, parities and
    constants, whose pairs are often exactly uncorrelated."""
    m = draw(st.integers(1, min(3, n_sites or 3)))
    n = n_sites or draw(st.integers(m, 7))
    tables = [draw(st.integers(0, 2 ** 2 ** m - 1)) for _ in range(n - m)]
    order = draw(st.permutations(range(n)))
    terms = []
    for x in range(2 ** m):
        row = [(x >> i) & 1 for i in range(m)] + [(t >> x) & 1 for t in tables]
        terms.append(("".join(str(row[i]) for i in order), 1.0))
    return bs.entangled_state(bs.chain_lattice([0], range(1, n)), terms)


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_states(), function_states()))
def test_clusters_are_the_components_of_the_all_pairs_graph(state):
    assert_clusters_match_all_pairs(state)


def parity_state():
    """(|000> + |011> + |101> + |110>)/2.  Its bits are pairwise independent,
    but tracing out one site leaves the other two in an even mixture of
    two Bell states, so I = ln 2 for every pair and the three sites are
    one cluster (no pure three-qubit state has three branched sites and
    no linked pair)."""
    lattice = bs.chain_lattice([0], [1, 2])
    return bs.entangled_state(lattice, [(b, 0.5) for b in ("000", "011", "101", "110")])


def five_qubit_code_state():
    """The five-qubit code's |0_L>: every pair of sites is maximally mixed,
    so no pair is linked and each site is a cluster of its own."""
    pauli = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]), "Z": np.diag([1, -1])}
    vector = np.zeros(32)
    vector[0] = 1.0
    for generator in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"):
        matrix = np.eye(1)
        for p in generator:
            matrix = np.kron(matrix, pauli[p])
        vector = vector + matrix @ vector     # (1 + g) projects onto g = +1
    lattice = bs.chain_lattice([0], [1, 2, 3, 4])
    return bs.entangled_state(lattice, [(format(int(i), "05b"), vector[i])
                                        for i in np.flatnonzero(vector)])


def qubit_record_pairs(n_pairs=8):
    """Independent Bell pairs on sites (i, 2n - 1 - i), nested, so each
    cluster's sites are far apart on the chain: 2^n terms."""
    n = 2 * n_pairs
    lattice = bs.chain_lattice(range(n_pairs), range(n_pairs, n))
    terms = []
    for code in range(2 ** n_pairs):
        bits = [0] * n
        for i in range(n_pairs):
            bits[i] = bits[n - 1 - i] = (code >> i) & 1
        terms.append(("".join(map(str, bits)), 1.0))
    return bs.entangled_state(lattice, terms)


def and_chain_state():
    """Independent bits a and c, their records a' and c', and b = a AND c,
    on sites (a, b, c, a', c') = (0, 1, 2, 3, 4).  The records make the
    a, c marginal a product, so I(a:c) = I(a:c') = 0 while b is linked to
    all four: c and c' join the cluster of site 0 only in a second round."""
    lattice = bs.chain_lattice([0], [1, 2, 3, 4])
    terms = [(f"{a}{a & c}{c}{a}{c}", 0.5) for a in (0, 1) for c in (0, 1)]
    return bs.entangled_state(lattice, terms)


FIXED_STATES = {"parity": parity_state, "five_qubit_code": five_qubit_code_state,
                "qubit_record_pairs": qubit_record_pairs, "and_chain": and_chain_state}


@pytest.mark.parametrize("name", sorted(FIXED_STATES))
def test_fixed_states_cluster_like_the_all_pairs_graph(name):
    assert_clusters_match_all_pairs(FIXED_STATES[name]())


def test_fixed_states_have_the_expected_clusters():
    sites = lambda state: [c.sites for c in bs.extended_branch_clusters(state).clusters]
    assert sites(parity_state()) == [(0, 1, 2)]
    assert sites(five_qubit_code_state()) == [(0,), (1,), (2,), (3,), (4,)]
    assert sites(qubit_record_pairs()) == [(i, 15 - i) for i in range(8)]
    assert sites(and_chain_state()) == [(0, 1, 2, 3, 4)]


def test_and_chain_needs_a_second_round():
    # in the reference graph sites 2 and 4 are not neighbours of site 0
    state = and_chain_state()
    mi = lambda a, b: bs.mutual_information(state, [a], [b])
    assert mi(0, 2) <= bs.BRANCH_TOL and mi(0, 4) <= bs.BRANCH_TOL
    assert mi(0, 1) > bs.BRANCH_TOL and mi(1, 2) > bs.BRANCH_TOL


def recorded_growth(monkeypatch, block, tol=bs.BRANCH_TOL):
    """Grow a block's clusters with every kernel call recorded: returns
    the clusters and, per call, its (owner, low, high) position triples."""
    calls, original = [], analysis._pair_marginals

    def recorded(table, owners, regions):
        assert (regions[:, 0] < regions[:, 1]).all()   # lower lattice position first
        calls.append(list(zip(owners.tolist(), *regions.T.tolist())))
        return original(table, owners, regions)

    shared = analysis.BlockAnalysis(block, tol)
    shared.branches   # the marginals and branches first, outside the record
    monkeypatch.setattr(analysis, "_pair_marginals", recorded)
    clusters = shared.clusters
    monkeypatch.undo()
    return clusters, calls


@pytest.mark.parametrize("name", sorted(FIXED_STATES))
def test_growth_evaluates_each_pair_at_most_once(monkeypatch, name):
    state = FIXED_STATES[name]()
    k = len(bs.branch_decompose(state).branches[0].support)
    _, calls = recorded_growth(monkeypatch, state)
    seen = [triple for call in calls for triple in call]
    assert len(seen) == len(set(seen)) <= k * (k - 1) // 2
    assert {owner for owner, _, _ in seen} <= {0}


def two_plus_state(lattice):
    """Sites 0 and 1 in |+>, the rest up: four branches of weight 1/4."""
    terms = [(f"{a}{b}" + "0" * (lattice.n_sites - 2), 1.0) for a in (0, 1) for b in (0, 1)]
    return bs.entangled_state(lattice, terms)


def bell_state(lattice):
    """A Bell pair on sites 0 and 1, the rest up: two branches of weight 1/2."""
    return bs.entangled_state(lattice, [("0" * lattice.n_sites, 1.0),
                                        ("11" + "0" * (lattice.n_sites - 2), 1.0)])


@pytest.mark.parametrize("tol", [bs.BRANCH_TOL, 0.3])
def test_a_block_takes_the_calls_of_its_slowest_owner(monkeypatch, tol):
    # and_chain needs two rounds for its one cluster and the five-qubit
    # code four for its five; at tol 0.3 only the Bell pair keeps a branch
    lattice = bs.chain_lattice([0], [1, 2, 3, 4])
    states = [and_chain_state(), five_qubit_code_state(), two_plus_state(lattice),
              bell_state(lattice), and_chain_state()]
    found, calls = recorded_growth(monkeypatch, StateBlock.of(states), tol)
    alone = [len(recorded_growth(monkeypatch, state, tol)[1]) for state in states]
    assert len(calls) == max(alone)
    seen = [triple for call in calls for triple in call]
    assert len(seen) == len(set(seen))
    for b, (state, clusters) in enumerate(zip(states, found)):
        assert sorted((lo, hi) for owner, lo, hi in seen if owner == b) == sorted(
            (lo, hi) for call in recorded_growth(monkeypatch, state, tol)[1]
            for _, lo, hi in call)
        assert_clusters_match_all_pairs(state, clusters, tol)
    if tol == 0.3:
        assert [c.n_clusters for c in found] == [0, 0, 0, 1, 0]
    else:
        assert alone[:2] == [2, 4]


#: The fixed states by number of sites, with the |+>|+> and Bell states
#: of five sites: and_chain needs two growth rounds, the five-qubit code
#: has five clusters, and at tol 0.3 both keep no branch of their five
#: branched sites.
FIXED_BY_SITES = {3: [parity_state()],
                  5: [and_chain_state(), five_qubit_code_state(),
                      two_plus_state(bs.chain_lattice([0], [1, 2, 3, 4])),
                      bell_state(bs.chain_lattice([0], [1, 2, 3, 4]))]}


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(TOLERANCES + (0.3,)))
def test_block_clusters_equal_each_states_all_pairs_clusters(data, tol):
    n_sites = data.draw(st.integers(1, 6))
    lattice = bs.chain_lattice([0], range(1, n_sites))
    kinds = [sparse_states(n_sites), function_states(n_sites)]
    if n_sites in FIXED_BY_SITES:
        kinds.append(st.sampled_from(FIXED_BY_SITES[n_sites]))
    states = [bs.PureState(lattice, state.table) for state in data.draw(st.lists(
        st.one_of(*kinds), min_size=1, max_size=5))]
    analysed = analysis.BlockAnalysis(StateBlock.of(states), tol)
    found = analysed.clusters
    assert len(found) == len(states)
    for state, clusters in zip(states, found):
        assert_clusters_match_all_pairs(state, clusters, tol)
    for clusters, decomp in zip(found, analysed.branches):
        if clusters.n_clusters > 1:
            event("several clusters")
        if any(len(c.sites) > 2 for c in clusters.clusters):
            event("a cluster of three or more sites")
        if not decomp.branches and len(decomp.unbranched) < n_sites:
            event("branched sites but no kept branch")


def cube_pairs(frontier, unplaced):
    """The (owner, a, b) of every frontier and unplaced site pair of an
    owner, from the (B, n, n) cube of all of them."""
    return np.nonzero(frontier[:, :, None] & unplaced[:, None, :])


masks = st.integers(1, 6).flatmap(lambda size: st.integers(1, 9).flatmap(
    lambda n: st.tuples(*[st.lists(st.lists(st.booleans(), min_size=n, max_size=n)
                                   | st.just([False] * n), min_size=size, max_size=size)
                          for _ in range(2)])))


def random_masks(size, n, density, seed=5) -> tuple:
    """A frontier and an unplaced (size, n) mask at `density`, with every
    third row's frontier and every fourth row's unplaced sites empty."""
    frontier, unplaced = np.random.default_rng(seed).random((2, size, n)) < density
    frontier[::3] = False
    unplaced[1::4] = False
    return frontier.tolist(), unplaced.tolist()


@settings(max_examples=300, deadline=None)
@given(masks)
@example(([[False]], [[False]]))
@example(([[True]], [[True]]))
@example(([[True, False, True]], [[False, True, True]]))
@example(([[False] * 4, [True] * 4, [False] * 4], [[True] * 4, [False] * 4, [True] * 4]))
@example(random_masks(1, 33, 0.3))
@example(random_masks(64, 33, 0.1))
@example(random_masks(7, 128, 0.05))
@example(random_masks(200, 1, 0.5))
@example(random_masks(16, 12, 0.9))
def test_frontier_pairs_equal_the_cube(pair):
    frontier, unplaced = (np.array(m, dtype=bool) for m in pair)
    found = analysis.frontier_pairs(frontier, unplaced)
    assert len(found) == 3
    for got, want in zip(found, cube_pairs(frontier, unplaced)):
        assert got.tolist() == want.tolist()
