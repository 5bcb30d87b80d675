"""Reduced density matrices, branch structure, and correlation analysis.

Everything here is exact linear algebra on the sparse states — no
approximations beyond floating point.  Conventions:

* Reduced density matrices are indexed like basis strings: the first
  kept site is the most significant bit of the row/column index.
* Coherence and branch structure are basis-dependent quantities *by
  design*; they are reported in the bit basis of the lattice (the model's
  record/pointer basis) unless a basis change is applied first.
* Entropies are in nats (natural log), with 0 ln 0 = 0.
* A measurement "axis" theta means the observable
  cos(theta) Z + sin(theta) X; theta = 0 is a plain bit readout.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .gates import rotation_gate, apply_gate1
from .lattice import PureState, TermTable, complex_product, first_appearance, ordered_sum

#: Default tolerance for calling a site decohered / a weight a branch.
BRANCH_TOL = 1e-9

#: Largest region an exact reduced density matrix is built for (2^12 dim).
MAX_RDM_SITES = 12

#: Matrix entries of group outer products held at once by a partial trace.
_OUTER_CHUNK = 2 ** 16

_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
#: P x Q for P, Q in (Z, X), shape (2, 2, 4, 4).
_PAULI_PAIRS = np.array([[np.kron(p, q) for q in (_Z, _X)] for p in (_Z, _X)])


class AnalysisError(ValueError):
    """Bad region (unknown/duplicate sites, or too large for exact work)."""


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix on an ordered tuple of sites.

    Checked Hermitian with unit trace at construction; positivity is a
    property of correctly produced inputs and is exercised by the tests
    rather than re-verified on every instance.
    """

    sites: tuple
    matrix: np.ndarray

    def __post_init__(self):
        sites = tuple(self.sites)
        m = np.array(self.matrix, dtype=complex)
        dim = 2 ** len(sites)
        if m.shape != (dim, dim):
            raise AnalysisError(f"want a {dim}x{dim} matrix for {len(sites)} site(s), "
                                f"got shape {m.shape}")
        if float(np.abs(m - m.conj().T).max()) > 1e-12:
            raise AnalysisError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise AnalysisError(f"density matrix trace is {np.trace(m).real!r}, not 1")
        m.setflags(write=False)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "matrix", m)

    @property
    def n_sites(self) -> int:
        return len(self.sites)


def _positions(state: PureState, region: Iterable) -> tuple:
    sites = tuple(region)
    if not sites or len(set(sites)) != len(sites):
        raise AnalysisError(f"region must be distinct sites, got {sites}")
    if len(sites) > MAX_RDM_SITES:
        raise AnalysisError(f"region of {len(sites)} sites is too large for an exact "
                            f"density matrix (limit {MAX_RDM_SITES})")
    return sites, tuple(state.lattice.position(s) for s in sites)


def _region_marginals(state: PureState, regions) -> np.ndarray:
    """Reduced density matrices of equal-size regions, shape (R, d, d).

    `regions` lists R tuples of k lattice positions each; d = 2^k.  For
    every region the terms are grouped by their bits *outside* it, and
    each group contributes the outer product of its amplitude vector.
    Groups are numbered by first appearance in the state's term order
    and summed in that order, so a region's matrix does not depend on
    which other regions share the call.
    """
    regions = np.asarray(regions, dtype=np.intp)
    n_regions, k = regions.shape
    dim, n_terms = 2 ** k, state.n_terms
    amps, bits = state.table.amps, state.table.bits

    inside = bits[:, regions]                                  # (T, R, k)
    index = (inside.astype(np.intp) << np.arange(k - 1, -1, -1)).sum(-1)
    outside = np.repeat(bits[None], n_regions, axis=0)        # (R, T, n)
    outside[np.arange(n_regions)[:, None], :, regions] = 0
    # one byte string per (region, term): the region id, then the outside bits
    tag = np.arange(n_regions, dtype=">u4").view(np.uint8).reshape(n_regions, 1, 4)
    rows = np.concatenate([np.repeat(tag, n_terms, axis=1),
                           np.packbits(outside, axis=-1)], axis=-1)
    rows = np.ascontiguousarray(rows.reshape(n_regions * n_terms, -1))
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    group, first = first_appearance(keys)      # region-major, then term order

    vectors = np.zeros((first.size, dim), dtype=complex)
    vectors[group, index.T.ravel()] += np.tile(amps, n_regions)
    owner = first // n_terms                   # region of each group
    rho = np.zeros((n_regions, dim, dim), dtype=complex)
    step = max(1, _OUTER_CHUNK // (dim * dim))  # bounds the outer-product buffer
    for lo in range(0, first.size, step):
        v = vectors[lo:lo + step]
        np.add.at(rho, owner[lo:lo + step], v[:, :, None] * v.conj()[:, None, :])
    return rho


def reduced_density_matrix(state: PureState, keep: Iterable) -> DensityMatrix:
    """Partial trace onto `keep` (ordered; first site = most significant bit).

    Works directly on the sparse amplitude map: terms are grouped by
    their bits *outside* the region, and each group contributes one
    outer product.  Cost follows the number of terms, not 2^n, for the
    branchy states this model produces.  Reports do not call this per
    site: `site_marginals` builds every one-site matrix of a state in
    one pass, bit for bit equal to this function's, and `StateAnalysis`
    shares them between all per-state analyses.
    """
    sites, kpos = _positions(state, keep)
    return DensityMatrix(sites, _region_marginals(state, [kpos])[0])


def region_matrices(state: PureState, regions: Iterable) -> np.ndarray:
    """`reduced_density_matrix` of several equal-size regions, bit for bit,
    as one (R, d, d) stack built in one pass over the terms."""
    return _region_marginals(state, [_positions(state, r)[1] for r in regions])


def change_basis(rho: DensityMatrix, rotations: Mapping) -> DensityMatrix:
    """Re-express a density matrix in per-site rotated bases.

    `rotations` maps site id -> Gate1; missing sites keep the bit basis.
    The result is (U1 x U2 x ...)^dag rho (U1 x U2 x ...), whose diagonal
    gives outcome probabilities in the rotated product basis.
    """
    u = np.eye(1, dtype=complex)
    for site in rho.sites:
        gate = rotations.get(site)
        u = np.kron(u, np.eye(2, dtype=complex) if gate is None else gate.matrix)
    return DensityMatrix(rho.sites, u.conj().T @ rho.matrix @ u)


def _coherences(matrices: np.ndarray) -> np.ndarray:
    a = np.abs(matrices)
    return a.sum((-2, -1)) - np.trace(a, axis1=-2, axis2=-1)


def _purities(matrices: np.ndarray) -> np.ndarray:
    return np.trace(matrices @ matrices, axis1=-2, axis2=-1).real


def entropies(matrices: np.ndarray) -> np.ndarray:
    """`entropy_of` each matrix of a (..., d, d) stack, by one eigvalsh."""
    w = np.linalg.eigvalsh(matrices)
    positive = w > 0.0
    terms = np.where(positive, w * np.log(np.where(positive, w, 1.0)), 0.0)
    return np.where(positive.any(-1), -terms.sum(-1), 0.0)


def coherence(rho: DensityMatrix) -> float:
    """Sum of off-diagonal magnitudes — basis-dependent by design."""
    return float(_coherences(rho.matrix))


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2); 1 for pure states, 2^-k for maximally mixed k sites."""
    return float(_purities(rho.matrix))


def entropy_of(rho: DensityMatrix) -> float:
    """Von Neumann entropy in nats, with 0 ln 0 = 0."""
    return float(entropies(rho.matrix))


def entanglement_entropy(state: PureState, region: Iterable) -> float:
    """Entropy of the region's reduced density matrix, in nats."""
    return entropy_of(reduced_density_matrix(state, region))


def mutual_information(state: PureState, region_a: Iterable, region_b: Iterable) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) for disjoint site regions, in nats."""
    a, b = tuple(region_a), tuple(region_b)
    if set(a) & set(b):
        raise AnalysisError(f"regions overlap: {sorted(set(a) & set(b))}")
    return (entanglement_entropy(state, a) + entanglement_entropy(state, b)
            - entanglement_entropy(state, a + b))


def _is_mixture(coherence_value, purity_value, tol):
    return (coherence_value <= tol) & (purity_value < 1.0 - tol)


def is_decohered(state: PureState, site: int, tol: float = BRANCH_TOL) -> bool:
    """True when the site carries a proper mixture in the bit basis.

    Requires both negligible off-diagonals (no local phase coherence)
    and purity strictly below 1 (the site actually has something to be
    mixed about); a spectator site in a pure local state is not
    "decohered", it is untouched.
    """
    rho = reduced_density_matrix(state, [site])
    return bool(_is_mixture(coherence(rho), purity(rho), tol))


# ---------------------------------------------------------------------------
# per-state analysis: every one-site marginal once, shared by all consumers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SiteMarginals:
    """Every one-site reduced density matrix of a state, with its scalars.

    Entry i belongs to ``sites[i]`` (lattice order).  Each matrix equals
    ``reduced_density_matrix(state, [site]).matrix`` bit for bit, and
    each scalar is `coherence`, `purity` or `entropy_of` of it by one formula.
    """

    sites: tuple
    matrices: np.ndarray   # (n, 2, 2)
    coherence: np.ndarray  # (n,)
    purity: np.ndarray     # (n,)
    entropy: np.ndarray    # (n,)


def site_marginals(state: PureState) -> SiteMarginals:
    """All one-site marginals of a state in one pass over its terms."""
    n = state.lattice.n_sites
    rho = _region_marginals(state, [(p,) for p in range(n)])
    return SiteMarginals(state.lattice.indices, rho, _coherences(rho), _purities(rho),
                         entropies(rho))


class StateAnalysis:
    """One state's analysis inputs, each built on first use and then kept.

    The site marginals feed the decohered flags and the branch
    decomposition; the decomposition and the one-site entropies feed
    the clusters.  Nothing is computed until a result is asked for.
    """

    def __init__(self, state: PureState, tol: float = BRANCH_TOL):
        self.state = state
        self.tol = tol

    @cached_property
    def marginals(self) -> SiteMarginals:
        return site_marginals(self.state)

    @property
    def decohered(self) -> np.ndarray:
        """`is_decohered` of every site, in lattice order."""
        m = self.marginals
        return _is_mixture(m.coherence, m.purity, self.tol)

    @cached_property
    def branches(self) -> "BranchDecomposition":
        return _decompose(self.state, self.marginals, self.tol)

    @cached_property
    def clusters(self) -> "BranchClusters":
        return _cluster(self.state, self.marginals, self.branches, self.tol)

    def correlations(self, settings: Sequence) -> list:
        """`correlation` of each (a, b) pair of `MeasurementSetting`s, bit
        for bit, with every pair's two-site matrix from one partial-trace
        pass."""
        t = _correlators(region_matrices(self.state, [(a.site, b.site) for a, b in settings]))
        return [float(_units(a.theta) @ m @ _units(b.theta)) for (a, b), m in zip(settings, t)]


# ---------------------------------------------------------------------------
# branch structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Branch:
    """One branch: a weight and a bit assignment on the branched sites."""

    weight: float
    assignment: Mapping  # site id -> bit
    support: frozenset   # sites the assignment covers

    def key(self) -> tuple:
        return tuple(sorted(self.assignment.items()))


@dataclass(frozen=True)
class BranchDecomposition:
    branches: tuple
    unbranched: frozenset
    tolerance: float

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    @property
    def weights(self) -> tuple:
        return tuple(b.weight for b in self.branches)


def branch_decompose(state: PureState, tol: float = BRANCH_TOL) -> BranchDecomposition:
    """Decompose a state into bit-basis branches on its branched sites.

    A site is *unbranched* when its one-site reduced density matrix is
    pure within `tol` — it factors out and belongs to no branch.  Bit
    patterns on the branched sites are branches; patterns differing
    only on unbranched sites are the same branch and their weights
    merge.  A merged weight above `tol` makes a branch, so a branch
    spread over many small terms is kept.  Weights are renormalised to
    sum to one, and equal the Born probabilities of the corresponding
    records.
    """
    return StateAnalysis(state, tol).branches


def _decompose(state: PureState, marginals: SiteMarginals, tol: float) -> BranchDecomposition:
    lattice = state.lattice
    branched = [s for s, p in zip(marginals.sites, marginals.purity) if p < 1.0 - tol]
    bpos = [lattice.position(s) for s in branched]

    re, im = state.table.amps.real, state.table.amps.imag
    merged: dict = {}
    for key, w in zip(map(tuple, state.table.bits[:, bpos].tolist()),
                      (re * re + im * im).tolist()):
        merged[key] = merged.get(key, 0.0) + w
    merged = {key: w for key, w in merged.items() if w > tol}
    total = sum(merged.values())
    support = frozenset(branched)
    branches = tuple(
        Branch(w / total, dict(zip(branched, key)), support)
        for key, w in sorted(merged.items())
    )
    unbranched = frozenset(lattice.indices) - support
    return BranchDecomposition(branches, unbranched, tol)


@dataclass(frozen=True)
class Cluster:
    """A connected set of branched sites with its own branch list."""

    sites: tuple
    branches: tuple

    @property
    def n_branches(self) -> int:
        return len(self.branches)


@dataclass(frozen=True)
class BranchClusters:
    clusters: tuple
    unbranched: frozenset
    tolerance: float

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


def extended_branch_clusters(state: PureState, tol: float = BRANCH_TOL) -> BranchClusters:
    """Group branched sites into clusters by pairwise mutual information.

    Two branched sites are linked when their mutual information exceeds
    `tol`; clusters are the connected components of that graph.  Each
    cluster gets the global branch decomposition marginalised to its own
    sites, so independently-branching regions are reported separately
    with their local branch counts and weights.
    """
    return StateAnalysis(state, tol).clusters


def _pair_mutual_information(state: PureState, marginals: SiteMarginals,
                             pairs: np.ndarray) -> np.ndarray:
    """I(a:b) for each row (a, b) of lattice positions: one-site entropies
    from `marginals`, two-site entropies from one (P, 4, 4) stack."""
    return (marginals.entropy[pairs[:, 0]] + marginals.entropy[pairs[:, 1]]
            - entropies(_region_marginals(state, pairs)))


def _cluster(state: PureState, marginals: SiteMarginals, decomp: BranchDecomposition,
             tol: float) -> BranchClusters:
    # each cluster grows from its lowest unplaced site: every round pairs
    # the sites that joined last with every unplaced site, lower position
    # first, in one call, and the linked ones join
    branched = sorted({s for b in decomp.branches for s in b.support})
    positions = np.array([state.lattice.position(s) for s in branched], dtype=np.intp)
    unplaced = np.ones(len(branched), dtype=bool)
    clusters = []
    for start in range(len(branched)):
        if not unplaced[start]:
            continue
        unplaced[start] = False
        members = frontier = np.array([start])
        while frontier.size and unplaced.any():
            rest = np.flatnonzero(unplaced)
            a, b = np.repeat(frontier, rest.size), np.tile(rest, frontier.size)
            pairs = positions[np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)]
            linked = _pair_mutual_information(state, marginals, pairs) > tol
            frontier = rest[linked.reshape(-1, rest.size).any(axis=0)]
            unplaced[frontier] = False
            members = np.concatenate([members, frontier])
        sites = tuple(branched[i] for i in np.sort(members))
        local: dict = {}
        for br in decomp.branches:
            key = tuple((s, br.assignment[s]) for s in sites)
            local[key] = local.get(key, 0.0) + br.weight
        branches = tuple(
            Branch(w, dict(key), frozenset(sites)) for key, w in sorted(local.items())
        )
        clusters.append(Cluster(sites, branches))
    return BranchClusters(tuple(clusters), decomp.unbranched, tol)


# ---------------------------------------------------------------------------
# correlations, CHSH, sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementSetting:
    """Measure site `site` along the axis tilted by `theta` in the X-Z plane."""

    site: int
    theta: float = 0.0


def _units(thetas) -> np.ndarray:
    """u(theta) = (cos theta, sin theta), so E(theta1, theta2) = u(theta1) . T u(theta2)."""
    return np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)


def correlation(state: PureState, a: MeasurementSetting, b: MeasurementSetting) -> float:
    """E(a, b) = <sigma(theta_a) x sigma(theta_b)> on the two sites."""
    t = correlator_matrix(state, a.site, b.site)
    return float(_units(a.theta) @ t @ _units(b.theta))


def chsh(state: PureState, site_a: int, site_b: int, settings: Sequence) -> float:
    """CHSH combination S = E(a,b) - E(a,b') + E(a',b) + E(a',b').

    `settings` is (theta_a, theta_a', theta_b, theta_b').  |S| <= 2 for
    any local-hidden-variable model; quantum mechanics allows up to
    2 sqrt(2) (the Tsirelson bound), which no state exceeds.
    """
    u = _units(settings)
    e = u[:2] @ correlator_matrix(state, site_a, site_b) @ u[2:].T  # E(a_i, b_j)
    return float(e[0, 0] - e[0, 1] + e[1, 0] + e[1, 1])


@dataclass(frozen=True)
class ChshScanResult:
    value: float          # best S found on the grid
    settings: tuple       # (theta_a, theta_a', theta_b, theta_b') in radians
    angles: np.ndarray    # the scanned angles in radians
    e_grid: np.ndarray    # E[i, j] at (angles[i], angles[j])
    plane_max: float      # exact maximum over X-Z plane settings (`plane_chsh_max`)


def _correlators(rhos: np.ndarray) -> np.ndarray:
    """T[..., p, q] = tr(rho (P x Q)) for each two-site matrix of a
    (..., 4, 4) stack, P, Q in (Z, X)."""
    return np.trace(rhos[..., None, None, :, :] @ _PAULI_PAIRS, axis1=-2, axis2=-1).real


def correlator_matrix(state: PureState, site_a: int, site_b: int) -> np.ndarray:
    """T[p, q] = <P x Q> on the two sites, P, Q in (Z, X)."""
    return _correlators(reduced_density_matrix(state, [site_a, site_b]).matrix)


def _plane_max(t: np.ndarray) -> float:
    sigma = np.linalg.svd(t, compute_uv=False)
    return 2.0 * math.sqrt(float(sigma @ sigma))


def plane_chsh_max(state: PureState, site_a: int, site_b: int) -> float:
    """Exact CHSH maximum over measurement axes in the X-Z plane.

    With E(theta1, theta2) = u(theta1) . T u(theta2), u = (cos, sin), the
    maximum over all four settings is 2 sqrt(s1^2 + s2^2), s1, s2 the
    singular values of the correlator matrix T: the Horodecki criterion
    (Phys. Lett. A 200, 340, 1995) restricted to one plane.  A grid
    search can only approach it from below.
    """
    return _plane_max(correlator_matrix(state, site_a, site_b))


def max_chsh_from_grid(angles: np.ndarray, e_grid: np.ndarray) -> tuple:
    """Maximise S over all setting 4-tuples drawn from a correlation grid.

    For fixed (b, b') the maximum over a and a' separates:
    max_a (E[a,b] - E[a,b']) + max_a' (E[a',b] + E[a',b']), so the scan
    is cubic in the number of angles rather than quartic.
    Returns (value, (theta_a, theta_a', theta_b, theta_b')).
    """
    k = len(angles)
    et = np.ascontiguousarray(e_grid.T)   # et[j, a] = E[a, j]: rows are contiguous
    d = np.empty_like(et)
    s = np.empty_like(et)
    rows = np.arange(k)
    best = -math.inf
    best_idx = (0, 0, 0, 0)
    for jp in range(k):  # j' column against all j at once
        np.subtract(et, et[jp], out=d)   # d[j, a]  = E[a,j] - E[a,j']
        np.add(et, et[jp], out=s)        # s[j, a'] = E[a',j] + E[a',j']
        ia = d.argmax(axis=1)
        iap = s.argmax(axis=1)
        cand = d[rows, ia] + s[rows, iap]
        j = int(cand.argmax())
        if cand[j] > best:
            best = float(cand[j])
            best_idx = (int(ia[j]), int(iap[j]), j, jp)
    ia, iap, j, jp = best_idx
    return best, (float(angles[ia]), float(angles[iap]), float(angles[j]), float(angles[jp]))


def scan_angles(resolution_deg: float) -> np.ndarray:
    """The angles of a CHSH grid scan in radians: 0 up to 360 degrees in
    steps of `resolution_deg`, which must be finite and positive."""
    if not 0.0 < resolution_deg < math.inf:   # NaN fails too
        raise AnalysisError(f"grid resolution must be finite and positive, "
                            f"got {resolution_deg} degrees")
    return np.deg2rad(np.arange(0.0, 360.0, resolution_deg))


def chsh_grid_max(state: PureState, site_a: int, site_b: int,
                  resolution_deg: float = 1.0) -> ChshScanResult:
    """Grid-search the CHSH maximum for measurements on two sites.

    E(theta1, theta2) is bilinear in (cos, sin) of each angle, so the
    whole grid follows exactly from the four Pauli correlators
    <P x Q>, P, Q in {Z, X}; the search over setting 4-tuples is then a
    plain maximisation over the gridded correlation table.  The same
    correlator matrix gives the exact plane maximum the grid approaches.
    """
    angles = scan_angles(resolution_deg)
    t = correlator_matrix(state, site_a, site_b)
    u = _units(angles)
    e_grid = u @ t @ u.T                             # E[i, j]
    value, settings = max_chsh_from_grid(angles, e_grid)
    return ChshScanResult(value, settings, angles, e_grid, _plane_max(t))


def sample_measurement(state: PureState, setting: MeasurementSetting, seed: int):
    """Born-sample one measurement; returns (outcome_bit, post_state).

    Outcome bit 0 is the +1 eigenvalue of the measured axis (up / |0>),
    bit 1 the -1 eigenvalue.  The post-measurement state is collapsed,
    renormalised, and expressed back in the lattice bit basis.  The draw
    is deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    rotated = state
    if setting.theta != 0.0:
        rotated = apply_gate1(state, rotation_gate(setting.theta), setting.site)
    pos = state.lattice.position(setting.site)
    table = rotated.table
    re, im = table.amps.real, table.amps.imag

    p1 = ordered_sum((re * re + im * im)[table.bits[:, pos] == 1])
    outcome = 1 if rng.random() < p1 else 0
    p = p1 if outcome == 1 else 1.0 - p1
    scale = 1.0 / math.sqrt(p)
    kept = table.bits[:, pos] == outcome
    re, im = complex_product(re[kept], im[kept], scale, 0.0)  # Python's a * scale
    collapsed = PureState(state.lattice, TermTable.pruned(table.bits[kept], re, im))
    if setting.theta != 0.0:
        collapsed = apply_gate1(collapsed, rotation_gate(-setting.theta), setting.site)
    return outcome, collapsed
