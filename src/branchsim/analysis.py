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
from .lattice import (PureState, StateBlock, TermTable, complex_product, first_appearance,
                      ordered_sum, row_keys)

#: Default tolerance for calling a site decohered / a weight a branch.
BRANCH_TOL = 1e-9

#: Largest region an exact reduced density matrix is built for (2^12 dim).
MAX_RDM_SITES = 12

#: Matrix entries of group outer products held at once by a partial trace
#: (256 KiB): one call may cover a whole block of states.
_OUTER_CHUNK = 2 ** 14

#: Finest CHSH scan step in degrees: 3600 angles.  The grid alone takes
#: 8 k^2 bytes for k angles, so 0.001 degrees would ask for about 1 TB.
MIN_RESOLUTION_DEG = 0.1

#: Setting columns b' that `max_chsh_from_grid` works on at once.
_CHSH_BLOCK = 32

#: float64 unit roundoff.
_UNIT_ROUNDOFF = 2.0 ** -53

#: Bound in radians on how far a flank pair may miss the angle it
#: brackets (`max_chsh_from_grid`); the steps that pick it add about 40 u.
_FLANK_ETA = 2.0 ** -45

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


def _region_marginals(states, regions) -> np.ndarray:
    """Reduced density matrices of equal-size regions of a state, shape
    (R, d, d), or of every state of a `StateBlock`, shape (B, R, d, d).

    `regions` lists R tuples of k lattice positions each; d = 2^k.  For
    every state and region the terms are grouped by their bits *outside*
    the region, and each group contributes the outer product of its
    amplitude vector.  Groups are numbered by first appearance in the
    state's term order and summed in that order, so a region's matrix
    does not depend on which other regions or states share the call.
    """
    size = states.size if isinstance(states, StateBlock) else 1
    regions = np.asarray(regions, dtype=np.intp)
    n_regions, k = regions.shape
    dim = 2 ** k
    vectors, target = _group_vectors(states.table, regions)
    rho = np.zeros((size * n_regions, dim, dim), dtype=complex)
    step = max(1, _OUTER_CHUNK // (dim * dim))  # bounds the outer-product buffer
    for lo in range(0, len(vectors), step):
        v = vectors[lo:lo + step]
        np.add.at(rho, target[lo:lo + step], v[:, :, None] * v.conj()[:, None, :])
    rho = rho.reshape(size, n_regions, dim, dim)
    return rho if isinstance(states, StateBlock) else rho[0]


def _group_vectors(table: TermTable, regions: np.ndarray) -> tuple:
    """The groups of `_region_marginals`: one amplitude vector per
    (owner, region, outside bits), numbered region-major and then in term
    order, and the owner and region of each, as owner R + region.  Its
    temporaries are freed before the outer products are formed."""
    n_regions, k = regions.shape
    inside = table.bits[:, regions]                            # (T, R, k)
    index = (inside.astype(np.intp) << np.arange(k - 1, -1, -1)).sum(-1)
    outside = np.repeat(table.bits[None], n_regions, axis=0)  # (R, T, n)
    outside[np.arange(n_regions)[:, None], :, regions] = 0
    owner = np.zeros(len(table), dtype=np.intp) if table.owner is None else table.owner
    tag = (owner * n_regions + np.arange(n_regions)[:, None]).ravel()
    group, first = first_appearance(row_keys(outside.reshape(len(tag), -1), tag))
    vectors = np.zeros((first.size, 2 ** k), dtype=complex)
    vectors[group, index.T.ravel()] += np.tile(table.amps, n_regions)
    return vectors, tag[first]


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


def region_matrices(states, regions: Iterable) -> np.ndarray:
    """`reduced_density_matrix` of several equal-size regions, bit for bit,
    as one (R, d, d) stack built in one pass over the terms; for a
    `StateBlock`, one (B, R, d, d) stack of every state's."""
    return _region_marginals(states, [_positions(states, r)[1] for r in regions])


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
    The marginals of a `StateBlock` list its states one after another.
    """

    sites: tuple
    matrices: np.ndarray   # (n, 2, 2), or (B n, 2, 2)
    coherence: np.ndarray  # (n,), or (B n,)
    purity: np.ndarray     # (n,), or (B n,)
    entropy: np.ndarray    # (n,), or (B n,)


def site_marginals(states) -> SiteMarginals:
    """All one-site marginals of a state in one pass over its terms.  For
    a `StateBlock` of B states, the B n marginals of all of them, in one
    pass: entry b n + i is site i of state b."""
    n = states.lattice.n_sites
    rho = _region_marginals(states, [(p,) for p in range(n)]).reshape(-1, 2, 2)
    return SiteMarginals(states.lattice.indices * (len(rho) // n), rho, _coherences(rho),
                         _purities(rho), entropies(rho))


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
    # left to right, as `branch_table` adds (Python 3.12's `sum` compensates)
    total = ordered_sum(np.fromiter(merged.values(), dtype=float, count=len(merged)))
    support = frozenset(branched)
    branches = tuple(
        Branch(w / total, dict(zip(branched, key)), support)
        for key, w in sorted(merged.items())
    )
    unbranched = frozenset(lattice.indices) - support
    return BranchDecomposition(branches, unbranched, tol)


def branch_table(block: StateBlock, marginals: SiteMarginals, tol: float) -> tuple:
    """The bit-basis branches of every state of a block, from its
    `site_marginals`, as `_decompose` finds them one state at a time.

    A state's branched sites are those whose one-site purity is below
    1 - tol.  Its terms group by their bits on those sites; a group's
    weight is its |amp|^2 added in term order, groups above `tol` are
    kept, and each kept weight is divided by the state's total, added in
    order of first appearance.  Returns (owner, bits, weights, branched):
    per branch, ordered by state and then by bits, its state, its (n,)
    bit row with zeros off the state's branched sites and its weight;
    and the (B, n) mask of each state's branched sites.
    """
    table = block.table
    branched = marginals.purity.reshape(block.size, -1) < 1.0 - tol
    masked = table.bits * branched[table.owner]
    keys = row_keys(masked, table.owner)
    group, first = first_appearance(keys)
    re, im = table.amps.real, table.amps.imag
    sums = np.zeros(first.size)
    np.add.at(sums, group, re * re + im * im)         # in term order, onto 0.0
    kept = first[sums > tol]
    weights = sums[sums > tol]
    owner = table.owner[kept]
    totals = np.zeros(block.size)
    np.add.at(totals, owner, weights)                 # in order of first appearance
    order = keys[kept].argsort(kind="stable")
    return owner[order], masked[kept[order]], (weights / totals[owner])[order], branched


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


def correlation_grid(t: np.ndarray, angles: np.ndarray) -> tuple:
    """E[i, j] = u(angles[i]) . T u(angles[j]) for a correlator matrix T,
    and each column's coefficients (0, c1, c2) = (0, T u(angles[j])) in the
    form that `max_chsh_from_grid` takes."""
    u = _units(angles)
    coeffs = t @ u.T
    return u @ t @ u.T, np.vstack([np.zeros(len(angles)), coeffs])


def _column_slack(angles: np.ndarray, e_grid: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """eps[j] for each grid column: a bound on |E[i, j] - F_j(angles[i])|
    plus the rounding of a row's sum or difference (`max_chsh_from_grid`)."""
    w = np.stack([np.ones(len(angles)), np.cos(angles), np.sin(angles)], axis=1)
    eps = np.empty(len(angles))
    for lo in range(0, len(angles), _CHSH_BLOCK):
        cols = slice(lo, lo + _CHSH_BLOCK)
        e = e_grid[:, cols]
        eps[cols] = (np.abs(e - w @ coeffs[:, cols]).max(axis=0)
                     + _UNIT_ROUNDOFF * (64.0 * np.abs(coeffs[:, cols]).sum(axis=0)
                                         + np.abs(e).max(axis=0)))
    return eps


def _row_maxima(e_grid: np.ndarray, coeffs: np.ndarray, eps: np.ndarray, step: float,
                sure: float, rows: np.ndarray, op) -> np.ndarray:
    """M[r, j] = max_i op(E[i, j], E[i, rows[r]]) for op `np.subtract` or
    `np.add`, read at the two flanks where that is certain
    (`max_chsh_from_grid`)."""
    k = len(eps)
    c1 = op(coeffs[1], coeffs[1, rows, None])
    c2 = op(coeffs[2], coeffs[2, rows, None])
    r_low = np.maximum(np.abs(c1), np.abs(c2))   # r >= r_low >= r / sqrt(2)
    unsure = ~(r_low * sure > eps + eps[rows, None])
    n_unsure = np.count_nonzero(unsure)
    if 3 * n_unsure > unsure.size:
        # reading one unsure row from two gathered columns costs about three
        # times its share of a pass over the grid's rows
        return _dense_row_maxima(e_grid, rows, op)
    phi = np.arctan2(c2, c1)
    phi[phi < 0.0] += 2.0 * math.pi
    lo = np.minimum((phi / step).astype(np.intp), k - 1)
    hi = lo + 1
    hi[hi == k] = 0                    # the last gap wraps to angle 0
    flat = e_grid.reshape(-1)
    lo *= k
    hi *= k
    at = np.arange(k)
    best = np.maximum(op(flat[lo + at], flat[lo + rows[:, None]]),
                      op(flat[hi + at], flat[hi + rows[:, None]]))
    r, j = np.nonzero(unsure)
    for part in range(0, n_unsure, _CHSH_BLOCK):
        rr, jj = r[part:part + _CHSH_BLOCK], j[part:part + _CHSH_BLOCK]
        best[rr, jj] = op(e_grid[:, jj], e_grid[:, rows[rr]]).max(axis=0)
    return best


def _dense_row_maxima(e_grid: np.ndarray, rows: np.ndarray, op) -> np.ndarray:
    """M[r, j] = max_i op(E[i, j], E[i, rows[r]]), one grid row i at a time."""
    best = np.full((len(rows), e_grid.shape[1]), -math.inf)
    term = np.empty_like(best)
    for line in e_grid:
        np.maximum(best, op(line, line[rows, None], out=term), out=best)
    return best


def max_chsh_from_grid(angles: np.ndarray, e_grid: np.ndarray, coeffs: np.ndarray) -> tuple:
    """Maximise S over all setting 4-tuples drawn from a correlation grid.

    `coeffs[:, j]` = (c0, c1, c2) says that column j of the grid is, up to
    rounding, F_j(theta) = c0 + c1 cos theta + c2 sin theta at theta =
    `angles[i]`: every grid of both scan protocols has this form, the fact
    behind Horodecki et al., Phys. Lett. A 200, 340 (1995).

    For fixed (b, b') the maximum over a and a' separates:
    max_a (E[a,b] - E[a,b']) + max_a' (E[a',b] + E[a',b']).  Each of those
    two rows is c + r cos(theta - phi), (r, phi) the polar form of the
    difference (or sum) of the columns' (c1, c2).  On any set of angles
    such a function peaks at one of the two grid angles that flank phi,
    so a row is read there only, and the scan costs O(k^2), not O(k^3).

    When the flanks are certain.  Write eps_j for `_column_slack`: the
    largest |E[i, j] - (c0 + c1 cos + c2 sin)(angles[i])| measured over
    the column, plus 64 u (|c0| + |c1| + |c2|) for the rounding of that
    model and of numpy's cos and sin, plus u max_i |E[i, j]| for the
    rounding of a row's sum or difference; u = 2^-53.  A computed row
    then differs from its exact function by at most eps_b + eps_b'.  Let
    g be the smallest gap between neighbouring grid angles, the gap from
    the last angle round to 2 pi included.  The flank pair chosen by
    floor(phi / step) brackets phi to within eta = 2^-45 rad, about 256 u:
    the coefficients' rounding, atan2, the fold into [0, 2 pi), the floor
    and the rounding of the grid angles add about 40 u.  If delta
    is the distance from the bracketed angle to the nearer flank, every
    other grid angle lies beyond a flank, at least delta + g from it and
    so at least delta + g - eta from phi.  With k >= 3 these distances
    stay within [0, pi], where cos falls, so every other angle scores
    below that flank by at least
    r (cos(delta + eta) - cos(delta + g - eta))
    = 2 r sin(delta + g/2) sin(g/2 - eta) >= 2 r sin^2(g/2 - eta).
    If that margin exceeds 2 (eps_b + eps_b'), no other entry can reach
    the better flank, and the flanks' maximum is the row's maximum bit
    for bit.  The test asks for twice that, to cover its own rounding,
    and takes max(|c1|, |c2|) <= r for r: max(|c1|, |c2|)
    sin^2(g/2 - eta) / 2 > eps_b + eps_b'.  A row that fails it takes
    the full row's maximum: b = b' is exactly flat, and so is the sum of
    two opposite columns.  Where a third of a block's rows or more fail
    it (a constant grid fails everywhere), the block takes one pass over
    the grid's rows instead, which costs less than gathering that many
    rows' columns.  Wrong coefficients
    therefore cost time, never the result.

    Ties are broken as a full scan breaks them: the winning (b, b') is
    the first in b'-major order, and a and a' are the first indices that
    reach their rows' maxima.  Columns b' are taken `_CHSH_BLOCK` at a
    time, so the temporaries hold O(_CHSH_BLOCK k) numbers.
    Returns (value, (theta_a, theta_a', theta_b, theta_b')).
    """
    k = len(angles)
    e_grid = np.ascontiguousarray(e_grid)   # `_row_maxima` reads it flat
    gaps = np.diff(angles, append=2.0 * math.pi)
    step = float(gaps[0])
    half = float(gaps.min()) / 2.0 - _FLANK_ETA
    sure = math.sin(half) ** 2 / 2.0 if k >= 3 and half > 0.0 else 0.0
    eps = _column_slack(angles, e_grid, coeffs)
    best = -math.inf
    best_idx = (0, 0)
    for lo in range(0, k, _CHSH_BLOCK):
        rows = np.arange(lo, min(lo + _CHSH_BLOCK, k))
        cand = (_row_maxima(e_grid, coeffs, eps, step, sure, rows, np.subtract)
                + _row_maxima(e_grid, coeffs, eps, step, sure, rows, np.add))
        at = int(cand.argmax())     # cand[r, j]: b = j, b' = rows[r]
        if cand.flat[at] > best:
            best = float(cand.flat[at])
            best_idx = (at % k, int(rows[at // k]))
    j, jp = best_idx
    d = np.subtract(e_grid[:, j], e_grid[:, jp])
    s = np.add(e_grid[:, j], e_grid[:, jp])
    ia, iap = int(d.argmax()), int(s.argmax())
    return (float(d[ia] + s[iap]),
            (float(angles[ia]), float(angles[iap]), float(angles[j]), float(angles[jp])))


def scan_angles(resolution_deg: float) -> np.ndarray:
    """The angles of a CHSH grid scan in radians: 0 up to 360 degrees in
    steps of `resolution_deg`, which must be finite and at least
    `MIN_RESOLUTION_DEG`."""
    if not MIN_RESOLUTION_DEG <= resolution_deg < math.inf:   # NaN fails too
        raise AnalysisError(f"grid resolution must be finite and at least "
                            f"{MIN_RESOLUTION_DEG:g} degrees, got {resolution_deg}")
    return np.deg2rad(np.arange(0.0, 360.0, resolution_deg))


def chsh_grid_max(state: PureState, site_a: int, site_b: int,
                  resolution_deg: float = 1.0) -> ChshScanResult:
    """Grid-search the CHSH maximum for measurements on two sites.

    E(theta1, theta2) is bilinear in (cos, sin) of each angle, so the
    whole grid follows exactly from the four Pauli correlators
    <P x Q>, P, Q in {Z, X}, and so do each column's cosine and sine
    coefficients, which let `max_chsh_from_grid` search the grid in
    O(k^2).  The same correlator matrix gives the exact plane maximum
    the grid approaches.
    """
    angles = scan_angles(resolution_deg)
    t = correlator_matrix(state, site_a, site_b)
    e_grid, coeffs = correlation_grid(t, angles)
    value, settings = max_chsh_from_grid(angles, e_grid, coeffs)
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
