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

Partial traces.  A region's matrix sums, over the groups of terms that
agree outside the region, the outer products of the groups' amplitude
vectors; `_pair_marginals` is that sum for any regions.  Most groups are
one term, and then the matrix is only the diagonal of |amp|^2 sums: a
`PartnerIndex`, built once per block, knows which terms have another
term that differs from them on one site or on two, so the one-site
matrices and the two-site matrices without such a partner are added
from it in closed form, bit for bit the kernel's, and only the rest go
through the kernel.  Spectra take one `eigvalsh` per stack (`entropies`).
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .gates import rotation_gate, apply_gate1
from .lattice import (PureState, TermTable, complex_product, first_appearance, flipped_keys,
                      index_ranges, ordered_sum, row_keys)

#: Default tolerance for calling a site decohered / a weight a branch.
BRANCH_TOL = 1e-9

#: Largest region an exact reduced density matrix is built for (2^12 dim).
MAX_RDM_SITES = 12

#: Matrix entries of group outer products held at once by a partial trace
#: (256 KiB): one call may cover a whole block of states.
_OUTER_CHUNK = 2 ** 14

#: Rows that one pass of a partial trace reads at most: `_pair_marginals`
#: gathers the rows of its pairs this many at a time (a pair with more
#: takes a pass of its own), and the `PartnerIndex` reads its sites and
#: pairs in passes of this many rows.  At 32 sites the kernel's gathered
#: bits then take 8 MiB.
_GATHER_ROWS = 2 ** 18

#: Finest CHSH scan step in degrees: 3600 angles.  The grid alone takes
#: 8 k^2 bytes for k angles, so 0.001 degrees would ask for about 1 TB.
MIN_RESOLUTION_DEG = 0.1

#: `max_chsh_from_grid` bounds setting pairs (b, b') a block of whole rows
#: b' at a time: `_CHSH_PAIRS` // k rows for k angles, but at least
#: `_CHSH_BLOCK`, so that a temporary of floats holds max(64 KiB, 256 k
#: bytes) at most; blocks twice as large scan no faster at 2 degrees and
#: raise the peak RSS of repeated scans.  Unsure rows gather grid columns
#: `_CHSH_BLOCK` at a time.
_CHSH_BLOCK = 32
_CHSH_PAIRS = 2 ** 13

#: The fewest pairs read in one pass over the grid's rows (`_pair_maxima`).
_CHSH_DENSE = 2 ** 10

#: float64 unit roundoff.
_UNIT_ROUNDOFF = 2.0 ** -53

#: Bound in radians on how far a flank pair may miss the angle it
#: brackets (`max_chsh_from_grid`); the angles' slack and the steps that
#: pick the pair add about 104 u.
_FLANK_ETA = 2.0 ** -45

#: How far a grid angle may lie from i step for its flanks to be read
#: (`_flank_test`): about 64 u.
_ANGLE_SLACK = 2.0 ** -47

#: A nonzero column magnitude below this counts as this much in the
#: rounding margin of `max_chsh_from_grid`'s bound.
_TINY_COLUMN = 2.0 ** -200

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


def _batches(counts: np.ndarray) -> Iterator[slice]:
    """Consecutive slices of items whose rows, `counts` of them each, add
    up to at most `_GATHER_ROWS`, or of one item that has more."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(ends):
        start = ends[lo] - counts[lo]
        hi = max(lo + 1, int(ends.searchsorted(start + _GATHER_ROWS, "right")))
        yield slice(lo, hi)
        lo = hi


def _pair_marginals(table: TermTable, owners, regions) -> np.ndarray:
    """The partial-trace kernel: the (P, d, d) reduced density matrices of
    P (owner, region) pairs.  Pair p keeps the k lattice positions
    ``regions[p]`` of the table's state ``owners[p]``; d = 2^k.  That
    state's terms are grouped by their bits *outside* the region, and the
    outer products of the groups' amplitude vectors are summed in order of
    first appearance onto 0.0, so a pair's matrix is the same whatever
    shares the call.  The pairs' rows are gathered `_GATHER_ROWS` at a
    time.

    Each outer product is formed as ``v[:, :, None] * v.conj()[:, None, :]``
    on the (groups, d) amplitude vectors, and any other path to these
    matrices must form its products by that expression.  numpy's complex
    product of an amplitude with its own conjugate leaves a rounding
    residue of about 1e-17 in the imaginary part, which `report.json`
    prints on the diagonal, and a plain 1-D ``amps * amps.conj()`` may
    leave a different one (on an AVX-512 host it does past some 10^4
    elements).
    """
    owners, regions = np.asarray(owners, dtype=np.intp), np.asarray(regions, dtype=np.intp)
    dim = 2 ** regions.shape[1]
    sizes = np.bincount(table.owner, minlength=owners.max(initial=0) + 1)
    rho = np.empty((len(owners), dim, dim), dtype=complex)
    for part in _batches(sizes[owners]):
        rho[part] = _gathered_marginals(table, sizes, owners[part], regions[part])
    return rho


def _gathered_marginals(table: TermTable, sizes, owners, regions) -> np.ndarray:
    """`_pair_marginals` of pairs whose rows are gathered at once; `sizes`
    holds the rows of each owner."""
    n_pairs, k = regions.shape
    dim = 2 ** k
    counts = sizes[owners]
    rows = index_ranges(sizes.cumsum()[owners] - counts, counts)   # each pair's rows in turn
    outside, index = np.take(table.bits, rows, axis=0), np.zeros(len(rows), dtype=np.intp)
    flat = outside.reshape(-1)
    for column in regions.T:   # one slot at a time, most significant first
        at = column.repeat(counts)
        at += np.arange(0, flat.size, outside.shape[1])
        index = 2 * index + flat[at]
        flat[at] = 0
    tag = np.arange(n_pairs).repeat(counts)
    keys = row_keys(outside, tag)
    del outside, flat, at   # freed before the amplitude vectors are formed
    group, first = first_appearance(keys)
    amps, target = table.amps[rows], tag[first]
    del keys, tag, rows
    vectors = np.zeros((first.size, dim), dtype=complex)
    vectors[group, index] = amps
    rho = np.zeros((n_pairs, dim, dim), dtype=complex)
    step = max(1, _OUTER_CHUNK // (dim * dim))  # bounds the outer-product buffer
    for lo in range(0, len(vectors), step):
        v = vectors[lo:lo + step]
        np.add.at(rho, target[lo:lo + step], v[:, :, None] * v.conj()[:, None, :])
    return rho


def _outer_products(vectors: np.ndarray, rows, columns) -> np.ndarray:
    """Entries [rows, columns] of the kernel's outer product of each
    vector of a (G, 2) stack, formed by its expression on buffers of its
    size: shape (G,) for two indices, (G, k) for two lists of k."""
    out = np.empty((len(vectors), *np.shape(rows)), dtype=complex)
    step = _OUTER_CHUNK // 4
    for lo in range(0, len(vectors), step):
        v = vectors[lo:lo + step]
        out[lo:lo + step] = (v[:, :, None] * v.conj()[:, None, :])[:, rows, columns]
    return out


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array of two float arrays of parts."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _runs(array: np.ndarray, width: int) -> np.ndarray:
    """Every run of `width` consecutive entries along the last axis of
    `array`, as a read-only view: entry [..., s, j] is [..., s + j]."""
    shape = (*array.shape[:-1], array.shape[-1] - width + 1, width)
    return np.lib.stride_tricks.as_strided(array, shape, (*array.strides, array.strides[-1]),
                                           writeable=False)


def _group_rows(zero: np.ndarray, one: np.ndarray) -> tuple:
    """(first, later): the rows of one-flip pairs in term order.  The
    partial trace groups the two rows, and the group appears at the first."""
    return np.minimum(zero, one), np.maximum(zero, one)


class PartnerIndex:
    """A block of states with the index of its partners: which of its
    terms agree outside one site or outside two.

    Two terms of one state are *one-flip partners* at a site when they
    differ there and nowhere else, and *two-flip partners* at two sites
    when they differ at both and nowhere else.  Off its diagonal, a
    one-site matrix is nonzero only at a site with one-flip partners, and
    a two-site matrix only where either site has them or the two sites
    have two-flip partners.  Otherwise every group of terms that agree
    outside the region is one term, and the kernel's matrix is the
    diagonal of the terms' |amp|^2, added in term order onto 0.0, with
    +0.0 off it.

    Built once per block, in arrays of the table's rows: ``keys``, their
    owner-tagged `row_keys`, with ``order`` sorting them into
    ``sorted_keys``; ``columns``, the bits site by site; ``squares``,
    the real and the imaginary parts of each amplitude times its
    conjugate, formed as the kernel forms it.  A state's rows run from
    ``starts`` to ``starts + sizes``, and so do its sorted keys.  Every
    one-flip pair is found a pass of sites at a time, by one
    `searchsorted` of the flipped keys of the rows with bit 0 there:
    ``zero`` and ``one`` hold the pairs' rows with bit 0 and bit 1 at
    their site, the pairs of site a from ``first_pair[a]`` to
    ``first_pair[a + 1]`` in term order of their first rows, and
    ``partnered`` (B, n) marks each state's sites that have a pair.
    Two-flip partners are looked up for the pairs of sites asked about.
    Like a block, the index has a ``lattice``, a ``table`` and a
    ``size``, so `site_marginals` and `region_matrices` take it in place
    of its block.
    """

    def __init__(self, block):
        self.lattice, self.table, self.size = block.lattice, block.table, block.size
        table, n, n_rows = self.table, self.lattice.n_sites, len(self.table)
        self.keys = row_keys(table.bits, table.owner)
        self.order = self.keys.argsort()
        self.sorted_keys = self.keys[self.order]
        self.columns = np.ascontiguousarray(table.bits.T)
        self.sizes = np.bincount(table.owner, minlength=self.size)
        self.starts = self.sizes.cumsum() - self.sizes
        vectors = np.zeros((n_rows, 2), dtype=complex)
        vectors[:, 0] = table.amps
        square = _outer_products(vectors, 0, 0)
        self.squares = np.array([square.real, square.imag])
        del vectors, square
        found = [self._one_flips(np.arange(n)[part]) for part in _batches(np.full(n, n_rows))]
        self.zero, self.one, counts = (np.concatenate(arrays) for arrays in zip(*found))
        self.first_pair = np.concatenate([[0], counts.cumsum()])
        self.partnered = np.zeros((self.size, n), dtype=bool)
        self.partnered[table.owner[self.zero], np.arange(n).repeat(counts)] = True

    def _find(self, query: np.ndarray) -> tuple:
        """(found, at): which keys of `query` are the table's, and where
        each sits in ``sorted_keys``."""
        at = self.sorted_keys.searchsorted(query)
        # a key past the last one is compared with the last one
        return self.sorted_keys[np.minimum(at, len(self.keys) - 1)] == query, at

    def _one_flips(self, sites: np.ndarray) -> tuple:
        """(zero, one, counts): the rows of every one-flip pair at `sites`,
        ordered by site and then by first row, and each site's count."""
        slot, row = np.nonzero(self.columns[sites] == 0)
        hit, at = self._find(flipped_keys(self.keys[row], self.lattice.n_sites, sites[slot]))
        slot, zero, one = slot[hit], row[hit], self.order[at[hit]]
        by = (slot * len(self.keys) + _group_rows(zero, one)[0]).argsort()
        # row numbers fit in 32 bits, and a product state has a pair per term and site
        return (zero[by].astype(np.int32), one[by].astype(np.int32),
                np.bincount(slot, minlength=len(sites)))

    def site_matrices(self, positions) -> np.ndarray:
        """Every state's one-site matrix at each lattice position of
        `positions`, shape (B, S, 2, 2), bit for bit `_pair_marginals`'s.

        A site's groups are single rows and its one-flip pairs, each
        appearing at its first row.  Each row's |amp|^2 (``squares``) and
        each pair's two off-diagonal products (`_outer_products`) are
        added by `np.bincount`, which adds in the order given onto 0.0:
        the rows of a site in term order with each pair's later row moved
        to its first, and the pairs in term order of their first rows.
        These are the kernel's sums, without its products with a zero
        entry, which leave a sum unchanged."""
        positions = np.asarray(positions, dtype=np.intp)
        table, size, n_rows = self.table, self.size, len(self.keys)
        rows = np.arange(n_rows)
        sums = np.zeros((2, size, len(positions), 4))
        pairs_from = self.first_pair[positions]
        pair_counts = self.first_pair[positions + 1] - pairs_from
        for part in _batches(np.full(len(positions), n_rows)):
            at, counts = positions[part], pair_counts[part]
            m = len(at)
            pair = index_ranges(pairs_from[part], counts)
            zero, one = self.zero[pair], self.one[pair]
            slot = np.arange(m).repeat(counts)
            bits, seq = self.columns[at], slice(None)
            if len(pair):
                # each site's rows in the order their groups first appear:
                # a pair's later row moves to just after its first
                first, later = _group_rows(zero, one)
                base = n_rows * slot
                copies = np.ones(m * n_rows, dtype=np.intp)
                copies[base + later], copies[base + first] = 0, 2
                seq = np.tile(rows, m).repeat(copies)
                seq[copies.cumsum()[base + first] - 1] = later
                seq = seq.reshape(m, n_rows)
                bits = self.columns[at[:, None], seq]
            slots = 2 * np.arange(m)[:, None]   # diagonal entry (owner, slot, bit)
            if size > 1:
                slots = slots + 2 * m * table.owner[seq]
            bins = (bits + slots).ravel()
            squares = self.squares[:, seq] if len(pair) else np.broadcast_to(
                self.squares[:, None], (2, m, n_rows))
            for c in range(2):   # entries (0, 0) and (1, 1)
                sums[c, :, part, ::3] = np.bincount(bins, squares[c].ravel(),
                                                    2 * size * m).reshape(size, m, 2)
            if len(pair):
                vectors = np.empty((len(pair), 2), dtype=complex)
                vectors[:, 0], vectors[:, 1] = table.amps[zero], table.amps[one]
                products = _outer_products(vectors, [0, 1], [1, 0])
                cell = slot + table.owner[zero] * m if size > 1 else slot   # (owner, slot)
                bins = (cell[:, None] * 4 + [1, 2]).ravel()
                for c, parts in enumerate((products.real, products.imag)):
                    sums[c, :, part, 1:3] = np.bincount(bins, parts.ravel(), 4 * size * m).reshape(
                        size, m, 4)[..., 1:3]
        return _complex(*sums).reshape(size, len(positions), 2, 2)

    def pair_matrices(self, owners, regions) -> np.ndarray:
        """The two-site matrices of (owner, region) pairs, shape (P, 4, 4),
        bit for bit `_pair_marginals`'s; a region is two lattice
        positions in either order.

        A pair whose sites have no one-flip partners in its state is
        looked up for two-flip partners: the keys of the state's rows
        with bit 0 at its first site, both sites flipped.  A pair with
        neither gets the diagonal of its rows' ``squares``, added by
        `np.bincount` in term order onto 0.0; the rest go to
        `_pair_marginals` in one call.  A state's rows are read as runs
        of as many rows as the largest state asked about has."""
        owners, regions = np.asarray(owners, dtype=np.intp), np.asarray(regions, dtype=np.intp)
        first, second = regions.T
        rho = np.zeros((len(owners), 16), dtype=complex)
        busy = self.partnered[owners, first] | self.partnered[owners, second]
        free = np.flatnonzero(~busy & (self.sizes[owners] > 0))   # no rows: a zero matrix
        counts = self.sizes[owners[free]]
        width = int(counts.max(initial=0))
        start = np.minimum(self.starts[owners[free]], len(self.keys) - width)
        offset = np.arange(width) - (self.starts[owners[free]] - start)[:, None]
        valid = (offset >= 0) & (offset < counts[:, None])   # the rows of each pair's state
        bits, keys, squares = (_runs(a, width) for a in (self.columns, self.keys, self.squares))
        for part in _batches(np.full(len(free), width)):
            p, s, mine = free[part], start[part], valid[part]
            low, high = bits[first[p], s], bits[second[p], s]
            tag, j = np.nonzero(mine & (low == 0))
            hit, _ = self._find(flipped_keys(keys[s[tag], j], self.lattice.n_sites,
                                             first[p][tag], second[p][tag]))
            busy[p[tag[hit]]] = True
            bins = (16 * np.arange(len(p))[:, None] + 5 * (2 * low + high)).ravel()
            rho[p] = _complex(*(np.bincount(bins, np.where(mine, w[s], 0.0).ravel(), 16 * len(p))
                                for w in squares)).reshape(-1, 16)
        busy = np.flatnonzero(busy)
        if len(busy):
            rho[busy] = _pair_marginals(self.table, owners[busy], regions[busy]).reshape(-1, 16)
        return rho.reshape(-1, 4, 4)


def _traces(block):
    """`block` itself if it is a `PartnerIndex`, and otherwise the
    block's `PartnerIndex`."""
    return block if isinstance(block, PartnerIndex) else PartnerIndex(block)


def _region_marginals(block, regions) -> np.ndarray:
    """`_pair_marginals` of equal-size regions of every state of a
    `StateBlock`, or of a state (the block of one), shape (B, R, d, d)."""
    regions = np.asarray(regions, dtype=np.intp)
    rho = _pair_marginals(block.table, np.arange(block.size).repeat(len(regions)),
                          np.tile(regions, (block.size, 1)))
    return rho.reshape(block.size, len(regions), *rho.shape[1:])


def reduced_density_matrix(state: PureState, keep: Iterable) -> DensityMatrix:
    """Partial trace onto `keep` (ordered; first site = most significant bit).

    Works directly on the sparse amplitude map: terms are grouped by
    their bits *outside* the region, and each group contributes one
    outer product (`_pair_marginals`).  Cost follows the number of
    terms, not 2^n, for the branchy states this model produces.  Reports
    do not call this per site: `site_marginals` builds every one-site
    matrix of a block of states at once, from its `PartnerIndex`, bit
    for bit equal to this function's, and `BlockAnalysis` shares them
    between all of a block's analyses.
    """
    sites, kpos = _positions(state, keep)
    return DensityMatrix(sites, _region_marginals(state, [kpos])[0, 0])


def region_matrices(block, regions: Iterable) -> np.ndarray:
    """`reduced_density_matrix` of several equal-size regions of every
    state of a `StateBlock`, or of a state, bit for bit, as one
    (B, R, d, d) stack.  Regions of one or two sites are read off the
    block's `PartnerIndex`, which may be given in place of the block;
    larger ones take one `_pair_marginals` call."""
    positions = np.array([_positions(block, r)[1] for r in regions], dtype=np.intp)
    if positions.shape[1] > 2:
        return _region_marginals(block, positions)
    traces = _traces(block)
    if positions.shape[1] == 1:
        return traces.site_matrices(positions[:, 0])
    rho = traces.pair_matrices(np.arange(block.size).repeat(len(positions)),
                               np.tile(positions, (block.size, 1)))
    return rho.reshape(block.size, len(positions), 4, 4)


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
    """`entropy_of` each matrix of a (..., d, d) stack, from one
    `eigvalsh` of the whole stack."""
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
# block analysis: every one-site marginal once, shared by all consumers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SiteMarginals:
    """Every one-site reduced density matrix of a state, with its scalars.

    Entry i belongs to ``sites[i]`` (lattice order).  Each matrix equals
    ``reduced_density_matrix(state, [site]).matrix`` bit for bit, and
    each scalar is `coherence`, `purity` or `entropy_of` of it by one formula.
    The marginals of a `StateBlock` list its states one after another.
    `first` and `inverse` group the entries by the bytes of their
    matrices: entry i has the matrix and scalars of entry
    ``first[inverse[i]]``, so a function of an entry's values need only
    be computed once per group.
    """

    sites: tuple
    matrices: np.ndarray   # (n, 2, 2), or (B n, 2, 2)
    coherence: np.ndarray  # (n,), or (B n,)
    purity: np.ndarray     # (n,), or (B n,)
    entropy: np.ndarray    # (n,), or (B n,)
    first: np.ndarray      # (groups,): each group's first entry
    inverse: np.ndarray    # (n,), or (B n,): each entry's group


def site_marginals(block) -> SiteMarginals:
    """The B n one-site marginals of every state of a `StateBlock`, or the
    n of a state, from the block's `PartnerIndex`, which may be given in
    place of the block: entry b n + i is site i of state b.  A block's
    marginals repeat (the 1,089 of a 33-site `single` run hold 4 distinct
    ones), so the scalars are computed once per distinct matrix; each is
    a function of its matrix's bytes alone."""
    rho = _traces(block).site_matrices(np.arange(block.lattice.n_sites)).reshape(-1, 2, 2)
    codes = rho.reshape(len(rho), 4).view(np.dtype((np.void, 64))).ravel()
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    distinct = rho[first]
    return SiteMarginals(block.lattice.indices * block.size, rho, _coherences(distinct)[inverse],
                         _purities(distinct)[inverse], entropies(distinct)[inverse],
                         first, inverse)


def frontier_pairs(frontier: np.ndarray, unplaced: np.ndarray) -> tuple:
    """(owner, a, b) of every owner's frontier site a and unplaced site b,
    as ``np.nonzero(frontier[:, :, None] & unplaced[:, None, :])`` gives
    them (by owner, then a, then b), from the positions of the two (B, n)
    masks: each frontier site of an owner takes the owner's run of
    unplaced sites."""
    owner, a = np.nonzero(frontier)
    holder, b = np.nonzero(unplaced)
    sizes = np.bincount(holder, minlength=len(unplaced))
    counts = sizes[owner]
    return (owner.repeat(counts), a.repeat(counts),
            b[index_ranges((sizes.cumsum() - sizes)[owner], counts)])


class BlockAnalysis:
    """The analyses of every state of a `StateBlock`, each built on first
    use and then kept.

    Arrays, each built once: the block's `traces` (its `PartnerIndex`),
    its `marginals`, the `decohered` flags, the `branch_table` (owner,
    bits, weights and the branched-site masks), the `cluster_sites` the
    growth finds, and the `cluster_table` of every cluster's branch list.
    The traces feed the marginals, the growth's two-site matrices and the
    correlations; the site marginals feed the flags and the branch table;
    the branch table and the one-site entropies feed the clusters.
    `branches` and `clusters` are the library's `BranchDecomposition` and
    `BranchClusters` of each state, built from these arrays only when
    asked for; reports render the arrays instead.
    Nothing is computed until a result is asked for.  A `PureState` is
    the block of one and is taken as it is; a state's results are bit for
    bit the same in any block.
    """

    def __init__(self, block, tol: float = BRANCH_TOL):
        self.block = block
        self.tol = tol

    @cached_property
    def traces(self):
        return _traces(self.block)

    @cached_property
    def marginals(self) -> SiteMarginals:
        return site_marginals(self.traces)

    @cached_property
    def decohered(self) -> np.ndarray:
        """`is_decohered` of every site of every state, shape (B, n)."""
        m = self.marginals
        return _is_mixture(m.coherence, m.purity, self.tol).reshape(self.block.size, -1)

    @cached_property
    def branch_table(self) -> tuple:
        """The bit-basis branches of every state, from the marginals: the
        one grouping of terms into branches.  A state's branched sites are
        those whose one-site purity is below 1 - tol.  Its terms group by
        their bits on those sites; a group's weight is its |amp|^2 added in
        term order, groups above `tol` are kept, and each kept weight is
        divided by the state's total, added in order of first appearance.
        Returns (owner, bits, weights, branched): per branch, ordered by
        state and then by bits, its state, its (n,) bit row with zeros off
        the state's branched sites and its weight; and the (B, n) mask of
        each state's branched sites.
        """
        table = self.block.table
        branched = self.marginals.purity.reshape(self.block.size, -1) < 1.0 - self.tol
        masked = table.bits * branched[table.owner]
        keys = row_keys(masked, table.owner)
        group, first = first_appearance(keys)
        re, im = table.amps.real, table.amps.imag
        sums = np.zeros(first.size)
        np.add.at(sums, group, re * re + im * im)         # in term order, onto 0.0
        kept = first[sums > self.tol]
        weights = sums[sums > self.tol]
        owner = table.owner[kept]
        totals = np.zeros(self.block.size)
        np.add.at(totals, owner, weights)                 # in order of first appearance
        order = keys[kept].argsort(kind="stable")
        return owner[order], masked[kept[order]], (weights / totals[owner])[order], branched

    @cached_property
    def cluster_sites(self) -> tuple:
        """Every state's clusters, grown for all states at once (a report
        grows them once per chunk of steps): (owner, sites), each
        cluster's state and (n,) mask of its sites, ordered by state and
        then by lowest site.  Each round pairs every state's
        frontier (the sites that joined last) with its unplaced branched
        sites, none if it kept no branch, in one `pair_matrices` call on
        the block's `traces`; a state with an empty frontier first starts a
        cluster at its lowest unplaced site.  A round's pairs come from the
        frontier's and the unplaced sites' positions (`frontier_pairs`), so
        it costs the block's B n sites and its pairs, not B n^2."""
        size = self.block.size
        owner, _, _, branched = self.branch_table
        entropy = self.marginals.entropy.reshape(size, -1)
        unplaced = branched & (np.bincount(owner, minlength=size) > 0)[:, None]
        frontier = np.zeros_like(unplaced)
        label = np.full(unplaced.shape, -1)   # each site's cluster within its state
        count = np.zeros(size, dtype=np.intp)
        while True:
            idle = np.flatnonzero(~frontier.any(1) & unplaced.any(1))
            start = unplaced[idle].argmax(1)   # the lowest unplaced site
            frontier[idle, start], unplaced[idle, start] = True, False
            label[idle, start] = count[idle]
            count[idle] += 1
            owner, a, b = frontier_pairs(frontier, unplaced)
            if not owner.size:
                break
            low, high = np.minimum(a, b), np.maximum(a, b)
            rho = self.traces.pair_matrices(owner, np.stack([low, high], axis=1))
            linked = entropy[owner, low] + entropy[owner, high] - entropies(rho) > self.tol
            frontier[:] = False
            frontier[owner[linked], b[linked]] = True
            unplaced &= ~frontier
            joined, site = np.nonzero(frontier)
            label[joined, site] = count[joined] - 1
        state, site = np.nonzero(label >= 0)
        sites = np.zeros((count.sum(), unplaced.shape[1]), dtype=bool)
        sites[(count.cumsum() - count)[state] + label[state, site], site] = True
        return np.arange(size).repeat(count), sites

    @cached_property
    def cluster_table(self) -> tuple:
        """Every cluster's branch list, in one grouping for all clusters:
        (cluster, bits, weights) per cluster branch, ordered by cluster and
        then by bits.  A cluster's branches are its state's branches grouped
        by their bits on its sites, tagged by cluster; ``bits`` is zero off
        the cluster's sites, and a weight is its group's branch weights
        added in branch order onto 0.0."""
        owner, bits, weights, _ = self.branch_table
        cluster_owner, sites = self.cluster_sites
        sizes = np.bincount(owner, minlength=self.block.size)
        counts = sizes[cluster_owner]
        rows = index_ranges((sizes.cumsum() - sizes)[cluster_owner], counts)
        tag = np.arange(len(sites)).repeat(counts)
        masked = bits[rows] * sites[tag]
        keys = row_keys(masked, tag)
        group, first = first_appearance(keys)
        sums = np.zeros(first.size)
        np.add.at(sums, group, weights[rows])   # in branch order, onto 0.0
        order = keys[first].argsort()
        return tag[first[order]], masked[first[order]], sums[order]

    @cached_property
    def branches(self) -> list:
        """Each state's `BranchDecomposition`, built from `branch_table`."""
        owner, bits, weights, branched = self.branch_table
        indices = self.block.lattice.indices
        ends = np.bincount(owner, minlength=self.block.size).cumsum().tolist()
        return [BranchDecomposition(
                    _branch_objects(list(compress(indices, mask.tolist())), weights[lo:hi],
                                    bits[lo:hi, mask]),
                    frozenset(compress(indices, (~mask).tolist())), self.tol)
                for lo, hi, mask in zip([0] + ends, ends, branched)]

    @cached_property
    def clusters(self) -> list:
        """Each state's `BranchClusters`, built from `cluster_sites` and
        `cluster_table`."""
        cluster, bits, weights = self.cluster_table
        cluster_owner, sites = self.cluster_sites
        indices = self.block.lattice.indices
        ends = np.bincount(cluster, minlength=len(sites)).cumsum().tolist()
        found = [[] for _ in range(self.block.size)]
        for o, mask, lo, hi in zip(cluster_owner.tolist(), sites, [0] + ends, ends):
            members = tuple([s for s, m in zip(indices, mask.tolist()) if m])
            found[o].append(Cluster(members, _branch_objects(members, weights[lo:hi],
                                                             bits[lo:hi, mask])))
        return [BranchClusters(tuple(clusters), frozenset(compress(indices, (~mask).tolist())),
                               self.tol)
                for clusters, mask in zip(found, self.branch_table[3])]

    def correlations(self, settings: Sequence) -> np.ndarray:
        """`correlation` of each (a, b) pair of `MeasurementSetting`s for
        every state, bit for bit, as a (B, len(settings)) array; every
        pair's two-site matrices come from one `region_matrices` call on
        the block's `traces`."""
        t = _correlators(region_matrices(self.traces, [(a.site, b.site) for a, b in settings]))
        units = [(_units(a.theta), _units(b.theta)) for a, b in settings]
        return np.array([[float(ua @ m @ ub) for (ua, ub), m in zip(units, matrices)]
                         for matrices in t])


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
    return BlockAnalysis(state, tol).branches[0]


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
    return BlockAnalysis(state, tol).clusters[0]


def _branch_objects(sites: Sequence, weights: np.ndarray, rows: np.ndarray) -> tuple:
    """The `Branch` of each weight and bit row on `sites` of a branch or
    cluster table."""
    support = frozenset(sites)
    # tuples of lists, not of generators or iterators: `tuple` sizes their
    # result by a guess and then resizes it, which shifts one cached tuple
    # between the interpreter's free lists per call, and a long in-process
    # run holds them until a full collection
    return tuple([Branch(w, dict(zip(sites, row)), support)
                  for w, row in zip(weights.tolist(), rows.tolist())])


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


def _block_rows(k: int) -> int:
    """Rows of a k x k array that `max_chsh_from_grid` works on at once."""
    return max(_CHSH_BLOCK, _CHSH_PAIRS // k)


def _column_slack(angles: np.ndarray, e_grid: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """eps[j] for each grid column: a bound on |E[i, j] - F_j(angles[i])|
    plus the rounding of a row's sum or difference (`max_chsh_from_grid`)."""
    k = len(angles)
    w = np.stack([np.ones(k), np.cos(angles), np.sin(angles)], axis=1)
    miss = np.zeros(k)
    size = np.zeros(k)
    step = _block_rows(k)
    for lo in range(0, k, step):
        e = e_grid[lo:lo + step]
        m = w[lo:lo + step] @ coeffs
        np.subtract(e, m, out=m)
        np.maximum(miss, np.abs(m, out=m).max(axis=0), out=miss)
        np.maximum(size, np.abs(e).max(axis=0), out=size)
    return miss + _UNIT_ROUNDOFF * (64.0 * np.abs(coeffs).sum(axis=0) + size)


def _flank_test(angles: np.ndarray) -> tuple:
    """(step, sure) for `_pair_maxima`: a row with max(|c1|, |c2|) sure >
    eps_b + eps_b' peaks at the flanks that floor(phi / step) picks.  sure
    is 0, so that every row is read in full, unless the k >= 3 angles are
    i step to within `_ANGLE_SLACK` and their smallest gap, the one round
    to 2 pi included, exceeds 2 `_FLANK_ETA` (`max_chsh_from_grid`)."""
    k = len(angles)
    if k < 3 or angles[0] != 0.0:
        return 1.0, 0.0
    step = float(angles[1])
    half = float(np.diff(angles, append=2.0 * math.pi).min()) / 2.0 - _FLANK_ETA
    if not half > 0.0 or np.abs(angles - step * np.arange(k)).max() > _ANGLE_SLACK:
        return 1.0, 0.0
    return step, math.sin(half) ** 2 / 2.0


def _pair_maxima(e_grid: np.ndarray, coeffs: np.ndarray, eps: np.ndarray, flanks: tuple,
                 b, bp: np.ndarray, op) -> np.ndarray:
    """M = max_i op(E[i, b], E[i, b']) for op `np.subtract` or `np.add` and
    column indices b, b' that broadcast together: every column b
    (`slice(None)`) against a column of rows b', or two lists of pairs.
    Read at the two flanks where that is certain (`max_chsh_from_grid`)."""
    step, sure = flanks
    c1 = op(coeffs[1, b], coeffs[1, bp])
    c2 = op(coeffs[2, b], coeffs[2, bp])
    r_low = np.maximum(np.abs(c1), np.abs(c2))   # r >= r_low >= r / sqrt(2)
    unsure = ~(r_low * sure > eps[b] + eps[bp])
    n_unsure = np.count_nonzero(unsure)
    if 3 * n_unsure > unsure.size >= _CHSH_DENSE:
        # reading one unsure row from two gathered columns costs about three
        # times its share of a pass over the grid's rows, and the pass makes
        # a few numpy calls per grid row whatever the number of pairs
        best = np.full(unsure.shape, -math.inf)
        term = np.empty_like(best)
        for line in e_grid:
            np.maximum(best, op(line[b], line[bp], out=term), out=best)
        return best
    k = len(eps)
    at = np.arange(k)[b]               # b as column numbers
    phi = np.arctan2(c2, c1)
    phi[phi < 0.0] += 2.0 * math.pi
    lo = np.minimum((phi / step).astype(np.intp), k - 1)
    hi = lo + 1
    hi[hi == k] = 0                    # the last gap wraps to angle 0
    flat = e_grid.reshape(-1)
    lo *= k
    hi *= k
    best = np.maximum(op(flat[lo + at], flat[lo + bp]), op(flat[hi + at], flat[hi + bp]))
    if n_unsure:
        jj = np.broadcast_to(at, unsure.shape)[unsure]
        jp = np.broadcast_to(bp, unsure.shape)[unsure]
        full = np.empty(n_unsure)
        for part in range(0, n_unsure, _CHSH_BLOCK):
            cols = slice(part, part + _CHSH_BLOCK)
            full[cols] = op(e_grid[:, jj[cols]], e_grid[:, jp[cols]]).max(axis=0)
        best[unsure] = full
    return best


def _pair_rows(e_grid: np.ndarray, j: int, jp: int) -> tuple:
    """The full rows E[:, j] - E[:, j'] and E[:, j] + E[:, j'] of one pair."""
    return np.subtract(e_grid[:, j], e_grid[:, jp]), np.add(e_grid[:, j], e_grid[:, jp])


def _bound_columns(coeffs: np.ndarray, eps: np.ndarray) -> tuple:
    """The per-column parts of `_pair_bounds`: N_j = 2 |v_j|^2, the column
    part 2 c0_j + 2 eps_j + m_j and the row part 2 eps_j + m_j, m_j the
    rounding margin 64 u a_j (`max_chsh_from_grid`)."""
    v1, v2 = coeffs[1], coeffs[2]
    size = np.abs(coeffs).sum(axis=0) + eps
    side = 2.0 * eps + 64.0 * _UNIT_ROUNDOFF * np.where(
        size > 0.0, np.maximum(size, _TINY_COLUMN), 0.0)
    return 2.0 * (v1 * v1 + v2 * v2), 2.0 * coeffs[0] + side, side


def _pair_bounds(coeffs: np.ndarray, columns: tuple, rows: np.ndarray) -> np.ndarray:
    """U[r, j] >= the cand of (b, b') = (j, rows[r]): sqrt(N_j + N_b' +
    sqrt((N_j - N_b')^2 + X^2)) + base[j] + side[b'] for X = 4 (v_j x v_b')
    and `columns` = (N, base, side) from `_bound_columns`."""
    norms, base, side = columns
    # products, not a matmul, which raised the peak RSS of repeated scans
    cross = np.multiply(coeffs[1], 4.0 * coeffs[2, rows, None])
    cross -= coeffs[2] * (4.0 * coeffs[1, rows, None])
    bound = np.subtract(norms, norms[rows, None])
    bound *= bound
    cross *= cross
    bound += cross
    np.sqrt(bound, out=bound)
    bound += norms
    bound += norms[rows, None]
    np.sqrt(bound, out=bound)
    bound += base
    bound += side[rows, None]
    return bound


def max_chsh_from_grid(angles: np.ndarray, e_grid: np.ndarray, coeffs: np.ndarray) -> tuple:
    """Maximise S over all setting 4-tuples drawn from a correlation grid.

    `coeffs[:, j]` = (c0, c1, c2) says that column j of the grid is, up to
    rounding, F_j(theta) = c0 + c1 cos theta + c2 sin theta at theta =
    `angles[i]`: every grid of both scan protocols has this form, the fact
    behind Horodecki et al., Phys. Lett. A 200, 340 (1995).

    For fixed (b, b') the maximum over a and a' separates: cand(b, b') =
    max_a (E[a,b] - E[a,b']) + max_a' (E[a',b] + E[a',b']).  Each of those
    two rows is c + r cos(theta - phi), (r, phi) the polar form of the
    difference (or sum) of the columns' v = (c1, c2).  A closed-form bound
    on cand rules out most pairs (b, b') of a grid that is not flat before
    any of their entries is read, and each pair that remains reads its rows
    at the two grid angles that flank phi, where such a function peaks.

    The bound.  Write eps_j for `_column_slack`: the largest
    |E[i, j] - (c0 + c1 cos + c2 sin)(angles[i])| measured over the
    column, plus 64 u (|c0| + |c1| + |c2|) for the rounding of that model
    and of numpy's cos and sin, plus u max_i |E[i, j]| for the rounding of
    a row's sum or difference; u = 2^-53.  A computed row then differs
    from its exact function by at most eps_b + eps_b', at whatever angles
    the grid holds, and |c1 cos + c2 sin| <= |v|.  So every entry of the
    difference row is at most c0_b - c0_b' + |v_b - v_b'| + eps_b + eps_b',
    every entry of the sum row at most c0_b + c0_b' + |v_b + v_b'| + eps_b
    + eps_b', and the exact cand at most U = 2 c0_b + L + 2 (eps_b +
    eps_b') with L = |v_b - v_b'| + |v_b + v_b'|.  `_pair_bounds` takes L
    = sqrt(N_b + N_b' + sqrt((N_b - N_b')^2 + X^2)), N_j = 2 |v_j|^2 and X
    = 4 v_b x v_b' (since |v_b -+ v_b'|^2 = q -+ 2 p for q = |v_b|^2 +
    |v_b'|^2, p = v_b . v_b', and q^2 - 4 p^2 = (|v_b|^2 - |v_b'|^2)^2 +
    4 (v_b x v_b')^2): a cross product and two square roots per pair.

    The bound's rounding margin.  Let a_j = |c0_j| + |c1_j| + |c2_j| +
    eps_j, so that |v_j| <= a_j and |E[i, j]| <= a_j, and S = N_b + N_b'.
    The computed N_j is off by at most 2u N_j, X by 8u |v_b| |v_b'| <= 2u
    S, and N_b - N_b' by 3u S.  The inner root is a Euclidean norm, which
    passes absolute errors on unamplified, and it rounds by 2u of itself,
    so it is off by at most 7u S; the sum under the outer root, at least
    S, is off by at most 13u S.  The outer root divides that by 2 sqrt(S)
    and rounds by u L <= 1.5u sqrt(S): L is off by at most 8u sqrt(S) <=
    12u (|v_b| + |v_b'|).  Adding 2 c0_b, the eps terms and the margin
    costs at most 15u (a_b + a_b'), and the computed cand, a rounded sum of
    two row maxima, exceeds its exact value by at most 3u (a_b + a_b').
    So U carries a margin of 64u (a_b + a_b') > (12 + 15 + 3)u (a_b +
    a_b'), and the computed U is at least the computed cand of its pair.
    The squares can underflow, which moves L by at most 2^-267; a column
    with 0 < a_j < 2^-200 (`_TINY_COLUMN`) counts as 2^-200 in the margin,
    which covers that.  A zero column has no margin, as nothing in it
    rounds.

    The search.  Rows b' are taken in blocks of at least `_CHSH_BLOCK`
    and about `_CHSH_PAIRS` pairs.  The floor is the best cand so far; the
    first block takes the cand of its pair of largest U.  Only pairs with
    U >= floor are read, as one list in b'-major order: a pair below the
    floor scores below the maximum, so it can neither win nor tie.  A NaN
    bound (the norms overflow past |v| ~ 1e154) keeps its pair.  A block
    where a third of the pairs or more survive reads all of its pairs at
    once: a constant grid keeps them all.

    When the flanks are certain.  Let g be the smallest gap between
    neighbouring grid angles, the gap from the last angle round to 2 pi
    included.  Flanks are read only on a grid of k >= 3 angles that
    starts at 0 with equal steps: angles[i] within 2^-47 rad (64 u) of
    i step, step = angles[1] (`_flank_test`).  On any other grid every
    row is read in full, so wrong angles cost time, never the result.
    The flank pair chosen by floor(phi / step) then brackets phi to
    within eta = 2^-45 rad, about 256 u: the 64 u of the angles, plus the
    coefficients' rounding, atan2, the fold into [0, 2 pi), the division
    and the floor, about 40 u.  If delta is the distance from the
    bracketed angle to the nearer flank, every other grid angle lies
    beyond a flank, at least delta + g from it and so at least delta + g -
    eta from phi.  With k >= 3 these distances stay within [0, pi], where
    cos falls, so every other angle scores below that flank by at least
    r (cos(delta + eta) - cos(delta + g - eta))
    = 2 r sin(delta + g/2) sin(g/2 - eta) >= 2 r sin^2(g/2 - eta).
    If that margin exceeds 2 (eps_b + eps_b'), no other entry can reach
    the better flank, and the flanks' maximum is the row's maximum bit
    for bit.  The test asks for twice that, to cover its own rounding,
    and takes max(|c1|, |c2|) <= r for r: max(|c1|, |c2|)
    sin^2(g/2 - eta) / 2 > eps_b + eps_b'.  A row that fails it takes
    the full row's maximum: b = b' is exactly flat, and so is the sum of
    two opposite columns.  Where a third of the pairs read at once or
    more fail it (a constant grid fails everywhere), and they number at
    least `_CHSH_DENSE`, they take one pass over the grid's rows instead,
    which costs less than gathering that many rows' columns.  Wrong coefficients therefore cost time, never
    the result.

    Ties are broken as a full scan breaks them: the winning (b, b') is
    the first in b'-major order, and a and a' are the first indices that
    reach their rows' maxima.
    Returns (value, (theta_a, theta_a', theta_b, theta_b')).
    """
    k = len(angles)
    e_grid = np.ascontiguousarray(e_grid)   # `_pair_maxima` reads it flat
    eps = _column_slack(angles, e_grid, coeffs)
    flanks = _flank_test(angles)
    columns = _bound_columns(coeffs, eps)
    every = np.arange(k)
    best = -math.inf
    best_idx = (0, 0)
    step = _block_rows(k)
    for lo in range(0, k, step):
        rows = every[lo:lo + step]
        bound = _pair_bounds(coeffs, columns, rows)
        floor = best
        if floor == -math.inf:
            top = int(bound.argmax())
            d, s = _pair_rows(e_grid, top % k, rows[top // k])
            floor = float(d.max() + s.max())
        keep = np.flatnonzero(~(bound < floor))   # a NaN bound keeps its pair
        if 3 * len(keep) >= bound.size:
            b, bp = slice(None), rows[:, None]   # a pass reads grid rows as views
        elif len(keep):
            r, b = np.divmod(keep, k)
            bp = rows[r]
        else:
            continue
        cand = (_pair_maxima(e_grid, coeffs, eps, flanks, b, bp, np.subtract)
                + _pair_maxima(e_grid, coeffs, eps, flanks, b, bp, np.add))
        at = int(cand.argmax())
        if cand.flat[at] > best:
            best = float(cand.flat[at])
            best_idx = (int(np.broadcast_to(every[b], cand.shape).flat[at]),
                        int(np.broadcast_to(bp, cand.shape).flat[at]))
    j, jp = best_idx
    d, s = _pair_rows(e_grid, j, jp)
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
