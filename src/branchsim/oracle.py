"""Dense reference engine for cross-checking the sparse one.

Everything here re-derives results from full 2^n state vectors using
plain numpy tensor algebra — a gate's sites brought to the front by
moveaxis or a gather, then matmul — and shares no gate-application or
tracing code with the sparse path.  Agreement between the two engines on
the same schedule is therefore meaningful evidence of correctness, not a
tautology.

The engine works on stacks: B states of one lattice as a (B, 2^n)
array.  `apply_stack` plays one gate per state, wherever each state's
gate sits, with one gather, one stacked matmul and one scatter, and
`analyse_stack` builds the marginals and branches of every state at
once.  Its branches take the layout of the sparse `branch_table`, one
row per branch ordered by state and then by bits, so the two tables are
compared row for row; the layout is shared, the code that fills it is
not.  The single-state functions (`dense_apply`, `dense_rdm`,
`dense_entropy`, `dense_branch_weights`, ...) are the B = 1 case, and
give the same bits as a stack row: numpy's stacked matmul, QR and
eigvalsh compute each item as the single call does, which the tests
pin.

Capped at 20 sites (a 2^20 vector); the sparse engine has no such cap.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .gates import Gate, Gate1, Gate2
from .lattice import PRUNE_EPS, Lattice, PureState
from .schedule import Schedule

MAX_DENSE_SITES = 20


class OracleError(ValueError):
    """Lattice too large for a dense vector, or mismatched operands."""


class DenseAnalysis(NamedTuple):
    """The marginals and branches of a (B, 2^n) stack of dense states, as
    `analyse_stack` builds them.

    ``site_rdms[b, i]`` is the density matrix of state b's i-th lattice
    site and ``site_entropy[b, i]`` its entropy; ``region_rdms[b, r]``
    and ``region_entropy[b, r]`` belong to the r-th region analysed.
    ``branches`` is every state's branches at the tolerance analysed, as
    the sparse `branch_table` lays them out, (owner, bits, weights,
    branched): per branch, ordered by state and then by bits, its state,
    its (n,) uint8 bit row with zeros off the state's branched sites and
    its weight; and the (B, n) mask of each state's branched sites.
    Each value has the bits of the single-state function that computes it.
    """

    site_rdms: np.ndarray       # (B, n, 2, 2)
    site_entropy: np.ndarray    # (B, n)
    region_rdms: np.ndarray     # (B, R, d, d)
    region_entropy: np.ndarray  # (B, R)
    branches: tuple             # (G,) owner, (G, n) bits, (G,) weights, (B, n) branched


@dataclass(frozen=True)
class DenseState:
    """A full state vector, index bits ordered like the lattice (site 0
    of the lattice is the most significant bit).  The vector is copied
    unless it is a read-only complex array already."""

    lattice: Lattice
    vector: np.ndarray

    def __post_init__(self):
        n = self.lattice.n_sites
        if n > MAX_DENSE_SITES:
            raise OracleError(f"{n} sites needs a 2^{n} vector; cap is {MAX_DENSE_SITES}")
        v = self.vector
        if not (isinstance(v, np.ndarray) and v.dtype == complex and not v.flags.writeable):
            v = np.array(v, dtype=complex)
        v = v.reshape(-1)
        if v.shape != (2 ** n,):
            raise OracleError(f"want a length-{2 ** n} vector, got {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)


def dense_vectors(lattice: Lattice, table, size: int) -> np.ndarray:
    """The full vectors of `size` sparse states on `lattice`, as a
    (size, 2^n) stack scattered from the rows of one term table: row t is
    a term of state ``table.owner[t]``."""
    n = lattice.n_sites
    if n > MAX_DENSE_SITES:
        raise OracleError(f"{n} sites needs a 2^{n} vector; cap is {MAX_DENSE_SITES}")
    out = np.zeros((size, 2 ** n), dtype=complex)
    out[table.owner, table.bits @ (1 << np.arange(n - 1, -1, -1))] = table.amps
    return out


def densify(state: PureState) -> DenseState:
    """Expand a sparse state into a full vector."""
    return DenseState(state.lattice, dense_vectors(state.lattice, state.table, 1)[0])


def sparsify(dense: DenseState) -> PureState:
    """Collapse a dense vector back to the sparse representation."""
    n = dense.lattice.n_sites
    amps = {}
    for idx in np.flatnonzero(np.abs(dense.vector) >= PRUNE_EPS):
        bits = tuple((int(idx) >> (n - 1 - p)) & 1 for p in range(n))
        amps[bits] = complex(dense.vector[idx])
    return PureState(dense.lattice, amps)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def _contract(vectors: np.ndarray, matrices: np.ndarray, positions: tuple) -> np.ndarray:
    """(m, 2^n) states times (m, 2^k, 2^k) gates acting on the k lattice
    positions `positions`: the site axes move to the front, one stacked
    matmul contracts them, and they move back."""
    m, dim = vectors.shape
    n, k = dim.bit_length() - 1, len(positions)
    front = tuple(range(1, k + 1))
    axes = tuple(1 + p for p in positions)
    psi = np.moveaxis(vectors.reshape((m,) + (2,) * n), axes, front)
    psi = np.matmul(matrices, psi.reshape(m, 2 ** k, -1))
    return np.moveaxis(psi.reshape((m,) + (2,) * n), front, axes).reshape(m, dim)


def _gather_index(positions: np.ndarray, n: int) -> np.ndarray:
    """The flat index, in a (B, 2^n) stack, of every amplitude of
    `_contract`'s layout, as a (B, 2^k, 2^(n-k)) array: entry [b, s, r]
    is state b's amplitude whose gate sites, ``positions[b]`` of the
    (B, k) ``positions``, hold the bits of s and whose other n - k sites,
    in lattice order, hold the bits of r.  Built per call from
    B x 2^(n-k) integers; nothing is kept between calls."""
    b, k = positions.shape
    bits = (n - 1) - positions                      # each slot's bit of a flat index
    slots = (np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    front = (1 << bits) @ slots.T + (2 ** n) * np.arange(b)[:, None]     # (B, 2^k)
    rest = np.arange(2 ** (n - k))
    for bit in np.sort(bits, axis=1).T:             # open a zero at each slot's bit, lowest first
        low = (1 << bit[:, None]) - 1
        rest = ((rest & ~low) << 1) | (rest & low)  # (B, 2^(n-k))
    return front[:, :, None] + rest[:, None, :]


def apply_stack(vectors: np.ndarray, matrices: np.ndarray, positions) -> np.ndarray:
    """Apply one gate to every state of a (B, 2^n) stack; returns the new stack.

    ``matrices[b]`` (a (B, 2^k, 2^k) stack) acts on lattice positions
    ``positions[b]`` of state b, the first position feeding the gate's
    most significant slot.  One gather by `_gather_index` lays every
    state out as `_contract`'s moveaxis would, wherever its gate sits,
    one stacked matmul contracts them all, and one scatter puts them
    back.  State b's matmul item has the operands and layout of
    `_contract` on that state alone, as `dense_apply` runs it, so each
    row has the bits of the one-state call.
    """
    b, dim = vectors.shape
    k = matrices.shape[-1].bit_length() - 1
    index = _gather_index(np.asarray(positions, dtype=np.intp).reshape(b, k),
                          dim.bit_length() - 1)
    flat = vectors.reshape(-1)
    out = np.empty_like(flat)
    out[index] = np.matmul(matrices, flat[index])
    return out.reshape(b, dim)


def dense_apply(dense: DenseState, gate: Gate, sites: Iterable) -> DenseState:
    """Apply a gate by tensor contraction on the dense vector."""
    sites = tuple(sites)
    positions = [dense.lattice.position(s) for s in sites]
    if len(positions) != gate.n_sites or len(set(positions)) != len(positions):
        raise OracleError(f"gate {gate.name} does not fit sites {sites}")
    vector = _contract(dense.vector[None], gate.matrix[None], tuple(positions))[0]
    return DenseState(dense.lattice, vector)


def dense_steps(dense: DenseState, schedule: Schedule, horizon=None) -> Iterator:
    """Evolve a dense state through a schedule, yielding its state at
    t = 0 .. horizon one at a time; mirrors `run_steps`.  A negative
    horizon raises before the first state is yielded."""
    if horizon is None:
        horizon = schedule.horizon
    if horizon < 0:
        raise OracleError(f"negative horizon {horizon}")
    steps = schedule.by_step()
    yield dense
    for t in range(horizon):
        for app in steps.get(t, ()):   # rebinding drops the previous state
            dense = dense_apply(dense, app.resolved_gate(), app.sites)
        yield dense


def dense_run(dense: DenseState, schedule: Schedule, horizon=None) -> list:
    """Every state of `dense_steps`, as a list."""
    return list(dense_steps(dense, schedule, horizon))


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _rdm_stack(lattice: Lattice, vectors: np.ndarray, keep: Iterable) -> np.ndarray:
    """Partial trace of every state of a stack, (B, d, d): rho = M M^dag
    with M the state reshaped to (kept sites) x (traced sites)."""
    kpos = [lattice.position(s) for s in keep]
    b, n = len(vectors), lattice.n_sites
    m = np.moveaxis(vectors.reshape((b,) + (2,) * n), [1 + p for p in kpos],
                    range(1, len(kpos) + 1))
    m = m.reshape(b, 2 ** len(kpos), -1)
    return m @ m.conj().swapaxes(-1, -2)


def _site_rdms(lattice: Lattice, vectors: np.ndarray) -> np.ndarray:
    """Every one-site density matrix of every state, (B, n, 2, 2)."""
    return np.stack([_rdm_stack(lattice, vectors, (s,)) for s in lattice.indices], axis=1)


def _entropies(rdms: np.ndarray) -> np.ndarray:
    """Entropy of each matrix of a (..., d, d) stack, in nats, from one
    eigvalsh: minus the sum of w ln w over the positive eigenvalues w."""
    w = np.linalg.eigvalsh(rdms)
    positive = w > 0.0
    if w.shape[-1] >= 8:
        # numpy adds 8 or more values pairwise, so masking changes the sum
        flat = w.reshape(-1, w.shape[-1])
        return np.array([float(-(x * np.log(x)).sum()) if x.size else 0.0
                         for x in (row[row > 0.0] for row in flat)]).reshape(w.shape[:-1])
    # fewer are added left to right, and a masked-out 0.0 adds nothing
    terms = np.where(positive, w * np.log(np.where(positive, w, 1.0)), 0.0)
    return np.where(positive.any(-1), -terms.sum(-1), 0.0)


def _purities(rdms: np.ndarray) -> np.ndarray:
    return np.trace(rdms @ rdms, axis1=-2, axis2=-1).real


def _branches(lattice: Lattice, vectors: np.ndarray, purities: np.ndarray,
              tol: float) -> tuple:
    """The `DenseAnalysis.branches` of every state of a stack, from its
    one-site purities (B, n).

    The indices of state b group by their bits on its branched sites,
    with one `bincount`, which adds each group's probabilities in index
    order as a loop over the indices would.  Groups above `tol` are
    kept, and their total is added onto 0.0 in order of first nonzero
    index.
    """
    n, dim = lattice.n_sites, vectors.shape[1]
    shifts = np.arange(n - 1, -1, -1)
    branched = purities < 1.0 - tol                                # (B, n)
    probs = (np.abs(vectors) ** 2).ravel()
    groups = np.arange(dim) & (branched @ (1 << shifts))[:, None]
    groups += dim * np.arange(len(vectors))[:, None]             # one range per state
    groups = groups.ravel()
    sums = np.bincount(groups, weights=probs, minlength=groups.size)
    seen, first = np.unique(groups[probs != 0.0], return_index=True)
    seen = seen[np.argsort(first)]                # by state, then first appearance
    seen = seen[sums[seen] > tol]
    owner, codes = np.divmod(seen, dim)
    weights = sums[seen]
    totals = np.zeros(len(vectors))
    np.add.at(totals, owner, weights)
    weights /= totals[owner]
    order = np.argsort(seen)                      # by state, then bits
    bits = ((codes[order, None] >> shifts) & 1).astype(np.uint8)
    return owner[order], bits, weights[order], branched


def analyse_stack(lattice: Lattice, vectors: np.ndarray, regions: Iterable,
                  tol: float = 1e-9) -> DenseAnalysis:
    """The `DenseAnalysis` of a (B, 2^n) stack and one or more regions of
    equal size: one stacked matmul per site and per region, one eigvalsh
    per kind."""
    rdms = _site_rdms(lattice, vectors)
    region_rdms = np.stack([_rdm_stack(lattice, vectors, tuple(r)) for r in regions], axis=1)
    return DenseAnalysis(rdms, _entropies(rdms), region_rdms, _entropies(region_rdms),
                         _branches(lattice, vectors, _purities(rdms), tol))


def dense_rdm(dense: DenseState, keep: Iterable) -> np.ndarray:
    """Partial trace by axis reordering: rho = M M^dag with M the state
    reshaped to (kept sites) x (traced sites)."""
    return _rdm_stack(dense.lattice, dense.vector[None], tuple(keep))[0]


def dense_norm(dense: DenseState) -> float:
    return float(np.vdot(dense.vector, dense.vector).real)


def dense_overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|<a_i|b_i>| for the rows of two (B, 2^n) stacks, with the bits of
    one ``abs(np.vdot(a_i, b_i))`` each: one stacked matmul of the rows
    of conj(a) by those of b, whose items are `vdot`'s sums, and the
    `np.hypot` of their parts, which is the scalar `abs`.  (`np.abs` of a
    complex array can round otherwise.)"""
    products = np.matmul(a.conj()[:, None, :], b[:, :, None])[:, 0, 0]
    return np.hypot(products.real, products.imag)


def dense_overlap(a: DenseState, b: DenseState) -> float:
    if a.lattice != b.lattice:
        raise OracleError("overlap needs states on the same lattice")
    return float(dense_overlaps(a.vector[None], b.vector[None])[0])


def dense_entropy(dense: DenseState, region: Iterable) -> float:
    """Von Neumann entropy of a region, in nats, from the dense vector."""
    return float(_entropies(dense_rdm(dense, region)))


def dense_branch_weights(dense: DenseState, tol: float = 1e-9) -> dict:
    """Bit-basis branch weights from the dense vector.

    Mirrors `branch_decompose`: sites whose one-site density matrix is
    pure within `tol` are dropped from the keys, weights merge over
    them, merged weights above `tol` are kept, and the result is
    renormalised.  Returns assignment -> weight with assignments as
    ((site, bit), ...) tuples.
    """
    vectors = dense.vector[None]
    purities = _purities(_site_rdms(dense.lattice, vectors))
    _, bits, weights, (mask,) = _branches(dense.lattice, vectors, purities, tol)
    sites = [s for s, m in zip(dense.lattice.indices, mask.tolist()) if m]
    return {tuple(zip(sites, row)): w
            for row, w in zip(bits[:, mask].tolist(), weights.tolist())}


# ---------------------------------------------------------------------------
# random gates
# ---------------------------------------------------------------------------

def complex_gaussians(parts: np.ndarray) -> np.ndarray:
    """The complex (..., d, d) matrices of a (..., 2, d, d) stack of real
    Gaussian draws: ``parts[..., 0, :, :]`` is the real part and
    ``parts[..., 1, :, :]`` the imaginary part."""
    return parts[..., 0, :, :] + 1j * parts[..., 1, :, :]


def gaussian_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A complex Gaussian dim x dim matrix, real part drawn first: the
    `complex_gaussians` of one ``rng.normal(size=(2, dim, dim))``, which
    reads the same numbers from the rng as a (dim, dim) draw for each
    part, and leaves it in the same state."""
    return complex_gaussians(rng.normal(size=(2, dim, dim)))


def haar_unitaries(gaussians: np.ndarray) -> np.ndarray:
    """Haar-ish random unitaries from the QR decompositions of a
    (..., d, d) stack of complex Gaussian matrices, phases fixed so each
    R has a positive diagonal; one stacked `qr`."""
    q, r = np.linalg.qr(gaussians)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary: `haar_unitaries` of one `gaussian_matrix`."""
    return haar_unitaries(gaussian_matrix(dim, rng))


def random_gate2(rng: np.random.Generator) -> Gate2:
    return Gate2("random", random_unitary(4, rng))


def random_gate1(rng: np.random.Generator) -> Gate1:
    return Gate1("random", random_unitary(2, rng))
