"""Dense reference engine for cross-checking the sparse one.

Everything here re-derives results from a full 2^n state vector using
plain numpy tensor algebra — reshape, tensordot, moveaxis — and shares
no gate-application or tracing code with the sparse path.  Agreement
between the two engines on the same schedule is therefore meaningful
evidence of correctness, not a tautology.

Capped at 20 sites (a 2^20 vector); the sparse engine has no such cap.
"""

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .gates import Gate, Gate1, Gate2
from .lattice import PRUNE_EPS, Lattice, PureState
from .schedule import Schedule

MAX_DENSE_SITES = 20


class OracleError(ValueError):
    """Lattice too large for a dense vector, or mismatched operands."""


@dataclass(frozen=True)
class DenseState:
    """A full state vector, index bits ordered like the lattice (site 0
    of the lattice is the most significant bit)."""

    lattice: Lattice
    vector: np.ndarray

    def __post_init__(self):
        n = self.lattice.n_sites
        if n > MAX_DENSE_SITES:
            raise OracleError(f"{n} sites needs a 2^{n} vector; cap is {MAX_DENSE_SITES}")
        v = np.array(self.vector, dtype=complex).reshape(-1)
        if v.shape != (2 ** n,):
            raise OracleError(f"want a length-{2 ** n} vector, got {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)


def densify(state: PureState) -> DenseState:
    """Expand a sparse state into a full vector."""
    n = state.lattice.n_sites
    v = np.zeros(2 ** n, dtype=complex)
    for bits, amp in state.amplitudes.items():
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        v[idx] = amp
    return DenseState(state.lattice, v)


def sparsify(dense: DenseState) -> PureState:
    """Collapse a dense vector back to the sparse representation."""
    n = dense.lattice.n_sites
    amps = {}
    for idx in np.flatnonzero(np.abs(dense.vector) >= PRUNE_EPS):
        bits = tuple((int(idx) >> (n - 1 - p)) & 1 for p in range(n))
        amps[bits] = complex(dense.vector[idx])
    return PureState(dense.lattice, amps)


def dense_apply(dense: DenseState, gate: Gate, sites: Iterable) -> DenseState:
    """Apply a gate by tensor contraction on the dense vector."""
    sites = tuple(sites)
    n = dense.lattice.n_sites
    positions = [dense.lattice.position(s) for s in sites]
    if len(positions) != gate.n_sites or len(set(positions)) != len(positions):
        raise OracleError(f"gate {gate.name} does not fit sites {sites}")

    psi = dense.vector.reshape([2] * n)
    k = len(positions)
    u = gate.matrix.reshape([2] * (2 * k))
    # contract gate input legs with the site axes, then put axes back
    psi = np.tensordot(u, psi, axes=(list(range(k, 2 * k)), positions))
    psi = np.moveaxis(psi, list(range(k)), positions)
    return DenseState(dense.lattice, psi.reshape(-1))


def dense_run(dense: DenseState, schedule: Schedule, horizon=None) -> list:
    """Evolve a dense state through a schedule; mirrors `run_schedule`."""
    if horizon is None:
        horizon = schedule.horizon
    if horizon < 0:
        raise OracleError(f"negative horizon {horizon}")
    steps = schedule.by_step()
    out = [dense]
    for t in range(horizon):
        current = out[-1]
        for app in steps.get(t, ()):
            current = dense_apply(current, app.resolved_gate(), app.sites)
        out.append(current)
    return out


def dense_rdm(dense: DenseState, keep: Iterable) -> np.ndarray:
    """Partial trace by axis reordering: rho = M M^dag with M the state
    reshaped to (kept sites) x (traced sites)."""
    keep = tuple(keep)
    n = dense.lattice.n_sites
    kpos = [dense.lattice.position(s) for s in keep]
    rest = [p for p in range(n) if p not in kpos]
    m = np.transpose(dense.vector.reshape([2] * n), kpos + rest)
    m = m.reshape(2 ** len(kpos), 2 ** len(rest))
    return m @ m.conj().T


def dense_norm(dense: DenseState) -> float:
    return float(np.vdot(dense.vector, dense.vector).real)


def dense_overlap(a: DenseState, b: DenseState) -> float:
    if a.lattice != b.lattice:
        raise OracleError("overlap needs states on the same lattice")
    return float(abs(np.vdot(a.vector, b.vector)))


def dense_entropy(dense: DenseState, region: Iterable) -> float:
    """Von Neumann entropy of a region, in nats, from the dense vector."""
    w = np.linalg.eigvalsh(dense_rdm(dense, region))
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum()) if w.size else 0.0


def dense_branch_weights(dense: DenseState, tol: float = 1e-9) -> dict:
    """Bit-basis branch weights from the dense vector.

    Mirrors `branch_decompose`: sites whose one-site density matrix is
    pure within `tol` are dropped from the keys, weights merge over
    them, merged weights above `tol` are kept, and the result is
    renormalised.  Returns assignment -> weight with assignments as
    ((site, bit), ...) tuples.
    """
    n = dense.lattice.n_sites
    branched_pos = []
    for p, site in enumerate(dense.lattice.indices):
        rho = dense_rdm(dense, [site])
        if np.trace(rho @ rho).real < 1.0 - tol:
            branched_pos.append((p, site))

    probs = np.abs(dense.vector) ** 2
    merged: dict = {}
    for idx in np.flatnonzero(probs):
        key = tuple(
            (site, (int(idx) >> (n - 1 - p)) & 1) for p, site in branched_pos
        )
        merged[key] = merged.get(key, 0.0) + float(probs[idx])
    merged = {key: w for key, w in merged.items() if w > tol}
    total = sum(merged.values())
    return {key: w / total for key, w in merged.items()}


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR decomposition of a complex
    Gaussian matrix (phases fixed so R has a positive diagonal)."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_gate2(rng: np.random.Generator) -> Gate2:
    return Gate2("random", random_unitary(4, rng))


def random_gate1(rng: np.random.Generator) -> Gate1:
    return Gate1("random", random_unitary(2, rng))
