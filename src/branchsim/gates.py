"""Local unitary gates and their sparse application.

All interactions in the model are one- and two-site unitaries.  A
two-site gate matrix acts on the ordered pair of bits (left slot, right
slot) with basis index ``2*left_bit + right_bit``; "left" means the
first site of the application pair, which need not be the spatially
left one (applying an asymmetric gate with the pair reversed mirrors
it).

The three built-in interaction gates are permutation matrices:

``U_si``    system-field coupling: flips the field bit when the system
            bit is 0, does nothing when it is 1.  Writes a (negated)
            record of the system bit into the field.
``U_copy``  field-field copying: flips the right bit when the left bit
            is 1 (up-spin = 0 is inert).  Spreads a record ballistically
            while leaving copies behind.
``U_swap``  exchanges the two bits.  Moves a record without copying it,
            so previously visited sites are returned to their old state.

``rot(theta)`` is the real single-site rotation R(theta) satisfying

    R(theta)^dag Z R(theta) = cos(theta) Z + sin(theta) X,

i.e. conjugating by it turns a Z measurement into a measurement of the
spin axis tilted by theta in the X-Z plane.  rot(pi/2) maps Z to X
(a Hadamard-like basis change); rot(pi) exchanges the Z eigenvectors.
"""

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .lattice import PRUNE_EPS, PureState

#: Gate matrices must be unitary to this tolerance.
UNITARITY_TOL = 1e-12


class GateError(ValueError):
    """Non-unitary matrix, bad shape, or an unknown gate name."""


def _check_unitary(matrix: np.ndarray, dim: int, name: str) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise GateError(f"{name}: want a {dim}x{dim} matrix, got shape {m.shape}")
    if not np.allclose(m.conj().T @ m, np.eye(dim), atol=UNITARITY_TOL, rtol=0.0):
        raise GateError(f"{name}: matrix is not unitary within {UNITARITY_TOL}")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class Gate1:
    """A single-site unitary (2x2, checked at construction)."""

    name: str
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _check_unitary(self.matrix, 2, self.name))

    @property
    def n_sites(self) -> int:
        return 1


@dataclass(frozen=True)
class Gate2:
    """A two-site unitary (4x4, checked at construction)."""

    name: str
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _check_unitary(self.matrix, 4, self.name))

    @property
    def n_sites(self) -> int:
        return 2


Gate = Union[Gate1, Gate2]


def system_field_gate() -> Gate2:
    """``U_si``: conditional bit-flip, control = left (system) bit being 0."""
    return Gate2("U_si", [[0, 1, 0, 0],
                          [1, 0, 0, 0],
                          [0, 0, 1, 0],
                          [0, 0, 0, 1]])


def field_copy_gate() -> Gate2:
    """``U_copy``: conditional bit-flip, control = left bit being 1."""
    return Gate2("U_copy", [[1, 0, 0, 0],
                            [0, 1, 0, 0],
                            [0, 0, 0, 1],
                            [0, 0, 1, 0]])


def field_swap_gate() -> Gate2:
    """``U_swap``: exchange the two bits."""
    return Gate2("U_swap", [[1, 0, 0, 0],
                            [0, 0, 1, 0],
                            [0, 1, 0, 0],
                            [0, 0, 0, 1]])


def rotation_gate(theta: float) -> Gate1:
    """``rot(theta)``: tilts the measured axis by theta in the X-Z plane."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return Gate1(f"rot({theta!r})", [[c, s], [-s, c]])


def hadamard_gate() -> Gate1:
    """``H``: exchanges the Z and X axes (H Z H = X)."""
    r = 1.0 / math.sqrt(2.0)
    return Gate1("H", [[r, r], [r, -r]])


def identity_gate() -> Gate1:
    return Gate1("I", np.eye(2))


_ROT_RE = re.compile(r"rot\(([^)]+)\)\Z")


def gate_by_name(name: str) -> Gate:
    """Resolve a gate name as used in schedules and scenario configs.

    Recognised: ``U_si``, ``U_copy``, ``U_swap``, ``H``, ``I``, ``rot(<float>)``.
    """
    builtin = {
        "U_si": system_field_gate,
        "U_copy": field_copy_gate,
        "U_swap": field_swap_gate,
        "H": hadamard_gate,
        "I": identity_gate,
    }
    if name in builtin:
        return builtin[name]()
    m = _ROT_RE.match(name)
    if m:
        try:
            return rotation_gate(float(m.group(1)))
        except ValueError:
            pass
    raise GateError(f"unknown gate name {name!r}")


# ---------------------------------------------------------------------------
# sparse application
# ---------------------------------------------------------------------------
#
# A gate column tells us where one basis state goes.  Precomputing the
# nonzero entries of each column turns application into a handful of
# dict operations per term — for the built-in permutation gates, exactly
# one per term.

def column_action(matrix: np.ndarray):
    """action[j] = [(i, U_ij) for each nonzero U_ij] for every column j."""
    dim = matrix.shape[0]
    return [
        [(i, complex(matrix[i, j])) for i in range(dim) if abs(matrix[i, j]) != 0.0]
        for j in range(dim)
    ]


def apply_columns(amps: dict, positions: tuple, action) -> dict:
    """Apply a precomputed column action at basis-string positions.

    Low-level routine shared by every evolution path: `amps` is a plain
    dict of basis tuple -> amplitude; returns a new pruned dict.
    """
    out: dict = {}
    if len(positions) == 1:
        (p,) = positions
        for bits, amp in amps.items():
            for i, coeff in action[bits[p]]:
                nb = bits[:p] + (i,) + bits[p + 1:]
                out[nb] = out.get(nb, 0j) + coeff * amp
    else:
        pa, pb = positions
        for bits, amp in amps.items():
            for i, coeff in action[2 * bits[pa] + bits[pb]]:
                nb = list(bits)
                nb[pa], nb[pb] = i >> 1, i & 1
                nb = tuple(nb)
                out[nb] = out.get(nb, 0j) + coeff * amp
    return {b: a for b, a in out.items() if abs(a) >= PRUNE_EPS}


def apply_gate1(state: PureState, gate: Gate1, site: int) -> PureState:
    """Apply a single-site gate, returning a new state."""
    pos = state.lattice.position(site)
    amps = apply_columns(dict(state.amplitudes), (pos,), column_action(gate.matrix))
    return PureState(state.lattice, amps)


def apply_gate2(state: PureState, gate: Gate2, pair: tuple) -> PureState:
    """Apply a two-site gate to the ordered site pair, returning a new state.

    The first site of `pair` feeds the gate's left slot.  The two sites
    must be distinct lattice sites; they do not have to be adjacent or
    in spatial order.
    """
    a, b = pair
    if a == b:
        raise GateError(f"two-site gate needs two distinct sites, got {pair}")
    positions = (state.lattice.position(a), state.lattice.position(b))
    amps = apply_columns(dict(state.amplitudes), positions, column_action(gate.matrix))
    return PureState(state.lattice, amps)
