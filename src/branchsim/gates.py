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

from .lattice import PureState, TermTable, complex_product, first_appearance, row_keys

#: Gate matrices must be unitary to this tolerance.
UNITARITY_TOL = 1e-12


class GateError(ValueError):
    """Non-unitary matrix, bad shape, or an unknown gate name."""


def _check_unitary(matrix: np.ndarray, dim: int, name: str) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise GateError(f"{name}: want a {dim}x{dim} matrix, got shape {m.shape}")
    # elementwise |U^dag U - 1| <= tol; a NaN or inf entry is rejected
    # first, before the product could warn about it
    if not (np.isfinite(m).all() and np.abs(m.conj().T @ m - np.eye(dim)).max() <= UNITARITY_TOL):
        raise GateError(f"{name}: matrix is not unitary within {UNITARITY_TOL}")
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class ColumnAction:
    """The nonzero entries U_ij of a gate matrix, column by column.

    Column j's ``counts[j]`` entries are ``start[j]:start[j + 1]``, in
    ascending row order: the bits of row index i (one per gate slot) in
    `row_bits`, and the coefficient ``re + i im``.  `permutation` is set
    when every column has exactly one entry; then entry j is column j's.
    """

    start: np.ndarray
    counts: np.ndarray
    row_bits: np.ndarray
    re: np.ndarray
    im: np.ndarray
    permutation: bool


def column_action(matrix: np.ndarray) -> ColumnAction:
    """The nonzero entries of every column of `matrix`, for `apply_columns`."""
    matrix = np.asarray(matrix, dtype=complex)
    dim = matrix.shape[0]
    cols, rows = np.nonzero(matrix.T)          # column-major, rows ascending
    counts = np.bincount(cols, minlength=dim)
    width = dim.bit_length() - 1               # gate slots: 1 or 2
    row_bits = (rows[:, None] >> np.arange(width - 1, -1, -1)) & 1
    coeffs = matrix[rows, cols]
    arrays = (np.concatenate(([0], counts.cumsum())), counts, row_bits.astype(np.uint8),
              coeffs.real.copy(), coeffs.imag.copy())
    for array in arrays:  # gates share their action with every caller
        array.setflags(write=False)
    return ColumnAction(*arrays, bool((counts == 1).all()))


@dataclass(frozen=True)
class Gate1:
    """A single-site unitary (2x2, checked at construction), with its
    `column_action` as ``action``."""

    name: str
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _check_unitary(self.matrix, 2, self.name))
        object.__setattr__(self, "action", column_action(self.matrix))

    @property
    def n_sites(self) -> int:
        return 1


@dataclass(frozen=True)
class Gate2:
    """A two-site unitary (4x4, checked at construction), with its
    `column_action` as ``action``."""

    name: str
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _check_unitary(self.matrix, 4, self.name))
        object.__setattr__(self, "action", column_action(self.matrix))

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

#: The named built-in gates, built once: gates are immutable, so every
#: lookup shares them.
_BUILTIN = {gate.name: gate for gate in (system_field_gate(), field_copy_gate(),
                                         field_swap_gate(), hadamard_gate(),
                                         identity_gate())}


def gate_by_name(name: str) -> Gate:
    """Resolve a gate name as used in schedules and scenario configs.

    Recognised: ``U_si``, ``U_copy``, ``U_swap``, ``H``, ``I``, ``rot(<float>)``.
    The five fixed names return one shared instance each.
    """
    if name in _BUILTIN:
        return _BUILTIN[name]
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
# Every gate carries its column action: the nonzero entries of each
# column, which say where one basis state goes.  Application is then
# array lookups on the column index of every term.  For permutation
# gates, the built-in interactions among them, each term moves to
# exactly one new basis string and no two terms meet.

def apply_columns(table: TermTable, positions: tuple, action: ColumnAction) -> TermTable:
    """Apply a precomputed column action at basis-string positions.

    Low-level routine shared by every evolution path; returns a new
    pruned table.  The result equals a loop over the terms in order that
    adds ``U_ij * amp`` into output basis string i, creating it at its
    first contribution: output terms are in order of first appearance,
    and each amplitude is its contributions summed in that order.
    """
    bits, amps = table.bits, table.amps
    if len(positions) == 1:
        col = bits[:, positions[0]]
    else:
        col = 2 * bits[:, positions[0]] + bits[:, positions[1]]
    if action.permutation:  # term t moves to row_bits[col[t]], nothing merges
        re, im = complex_product(action.re[col], action.im[col], amps.real, amps.imag)
        out = bits.copy()
        _write(out, positions, action.row_bits[col])
        return TermTable.pruned(out, 0.0 + re, 0.0 + im)   # 0j + U_ij * amp

    if not len(col):
        return table
    # one entry per nonzero U_ij of each term's column, in (term, row) order
    counts = action.counts[col]
    term = np.arange(len(col)).repeat(counts)
    ends = counts.cumsum()
    entry = np.arange(ends[-1]) + (action.start[col] - ends + counts).repeat(counts)
    re, im = complex_product(action.re[entry], action.im[entry],
                             amps.real[term], amps.imag[term])
    expanded = bits[term]                      # each entry's output basis string
    _write(expanded, positions, action.row_bits[entry])
    slot, source = first_appearance(row_keys(expanded))
    out_re, out_im = np.zeros(len(source)), np.zeros(len(source))
    np.add.at(out_re, slot, re)                # adds in entry order, onto 0.0
    np.add.at(out_im, slot, im)
    return TermTable.pruned(expanded[source], out_re, out_im)


def _write(bits: np.ndarray, positions: tuple, new: np.ndarray):
    """bits[:, positions[j]] = new[:, j], in place."""
    for j, p in enumerate(positions):
        bits[:, p] = new[:, j]


def apply_gate1(state: PureState, gate: Gate1, site: int) -> PureState:
    """Apply a single-site gate, returning a new state."""
    pos = state.lattice.position(site)
    table = apply_columns(state.table, (pos,), gate.action)
    return PureState(state.lattice, table)


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
    table = apply_columns(state.table, positions, gate.action)
    return PureState(state.lattice, table)
