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


def unitary_stack(matrices, dim: int, name: str) -> np.ndarray:
    """`matrices` as a read-only complex (B, dim, dim) stack, each matrix
    checked unitary: elementwise |U^dag U - 1| <= UNITARITY_TOL.  A gate
    is the stack of one; a block of random gates is checked in one call."""
    m = np.array(matrices, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (dim, dim):
        raise GateError(f"{name}: want a {dim}x{dim} matrix, got shape {m.shape[1:]}")
    # a NaN or inf entry is rejected first, before the product could warn about it
    if not (np.isfinite(m).all() and np.abs(m.conj().swapaxes(1, 2) @ m - np.eye(dim))
            .max(initial=0.0) <= UNITARITY_TOL):
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

    The action of several d x d gates joined (`column_action` of a
    stack, `join_actions`, `take_actions`) is that of their block-diagonal
    sum: column b d + j is column j of gate b.
    """

    start: np.ndarray
    counts: np.ndarray
    row_bits: np.ndarray
    re: np.ndarray
    im: np.ndarray
    permutation: bool


def _action(counts, row_bits, re, im) -> ColumnAction:
    arrays = (np.concatenate(([0], counts.cumsum())), counts, row_bits.astype(np.uint8),
              re, im)
    for array in arrays:  # gates share their action with every caller
        array.setflags(write=False)
    return ColumnAction(*arrays, bool((counts == 1).all()))


def column_action(matrices) -> ColumnAction:
    """The nonzero entries of every column of a matrix, or of a (B, d, d)
    stack of them joined, for `apply_columns`."""
    m = np.asarray(matrices, dtype=complex)
    stack = m.reshape(-1, *m.shape[-2:])
    dim = stack.shape[-1]
    # gate by gate, column-major, rows ascending
    gate, cols, rows = np.nonzero(stack.swapaxes(1, 2))
    width = dim.bit_length() - 1               # gate slots: 1 or 2
    coeffs = stack[gate, rows, cols]
    return _action(np.bincount(gate * dim + cols, minlength=stack.shape[0] * dim),
                   (rows[:, None] >> np.arange(width - 1, -1, -1)) & 1,
                   coeffs.real.copy(), coeffs.imag.copy())


def join_actions(actions) -> ColumnAction:
    """The actions of several gates of one size, joined in order."""
    return _action(*(np.concatenate([getattr(a, field) for a in actions])
                     for field in ("counts", "row_bits", "re", "im")))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices starts[i] .. starts[i] + counts[i] - 1 for every i, in order."""
    ends = counts.cumsum()
    return np.arange(ends[-1] if len(ends) else 0) + (starts - ends + counts).repeat(counts)


def take_actions(action: ColumnAction, gates: np.ndarray) -> ColumnAction:
    """The gates numbered `gates` of a joined action, joined in that order."""
    dim = 1 << action.row_bits.shape[1]
    cols = (np.asarray(gates)[:, None] * dim + np.arange(dim)).ravel()
    counts = action.counts[cols]
    entry = _ranges(action.start[cols], counts)
    return _action(counts, action.row_bits[entry], action.re[entry], action.im[entry])


@dataclass(frozen=True)
class Gate1:
    """A single-site unitary (2x2, checked at construction by
    `unitary_stack`), with its `column_action` as ``action``."""

    name: str
    matrix: np.ndarray

    def __post_init__(self):
        matrices = unitary_stack([self.matrix], 2, self.name)
        object.__setattr__(self, "matrix", matrices[0])
        object.__setattr__(self, "action", column_action(matrices))

    @property
    def n_sites(self) -> int:
        return 1


@dataclass(frozen=True)
class Gate2:
    """A two-site unitary (4x4, checked at construction by
    `unitary_stack`), with its `column_action` as ``action``."""

    name: str
    matrix: np.ndarray

    def __post_init__(self):
        matrices = unitary_stack([self.matrix], 4, self.name)
        object.__setattr__(self, "matrix", matrices[0])
        object.__setattr__(self, "action", column_action(matrices))

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

def apply_columns(table: TermTable, positions, action: ColumnAction) -> TermTable:
    """Apply a precomputed column action at basis-string positions.

    Low-level routine shared by every evolution path; returns a new
    pruned table.  The result equals a loop over the terms in order that
    adds ``U_ij * amp`` into output basis string i, creating it at its
    first contribution: output terms are in order of first appearance,
    and each amplitude is its contributions summed in that order.

    A tagged table (see `StateBlock`) plays one gate per owner: row b of
    the (B, k) array `positions` holds owner b's positions, and `action`
    joins the B gates' actions in owner order.  Each row reads its
    owner's positions and block of columns, and rows of different owners
    never merge, so every owner's rows come out as a call on them alone
    gives them.
    """
    bits, amps, owner = table.bits, table.amps, table.owner
    # one index per gate slot, selecting each row's bit at that slot
    if owner is None:                          # the same positions on every row
        at = [(slice(None), p) for p in positions]
    else:                                      # each row its owner's positions
        rows = np.arange(len(bits))
        at = [(rows, p[owner]) for p in np.asarray(positions).T]
    col = bits[at[0]] if len(at) == 1 else 2 * bits[at[0]] + bits[at[1]]
    if owner is not None:                      # and its owner's block of columns
        col = col + owner * (1 << len(at))
    if action.permutation:  # term t moves to row_bits[col[t]], nothing merges
        re, im = complex_product(action.re[col], action.im[col], amps.real, amps.imag)
        out = bits.copy()
        _write(out, at, action.row_bits[col])
        return TermTable.pruned(out, 0.0 + re, 0.0 + im, owner)   # 0j + U_ij * amp

    if not len(col):
        return table
    # one entry per nonzero U_ij of each term's column, in (term, row) order
    counts = action.counts[col]
    term = np.arange(len(col)).repeat(counts)
    entry = _ranges(action.start[col], counts)
    re, im = complex_product(action.re[entry], action.im[entry],
                             amps.real[term], amps.imag[term])
    expanded = bits[term]                      # each entry's output basis string
    if owner is not None:
        owner = owner[term]
        at = [(np.arange(len(term)), p[term]) for _, p in at]
    _write(expanded, at, action.row_bits[entry])
    slot, source = first_appearance(row_keys(expanded, owner))
    out_re, out_im = np.zeros(len(source)), np.zeros(len(source))
    np.add.at(out_re, slot, re)                # adds in entry order, onto 0.0
    np.add.at(out_im, slot, im)
    return TermTable.pruned(expanded[source], out_re, out_im,
                            None if owner is None else owner[source])


def _write(bits: np.ndarray, at: list, new: np.ndarray):
    """bits[at[j]] = new[:, j] for each gate slot j, in place."""
    for j, index in enumerate(at):
        bits[index] = new[:, j]


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
