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
from typing import ClassVar, Optional

import numpy as np

from .lattice import (PureState, TermTable, _value_text, complex_product, first_appearance,
                      index_ranges, owner_rows, row_keys)

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
    # a unitary's parts lie in [-1, 1], so a NaN or inf part, or one such as
    # 1e308 whose products would overflow, is refused before the product warns
    if not (np.abs(m.view(float)).max(initial=0.0) <= 2.0
            and np.abs(m.conj().swapaxes(1, 2) @ m - np.eye(dim)).max(initial=0.0)
            <= UNITARITY_TOL):
        raise GateError(f"{name}: matrix is not unitary within {UNITARITY_TOL}")
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class ColumnAction:
    """The nonzero entries U_ij of a gate matrix, column by column.

    Column j's ``counts[j]`` entries are ``start[j]:start[j + 1]``, in
    ascending row order: the bits of row index i (one per gate slot) in
    `row_bits`, and the coefficient ``re + i im``.  `classical` is set
    when every column has one entry and every coefficient is exactly 1.
    A classical gate's ``masks`` are what `move_layer` reads: one int per
    slot of its two-slot form (see `_slots`), whose bit c is the slot's
    new bit in column c.  They are None for any other action.

    The action of several d x d gates joined (`column_action` of a
    stack, `join_actions`, `take_actions`) is that of their block-diagonal
    sum: column b d + j is column j of gate b.
    """

    start: np.ndarray
    counts: np.ndarray
    row_bits: np.ndarray
    re: np.ndarray
    im: np.ndarray
    classical: bool
    masks: Optional[tuple]


def _action(counts, row_bits, re, im) -> ColumnAction:
    arrays = (np.concatenate(([0], counts.cumsum())), counts, row_bits.astype(np.uint8),
              re, im)
    for array in arrays:  # gates share their action with every caller
        array.setflags(write=False)
    width = row_bits.shape[1]
    classical = bool((counts == 1).all() and ((re == 1.0) & (im == 0.0)).all())
    masks = None
    if classical and len(counts) == 1 << width:   # one gate, not a joined stack
        # a one-site gate's columns 0 and 1 are columns 0 and 3 of its two-slot form
        column = np.array([0, 1, 2, 3] if width == 2 else [0, 3])
        masks = tuple((row_bits[:, j] << column).sum().item() for j in (0, -1))
    return ColumnAction(*arrays, classical, masks)


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


def take_actions(action: ColumnAction, gates: np.ndarray) -> ColumnAction:
    """The gates numbered `gates` of a joined action, joined in that order."""
    dim = 1 << action.row_bits.shape[1]
    cols = (np.asarray(gates)[:, None] * dim + np.arange(dim)).ravel()
    counts = action.counts[cols]
    entry = index_ranges(action.start[cols], counts)
    return _action(counts, action.row_bits[entry], action.re[entry], action.im[entry])


@dataclass(frozen=True)
class Gate:
    """A unitary on `n_sites` sites (2^n_sites square, checked at
    construction by `unitary_stack`), with its `column_action` as
    ``action``.  Build a `Gate1` or a `Gate2`, which set `n_sites`."""

    name: str
    matrix: np.ndarray
    n_sites: ClassVar[int]

    def __post_init__(self):
        matrices = unitary_stack([self.matrix], 1 << self.n_sites, self.name)
        object.__setattr__(self, "matrix", matrices[0])
        object.__setattr__(self, "action", column_action(matrices))


class Gate1(Gate):
    """A single-site unitary (2x2)."""

    n_sites = 1


class Gate2(Gate):
    """A two-site unitary (4x4)."""

    n_sites = 2


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
    raise GateError(f"unknown gate name {_value_text(name)}")


# ---------------------------------------------------------------------------
# sparse application
# ---------------------------------------------------------------------------
#
# Every gate carries its column action: the nonzero entries of each
# column, which say where one basis state goes.  Application is then
# array lookups on the column index of every term: `apply_columns`
# expands each term into one entry per nonzero of its column and adds
# the entries that land on one basis string onto 0.0, in entry order.
# The classical gates, permutations whose coefficients are all 1 (the
# built-in interactions and I), move bits and leave amplitudes alone.
# `schedule.play_step` cuts a run of them into *layers*, stretches of
# gates on pairwise disjoint positions, which commute: one brickwork step
# is one layer.  `move_layer` plays a whole layer in one pass over the
# bits, transposed to one row per position: it gathers the rows of the
# gates' left and right slots, reads each term's column under every gate
# at once as a (gates, terms) uint8 array, and looks each slot's new bits
# up in the gates' stacked `ColumnAction.masks` by a shift and a mask,
# then scatters them back.  A lone gate is looked up in its own row bits
# through `_place`, the writer that `apply_columns` uses too.  The run
# costs one copy of the bits and one prune in all.

def apply_columns(table: TermTable, positions, action: ColumnAction) -> TermTable:
    """Apply a precomputed column action at basis-string positions.

    Low-level routine shared by every evolution path; returns a new
    pruned table.  The result equals a loop over the terms in order that
    adds ``U_ij * amp`` into output basis string i, creating it at its
    first contribution: output terms are in order of first appearance,
    and each amplitude is its contributions summed in that order.

    The shape of `positions` picks the gate of each owner (see
    `StateBlock`).  k ints play one gate, `action`, on every owner at
    those positions, as runs and record scans do.  A (B, k) array plays
    gate b on owner b: row b holds its positions, and `action` joins the
    B gates' actions in owner order, so each row reads its owner's
    positions and block of columns, as verification's random blocks do.
    Rows of different owners never merge, so every owner's rows come
    out as a call on them alone gives them.
    """
    bits, amps, owner = table.bits, table.amps, table.owner
    shared = getattr(positions, "ndim", 1) == 1   # k ints, or a (B, k) array
    # one index per gate slot, selecting each row's bit at that slot
    if shared:                                 # the same positions on every row
        at = [(slice(None), p) for p in positions]
    else:                                      # each row its owner's positions
        rows = np.arange(len(bits))
        at = [(rows, p[owner]) for p in np.asarray(positions).T]
    col = _columns(bits, at)
    if not shared:                             # and its owner's block of columns
        col = col + owner * (1 << len(at))
    if not len(col):
        return table
    # one entry per nonzero U_ij of each term's column, in (term, row) order
    counts = action.counts[col]
    term = np.arange(len(col)).repeat(counts)
    entry = index_ranges(action.start[col], counts)
    re, im = complex_product(action.re[entry], action.im[entry],
                             amps.real[term], amps.imag[term])
    expanded = bits[term]                      # each entry's output basis string
    owner = owner_rows(owner, term)
    if not shared:
        at = [(np.arange(len(term)), p[term]) for _, p in at]
    _place(expanded, at, action.row_bits, entry)
    slot, source = first_appearance(row_keys(expanded, owner))
    out_re, out_im = np.zeros(len(source)), np.zeros(len(source))
    np.add.at(out_re, slot, re)                # adds in entry order, onto 0.0
    np.add.at(out_im, slot, im)
    return TermTable.pruned(expanded[source], out_re, out_im,
                             owner_rows(owner, source))


def move_layer(rows: np.ndarray, layer: list):
    """Play a layer of classical gates (`ColumnAction.classical`) in
    place on a writable (n, T) view `rows` of a bit matrix, whose row p
    holds every term's bit at position p.

    A layer is one or more ``(positions, action)`` pairs whose positions
    are pairwise disjoint, so its gates commute and one pass plays them
    all.  A lone gate reads each term's column and writes each slot's
    bit from its row bits (`_place`).  A layer of g gates gathers the
    rows of its left and right slots, forms every term's column under
    every gate as one (g, T) uint8 array, and writes slot j's rows as
    bit `col` of the gates' ``masks[j]``, every temporary in uint8.  A
    one-site gate at p is played as a two-site one at (p, p), whose
    columns 0 and 3 are its columns 0 and 1; both of its slots write the
    same bits.

    `apply_columns` moves the bits the same way and merges no rows: each
    column has one entry, and distinct rows of an owner move to distinct
    rows.  It adds each amplitude, 1 re - 0 im and 1 im + 0 re, onto 0.0,
    which differs from (re, im) only in the sign of a zero part, and
    ``0.0 +`` clears that sign too.  So for finite amplitudes,
    `TermTable.pruned` of the moved bits, ``0.0 +`` the amplitudes and
    the owners is the table that `apply_columns` gives, bit for bit,
    after one such gate or after a run of them.
    """
    if len(layer) == 1:             # one lookup of the gate's own row bits per slot
        (positions, action), = layer
        _place(rows, positions, action.row_bits, _columns(rows, positions))
        return
    # one index array per slot, and each slot's (g, 1) masks
    at = [np.array(slot) for slot in zip(*[_slots(p) for p, _ in layer])]
    masks = np.array([action.masks for _, action in layer], dtype=np.uint8).T[:, :, None]
    col = rows[at[0]]                          # (g, T): each term's column per gate
    col <<= 1
    col |= rows[at[1]]
    for index, mask in zip(at, masks):
        bit = mask >> col
        bit &= 1
        rows[index] = bit


def _slots(positions) -> tuple:
    """A classical gate's two slots: its positions, or (p, p) for one site."""
    return (positions[0], positions[0]) if len(positions) == 1 else positions


def _columns(bits: np.ndarray, at: list) -> np.ndarray:
    """Each row's gate column: its bits at the gate slots `at`, as one index."""
    return bits[at[0]] if len(at) == 1 else 2 * bits[at[0]] + bits[at[1]]


def _place(bits: np.ndarray, at: list, row_bits: np.ndarray, entry: np.ndarray):
    """bits[at[j]] = row_bits[entry, j] for each gate slot j, in place:
    slot by slot, one 1-D lookup each."""
    for j, index in enumerate(at):
        bits[index] = row_bits[:, j].take(entry)


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
