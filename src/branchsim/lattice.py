"""Lattice geometry and sparse pure states.

The model lives on a finite 1-D chain of two-level sites.  Each site is
either a *system* site (a qubit we later measure) or a *field* site (an
environment spin).  Both kinds are encoded with a single bit per site:

    bit 0  <->  |0> for a system site,  up-spin   for a field site
    bit 1  <->  |1> for a system site,  down-spin for a field site

A basis string lists one bit per site in lattice order, leftmost site
first (most significant).  States are stored sparsely, as a `TermTable`
of two arrays in term order: a (T, n) uint8 bit matrix, one row per
basis string, and a complex128 vector of the T amplitudes.  Only
nonzero amplitudes are kept, and amplitudes with |a| < PRUNE_EPS are
dropped as floating-point dust.  The branch structure produced by the
model's gates keeps T small even on long chains.  A state's
``amplitudes`` is a read-only basis tuple -> amplitude view of the same
terms, built from the arrays on first lookup.

Term order is the order of first appearance: gates keep their input
order and place a merged term where its first contribution arises.
Sums over terms (norms, partial traces, branch weights) run in that
order, left to right.

PureState objects are immutable: every operation returns a new state.
"""

import cmath
import functools
import json
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from decimal import Context, Decimal
from enum import Enum
from typing import Iterable

import numpy as np

#: States produced by constructors and gates stay normalised to this.
NORM_TOL = 1e-12

#: Amplitudes smaller than this in modulus are treated as exact zeros.
PRUNE_EPS = 1e-14

BasisString = tuple  # tuple of 0/1 ints, one per site, lattice order


class LatticeError(ValueError):
    """Malformed lattice, or a site id that does not belong to one."""


class StateError(ValueError):
    """Malformed state construction (bad basis string, zero norm, ...)."""


def _whole_text(n: int) -> str:
    """A whole number for an error text: in full up to 20 digits, and to
    6 significant digits past that, so that a size, horizon or site read
    from 1e308 prints as 1e+308, not as its 309 digits."""
    return str(n) if abs(n) < 10 ** 20 else format(Decimal(n).normalize(Context(prec=6)), "g")


def _id_text(site_id) -> str:
    """A site id for an error text: its str, or an int by `_whole_text`."""
    return _whole_text(site_id) if type(site_id) is int else str(site_id)


def _ids_text(ids) -> str:
    """A list or tuple of site ids as its repr, each int by `_whole_text`."""
    parts = [_whole_text(i) if type(i) is int else repr(i) for i in ids]
    if type(ids) is tuple:
        return f"({', '.join(parts)}{',' if len(parts) == 1 else ''})"
    return f"[{', '.join(parts)}]"


class SiteKind(Enum):
    SYSTEM = "system"
    FIELD = "field"


@dataclass(frozen=True)
class Site:
    """A lattice site: an integer coordinate plus its kind."""

    index: int
    kind: SiteKind


@dataclass(frozen=True)
class Lattice:
    """An ordered chain of sites with strictly increasing indices.

    Site indices are arbitrary integers (they may be negative, e.g. a
    chain extending to the left of the system), but must be strictly
    increasing so that basis strings have a unique reading order.
    """

    sites: tuple

    def __post_init__(self):
        sites = tuple(self.sites)
        object.__setattr__(self, "sites", sites)
        if not sites:
            raise LatticeError("lattice needs at least one site")
        indices = tuple([s.index for s in sites])
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise LatticeError(f"site indices must strictly increase, "
                               f"got {_ids_text(list(indices))}")
        object.__setattr__(self, "_indices", indices)
        object.__setattr__(self, "_pos", {i: p for p, i in enumerate(indices)})

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def indices(self) -> tuple:
        """The site ids in lattice order, one tuple made at construction."""
        return self._indices

    @property
    def system_sites(self) -> tuple:
        return tuple(s.index for s in self.sites if s.kind is SiteKind.SYSTEM)

    @property
    def field_sites(self) -> tuple:
        return tuple(s.index for s in self.sites if s.kind is SiteKind.FIELD)

    def position(self, site_id: int) -> int:
        """Position of a site id within basis strings (0 = leftmost)."""
        try:
            return self._pos[site_id]
        except KeyError:
            raise LatticeError(f"site {_id_text(site_id)} is not on the lattice "
                               f"{_ids_text(self.indices)}") from None

    def kind(self, site_id: int) -> SiteKind:
        return self.sites[self.position(site_id)].kind


def chain_lattice(system: Iterable[int], fields: Iterable[int]) -> Lattice:
    """Lattice with the given system and field site indices (any order)."""
    tagged = [(i, SiteKind.SYSTEM) for i in system] + [(i, SiteKind.FIELD) for i in fields]
    tagged.sort(key=lambda t: t[0])
    return Lattice(tuple(Site(i, k) for i, k in tagged))


#: The spellings of a bit: in a basis string, and as an item of a bit sequence.
_CHAR_BITS = {"0": 0, "1": 1}
_NUMBER_BITS = {0: 0, 1: 1}


def _as_bits(basis, n_sites: int) -> BasisString:
    """Normalise a basis-string argument: a string of the characters '0'
    and '1', or an iterable of the numbers 0 and 1.  Anything else, such
    as a space, a Unicode digit or the string '1' in a tuple, is a
    StateError."""
    spelling = _CHAR_BITS if isinstance(basis, str) else _NUMBER_BITS
    try:
        bits = tuple([spelling[b] for b in basis])
    except (KeyError, TypeError):   # a foreign item, or one that cannot be a key
        bits = ()                   # no lattice is empty
    if len(bits) != n_sites:
        raise StateError(f"basis string {basis!r} is not {n_sites} bits of 0/1")
    return bits


def _amplitude(basis, amp) -> complex:
    """`amp` as a complex; a NaN or infinite part, or a modulus past the
    float range (where ``abs`` raises OverflowError), is a StateError."""
    amp = complex(amp)
    if not cmath.isfinite(amp):
        raise StateError(f"basis string {basis!r}: amplitude {amp!r} is not finite")
    if math.hypot(amp.real, amp.imag) == math.inf:
        raise StateError(f"basis string {basis!r}: amplitude {amp!r} has a modulus "
                         f"past the float range")
    return amp


def ordered_sum(values: np.ndarray) -> float:
    """Left-to-right sum of a float vector, as Python's ``0.0 + x0 + x1 +
    ...`` computes it (``np.sum`` adds pairwise, so its last bits differ)."""
    return float(values.cumsum()[-1]) + 0.0 if len(values) else 0.0


def complex_product(ar, ai, br, bi) -> tuple:
    """(re, im) of (ar + i ai) (br + i bi), by Python's complex formula.

    numpy's own complex multiply may fuse multiply-adds and round
    differently; on real arrays each product and sum is rounded once,
    which keeps array results bit-equal to a loop over Python complexes.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def row_keys(bits: np.ndarray, owner=None) -> np.ndarray:
    """One opaque sortable key per row of a 0/1 matrix, for
    `first_appearance`: equal rows of one owner give equal keys, and keys
    sort like (owner, bit tuple) pairs.  `owner` holds one whole number
    per row, or is None when every row has the same owner.

    A row and its owner are packed into one uint64 when their bits fit
    in 64, and into a byte-string (void) key otherwise; uint64 keys sort
    several times faster.  Only grouping and order matter to callers, so
    either encoding gives them the same results.
    """
    n = bits.shape[1]
    tag = int(owner.max()).bit_length() if owner is not None and len(owner) else 0
    packed = np.packbits(bits, axis=1)         # bytes, first site most significant
    if n + tag <= 64:
        words = np.zeros((len(bits), 8), dtype=np.uint8)
        words[:, 8 - packed.shape[1]:] = packed
        # the row in the low n bits, once the last byte's padding is shifted out
        keys = words.view(">u8").ravel() >> np.uint64(8 * packed.shape[1] - n)
        return keys | owner.astype(np.uint64) << np.uint64(n) if tag else keys
    if tag:
        width = (tag + 7) // 8                 # big-endian owner bytes first
        prefix = owner.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - width:]
        packed = np.concatenate([prefix, packed], axis=1)
    packed = np.ascontiguousarray(packed)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def flipped_keys(keys: np.ndarray, n: int, *positions) -> np.ndarray:
    """The `row_keys` of the same rows of n sites, same owners, with the
    bit at each of `positions` flipped: each is a lattice position, or an
    array of one position per key.  Among the keys that agree at those
    positions, flipping keeps their order."""
    if keys.dtype == np.uint64:
        bit = np.left_shift(np.uint64(1), np.arange(n - 1, -1, -1, dtype=np.uint64))
        for p in positions:
            keys = keys ^ bit[p]
        return keys
    raw = keys.view(np.uint8).reshape(len(keys), keys.dtype.itemsize).copy()
    lead = raw.shape[1] - (n + 7) // 8   # the owner bytes before the row's
    rows = np.arange(len(keys))
    for p in positions:
        raw[rows, lead + p // 8] ^= np.right_shift(0x80, p % 8).astype(np.uint8)
    return raw.view(keys.dtype).ravel()


def first_appearance(keys: np.ndarray) -> tuple:
    """Group equal entries of a key vector, numbering the groups in order
    of first appearance.  Returns (group of each entry, index of each
    group's first entry)."""
    perm = keys.argsort(kind="stable")         # equal keys keep index order
    ordered = keys[perm]
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    starts[1:] = ordered[1:] != ordered[:-1]
    first = perm[starts]                       # groups in key order
    order = first.argsort()
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    group = np.empty(len(keys), dtype=np.intp)
    group[perm] = rank[starts.cumsum() - 1]
    return group, first[order]


def index_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices starts[i] .. starts[i] + counts[i] - 1 for every i, in order."""
    ends = counts.cumsum()
    return np.arange(ends[-1] if len(ends) else 0) + (starts - ends + counts).repeat(counts)


#: Owner 0 for any number of rows, the owner of a one-state table's rows:
#: a zero-stride view that holds one integer, sliced to each table's
#: length (a slice is far cheaper than a new broadcast view).
_OWNER_0 = np.broadcast_to(np.intp(0), (sys.maxsize // 8,))


def owner_rows(owner: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``owner[rows]`` for an index array `rows`.  The owner of a
    one-state table, a zero-stride slice of `_OWNER_0`, stays such a
    slice, since every row it gathers is owner 0."""
    return _OWNER_0[:len(rows)] if owner.strides == (0,) else owner[rows]


class TermTable:
    """The terms of one or several sparse states as read-only arrays.

    ``bits`` is (T, n) uint8, one basis string per row; ``amps`` holds the
    T complex128 amplitudes, none of them below PRUNE_EPS in modulus;
    ``owner`` gives the state of each row.  Rows run owner by owner, each
    owner's in its term order, and no owner holds a basis string twice.
    The table of one state has owner 0 on every row: the default, a
    zero-stride view that holds no memory.  Gates and constructors build
    tables directly; `len` is the number of rows.
    """

    __slots__ = ("bits", "amps", "owner")

    def __init__(self, bits: np.ndarray, amps: np.ndarray, owner: np.ndarray = _OWNER_0):
        owner = owner[:len(amps)]
        for array in (bits, amps, owner):
            array.setflags(write=False)
        self.bits = bits
        self.amps = amps
        self.owner = owner

    def __len__(self) -> int:
        return len(self.amps)

    @classmethod
    def pruned(cls, bits: np.ndarray, re: np.ndarray, im: np.ndarray,
               owner: np.ndarray = _OWNER_0) -> "TermTable":
        """Table of the rows whose amplitude re + i im is at least PRUNE_EPS."""
        amps = np.empty(len(re), dtype=complex)
        amps.real = re
        amps.imag = im
        keep = np.hypot(re, im) >= PRUNE_EPS
        if np.count_nonzero(keep) < len(keep):
            keep = np.flatnonzero(keep)
            bits, amps, owner = bits[keep], amps[keep], owner_rows(owner, keep)
        return cls(bits, amps, owner)


class AmplitudeView(Mapping):
    """Read-only basis tuple -> amplitude mapping over a `TermTable`.

    Iterates in term order.  The dict behind it is built on the first
    lookup or iteration, at most once; `len` reads the table.
    """

    __slots__ = ("_table", "_dict")

    def __init__(self, table: TermTable, mapping=None):
        self._table = table
        self._dict = mapping

    def _map(self) -> dict:
        if self._dict is None:
            self._dict = dict(zip(map(tuple, self._table.bits.tolist()),
                                  self._table.amps.tolist()))
        return self._dict

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, basis):
        return self._map()[basis]

    def __iter__(self):
        return iter(self._map())

    def __repr__(self):
        return f"AmplitudeView({self._map()!r})"


@dataclass(frozen=True)
class PureState:
    """Sparse pure state: basis string -> complex amplitude.

    `amplitudes` may be any mapping from basis strings ('0110' or bit
    sequences) to amplitudes; every basis string is checked and dust is
    pruned.  A `TermTable`, which gates and constructors pass, is taken
    as it is.  Afterwards ``table`` holds the terms and ``amplitudes`` is
    their read-only `AmplitudeView`; states are value objects and never
    mutated in place.  Constructors (`product_state`, `entangled_state`)
    and gate application keep states normalised; `norm` lets callers
    check.

    A state is the block of one: like a `StateBlock` it has a
    ``lattice``, a ``table`` (every row of owner 0) and a ``size``, 1, so
    every block kernel takes it as it is.
    """

    lattice: Lattice
    amplitudes: Mapping
    size = 1   # a class attribute, not a field

    def __post_init__(self):
        table, checked = self.amplitudes, None
        if not isinstance(table, TermTable):
            n = self.lattice.n_sites
            given = {}
            for basis, amp in table.items():
                bits = _as_bits(basis, n)
                if bits in given:   # the same basis string in two spellings
                    raise StateError(f"duplicate basis string {basis!r}")
                given[bits] = _amplitude(basis, amp)
            checked = {bits: amp for bits, amp in given.items() if abs(amp) >= PRUNE_EPS}
            table = TermTable(
                np.array(list(checked), dtype=np.uint8).reshape(len(checked), n),
                np.fromiter(checked.values(), dtype=complex, count=len(checked)))
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "amplitudes", AmplitudeView(table, checked))

    @property
    def n_terms(self) -> int:
        return len(self.table)

    def amplitude(self, basis) -> complex:
        """Amplitude of one basis string (0 if absent)."""
        return self.amplitudes.get(_as_bits(basis, self.lattice.n_sites), 0j)

    def terms(self):
        """(basis, amplitude) pairs in lexicographic basis order."""
        return sorted(self.amplitudes.items())

    def __repr__(self):
        parts = ", ".join(
            f"{''.join(map(str, b))}: {a:.6g}" for b, a in list(self.terms())[:6]
        )
        more = "" if self.n_terms <= 6 else f", ... ({self.n_terms} terms)"
        return f"PureState({parts}{more})"


@dataclass(frozen=True)
class StateBlock:
    """B states of one lattice held as one `TermTable`.

    The rows of state b are its terms, in its own term order, with
    ``table.owner`` b; the states follow one another (owner-major).
    Gates and analyses on a block never merge rows of different owners,
    so each state keeps the terms, order and sums it would have alone.
    A `PureState` is the block of one.
    """

    lattice: Lattice
    table: TermTable
    size: int

    @classmethod
    def of(cls, states) -> "StateBlock":
        """The block of a non-empty sequence of states on one lattice.  The
        block of one state holds that state's own table, arrays unchanged."""
        if len(states) == 1:
            return cls(states[0].lattice, states[0].table, 1)
        tables = [state.table for state in states]
        owner = np.arange(len(tables)).repeat([len(t) for t in tables])
        table = TermTable(np.concatenate([t.bits for t in tables]),
                          np.concatenate([t.amps for t in tables]), owner)
        return cls(states[0].lattice, table, len(tables))

    def states(self) -> list:
        """The block's states, as `PureState`s sharing its arrays."""
        t = self.table
        ends = np.bincount(t.owner, minlength=self.size).cumsum().tolist()
        return [PureState(self.lattice, TermTable(t.bits[lo:hi], t.amps[lo:hi]))
                for lo, hi in zip([0] + ends, ends)]


def norm(state: PureState) -> float:
    """Sum of squared amplitude moduli, sum_b |a_b|^2 (1.0 for unit states),
    added in term order."""
    re, im = state.table.amps.real, state.table.amps.imag
    return ordered_sum(re * re + im * im)


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b>, summed over the (typically small) intersection of supports."""
    if a.lattice != b.lattice:
        raise LatticeError("inner product needs states on the same lattice")
    if a.n_terms > b.n_terms:  # iterate the smaller support
        return complex(np.conj(inner_product(b, a)))
    return sum(
        (amp.conjugate() * b.amplitudes.get(basis, 0j) for basis, amp in a.amplitudes.items()),
        start=0j,
    )


def overlap(a: PureState, b: PureState) -> float:
    """|<a|b>| — equality of unit states up to global phase iff this is 1."""
    return abs(inner_product(a, b))


def product_state(lattice: Lattice, site_states: Mapping) -> PureState:
    """Product state from per-site two-component vectors.

    `site_states` maps every site id on the lattice to a length-2
    complex vector (amplitudes of bit 0 and bit 1), each normalised
    within NORM_TOL.
    """
    indices = lattice.indices
    if set(indices) != set(site_states):
        raise StateError(f"site states must cover the lattice exactly "
                         f"(missing {_ids_text(sorted(set(indices) - set(site_states)))}, "
                         f"extra {_ids_text(sorted(set(site_states) - set(indices)))})")
    vecs = _site_vectors([site_states[i] for i in indices])
    if vecs is None:   # some site is malformed, or near the norm bound: check each
        vecs = np.array([_site_vector(i, site_states[i]) for i in indices])

    kept = np.hypot(vecs.real, vecs.imag) >= PRUNE_EPS   # (n, 2): bits each site takes
    # a site whose parts are all real with no sign bit set keeps a product
    # of such sites real and non-negative: its parts hold no -0.0
    plain = ~(np.signbit(vecs.view(float)).any(axis=1) | vecs.imag.any(axis=1))
    # grow the product one site at a time, as a loop over the terms would:
    # each term splits into one term per kept bit, in (old term, bit) order
    re, im = np.ones(1), None     # im None: every factor so far is plain, so im is 0.0
    signed_zero = False           # whether some part of re, im is -0.0; None: not known
    for p, (vec, (keep0, keep1), plain_p) in enumerate(zip(vecs.tolist(), kept.tolist(),
                                                            plain.tolist())):
        if keep0 and keep1:
            fr, fi = vecs.real[p], vecs.imag[p]
        else:                                            # every term times one number
            factor = vec[keep1]
            # times 1 + 0j, re - im * 0 and re * 0 + im are re and im unless
            # a part is -0.0, so such a factor is skipped while none is
            if factor == 1.0 and math.copysign(1.0, factor.imag) > 0.0:
                if signed_zero is None:
                    signed_zero = _has_negative_zero(re) or _has_negative_zero(im)
                if not signed_zero:
                    continue
            fr, fi = factor.real, factor.imag
        if im is None and plain_p:                  # re fr - 0 * 0 is re fr; re 0 + 0 fr is 0
            re = (re[:, None] * fr).ravel()
            continue
        if im is None:
            im = np.zeros(len(re))
        re, im = complex_product(re[:, None], im[:, None], fr, fi)
        re, im = re.ravel(), im.ravel()
        signed_zero = None
    if im is None:
        im = np.zeros(len(re))
    # so term t's bit at the j-th of the k two-valued sites is bit k - 1 - j
    # of t, and a one-valued site's bit is the one it keeps
    two = kept.all(axis=1)
    k = int(two.sum())
    bits = np.repeat(kept[None, :, 1].view(np.uint8), len(re), axis=0)
    # the big-endian bytes of each t that hold its k low bits, unpacked
    index = np.arange(len(re), dtype=">u8").view(np.uint8).reshape(-1, 8)[:, 8 - (k + 7) // 8:]
    bits[:, two] = np.unpackbits(index, axis=1)[:, (8 - k) % 8:]
    return PureState(lattice, TermTable.pruned(bits, re, im))


def _has_negative_zero(values: np.ndarray) -> bool:
    return bool(np.signbit(values[values == 0.0]).any())


def _site_vectors(vectors: list):
    """The (n, 2) complex array of n site vectors when each has two
    components and a squared norm within NORM_TOL of 1 by a margin that
    no rounding of `_site_vector`'s test can cross; otherwise None."""
    try:
        vecs = np.array(vectors, dtype=complex)
    except (TypeError, ValueError):
        return None
    if vecs.shape != (len(vectors), 2):
        return None
    with np.errstate(over="ignore"):   # a square past the float range fails the test as inf
        squares = vecs.real * vecs.real + vecs.imag * vecs.imag
    if not (np.abs(squares.sum(axis=1) - 1.0) <= NORM_TOL - 1e-14).all():   # NaN fails too
        return None
    return vecs


def _site_vector(site_id, vec) -> np.ndarray:
    """One site's vector as two complex components, or the StateError
    that says what is wrong with it."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if vec.shape != (2,):
        raise StateError(f"site {_id_text(site_id)}: want 2 components, got shape {vec.shape}")
    if not abs(np.vdot(vec, vec).real - 1.0) <= NORM_TOL:   # NaN fails too
        raise StateError(f"site {_id_text(site_id)}: vector not normalised "
                         f"(|v|^2 = {float(np.vdot(vec, vec).real)!r})")
    return vec


def entangled_state(lattice: Lattice, terms: Iterable) -> PureState:
    """Normalised superposition from explicit (basis, amplitude) terms.

    Duplicate basis strings are an error (ambiguous intent), as is a
    term list whose squared norm is zero or overflows.  Amplitudes are
    rescaled to unit norm.
    """
    n = lattice.n_sites
    amps = {}
    for basis, amp in terms:
        bits = _as_bits(basis, n)
        if bits in amps:
            raise StateError(f"duplicate basis string {basis!r}")
        amps[bits] = _amplitude(basis, amp)
    # left to right, so the bits do not depend on the Python version
    # (`sum` of floats is compensated from Python 3.12)
    values = np.array(list(amps.values()), dtype=complex)
    with np.errstate(over="ignore"):
        total = ordered_sum(values.real * values.real + values.imag * values.imag)
    if total < PRUNE_EPS:
        raise StateError("zero-norm term list")
    if total == math.inf:   # would scale every amplitude to 0
        raise StateError("term list norm overflows")
    scale = 1.0 / math.sqrt(total)
    return PureState(lattice, {b: a * scale for b, a in amps.items()})


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------
#
# States serialise to a small JSON document.  Amplitude components are
# written with 17 significant digits so that reading the document back
# reproduces every float64 bit-exactly.
#
# The document's "lattice" list of {"index", "kind"} objects and its
# "terms" list of {"basis", "re", "im"} objects are also how a scenario
# config spells a lattice and an initial superposition; both documents
# are read by `read_lattice` and `read_terms`, every list in either goes
# through `read_list`, every entry of a list of objects through
# `read_object`, and every number through `read_number` or `read_whole`.
# A config's lattice, product vectors and schedule are first read by
# exact-type tests alone (an int is an int, not a bool or 2.0); a part
# that fails one is read again by those readers, which word its error.

def _is_number(value) -> bool:
    """A JSON number is an int or a float, never a boolean (which Python
    counts as an int), string or null."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_number(value, key: str):
    """`value`, unchanged, if it is a number; `key` names it in the error."""
    if type(value) is float or type(value) is int or _is_number(value):
        return value
    raise StateError(f"'{key}' must be a number, got {value!r}")


def read_whole(value, key: str) -> int:
    """A whole number: an int, or a float with no fraction such as 2.0.
    Fractions, booleans and strings are errors; none is truncated, read
    as 0 or 1, or parsed."""
    if type(value) is int:
        return value
    if not _is_number(value) or (isinstance(value, float) and not value.is_integer()):
        raise StateError(f"'{key}' must be a whole number, got {value!r}")   # inf, NaN too
    return int(value)


def read_list(value, key: str) -> list:
    """`value`, unchanged, if it is a JSON list; `key` names it in the
    error (an object would otherwise be read as its list of keys)."""
    if not isinstance(value, list):
        raise StateError(f"'{key}' must be a list, got {value!r}")
    return value


class _Entry(dict):
    """A list entry read by `read_object`: a missing field names the list
    `key`.  Each list has its own subclass (`_entry_class`), so an entry
    is made by dict's own copy, with no Python-level ``__init__``."""

    key = ""

    def __missing__(self, field):
        raise StateError(f"'{self.key}' entry {dict(self)!r} has no '{field}'")


@functools.lru_cache(maxsize=None)
def _entry_class(key: str) -> type:
    """The `_Entry` subclass of the list `key`, made once: keys are the
    few list names of the document formats, so the cache stays small."""
    return type("_Entry", (_Entry,), {"key": key})


def read_object(value, key: str) -> dict:
    """An entry of the list `key`, if it is a JSON object; `key` names the
    list in the error, and in the error for a missing field."""
    if not isinstance(value, dict):
        raise StateError(f"'{key}' entries must be objects, got {value!r}")
    return _entry_class(key)(value)


#: The site kinds by their names in documents.
_KINDS = {kind.value: kind for kind in SiteKind}


def read_lattice(entries) -> Lattice:
    """A lattice from a list of {"index": whole number, "kind": "system"
    or "field"} objects, in index order.  A list of objects whose every
    index is an int and kind a kind's name is read by those exact-type
    tests alone; any other is read again by the checking readers, which
    accept an index of 2.0 and word every error."""
    if type(entries) is list:
        sites = []
        for s in entries:
            if type(s) is not dict:
                break
            index, kind = s.get("index"), s.get("kind")
            if type(index) is not int or type(kind) is not str or kind not in _KINDS:
                break
            sites.append(Site(index, _KINDS[kind]))
        else:
            return Lattice(tuple(sites))
    sites = [read_object(s, "lattice") for s in read_list(entries, "lattice")]
    return Lattice(tuple(Site(read_whole(s["index"], "index"), SiteKind(s["kind"]))
                         for s in sites))


def read_terms(entries) -> dict:
    """Basis string -> complex amplitude from a list of {"basis": string,
    "re": number, "im": number} objects; "im" may be left out.  A basis
    string may not repeat.  Amplitudes are not rescaled."""
    amps = {}
    for t in read_list(entries, "terms"):
        t = read_object(t, "terms")
        basis = t["basis"]
        if not isinstance(basis, str):
            raise StateError(f"basis {basis!r} is not a string")
        if basis in amps:
            raise StateError(f"duplicate basis string {basis!r}")
        amps[basis] = complex(read_number(t["re"], "re"), read_number(t.get("im", 0.0), "im"))
    return amps


def lattice_to_json(lattice: Lattice) -> list:
    """The document's "lattice" list."""
    return [{"index": s.index, "kind": s.kind.value} for s in lattice.sites]


def state_to_document(state: PureState) -> str:
    """Serialise to JSON text (sorted terms; bit-exact round trip)."""
    lattice_json = json.dumps(lattice_to_json(state.lattice))
    term_lines = ",\n".join(
        f'    {{"basis": "{"".join(map(str, bits))}", '
        f'"re": {amp.real:.17g}, "im": {amp.imag:.17g}}}'
        for bits, amp in state.terms()
    )
    return f'{{\n  "lattice": {lattice_json},\n  "terms": [\n{term_lines}\n  ]\n}}\n'


def state_from_document(text: str) -> PureState:
    """Inverse of `state_to_document`.  Any malformed part, or a state
    `PureState` refuses, is a StateError."""
    try:
        doc = json.loads(text)
        return PureState(read_lattice(doc["lattice"]), read_terms(doc["terms"]))
    except RecursionError as exc:   # json.loads of arrays or objects nested too deeply
        raise StateError("state document is nested too deeply to read") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StateError(f"malformed state document: {exc}") from exc
