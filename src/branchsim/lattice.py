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
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
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
        indices = [s.index for s in sites]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise LatticeError(f"site indices must strictly increase, got {indices}")
        object.__setattr__(self, "_pos", {s.index: p for p, s in enumerate(sites)})

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def indices(self) -> tuple:
        return tuple(s.index for s in self.sites)

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
            raise LatticeError(f"site {site_id} is not on the lattice {self.indices}") from None

    def kind(self, site_id: int) -> SiteKind:
        return self.sites[self.position(site_id)].kind


def chain_lattice(system: Iterable[int], fields: Iterable[int]) -> Lattice:
    """Lattice with the given system and field site indices (any order)."""
    tagged = [(i, SiteKind.SYSTEM) for i in system] + [(i, SiteKind.FIELD) for i in fields]
    tagged.sort(key=lambda t: t[0])
    return Lattice(tuple(Site(i, k) for i, k in tagged))


def _as_bits(basis, n_sites: int) -> BasisString:
    """Normalise a basis-string argument ('0110' or iterable of bits)."""
    if isinstance(basis, str):
        bits = tuple(int(c) for c in basis)
    else:
        bits = tuple(int(b) for b in basis)
    if len(bits) != n_sites or any(b not in (0, 1) for b in bits):
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


class TermTable:
    """The terms of a sparse state as two read-only arrays, in term order.

    ``bits`` is (T, n) uint8, one basis string per row; ``amps`` holds the
    T complex128 amplitudes, none of them below PRUNE_EPS in modulus and
    no basis string twice.  Gates and constructors build tables directly;
    `len` is the number of terms.

    A tagged table holds the terms of several states (a `StateBlock`):
    ``owner`` then gives the state of each row, and the no-repeat rule
    holds per owner.  A plain state's table has ``owner`` None.
    """

    __slots__ = ("bits", "amps", "owner")

    def __init__(self, bits: np.ndarray, amps: np.ndarray, owner=None):
        for array in (bits, amps, owner):
            if array is not None:
                array.setflags(write=False)
        self.bits = bits
        self.amps = amps
        self.owner = owner

    def __len__(self) -> int:
        return len(self.amps)

    @classmethod
    def pruned(cls, bits: np.ndarray, re: np.ndarray, im: np.ndarray,
               owner=None) -> "TermTable":
        """Table of the rows whose amplitude re + i im is at least PRUNE_EPS."""
        amps = np.empty(len(re), dtype=complex)
        amps.real = re
        amps.imag = im
        keep = np.hypot(re, im) >= PRUNE_EPS
        if np.count_nonzero(keep) < len(keep):
            bits, amps = bits[keep], amps[keep]
            owner = None if owner is None else owner[keep]
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

    def __contains__(self, basis) -> bool:
        return basis in self._map()

    def get(self, basis, default=None):
        return self._map().get(basis, default)

    def keys(self):
        return self._map().keys()

    def items(self):
        return self._map().items()

    def values(self):
        return self._map().values()

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
    """

    lattice: Lattice
    amplitudes: Mapping

    def __post_init__(self):
        table, checked = self.amplitudes, None
        if not isinstance(table, TermTable):
            n = self.lattice.n_sites
            checked = {}
            for basis, amp in table.items():
                amp = _amplitude(basis, amp)
                if abs(amp) >= PRUNE_EPS:
                    checked[_as_bits(basis, n)] = amp
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
    """B states of one lattice held as one tagged `TermTable`.

    The rows of state b are its terms, in its own term order, with
    ``table.owner`` b; the states follow one another (owner-major).
    Gates and analyses on a block never merge rows of different owners,
    so each state keeps the terms, order and sums it would have alone.
    """

    lattice: Lattice
    table: TermTable
    size: int

    @classmethod
    def of(cls, states) -> "StateBlock":
        """The block of a non-empty sequence of states on one lattice."""
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
    indices = set(lattice.indices)
    if indices != set(site_states):
        raise StateError(f"site states must cover the lattice exactly "
                         f"(missing {sorted(indices - set(site_states))}, "
                         f"extra {sorted(set(site_states) - indices)})")
    columns = []
    for site_id in lattice.indices:
        vec = np.asarray(site_states[site_id], dtype=complex).reshape(-1)
        if vec.shape != (2,):
            raise StateError(f"site {site_id}: want 2 components, got shape {vec.shape}")
        if not abs(np.vdot(vec, vec).real - 1.0) <= NORM_TOL:   # NaN fails too
            raise StateError(f"site {site_id}: vector not normalised "
                             f"(|v|^2 = {float(np.vdot(vec, vec).real)!r})")
        columns.append(vec)

    vecs = np.array(columns)
    kept = np.hypot(vecs.real, vecs.imag) >= PRUNE_EPS   # (n, 2): bits each site takes
    # grow the product one site at a time, as a loop over the terms would:
    # each term splits into one term per kept bit, in (old term, bit) order
    re, im = np.ones(1), np.zeros(1)
    for p, (keep0, keep1) in enumerate(kept.tolist()):
        part = slice(0 if keep0 else 1, 2 if keep1 else 1)   # the kept bits
        re, im = complex_product(re[:, None], im[:, None],
                                 vecs.real[p, part], vecs.imag[p, part])
        re, im = re.ravel(), im.ravel()
    # so term t's bit at a two-valued site is bit `shift` of t, where
    # `shift` counts the two-valued sites to its right
    two = kept.all(axis=1)
    shift = two[::-1].cumsum()[::-1] - two
    index = np.arange(len(re))[:, None]
    bits = np.where(two, (index >> shift) & 1, kept[:, 1]).astype(np.uint8)
    return PureState(lattice, TermTable.pruned(bits, re, im))


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
    total = sum(a.real * a.real + a.imag * a.imag for a in amps.values())
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
# are read by `read_lattice` and `read_terms`, and every number in
# either goes through `read_number` or `read_whole`.

def _is_number(value) -> bool:
    """A JSON number is an int or a float, never a boolean (which Python
    counts as an int), string or null."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_number(value, key: str):
    """`value`, unchanged, if it is a number; `key` names it in the error."""
    if not _is_number(value):
        raise StateError(f"'{key}' must be a number, got {value!r}")
    return value


def read_whole(value, key: str) -> int:
    """A whole number: an int, or a float with no fraction such as 2.0.
    Fractions, booleans and strings are errors; none is truncated, read
    as 0 or 1, or parsed."""
    if not _is_number(value) or (isinstance(value, float) and not value.is_integer()):
        raise StateError(f"'{key}' must be a whole number, got {value!r}")   # inf, NaN too
    return int(value)


def read_lattice(entries) -> Lattice:
    """A lattice from a list of {"index": whole number, "kind": "system"
    or "field"} objects, in index order."""
    return Lattice(tuple(Site(read_whole(s["index"], "index"), SiteKind(s["kind"]))
                         for s in entries))


def read_terms(entries) -> dict:
    """Basis string -> complex amplitude from a list of {"basis": string,
    "re": number, "im": number} objects; "im" may be left out.  A basis
    string may not repeat.  Amplitudes are not rescaled."""
    amps = {}
    for t in entries:
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


def _loaded(x: float):
    """What `json.loads` reads back from the `.17g` text of `x`: an int
    when `x` is integral and below 1e17 in magnitude (`.17g` then writes
    no exponent or point, and -0.0 as ``-0``), otherwise `x` itself."""
    return int(x) if x.is_integer() and abs(x) < 1e17 else x


def terms_to_json(state: PureState) -> list:
    """The "terms" list that `json.loads` reads from
    `state_to_document(state)`, built without the text."""
    return [{"basis": "".join(map(str, bits)), "re": _loaded(amp.real), "im": _loaded(amp.imag)}
            for bits, amp in state.terms()]


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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StateError(f"malformed state document: {exc}") from exc
