import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchsim as bs
from branchsim.lattice import lattice_to_json
from conftest import random_state, terms_to_json

R2 = 1 / math.sqrt(2)


def two_site_lattice():
    return bs.chain_lattice([0], [1])


class TestLattice:
    def test_positions_and_kinds(self):
        lat = bs.chain_lattice([0, 5], [1, 2, 3, 4])
        assert lat.indices == (0, 1, 2, 3, 4, 5)
        assert lat.system_sites == (0, 5)
        assert lat.field_sites == (1, 2, 3, 4)
        assert lat.position(0) == 0 and lat.position(5) == 5
        assert lat.kind(5) is bs.SiteKind.SYSTEM

    def test_negative_indices_sort_before_zero(self):
        lat = bs.chain_lattice([0], [-1, 1])
        assert lat.indices == (-1, 0, 1)
        assert lat.position(-1) == 0

    def test_duplicate_indices_rejected(self):
        with pytest.raises(bs.LatticeError):
            bs.chain_lattice([0], [0, 1])

    def test_empty_rejected(self):
        with pytest.raises(bs.LatticeError):
            bs.Lattice(())

    def test_unknown_site_rejected(self):
        with pytest.raises(bs.LatticeError):
            two_site_lattice().position(7)


class TestProductState:
    def test_plus_times_up(self):
        state = bs.product_state(two_site_lattice(), {0: [R2, R2], 1: [1, 0]})
        assert state.n_terms == 2
        assert state.amplitude("00") == pytest.approx(R2)
        assert state.amplitude("10") == pytest.approx(R2)
        assert state.amplitude("01") == 0

    def test_norm_is_one(self):
        state = bs.product_state(two_site_lattice(), {0: [0.6, 0.8j], 1: [0, 1]})
        assert bs.norm(state) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([[1, 0], [0, 1], [R2, R2], [0.6, -0.8j], [1, 1e-15],
                                     [3e-16j, 1]]), min_size=1, max_size=12))
    def test_bits_equal_the_int64_formula(self, vectors):
        # the bit matrix is filled column by column in uint8; its bytes must
        # be those of the one int64 np.where it was built with, for sites of
        # two kept bits and of one (|0>, |1> and a dust component alike)
        lattice = bs.chain_lattice([0], range(1, len(vectors)))
        state = bs.product_state(lattice, dict(zip(lattice.indices, vectors)))
        vecs = np.array(vectors, dtype=complex)
        kept = np.hypot(vecs.real, vecs.imag) >= bs.PRUNE_EPS
        two = kept.all(axis=1)
        shift = two[::-1].cumsum()[::-1] - two
        index = np.arange(1 << int(two.sum()))[:, None]
        bits = np.where(two, (index >> shift) & 1, kept[:, 1]).astype(np.uint8)
        assert state.table.bits.dtype == np.uint8
        assert state.table.bits.shape == bits.shape
        assert state.table.bits.tobytes() == bits.tobytes()

    def test_missing_site_rejected(self):
        with pytest.raises(bs.StateError):
            bs.product_state(two_site_lattice(), {0: [1, 0]})

    def test_unnormalised_vector_rejected(self):
        with pytest.raises(bs.StateError):
            bs.product_state(two_site_lattice(), {0: [1, 1], 1: [1, 0]})

    @pytest.mark.parametrize("bad, message", [
        ([1, 1], "site 1: vector not normalised"),
        ([float("nan"), 0], "site 1: vector not normalised .*nan"),   # NaN used to pass
        ([1, 0, 0], r"site 1: want 2 components, got shape \(3,\)"),
        ([[1], [0]], None),
        (["x", 1], "complex"),
    ])
    def test_errors_name_the_first_bad_site(self, bad, message):
        # sites are checked together; an error still names the first bad one
        lattice = bs.chain_lattice([0], [1, 2, 3])
        site_states = {0: [1, 0], 1: bad, 2: [0.6, 0.8], 3: [2, 0]}
        if message is None:   # any shape with two entries is a vector
            site_states[3] = [0, 1]
            assert bs.product_state(lattice, site_states).amplitude("0011") == 0.8
            return
        with pytest.raises((bs.StateError, ValueError), match=message):
            bs.product_state(lattice, site_states)


class TestEntangledState:
    def test_renormalises(self):
        state = bs.entangled_state(two_site_lattice(), [("01", 1.0), ("10", 1.0)])
        assert bs.norm(state) == pytest.approx(1.0, abs=1e-12)
        assert state.amplitude("01") == pytest.approx(R2)

    def test_duplicate_basis_rejected(self):
        with pytest.raises(bs.StateError):
            bs.entangled_state(two_site_lattice(), [("01", 1.0), ("01", -1.0)])

    def test_zero_norm_rejected(self):
        with pytest.raises(bs.StateError):
            bs.entangled_state(two_site_lattice(), [("01", 0.0)])

    def test_tuple_and_string_basis_agree(self):
        lat = two_site_lattice()
        a = bs.entangled_state(lat, [((0, 1), 1.0)])
        b = bs.entangled_state(lat, [("01", 1.0)])
        assert bs.overlap(a, b) == pytest.approx(1.0)

    def test_norm_that_overflows_rejected(self):
        # the squared norm was inf, so every amplitude scaled to 0 and the
        # state had no terms; `run` on it died with a reshape traceback
        with pytest.raises(bs.StateError, match="overflows"):
            bs.entangled_state(two_site_lattice(), [("01", 1e200), ("10", 1.0)])

    def test_norm_is_added_left_to_right_whatever_sum_does(self, monkeypatch):
        # Python 3.12's `sum` of floats is compensated, as `math.fsum` is:
        # it gives 0.10000000000000002 for the ten squares below, where
        # 3.10/3.11 add left to right to 0.10000000000000003, and the
        # amplitudes (which reports print in full) would follow it
        monkeypatch.setattr(bs.lattice, "sum", math.fsum, raising=False)
        squares = [0.1 * 0.1] * 10
        total = 0.0
        for x in squares:
            total += x
        assert math.fsum(squares) != total
        lattice = bs.chain_lattice([0], [1, 2, 3])
        state = bs.entangled_state(lattice, [(format(i, "04b"), 0.1) for i in range(10)])
        want = np.full(10, 0.1 * (1.0 / math.sqrt(total)), dtype=complex)
        assert state.table.amps.tobytes() == want.tobytes()

    def test_amplitude_whose_modulus_overflows_rejected(self):
        # both parts are finite, but abs() raised OverflowError
        with pytest.raises(bs.StateError, match="'00'.*past the float range"):
            bs.PureState(two_site_lattice(), {"00": complex(1.5e308, 1.5e308)})

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf), -math.inf])
    def test_non_finite_amplitude_rejected(self, bad):
        # a NaN used to make the norm NaN and return a state with no terms
        with pytest.raises(bs.StateError, match="not finite"):
            bs.entangled_state(two_site_lattice(), [("01", 1.0), ("10", bad)])


class TestNormAndInner:
    def test_norm_is_quadratic_in_scale(self):
        # norm is the squared 2-norm, so scaling amplitudes by c scales it by c^2
        state = bs.PureState(two_site_lattice(), {"00": 0.5})
        assert bs.norm(state) == pytest.approx(0.25)

    def test_orthogonal_states(self):
        lat = two_site_lattice()
        a = bs.entangled_state(lat, [("00", 1.0)])
        b = bs.entangled_state(lat, [("11", 1.0)])
        assert bs.inner_product(a, b) == 0

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(7)
        a, b = random_state(rng), random_state(rng)
        assert bs.inner_product(a, b) == pytest.approx(
            np.conj(bs.inner_product(b, a)), abs=1e-12)

    def test_lattice_mismatch_rejected(self):
        a = bs.entangled_state(two_site_lattice(), [("00", 1.0)])
        b = bs.entangled_state(bs.chain_lattice([0], [1, 2]), [("000", 1.0)])
        with pytest.raises(bs.LatticeError):
            bs.inner_product(a, b)


class TestPruning:
    def test_dust_amplitudes_dropped(self):
        state = bs.PureState(two_site_lattice(), {"00": 1.0, "11": 1e-15})
        assert state.n_terms == 1

    @pytest.mark.parametrize("bad", [math.nan, complex(math.inf, 0.0), complex(0.0, -math.inf)])
    def test_non_finite_amplitude_is_not_dust(self, bad):
        # a NaN used to be pruned like dust, leaving a norm-1 state
        with pytest.raises(bs.StateError, match="not finite"):
            bs.PureState(two_site_lattice(), {"00": bad, "01": 1.0})

    def test_amplitudes_read_only(self):
        state = bs.entangled_state(two_site_lattice(), [("00", 1.0)])
        with pytest.raises(TypeError):
            state.amplitudes[(0, 0)] = 2.0


#: A basis given twice in two spellings, a basis in full-width digits
#: beside its ASCII spelling, and a basis with a space.  All three were
#: accepted or raised a bare ValueError: the second "01" won (1 term,
#: norm 0.64), `int` read "０１" as 01, and `int(" ")` failed.
FOREIGN = [[("01", 0.6), ((0, 1), 0.8)], [("01", 0.6), ("\uff10\uff11", 0.8)], [("0 ", 1.0)]]
FOREIGN_IDS = ["twice", "full-width-digits", "space"]


class TestBasisSpelling:
    @pytest.mark.parametrize("terms", FOREIGN, ids=FOREIGN_IDS)
    def test_rejected_by_the_constructor(self, terms):
        with pytest.raises(bs.StateError):
            bs.PureState(two_site_lattice(), dict(terms))
        with pytest.raises(bs.StateError):
            bs.entangled_state(two_site_lattice(), terms)

    @pytest.mark.parametrize("terms", FOREIGN, ids=FOREIGN_IDS)
    def test_rejected_in_a_document(self, terms):
        # a document spells every basis as a string, so "01" comes twice
        doc = {"lattice": lattice_to_json(two_site_lattice()),
               "terms": [{"basis": b if isinstance(b, str) else "01", "re": re, "im": 0.0}
                         for b, re in terms]}
        with pytest.raises(bs.StateError):
            bs.state_from_document(json.dumps(doc))

    def test_a_basis_given_twice_is_found_before_dust_is_pruned(self):
        with pytest.raises(bs.StateError, match="duplicate"):
            bs.PureState(two_site_lattice(), {"01": 1.0, (0, 1): 1e-15})

    @pytest.mark.parametrize("basis", ["0", "012", "0\u0661", ("0", "1"), (0, 2), (0.5, 1),
                                       (math.nan, 1), b"01", 1, [[0], [1]]])
    def test_only_the_characters_or_numbers_0_and_1_are_bits(self, basis):
        state = bs.entangled_state(two_site_lattice(), [("01", 1.0)])
        with pytest.raises(bs.StateError, match="bits of 0/1"):
            state.amplitude(basis)

    def test_numbers_equal_to_0_and_1_are_bits(self):
        state = bs.PureState(two_site_lattice(), {(1.0, np.uint8(0)): 0.6, "01": 0.8})
        assert list(state.amplitudes) == [(1, 0), (0, 1)]
        assert all(type(bit) is int for bits in state.amplitudes for bit in bits)


def term_bits(state) -> list:
    """A state's sorted terms with each amplitude as its 16 bytes."""
    return [(bits, struct.pack("<dd", amp.real, amp.imag)) for bits, amp in state.terms()]


#: Components whose `.17g` text `json.loads` reads as an int (integral
#: and below 1e17 in magnitude, -0.0 among them) or just as a float; at
#: most 1e300, so that an amplitude's modulus stays finite.
COMPONENTS = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 1e16, -1e16, 99999999999999984.0,
                               1e17, -1e17, 1e300, 0.5, 5e-324])
              | st.integers(-2 ** 60, 2 ** 60).map(float)
              | st.floats(min_value=-1e300, max_value=1e300))


class TestSerialisation:
    def test_round_trip_scenario_state(self, single_states, bidirectional_states,
                                       collision_states, epr_states):
        for state in single_states + bidirectional_states + collision_states + epr_states:
            back = bs.state_from_document(bs.state_to_document(state))
            assert back.lattice == state.lattice
            assert term_bits(back) == term_bits(state)  # bit-exact, not rescaled

    def test_document_object_built_directly(self, single_states, bidirectional_states,
                                            collision_states, epr_states):
        # repr tells 1 from 1.0 and 0 from -0.0, as the report's writer does
        for state in single_states + bidirectional_states + collision_states + epr_states:
            loaded = json.loads(bs.state_to_document(state))
            assert repr(lattice_to_json(state.lattice)) == repr(loaded["lattice"])
            assert repr(terms_to_json(state)) == repr(loaded["terms"])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(COMPONENTS, COMPONENTS), min_size=1, max_size=4))
    def test_document_object_of_integral_and_signed_zero_components(self, parts):
        state = bs.PureState(two_site_lattice(),
                             {basis: complex(re, im)
                              for basis, (re, im) in zip(("00", "01", "10", "11"), parts)})
        loaded = json.loads(bs.state_to_document(state))
        assert repr(terms_to_json(state)) == repr(loaded["terms"])

    LATTICE = [{"index": 0, "kind": "system"}, {"index": 1, "kind": "field"}]
    TERMS = [{"basis": "00", "re": 1.0, "im": 0.0}]

    @pytest.mark.parametrize("lattice, terms", [
        ([{"index": 0.5, "kind": "system"}, {"index": 1, "kind": "field"}], TERMS),
        ([{"index": 0, "kind": "system"}, {"index": True, "kind": "field"}], TERMS),
        ([{"index": 0, "kind": "system"}, {"index": "1", "kind": "field"}], TERMS),
        (LATTICE, [{"basis": "00", "re": 0.5, "im": 0.0}, {"basis": "00", "re": 0.5, "im": 0.0}]),
        (LATTICE, [{"basis": "00", "re": True, "im": 0.0}]),
        (LATTICE, [{"basis": "00", "re": 1.0, "im": None}]),
    ], ids=["index-fraction", "index-bool", "index-string", "repeated-basis", "re-bool",
            "im-null"])
    def test_document_outside_the_lattice_or_term_rules_rejected(self, lattice, terms):
        # the first five were accepted: the index went through int(), the
        # last of two equal basis strings won (norm 0.25), true was 1
        with pytest.raises(bs.StateError):
            bs.state_from_document(json.dumps({"lattice": lattice, "terms": terms}))

    @pytest.mark.parametrize("lattice, terms, mention", [
        ([1, 2], TERMS, "'lattice' entries must be objects, got 1"),
        (LATTICE, ["0"], "'terms' entries must be objects, got '0'"),
        ([{"index": 0}], TERMS, "'lattice' entry {'index': 0} has no 'kind'"),
        (LATTICE, [{"re": 1.0}], "'terms' entry {'re': 1.0} has no 'basis'"),
    ], ids=["lattice-int", "terms-string", "lattice-missing-kind", "terms-missing-basis"])
    def test_list_entry_that_is_not_a_whole_object_names_its_list(self, lattice, terms,
                                                                   mention):
        with pytest.raises(bs.StateError, match=re.escape(mention)):
            bs.state_from_document(json.dumps({"lattice": lattice, "terms": terms}))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_round_trip_random_states_bit_exact(self, seed):
        state = random_state(np.random.default_rng(seed))
        back = bs.state_from_document(bs.state_to_document(state))
        assert dict(back.amplitudes) == dict(state.amplitudes)

    def test_document_keeps_17_digits(self):
        state = bs.entangled_state(two_site_lattice(), [("01", 1.0), ("10", 1.0)])
        assert "0.70710678118654746" in bs.state_to_document(state)

    def test_malformed_document_rejected(self):
        with pytest.raises(bs.StateError):
            bs.state_from_document('{"lattice": [], "terms": "nope"}')
