import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchsim as bs
from branchsim import gates
from conftest import random_state

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)

angles = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def basis_state(bits):
    lat = bs.chain_lattice([0], [1])
    return bs.entangled_state(lat, [(bits, 1.0)])


def action_of(gate, in_bits):
    """Image basis string of a 2-site basis state under the gate."""
    out = bs.apply_gate2(basis_state(in_bits), gate, (0, 1))
    assert out.n_terms == 1
    (bits, amp), = out.terms()
    assert amp == pytest.approx(1.0)
    return "".join(map(str, bits))


class TestGateTables:
    def test_system_field_gate(self):
        # flips the field bit only when the system bit is 0
        u = bs.system_field_gate()
        assert action_of(u, "00") == "01"
        assert action_of(u, "01") == "00"
        assert action_of(u, "10") == "10"
        assert action_of(u, "11") == "11"

    def test_field_copy_gate(self):
        # flips the right bit only when the left bit is 1
        u = bs.field_copy_gate()
        assert action_of(u, "00") == "00"
        assert action_of(u, "01") == "01"
        assert action_of(u, "10") == "11"
        assert action_of(u, "11") == "10"

    def test_field_swap_gate(self):
        u = bs.field_swap_gate()
        assert action_of(u, "01") == "10"
        assert action_of(u, "10") == "01"
        assert action_of(u, "00") == "00"
        assert action_of(u, "11") == "11"

    def test_interaction_gates_are_involutions(self):
        for gate in (bs.system_field_gate(), bs.field_copy_gate(), bs.field_swap_gate()):
            assert np.allclose(gate.matrix @ gate.matrix, np.eye(4), atol=1e-15)

    def test_pair_order_mirrors_asymmetric_gates(self):
        # applied as (1, 0), the system slot of U_si is site 1
        state = basis_state("00")
        mirrored = bs.apply_gate2(state, bs.system_field_gate(), (1, 0))
        assert mirrored.amplitude("10") == pytest.approx(1.0)


class TestRotationGate:
    def test_zero_angle_is_identity(self):
        assert np.allclose(bs.rotation_gate(0.0).matrix, np.eye(2), atol=1e-15)

    def test_half_turn_exchanges_basis_vectors(self):
        m = bs.rotation_gate(math.pi).matrix
        assert np.allclose(m, [[0, 1], [-1, 0]], atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(theta=angles)
    def test_tilts_measurement_axis(self, theta):
        r = bs.rotation_gate(theta).matrix
        tilted = math.cos(theta) * Z + math.sin(theta) * X
        assert np.allclose(r.conj().T @ Z @ r, tilted, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(theta=angles)
    def test_unitary_for_any_angle(self, theta):
        r = bs.rotation_gate(theta).matrix
        assert np.allclose(r.conj().T @ r, np.eye(2), atol=1e-12)

    def test_quarter_turn_matches_hadamard_conjugation(self):
        r, h = bs.rotation_gate(math.pi / 2).matrix, bs.hadamard_gate().matrix
        rho = np.diag([2 / 3, 1 / 3]).astype(complex)
        assert np.allclose(r.conj().T @ rho @ r, h.conj().T @ rho @ h, atol=1e-15)


class TestHadamard:
    def test_involution_and_axis_exchange(self):
        h = bs.hadamard_gate().matrix
        assert np.allclose(h @ h, np.eye(2), atol=1e-15)
        assert np.allclose(h @ Z @ h, X, atol=1e-15)


class TestGateValidation:
    def test_non_unitary_rejected(self):
        with pytest.raises(bs.GateError):
            bs.Gate2("bad", np.ones((4, 4)))

    def test_wrong_shape_rejected(self):
        with pytest.raises(bs.GateError, match="want a 2x2 matrix"):
            bs.Gate1("bad", np.eye(4))
        with pytest.raises(bs.GateError, match="want a 4x4 matrix"):
            bs.Gate2("bad", np.eye(2))

    def test_one_gate_class_of_one_or_two_sites(self):
        one, two = bs.hadamard_gate(), bs.field_swap_gate()
        assert isinstance(one, gates.Gate) and isinstance(two, gates.Gate)
        assert not isinstance(one, bs.Gate2) and not isinstance(two, bs.Gate1)
        assert (one.n_sites, two.n_sites) == (1, 2)
        assert (bs.Gate1.n_sites, bs.Gate2.n_sites) == (1, 2)
        assert repr(bs.identity_gate()).startswith("Gate1(name='I', ")

    def test_same_site_pair_rejected(self):
        with pytest.raises(bs.GateError):
            bs.apply_gate2(basis_state("00"), bs.field_swap_gate(), (1, 1))

    def test_matrices_frozen(self):
        gate = bs.system_field_gate()
        with pytest.raises(ValueError):
            gate.matrix[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e-11])
    def test_nan_inf_and_near_unitary_rejected(self, bad):
        # the check is |U^dag U - 1| <= UNITARITY_TOL entry by entry; a NaN
        # or inf entry fails it, and so does a deviation of 1e-11
        m = np.eye(4, dtype=complex)
        m[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a NaN or inf must not reach the matmul
            with pytest.raises(bs.GateError, match="not unitary"):
                bs.Gate2("bad", m)
            with pytest.raises(bs.GateError, match="not unitary"):
                bs.Gate1("bad", m[:2, :2] + np.diag([0, bad]))

    def test_round_off_within_tolerance_accepted(self):
        m = np.eye(2, dtype=complex)
        m[0, 0] += 4e-13
        assert bs.Gate1("close", m).matrix[0, 0] == 1 + 4e-13


class TestGateByName:
    def test_builtin_names(self):
        for name in ("U_si", "U_copy", "U_swap", "H", "I"):
            assert bs.gate_by_name(name).name == name

    def test_builtins_are_built_once_and_frozen(self):
        for name in ("U_si", "U_copy", "U_swap", "H", "I"):
            gate = bs.gate_by_name(name)
            assert bs.gate_by_name(name) is gate
            with pytest.raises(ValueError):
                gate.matrix[0, 0] = 5.0
            with pytest.raises(ValueError):
                gate.action.re[0] = 5.0          # the shared column action too
        assert np.array_equal(bs.gate_by_name("U_copy").matrix, bs.field_copy_gate().matrix)

    def test_rotation_names_round_trip(self):
        gate = bs.rotation_gate(0.775)
        again = bs.gate_by_name(gate.name)
        assert np.allclose(gate.matrix, again.matrix, atol=0)

    def test_unknown_name_rejected(self):
        with pytest.raises(bs.GateError):
            bs.gate_by_name("U_mystery")


class TestApplication:
    def test_norm_preserved_by_random_gates(self):
        rng = np.random.default_rng(11)
        state = random_state(rng)
        for _ in range(20):
            pair = tuple(rng.choice(5, size=2, replace=False))
            state = bs.apply_gate2(state, bs.random_gate2(rng), pair)
            assert bs.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_applications_commute(self):
        rng = np.random.default_rng(12)
        state = random_state(rng, n_sites=6)
        g1, g2 = bs.random_gate2(rng), bs.random_gate2(rng)
        ab = bs.apply_gate2(bs.apply_gate2(state, g1, (0, 1)), g2, (3, 4))
        ba = bs.apply_gate2(bs.apply_gate2(state, g2, (3, 4)), g1, (0, 1))
        assert bs.overlap(ab, ba) == pytest.approx(1.0, abs=1e-12)
        for bits, amp in ab.amplitudes.items():
            assert ba.amplitudes[bits] == pytest.approx(amp, abs=1e-12)

    def test_single_site_gate_application(self):
        state = basis_state("00")
        rotated = bs.apply_gate1(state, bs.rotation_gate(math.pi / 2), 0)
        assert rotated.amplitude("00") == pytest.approx(math.cos(math.pi / 4))
        assert rotated.amplitude("10") == pytest.approx(-math.sin(math.pi / 4))

    def test_permutation_gates_keep_term_count(self, collision_states):
        for state in collision_states:
            assert state.n_terms == 4

    def test_reproduces_first_coupling_step(self, single_states):
        stepped = bs.apply_gate2(single_states[0], bs.system_field_gate(), (0, 1))
        assert bs.overlap(stepped, single_states[1]) == pytest.approx(1.0, abs=1e-12)
