import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import loop_reduced_pulse_operator, rabi_u2
from swapchannel.gates import (
    PhasedGate,
    ideal_cnot,
    ideal_copy,
    ideal_swap,
    reduced_pulse_operator,
    track_phases,
)


def brute_force_swap() -> np.ndarray:
    """Swap built in-place from explicit basis maps, independently of the
    package's composition helper."""

    def controlled_flip(control: int, target: int) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        for c in (0, 1):
            for t in (0, 1):
                bits = [0, 0]
                bits[control] = c
                bits[target] = t
                src = bits[0] * 2 + bits[1]
                out = list(bits)
                phase = -1.0
                if c == 1:
                    out[target] ^= 1
                    phase = -1j
                dst = out[0] * 2 + out[1]
                m[dst, src] = phase
        return m

    g_left = controlled_flip(control=1, target=0)
    g_right = controlled_flip(control=0, target=1)
    return g_left @ g_right @ g_left


class TestPhasedGate:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            PhasedGate(matrix=np.diag([1.0, 2.0]), label="bad")

    @pytest.mark.parametrize("dim", [1, 3, 16])
    def test_rejects_unsupported_dims(self, dim):
        with pytest.raises(ValueError):
            PhasedGate(matrix=np.eye(dim, dtype=complex), label="bad")

    def test_dim_property(self):
        assert ideal_cnot().dim == 4
        assert ideal_copy([0]).dim == 2


class TestIdealGates:
    def test_cnot_action_by_column(self):
        c = ideal_cnot().matrix
        basis = np.eye(4)
        # Control 0: hold with phase -1; control 1: flip with phase -i.
        assert_allclose(c @ basis[0], -basis[0])
        assert_allclose(c @ basis[1], -basis[1])
        assert_allclose(c @ basis[2], -1j * basis[3])
        assert_allclose(c @ basis[3], -1j * basis[2])

    def test_swap_matches_brute_force(self):
        assert_allclose(ideal_swap().matrix, brute_force_swap(), atol=1e-12)

    def test_swap_exchanges_amplitudes(self, rng):
        s = ideal_swap().matrix
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        a /= np.linalg.norm(a)
        out = s @ a
        # |01> and |10> amplitudes trade places with no extra phase.
        assert_allclose(out[1], a[2], atol=1e-12)
        assert_allclose(out[2], a[1], atol=1e-12)
        assert_allclose(out[0], -a[0], atol=1e-12)
        assert_allclose(out[3], a[3], atol=1e-12)

    def test_swap_squares_to_identity(self):
        s = ideal_swap().matrix
        assert_allclose(s @ s, np.eye(4), atol=1e-12)

    def test_three_pulses_on_a_pair_make_a_swap(self):
        # Alternating target pulses (first, second, first) compose to the
        # swap; this is the composition the scheduler emits.
        c = ideal_cnot().matrix
        perm = np.eye(4)[[0, 2, 1, 3]]
        g_first = perm @ c @ perm
        composed = g_first @ c @ g_first
        assert_allclose(composed, ideal_swap().matrix, atol=1e-12)

    @pytest.mark.parametrize(
        "states, flips",
        [((0, 0), False), ((1, 1), False), ((0, 1), True), ((1, 0), True), ((0,), False), ((1,), True)],
    )
    def test_copy_flip_rule(self, states, flips):
        m = ideal_copy(states).matrix
        if flips:
            assert_allclose(m, np.array([[0, -1j], [-1j, 0]]), atol=1e-12)
        else:
            assert_allclose(m, -np.eye(2), atol=1e-12)

    def test_copy_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ideal_copy([])
        with pytest.raises(ValueError):
            ideal_copy([0, 1, 0])
        with pytest.raises(ValueError):
            ideal_copy([2])


class TestReducedPulseOperator:
    def test_interior_design_point_blocks(self, design):
        op = reduced_pulse_operator(
            design.delta_mhz, design.xi_mhz, 0.0, design.t_ns
        )
        assert op.shape == (8, 8)
        hold = -np.eye(2)
        flip = np.array([[0, -1j], [-1j, 0]])
        for zl in (0, 1):
            for zr in (0, 1):
                rows = [zl * 4 + t * 2 + zr for t in (0, 1)]
                block = op[np.ix_(rows, rows)]
                expected = hold if zl == zr else flip
                assert_allclose(block, expected, atol=1e-9)

    def test_end_qubit_design_point_is_cnot(self, design):
        # End pulse at bias xi with the single neighbour as control.
        op = reduced_pulse_operator(
            design.delta_mhz,
            design.xi_mhz,
            design.xi_mhz,
            design.t_ns,
            has_left=True,
            has_right=False,
        )
        assert op.shape == (4, 4)
        assert_allclose(op, ideal_cnot().matrix, atol=1e-9)

    def test_blocks_match_rotation_oracle(self, rng):
        # Away from the solved point the blocks must still be the exact
        # two-level rotations for each neighbour configuration.
        delta, xi, bias, t = 17.0, 9.0, 4.0, 6.3
        op = reduced_pulse_operator(delta, xi, bias, t)
        for zl in (0, 1):
            for zr in (0, 1):
                sigma = bias + xi * ((1 - 2 * zl) + (1 - 2 * zr))
                rows = [zl * 4 + t_ * 2 + zr for t_ in (0, 1)]
                assert_allclose(
                    op[np.ix_(rows, rows)], rabi_u2(delta, sigma, t), atol=1e-9
                )

    def test_off_resonant_pulse_is_not_a_gate(self, design):
        op = reduced_pulse_operator(
            design.delta_mhz, design.xi_mhz, 0.0, design.t_ns * 0.9
        )
        hold_block = op[np.ix_([0, 2], [0, 2])]
        assert not np.allclose(hold_block, -np.eye(2), atol=1e-3)

    @pytest.mark.parametrize(
        "has_left, has_right", [(True, True), (True, False), (False, True)]
    )
    def test_matches_loop_oracle_bit_for_bit(self, has_left, has_right, design, rng):
        # the design point (an end qubit pulses at +xi), then random points
        pulse_bias = 0.0 if has_left and has_right else design.xi_mhz
        cases = [(design.delta_mhz, design.xi_mhz, pulse_bias, design.t_ns)]
        for _ in range(40):
            delta, xi = rng.uniform(0.1, 100.0, size=2)
            cases.append((delta, xi, rng.uniform(-200.0, 200.0), rng.uniform(0.0, 50.0)))
        for args in cases:
            kwargs = {"has_left": has_left, "has_right": has_right}
            got = reduced_pulse_operator(*args, **kwargs)
            assert np.array_equal(got, loop_reduced_pulse_operator(*args, **kwargs))

    def test_unitarity(self, design):
        for kwargs in ({}, {"has_left": False}, {"has_right": False}):
            op = reduced_pulse_operator(
                design.delta_mhz, design.xi_mhz, 1.0, 4.0, **kwargs
            )
            assert_allclose(op @ op.conj().T, np.eye(op.shape[0]), atol=1e-12)


class TestTrackPhases:
    def test_single_swap_ledger(self):
        amps = np.full(4, 0.5)
        ledger = track_phases([(ideal_swap(), (0, 1))], amps)
        assert ledger.entry_for(0).target_index == 0
        assert_allclose(abs(ledger.entry_for(0).phase), np.pi, atol=1e-12)
        e = ledger.entry_for(1)
        assert e.target_index == 2
        assert_allclose(e.phase, 0.0, atol=1e-12)
        assert_allclose(ledger.entry_for(3).phase, 0.0, atol=1e-12)

    def test_two_hops_cancel_the_vacuum_phase(self):
        # Moving data 0 -> 2 on a 3-qubit register: both branches pick up
        # -1 twice, so the relative phase vanishes.
        seq = [(ideal_swap(), (0, 1)), (ideal_swap(), (1, 2))]
        amps = np.zeros(8)
        amps[0] = amps[4] = 1 / np.sqrt(2)
        ledger = track_phases(seq, amps)
        assert ledger.entry_for(4).target_index == 1
        assert_allclose(ledger.relative_phase(4, 0), 0.0, atol=1e-12)

    def test_three_hops_leave_pi(self):
        seq = [(ideal_swap(), (q, q + 1)) for q in range(3)]
        amps = np.zeros(16)
        amps[0] = amps[8] = 1 / np.sqrt(2)
        ledger = track_phases(seq, amps)
        assert ledger.entry_for(8).target_index == 1
        assert_allclose(abs(ledger.relative_phase(8, 0)), np.pi, atol=1e-12)

    def test_accepts_raw_matrices(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        ledger = track_phases([(x, (1,))], [1.0, 0.0, 0.0, 0.0])
        assert ledger.entry_for(0).target_index == 1

    def test_rejects_basis_splitting_gates(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        with pytest.raises(ValueError):
            track_phases([(h, (0,))], [1.0, 0.0])

    def test_rejects_non_contiguous_qubits(self):
        with pytest.raises(ValueError):
            track_phases([(ideal_swap(), (0, 2))], np.eye(8)[0])

    def test_missing_entry_raises(self):
        ledger = track_phases([], [1.0, 0.0])
        with pytest.raises(KeyError):
            ledger.entry_for(1)
