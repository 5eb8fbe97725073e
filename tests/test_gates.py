import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import chain_for
from oracles import loop_reduced_pulse_operator, rabi_u2
from swapchannel import ChainSpec, solve_parameters
from swapchannel.gates import IDEAL_CNOT, reduced_pulse_operator

#: A design-point block is its hold (-1) or flip (-i) only to within round-off:
#: at most 6.3 eps over these phase-exact designs (M, N), at (3, 0).
DESIGN_ATOL = 16 * np.finfo(float).eps


@pytest.fixture(params=[(1, 0), (3, 0), (3, 2), (5, 4)], ids=lambda mn: "M{}-N{}".format(*mn))
def phase_exact(request):
    m, n = request.param
    return solve_parameters(10.0, m=m, n=n)


def brute_force_swap() -> np.ndarray:
    """Swap of two adjacent qubits built from explicit basis maps: three
    controlled flips (targets first, second, first), each holding a branch
    with phase -1 and flipping it with -i."""

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


class TestIdealGates:
    def test_cnot_action_by_column(self):
        c = IDEAL_CNOT
        assert not c.flags.writeable
        assert_allclose(c.conj().T @ c, np.eye(4), rtol=0, atol=0)
        basis = np.eye(4)
        # Control 0: hold with phase -1; control 1: flip with phase -i.
        assert_allclose(c @ basis[0], -basis[0])
        assert_allclose(c @ basis[1], -basis[1])
        assert_allclose(c @ basis[2], -1j * basis[3])
        assert_allclose(c @ basis[3], -1j * basis[2])

    def test_swap_matches_brute_force(self, design):
        # On a 2-qubit chain both qubits are ends, pulsed at bias +xi: the
        # exact pulse operators (first, second, first) compose to the swap.
        spec = chain_for(design, 2)
        ends = [reduced_pulse_operator(spec, q, design.xi_mhz, design.t_ns)[0] for q in (0, 1)]
        assert_allclose(ends[0] @ ends[1] @ ends[0], brute_force_swap(), atol=1e-9)

    def test_swap_exchanges_amplitudes(self, rng):
        s = brute_force_swap()
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        a /= np.linalg.norm(a)
        out = s @ a
        # |01> and |10> amplitudes trade places with no extra phase.
        assert_allclose(out[1], a[2], atol=1e-12)
        assert_allclose(out[2], a[1], atol=1e-12)
        assert_allclose(out[0], -a[0], atol=1e-12)
        assert_allclose(out[3], a[3], atol=1e-12)

    def test_swap_squares_to_identity(self):
        s = brute_force_swap()
        assert_allclose(s @ s, np.eye(4), atol=1e-12)

    def test_three_pulses_on_a_pair_make_a_swap(self):
        # Alternating target pulses (first, second, first) compose to the
        # swap; this is the composition the scheduler emits.
        c = IDEAL_CNOT
        perm = np.eye(4)[[0, 2, 1, 3]]
        g_first = perm @ c @ perm
        composed = g_first @ c @ g_first
        assert_allclose(composed, brute_force_swap(), atol=1e-12)

    @pytest.mark.parametrize(
        "states, flips",
        [((0, 0), False), ((1, 1), False), ((0, 1), True), ((1, 0), True), ((0,), False), ((1,), True)],
    )
    def test_copy_flip_rule(self, phase_exact, states, flips):
        # A copy pulse flips its target with -i iff its frozen neighbours
        # differ, and holds it with -1 iff they agree; an end qubit, pulsed
        # at +xi, sees a virtual |0> in place of its missing neighbour.
        interior = len(states) == 2
        design = phase_exact
        op, _ = reduced_pulse_operator(chain_for(design, 3), 1 if interior else 2,
                                       0.0 if interior else design.xi_mhz, design.t_ns)
        if interior:
            rows = [(states[0] << 2) | (t << 1) | states[1] for t in (0, 1)]
        else:
            rows = [(states[0] << 1) | t for t in (0, 1)]
        want = np.array([[0, -1j], [-1j, 0]]) if flips else -np.eye(2)
        assert_allclose(op[np.ix_(rows, rows)], want, rtol=0, atol=DESIGN_ATOL)


class TestReducedPulseOperator:
    def test_interior_design_point_blocks(self, phase_exact):
        design = phase_exact
        op, first = reduced_pulse_operator(chain_for(design, 3), 1, 0.0, design.t_ns)
        assert first == 0
        assert op.shape == (8, 8)
        hold = -np.eye(2)
        flip = np.array([[0, -1j], [-1j, 0]])
        for zl in (0, 1):
            for zr in (0, 1):
                rows = [zl * 4 + t * 2 + zr for t in (0, 1)]
                block = op[np.ix_(rows, rows)]
                expected = hold if zl == zr else flip
                assert_allclose(block, expected, rtol=0, atol=DESIGN_ATOL)

    def test_end_qubit_design_point_is_cnot(self, phase_exact):
        # End pulse at bias xi with the single neighbour as control.
        design = phase_exact
        op, first = reduced_pulse_operator(chain_for(design, 3), 2, design.xi_mhz, design.t_ns)
        assert first == 1
        assert op.shape == (4, 4)
        assert_allclose(op, IDEAL_CNOT, rtol=0, atol=DESIGN_ATOL)

    def test_blocks_match_rotation_oracle(self, rng):
        # Away from the solved point the blocks must still be the exact
        # two-level rotations for each neighbour configuration.
        delta, xi, bias, t = 17.0, 9.0, 4.0, 6.3
        op, _ = reduced_pulse_operator(ChainSpec(3, delta, xi), 1, bias, t)
        for zl in (0, 1):
            for zr in (0, 1):
                sigma = bias + xi * ((1 - 2 * zl) + (1 - 2 * zr))
                rows = [zl * 4 + t_ * 2 + zr for t_ in (0, 1)]
                assert_allclose(
                    op[np.ix_(rows, rows)], rabi_u2(delta, sigma, t), atol=1e-9
                )

    def test_off_resonant_pulse_is_not_a_gate(self, design):
        op, _ = reduced_pulse_operator(chain_for(design, 3), 1, 0.0, design.t_ns * 0.9)
        hold_block = op[np.ix_([0, 2], [0, 2])]
        assert not np.allclose(hold_block, -np.eye(2), atol=1e-3)

    @pytest.mark.parametrize(
        "has_left, has_right", [(True, True), (True, False), (False, True), (False, False)]
    )
    def test_matches_loop_oracle_bit_for_bit(self, has_left, has_right, design, rng):
        # every qubit of the chains n = 1..4 whose neighbours are these
        # (n = 1 is the neighbourless 2x2 pulse): the design point (an end
        # qubit pulses at +xi), then random points
        pulse_bias = 0.0 if has_left and has_right else design.xi_mhz
        cases = [(design.delta_mhz, design.xi_mhz, pulse_bias, design.t_ns)]
        for _ in range(40):
            delta, xi = rng.uniform(0.1, 100.0, size=2)
            cases.append((delta, xi, rng.uniform(-200.0, 200.0), rng.uniform(0.0, 50.0)))
        chains = [(n, q) for n in range(1, 5) for q in range(n)
                  if (q > 0, q < n - 1) == (has_left, has_right)]
        assert chains
        for n, q in chains:
            for delta, xi, bias, t in cases:
                op, first = reduced_pulse_operator(ChainSpec(n, delta, xi), q, bias, t)
                want = loop_reduced_pulse_operator(
                    delta, xi, bias, t, has_left=has_left, has_right=has_right
                )
                assert np.array_equal(op, want)
                assert first == q - (q > 0)
                assert not op.flags.writeable

    def test_folded_blocks_are_blocks_of_the_full_operator(self, design, rng):
        # a frozen neighbour (z = +1 for |0>, -1 for |1>) leaves the block:
        # the result is, bit for bit, the full operator's block at that
        # neighbour's basis state, for every qubit of the chains n = 1..4
        cases = [(design.delta_mhz, design.xi_mhz, 0.0, design.t_ns)]
        for _ in range(10):
            delta, xi = rng.uniform(0.1, 100.0, size=2)
            cases.append((delta, xi, rng.uniform(-200.0, 200.0), rng.uniform(0.0, 50.0)))
        seen = set()
        for n in range(1, 5):
            for q in range(n):
                has_left, has_right = q > 0, q < n - 1
                for left in (None, 1, -1) if has_left else (None,):
                    for right in (None, 1, -1) if has_right else (None,):
                        seen.add((has_left, has_right, left, right))
                        sites = [z for z, present in ((left, has_left), (None, True), (right, has_right))
                                 if present]
                        pick = tuple(slice(None) if z is None else (1 - z) // 2 for z in sites)
                        for delta, xi, bias, t in cases:
                            spec = ChainSpec(n, delta, xi)
                            full, _ = reduced_pulse_operator(spec, q, bias, t)
                            op, first = reduced_pulse_operator(spec, q, bias, t, left, right)
                            block = full.reshape((2,) * (2 * len(sites)))[pick + pick]
                            assert np.array_equal(op, block.reshape(op.shape))
                            assert first == q - (has_left and left is None)
                            assert not op.flags.writeable
        assert len(seen) == 16  # 9 interior, 3 + 3 ends, 1 lone qubit

    @pytest.mark.parametrize(
        "qubit, left, right",
        [(1, 0, None), (1, None, 2), (1, True, None), (1, 1.0, None), (1, "1", None),
         (0, 1, None), (2, None, -1)],
    )
    def test_bad_frozen_values_are_refused(self, design, qubit, left, right):
        # a z value is +1 or -1, and a chain end has no neighbour to freeze
        with pytest.raises(ValueError, match="z must be"):
            reduced_pulse_operator(chain_for(design, 3), qubit, 0.0, design.t_ns, left, right)

    def test_qubit_outside_the_chain_is_refused(self, design):
        for q in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                reduced_pulse_operator(chain_for(design, 3), q, 0.0, design.t_ns)

    @pytest.mark.parametrize("qubit", [True, 1.0, 1.5, "1"])
    def test_qubit_that_is_not_an_integer_is_refused(self, design, qubit):
        # True used to give qubit 1's block at first qubit 0, 1.5 first qubit 0.5
        with pytest.raises(ValueError, match=f"qubit must be an integer, got {qubit!r}"):
            reduced_pulse_operator(chain_for(design, 3), qubit, 0.0, design.t_ns)

    def test_numpy_integer_qubit_is_taken(self, design):
        spec = chain_for(design, 3)
        # it is taken as the plain int, so the cached operator is shared
        op, first = reduced_pulse_operator(spec, np.int64(1), 0.0, design.t_ns, 1, None)
        assert op is reduced_pulse_operator(spec, 1, 0.0, design.t_ns, 1, None)[0]
        assert type(first) is int and first == 1

    def test_unitarity(self, design):
        spec = chain_for(design, 3)
        for q in range(3):
            op, _ = reduced_pulse_operator(spec, q, 1.0, 4.0)
            assert_allclose(op @ op.conj().T, np.eye(op.shape[0]), atol=1e-12)
