import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import chain_for
from oracles import kron_hamiltonian
from swapchannel import ChainSpec
from swapchannel.chain import (
    TwoLevelParams,
    build_hamiltonian,
    effective_bias,
    is_hermitian,
    is_unitary,
    phase_angle,
    wrap_phase,
)

finite_bias = st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)


class TestPhaseHelpers:
    def test_phase_angle_one_cycle(self):
        # 100 MHz for 10 ns is exactly one cycle.
        assert_allclose(phase_angle(100.0, 10.0), 2.0 * np.pi, rtol=1e-15)

    def test_phase_angle_scales_linearly(self):
        assert_allclose(phase_angle(50.0, 10.0), phase_angle(100.0, 5.0))

    @pytest.mark.parametrize(
        "raw, expected",
        [
            (0.0, 0.0),
            (np.pi, np.pi),
            (-np.pi, np.pi),
            (3.0 * np.pi, np.pi),
            (2.0 * np.pi, 0.0),
            (-0.5, -0.5),
        ],
    )
    def test_wrap_phase(self, raw, expected):
        assert_allclose(wrap_phase(raw), expected, atol=1e-12)

    def test_is_hermitian_and_unitary(self):
        assert is_hermitian(np.array([[1.0, 1j], [-1j, 2.0]]))
        assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert is_unitary(np.diag([1.0, -1j]))
        assert not is_unitary(np.diag([1.0, 2.0]))


class TestChainSpec:
    def test_default_hold_bias_is_100x_delta(self, design):
        spec = chain_for(design, 5)
        assert_allclose(spec.eps_high_mhz, 100.0 * design.delta_mhz)

    def test_explicit_hold_bias(self, design):
        spec = chain_for(design, 3, eps_high=25000.0)
        assert spec.eps_high_mhz == 25000.0

    def test_hold_biases_vector(self, design):
        spec = chain_for(design, 4, eps_high=1000.0)
        assert_allclose(spec.hold_biases(), np.full(4, 1000.0))

    @pytest.mark.parametrize("bad_n", [0, -1])
    def test_rejects_bad_sizes(self, bad_n, design):
        with pytest.raises(ValueError):
            chain_for(design, bad_n)

    def test_rejects_nonpositive_couplings(self):
        with pytest.raises(ValueError):
            ChainSpec(n_qubits=3, delta_mhz=0.0, xi_mhz=1.0)
        with pytest.raises(ValueError):
            ChainSpec(n_qubits=3, delta_mhz=1.0, xi_mhz=-1.0)

    @pytest.mark.parametrize("field", ["delta_mhz", "xi_mhz", "eps_high_mhz"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, field, value):
        kwargs = {"n_qubits": 3, "delta_mhz": 1.0, "xi_mhz": 1.0, "eps_high_mhz": 100.0}
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            ChainSpec(**kwargs)


class TestTwoLevelParams:
    def test_matrix(self):
        h = TwoLevelParams(delta_mhz=3.0, effective_bias_mhz=4.0).hamiltonian()
        assert_allclose(h, np.array([[4.0, 3.0], [3.0, -4.0]], dtype=complex))

    @pytest.mark.parametrize("field", ["delta_mhz", "effective_bias_mhz"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, field, value):
        kwargs = {"delta_mhz": 3.0, "effective_bias_mhz": 4.0}
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TwoLevelParams(**kwargs)


class TestBuildHamiltonian:
    def test_single_qubit(self):
        h = build_hamiltonian(ChainSpec(1, 2.0, 1.0), [7.0])
        assert_allclose(h, np.array([[7.0, 2.0], [2.0, -7.0]], dtype=complex))

    def test_two_qubit_by_hand(self):
        # Diagonal carries both biases plus the zz coupling; off-diagonal
        # entries connect single spin flips with weight delta.
        delta, xi, e0, e1 = 2.0, 0.5, 3.0, 5.0
        h = build_hamiltonian(ChainSpec(2, delta, xi), [e0, e1])
        expected = np.array(
            [
                [e0 + e1 + xi, delta, delta, 0.0],
                [delta, e0 - e1 - xi, 0.0, delta],
                [delta, 0.0, -e0 + e1 - xi, delta],
                [0.0, delta, delta, -e0 - e1 + xi],
            ],
            dtype=complex,
        )
        assert_allclose(h, expected)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_kron_oracle(self, n, rng):
        for _ in range(3):
            biases = rng.uniform(-100.0, 100.0, size=n)
            spec = ChainSpec(n, delta_mhz=12.5, xi_mhz=4.0)
            assert_allclose(
                build_hamiltonian(spec, biases),
                kron_hamiltonian(n, 12.5, 4.0, biases),
                atol=1e-12,
            )

    def test_rejects_wrong_bias_length(self, design):
        with pytest.raises(ValueError):
            build_hamiltonian(chain_for(design, 3), [0.0, 0.0])

    def test_refuses_oversized_dense_build(self, design):
        spec = chain_for(design, 13)
        with pytest.raises(ValueError):
            build_hamiltonian(spec, [0.0] * 13)

    @settings(max_examples=40, deadline=None)
    @given(
        biases=st.lists(finite_bias, min_size=1, max_size=4),
        delta=st.floats(min_value=0.1, max_value=200.0),
        xi=st.floats(min_value=0.1, max_value=200.0),
    )
    def test_always_hermitian_with_real_diagonal(self, biases, delta, xi):
        spec = ChainSpec(len(biases), delta, xi)
        h = build_hamiltonian(spec, biases)
        assert is_hermitian(h)
        assert_allclose(h.diagonal().imag, 0.0, atol=0.0)


def target_bias(spec, target, bits, target_bias_mhz):
    """Effective bias of ``target`` with every other qubit frozen at ``bits``."""
    z = [0 if q == target else 1 - 2 * b for q, b in enumerate(bits)]
    biases = np.zeros(spec.n_qubits)
    biases[target] = target_bias_mhz
    return effective_bias(biases, spec.xi_mhz, z)[target]


class TestReduceToTarget:
    """The two-level reduction of one pulsed qubit: its effective bias is
    ``bias + xi * sum z_neighbour`` (``chain.effective_bias``)."""

    def test_interior_both_ground(self, design):
        spec = chain_for(design, 3)
        assert_allclose(target_bias(spec, 1, (0, 0, 0), 0.0), 2.0 * design.xi_mhz)

    def test_interior_mixed_neighbors_cancel(self, design):
        spec = chain_for(design, 3)
        assert_allclose(target_bias(spec, 1, (0, 0, 1), 0.0), 0.0)

    def test_end_qubit_with_compensating_bias(self, design):
        # Pulsing an end qubit at bias xi with a ground neighbor reproduces
        # the interior splitting; qubits beyond the neighbour do not count.
        spec = chain_for(design, 3)
        for far in (0, 1):
            bias = target_bias(spec, 0, (0, 0, far), design.xi_mhz)
            assert_allclose(bias, 2.0 * design.xi_mhz)

    def test_restriction_of_full_hamiltonian(self, rng):
        # For frozen neighbors the full matrix restricted to the target's
        # two basis states equals the reduced model plus a constant shift.
        spec = ChainSpec(3, delta_mhz=7.0, xi_mhz=3.0)
        for z0 in (0, 1):
            for z2 in (0, 1):
                biases = rng.uniform(-50.0, 50.0, size=3)
                h = build_hamiltonian(spec, biases)
                lo = (z0 << 2) | (0 << 1) | z2
                hi = (z0 << 2) | (1 << 1) | z2
                sub = h[np.ix_([lo, hi], [lo, hi])]
                shift = biases[0] * (1 - 2 * z0) + biases[2] * (1 - 2 * z2)
                sigma = target_bias(spec, 1, (z0, 0, z2), biases[1])
                reduced = TwoLevelParams(spec.delta_mhz, sigma).hamiltonian()
                assert_allclose(sub - shift * np.eye(2), reduced, atol=1e-12)

    def test_all_sites_of_a_batch_at_once(self, rng):
        # Leading axes are independent rows; each site sees its two neighbours.
        z = rng.choice([-1, 0, 1], size=(4, 3, 6))
        biases = rng.uniform(-50.0, 50.0, size=(4, 3, 6))
        got = effective_bias(biases, 2.5, z)
        padded = np.pad(z, [(0, 0), (0, 0), (1, 1)])
        assert_allclose(got, biases + 2.5 * (padded[..., :-2] + padded[..., 2:]), atol=1e-12)
