import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import chain_for, random_qubit_amplitudes
from oracles import expm_propagator, kron_hamiltonian, rabi_u2
from swapchannel.chain import build_hamiltonian
from swapchannel.evolve import (
    EntanglementError,
    QuantumState,
    apply_local_unitary,
    apply_unitary,
    inject_state,
    propagator,
    reduced_state,
    reset_qubit,
    sample_trajectory,
)


def random_pure(rng, n_qubits: int) -> QuantumState:
    raw = rng.normal(size=2 ** (n_qubits + 1))
    vec = raw[::2] + 1j * raw[1::2]
    return QuantumState.pure(vec / np.linalg.norm(vec))


def random_hermitian(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


class TestQuantumState:
    def test_ground_and_basis(self):
        g = QuantumState.ground(2)
        assert g.kind == "pure"
        assert_allclose(g.data, [1, 0, 0, 0])
        b = QuantumState.pure(np.eye(8)[0b101])
        assert b.n_qubits == 3
        assert_allclose(reduced_state(b, 0)[0], np.diag([0.0, 1.0]))

    def test_pure_requires_unit_norm(self):
        with pytest.raises(ValueError):
            QuantumState.pure([1.0, 1.0])

    def test_pure_requires_power_of_two(self):
        with pytest.raises(ValueError):
            QuantumState.pure([1.0, 0.0, 0.0])

    def test_mixed_requires_hermitian_unit_trace(self):
        with pytest.raises(ValueError):
            QuantumState.mixed(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            QuantumState.mixed(np.diag([0.7, 0.7]))

    def test_density_and_to_mixed(self, rng):
        psi = random_pure(rng, 2)
        rho = psi.density()
        assert_allclose(rho, np.outer(psi.data, psi.data.conj()))
        mixed = psi.to_mixed()
        assert mixed.kind == "mixed"
        assert_allclose(mixed.data, rho)
        assert_allclose(mixed.trace(), 1.0, atol=1e-12)

    def test_data_is_readonly(self):
        g = QuantumState.ground(1)
        with pytest.raises(ValueError):
            g.data[0] = 0.0


class TestPropagator:
    def test_pi_half_pulse_by_hand(self):
        # 25 MHz transverse drive for 10 ns turns |0> into -i|1>.
        h = 25.0 * np.array([[0, 1], [1, 0]], dtype=complex)
        u = propagator(h, 10.0)
        assert_allclose(u, np.array([[0, -1j], [-1j, 0]]), atol=1e-12)

    def test_matches_expm_oracle(self, rng):
        for dim in (2, 4, 8):
            h = random_hermitian(rng, dim) * 30.0
            for t in (0.0, 3.7, 10.0):
                assert_allclose(
                    propagator(h, t), expm_propagator(h, t), atol=1e-9
                )

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["real_symmetric", "complex_hermitian"])
    def test_real_and_complex_routes_match_expm_oracle(self, rng, n_qubits, kind):
        h = random_hermitian(rng, 2**n_qubits) * 30.0
        if kind == "real_symmetric":
            h = h.real
        else:
            assert np.abs(h.imag).max() > 1.0
        for t in (0.0, 3.7, 10.0):
            assert_allclose(propagator(h, t), expm_propagator(h, t), atol=1e-9)

    def test_chain_hamiltonian_matches_expm_oracle(self, design):
        spec = chain_for(design, 6, eps_high=25000.0)
        biases = [25000.0, 0.0, 25000.0, 25000.0, 0.0, 25000.0]
        h = build_hamiltonian(spec, biases)
        assert_allclose(propagator(h, design.t_ns), expm_propagator(h, design.t_ns), atol=1e-9)

    def test_composition(self, rng):
        h = random_hermitian(rng, 4) * 10.0
        assert_allclose(
            propagator(h, 7.0), propagator(h, 4.0) @ propagator(h, 3.0), atol=1e-12
        )

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            propagator(np.eye(2), -1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        t=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_always_unitary(self, seed, t):
        h = random_hermitian(np.random.default_rng(seed), 4) * 40.0
        u = propagator(h, t)
        assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-9)


def evolve_window(state, spec, biases, duration_ns):
    """One window at a constant bias profile, as the full-mode runner applies it."""
    return apply_unitary(state, propagator(build_hamiltonian(spec, biases), duration_ns))


class TestEvolveWindow:
    def test_norm_preserved(self, design, rng):
        spec = chain_for(design, 3)
        psi = random_pure(rng, 3)
        out = evolve_window(psi, spec, [0.0, 100.0, 50.0], 10.0)
        assert_allclose(np.linalg.norm(out.data), 1.0, atol=1e-12)

    def test_mixed_trace_preserved(self, design, rng):
        spec = chain_for(design, 2)
        rho = random_pure(rng, 2).to_mixed()
        out = evolve_window(rho, spec, [10.0, 20.0], 5.0)
        assert_allclose(out.trace(), 1.0, atol=1e-12)

    def test_matches_kron_oracle(self, design, rng):
        spec = chain_for(design, 3)
        biases = rng.uniform(-200.0, 200.0, size=3)
        psi = random_pure(rng, 3)
        got = evolve_window(psi, spec, biases, 8.0)
        h = kron_hamiltonian(3, design.delta_mhz, design.xi_mhz, biases)
        assert_allclose(got.data, expm_propagator(h, 8.0) @ psi.data, atol=1e-9)


class TestLocalUnitary:
    @pytest.mark.parametrize("n,first,k", [(3, 0, 1), (3, 1, 1), (3, 2, 1), (4, 1, 2), (3, 0, 3)])
    def test_pure_matches_kron_embedding(self, n, first, k, rng):
        u = propagator(random_hermitian(rng, 2**k) * 20.0, 4.0)
        psi = random_pure(rng, n)
        full = np.eye(1, dtype=complex)
        for q in range(n):
            if q == first:
                full = np.kron(full, u)
            elif q < first or q >= first + k:
                full = np.kron(full, np.eye(2))
        got = apply_local_unitary(psi, u, first)
        assert_allclose(got.data, full @ psi.data, atol=1e-12)

    def test_mixed_state_is_refused(self, rng):
        u = propagator(random_hermitian(rng, 2) * 20.0, 4.0)
        rho = random_pure(rng, 3).to_mixed()
        with pytest.raises(ValueError, match="pure state"):
            apply_local_unitary(rho, u, 1)


class TestObservablesAndBoundary:
    def test_sample_probability(self):
        # The first row of a trajectory is each qubit's P(|1>) before evolving.
        psi = QuantumState.pure([0.6, 0.0, 0.0, 0.8])
        _, probs = sample_trajectory(psi, np.eye(4), 1.0, 1)
        assert_allclose(probs[0], [0.64, 0.64])

    def test_reduced_state_product(self, rng):
        a0, a1 = random_qubit_amplitudes(rng)
        psi = QuantumState.pure(np.kron([a0, a1], [1.0, 0.0]))
        rho2, purity = reduced_state(psi, 0)
        assert_allclose(rho2, np.outer([a0, a1], np.conj([a0, a1])), atol=1e-12)
        assert_allclose(purity, 1.0, atol=1e-12)

    def test_reduced_state_bell(self):
        bell = QuantumState.pure(np.array([1, 0, 0, 1]) / np.sqrt(2))
        rho2, purity = reduced_state(bell, 1)
        assert_allclose(rho2, np.eye(2) / 2, atol=1e-12)
        assert_allclose(purity, 0.5, atol=1e-12)

    def test_reset_product_qubit(self, rng):
        a0, a1 = random_qubit_amplitudes(rng)
        psi = QuantumState.pure(np.kron([1.0, 0.0], [a0, a1]))
        out = reset_qubit(psi, 1)
        assert out.kind == "mixed"
        assert_allclose(out.data, np.diag([1.0, 0, 0, 0]), atol=1e-12)

    def test_reset_entangled_qubit_leaves_partner_mixed(self):
        bell = QuantumState.pure(np.array([1, 0, 0, 1]) / np.sqrt(2))
        out = reset_qubit(bell, 0)
        # The partner is left maximally mixed, the reset qubit in |0>.
        expected = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
        assert_allclose(out.data, expected, atol=1e-12)

    def test_inject_replaces_separable_qubit(self, rng):
        a0, a1 = random_qubit_amplitudes(rng)
        b0, b1 = random_qubit_amplitudes(rng)
        psi = QuantumState.pure(np.kron([a0, a1], [1.0, 0.0]))
        out = inject_state(psi, 1, [b0, b1])
        assert out.kind == "pure"
        assert_allclose(out.data, np.kron([a0, a1], [b0, b1]), atol=1e-12)

    def test_inject_preserves_entanglement_elsewhere(self):
        # Qubits 0 and 2 share a Bell pair; qubit 1 is fresh.
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        psi3 = np.einsum("ac,b->abc", bell.reshape(2, 2), [1.0, 0.0]).reshape(-1)
        out = inject_state(QuantumState.pure(psi3), 1, [0.0, 1.0])
        expected = np.einsum("ac,b->abc", bell.reshape(2, 2), [0.0, 1.0]).reshape(-1)
        # Global phase aside, the Bell correlations must survive untouched.
        overlap = abs(np.vdot(expected, out.data))
        assert_allclose(overlap, 1.0, atol=1e-12)

    def test_inject_rejects_entangled_qubit(self):
        bell = QuantumState.pure(np.array([1, 0, 0, 1]) / np.sqrt(2))
        with pytest.raises(EntanglementError):
            inject_state(bell, 0, [1.0, 0.0])

    def test_inject_purity_tolerance_is_adjustable(self):
        eps = 1e-4
        amp = np.sqrt(eps)
        vec = np.array([np.sqrt(1 - eps), 0.0, 0.0, amp])
        state = QuantumState.pure(vec / np.linalg.norm(vec))
        with pytest.raises(EntanglementError):
            inject_state(state, 0, [1.0, 0.0])
        out = inject_state(state, 0, [1.0, 0.0], purity_tol=1e-3)
        assert out.kind == "pure"

    def test_inject_requires_normalised_amplitudes(self):
        with pytest.raises(ValueError):
            inject_state(QuantumState.ground(2), 0, [1.0, 1.0])


class TestSampleTrajectory:
    def test_shapes_and_endpoints(self, design):
        spec = chain_for(design, 2)
        h = build_hamiltonian(spec, [0.0, 0.0])
        times, probs = sample_trajectory(QuantumState.ground(2), h, 10.0, 5)
        assert times.shape == (6,)
        assert probs.shape == (6, 2)
        assert_allclose(times[0], 0.0)
        assert_allclose(times[-1], 10.0)
        final = apply_unitary(QuantumState.ground(2), propagator(h, 10.0))
        assert_allclose(probs[-1, 0], reduced_state(final, 0)[0][1, 1].real, atol=1e-9)

    def test_zero_duration(self, design):
        spec = chain_for(design, 1)
        h = build_hamiltonian(spec, [0.0])
        times, probs = sample_trajectory(QuantumState.ground(1), h, 0.0, 10)
        assert times.shape == (0,)
        assert probs.shape == (0, 1)

    def test_single_qubit_rabi_curve(self):
        # Resonant drive: P1(t) must follow the closed-form rotation.
        delta, sigma = 25.0, 30.0
        h = np.array([[sigma, delta], [delta, -sigma]], dtype=complex)
        times, probs = sample_trajectory(QuantumState.ground(1), h, 20.0, 40)
        for t, p in zip(times, probs[:, 0]):
            u = rabi_u2(delta, sigma, t)
            assert_allclose(p, abs(u[1, 0]) ** 2, atol=1e-9)
