import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import chain_for, random_qubit_amplitudes
from oracles import (
    apply_local_unitary, expm_propagator, kron_hamiltonian, rabi_u2, rho_replace
)
from swapchannel.chain import _mirror_index, build_hamiltonian
from swapchannel.evolve import (
    INJECT_PURITY_TOL,
    EntanglementError,
    QuantumState,
    _sector_eigensystem,
    apply_eigensystem,
    eigensystem,
    propagator,
    sample_trajectory,
)


def random_pure(rng, n_qubits: int) -> QuantumState:
    raw = rng.normal(size=2 ** (n_qubits + 1))
    vec = raw[::2] + 1j * raw[1::2]
    return QuantumState.pure(vec / np.linalg.norm(vec))


def random_mixed(rng, n_qubits: int, rank: int) -> QuantumState:
    """A random factor ``W`` of ``rank`` columns with ``tr W W^dagger = 1``."""
    w = rng.normal(size=(2**n_qubits, rank)) + 1j * rng.normal(size=(2**n_qubits, rank))
    return QuantumState(w / np.linalg.norm(w))


def density(state: QuantumState) -> np.ndarray:
    return state.data @ state.data.conj().T


def random_symmetric(rng, dim: int) -> np.ndarray:
    """A random real symmetric matrix, the one kind of H the model has."""
    a = rng.normal(size=(dim, dim))
    return (a + a.T) / 2.0


class TestQuantumState:
    def test_ground_and_basis(self):
        g = QuantumState.ground(2)
        assert g.data.shape == (4, 1)
        assert_allclose(g.data, [[1], [0], [0], [0]])
        b = QuantumState.pure(np.eye(8)[0b101])
        assert b.n_qubits == 3
        assert_allclose(b.reduced_state(0)[0], np.diag([0.0, 1.0]))

    def test_pure_requires_unit_norm(self):
        with pytest.raises(ValueError):
            QuantumState.pure([1.0, 1.0])

    @pytest.mark.parametrize(
        "build",
        [lambda: QuantumState.pure([np.nan, 0.0]),
         lambda: QuantumState(np.array([[np.nan], [0.0]])),
         lambda: QuantumState(np.array([[1.0, 0.0], [0.0, np.inf]]))],
        ids=["pure-nan", "factor-nan", "factor-inf"],
    )
    def test_refuses_non_finite_entries(self, build):
        # a NaN norm passes an |norm - 1| > tol check
        with pytest.raises(ValueError, match="finite"):
            build()

    def test_pure_requires_power_of_two(self):
        with pytest.raises(ValueError):
            QuantumState.pure([1.0, 0.0, 0.0])

    @pytest.mark.parametrize("shape", [(3, 1), (4,), (4, 0), (0, 1)],
                             ids=["rows-not-power-of-2", "vector", "no-columns", "no-rows"])
    def test_factor_must_be_power_of_two_rows_by_columns(self, shape):
        with pytest.raises(ValueError, match="factor must be"):
            QuantumState(np.ones(shape))

    @pytest.mark.parametrize("shape", [(4, 1), (2, 3)])
    def test_refuses_a_factor_of_zero_trace(self, shape):
        # a zero factor is no state: a reset would leave it with no columns,
        # and reads would give purity 0
        with pytest.raises(ValueError, match="factor must have a trace > 0, got 0.0"):
            QuantumState(np.zeros(shape))

    def test_factor_shape_sets_size_and_trace(self, rng):
        w = random_mixed(rng, 2, 3)
        assert (w.n_qubits, w.dim, w.data.shape[1]) == (2, 4, 3)
        assert_allclose(w.trace(), np.trace(density(w)).real, atol=1e-12)
        assert_allclose(w.trace(), 1.0, atol=1e-12)

    def test_data_is_readonly(self):
        g = QuantumState.ground(1)
        with pytest.raises(ValueError):
            g.data[0] = 0.0
        w = np.ones((2, 2))
        state = QuantumState(w)
        w[0, 0] = 5.0  # the state keeps its own copy
        assert state.data[0, 0] == 1.0
        state.apply_diagonal(np.ones(2))  # an update replaces the array, read-only again
        with pytest.raises(ValueError):
            state.data[0, 0] = 0.0


class TestPropagator:
    def test_pi_half_pulse_by_hand(self):
        # 25 MHz transverse drive for 10 ns turns |0> into -i|1>.
        h = 25.0 * np.array([[0, 1], [1, 0]], dtype=complex)
        u = propagator(h, 10.0)
        assert_allclose(u, np.array([[0, -1j], [-1j, 0]]), atol=1e-12)

    def test_matches_expm_oracle(self, rng):
        for dim in (2, 4, 8):
            h = random_symmetric(rng, dim) * 30.0
            for t in (0.0, 3.7, 10.0):
                assert_allclose(
                    propagator(h, t), expm_propagator(h, t), atol=1e-9
                )

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_real_and_complex_dtypes_match_expm_oracle(self, rng, n_qubits, dtype):
        # a complex array with an all-zero imaginary part is taken as its real part
        h = (random_symmetric(rng, 2**n_qubits) * 30.0).astype(dtype)
        assert h.dtype == dtype and not np.imag(h).any()
        for t in (0.0, 3.7, 10.0):
            assert_allclose(propagator(h, t), expm_propagator(h, t), atol=1e-9)

    def test_chain_hamiltonian_matches_expm_oracle(self, design):
        spec = chain_for(design, 6, eps_high=25000.0)
        biases = [25000.0, 0.0, 25000.0, 25000.0, 0.0, 25000.0]
        h = build_hamiltonian(spec, biases)
        assert_allclose(propagator(h, design.t_ns), expm_propagator(h, design.t_ns), atol=1e-9)

    def test_composition(self, rng):
        h = random_symmetric(rng, 4) * 10.0
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
        h = random_symmetric(np.random.default_rng(seed), 4) * 40.0
        u = propagator(h, t)
        assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-9)


class TestEigensystem:
    """The eigenbasis application against the assembled propagator it replaces."""

    @pytest.mark.parametrize("n_qubits", range(1, 9))
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_chain_window_matches_the_assembled_propagator(self, design, rng, n_qubits, rank):
        spec = chain_for(design, n_qubits, eps_high=25000.0)
        biases = np.where(rng.random(n_qubits) < 0.5, 25000.0, rng.uniform(-50.0, 50.0))
        h = build_hamiltonian(spec, biases)
        state = random_mixed(rng, n_qubits, rank)
        want = propagator(h, design.t_ns) @ state.data
        apply_eigensystem([state], *eigensystem(h, design.t_ns))
        assert_allclose(state.data, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rank", [1, 3])
    def test_complex_dtype_matches_the_assembled_propagator(self, rng, rank):
        h = (random_symmetric(rng, 16) * 30.0).astype(complex)
        state = random_mixed(rng, 4, rank)
        want = propagator(h, 3.7) @ state.data
        evecs, angles = eigensystem(h, 3.7)
        assert evecs.dtype == np.float64
        apply_eigensystem([state], evecs, angles)
        assert_allclose(state.data, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ranks", [(1, 1), (1, 3), (4, 2, 1)])
    def test_factors_side_by_side_each_take_the_propagator(self, design, rng, ranks):
        # one pair of products for all the factors, each split back to its own columns
        spec = chain_for(design, 5, eps_high=25000.0)
        h = build_hamiltonian(spec, rng.uniform(-50.0, 50.0, 5))
        states = [random_mixed(rng, 5, r) for r in ranks]
        want = [propagator(h, design.t_ns) @ s.data for s in states]
        apply_eigensystem(states, *eigensystem(h, design.t_ns))
        for state, w in zip(states, want):
            assert_allclose(state.data, w, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_qubits", range(1, 8))
    def test_mirror_rows_apply_the_mirror_window(self, design, rng, n_qubits):
        # gathering the factor's rows by bit reversal before and after the
        # products applies the eigensystem of the reversed bias profile
        spec = chain_for(design, n_qubits, eps_high=25000.0)
        biases = np.where(rng.random(n_qubits) < 0.5, 25000.0, rng.uniform(-50.0, 50.0))
        state = random_mixed(rng, n_qubits, 2)
        want = propagator(build_hamiltonian(spec, biases[::-1]), design.t_ns) @ state.data
        apply_eigensystem([state], *eigensystem(build_hamiltonian(spec, biases), design.t_ns),
                          mirrored=True)
        assert_allclose(state.data, want, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("n_qubits", range(3, 10))
    def test_mirrored_is_the_bit_reversal_applied_explicitly(self, design, rng, n_qubits):
        # mirrored=True is P (V e^{-iEt} V^T) P with P the bit reversal m of the
        # basis index: bit for bit the factor's rows permuted by hand around the
        # plain window, and to round-off the plain window of V[m], the
        # eigenvectors of the reversed biases (BLAS sums V[m]^T W in another
        # order, 3.5e-15 apart at L = 9)
        spec = chain_for(design, n_qubits, eps_high=25000.0)
        biases = np.where(rng.random(n_qubits) < 0.5, 25000.0, rng.uniform(-50.0, 50.0))
        evecs, angles = eigensystem(build_hamiltonian(spec, biases), design.t_ns)
        m = _mirror_index(n_qubits)
        w = random_mixed(rng, n_qubits, 2).data
        got, by_hand, of_vm = QuantumState(w), QuantumState(w[m]), QuantumState(w)
        apply_eigensystem([got], evecs, angles, mirrored=True)
        apply_eigensystem([by_hand], evecs, angles)
        apply_eigensystem([of_vm], np.ascontiguousarray(evecs[m]), angles)
        assert np.array_equal(got.data, by_hand.data[m])
        assert_allclose(got.data, of_vm.data, rtol=0, atol=1e-14)

    def test_refuses_factors_of_another_size_and_changes_none(self, rng):
        states = [random_mixed(rng, 3, 1), random_mixed(rng, 2, 1)]
        before = [s.data for s in states]
        with pytest.raises(ValueError, match="eigenvectors must be 4 x 4"):
            apply_eigensystem(states, *eigensystem(np.eye(8), 1.0))
        assert all(s.data is b for s, b in zip(states, before))

    def test_real_hamiltonian_gives_real_eigenvectors(self, design):
        h = build_hamiltonian(chain_for(design, 3), [0.0, 10.0, 20.0])
        evecs, angles = eigensystem(h, 10.0)
        assert evecs.dtype == np.float64 and angles.shape == (8,)

    def test_fortran_ordered_factor(self, rng):
        w = np.asfortranarray(random_mixed(rng, 3, 3).data)
        state = QuantumState(w)
        h = random_symmetric(rng, 8) * 30.0
        apply_eigensystem([state], *eigensystem(h, 2.0))
        assert_allclose(state.data, propagator(h, 2.0) @ w, rtol=0, atol=1e-12)

    def test_rejects_eigenvectors_of_another_size(self):
        state = QuantumState.ground(2)
        with pytest.raises(ValueError, match="eigenvectors must be 4 x 4"):
            apply_eigensystem([state], *eigensystem(np.eye(8), 1.0))
        assert_allclose(state.data, QuantumState.ground(2).data, rtol=0, atol=0)

    @pytest.mark.parametrize("angles", [
        np.zeros(1), np.zeros(7), np.zeros((8, 1)), np.array(0.0),
        np.r_[np.zeros(7), np.nan], np.r_[np.inf, np.zeros(7)],
    ])
    def test_refuses_angles_of_another_shape_or_not_finite(self, angles):
        # a 1-element array would broadcast over every eigenvector, and a NaN
        # angle would leave a NaN state
        state = QuantumState.ground(3)
        with pytest.raises(ValueError, match="angles must be 8 finite numbers"):
            apply_eigensystem([state], np.eye(8), angles)
        assert_allclose(state.data, QuantumState.ground(3).data, rtol=0, atol=0)

    @pytest.mark.parametrize("diag", [[2.0], np.ones(4), np.ones((8, 1)), 2.0,
                                      np.r_[np.nan, np.ones(7)], np.r_[np.ones(7), -np.inf * 1j]])
    def test_apply_diagonal_refuses_another_shape(self, diag):
        # [2.0] would broadcast and scale the trace to 4; a NaN entry was stored
        state = QuantumState.ground(3)
        with pytest.raises(ValueError, match=r"diagonal must have shape \(8,\)"):
            state.apply_diagonal(diag)
        assert state.trace() == 1.0

    @pytest.mark.parametrize("mirrored", [
        1, 0, None, "yes", np.bool_(True), np.array([0, 2, 1, 3]),
    ], ids=["one", "zero", "none", "str", "numpy-bool", "bit-reversal-rows"])
    def test_refuses_a_mirrored_flag_that_is_not_a_bool(self, mirrored):
        # the bit reversal itself, as the former rows argument took it, is no flag
        state = QuantumState.ground(2)
        before = state.data
        with pytest.raises(ValueError, match="mirrored must be True or False, got "):
            apply_eigensystem([state], np.eye(4), np.zeros(4), mirrored)
        assert state.data is before and state.trace() == 1.0

    @pytest.mark.parametrize("h, entry", [
        (np.array([[1.0, 1j], [-1j, 2.0]]), r"entry \(0, 1\) is 1j"),
        (np.diag([1.0, 1.0 + 1e-300j]), r"entry \(1, 1\) is \(1\+1e-300j\)"),
        (np.array([[0.0, complex(0.0, np.nan)], [0.0, 0.0]]), r"entry \(0, 1\) is nanj"),
    ], ids=["hermitian", "tiny-imaginary-diagonal", "nan-imaginary"])
    def test_refuses_a_matrix_that_is_not_real(self, h, entry):
        # the model's H is real symmetric; a complex Hermitian one has no route
        for solve in (eigensystem, propagator):
            with pytest.raises(ValueError, match="eigensystem requires a real matrix; " + entry):
                solve(h, 1.0)

    def test_refuses_eigenvectors_that_are_not_real(self):
        state = QuantumState.ground(2)
        before = state.data
        with pytest.raises(ValueError, match="eigenvectors must be real, got dtype complex128"):
            apply_eigensystem([state], np.eye(4, dtype=complex), np.zeros(4))
        assert state.data is before

    @pytest.mark.parametrize("n_qubits", range(2, 9))
    def test_sector_eigensystem_of_a_self_mirror_window(self, design, rng, n_qubits):
        # the two half-size sectors of a mirror-symmetric H give a real
        # orthogonal V and the same propagator as one full eigh
        spec = chain_for(design, n_qubits, eps_high=25000.0)
        half = np.where(rng.random(n_qubits) < 0.5, 25000.0, rng.uniform(-50.0, 50.0))
        h = build_hamiltonian(spec, (half + half[::-1]) / 2)
        evecs, angles = _sector_eigensystem(h, design.t_ns)
        assert evecs.dtype == np.float64 and angles.shape == (1 << n_qubits,)
        assert_allclose(evecs.T @ evecs, np.eye(1 << n_qubits), rtol=0, atol=1e-13)
        state = random_mixed(rng, n_qubits, 2)
        want = propagator(h, design.t_ns) @ state.data
        apply_eigensystem([state], evecs, angles)
        assert_allclose(state.data, want, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_refuses_negative_and_non_finite_durations(self, duration):
        for solve in (eigensystem, propagator):
            with pytest.raises(ValueError, match="duration_ns must be (finite|>= 0)"):
                solve(np.eye(2), duration)

    @pytest.mark.parametrize("duration", [True, "10", None], ids=["bool", "str", "none"])
    def test_refuses_durations_that_are_not_numbers(self, duration):
        # True used to run as 1 ns and "10" to raise a numpy TypeError
        for solve in (eigensystem, propagator):
            with pytest.raises(ValueError, match=f"duration_ns must be a number, got {duration!r}"):
                solve(np.eye(2), duration)
        with pytest.raises(ValueError, match=f"duration_ns must be a number, got {duration!r}"):
            sample_trajectory(QuantumState.ground(1), np.eye(2), duration, 3)

    @pytest.mark.parametrize("n_samples", [True, 2.5, "3"], ids=["bool", "float", "str"])
    def test_sample_trajectory_refuses_non_integer_sample_counts(self, n_samples):
        # True used to run as one sample and 2.5 to raise a TypeError
        with pytest.raises(ValueError, match=f"n_samples must be an integer, got {n_samples!r}"):
            sample_trajectory(QuantumState.ground(1), np.eye(2), 10.0, n_samples)
        times, _ = sample_trajectory(QuantumState.ground(1), np.eye(2), 10.0, np.int64(2))
        assert times.tolist() == [0.0, 5.0, 10.0]

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), -1.0])
    def test_sample_trajectory_refuses_the_duration_it_was_given(self, duration):
        with pytest.raises(ValueError, match=rf"got {duration!r}$"):
            sample_trajectory(QuantumState.ground(1), np.eye(2), duration, 3)


def evolve_window(state, spec, biases, duration_ns):
    """One window at a constant bias profile, as the full-mode runner applies it
    (on a copy, so the caller's state stays as it was)."""
    out = QuantumState(state.data)
    apply_eigensystem([out], *eigensystem(build_hamiltonian(spec, biases), duration_ns))
    return out


class TestEvolveWindow:
    def test_norm_preserved(self, design, rng):
        spec = chain_for(design, 3)
        psi = random_pure(rng, 3)
        out = evolve_window(psi, spec, [0.0, 100.0, 50.0], 10.0)
        assert_allclose(np.linalg.norm(out.data), 1.0, atol=1e-12)

    def test_mixed_trace_preserved(self, design, rng):
        spec = chain_for(design, 2)
        rho = random_mixed(rng, 2, 3)
        out = evolve_window(rho, spec, [10.0, 20.0], 5.0)
        assert_allclose(out.trace(), 1.0, atol=1e-12)
        u = propagator(build_hamiltonian(spec, [10.0, 20.0]), 5.0)
        assert_allclose(density(out), u @ density(rho) @ u.conj().T, atol=1e-12)

    def test_matches_kron_oracle(self, design, rng):
        spec = chain_for(design, 3)
        biases = rng.uniform(-200.0, 200.0, size=3)
        psi = random_pure(rng, 3)
        got = evolve_window(psi, spec, biases, 8.0)
        h = kron_hamiltonian(3, design.delta_mhz, design.xi_mhz, biases)
        assert_allclose(got.data, expm_propagator(h, 8.0) @ psi.data, atol=1e-9)


class TestLocalUnitary:
    """A local operator on a dense state: the oracle's einsum, which the MPS
    tests take as their reference, against the full-chain product
    ``QuantumState(U @ W)`` of its Kronecker embedding ``U``."""

    @pytest.mark.parametrize("n,first,k", [(3, 0, 1), (3, 1, 1), (3, 2, 1), (4, 1, 2), (3, 0, 3)])
    def test_pure_matches_kron_embedding(self, n, first, k, rng):
        u = propagator(random_symmetric(rng, 2**k) * 20.0, 4.0)
        psi = random_pure(rng, n)
        full = np.eye(1, dtype=complex)
        for q in range(n):
            if q == first:
                full = np.kron(full, u)
            elif q < first or q >= first + k:
                full = np.kron(full, np.eye(2))
        want = full @ psi.data
        psi = apply_local_unitary(psi, u, first)
        assert_allclose(psi.data, want, atol=1e-12)

    @pytest.mark.parametrize("n,first,k", [(3, 0, 1), (3, 1, 1), (3, 2, 1), (4, 1, 2), (3, 0, 3)])
    def test_mixed_state_matches_conjugation(self, n, first, k, rng):
        u = propagator(random_symmetric(rng, 2**k) * 20.0, 4.0)
        full = np.kron(np.kron(np.eye(2**first), u), np.eye(2 ** (n - first - k)))
        rho = random_mixed(rng, n, 3)
        want = full @ density(rho) @ full.conj().T
        rho = QuantumState(full @ rho.data)
        assert_allclose(density(rho), want, atol=1e-12)

    @pytest.mark.parametrize("n,first,k", [(3, 0, 1), (3, 1, 1), (3, 2, 1), (4, 1, 2), (3, 0, 3)])
    def test_matches_the_former_einsum(self, n, first, k, rng):
        u = propagator(random_symmetric(rng, 2**k) * 20.0, 4.0)
        full = np.kron(np.kron(np.eye(2**first), u), np.eye(2 ** (n - first - k)))
        rho = random_mixed(rng, n, 2)
        want = apply_local_unitary(rho, u, first).data
        rho = QuantumState(full @ rho.data)
        assert_allclose(rho.data, want, rtol=0, atol=1e-14)


class TestObservablesAndBoundary:
    def test_sample_probability(self):
        # The first row of a trajectory is each qubit's P(|1>) before evolving.
        psi = QuantumState.pure([0.6, 0.0, 0.0, 0.8])
        _, probs = sample_trajectory(psi, np.eye(4), 1.0, 1)
        assert_allclose(probs[0], [0.64, 0.64])

    def test_reduced_state_product(self, rng):
        a0, a1 = random_qubit_amplitudes(rng)
        psi = QuantumState.pure(np.kron([a0, a1], [1.0, 0.0]))
        rho2, purity = psi.reduced_state(0)
        assert_allclose(rho2, np.outer([a0, a1], np.conj([a0, a1])), atol=1e-12)
        assert_allclose(purity, 1.0, atol=1e-12)

    def test_reduced_state_bell(self):
        bell = QuantumState.pure(np.array([1, 0, 0, 1]) / np.sqrt(2))
        rho2, purity = bell.reduced_state(1)
        assert_allclose(rho2, np.eye(2) / 2, atol=1e-12)
        assert_allclose(purity, 0.5, atol=1e-12)

    def test_reset_product_qubit(self, rng):
        a0, a1 = random_qubit_amplitudes(rng)
        psi = QuantumState.pure(np.kron([1.0, 0.0], [a0, a1]))
        assert psi.reset(1) is None
        assert psi.data.shape[1] == 1  # nothing was entangled, so nothing mixes
        assert_allclose(density(psi), np.diag([1.0, 0, 0, 0]), atol=1e-12)

    def test_reset_entangled_qubit_leaves_partner_mixed(self):
        bell = QuantumState.pure(np.array([1, 0, 0, 1]) / np.sqrt(2))
        bell.reset(0)
        # The partner is left maximally mixed, the reset qubit in |0>.
        expected = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
        assert bell.data.shape[1] == 2
        assert_allclose(density(bell), expected, atol=1e-12)

    @pytest.mark.parametrize("qubit", [0, 1, 2])
    def test_reset_of_a_mixed_state_matches_the_dense_map(self, rng, qubit):
        rho = random_mixed(rng, 3, 4)
        want = rho_replace(density(rho), qubit, np.array([1.0, 0.0]))
        rho.reset(qubit)
        assert rho.data.shape[1] <= 2 * 4
        assert_allclose(density(rho), want, atol=1e-12)

    def test_inject_replaces_separable_qubit(self, rng):
        a0, a1 = random_qubit_amplitudes(rng)
        b0, b1 = random_qubit_amplitudes(rng)
        psi = QuantumState.pure(np.kron([a0, a1], [1.0, 0.0]))
        assert psi.inject(1, [b0, b1]) is None
        assert psi.data.shape[1] == 1
        # equal up to the global phase the SVD leaves on the column
        want = np.kron([a0, a1], [b0, b1])
        assert_allclose(density(psi), np.outer(want, want.conj()), atol=1e-12)

    def test_inject_preserves_entanglement_elsewhere(self):
        # Qubits 0 and 2 share a Bell pair; qubit 1 is fresh.
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        psi3 = np.einsum("ac,b->abc", bell.reshape(2, 2), [1.0, 0.0]).reshape(-1)
        out = QuantumState.pure(psi3)
        out.inject(1, [0.0, 1.0])
        expected = np.einsum("ac,b->abc", bell.reshape(2, 2), [0.0, 1.0]).reshape(-1)
        # Global phase aside, the Bell correlations must survive untouched.
        assert out.data.shape[1] == 1
        overlap = abs(np.vdot(expected, out.data[:, 0]))
        assert_allclose(overlap, 1.0, atol=1e-12)

    def test_inject_rejects_entangled_qubit(self):
        bell = QuantumState.pure(np.array([1, 0, 0, 1]) / np.sqrt(2))
        before = bell.data
        with pytest.raises(EntanglementError):
            bell.inject(0, [1.0, 0.0])
        assert bell.data is before

    def test_inject_traces_out_entanglement_within_the_tolerance(self):
        def entangled(eps):
            # qubit 0 has purity (1 - eps)^2 + eps^2, about 1 - 2 eps
            return QuantumState.pure([np.sqrt(1 - eps), 0.0, 0.0, np.sqrt(eps)])

        over = entangled(1e-3)
        assert over.reduced_state(0)[1] < 1 - INJECT_PURITY_TOL
        with pytest.raises(EntanglementError):
            over.inject(0, [1.0, 0.0])
        eps = 1e-4
        state = entangled(eps)
        want = rho_replace(density(state), 0, np.array([1.0, 0.0]))
        state.inject(0, [1.0, 0.0])
        # The entanglement within the tolerance is traced out, not projected
        # away: qubit 1 is left with weight eps in |1>.
        assert_allclose(density(state), want, atol=1e-12)
        assert_allclose(want, np.diag([1 - eps, eps, 0.0, 0.0]), atol=1e-12)

    def test_inject_requires_normalised_amplitudes(self):
        with pytest.raises(ValueError):
            QuantumState.ground(2).inject(0, [1.0, 1.0])


class TestCompression:
    """A reset or inject compresses the factor to the directions of
    ``tr_q rho`` whose weight is above eps of the largest, against the dense
    map (``oracles.rho_replace``), on random factors whose singular values
    span 1..1e-12 (weights down to 1e-24, far below what float64 resolves)."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 7), data=st.data())
    def test_random_factors(self, n, data):
        rank = data.draw(st.integers(1, 2 ** (n - 1)), label="rank")
        spread = data.draw(st.lists(st.floats(0.0, 12.0), min_size=rank, max_size=rank),
                           label="log10 of 1/singular value")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        basis, _ = np.linalg.qr(rng.normal(size=(2**n, rank)) + 1j * rng.normal(size=(2**n, rank)))
        s = 10.0 ** -np.array(spread)
        w = basis * (s / np.linalg.norm(s))
        eps, m = np.finfo(float).eps, 2 ** (n - 1)
        for qubit in range(n):
            for local in (np.array([1.0, 0.0]), np.array(random_qubit_amplitudes(rng))):
                state = QuantumState(w)
                state._replace_qubit(qubit, local)  # reset, or inject past its purity check
                want = rho_replace(w @ w.conj().T, qubit, local)
                lam_max, trace = np.linalg.norm(want, 2), np.trace(want).real
                dropped = 2 * rank - state.data.shape[1]
                # Each dropped direction has weight <= eps lam_max.  Every other
                # step is a backward-stable product or eigh of dimension at most
                # N = m + 2 rank, off by at most N u tr(rho) with u = eps / 2:
                # the Gram product, its eigh, R V (or U sqrt(lam)), and the
                # test's own W W^dagger, partial trace and W' W'^dagger.
                rounding = 6 * (m + 2 * rank) * eps / 2 * trace
                k = dropped + rounding / (eps * lam_max)
                got = density(state)
                assert np.linalg.norm(got - want, 2) <= k * eps * lam_max
                # the trace lost, from sums in extended precision
                before = np.sum(np.abs(w.astype(np.clongdouble)) ** 2)
                before *= np.sum(np.abs(local.astype(np.clongdouble)) ** 2)
                after = np.sum(np.abs(state.data.astype(np.clongdouble)) ** 2)
                assert before - after <= dropped * eps * lam_max + rounding


class TestSampleTrajectory:
    def test_shapes_and_endpoints(self, design):
        spec = chain_for(design, 2)
        h = build_hamiltonian(spec, [0.0, 0.0])
        times, probs = sample_trajectory(QuantumState.ground(2), h, 10.0, 5)
        assert times.shape == (6,)
        assert probs.shape == (6, 2)
        assert_allclose(times[0], 0.0)
        assert_allclose(times[-1], 10.0)
        final = QuantumState(propagator(h, 10.0) @ QuantumState.ground(2).data)
        assert_allclose(probs[-1, 0], final.reduced_state(0)[0][1, 1].real, atol=1e-9)

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
