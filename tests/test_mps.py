"""The matrix-product-state backend against the dense reduced-mode path.

Unit tests drive :class:`MPS` and the dense ``QuantumState`` functions with
the same operations; the runner tests compare reduced-mode reports with the
dense replay in ``oracles.py`` (the path the MPS replaced) to 1e-12.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import chain_for, mps_vector, random_qubit_amplitudes
from oracles import dense_reduced_bits, dense_reduced_replay, dense_reduced_wire
from swapchannel import (
    EntanglementError,
    PulseEvent,
    PulseSchedule,
    Window,
    classical_channel_schedule,
    quantum_channel_schedule,
    run_classical_channel,
    run_quantum_channel,
)
from swapchannel.chain import wrap_phase
from swapchannel.evolve import (
    QuantumState,
    apply_local_unitary,
    inject_state,
    reduced_state,
)
from swapchannel.gates import reduced_pulse_operator
from swapchannel.mps import MPS

SNAP_EPS = 25000.0
RECORD_FIELDS = (
    "fidelity_raw",
    "fidelity_corrected",
    "phase_error_raw",
    "phase_error_corrected",
    "purity_raw",
    "purity_corrected",
)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def assert_canonical(mps):
    """Left isometries left of the centre, right isometries right of it."""
    for i, a in enumerate(mps.tensors):
        if i < mps.center:
            m = a.reshape(-1, a.shape[2])
            assert_allclose(m.conj().T @ m, np.eye(m.shape[1]), rtol=0, atol=1e-12)
        elif i > mps.center:
            m = a.reshape(a.shape[0], -1)
            assert_allclose(m @ m.conj().T, np.eye(m.shape[0]), rtol=0, atol=1e-12)


class TestMPS:
    def test_ground_state(self):
        mps = MPS.ground(4)
        assert mps.n_qubits == 4
        assert mps.trace() == 1.0
        assert mps.max_bond == 1 and mps.discarded_weight == 0.0
        assert_allclose(mps_vector(mps), QuantumState.ground(4).data)
        rho2, purity = mps.reduced_state(2)
        assert_allclose(rho2, np.diag([1.0, 0.0]))
        assert purity == 1.0
        with pytest.raises(ValueError):
            MPS.ground(0)

    def test_random_local_operators_match_dense(self, rng):
        n = 7
        mps, dense = MPS.ground(n), QuantumState.ground(n)
        for _ in range(60):
            k = int(rng.integers(1, 4))
            first = int(rng.integers(0, n - k + 1))
            u = random_unitary(rng, 1 << k)
            mps.apply(u, first)
            dense = apply_local_unitary(dense, u, first)
            q = int(rng.integers(0, n))
            rho_m, pur_m = mps.reduced_state(q)
            rho_d, pur_d = reduced_state(dense, q)
            assert_allclose(rho_m, rho_d, rtol=0, atol=1e-12)
            assert_allclose(pur_m, pur_d, rtol=0, atol=1e-12)
            assert_canonical(mps)
        assert_allclose(mps_vector(mps), dense.data, rtol=0, atol=1e-12)
        assert_allclose(mps.trace(), dense.trace(), rtol=0, atol=1e-12)
        # generic states fill the bonds up to min(2^i, 2^(n-i)) = 8
        assert mps.max_bond == 8
        assert mps.discarded_weight < 1e-28

    def test_layer_order_does_not_change_the_state(self, rng):
        n = 9
        ops = [(random_unitary(rng, 8), 0), (random_unitary(rng, 4), 3), (random_unitary(rng, 8), 6)]
        dense = QuantumState.ground(n)
        for op, first in ops:
            dense = apply_local_unitary(dense, op, first)
        for centre in (0, n - 1):
            mps = MPS.ground(n)
            mps.reduced_state(centre)  # park the centre at one end
            mps.apply_layer(ops)
            assert_allclose(mps_vector(mps), dense.data, rtol=0, atol=1e-12)

    def test_overlapping_layer_keeps_its_order(self, rng):
        n = 5
        ops = [(random_unitary(rng, 8), 1), (random_unitary(rng, 8), 2)]
        dense = QuantumState.ground(n)
        for op, first in ops:
            dense = apply_local_unitary(dense, op, first)
        mps = MPS.ground(n)
        mps.reduced_state(n - 1)
        mps.apply_layer(ops)
        assert_allclose(mps_vector(mps), dense.data, rtol=0, atol=1e-12)

    def test_inject_matches_dense_on_a_slightly_entangled_qubit(self, rng):
        # A weak entangler leaves qubit 2 with purity just below 1, so the
        # projection and renormalisation both matter.
        n = 5
        weak = np.diag(np.exp(1j * np.array([0.0, 0.0, 0.0, 0.02])))
        mps, dense = MPS.ground(n), QuantumState.ground(n)
        for q in range(n):
            u = random_unitary(rng, 2)
            mps.apply(u, q)
            dense = apply_local_unitary(dense, u, q)
        for first in (1, 2):
            mps.apply(weak, first)
            dense = apply_local_unitary(dense, weak, first)
        purity = reduced_state(dense, 2)[1]
        assert 1.0 - 1e-3 < purity < 1.0 - 1e-8
        amps = np.array(random_qubit_amplitudes(rng))
        mps.inject(2, amps, purity_tol=1e-3)
        dense = inject_state(dense, 2, amps, purity_tol=1e-3)
        assert_allclose(mps_vector(mps), dense.data, rtol=0, atol=1e-12)
        assert_allclose(mps.trace(), 1.0, rtol=0, atol=1e-12)
        assert_canonical(mps)

    def test_inject_refuses_an_entangled_qubit_and_keeps_the_state(self):
        n = 4
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        cnot = np.eye(4)[[0, 1, 3, 2]]
        mps, dense = MPS.ground(n), QuantumState.ground(n)
        for op, first in ((hadamard, 1), (cnot, 1)):  # Bell pair on qubits 1, 2
            mps.apply(op, first)
            dense = apply_local_unitary(dense, op, first)
        before = mps_vector(mps)
        with pytest.raises(EntanglementError, match="qubit 2"):
            mps.inject(2, (1.0, 0.0), purity_tol=1e-3)
        with pytest.raises(EntanglementError, match="qubit 2"):
            inject_state(dense, 2, (1.0, 0.0), purity_tol=1e-3)
        assert_allclose(mps_vector(mps), before, atol=1e-14)

    def test_rejects_bad_input(self):
        mps = MPS.ground(3)
        with pytest.raises(ValueError):
            mps.apply(np.eye(3), 0)
        with pytest.raises(ValueError):
            mps.apply(np.eye(8), 1)
        with pytest.raises(ValueError):
            mps.reduced_state(3)
        with pytest.raises(ValueError):
            mps.inject(0, (1.0, 1.0))
        with pytest.raises(ValueError):
            mps.inject(0, (1.0, 0.0, 0.0))


def _random_states(rng, n):
    return [np.array(random_qubit_amplitudes(rng)) for _ in range(n)]


class TestReducedRunnerAgainstDense:
    @pytest.mark.parametrize(
        "n_qubits, n_states", [(3, 1), (5, 2), (6, 3), (8, 4), (9, 2), (12, 3)]
    )
    def test_quantum_wire(self, design, rng, n_qubits, n_states):
        spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, n_states, design.t_ns)
        states = _random_states(rng, n_states)
        report = run_quantum_channel(spec, sch, states, mode="reduced")
        expected, final = dense_reduced_wire(spec, sch, states)
        assert len(report.records) == len(expected) == n_states
        for rec, (idx, w, fid, phase, purity) in zip(report.records, expected):
            assert (rec.data_index, rec.window_index) == (idx, w)
            want = dict(
                fidelity_raw=fid,
                fidelity_corrected=fid,
                phase_error_raw=phase,
                phase_error_corrected=phase,
                purity_raw=purity,
                purity_corrected=purity,
            )
            for field in RECORD_FIELDS:
                got = getattr(rec, field)
                if field.startswith("phase"):
                    # an even wire leaves a phase of pi, where rounding picks the sign
                    got, want[field] = wrap_phase(got - want[field]), 0.0
                assert_allclose(got, want[field], rtol=0, atol=1e-12, err_msg=field)
        assert_allclose(report.final_trace, final.trace(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_qubits", [4, 6, 8, 10])
    def test_classical_wire(self, design, rng, n_qubits):
        spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
        bits = [int(b) for b in rng.integers(0, 2, 5)]
        sch, _ = classical_channel_schedule(spec, bits, design.t_ns)
        report = run_classical_channel(spec, sch, bits, mode="reduced")
        expected = dense_reduced_bits(spec, sch, bits)
        assert report.bits_out == tuple(bits)
        assert [(r.data_index, r.window_index) for r in report.records] == [
            (i, w) for i, w, _ in expected
        ]
        assert_allclose([r.p_one for r in report.records], [p for *_, p in expected], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_schedules_grow_the_bonds(self, design, mps_spy, seed):
        # Random pulse targets and biases are no swap pattern: entanglement
        # spreads, the bonds grow past 2, and only round-off is truncated.
        rng = np.random.default_rng(seed)
        n = 8
        spec = chain_for(design, n, eps_high=SNAP_EPS)
        windows = []
        for w in range(14):
            targets = sorted(int(q) for q in rng.choice(n, size=int(rng.integers(1, 4)), replace=False))
            biases = [SNAP_EPS] * n
            for q in targets:
                biases[q] = float(rng.uniform(-60.0, 60.0))
            events = [PulseEvent(kind="cnot_pulse", qubit=q) for q in targets]
            if w == 0:
                events = [PulseEvent(kind="inject", qubit=q, data_index=i) for i, q in enumerate((0, 4))] + events
            windows.append(
                Window(
                    start_ns=w * design.t_ns,
                    duration_ns=float(rng.uniform(2.0, 12.0)),
                    biases_mhz=tuple(biases),
                    events=tuple(events),
                )
            )
        sch = PulseSchedule(n_qubits=n, windows=tuple(windows))
        states = _random_states(rng, 2)
        report = run_quantum_channel(spec, sch, states, mode="reduced")
        final = dense_reduced_replay(
            spec, sch, lambda i: states[i], None, inject_tol=1e-3, read_tol=1e-6
        )
        (mps,) = mps_spy
        assert mps.max_bond > 2
        assert mps.discarded_weight < 1e-28
        assert_allclose(mps_vector(mps), final.data, rtol=0, atol=1e-12)
        assert_allclose(report.final_trace, final.trace(), rtol=0, atol=1e-12)

    def test_inject_into_entangled_qubit_raises_like_dense(self, design):
        # Qubit 1 copies qubit 0's superposition and so is entangled with it
        # when the second state is injected there.
        spec = chain_for(design, 4, eps_high=SNAP_EPS)
        t = design.t_ns
        biases = [SNAP_EPS] * 4
        biases[1] = 0.0
        sch = PulseSchedule(
            n_qubits=4,
            windows=(
                Window(
                    start_ns=0.0,
                    duration_ns=t,
                    biases_mhz=tuple(biases),
                    events=(
                        PulseEvent(kind="inject", qubit=0, data_index=0),
                        PulseEvent(kind="cnot_pulse", qubit=1),
                    ),
                ),
                Window(
                    start_ns=t,
                    duration_ns=t,
                    biases_mhz=(SNAP_EPS,) * 4,
                    events=(PulseEvent(kind="inject", qubit=1, data_index=1),),
                ),
            ),
        )
        states = [np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([1.0, 0.0])]
        with pytest.raises(EntanglementError, match="qubit 1"):
            run_quantum_channel(spec, sch, states, mode="reduced")
        with pytest.raises(EntanglementError, match="qubit 1"):
            dense_reduced_wire(spec, sch, states)
