import itertools
import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import chain_for, random_qubit_amplitudes
from oracles import dense_reduced_wire, expm_propagator, kron_hamiltonian
import swapchannel.runner as runner
from swapchannel import (
    PulseEvent,
    PulseSchedule,
    ScheduleError,
    Window,
    classical_channel_schedule,
    compute_frame_correction,
    copy_truth_table,
    infidelity_slope,
    quantum_channel_schedule,
    run_classical_channel,
    run_gate_experiment,
    run_quantum_channel,
    schedule_from_json,
    schedule_to_json,
    swap_pulses,
    sweep_eps_high,
)
from swapchannel.chain import build_hamiltonian, phase_angle, wrap_phase
from swapchannel.evolve import QuantumState, apply_unitary, propagator
from swapchannel.gates import ideal_cnot

SNAP_EPS = 25000.0


def oracle_full_corrected(spec, schedule, states, angles):
    """Re-run a full-chain schedule with scipy propagators and hand-rolled
    partial traces; returns (records, final_trace) mirroring the package's
    corrected branch."""
    n = spec.n_qubits
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0

    def shaped(r, q):
        pre, post = 1 << q, 1 << (n - 1 - q)
        return r.reshape(pre, 2, post, pre, 2, post)

    def reduced(r, q):
        return np.einsum("xayxby->ab", shaped(r, q))

    def replace(r, q, local):
        rest = np.einsum("xayuav->xyuv", shaped(r, q))
        pre, post = 1 << q, 1 << (n - 1 - q)
        out = np.einsum("xyuv,ab->xayubv", rest, local)
        return out.reshape(dim, dim)

    records = []

    def boundary(events, w):
        nonlocal rho
        for e in events:
            if e.kind == "read_reset":
                target = states[e.data_index]
                rho2 = reduced(rho, e.qubit)
                fid = float(np.real(target.conj() @ rho2 @ target))
                if min(abs(target[0]), abs(target[1])) > 1e-6:
                    phase = wrap_phase(
                        float(
                            np.angle(target[0] * np.conj(target[1]))
                            - np.angle(rho2[0, 1])
                        )
                    )
                else:
                    phase = 0.0
                records.append((e.data_index, fid, phase))
                rho = replace(rho, e.qubit, np.diag([1.0, 0.0]).astype(complex))
            else:
                t = states[e.data_index]
                rho = replace(rho, e.qubit, np.outer(t, t.conj()))

    for i, window in enumerate(schedule.windows):
        boundary(window.boundary_events(), i)
        h = kron_hamiltonian(n, spec.delta_mhz, spec.xi_mhz, window.biases_mhz)
        u = expm_propagator(h, window.duration_ns)
        rho = u @ rho @ u.conj().T
        z = 1 - 2 * ((np.arange(dim)[:, None] >> (n - 1 - np.arange(n))) & 1)
        d = np.exp(1j * (z @ angles[i]))
        rho = d[:, None] * rho * d.conj()[None, :]
    boundary(schedule.final_events, None)
    return records, float(np.real(np.trace(rho)))


@pytest.fixture()
def dense_run(monkeypatch):
    """Call a runner with every state started as a density matrix.

    That is the dense full-mode path: inject, windows, frame and reads all
    act on rho, so it is the reference for the state-vector path.
    """
    ground = QuantumState.ground.__func__

    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(
                QuantumState,
                "ground",
                classmethod(lambda cls, n: ground(cls, n).to_mixed()),
            )
            return fn(*args, **kwargs)

    return run


class TestGateExperiment:
    def test_reduced_mode_reproduces_ideal_gate(self, design):
        spec = chain_for(design, 3)
        report = run_gate_experiment(spec, design, mode="reduced")
        assert_allclose(report.gate, ideal_cnot().matrix, atol=1e-9)
        assert report.distance < 1e-9
        assert report.worst_infidelity < 1e-12
        assert report.leakage < 1e-12
        assert_allclose(report.superposition_fidelity, 1.0, atol=1e-12)

    def test_truth_table_covers_all_inputs(self, design):
        spec = chain_for(design, 3)
        report = run_gate_experiment(spec, design, mode="reduced")
        assert [io for io, _ in report.truth_table] == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    def test_full_mode_matches_expm_oracle(self, design):
        spec = chain_for(design, 3, eps_high=SNAP_EPS)
        report = run_gate_experiment(spec, design, mode="full")
        h = kron_hamiltonian(
            3, design.delta_mhz, design.xi_mhz, [SNAP_EPS, 0.0, SNAP_EPS]
        )
        u8 = expm_propagator(h, design.t_ns)
        g = np.zeros((4, 4), dtype=complex)
        for c_out, t_out, c_in, t_in in itertools.product((0, 1), repeat=4):
            g[2 * c_out + t_out, 2 * c_in + t_in] = u8[2 * t_out + c_out, 2 * t_in + c_in]
        assert_allclose(report.gate, g, atol=1e-9)

    def test_full_mode_infidelity_scales_with_parking_bias(self, design):
        # Leading error is (delta / eps)^2 with an order-one prefactor.
        for ratio in (100.0, 1000.0):
            eps = ratio * design.delta_mhz
            spec = chain_for(design, 3, eps_high=eps)
            report = run_gate_experiment(spec, design, mode="full")
            scale = (design.delta_mhz / eps) ** 2
            assert report.worst_infidelity < 1.5 * scale
            assert report.worst_infidelity > 0.1 * scale

    def test_rejects_wrong_chain_or_mode(self, design):
        with pytest.raises(ValueError):
            run_gate_experiment(chain_for(design, 4), design, mode="full")
        with pytest.raises(ValueError):
            run_gate_experiment(chain_for(design, 3), design, mode="exact")


class TestCopyTruthTable:
    def test_reduced_rows_are_exact(self, design):
        rows = copy_truth_table(chain_for(design, 3), design, mode="reduced")
        assert len(rows) == 4
        for row in rows:
            assert row.initial[1] == row.initial[2]
            assert row.expected == (row.initial[0], row.initial[0], row.initial[2])
            assert_allclose(row.fidelity, 1.0, atol=1e-12)

    def test_full_rows_stay_faithful_at_snap_bias(self, design):
        rows = copy_truth_table(
            chain_for(design, 3, eps_high=SNAP_EPS), design, mode="full"
        )
        for row in rows:
            assert row.fidelity > 0.999


class TestSweep:
    def test_slope_is_minus_two(self, design):
        grid = [design.delta_mhz * r for r in (10.0, 100.0, 1000.0, 10000.0)]
        points = sweep_eps_high(design, grid, mode="full")
        assert [p.eps_high_mhz for p in points] == grid
        infids = [p.worst_infidelity for p in points]
        assert all(a > b for a, b in zip(infids, infids[1:]))
        slope = infidelity_slope(points)
        assert -2.3 < slope < -1.7

    def test_slope_needs_two_points(self, design):
        points = sweep_eps_high(design, [1000.0], mode="full")
        with pytest.raises(ValueError):
            infidelity_slope(points)


class TestFrameCorrection:
    def test_idle_window_angles_by_hand(self, design):
        spec = chain_for(design, 3, eps_high=SNAP_EPS)
        w = Window(start_ns=0.0, duration_ns=design.t_ns, biases_mhz=(SNAP_EPS,) * 3)
        angles = compute_frame_correction(
            PulseSchedule(n_qubits=3, windows=(w,)), spec
        )
        xi, t = design.xi_mhz, design.t_ns
        expected = [
            phase_angle(SNAP_EPS + xi, t),
            phase_angle(SNAP_EPS + 2 * xi, t),
            phase_angle(SNAP_EPS + xi, t),
        ]
        assert_allclose(angles[0], expected, rtol=1e-12)

    def test_targets_and_data_neighbours_are_excluded(self, design):
        spec = chain_for(design, 3, eps_high=SNAP_EPS)
        w = Window(
            start_ns=0.0,
            duration_ns=design.t_ns,
            biases_mhz=(SNAP_EPS, 0.0, SNAP_EPS),
            events=(
                PulseEvent(kind="inject", qubit=0, data_index=0),
                PulseEvent(kind="cnot_pulse", qubit=1),
            ),
        )
        angles = compute_frame_correction(
            PulseSchedule(n_qubits=3, windows=(w,)), spec
        )
        # The pulsed qubit gets no correction; its neighbours see no coupling
        # contribution from it (that phase belongs to the gate itself).
        assert angles[0][1] == 0.0
        assert_allclose(angles[0][0], phase_angle(SNAP_EPS, design.t_ns), rtol=1e-12)
        assert_allclose(angles[0][2], phase_angle(SNAP_EPS, design.t_ns), rtol=1e-12)

    @pytest.mark.parametrize("n_qubits", [1, 5, 7, 8, 12])
    def test_frame_diagonal_matches_per_qubit_sum(self, rng, n_qubits):
        # The loop it replaced, kept as the reference: bit for bit while the
        # row is summed in order (n <= 7), to rounding of ~1e3 rad angles after.
        angles = rng.uniform(-2e3, 2e3, n_qubits)
        idx = np.arange(1 << n_qubits)
        total = np.zeros(1 << n_qubits)
        for q in range(n_qubits):
            total = total + angles[q] * (1 - 2 * ((idx >> (n_qubits - 1 - q)) & 1))
        got = runner._frame_diagonal(angles, n_qubits)
        if n_qubits <= 7:
            np.testing.assert_array_equal(got, np.exp(1j * total))
        else:
            assert_allclose(got, np.exp(1j * total), rtol=0, atol=1e-10)

    def test_rejects_replay_violations(self, design):
        spec = chain_for(design, 4)
        sch = swap_pulses(spec, 2, 3, design.t_ns)
        bad = PulseSchedule(
            n_qubits=4,
            windows=(
                Window(
                    start_ns=-10.0,
                    duration_ns=design.t_ns,
                    biases_mhz=sch.windows[0].biases_mhz,
                    events=(PulseEvent(kind="inject", qubit=1, data_index=0),),
                ),
            )
            + sch.windows,
        )
        with pytest.raises(ScheduleError):
            compute_frame_correction(bad, spec)


class TestQuantumChannel:
    def test_reduced_transfer_is_exact(self, design, rng):
        spec = chain_for(design, 5, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 3, design.t_ns)
        states = [random_qubit_amplitudes(rng) for _ in range(3)]
        report = run_quantum_channel(spec, sch, states, mode="reduced")
        assert report.n_states == 3
        assert [r.data_index for r in report.records] == [0, 1, 2]
        for r in report.records:
            assert r.fidelity_raw > 1.0 - 1e-12
            assert abs(r.phase_error_raw) < 1e-9
            assert r.fidelity_corrected == r.fidelity_raw
        assert report.records[-1].window_index is None

    def test_even_chain_leaves_pi_phase(self, design, rng):
        spec = chain_for(design, 4, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 1, design.t_ns)
        states = [random_qubit_amplitudes(rng)]
        report = run_quantum_channel(spec, sch, states, mode="reduced")
        r = report.records[0]
        assert r.fidelity_raw > 1.0 - 1e-12 or abs(r.phase_error_raw) > 1e-6
        assert_allclose(abs(r.phase_error_raw), np.pi, atol=1e-9)

    def test_full_mode_needs_frame_correction(self, design, rng):
        spec = chain_for(design, 5, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 1, design.t_ns)
        states = [random_qubit_amplitudes(rng)]
        report = run_quantum_channel(spec, sch, states, mode="full")
        r = report.records[0]
        assert r.fidelity_corrected > 0.999
        assert abs(r.phase_error_corrected) < 0.05
        assert r.fidelity_raw < 0.9
        assert r.purity_corrected > 0.999
        assert_allclose(report.final_trace, 1.0, atol=1e-9)

    def test_full_mode_matches_density_matrix_oracle(self, design):
        # Same schedule, evolved independently with scipy propagators and
        # einsum partial traces; every corrected read must agree.
        spec = chain_for(design, 5, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 2, design.t_ns)
        states = [
            np.array([1.0, 1.0]) / np.sqrt(2.0),
            np.array([0.6, 0.8j]),
        ]
        report = run_quantum_channel(spec, sch, states, mode="full")
        angles = compute_frame_correction(sch, spec)
        expected, trace = oracle_full_corrected(spec, sch, states, angles)
        assert len(expected) == len(report.records)
        for rec, (idx, fid, phase) in zip(report.records, expected):
            assert rec.data_index == idx
            assert_allclose(rec.fidelity_corrected, fid, atol=1e-9)
            assert_allclose(rec.phase_error_corrected, phase, atol=1e-9)
        assert_allclose(report.final_trace, trace, atol=1e-9)

    @pytest.mark.parametrize("n_states", [1, 3])
    def test_vector_path_matches_dense_path(self, design, rng, dense_run, n_states):
        spec = chain_for(design, 5, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, n_states, design.t_ns)
        late_injects = [
            i
            for i, w in enumerate(sch.windows)
            if i > 0 and any(e.kind == "inject" for e in w.events)
        ]
        # One state: no boundary before the final read.  Three states: the
        # later injects are where the vector becomes a density matrix.
        assert bool(late_injects) == (n_states > 1)
        states = [np.array(random_qubit_amplitudes(rng)) for _ in range(n_states)]
        fast = run_quantum_channel(spec, sch, states, mode="full")
        dense = dense_run(run_quantum_channel, spec, sch, states, mode="full")
        assert len(fast.records) == len(dense.records) == n_states
        for got, want in zip(fast.records, dense.records):
            assert (got.data_index, got.window_index) == (want.data_index, want.window_index)
            for field in (
                "fidelity_raw",
                "fidelity_corrected",
                "phase_error_raw",
                "phase_error_corrected",
                "purity_raw",
                "purity_corrected",
            ):
                assert_allclose(getattr(got, field), getattr(want, field), atol=1e-9)
        assert_allclose(fast.final_trace, dense.final_trace, atol=1e-9)
        angles = compute_frame_correction(sch, spec)
        expected, trace = oracle_full_corrected(spec, sch, states, angles)
        for rec, (idx, fid, phase) in zip(fast.records, expected):
            assert rec.data_index == idx
            assert_allclose(rec.fidelity_corrected, fid, atol=1e-9)
            assert_allclose(rec.phase_error_corrected, phase, atol=1e-9)
        assert_allclose(fast.final_trace, trace, atol=1e-9)

    def test_reduced_mode_takes_pulse_bias_from_the_window(self, design, rng):
        # Hand-edit one pulse's bias in the schedule file: reduced mode must
        # simulate the edited schedule, not re-derive the bias from position.
        # The first pulse acts on the injected state with its neighbour in
        # |0>, so the edit rotates the state without entangling it.
        spec = chain_for(design, 5, eps_high=SNAP_EPS)
        sch, lines = quantum_channel_schedule(spec, 2, design.t_ns)
        doc = json.loads(schedule_to_json(sch, lines))
        assert sch.windows[0].gate_targets() == (0,)
        doc["windows"][0]["biases_mhz"][0] += 7.5
        edited, _ = schedule_from_json(json.dumps(doc))
        states = [np.array(random_qubit_amplitudes(rng)) for _ in range(2)]
        report = run_quantum_channel(spec, edited, states, mode="reduced")
        expected, final = dense_reduced_wire(spec, edited, states)
        for rec, (idx, w, fid, phase, purity) in zip(report.records, expected):
            assert (rec.data_index, rec.window_index) == (idx, w)
            assert_allclose(rec.fidelity_raw, fid, rtol=0, atol=1e-12)
            assert_allclose(rec.phase_error_raw, phase, rtol=0, atol=1e-12)
            assert_allclose(rec.purity_raw, purity, rtol=0, atol=1e-12)
        assert_allclose(report.final_trace, final.trace(), rtol=0, atol=1e-12)
        assert report.records[0].fidelity_raw < 0.99  # the edit does matter

    def test_reduced_mode_reads_an_entangled_output_instead_of_refusing(self, design, rng):
        # Raising window 4's pulse bias leaves the output qubit entangled with
        # the chain at the first read.  The reset keeps the qubit's dominant
        # local branch, as a |0> inject that never refuses does, and the
        # read's purity reports the entanglement.
        spec = chain_for(design, 5, eps_high=SNAP_EPS)
        sch, lines = quantum_channel_schedule(spec, 2, design.t_ns)
        doc = json.loads(schedule_to_json(sch, lines))
        (q,) = sch.windows[4].gate_targets()
        doc["windows"][4]["biases_mhz"][q] += 7.5
        edited, _ = schedule_from_json(json.dumps(doc))
        states = [np.array(random_qubit_amplitudes(rng)) for _ in range(2)]
        report = run_quantum_channel(spec, edited, states, mode="reduced")
        expected, final = dense_reduced_wire(spec, edited, states, read_tol=1.0)
        assert len(report.records) == len(expected) == 2
        for rec, (idx, w, fid, phase, purity) in zip(report.records, expected):
            assert (rec.data_index, rec.window_index) == (idx, w)
            for field, want in (("fidelity", fid), ("phase_error", phase), ("purity", purity)):
                for column in ("raw", "corrected"):
                    got = getattr(rec, f"{field}_{column}")
                    assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f"{field}_{column}")
        assert_allclose(report.final_trace, final.trace(), rtol=0, atol=1e-12)
        assert report.records[0].purity_raw < 0.99  # the output was entangled

    @pytest.mark.parametrize("n_qubits", [5, 7, 9, 11, 13, 41])
    def test_reduced_transfer_on_long_wires(self, design, rng, mps_spy, n_qubits):
        # The wires criterion 9 line-checks, simulated: exact transfer with
        # bond dimension 2 and nothing but round-off truncated.
        spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 2, design.t_ns)
        states = [np.array(random_qubit_amplitudes(rng)) for _ in range(2)]
        report = run_quantum_channel(spec, sch, states, mode="reduced")
        assert [r.data_index for r in report.records] == [0, 1]
        assert report.min_fidelity_raw >= 1.0 - 1e-9
        (mps,) = mps_spy
        assert mps.max_bond <= 2
        assert mps.discarded_weight < 1e-20

    def test_no_reset_warnings_escape(self, design, rng):
        spec = chain_for(design, 5, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 2, design.t_ns)
        states = [random_qubit_amplitudes(rng) for _ in range(2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_quantum_channel(spec, sch, states, mode="full")

    def test_input_validation(self, design, rng):
        spec = chain_for(design, 5)
        sch, _ = quantum_channel_schedule(spec, 2, design.t_ns)
        good = [random_qubit_amplitudes(rng) for _ in range(2)]
        with pytest.raises(ValueError):
            run_quantum_channel(spec, sch, good[:1], mode="reduced")
        with pytest.raises(ValueError):
            run_quantum_channel(spec, sch, good, mode="approximate")
        with pytest.raises(ValueError):
            run_quantum_channel(chain_for(design, 7), sch, good)
        with pytest.raises(ValueError):
            run_quantum_channel(spec, sch, [(1.0, 1.0), (1.0, 0.0)])
        bare = PulseSchedule(
            n_qubits=2,
            windows=(
                Window(
                    start_ns=0.0,
                    duration_ns=design.t_ns,
                    biases_mhz=(0.0, 0.0),
                    events=(PulseEvent(kind="inject", qubit=0),),
                ),
            ),
        )
        with pytest.raises(ValueError):
            run_quantum_channel(chain_for(design, 2), bare, [], mode="reduced")


class TestClassicalChannel:
    def test_all_patterns_echo_with_fixed_latency(self, design):
        spec = chain_for(design, 6, eps_high=SNAP_EPS)
        for bits in itertools.product((0, 1), repeat=3):
            sch, _ = classical_channel_schedule(spec, bits, design.t_ns)
            report = run_classical_channel(spec, sch, bits, mode="reduced")
            assert report.ok, (bits, report.bits_out)
            assert report.bits_out == bits
            assert report.latency_sequences == 3
            assert report.min_margin > 1.0 - 1e-9

    def test_full_mode_keeps_wide_margins(self, design):
        spec = chain_for(design, 6, eps_high=SNAP_EPS)
        bits = (1, 0, 1)
        sch, _ = classical_channel_schedule(spec, bits, design.t_ns)
        report = run_classical_channel(spec, sch, bits, mode="full")
        assert report.ok
        assert report.min_margin > 0.99
        assert report.latency_sequences == 3

    def test_vector_path_matches_dense_path(self, design, dense_run):
        spec = chain_for(design, 6, eps_high=SNAP_EPS)
        bits = (1, 0, 1, 1)
        sch, _ = classical_channel_schedule(spec, bits, design.t_ns)
        fast = run_classical_channel(spec, sch, bits, mode="full")
        dense = dense_run(run_classical_channel, spec, sch, bits, mode="full")
        assert fast.bits_out == dense.bits_out == bits
        assert len(fast.records) == len(dense.records) == len(bits)
        for got, want in zip(fast.records, dense.records):
            assert (got.data_index, got.window_index) == (want.data_index, want.window_index)
            assert_allclose(got.p_one, want.p_one, atol=1e-9)
        assert_allclose(fast.min_margin, dense.min_margin, atol=1e-9)

    def test_latency_scales_with_chain_length(self, design):
        for L in (4, 8):
            spec = chain_for(design, L, eps_high=SNAP_EPS)
            bits = (1, 1)
            sch, _ = classical_channel_schedule(spec, bits, design.t_ns)
            report = run_classical_channel(spec, sch, bits, mode="reduced")
            assert report.ok
            assert report.latency_sequences == L // 2

    def test_records_sorted_and_complete(self, design):
        spec = chain_for(design, 6, eps_high=SNAP_EPS)
        bits = (0, 1, 1, 0)
        sch, _ = classical_channel_schedule(spec, bits, design.t_ns)
        report = run_classical_channel(spec, sch, bits, mode="reduced")
        assert [r.data_index for r in report.records] == [0, 1, 2, 3]
        assert all(r.bit in (0, 1) for r in report.records)

    def test_rejects_bad_input(self, design):
        spec = chain_for(design, 6)
        sch, _ = classical_channel_schedule(spec, [1], design.t_ns)
        with pytest.raises(ValueError):
            run_classical_channel(spec, sch, [2])
        with pytest.raises(ValueError):
            run_classical_channel(spec, sch, [1], mode="other")
        with pytest.raises(ValueError):
            run_classical_channel(chain_for(design, 4), sch, [1])

    @pytest.mark.parametrize("mode", ["reduced", "full"])
    def test_too_few_bits_names_the_injected_indices(self, design, mode):
        spec = chain_for(design, 6, eps_high=SNAP_EPS)
        sch, _ = classical_channel_schedule(spec, [1, 0, 1], design.t_ns)
        with pytest.raises(ValueError, match=r"data indices \[0, 1, 2\] but 2"):
            run_classical_channel(spec, sch, [1, 0], mode=mode)


def _read_of_missing_index(design, where: str) -> tuple:
    """A 2-qubit schedule injecting data index 0 and reading index 3, in a
    window or in ``final_events``."""
    spec = chain_for(design, 2, eps_high=SNAP_EPS)
    read = PulseEvent(kind="read_reset", qubit=1, data_index=3)
    windows = [
        Window(0.0, design.t_ns, (SNAP_EPS,) * 2,
               (PulseEvent(kind="inject", qubit=0, data_index=0),)),
        Window(design.t_ns, design.t_ns, (SNAP_EPS,) * 2,
               (read,) if where == "window" else ()),
    ]
    final = (read,) if where == "final" else ()
    return spec, PulseSchedule(n_qubits=2, windows=tuple(windows), final_events=final)


class TestReadDataIndexCheck:
    """A read of a data index with no data state is refused up front, like an
    inject of one (before: an IndexError from the quantum runner and a
    ClassicalRecord for the nonexistent index from the classical one)."""

    @pytest.mark.parametrize("where", ["window", "final"])
    @pytest.mark.parametrize("mode", ["reduced", "full"])
    def test_quantum_channel(self, design, mode, where):
        spec, sch = _read_of_missing_index(design, where)
        with pytest.raises(ValueError, match=r"data indices \[0, 3\] but 1 states"):
            run_quantum_channel(spec, sch, [(1.0, 0.0)], mode=mode)

    @pytest.mark.parametrize("where", ["window", "final"])
    @pytest.mark.parametrize("mode", ["reduced", "full"])
    def test_classical_channel(self, design, mode, where):
        spec, sch = _read_of_missing_index(design, where)
        with pytest.raises(ValueError, match=r"data indices \[0, 3\] but 1 states"):
            run_classical_channel(spec, sch, [1], mode=mode)

    def test_reads_without_a_data_index_need_no_state(self, design):
        spec, sch = _read_of_missing_index(design, "final")
        blank = PulseEvent(kind="read_reset", qubit=1)
        sch = PulseSchedule(n_qubits=2, windows=sch.windows, final_events=(blank,))
        report = run_classical_channel(spec, sch, [1], mode="reduced")
        assert report.records == ()


class TestFullModeFastPath:
    """Structural guards: full mode diagonalises real matrices and keeps a
    one-state wire on a state vector for every window."""

    def test_chain_hamiltonian_is_float64(self, design):
        h = build_hamiltonian(chain_for(design, 4, eps_high=SNAP_EPS), [SNAP_EPS] * 4)
        assert h.dtype == np.float64

    def test_one_state_wire_applies_every_window_to_a_vector(
        self, design, monkeypatch
    ):
        kinds = []

        def spy(state, u):
            kinds.append(state.kind)
            return apply_unitary(state, u)

        monkeypatch.setattr(runner, "apply_unitary", spy)
        spec = chain_for(design, 6, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 1, design.t_ns)
        run_quantum_channel(spec, sch, [np.array([0.6, 0.8j])], mode="full")
        # raw and frame-corrected branches, one call each per window
        assert len(kinds) == 2 * sch.n_windows
        assert set(kinds) == {"pure"}

    def test_propagator_never_diagonalises_a_complex_chain_hamiltonian(
        self, design, monkeypatch
    ):
        dtypes = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            dtypes.append(np.asarray(a).dtype)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        spec = chain_for(design, 5, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 2, design.t_ns)
        for w in sch.windows:
            propagator(build_hamiltonian(spec, w.biases_mhz), w.duration_ns)
        assert len(dtypes) == sch.n_windows
        assert not any(np.issubdtype(dt, np.complexfloating) for dt in dtypes)
