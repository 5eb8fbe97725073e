import functools
import itertools
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import chain_for, random_qubit_amplitudes
from oracles import (
    _boundary_events, dense_reduced_wire, dense_rho_run, expm_propagator, hold_bias_swap_pulses,
    kron_hamiltonian, mirror_schedule, plain_window_eigensystem, schedule_rows, svd_replace_qubit,
)
import swapchannel.gates as gates
import swapchannel.runner as runner
import swapchannel.scheduler as scheduler
from swapchannel import (
    PulseEvent,
    PulseSchedule,
    ScheduleError,
    Window,
    classical_channel_schedule,
    compute_frame_correction,
    copy_truth_table,
    infidelity_slope,
    line_conflict_check,
    quantum_channel_schedule,
    run_classical_channel,
    run_gate_experiment,
    run_quantum_channel,
    schedule_from_json,
    schedule_to_json,
    snapped_hold_bias,
    solve_parameters,
    sweep_eps_high,
    validate_sacrificial,
)
from swapchannel.chain import build_hamiltonian, phase_angle, wrap_phase
from swapchannel.cli import main
from swapchannel.evolve import QuantumState, propagator
from swapchannel.gates import IDEAL_CNOT

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

    windows, final_events = schedule_rows(schedule)
    for i, window in enumerate(windows):
        boundary(_boundary_events(window), i)
        h = kron_hamiltonian(n, spec.delta_mhz, spec.xi_mhz, window.biases_mhz)
        u = expm_propagator(h, window.duration_ns)
        rho = u @ rho @ u.conj().T
        z = 1 - 2 * ((np.arange(dim)[:, None] >> (n - 1 - np.arange(n))) & 1)
        d = np.exp(1j * (z @ angles[i]))
        rho = d[:, None] * rho * d.conj()[None, :]
    boundary(final_events, None)
    return records, float(np.real(np.trace(rho)))


@pytest.fixture()
def dense_rho(monkeypatch):
    """Call a runner with its engine swapped for ``oracles.dense_rho_run``:
    the same reads, graded the same way, made on 2^L x 2^L density
    matrices instead of the factor ``W``.

    For the whole test the engine's own runs take each window's eigensystem
    from one plain ``eigh`` of its Hamiltonian, as ``dense_rho_run`` does, so
    a comparison at 1e-12 tests the factor representation alone; the mirror
    sharing has its own tests against the plain path (``TestMirrorSharing``).
    """
    monkeypatch.setattr(runner, "_window_eigensystem", plain_window_eigensystem)

    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(runner, "_execute", dense_rho_run)
            return fn(*args, **kwargs)

    return run


def assert_transfer_reports_match(got, want, atol=1e-12):
    """Every record field and the final trace within ``atol``; phases mod 2pi."""
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        assert (a.data_index, a.window_index) == (b.data_index, b.window_index)
        for column in ("raw", "corrected"):
            for field in ("fidelity", "purity"):
                name = f"{field}_{column}"
                assert_allclose(getattr(a, name), getattr(b, name), rtol=0, atol=atol,
                                err_msg=name)
            name = f"phase_error_{column}"
            assert abs(wrap_phase(getattr(a, name) - getattr(b, name))) <= atol, name
    assert_allclose(got.final_trace, want.final_trace, rtol=0, atol=atol)


def report_distance(got, want) -> float:
    """The largest difference of any record field or the final trace; phases
    mod 2pi."""
    gaps = [abs(got.final_trace - want.final_trace)]
    for a, b in zip(got.records, want.records):
        for column in ("raw", "corrected"):
            for field in ("fidelity", "purity"):
                gaps.append(abs(getattr(a, f"{field}_{column}") - getattr(b, f"{field}_{column}")))
            name = f"phase_error_{column}"
            gaps.append(abs(wrap_phase(getattr(a, name) - getattr(b, name))))
    return max(gaps)


def entangled_read_schedule(spec, design) -> PulseSchedule:
    """The 2-state wire with window 4's pulse bias raised by 7.5 MHz, which
    leaves the output qubit entangled with the chain at the first read."""
    sch, lines = quantum_channel_schedule(spec, 2, design.t_ns)
    doc = json.loads(schedule_to_json(sch, lines))
    (q,) = sch._cut[0][4]
    doc["windows"][4]["biases_mhz"][q] += 7.5
    return schedule_from_json(json.dumps(doc))[0]


class TestGateExperiment:
    def test_reduced_mode_reproduces_ideal_gate(self, design):
        spec = chain_for(design, 3)
        report = run_gate_experiment(spec, design, mode="reduced")
        assert_allclose(report.gate, IDEAL_CNOT, atol=1e-9)
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
        points = sweep_eps_high(design, grid)
        assert [p.eps_high_mhz for p in points] == grid
        infids = [p.worst_infidelity for p in points]
        assert all(a > b for a, b in zip(infids, infids[1:]))
        slope = infidelity_slope(points)
        assert -2.3 < slope < -1.7

    @pytest.mark.parametrize("bad, fragment", [
        (True, r"eps_grid\[0\] must be a number, got True"),
        (None, r"eps_grid\[0\] must be a number, got None"),
    ], ids=["bool", "none"])
    def test_refuses_a_bias_that_is_not_a_number(self, design, bad, fragment):
        # True used to run as 1 MHz
        with pytest.raises(ValueError, match=fragment):
            sweep_eps_high(design, [bad, 2.0])

    def test_slope_needs_two_points(self, design):
        points = sweep_eps_high(design, [1000.0])
        with pytest.raises(ValueError):
            infidelity_slope(points)

    def test_slope_needs_two_distinct_biases(self, design):
        points = sweep_eps_high(design, [1000.0, 1000.0, 1000.0])
        with pytest.raises(ValueError, match="two or more distinct biases"):
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
        windows, _ = schedule_rows(hold_bias_swap_pulses(spec, 2, 3, design.t_ns))
        bad = PulseSchedule(
            n_qubits=4,
            windows=(
                Window(
                    start_ns=-10.0,
                    duration_ns=design.t_ns,
                    biases_mhz=windows[0].biases_mhz,
                    events=(PulseEvent(kind="inject", qubit=1, data_index=0),),
                ),
            )
            + windows,
        )
        with pytest.raises(ScheduleError):
            compute_frame_correction(bad, spec)

    def test_refuses_a_spec_of_another_size(self, design):
        # a 5-qubit wire with a 7-qubit spec once gave (12, 5) angles
        sch, _ = quantum_channel_schedule(chain_for(design, 5), 1, design.t_ns)
        with pytest.raises(ValueError, match="^schedule and spec disagree on n_qubits$"):
            compute_frame_correction(sch, chain_for(design, 7))

    def test_checks_and_a_full_run_share_one_replay(self, design, monkeypatch):
        calls = []
        real = scheduler.replay_occupancy

        def counted(schedule):
            calls.append(schedule)
            return real(schedule)

        for module in (scheduler, runner):
            monkeypatch.setattr(module, "replay_occupancy", counted, raising=False)
        spec = chain_for(design, 3, eps_high=SNAP_EPS)
        sch, lines = quantum_channel_schedule(spec, 1, design.t_ns)
        assert validate_sacrificial(sch) == ()
        assert line_conflict_check(sch, lines).ok
        compute_frame_correction(sch, spec)
        report = run_quantum_channel(spec, sch, [[1.0, 0.0]], mode="full")
        assert report.records[0].fidelity_corrected > 0.999
        assert calls == [sch]


class TestRunPathBuildsNoEventRows:
    """Runs, the line check and ``validate`` walk the schedule's arrays and its
    one per-window cut: none of them builds a :class:`PulseEvent` or
    :class:`Window` row."""

    @pytest.fixture()
    def events_built(self, monkeypatch):
        calls = []
        for row in (PulseEvent, Window):
            init = row.__init__
            monkeypatch.setattr(row, "__init__", lambda self, *args, init=init, **kwargs: (
                calls.append(type(self)) or init(self, *args, **kwargs)))
        return calls

    @pytest.mark.parametrize("mode", ["reduced", "full"])
    def test_runs(self, design, rng, events_built, mode):
        spec = chain_for(design, 6, eps_high=SNAP_EPS)
        states = [np.array(random_qubit_amplitudes(rng)) for _ in range(2)]
        sch, _ = quantum_channel_schedule(spec, 2, design.t_ns)
        assert len(run_quantum_channel(spec, sch, states, mode=mode).records) == 2
        sch, _ = classical_channel_schedule(spec, [1, 0, 1], design.t_ns)
        assert run_classical_channel(spec, sch, [1, 0, 1], mode=mode).ok
        assert events_built == []

    def test_line_check_and_validate(self, design, events_built, tmp_path):
        spec = chain_for(design, 6, eps_high=SNAP_EPS)
        for sch, lines in (quantum_channel_schedule(spec, 2, design.t_ns),
                           classical_channel_schedule(spec, [1, 0, 1], design.t_ns)):
            assert line_conflict_check(sch, lines).ok
            path = tmp_path / "wire.json"
            path.write_text(schedule_to_json(sch, lines))
            assert main(["validate", "--schedule", str(path)]) == 0
        assert events_built == []


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

    def test_reduced_run_holds_no_copy_of_the_biases(self, design, rng):
        # the run turns each bias profile into floats once; the whole
        # (n_windows, n_qubits) array as nested lists peaked at 7.9 MB here
        spec = chain_for(design, 256, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 16, design.t_ns)
        states = [random_qubit_amplitudes(rng) for _ in range(16)]
        assert sch.replay.ok  # computed once per schedule, before the run
        tracemalloc.start()
        try:
            report = run_quantum_channel(spec, sch, states, mode="reduced")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.min_fidelity_corrected > 1.0 - 1e-12  # an even wire: Z on each
        assert peak < sch.n_windows * sch.n_qubits * 8  # the bytes of the bias table

    @pytest.mark.parametrize("mode", ["reduced", "full"])
    def test_non_finite_data_state_is_refused_before_running(self, design, mode):
        spec = chain_for(design, 3, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 1, design.t_ns)
        with pytest.raises(ValueError, match="amplitudes must be finite and normalised"):
            run_quantum_channel(spec, sch, [[np.nan, 0.0]], mode=mode)

    def test_even_chain_leaves_pi_phase(self, design, rng):
        spec = chain_for(design, 4, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 1, design.t_ns)
        states = [random_qubit_amplitudes(rng)]
        report = run_quantum_channel(spec, sch, states, mode="reduced")
        r = report.records[0]
        assert r.fidelity_raw > 1.0 - 1e-12 or abs(r.phase_error_raw) > 1e-6
        assert_allclose(abs(r.phase_error_raw), np.pi, atol=1e-9)

    @pytest.mark.parametrize("n_qubits", [4, 6, 8])
    def test_even_chain_corrected_column_tracks_the_pauli_frame(self, design, n_qubits):
        # The L - 1 swaps leave a Z on each state; the corrected column undoes
        # it, and the raw column keeps the phase of pi.
        spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 2, design.t_ns)
        probe = np.array([1.0, 1j]) / np.sqrt(2.0)
        report = run_quantum_channel(spec, sch, [probe, probe], mode="reduced")
        assert len(report.records) == 2
        for r in report.records:
            assert r.fidelity_corrected >= 1.0 - 1e-9
            assert abs(r.phase_error_corrected) < 1e-9
            assert r.fidelity_raw < 1e-9
            assert_allclose(abs(r.phase_error_raw), np.pi, atol=1e-9)

    def test_even_full_mode_wire_corrected_column_tracks_the_pauli_frame(self, design):
        spec = chain_for(design, 6, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 2, design.t_ns)
        probe = np.array([1.0, 1j]) / np.sqrt(2.0)
        report = run_quantum_channel(spec, sch, [probe, probe], mode="full")
        assert report.min_fidelity_corrected >= 0.999

    @pytest.mark.parametrize("n_qubits", [5, 7])
    def test_full_mode_wire_infidelity_falls_as_the_square_of_the_parking_bias(
            self, design, n_qubits):
        # each doubling of eps_high (k * delta, unsnapped) divides the corrected
        # infidelity by 4: the (delta / eps_high)^2 law on a whole wire
        probe = np.array([1.0, 1j]) / np.sqrt(2.0)
        infidelity = []
        for k in (250, 500, 1000, 2000, 4000):
            spec = chain_for(design, n_qubits, eps_high=k * design.delta_mhz)
            sch, _ = quantum_channel_schedule(spec, 1, design.t_ns)
            (record,) = run_quantum_channel(spec, sch, [probe], mode="full").records
            infidelity.append(1.0 - record.fidelity_corrected)
        ratios = np.divide(infidelity[:-1], infidelity[1:])
        assert_allclose(ratios, 4.0, rtol=0.05)  # 3.95-3.99 at L = 5, 3.92-3.99 at L = 7

    def test_a_second_reduced_run_builds_no_pulse_operator(self, design, rng, monkeypatch):
        # reduced_pulse_operator keeps its blocks for the process
        spec = chain_for(design, 7, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 2, design.t_ns)
        states = [np.array(random_qubit_amplitudes(rng)) for _ in range(2)]
        first = run_quantum_channel(spec, sch, states, mode="reduced")
        monkeypatch.setattr(gates, "propagator", None)  # a build would raise
        assert run_quantum_channel(spec, sch, states, mode="reduced") == first

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

    @pytest.mark.parametrize("n_states", [1, 2, 3, 4])
    def test_vector_path_matches_dense_path(self, design, rng, dense_rho, n_states):
        # The runner's factor W (a vector until a mid-run boundary) against
        # the dense-rho path, frame correction on, at L = 3..7.
        for n_qubits in range(3, 8):
            spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
            sch, _ = quantum_channel_schedule(spec, n_states, design.t_ns)
            states = [np.array(random_qubit_amplitudes(rng)) for _ in range(n_states)]
            fast = run_quantum_channel(spec, sch, states, mode="full")
            dense = dense_rho(run_quantum_channel, spec, sch, states, mode="full")
            assert len(fast.records) == n_states
            assert_transfer_reports_match(fast, dense)

    def test_full_mode_entangled_read_matches_dense_path(self, design, rng, dense_rho):
        # A read that leaves the chain mixed, so the factor's rank grows and
        # the later inject acts on a mixed register.
        spec = chain_for(design, 5, eps_high=SNAP_EPS)
        edited = entangled_read_schedule(spec, design)
        states = [np.array(random_qubit_amplitudes(rng)) for _ in range(2)]
        fast = run_quantum_channel(spec, edited, states, mode="full")
        dense = dense_rho(run_quantum_channel, spec, edited, states, mode="full")
        assert fast.records[0].purity_raw < 0.99
        assert_transfer_reports_match(fast, dense)

    def test_reduced_mode_takes_pulse_bias_from_the_window(self, design, rng):
        # Hand-edit one pulse's bias in the schedule file: reduced mode must
        # simulate the edited schedule, not re-derive the bias from position.
        # The first pulse acts on the injected state with its neighbour in
        # |0>, so the edit rotates the state without entangling it.
        spec = chain_for(design, 5, eps_high=SNAP_EPS)
        sch, lines = quantum_channel_schedule(spec, 2, design.t_ns)
        doc = json.loads(schedule_to_json(sch, lines))
        assert sch._cut[0][0] == [0]
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
        edited = entangled_read_schedule(spec, design)
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
        # an inject without a data index is refused by the schedule it goes into
        with pytest.raises(ValueError):
            PulseSchedule(1, [Window(0.0, 10.0, (0.0,), (PulseEvent(kind="inject", qubit=0),))])


class TestClassicalChannel:
    @pytest.mark.parametrize(
        "bad, fragment",
        [
            (1.7, "bits[0] must be an integer, got 1.7"),
            (True, "bits[0] must be an integer, got True"),
            ("1", "bits[0] must be an integer, got '1'"),
            (2, "bits[0] must be <= 1, got 2"),
        ],
        ids=["float", "bool", "str", "two"],
    )
    def test_refuses_bits_that_are_not_the_integers_0_and_1(self, design, bad, fragment):
        # 1.7, True and '1' used to run as the bit 1, where the schedule refuses them
        spec = chain_for(design, 6, eps_high=SNAP_EPS)
        sch, _ = classical_channel_schedule(spec, [1, 0, 1], design.t_ns)
        with pytest.raises(ValueError) as info:
            run_classical_channel(spec, sch, [bad, 0, 1])
        assert str(info.value) == fragment
        report = run_classical_channel(spec, sch, np.array([1, 0, 1]))
        assert report.bits_in == (1, 0, 1) and report.ok

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

    def test_vector_path_matches_dense_path(self, design, dense_rho):
        spec = chain_for(design, 6, eps_high=SNAP_EPS)
        bits = (1, 0, 1, 1)
        sch, _ = classical_channel_schedule(spec, bits, design.t_ns)
        fast = run_classical_channel(spec, sch, bits, mode="full")
        dense = dense_rho(run_classical_channel, spec, sch, bits, mode="full")
        assert fast.bits_out == dense.bits_out == bits
        assert len(fast.records) == len(dense.records) == len(bits)
        for got, want in zip(fast.records, dense.records):
            assert (got.data_index, got.window_index, got.bit) == (
                want.data_index, want.window_index, want.bit)
            assert_allclose(got.p_one, want.p_one, rtol=0, atol=1e-12)
        assert_allclose(fast.min_margin, dense.min_margin, rtol=0, atol=1e-12)

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
        sch = PulseSchedule(n_qubits=2, windows=schedule_rows(sch)[0], final_events=(blank,))
        report = run_classical_channel(spec, sch, [1], mode="reduced")
        assert report.records == ()

    @pytest.mark.parametrize("blank_first", [False, True], ids=["blank-last", "blank-first"])
    @pytest.mark.parametrize("mode", ["reduced", "full"])
    def test_minima_are_over_the_reads_of_data(self, design, mode, blank_first):
        # a read with no data index grades as NaN; before, min returned it
        # when it came first and skipped it when it came last
        spec = chain_for(design, 5, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 1, design.t_ns)
        blank = (PulseEvent(kind="read_reset", qubit=2),)
        windows, final = schedule_rows(sch)
        final = blank + final if blank_first else final + blank
        sch = PulseSchedule(n_qubits=5, windows=windows, final_events=final)
        assert sch.replay.ok
        report = run_quantum_channel(spec, sch, [(0.6, 0.8j)], mode=mode)
        (none,), (data,) = ([r for r in report.records if (r.data_index >= 0) == graded]
                            for graded in (False, True))
        assert none.data_index == -1
        assert np.isnan(none.fidelity_raw) and np.isnan(none.fidelity_corrected)
        assert (report.min_fidelity_raw, report.min_fidelity_corrected) == (
            data.fidelity_raw, data.fidelity_corrected)
        assert data.fidelity_corrected > 0.999

    @pytest.mark.parametrize("mode", ["reduced", "full"])
    def test_on_read_gets_each_reads_data_index(self, design, mode):
        # the engine hands on the event table's value: -1 for a read without one
        spec, sch = _read_of_missing_index(design, "window")
        blank = PulseEvent(kind="read_reset", qubit=0)
        sch = PulseSchedule(n_qubits=2, windows=schedule_rows(sch)[0], final_events=(blank,))
        reads = []
        runner._execute(spec, sch, [(1.0, 0.0)] * 4, lambda data, w, r: reads.append((data, w)),
                        mode=mode)
        assert reads == [(3, 1), (-1, None)]
        assert {type(data) for data, _ in reads} == {int}

    @pytest.mark.parametrize("mode", ["reduced", "full"])
    def test_an_index_past_int64_is_named(self, design, mode):
        # such a schedule has an object event table; its indices are plain ints
        spec, sch = _read_of_missing_index(design, "window")
        big = PulseEvent(kind="read_reset", qubit=1, data_index=2**64)
        sch = PulseSchedule(n_qubits=2, windows=schedule_rows(sch)[0], final_events=(big,))
        with pytest.raises(ValueError, match=rf"data indices \[0, 3, {2**64}\] but 1 states"):
            run_quantum_channel(spec, sch, [(1.0, 0.0)], mode=mode)

    @pytest.mark.parametrize("event, message", [
        (PulseEvent(kind="hold", qubit=1, data_index=5), "window 0: unknown event kind 'hold'"),
        (PulseEvent(kind="cnot_pulse", qubit=1, data_index=5),
         "window 0: gate event on qubit 1 has a data_index"),
    ])
    def test_only_boundary_events_name_data(self, design, event, message):
        # only injects and reads name data: any other event naming a data
        # index is refused before a run, and the schedule without it runs
        spec = chain_for(design, 2, eps_high=SNAP_EPS)
        inject = PulseEvent(kind="inject", qubit=0, data_index=0)
        final = (PulseEvent(kind="read_reset", qubit=0, data_index=0),)
        with pytest.raises(ScheduleError, match=f"^{re.escape(message)}$"):
            PulseSchedule(2, (Window(0.0, design.t_ns, (SNAP_EPS,) * 2, (inject, event)),), final)
        sch = PulseSchedule(2, (Window(0.0, design.t_ns, (SNAP_EPS,) * 2, (inject,)),), final)
        assert run_classical_channel(spec, sch, [1], mode="reduced").bits_out == (1,)


def _one_window_copy(design, order, read):
    """Four qubits, |1> injected at qubit 0, one window pulsing ``order`` (at
    bias 0, the rest parked) and a final read of qubit ``read``."""
    biases = tuple(0.0 if q in order else SNAP_EPS for q in range(4))
    events = (PulseEvent(kind="inject", qubit=0, data_index=0),) + tuple(
        PulseEvent(kind="cnot_pulse", qubit=q) for q in order)
    return PulseSchedule(4, (Window(0.0, design.t_ns, biases, events),),
                         (PulseEvent(kind="read_reset", qubit=read, data_index=0),))


class TestOneLayerPerWindow:
    """A window's pulses are one layer: a set of qubits, no two of them
    neighbours, so the order and repetition of its gate events do not matter."""

    @pytest.mark.parametrize("order", [(1, 2), (2, 1)])
    def test_neighbours_pulsed_together_are_refused(self, design, order):
        # read one pulse after the other, this window copied |1> to qubit 2
        # or not at all, depending on the order of its events
        spec = chain_for(design, 4, eps_high=SNAP_EPS)
        sch = _one_window_copy(design, order, read=2)
        with pytest.raises(ValueError, match="neighbours 1 and 2 are pulsed in one layer"):
            run_classical_channel(spec, sch, [1], mode="reduced")
        with pytest.raises(ScheduleError, match="neighbours 1 and 2 are pulsed in one window"):
            run_quantum_channel(spec, sch, [[0.0, 1.0]], mode="full")
        # a full-mode classical run needs no replay and simulates what it is given
        full = run_classical_channel(spec, sch, [1], mode="full")
        assert_allclose(full.records[0].p_one, 0.5731304041182937, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("mode", ["reduced", "full"])
    def test_a_repeated_pulse_is_pulsed_once(self, design, mode):
        spec = chain_for(design, 4, eps_high=SNAP_EPS)
        sch = _one_window_copy(design, (1, 1), read=1)
        assert sch._cut[0] == [[1]] and sch.replay.ok
        report = run_classical_channel(spec, sch, [1], mode=mode)
        assert_allclose(report.records[0].p_one, 1.0, rtol=0, atol=1e-6)


class TestFullModeFastPath:
    """Structural guards: full mode diagonalises real matrices, keeps a
    one-state wire on a state vector for every window and compresses the
    factor of a multi-state wire."""

    def test_chain_hamiltonian_is_float64(self, design):
        h = build_hamiltonian(chain_for(design, 4, eps_high=SNAP_EPS), [SNAP_EPS] * 4)
        assert h.dtype == np.float64

    def test_one_state_wire_applies_every_window_to_a_vector(
        self, design, monkeypatch
    ):
        columns = []
        apply = runner.apply_eigensystem

        def spy(states, evecs, angles, mirrored):
            columns.append([s.data.shape[1] for s in states])
            return apply(states, evecs, angles, mirrored)

        monkeypatch.setattr(runner, "apply_eigensystem", spy)
        spec = chain_for(design, 6, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 1, design.t_ns)
        run_quantum_channel(spec, sch, [np.array([0.6, 0.8j])], mode="full")
        # one product per window, in which the raw and the frame-corrected
        # branch are one column each
        assert columns == [[1, 1]] * sch.n_windows

    @pytest.mark.parametrize("n_qubits", [8, 10])
    def test_a_one_state_wire_holds_at_most_six_eigenvector_matrices(self, design, n_qubits):
        # A mirror class keeps one V, and a window of its other member permutes
        # the factor's rows instead.  While that window cached a row-permuted
        # copy of V of its own, tracemalloc's peak here was 8.2 and 8.0
        # matrices of 8 * 4^L bytes; sharing V brought it to 5.1 and 5.0.
        spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 1, design.t_ns)
        tracemalloc.start()
        try:
            report = run_quantum_channel(spec, sch, [np.array([0.6, 0.8j])], mode="full")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.min_fidelity_corrected > 0.999
        assert peak <= 6 * 8 * 4**n_qubits

    def test_multi_state_wire_keeps_the_factor_rank_low(self, design, rng, monkeypatch):
        # Each reset or inject doubles the columns of W; without compression
        # 4 states at L = 7 would reach 2^8 columns.  Keeping the singular
        # values above 1e-14 of the largest reached 43 here; keeping only the
        # weights float64 resolves in rho (above eps of the largest) reaches 24.
        ranks = []
        apply = runner.apply_eigensystem

        def spy(states, evecs, angles, mirrored):
            ranks.extend(s.data.shape[1] for s in states)  # each branch's own rank
            return apply(states, evecs, angles, mirrored)

        monkeypatch.setattr(runner, "apply_eigensystem", spy)
        spec = chain_for(design, 7, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 4, design.t_ns)
        states = [np.array(random_qubit_amplitudes(rng)) for _ in range(4)]
        run_quantum_channel(spec, sch, states, mode="full")
        assert ranks[0] == 1
        assert 1 < max(ranks) <= 40

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
        for w in schedule_rows(sch)[0]:
            propagator(build_hamiltonian(spec, w.biases_mhz), w.duration_ns)
        assert len(dtypes) == sch.n_windows
        assert not any(np.issubdtype(dt, np.complexfloating) for dt in dtypes)

    @pytest.mark.parametrize("n_qubits, n_states", [(5, 1), (6, 2), (7, 3), (8, 1), (9, 4)])
    def test_a_full_run_diagonalises_each_mirror_class_once(
        self, design, rng, monkeypatch, n_qubits, n_states
    ):
        # The eigensystem of each (biases, duration) key is cached for the
        # run and shared by the raw and corrected branches.  A key and its
        # mirror image (biases reversed) make one class: one float64 eigh of
        # dimension 2^L, the other key sharing its eigenvectors with the
        # factor's rows permuted.
        # A self-mirror key is its own class and makes two eighs, one per
        # mirror sector, of dimensions (2^L +- 2^ceil(L/2)) / 2.  No
        # propagator is assembled.  The only other eighs are the complex
        # Gram matrices of the factor's compression: one per branch (raw and
        # corrected) per reset or inject, of order at most 2^(L-1).
        calls = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            calls.append((np.asarray(a).dtype, len(a)))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        monkeypatch.setattr(runner, "propagator", None)  # a call would raise
        spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, n_states, design.t_ns)
        states = [np.array(random_qubit_amplitudes(rng)) for _ in range(n_states)]
        run_quantum_channel(spec, sch, states, mode="full")
        keys = {(w.biases_mhz, w.duration_ns) for w in schedule_rows(sch)[0]}
        classes = {frozenset({(b, t), (b[::-1], t)}) for b, t in keys}
        n_self = sum(len(c) == 1 for c in classes)
        dim, fixed = 2**n_qubits, 2 ** -(-n_qubits // 2)
        want = [dim] * (len(classes) - n_self) + [(dim + fixed) // 2, (dim - fixed) // 2] * n_self
        real = [(dt, n) for dt, n in calls if dt == np.float64]
        gram = [(dt, n) for dt, n in calls if dt != np.float64]
        assert 1 < len(classes) < len(keys) < sch.n_windows
        assert sorted(n for _, n in real) == sorted(want)
        if (n_qubits, n_states) == (8, 1):
            assert len(real) == 4  # 8 keys in 4 mirror pairs, none self-mirror
        boundaries = sum(map(len, sch._cut[1]))
        assert len(gram) == 2 * boundaries
        assert len(calls) == len(want) + 2 * boundaries  # no complex Hamiltonian eigh
        assert {dt for dt, _ in gram} == {np.dtype(np.complex128)}
        assert max(n for _, n in gram) <= dim // 2


def hand_built_schedule(rng, n_qubits: int, t_ns: float) -> PulseSchedule:
    """Windows whose bias profiles are paired with their mirror image, are
    their own mirror image, or neither (one mirror image at another
    duration), with injects at both ends, a mid-run read that leaves the
    chain mixed, and a later inject."""
    def profile():
        return np.where(rng.random(n_qubits) < 0.4, SNAP_EPS,
                        rng.uniform(-60.0, 60.0, n_qubits))

    paired, other, unpaired = profile(), profile(), profile()
    unpaired[0], unpaired[-1] = 5.0, -5.0  # never its own mirror image
    self_mirror = (other + other[::-1]) / 2
    profiles = [(paired, t_ns), (self_mirror, t_ns), (unpaired, t_ns),
                (paired[::-1], t_ns), (paired[::-1], 0.7 * t_ns), (paired, t_ns),
                (self_mirror, t_ns), (unpaired, t_ns)]
    events = {
        0: (PulseEvent("inject", 0, 0), PulseEvent("inject", n_qubits - 1, 1)),
        3: (PulseEvent("read_reset", 0), PulseEvent("inject", 0, 2)),
    }
    windows = [Window(i * t_ns, t, tuple(b), events.get(i, ()))
               for i, (b, t) in enumerate(profiles)]
    final = (PulseEvent("read_reset", 0), PulseEvent("read_reset", n_qubits - 1))
    return PulseSchedule(n_qubits, tuple(windows), final)


class TestMirrorSharing:
    """The full-mode engine shares eigenvectors between mirror images and
    splits a self-mirror window into its two mirror sectors; against the
    plain path, one eigh per window (``oracles.plain_window_eigensystem``),
    it agrees to the full-mode tolerance of 1e-10."""

    @staticmethod
    def both_paths(monkeypatch, fn, *args, **kwargs):
        symmetric = fn(*args, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(runner, "_window_eigensystem", plain_window_eigensystem)
            return symmetric, fn(*args, **kwargs)

    @pytest.mark.parametrize("n_states", [1, 2, 3, 4])
    def test_designed_quantum_wires(self, design, rng, monkeypatch, n_states):
        for n_qubits in range(3, 8):
            spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
            sch, _ = quantum_channel_schedule(spec, n_states, design.t_ns)
            states = [np.array(random_qubit_amplitudes(rng)) for _ in range(n_states)]
            got, want = self.both_paths(monkeypatch, run_quantum_channel, spec, sch, states,
                                        mode="full")
            assert_transfer_reports_match(got, want, atol=1e-10)

    @pytest.mark.parametrize("n_qubits", range(2, 8))
    def test_hand_built_schedules_mixing_paired_self_mirror_and_unpaired_windows(
        self, design, rng, monkeypatch, n_qubits
    ):
        sch = hand_built_schedule(rng, n_qubits, design.t_ns)
        states = [np.array(random_qubit_amplitudes(rng)) for _ in range(3)]

        def run():
            reads = []
            final = runner._execute(spec, sch, states,
                                    lambda e, w, r: reads.append(r["raw"]), mode="full")
            return reads, final.data @ final.data.conj().T

        spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
        (got_reads, got_rho), (want_reads, want_rho) = self.both_paths(monkeypatch, run)
        assert len(got_reads) == len(want_reads) == 3
        assert want_reads[0][1] < 0.999  # the mid-run read leaves the chain mixed
        for (rho2, purity), (want2, want_purity) in zip(got_reads, want_reads):
            assert_allclose(rho2, want2, rtol=0, atol=1e-10)
            assert_allclose(purity, want_purity, rtol=0, atol=1e-10)
        assert_allclose(got_rho, want_rho, rtol=0, atol=1e-10)

    def test_no_further_from_the_expm_oracle_than_the_plain_path(
        self, design, rng, monkeypatch
    ):
        # Every read of designed wires against density matrices evolved by
        # scipy expm of Kronecker Hamiltonians.  Both paths sit at rounding
        # distance from the oracle, so single wires go either way; summed
        # over the sweep the symmetric path is no further off, and its worst
        # wire is within the full-mode tolerance.
        total = {"symmetric": 0.0, "plain": 0.0}
        worst = 0.0
        oracle = functools.partial(dense_rho_run, exact=True)
        for n_states in (1, 2):
            for n_qubits in range(2, 8):
                spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
                sch, _ = quantum_channel_schedule(spec, n_states, design.t_ns)
                states = [np.array(random_qubit_amplitudes(rng)) for _ in range(n_states)]
                with monkeypatch.context() as m:
                    m.setattr(runner, "_execute", oracle)
                    want = run_quantum_channel(spec, sch, states, mode="full")
                reports = self.both_paths(monkeypatch, run_quantum_channel, spec, sch, states,
                                          mode="full")
                for name, got in zip(total, reports):
                    total[name] += report_distance(got, want)
                worst = max(worst, report_distance(reports[0], want))
        assert total["symmetric"] <= total["plain"], total
        assert worst < 1e-10


class TestGramCompression:
    """A reset or inject compresses the factor through the ``eigh`` of the
    smaller Gram matrix and keeps the weights above eps of the largest;
    against the thin SVD that kept singular values above 1e-14 of the largest
    (``oracles.svd_replace_qubit``), full-mode wires read the same to 1e-12.
    Both paths share the window eigensystems, so the raw phases, which carry
    every window's idle phase, agree to 1e-12 too."""

    @staticmethod
    def both_paths(monkeypatch, fn, *args, **kwargs):
        gram = fn(*args, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(QuantumState, "_replace_qubit", svd_replace_qubit)
            return gram, fn(*args, **kwargs)

    @pytest.mark.parametrize("n_qubits", [5, 6, 7, 8])
    def test_quantum_wires(self, design, rng, monkeypatch, n_qubits):
        spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
        for n_states in range(1, 7):
            sch, _ = quantum_channel_schedule(spec, n_states, design.t_ns)
            states = [np.array(random_qubit_amplitudes(rng)) for _ in range(n_states)]
            got, want = self.both_paths(monkeypatch, run_quantum_channel, spec, sch, states,
                                        mode="full")
            assert_transfer_reports_match(got, want, atol=1e-12)

    @pytest.mark.parametrize("n_qubits", [4, 6, 8])
    def test_classical_wires(self, design, rng, monkeypatch, n_qubits):
        spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
        bits = [int(b) for b in rng.integers(0, 2, 16)]
        sch, _ = classical_channel_schedule(spec, bits, design.t_ns)
        got, want = self.both_paths(monkeypatch, run_classical_channel, spec, sch, bits,
                                    mode="full")
        assert got.ok and got.bits_out == want.bits_out == tuple(bits)
        assert len(got.records) == len(want.records) == len(bits)
        for a, b in zip(got.records, want.records):
            assert (a.data_index, a.window_index, a.bit) == (b.data_index, b.window_index, b.bit)
            assert_allclose(a.p_one, b.p_one, rtol=0, atol=1e-12)
        assert_allclose(got.min_margin, want.min_margin, rtol=0, atol=1e-12)


class TestMirroredWire:
    """The paper's wire is bi-directional: run right to left (qubit q as
    L-1-q, each bias row and the line map reversed), it is a valid schedule
    with the forward run's reads."""

    @pytest.mark.parametrize("n_qubits", [5, 6, 7])
    def test_reads_equal_the_forward_run(self, design, rng, n_qubits):
        spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
        sch, lines = quantum_channel_schedule(spec, 2, design.t_ns)
        mirrored, mirrored_lines = mirror_schedule(sch, lines)
        assert mirrored.replay.ok
        assert line_conflict_check(mirrored, mirrored_lines).ok
        assert {e.qubit for e in schedule_rows(mirrored)[1]} == {0}
        states = [np.array(random_qubit_amplitudes(rng)) for _ in range(2)]
        for mode, atol in (("reduced", 1e-12), ("full", 1e-10)):
            forward = run_quantum_channel(spec, sch, states, mode=mode)
            backward = run_quantum_channel(spec, mirrored, states, mode=mode)
            assert len(backward.records) == len(forward.records) == 2
            for a, b in zip(backward.records, forward.records):
                assert (a.data_index, a.window_index) == (b.data_index, b.window_index)
                for name in ("fidelity_raw", "fidelity_corrected"):
                    assert_allclose(getattr(a, name), getattr(b, name), rtol=0, atol=atol,
                                    err_msg=f"{mode} {name}")
                assert abs(wrap_phase(a.phase_error_raw - b.phase_error_raw)) <= atol, mode


class TestPulseWidth:
    """The paper's parameters vary linearly with the pulse width: a design at
    t ns, parked at the snapped 1000 delta, reads as the 10 ns design does,
    and its schedule is the 10 ns one stretched by t / 10."""

    def test_reads_do_not_depend_on_the_width(self, rng):
        states = [np.array(random_qubit_amplitudes(rng)) for _ in range(2)]
        runs = {}
        for t in (5.0, 10.0, 30.0):
            design = solve_parameters(t, m=1, n=0)
            spec = chain_for(design, 5, eps_high=snapped_hold_bias(design.delta_mhz, t))
            assert_allclose(spec.eps_high_mhz * t, 250000.0, rtol=1e-12)
            sch, _ = quantum_channel_schedule(spec, 2, t)
            runs[t] = sch, {mode: run_quantum_channel(spec, sch, states, mode=mode)
                            for mode in ("reduced", "full")}
        reference, reads = runs[10.0]
        for t, (sch, by_mode) in runs.items():
            assert_allclose(sch.makespan_ns / t, reference.makespan_ns / 10.0, rtol=1e-12)
            assert_allclose(sch.starts / t, reference.starts / 10.0, rtol=0, atol=1e-9)
            for mode, atol in (("reduced", 1e-12), ("full", 1e-10)):
                got, want = by_mode[mode].records, reads[mode].records
                assert len(got) == len(want) == 2
                for a, b in zip(got, want):
                    assert (a.data_index, a.window_index) == (b.data_index, b.window_index)
                    for name in ("fidelity", "purity"):
                        for column in ("raw", "corrected"):
                            field = f"{name}_{column}"
                            assert_allclose(getattr(a, field), getattr(b, field), rtol=0,
                                            atol=atol, err_msg=f"t={t} {mode} {field}")
                    for field in ("phase_error_raw", "phase_error_corrected"):
                        diff = wrap_phase(getattr(a, field) - getattr(b, field))
                        assert abs(diff) <= atol, (t, mode, field)


class TestLength:
    """Eight lines drive a quantum wire, and three a classical one, of any length."""

    @pytest.mark.parametrize("n_qubits", [14, 64, 256])
    def test_line_counts_at_any_length(self, design, n_qubits):
        spec = chain_for(design, n_qubits, eps_high=SNAP_EPS)
        for (sch, lines), n_lines in ((quantum_channel_schedule(spec, 4, design.t_ns), 8),
                                      (classical_channel_schedule(spec, [1, 0, 1, 1], design.t_ns), 3)):
            assert lines.n_lines == n_lines
            assert line_conflict_check(sch, lines).ok
            assert sch.replay.ok

    def test_long_reduced_wire_is_exact(self, design, rng):
        spec = chain_for(design, 64, eps_high=SNAP_EPS)
        sch, _ = quantum_channel_schedule(spec, 4, design.t_ns)
        states = [np.array(random_qubit_amplitudes(rng)) for _ in range(4)]
        report = run_quantum_channel(spec, sch, states, mode="reduced")
        assert len(report.records) == 4
        assert_allclose(report.min_fidelity_corrected, 1.0, rtol=0, atol=1e-12)
