"""End-to-end acceptance battery.

Each test below checks one numbered guarantee at its stated tolerance and
emits a single PASS line (pytest -v adds the matching PASSED/FAILED verdict
per criterion).  Run with ``pytest tests/test_acceptance.py -v``.
"""

import itertools
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import chain_for
from oracles import expm_propagator, kron_hamiltonian
from swapchannel import (
    ChainSpec,
    classical_channel_schedule,
    copy_truth_table,
    infidelity_slope,
    line_conflict_check,
    quantum_channel_schedule,
    run_classical_channel,
    run_gate_experiment,
    run_quantum_channel,
    schedule_from_json,
    schedule_to_json,
    solve_parameters,
    sweep_eps_high,
)
from swapchannel.chain import TwoLevelParams, build_hamiltonian
from swapchannel.evolve import QuantumState, propagator
from swapchannel.gates import IDEAL_CNOT, reduced_pulse_operator
from swapchannel.solver import oscillation_descriptor

SEED = 20260816


def _report(number: int, detail: str) -> None:
    print(f"PASS criterion {number}: {detail}")


def _random_states(n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(n):
        raw = rng.normal(size=4)
        vec = np.array([raw[0] + 1j * raw[1], raw[2] + 1j * raw[3]])
        out.append(vec / np.linalg.norm(vec))
    return out


def test_criterion_01_solved_parameters():
    design = solve_parameters(10.0, m=1, n=0)
    assert abs(design.delta_mhz - 25.0) < 1e-4
    assert abs(design.xi_mhz - 21.650635094610966) < 1e-4
    slow = solve_parameters(100.0, m=1, n=0)
    assert_allclose(slow.delta_mhz, design.delta_mhz / 10.0, rtol=1e-12)
    assert_allclose(slow.xi_mhz, design.xi_mhz / 10.0, rtol=1e-12)
    _report(1, f"delta={design.delta_mhz} MHz, xi={design.xi_mhz:.12f} MHz; 10x window scales both by 1/10")


def test_criterion_02_oscillation_frequencies():
    design = solve_parameters(10.0, m=1, n=0)
    assert abs(design.f1_mhz - 100.0) < 1e-9
    assert abs(design.f2_mhz - 50.0) < 1e-9
    c1 = design.f1_mhz * design.t_ns * 1e-3
    c2 = design.f2_mhz * design.t_ns * 1e-3
    assert abs(c1 - 1.0) < 1e-9
    assert abs(c2 - 0.5) < 1e-9
    _report(2, f"f1={design.f1_mhz} MHz (1 cycle), f2={design.f2_mhz} MHz (1/2 cycle) per window")


def test_criterion_03_reduced_controlled_flip():
    design = solve_parameters(10.0, m=1, n=0)
    spec = chain_for(design, 3)
    gate = run_gate_experiment(spec, design, mode="reduced").gate
    expected = np.array(
        [
            [-1, 0, 0, 0],
            [0, -1, 0, 0],
            [0, 0, 0, -1j],
            [0, 0, -1j, 0],
        ],
        dtype=complex,
    )
    assert_allclose(gate, expected, atol=1e-9)
    assert_allclose(gate, IDEAL_CNOT, atol=1e-9)
    _report(3, "reduced-model pulse reproduces the controlled flip entrywise to 1e-9")


def test_criterion_04_three_pulses_swap_with_pi():
    design = solve_parameters(10.0, m=1, n=0)
    pair = ChainSpec(n_qubits=2, delta_mhz=design.delta_mhz, xi_mhz=design.xi_mhz)
    left, _ = reduced_pulse_operator(pair, 0, design.xi_mhz, design.t_ns)
    right, _ = reduced_pulse_operator(pair, 1, design.xi_mhz, design.t_ns)
    composed = left @ right @ left
    worst = 0.0
    for amps in _random_states(20):
        a, b = amps
        state = np.array([a, 0.0, b, 0.0])  # (a|0> + b|1>) x |0>
        out = composed @ state
        expected = np.array([np.exp(1j * np.pi) * a, b, 0.0, 0.0])
        worst = max(worst, float(np.max(np.abs(out - expected))))
    assert worst < 1e-9
    _report(4, f"20 random states exit as |0>(e^(i pi) a|0> + b|1>); worst deviation {worst:.2e}")


def test_criterion_05_wire_transfer_and_phases():
    design = solve_parameters(10.0, m=1, n=0)
    spec = chain_for(design, 5, eps_high=25000.0)
    states = _random_states(20)
    schedule, _ = quantum_channel_schedule(spec, 20, design.t_ns)
    report = run_quantum_channel(spec, schedule, states, mode="reduced")
    assert report.n_states == 20
    worst_fid = min(r.fidelity_raw for r in report.records)
    worst_phase = max(abs(r.phase_error_raw) for r in report.records)
    assert worst_fid >= 1.0 - 1e-9
    assert worst_phase < 1e-6

    spec4 = chain_for(design, 4, eps_high=25000.0)
    schedule4, _ = quantum_channel_schedule(spec4, 1, design.t_ns)
    report4 = run_quantum_channel(spec4, schedule4, states[:1], mode="reduced")
    phase4 = report4.records[0].phase_error_raw
    assert abs(abs(phase4) - np.pi) < 1e-6
    assert report4.records[0].purity_raw >= 1.0 - 1e-9
    _report(
        5,
        f"5-qubit wire: 20 states, min fidelity {worst_fid:.12f}, max |phase| "
        f"{worst_phase:.2e}; 4-qubit relative phase {phase4:+.9f} (= pi)",
    )


def test_criterion_06_parking_bias_scaling():
    start = time.monotonic()
    design = solve_parameters(10.0, m=1, n=0)
    grid = [design.delta_mhz * r for r in (10.0, 100.0, 1000.0, 10000.0)]
    points = sweep_eps_high(design, grid)
    slope = infidelity_slope(points)
    assert -2.5 < slope < -1.5

    top = grid[-1]
    spec = chain_for(design, 5, eps_high=top)
    schedule, _ = quantum_channel_schedule(spec, 1, design.t_ns)
    states = [np.array([1.0, 1.0]) / np.sqrt(2.0)]
    report = run_quantum_channel(spec, schedule, states, mode="full")
    corrected = report.records[0].fidelity_corrected
    assert corrected > 0.999
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(
        6,
        f"infidelity slope {slope:.3f} over eps/delta in {{10..10^4}}; corrected "
        f"5-qubit fidelity {corrected:.7f} at the top point; {elapsed:.1f}s",
    )


def test_criterion_07_copy_truth_table():
    design = solve_parameters(10.0, m=1, n=0)
    reduced_rows = copy_truth_table(chain_for(design, 3), design, mode="reduced")
    assert len(reduced_rows) == 4
    for row in reduced_rows:
        assert abs(row.fidelity - 1.0) < 1e-9
    top = design.delta_mhz * 10000.0
    full_rows = copy_truth_table(chain_for(design, 3, eps_high=top), design, mode="full")
    worst_full = min(row.fidelity for row in full_rows)
    assert worst_full >= 0.999
    _report(
        7,
        f"4 copy rows exact in the reduced model; full-simulation minimum {worst_full:.7f}",
    )


def test_criterion_08_classical_pipeline():
    design = solve_parameters(10.0, m=1, n=0)
    spec = chain_for(design, 6, eps_high=25000.0)
    for bits in itertools.product((0, 1), repeat=3):
        schedule, _ = classical_channel_schedule(spec, bits, design.t_ns)
        report = run_classical_channel(spec, schedule, bits, mode="reduced")
        assert report.bits_out == bits, (bits, report.bits_out)
        assert report.latency_sequences == 3
    _report(8, "6-qubit pipeline echoes all 8 three-bit patterns with latency exactly 3")


def test_criterion_09_shared_line_budget():
    design = solve_parameters(10.0, m=1, n=0)
    for L in (5, 7, 9, 11, 13):
        spec = chain_for(design, L, eps_high=25000.0)
        schedule, lines = quantum_channel_schedule(spec, 2, design.t_ns)
        assert lines.n_lines == 8, L
        check = line_conflict_check(schedule, lines)
        assert check.ok, (L, check.problems[:3])
    spec6 = chain_for(design, 6, eps_high=25000.0)
    schedule6, lines6 = classical_channel_schedule(spec6, [1, 0, 1], design.t_ns)
    assert lines6.n_lines == 3
    assert line_conflict_check(schedule6, lines6).ok
    _report(9, "8 shared lines drive every odd wire L=5..13 conflict-free; 3 lines classically")


def test_criterion_10_property_battery():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    design = solve_parameters(10.0, m=1, n=0)

    # Hermiticity and unitarity over random chains and windows.
    for _ in range(20):
        n = int(rng.integers(1, 5))
        spec = ChainSpec(n, float(rng.uniform(1, 100)), float(rng.uniform(1, 100)))
        biases = rng.uniform(-1000.0, 1000.0, size=n)
        h = build_hamiltonian(spec, biases)
        assert_allclose(h, h.conj().T, atol=1e-12)
        u = propagator(h, float(rng.uniform(0.0, 50.0)))
        assert_allclose(u @ u.conj().T, np.eye(1 << n), atol=1e-9)

    # Trace preservation for mixed-state window evolution.
    for _ in range(5):
        raw = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
        rho = QuantumState(raw / np.linalg.norm(raw))
        spec = chain_for(design, 4, eps_high=25000.0)
        h = build_hamiltonian(spec, rng.uniform(0, 25000.0, size=4))
        rho.apply(propagator(h, design.t_ns), 0)
        assert abs(rho.trace() - 1.0) < 1e-9

    # Solver round-trip: a solved design regenerates its own window length
    # and passes its own cycle-count validation.
    from swapchannel import solve_for_timestep, validate_gate_conditions

    for _ in range(20):
        t_ns = float(rng.uniform(2.0, 200.0))
        m = int(rng.integers(1, 6))
        n = int(rng.integers(0, (2 * m - 1) // 2 + 1))
        if 2 * m <= 2 * n + 1:
            continue
        d = solve_parameters(t_ns, m=m, n=n)
        back = solve_for_timestep(d.delta_mhz, m=m, n=n)
        assert abs(back.t_ns - t_ns) < 1e-9 * t_ns
        assert abs(back.xi_mhz - d.xi_mhz) < 1e-9 * d.xi_mhz
        report = validate_gate_conditions(d, phase_exact=False)
        assert report.ok

    # Schedule serialisation round-trip.
    spec = chain_for(design, 7, eps_high=25000.0)
    schedule, lines = quantum_channel_schedule(spec, 2, design.t_ns)
    text = schedule_to_json(schedule, lines)
    parsed, parsed_lines = schedule_from_json(text)
    assert parsed == schedule and parsed_lines == lines
    assert schedule_to_json(parsed, parsed_lines) == text

    # Oscillation law: offset equals amplitude, and the predicted flip
    # probability matches direct evolution to 1e-9.
    for _ in range(20):
        delta = float(rng.uniform(1.0, 200.0))
        sigma = float(rng.uniform(-200.0, 200.0))
        params = TwoLevelParams(delta_mhz=delta, effective_bias_mhz=sigma)
        d = oscillation_descriptor(params)
        assert_allclose(d.offset, d.amplitude, rtol=1e-12)
        t = float(rng.uniform(0.0, 50.0))
        u = propagator(params.hamiltonian(), t)
        assert abs(d.probability(t) - abs(u[1, 0]) ** 2) < 1e-9

    # Propagators agree with an independent matrix-exponential route.
    for _ in range(5):
        n = int(rng.integers(1, 4))
        biases = rng.uniform(-100.0, 100.0, size=n)
        h = kron_hamiltonian(n, design.delta_mhz, design.xi_mhz, biases)
        t = float(rng.uniform(0.0, 30.0))
        assert_allclose(
            propagator(h, t), expm_propagator(h, t), atol=1e-9
        )

    elapsed = time.monotonic() - start
    _report(
        10,
        "property battery (hermiticity, unitarity, trace preservation, solver "
        f"and serialisation round-trips, contrast identity, flip law) in {elapsed:.1f}s",
    )
