"""Workload job lists for the swapchannel benchmark.

A workload is a fixed list of jobs.  Each job is one operation: a call into
the public library API (or ``cli.main``) with inputs built beforehand, plus an
``observe`` step that turns the returned object into the numbers the checker
grades.  Only ``Job.run`` is timed.

Library functions are looked up on their module at call time
(``sc.run_quantum_channel``, ``cli.main``), so the traced run sees the
wrappers that ``spans.traced`` installs.

Import this module only after the BLAS thread count is pinned: it imports
numpy.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import swapchannel as sc
from swapchannel import cli

WORKLOADS = ("full_wire", "full_pipeline", "reduced_wire", "schedule_check")

#: Window length of every design in the benchmark (ns); (m, n) = (1, 0).
T_NS = 10.0

_CLI_CONFIGS = {
    "fig2_quantum_wire": "quantum_wire_report.json",
    "fig4_classical_wire": "classical_wire_report.json",
    "table1_copy": "copy_table_report.json",
}


@dataclass
class Read:
    """One data read-out: its corrected fidelity and corrected numbers."""

    key: str
    mode: str
    fidelity: float
    corrected: dict[str, float]


@dataclass
class Outcome:
    """What one operation returned, in the form the checker grades."""

    raw: dict[str, float] = field(default_factory=dict)
    reads: list[Read] = field(default_factory=list)
    traces: list[float] = field(default_factory=list)
    invariants: dict[str, bool] = field(default_factory=dict)
    windows: int = 0  # schedule windows simulated or replayed
    full_evals: int = 0  # full-mode windows + gate/copy/sweep evaluations
    schedules: int = 0  # schedules processed


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], Any]
    observe: Callable[[Any], Outcome]
    seeded: bool  # outputs depend on --seed


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _random_states(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    states = []
    for _ in range(n):
        raw = rng.normal(size=4)
        vec = np.array([raw[0] + 1j * raw[1], raw[2] + 1j * raw[3]])
        states.append(vec / np.linalg.norm(vec))
    return states


class _Design:
    """The benchmark's operating point: T = 10 ns, snapped parking bias."""

    def __init__(self):
        self.design = sc.solve_parameters(T_NS, m=1, n=0)
        self.eps = sc.snapped_hold_bias(self.design.delta_mhz, self.design.t_ns)

    def spec(self, n_qubits: int) -> sc.ChainSpec:
        return sc.ChainSpec(
            n_qubits=n_qubits,
            delta_mhz=self.design.delta_mhz,
            xi_mhz=self.design.xi_mhz,
            eps_high_mhz=self.eps,
        )


# ---------------------------------------------------------------------------
# simulation jobs
# ---------------------------------------------------------------------------


def _observe_transfer(report, n_windows: int) -> Outcome:
    out = Outcome(windows=n_windows, schedules=1)
    if report.mode == "full":
        out.full_evals = n_windows
    out.traces.append(report.final_trace)
    for i, r in enumerate(report.records):
        k = f"{report.mode}.r{i}"
        out.raw[f"{k}.data_index"] = r.data_index
        out.raw[f"{k}.window_index"] = -1 if r.window_index is None else r.window_index
        out.raw[f"{k}.fidelity_raw"] = r.fidelity_raw
        out.raw[f"{k}.phase_error_raw"] = r.phase_error_raw
        out.raw[f"{k}.purity_raw"] = r.purity_raw
        out.reads.append(
            Read(
                key=k,
                mode=report.mode,
                fidelity=r.fidelity_corrected,
                corrected={
                    f"{k}.fidelity_corrected": r.fidelity_corrected,
                    f"{k}.phase_error_corrected": r.phase_error_corrected,
                    f"{k}.purity_corrected": r.purity_corrected,
                },
            )
        )
    return out


def _quantum_wire(d: _Design, seed: int, n_qubits: int, n_states: int, mode: str) -> Job:
    name = f"{mode}_wire_L{n_qubits}_n{n_states}"
    spec = d.spec(n_qubits)
    schedule, _ = sc.quantum_channel_schedule(spec, n_states, d.design.t_ns)
    states = _random_states(_rng(seed, name), n_states)
    return Job(
        name=name,
        run=lambda: sc.run_quantum_channel(spec, schedule, states, mode=mode),
        observe=lambda report: _observe_transfer(report, schedule.n_windows),
        seeded=True,
    )


def _classical_wire(d: _Design, seed: int, n_qubits: int, n_bits: int) -> Job:
    name = f"full_bits_L{n_qubits}_b{n_bits}"
    spec = d.spec(n_qubits)
    bits = [int(b) for b in _rng(seed, name).integers(0, 2, n_bits)]
    schedule, _ = sc.classical_channel_schedule(spec, bits, d.design.t_ns)

    def observe(report) -> Outcome:
        out = Outcome(windows=schedule.n_windows, full_evals=schedule.n_windows, schedules=1)
        out.raw["latency_sequences"] = report.latency_sequences
        out.raw["min_margin"] = report.min_margin
        for i, r in enumerate(report.records):
            out.raw[f"r{i}.p_one"] = r.p_one
            out.raw[f"r{i}.bit"] = r.bit
        out.invariants["bits_echo"] = report.ok and list(report.bits_out) == bits
        return out

    return Job(
        name=name,
        run=lambda: sc.run_classical_channel(spec, schedule, bits, mode="full"),
        observe=observe,
        seeded=True,
    )


def _gate(d: _Design, mode: str) -> Job:
    spec = d.spec(3)

    def observe(report) -> Outcome:
        out = Outcome(windows=1, full_evals=int(mode == "full"))
        out.raw["distance"] = report.distance
        out.raw["worst_infidelity"] = report.worst_infidelity
        out.raw["leakage"] = report.leakage
        out.raw["superposition_fidelity"] = report.superposition_fidelity
        for (c, t), fid in report.truth_table:
            out.raw[f"table.c{c}t{t}.fidelity"] = fid
        return out

    return Job(
        name=f"gate_{mode}",
        run=lambda: sc.run_gate_experiment(spec, d.design, mode=mode),
        observe=observe,
        seeded=False,
    )


def _copy(d: _Design, mode: str) -> Job:
    spec = d.spec(3)

    def observe(rows) -> Outcome:
        out = Outcome(windows=1, full_evals=int(mode == "full"))
        for r in rows:
            out.raw["copy.{}{}{}.fidelity".format(*r.initial)] = r.fidelity
        return out

    return Job(
        name=f"copy_{mode}",
        run=lambda: sc.copy_truth_table(spec, d.design, mode=mode),
        observe=observe,
        seeded=False,
    )


def _sweep(d: _Design, n_points: int) -> Job:
    delta = d.design.delta_mhz
    grid = [float(x) for x in np.geomspace(100.0 * delta, 1000.0 * delta, n_points)]

    def run():
        points = sc.sweep_eps_high(d.design, grid)
        return points, sc.infidelity_slope(points)

    def observe(result) -> Outcome:
        points, slope = result
        out = Outcome(windows=len(points), full_evals=len(points))
        for i, p in enumerate(points):
            out.raw[f"p{i}.worst_infidelity"] = p.worst_infidelity
            out.raw[f"p{i}.distance"] = p.distance
        out.raw["slope"] = slope
        return out

    return Job(name=f"sweep_{n_points}", run=run, observe=observe, seeded=False)


def _flatten(obj, prefix: str, into: dict[str, float]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), into)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}[{i}]", into)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        into[prefix] = obj


def _cli_run(config: str, out_dir: str) -> Job:
    report_path = os.path.join(out_dir, _CLI_CONFIGS[config])

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["run", "--config", config, "--out-dir", out_dir])

    def observe(code) -> Outcome:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        out = Outcome()
        out.invariants["exit_code_0"] = code == 0
        out.invariants["assertions_passed"] = report["assertions"]["passed"] is True
        _flatten(report, "", out.raw)
        results = report["results"]
        per_mode = report.get("schedule", {}).get("n_windows", 1)
        out.windows = per_mode * len(results)
        out.full_evals = per_mode if "full" in results else 0
        out.schedules = int("schedule" in report)
        for mode, res in results.items():
            for i, r in enumerate(res.get("records", ())):
                if "fidelity_corrected" in r:
                    key = f"results.{mode}.records[{i}]"
                    out.reads.append(
                        Read(key=key, mode=mode, fidelity=r["fidelity_corrected"], corrected={})
                    )
        return out

    return Job(name=f"cli_{config}", run=run, observe=observe, seeded=False)


# ---------------------------------------------------------------------------
# schedule jobs (no state simulation)
# ---------------------------------------------------------------------------


def _solve() -> Job:
    def run():
        design = sc.solve_parameters(T_NS, m=1, n=0)
        return design, sc.snapped_hold_bias(design.delta_mhz, design.t_ns)

    def observe(result) -> Outcome:
        design, eps = result
        out = Outcome()
        out.raw.update(delta_mhz=design.delta_mhz, xi_mhz=design.xi_mhz, eps_high_mhz=eps)
        return out

    return Job(name="solve", run=run, observe=observe, seeded=False)


def _schedule_pipeline(make, spec) -> Callable[[], tuple]:
    """Generate, validate, line-check, frame-correct and JSON round-trip."""

    def run():
        schedule, lines = make()
        violations = sc.validate_sacrificial(schedule)
        line_report = sc.line_conflict_check(schedule, lines)
        angles = sc.compute_frame_correction(schedule, spec)
        text = sc.schedule_to_json(schedule, lines)
        back = sc.schedule_from_json(text)
        return schedule, lines, violations, line_report, angles, text, back

    return run


def _observe_schedule(result) -> Outcome:
    schedule, lines, violations, line_report, angles, text, back = result
    out = Outcome(windows=schedule.n_windows, schedules=1)
    out.raw.update(
        n_windows=schedule.n_windows,
        pulse_count=schedule.pulse_count,
        makespan_ns=schedule.makespan_ns,
        violations=len(violations),
        line_problems=len(line_report.problems),
        json_bytes=len(text),
        angles_sum=float(np.sum(angles)),
        angles_sumsq=float(np.sum(angles * angles)),
    )
    out.invariants["replay_clean"] = not violations
    out.invariants["lines_ok"] = line_report.ok
    out.invariants["json_round_trip"] = back == (schedule, lines)
    out.invariants["angles_shape"] = angles.shape == (schedule.n_windows, schedule.n_qubits)
    out.invariants["angles_finite"] = bool(np.all(np.isfinite(angles)))
    return out


def _quantum_schedule(d: _Design, n_qubits: int, n_states: int) -> Job:
    spec = d.spec(n_qubits)
    make = lambda: sc.quantum_channel_schedule(spec, n_states, d.design.t_ns)
    return Job(
        name=f"qsched_L{n_qubits}_n{n_states}",
        run=_schedule_pipeline(make, spec),
        observe=_observe_schedule,
        seeded=False,
    )


def _classical_schedule(d: _Design, seed: int, n_qubits: int, n_bits: int) -> Job:
    name = f"csched_L{n_qubits}_b{n_bits}"
    spec = d.spec(n_qubits)
    bits = [int(b) for b in _rng(seed, name).integers(0, 2, n_bits)]
    make = lambda: sc.classical_channel_schedule(spec, bits, d.design.t_ns)
    # The schedule depends on how many bits there are, not on their values.
    return Job(
        name=name, run=_schedule_pipeline(make, spec), observe=_observe_schedule, seeded=False
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def build(workload: str, seed: int, *, smoke: bool, out_dir: str) -> list[Job]:
    """The job list of one workload; ``smoke`` gives the reduced-size list.

    ``out_dir`` receives the reports of the ``cli.main`` jobs.
    """
    d = _Design()
    if workload == "full_wire":
        sizes = (5, 6) if smoke else (6, 7, 8)
        return [_quantum_wire(d, seed, n, 1, "full") for n in sizes]
    if workload == "full_pipeline":
        wires = ((6, 2), (5, 3)) if smoke else ((7, 4), (6, 6))
        jobs = [_quantum_wire(d, seed, n, k, "full") for n, k in wires]
        jobs.append(_classical_wire(d, seed, *((6, 4) if smoke else (6, 16))))
        for mode in ("reduced", "full"):
            jobs += [_gate(d, mode), _copy(d, mode)]
        jobs.append(_sweep(d, 3 if smoke else 12))
        jobs += [_cli_run(config, out_dir) for config in _CLI_CONFIGS]
        return jobs
    if workload == "reduced_wire":
        sizes = ((8, 3), (9, 3)) if smoke else ((15, 4), (16, 2))
        return [_quantum_wire(d, seed, n, k, "reduced") for n, k in sizes]
    if workload == "schedule_check":
        quantum = ((21, 5), (11, 20)) if smoke else ((101, 20), (41, 50))
        jobs = [_solve()]
        jobs += [_quantum_schedule(d, n, k) for n, k in quantum]
        jobs.append(_classical_schedule(d, seed, *((20, 10) if smoke else (100, 40))))
        return jobs
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
