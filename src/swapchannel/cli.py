"""Command-line interface.

Subcommands: ``solve`` (design parameters), ``schedule`` (emit a pulse
schedule), ``validate`` (replay a schedule file), ``trace`` (single-qubit
oscillation CSV), ``run`` (config-driven experiments with assertions).

Exit codes: 0 success, 1 configuration/usage error, 2 infeasible design,
3 assertion or validation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict
from importlib import resources

import numpy as np

from .chain import ChainSpec, TwoLevelParams
from .evolve import QuantumState, sample_trajectory
from .runner import (
    copy_truth_table,
    infidelity_slope,
    run_classical_channel,
    run_gate_experiment,
    run_quantum_channel,
    sweep_eps_high,
)
from .scheduler import (
    classical_channel_schedule,
    line_conflict_check,
    quantum_channel_schedule,
    schedule_from_json,
    schedule_to_json,
    validate_sacrificial,
)
from .solver import (
    GateDesign,
    InfeasibleDesignError,
    copy_frequencies,
    oscillation_descriptor,
    snapped_hold_bias,
    solve_for_timestep,
    solve_parameters,
    validate_gate_conditions,
)

__all__ = ["ConfigError", "main"]


class ConfigError(ValueError):
    """Bad command line or config file."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_text(path: str, text: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _design_obj(design: GateDesign) -> dict:
    report = validate_gate_conditions(design)
    f1, f2, f3 = copy_frequencies(design.delta_mhz, design.xi_mhz)
    return {
        "t_ns": design.t_ns,
        "m": design.m,
        "n": design.n,
        "delta_mhz": design.delta_mhz,
        "xi_mhz": design.xi_mhz,
        "f1_mhz": design.f1_mhz,
        "f2_mhz": design.f2_mhz,
        "copy_frequencies_mhz": [f1, f2, f3],
        "conditions": {
            "f1_cycles": report.f1_cycles,
            "f2_cycles": report.f2_cycles,
            "m_odd": report.m_odd,
            "n_even": report.n_even,
            "ok": report.ok,
        },
    }


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    if (args.t_ns is None) == (args.delta_mhz is None):
        raise ConfigError("give exactly one of --t-ns or --delta-mhz")
    if args.t_ns is not None:
        design = solve_parameters(args.t_ns, m=args.m, n=args.n)
    else:
        design = solve_for_timestep(args.delta_mhz, m=args.m, n=args.n)
    obj = _design_obj(design)
    obj["conditions"]["phase_exact_required"] = not args.no_phase_exact
    report = validate_gate_conditions(design, phase_exact=not args.no_phase_exact)
    obj["conditions"]["ok"] = report.ok
    text = _dump_json(obj)
    sys.stdout.write(text)
    if args.out:
        _write_text(args.out, text)
    return 0


# ---------------------------------------------------------------------------
# schedule / validate
# ---------------------------------------------------------------------------


def _chain_setup(cfg: dict, n_qubits: int) -> tuple[GateDesign, float, ChainSpec]:
    """(design, parking bias, chain) from the ``t_ns``/``m``/``n``/``eps_high_mhz``
    settings of a config or command line."""
    design = solve_parameters(cfg["t_ns"], m=cfg["m"], n=cfg["n"])
    eps = cfg["eps_high_mhz"]
    if eps == "snap_1000x_delta":
        eps = snapped_hold_bias(design.delta_mhz, design.t_ns)
    eps = float(eps)
    spec = ChainSpec(
        n_qubits=n_qubits, delta_mhz=design.delta_mhz, xi_mhz=design.xi_mhz, eps_high_mhz=eps
    )
    return design, eps, spec


def _cmd_schedule(args) -> int:
    eps = args.eps_high_mhz or "snap_1000x_delta"
    _, _, spec = _chain_setup(vars(args) | {"eps_high_mhz": eps}, args.n_qubits)
    if args.kind == "quantum":
        if args.n_states is None:
            raise ConfigError("--n-states is required for a quantum schedule")
        schedule, lines = quantum_channel_schedule(
            spec, args.n_states, args.t_ns, line_mode=args.line_mode
        )
    else:
        if not args.bits:
            raise ConfigError("--bits is required for a classical schedule")
        if any(c not in "01" for c in args.bits):
            raise ConfigError(f"--bits must be a 0/1 string, got {args.bits!r}")
        schedule, lines = classical_channel_schedule(
            spec, [int(c) for c in args.bits], args.t_ns
        )
    text = schedule_to_json(schedule, lines)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _violation_obj(v) -> dict:
    return {
        "window_index": v.window_index,
        "kind": v.kind,
        "qubits": list(v.qubits),
        "message": v.message,
    }


def _cmd_validate(args) -> int:
    try:
        with open(args.schedule, encoding="utf-8") as fh:
            schedule, lines = schedule_from_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read schedule file: {exc}") from exc
    violations = validate_sacrificial(schedule)
    obj = {
        "schedule": args.schedule,
        "label": schedule.label,
        "n_qubits": schedule.n_qubits,
        "n_windows": schedule.n_windows,
        "violations": [_violation_obj(v) for v in violations],
        "line_check": None,
    }
    ok = not violations
    if lines is not None:
        line_report = line_conflict_check(schedule, lines)
        obj["line_check"] = {"ok": line_report.ok, "problems": list(line_report.problems)}
        ok = ok and line_report.ok
    obj["ok"] = ok
    sys.stdout.write(_dump_json(obj))
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Overlay the simulated and analytic oscillation from a trace CSV."""
import csv
import sys

import matplotlib.pyplot as plt

path = {csv_path!r}
times, simulated, analytic = [], [], []
with open(path, newline="") as fh:
    for row in csv.DictReader(fh):
        times.append(float(row["time_ns"]))
        simulated.append(float(row["p1_simulated"]))
        analytic.append(float(row["p1_analytic"]))

fig, ax = plt.subplots()
ax.plot(times, analytic, label="analytic", lw=1.5)
ax.plot(times, simulated, ".", ms=4, label="simulated")
ax.set_xlabel("time (ns)")
ax.set_ylabel("P(|1>)")
ax.legend()
out = sys.argv[1] if len(sys.argv) > 1 else path.rsplit(".", 1)[0] + ".png"
fig.savefig(out, dpi=150)
print(out)
'''


def _cmd_trace(args) -> int:
    if args.duration_ns < 0:
        raise ConfigError(f"--duration-ns must be >= 0, got {args.duration_ns}")
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    params = TwoLevelParams(delta_mhz=args.delta_mhz, effective_bias_mhz=args.bias_mhz)
    descriptor = oscillation_descriptor(params)
    times, probs = sample_trajectory(
        QuantumState.ground(1), params.hamiltonian(), args.duration_ns, args.samples
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["time_ns", "p1_simulated", "p1_analytic"])
    for t, p in zip(times, probs[:, 0]):
        writer.writerow([repr(float(t)), repr(float(p)), repr(float(descriptor.probability(t)))])
    _write_text(args.out, buf.getvalue())
    if args.plot_script:
        _write_text(args.plot_script, _PLOT_SCRIPT.format(csv_path=args.out))
    sys.stdout.write(
        _dump_json(
            {
                "csv": args.out,
                "rows": int(times.shape[0]),
                "frequency_mhz": descriptor.frequency_mhz,
                "offset": descriptor.offset,
                "amplitude": descriptor.amplitude,
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# run (config-driven experiments)
# ---------------------------------------------------------------------------

_COMMON_KEYS = {"experiment", "t_ns", "m", "n", "mode", "eps_high_mhz", "outputs", "assertions"}
_ALLOWED_KEYS = {
    "quantum_wire": _COMMON_KEYS | {"n_qubits", "n_states", "states", "seed", "line_mode"},
    "classical_wire": _COMMON_KEYS | {"n_qubits", "bits"},
    "copy_table": _COMMON_KEYS,
    "gate": _COMMON_KEYS | {"eps_grid"},
}
_ALLOWED_ASSERTIONS = {
    "quantum_wire": {"min_corrected_fidelity", "min_reduced_fidelity", "max_reduced_phase_error"},
    "classical_wire": {"require_echo", "expect_latency_sequences"},
    "copy_table": {"min_fidelity"},
    "gate": {"max_worst_infidelity", "slope_range"},
}
_ALLOWED_OUTPUTS = {"report", "schedule"}


def _num(obj, path, minimum=None) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {obj!r}")
    if not math.isfinite(obj):
        raise ConfigError(f"{path}: must be finite, got {obj!r}")
    if minimum is not None and obj < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {obj}")
    return float(obj)


def _int(obj, path, minimum=None) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{path}: expected an integer, got {obj!r}")
    if minimum is not None and obj < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {obj}")
    return obj


def _load_config(ref: str) -> dict:
    if os.path.exists(ref):
        with open(ref, encoding="utf-8") as fh:
            text = fh.read()
    else:
        name = ref[:-5] if ref.endswith(".json") else ref
        resource = resources.files("swapchannel").joinpath(f"configs/{name}.json")
        if not resource.is_file():
            raise ConfigError(f"config {ref!r}: no such file or bundled config")
        text = resource.read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {ref!r} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config {ref!r}: top level must be an object")
    return obj


def _validate_config(cfg: dict) -> dict:
    experiment = cfg.get("experiment")
    if experiment not in _ALLOWED_KEYS:
        raise ConfigError(
            f"config.experiment: must be one of {sorted(_ALLOWED_KEYS)}, got {experiment!r}"
        )
    allowed = _ALLOWED_KEYS[experiment]
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"config.{key}: unknown key for experiment {experiment!r}")

    out = {"experiment": experiment}
    out["t_ns"] = _num(cfg.get("t_ns", 10.0), "config.t_ns", minimum=1e-9)
    out["m"] = _int(cfg.get("m", 1), "config.m", minimum=1)
    out["n"] = _int(cfg.get("n", 0), "config.n", minimum=0)
    mode = cfg.get("mode", "both")
    if mode not in ("reduced", "full", "both"):
        raise ConfigError(f"config.mode: must be reduced/full/both, got {mode!r}")
    out["modes"] = ["reduced", "full"] if mode == "both" else [mode]
    out["eps_high_mhz"] = cfg.get("eps_high_mhz", "snap_1000x_delta")
    if out["eps_high_mhz"] != "snap_1000x_delta":
        _num(out["eps_high_mhz"], "config.eps_high_mhz", minimum=1e-9)

    outputs = cfg.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ConfigError("config.outputs: expected an object")
    for key in outputs:
        if key not in _ALLOWED_OUTPUTS:
            raise ConfigError(f"config.outputs.{key}: unknown key")
        if not isinstance(outputs[key], str) or not outputs[key]:
            raise ConfigError(f"config.outputs.{key}: expected a file name")
    out["outputs"] = {
        "report": outputs.get("report", f"{experiment}_report.json"),
        "schedule": outputs.get("schedule"),
    }

    assertions = cfg.get("assertions", {})
    if not isinstance(assertions, dict):
        raise ConfigError("config.assertions: expected an object")
    for key, value in assertions.items():
        path = f"config.assertions.{key}"
        if key not in _ALLOWED_ASSERTIONS[experiment]:
            raise ConfigError(f"{path}: unknown key for experiment {experiment!r}")
        if key == "require_echo":
            if not isinstance(value, bool):
                raise ConfigError(f"{path}: expected true or false, got {value!r}")
        elif key == "expect_latency_sequences":
            _int(value, path)
        elif key == "slope_range":
            if not isinstance(value, list) or len(value) != 2:
                raise ConfigError(f"{path}: expected [low, high]")
            for i, x in enumerate(value):
                _num(x, f"{path}[{i}]")
            if cfg.get("eps_grid") is None:
                raise ConfigError(f"{path}: needs eps_grid")
        else:
            _num(value, path)
    out["assertions"] = dict(assertions)

    if experiment == "quantum_wire":
        out["n_qubits"] = _int(cfg.get("n_qubits", 5), "config.n_qubits", minimum=2)
        out["n_states"] = _int(cfg.get("n_states", 1), "config.n_states", minimum=1)
        out["line_mode"] = cfg.get("line_mode", "mod6")
        if out["line_mode"] not in ("mod6", "mod3"):
            raise ConfigError(f"config.line_mode: mod6 or mod3, got {out['line_mode']!r}")
        states = cfg.get("states", "random")
        if states == "random":
            if "seed" not in cfg:
                raise ConfigError("config.seed: required when states is 'random'")
            out["seed"] = _int(cfg["seed"], "config.seed", minimum=0)
            out["states"] = "random"
        else:
            if not isinstance(states, list) or len(states) != out["n_states"]:
                raise ConfigError(
                    f"config.states: expected 'random' or a list of {out['n_states']} "
                    "4-number entries [re0, im0, re1, im1]"
                )
            parsed = []
            for i, entry in enumerate(states):
                if not isinstance(entry, list) or len(entry) != 4:
                    raise ConfigError(f"config.states[{i}]: expected [re0, im0, re1, im1]")
                nums = [_num(x, f"config.states[{i}][{j}]") for j, x in enumerate(entry)]
                vec = np.array([nums[0] + 1j * nums[1], nums[2] + 1j * nums[3]])
                norm = np.linalg.norm(vec)
                if abs(norm - 1.0) > 1e-6:
                    raise ConfigError(f"config.states[{i}]: norm {norm:.8f} is not 1")
                parsed.append(vec / norm)
            out["states"] = parsed
    elif experiment == "classical_wire":
        out["n_qubits"] = _int(cfg.get("n_qubits", 6), "config.n_qubits", minimum=4)
        bits = cfg.get("bits")
        if not isinstance(bits, list) or not bits or any(b not in (0, 1) for b in bits):
            raise ConfigError("config.bits: expected a non-empty list of 0/1")
        out["bits"] = [int(b) for b in bits]
    elif experiment == "gate":
        grid = cfg.get("eps_grid")
        if grid is not None:
            if not isinstance(grid, list) or len(grid) < 2:
                raise ConfigError("config.eps_grid: expected a list of >= 2 biases")
            out["eps_grid"] = [
                _num(x, f"config.eps_grid[{i}]", minimum=1e-9) for i, x in enumerate(grid)
            ]
        else:
            out["eps_grid"] = None
    return out


def _random_states(n: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        raw = rng.normal(size=4)
        vec = np.array([raw[0] + 1j * raw[1], raw[2] + 1j * raw[3]])
        states.append(vec / np.linalg.norm(vec))
    return states


def _state_obj(vec: np.ndarray) -> list[float]:
    return [float(vec[0].real), float(vec[0].imag), float(vec[1].real), float(vec[1].imag)]


def _assert_results(checks: list[tuple[str, bool, str]]) -> dict:
    return {
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in checks
        ],
        "passed": all(passed for _, passed, _ in checks),
    }


def _schedule_section(schedule, lines, cfg: dict, out_dir: str) -> tuple[dict, list]:
    """A wire report's ``"schedule"`` object and its replay and line checks;
    writes the schedule file if the config names one."""
    violations = validate_sacrificial(schedule)
    line_report = line_conflict_check(schedule, lines)
    if cfg["outputs"]["schedule"]:
        _write_text(
            os.path.join(out_dir, cfg["outputs"]["schedule"]),
            schedule_to_json(schedule, lines),
        )
    obj = {
        "n_windows": schedule.n_windows,
        "makespan_ns": schedule.makespan_ns,
        "pulse_count": schedule.pulse_count,
        "n_lines": lines.n_lines,
        "violations": [_violation_obj(v) for v in violations],
        "line_problems": list(line_report.problems),
    }
    checks = [
        ("schedule_replay_clean", not violations, f"{len(violations)} violations"),
        ("line_check_ok", line_report.ok, "; ".join(line_report.problems) or "ok"),
    ]
    return obj, checks


def _run_quantum_wire(cfg: dict, out_dir: str) -> tuple[dict, list]:
    design, eps, spec = _chain_setup(cfg, cfg["n_qubits"])
    schedule, lines = quantum_channel_schedule(
        spec, cfg["n_states"], cfg["t_ns"], line_mode=cfg["line_mode"]
    )
    states = (
        _random_states(cfg["n_states"], cfg["seed"])
        if cfg["states"] == "random"
        else cfg["states"]
    )

    results = {}
    for mode in cfg["modes"]:
        report = run_quantum_channel(spec, schedule, states, mode=mode)
        results[mode] = {
            "records": [
                {k: v for k, v in asdict(r).items() if k != "purity_raw"}
                for r in report.records
            ],
            "min_fidelity_raw": report.min_fidelity_raw,
            "min_fidelity_corrected": report.min_fidelity_corrected,
            "final_trace": report.final_trace,
        }

    schedule_obj, checks = _schedule_section(schedule, lines, cfg, out_dir)
    a = cfg["assertions"]
    if "min_reduced_fidelity" in a and "reduced" in results:
        worst = results["reduced"]["min_fidelity_corrected"]
        checks.append(
            (
                "min_reduced_fidelity",
                worst >= a["min_reduced_fidelity"],
                f"min fidelity {worst:.9f} vs {a['min_reduced_fidelity']}",
            )
        )
    if "max_reduced_phase_error" in a and "reduced" in results:
        worst = max(
            abs(r["phase_error_corrected"]) for r in results["reduced"]["records"]
        )
        checks.append(
            (
                "max_reduced_phase_error",
                worst <= a["max_reduced_phase_error"],
                f"max |phase error| {worst:.3e} vs {a['max_reduced_phase_error']}",
            )
        )
    if "min_corrected_fidelity" in a and "full" in results:
        worst = results["full"]["min_fidelity_corrected"]
        checks.append(
            (
                "min_corrected_fidelity",
                worst >= a["min_corrected_fidelity"],
                f"min corrected fidelity {worst:.9f} vs {a['min_corrected_fidelity']}",
            )
        )

    report_obj = {
        "experiment": "quantum_wire",
        "design": _design_obj(design),
        "eps_high_mhz": eps,
        "n_qubits": spec.n_qubits,
        "states": [_state_obj(s) for s in states],
        "schedule": schedule_obj,
        "results": results,
    }
    return report_obj, checks


def _run_classical_wire(cfg: dict, out_dir: str) -> tuple[dict, list]:
    design, eps, spec = _chain_setup(cfg, cfg["n_qubits"])
    schedule, lines = classical_channel_schedule(spec, cfg["bits"], cfg["t_ns"])

    results = {}
    for mode in cfg["modes"]:
        report = run_classical_channel(spec, schedule, cfg["bits"], mode=mode)
        results[mode] = {
            "bits_out": list(report.bits_out),
            "ok": report.ok,
            "latency_sequences": report.latency_sequences,
            "min_margin": report.min_margin,
            "records": [asdict(r) for r in report.records],
        }

    schedule_obj, checks = _schedule_section(schedule, lines, cfg, out_dir)
    a = cfg["assertions"]
    if a.get("require_echo"):
        for mode in cfg["modes"]:
            checks.append(
                (
                    f"echo_{mode}",
                    results[mode]["ok"],
                    f"bits_out={results[mode]['bits_out']} vs bits_in={cfg['bits']}",
                )
            )
    if "expect_latency_sequences" in a:
        for mode in cfg["modes"]:
            got = results[mode]["latency_sequences"]
            checks.append(
                (
                    f"latency_{mode}",
                    got == a["expect_latency_sequences"],
                    f"latency {got} vs {a['expect_latency_sequences']}",
                )
            )

    report_obj = {
        "experiment": "classical_wire",
        "design": _design_obj(design),
        "eps_high_mhz": eps,
        "n_qubits": spec.n_qubits,
        "bits_in": list(cfg["bits"]),
        "schedule": schedule_obj,
        "results": results,
    }
    return report_obj, checks


def _run_copy_table(cfg: dict, out_dir: str) -> tuple[dict, list]:
    design, eps, spec = _chain_setup(cfg, 3)
    results = {}
    for mode in cfg["modes"]:
        rows = copy_truth_table(spec, design, mode=mode)
        results[mode] = {
            "rows": [asdict(r) for r in rows],
            "min_fidelity": min(r.fidelity for r in rows),
        }
    checks = []
    if "min_fidelity" in cfg["assertions"]:
        for mode in cfg["modes"]:
            got = results[mode]["min_fidelity"]
            checks.append(
                (
                    f"min_fidelity_{mode}",
                    got >= cfg["assertions"]["min_fidelity"],
                    f"min fidelity {got:.9f} vs {cfg['assertions']['min_fidelity']}",
                )
            )
    report_obj = {
        "experiment": "copy_table",
        "design": _design_obj(design),
        "eps_high_mhz": eps,
        "results": results,
    }
    return report_obj, checks


def _run_gate(cfg: dict, out_dir: str) -> tuple[dict, list]:
    design, eps, spec = _chain_setup(cfg, 3)
    results = {}
    for mode in cfg["modes"]:
        report = run_gate_experiment(spec, design, mode=mode)
        results[mode] = {
            "distance": report.distance,
            "worst_infidelity": report.worst_infidelity,
            "leakage": report.leakage,
            "superposition_fidelity": report.superposition_fidelity,
            "truth_table": [
                {"control": c, "target": t, "fidelity": fid}
                for (c, t), fid in report.truth_table
            ],
        }
    sweep_obj = None
    slope = None
    if cfg["eps_grid"]:
        points = sweep_eps_high(design, cfg["eps_grid"])
        slope = infidelity_slope(points)
        sweep_obj = {
            "points": [asdict(p) for p in points],
            "slope": slope,
        }
    checks = []
    a = cfg["assertions"]
    if "max_worst_infidelity" in a and "full" in results:
        got = results["full"]["worst_infidelity"]
        checks.append(
            (
                "max_worst_infidelity",
                got <= a["max_worst_infidelity"],
                f"worst infidelity {got:.3e} vs {a['max_worst_infidelity']}",
            )
        )
    if "slope_range" in a:
        rng = a["slope_range"]
        checks.append(
            (
                "slope_range",
                rng[0] <= slope <= rng[1],
                f"slope {slope:.3f} vs [{rng[0]}, {rng[1]}]",
            )
        )
    report_obj = {
        "experiment": "gate",
        "design": _design_obj(design),
        "eps_high_mhz": eps,
        "results": results,
        "sweep": sweep_obj,
    }
    return report_obj, checks


_RUNNERS = {
    "quantum_wire": _run_quantum_wire,
    "classical_wire": _run_classical_wire,
    "copy_table": _run_copy_table,
    "gate": _run_gate,
}


def _cmd_run(args) -> int:
    cfg = _validate_config(_load_config(args.config))
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    report_obj, checks = _RUNNERS[cfg["experiment"]](cfg, out_dir)
    report_obj["assertions"] = _assert_results(checks)
    report_path = os.path.join(out_dir, cfg["outputs"]["report"])
    _write_text(report_path, _dump_json(report_obj))
    for check in report_obj["assertions"]["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']}: {check['detail']}")
    print(f"report: {report_path}")
    return 0 if report_obj["assertions"]["passed"] else 3


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="swapchannel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve (delta, xi) for a window and cycle counts")
    p.add_argument("--t-ns", type=float, default=None)
    p.add_argument("--delta-mhz", type=float, default=None)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--no-phase-exact", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("schedule", help="emit a pulse schedule as JSON")
    p.add_argument("--kind", choices=("quantum", "classical"), required=True)
    p.add_argument("--n-qubits", type=int, required=True)
    p.add_argument("--t-ns", type=float, default=10.0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--n-states", type=int, default=None)
    p.add_argument("--bits", default=None)
    p.add_argument("--line-mode", choices=("mod6", "mod3"), default="mod6")
    p.add_argument("--eps-high-mhz", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("validate", help="replay a schedule file and report violations")
    p.add_argument("--schedule", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("trace", help="CSV trace of one pulsed qubit's oscillation")
    p.add_argument("--delta-mhz", type=float, required=True)
    p.add_argument("--bias-mhz", type=float, default=0.0)
    p.add_argument("--duration-ns", type=float, required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--out", required=True)
    p.add_argument("--plot-script", default=None)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("run", help="run a config-driven experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InfeasibleDesignError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # ConfigError, ScheduleError and any refusal from the library
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
