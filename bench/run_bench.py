#!/usr/bin/env python3
"""swapchannel benchmark: time each workload end to end, or per layer.

Run from the repository root:

    python3 bench/run_bench.py --workload full_wire --seed 0 --seconds 20 --trace 0
    python3 bench/run_bench.py --workload all --seconds 20
    python3 bench/run_bench.py --smoke

One process runs one workload.  It pins the BLAS thread count to 1 before
numpy loads, builds the package from ``src/``, sets up and warms up, then
repeats passes over the workload's fixed job list for ``--seconds`` seconds.
Every job is timed between two runs of a calibration kernel, and times are
reported in seconds of the reference host (see ``calibration.py``).  Every
operation's output is checked (see ``checker.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with every public library function wrapped in a span
(see ``spans.py``), and reports the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it print every metric with its unit and the
machine record.  A fuller result, and the spans of a traced run, go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checker
import spans

calibration = None  # imported after the BLAS thread count is pinned

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("full_wire", "full_pipeline", "reduced_wire", "schedule_check")

#: BLAS threads: the plain single-threaded baseline (see README.md).
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Calibration kernel of each workload (calibration.py): the kind of work it does.
KERNEL = {
    "full_wire": "numeric",
    "full_pipeline": "mixed",
    "reduced_wire": "mixed",
    "schedule_check": "interpreter",
}

#: Set-ups per run (this process plus fresh subprocesses); setup_s is their median.
SETUP_SAMPLES = 5

END_TO_END = (
    ("run_s", "s", "lower"),
    ("windows_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_TIMED = (
    "evolve.apply_unitary",
    "evolve.propagator",
    "evolve.reset_qubit",
    "evolve.inject_state",
    "evolve.reduced_state",
    "evolve.apply_local_unitary",
    "gates.reduced_pulse_operator",
    "chain.build_hamiltonian",
    "scheduler.replay_occupancy",
)
_SELF_ONLY = (
    "scheduler.quantum_channel_schedule",
    "scheduler.classical_channel_schedule",
    "scheduler.line_conflict_check",
    "scheduler.schedule_to_json",
    "scheduler.schedule_from_json",
    "runner.compute_frame_correction",
    "runner.run_quantum_channel",
    "runner.run_classical_channel",
)
_GATE_EXPERIMENTS = (
    "runner.run_gate_experiment",
    "runner.copy_truth_table",
    "runner.sweep_eps_high",
    "runner.infidelity_slope",
)

PER_LAYER = (
    *[
        (f"{fn}.{kind}", unit, "lower")
        for fn in _TIMED
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    ],
    *[(f"{fn}.self_s", "s", "lower") for fn in _SELF_ONLY],
    ("runner.gate_experiments.self_s", "s", "lower"),
    ("evolve.apply_unitary.gflop_computed", "GFLOP_computed", "lower"),
    ("evolve.state_bytes_max", "bytes_computed", "lower"),
    ("runner.prop_cache_hit_ratio", "ratio", "higher"),
    ("scheduler.replays_per_schedule", "count/schedule", "lower"),
    # Self time per layer; these seven plus bench.unattributed_s sum to
    # bench.traced_run_s.  The cli layer's only public function is main.
    ("chain.self_s", "s", "lower"),
    ("solver.self_s", "s", "lower"),
    ("gates.self_s", "s", "lower"),
    ("evolve.self_s", "s", "lower"),
    ("scheduler.self_s", "s", "lower"),
    ("runner.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("bench.unattributed_s", "s", "lower"),
    ("bench.traced_run_s", "s", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("check.failed_frac", "ratio", "lower"),
    ("check.reads_below_bound", "count", "lower"),
)


@dataclass
class PassResult:
    """One pass over a job list: time inside ``Job.run`` and what came back."""

    kernel: str  # calibration kernel kind (calibration.KERNELS)
    op_seconds: list[float] = field(default_factory=list)  # one per job
    #: Calibration kernel times: before each job, and one after the last.
    kernel_seconds: list[float] = field(default_factory=list)
    outcomes: list = field(default_factory=list)  # Outcome, or None if it failed
    failures: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds)

    def normalised_op_seconds(self) -> list[float]:
        """Each job's time in seconds of the reference host (calibration.py)."""
        k = self.kernel_seconds
        return [
            calibration.normalised(self.kernel, t, k[i], k[i + 1])
            for i, t in enumerate(self.op_seconds)
        ]

    def total(self, attr: str) -> int:
        return sum(getattr(o, attr) for o in self.outcomes if o is not None)


def run_pass(jobs, refs, seed: int, kernel: str, recorder=None) -> PassResult:
    """Run every job once, timing only ``job.run`` and checking each output.

    The ``kernel`` calibration kernel is timed before every job and after the
    last one.  Each pass starts from a collected heap, so the cyclic
    collector runs at the same points in every pass; the collection itself is
    not timed.
    """
    gc.collect()
    result = PassResult(kernel=kernel)
    if recorder is not None:
        recorder.start_pass()
    for op, job in enumerate(jobs):
        if recorder is not None:
            recorder.op = op
        result.kernel_seconds.append(calibration.time_kernel(kernel))
        t0 = time.perf_counter()
        try:
            value, error = job.run(), None
        except Exception:  # a failed operation is counted, not fatal
            value, error = None, traceback.format_exc(limit=4)
        result.op_seconds.append(time.perf_counter() - t0)
        problems = [f"raised:\n{error}"] if error else []
        outcome = None
        if not problems:
            try:
                outcome = job.observe(value)
            except Exception:
                problems = [f"output unreadable:\n{traceback.format_exc(limit=4)}"]
        if outcome is not None:
            problems = refs.grade(job, seed, outcome)
        if problems:
            outcome = None
            result.failures.append(f"{job.name}: " + "; ".join(problems))
        result.outcomes.append(outcome)
    result.kernel_seconds.append(calibration.time_kernel(kernel))
    return result


def run_timed(jobs, refs, seed: int, seconds: float, kernel: str,
              recorder=None) -> list[PassResult]:
    """Closed loop, one caller: repeat passes until ``seconds`` have elapsed."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(jobs, refs, seed, kernel, recorder))
    return passes


def reads_below(p: PassResult) -> int:
    return sum(checker.reads_below_bound(o) for o in p.outcomes if o is not None)


def fastest(passes: list[PassResult]) -> int:
    """Index of the fastest pass."""
    return min(range(len(passes)), key=lambda i: passes[i].seconds)


def normalised_pass_seconds(passes: list[PassResult]) -> float:
    """One pass over the job list, each job at its median normalised time.

    The host this benchmark was built on drifts between faster and slower
    states that last from seconds to tens of minutes, so a raw time reflects
    whichever state the run fell into.  Each job's time is divided by the
    calibration kernel's time beside it (see ``calibration.py``); the median
    of that over the run's passes is steady across host states.
    """
    per_job = zip(*(p.normalised_op_seconds() for p in passes))
    return sum(statistics.median(times) for times in per_job)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def pin_blas() -> None:
    """Pin BLAS to one thread, then import the modules that load numpy."""
    global calibration
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    import calibration


def setup(workload: str, seed: int, out_dir: Path):
    """Import, build the inputs, and warm up on the reduced-size job list.

    Returns (jobs, references, warm-up failures, seconds taken in seconds of
    the reference host: the raw time over the calibration kernel's speed
    factor, measured right after).
    """
    t0 = time.perf_counter()
    import swapchannel

    import workloads

    where = Path(swapchannel.__file__).resolve().parent
    if where != SRC / "swapchannel":
        raise RuntimeError(f"imported swapchannel from {where}, not from {SRC}")
    refs = checker.References.load(str(REFERENCE))
    jobs = workloads.build(workload, seed, smoke=False, out_dir=str(out_dir))
    warm = workloads.build(workload, seed, smoke=True, out_dir=str(out_dir))
    warm_failures = run_pass(warm, refs, seed, KERNEL[workload]).failures
    seconds = time.perf_counter() - t0
    return jobs, refs, warm_failures, seconds / calibration.speed_factor(KERNEL[workload])


def setup_samples(workload: str, seed: int, first: float) -> list[float]:
    """``first`` plus set-up times of fresh processes, so imports are cold too."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up subprocess failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def blas_record() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def git_commit() -> str | None:
    """HEAD commit, read from .git without running git (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_record(),
        "blas_threads": BLAS_THREADS,
        "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(passes: list[PassResult], setups: list[float]) -> dict[str, tuple[float, str]]:
    """Each end-to-end metric's value and a note on how it was measured."""
    times = [p.seconds for p in passes]
    kernels = [k for p in passes for k in p.kernel_seconds]
    run_s = normalised_pass_seconds(passes)
    windows = max(p.total("windows") for p in passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "run_s": (run_s, f"median of {len(passes)} passes, normalised; raw passes: "
                  f"median {statistics.median(times):.4f}, kernel median "
                  f"{statistics.median(kernels) * 1e3:.3f} ms"),
        "windows_per_s": (windows / run_s, f"{windows} windows per pass / run_s"),
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups, normalised; "
                    f"fastest {min(setups):.4f}, slowest {max(setups):.4f}"),
        "peak_rss_mb": (rss_mb, "peak resident set of this process"),
    }


def per_layer(untraced: list[PassResult], traced: list[PassResult], recorder) -> dict[str, float]:
    """Per-layer metrics from the fastest traced pass.

    Its self times are raw seconds, so that they add up to its time;
    ``bench.trace_overhead_frac`` compares normalised times.
    """
    k = fastest(traced)
    p = traced[k]
    self_s, calls, by_binding = spans.summarize(recorder.passes[k], recorder.names)
    layers = spans.layer_self_times(self_s)
    m: dict[str, float] = {}
    for fn in _TIMED:
        m[f"{fn}.calls"] = calls[fn]
        m[f"{fn}.self_s"] = self_s.get(fn, 0.0)
    for fn in _SELF_ONLY:
        m[f"{fn}.self_s"] = self_s.get(fn, 0.0)
    m["runner.gate_experiments.self_s"] = sum(self_s.get(fn, 0.0) for fn in _GATE_EXPERIMENTS)
    m["evolve.apply_unitary.gflop_computed"] = recorder.gflop[k]
    m["evolve.state_bytes_max"] = recorder.state_bytes_max[k]
    full_evals = p.total("full_evals")
    m["runner.prop_cache_hit_ratio"] = (
        1.0 - by_binding["runner.propagator"] / full_evals if full_evals else 0.0
    )
    schedules = p.total("schedules")
    m["scheduler.replays_per_schedule"] = (
        calls["scheduler.replay_occupancy"] / schedules if schedules else 0.0
    )
    for layer in spans.LAYERS:
        m["cli.main.self_s" if layer == "cli" else f"{layer}.self_s"] = layers[layer]
    m["bench.unattributed_s"] = p.seconds - sum(layers.values())
    m["bench.traced_run_s"] = p.seconds
    m["bench.trace_overhead_frac"] = (
        normalised_pass_seconds(traced) / normalised_pass_seconds(untraced) - 1.0
    )
    everything = untraced + traced
    attempted = sum(len(q.outcomes) for q in everything)
    m["check.failed_frac"] = sum(len(q.failures) for q in everything) / attempted
    m["check.reads_below_bound"] = reads_below(p)
    return m


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def untraced_run(args, jobs, refs, setup_s: float) -> tuple[list[PassResult], dict]:
    """End-to-end metrics: every pass untraced."""
    passes = run_timed(jobs, refs, args.seed, args.seconds, KERNEL[args.workload])
    values = end_to_end(passes, setup_samples(args.workload, args.seed, setup_s))
    for name, unit, _ in END_TO_END:
        value, note = values[name]
        print(f"  {name:<18} {value:.6g} {unit:<6} {note}")
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(f"  {'failed_frac':<18} {failed / attempted:.6g} {'ratio':<6} "
          f"{failed} of {attempted} operations")
    print(f"  {'reads_below_bound':<18} {reads_below(passes[0])} {'count':<6} "
          "per pass (corrected fidelity < 0.999 full, < 1-1e-9 reduced)")
    return passes, {name: {"value": values[name][0], "unit": unit} for name, unit, _ in END_TO_END}


def traced_run(args, jobs, refs) -> tuple[list[PassResult], dict]:
    """Per-layer metrics: half the time untraced, then half traced."""
    import swapchannel

    kernel = KERNEL[args.workload]
    untraced = run_timed(jobs, refs, args.seed, args.seconds / 2, kernel)
    recorder = spans.Recorder()
    with spans.traced(recorder, swapchannel):
        traced = run_timed(jobs, refs, args.seed, args.seconds / 2, kernel, recorder)
    values = per_layer(untraced, traced, recorder)
    for name, unit, _ in PER_LAYER:
        print(f"  {name:<44} {values[name]:.6g} {unit}")
    spans.dump(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"),
               recorder.passes[fastest(traced)], recorder.names)
    return untraced + traced, {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def measure(args) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"cli-{os.getpid()}"
    try:
        jobs, refs, warm_failures, setup_s = setup(args.workload, args.seed, work_dir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        reference_note = (
            "full" if args.seed == refs.seed
            else f"seed {args.seed} is not the reference seed {refs.seed}: seeded jobs "
                 "get invariant checks only"
        )
        print(f"workload {args.workload}  seed {args.seed}  {len(jobs)} jobs per pass  "
              f"reference checks: {reference_note}")
        if args.trace:
            passes, metrics = traced_run(args, jobs, refs)
        else:
            passes, metrics = untraced_run(args, jobs, refs, setup_s)
        failures = warm_failures + [f for p in passes for f in p.failures]
        for message in failures[:5]:
            print(f"FAILED {message}", file=sys.stderr)
        machine = machine_record()
        print("machine " + json.dumps(machine, sort_keys=True))
        result = {
            "correct": not failures,
            "attempted": sum(len(p.outcomes) for p in passes),
            "failed": sum(len(p.failures) for p in passes),
            "metrics": metrics,
        }
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      seconds=args.seconds, op_seconds=[p.op_seconds for p in passes],
                      kernel_seconds=[p.kernel_seconds for p in passes],
                      job_names=[job.name for job in jobs], reference_checks=reference_note,
                      machine=machine, failures=failures[:20])
        out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def smoke() -> int:
    """Each workload once at reduced size, checks on; exit 1 on any failure."""
    import tempfile

    import workloads

    refs = checker.References.load(str(REFERENCE))
    OUT_DIR.mkdir(exist_ok=True)
    bad = 0
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work_dir:
        for workload in WORKLOADS:
            jobs = workloads.build(workload, refs.seed, smoke=True, out_dir=work_dir)
            p = run_pass(jobs, refs, refs.seed, KERNEL[workload])
            status = "ok" if not p.failures else "FAILED"
            print(f"smoke {workload:<15} {status}  {len(jobs)} jobs  {p.seconds:.3f} s  "
                  f"reads_below_bound {reads_below(p)}")
            for message in p.failures:
                print(f"  {message}")
            bad += len(p.failures)
    return 1 if bad else 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after the other."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, timeout=600)
        status = status or proc.returncode
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced-size check of every workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "swapchannel" / "__init__.py").is_file():
        print(f"error: no swapchannel sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_blas()
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    return run_all(args) if args.workload == "all" else measure(args)


if __name__ == "__main__":
    sys.exit(main())
