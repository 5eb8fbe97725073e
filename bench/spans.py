"""Span recorder for the traced benchmark run.

``traced(recorder, package)`` wraps every public function of the package's
modules, at every module-level binding that refers to it (for example both
``evolve.propagator`` and ``runner.propagator``, and ``swapchannel.propagator``
on the package itself).  Each call records a span: function name, start, end,
parent span and operation id.  Spans stay in memory, one ``PassSpans`` per
pass, until the benchmark writes them out.  The library itself is not edited; the
wrappers are removed when the ``with`` block ends.

A span's self time is its duration minus the time its direct children cover.
Summed over a pass, the self times equal the time spent inside top-level
spans, so the pass time minus that sum is the time no layer accounts for.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import time
from array import array
from collections import Counter
from types import ModuleType

#: The package's modules, which are the benchmark's layers.
LAYERS = ("chain", "solver", "gates", "evolve", "scheduler", "runner", "cli")


class PassSpans:
    """The spans of one pass, column by column (compact: schedule work makes
    hundreds of thousands of spans per pass).  Times are perf_counter_ns."""

    def __init__(self):
        self.name = array("i")  # index into Recorder.names
        self.binding = array("i")  # index into Recorder.names
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")  # index of the enclosing span, -1 at top level
        self.op = array("i")  # position of the operation in the job list


class Recorder:
    """Collects spans and counters, one ``PassSpans`` per pass."""

    def __init__(self):
        self.names: list[str] = []
        self.passes: list[PassSpans] = []
        self.op = -1
        self._stack: list[int] = []
        self.state_type: type = type(None)  # the package's QuantumState, set by traced()
        self.gflop: list[float] = []
        self.state_bytes_max: list[int] = []

    def start_pass(self) -> None:
        self.passes.append(PassSpans())
        self.gflop.append(0.0)
        self.state_bytes_max.append(0)

    def _intern(self, text: str) -> int:
        if text not in self.names:
            self.names.append(text)
        return self.names.index(text)

    def wrap(self, name: str, binding: str, fn):
        name_id, binding_id = self._intern(name), self._intern(binding)
        passes = self.passes
        stack = self._stack
        clock = time.perf_counter_ns
        probe = self._probe if name.startswith("evolve.") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = passes[-1]
            index = len(spans.start)
            spans.name.append(name_id)
            spans.binding.append(binding_id)
            spans.parent.append(stack[-1] if stack else -1)
            spans.op.append(self.op)
            spans.end.append(0)
            stack.append(index)
            spans.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[index] = clock()
                stack.pop()
            if probe is not None:
                probe(name, args, result)
            return result

        return wrapper

    def _probe(self, name: str, args: tuple, result) -> None:
        """Computed (not measured) flops and state bytes, from array shapes."""
        if isinstance(result, self.state_type):
            self.state_bytes_max[-1] = max(self.state_bytes_max[-1], result.data.nbytes)
        if name == "evolve.apply_unitary" and args and isinstance(args[0], self.state_type):
            dim = args[0].dim
            # A complex multiply-add is 8 real flops: U psi is one d x d
            # product with a vector, U rho U^dagger two d x d x d products.
            flops = 8 * dim * dim if args[0].kind == "pure" else 16 * dim**3
            self.gflop[-1] += flops * 1e-9


def public_functions(module: ModuleType) -> dict[str, object]:
    """Public functions defined in ``module`` (not re-exported ones)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


@contextlib.contextmanager
def traced(recorder: Recorder, package: ModuleType):
    """Wrap every binding of every public function of ``package``'s layers."""
    modules = {layer: getattr(package, layer) for layer in LAYERS}
    recorder.state_type = modules["evolve"].QuantumState
    targets = {}
    for layer, module in modules.items():
        for fname, fn in public_functions(module).items():
            targets[id(fn)] = f"{layer}.{fname}"
    originals = []
    for owner_name, owner in [(package.__name__.rsplit(".", 1)[-1], package), *modules.items()]:
        for attr, value in list(vars(owner).items()):
            name = targets.get(id(value))
            if name is not None:
                originals.append((owner, attr, value))
                setattr(owner, attr, recorder.wrap(name, f"{owner_name}.{attr}", value))
    try:
        yield recorder
    finally:
        for owner, attr, value in originals:
            setattr(owner, attr, value)


def self_times(start, end, parent) -> list[float]:
    """Per-span self time: duration minus the durations of direct children."""
    child = [0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    return [end[i] - start[i] - child[i] for i in range(len(start))]


def summarize(spans: PassSpans, names: list[str]) -> tuple[dict[str, float], Counter, Counter]:
    """(self seconds by function, calls by function, calls by binding)."""
    self_s: dict[str, float] = {}
    for i, s in zip(spans.name, self_times(spans.start, spans.end, spans.parent)):
        self_s[names[i]] = self_s.get(names[i], 0.0) + s * 1e-9
    calls = Counter(names[i] for i in spans.name)
    by_binding = Counter(names[i] for i in spans.binding)
    return self_s, calls, by_binding


def layer_self_times(self_s: dict[str, float]) -> dict[str, float]:
    """Self seconds summed per layer (module)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, s in self_s.items():
        totals[name.split(".", 1)[0]] += s
    return totals


def dump(path: str, spans: PassSpans, names: list[str]) -> None:
    """Write one pass's spans as gzip-compressed columnar JSON."""
    obj = {"names": names, "time_unit": "ns"}
    for column in ("name", "binding", "start", "end", "parent", "op"):
        obj[column] = getattr(spans, column).tolist()
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
