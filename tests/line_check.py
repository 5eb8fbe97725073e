"""Line check: every executable line of ``src/swapchannel/*.py`` runs in a tier-1 test.

Runs the tier-1 suite (``tests/``) in this process under a ``sys.settrace``
tracer that records the lines run in the package's files, then compares them
with each file's executable lines: the line starts of its compiled code
objects (``dis.findlinestarts``).  A line may stay unrun only if ``EXCLUDED``
names it, by file name and stripped source text (not by line number, so an
edit elsewhere in the file does not move it), with the reason.  An exclusion
that names no unrun line is stale and fails the check too.

    PYTHONPATH=src python tests/line_check.py [extra pytest arguments]

Exits with the suite's own code if a test fails, else 1 if an unexcused line
is unrun or an exclusion is stale, else 0.  Only the standard library and
pytest are used; the trace costs about half again the suite's own time.
"""

from __future__ import annotations

import dis
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "swapchannel")

#: ``(file name, stripped source line) -> reason`` for each line no tier-1
#: test may run.
EXCLUDED: dict[tuple[str, str], str] = {}


def executable_lines(path: str) -> set[int]:
    """The line starts of the module's code object and of every code object
    nested in it (functions, classes, comprehensions, lambdas)."""
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """The suite's exit code and the lines run in each package file, by path."""
    import pytest

    if "swapchannel" in sys.modules:
        raise RuntimeError("swapchannel was imported before the tracer was set")
    ran: dict[str, set[int]] = {}
    by_name: dict[str, set[int] | None] = {}  # co_filename -> its set, or None outside

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            path = os.path.realpath(name)
            by_name[name] = ran.setdefault(path, set()) if os.path.dirname(path) == PACKAGE else None
        lines = by_name[name]
        if lines is None:
            return None
        lines.add(frame.f_lineno)  # a call event: the def line of the code object

        def trace_lines(frame, event, arg):
            lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors",
                            os.path.join(ROOT, "tests"), *pytest_args])
    finally:
        sys.settrace(None)
    package = sys.modules.get("swapchannel")
    if package is not None and os.path.dirname(os.path.realpath(package.__file__)) != PACKAGE:
        raise RuntimeError(f"the suite imported swapchannel from {package.__file__}, not {PACKAGE}")
    return int(code), ran


def unrun_lines(ran: dict[str, set[int]]) -> list[tuple[str, int, str]]:
    """``(file name, line number, stripped source)`` of each executable line
    of the package that did not run, file by file."""
    unrun = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for line in sorted(executable_lines(path) - ran.get(path, set())):
            unrun.append((name, line, source[line - 1].strip()))
    return unrun


def main(argv: list[str]) -> int:
    code, ran = traced_run(argv)
    if code != 0:
        print(f"line check: the suite exited {code}; no lines checked")
        return code
    unrun = unrun_lines(ran)
    unexcused = [u for u in unrun if (u[0], u[2]) not in EXCLUDED]
    stale = sorted(set(EXCLUDED) - {(name, text) for name, _, text in unrun})
    for name, line, text in unexcused:
        print(f"unrun: src/swapchannel/{name}:{line}: {text}")
    for name, text in stale:
        print(f"stale exclusion: {name}: {text!r} names no unrun line")
    excused = len(unrun) - len(unexcused)
    print(f"line check: {sum(map(len, ran.values()))} lines run, {len(unexcused)} unrun, "
          f"{excused} excluded, {len(stale)} stale exclusions")
    return 1 if unexcused or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
