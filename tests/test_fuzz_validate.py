"""Bounded fuzz of ``swapchannel validate``.

Generated quantum (mod6 and mod3) and classical schedule files are mutated:
keys dropped, duplicated or given another type, values swapped for ``NaN`` or
``Infinity`` literals, 400-digit integers or nested junk.  ``validate`` must
exit 0 or 3 with a JSON report, or 1 with an ``error:`` line, and never
raise."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_for
from swapchannel import (
    classical_channel_schedule, quantum_channel_schedule, schedule_to_json, solve_parameters
)
from swapchannel import cli

DESIGN = solve_parameters(10.0, m=1, n=0)


def _base_documents() -> list:
    spec5, spec6 = chain_for(DESIGN, 5), chain_for(DESIGN, 6)
    pairs = [
        quantum_channel_schedule(spec5, 2, DESIGN.t_ns, line_mode="mod6"),
        quantum_channel_schedule(spec6, 2, DESIGN.t_ns, line_mode="mod3"),
        classical_channel_schedule(spec6, [1, 0, 1], DESIGN.t_ns),
    ]
    return [json.loads(schedule_to_json(s, lines)) for s, lines in pairs]


BASES = _base_documents()


class Obj(list):
    """A JSON object as a list of ``[key, value]`` pairs, so a key can repeat."""


class Raw(str):
    """JSON text written as it is."""


def to_tree(value):
    if isinstance(value, dict):
        return Obj([k, to_tree(v)] for k, v in value.items())
    if isinstance(value, list):
        return [to_tree(v) for v in value]
    return value


def dump(node) -> str:
    if isinstance(node, Raw):
        return node
    if isinstance(node, Obj):
        return "{" + ", ".join(json.dumps(k) + ": " + dump(v) for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(dump, node)) + "]"
    return json.dumps(node)  # nan and inf as NaN and Infinity


def slots(node, out):
    """Every (container, position) in the tree: a pair of an object or an
    element of an array."""
    items = node if isinstance(node, list) else []
    for i, item in enumerate(items):
        out.append((node, i))
        slots(item[1] if isinstance(node, Obj) else item, out)
    return out


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([10**400, -(10**400), 10**399 + 7]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "inject", "read_reset", "cnot_pulse", "swapchannel-schedule/1"]),
    st.text(max_size=5),
)
junk = st.one_of(
    st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(
                st.sampled_from(["kind", "qubit", "data_index", "map", "n_lines", "x"]),
                inner,
                max_size=3,
            ),
        ),
        max_leaves=8,
    ),
    st.sampled_from([5, 200, 990, 1000, 100000]).map(lambda d: Raw("[" * d + "]" * d)),
)


@st.composite
def mutated_files(draw) -> str:
    tree = to_tree(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        places = slots(tree, [])
        container, i = draw(st.sampled_from(places))
        op = draw(st.sampled_from(["drop", "duplicate", "retype"]))
        if op == "drop":
            del container[i]
        elif op == "duplicate":
            copy = list(container[i]) if isinstance(container, Obj) else container[i]
            container.insert(i + 1, copy)
        else:
            value = draw(junk)
            if isinstance(container, Obj):
                container[i] = [container[i][0], value]
            else:
                container[i] = value
    return dump(tree)


@settings(max_examples=150, deadline=None)
@given(text=mutated_files())
def test_validate_exits_0_1_or_3_on_mutated_files(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_schedule.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["validate", "--schedule", str(path)])
    assert code in (0, 1, 3)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
    else:
        assert json.loads(out.getvalue())["ok"] is (code == 0)
