"""Bounded fuzz of ``swapchannel validate`` and ``swapchannel run``.

Generated quantum (mod6 and mod3) and classical schedule files are mutated:
keys dropped, duplicated or given another type, values swapped for ``NaN`` or
``Infinity`` literals, 400-digit integers or nested junk.  ``validate`` must
exit 0 or 3 with a JSON report, or 1 with an ``error:`` line, and never
raise.

The bundled ``run`` configs, and a gate config with a sweep, are mutated the
same way, and also gain extra keys and huge sizes.  ``run`` must exit 0 or 3
with a report, 1 with an ``error:`` line or 2 with an ``infeasible:`` line,
and never raise."""

import contextlib
import io
import json
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_for
from swapchannel import (
    classical_channel_schedule, quantum_channel_schedule, schedule_to_json, solve_parameters
)
from swapchannel import cli
from swapchannel.cli import MAX_CONFIG_ITEMS, MAX_CONFIG_QUBITS

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


def _config_bases() -> list:
    configs = resources.files("swapchannel").joinpath("configs")
    bases = [json.loads(configs.joinpath(f"{name}.json").read_text())
             for name in ("fig2_quantum_wire", "fig4_classical_wire", "table1_copy")]
    bases.append({
        "experiment": "gate",
        "mode": "both",
        "eps_grid": [2500.0, 25000.0],
        "assertions": {"max_worst_infidelity": 0.015, "slope_range": [-2.5, -1.5]},
        "outputs": {"report": "gate_report.json"},
    })
    return bases


CONFIG_BASES = _config_bases()

#: Sizes past the config caps, and past the float and int64 ranges.
huge = st.sampled_from([MAX_CONFIG_QUBITS + 1, MAX_CONFIG_ITEMS + 1, 10**6, 10**9, 2**63,
                        10**400])
config_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),  # full mode at 8 qubits keeps a valid run fast
    huge,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.5, 1e-300, 1e300, 25000.0]),
    st.sampled_from(["", "random", "both", "full", "reduced", "mod3", "gate",
                     "snap_1000x_delta", "x.json", "/abs.json", "../up.json"]),
    st.text(max_size=5),
)
config_junk = st.one_of(
    st.recursive(
        config_scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.sampled_from(["report", "schedule", "min_fidelity", "x"]),
                            inner, max_size=2),
        ),
        max_leaves=6,
    ),
    huge.map(lambda k: [0] * min(k, MAX_CONFIG_ITEMS + 1)),  # a long list
)
config_keys = st.sampled_from([
    "experiment", "t_ns", "m", "n", "mode", "eps_high_mhz", "outputs", "assertions",
    "n_qubits", "n_states", "states", "seed", "line_mode", "bits", "eps_grid", "extra",
])


@st.composite
def mutated_configs(draw) -> str:
    tree = to_tree(draw(st.sampled_from(CONFIG_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        places = slots(tree, [])
        container, i = draw(st.sampled_from(places))
        op = draw(st.sampled_from(["drop", "duplicate", "retype", "add"]))
        if op == "drop":
            del container[i]
        elif op == "duplicate":
            copy = list(container[i]) if isinstance(container, Obj) else container[i]
            container.insert(i + 1, copy)
        elif op == "add":
            objects = [node for node, _ in places if isinstance(node, Obj)] + [tree]
            draw(st.sampled_from(objects)).append([draw(config_keys), draw(config_junk)])
        elif isinstance(container, Obj):
            container[i] = [container[i][0], draw(config_junk)]
        else:
            container[i] = draw(config_junk)
    return dump(tree)


@settings(max_examples=120, deadline=None)
@given(text=mutated_configs())
def test_run_exits_0_to_3_on_mutated_configs(tmp_path_factory, text):
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz_config.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--config", str(path), "--out-dir", str(base / "fuzz_run")])
    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: " if code == 1 else "infeasible: ")
    else:
        assert out.getvalue().splitlines()[-1].startswith("report: ")
