"""Bounded fuzz of ``swapchannel validate`` and ``swapchannel run``.

Generated quantum (mod6 and mod3) and classical schedule files are mutated:
keys dropped, duplicated or given another type, values swapped for ``NaN`` or
``Infinity`` literals, 400-digit integers, an integer past the interpreter's
int-string limit or nested junk.  ``validate`` must exit 0 or 3 with a JSON
report, or 1 with an ``error:`` line, and never raise.

The bundled ``run`` configs, and a gate config with a sweep, are mutated the
same way, and also gain extra keys and huge sizes.  ``run`` must exit 0 or 3
with a report, 1 with an ``error:`` line or 2 with an ``infeasible:`` line,
and never raise.

The config table (``cli._KEYS`` and the kinds of ``cli._ASSERTIONS``) is the
oracle of two more properties, checked with the experiment itself stubbed
out: a bundled config with one key set to a value drawn for that key's row
exits 1 with an ``error: config.<key>`` line whenever the value is outside
the row's kind or bounds, and every config that passes validation holds only
values inside its rows.  ``fits`` decides membership from the rows' fields,
apart from the validator's own code."""

import contextlib
import io
import json
import math
import os
import re
import sys
from importlib import resources
from unittest import mock

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


#: An integer longer than the int-string limit (4300 digits by default), which
#: ``json`` refuses with a plain ValueError; as text, since ``json.dumps`` would too.
LONG_INT = Raw("9" * 5000)


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
    st.sampled_from([10**400, -(10**400), 10**399 + 7, LONG_INT]),
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
#: Junk for a whole config file, which may also hold an integer ``json`` refuses.
file_junk = st.one_of(config_junk, st.just(LONG_INT))
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
            draw(st.sampled_from(objects)).append([draw(config_keys), draw(file_junk)])
        elif isinstance(container, Obj):
            container[i] = [container[i][0], draw(file_junk)]
        else:
            container[i] = draw(file_junk)
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


def is_number(x, low=None) -> bool:
    """A finite JSON number (not a boolean) of at least ``low``."""
    if type(x) not in (int, float) or (type(x) is int and abs(x) > sys.float_info.max):
        return False
    return math.isfinite(x) and (low is None or x >= low)


def is_file_name(name) -> bool:
    """A non-empty relative path that does not climb out with ``..``."""
    return (type(name) is str and name != "" and not os.path.isabs(name)
            and ".." not in name.replace("\\", "/").split("/"))


def fits(row, value) -> bool:
    """Whether ``value`` is one of ``row``'s named values, or of its kind and
    inside its bounds."""
    if any(type(value) is type(v) and value == v for v in row.named):
        return True
    kind, low, high = row.kind, row.low, row.high
    if kind == "number":
        return is_number(value, low)
    if kind == "integer":
        return (type(value) is int and (low is None or value >= low)
                and (high is None or value <= high))
    if kind == "boolean":
        return type(value) is bool
    if kind == "range":
        return type(value) is list and len(value) == 2 and all(map(is_number, value))
    if kind == "outputs":
        return type(value) is dict and all(
            key in row.default and is_file_name(name) for key, name in value.items()
        )
    if kind == "choice" or type(value) is not list:
        return False
    if not row.items[0] <= len(value) <= row.items[1]:
        return False
    if kind == "biases":
        return all(is_number(x, low) for x in value)
    if kind == "bits":
        return all(type(b) is int and b in (0, 1) for b in value)
    assert kind == "states", kind
    return all(
        type(e) is list and len(e) == 4 and all(map(is_number, e))
        and abs(math.hypot(*e) - 1.0) <= 1e-6
        for e in value
    )


def table_rows(experiment: str) -> list:
    """``(path, row)`` for each key of an experiment's config, an assertion
    as ``assertions.<key>`` with a row of its value's kind."""
    return list(cli._KEYS[experiment].items()) + [
        (f"assertions.{key}", cli._Key(a.kind)) for key, a in cli._ASSERTIONS[experiment].items()
    ]


#: Values that pass for another type in a loose check: bools for integers,
#: integral floats for integers, strings for numbers, empty containers.
CONFUSERS = [True, False, 0, 1, 1.0, 0.0, -1, 2, 0.5, "1", "", None, math.nan, math.inf,
             10**400, [], {}]
#: A valid entry of each list kind, to build lists at and past a row's bounds.
ENTRY = {"biases": 1000.0, "bits": 1, "states": [0.6, 0.0, 0.0, 0.8]}


def row_edges(row) -> list:
    """Values at and just past a row's bounds: its default and named values,
    each bound and a step either side, the confusers, lists one entry short
    or long or ending in a confuser, and near-miss states and outputs."""
    edges = [row.default, *row.named, *CONFUSERS]
    for bound in (row.low, row.high):
        if bound is not None:
            edges += [bound, bound - 1, bound + 1, bound / 2, float(bound)]
    if row.kind in ENTRY:
        low, high = row.items
        entry = ENTRY[row.kind]
        edges += [[entry] * n for n in (low - 1, low, high, high + 1)]
        edges += [[entry] * (low - 1) + [x] for x in CONFUSERS + [row.low and row.low / 2]]
    if row.kind in ("states", "range"):
        edges += [[x] for x in ([1.0, 0.0, 0.0, 0.0], [0.6, 0.0, 0.0, 0.8001], [1, 0, 0],
                                [1, 0, 0, 1], [True, 0, 0, 0])]
        edges += [[1.0, x] for x in CONFUSERS]
    if row.kind == "outputs":
        edges += [{key: name} for key in ("report", "schedule", "plot")
                  for name in ("f.json", "../f.json", "/f.json", "d/f.json", "", None, 1)]
    return edges


def edited(base: dict, path: str, value) -> str:
    """``base`` with the key at ``path`` (``assertions.<key>`` for an
    assertion) set to ``value``, as JSON text."""
    cfg = json.loads(json.dumps(base))
    parent, _, key = path.rpartition(".")
    (cfg.setdefault(parent, {}) if parent else cfg)[key] = value
    return dump(to_tree(cfg))


@st.composite
def table_edits(draw) -> tuple:
    """A bundled config with one key set to a value drawn for its row (junk,
    or one of its edges): the config's text, the key's path and row, and the
    value."""
    base = draw(st.sampled_from(CONFIG_BASES))
    path, row = draw(st.sampled_from(table_rows(base["experiment"])))
    value = draw(st.one_of(config_junk, st.sampled_from(row_edges(row))))
    return edited(base, path, value), path, row, value


class Validated(Exception):
    """Raised in place of the experiment once a config passes validation."""


def validate_only(tmp_path_factory, text: str) -> tuple[int | None, str]:
    """``run`` on ``text`` with the experiment stubbed: the exit code (None
    once the config passed validation) and stderr."""
    base = tmp_path_factory.getbasetemp()
    path = base / "table_config.json"
    path.write_text(text)
    err = io.StringIO()
    with mock.patch.object(cli, "_chain_setup", side_effect=Validated), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["run", "--config", str(path), "--out-dir", str(base / "table_run")])
        except Validated:
            code = None
    return code, err.getvalue()


def holds_only_row_values(cfg: dict) -> bool:
    experiment = cfg["experiment"]
    rows, assertions = cli._KEYS[experiment], cli._ASSERTIONS[experiment]
    return all(fits(rows[key], value) for key, value in cfg.items()
               if key not in ("experiment", "assertions")) and all(
        fits(cli._Key(assertions[key].kind), value)
        for key, value in cfg.get("assertions", {}).items()
    )


def check_edit(tmp_path_factory, text: str, path: str, row, value) -> None:
    """A value outside its row exits 1 naming its key; a config that passes
    validation holds only values inside its rows."""
    code, err = validate_only(tmp_path_factory, text)
    if not fits(row, value):
        assert code == 1, (path, value)
        assert re.match(rf"error: config\.{re.escape(path)}[:.\[]", err), (path, value, err)
    if code is None:
        assert holds_only_row_values(json.loads(text)), (path, value)


@settings(max_examples=300, deadline=None)
@given(edit=table_edits())
def test_a_value_outside_its_row_exits_1_naming_the_key(tmp_path_factory, edit):
    check_edit(tmp_path_factory, *edit)


def test_every_edge_of_every_row(tmp_path_factory):
    # the edges of each row in each bundled config (and the gate config), in turn
    for base in CONFIG_BASES:
        for path, row in table_rows(base["experiment"]):
            for value in row_edges(row):
                check_edit(tmp_path_factory, edited(base, path, value), path, row, value)


@settings(max_examples=200, deadline=None)
@given(text=mutated_configs())
def test_a_config_that_passes_validation_holds_only_row_values(tmp_path_factory, text):
    code, err = validate_only(tmp_path_factory, text)
    assert code in (None, 1)
    if code is None:
        assert holds_only_row_values(json.loads(text))
    else:
        assert err.startswith("error: ")
