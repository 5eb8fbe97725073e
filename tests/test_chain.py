import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import chain_for
from oracles import hold_bias_swap_pulses, kron_hamiltonian
from swapchannel import (
    ChainSpec,
    LineAssignment,
    PulseEvent,
    PulseSchedule,
    ScheduleError,
    Window,
    classical_channel_schedule,
    run_classical_channel,
    schedule_to_json,
    solve_parameters,
)
from swapchannel.chain import (
    TwoLevelParams,
    _integer,
    _mirror_index,
    _number,
    build_hamiltonian,
    effective_bias,
    is_hermitian,
    phase_angle,
    wrap_phase,
)
from swapchannel.cli import main
from swapchannel.mps import MPS

finite_bias = st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)


class TestPhaseHelpers:
    def test_phase_angle_one_cycle(self):
        # 100 MHz for 10 ns is exactly one cycle.
        assert_allclose(phase_angle(100.0, 10.0), 2.0 * np.pi, rtol=1e-15)

    def test_phase_angle_scales_linearly(self):
        assert_allclose(phase_angle(50.0, 10.0), phase_angle(100.0, 5.0))

    @pytest.mark.parametrize(
        "raw, expected",
        [
            (0.0, 0.0),
            (np.pi, np.pi),
            (-np.pi, np.pi),
            (3.0 * np.pi, np.pi),
            (2.0 * np.pi, 0.0),
            (-0.5, -0.5),
        ],
    )
    def test_wrap_phase(self, raw, expected):
        assert_allclose(wrap_phase(raw), expected, atol=1e-12)

    def test_is_hermitian(self):
        assert is_hermitian(np.array([[1.0, 1j], [-1j, 2.0]]))
        assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not is_hermitian(np.zeros((2, 3)))  # not square


class TestChainSpec:
    def test_default_hold_bias_is_100x_delta(self, design):
        spec = chain_for(design, 5)
        assert_allclose(spec.eps_high_mhz, 100.0 * design.delta_mhz)

    def test_explicit_hold_bias(self, design):
        spec = chain_for(design, 3, eps_high=25000.0)
        assert spec.eps_high_mhz == 25000.0

    @pytest.mark.parametrize("bad_n", [0, -1])
    def test_rejects_bad_sizes(self, bad_n, design):
        with pytest.raises(ValueError):
            chain_for(design, bad_n)

    def test_rejects_nonpositive_couplings(self):
        with pytest.raises(ValueError):
            ChainSpec(n_qubits=3, delta_mhz=0.0, xi_mhz=1.0)
        with pytest.raises(ValueError):
            ChainSpec(n_qubits=3, delta_mhz=1.0, xi_mhz=-1.0)

    @pytest.mark.parametrize("field", ["delta_mhz", "xi_mhz", "eps_high_mhz"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, field, value):
        kwargs = {"n_qubits": 3, "delta_mhz": 1.0, "xi_mhz": 1.0, "eps_high_mhz": 100.0}
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            ChainSpec(**kwargs)


    @pytest.mark.parametrize("bad_n", [2.5, 3.0, True, "3", None],
                             ids=["2.5", "3.0", "True", "str", "None"])
    def test_rejects_non_integer_sizes(self, bad_n):
        # 2.5 used to fail inside MPS.ground, True to run as a 1-qubit chain
        with pytest.raises(ValueError, match="n_qubits must be an integer"):
            ChainSpec(n_qubits=bad_n, delta_mhz=1.0, xi_mhz=1.0)

    @pytest.mark.parametrize("field", ["delta_mhz", "xi_mhz", "eps_high_mhz"])
    @pytest.mark.parametrize("value", [True, False, "1.0", 1j, 10**400],
                             ids=["True", "False", "str", "complex", "int-past-float-range"])
    def test_rejects_bools_and_non_numbers(self, field, value):
        # True used to be taken as 1 MHz
        kwargs = {"n_qubits": 3, "delta_mhz": 1.0, "xi_mhz": 1.0, "eps_high_mhz": 100.0}
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            ChainSpec(**kwargs)

    def test_numpy_numbers_are_stored_as_plain_numbers(self):
        spec = ChainSpec(np.int64(3), np.float64(25.0), np.int32(2), np.float32(100.0))
        assert spec == ChainSpec(3, 25.0, 2.0, 100.0)
        assert type(spec.n_qubits) is int
        assert {type(spec.delta_mhz), type(spec.xi_mhz), type(spec.eps_high_mhz)} == {float}


class TestTwoLevelParams:
    def test_matrix(self):
        h = TwoLevelParams(delta_mhz=3.0, effective_bias_mhz=4.0).hamiltonian()
        assert_allclose(h, np.array([[4.0, 3.0], [3.0, -4.0]], dtype=complex))

    @pytest.mark.parametrize("field", ["delta_mhz", "effective_bias_mhz"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, field, value):
        kwargs = {"delta_mhz": 3.0, "effective_bias_mhz": 4.0}
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TwoLevelParams(**kwargs)

    @pytest.mark.parametrize("delta", [0.0, -0.0, -1.0])
    def test_rejects_non_positive_delta(self, delta):
        # as ChainSpec does; a zero delta would divide by zero in the descriptor
        with pytest.raises(ValueError, match="delta_mhz must be > 0"):
            TwoLevelParams(delta, 0.0)


class TestBuildHamiltonian:
    def test_single_qubit(self):
        h = build_hamiltonian(ChainSpec(1, 2.0, 1.0), [7.0])
        assert_allclose(h, np.array([[7.0, 2.0], [2.0, -7.0]], dtype=complex))

    def test_two_qubit_by_hand(self):
        # Diagonal carries both biases plus the zz coupling; off-diagonal
        # entries connect single spin flips with weight delta.
        delta, xi, e0, e1 = 2.0, 0.5, 3.0, 5.0
        h = build_hamiltonian(ChainSpec(2, delta, xi), [e0, e1])
        expected = np.array(
            [
                [e0 + e1 + xi, delta, delta, 0.0],
                [delta, e0 - e1 - xi, 0.0, delta],
                [delta, 0.0, -e0 + e1 - xi, delta],
                [0.0, delta, delta, -e0 - e1 + xi],
            ],
            dtype=complex,
        )
        assert_allclose(h, expected)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_kron_oracle(self, n, rng):
        for _ in range(3):
            biases = rng.uniform(-100.0, 100.0, size=n)
            spec = ChainSpec(n, delta_mhz=12.5, xi_mhz=4.0)
            assert_allclose(
                build_hamiltonian(spec, biases),
                kron_hamiltonian(n, 12.5, 4.0, biases),
                atol=1e-12,
            )

    def test_rejects_wrong_bias_length(self, design):
        with pytest.raises(ValueError):
            build_hamiltonian(chain_for(design, 3), [0.0, 0.0])

    @pytest.mark.parametrize(
        "biases, message",
        [(["1", "2", "3"], "biases_mhz[0] must be a number, got '1'"),
         ([1.0, True, 3.0], "biases_mhz[1] must be a number, got True"),
         ([1.0, 2.0, np.bool_(False)], "biases_mhz[2] must be a number"),
         ([1.0, float("nan"), 3.0], "biases_mhz[1] must be finite, got nan")],
        ids=["str", "bool", "numpy-bool", "nan"],
    )
    def test_refuses_biases_that_are_not_finite_numbers(self, design, biases, message):
        # np.asarray(..., dtype=float) used to build H from strs and bools
        with pytest.raises(ValueError, match=re.escape(message)):
            build_hamiltonian(chain_for(design, 3), biases)
        mixed = [1, np.int64(2), np.float32(3.0)]
        assert_allclose(build_hamiltonian(chain_for(design, 3), mixed),
                        build_hamiltonian(chain_for(design, 3), [1.0, 2.0, 3.0]), rtol=0, atol=0)

    def test_refuses_oversized_dense_build(self, design):
        spec = chain_for(design, 13)
        with pytest.raises(ValueError):
            build_hamiltonian(spec, [0.0] * 13)

    @settings(max_examples=40, deadline=None)
    @given(
        biases=st.lists(finite_bias, min_size=1, max_size=4),
        delta=st.floats(min_value=0.1, max_value=200.0),
        xi=st.floats(min_value=0.1, max_value=200.0),
    )
    def test_always_hermitian_with_real_diagonal(self, biases, delta, xi):
        spec = ChainSpec(len(biases), delta, xi)
        h = build_hamiltonian(spec, biases)
        assert is_hermitian(h)
        assert_allclose(h.diagonal().imag, 0.0, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        biases=st.lists(finite_bias, min_size=1, max_size=8),
        delta=st.floats(min_value=0.1, max_value=200.0),
        xi=st.floats(min_value=0.0, max_value=200.0),
    )
    def test_mirrored_biases_give_the_mirrored_hamiltonian(self, biases, delta, xi):
        # H(b[::-1]) = P H(b) P^T with P the bit reversal of the basis index:
        # the full-mode engine's mirror sharing (a cached window's V applied
        # to its mirror image's factor with rows permuted by P, and the two
        # half-size sectors of a self-mirror window) depends on it.
        spec = ChainSpec(len(biases), delta, xi)
        h = build_hamiltonian(spec, biases)
        m = _mirror_index(spec.n_qubits)
        assert_allclose(build_hamiltonian(spec, biases[::-1]), h[m][:, m],
                        rtol=0, atol=1e-12 * np.abs(h).max())

    @pytest.mark.parametrize("n", range(1, 9))
    def test_mirror_index_reverses_the_qubit_order(self, n):
        m = _mirror_index(n)
        bits = [format(i, f"0{n}b") for i in range(1 << n)]
        assert [bits[j] for j in m] == [b[::-1] for b in bits]


def target_bias(spec, target, bits, target_bias_mhz):
    """Effective bias of ``target`` with every other qubit frozen at ``bits``."""
    z = [0 if q == target else 1 - 2 * b for q, b in enumerate(bits)]
    biases = np.zeros(spec.n_qubits)
    biases[target] = target_bias_mhz
    return effective_bias(biases, spec.xi_mhz, z)[target]


class TestReduceToTarget:
    """The two-level reduction of one pulsed qubit: its effective bias is
    ``bias + xi * sum z_neighbour`` (``chain.effective_bias``)."""

    def test_interior_both_ground(self, design):
        spec = chain_for(design, 3)
        assert_allclose(target_bias(spec, 1, (0, 0, 0), 0.0), 2.0 * design.xi_mhz)

    def test_interior_mixed_neighbors_cancel(self, design):
        spec = chain_for(design, 3)
        assert_allclose(target_bias(spec, 1, (0, 0, 1), 0.0), 0.0)

    def test_end_qubit_with_compensating_bias(self, design):
        # Pulsing an end qubit at bias xi with a ground neighbor reproduces
        # the interior splitting; qubits beyond the neighbour do not count.
        spec = chain_for(design, 3)
        for far in (0, 1):
            bias = target_bias(spec, 0, (0, 0, far), design.xi_mhz)
            assert_allclose(bias, 2.0 * design.xi_mhz)

    def test_restriction_of_full_hamiltonian(self, rng):
        # For frozen neighbors the full matrix restricted to the target's
        # two basis states equals the reduced model plus a constant shift.
        spec = ChainSpec(3, delta_mhz=7.0, xi_mhz=3.0)
        for z0 in (0, 1):
            for z2 in (0, 1):
                biases = rng.uniform(-50.0, 50.0, size=3)
                h = build_hamiltonian(spec, biases)
                lo = (z0 << 2) | (0 << 1) | z2
                hi = (z0 << 2) | (1 << 1) | z2
                sub = h[np.ix_([lo, hi], [lo, hi])]
                shift = biases[0] * (1 - 2 * z0) + biases[2] * (1 - 2 * z2)
                sigma = target_bias(spec, 1, (z0, 0, z2), biases[1])
                reduced = TwoLevelParams(spec.delta_mhz, sigma).hamiltonian()
                assert_allclose(sub - shift * np.eye(2), reduced, atol=1e-12)

    def test_all_sites_of_a_batch_at_once(self, rng):
        # Leading axes are independent rows; each site sees its two neighbours.
        z = rng.choice([-1, 0, 1], size=(4, 3, 6))
        biases = rng.uniform(-50.0, 50.0, size=(4, 3, 6))
        got = effective_bias(biases, 2.5, z)
        padded = np.pad(z, [(0, 0), (0, 0), (1, 1)])
        assert_allclose(got, biases + 2.5 * (padded[..., :-2] + padded[..., 2:]), atol=1e-12)


# ---------------------------------------------------------------------------
# one number rule: every boundary checks its scalars with _number and _integer
# ---------------------------------------------------------------------------


def _schedule_file(tmp_path, edit) -> list:
    """``validate`` arguments for a swap schedule file changed by ``edit``."""
    spec = ChainSpec(3, 25.0, 20.0)
    doc = json.loads(schedule_to_json(hold_bias_swap_pulses(spec, 0, 1, 10.0)))
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return ["validate", "--schedule", str(path)]


def _config(tmp_path, key, value) -> list:
    """``run`` arguments for a copy-table config with ``key`` set to ``value``."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "copy_table", key: value}))
    return ["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]


def _classical_run(bit):
    spec = ChainSpec(4, 25.0, 20.0)
    schedule, _ = classical_channel_schedule(spec, [1, 0, 1], 10.0)
    return run_classical_channel(spec, schedule, [1, bit, 1])


#: (boundary, what its refusal names, kind of the slot, what refuses: an
#: exception class, or 1 for a command's exit code, build: value, tmp_path ->
#: the boundary's result, or a command line)
_BOUNDARIES = [
    ("ChainSpec.n_qubits", "n_qubits", "integer", ValueError,
     lambda v, _: ChainSpec(v, 25.0, 20.0)),
    ("ChainSpec.delta_mhz", "delta_mhz", "number", ValueError,
     lambda v, _: ChainSpec(3, v, 20.0)),
    ("ChainSpec.eps_high_mhz", "eps_high_mhz", "number", ValueError,
     lambda v, _: ChainSpec(3, 25.0, 20.0, v)),
    ("TwoLevelParams", "effective_bias_mhz", "number", ValueError,
     lambda v, _: TwoLevelParams(25.0, v)),
    # the row types are unchecked records: their values are refused by the schedule
    ("Window.start_ns", "window 0: start_ns", "number", ScheduleError,
     lambda v, _: PulseSchedule(1, [Window(v, 10.0, (0.0,))])),
    ("Window.biases_mhz", "window 0: biases_mhz", "number", ScheduleError,
     lambda v, _: PulseSchedule(2, [Window(0.0, 10.0, (0.0, v))])),
    ("PulseEvent.qubit", "window 0: event qubit", "integer", ScheduleError,
     lambda v, _: PulseSchedule(1, [Window(0.0, 10.0, (0.0,), (PulseEvent("cnot_pulse", v),))])),
    ("PulseEvent.data_index", "window 0: event data_index", "integer or null", ScheduleError,
     lambda v, _: PulseSchedule(1, [Window(0.0, 10.0, (0.0,), (PulseEvent("inject", 0, v),))])),
    ("LineAssignment.n_lines", "lines.n_lines", "integer", ScheduleError,
     lambda v, _: LineAssignment((0,), v)),
    ("LineAssignment.lines", "line of qubit 1", "integer or null", ScheduleError,
     lambda v, _: LineAssignment((0, v), 2)),
    ("PulseSchedule", "n_qubits", "integer", ScheduleError, lambda v, _: PulseSchedule(v)),
    ("validate.start_ns", "window 0: start_ns", "number", 1,
     lambda v, tmp: _schedule_file(tmp, lambda d: d["windows"][0].update(start_ns=v))),
    ("validate.n_qubits", "n_qubits", "integer", 1,
     lambda v, tmp: _schedule_file(tmp, lambda d: d.update(n_qubits=v))),
    ("run.t_ns", "config.t_ns:", "number", 1, lambda v, tmp: _config(tmp, "t_ns", v)),
    ("run.m", "config.m:", "integer", 1, lambda v, tmp: _config(tmp, "m", v)),
    ("solve_parameters.t_ns", "t_ns", "number", ValueError,
     lambda v, _: solve_parameters(v)),
    ("solve_parameters.m", "m", "integer", ValueError,
     lambda v, _: solve_parameters(10.0, m=v)),
    ("run_classical_channel", "bits[1]", "integer", ValueError,
     lambda v, _: _classical_run(v)),
    ("MPS", "n_qubits", "integer", ValueError, lambda v, _: MPS(v)),
]

#: The bad values of each kind of slot (an id, the value), and the rule each breaks.
_BAD_VALUES = {
    "number": [("True", True, "must be a number, got True"),
               ("str", "1", "must be a number, got '1'"),
               ("nan", math.nan, "must be finite, got nan"),
               ("1e400", 10**400, "must be finite, got an integer too large for a float")],
    "integer": [("True", True, "must be an integer, got True"),
                ("str", "1", "must be an integer, got '1'"),
                ("1.5", 1.5, "must be an integer, got 1.5")],
}
_BAD_VALUES["integer or null"] = [
    (label, value, rule.replace("an integer", "an integer or null"))
    for label, value, rule in _BAD_VALUES["integer"]
]


@pytest.mark.parametrize(
    "build, what, refuses, value, rule",
    [
        pytest.param(build, what, refuses, value, rule, id=f"{name}-{label}")
        for name, what, kind, refuses, build in _BOUNDARIES
        for label, value, rule in _BAD_VALUES[kind]
    ],
)
def test_every_boundary_refuses_in_the_one_wording(
        capsys, tmp_path, build, what, refuses, value, rule):
    if refuses == 1:
        code = main(build(value, tmp_path))
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and f"{what} {rule}\n" in err
    else:
        with pytest.raises(ValueError) as info:
            build(value, tmp_path)
        assert info.type is refuses
        assert str(info.value).endswith(f"{what} {rule}")


@pytest.mark.parametrize(
    "check, want",
    [
        (lambda: _number(np.float32(0.5), "x"), 0.5),
        (lambda: _number(np.int8(-3), "x"), -3.0),
        (lambda: _number(np.float64(2.5), "x", low=2.5), 2.5),
        (lambda: _number(10**308, "x"), 1e308),
        (lambda: _integer(np.uint64(2**63), "x"), 2**63),
        (lambda: _integer(np.int32(-1), "x", low=-1, high=-1), -1),
        (lambda: _integer(None, "x", nullable=True), None),
    ],
    ids=["float32", "int8", "float64-at-low", "int-near-float-max", "uint64", "at-both-bounds",
         "null"],
)
def test_numpy_scalars_become_plain_values_and_bounds_are_inclusive(check, want):
    got = check()
    assert got == want and type(got) is type(want)


def test_negative_zero_is_kept_and_passes_a_zero_bound():
    got = _number(-0.0, "x", low=0)
    assert got == 0.0 and math.copysign(1.0, got) == -1.0
    assert math.copysign(1.0, ChainSpec(3, 25.0, -0.0).xi_mhz) == -1.0


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: _number(np.float64(-math.inf), "x"), "x must be finite, got -inf"),
        (lambda: _number(1j, "x"), "x must be a number, got 1j"),
        (lambda: _number(None, "x"), "x must be a number, got None"),
        (lambda: _number(0.0, "x", low=1e-9), "x must be >= 1e-09, got 0.0"),
        (lambda: _number(-1, "x", low=0), "x must be >= 0, got -1"),
        (lambda: _integer(np.bool_(True), "x"), f"x must be an integer, got {np.True_!r}"),
        (lambda: _integer(None, "x"), "x must be an integer, got None"),
        (lambda: _integer(0, "x", low=1), "x must be >= 1, got 0"),
        (lambda: _integer(np.int64(3), "x", high=2), "x must be <= 2, got 3"),
        (lambda: _integer(10**400, "x", high=2), f"x must be <= 2, got {10**400}"),
    ],
    ids=["-inf", "complex", "none-number", "below-low", "int-below-low", "numpy-bool",
         "none-integer", "below-low-integer", "above-high", "huge-above-high"],
)
def test_edges_are_refused_in_the_one_wording(check, message):
    with pytest.raises(ValueError) as info:
        check()
    assert info.type is ValueError and str(info.value) == message


def test_error_names_the_class_raised():
    with pytest.raises(ScheduleError, match="x must be an integer, got True"):
        _integer(True, "x", error=ScheduleError)
    with pytest.raises(ScheduleError, match="x must be finite, got nan"):
        _number(math.nan, "x", error=ScheduleError)
