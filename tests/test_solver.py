import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import rabi_u2
from swapchannel import (
    InfeasibleDesignError,
    snapped_hold_bias,
    solve_for_timestep,
    solve_parameters,
    validate_gate_conditions,
)
from swapchannel.chain import TwoLevelParams
from swapchannel.solver import copy_frequencies, oscillation_descriptor


class TestSolveParameters:
    def test_reference_point(self, design):
        assert_allclose(design.delta_mhz, 25.0, atol=1e-12)
        assert_allclose(design.xi_mhz, 125.0 * np.sqrt(3.0) / 10.0, rtol=1e-12)
        assert_allclose(design.f1_mhz, 100.0, atol=1e-12)
        assert_allclose(design.f2_mhz, 50.0, atol=1e-12)

    def test_values_scale_inversely_with_window(self, design):
        slow = solve_parameters(100.0, m=1, n=0)
        assert_allclose(slow.delta_mhz, design.delta_mhz / 10.0, rtol=1e-12)
        assert_allclose(slow.xi_mhz, design.xi_mhz / 10.0, rtol=1e-12)

    def test_infeasible_when_2m_not_above_2n_plus_1(self):
        with pytest.raises(InfeasibleDesignError):
            solve_parameters(10.0, m=1, n=1)
        with pytest.raises(InfeasibleDesignError):
            solve_parameters(10.0, m=2, n=2)

    def test_next_feasible_pair(self):
        d = solve_parameters(10.0, m=2, n=1)
        assert_allclose(d.f1_mhz * 10.0 * 1e-3, 2.0, atol=1e-12)
        assert_allclose(d.f2_mhz * 10.0 * 1e-3, 1.5, atol=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            solve_parameters(0.0)
        with pytest.raises(ValueError):
            solve_parameters(10.0, m=0)
        with pytest.raises(ValueError):
            solve_parameters(10.0, n=-1)

    @pytest.mark.parametrize(
        "args, fragment",
        [
            ((10.0, 1.5, 0), "m must be an integer, got 1.5"),
            ((10.0, True, 0), "m must be an integer, got True"),
            ((10.0, 1, 0.0), "n must be an integer, got 0.0"),
            (("10", 1, 0), "t_ns must be a number, got '10'"),
            ((True, 1, 0), "t_ns must be a number, got True"),
        ],
        ids=["float-m", "bool-m", "float-n", "str-t-ns", "bool-t-ns"],
    )
    def test_refuses_non_integer_counts_and_non_number_windows(self, args, fragment):
        # m = 1.5 and m = True used to give a design holding them, "10" a TypeError
        t_ns, m, n = args
        with pytest.raises(ValueError, match=fragment):
            solve_parameters(t_ns, m=m, n=n)
        with pytest.raises(ValueError):
            solve_for_timestep(25.0 if t_ns == 10.0 else t_ns, m=m, n=n)

    def test_integer_counts_out_of_range_stay_infeasible(self):
        # exit 2 of ``swapchannel solve``, not a type refusal
        for m, n in ((0, 0), (1, -1), (np.int64(1), np.int64(1))):
            with pytest.raises(InfeasibleDesignError):
                solve_parameters(10.0, m=m, n=n)
        assert type(solve_parameters(np.float32(10.0), m=np.int64(1)).m) is int

    @pytest.mark.parametrize("t_ns, m", [(10.0, 10**400), (1e-300, 10**150)])
    def test_rejects_cycle_counts_that_overflow(self, t_ns, m):
        with pytest.raises(ValueError, match="non-finite delta or xi"):
            solve_parameters(t_ns, m=m, n=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            solve_parameters(value)
        with pytest.raises(ValueError, match="finite"):
            solve_for_timestep(value)

    @pytest.mark.parametrize("delta", [0.0, -25.0])
    def test_solve_for_timestep_refuses_a_non_positive_delta(self, delta):
        with pytest.raises(ValueError, match=f"delta_mhz must be finite and > 0, got {delta}"):
            solve_for_timestep(delta)

    def test_solve_for_timestep_round_trip(self, design):
        d = solve_for_timestep(design.delta_mhz, m=1, n=0)
        assert_allclose(d.t_ns, design.t_ns, rtol=1e-12)
        assert_allclose(d.xi_mhz, design.xi_mhz, rtol=1e-12)

    @pytest.mark.parametrize("t_ns", [5.0, 10.0, 37.5, 200.0])
    @pytest.mark.parametrize("m,n", [(1, 0), (2, 0), (2, 1), (3, 2), (5, 4)])
    def test_cycle_counts_are_exact(self, t_ns, m, n):
        d = solve_parameters(t_ns, m=m, n=n)
        cycles1 = d.f1_mhz * t_ns * 1e-3
        cycles2 = d.f2_mhz * t_ns * 1e-3
        assert_allclose(cycles1, m, atol=1e-9)
        assert_allclose(2.0 * cycles2, 2 * n + 1, atol=1e-9)


class TestValidateGateConditions:
    def test_reference_design_is_phase_exact(self, design):
        report = validate_gate_conditions(design)
        assert report.ok
        assert report.m_odd and report.n_even
        assert_allclose(report.f1_cycles, 1.0, atol=1e-9)
        assert_allclose(report.f2_cycles, 0.5, atol=1e-9)

    def test_even_m_fails_phase_exact_but_passes_otherwise(self):
        d = solve_parameters(10.0, m=2, n=0)
        assert not validate_gate_conditions(d).ok
        assert validate_gate_conditions(d, phase_exact=False).ok

    def test_detuned_design_fails(self, design):
        import dataclasses

        off = dataclasses.replace(design, delta_mhz=design.delta_mhz * 1.01)
        assert not validate_gate_conditions(off, phase_exact=False).ok


class TestCopyFrequencies:
    def test_reference_values(self, design):
        f1, f2, f3 = copy_frequencies(design.delta_mhz, design.xi_mhz)
        assert_allclose(f1, 100.0, atol=1e-12)
        assert_allclose(f2, 50.0, atol=1e-12)
        assert_allclose(f3, 2.0 * np.hypot(25.0, design.xi_mhz), rtol=1e-12)



class TestOscillationDescriptor:
    def test_offset_equals_amplitude(self):
        d = oscillation_descriptor(TwoLevelParams(25.0, 43.3))
        assert_allclose(d.offset, d.amplitude, rtol=1e-15)
        assert_allclose(d.probability(0.0), 0.0, atol=1e-15)

    def test_resonant_case_reaches_one(self):
        d = oscillation_descriptor(TwoLevelParams(25.0, 0.0))
        assert_allclose(d.offset, 0.5)
        assert_allclose(d.frequency_mhz, 50.0)
        assert_allclose(d.probability(10.0), 1.0, atol=1e-12)
        assert_allclose(d.probability(20.0), 0.0, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        delta=st.floats(min_value=0.1, max_value=300.0),
        sigma=st.floats(min_value=-300.0, max_value=300.0),
    )
    def test_contrast_identity(self, delta, sigma):
        d = oscillation_descriptor(TwoLevelParams(delta, sigma))
        assert_allclose(d.offset, d.amplitude, rtol=1e-12)
        assert_allclose(
            2.0 * d.offset, delta**2 / (delta**2 + sigma**2), rtol=1e-12
        )
        assert_allclose(d.frequency_mhz, 2.0 * np.hypot(delta, sigma), rtol=1e-12)

    def test_matches_rotation_oracle(self, rng):
        # The flip probability predicted by the descriptor must agree with
        # the closed-form two-level propagator at arbitrary times.
        for _ in range(20):
            delta = rng.uniform(1.0, 200.0)
            sigma = rng.uniform(-200.0, 200.0)
            t = rng.uniform(0.0, 40.0)
            d = oscillation_descriptor(TwoLevelParams(delta, sigma))
            u = rabi_u2(delta, sigma, t)
            assert_allclose(d.probability(t), abs(u[1, 0]) ** 2, atol=1e-9)


class TestSnappedHoldBias:
    def test_reference_snap(self, design):
        assert_allclose(snapped_hold_bias(design.delta_mhz, design.t_ns), 25000.0)

    def test_result_is_at_least_factor_times_delta(self):
        for delta, t in [(25.0, 10.0), (21.7, 10.0), (25.0, 7.0), (3.3, 13.0)]:
            eps = snapped_hold_bias(delta, t)
            assert eps >= 1000.0 * delta - 1e-6

    @pytest.mark.parametrize("delta, t_ns, message", [
        (-5.0, 10.0, "delta_mhz must be > 0, got -5.0"),
        (25.0, 0.0, "t_ns must be > 0, got 0.0"),
        (True, 10.0, "delta_mhz must be a number, got True"),
        (25.0, "10", "t_ns must be a number, got '10'"),
        (float("nan"), 10.0, "delta_mhz must be finite, got nan"),
        (25.0, float("inf"), "t_ns must be finite, got inf"),
        (1e308, 1e10, "delta_mhz=1e+308 and t_ns=10000000000.0 give a hold bias past the float"),
        (25.0, 5e-324, "delta_mhz=25.0 and t_ns=5e-324 give a hold bias past the float"),
    ])
    def test_refuses_arguments_that_give_no_finite_bias(self, delta, t_ns, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            snapped_hold_bias(delta, t_ns)

    def test_whole_cycles_per_window(self):
        # The snapped bias completes an integer number of phase cycles in one
        # window, so hold phases drop out modulo 2pi.
        for delta, t in [(25.0, 10.0), (21.7, 10.0), (25.0, 7.0), (3.3, 13.0)]:
            eps = snapped_hold_bias(delta, t)
            cycles = eps * t * 1e-3
            assert_allclose(cycles, round(cycles), atol=1e-9)
