"""Brute-force V_safe search."""

import math

import pytest

from repro.harness.ground_truth import attempt_load, find_true_vsafe
from repro.loads.synthetic import uniform_load
from repro.loads.trace import CurrentTrace


class TestAttemptLoad:
    def test_does_not_mutate_caller_system(self, system):
        v0 = system.buffer.terminal_voltage
        attempt_load(system, CurrentTrace.constant(0.050, 0.050), 2.0)
        assert system.buffer.terminal_voltage == pytest.approx(v0)

    def test_completion_depends_on_start_voltage(self, system):
        trace = uniform_load(0.050, 0.010).trace
        assert attempt_load(system, trace, 2.4).completed
        assert not attempt_load(system, trace, 1.7).completed


class TestFindTrueVsafe:
    def test_certified_run_completes(self, system):
        trace = uniform_load(0.025, 0.010).trace
        truth = find_true_vsafe(system, trace)
        assert truth.feasible
        assert attempt_load(system, trace, truth.v_safe).completed

    def test_just_below_fails_or_margins(self, system):
        trace = uniform_load(0.050, 0.010).trace
        truth = find_true_vsafe(system, trace, tolerance=0.002)
        below = attempt_load(system, trace, truth.v_safe - 0.01)
        assert not below.completed

    def test_vmin_near_threshold(self, system):
        trace = uniform_load(0.050, 0.010).trace
        truth = find_true_vsafe(system, trace, tolerance=0.002)
        # Certified run should skim the threshold, not clear it by much.
        assert 0.0 <= truth.margin_above_off(1.6) < 0.05

    def test_infeasible_load_reported(self, system):
        monster = CurrentTrace.constant(0.050, 3.0)
        truth = find_true_vsafe(system, monster)
        assert not truth.feasible
        assert math.isnan(truth.v_safe)

    def test_iterations_bounded(self, system):
        trace = uniform_load(0.010, 0.010).trace
        truth = find_true_vsafe(system, trace, max_iterations=8)
        assert truth.iterations <= 8

    def test_tolerance_validation(self, system):
        with pytest.raises(ValueError):
            find_true_vsafe(system, uniform_load(0.01, 0.01).trace,
                            tolerance=0.0)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, system, tolerance):
        # the bisection would never run, leaving V_high as the "truth"
        with pytest.raises(ValueError, match="tolerance"):
            find_true_vsafe(system, uniform_load(0.01, 0.01).trace,
                            tolerance=tolerance)

    def test_converged_flag_distinguishes_outcomes(self, system):
        """converged separates "bracket closed" from "iterations ran out"
        from "infeasible" — three states callers previously couldn't
        tell apart."""
        trace = uniform_load(0.025, 0.010).trace
        closed = find_true_vsafe(system, trace, tolerance=0.002)
        assert closed.feasible and closed.converged

        capped = find_true_vsafe(system, trace, tolerance=1e-6,
                                 max_iterations=2)
        assert capped.feasible and not capped.converged
        # Even uncapped, the certified voltage still completes.
        assert attempt_load(system, trace, capped.v_safe).completed

        infeasible = find_true_vsafe(system, CurrentTrace.constant(0.05, 3.0))
        assert not infeasible.feasible and not infeasible.converged

    def test_tighter_tolerance_narrows_certification(self, system):
        trace = uniform_load(0.050, 0.010).trace
        coarse = find_true_vsafe(system, trace, tolerance=0.02)
        fine = find_true_vsafe(system, trace, tolerance=0.001)
        assert fine.v_safe <= coarse.v_safe + 1e-12
        assert fine.iterations > coarse.iterations

    def test_monotone_in_load(self, system):
        small = find_true_vsafe(system, uniform_load(0.010, 0.010).trace)
        big = find_true_vsafe(system, uniform_load(0.050, 0.010).trace)
        assert big.v_safe > small.v_safe
