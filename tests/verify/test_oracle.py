"""Differential oracle verdicts, driven by stub estimators.

A stub that answers a fixed voltage lets each verdict class be reached
on purpose: at ground truth (SOUND), far below it (UNSOUND), pinned at
V_high on a light load (OVERLY_CONSERVATIVE), and on a monster load
(INFEASIBLE).
"""

import math
from types import SimpleNamespace

import pytest

from repro.harness.ground_truth import find_true_vsafe
from repro.loads.synthetic import uniform_load
from repro.loads.trace import CurrentTrace
from repro.verify.oracle import Verdict, differential_check


class _FixedEstimator:
    """Answers the same V_safe for every load."""

    def __init__(self, v_safe, name="stub"):
        self._v = v_safe
        self.name = name

    def estimate(self, system, trace):
        return SimpleNamespace(v_safe=self._v)


@pytest.fixture()
def trace():
    return uniform_load(0.050, 0.010).trace


class TestVerdicts:
    def test_truth_itself_is_sound(self, system, trace):
        truth = find_true_vsafe(system, trace, tolerance=0.002)
        result = differential_check(system, trace,
                                    _FixedEstimator(truth.v_safe))
        assert result.verdict is Verdict.SOUND
        assert not result.browned_out
        assert result.margin == pytest.approx(0.0, abs=1e-9)

    def test_far_below_truth_is_unsound(self, system, trace):
        result = differential_check(system, trace, _FixedEstimator(1.7))
        assert result.verdict is Verdict.UNSOUND
        assert result.browned_out
        assert result.margin < -0.002

    def test_within_tolerance_bracket_never_convicts(self, system, trace):
        """A brown-out from inside the search bracket is the oracle's own
        resolution limit, not evidence against the estimator."""
        truth = find_true_vsafe(system, trace, tolerance=0.002)
        result = differential_check(
            system, trace, _FixedEstimator(truth.v_safe - 0.0015),
            truth, tolerance=0.002,
        )
        assert result.verdict is not Verdict.UNSOUND

    def test_vhigh_on_light_load_is_overly_conservative(self, system):
        light = uniform_load(0.003, 0.005).trace
        result = differential_check(
            system, light, _FixedEstimator(system.monitor.v_high))
        assert result.verdict is Verdict.OVERLY_CONSERVATIVE
        assert result.margin_fraction > 0.25

    def test_infeasible_load(self, system):
        monster = CurrentTrace.constant(0.050, 3.0)
        result = differential_check(system, monster, _FixedEstimator(2.5))
        assert result.verdict is Verdict.INFEASIBLE
        assert math.isnan(result.margin)

    def test_shared_truth_matches_recomputed(self, system, trace):
        truth = find_true_vsafe(system, trace, tolerance=0.002)
        stub = _FixedEstimator(2.5)
        shared = differential_check(system, trace, stub, truth,
                                    tolerance=0.002)
        recomputed = differential_check(system, trace, stub,
                                        tolerance=0.002)
        assert shared == recomputed

    def test_conservative_margin_validation(self, system, trace):
        with pytest.raises(ValueError):
            differential_check(system, trace, _FixedEstimator(2.0),
                               conservative_margin=0.0)

    @pytest.mark.parametrize("key", ["tolerance", "conservative_margin"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_settings_rejected(self, system, trace, key, value):
        # even with the truth passed in: with a NaN or infinite tolerance
        # no margin is below -tolerance, so nothing could be convicted
        truth = find_true_vsafe(system, trace, tolerance=0.002)
        with pytest.raises(ValueError, match=key):
            differential_check(system, trace, _FixedEstimator(1.7), truth,
                               **{key: value})

    def test_result_serializes(self, system, trace):
        result = differential_check(system, trace, _FixedEstimator(2.5))
        data = result.to_dict()
        assert data["estimator"] == "stub"
        assert data["verdict"] in {v.value for v in Verdict}
