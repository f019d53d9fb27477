"""Metamorphic invariants hold on the reference system — and the checks
actually detect violations when handed a broken relation."""

import numpy as np
import pytest

from repro.loads.synthetic import pulse_with_compute_tail, uniform_load
from repro.verify.metamorphic import (
    check_all,
    check_cache_consistency,
    check_capacitance_antitone,
    check_current_monotone,
    check_esr_monotone,
    check_fastpath_equivalence,
    check_multi_vs_single,
)


@pytest.fixture()
def trace():
    return pulse_with_compute_tail(0.025, 0.010).trace


class TestInvariantsHoldOnReference:
    def test_esr_monotone(self, model, trace):
        assert check_esr_monotone(model, trace).passed

    def test_current_monotone(self, model, trace):
        assert check_current_monotone(model, trace).passed

    def test_capacitance_antitone(self, model, trace):
        assert check_capacitance_antitone(model, trace).passed

    def test_capacitance_antitone_tolerates_ir_floor_growth(self):
        # Regression from the bank-axis campaign (seed 0, trial 22): a
        # larger buffer keeps v_required lower through the backward walk,
        # Algorithm 1's EstVCap evaluates the pessimistic input current
        # at that lower voltage, and the v_off + v_delta floor rises a
        # few tens of microvolts — pure conservatism, not a violation.
        # The check must forgive a rise bounded by the reported floor
        # growth (and the raw v_safe comparison must indeed rise here,
        # or this regression stops testing anything).
        from dataclasses import replace

        from repro.core.profile_guided import CulpeoPG
        from repro.verify.generators import (
            bank_rng,
            random_bank_scenario,
            random_system_spec,
            random_trace,
            trial_rng,
        )

        rng = trial_rng(0, 22)
        spec, _ = random_bank_scenario(
            bank_rng(0, 22), random_system_spec(rng))
        bank_trace = random_trace(rng, spec, active=spec.active)
        model = spec.build().characterize()
        factor = 1.55684
        base = CulpeoPG(model, use_cache=False).analyze(bank_trace)
        bigger = CulpeoPG(
            replace(model, capacitance=model.capacitance * factor),
            use_cache=False).analyze(bank_trace)
        assert bigger.v_safe > base.v_safe          # the raw rise is real
        assert bigger.v_delta > base.v_delta        # and the floor grew more
        assert check_capacitance_antitone(model, bank_trace, factor).passed

    def test_multi_vs_single(self, model, trace):
        assert check_multi_vs_single(model, trace).passed

    def test_multi_vs_single_degenerate_single_segment(self, model):
        result = check_multi_vs_single(model,
                                       uniform_load(0.010, 0.010).trace)
        assert result.passed
        assert "single-segment" in result.detail

    def test_fastpath_equivalence(self, system, trace):
        assert check_fastpath_equivalence(system, trace).passed

    def test_fastpath_equivalence_checks_the_sampler(self, system, trace,
                                                     monkeypatch):
        """A kernel that skips observers (no samples, no ADC burden)
        fails the invariant."""
        import repro.sim.engine as engine_mod
        kernel = engine_mod.advance_segments

        def deaf(sim, *args):
            attached, sim.observers = sim.observers, []
            try:
                return kernel(sim, *args)
            finally:
                sim.observers = attached

        monkeypatch.setattr(engine_mod, "advance_segments", deaf)
        result = check_fastpath_equivalence(system, trace)
        assert not result.passed
        assert "adc" in result.detail

    def test_cache_consistency(self, model, trace):
        assert check_cache_consistency(model, trace).passed

    def test_check_all_runs_full_suite(self, system, model, trace):
        results = check_all(system, model, trace,
                            np.random.default_rng(0))
        assert len(results) == 6
        assert all(r.passed for r in results)
        assert len({r.invariant for r in results}) == 6

    def test_check_all_deterministic_under_seed(self, system, model, trace):
        a = check_all(system, model, trace, np.random.default_rng(5))
        b = check_all(system, model, trace, np.random.default_rng(5))
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_results_serialize(self, model, trace):
        data = check_esr_monotone(model, trace).to_dict()
        assert data == {"invariant": "esr-monotone", "passed": True,
                        "detail": ""}
