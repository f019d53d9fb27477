"""Differential chain on reconfiguration traces, on the scalar engines.

The bank axis' equivalence contract: a plan-bearing trace produces the
same trajectory in the reference stepping loop and the scalar fastpath,
**bit for bit** — the scalar contract, unchanged by mid-trace
reconfiguration. Both engines split the trace with the one shared
splitter and switch banks with the one shared transform
(:func:`repro.power.reconfig.apply_reconfiguration`); these tests pin
that, and the event semantics every engine promises (DESIGN §16).
"""

import pytest

from repro.errors import PowerSystemError
from repro.fleet.spec import FleetBankSpec, FleetSpec
from repro.loads.trace import CurrentTrace
from repro.power.reconfig import ReconfigPlan
from repro.power.system import capybara_power_system
from repro.sim.engine import PowerSystemSimulator

BANK = FleetBankSpec(
    banks=(("large", 33.75e-3, 2.5, 12e-9), ("small", 11.25e-3, 7.5, 4e-9)),
    configs=(("small",), ("large",), ("large", "small")),
)

#: Mixed workload with three mid-trace switches: shrink to the large
#: bank inside a load transient, re-merge during recovery, drop to the
#: small bank near the end.
SEGMENTS = [
    (0.012, 0.05), (0.0, 0.2), (0.025, 0.02), (0.0, 0.5),
    (0.008, 0.10), (0.0, 0.05), (0.018, 0.03), (0.0, 0.3),
]
PLAN = ReconfigPlan.build(
    (0.15, ("large",)), (0.47, ("large", "small")), (0.9, ("small",)))


def _spec(seed: int, **overrides) -> FleetSpec:
    base = dict(devices=8, seed=seed, bank=BANK, harvest_power=4e-3,
                esr_jitter=0.2, capacitance_jitter=0.1, harvest_jitter=0.3)
    base.update(overrides)
    return FleetSpec(**base)


def _scalar_runs(make_system, trace, plan):
    """One plant through the reference loop and the fastpath:
    ``{engine: (system, result)}``."""
    runs = {}
    for name, fast in (("reference", False), ("fastpath", True)):
        system = make_system()
        sim = PowerSystemSimulator(system, fast=fast)
        runs[name] = (system, sim.run_trace(trace, reconfig_plan=plan))
    return runs


def _assert_bit_exact(runs):
    (ref_sys, ref), (fast_sys, fast) = runs["reference"], runs["fastpath"]
    assert fast.v_final == ref.v_final
    assert fast.v_min == ref.v_min
    assert fast.end_time == ref.end_time
    assert fast.energy_from_buffer == ref.energy_from_buffer
    assert fast.browned_out == ref.browned_out
    assert fast.brown_out_time == ref.brown_out_time
    assert fast_sys.buffer.config_id == ref_sys.buffer.config_id


class TestFourWayDifferential:
    """Reference ≡ fastpath on a jittered bank fleet's devices; the fleet
    engines have no plan path, so the scalar pair is the whole chain."""

    @pytest.mark.parametrize("seed", [5, 11])
    def test_mixed_plan_trace(self, seed):
        spec = _spec(seed)
        params = spec.parameters()
        # All three configurations must actually appear in the batch or
        # the differential exercises less than it claims.
        assert set(int(c) for c in params.config_idx) == {0, 1, 2}
        trace = CurrentTrace(SEGMENTS)
        for i in range(params.n):
            runs = _scalar_runs(lambda: params.device_system(i), trace,
                                PLAN)
            _assert_bit_exact(runs)
            # Every alive device ends on the plan's last configuration.
            system, result = runs["fastpath"]
            if not result.browned_out:
                assert system.buffer.config_id == frozenset({"small"})


class TestEventSemantics:

    def _sagging_params(self):
        """Every device on the large bank at V_high; the small bank is
        parked at 0.2 V by :meth:`_park_small_low` — merging the two
        sags the rail below V_off."""
        bank = FleetBankSpec(
            banks=(("large", 22.5e-3, 2.5, 12e-9),
                   ("small", 22.5e-3, 2.5, 12e-9)),
            configs=(("large",),),
        )
        return _spec(3, devices=4, bank=bank).parameters()

    def _park_small_low(self, system):
        # Public-API route to a drained parked bank: activate it, rest
        # it low, switch away (parks it at its rest voltage).
        buf = system.buffer
        buf.configure(("small",))
        buf.reset(0.2)
        buf.configure(("large",))
        return system

    def test_redistribution_sag_browns_at_event_time(self):
        params = self._sagging_params()
        trace = CurrentTrace([(0.0, 0.5)])
        plan = ReconfigPlan.build((0.1, ("large", "small")),
                                  (0.3, ("large",)))

        for i in range(params.n):
            runs = _scalar_runs(
                lambda: self._park_small_low(params.device_system(i)),
                trace, plan)
            _assert_bit_exact(runs)
            system, result = runs["fastpath"]
            assert result.browned_out
            # The brown-out lands at the event time, not at a step after.
            assert result.brown_out_time == pytest.approx(0.1, abs=1e-9)
            # The device switched (and then died): its group is the
            # merged pair, and the *second* event never un-merged it.
            assert system.buffer.config_id == frozenset({"large", "small"})
            assert result.v_min < system.monitor.v_off

    def test_dead_device_never_switches(self):
        """A brown-out inside a sub-span cancels the later events: the
        dead device keeps its configuration."""
        spec = _spec(7, devices=4, harvest_power=1e-4)
        params = spec.parameters()
        # A sustained draw no configuration survives.
        trace = CurrentTrace([(0.040, 3.0)])
        plan = ReconfigPlan.build((2.9, ("large", "small")))

        for i in range(params.n):
            before = params.device_system(i).buffer.config_id
            runs = _scalar_runs(lambda: params.device_system(i), trace,
                                plan)
            _assert_bit_exact(runs)
            system, result = runs["fastpath"]
            assert result.browned_out
            assert result.brown_out_time < 2.9, \
                "every device dies before the event"
            assert system.buffer.config_id == before

    def test_unknown_bank_rejected(self):
        spec = _spec(1, devices=2)
        sim = PowerSystemSimulator(spec.parameters().device_system(0))
        plan = ReconfigPlan.build((0.1, ("huge",)))
        with pytest.raises(PowerSystemError, match="unknown banks"):
            sim.run_trace(CurrentTrace([(0.0, 0.2)]), reconfig_plan=plan)

    def test_plan_needs_a_reconfigurable_buffer(self):
        system = capybara_power_system()
        system.rest_at(2.4)
        sim = PowerSystemSimulator(system)
        plan = ReconfigPlan.build((0.1, ("large",)))
        with pytest.raises(ValueError, match="no configure"):
            sim.run_trace(CurrentTrace([(0.0, 0.2)]), reconfig_plan=plan)
