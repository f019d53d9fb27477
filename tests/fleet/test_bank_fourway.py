"""Differential chain on reconfiguration traces.

The bank axis' equivalence contract: a plan-bearing trace produces the
same trajectory in every engine —

* reference stepping loop ≡ scalar fastpath **bit-exact** (the scalar
  contract, unchanged by mid-trace reconfiguration);
* fleet stepping kernel vs scalar fastpath within ``V_TOL``/``T_TOL``;
* fleet segalg vs the reference within the documented method tolerance;
* each jittered fleet-segalg lane vs the same device run alone within
  the partition tolerance.

Every scalar engine applies the one shared transform
(:func:`repro.power.reconfig.apply_reconfiguration`); the fleet driver
(:mod:`repro.fleet.bank`) mirrors it elementwise — these tests are what
"mirrors it" means.
"""

import numpy as np
import pytest

from repro.fleet.bank import FleetBankDriver, advance_fleet_plan
from repro.fleet.kernel import FleetState, T_TOL, V_TOL
from repro.fleet.spec import FleetBankSpec, FleetSpec
from repro.loads.trace import CurrentTrace
from repro.power.reconfig import ReconfigPlan
from repro.sim.engine import PowerSystemSimulator

#: Fleet segalg vs stepping reference — the segment-algebra method
#: tolerance (same bound the env differential suite uses).
V_METHOD_TOL = 5e-3
#: A fleet-segalg lane vs the same device run alone — same algebra, but
#: the fleet compiles one program for every lane.
V_PATH_TOL = 1e-3

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


def _scalar_runs(params, i, trace, plan):
    """Device ``i`` through the reference loop and the fastpath."""
    results = {}
    for name, fast in (("reference", False), ("fastpath", True)):
        sim = PowerSystemSimulator(params.device_system(i), fast=fast)
        results[name] = sim.run_trace(trace, reconfig_plan=plan)
    return results


class TestFourWayDifferential:

    @pytest.mark.parametrize("seed", [5, 11])
    def test_mixed_plan_trace(self, seed):
        spec = _spec(seed)
        params = spec.parameters()
        # All three configurations must actually appear in the batch or
        # the differential exercises less than it claims.
        assert set(int(c) for c in params.config_idx) == {0, 1, 2}
        trace = CurrentTrace(SEGMENTS)

        step_state, step_brown = advance_fleet_plan(
            FleetState(params), trace, PLAN, True, spec.v_off,
            engine="stepping")
        alg_state, alg_brown = advance_fleet_plan(
            FleetState(params), trace, PLAN, True, spec.v_off,
            engine="segalg")

        for i in range(params.n):
            runs = _scalar_runs(params, i, trace, PLAN)
            ref, fast = runs["reference"], runs["fastpath"]
            # Leg 1: reference ≡ fastpath, bit-exact.
            assert fast.v_final == ref.v_final
            assert fast.v_min == ref.v_min
            assert fast.browned_out == ref.browned_out
            # Leg 2: fleet segalg within the method tolerance.
            assert float(alg_state.v_term[i]) == pytest.approx(
                ref.v_final, abs=V_METHOD_TOL)
            assert float(alg_state.v_min[i]) == pytest.approx(
                ref.v_min, abs=V_METHOD_TOL)
            assert (np.isnan(float(alg_brown[i]))
                    == (not ref.browned_out))
            # Leg 3: fleet stepping vs scalar fastpath.
            assert float(step_state.v_term[i]) == pytest.approx(
                fast.v_final, abs=V_TOL)
            assert float(step_state.v_min[i]) == pytest.approx(
                fast.v_min, abs=V_TOL)
            if fast.browned_out:
                assert float(step_brown[i]) == pytest.approx(
                    fast.brown_out_time, abs=T_TOL)
            else:
                assert np.isnan(float(step_brown[i]))
            # Leg 4: fleet segalg lane vs the same device run alone.
            alone, alone_brown = advance_fleet_plan(
                FleetState(params.slice(i, i + 1)), trace, PLAN, True,
                spec.v_off, engine="segalg")
            assert float(alg_state.v_term[i]) == pytest.approx(
                float(alone.v_term[0]), abs=V_PATH_TOL)
            assert (np.isnan(float(alg_brown[i]))
                    == np.isnan(float(alone_brown[0])))

    def test_fleet_stepping_is_bitwise_on_this_corpus(self):
        """Stronger than V_TOL: on the equivalence corpus the stepping
        kernel reproduces the scalar fastpath's floats exactly, switches
        included — any regression to mere closeness is worth noticing."""
        spec = _spec(5)
        params = spec.parameters()
        trace = CurrentTrace(SEGMENTS)
        state, _ = advance_fleet_plan(FleetState(params), trace, PLAN,
                                      True, spec.v_off, engine="stepping")
        for i in range(params.n):
            fast = PowerSystemSimulator(params.device_system(i), fast=True)
            result = fast.run_trace(trace, reconfig_plan=PLAN)
            assert float(state.v_term[i]) == result.v_final
            assert float(state.v_min[i]) == result.v_min


class TestEventSemantics:

    def _sagging_setup(self):
        """Every device on the large bank at V_high with the small bank
        parked at 0.2 V — merging the two sags the rail below V_off."""
        bank = FleetBankSpec(
            banks=(("large", 22.5e-3, 2.5, 12e-9),
                   ("small", 22.5e-3, 2.5, 12e-9)),
            configs=(("large",),),
        )
        spec = _spec(3, devices=4, bank=bank)
        params = spec.parameters()
        small_col = spec.bank.bank_names.index("small")
        return spec, params, small_col

    def _park_small_low(self, system):
        # Public-API route to a drained parked bank: activate it, rest
        # it low, switch away (parks it at its rest voltage).
        buf = system.buffer
        buf.configure(("small",))
        buf.reset(0.2)
        buf.configure(("large",))

    def test_redistribution_sag_browns_at_event_time(self):
        spec, params, small_col = self._sagging_setup()
        trace = CurrentTrace([(0.0, 0.5)])
        plan = ReconfigPlan.build((0.1, ("large", "small")),
                                  (0.3, ("large",)))

        state = FleetState(params)
        large_only_c = state.params.c_main + state.params.c_redist
        driver = FleetBankDriver(state)
        driver.idle_v[:, small_col] = 0.2
        brown = driver.advance_plan(trace, plan, True, spec.v_off)

        for i in range(params.n):
            system = params.device_system(i)
            self._park_small_low(system)
            sim = PowerSystemSimulator(system, fast=True)
            result = sim.run_trace(trace, reconfig_plan=plan)
            assert result.browned_out
            # The brown-out lands at the event time, not at a step after.
            assert result.brown_out_time == pytest.approx(0.1, abs=T_TOL)
            assert float(brown[i]) == pytest.approx(result.brown_out_time,
                                                    abs=T_TOL)
        # The device switched (and then died): its group is the merged
        # pair, and the *second* event never un-merged it.
        assert not driver.state.alive.any()
        merged_c = driver.state.params.c_main + driver.state.params.c_redist
        assert (merged_c > large_only_c).all()
        assert driver.active.all(), "dead devices must keep the merged set"

    def test_dead_device_never_switches(self):
        """A brown-out inside a sub-span freezes the device: later events
        change neither its parameters nor its parked voltages."""
        spec = _spec(7, devices=4, harvest_power=1e-4)
        params = spec.parameters()
        # A sustained draw no configuration survives.
        trace = CurrentTrace([(0.040, 3.0)])
        plan = ReconfigPlan.build((2.9, ("large", "small")))

        state = FleetState(params)
        before = state.params
        driver = FleetBankDriver(state)
        brown = driver.advance_plan(trace, plan, True, spec.v_off)

        assert np.isfinite(brown).all()
        assert (brown < 2.9).all(), "all devices die before the event"
        after = driver.state.params
        assert np.array_equal(after.c_main, before.c_main)
        assert np.array_equal(after.r_esr, before.r_esr)

    def test_driver_requires_bank_axis(self):
        spec = FleetSpec(devices=2, seed=1)
        with pytest.raises(ValueError, match="bank axis"):
            FleetBankDriver(FleetState(spec.parameters()))

    def test_unknown_bank_rejected(self):
        spec = _spec(1, devices=2)
        driver = FleetBankDriver(FleetState(spec.parameters()))
        from repro.power.reconfig import ReconfigureEvent
        with pytest.raises(ValueError, match="unknown banks"):
            driver.reconfigure(ReconfigureEvent(time=0.0, config=("huge",)))
