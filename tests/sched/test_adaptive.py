"""Adaptive re-profiling scheduler under changing harvest."""

from repro.loads.trace import CurrentTrace
from repro.power.harvester import CallableHarvester, ConstantPowerHarvester
from repro.power.system import capybara_power_system
from repro.sched.adaptive import AdaptiveCulpeoScheduler
from repro.sched.scheduler import EventOutcome
from repro.sched.task import Task, TaskChain
from repro.sim.engine import PowerSystemSimulator


def sweep_chain(deadline=30.0):
    """An energy-dominated sensor sweep: 4 mA for 2.5 s."""
    task = Task("sweep", CurrentTrace.constant(0.004, 2.5))
    return TaskChain("SWEEP", [task], deadline=deadline)


def step_harvester(strong=10e-3, weak=0.5e-3, t_drop=45.0):
    """Strong harvest that collapses at ``t_drop`` (clouds roll in)."""
    return CallableHarvester(
        lambda t: strong if t < t_drop else weak)


def make_engine(harvester):
    system = capybara_power_system(harvester=harvester)
    system.rest_at(system.monitor.v_high)
    return PowerSystemSimulator(system)


class TestAdaptiveScheduler:
    def test_initial_profile_pass_compiles_policy(self):
        engine = make_engine(ConstantPowerHarvester(5e-3))
        chain = sweep_chain()
        sched = AdaptiveCulpeoScheduler(engine, [chain])
        assert sched.reprofile_count == 1
        assert sched.policy.gate("SWEEP", 0) > 1.6

    def test_steady_power_never_reprofiles(self):
        engine = make_engine(ConstantPowerHarvester(5e-3))
        chain = sweep_chain()
        sched = AdaptiveCulpeoScheduler(engine, [chain])
        arrivals = [(t, chain) for t in (10.0, 40.0, 70.0)]
        result = sched.run(arrivals, duration=100.0)
        assert sched.reprofile_count == 1
        assert result.capture_fraction() == 1.0

    def test_power_drop_triggers_reprofile_and_raises_gate(self):
        engine = make_engine(step_harvester())
        chain = sweep_chain(deadline=20.0)
        sched = AdaptiveCulpeoScheduler(engine, [chain])
        stale_gate = sched.policy.gate("SWEEP", 0)
        # After the drop, demand (30 mJ / 20 s) outruns income: the buffer
        # ratchets down toward the gate with every event.
        arrivals = [(t, chain) for t in
                    [10.0] + [60.0 + 20.0 * i for i in range(9)]]
        result = sched.run(arrivals, duration=250.0)
        assert sched.reprofile_count >= 2
        fresh_gate = sched.policy.gate("SWEEP", 0)
        # Profiling under strong harvest understated the energy demand;
        # the post-drop profile must demand a higher start voltage.
        assert fresh_gate > stale_gate + 0.02
        # And with the corrected gate the scheduler never browns out —
        # deadline losses are acceptable under an energy deficit,
        # brown-outs (and their forced full recharges) are not.
        assert result.brownout_count == 0

    def test_stale_gates_brown_out_without_adaptation(self):
        """The failure the adaptive policy prevents, shown on the plain
        scheduler: profile at 10 mW, run at 1.5 mW."""
        engine = make_engine(step_harvester())
        chain = sweep_chain(deadline=20.0)
        sched = AdaptiveCulpeoScheduler(engine, [chain])
        # Freeze the stale policy by disabling the monitor's trigger.
        sched.monitor.threshold = float("inf")
        arrivals = [(t, chain) for t in
                    [10.0] + [60.0 + 20.0 * i for i in range(9)]]
        result = sched.run(arrivals, duration=250.0)
        assert result.brownout_count >= 1
        reasons = result.losses_by_reason()
        assert EventOutcome.LOST_BROWNOUT in reasons
