"""Intermittent executor: re-execution, gating, non-termination."""

import math

import pytest

from repro.core.profile_guided import CulpeoPG
from repro.intermittent.executor import ExecutionReport, IntermittentExecutor
from repro.intermittent.program import AtomicTask, Program
from repro.loads.peripherals import ble_listen, ble_radio
from repro.loads.trace import CurrentTrace
from repro.power.harvester import (
    CallableHarvester,
    ConstantPowerHarvester,
    NullHarvester,
)
from repro.power.system import capybara_power_system
from repro.sim.engine import PowerSystemSimulator


def make_engine(harvest=3e-3, v_start=None):
    system = capybara_power_system(
        harvester=ConstantPowerHarvester(harvest))
    system.rest_at(v_start if v_start is not None
                   else system.monitor.v_high)
    return PowerSystemSimulator(system)


def radio_task(name="radio"):
    return AtomicTask(name, ble_radio().trace.concat(ble_listen(1.0).trace))


def light_task(name="light"):
    return AtomicTask(name, CurrentTrace.constant(0.002, 0.050))


class TestHappyPath:
    def test_light_program_runs_straight_through(self):
        engine = make_engine()
        program = Program([light_task(f"t{i}") for i in range(5)])
        report = IntermittentExecutor(engine).run(program, until=60.0)
        assert report.finished
        assert report.tasks_committed == 5
        assert report.total_reexecutions == 0

    def test_heavy_program_recharges_between_tasks(self):
        engine = make_engine()
        program = Program([radio_task("r1"), radio_task("r2"),
                           radio_task("r3")])
        model = engine.system.characterize()
        pg = CulpeoPG(model)
        gates = {t.name: pg.analyze(t.trace).v_safe for t in program}
        executor = IntermittentExecutor(engine,
                                        gate=lambda t: gates[t.name])
        report = executor.run(program, until=600.0)
        assert report.finished
        assert report.total_reexecutions == 0
        assert report.wasted_energy == 0.0


class TestReexecutionWaste:
    def test_opportunistic_launch_from_low_voltage_wastes_energy(self):
        # Start just above the booster floor: the opportunistic executor
        # fires the radio immediately and browns out; the gated one waits.
        engine = make_engine(harvest=4e-3, v_start=2.56)
        engine.discharge_to(1.66)
        engine.system.monitor.force_enabled(True)
        program = Program([radio_task()])
        report = IntermittentExecutor(engine).run(program, until=400.0)
        assert report.reexecutions.get("radio", 0) >= 1
        assert report.wasted_energy > 0
        assert report.finished  # eventually succeeds from V_high

    def test_gated_launch_avoids_the_waste(self):
        engine = make_engine(harvest=4e-3, v_start=2.56)
        engine.discharge_to(1.66)
        engine.system.monitor.force_enabled(True)
        model = engine.system.characterize()
        pg = CulpeoPG(model)
        program = Program([radio_task()])
        executor = IntermittentExecutor(
            engine, gate=lambda t: pg.analyze(t.trace).v_safe)
        report = executor.run(program, until=400.0)
        assert report.finished
        assert report.total_reexecutions == 0


class TestNonTermination:
    def test_impossible_task_detected(self):
        engine = make_engine(harvest=10e-3)
        monster = AtomicTask("monster", CurrentTrace.constant(0.050, 3.0))
        program = Program([monster])
        report = IntermittentExecutor(engine).run(program, until=1200.0)
        assert not report.finished
        assert report.stuck_on == "monster"

    def test_progress_survives_detection(self):
        engine = make_engine(harvest=10e-3)
        program = Program([
            light_task("ok"),
            AtomicTask("monster", CurrentTrace.constant(0.050, 3.0)),
        ])
        report = IntermittentExecutor(engine).run(program, until=1200.0)
        assert report.tasks_committed == 1
        assert program.pc == 1  # non-volatile progress preserved

    def test_validation(self):
        engine = make_engine()
        with pytest.raises(ValueError):
            IntermittentExecutor(engine).run(Program([light_task()]),
                                             until=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                IntermittentExecutor(engine).run(Program([light_task()]),
                                                 until=bad)

    def test_stuck_limit_is_configurable(self):
        engine = make_engine(harvest=10e-3)
        monster = AtomicTask("monster", CurrentTrace.constant(0.050, 3.0))
        report = IntermittentExecutor(engine, stuck_limit=1).run(
            Program([monster]), until=1200.0)
        assert report.stuck_on == "monster"
        assert report.reexecutions["monster"] == 1  # gave up after one

    def test_constructor_validation(self):
        engine = make_engine()
        with pytest.raises(ValueError):
            IntermittentExecutor(engine, stuck_limit=0)
        with pytest.raises(ValueError):
            IntermittentExecutor(engine, stall_tolerance=0)
        with pytest.raises(ValueError):
            IntermittentExecutor(engine, dropout_grace=-1.0)


class TestBrownoutAccounting:
    def test_opportunistic_brownouts_surface_in_the_report(self):
        engine = make_engine(harvest=4e-3, v_start=2.56)
        engine.discharge_to(1.66)
        engine.system.monitor.force_enabled(True)
        report = IntermittentExecutor(engine).run(Program([radio_task()]),
                                                  until=400.0)
        assert report.brownouts.get("radio", 0) >= 1
        assert report.total_brownouts >= 1
        assert report.total_brownouts <= report.total_reexecutions

    def test_gate_feedback_hooks_are_called(self):
        events = []

        class RecordingGate:
            def __call__(self, task):
                return 2.2

            def on_brownout(self, task):
                events.append(("brownout", task.name))

            def on_success(self, task):
                events.append(("success", task.name))

        engine = make_engine()
        report = IntermittentExecutor(engine, RecordingGate()).run(
            Program([light_task("a"), light_task("b")]), until=60.0)
        assert report.finished
        assert events == [("success", "a"), ("success", "b")]


def gapped_harvester(power, dark_from, dark_until):
    """Constant supply that goes fully dark inside one time window."""
    return CallableHarvester(
        lambda t: 0.0 if dark_from <= t < dark_until else power)


class TestDropoutRecovery:
    def test_gate_wait_rides_out_a_temporary_dropout(self):
        # The harvester cuts out for 2 s while the executor waits for a
        # gate above the current voltage. The old stall counter gave up
        # ~0.4 s into any flat stretch regardless of cause; outage time
        # must instead draw on the dropout grace window.
        system = capybara_power_system(
            harvester=gapped_harvester(4e-3, dark_from=0.5, dark_until=2.5))
        system.rest_at(2.30)
        system.monitor.force_enabled(True)
        engine = PowerSystemSimulator(system)
        executor = IntermittentExecutor(engine, gate=lambda t: 2.45,
                                        dropout_grace=5.0)
        report = executor.run(Program([light_task()]), until=120.0)
        assert report.finished
        assert report.total_reexecutions == 0

    def test_recharge_rides_out_a_temporary_dropout(self):
        # Same outage, but hit while recharging from below the booster
        # floor (output disabled): charge_until aborts at the dropout and
        # the executor must retry once power returns.
        system = capybara_power_system(
            harvester=gapped_harvester(4e-3, dark_from=0.5, dark_until=2.5))
        system.rest_at(1.70)
        engine = PowerSystemSimulator(system)
        executor = IntermittentExecutor(engine, dropout_grace=5.0)
        report = executor.run(Program([light_task()]), until=400.0)
        assert report.finished

    def test_permanent_dropout_still_gives_up(self):
        system = capybara_power_system(
            harvester=gapped_harvester(4e-3, dark_from=0.5,
                                       dark_until=1e9))
        system.rest_at(2.30)
        system.monitor.force_enabled(True)
        engine = PowerSystemSimulator(system)
        executor = IntermittentExecutor(engine, gate=lambda t: 2.45,
                                        dropout_grace=5.0)
        report = executor.run(Program([light_task()]), until=120.0)
        assert not report.finished
        # Gave up shortly after the grace window, not at the horizon.
        assert report.elapsed < 30.0

    def test_equilibrium_stall_still_gives_up_quickly(self):
        # Power present but the system sits at an equilibrium below the
        # gate: waiting longer cannot help, and the dropout grace must
        # not apply (the harvester is *not* dark).
        system = capybara_power_system(
            harvester=ConstantPowerHarvester(1e-8))
        system.rest_at(2.30)
        system.monitor.force_enabled(True)
        engine = PowerSystemSimulator(system)
        executor = IntermittentExecutor(engine, gate=lambda t: 2.45,
                                        stall_tolerance=3,
                                        dropout_grace=1e6)
        report = executor.run(Program([light_task()]), until=120.0)
        assert not report.finished
        assert report.elapsed < 5.0


def spin_guard(monkeypatch, engine, name):
    """Fail once ``engine.<name>`` is called 100 times, so a wait that
    spins fails here instead of hanging; returns the call list."""
    calls = []
    inner = getattr(engine, name)

    def counted(*args, **kwargs):
        calls.append(args)
        assert len(calls) < 100, f"{name} called 100 times: a spin"
        return inner(*args, **kwargs)

    monkeypatch.setattr(engine, name, counted)
    return calls


class TestDeadlineCloserThanAStep:
    """A deadline closer than one step (1e-12 s) ends a wait at once: no
    recharge or hop can move the clock, so waiting on would spin."""

    def test_recharge_with_a_lit_harvester(self, monkeypatch):
        engine = make_engine(harvest=10e-3, v_start=1.7)
        calls = spin_guard(monkeypatch, engine, "charge_until")
        report = ExecutionReport(finished=False, tasks_committed=0,
                                 elapsed=0.0)
        start = engine.time
        executor = IntermittentExecutor(engine)
        assert not executor._recharge(report, start + 5e-13)
        assert engine.time == start
        assert report.charge_time == 0.0
        assert len(calls) == 1

    def test_recharge_outage_with_a_dark_harvester(self, monkeypatch):
        # The dark chunk takes 0.25 s, the outage hops 0.1 s each; the
        # last hop is the 5e-13 s left before the deadline, and takes
        # no step.
        system = capybara_power_system(harvester=NullHarvester())
        system.rest_at(1.7)
        engine = PowerSystemSimulator(system)
        calls = spin_guard(monkeypatch, engine, "idle")
        report = ExecutionReport(finished=False, tasks_committed=0,
                                 elapsed=0.0)
        deadline = engine.time + 0.55 + 5e-13
        executor = IntermittentExecutor(engine)
        assert not executor._recharge(report, deadline)
        assert 0.0 < deadline - engine.time < 1e-12
        assert [hop for hop, in calls[:3]] == [0.1, 0.1, 0.1]
        assert len(calls) == 4

    def test_gate_wait_with_a_dark_harvester(self, monkeypatch):
        system = capybara_power_system(harvester=NullHarvester())
        system.rest_at(1.9)
        engine = PowerSystemSimulator(system)
        calls = spin_guard(monkeypatch, engine, "idle")
        start = engine.time
        executor = IntermittentExecutor(engine)
        assert not executor._wait_for_gate(2.3, start + 5e-13)
        assert engine.time == start
        assert len(calls) == 1
