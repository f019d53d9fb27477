"""Retry-after-reboot chain semantics (the paper's RR failure mode)."""

import math
from types import SimpleNamespace

import pytest

from repro.loads.trace import CurrentTrace
from repro.power.harvester import ConstantPowerHarvester
from repro.power.system import capybara_power_system
from repro.sched.estimators import CatnapEstimator
from repro.sched.policy import CatnapPolicy
from repro.sched.scheduler import EventOutcome, IntermittentScheduler
from repro.sched.task import Task, TaskChain
from repro.sim.engine import PowerSystemSimulator


def heavy_chain():
    sense = Task("sense", CurrentTrace.constant(0.003, 0.400))
    burst = Task("burst", CurrentTrace.constant(0.050, 0.100))
    return TaskChain("report", [sense, burst], deadline=3.0)


def make_sched(retry, harvest=8e-3):
    system = capybara_power_system(
        harvester=ConstantPowerHarvester(harvest))
    system.rest_at(system.monitor.v_high)
    model = system.characterize()
    chain = heavy_chain()
    policy = CatnapPolicy.build(system, CatnapEstimator.measured(model),
                                [chain])
    engine = PowerSystemSimulator(system)
    # Start right at the (too-low) energy gate so the burst browns out.
    engine.discharge_to(policy.gate("report", 0) + 0.01)
    system.monitor.force_enabled(True)
    sched = IntermittentScheduler(engine, policy,
                                  retry_after_reboot=retry)
    return sched, chain


class TestRetryAfterReboot:
    def test_without_retry_event_is_simply_lost(self):
        sched, chain = make_sched(retry=False)
        result = sched.run([(0.1, chain)], duration=120.0)
        assert result.events[0].outcome is EventOutcome.LOST_BROWNOUT
        assert result.events[0].completion_time is None

    def test_with_retry_chain_finishes_late(self):
        sched, chain = make_sched(retry=True)
        result = sched.run([(0.1, chain)], duration=120.0)
        event = result.events[0]
        # The chain resumed after the reboot and completed — but far past
        # its 3-second deadline, so the event still counts as lost.
        assert event.outcome is EventOutcome.LOST_LATE
        assert event.completion_time is not None
        assert event.completion_time > event.deadline

    def test_retry_burns_extra_energy(self):
        # Weak harvest, trial cut shortly after the post-reboot window:
        # the retrying system spends its freshly recharged energy on a
        # report that is already late, ending visibly lower.
        plain, chain_a = make_sched(retry=False, harvest=2e-3)
        retrying, chain_b = make_sched(retry=True, harvest=2e-3)
        r_plain = plain.run([(0.1, chain_a)], duration=45.5)
        r_retry = retrying.run([(0.1, chain_b)], duration=45.5)
        # Capture rate is identical (the event is lost either way)...
        assert r_plain.capture_fraction() == r_retry.capture_fraction() == 0.0
        # ...but only the retrying system ran the chain to (late)
        # completion, paying for it out of the buffer.
        v_plain = plain.engine.system.buffer.terminal_voltage
        v_retry = retrying.engine.system.buffer.terminal_voltage
        assert v_retry < v_plain - 0.01

    def test_retry_does_not_loop_on_repeated_failure(self):
        # Nearly no harvest: the retry's recharge stalls and the chain
        # cannot finish; the scheduler must not spin forever.
        sched, chain = make_sched(retry=True, harvest=1e-5)
        result = sched.run([(0.1, chain)], duration=60.0)
        assert result.events[0].outcome in (
            EventOutcome.LOST_BROWNOUT, EventOutcome.LOST_DEADLINE_WAITING)


class RetryLog(IntermittentScheduler):
    """The stock scheduler, logging each retry's outcome as it returns."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.retry_outcomes = []

    def _run_chain(self, chain, record, result, start_index=0,
                   wait_deadline=None, is_retry=False):
        super()._run_chain(chain, record, result, start_index=start_index,
                           wait_deadline=wait_deadline, is_retry=is_retry)
        if is_retry:
            self.retry_outcomes.append(record.outcome)


def fixed_gate_trial(tasks, gates, deadline):
    """One arrival of a chain of ``(current, seconds)`` tasks behind fixed
    gates, on a plant discharged to 1.7 V (the first task browns out)."""
    system = capybara_power_system(harvester=ConstantPowerHarvester(5e-3))
    system.rest_at(system.monitor.v_high)
    engine = PowerSystemSimulator(system)
    engine.discharge_to(1.7)
    system.monitor.force_enabled(True)
    chain = TaskChain("chain", [
        Task(f"task{i}", CurrentTrace.constant(current, seconds))
        for i, (current, seconds) in enumerate(tasks)], deadline=deadline)
    policy = SimpleNamespace(name="fixed", gate=lambda _, index: gates[index],
                             background_threshold=math.inf)
    sched = RetryLog(engine, policy, retry_after_reboot=True)
    start = engine.time
    result = sched.run([(start + 0.1, chain)], start + 60.0)
    return sched, result


class TestRetryEndsWithAnOutcome:
    """A post-reboot retry always leaves its event with an outcome, so the
    main loop needs no fallback for one that did not."""

    @pytest.mark.parametrize("tasks, gates, deadline, outcome", [
        # browns out again: 2 s at 50 mA fails even from V_high
        ([(0.050, 2.0)], [0.0], 3.0, EventOutcome.LOST_BROWNOUT),
        # the retried task runs, then the next gate is out of reach
        ([(0.050, 0.3), (0.010, 0.3)], [0.0, 2.5], 3.0,
         EventOutcome.LOST_DEADLINE_WAITING),
        # completes, after the deadline or before it
        ([(0.050, 0.3)], [0.0], 3.0, EventOutcome.LOST_LATE),
        ([(0.050, 0.3)], [0.0], 40.0, EventOutcome.CAPTURED),
    ], ids=["browns-out-again", "gate-wait-misses", "late", "captured"])
    def test_outcome(self, tasks, gates, deadline, outcome):
        sched, result = fixed_gate_trial(tasks, gates, deadline)
        assert sched.retry_outcomes == [outcome]
        assert [event.outcome for event in result.events] == [outcome]
