"""Observability wired through the stack: engine, cache, scheduler,
parallel harness, verification runner."""

import pytest

from repro import obs
from repro.core.vsafe_cache import VsafeCache
from repro.harness.parallel import parallel_map
from repro.loads.synthetic import pulse_with_compute_tail
from repro.loads.trace import CurrentTrace
from repro.power.harvester import ConstantPowerHarvester
from repro.power.system import capybara_power_system
from repro.sim.engine import PowerSystemSimulator


def _run_sim(seed=0, fast=True):
    system = capybara_power_system()
    system.rest_at(2.4)
    trace = pulse_with_compute_tail(0.020 + 0.001 * seed, 0.010).trace
    sim = PowerSystemSimulator(system, fast=fast)
    return sim.run_trace(trace, harvesting=True)


class TestStateSwitch:
    def test_disabled_by_default(self):
        assert obs.current() is None

    def test_observe_restores_previous_state(self):
        with obs.observe() as outer:
            with obs.observe() as inner:
                assert obs.current() is inner
            assert obs.current() is outer
        assert obs.current() is None

    def test_enable_disable(self):
        state = obs.enable()
        try:
            assert obs.current() is state
        finally:
            assert obs.disable() is state
        assert obs.current() is None


class TestEngineInstrumentation:
    def test_task_span_carries_voltage_captures(self):
        with obs.observe(tracer=obs.Tracer()) as state:
            result = _run_sim()
            events = state.tracer.drain()
        by_name = {e["event"]: e for e in events}
        begin = by_name["task.begin"]
        end = by_name["task.end"]
        assert begin["v_start"] == pytest.approx(2.4)
        assert end["v_min"] == pytest.approx(result.v_min)
        assert end["v_final"] == pytest.approx(result.v_final)
        assert end["browned_out"] == result.browned_out
        assert end["span"] == begin["span"]
        assert by_name["power.v_min"]["v"] == pytest.approx(result.v_min)

    def test_counters_and_voltage_histogram(self):
        with obs.observe() as state:
            _run_sim()
            _run_sim(seed=1)
        snapshot = state.metrics.snapshot()
        assert snapshot["counters"]["sim.traces"] == 2
        assert snapshot["counters"]["sim.fastpath.calls"] >= 2
        assert snapshot["histograms"]["sim.v_min_v"]["count"] == 2

    def test_results_identical_with_and_without_obs(self):
        bare = _run_sim()
        with obs.observe():
            observed = _run_sim()
        assert (observed.v_min, observed.v_final, observed.browned_out) \
            == (bare.v_min, bare.v_final, bare.browned_out)

    def test_reference_path_instrumented_too(self):
        with obs.observe() as state:
            _run_sim(fast=False)
        counters = state.metrics.snapshot()["counters"]
        assert counters["sim.traces"] == 1
        assert counters.get("sim.reference.calls", 0) >= 1


class TestCacheInstrumentation:
    def test_hit_and_miss_events(self):
        cache = VsafeCache()
        with obs.observe(tracer=obs.Tracer()) as state:
            assert cache.get("k") is None
            cache.put("k", 1.23)
            assert cache.get("k") == 1.23
            events = state.tracer.drain()
        counters = state.metrics.snapshot()["counters"]
        assert counters["cache.misses"] == 1
        assert counters["cache.hits"] == 1
        names = [e["event"] for e in events]
        assert names == ["cache.miss", "cache.hit"]
        # Key digests are process-stable (crc32, not salted hash), so the
        # miss and the hit name the same key.
        assert events[0]["key"] == events[1]["key"]


def _observed_sim(seed):
    result = _run_sim(seed)
    return (result.v_min, result.v_final, result.browned_out)


class TestParallelMerge:
    def test_pooled_telemetry_identical_to_serial(self):
        """jobs=2 must merge worker registries and replay worker events
        into the exact telemetry a serial run records."""
        seeds = list(range(4))

        with obs.observe(tracer=obs.Tracer()) as state:
            serial_results = parallel_map(_observed_sim, seeds, jobs=1)
            serial_events = state.tracer.drain()
            serial_snapshot = state.metrics.snapshot()

        with obs.observe(tracer=obs.Tracer()) as state:
            pooled_results = parallel_map(_observed_sim, seeds, jobs=2)
            pooled_events = state.tracer.drain()
            pooled_snapshot = state.metrics.snapshot()

        assert pooled_results == serial_results
        assert pooled_snapshot == serial_snapshot
        assert pooled_events == serial_events

    def test_pool_unobserved_when_disabled(self):
        assert obs.current() is None
        results = parallel_map(_observed_sim, [0, 1], jobs=2)
        assert results == [_observed_sim(0), _observed_sim(1)]


class TestSchedulerInstrumentation:
    def _run_schedule(self):
        from repro.sched.estimators import CatnapEstimator
        from repro.sched.policy import CatnapPolicy
        from repro.sched.scheduler import IntermittentScheduler
        from repro.sched.task import Task, TaskChain

        system = capybara_power_system(
            harvester=ConstantPowerHarvester(3e-3))
        system.rest_at(system.monitor.v_high)
        chain = TaskChain(
            "easy", [Task("blink", CurrentTrace.constant(0.002, 0.010))],
            deadline=5.0)
        model = system.characterize()
        policy = CatnapPolicy.build(
            system, CatnapEstimator.measured(model), [chain], [])
        sched = IntermittentScheduler(PowerSystemSimulator(system), policy)
        return sched.run([(t, chain) for t in (1.0, 3.0)], duration=6.0)

    def test_run_summary_and_per_event_records(self):
        with obs.observe(tracer=obs.Tracer()) as state:
            result = self._run_schedule()
            events = state.tracer.drain()
        counters = state.metrics.snapshot()["counters"]
        assert counters["sched.runs"] == 1
        per_event = [e for e in events if e["event"] == "sched.event"]
        assert len(per_event) == len(result.events)
        assert all(e["chain"] == "easy" for e in per_event)
        summary = [e for e in events if e["event"] == "sched.run"]
        assert len(summary) == 1


class TestVerifyInstrumentation:
    def test_trial_and_verdict_counters(self):
        from repro.verify.runner import run_verification

        with obs.observe(tracer=obs.Tracer()) as state:
            report = run_verification(trials=2, seed=0, jobs=1)
            events = state.tracer.drain()
        counters = state.metrics.snapshot()["counters"]
        assert counters["verify.trials"] == 2
        verdict_total = sum(v for name, v in counters.items()
                            if name.startswith("verify.verdict."))
        verdicts = [e for e in events if e["event"] == "verify.verdict"]
        assert verdict_total == len(verdicts) > 0
        assert counters["verify.invariant_checks"] >= 2
        assert report.trials == 2
