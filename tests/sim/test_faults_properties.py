"""Property tests for fault injection: conservatism and fastpath fallback.

The example-based tests in ``test_faults.py`` pin specific behaviours; the
properties here assert the *contract* over the whole input space:

* a faulty ADC may cost performance, never safety — every profiling
  outcome under injected faults lands at or above the healthy estimate,
  or at the V_high fallback, and always inside ``[V_off, V_high]``;
* supply glitches fire exactly once each, in order, regardless of how the
  schedule is permuted;
* every attached observer — fault injectors included — runs on the fast
  kernel, and a simulation with observers attached equals the reference
  stepper bit for bit, observer captures included.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.isr import CulpeoIsrRuntime
from repro.core.uarch_runtime import CulpeoUArchRuntime
from repro.loads.synthetic import uniform_load
from repro.loads.trace import CurrentTrace
from repro.sim.adc import SamplingObserver
from repro.sim.engine import PowerSystemSimulator
from repro.sim.faults import FaultyAdc, SupplyGlitch

#: Profiling load shared by the ADC properties: moderate pulse, well inside
#: the capybara fixture's budget.
_LOAD = uniform_load(0.020, 0.010).trace


def _isr_vsafe(system, calculator, adc) -> float:
    """Profile ``_LOAD`` through ``adc`` and return the stored V_safe."""
    runtime = CulpeoIsrRuntime(PowerSystemSimulator(system.copy()),
                               calculator)
    runtime._adc = adc
    runtime._sampler = SamplingObserver(adc, runtime.sample_period,
                                        burden_current=72e-6)
    runtime.engine.observers = [runtime._sampler]
    runtime.engine.system.rest_at(system.monitor.v_high)
    runtime.profile_task(_LOAD, "t", harvesting=False)
    return runtime.get_vsafe("t")


class TestFaultyAdcConservatism:
    @given(dropout=st.floats(min_value=0.05, max_value=1.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_dropouts_never_lower_vsafe(self, system, calculator,
                                        dropout, seed):
        """Zero-reads either get discarded (V_high fallback) or never
        happened; either way the estimate is at least the healthy one."""
        healthy = _isr_vsafe(system, calculator,
                             FaultyAdc(bits=12, dropout_rate=0.0))
        faulty = _isr_vsafe(
            system, calculator,
            FaultyAdc(bits=12, dropout_rate=dropout,
                      rng=np.random.default_rng(seed)),
        )
        assert faulty >= healthy - 1e-12
        assert calculator.v_off <= faulty <= calculator.v_high

    @given(code=st.integers(min_value=0, max_value=4095),
           after=st.integers(min_value=0, max_value=40))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_stuck_codes_keep_estimate_bounded(self, system, calculator,
                                               code, after):
        """No stuck pattern may push the estimate outside the rails."""
        v_safe = _isr_vsafe(system, calculator,
                            FaultyAdc(bits=12, stuck_code=code,
                                      stuck_after=after))
        assert calculator.v_off <= v_safe <= calculator.v_high

    @given(code=st.integers(min_value=0, max_value=4095))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_stuck_from_first_sample_falls_back(self, system, calculator,
                                                code):
        """An ADC stuck from conversion #1 can never produce a plausible
        profile: V_start, V_min and V_final all collapse to one code, so
        the observed drop is zero and the estimate must sit at or above
        the energy-only floor — still inside the rails."""
        v_safe = _isr_vsafe(system, calculator,
                            FaultyAdc(bits=12, stuck_code=code,
                                      stuck_after=0))
        assert calculator.v_off <= v_safe <= calculator.v_high


class TestSupplyGlitchProperties:
    @given(times=st.lists(st.floats(min_value=1e-4, max_value=0.08),
                          min_size=1, max_size=6, unique=True))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_glitches_fire_once_each_in_order(self, system, times):
        glitch = SupplyGlitch(system.monitor, times)
        engine = PowerSystemSimulator(system.copy(), observers=[glitch])
        engine.system.rest_at(system.monitor.v_high)
        engine.idle(0.100, harvesting=False)
        assert glitch.fired == [pytest.approx(t) for t in sorted(times)]
        assert glitch.next_event_time() is None

    def test_glitch_observer_is_burdenless(self, system):
        assert SupplyGlitch(system.monitor, [0.01]).burden_current == 0.0


def _kernel_and_reference(run):
    """``run(fast)`` on both steppers, counting which loop each used.

    Returns ``(fast_out, ref_out)``; asserts the fast run stayed on the
    kernel and the reference run never touched it.
    """
    outputs = []
    for fast in (True, False):
        with obs.observe() as state:
            outputs.append(run(fast))
        counters = state.metrics.snapshot()["counters"]
        kernel = counters.get("sim.fastpath.calls", 0)
        reference = counters.get("sim.reference.calls", 0)
        if fast:
            assert kernel > 0 and reference == 0
        else:
            assert kernel == 0 and reference > 0
    return outputs


class TestFaultObserversDisableFastpath:
    """Fault observers on the fast kernel: each one runs there (no
    reference-loop call) and leaves results, timing and its own captures
    bit-identical to the reference stepper."""

    def test_bare_engine_uses_fast_kernel(self, system):
        engine = PowerSystemSimulator(system, fast=True)
        assert engine._use_fast()

    def test_supply_glitch_runs_on_fast_kernel(self, system):
        trace = CurrentTrace.constant(0.010, 0.060)

        def run(fast):
            trial = system.copy()
            glitch = SupplyGlitch(trial.monitor, [0.004, 0.021, 0.021])
            engine = PowerSystemSimulator(trial, observers=[glitch],
                                          fast=fast)
            res = engine.run_trace(trace, harvesting=False)
            engine.idle(0.030, harvesting=False)
            return (res, trial.buffer.terminal_voltage, engine.time,
                    trial.monitor.output_enabled, tuple(glitch.fired))

        fast_out, ref_out = _kernel_and_reference(run)
        assert fast_out == ref_out
        assert len(fast_out[-1]) == 3

    def test_faulty_sampler_runs_on_fast_kernel(self, system):
        trace = uniform_load(0.020, 0.010).trace

        def run(fast):
            trial = system.copy()
            adc = FaultyAdc(bits=12, dropout_rate=0.5, seed=5)
            sampler = SamplingObserver(adc, 1e-3, burden_current=72e-6)
            engine = PowerSystemSimulator(trial, observers=[sampler],
                                          fast=fast)
            sampler.enable(engine.time)
            res = engine.run_trace(trace, harvesting=False,
                                   settle_after=0.005)
            return (res, trial.buffer.terminal_voltage, engine.time,
                    sampler.v_first, sampler.v_last, sampler.v_min,
                    sampler.v_max, sampler.sample_count)

        fast_out, ref_out = _kernel_and_reference(run)
        assert fast_out == ref_out
        assert fast_out[-1] > 0

    def test_isr_runtime_runs_on_fast_kernel(self, system, calculator):
        def run(fast):
            engine = PowerSystemSimulator(system.copy(), fast=fast)
            runtime = CulpeoIsrRuntime(engine, calculator)
            res = runtime.profile_task(_LOAD, "t", harvesting=False)
            sampler = runtime._sampler
            return (res, engine.time,
                    engine.system.buffer.terminal_voltage,
                    runtime.get_vsafe("t"), sampler.v_max,
                    sampler.sample_count, sampler.rejected_count)

        fast_out, ref_out = _kernel_and_reference(run)
        assert fast_out == ref_out

    def test_uarch_runtime_runs_on_fast_kernel(self, system, calculator):
        """The µArch runtime switches the block from MIN to MAX capture
        and calls ``convert_now`` between engine calls; chunked delivery
        must leave every register as per-sample delivery does."""
        def run(fast):
            engine = PowerSystemSimulator(system.copy(), fast=fast)
            runtime = CulpeoUArchRuntime(engine, calculator)
            res = runtime.profile_task(_LOAD, "t", harvesting=False)
            block = runtime.block
            return (res, engine.time,
                    engine.system.buffer.terminal_voltage,
                    runtime.get_vsafe("t"), runtime._v_start,
                    runtime._v_min, runtime._v_final, block._register,
                    block._live_code, block._next_t)

        fast_out, ref_out = _kernel_and_reference(run)
        assert fast_out == ref_out

    @given(glitch_at=st.floats(min_value=0.005, max_value=0.05))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_observed_run_equals_reference_bitwise(self, system, glitch_at):
        """fast=True with an observer attached must be *identical* to
        fast=False: the flag may not leak into the stepping arithmetic."""
        trace = CurrentTrace.constant(0.010, 0.060)
        results = []
        for fast in (True, False):
            trial = system.copy()
            trial.rest_at(system.monitor.v_high)
            glitch = SupplyGlitch(trial.monitor, [glitch_at])
            engine = PowerSystemSimulator(trial, observers=[glitch],
                                          fast=fast)
            res = engine.run_trace(trace, harvesting=False)
            results.append((res, trial.buffer.terminal_voltage,
                            engine.time, tuple(glitch.fired)))
        (fast_res, fast_v, fast_t, fast_fired), \
            (ref_res, ref_v, ref_t, ref_fired) = results
        assert fast_res == ref_res
        assert fast_v == ref_v
        assert fast_t == ref_t
        assert fast_fired == ref_fired
