"""Property-based equivalence: the fast kernel versus the reference loop.

``PowerSystemSimulator(fast=True)`` must be indistinguishable from the
reference stepper on every simulation it accelerates — the kernel replays
the identical recurrence, so the results should agree to well inside the
1e-6 V / 1e-6 s budget (in practice bit-for-bit). Attached observers are
one more input to that property: the kernel schedules them exactly as the
reference does, so every observer capture must match with ``==`` too.
A lone µArch block gets its samples in chunks (``on_samples``); its
registers, live code and next due time must still match the reference's
per-sample delivery exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.loads.trace import CurrentTrace
from repro.core.isr import CulpeoIsrRuntime
from repro.core.runtime import CulpeoRCalculator
from repro.power.booster import CurvedEfficiency, LinearEfficiency
from repro.power.capacitor import IdealCapacitor, TwoBranchSupercap
from repro.power.harvester import ConstantPowerHarvester, TraceHarvester
from repro.power.reconfig import ReconfigPlan
from repro.power.reconfigurable import (
    ReconfigurableBuffer,
    capybara_bank_set,
)
from repro.power.system import capybara_power_system
from repro.sim.adc import Adc, FilteringSamplingObserver, SamplingObserver
from repro.sim.engine import PowerSystemSimulator
from repro.sim.fastpath import _SAMPLE_CHUNK
from repro.sim.faults import FaultyAdc, SupplyGlitch
from repro.sim.recorder import TraceRecorder
from repro.sim.uarch import CaptureMode, CulpeoUArchBlock

V_TOL = 1e-6
T_TOL = 1e-6

segment_lists = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=0.06),
              st.floats(min_value=1e-3, max_value=0.1)),
    min_size=1, max_size=8,
)
start_voltages = st.floats(min_value=1.7, max_value=2.56)
esr_values = st.floats(min_value=0.1, max_value=8.0)
buffer_kinds = st.sampled_from(("two-branch", "decoupled", "ideal"))


def build_system(kind, esr, v_start):
    system = capybara_power_system(dc_esr=esr)
    if kind == "ideal":
        system.buffer = IdealCapacitor(capacitance=45e-3, esr=esr,
                                       voltage=v_start)
    elif kind == "decoupled":
        system.buffer = system.buffer.with_decoupling(800e-6)
    system.rest_at(v_start)
    return system


def run_both(kind, esr, v_start, segs, harvesting, settle):
    trace = CurrentTrace(segs)
    results = []
    for fast in (False, True):
        system = build_system(kind, esr, v_start)
        sim = PowerSystemSimulator(system, fast=fast)
        result = sim.run_trace(trace, harvesting=harvesting,
                               settle_after=settle)
        results.append((result, sim.time, system.buffer.terminal_voltage))
    return results


class TestFastPathEquivalence:
    @given(kind=buffer_kinds, esr=esr_values, v=start_voltages,
           segs=segment_lists, harvesting=st.booleans(),
           settle=st.sampled_from((0.0, 0.05)))
    @settings(max_examples=60, deadline=None)
    def test_fast_matches_reference(self, kind, esr, v, segs, harvesting,
                                    settle):
        (ref, ref_time, ref_v), (fast, fast_time, fast_v) = run_both(
            kind, esr, v, segs, harvesting, settle)
        assert abs(fast.v_min - ref.v_min) <= V_TOL
        assert abs(fast.v_final - ref.v_final) <= V_TOL
        assert fast.browned_out == ref.browned_out
        if ref.brown_out_time is None:
            assert fast.brown_out_time is None
        else:
            assert abs(fast.brown_out_time - ref.brown_out_time) <= T_TOL
        assert abs(fast_time - ref_time) <= T_TOL
        assert abs(fast_v - ref_v) <= V_TOL

    @given(kind=buffer_kinds, esr=esr_values, v=start_voltages,
           segs=segment_lists)
    @settings(max_examples=30, deadline=None)
    def test_fast_matches_reference_bit_exact(self, kind, esr, v, segs):
        """The kernel replays the same float ops — equality, not tolerance."""
        (ref, ref_time, ref_v), (fast, fast_time, fast_v) = run_both(
            kind, esr, v, segs, harvesting=False, settle=0.0)
        assert fast.v_min == ref.v_min
        assert fast.v_final == ref.v_final
        assert fast.browned_out == ref.browned_out
        assert fast.brown_out_time == ref.brown_out_time
        assert fast.energy_from_buffer == ref.energy_from_buffer
        assert fast_time == ref_time
        assert fast_v == ref_v


# -- efficiency models: inlined stock curves and the called fallback ---------

class SqrtEfficiency:
    """A non-stock efficiency model: the kernel calls ``efficiency``."""

    def efficiency(self, v_in):
        return min(0.92, 0.58 * math.sqrt(v_in))


# Parameters whose floor and ceiling both bind inside the drawn start
# voltages (1.7-2.56 V), so the inlined clamps take both branches.
EFFICIENCY_MODELS = {
    "linear": LinearEfficiency(slope=0.5, intercept=-0.25, floor=0.62,
                               ceiling=0.9),
    "curved": CurvedEfficiency(base=0.8, slope=0.6, curvature=0.5,
                               v_ref=2.0, floor=0.7, ceiling=0.9),
    "custom": SqrtEfficiency(),
}
efficiency_kinds = st.sampled_from(sorted(EFFICIENCY_MODELS))


class TestEfficiencyModels:
    @pytest.mark.parametrize("kind", ["linear", "curved"])
    def test_stock_models_clip_inside_the_drawn_range(self, kind):
        model = EFFICIENCY_MODELS[kind]
        assert model.efficiency(1.7) == model.floor
        assert model.efficiency(2.5) == model.ceiling

    @given(out_kind=efficiency_kinds, in_kind=efficiency_kinds,
           kind=buffer_kinds, esr=esr_values, v=start_voltages,
           segs=segment_lists, harvesting=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_fast_matches_reference_bit_exact(self, out_kind, in_kind, kind,
                                              esr, v, segs, harvesting):
        trace = CurrentTrace(segs)
        runs = []
        for fast in (False, True):
            system = build_system(kind, esr, v)
            system.output_booster.efficiency_model = \
                EFFICIENCY_MODELS[out_kind]
            system.input_booster.efficiency_model = \
                EFFICIENCY_MODELS[in_kind]
            system.harvester = ConstantPowerHarvester(4e-3)
            sim = PowerSystemSimulator(system, fast=fast)
            result = sim.run_trace(trace, harvesting=harvesting,
                                   settle_after=0.02)
            runs.append((result, sim.time, buffer_state(system.buffer)))
        assert runs[0] == runs[1]


# -- observed runs -----------------------------------------------------------

observer_sets = st.sampled_from(
    ("none", "uarch", "uarch-max", "uarch-stuck", "uarch-dropout",
     "uarch-noisy", "isr", "recorder", "glitch+faulty-adc"))
harvest_kinds = st.sampled_from(("off", "constant", "trace"))
observed_buffer_kinds = st.sampled_from(
    ("two-branch", "decoupled", "ideal", "reconfigurable"))
short_segment_lists = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=0.06),
              st.floats(min_value=1e-3, max_value=0.02)),
    min_size=1, max_size=5,
)
harvest_pieces = st.lists(
    st.tuples(st.floats(min_value=1e-3, max_value=0.03),
              st.floats(min_value=0.0, max_value=8e-3)),
    min_size=1, max_size=5,
)


def build_observed_system(kind, esr, v_start, harvest, pieces):
    system = capybara_power_system(dc_esr=esr)
    if kind == "reconfigurable":
        system.buffer = ReconfigurableBuffer(capybara_bank_set(),
                                             ("large", "small"))
        system.datasheet_capacitance = None
    else:
        system = build_system(kind, esr, v_start)
    if harvest == "constant":
        system.harvester = ConstantPowerHarvester(3e-3)
    elif harvest == "trace":
        edges = np.cumsum([0.0] + [d for d, _ in pieces])
        system.harvester = TraceHarvester(edges,
                                          np.array([p for _, p in pieces]))
    system.rest_at(v_start)
    return system


def attach_observers(which, sim, seed):
    """Attach the drawn observer set; returns a capture snapshot thunk."""
    now = sim.time
    if which == "none":
        return lambda: ()
    if which.startswith("uarch"):
        block = CulpeoUArchBlock()
        # converters swapped in the way the chaos ADC injectors do
        if which == "uarch-stuck":
            block.adc = FaultyAdc(bits=8, stuck_code=seed % 256,
                                  stuck_after=seed % 700)
        elif which == "uarch-dropout":
            block.adc = FaultyAdc(bits=8, dropout_rate=0.3, seed=seed)
        elif which == "uarch-noisy":
            block.adc = Adc(bits=8, noise_sigma=0.02,
                            rng=np.random.default_rng(seed))
        block.configure(True, now)
        if which == "uarch-max":
            # armed as CulpeoUArchRuntime._end_capture arms it
            block.prepare(CaptureMode.MAX)
            block.sample(CaptureMode.MAX)
            block.convert_now(now, sim.system.buffer.terminal_voltage)
        else:
            block.prepare(CaptureMode.MIN)
            block.sample(CaptureMode.MIN)
        sim.attach(block)
        return lambda: (block.read(), block._live_code, block._next_t,
                        adc_state(block.adc))
    if which == "isr":
        sampler = FilteringSamplingObserver(
            Adc(bits=12), 1e-3, burden_current=72e-6,
            plausibility_floor=1.5)
        sampler.set_jitter(np.random.default_rng(seed), 0.2)
        sampler.enable(now)
        sim.attach(sampler)
        return lambda: (sampler.v_first, sampler.v_last, sampler.v_min,
                        sampler.v_max, sampler.sample_count,
                        sampler.rejected_count, sampler._next_t)
    if which == "recorder":
        recorder = TraceRecorder(7e-4)
        recorder.start(now)
        sim.attach(recorder)
        return lambda: (tuple(recorder._times), tuple(recorder._volts))
    glitch = SupplyGlitch(sim.system.monitor,
                          [now + 0.004, now + 0.021, now + 0.021])
    sampler = SamplingObserver(
        FaultyAdc(bits=12, dropout_rate=0.3, seed=seed), 1e-3,
        burden_current=72e-6)
    sampler.enable(now)
    sim.attach(glitch)
    sim.attach(sampler)
    return lambda: (tuple(glitch.fired), sampler.v_first, sampler.v_last,
                    sampler.v_min, sampler.v_max, sampler.sample_count)


def adc_state(adc):
    """What a converter carries from one conversion to the next."""
    rngs = [getattr(adc, name, None) for name in ("_rng", "_fault_rng")]
    return (getattr(adc, "_conversions", None),
            tuple(r.bit_generator.state["state"]["state"]
                  for r in rngs if r is not None))


def buffer_state(buffer):
    inner = getattr(buffer, "_group", buffer)
    return (buffer.terminal_voltage, buffer.open_circuit_voltage,
            tuple(sorted(vars(inner).items())))


def run_observed(fast, case):
    system = build_observed_system(case["kind"], case["esr"], case["v"],
                                   case["harvest"], case["pieces"])
    sim = PowerSystemSimulator(system, fast=fast)
    captures = attach_observers(case["observers"], sim, case["seed"])
    harvesting = case["harvest"] != "off"
    plan = None
    if case["kind"] == "reconfigurable":
        total = sum(d for _, d in case["segs"])
        plan = ReconfigPlan.build((0.3 * total, ("large",)),
                                  (0.7 * total, ("large", "small")))
    result = sim.run_trace(CurrentTrace(case["segs"]),
                           harvesting=harvesting,
                           settle_after=case["settle"], reconfig_plan=plan)
    v_idle = sim.idle(0.005, harvesting=harvesting)
    return (result, sim.time, v_idle, buffer_state(system.buffer),
            system.monitor.output_enabled, captures())


class TestObservedFastPathEquivalence:
    @given(kind=observed_buffer_kinds, esr=esr_values, v=start_voltages,
           segs=short_segment_lists, harvest=harvest_kinds,
           pieces=harvest_pieces, observers=observer_sets,
           seed=st.integers(min_value=0, max_value=2**31 - 1),
           settle=st.sampled_from((0.0, 0.01)))
    @settings(max_examples=80, deadline=None)
    def test_observed_fast_matches_reference_bit_exact(
            self, kind, esr, v, segs, harvest, pieces, observers, seed,
            settle):
        case = dict(kind=kind, esr=esr, v=v, segs=segs, harvest=harvest,
                    pieces=pieces, observers=observers, seed=seed,
                    settle=settle)
        assert run_observed(True, case) == run_observed(False, case)


class TestChunkedUArchDelivery:
    """A lone µArch block gets its samples in chunks of ``_SAMPLE_CHUNK``,
    flushed when full, at each segment end and at a brown-out."""

    @pytest.fixture
    def flushes(self, monkeypatch):
        """Sizes of the chunks the kernel hands to ``on_samples``."""
        sizes = []
        on_samples = CulpeoUArchBlock.on_samples

        def record(block, volts, t_last):
            sizes.append(len(volts))
            on_samples(block, volts, t_last)

        monkeypatch.setattr(CulpeoUArchBlock, "on_samples", record)
        return sizes

    @staticmethod
    def run(fast, segs, v_start):
        system = build_system("decoupled", 2.0, v_start)
        sim = PowerSystemSimulator(system, fast=fast)
        captures = attach_observers("uarch", sim, 0)
        result = sim.run_trace(CurrentTrace(segs), harvesting=False)
        return (result, sim.time, buffer_state(system.buffer),
                system.monitor.output_enabled, captures())

    def test_run_spanning_several_chunks(self, flushes):
        segs = [(0.010, 0.035), (0.0, 0.004)]
        ref = self.run(False, segs, 2.4)
        assert not flushes
        assert self.run(True, segs, 2.4) == ref
        # three full chunks, then a partial flush at each segment end
        assert flushes[:3] == [_SAMPLE_CHUNK] * 3
        assert len(flushes) == 5
        assert all(0 < n < _SAMPLE_CHUNK for n in flushes[3:])

    def test_brown_out_mid_chunk(self, flushes):
        segs = [(0.050, 0.2)]
        ref = self.run(False, segs, 1.9)
        fast = self.run(True, segs, 1.9)
        assert fast == ref
        assert fast[0].browned_out
        assert len(flushes) >= 2
        assert flushes[:-1] == [_SAMPLE_CHUNK] * (len(flushes) - 1)
        assert 0 < flushes[-1] < _SAMPLE_CHUNK


# -- a plant whose explicit branch update diverges ---------------------------

def diverging_system():
    """The golden catalog's CERA-0001 bank: r_esr * c_main ~ 5e-7 s puts
    ``max_stable_dt`` (~7e-8 s) below the 1 µs ``MIN_DT`` floor, so the
    branch update blows up to inf and then NaN within a few milliseconds.
    """
    system = capybara_power_system()
    system.buffer = TwoBranchSupercap(
        c_main=40.5e-3, r_esr=1.23e-5, c_redist=4.5e-3, r_redist=6.2e-5,
        c_decoupling=100e-6)
    system.rest_at(system.monitor.v_high)
    return system


class TestDivergingPlant:
    """Both loops clamp a non-finite state to 0 V the same way, so they
    agree on the brown-out instead of the kernel carrying a NaN on."""

    def test_fast_matches_reference_once_state_goes_non_finite(self):
        assert diverging_system().buffer.max_stable_dt \
            < PowerSystemSimulator.MIN_DT
        trace = CurrentTrace([(0.012, 0.05), (0.004, 0.10)])
        runs = []
        for fast in (True, False):
            system = diverging_system()
            sim = PowerSystemSimulator(system, fast=fast)
            result = sim.run_trace(trace, harvesting=False)
            runs.append((result, sim.time, buffer_state(system.buffer)))
        assert runs[0] == runs[1]
        assert runs[0][0].browned_out and runs[0][0].v_final == 0.0

    def test_isr_profile_matches_reference(self):
        """The ISR sampler on the kernel reads 0 V, not NaN (which
        ``Adc.convert`` would reject), exactly as on the reference."""
        model = capybara_power_system().characterize()
        calculator = CulpeoRCalculator(efficiency=model.efficiency,
                                       v_off=model.v_off,
                                       v_high=model.v_high)
        trace = CurrentTrace([(0.012, 0.05), (0.004, 0.10)])
        runs = []
        for fast in (True, False):
            sim = PowerSystemSimulator(diverging_system(), fast=fast)
            runtime = CulpeoIsrRuntime(sim, calculator)
            result = runtime.profile_task(trace, "t", harvesting=False)
            runs.append((result, sim.time, runtime.get_vsafe("t")))
        assert runs[0] == runs[1]

    def test_uarch_overflow_raises_on_both_loops(self):
        """Without decoupling the terminal voltage reaches inf, which
        ``Adc.convert`` cannot convert. Chunked delivery raises the same
        error after the same register updates; only the schedule differs,
        since the kernel raises at the chunk's flush."""
        runs = []
        for fast in (True, False):
            system = capybara_power_system()
            system.buffer = TwoBranchSupercap(
                c_main=40.5e-3, r_esr=3e-5, c_redist=4.5e-3,
                r_redist=6.2e-5, c_decoupling=0.0)
            system.rest_at(system.monitor.v_high)
            sim = PowerSystemSimulator(system, fast=fast)
            block = CulpeoUArchBlock()
            block.configure(True, sim.time)
            block.prepare(CaptureMode.MAX)
            block.sample(CaptureMode.MAX)
            sim.attach(block)
            with pytest.raises(OverflowError):
                sim.run_trace(CurrentTrace([(0.012, 0.05)]),
                              harvesting=False, stop_on_brownout=False,
                              settle_after=0.02)
            runs.append((block.read(), block._live_code))
        assert runs[0] == runs[1]
