"""Simulation engine: integration accuracy, brown-out semantics, observers."""

import pytest

from repro.loads.trace import CurrentTrace
from repro.power.harvester import ConstantPowerHarvester
from repro.sim.engine import PowerSystemSimulator
from repro.sim.recorder import TraceRecorder
from repro.sim.uarch import CaptureMode, CulpeoUArchBlock
from repro.units import capacitor_energy


@pytest.fixture
def engine(system):
    return PowerSystemSimulator(system)


class TestRunTrace:
    def test_completes_easy_load_from_full(self, engine):
        result = engine.run_trace(CurrentTrace.constant(0.005, 0.010),
                                  harvesting=False)
        assert result.completed
        assert not result.browned_out
        assert result.v_min < result.v_start

    def test_brownout_on_heavy_load_from_low(self, system):
        system.rest_at(1.7)
        engine = PowerSystemSimulator(system)
        result = engine.run_trace(CurrentTrace.constant(0.050, 0.100),
                                  harvesting=False)
        assert result.browned_out
        assert not result.completed
        assert result.brown_out_time is not None
        assert result.v_min < 1.6

    def test_brownout_disables_monitor(self, system):
        system.rest_at(1.7)
        engine = PowerSystemSimulator(system)
        engine.run_trace(CurrentTrace.constant(0.050, 0.100),
                         harvesting=False)
        assert not system.monitor.output_enabled

    def test_run_refused_when_device_off(self, system):
        system.rest_at(1.0)
        engine = PowerSystemSimulator(system)
        result = engine.run_trace(CurrentTrace.constant(0.001, 0.001))
        assert result.browned_out
        assert "disabled" in result.notes[0]

    def test_settle_after_reveals_rebound(self, engine):
        result = engine.run_trace(CurrentTrace.constant(0.050, 0.050),
                                  harvesting=False, settle_after=1.0)
        assert result.esr_rebound > 0.05

    def test_no_settle_no_rebound_measured(self, engine):
        result = engine.run_trace(CurrentTrace.constant(0.050, 0.050),
                                  harvesting=False, settle_after=0.0)
        assert result.v_final == pytest.approx(result.v_min, abs=0.02)

    def test_energy_accounting_close_to_analytic(self, engine):
        trace = CurrentTrace.constant(0.010, 0.100)
        result = engine.run_trace(trace, harvesting=False, settle_after=2.0)
        system = engine.system
        e_stored_drop = (capacitor_energy(system.buffer.total_capacitance,
                                          result.v_start)
                         - system.buffer.stored_energy)
        # Buffer energy change should match the integrated draw within a
        # few percent (integration plus ESR loss bookkeeping).
        assert result.energy_from_buffer == pytest.approx(e_stored_drop,
                                                          rel=0.10)

    def test_time_advances_by_trace_duration(self, engine):
        trace = CurrentTrace.constant(0.005, 0.123)
        engine.run_trace(trace, harvesting=False)
        assert engine.time == pytest.approx(0.123, abs=1e-6)

    def test_stop_on_brownout_false_runs_through(self, system):
        system.rest_at(1.7)
        engine = PowerSystemSimulator(system)
        result = engine.run_trace(CurrentTrace.constant(0.050, 0.100),
                                  harvesting=False, stop_on_brownout=False)
        assert result.completed
        assert engine.time == pytest.approx(0.100, abs=1e-6)


class TestIdleAndCharge:
    def test_idle_without_harvest_holds_voltage(self, engine):
        v0 = engine.system.buffer.terminal_voltage
        engine.idle(5.0, harvesting=False)
        assert engine.system.buffer.terminal_voltage == pytest.approx(
            v0, abs=1e-3)

    def test_idle_with_harvest_charges(self, system):
        system.rest_at(2.0)
        powered = system.with_harvester(ConstantPowerHarvester(5e-3))
        engine = PowerSystemSimulator(powered)
        engine.idle(5.0, harvesting=True)
        assert powered.buffer.terminal_voltage > 2.0

    def test_charging_stops_at_v_high(self, system):
        powered = system.with_harvester(ConstantPowerHarvester(50e-3))
        powered.rest_at(2.5)
        engine = PowerSystemSimulator(powered)
        engine.idle(30.0, harvesting=True)
        assert powered.buffer.terminal_voltage == pytest.approx(2.56,
                                                                abs=0.01)

    def test_charge_until_returns_elapsed(self, system):
        powered = system.with_harvester(ConstantPowerHarvester(10e-3))
        powered.rest_at(1.6)
        engine = PowerSystemSimulator(powered)
        elapsed = engine.charge_until(2.56)
        # E = C/2 (2.56^2 - 1.6^2) ~ 95 mJ at 8 mW effective: ~12 s.
        assert elapsed == pytest.approx(12.0, rel=0.2)
        assert powered.monitor.output_enabled

    def test_charge_until_times_out_without_power(self, system):
        system.rest_at(1.6)
        engine = PowerSystemSimulator(system)
        assert engine.charge_until(2.56, max_time=2.0) is None

    def test_charge_until_validation(self, engine):
        with pytest.raises(ValueError):
            engine.charge_until(0.0)

    def test_idle_validation(self, engine):
        with pytest.raises(ValueError):
            engine.idle(-1.0)

    def test_solar_harvester_charges_only_in_daylight(self, system):
        from repro.power.harvester import SolarHarvester
        # Period 100 s: power flows for the first half-cycle only.
        sunny = system.with_harvester(SolarHarvester(peak=5e-3,
                                                     period=100.0))
        sunny.rest_at(2.0)
        engine = PowerSystemSimulator(sunny)
        engine.idle(40.0, harvesting=True)
        after_day = sunny.buffer.terminal_voltage
        assert after_day > 2.0
        engine.idle(40.0, harvesting=True)  # now in the dark half
        assert sunny.buffer.terminal_voltage == pytest.approx(after_day,
                                                              abs=2e-3)


class TestDischargeTo:
    def test_reaches_target_at_rest(self, engine):
        engine.discharge_to(2.0)
        assert engine.system.buffer.terminal_voltage == pytest.approx(2.0)
        assert engine.system.buffer.open_circuit_voltage == pytest.approx(2.0)

    def test_validation(self, engine):
        nan, inf = float("nan"), float("inf")
        # A NaN target used to return at once and a non-positive bleed
        # to idle or charge until max_time (forever, were it infinite).
        for bad in (dict(v_target=0.0), dict(v_target=nan),
                    dict(v_target=inf), dict(bleed_current=0.0),
                    dict(bleed_current=-0.010), dict(bleed_current=nan),
                    dict(bleed_current=inf), dict(max_time=-1.0),
                    dict(max_time=nan), dict(max_time=inf)):
            with pytest.raises(ValueError):
                engine.discharge_to(**{"v_target": 2.0, **bad})
        assert engine.time == 0.0
        assert engine.system.buffer.terminal_voltage > 2.0


class _CountingObserver:
    """Samples every period; counts calls; no burden."""

    def __init__(self, period):
        self.period = period
        self.samples = []
        self._next = 0.0

    @property
    def burden_current(self):
        return 0.0

    def next_event_time(self):
        return self._next

    def on_sample(self, t, v):
        self.samples.append((t, v))
        self._next = t + self.period


class TestObservers:
    def test_observer_sampled_on_schedule(self, system):
        engine = PowerSystemSimulator(system)
        obs = _CountingObserver(0.010)
        engine.attach(obs)
        engine.run_trace(CurrentTrace.constant(0.005, 0.100),
                         harvesting=False)
        assert len(obs.samples) == pytest.approx(11, abs=1)
        times = [t for t, _ in obs.samples]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(abs(g - 0.010) < 1e-9 for g in gaps)

    def test_observer_burden_loads_system(self, system):
        class Burden(_CountingObserver):
            @property
            def burden_current(self):
                return 0.005

        baseline = system.copy()
        engine_a = PowerSystemSimulator(baseline)
        engine_a.run_trace(CurrentTrace.constant(0.001, 0.5),
                           harvesting=False, settle_after=1.0)

        loaded = system.copy()
        engine_b = PowerSystemSimulator(loaded)
        engine_b.attach(Burden(0.010))
        engine_b.run_trace(CurrentTrace.constant(0.001, 0.5),
                           harvesting=False, settle_after=1.0)
        assert loaded.buffer.terminal_voltage < \
            baseline.buffer.terminal_voltage

    def test_burden_switched_in_on_sample_matches_reference(self, system):
        """The kernel re-reads the summed burden after every due step, so
        an observer that switches its burden inside ``on_sample`` loads
        the rail exactly as it does on the reference stepper."""
        class Toggling(_CountingObserver):
            @property
            def burden_current(self):
                return 0.004 if len(self.samples) % 2 else 0.0

        runs = []
        for fast in (True, False):
            engine = PowerSystemSimulator(system.copy(), fast=fast)
            obs = Toggling(0.003)
            engine.attach(obs)
            result = engine.run_trace(CurrentTrace.constant(0.002, 0.050),
                                      harvesting=False, settle_after=0.010)
            runs.append((result, engine.time,
                         engine.system.buffer.terminal_voltage,
                         tuple(obs.samples)))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("load", [0.0, 0.050])
    def test_observer_due_now_samples_before_the_first_step(self, system,
                                                            load):
        """``on_sample`` runs at the exact due time, even when that is the
        instant the engine is called: on both loops the first sample is
        at t = 0 with the start voltage, and the loops agree bit for bit.
        """
        runs = []
        for fast in (True, False):
            trial = system.copy()
            trial.rest_at(2.3)
            engine = PowerSystemSimulator(trial, fast=fast)
            recorder = TraceRecorder(2e-3)
            recorder.start(0.0)
            engine.attach(recorder)
            if load:
                engine.run_trace(CurrentTrace.constant(load, 0.010),
                                 harvesting=False)
            else:
                engine.idle(0.2, harvesting=False)
            assert recorder._times[0] == 0.0
            assert recorder._volts[0] == 2.3
            runs.append((tuple(recorder._times), tuple(recorder._volts),
                         engine.time, trial.buffer.terminal_voltage))
        assert runs[0] == runs[1]

    def test_uarch_block_due_now_captures_the_start_voltage(self, system):
        """The chunked µArch path keeps the rule: a MAX capture armed due
        at the call's first instant holds the start voltage's code, which
        the load's ESR drop never reaches again."""
        runs = []
        for fast in (True, False):
            trial = system.copy()
            trial.rest_at(2.3)
            engine = PowerSystemSimulator(trial, fast=fast)
            block = CulpeoUArchBlock()
            block.configure(True, -0.5 * block.clock_period)
            block.prepare(CaptureMode.MAX)
            block.sample(CaptureMode.MAX)
            engine.attach(block)
            engine.run_trace(CurrentTrace.constant(0.050, 0.010),
                             harvesting=False)
            assert block.read() == block.adc.convert(2.3)
            assert block._live_code < block.read()
            runs.append((block.read(), block._live_code, block._next_t,
                         engine.time, trial.buffer.terminal_voltage))
        assert runs[0] == runs[1]

    def test_detach(self, system):
        engine = PowerSystemSimulator(system)
        obs = _CountingObserver(0.010)
        engine.attach(obs)
        engine.detach(obs)
        engine.run_trace(CurrentTrace.constant(0.005, 0.050),
                         harvesting=False)
        assert not obs.samples

    def test_attach_is_idempotent(self, system):
        engine = PowerSystemSimulator(system)
        obs = _CountingObserver(0.010)
        engine.attach(obs)
        engine.attach(obs)
        assert engine.observers.count(obs) == 1
