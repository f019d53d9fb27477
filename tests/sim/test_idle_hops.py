"""Zero-load waits as one engine call: ``idle_hops`` and ``charge_until``.

``PowerSystemSimulator.idle_hops`` hands the fast kernel its hops lazily.
Between hops the simulator is live, so a generator may read the time,
the buffer and the monitor to choose its next hop or to stop. Each test
here drives one reading generator two ways, through one ``idle_hops``
call and through one ``idle`` call per hop, on both stepping loops, and
compares with ``==``: the final state, every hop boundary and every
observer capture. ``charge_until`` is compared with a transcription of
its per-chunk loop, one ``_advance`` call per 0.25 s chunk.
"""

import math

import pytest

from repro.power.capacitor import IdealCapacitor
from repro.power.harvester import ConstantPowerHarvester, TraceHarvester
from repro.power.reconfigurable import ReconfigurableBuffer, capybara_bank_set
from repro.power.system import capybara_power_system
from repro.sim.adc import Adc, SamplingObserver
from repro.sim.engine import PowerSystemSimulator
from repro.sim.faults import SupplyGlitch
from repro.sim.uarch import CaptureMode, CulpeoUArchBlock

#: Hop sizes a test wait cycles through: long, short and sub-step ones.
HOPS = (0.05, 0.013, 0.0007, 0.031, 0.002)
#: Bound on a test wait, so a wait that reads stale state fails, not hangs.
MAX_HOPS = 400


def build_system(kind, harvest, v_start=2.3):
    system = capybara_power_system()
    if kind == "ideal":
        system.buffer = IdealCapacitor(capacitance=45e-3, esr=2.0,
                                       voltage=v_start)
    elif kind == "reconfigurable":
        system.buffer = ReconfigurableBuffer(capybara_bank_set(),
                                             ("large", "small"))
        system.datasheet_capacitance = None
    if harvest == "constant":
        system.harvester = ConstantPowerHarvester(4e-3)
    elif harvest == "trace":
        # a recorded sky with a dark lull inside the wait
        system.harvester = TraceHarvester.from_pieces(
            [(6e-3, 0.021), (0.0, 0.026), (2.5e-3, 1.0)])
    system.rest_at(v_start)
    return system


def attach(which, sim):
    """Attach an observer set; returns a thunk snapshotting its captures."""
    now = sim.time
    if which == "none":
        return lambda: ()
    if which == "adc":
        sampler = SamplingObserver(Adc(bits=12), 1.7e-3,
                                   burden_current=72e-6)
        sampler.enable(now)
        sim.attach(sampler)
        return lambda: (sampler.v_first, sampler.v_last, sampler.v_min,
                        sampler.v_max, sampler.sample_count,
                        sampler._next_t)
    if which == "uarch":  # a lone block: the kernel's chunked path
        block = CulpeoUArchBlock()
        block.configure(True, now)
        block.prepare(CaptureMode.MIN)
        block.sample(CaptureMode.MIN)
        sim.attach(block)
        return lambda: (block.read(), block._live_code, block._next_t)
    glitch = SupplyGlitch(sim.system.monitor, [now + 0.004, now + 0.0301])
    sim.attach(glitch)
    return lambda: tuple(glitch.fired)


def buffer_state(buffer):
    inner = getattr(buffer, "_group", buffer)
    return (buffer.terminal_voltage, tuple(sorted(vars(inner).items())))


def live_wait(sim, t_end, v_stop, log):
    """Hops of varied size until ``t_end`` or until the voltage reaches
    ``v_stop``, both read live; logs ``(time, V_term, monitor on)`` at
    every hop boundary."""
    buffer = sim.system.buffer
    monitor = sim.system.monitor
    for k in range(MAX_HOPS):
        if sim.time >= t_end or buffer.terminal_voltage >= v_stop:
            return
        yield min(HOPS[k % len(HOPS)], t_end - sim.time)
        log.append((sim.time, buffer.terminal_voltage,
                    monitor.output_enabled))


def drive(system, observers, *, fast, batched, harvesting, t_end, v_rise,
          start_off=False):
    sim = PowerSystemSimulator(system, fast=fast)
    if start_off:
        system.monitor.force_enabled(False)
    captures = attach(observers, sim)
    log = []
    hops = live_wait(sim, t_end, system.buffer.terminal_voltage + v_rise,
                     log)
    if batched:
        sim.idle_hops(hops, harvesting=harvesting)
    else:
        for hop in hops:
            sim.idle(hop, harvesting=harvesting)
    return (sim.time, buffer_state(system.buffer),
            system.monitor.output_enabled, log, captures())


def four_runs(build, observers, **kwargs):
    """One idle_hops call and one idle per hop, on both loops."""
    return [drive(build(), observers, fast=fast, batched=batched, **kwargs)
            for fast in (True, False) for batched in (True, False)]


class TestIdleHopsMatchesIdlePerHop:
    @pytest.mark.parametrize("observers", ["none", "adc", "uarch", "glitch"])
    @pytest.mark.parametrize("harvest", ["constant", "trace", "off"])
    @pytest.mark.parametrize("kind", ["ideal", "two-branch",
                                      "reconfigurable"])
    def test_bit_exact(self, kind, harvest, observers):
        runs = four_runs(lambda: build_system(kind, harvest), observers,
                         harvesting=harvest != "off", t_end=0.1,
                         v_rise=0.02)
        assert runs[0] == runs[1] == runs[2] == runs[3]
        assert len(runs[0][3]) >= 3  # the wait took several hops

    def test_voltage_stop_is_read_live(self):
        runs = four_runs(lambda: build_system("two-branch", "constant"),
                         "none", harvesting=True, t_end=0.5, v_rise=1e-3)
        assert runs[0] == runs[1] == runs[2] == runs[3]
        t_final = runs[0][0]
        assert t_final < 0.5  # stopped on the voltage, not the clock

    def test_monitor_turns_on_mid_wait(self):
        """A device off just under V_high comes back on during the wait;
        every hop boundary sees the live monitor."""
        runs = four_runs(
            lambda: build_system("two-branch", "constant", v_start=2.54),
            "none", harvesting=True, t_end=1.0, v_rise=1.0, start_off=True)
        assert runs[0] == runs[1] == runs[2] == runs[3]
        enabled = [on for _, _, on in runs[0][3]]
        assert not enabled[0] and enabled[-1]

    def test_one_kernel_call_per_wait(self, monkeypatch):
        import repro.sim.engine as engine_mod
        calls = []
        kernel = engine_mod.advance_segments

        def counting(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(engine_mod, "advance_segments", counting)
        sim = PowerSystemSimulator(build_system("two-branch", "constant"))
        sim.idle_hops(iter(HOPS))
        assert len(calls) == 1
        sim.idle_hops(iter(()))  # no hop: no kernel call
        assert len(calls) == 1


class TestHopValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.01])
    @pytest.mark.parametrize("fast", [True, False])
    def test_bad_hop_raises_after_the_good_ones(self, bad, fast):
        sim = PowerSystemSimulator(build_system("two-branch", "constant"),
                                   fast=fast)
        with pytest.raises(ValueError):
            sim.idle_hops(iter([0.01, 0.02, bad, 0.03]))
        assert sim.time == 0.01 + 0.02


class TestNonFiniteWaits:
    """Each of these hung, or silently did nothing, before."""

    @pytest.fixture
    def sim(self):
        return PowerSystemSimulator(build_system("two-branch", "constant"))

    def test_idle_inf(self, sim):  # used to run forever
        with pytest.raises(ValueError):
            sim.idle(math.inf)

    def test_idle_nan(self, sim):  # used to advance nothing
        with pytest.raises(ValueError):
            sim.idle(math.nan)

    def test_charge_until_nan_target(self, sim):  # used to return 0.0
        with pytest.raises(ValueError):
            sim.charge_until(math.nan)

    def test_charge_until_nan_max_time(self, sim):  # used to have no deadline
        with pytest.raises(ValueError):
            sim.charge_until(2.0, max_time=math.nan)

    def test_idle_zero_still_advances_nothing(self, sim):
        v = sim.system.buffer.terminal_voltage
        assert sim.idle(0.0) == v and sim.time == 0.0


def charge_until_per_chunk(sim, v_target, *, max_time=3600.0,
                           harvesting=True):
    """``charge_until`` as one engine call per 0.25 s chunk: its loop
    before the chunks became one :meth:`idle_hops` call."""
    sim._v_min_seen = sim.system.buffer.terminal_voltage
    sim._energy_out = 0.0
    start = sim.time
    deadline = start + max_time
    while sim.system.buffer.terminal_voltage < v_target:
        if sim.time >= deadline:
            return None
        chunk = min(0.25, deadline - sim.time)
        v_before = sim.system.buffer.terminal_voltage
        sim._advance(0.0, chunk, harvesting, None)
        if sim.system.buffer.terminal_voltage <= v_before + 1e-9:
            if not harvesting:
                return None
            harvester = sim.system.harvester
            if type(harvester) is TraceHarvester:
                if harvester.max_power_after(sim.time) <= 0:
                    return None
            elif harvester.power_at(sim.time) <= 0:
                return None
    sim.system.monitor.observe(sim.system.buffer.terminal_voltage)
    return sim.time - start


def recharge_system(harvester, v_start):
    system = capybara_power_system(harvester=harvester)
    system.rest_at(v_start)
    return system


def dark_after(t_dark):
    return TraceHarvester.from_pieces([(8e-3, t_dark), (0.0, 1.0)])


def lull(t_from, t_to):
    return TraceHarvester.from_pieces([(8e-3, t_from), (0.0, t_to - t_from),
                                       (8e-3, 1.0)])


RECHARGES = {
    # name: (harvester, v_start, v_target, max_time, harvesting)
    "reachable": (ConstantPowerHarvester(10e-3), 2.0, 2.3, 3600.0, True),
    # the input booster stops at v_max, below the target: the buffer
    # stalls with power still coming in, so the wait runs to its deadline
    "unreachable": (ConstantPowerHarvester(10e-3), 2.4, 3.0, 7.3, True),
    "not-harvesting": (ConstantPowerHarvester(10e-3), 2.0, 2.3, 60.0,
                       False),
    "trace-goes-dark": (dark_after(1.1), 2.0, 2.5, 60.0, True),
    "trace-lull": (lull(0.6, 1.7), 2.0, 2.3, 60.0, True),
}


class TestChargeUntilMatchesPerChunkLoop:
    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("case", sorted(RECHARGES))
    def test_bit_exact(self, case, fast):
        harvester, v_start, v_target, max_time, harvesting = RECHARGES[case]
        runs = []
        for recharge in (PowerSystemSimulator.charge_until,
                         charge_until_per_chunk):
            system = recharge_system(harvester, v_start)
            sim = PowerSystemSimulator(system, fast=fast)
            elapsed = recharge(sim, v_target, max_time=max_time,
                               harvesting=harvesting)
            runs.append((elapsed, sim.time, buffer_state(system.buffer),
                         system.monitor.output_enabled, sim._v_min_seen,
                         sim._energy_out))
        assert runs[0] == runs[1]
        elapsed, t_final = runs[0][:2]
        if case in ("reachable", "trace-lull"):
            assert elapsed is not None and elapsed > 0.25
        else:
            assert elapsed is None and t_final >= 0.25
        if case == "unreachable":
            assert t_final == max_time
