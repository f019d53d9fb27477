"""Waits as one rule: ``PowerSystemSimulator.wait`` and
``charge_until``.

A :class:`~repro.sim.fastpath.Wait` draws each hop, runs its optional
load, and checks after each whether to stop; the compiled kernel runs
the whole rule in C, the reference loop runs it with one
``_advance_reference`` call per hop or load segment. Each test here
runs a rule two ways, as one wait and as one engine call per action
(an ``idle`` per hop, a ``run_trace`` per load: the rule's hop size,
load choice and checks written out below), on both stepping loops, and
compares with ``==``: the exit, the final state, the load-time total
and every observer capture. ``charge_until`` is compared with a
transcription of its per-chunk loop, one ``_advance_span`` call per
0.25 s chunk.
"""

import math

import pytest

import repro.sim.fastpath as fastpath
from repro import obs
from repro.loads.trace import CurrentTrace
from repro.power.capacitor import IdealCapacitor
from repro.power.harvester import (
    CallableHarvester,
    ConstantPowerHarvester,
    TraceHarvester,
)
from repro.power.reconfigurable import ReconfigurableBuffer, capybara_bank_set
from repro.power.system import capybara_power_system
from repro.sim.adc import Adc, SamplingObserver
from repro.sim.engine import PowerSystemSimulator
from repro.sim.fastpath import BROWN, OFF, RISE, STALL, UNTIL, Wait
from repro.sim.faults import SupplyGlitch
from repro.sim.uarch import CaptureMode, CulpeoUArchBlock

#: Bound on a per-hop wait, so a transcription that never stops fails.
MAX_HOPS = 2000

#: Rules every matrix case runs, built from the start time and voltage.
RULES = {
    # many hops to the deadline; the floor draws the last one
    "until": lambda t0, v0: Wait(0.013, t0 + 0.0914, floor=1e-3),
    # every check armed: a rise (constant harvest), a stall (no harvest,
    # or the trace's dark lull), or the monitor forced off (the glitch)
    "checks": lambda t0, v0: Wait(0.0107, t0 + 0.5, rise=v0 + 0.01,
                                  stall=2, stop_off=True),
}


#: Loads a wait runs between hops: a light one the harvest repays, and a
#: heavy one that browns the plant out.
LIGHT = CurrentTrace([(2e-3, 0.013), (0.5e-3, 0.0071), (3e-3, 0.004)])
HEAVY = CurrentTrace([(0.04, 0.6), (1e-3, 0.01)])


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
    elif harvest == "python":
        # evaluated in Python at each step's start (the kernel's K_NEED)
        system.harvester = CallableHarvester(
            lambda t: 4e-3 * (1.0 + 0.5 * math.sin(40.0 * t)))
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


def idle_per_hop(sim, rule, harvesting, log):
    """``rule`` as one ``idle`` per hop, its hop size and its checks
    written out here: the loop a wait replaces. Logs ``(time, V_term,
    monitor on)`` after every hop and returns the exit."""
    buffer = sim.system.buffer
    monitor = sim.system.monitor
    flat = 0
    for _ in range(MAX_HOPS):
        left = rule.until - sim.time
        if rule.floor is not None:
            left = max(rule.floor, left)
        before = buffer.terminal_voltage
        sim.idle(min(rule.hop, left), harvesting=harvesting)
        v = buffer.terminal_voltage
        log.append((sim.time, v, monitor.output_enabled))
        if rule.stall is not None:
            flat = flat + 1 if v <= before + 1e-9 else 0
            if flat > rule.stall:
                return STALL
        if rule.rise is not None and not v < rule.rise:
            return RISE
        if sim.time >= rule.until:
            return UNTIL
        if rule.stop_off and not monitor.output_enabled:
            return OFF
    raise AssertionError("the per-hop wait did not stop")


def drive(system, observers, rule_of, *, fast, per_hop, harvesting,
          start_off=False):
    """Run one rule on a fresh simulator: ``(outcome, hop log)``; the
    log is empty for a wait, which returns to Python only at its end."""
    sim = PowerSystemSimulator(system, fast=fast)
    if start_off:
        system.monitor.force_enabled(False)
    captures = attach(observers, sim)
    rule = rule_of(sim.time, system.buffer.terminal_voltage)
    log = []
    if per_hop:
        exit_ = idle_per_hop(sim, rule, harvesting, log)
    else:
        exit_ = sim.wait(rule, harvesting=harvesting)
    return (exit_, sim.time, buffer_state(system.buffer),
            system.monitor.output_enabled, captures()), log


def four_runs(build, observers, rule_of, **kwargs):
    """The rule as one wait and as one idle per hop, on both loops:
    the four outcomes and the per-hop log (equal on both loops)."""
    runs = [drive(build(), observers, rule_of, fast=fast, per_hop=per_hop,
                  **kwargs)
            for fast in (True, False) for per_hop in (True, False)]
    outcomes = [outcome for outcome, _ in runs]
    assert runs[0][1] == runs[2][1]  # the per-hop runs' hop boundaries
    return outcomes, runs[0][1]


class TestIdleHopsMatchesIdlePerHop:
    @pytest.mark.parametrize("observers", ["none", "adc", "uarch", "glitch"])
    @pytest.mark.parametrize("harvest", ["constant", "trace", "off"])
    @pytest.mark.parametrize("kind", ["ideal", "two-branch",
                                      "reconfigurable"])
    def test_bit_exact(self, kind, harvest, observers):
        for name, rule_of in RULES.items():
            outcomes, log = four_runs(lambda: build_system(kind, harvest),
                                      observers, rule_of,
                                      harvesting=harvest != "off")
            assert outcomes[0] == outcomes[1] == outcomes[2] \
                == outcomes[3], name
            if name == "until":
                assert outcomes[0][0] == UNTIL and len(log) >= 7
                assert log[-1][0] - log[-2][0] == pytest.approx(1e-3)
            elif observers == "glitch":
                assert outcomes[0][0] == OFF
            else:
                assert outcomes[0][0] == (RISE if harvest == "constant"
                                          else STALL)
                assert len(log) >= 3

    def test_voltage_stop_is_read_live(self):
        outcomes, log = four_runs(
            lambda: build_system("two-branch", "constant"), "none",
            lambda t0, v0: Wait(0.013, t0 + 0.5, rise=v0 + 0.006),
            harvesting=True)
        assert outcomes[0] == outcomes[1] == outcomes[2] == outcomes[3]
        assert outcomes[0][0] == RISE and len(log) >= 2
        assert outcomes[0][1] < 0.5  # stopped on the voltage, not the clock

    def test_monitor_turns_on_mid_wait(self):
        """A device off just under V_high comes back on during the wait;
        the kernel carries the live monitor from hop to hop."""
        outcomes, log = four_runs(
            lambda: build_system("two-branch", "constant", v_start=2.54),
            "none", lambda t0, v0: Wait(0.013, t0 + 1.0),
            harvesting=True, start_off=True)
        assert outcomes[0] == outcomes[1] == outcomes[2] == outcomes[3]
        enabled = [on for _, _, on in log]
        assert not enabled[0] and enabled[-1]

    @pytest.mark.parametrize("fast", [True, False])
    def test_stall_exit(self, fast):
        """At rest with no harvest the voltage stays flat: a stall count
        of 2 ends the wait after its third flat hop."""
        for per_hop in (True, False):
            (exit_, t_final, *_), _ = drive(
                build_system("two-branch", "off"), "none",
                lambda t0, v0: Wait(0.013, t0 + 1.0, stall=2), fast=fast,
                per_hop=per_hop, harvesting=False)
            assert exit_ == STALL
            assert t_final == pytest.approx(3 * 0.013)

    def test_stall_counts_flat_hops_in_a_row(self):
        """Lit and dark hops alternate: a rising hop resets the count, so
        a stall count of 1 never fires."""
        def build():
            system = build_system("two-branch", "off")
            system.harvester = TraceHarvester.from_pieces(
                [(8e-3 * (k % 2 == 0), 0.013) for k in range(20)])
            return system

        outcomes, log = four_runs(
            build, "none", lambda t0, v0: Wait(0.013, t0 + 0.2, stall=1),
            harvesting=True)
        assert outcomes[0] == outcomes[1] == outcomes[2] == outcomes[3]
        assert outcomes[0][0] == UNTIL and len(log) >= 15

    @pytest.mark.parametrize("case", ["stall-then-rise", "rise-then-until",
                                      "until-then-off"])
    def test_checks_run_in_order(self, case):
        """After a hop on which two checks hold, the earlier one names
        the exit."""
        harvest, observers, rule_of, expected = {
            "stall-then-rise": ("off", "none", lambda t0, v0: Wait(
                0.013, t0 + 1.0, rise=v0, stall=0), STALL),
            "rise-then-until": ("constant", "none", lambda t0, v0: Wait(
                0.05, t0 + 0.05, rise=v0 + 1e-3), RISE),
            "until-then-off": ("constant", "glitch", lambda t0, v0: Wait(
                0.05, t0 + 0.05, stop_off=True), UNTIL),
        }[case]
        outcomes, log = four_runs(lambda: build_system("two-branch", harvest),
                                  observers, rule_of,
                                  harvesting=harvest != "off")
        assert outcomes[0] == outcomes[1] == outcomes[2] == outcomes[3]
        assert outcomes[0][0] == expected and len(log) == 1

    def test_one_kernel_call_per_wait(self, monkeypatch):
        """An unobserved wait of many hops is one ``advance_segments``
        call and enters the C body once."""
        import repro.sim.engine as engine_mod
        calls = []
        advance = engine_mod.advance_segments
        monkeypatch.setattr(
            engine_mod, "advance_segments",
            lambda *args: calls.append(1) or advance(*args))
        kernel = CountingKernel(fastpath._load())
        monkeypatch.setattr(fastpath, "_kernel", kernel)
        sim = PowerSystemSimulator(build_system("two-branch", "constant"))
        assert sim.wait(Wait(0.013, 2.0)) == UNTIL
        assert sim.time >= 2.0  # about 154 hops
        assert len(calls) == 1 and kernel.waits == 1

    def test_a_hop_without_a_step_returns_to_python(self, monkeypatch):
        """A hop too short for a step leaves the C body before the next,
        so a wait that cannot end stays interruptible."""
        kernel = CountingKernel(fastpath._load())
        monkeypatch.setattr(fastpath, "_kernel", kernel)
        sim = PowerSystemSimulator(build_system("two-branch", "constant"))
        sim.idle(0.01)
        t0 = sim.time
        assert sim.wait(Wait(0.05, t0 + 1e-13, stall=2)) == STALL
        assert sim.time == t0 and kernel.waits == 3


def wait_per_action(sim, rule, harvesting, log):
    """``rule``, which has a load, as one engine call per action: a
    ``run_trace`` of the load (stopping at V_off) when the terminal
    voltage is not below the rise level, else one ``idle`` hop; then the
    rule's checks, written out here. Adds each load's time to the rule's
    total, logs ``(action, time, V_term, monitor on)`` after every
    action and returns the exit."""
    buffer = sim.system.buffer
    monitor = sim.system.monitor
    for _ in range(MAX_HOPS):
        if not buffer.terminal_voltage < rule.rise:
            run = sim.run_trace(rule.load, harvesting=harvesting)
            rule.load_time += sim.time - run.start_time
            log.append(("load", sim.time, buffer.terminal_voltage,
                        monitor.output_enabled))
            if run.browned_out:
                return BROWN
        else:
            sim.idle(rule.next_hop(sim.time), harvesting=harvesting)
            log.append(("hop", sim.time, buffer.terminal_voltage,
                        monitor.output_enabled))
        if sim.time >= rule.until:
            return UNTIL
        if rule.stop_off and not monitor.output_enabled:
            return OFF
    raise AssertionError("the per-action wait did not stop")


def drive_load(case, *, fast, per_action):
    """One ``LOAD_CASES`` rule on a fresh simulator: ``(outcome, log)``."""
    kind, harvest, observers, rule_of, _, start_off = LOAD_CASES[case]
    system = build_system(kind, harvest)
    sim = PowerSystemSimulator(system, fast=fast)
    if start_off:
        system.monitor.force_enabled(False)
    captures = attach(observers, sim)
    rule = rule_of(sim.time, system.buffer.terminal_voltage)
    log = []
    if per_action:
        exit_ = wait_per_action(sim, rule, harvest != "off", log)
    else:
        exit_ = sim.wait(rule, harvesting=harvest != "off")
    return (exit_, sim.time, rule.load_time.hex(),
            buffer_state(system.buffer), system.monitor.output_enabled,
            captures()), log


#: name: (buffer, harvest, observers, rule of (t0, V0), exit, start
#: with the monitor off)
LOAD_CASES = {
    # loads and hops alternate up to the deadline
    "until": ("two-branch", "constant", "none", lambda t0, v0: Wait(
        0.013, t0 + 0.4, floor=1e-3, rise=v0 + 0.002, load=LIGHT,
        stop_off=True, load_time=0.25), UNTIL, False),
    # due samples (with a burden) interrupt the load's segments
    "until-sampled": ("two-branch", "constant", "adc", lambda t0, v0: Wait(
        0.013, t0 + 0.3, floor=1e-3, rise=v0 + 0.001, load=LIGHT,
        stop_off=True), UNTIL, False),
    # a harvester only Python evaluates interrupts every load step
    "until-python-harvest": ("two-branch", "python", "none",
                             lambda t0, v0: Wait(
                                 0.013, t0 + 0.3, floor=1e-3,
                                 rise=v0 + 0.002, load=LIGHT,
                                 stop_off=True), UNTIL, False),
    # the chunked µArch path and a recorded sky under an ideal buffer
    "until-ideal-uarch": ("ideal", "trace", "uarch", lambda t0, v0: Wait(
        0.0107, t0 + 0.2, rise=v0 - 0.004, load=LIGHT, load_time=1.5),
        UNTIL, False),
    # a glitch inside the first load turns the monitor off
    "off": ("two-branch", "constant", "glitch", lambda t0, v0: Wait(
        0.013, t0 + 0.4, floor=1e-3, rise=v0, load=LIGHT, stop_off=True,
        load_time=0.5), OFF, False),
    # hops up to the rise level, then the heavy load browns out
    "brown": ("two-branch", "constant", "none", lambda t0, v0: Wait(
        0.05, t0 + 30.0, floor=1e-3, rise=v0 + 0.003, load=HEAVY,
        stop_off=True, load_time=3.0), BROWN, False),
    # a load due with the monitor off browns out at once, as a task
    # started then does
    "brown-at-start": ("two-branch", "constant", "none", lambda t0, v0: Wait(
        0.013, t0 + 0.4, rise=v0, load=LIGHT, load_time=0.5), BROWN, True),
}


class TestWaitWithALoadMatchesPerAction:
    @pytest.mark.parametrize("case", sorted(LOAD_CASES))
    def test_bit_exact(self, case):
        runs = [drive_load(case, fast=fast, per_action=per_action)
                for fast in (True, False) for per_action in (True, False)]
        outcomes = [outcome for outcome, _ in runs]
        assert outcomes[0] == outcomes[1] == outcomes[2] == outcomes[3]
        log = runs[0][1]
        assert log == runs[2][1]  # the per-action runs on both loops
        exit_, t_end, load_time = outcomes[0][:3]
        assert exit_ == LOAD_CASES[case][4]
        actions = [action for action, *_ in log]
        seed = LOAD_CASES[case][3](0.0, 2.3).load_time
        if case == "brown-at-start":
            # no step taken, the total gains 0.0
            assert actions == ["load"] and t_end == 0.0
            assert load_time == seed.hex()
            return
        assert float.fromhex(load_time) > seed
        if exit_ == UNTIL:
            assert "hop" in actions and actions.count("load") >= 2
        if exit_ == BROWN:
            # stopped inside the heavy load, at the brown-out
            assert actions[-1] == "load" and "hop" in actions
            assert log[-1][2] < 1.6

    def test_one_kernel_call_per_wait(self, monkeypatch):
        """An unobserved wait of many hops and loads enters the C body
        once."""
        kernel = CountingKernel(fastpath._load())
        monkeypatch.setattr(fastpath, "_kernel", kernel)
        system = build_system("two-branch", "constant")
        sim = PowerSystemSimulator(system)
        v0 = system.buffer.terminal_voltage
        rule = Wait(0.013, 2.0, floor=1e-3, rise=v0 + 0.002, load=LIGHT,
                    stop_off=True)
        assert sim.wait(rule) == UNTIL
        assert kernel.waits == 1
        assert rule.load_time > 0.5  # dozens of loads

    @pytest.mark.parametrize("fast", [True, False])
    def test_a_brown_out_reaches_obs(self, fast):
        """A load that browns out counts ``sim.brownouts`` and emits
        ``power.brownout`` at the brown-out, as ``run_trace`` does."""
        system = build_system("two-branch", "constant")
        sim = PowerSystemSimulator(system, fast=fast)
        rule = Wait(0.05, 30.0, rise=2.0, load=HEAVY)
        with obs.observe(tracer=obs.Tracer()) as state:
            assert sim.wait(rule) == BROWN
            events = state.tracer.drain()
        counters = state.metrics.snapshot()["counters"]
        assert counters["sim.brownouts"] == 1
        assert "sim.traces" not in counters
        brownouts = [e for e in events if e["event"] == "power.brownout"]
        assert [(e["t_sim"], e["v_off"]) for e in brownouts] \
            == [(sim.time, system.monitor.v_off)]


class CountingKernel:
    """The loaded kernel library, counting entries into its wait."""

    def __init__(self, lib):
        self.lib = lib
        self.waits = 0

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def repro_wait(self, state):
        self.waits += 1
        return self.lib.repro_wait(state)


class TestHopValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.01])
    @pytest.mark.parametrize("fast", [True, False])
    def test_bad_hop_raises_after_the_good_ones(self, bad, fast):
        """The rule rejects a bad hop when it is made: the waits before
        it keep their hops, and nothing more runs."""
        sim = PowerSystemSimulator(build_system("two-branch", "constant"),
                                   fast=fast)
        assert sim.wait(Wait(0.01, 0.03)) == UNTIL
        t = sim.time
        with pytest.raises(ValueError):
            sim.wait(Wait(bad, 1.0))
        assert sim.time == t and t >= 0.03

    @pytest.mark.parametrize("kwargs", [
        dict(until=math.nan), dict(floor=0.0), dict(floor=math.nan),
        dict(floor=math.inf), dict(rise=math.nan), dict(stall=-1),
        dict(stall=1.5), dict(load=LIGHT),
        dict(load=LIGHT, rise=2.0, stall=3)],
        ids=["until-nan", "floor-zero", "floor-nan", "floor-inf",
             "rise-nan", "stall-negative", "stall-fraction",
             "load-without-rise", "load-with-stall"])
    def test_bad_rule_raises(self, kwargs):
        args = dict(until=1.0) | kwargs
        with pytest.raises(ValueError):
            Wait(0.05, args.pop("until"), **args)

    def test_infinite_levels_are_waits_without_that_stop(self):
        sim = PowerSystemSimulator(build_system("two-branch", "constant"))
        assert sim.wait(Wait(0.05, 0.2, rise=math.inf)) == UNTIL
        v = sim.system.buffer.terminal_voltage
        assert sim.wait(Wait(0.05, math.inf, rise=v + 0.01)) == RISE


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
    before the chunks became one wait."""
    sim._v_min_seen = sim.system.buffer.terminal_voltage
    sim._energy_out = 0.0
    start = sim.time
    deadline = start + max_time
    while sim.system.buffer.terminal_voltage < v_target:
        if sim.time >= deadline:
            return None
        chunk = min(0.25, deadline - sim.time)
        v_before = sim.system.buffer.terminal_voltage
        sim._advance_span(((0.0, chunk),), harvesting, None)
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

    @pytest.mark.parametrize("fast", [True, False])
    def test_a_deadline_closer_than_a_step_ends_the_recharge(
            self, fast, monkeypatch):
        """A chunk shorter than a step's 1e-12 s threshold takes no
        step, so a recharge whose deadline is that close used to wait on
        forever while input lay ahead (a scheduler's recovery can end
        there, one rounding short of its deadline). It is a missed
        deadline."""
        system = recharge_system(ConstantPowerHarvester(10e-3), 2.0)
        sim = PowerSystemSimulator(system, fast=fast)
        sim.idle(0.01)
        t, state = sim.time, buffer_state(system.buffer)
        calls = []
        advance = sim._advance_span

        def bounded(*args):
            calls.append(1)
            assert len(calls) < 10, "the recharge does not end"
            return advance(*args)

        monkeypatch.setattr(sim, "_advance_span", bounded)
        assert sim.charge_until(2.3, max_time=5e-13) is None
        assert sim.time == t and buffer_state(system.buffer) == state
        assert len(calls) == 1
