"""Event ties and degenerate segments in the segment-algebra core.

The event handling's hard cases are exact coincidences: a brown-out
landing on a task boundary, a rail arrival landing on a source-segment
edge, a crossing landing on an interior compiled-interval boundary, and
segments that compile to nothing at all. Each is constructed by solving
for the coincidence (measuring the event time, then rebuilding the
trace so the boundary sits exactly there) rather than hoping a seed
produces one. The segalg runs are one-lane fleets; the stepping
fastpath is the cross-engine anchor. Reconfiguration ties run on the
scalar engines only (the fleet engines have no plan path), where the
reference loop must match the fastpath bit for bit.
"""

import numpy as np
import pytest

from repro.env.spec import EnvSpec
from repro.fleet.kernel import FleetRecorder, FleetState
from repro.fleet.spec import FleetBankSpec, FleetSpec
from repro.loads.trace import CurrentTrace
from repro.power.reconfig import ReconfigPlan, split_at_offsets
from repro.segalg.model import Bank
from repro.segalg.program import compile_segments
from repro.segalg.vector import advance_fleet
from repro.sim import fastpath
from repro.sim.engine import PowerSystemSimulator

V_OFF = 1.6
DRAW = 0.020
#: The repo's documented segalg-vs-stepping method tolerance (volts).
V_METHOD_TOL = 5e-3
#: Segalg-vs-stepping tolerance on brown-out times (s): the stepping
#: loops locate a crossing only to their adaptive step.
T_METHOD_TOL = 6e-2
WEAK = FleetSpec(devices=1, seed=0, harvest_power=0.1e-3)

#: A two-bank set pinned to start in the lone large configuration, so
#: every reconfiguration event below actually changes the rail.
RECONFIG_BANK = FleetBankSpec(
    banks=(("large", 33.75e-3, 2.5, 12e-9),
           ("small", 11.25e-3, 7.5, 4e-9)),
    configs=(("large",),))
MERGE = ("large", "small")


def _bank_spec(**overrides):
    kw = dict(devices=1, seed=0, harvest_power=3e-3, bank=RECONFIG_BANK)
    kw.update(overrides)
    return FleetSpec(**kw)


def _scalar_plan(spec, segments, plan, v0=2.2, fast=True):
    system = spec.parameters().device_system(0, rest_at=v0)
    sim = PowerSystemSimulator(system, fast=fast)
    result = sim.run_trace(CurrentTrace(list(segments)),
                           reconfig_plan=plan)
    return system, result


def _assert_reference_matches(spec, segments, plan, fast_result):
    """The reference loop replays the fastpath's plan run bit for bit."""
    _sys, ref = _scalar_plan(spec, segments, plan, fast=False)
    assert ref.v_final == fast_result.v_final
    assert ref.v_min == fast_result.v_min
    assert ref.brown_out_time == fast_result.brown_out_time


def _scalar(spec, segments, harvesting=True, stop_below=None, v0=2.2):
    """Device 0 on the scalar stepping fastpath."""
    system = spec.parameters().device_system(0)
    system.rest_at(v0)
    sim = PowerSystemSimulator(system)
    brown = fastpath.advance_segments(sim, list(segments), harvesting,
                                      stop_below)
    return sim, system, brown


def _fleet(spec, segments, harvesting=True, stop_below=None, v0=2.2):
    state = FleetState(spec.parameters(), v_start=v0)
    brown = advance_fleet(state, list(segments), harvesting, stop_below)
    return state, brown


class TestBrownOnTaskBoundary:
    """Brown-out within a float-eps of a task boundary.

    An *exact* tie sits on a strict-inequality razor edge (the crossing
    either grazes ``v_off`` or dips an ulp below), and re-compiling the
    trace with the boundary in place shifts the crossing by the
    partition sensitivity (~1e-4 s here — different subdivision,
    different per-interval linearization points). So the coincidence is
    pinned just past that bound on each side of the boundary — both
    sides must report the brown at the coincidence and stop the clock
    there, never run the trailing segment, never double-fire.
    """

    #: Boundary offset: above the measured partition sensitivity
    #: (~1.5e-3 s), far below the idle recovery scale.
    EPS = 4e-3

    def _t_star(self):
        _state, brown = _fleet(WEAK, [(DRAW, 30.0)], stop_below=V_OFF)
        t_star = float(brown[0])
        assert 0.0 < t_star < 30.0
        return t_star

    def test_crossing_a_hair_before_the_boundary(self):
        t_star = self._t_star()
        state, brown = _fleet(
            WEAK, [(DRAW, t_star + self.EPS), (0.0, 1.0)],
            stop_below=V_OFF)
        t_brown = float(brown[0])
        assert t_brown == pytest.approx(t_star, abs=self.EPS)
        assert t_brown < t_star + self.EPS  # fires before the boundary
        # the advance stops at the crossing — the trailing segment must
        # not run
        assert float(state.time[0]) == pytest.approx(t_brown, abs=1e-9)
        assert float(state.v_term[0]) == pytest.approx(V_OFF, abs=1e-6)

    def test_crossing_a_hair_after_the_boundary(self):
        t_star = self._t_star()
        # the draw continues across the boundary, so the crossing fires
        # in the *second* segment's first instants
        state, brown = _fleet(
            WEAK, [(DRAW, t_star - self.EPS), (DRAW, 1.0)],
            stop_below=V_OFF)
        t_brown = float(brown[0])
        assert t_brown == pytest.approx(t_star, abs=self.EPS)
        assert t_brown > t_star - self.EPS  # fires after the boundary
        assert float(state.time[0]) == pytest.approx(t_brown, abs=1e-9)

    def test_fleet_agrees_on_both_sides(self):
        # the stepping fastpath calls the same brown-out on both sides
        t_star = self._t_star()
        for segments in ([(DRAW, t_star + self.EPS), (0.0, 1.0)],
                         [(DRAW, t_star - self.EPS), (DRAW, 1.0)]):
            state, brown = _fleet(WEAK, segments, stop_below=V_OFF)
            _sim, _system, fast_brown = _scalar(WEAK, segments,
                                                stop_below=V_OFF)
            assert fast_brown is not None
            assert float(brown[0]) == pytest.approx(fast_brown,
                                                    abs=T_METHOD_TOL)
            assert not bool(state.alive[0])
            assert float(state.time[0]) == pytest.approx(t_star,
                                                         abs=self.EPS)


class TestZeroLengthSegments:
    PADDED = [(0.012, 0.05), (0.025, 0.0), (0.0, 0.2), (0.0, 0.0),
              (0.018, 0.03)]
    PLAIN = [(0.012, 0.05), (0.0, 0.2), (0.018, 0.03)]

    def test_scalar_results_identical(self):
        sim_a, sys_a, brown_a = _scalar(WEAK, self.PADDED)
        sim_b, sys_b, brown_b = _scalar(WEAK, self.PLAIN)
        assert brown_a is None and brown_b is None
        assert sys_a.buffer.terminal_voltage == \
            sys_b.buffer.terminal_voltage
        assert sim_a._energy_out == sim_b._energy_out
        assert sim_a.time == sim_b.time

    def test_fleet_results_identical(self):
        state_a, _ = _fleet(WEAK, self.PADDED)
        state_b, _ = _fleet(WEAK, self.PLAIN)
        assert float(state_a.v_term[0]) == float(state_b.v_term[0])
        assert float(state_a.energy[0]) == float(state_b.energy[0])

    def test_recorder_keeps_source_boundary_alignment(self):
        # one capture per *source* segment, dropped or not: a
        # zero-length segment contributes a repeated bound and hence a
        # duplicate checkpoint at the same time
        recorder = FleetRecorder([0])
        state = FleetState(WEAK.parameters(), v_start=2.2)
        advance_fleet(state, self.PADDED, True, None, recorder=recorder)
        assert len(recorder.rows) == len(self.PADDED)
        times = [row[1] for row in recorder.rows]
        assert times == pytest.approx([0.05, 0.05, 0.25, 0.25, 0.28])


class TestBalancedHarvest:
    def test_exact_balance_advances_full_duration(self):
        spec = FleetSpec(devices=1, seed=0, harvest_power=2e-3)
        v0 = 2.2
        duration = 5.0

        def drift(i_out):
            state, _ = _fleet(spec, [(i_out, duration)], v0=v0)
            return float(state.v_term[0]) - v0

        lo_i, hi_i = 0.0, 0.01
        assert drift(lo_i) > 0 and drift(hi_i) < 0
        for _ in range(60):
            mid = 0.5 * (lo_i + hi_i)
            if drift(mid) > 0:
                lo_i = mid
            else:
                hi_i = mid
        balanced = 0.5 * (lo_i + hi_i)

        # no regime boundary is ever crossed: the advance is a single
        # full-duration commit, not an event cascade
        state, brown = _fleet(
            spec, [(balanced, duration)], stop_below=V_OFF, v0=v0)
        assert np.isnan(float(brown[0]))
        assert float(state.time[0]) == pytest.approx(duration)
        assert float(state.v_term[0]) == pytest.approx(v0, abs=1e-6)

        sim, system, fast_brown = _scalar(
            spec, [(balanced, duration)], stop_below=V_OFF, v0=v0)
        assert fast_brown is None
        assert sim.time == pytest.approx(duration)
        assert system.buffer.terminal_voltage == pytest.approx(
            v0, abs=V_METHOD_TOL)


class TestCrossingOnCompiledBoundary:
    def test_brown_on_interior_subdivision_boundary(self):
        # the 20 mA draw subdivides under the dv budget; aim the brown
        # crossing at an interior compiled-interval edge by bisecting
        # the start voltage until the measured brown time sits on it
        spec = WEAK
        duration = 30.0
        bank = Bank.from_fleet_state(FleetState(spec.parameters()), True)
        program = compile_segments([(DRAW, duration)], bank)
        assert program.n > 4
        edges = np.cumsum(program.dur)

        def brown_at(v0):
            _state, brown = _fleet(spec, [(DRAW, duration)],
                                   stop_below=V_OFF, v0=v0)
            t = float(brown[0])
            assert not np.isnan(t)
            return t

        lo_v, hi_v = 1.7, 2.5
        # an interior edge strictly inside the reachable brown window
        reach_lo, reach_hi = brown_at(lo_v), brown_at(hi_v)
        inner = edges[(edges > reach_lo) & (edges < reach_hi)]
        assert len(inner) > 1
        target = float(inner[len(inner) // 2])
        for _ in range(60):
            mid = 0.5 * (lo_v + hi_v)
            if brown_at(mid) < target:
                lo_v = mid
            else:
                hi_v = mid
        v0 = 0.5 * (lo_v + hi_v)

        state, brown = _fleet(spec, [(DRAW, duration)], stop_below=V_OFF,
                              v0=v0)
        t_brown = float(brown[0])
        assert t_brown == pytest.approx(target, abs=1e-6)
        assert float(state.time[0]) == pytest.approx(t_brown, abs=1e-9)

        _sim, _system, fast_brown = _scalar(spec, [(DRAW, duration)],
                                            stop_below=V_OFF, v0=v0)
        assert fast_brown == pytest.approx(t_brown, abs=T_METHOD_TOL)

    def test_rail_arrival_on_source_boundary(self):
        spec = FleetSpec(devices=1, seed=0, harvest_power=6e-3)
        v0 = 2.2
        v_max = 2.56

        # time-to-rail via bisection on an idle recharge duration
        def v_after(d):
            state, _ = _fleet(spec, [(0.0, d)], v0=v0)
            return float(state.v_term[0])

        lo_d, hi_d = 1e-3, 60.0
        assert v_after(lo_d) < v_max and v_after(hi_d) == pytest.approx(
            v_max)
        for _ in range(60):
            mid = 0.5 * (lo_d + hi_d)
            if v_after(mid) < v_max:
                lo_d = mid
            else:
                hi_d = mid
        t_rail = hi_d

        # crossing lands (within float eps) on the boundary between the
        # two idle segments; the pin regime then holds the second one
        state, _ = _fleet(spec, [(0.0, t_rail), (0.0, 1.0)], v0=v0)
        assert float(state.v_term[0]) == pytest.approx(v_max)
        assert float(state.time[0]) == pytest.approx(t_rail + 1.0)

        sim, system, _ = _scalar(spec, [(0.0, t_rail), (0.0, 1.0)], v0=v0)
        assert system.buffer.terminal_voltage == pytest.approx(
            v_max, abs=V_METHOD_TOL)
        assert sim.time == pytest.approx(t_rail + 1.0)


class TestEnvBreakpointOnTaskBoundary:
    """An environment piece edge landing *exactly* on a task boundary.

    Env fleet columns live on a uniform ``grid_dt`` lattice, so a task
    segment ending on a lattice point makes the chunk boundary, the
    segment commit, and the harvest-power step all coincide at one
    float. Every engine must take the step exactly once — no stall on
    the zero-length sliver, no double-sampled piece — and the segalg
    path must stay within the method band of the stepping fastpath
    (which clamps its step at the same edge).
    """

    def _spec(self):
        env = EnvSpec(model="diurnal-solar", duration=8.0, seed=3,
                      peak_power=5e-3, period=8.0, daylight_fraction=1.0,
                      cloud_rate=6.0, grid_dt=0.25)
        return FleetSpec(devices=1, seed=0, esr_jitter=0.0,
                         capacitance_jitter=0.0, harvest_jitter=0.0,
                         eta_jitter=0.0, env=env)

    def _boundary_with_power_step(self, params):
        harvester = params.device_harvester(0)
        edges, powers = harvester.edges, harvester.powers
        for k in range(2, len(powers) - 4):
            if powers[k - 1] != powers[k]:
                return float(edges[k])
        raise AssertionError("no interior power step found")

    def test_scalar_takes_the_step_exactly_once(self):
        spec = self._spec()
        params = spec.parameters()
        t_b = self._boundary_with_power_step(params)
        segments = [(0.012, t_b), (0.0, 1.0)]

        sim, system, brown = _scalar(spec, segments)
        assert brown is None
        assert sim.time == pytest.approx(t_b + 1.0, abs=1e-9)

        # the reference loop clamps at the same edge, bit for bit
        ref_system = params.device_system(0)
        ref_system.rest_at(2.2)  # the _scalar helper's start voltage
        ref = PowerSystemSimulator(ref_system, fast=False)
        for current, duration in segments:
            assert ref._advance(current, duration, True, None) is None
        assert ref.time == sim.time
        assert ref_system.buffer.terminal_voltage == \
            system.buffer.terminal_voltage

    def test_fleet_agrees_on_the_tie(self):
        spec = self._spec()
        params = spec.parameters()
        t_b = self._boundary_with_power_step(params)
        segments = [(0.012, t_b), (0.0, 1.0)]

        _sim, system, _ = _scalar(spec, segments)
        state, brown = _fleet(spec, segments)
        assert np.isnan(float(brown[0]))
        assert float(state.time[0]) == pytest.approx(t_b + 1.0, abs=1e-9)
        assert float(state.v_term[0]) == pytest.approx(
            system.buffer.terminal_voltage, abs=V_METHOD_TOL)

    def test_splitting_the_task_at_the_edge_changes_nothing(self):
        # The boundary is already a chunk boundary; making it a *source*
        # boundary as well must not move the physics.
        spec = self._spec()
        params = spec.parameters()
        t_b = self._boundary_with_power_step(params)
        whole = [(0.012, t_b + 1.0)]
        split = [(0.012, t_b), (0.012, 1.0)]

        # Partition sensitivity bounds the drift: a new source boundary
        # re-cuts the compiled intervals (~1e-4 V here), nothing more.
        state_a, _ = _fleet(spec, whole)
        state_b, _ = _fleet(spec, split)
        assert float(state_b.v_term[0]) == pytest.approx(
            float(state_a.v_term[0]), abs=5e-4)


class TestReconfigOnBrownCrossing:
    """A reconfiguration event within a hair of the brown-out crossing.

    The documented semantics: a brown-out inside a sub-span cancels the
    remaining events (a dead device does not switch banks), while an
    event that fires first changes the plant — here merging in a charged
    reserve bank, which postpones the crossing. Both orderings are
    pinned just past the partition sensitivity on each side.
    """

    EPS = 4e-3

    def _t_star(self, spec):
        _sys, res = _scalar_plan(spec, [(DRAW, 30.0)], None)
        assert res.browned_out and 0.0 < res.brown_out_time < 30.0
        return res.brown_out_time

    def test_switch_a_hair_after_the_crossing_never_fires(self):
        spec = _bank_spec(harvest_power=0.1e-3)
        t_star = self._t_star(spec)
        plan = ReconfigPlan.build((t_star + self.EPS, MERGE))
        system, res = _scalar_plan(spec, [(DRAW, 30.0)], plan)
        assert res.browned_out
        assert res.brown_out_time == pytest.approx(t_star, abs=self.EPS)
        assert res.brown_out_time < t_star + self.EPS
        # the dead device kept its configuration
        assert system.buffer.config_id == frozenset({"large"})
        _assert_reference_matches(spec, [(DRAW, 30.0)], plan, res)

    def test_switch_a_hair_before_the_crossing_postpones_it(self):
        spec = _bank_spec(harvest_power=0.1e-3)
        t_star = self._t_star(spec)
        plan = ReconfigPlan.build((t_star - self.EPS, MERGE))
        system, res = _scalar_plan(spec, [(DRAW, 30.0)], plan)
        # the merge fired: the charged small bank pulls the rail back up
        assert system.buffer.config_id == frozenset(MERGE)
        assert res.browned_out  # the reserve only buys time
        assert res.brown_out_time > t_star + self.EPS
        _assert_reference_matches(spec, [(DRAW, 30.0)], plan, res)


class TestReconfigOnTaskBoundary:
    """An event landing exactly on a source-segment boundary.

    The splitter's contract: an offset on a boundary needs no cut, and
    every engine advances the identical spans. Physics must vary
    continuously as the event crosses the boundary.
    """

    EPS = 4e-3
    SEGMENTS = [(DRAW, 0.4), (0.0, 0.6)]

    def test_boundary_event_needs_no_split(self):
        spans = split_at_offsets(self.SEGMENTS, (0.4,))
        assert spans[0] == [(DRAW, 0.4)]
        assert spans[1] == [(0.0, 0.6)]

    def _both_engines(self, plan):
        spec = _bank_spec()
        sys_fast, res_fast = _scalar_plan(spec, self.SEGMENTS, plan)
        _assert_reference_matches(spec, self.SEGMENTS, plan, res_fast)
        return sys_fast, res_fast

    def test_event_exactly_on_the_boundary(self):
        plan = ReconfigPlan.build((0.4, MERGE))
        sys_fast, res_fast = self._both_engines(plan)
        assert not res_fast.browned_out
        assert sys_fast.buffer.config_id == frozenset(MERGE)

    def test_both_orderings_bracket_the_boundary(self):
        finals = []
        for t_e in (0.4 - self.EPS, 0.4, 0.4 + self.EPS):
            plan = ReconfigPlan.build((t_e, MERGE))
            _sys, res_fast = self._both_engines(plan)
            finals.append(res_fast.v_final)
        # moving the switch by 4 ms moves the endpoint by less
        assert max(finals) - min(finals) < 0.02


class TestReconfigOnEnvBreakpoint:
    """An event landing on an environment power-step edge that is also
    a task boundary — chunk boundary, segment commit, harvest step and
    bank switch all at one float. Both orderings must stay in band."""

    EPS = 4e-3

    def _spec(self):
        env = EnvSpec(model="diurnal-solar", duration=8.0, seed=3,
                      peak_power=5e-3, period=8.0, daylight_fraction=1.0,
                      cloud_rate=6.0, grid_dt=0.25)
        return FleetSpec(devices=1, seed=0, esr_jitter=0.0,
                         capacitance_jitter=0.0, harvest_jitter=0.0,
                         eta_jitter=0.0, env=env, bank=RECONFIG_BANK)

    def _boundary_with_power_step(self, params):
        harvester = params.device_harvester(0)
        edges, powers = harvester.edges, harvester.powers
        for k in range(2, len(powers) - 4):
            if powers[k - 1] != powers[k]:
                return float(edges[k])
        raise AssertionError("no interior power step found")

    def test_switch_on_the_power_step_both_orderings(self):
        spec = self._spec()
        t_b = self._boundary_with_power_step(spec.parameters())
        segments = [(0.012, t_b), (0.0, 1.0)]
        for t_e in (t_b - self.EPS, t_b, t_b + self.EPS):
            plan = ReconfigPlan.build((t_e, MERGE))
            sys_fast, res_fast = _scalar_plan(spec, segments, plan)
            assert not res_fast.browned_out
            assert sys_fast.buffer.config_id == frozenset(MERGE)
            _assert_reference_matches(spec, segments, plan, res_fast)


class TestReconfigOnRailArrival:
    """An event landing on the V_high rail arrival.

    Merging in a lower-rested bank pulls the pinned rail down (the dip
    must show in ``v_min`` — the documented post-switch accounting) and
    the pin regime then recovers. Both orderings: just before arrival
    (still charging) and just after (pinned)."""

    EPS = 4e-3

    def _t_rail(self, spec, v0=2.2):
        """(arrival time, pin level) — the pin overshoots nominal V_high
        by the hysteresis sliver, so the level is measured, not assumed."""
        def v_after(d):
            _sys, res = _scalar_plan(spec, [(0.0, d)], None, v0=v0)
            return res.v_final

        lo_d, hi_d = 1e-3, 60.0
        v_rail = v_after(hi_d)
        assert v_rail > 2.5
        assert v_after(lo_d) < v_rail - 1e-3
        for _ in range(60):
            mid = 0.5 * (lo_d + hi_d)
            if v_after(mid) < v_rail - 1e-9:
                lo_d = mid
            else:
                hi_d = mid
        return hi_d, v_rail

    def test_merge_on_the_rail_both_orderings(self):
        spec = _bank_spec(harvest_power=6e-3)
        t_rail, v_rail = self._t_rail(spec)
        segments = [(0.0, t_rail), (0.0, 1.0)]
        finals = []
        for t_e in (t_rail - self.EPS, t_rail, t_rail + self.EPS):
            plan = ReconfigPlan.build((t_e, MERGE))
            sys_fast, res_fast = _scalar_plan(spec, segments, plan)
            assert not res_fast.browned_out
            assert sys_fast.buffer.config_id == frozenset(MERGE)
            # the merge dip off the rail is visible to v_min accounting
            assert V_OFF < res_fast.v_min < v_rail - 0.02
            _assert_reference_matches(spec, segments, plan, res_fast)
            finals.append(res_fast.v_final)
        assert max(finals) - min(finals) < 0.02
