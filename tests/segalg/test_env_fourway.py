"""Equivalence chain on environment-generated harvest traces.

The environment engine lowers parametric skies into the same
piecewise-constant :class:`TraceHarvester` every engine consumes, so
the permanent equivalence chain must hold unchanged on env-driven
fleets: reference ≡ fastpath bit-exactly, fastpath ≡ fleet segalg at
method tolerance. Dense dawn/dusk ramps (a short-period diurnal sky on
a fine grid) stress the edge handling:
every trace edge is a step clamp in the stepping loops and a chunk
boundary in the vector path.
"""

import numpy as np
import pytest

from repro.env.spec import EnvSpec
from repro.fleet.kernel import FleetState
from repro.fleet.spec import FleetSpec
from repro.loads.trace import CurrentTrace
from repro.segalg.vector import advance_fleet
from repro.sim import fastpath
from repro.sim.engine import PowerSystemSimulator

#: Stepping-vs-segalg method tolerance (V). Trace-driven harvests sit
#: inside the documented band: the residual is the per-segment commit
#: bias under load, not the harvest sampling (both methods are exact
#: on piecewise-constant power).
V_METHOD_TOL = 5e-3
T_METHOD_TOL = 6e-2
E_METHOD_TOL = 2e-2

#: A jittered fleet lane vs the same device run alone: same piece
#: edges, but the fleet compiles one program for every lane — a small
#: partition gap.
V_PATH_TOL = 1e-3

MIXED = [
    (0.012, 0.05), (0.0, 0.2), (0.025, 0.02), (0.0, 0.5),
    (0.008, 0.10), (0.0, 0.05), (0.018, 0.03), (0.0, 0.3),
]

#: Long idle tail: the workload outlives the trace's bright stretch so
#: the engines also agree on the hold-last-piece semantics.
SPARSE = [(0.015, 0.8), (0.0, 12.0), (0.020, 0.5), (0.0, 8.0)]


def _env_fleet_spec(env: EnvSpec, **overrides) -> FleetSpec:
    base = dict(devices=1, seed=0, esr_jitter=0.0,
                capacitance_jitter=0.0, harvest_jitter=0.0,
                eta_jitter=0.0, env=env)
    base.update(overrides)
    return FleetSpec(**base)


def _run_scalar(params, segments, harvesting, stop_below, *, mode,
                v0=None):
    system = params.device_system(0)
    if v0 is not None:
        system.rest_at(v0)
    sim = PowerSystemSimulator(system, fast=False)
    trace = CurrentTrace([(float(c), float(d)) for c, d in segments])
    if mode == "reference":
        brown = None
        for current, duration in trace.segments():
            hit = sim._advance_reference(current, duration, harvesting,
                                         stop_below)
            if hit is not None:
                brown = hit
                break
    else:
        assert fastpath.supported(system)
        brown = fastpath.advance_segments(sim, trace.segments(),
                                          harvesting, stop_below)
    return dict(
        v_term=system.buffer.terminal_voltage,
        v_min=sim._v_min_seen,
        energy=sim._energy_out,
        time=sim.time,
        brown=brown,
    )


def _fourway(spec, segments, harvesting=True, stop_below=None, v0=None):
    params = spec.parameters()
    assert params.harvest_edges is not None  # env columns present
    ref = _run_scalar(params, segments, harvesting, stop_below,
                      mode="reference", v0=v0)
    fast = _run_scalar(params, segments, harvesting, stop_below,
                       mode="fastpath", v0=v0)
    state = FleetState(params, v_start=v0)
    brown = advance_fleet(state, list(segments), harvesting, stop_below)

    # reference ≡ fastpath: bit-exact, env trace or not.
    assert fast["v_term"] == ref["v_term"]
    assert fast["v_min"] == ref["v_min"]
    assert fast["energy"] == ref["energy"]
    assert (fast["brown"] is None) == (ref["brown"] is None)

    # fastpath ≡ fleet segalg: method tolerance.
    assert float(state.v_term[0]) == pytest.approx(fast["v_term"],
                                                   abs=V_METHOD_TOL)
    assert float(state.v_min[0]) == pytest.approx(fast["v_min"],
                                                  abs=V_METHOD_TOL)
    assert float(state.energy[0]) == pytest.approx(
        fast["energy"], rel=E_METHOD_TOL, abs=1e-6)
    if fast["brown"] is None:
        assert np.isnan(float(brown[0]))
    else:
        assert float(brown[0]) == pytest.approx(fast["brown"],
                                                abs=T_METHOD_TOL)
    return ref, fast, state, brown


class TestEnvFourWay:
    @pytest.mark.parametrize("model", ["diurnal-solar", "kinetic-burst",
                                       "thermal-gradient"])
    def test_each_model(self, model):
        env = EnvSpec(model=model, duration=30.0, seed=2,
                      peak_power=4e-3, period=24.0, cloud_rate=5.0,
                      burst_rate=0.3)
        _fourway(_env_fleet_spec(env), MIXED)

    @pytest.mark.parametrize("mppt", ["constant-voltage", "voc-fraction",
                                      "perturb-observe"])
    def test_each_front_end(self, mppt):
        env = EnvSpec(model="diurnal-solar", mppt=mppt, duration=30.0,
                      seed=5, peak_power=4e-3, period=24.0,
                      cloud_rate=5.0)
        _fourway(_env_fleet_spec(env), MIXED)

    def test_dawn_dusk_dense_ramps(self):
        # A 6 s day: three full diurnal cycles inside the workload, on a
        # 50 ms grid, so the sine ramps around every dawn and dusk are
        # finely stepped and the engines cross dozens of piece edges per
        # load segment.
        env = EnvSpec(model="diurnal-solar", duration=21.5, seed=9,
                      peak_power=6e-3, period=6.0, cloud_rate=8.0,
                      grid_dt=0.05)
        spec = _env_fleet_spec(env)
        trace = spec.parameters().device_harvester(0)
        assert len(trace.powers) == 430
        _fourway(spec, MIXED)

    def test_workload_outliving_the_recording(self):
        env = EnvSpec(model="kinetic-burst", duration=10.0, seed=3,
                      peak_power=4e-3, burst_rate=0.5)
        _fourway(_env_fleet_spec(env), SPARSE)

    def test_brown_out_under_a_dark_sky(self):
        # Night-heavy diurnal sky + sustained draw: every engine must
        # call the brown-out near the same crossing.
        env = EnvSpec(model="diurnal-solar", duration=40.0, seed=1,
                      peak_power=0.5e-3, period=40.0,
                      daylight_fraction=0.2, cloud_rate=0.0)
        spec = _env_fleet_spec(env)
        ref, fast, state, brown = _fourway(
            spec, [(0.020, 12.0), (0.0, 4.0), (0.020, 12.0)],
            stop_below=spec.v_off, v0=1.9)
        assert not np.isnan(float(brown[0]))

    def test_env_jittered_lanes_match_their_scalar_plants(self):
        # Site shading: each device's column is scaled by its harvest
        # jitter factor; every lane must still match its own scalar
        # plant on the fastpath (the lane and the plant share the same
        # floats) and the same device run alone as a one-lane fleet.
        env = EnvSpec(model="diurnal-solar", duration=30.0, seed=4,
                      peak_power=4e-3, period=24.0, cloud_rate=5.0,
                      front_delay=0.4)
        spec = _env_fleet_spec(env, devices=8, harvest_jitter=0.3)
        params = spec.parameters()
        state = FleetState(params)
        advance_fleet(state, MIXED, True, None)
        for i in (0, 3, 7):
            system = params.device_system(i)
            sim = PowerSystemSimulator(system)
            fastpath.advance_segments(sim, MIXED, True, None)
            assert float(state.v_term[i]) == pytest.approx(
                system.buffer.terminal_voltage, abs=V_METHOD_TOL)
            alone = FleetState(params.slice(i, i + 1))
            advance_fleet(alone, MIXED, True, None)
            assert float(state.v_term[i]) == pytest.approx(
                float(alone.v_term[0]), abs=V_PATH_TOL)
