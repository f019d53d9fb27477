"""Differential harness: reference ≡ fastpath ≡ fleet segalg.

The permanent equivalence chain for the segment-algebra core, enforced
over seeded random configurations:

* **reference ≡ fastpath** — bit-exact (the PR1 claim, re-pinned here so
  the chain is anchored);
* **fastpath ≡ fleet segalg** — *method* tolerance: the algebra is a
  different integrator (closed-form between events vs adaptive
  stepping), so it agrees on physics, not on floating point;
* **fleet lane ≡ the same device run alone** — exact on homogeneous
  fleets (both compile the identical segment program); method-level on
  jittered fleets, where the fleet-wide conservative compile bounds
  partition intervals differently than a one-lane compile (partition
  sensitivity, see DESIGN §12).
"""

import random

import numpy as np
import pytest

from repro.fleet.kernel import FleetState
from repro.fleet.spec import FleetSpec
from repro.loads.trace import CurrentTrace
from repro.segalg.vector import advance_fleet
from repro.sim import fastpath
from repro.sim.engine import PowerSystemSimulator

#: Stepping-vs-segalg method tolerance on voltages (V). The documented
#: band is ~1e-4 V for plain workloads; the commit bias right after a
#: load burst and solar midpoint sampling push worst cases toward
#: 2.5e-3 V.
V_METHOD_TOL = 3e-3

#: Stepping-vs-segalg tolerance on brown-out times (s): the stepping
#: loops locate the crossing only to their adaptive step (up to 50 ms
#: idle steps); the algebra bisects the analytic curve.
T_METHOD_TOL = 6e-2

#: Relative energy tolerance between integrators (average-voltage vs
#: endpoint-voltage accounting per step).
E_METHOD_TOL = 2e-2

#: A homogeneous fleet lane vs the same device run alone: identical
#: programs, identical fixed points — agreement is numerical, not
#: method-level; the slack only absorbs float noise.
V_PATH_TOL = 5e-6

#: Mixed workload: bursts, recharge gaps, hysteresis traffic.
MIXED = [
    (0.012, 0.05), (0.0, 0.2), (0.025, 0.02), (0.0, 0.5),
    (0.008, 0.10), (0.0, 0.05), (0.018, 0.03), (0.0, 0.3),
]

#: Heavy sustained draw that browns a weak-harvest plant mid-trace.
HEAVY = [(0.020, 3.0), (0.0, 5.0), (0.020, 3.0)]


def _random_spec(seed: int, *, jitter: bool, **overrides) -> FleetSpec:
    """Randomized spec (pure function of ``seed``); optionally jittered."""
    rng = random.Random(seed)
    base = dict(
        devices=1,
        seed=seed,
        datasheet_capacitance=rng.uniform(20e-3, 80e-3),
        dc_esr=rng.uniform(1.0, 8.0),
        c_decoupling=rng.choice([100e-6, 220e-6]),
        leakage_current=rng.uniform(0.0, 1e-6),
        redist_fraction=rng.choice([0.10, 0.25]),
        input_efficiency=rng.uniform(0.6, 0.9),
        harvest_power=rng.uniform(1e-3, 8e-3),
        esr_jitter=rng.uniform(0.0, 0.3) if jitter else 0.0,
        capacitance_jitter=rng.uniform(0.0, 0.15) if jitter else 0.0,
        harvest_jitter=rng.uniform(0.0, 0.4) if jitter else 0.0,
        eta_jitter=rng.uniform(0.0, 0.05) if jitter else 0.0,
    )
    base.update(overrides)
    return FleetSpec(**base)


def _run_scalar(params, index, segments, harvesting, stop_below, *,
                mode, v0=None):
    """One device through the reference loop or the fastpath."""
    system = params.device_system(index)
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
        enabled=system.monitor.output_enabled,
    )


def _run_fleet(params, segments, harvesting, stop_below, *, v0=None):
    state = FleetState(params, v_start=v0)
    brown = advance_fleet(state, list(segments), harvesting, stop_below)
    return state, brown


def _fourway(spec, segments, harvesting=True, stop_below=None, v0=None,
             energy_abs=1e-6):
    """Run every engine on device 0 and assert the equivalence chain.

    ``energy_abs`` widens the stepping-vs-algebra energy band on
    brown-out workloads: the stepping loop accrues energy up to its
    step-quantized brown time, the algebra cuts at the analytic
    crossing, so the bands differ by up to ``i_peak * v * T_METHOD_TOL``.
    """
    params = spec.parameters()
    ref = _run_scalar(params, 0, segments, harvesting, stop_below,
                      mode="reference", v0=v0)
    fast = _run_scalar(params, 0, segments, harvesting, stop_below,
                       mode="fastpath", v0=v0)
    state, brown = _run_fleet(params, segments, harvesting, stop_below,
                              v0=v0)

    # reference ≡ fastpath: bit-exact.
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
        fast["energy"], rel=E_METHOD_TOL, abs=energy_abs)
    assert float(state.time[0]) == pytest.approx(
        fast["time"], abs=T_METHOD_TOL)
    assert bool(state.enabled[0]) == fast["enabled"]
    fleet_brown = float(brown[0])
    if fast["brown"] is None:
        assert np.isnan(fleet_brown)
    else:
        assert fleet_brown == pytest.approx(fast["brown"],
                                            abs=T_METHOD_TOL)
    return ref, fast, state, brown


class TestFourWayEquivalence:
    """reference ≡ fastpath ≡ fleet segalg."""

    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_workload(self, seed):
        spec = _random_spec(seed, jitter=False)
        _fourway(spec, MIXED)

    @pytest.mark.parametrize("seed", range(4))
    def test_brown_out(self, seed):
        spec = _random_spec(seed, jitter=False, harvest_power=0.2e-3)
        # the 20 mA draw accrues up to i*v*T_METHOD_TOL of energy over
        # the allowed brown-time slack between the two integrators
        ref, fast, state, brown = _fourway(
            spec, HEAVY, stop_below=spec.v_off, v0=1.9,
            energy_abs=0.020 * 2.6 * T_METHOD_TOL)
        assert not np.isnan(float(brown[0]))

    @pytest.mark.parametrize("seed", range(4))
    def test_solar_harvest(self, seed):
        spec = _random_spec(seed, jitter=False, harvest_period=60.0)
        _fourway(spec, MIXED)

    def test_not_harvesting(self):
        spec = _random_spec(99, jitter=False)
        _fourway(spec, MIXED[:4], harvesting=False)

    def test_rail_hysteresis_cycle(self):
        # Strong harvest pushes to the V_max rail; a burst drops below
        # V_off so the monitor must re-arm at V_high.
        spec = _random_spec(7, jitter=False, harvest_power=6e-3)
        _fourway(spec, [(0.020, 1.5), (0.0, 60.0), (0.010, 0.5)], v0=2.1)


class TestJitteredFleetAgainstOneLane:
    """Each jittered device's fleet lane vs the same device run alone.

    Method-level bounds: the fleet program's conservative partition is
    shared fleet-wide, a one-lane compile partitions per device.
    """

    @pytest.mark.parametrize("seed", range(3))
    def test_jittered_lanes(self, seed):
        spec = _random_spec(seed, jitter=True, devices=16)
        params = spec.parameters()
        state, brown = _run_fleet(params, MIXED, True, None)
        for i in (0, 7, 15):
            alone, _ = _run_fleet(params.slice(i, i + 1), MIXED, True, None)
            assert float(state.v_term[i]) == pytest.approx(
                float(alone.v_term[0]), abs=V_METHOD_TOL)
            assert float(state.energy[i]) == pytest.approx(
                float(alone.energy[0]), rel=E_METHOD_TOL, abs=1e-6)

    def test_homogeneous_fleet_is_tight(self):
        spec = _random_spec(5, jitter=False, devices=8)
        params = spec.parameters()
        state, brown = _run_fleet(params, MIXED, True, None)
        alone, _ = _run_fleet(params.slice(0, 1), MIXED, True, None)
        # All lanes identical, and equal to the device run alone.
        assert float(np.ptp(state.v_term)) == 0.0
        assert float(state.v_term[0]) == pytest.approx(
            float(alone.v_term[0]), abs=V_PATH_TOL)
