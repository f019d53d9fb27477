"""Equivalence chain: fleet kernel ≡ scalar fastpath ≡ reference engine.

Two permanent claims, each enforced over seeded random configurations:

* a **size-1 fleet** matches the scalar fastpath exactly — the fleet
  kernel's contract (see :mod:`repro.fleet.kernel`): each lane runs the
  same compiled body on the same floats;
* the **scalar fastpath is bit-exact** against the reference engine — the
  PR1 claim, re-asserted here so no later optimization can quietly
  weaken the foundation the fleet equivalence chain is anchored to.
"""

import random

import numpy as np
import pytest

from repro.fleet.kernel import FleetState, advance
from repro.fleet.spec import FleetSpec
from repro.loads.trace import CurrentTrace
from repro.sim import fastpath
from repro.sim.engine import PowerSystemSimulator

#: Mixed load/idle workload exercising transients, recharge, and the
#: monitor hysteresis band without browning a default Capybara plant.
MIXED_SEGMENTS = [
    (0.012, 0.05), (0.0, 0.2), (0.025, 0.02), (0.0, 0.5),
    (0.008, 0.10), (0.0, 0.05), (0.018, 0.03), (0.0, 0.3),
]


def _random_spec(seed: int, **overrides) -> FleetSpec:
    """A randomized single-device spec (pure function of ``seed``)."""
    rng = random.Random(seed)
    base = dict(
        devices=1,
        seed=seed,
        datasheet_capacitance=rng.uniform(20e-3, 80e-3),
        dc_esr=rng.uniform(1.0, 8.0),
        c_decoupling=rng.choice([0.0, 100e-6, 220e-6]),
        leakage_current=rng.uniform(0.0, 1e-6),
        redist_fraction=rng.choice([0.0, 0.10, 0.25]),
        input_efficiency=rng.uniform(0.6, 0.9),
        harvest_power=rng.uniform(1e-3, 8e-3),
        esr_jitter=rng.uniform(0.0, 0.3),
        capacitance_jitter=rng.uniform(0.0, 0.15),
        harvest_jitter=rng.uniform(0.0, 0.4),
        eta_jitter=rng.uniform(0.0, 0.05),
    )
    base.update(overrides)
    return FleetSpec(**base)


def _run_both(spec: FleetSpec, segments, harvesting=True, stop_below=None):
    """Run the same device through both kernels; return (state, sim, browns)."""
    params = spec.parameters()
    state = FleetState(params)
    brown = advance(state, segments, harvesting, stop_below)

    system = params.device_system(0)
    assert fastpath.supported(system)
    sim = PowerSystemSimulator(system)
    scalar_brown = fastpath.advance_segments(sim, segments, harvesting,
                                             stop_below)
    return state, sim, float(brown[0]), scalar_brown


def _assert_matches(state, sim):
    buffer = sim.system.buffer
    assert float(state.v_term[0]) == buffer.terminal_voltage
    assert float(state.v_min[0]) == sim._v_min_seen
    assert float(state.time[0]) == sim.time
    assert float(state.energy[0]) == sim._energy_out


class TestSizeOneFleetMatchesFastpath:
    """The tentpole equivalence: one-device fleet ≡ scalar fastpath."""

    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_workload_random_configs(self, seed):
        spec = _random_spec(seed)
        state, sim, brown, scalar_brown = _run_both(spec, MIXED_SEGMENTS)
        assert scalar_brown is None and np.isnan(brown)
        _assert_matches(state, sim)

    @pytest.mark.parametrize("seed", range(6))
    def test_brown_out_times_agree(self, seed):
        # A sustained heavy draw no Capybara-class bank can ride out.
        spec = _random_spec(100 + seed,
                            datasheet_capacitance=8e-3, harvest_power=1e-4)
        segments = [(0.030, 5.0)]
        state, sim, brown, scalar_brown = _run_both(
            spec, segments, stop_below=spec.v_off)
        assert scalar_brown is not None, "workload was meant to brown out"
        assert brown == scalar_brown
        assert not bool(state.alive[0])
        _assert_matches(state, sim)

    @pytest.mark.parametrize("seed", range(6))
    def test_solar_harvest_with_phase(self, seed):
        spec = _random_spec(200 + seed, harvest_period=60.0)
        state, sim, brown, scalar_brown = _run_both(spec, MIXED_SEGMENTS)
        assert scalar_brown is None and np.isnan(brown)
        _assert_matches(state, sim)

    def test_charge_only_idle_advance(self):
        spec = _random_spec(7)
        state, sim, _, _ = _run_both(spec, [(0.0, 2.0)])
        _assert_matches(state, sim)

    def test_not_harvesting(self):
        spec = _random_spec(8)
        state, sim, _, _ = _run_both(spec, MIXED_SEGMENTS,
                                     harvesting=False)
        _assert_matches(state, sim)


class TestFastpathMatchesEngine:
    """PR1's bit-exactness claim, kept as a permanent regression test.

    The fleet tolerances above are anchored to the scalar fastpath; this
    class pins the other end of the chain to the reference engine with
    *exact* equality, not tolerance.
    """

    @staticmethod
    def _random_trace(seed: int) -> CurrentTrace:
        rng = random.Random(1000 + seed)
        segments = []
        for _ in range(rng.randint(3, 9)):
            if rng.random() < 0.4:
                segments.append((0.0, rng.uniform(0.01, 0.5)))
            else:
                segments.append((rng.uniform(0.002, 0.03),
                                 rng.uniform(0.005, 0.2)))
        return CurrentTrace(segments)

    @pytest.mark.parametrize("seed", range(10))
    def test_bit_exact_on_random_traces(self, seed):
        spec = _random_spec(300 + seed)
        trace = self._random_trace(seed)

        def run(fast: bool):
            system = spec.parameters().device_system(0)
            sim = PowerSystemSimulator(system, fast=fast)
            result = sim.run_trace(trace, harvesting=True)
            return (result.v_min, result.v_final, result.browned_out,
                    sim.time)

        assert run(True) == run(False)
