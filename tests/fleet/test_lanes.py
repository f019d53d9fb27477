"""The stepping fleet engine: every lane is its device's reference run.

Each fleet device steps on the compiled scalar kernel with the plant
packed from the fleet's arrays, so a lane must equal the device's scalar
system (:meth:`FleetParams.device_system`) on the reference loop bit for
bit: for every harvest kind, for bank fleets, for devices that brown out
mid-trace and for devices a mask leaves idle. Without a compiled
kernel, or under ``set_default_fast(False)``, the engine runs each
device on the reference loop, with the same results and step counts.
"""

import math

import numpy as np
import pytest

from repro import obs
from repro.env.spec import EnvSpec
from repro.fleet.kernel import FleetRecorder, FleetState, advance
from repro.fleet.spec import FleetBankSpec, FleetSpec
from repro.sim import engine as sim_engine, fastpath
from repro.sim.engine import PowerSystemSimulator

#: Loaded stretches that brown some devices of each fleet below out.
SEGMENTS = [
    (0.012, 0.05), (0.0, 0.2), (0.030, 0.4), (0.0, 0.5),
    (0.008, 0.10), (0.0, 1.5), (0.035, 0.2), (0.0, 0.3),
]

BANK = FleetBankSpec(
    banks=(("large", 33.75e-3, 2.5, 12e-9), ("small", 11.25e-3, 7.5, 4e-9)),
    configs=(("small",), ("large",), ("large", "small")),
)

SPECS = {
    "constant": dict(harvest_power=2e-3),
    "solar": dict(harvest_power=6e-3, harvest_period=3.0),
    "env": dict(env=EnvSpec(model="diurnal-solar", duration=10.0, seed=2,
                            peak_power=5e-3, period=4.0, cloud_rate=5.0)),
    "bank": dict(bank=BANK, harvest_power=2e-3),
    "no-decoupling": dict(c_decoupling=0.0, redist_fraction=0.0),
}


def _spec(kind: str) -> FleetSpec:
    base = dict(devices=10, seed=3, esr_jitter=0.3,
                capacitance_jitter=0.15, harvest_jitter=0.4)
    base.update(SPECS[kind])
    return FleetSpec(**base)


def _reference_device(params, i, segments, stop_below):
    """Device ``i`` alone on the reference loop: its end state."""
    system = params.device_system(i)
    sim = PowerSystemSimulator(system, fast=False)
    brown = math.nan
    for current, duration in segments:
        hit = sim._advance_reference(current, duration, True, stop_below)
        if hit is not None:
            brown = hit
            break
    return (system.buffer.terminal_voltage, sim.time, sim._v_min_seen,
            sim._energy_out, brown)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_each_lane_is_its_devices_reference_run(kind):
    spec = _spec(kind)
    params = spec.parameters()
    state = FleetState(params)
    brown = advance(state, SEGMENTS, True, spec.v_off)
    for i in range(params.n):
        ref = _reference_device(params, i, SEGMENTS, spec.v_off)
        lane = (float(state.v_term[i]), float(state.time[i]),
                float(state.v_min[i]), float(state.energy[i]),
                float(brown[i]))
        assert lane[:4] == ref[:4], i
        assert lane[4] == ref[4] or (np.isnan(lane[4])
                                     and np.isnan(ref[4])), i
    browned = ~np.isnan(brown)
    assert 0 < np.count_nonzero(browned) < params.n
    assert not state.alive[browned].any() and state.alive[~browned].all()


def _masked_run(spec):
    """A masked charge, then a recorded trace: everything a run leaves."""
    params = spec.parameters()
    state = FleetState(params, v_start=2.5)
    mask = np.arange(params.n) % 3 != 0
    advance(state, [(0.0, 0.6)], True, None, active=mask)
    recorder = FleetRecorder([0, 4, 7])
    brown = advance(state, SEGMENTS, True, spec.v_off, recorder=recorder)
    arrays = (state.v_main, state.v_redist, state.v_term, state.time,
              state.v_min, state.energy, state.enabled, state.alive, brown)
    return arrays, state.device_steps, recorder.rows


def _no_compiler(monkeypatch, spec):
    monkeypatch.setattr(fastpath, "_kernel", False)
    assert fastpath.lanes(spec.parameters().device_system(0), 1) is None


def _fast_off(monkeypatch, spec):
    monkeypatch.setattr(sim_engine, "DEFAULT_FAST", False)


#: The two routes to the reference loop: no compiled kernel, and the
#: process-wide fast default switched off (``set_default_fast(False)``).
ROUTES = {"no-compiler": _no_compiler, "fast-off": _fast_off}


@pytest.mark.parametrize("kind,route", [
    pytest.param("constant", "no-compiler", id="constant"),
    pytest.param("bank", "no-compiler", id="bank"),
    pytest.param("constant", "fast-off", id="constant-fast-off"),
    pytest.param("bank", "fast-off", id="bank-fast-off"),
])
def test_without_a_compiler_the_reference_loop_runs_each_device(
        kind, route, monkeypatch):
    spec = _spec(kind)
    arrays, steps, rows = _masked_run(spec)
    assert steps > 0 and 0 < np.count_nonzero(np.isnan(arrays[-1])) < 10
    ROUTES[route](monkeypatch, spec)
    with obs.observe() as observed:
        reference = _masked_run(spec)
    counters = observed.metrics.snapshot()["counters"]
    assert counters.get("sim.fastpath.calls", 0) == 0
    assert counters.get("sim.reference.calls", 0) > 0
    for ours, theirs in zip(reference[0], arrays):
        np.testing.assert_array_equal(ours, theirs)  # NaN == NaN here
    assert reference[1:] == (steps, rows)
