"""The segalg fleet path as a drop-in for the stepping fleet kernel."""

import numpy as np
import pytest

from repro.fleet.kernel import FleetRecorder, FleetState, advance
from repro.fleet.runner import FLEET_ENGINES, run_fleet, run_fleet_raw
from repro.fleet.spec import FleetSpec
from repro.loads.trace import CurrentTrace
from repro.segalg.vector import advance_fleet

TRACE = [(0.012, 0.05), (0.0, 0.4), (0.020, 0.03), (0.0, 0.6)]

#: Stepping-vs-segalg method tolerance (see DESIGN §12).
V_TOL = 3e-3


def _spec(devices=8, **overrides):
    base = dict(devices=devices, seed=3, harvest_power=2e-3,
                esr_jitter=0.2, capacitance_jitter=0.1,
                harvest_jitter=0.3)
    base.update(overrides)
    return FleetSpec(**base)


class TestDropInContract:
    def test_matches_stepping_kernel_within_method_tol(self):
        params = _spec().parameters()
        step_state = FleetState(params, v_start=2.3)
        alg_state = FleetState(params, v_start=2.3)
        step_brown = advance(step_state, TRACE, True, None)
        alg_brown = advance_fleet(alg_state, TRACE, True, None)
        np.testing.assert_allclose(alg_state.v_term, step_state.v_term,
                                   atol=V_TOL)
        np.testing.assert_allclose(alg_state.time, step_state.time,
                                   atol=1e-9)
        assert np.isnan(step_brown).all() and np.isnan(alg_brown).all()

    def test_recorder_boundaries_match_stepping_kernel(self):
        params = _spec(devices=4).parameters()
        rows = {}
        for name, engine in (("step", advance), ("alg", advance_fleet)):
            state = FleetState(params, v_start=2.3)
            recorder = FleetRecorder([0, 3])
            engine(state, TRACE, True, None, recorder=recorder)
            rows[name] = recorder.rows
        # same capture schedule: one row per tracked device per source
        # segment, at identical times, voltages within method tolerance
        assert len(rows["alg"]) == len(rows["step"]) \
            == len(TRACE) * 2
        for alg_row, step_row in zip(rows["alg"], rows["step"]):
            assert alg_row[0] == step_row[0]          # device
            assert alg_row[1] == pytest.approx(step_row[1])  # time
            assert alg_row[2] == pytest.approx(step_row[2], abs=V_TOL)

    def test_trace_objects_accepted(self):
        params = _spec(devices=2).parameters()
        a = FleetState(params, v_start=2.3)
        b = FleetState(params, v_start=2.3)
        advance_fleet(a, CurrentTrace(TRACE), True, None)
        advance_fleet(b, list(TRACE), True, None)
        np.testing.assert_array_equal(a.v_term, b.v_term)
        np.testing.assert_array_equal(a.energy, b.energy)

    def test_active_mask_freezes_inactive_lanes(self):
        params = _spec(devices=6).parameters()
        state = FleetState(params, v_start=2.3)
        active = np.array([True, False, True, False, True, False])
        advance_fleet(state, TRACE, True, None, active=active)
        frozen = ~active
        assert (state.time[frozen] == 0.0).all()
        assert (state.v_term[frozen] == 2.3).all()
        assert (state.energy[frozen] == 0.0).all()
        assert (state.time[active] > 0.0).all()

    def test_browned_lane_stops_and_dies(self):
        spec = _spec(devices=3, harvest_power=0.05e-3, esr_jitter=0.0,
                     capacitance_jitter=0.0, harvest_jitter=0.0)
        state = FleetState(spec.parameters(), v_start=1.9)
        brown = advance_fleet(state, [(0.025, 10.0)], True, spec.v_off)
        assert np.isfinite(brown).all()
        assert not state.alive.any()
        np.testing.assert_allclose(state.time, brown)
        np.testing.assert_allclose(state.v_term, spec.v_off, atol=1e-6)

    def test_homogeneous_fleet_stays_in_lockstep(self):
        spec = _spec(devices=8, esr_jitter=0.0, capacitance_jitter=0.0,
                     harvest_jitter=0.0, eta_jitter=0.0)
        state = FleetState(spec.parameters(), v_start=2.3)
        advance_fleet(state, TRACE, True, None)
        assert float(np.ptp(state.v_term)) == 0.0
        assert float(np.ptp(state.energy)) == 0.0


class TestRunnerIntegration:
    def test_engine_kwarg_reaches_the_report(self):
        report = run_fleet(_spec(devices=4), cycles=1, horizon=60.0,
                           engine="segalg")
        assert report.engine == "segalg"
        assert report.to_dict()["config"]["engine"] == "segalg"

    def test_default_engine_is_stepping(self):
        report = run_fleet(_spec(devices=2), cycles=1, horizon=60.0)
        assert report.engine == "stepping"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_fleet_raw(_spec(devices=1), cycles=1, horizon=60.0,
                          engine="verlet")

    def test_engines_registry(self):
        assert FLEET_ENGINES == ("stepping", "segalg")

    def test_segalg_outcomes_track_stepping(self):
        spec = _spec(devices=16, seed=11)
        step = run_fleet(spec, cycles=2, horizon=60.0, engine="stepping")
        alg = run_fleet(spec, cycles=2, horizon=60.0, engine="segalg")
        # same devices, same tasks — outcome *counts* may differ only
        # where a device sits within method tolerance of a threshold
        assert step.devices == alg.devices
        assert alg.cycles == step.cycles
