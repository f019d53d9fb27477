"""Fleet edge cases and invariants: empty, singleton, broadcast, extremes,
and any-jobs determinism."""

import json

import numpy as np
import pytest

from repro.env import EnvSpec
from repro.fleet.differential import (
    E_TOL,
    E_TOL_SEGALG,
    T_TOL_SEGALG,
    V_TOL_SEGALG,
    cross_check,
    sample_indices,
)
from repro.fleet.kernel import T_TOL, V_TOL, FleetState, advance
from repro.fleet.runner import (
    FLEET_ENGINES,
    run_fleet,
    run_fleet_raw,
    summarize,
)
from repro.fleet.spec import FleetSpec
from repro.sim import fastpath
from repro.sim.engine import PowerSystemSimulator

SEGMENTS = [(0.012, 0.05), (0.0, 0.3), (0.020, 0.03), (0.0, 0.2)]

#: Cross-check inputs, ``(spec overrides, cycles)``: the built-in
#: constant harvest, and a correlated diurnal-solar sky (shared piece
#: edges, per-device power columns) run for enough cycles that devices
#: recharge under it instead of finishing on their start charge.
CHECK_FLEETS = {
    "constant": ({}, 1),
    "diurnal-solar": (dict(env=EnvSpec(model="diurnal-solar", seed=6)), 5),
}


class TestEmptyFleet:
    def test_kernel_handles_zero_devices(self):
        spec = FleetSpec(devices=0)
        state = FleetState(spec.parameters())
        brown = advance(state, SEGMENTS, True, spec.v_off)
        assert brown.shape == (0,)
        assert state.device_steps == 0

    def test_runner_reports_empty(self):
        report = run_fleet(FleetSpec(devices=0), cycles=1, horizon=10.0)
        assert report.devices == 0
        assert report.ok
        assert report.brown_out_rate == 0.0
        assert sum(report.counts.values()) == 0
        # Renders and serializes without dividing by zero.
        assert "0 devices" in report.render()
        assert report.to_dict()["devices"] == 0


class TestSingleDevice:
    def test_one_device_fleet_runs(self):
        report = run_fleet(FleetSpec(devices=1, seed=3), cycles=1,
                           horizon=60.0)
        assert report.devices == 1
        assert sum(report.counts.values()) == 1


class TestHomogeneousBroadcast:
    """Zero jitter: every lane performs identical arithmetic, so the batch
    must be an exact broadcast of one scalar device."""

    def test_all_lanes_exactly_equal(self):
        spec = FleetSpec(devices=16, seed=0, esr_jitter=0.0,
                         capacitance_jitter=0.0, harvest_jitter=0.0,
                         eta_jitter=0.0)
        assert spec.homogeneous
        state = FleetState(spec.parameters())
        advance(state, SEGMENTS, True, None)
        for arr in (state.v_term, state.v_main, state.v_redist,
                    state.v_min, state.time, state.energy):
            assert (arr == arr[0]).all()

    def test_broadcast_matches_scalar_device(self):
        spec = FleetSpec(devices=4, seed=0, esr_jitter=0.0,
                         capacitance_jitter=0.0, harvest_jitter=0.0,
                         eta_jitter=0.0)
        params = spec.parameters()
        state = FleetState(params)
        advance(state, SEGMENTS, True, None)

        system = params.device_system(0)
        sim = PowerSystemSimulator(system)
        fastpath.advance_segments(sim, SEGMENTS, True, None)
        assert float(state.v_term[0]) == pytest.approx(
            system.buffer.terminal_voltage, abs=V_TOL)
        assert float(state.time[0]) == pytest.approx(sim.time, abs=T_TOL)


class TestHeterogeneousExtremes:
    """Large jitters push devices toward the regime bounds; every lane must
    still match its own scalar mirror."""

    def test_wide_jitter_fleet_matches_per_device_scalar(self):
        spec = FleetSpec(devices=8, seed=11, esr_jitter=0.6,
                         capacitance_jitter=0.3, harvest_jitter=0.8,
                         eta_jitter=0.08)
        params = spec.parameters()
        # The jitter really does spread the parts apart.
        assert params.r_esr.max() / params.r_esr.min() > 1.5
        state = FleetState(params)
        advance(state, SEGMENTS, True, None)
        for i in range(params.n):
            system = params.device_system(i)
            sim = PowerSystemSimulator(system)
            fastpath.advance_segments(sim, SEGMENTS, True, None)
            assert float(state.v_term[i]) == pytest.approx(
                system.buffer.terminal_voltage, abs=V_TOL), f"device {i}"
            assert float(state.energy[i]) == pytest.approx(
                sim._energy_out, abs=E_TOL), f"device {i}"

    def test_excessive_capacitance_jitter_rejected(self):
        # Jitter wide enough to push c_main non-positive must fail loudly
        # at expansion, not corrupt the kernel.
        spec = FleetSpec(devices=64, seed=0, datasheet_capacitance=150e-6,
                         c_decoupling=100e-6, capacitance_jitter=0.5)
        with pytest.raises(ValueError, match="capacitance"):
            spec.parameters()


class TestJobsDeterminism:
    """Reports are byte-identical for any --jobs on the stepping engine;
    segalg shards compile their own programs and agree within tolerance."""

    def test_report_json_identical_across_jobs(self):
        spec = FleetSpec(devices=24, seed=5)
        payloads = []
        for jobs in (1, 3):
            report = run_fleet(spec, cycles=1, horizon=60.0, jobs=jobs)
            payloads.append(json.dumps(report.to_dict(), sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_raw_outcomes_identical_across_jobs(self):
        spec = FleetSpec(devices=10, seed=2)
        a = run_fleet_raw(spec, cycles=1, horizon=60.0, jobs=1)
        b = run_fleet_raw(spec, cycles=1, horizon=60.0, jobs=4)
        assert (a.outcome_codes == b.outcome_codes).all()
        assert (a.v_min == b.v_min).all()          # bit-identical
        assert (a.final_time == b.final_time).all()
        assert a.device_steps == b.device_steps

    @pytest.mark.parametrize("spec", [
        FleetSpec(devices=64, seed=0),
        FleetSpec(devices=48, seed=0, harvest_period=120.0),
        FleetSpec(devices=96, seed=1),
    ], ids=["constant-64", "solar-48", "constant-96"])
    def test_segalg_shards_agree_within_method_tolerance(self, spec):
        # Each shard compiles a program from its own devices' bounds
        # (DESIGN §12 weakness 2), so the partition, device_steps and the
        # late digits move with --jobs; verdicts must not.
        a = run_fleet_raw(spec, jobs=1, engine="segalg")
        b = run_fleet_raw(spec, jobs=3, engine="segalg")
        assert (a.outcome_codes == b.outcome_codes).all()
        assert (a.tasks_committed == b.tasks_committed).all()
        assert np.abs(a.v_min - b.v_min).max() <= V_TOL_SEGALG
        assert np.abs(a.final_time - b.final_time).max() <= T_TOL_SEGALG
        assert np.abs(a.energy - b.energy).max() <= E_TOL_SEGALG


class TestSpecExpansion:
    def test_expansion_is_deterministic(self):
        spec = FleetSpec(devices=32, seed=9)
        a, b = spec.parameters(), spec.parameters()
        assert (a.r_esr == b.r_esr).all()
        assert (a.c_main == b.c_main).all()
        assert (a.p_harvest == b.p_harvest).all()

    def test_slice_matches_full_expansion(self):
        params = FleetSpec(devices=40, seed=1).parameters()
        shard = FleetSpec(devices=40, seed=1).parameters().slice(13, 29)
        assert (shard.r_esr == params.r_esr[13:29]).all()
        assert (shard.eta_base == params.eta_base[13:29]).all()

    def test_dict_round_trip(self):
        spec = FleetSpec(devices=7, seed=42, harvest_period=60.0,
                         esr_jitter=0.2)
        assert FleetSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_foreign_format(self):
        with pytest.raises(ValueError, match="not a fleet spec"):
            FleetSpec.from_dict({"format": "repro.chaos-case"})

    def test_validation(self):
        with pytest.raises(ValueError, match="devices"):
            FleetSpec(devices=-1)
        with pytest.raises(ValueError, match="esr_jitter"):
            FleetSpec(devices=1, esr_jitter=1.0)
        with pytest.raises(ValueError, match="redist_fraction"):
            FleetSpec(devices=1, redist_fraction=1.0)

    def test_zeroing_one_jitter_preserves_others(self):
        # Fixed draw order: turning one jitter off must not reshuffle the
        # streams the other jitters consume.
        a = FleetSpec(devices=16, seed=4).parameters()
        b = FleetSpec(devices=16, seed=4, esr_jitter=0.0).parameters()
        assert (a.c_main == b.c_main).all()
        assert (a.p_harvest == b.p_harvest).all()
        assert (b.r_esr == b.r_esr[0]).all()


class TestDifferentialSampling:
    def test_sample_indices_deterministic_and_bounded(self):
        a = sample_indices(1000, 8, seed=3)
        assert a == sample_indices(1000, 8, seed=3)
        assert len(a) == 8 and len(set(a)) == 8
        assert all(0 <= i < 1000 for i in a)

    def test_sample_covers_small_fleets(self):
        assert sample_indices(5, 10, seed=0) == [0, 1, 2, 3, 4]
        assert sample_indices(0, 4, seed=0) == []
        assert sample_indices(10, 0, seed=0) == []

    @pytest.mark.parametrize("fleet", sorted(CHECK_FLEETS))
    @pytest.mark.parametrize("engine", FLEET_ENGINES)
    def test_cross_check_passes_on_honest_fleet(self, engine, fleet):
        overrides, cycles = CHECK_FLEETS[fleet]
        spec = FleetSpec(devices=12, seed=6, **overrides)
        outcomes = run_fleet_raw(spec, cycles=cycles, horizon=60.0,
                                 engine=engine)
        result = cross_check(outcomes, sample_indices(12, 4, seed=6))
        assert result.ok, result.render()
        assert "OK" in result.render()

    @pytest.mark.parametrize("fleet", sorted(CHECK_FLEETS))
    @pytest.mark.parametrize("engine", FLEET_ENGINES)
    def test_cross_check_flags_a_corrupted_lane(self, engine, fleet):
        overrides, cycles = CHECK_FLEETS[fleet]
        spec = FleetSpec(devices=6, seed=6, **overrides)
        outcomes = run_fleet_raw(spec, cycles=cycles, horizon=60.0,
                                 engine=engine)
        outcomes.v_min = outcomes.v_min.copy()
        outcomes.v_min[2] += 0.5           # sabotage one device
        result = cross_check(outcomes, [1, 2])
        assert not result.ok
        # the sabotaged lane is caught, the honest one is not
        assert [(m.device, m.field) for m in result.mismatches] == \
            [(2, "v_min")]
        assert "mismatch" in result.render()


class TestMaskedAdvance:
    def test_inactive_devices_are_frozen(self):
        spec = FleetSpec(devices=6, seed=0)
        state = FleetState(spec.parameters())
        before_t = state.time.copy()
        before_v = state.v_term.copy()
        active = np.array([True, False, True, False, True, False])
        advance(state, SEGMENTS, True, None, active=active)
        assert (state.time[~active] == before_t[~active]).all()
        assert (state.v_term[~active] == before_v[~active]).all()
        assert (state.time[active] > before_t[active]).all()

    def test_dead_devices_stay_dead(self):
        spec = FleetSpec(devices=4, seed=0, datasheet_capacitance=8e-3,
                         harvest_power=1e-4)
        state = FleetState(spec.parameters())
        brown = advance(state, [(0.030, 5.0)], True, spec.v_off)
        assert not state.alive.any()
        frozen_t = state.time.copy()
        advance(state, SEGMENTS, True, spec.v_off)
        assert (state.time == frozen_t).all()
        assert np.isfinite(brown).all()


class TestSummarizeDetail:
    def test_brown_out_details_surface_in_report(self):
        # Tiny banks + a heavy radio program at honest gates: physics the
        # shared firmware cannot save, so brown-outs must be reported.
        spec = FleetSpec(devices=6, seed=1, datasheet_capacitance=2e-3,
                         harvest_power=1e-3)
        outcomes = run_fleet_raw(spec, app="crypto-tx", cycles=1,
                                 horizon=30.0)
        report = summarize(outcomes)
        assert report.counts.get("brown_out", 0) > 0
        assert not report.ok
        assert report.brown_outs
        entry = report.brown_outs[0]
        assert entry["task"]
        assert np.isfinite(entry["time"])
        assert "UNSAFE" in report.render()
