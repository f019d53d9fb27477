"""Fleet runner: shared-firmware classification and telemetry."""

import numpy as np
import pytest

from repro import obs
from repro.fleet.runner import run_fleet, run_fleet_raw
from repro.fleet.spec import FleetSpec
from repro.resilience.campaign import OUTCOMES


class TestClassification:
    """The four-way outcome classification shared with the chaos campaign."""

    def test_healthy_fleet_completes(self):
        report = run_fleet(FleetSpec(devices=8, seed=0), cycles=1,
                           horizon=120.0)
        assert report.counts["completed"] == 8
        assert report.ok
        assert report.tasks_committed_total == 8 * 3   # 3 tasks/cycle

    def test_zero_harvest_livelocks(self):
        # No harvest at all: once the bank drains below a gate, charging
        # makes no progress — the constant-harvest equilibrium rule must
        # classify those devices as livelocked, not spin forever.
        report = run_fleet(
            FleetSpec(devices=4, seed=0, harvest_power=0.0,
                      harvest_jitter=0.0),
            cycles=6, horizon=300.0)
        assert report.counts["livelock"] == 4
        assert not report.ok
        assert report.livelocked == [0, 1, 2, 3]

    def test_short_horizon_degrades(self):
        # The horizon expires mid-program: devices stop where they are,
        # having violated nothing — degraded_but_safe.
        report = run_fleet(FleetSpec(devices=4, seed=0), cycles=6,
                           horizon=2.0)
        assert report.counts["degraded_but_safe"] == 4
        assert report.ok          # degraded is not unsafe

    def test_undersized_banks_brown_out(self):
        report = run_fleet(
            FleetSpec(devices=6, seed=1, datasheet_capacitance=2e-3,
                      harvest_power=1e-3),
            app="crypto-tx", cycles=1, horizon=30.0)
        assert report.counts["brown_out"] > 0
        assert report.brown_out_rate > 0
        assert not report.ok

    def test_counts_cover_every_outcome_name(self):
        report = run_fleet(FleetSpec(devices=2, seed=0), cycles=1,
                           horizon=60.0)
        assert set(report.counts) == set(OUTCOMES)
        assert sum(report.counts.values()) == report.devices

    def test_outcome_of_maps_codes_to_names(self):
        outcomes = run_fleet_raw(FleetSpec(devices=3, seed=0), cycles=1,
                                 horizon=60.0)
        for i in range(outcomes.devices):
            assert outcomes.outcome_of(i) in OUTCOMES


class TestValidation:
    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            run_fleet(FleetSpec(devices=1), estimator="psychic")

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="unknown program"):
            run_fleet(FleetSpec(devices=1), app="doom")

    def test_bad_cycles_and_horizon_rejected(self):
        with pytest.raises(ValueError, match="cycles"):
            run_fleet(FleetSpec(devices=1), cycles=0)
        with pytest.raises(ValueError, match="horizon"):
            run_fleet(FleetSpec(devices=1), horizon=0.0)


class TestReportShape:
    def test_to_dict_is_self_describing(self):
        report = run_fleet(FleetSpec(devices=4, seed=0), cycles=1,
                           horizon=60.0)
        payload = report.to_dict()
        assert payload["format"] == "repro.fleet-report"
        assert payload["version"] == 1
        assert payload["config"]["spec"]["devices"] == 4
        assert payload["devices"] == 4
        assert payload["ok"] is True
        assert set(payload["counts"]) == set(OUTCOMES)
        assert payload["gates"]          # one gate per unique task
        # Round-trippable spec.
        assert FleetSpec.from_dict(payload["config"]["spec"]).devices == 4

    def test_gates_are_shared_firmware(self):
        # Same seed, different jitter: gates computed on the un-jittered
        # base plant must be identical.
        a = run_fleet(FleetSpec(devices=2, seed=0, esr_jitter=0.0),
                      cycles=1, horizon=60.0)
        b = run_fleet(FleetSpec(devices=2, seed=0, esr_jitter=0.3),
                      cycles=1, horizon=60.0)
        assert a.gates == b.gates


class TestTelemetry:
    def test_fleet_counters_and_histograms_emitted(self):
        with obs.observe() as state:
            report = run_fleet(FleetSpec(devices=6, seed=0), cycles=1,
                               horizon=60.0)
            snapshot = state.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["fleet.devices"] == 6
        assert counters["fleet.device_steps"] == report.device_steps
        assert counters["fleet.outcome.completed"] == \
            report.counts["completed"]
        histograms = snapshot["histograms"]
        assert "fleet.v_min" in histograms
        assert "fleet.throughput.device_steps_per_s" in histograms
        assert histograms["fleet.v_min"]["count"] == 6

    def test_no_observer_no_crash(self):
        assert obs.current() is None
        report = run_fleet(FleetSpec(devices=2, seed=0), cycles=1,
                           horizon=60.0)
        assert report.devices == 2

    def test_fleet_run_event_emitted(self):
        with obs.observe(tracer=obs.Tracer()) as state:
            run_fleet(FleetSpec(devices=3, seed=0), cycles=1, horizon=60.0)
            events = state.tracer.drain()
        runs = [e for e in events if e["event"] == "fleet.run"]
        assert runs and runs[-1]["devices"] == 3


class TestBrownTimes:
    def test_brown_times_are_nan_for_safe_devices(self):
        outcomes = run_fleet_raw(FleetSpec(devices=4, seed=0), cycles=1,
                                 horizon=60.0)
        assert np.isnan(outcomes.brown_time).all()
        assert outcomes.brown_task == [""] * 4


class TestBankFleet:
    """The per-device bank axis through the full runner."""

    BANK_KW = dict(
        banks=(("large", 33.75e-3, 2.5, 12e-9),
               ("small", 11.25e-3, 7.5, 4e-9)),
        configs=(("small",), ("large",), ("large", "small")),
    )

    def _spec(self, **overrides):
        from repro.fleet.spec import FleetBankSpec
        base = dict(devices=12, seed=5, bank=FleetBankSpec(**self.BANK_KW),
                    harvest_power=4e-3, esr_jitter=0.2,
                    capacitance_jitter=0.1)
        base.update(overrides)
        return FleetSpec(**base)

    def test_bank_fleet_completes(self):
        report = run_fleet(self._spec(), cycles=1, horizon=60.0)
        assert report.devices == 12
        assert report.counts["completed"] == 12

    def test_reports_byte_identical_across_jobs(self):
        import json

        spec = self._spec()
        serial = run_fleet(spec, cycles=1, horizon=60.0, jobs=1)
        sharded = run_fleet(spec, cycles=1, horizon=60.0, jobs=3)
        assert (json.dumps(serial.to_dict(), sort_keys=True)
                == json.dumps(sharded.to_dict(), sort_keys=True))

    def test_segalg_engine_agrees_on_outcomes(self):
        spec = self._spec()
        stepping = run_fleet(spec, cycles=1, horizon=60.0)
        segalg = run_fleet(spec, cycles=1, horizon=60.0, engine="segalg")
        assert stepping.counts == segalg.counts

    def test_cross_check_reads_per_configuration_gates(self):
        # Regression: the differential mirror used to look gates up by bare
        # task name and KeyError'd on bank fleets, whose shared table is
        # keyed "<config_tag>/<task>" per device configuration.
        from repro.fleet.differential import cross_check, sample_indices
        from repro.fleet.runner import run_fleet_raw

        spec = self._spec(devices=16)
        for engine in ("stepping", "segalg"):
            outcomes = run_fleet_raw(spec, cycles=1, horizon=60.0,
                                     engine=engine)
            result = cross_check(outcomes, sample_indices(16, 6, seed=5))
            assert result.ok, result.render()
        # The sample must include devices on distinct configurations,
        # or this regression stops testing the per-config lookup.
        config_idx = spec.parameters().config_idx
        assert len({int(config_idx[i])
                    for i in sample_indices(16, 6, seed=5)}) > 1

    def test_gates_are_per_configuration(self):
        from repro.fleet.runner import run_fleet_raw
        from repro.sched.bank import config_tag

        spec = self._spec(devices=4)
        outcomes = run_fleet_raw(spec, cycles=1, horizon=60.0)
        tags = {config_tag(c) for c in spec.bank.configs}
        seen = {key.split("/", 1)[0] for key in outcomes.gates}
        assert seen == tags

    def test_bank_spec_round_trips(self):
        spec = self._spec()
        clone = FleetSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.bank is not None
