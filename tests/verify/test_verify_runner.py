"""Verification runner: trial execution, aggregation, determinism."""

import json

import pytest

from repro import obs
from repro.sim import set_default_fast
from repro.verify.runner import (
    BASELINE_ESTIMATORS,
    KNOWN_ESTIMATORS,
    STOCK_ESTIMATORS,
    TrialConfig,
    build_estimator,
    run_trial,
    run_verification,
)


class TestBuildEstimator:
    def test_every_known_name_builds(self, system):
        model = system.characterize()
        for name in KNOWN_ESTIMATORS:
            estimator = build_estimator(name, system, model)
            assert hasattr(estimator, "estimate")

    def test_unknown_name_rejected(self, system):
        with pytest.raises(ValueError):
            build_estimator("no-such-estimator", system)

    def test_registry_is_partitioned(self):
        assert set(STOCK_ESTIMATORS).isdisjoint(BASELINE_ESTIMATORS)
        assert set(KNOWN_ESTIMATORS) \
            == set(STOCK_ESTIMATORS) | set(BASELINE_ESTIMATORS)


class TestRunTrial:
    def test_outcome_covers_every_estimator(self):
        cfg = TrialConfig(seed=0)
        outcome = run_trial((0, cfg))
        assert outcome.index == 0
        assert len(outcome.oracle) == len(cfg.estimators)
        keys = {entry["estimator_key"] for entry in outcome.oracle}
        assert keys == set(cfg.estimators)

    def test_trial_is_deterministic(self):
        cfg = TrialConfig(seed=3)
        assert run_trial((1, cfg)).oracle == run_trial((1, cfg)).oracle

    def test_unsound_verdict_carries_shrunk_case(self):
        cfg = TrialConfig(seed=0, estimators=("energy-direct",))
        outcome = run_trial((0, cfg))
        assert outcome.oracle[0]["verdict"] == "UNSOUND"
        assert outcome.cases
        case = outcome.cases[0]
        assert case["estimator"] == "energy-direct"
        # Shrinking never grows the trace.
        assert len(case["segments"]) <= len(case["original"]) + 50


class TestRunVerification:
    def test_parallel_report_is_bit_identical(self):
        kwargs = dict(seed=0)
        serial = run_verification(4, jobs=1, **kwargs)
        parallel = run_verification(4, jobs=2, **kwargs)
        assert json.dumps(serial.to_dict(), sort_keys=True) \
            == json.dumps(parallel.to_dict(), sort_keys=True)

    def test_stock_run_is_ok(self):
        report = run_verification(3, seed=0)
        assert report.ok
        assert report.unsound == 0
        assert report.violated == 0
        assert not report.failures
        assert "verdict: OK" in report.render()

    def test_unsound_estimator_fails_and_persists(self, tmp_path):
        report = run_verification(
            2, seed=0, estimators=("energy-direct",),
            failures_dir=str(tmp_path / "failures"),
        )
        assert not report.ok
        assert report.unsound >= 1
        assert report.failures
        for path in report.failures:
            assert (tmp_path / "failures") in __import__("pathlib").Path(
                path).parents
        assert "verdict: FAIL" in report.render()

    def test_unpersisted_cases_still_reported(self):
        report = run_verification(2, seed=0, estimators=("energy-direct",))
        assert report.failures
        assert all(f.startswith("<unpersisted") for f in report.failures)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_verification(0)
        with pytest.raises(ValueError):
            run_verification(1, estimators=("bogus",))

    @pytest.mark.parametrize("key", ["tolerance", "conservative_margin"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_settings_fail_before_any_trial(self, key, value,
                                                       monkeypatch):
        from repro.verify import runner

        def no_trial(job):
            raise AssertionError("a trial was started")

        monkeypatch.setattr(runner, "run_trial", no_trial)
        with pytest.raises(ValueError, match=key):
            run_verification(1, **{key: value})


class TestReferenceLoopCrossCheck:
    """Whole trials, with the real µArch and ISR runtimes, report the same
    on the reference loop as on the fast kernel."""

    @staticmethod
    def run(seed, fast):
        old = set_default_fast(fast)
        try:
            with obs.observe() as state:
                report = run_verification(3, seed=seed).to_dict()
        finally:
            set_default_fast(old)
        return report, state.metrics.snapshot()["counters"]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reference_loop_report_equals_fast(self, seed):
        fast, fast_calls = self.run(seed, True)
        reference, ref_calls = self.run(seed, False)
        # Only the per-trial fastpath invariant pins an engine to a loop.
        assert ref_calls["sim.fastpath.calls"] \
            < fast_calls["sim.fastpath.calls"]
        assert ref_calls["sim.reference.calls"] \
            > fast_calls["sim.reference.calls"]
        assert reference == fast


class TestEnvAxis:
    """The environment scenario axis: harvesting-on admission runs.

    Ground truth stays the rested-buffer, harvesting-off search, so a
    sound estimator must stay sound when a randomized environment adds
    charge during the admission run — the axis can only make the run
    easier, never harder.
    """

    def test_stock_estimators_stay_sound_under_environments(self):
        report = run_verification(4, seed=0, env_axis=True)
        assert report.ok
        assert report.unsound == 0
        assert report.env_axis
        assert "env axis on" in report.render()

    def test_axis_recorded_in_the_report_document(self):
        on = run_verification(2, seed=0, env_axis=True)
        off = run_verification(2, seed=0)
        assert on.to_dict()["config"]["env_axis"] is True
        assert off.to_dict()["config"]["env_axis"] is False

    def test_axis_off_report_is_unchanged_by_the_feature(self):
        # The env stream is independent: with the axis off, reports are
        # byte-identical whether or not the feature exists — pinned by
        # running the same config twice.
        kwargs = dict(seed=7)
        a = run_verification(3, **kwargs)
        b = run_verification(3, **kwargs)
        assert json.dumps(a.to_dict(), sort_keys=True) \
            == json.dumps(b.to_dict(), sort_keys=True)

    def test_env_axis_run_is_deterministic_and_parallel_stable(self):
        kwargs = dict(seed=1, env_axis=True)
        serial = run_verification(4, jobs=1, **kwargs)
        parallel = run_verification(4, jobs=2, **kwargs)
        assert json.dumps(serial.to_dict(), sort_keys=True) \
            == json.dumps(parallel.to_dict(), sort_keys=True)

    def test_trial_attaches_the_environment_harvester(self):
        from repro.verify.generators import env_rng, random_env_spec
        cfg = TrialConfig(seed=5, env_axis=True)
        outcome = run_trial((2, cfg))
        assert outcome.oracle
        # The same (seed, index) regenerates the same scenario the
        # trial used — the axis is replayable from the report alone.
        spec = random_env_spec(env_rng(5, 2))
        assert spec == random_env_spec(env_rng(5, 2))
