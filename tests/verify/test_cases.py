"""Repro cases: JSON round-trip fidelity and replay."""

import pytest

from repro.verify.cases import ReproCase, load_case, save_case
from repro.verify.generators import random_system_spec, random_trace, \
    trace_segments, trial_rng
from repro.verify.oracle import Verdict


def _sample_case(seed=0, index=0, estimator="energy-direct"):
    rng = trial_rng(seed, index)
    spec = random_system_spec(rng)
    trace = random_trace(rng, spec)
    return ReproCase.build(estimator, spec, trace,
                           tolerance=0.002, conservative_margin=0.25,
                           seed=seed, index=index)


class TestRoundTrip:
    def test_save_load_is_bit_faithful(self, tmp_path):
        case = _sample_case()
        path = tmp_path / "case.json"
        save_case(case, path)
        loaded = load_case(path)
        assert loaded == case
        assert loaded.to_dict() == case.to_dict()

    def test_trace_property_rebuilds_segments(self):
        case = _sample_case()
        assert trace_segments(case.trace) == case.segments

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            ReproCase.from_dict({"format": "something-else"})
        good = _sample_case().to_dict()
        good["version"] = 99
        with pytest.raises(ValueError):
            ReproCase.from_dict(good)

    @pytest.mark.parametrize("key,value", [
        # with a NaN or infinite tolerance every replay would read SOUND
        ("tolerance", float("nan")), ("tolerance", float("inf")),
        ("tolerance", 0.0), ("conservative_margin", float("nan")),
        ("conservative_margin", float("inf")), ("conservative_margin", 0.0),
        ("estimator", "psychic"),
    ])
    def test_rejects_what_no_replay_can_run(self, key, value):
        document = _sample_case().to_dict()
        document[key] = value
        with pytest.raises(ValueError, match=key):
            ReproCase.from_dict(document)


class TestReplay:
    def test_replay_runs_the_recorded_check(self):
        result = _sample_case().replay()
        assert result.verdict in tuple(Verdict)
        assert result.estimator   # display name resolved via the registry

    def test_energy_only_case_replays_unsound(self, tmp_path):
        """The known-unsound baseline on the seed-0 trial convicts — and
        keeps convicting after a disk round trip."""
        case = _sample_case(estimator="energy-direct")
        assert case.replay().verdict is Verdict.UNSOUND
        path = tmp_path / "case.json"
        save_case(case, path)
        assert load_case(path).replay().verdict is Verdict.UNSOUND
