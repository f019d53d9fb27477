"""Recordings: canonical JSON documents, fingerprints, byte identity.

The CI byte-identity gates rest on the writer being deterministic:
save -> load -> save must reproduce the file byte for byte, and two
recordings of one spec must be identical. The fingerprint is the
recording's identity: the loader regenerates the columns from the spec
and refuses a document whose recorded digest they no longer match.
"""

import json

import numpy as np
import pytest

from repro.env import (
    EnvFleetTrace,
    EnvSpec,
    generate_fleet_trace,
    load_trace,
    save_trace,
)
from repro.env.trace_io import trace_fingerprint


def _spec(**overrides):
    base = dict(model="diurnal-solar", duration=20.0, seed=6,
                cloud_rate=6.0, front_delay=0.3, grid_dt=0.25)
    base.update(overrides)
    return EnvSpec(**base)


@pytest.fixture
def trace():
    return generate_fleet_trace(_spec(), devices=5)


def _edit(path, **fields):
    """Rewrite the recording at ``path`` with ``fields`` changed, as a
    hand edit would (spec fields go through ``spec``)."""
    document = json.loads(path.read_text())
    document["spec"].update(fields.pop("spec", {}))
    document.update(fields)
    path.write_text(json.dumps(document))


class TestEnvFleetTrace:
    def test_generation_is_deterministic(self, trace):
        again = generate_fleet_trace(_spec(), devices=5)
        np.testing.assert_array_equal(trace.edges, again.edges)
        np.testing.assert_array_equal(trace.powers, again.powers)
        assert trace.fingerprint == again.fingerprint

    def test_fingerprint_tracks_content(self, trace):
        bent = EnvFleetTrace(spec=trace.spec, edges=trace.edges,
                             powers=trace.powers + 1e-6)
        assert bent.fingerprint != trace.fingerprint
        assert trace.fingerprint == trace_fingerprint(trace.edges,
                                                      trace.powers)

    def test_fingerprint_is_the_version_1_digest(self, trace):
        """A recording carries the fingerprint that the version-1 archive
        of the same spec and fleet carried, so old recordings can be
        checked against new ones."""
        assert trace.fingerprint == "29a675c2f2d2d737a1f749c8241bea84"

    def test_summary_fields(self, trace):
        summary = trace.summary()
        assert summary["format"] == "repro.env-trace"
        assert summary["version"] == 2
        assert summary["devices"] == 5
        assert summary["pieces"] == 80
        assert summary["fingerprint"] == trace.fingerprint
        assert summary["spec"]["model"] == "diurnal-solar"
        json.dumps(summary)  # must be a plain JSON document


class TestRoundTrip:
    def test_save_load_preserves_everything(self, trace, tmp_path):
        path = tmp_path / "sky.json"
        save_trace(path, trace)
        loaded = load_trace(path)
        np.testing.assert_array_equal(loaded.edges, trace.edges)
        np.testing.assert_array_equal(loaded.powers, trace.powers)
        assert loaded.spec == trace.spec
        assert loaded.fingerprint == trace.fingerprint

    def test_save_load_save_is_byte_identical(self, trace, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_trace(first, trace)
        save_trace(second, load_trace(first))
        assert first.read_bytes() == second.read_bytes()

    def test_two_saves_of_the_same_spec_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_trace(a, generate_fleet_trace(_spec(), devices=5))
        save_trace(b, generate_fleet_trace(_spec(), devices=5))
        assert a.read_bytes() == b.read_bytes()

    def test_document_is_canonical_json(self, trace, tmp_path):
        """Sorted keys, two-space indent, one trailing newline; the spec,
        the fleet size and the fingerprint, never the columns."""
        path = tmp_path / "sky.json"
        save_trace(path, trace)
        text = path.read_text()
        document = json.loads(text)
        assert text == json.dumps(document, indent=2, sort_keys=True) + "\n"
        assert document == {"devices": 5, "fingerprint": trace.fingerprint,
                            "format": "repro.env-trace",
                            "spec": trace.spec.to_dict(), "version": 2}


class TestLoadRejections:
    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, edges=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="not an environment trace"):
            load_trace(path)

    def test_rejects_a_version_1_archive(self, trace, tmp_path):
        """Version 1 wrote zip archives of the columns; the message says
        how to re-record one."""
        path = tmp_path / "sky.npz"
        header = json.dumps({"format": "repro.env-trace", "version": 1,
                             "spec": trace.spec.to_dict()})
        np.savez(path, edges=trace.edges, header=np.array(header),
                 powers=trace.powers)
        with pytest.raises(ValueError, match="version 1 recordings") as exc:
            load_trace(path)
        assert "repro env generate" in str(exc.value)

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        for text in ('{"format": "repro.env-spec"}', "[1, 2]", "not json"):
            path.write_text(text)
            with pytest.raises(ValueError, match="not an environment trace"):
                load_trace(path)

    def test_rejects_tampered_content(self, trace, tmp_path):
        path = tmp_path / "sky.json"
        save_trace(path, trace)
        _edit(path, fingerprint="0" * 32)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            load_trace(path)

    @pytest.mark.parametrize("edit", [
        {"spec": {"seed": 7}},        # the columns drift from the record
        {"spec": {"front_delay": 0.5}},
        {"devices": 4},
    ], ids=["spec-seed", "spec-front-delay", "devices"])
    def test_rejects_a_hand_edit(self, edit, trace, tmp_path):
        path = tmp_path / "sky.json"
        save_trace(path, trace)
        _edit(path, **edit)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            load_trace(path)

    @pytest.mark.parametrize("spec", [
        None, {"model": "lunar"}, {"model": "diurnal-solar", "warp": 9},
        {"model": "diurnal-solar", "duration": float("nan")},
    ], ids=["missing", "unknown-model", "unknown-field", "nan-duration"])
    def test_rejects_a_bad_spec(self, spec, trace, tmp_path):
        path = tmp_path / "sky.json"
        save_trace(path, trace)
        document = json.loads(path.read_text())
        document["spec"] = spec
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="bad environment spec"):
            load_trace(path)

    @pytest.mark.parametrize("devices", [-1, 2.5, "5", True, None])
    def test_rejects_a_bad_fleet_size(self, devices, trace, tmp_path):
        path = tmp_path / "sky.json"
        save_trace(path, trace)
        _edit(path, devices=devices)
        with pytest.raises(ValueError, match="devices must be an integer"):
            load_trace(path)

    def test_rejects_future_version(self, trace, tmp_path):
        path = tmp_path / "sky.json"
        save_trace(path, trace)
        _edit(path, version=99)
        with pytest.raises(ValueError, match="unsupported trace version"):
            load_trace(path)
