"""Recorded environments: a canonical JSON document of a spec.

A recording is the on-disk form of a correlated fleet environment. It
holds the generating :class:`~repro.env.spec.EnvSpec`, the fleet size and
the **content fingerprint** of the power columns that spec expands to
(:func:`~repro.env.correlate.fleet_columns`), not the columns themselves:
every consumer runs the fleet from the spec, so :func:`load_trace`
regenerates the columns and refuses the recording when they no longer
match the fingerprint — a hand edit, or a change in the environment code
since the recording was made. Each device's column, replayed as a
:class:`~repro.power.harvester.TraceHarvester`, keys the V_safe cache by
its own content fingerprint.

The writer is **byte-deterministic**: sorted keys, fixed separators and a
trailing newline, so two recordings of one spec compare equal under
``cmp``. Version 1 recordings were ``.npz`` archives of the columns; they
are refused, and ``repro env generate`` with the same flags re-records
them with the fingerprint they carried.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.env.correlate import fleet_columns
from repro.env.spec import EnvSpec

FORMAT = "repro.env-trace"
VERSION = 2

#: The column digest's salt. It names version 1, whose archives stored the
#: columns, so a document's fingerprint equals the one the version-1
#: recording of the same spec and fleet carried.
_DIGEST_SALT = f"{FORMAT}-v1".encode()


def trace_fingerprint(edges: np.ndarray, powers: np.ndarray) -> str:
    """Content digest of the canonical trace arrays."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(_DIGEST_SALT)
    digest.update(np.ascontiguousarray(edges, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(powers, dtype=np.float64).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True, eq=False)
class EnvFleetTrace:
    """A fleet environment: its spec and the columns the spec expands to."""

    spec: EnvSpec
    edges: np.ndarray   # [K + 1], the shared grid, starts at 0.0
    powers: np.ndarray  # [devices, K], one power column per device

    @property
    def devices(self) -> int:
        return int(self.powers.shape[0])

    @property
    def duration(self) -> float:
        return float(self.edges[-1])

    @property
    def fingerprint(self) -> str:
        return trace_fingerprint(self.edges, self.powers)

    def summary(self) -> dict:
        """Inspection record (the ``repro env inspect`` payload)."""
        return {
            "format": FORMAT,
            "version": VERSION,
            "devices": self.devices,
            "pieces": int(self.powers.shape[1]),
            "duration_s": self.duration,
            "fingerprint": self.fingerprint,
            "power_max_w": float(self.powers.max()) if self.powers.size
            else 0.0,
            "power_mean_w": float(self.powers.mean()) if self.powers.size
            else 0.0,
            "spec": self.spec.to_dict(),
        }

    def document(self) -> str:
        """The recording: canonical JSON, one trailing newline."""
        return json.dumps(
            {"format": FORMAT, "version": VERSION, "devices": self.devices,
             "spec": self.spec.to_dict(), "fingerprint": self.fingerprint},
            indent=2, sort_keys=True, separators=(",", ": ")) + "\n"


def generate_fleet_trace(spec: EnvSpec, devices: int) -> EnvFleetTrace:
    """Expand ``spec`` into a correlated fleet trace (pure function)."""
    edges, powers = fleet_columns(spec, devices)
    return EnvFleetTrace(spec=spec, edges=edges, powers=powers)


def save_trace(path, trace: EnvFleetTrace) -> None:
    """Write ``trace``'s recording to ``path``."""
    Path(path).write_text(trace.document(), encoding="utf-8")


def load_trace(path) -> EnvFleetTrace:
    """Read a recording and regenerate its columns from the spec.

    Raises :class:`ValueError` naming ``path`` for a file that is not a
    version-2 recording, a bad spec or fleet size, or columns whose
    fingerprint differs from the recorded one.
    """
    raw = Path(path).read_bytes()
    try:
        document = json.loads(raw)
    except ValueError:
        document = None
    if not isinstance(document, dict) or document.get("format") != FORMAT:
        hint = (" (a zip archive: version 1 recordings were .npz files, "
                "re-record them with `repro env generate`)"
                if raw.startswith(b"PK") else "")
        raise ValueError(f"{path}: not an environment trace{hint}")
    if document.get("version") != VERSION:
        raise ValueError(
            f"{path}: unsupported trace version {document.get('version')!r}")
    devices = document.get("devices")
    if type(devices) is not int or devices < 0:
        raise ValueError(f"{path}: devices must be an integer >= 0, "
                         f"got {devices!r}")
    try:
        spec = EnvSpec.from_dict(document["spec"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad environment spec: "
                         f"{type(exc).__name__}: {exc}") from exc
    trace = generate_fleet_trace(spec, devices)
    recorded = document.get("fingerprint")
    if recorded != trace.fingerprint:
        raise ValueError(
            f"{path}: content fingerprint mismatch — recorded {recorded}, "
            f"regenerated {trace.fingerprint} (hand-edited, or the "
            f"environment code changed since it was recorded)")
    return trace


__all__ = [
    "EnvFleetTrace",
    "FORMAT",
    "VERSION",
    "generate_fleet_trace",
    "load_trace",
    "save_trace",
    "trace_fingerprint",
]
