"""Recorded environment traces: a compact, versioned ``.npz`` format.

An :class:`EnvFleetTrace` is the on-disk form of a correlated fleet
environment: the shared edge grid, one power column per device, the
generating :class:`~repro.env.spec.EnvSpec` (when there is one — a
trace recorded from real hardware has none), and a **content
fingerprint** over the canonical arrays. The fingerprint is the trace's
integrity check: ``load_trace`` and ``repro env replay`` verify the
arrays against it. It keys no cache; each device's column, replayed as
a :class:`TraceHarvester`, keys the V_safe cache by its own content
fingerprint.

The writer is **byte-deterministic**: ``numpy.savez`` stamps zip
members with the current wall clock, so two identical saves differ;
this module writes the zip members itself with a fixed epoch timestamp
and no compression, making save → load → save a byte-identical
round-trip (a property the test layer and the CI byte-identity gates
rely on). Files remain ordinary ``.npz`` archives ``numpy.load`` reads.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.env.correlate import fleet_columns
from repro.env.spec import EnvSpec
from repro.obs import current as _obs_current
from repro.power.harvester import TraceHarvester

FORMAT = "repro.env-trace"
VERSION = 1

#: Fixed zip member timestamp (the zip epoch) — the whole point of the
#: custom writer.
_EPOCH = (1980, 1, 1, 0, 0, 0)


def trace_fingerprint(edges: np.ndarray, powers: np.ndarray) -> str:
    """Content digest of the canonical trace arrays."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"{FORMAT}-v{VERSION}".encode())
    digest.update(np.ascontiguousarray(edges, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(powers, dtype=np.float64).tobytes())
    return digest.hexdigest()


@dataclass
class EnvFleetTrace:
    """A fleet environment trace: shared edges, per-device columns."""

    edges: np.ndarray   # [K + 1], starts at 0.0, strictly increasing
    powers: np.ndarray  # [devices, K], finite, non-negative
    spec: Optional[EnvSpec] = None

    def __post_init__(self) -> None:
        self.edges = np.ascontiguousarray(self.edges, dtype=np.float64)
        self.powers = np.ascontiguousarray(self.powers, dtype=np.float64)
        if self.edges.ndim != 1 or self.powers.ndim != 2:
            raise ValueError("edges must be 1-D and powers 2-D")
        if self.powers.shape[1] != len(self.edges) - 1:
            raise ValueError(
                f"powers has {self.powers.shape[1]} pieces for "
                f"{len(self.edges)} edges")
        if len(self.edges) < 2 or self.edges[0] != 0.0 \
                or not np.all(np.diff(self.edges) > 0.0):
            raise ValueError(
                "edges must start at 0.0 and increase strictly")
        if np.any(self.powers < 0.0) \
                or not np.all(np.isfinite(self.powers)):
            raise ValueError("powers must be finite and non-negative")

    @property
    def devices(self) -> int:
        return int(self.powers.shape[0])

    @property
    def duration(self) -> float:
        return float(self.edges[-1])

    @property
    def fingerprint(self) -> str:
        return trace_fingerprint(self.edges, self.powers)

    def device_harvester(self, i: int) -> TraceHarvester:
        """Device ``i``'s column as a scalar harvester (shared edges)."""
        return TraceHarvester(self.edges, self.powers[i])

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
            "spec": self.spec.to_dict() if self.spec is not None else None,
        }


def generate_fleet_trace(spec: EnvSpec, devices: int) -> EnvFleetTrace:
    """Expand ``spec`` into a correlated fleet trace (pure function)."""
    edges, powers = fleet_columns(spec, devices)
    trace = EnvFleetTrace(edges=edges, powers=powers, spec=spec)
    obs = _obs_current()
    if obs is not None:
        obs.metrics.counter("env.fleet_traces_generated").inc()
    return trace


def save_trace(path, trace: EnvFleetTrace) -> None:
    """Write ``trace`` as a byte-deterministic ``.npz`` archive."""
    header = {
        "format": FORMAT,
        "version": VERSION,
        "fingerprint": trace.fingerprint,
        "spec": trace.spec.to_dict() if trace.spec is not None else None,
    }
    members = {
        "edges": trace.edges,
        "header": np.array(json.dumps(header, sort_keys=True)),
        "powers": trace.powers,
    }
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name in sorted(members):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(members[name]),
                                      version=(1, 0))
            info = zipfile.ZipInfo(name + ".npy", date_time=_EPOCH)
            archive.writestr(info, buf.getvalue())
    obs = _obs_current()
    if obs is not None:
        obs.metrics.counter("env.traces_saved").inc()


def load_trace(path) -> EnvFleetTrace:
    """Read a trace written by :func:`save_trace`, verifying identity."""
    with np.load(path, allow_pickle=False) as data:
        try:
            header = json.loads(str(data["header"]))
            edges = data["edges"]
            powers = data["powers"]
        except KeyError as exc:
            raise ValueError(f"{path}: not an environment trace "
                             f"(missing member {exc})") from exc
    if header.get("format") != FORMAT:
        raise ValueError(
            f"{path}: not an environment trace: {header.get('format')!r}")
    if header.get("version") != VERSION:
        raise ValueError(
            f"{path}: unsupported trace version {header.get('version')!r}")
    spec = EnvSpec.from_dict(header["spec"]) if header.get("spec") else None
    trace = EnvFleetTrace(edges=edges, powers=powers, spec=spec)
    recorded = header.get("fingerprint", "")
    if recorded and recorded != trace.fingerprint:
        raise ValueError(
            f"{path}: content fingerprint mismatch — recorded {recorded}, "
            f"computed {trace.fingerprint} (corrupt or hand-edited trace)")
    obs = _obs_current()
    if obs is not None:
        obs.metrics.counter("env.traces_loaded").inc()
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
