"""The disk-backed V_safe cache tier: warm across daemon restarts.

The in-process :class:`~repro.core.vsafe_cache.VsafeCache` dies with the
process; a serving daemon restarts often and should not recompute every
estimate it ever served. :class:`PersistentVsafeCache` adds one disk
tier: an append-only checksummed journal of content-keyed entries
(:mod:`repro.serve.journal`), replayed (and integrity-checked) at
startup, appended on every put, compacted atomically when it outgrows
the live set.

Keys are the same *content* identities the in-memory cache uses —
estimator ``cache_key()`` tuples (which fold in the plant's
``config_key()``), trace fingerprints and the content fingerprints of
lowered environments — digested to a stable hex string. Invalidation
therefore stays structural: change the plant, the trace, or the
environment and the key simply stops matching. There is no epoch bookkeeping, and a stale
file can never serve a wrong answer — only a missing one. That holds
across key layouts too: admit keys once also carried a segment-program
fingerprint of the trace, so a journal written before it was dropped
holds digests no current key produces, and its admits only miss.

Failure containment runs in both directions:

* **reads** treat the file as untrusted. Every journal record carries
  its own checksum, so a crash mid-append, a short write, or a flipped
  byte drops exactly the damaged records (``load_status`` becomes
  ``recovered``) while every verifiable record is replayed byte-exactly;
  a file that is not this journal's format at all is rejected whole.
* **writes** degrade instead of failing the request. The first
  ``OSError`` out of the disk (ENOSPC, a failing fsync, a dying device)
  flips the cache into **degraded** mode: the disk tier is abandoned for
  the life of the process, every lookup falls back to memo + compute,
  ``degraded`` / ``disk_errors`` surface in :meth:`stats`, and the
  ``serve.cache.degraded`` obs counter fires. Correctness is never
  delegated to the disk — degraded mode only costs recomputes.

Values round-trip exactly: entries are plain JSON objects of floats and
strings, and CPython's float repr/parse is lossless, so an estimate
restored from disk serves byte-identical answers to one computed fresh.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Hashable, Optional

from repro.core.model import TaskDemand, VsafeEstimate
from repro.obs import current as _obs_current
from repro.serve.faultfs import DiskOps, disk_ops_from_env
from repro.serve.journal import FORMAT, VERSION, JournalWriter, read_journal


def key_digest(key: Hashable) -> str:
    """Stable hex digest of a structured cache key.

    ``repr`` of the key tuple is deterministic for the plain types the
    keys are built from (strings, numbers, nested tuples), and blake2b
    is process-independent — two daemons derive the same digest for the
    same content, which is what makes the file shareable.
    """
    return hashlib.blake2b(repr(key).encode("utf-8"),
                           digest_size=16).hexdigest()


def estimate_entry(estimate: VsafeEstimate) -> dict:
    """A :class:`VsafeEstimate` as a plain JSON entry (lossless floats)."""
    return {
        "kind": "estimate",
        "v_safe": estimate.v_safe,
        "v_delta": estimate.v_delta,
        "energy_v2": estimate.demand.energy_v2,
        "demand_v_delta": estimate.demand.v_delta,
        "method": estimate.method,
    }


def entry_estimate(entry: dict) -> VsafeEstimate:
    """Rebuild the estimate an entry was made from (exact floats)."""
    return VsafeEstimate(
        v_safe=float(entry["v_safe"]),
        v_delta=float(entry["v_delta"]),
        demand=TaskDemand(energy_v2=float(entry["energy_v2"]),
                          v_delta=float(entry["demand_v_delta"])),
        method=str(entry["method"]),
    )


class PersistentVsafeCache:
    """A bounded LRU of JSON entries with a journaled disk tier.

    ``path=None`` is a purely in-memory cache (an
    :class:`~repro.serve.engine.AdmissionEngine` built without one
    makes one); with a path, the constructor replays
    whatever verifiable journal records exist and every :meth:`put`
    appends one durable record. :meth:`flush` fsyncs. Thread-safe like
    its in-memory sibling. ``disk`` overrides the syscall seam (fault
    injection); by default it comes from the ``REPRO_SERVE_FAULTS``
    environment plan, healthy when unset.
    """

    def __init__(self, path: Optional[os.PathLike] = None,
                 maxsize: int = 65536,
                 disk: Optional[DiskOps] = None) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.path = None if path is None else Path(path)
        self.maxsize = maxsize
        self._data: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()
        self._disk_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writer: Optional[JournalWriter] = None
        self._degraded = False
        self._last_disk_error = ""
        self.disk_errors = 0
        #: Why the disk tier did (or did not) contribute at startup.
        self.load_status = "no-file"
        self.loaded_entries = 0
        self.dropped_records = 0
        if self.path is not None:
            if disk is None:
                disk = disk_ops_from_env()
            try:
                self._open_disk_tier(disk)
            except OSError as exc:
                self._disk_fail("open", exc)

    # -- disk tier ----------------------------------------------------------

    def _open_disk_tier(self, disk: DiskOps) -> None:
        """Replay the journal and leave an append descriptor behind."""
        recovery = read_journal(self.path)
        self.load_status = recovery.status
        self.dropped_records = recovery.dropped_records
        if recovery.rejected:
            self._observe_count("serve.cache.load_rejected")
        elif recovery.dropped_records:
            self._observe_count("serve.cache.recovered_drops",
                                recovery.dropped_records)
        with self._lock:
            for digest, entry in recovery.entries.items():
                self._data[digest] = entry
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
            self.loaded_entries = len(self._data)
            snapshot = dict(self._data)
        self._writer = JournalWriter(self.path, disk)
        self._writer.open(write_header=recovery.status == "no-file")
        if recovery.status != "no-file" and recovery.status != "loaded":
            # Torn tails and foreign files are rewritten away so the
            # journal on disk is clean again after every recovery.
            self._writer.compact(snapshot)

    def _disk_fail(self, op: str, exc: BaseException) -> None:
        """First disk failure: abandon the tier, keep serving."""
        self.disk_errors += 1
        first = not self._degraded
        self._degraded = True
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        self._observe_count("serve.cache.disk_error")
        if first:
            self._observe_count("serve.cache.degraded")
        self._last_disk_error = f"{op}: {exc}"

    @property
    def degraded(self) -> bool:
        """True once the disk tier has been abandoned after an error."""
        return self._degraded

    def _journal_put(self, digest: str, entry: dict) -> None:
        if self._writer is None:
            return
        with self._disk_lock:
            writer = self._writer
            if writer is None:      # degraded concurrently
                return
            try:
                writer.append(digest, entry)
                if writer.should_compact(len(self._data)):
                    with self._lock:
                        snapshot = dict(self._data)
                    writer.compact(snapshot)
                    self._observe_count("serve.cache.compactions")
            except OSError as exc:
                self._disk_fail("append", exc)

    def flush(self) -> None:
        """Make every appended record durable (fsync); no-op pathless.

        Puts are already on the journal when this runs — flush only has
        to push them through the page cache. A failing fsync degrades
        the tier like any other disk error (the records may or may not
        have survived; recovery's checksums decide at next startup).
        """
        if self.path is None or self._writer is None:
            return
        with self._disk_lock:
            writer = self._writer
            if writer is None:
                return
            try:
                writer.sync()
            except OSError as exc:
                self._disk_fail("fsync", exc)

    def close(self) -> None:
        """Release the journal descriptor (tests; daemons just exit)."""
        with self._disk_lock:
            if self._writer is not None:
                self._writer.close()
                self._writer = None

    # -- lookups ------------------------------------------------------------

    def get(self, key: Hashable) -> Optional[dict]:
        """The entry for ``key``, or None (counts toward hit/miss stats)."""
        digest = key_digest(key)
        with self._lock:
            entry = self._data.get(digest)
            if entry is None:
                self._misses += 1
            else:
                self._data.move_to_end(digest)
                self._hits += 1
        self._observe(hit=entry is not None)
        return entry

    def put(self, key: Hashable, entry: dict) -> None:
        if not isinstance(entry, dict):
            raise TypeError(f"entries are plain dicts, got {type(entry)}")
        digest = key_digest(key)
        with self._lock:
            self._data[digest] = entry
            self._data.move_to_end(digest)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
        if not self._degraded:
            self._journal_put(digest, entry)

    def get_estimate(self, key: Hashable) -> Optional[VsafeEstimate]:
        entry = self.get(key)
        if entry is None or entry.get("kind") != "estimate":
            return None
        try:
            return entry_estimate(entry)
        except (KeyError, TypeError, ValueError):
            return None

    def put_estimate(self, key: Hashable, estimate: VsafeEstimate) -> None:
        self.put(key, estimate_entry(estimate))

    @staticmethod
    def _observe(hit: bool) -> None:
        obs = _obs_current()
        if obs is None:
            return
        obs.metrics.counter(
            "serve.cache.hits" if hit else "serve.cache.misses").inc()

    @staticmethod
    def _observe_count(name: str, n: int = 1) -> None:
        obs = _obs_current()
        if obs is not None:
            obs.metrics.counter(name).inc(n)

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> dict:
        with self._lock:
            stats = {
                "entries": len(self._data),
                "maxsize": self.maxsize,
                "hits": self._hits,
                "misses": self._misses,
                "load_status": self.load_status,
                "loaded_entries": self.loaded_entries,
                "degraded": self._degraded,
                "disk_errors": self.disk_errors,
            }
        if self._degraded:
            stats["last_disk_error"] = self._last_disk_error
        if self._writer is not None:
            stats["journal_records"] = self._writer.records
            stats["compactions"] = self._writer.compactions
        return stats


__all__ = [
    "FORMAT",
    "VERSION",
    "PersistentVsafeCache",
    "entry_estimate",
    "estimate_entry",
    "key_digest",
]
