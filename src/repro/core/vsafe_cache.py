"""Memoization of V_safe analysis results.

Every layer of the reproduction asks the same expensive question — "from
what voltage is this task safe?" — against configurations and traces that
repeat constantly: Algorithm 1 walks the same profiled trace for every
feasibility check, schedulers re-estimate identical task traces when
compiling policies, and the figure harness sweeps hundreds of trials over a
handful of distinct loads. :class:`VsafeCache` is a small LRU keyed on
*content*, not identity:

* traces contribute :meth:`~repro.loads.trace.CurrentTrace.fingerprint`,
  a digest of the canonical segment arrays;
* power systems and models contribute ``config_key()``, a hashable tuple of
  their electrical parameters (charge state excluded).

Invalidation is structural: aging (``aged()``), temperature derating
(``at_temperature()``) and bank reconfiguration all change the buffer's
``config_key()``, so stale entries simply stop matching — there is no
epoch bookkeeping to get wrong. :meth:`VsafeCache.invalidate` exists for
callers that replace a model in place (or want deterministic cold-cache
benchmarks).

A process-wide default cache backs :class:`~repro.core.profile_guided.CulpeoPG`
and the scheduler's policy compiler; :func:`cache_stats` exposes its
hit/miss counters.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

from repro.obs import current as _obs_current


def _key_digest(key: Hashable) -> str:
    """A short, process-independent digest of a cache key for trace events.

    ``hash()`` is salted per process (strings), so a CRC of the repr is
    used instead — stable across workers, which keeps merged traces
    deterministic.
    """
    return format(zlib.crc32(repr(key).encode("utf-8")), "08x")


@dataclass
class CacheStats:
    """Counters for one :class:`VsafeCache` (a snapshot, safe to keep)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    size: int = 0
    maxsize: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def __str__(self) -> str:
        return (f"{self.hits} hits / {self.misses} misses "
                f"({self.hit_rate:.0%}), {self.size}/{self.maxsize} entries, "
                f"{self.evictions} evicted")


class VsafeCache:
    """Thread-safe LRU cache for V_safe estimates and related results.

    Values must be immutable (the frozen ``VsafeEstimate``/``TaskDemand``
    dataclasses are) because hits hand the same object to every caller.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value for ``key``, or ``None`` (counts the lookup)."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                hit = False
                value = None
            else:
                self._data.move_to_end(key)
                self._hits += 1
                hit = True
        self._observe_lookup(key, hit=hit)
        return value

    @staticmethod
    def _observe_lookup(key: Hashable, hit: bool) -> None:
        """Report one lookup to the observability layer (no-op when off)."""
        obs = _obs_current()
        if obs is None:
            return
        obs.metrics.counter("cache.hits" if hit else "cache.misses").inc()
        if obs.tracer is not None:
            obs.tracer.emit("cache.hit" if hit else "cache.miss",
                            key=_key_digest(key))

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value``, evicting the least recently used on overflow."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions += 1

    def get_or_compute(self, key: Hashable,
                       compute: Callable[[], Any]) -> Any:
        """The cached value for ``key``, computing and storing on a miss."""
        value = self.get(key)
        if value is None:
            value = compute()
            self.put(key, value)
        return value

    def invalidate(self) -> None:
        """Drop every entry (keyed invalidation happens via config keys)."""
        with self._lock:
            self._data.clear()
            self._invalidations += 1

    def reset_stats(self) -> None:
        """Zero the counters without touching the entries."""
        with self._lock:
            self._hits = self._misses = 0
            self._evictions = self._invalidations = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              evictions=self._evictions,
                              invalidations=self._invalidations,
                              size=len(self._data), maxsize=self.maxsize)

    def __repr__(self) -> str:
        return f"VsafeCache({self.stats})"


#: Process-wide cache shared by CulpeoPG and the scheduler policy compiler.
_default_cache = VsafeCache()


def default_cache() -> VsafeCache:
    """The process-wide shared cache."""
    return _default_cache


def cache_stats() -> CacheStats:
    """Hit/miss counters of the process-wide cache."""
    return _default_cache.stats
