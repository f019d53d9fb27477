"""Segment programs: traces precompiled into flat structure-of-arrays.

A *segment program* is what the segment-algebra core actually advances:
the ``(current, duration)`` runs of a trace, subdivided into intervals
short enough that (a) the per-interval linearization of the booster
currents stays inside the documented tolerances and (b) a time-varying
harvest profile is re-sampled often enough to track its breakpoints.
The program is a flat SoA — one float64 array per column — so the fleet
vector path consumes it without touching Python objects in its hot loop.

Programs are immutable and cached: compiling a 10k-segment benchmark
trace costs ~1 ms, advancing it ~3 ms, so re-deriving the program every
run would dominate. The cache is a small LRU keyed on (plant digest,
trace fingerprint). The plant digest is computed once per fleet state
and kept on it (``FleetState.segalg_plants``), so a lookup hashes only
the segment source. Hits and misses are exported as
``segalg.program_cache.{hits,misses}`` counters at batch granularity
(one cache lookup per advance call, not per interval).

The *canonical* program of a trace — the 1:1 interval mapping, no bank,
no subdivision — provides a plant-independent fingerprint used by
:class:`~repro.core.vsafe_cache.VsafeCache` key derivation.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from repro.obs import current as _obs_current
from repro.segalg.model import HARVEST_SOLAR, Bank, bound_current

#: Per-interval voltage budget (V): an interval may not move the ledger
#: by more than this at the bounding current. 10 mV keeps the midpoint
#: linearization error orders of magnitude under the method tolerances
#: while still subdividing the benchmark trace by only ~1.1x.
DV_BUDGET = 0.02

#: Longest interval (s) when the harvest profile is time-varying — the
#: profile is sampled once per interval (at its midpoint), so this is
#: the profile-breakpoint resolution. Harmonic (solar) profiles relax it
#: by phase (:data:`TV_PHASE_BUDGET`).
TV_MAX_INTERVAL = 0.05

#: Max harvest phase advance (radians) per interval for harmonic solar
#: profiles: midpoint sampling of a sinusoid has composite error
#: ~(omega*L)^2/24 on the harvested charge, so 0.15 rad keeps it under
#: ~1e-3 relative while letting a 2-minute solar period compile to
#: ~3 s intervals instead of 0.05 s ones.
TV_PHASE_BUDGET = 0.15

#: Hard cap on subdivisions of a single segment (runaway guard for
#: pathological current/duration combinations).
MAX_SUB = 4096

_CACHE_CAP = 256
_cache: "OrderedDict[tuple, SegmentProgram]" = OrderedDict()


class SegmentProgram:
    """Immutable SoA of constant-current intervals.

    ``i_out``/``dur`` are the per-interval load current and length.
    """

    __slots__ = ("i_out", "dur", "n", "seg_bounds", "_fingerprint")

    def __init__(self, i_out: np.ndarray, dur: np.ndarray,
                 seg_bounds: Optional[np.ndarray] = None) -> None:
        self.i_out = np.ascontiguousarray(i_out, dtype=np.float64)
        self.dur = np.ascontiguousarray(dur, dtype=np.float64)
        self.i_out.setflags(write=False)
        self.dur.setflags(write=False)
        self.n = len(self.i_out)
        # Exclusive interval-index end per *source* segment (zero-length
        # source segments contribute a repeated bound): what lets the
        # fleet path fire recorder captures at the same boundaries the
        # stepping kernel does. Identity mapping when not provided.
        if seg_bounds is None:
            seg_bounds = np.arange(1, self.n + 1)
        self.seg_bounds = np.ascontiguousarray(seg_bounds, dtype=np.intp)
        self.seg_bounds.setflags(write=False)
        self._fingerprint: Optional[str] = None

    def fingerprint(self) -> str:
        """Content hash of the interval arrays.

        Depends only on the compiled intervals — not on plant state —
        so it is stable across processes.
        """
        cached = self._fingerprint
        if cached is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(b"segalg-program-v1")
            digest.update(self.i_out.tobytes())
            digest.update(self.dur.tobytes())
            cached = digest.hexdigest()
            self._fingerprint = cached
        return cached


def compile_segments(segments: Iterable[Tuple[float, float]],
                     bank: Optional[Bank] = None,
                     dv_budget: float = DV_BUDGET) -> SegmentProgram:
    """Compile ``(current, duration)`` runs into a segment program.

    Zero- and negative-length segments are dropped (the stepping loops
    skip them via their ``elapsed < duration - 1e-12`` guard; the
    algebra has no step to skip them with, so they must not produce
    intervals). With a ``bank``, each segment is subdivided so the
    ledger moves at most ``dv_budget`` volts per interval at the
    bounding current, and — under a solar harvest — so no interval is
    longer than the larger of :data:`TV_MAX_INTERVAL` and
    :data:`TV_PHASE_BUDGET` radians of harvest phase. Without a bank the
    mapping is 1:1 (the *canonical* program).
    """
    currents = []
    durations = []
    kept = []
    for current, duration in segments:
        keep = duration > 0.0
        kept.append(keep)
        if keep:
            currents.append(float(current))
            durations.append(float(duration))
    i_arr = np.asarray(currents, dtype=np.float64)
    d_arr = np.asarray(durations, dtype=np.float64)
    kept_arr = np.asarray(kept, dtype=bool)
    counts_full = np.zeros(len(kept), dtype=np.intp)
    if bank is None or len(i_arr) == 0:
        counts_full[kept_arr] = 1
        return SegmentProgram(i_arr, d_arr, np.cumsum(counts_full))

    c_ref = float(np.min(np.asarray(bank.c_tot)))
    budget_q = c_ref * dv_budget
    bounds_by_current = {c: bound_current(bank, c) for c in set(currents)}
    i_bound = np.array([bounds_by_current[c] for c in currents])
    with np.errstate(divide="ignore"):
        n_sub = np.ceil(d_arr * i_bound / budget_q)
    n_sub = np.where(np.isfinite(n_sub), n_sub, MAX_SUB)
    if bank.harvest_mode == HARVEST_SOLAR:
        tv_max = TV_MAX_INTERVAL
        omega = float(np.max(np.asarray(bank.harvest_omega)))
        if omega > 0.0:
            tv_max = max(tv_max, TV_PHASE_BUDGET / omega)
        n_sub = np.maximum(n_sub, np.ceil(d_arr / tv_max))
    counts = np.clip(n_sub, 1, MAX_SUB).astype(np.intp)
    i_flat = np.repeat(i_arr, counts)
    dur_flat = np.repeat(d_arr / counts, counts)
    counts_full[kept_arr] = counts
    return SegmentProgram(i_flat, dur_flat, np.cumsum(counts_full))


def segments_cache_token(segments) -> tuple:
    """A hashable identity token for a segment source.

    A :class:`CurrentTrace` contributes its (lazily cached) fingerprint;
    a plain list/tuple of runs is hashed directly — cheap for the short
    raw segment lists the fleet runner passes (task traces plus charge
    chunks), and identical across processes either way.
    """
    fingerprint = getattr(segments, "fingerprint", None)
    if callable(fingerprint):
        return ("trace", fingerprint())
    runs = tuple((float(c), float(d)) for c, d in segments)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.asarray(runs, dtype=np.float64).tobytes())
    return ("runs", digest.hexdigest(), runs)


def cached_program(key: tuple,
                   build: Callable[[], SegmentProgram]) -> SegmentProgram:
    """LRU lookup with obs hit/miss accounting (batch granularity)."""
    obs = _obs_current()
    program = _cache.get(key)
    if program is not None:
        _cache.move_to_end(key)
        if obs is not None:
            obs.metrics.counter("segalg.program_cache.hits").inc()
        return program
    if obs is not None:
        obs.metrics.counter("segalg.program_cache.misses").inc()
    program = build()
    _cache[key] = program
    while len(_cache) > _CACHE_CAP:
        _cache.popitem(last=False)
    return program


def cache_clear() -> None:
    """Drop all cached programs (test hook)."""
    _cache.clear()


__all__ = [
    "DV_BUDGET",
    "MAX_SUB",
    "SegmentProgram",
    "TV_MAX_INTERVAL",
    "TV_PHASE_BUDGET",
    "cache_clear",
    "cached_program",
    "compile_segments",
    "segments_cache_token",
]
