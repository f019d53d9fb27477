"""Process-local metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is the numeric half of the observability layer
(:mod:`repro.obs`): instrumented code increments counters, sets gauges and
observes histogram samples; consumers take a :meth:`~MetricsRegistry.snapshot`
and render or persist it.

Two design rules make the registry safe for this repo's execution model:

* **Fixed bucket boundaries.** A histogram's buckets are declared at
  creation and never adapt to the data, so two histograms observed in
  different processes (or in different orders) aggregate by plain
  bucket-count addition — a serial run and a process-pool run merge to the
  *identical* snapshot. This mirrors how
  :func:`repro.harness.parallel.parallel_map` keeps results bit-identical:
  no state may depend on which worker saw which item.
* **Plain-data snapshots.** ``snapshot()``/``merge_snapshot()`` speak JSON
  dictionaries, which is what lets a worker process ship its registry back
  through a pickle boundary and the parent fold it in.

All instruments are thread-safe; the cost only exists while observability
is enabled — disabled code paths never touch a registry at all.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

#: Default boundaries for wall-clock latency histograms (seconds).
#: Spans 10 µs to ~100 s on a log scale — wide enough for a single fast
#: kernel call and a full 200-trial verification run alike.
LATENCY_BUCKETS_S: Tuple[float, ...] = tuple(
    round(10.0 ** (e / 3.0), 12) for e in range(-15, 7)
)

#: Default boundaries for capacitor-voltage histograms (volts, 50 mV bins
#: over the platforms' 0–5 V envelope).
VOLTAGE_BUCKETS_V: Tuple[float, ...] = tuple(
    round(0.05 * i, 10) for i in range(1, 101)
)

#: Default boundaries for throughput histograms (items per second on a
#: log scale, 1 to 10^9) — wide enough for device·steps/s of both the
#: scalar stepping loop and the vectorized fleet kernel.
THROUGHPUT_BUCKETS: Tuple[float, ...] = tuple(
    round(10.0 ** (e / 3.0), 6) for e in range(0, 28)
)

#: Default boundaries for small discrete-count histograms (events per
#: advance): 0 and a coarse log-2 ladder to 4096.
#: Most segment-algebra advances see zero or a handful of events; the
#: tail buckets catch pathological regime-chatter workloads.
EVENT_COUNT_BUCKETS: Tuple[float, ...] = tuple(
    [0.0] + [float(2 ** e) for e in range(0, 13)]
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time float (last write wins)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """A histogram over fixed, sorted bucket upper bounds.

    ``buckets`` are inclusive upper bounds; an implicit overflow bucket
    catches everything above the last bound. Count, sum, min and max are
    tracked exactly alongside the bucket counts, so merged snapshots keep
    exact totals even though per-sample values are binned.
    """

    __slots__ = ("name", "buckets", "_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must be strictly increasing: "
                             f"{bounds}")
        self.name = name
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)   # +1: overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        # First bucket whose (inclusive) upper bound holds the value; past
        # the last bound lands in the overflow slot.
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_many(self, values: Sequence[float]) -> None:
        """Fold a batch of samples in under one lock acquisition.

        Equivalent to calling :meth:`observe` per value (same bucket
        arithmetic, same exact totals) but cheap enough for array-sized
        batches — the fleet kernel records thousands of per-device
        voltages at once.
        """
        if len(values) == 0:
            return
        floats = [float(v) for v in values]
        with self._lock:
            for value in floats:
                self._counts[bisect_left(self.buckets, value)] += 1
                self._sum += value
                if value < self._min:
                    self._min = value
                if value > self._max:
                    self._max = value
            self._count += len(floats)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def merge_from(self, other: "Histogram") -> None:
        """Fold another histogram's samples into this one, allocation-free.

        The other side's fields are copied to locals under *its* lock,
        then folded under *ours* — no snapshot dictionary is built, which
        is what keeps registry merging off the allocator in hot serving
        paths. Exact totals merge exactly; bucket bounds must match.
        """
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histogram {other.name!r} into {self.name!r}: "
                f"bucket bounds differ")
        with other._lock:
            counts = list(other._counts)
            count = other._count
            total = other._sum
            low = other._min
            high = other._max
        with self._lock:
            for index, value in enumerate(counts):
                self._counts[index] += value
            self._count += count
            self._sum += total
            if low < self._min:
                self._min = low
            if high > self._max:
                self._max = high

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (q in [0, 1]) from the bucket counts.

        Returns the upper bound of the bucket holding the quantile sample
        (the exact max for the overflow bucket) — a deterministic,
        merge-stable approximation.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        target = q * self._count
        seen = 0
        for index, count in enumerate(self._counts):
            seen += count
            if seen >= target and count:
                if index < len(self.buckets):
                    return self.buckets[index]
                return self._max
        return self._max


class MetricsRegistry:
    """A named collection of instruments with deterministic merging."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access (get-or-create) ---------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(name, Counter(name))
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge(name))
        return gauge

    def histogram(self, name: str,
                  buckets: Sequence[float] = LATENCY_BUCKETS_S) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    name, Histogram(name, buckets))
        elif tuple(float(b) for b in buckets) != histogram.buckets:
            raise ValueError(
                f"histogram {name!r} already registered with different "
                f"bucket bounds"
            )
        return histogram

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-ready dictionary of every instrument, names sorted."""
        counters = {name: c.value
                    for name, c in sorted(self._counters.items())}
        gauges = {name: g.value for name, g in sorted(self._gauges.items())}
        histograms = {}
        for name, h in sorted(self._histograms.items()):
            with h._lock:  # noqa: SLF001 — consistent multi-field read
                histograms[name] = {
                    "buckets": list(h.buckets),
                    "counts": list(h._counts),  # noqa: SLF001
                    "count": h._count,          # noqa: SLF001
                    "sum": h._sum,              # noqa: SLF001
                    "min": None if h._count == 0 else h._min,  # noqa: SLF001
                    "max": None if h._count == 0 else h._max,  # noqa: SLF001
                }
        return {
            "format": "repro.obs-metrics",
            "version": 1,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram buckets add; gauges take the incoming value
        (callers merge in submission order, so the result is deterministic).
        Histograms must share bucket bounds — they do by construction when
        both sides use the same metric declarations.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, payload in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, payload["buckets"])
            incoming_min = payload.get("min")
            incoming_max = payload.get("max")
            with histogram._lock:  # noqa: SLF001
                for index, count in enumerate(payload["counts"]):
                    histogram._counts[index] += int(count)  # noqa: SLF001
                histogram._count += int(payload["count"])   # noqa: SLF001
                histogram._sum += float(payload["sum"])     # noqa: SLF001
                if incoming_min is not None \
                        and incoming_min < histogram._min:  # noqa: SLF001
                    histogram._min = incoming_min           # noqa: SLF001
                if incoming_max is not None \
                        and incoming_max > histogram._max:  # noqa: SLF001
                    histogram._max = incoming_max           # noqa: SLF001

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one, instrument to instrument.

        Used on hot paths (the serving dispatcher folds per-batch
        registries once per batch), so unlike :meth:`merge_snapshot` it
        never materializes the intermediate snapshot dictionary —
        counters add, gauges take the incoming value, histograms fold via
        :meth:`Histogram.merge_from`. Same result as merging the other
        side's snapshot, minus the allocations.
        """
        for name, counter in sorted(other._counters.items()):
            self.counter(name).inc(counter.value)
        for name, gauge in sorted(other._gauges.items()):
            self.gauge(name).set(gauge.value)
        for name, histogram in sorted(other._histograms.items()):
            self.histogram(name, histogram.buckets).merge_from(histogram)

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))


def render_snapshot(snapshot: dict,
                    title: Optional[str] = None) -> str:
    """Render a metrics snapshot as aligned text tables.

    Scalar instruments (counters and gauges) go in one table; histograms in
    a second with count/mean/extremes and merge-stable p50/p99.
    """
    from repro.harness.report import TextTable

    lines: List[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    if counters or gauges:
        table = TextTable(["metric", "type", "value"], title=title)
        for name, value in sorted(counters.items()):
            table.add_row([name, "counter", value])
        for name, value in sorted(gauges.items()):
            table.add_row([name, "gauge", f"{value:g}"])
        lines.append(table.render())
    histograms = snapshot.get("histograms", {})
    if histograms:
        table = TextTable(
            ["histogram", "count", "mean", "min", "max", "p50", "p99"],
            title=None if lines else title,
        )
        for name, payload in sorted(histograms.items()):
            histogram = Histogram(name, payload["buckets"])
            registry = MetricsRegistry()
            registry._histograms[name] = histogram  # noqa: SLF001
            registry.merge_snapshot({"histograms": {name: payload}})
            count = histogram.count
            fmt = (lambda v: "—" if v is None else f"{v:.4g}")
            table.add_row([
                name, count, f"{histogram.mean:.4g}",
                fmt(payload.get("min")), fmt(payload.get("max")),
                f"{histogram.quantile(0.50):.4g}" if count else "—",
                f"{histogram.quantile(0.99):.4g}" if count else "—",
            ])
        lines.append(table.render())
    if not lines:
        return "(no metrics recorded)"
    return "\n\n".join(lines)
