"""Metrics registry: instruments, snapshots, deterministic merging."""

import json

import pytest

from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    VOLTAGE_BUCKETS_V,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_snapshot,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(1.5)
        gauge.set(2.25)
        assert gauge.value == 2.25


class TestHistogram:
    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", [])
        with pytest.raises(ValueError):
            Histogram("h", [2.0, 1.0])
        with pytest.raises(ValueError):
            Histogram("h", [1.0, 1.0])

    def test_inclusive_upper_bounds(self):
        histogram = Histogram("h", [1.0, 2.0])
        histogram.observe(1.0)       # lands in the first bucket, not second
        histogram.observe(1.5)
        histogram.observe(9.0)       # overflow
        assert histogram._counts == [1, 1, 1]

    def test_exact_aggregates(self):
        histogram = Histogram("h", [10.0])
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == 6.0
        assert histogram.mean == 2.0

    def test_quantile_returns_bucket_bound(self):
        histogram = Histogram("h", [1.0, 2.0, 4.0])
        for value in (0.5, 1.5, 1.6, 3.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(0.5) == 2.0
        assert histogram.quantile(1.0) == 4.0

    def test_quantile_overflow_uses_exact_max(self):
        histogram = Histogram("h", [1.0])
        histogram.observe(7.5)
        assert histogram.quantile(0.99) == 7.5

    def test_quantile_validates_and_handles_empty(self):
        histogram = Histogram("h", [1.0])
        assert histogram.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_mean_of_empty_is_zero(self):
        assert Histogram("h", [1.0]).mean == 0.0


class TestDefaultBuckets:
    @pytest.mark.parametrize("buckets",
                             [LATENCY_BUCKETS_S, VOLTAGE_BUCKETS_V])
    def test_strictly_increasing(self, buckets):
        assert list(buckets) == sorted(set(buckets))

    def test_voltage_envelope(self):
        assert VOLTAGE_BUCKETS_V[0] == pytest.approx(0.05)
        assert VOLTAGE_BUCKETS_V[-1] == pytest.approx(5.0)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
        assert len(registry) == 3

    def test_histogram_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", [1.0, 2.0])
        with pytest.raises(ValueError):
            registry.histogram("h", [1.0, 3.0])

    def test_histogram_lookup_by_its_own_bounds(self):
        """A float tuple is kept as the histogram's bounds, so a lookup
        passing that very object skips the per-bound comparison; equal
        bounds in another object still match, and other bounds still
        raise — a list too, even the one registered, since it can
        change after registration."""
        registry = MetricsRegistry()
        histogram = registry.histogram("h", LATENCY_BUCKETS_S)
        assert histogram.buckets is LATENCY_BUCKETS_S
        assert registry.histogram("h", LATENCY_BUCKETS_S) is histogram
        assert registry.histogram("h", list(LATENCY_BUCKETS_S)) is histogram
        for other in (VOLTAGE_BUCKETS_V, LATENCY_BUCKETS_S[:-1]):
            with pytest.raises(ValueError, match="different bucket bounds"):
                registry.histogram("h", other)
        bounds = [1.0, 2.0]
        assert registry.histogram("l", bounds).buckets == (1.0, 2.0)
        bounds.append(3.0)
        with pytest.raises(ValueError, match="different bucket bounds"):
            registry.histogram("l", bounds)

    def test_snapshot_is_json_ready_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z").inc(2)
        registry.counter("a").inc(1)
        registry.gauge("g").set(0.5)
        registry.histogram("h", [1.0]).observe(0.25)
        snapshot = registry.snapshot()
        assert snapshot["format"] == "repro.obs-metrics"
        assert snapshot["version"] == 1
        assert list(snapshot["counters"]) == ["a", "z"]
        assert snapshot["histograms"]["h"]["count"] == 1
        json.dumps(snapshot)  # must serialize without custom encoders

    def test_empty_histogram_snapshot_has_null_extremes(self):
        registry = MetricsRegistry()
        registry.histogram("h", [1.0])
        payload = registry.snapshot()["histograms"]["h"]
        assert payload["min"] is None and payload["max"] is None


def _observe_all(registry, samples):
    for value in samples:
        registry.counter("events").inc()
        registry.gauge("last").set(value)
        registry.histogram("values", [1.0, 2.0, 4.0]).observe(value)


class TestMerge:
    """``merge_snapshot`` is the one merge path (pooled workers fold
    through it); these pin its semantics on another registry's
    ``snapshot()``."""

    def test_split_merge_equals_serial(self):
        """The property the parallel harness relies on: any partition of
        the observation stream merges back to the identical snapshot."""
        samples = [0.5, 1.0, 1.5, 2.5, 3.0, 4.0, 9.0]
        serial = MetricsRegistry()
        _observe_all(serial, samples)

        merged = MetricsRegistry()
        for lo, hi in ((0, 2), (2, 5), (5, len(samples))):
            part = MetricsRegistry()
            _observe_all(part, samples[lo:hi])
            merged.merge_snapshot(part.snapshot())
        assert merged.snapshot() == serial.snapshot()

    def test_merge_snapshot_round_trips_through_json(self):
        source = MetricsRegistry()
        _observe_all(source, [0.5, 2.0])
        target = MetricsRegistry()
        target.merge_snapshot(json.loads(json.dumps(source.snapshot())))
        assert target.snapshot() == source.snapshot()

    def test_counters_add_and_gauges_take_incoming(self):
        a = MetricsRegistry()
        a.counter("n").inc(3)
        a.gauge("g").set(1.0)
        b = MetricsRegistry()
        b.counter("n").inc(4)
        b.gauge("g").set(2.0)
        a.merge_snapshot(b.snapshot())
        assert a.counter("n").value == 7
        assert a.gauge("g").value == 2.0

    def test_merge_preserves_extremes(self):
        a = MetricsRegistry()
        a.histogram("h", [10.0]).observe(5.0)
        b = MetricsRegistry()
        b.histogram("h", [10.0]).observe(1.0)
        b.histogram("h", [10.0]).observe(8.0)
        a.merge_snapshot(b.snapshot())
        histogram = a.histogram("h", [10.0])
        assert histogram._min == 1.0 and histogram._max == 8.0
        assert histogram.count == 3

    def test_histogram_merge_keeps_exact_totals(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram("h", [1.0, 4.0]).observe(0.5)
        b.histogram("h", [1.0, 4.0]).observe(2.0)
        b.histogram("h", [1.0, 4.0]).observe(9.0)
        a.merge_snapshot(b.snapshot())
        merged = a.histogram("h", [1.0, 4.0])
        assert merged.count == 3
        assert merged._min == 0.5 and merged._max == 9.0
        reference = Histogram("h", [1.0, 4.0])
        for value in (0.5, 2.0, 9.0):
            reference.observe(value)
        assert merged._counts == reference._counts
        assert merged._sum == reference._sum

    def test_histogram_merge_rejects_bucket_mismatch(self):
        a = MetricsRegistry()
        a.histogram("h", [1.0, 4.0])
        b = MetricsRegistry()
        b.histogram("h", [1.0, 2.0]).observe(1.5)
        with pytest.raises(ValueError, match="different bucket bounds"):
            a.merge_snapshot(b.snapshot())


class TestRenderSnapshot:
    def test_renders_all_instrument_kinds(self):
        registry = MetricsRegistry()
        registry.counter("sim.traces").inc(4)
        registry.gauge("v.last").set(2.4)
        registry.histogram("lat", [1.0]).observe(0.5)
        text = render_snapshot(registry.snapshot(), title="demo")
        assert "demo" in text
        assert "sim.traces" in text and "counter" in text
        assert "v.last" in text and "gauge" in text
        assert "lat" in text and "p99" in text

    def test_empty_snapshot(self):
        assert render_snapshot(MetricsRegistry().snapshot()) == \
            "(no metrics recorded)"


class TestObserveMany:
    """Batch observation — the fleet runner's V_min histogram path."""

    def test_equivalent_to_repeated_observe(self):
        from repro.obs.metrics import THROUGHPUT_BUCKETS
        values = [0.5, 1.9, 2.2, 2.56, 3.5, 0.0]
        one = Histogram("a", VOLTAGE_BUCKETS_V)
        for v in values:
            one.observe(v)
        many = Histogram("b", VOLTAGE_BUCKETS_V)
        many.observe_many(values)
        assert many._counts == one._counts
        assert many.count == one.count
        assert many.sum == pytest.approx(one.sum)
        assert (many._min, many._max) == (one._min, one._max)
        assert THROUGHPUT_BUCKETS[0] == 1.0   # log-scale floor

    def test_empty_batch_is_a_no_op(self):
        h = Histogram("h", VOLTAGE_BUCKETS_V)
        h.observe_many([])
        assert h.count == 0

    def test_throughput_buckets_span_fleet_rates(self):
        from repro.obs.metrics import THROUGHPUT_BUCKETS
        assert THROUGHPUT_BUCKETS[0] <= 1.0
        assert THROUGHPUT_BUCKETS[-1] >= 1e9
        assert list(THROUGHPUT_BUCKETS) == sorted(THROUGHPUT_BUCKETS)
