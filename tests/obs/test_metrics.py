"""Unit tests for the metrics registry: instruments, probes, snapshots."""

import math

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_metric,
)


def test_format_metric_sorts_labels():
    assert format_metric("net.drops", {}) == "net.drops"
    assert (
        format_metric("net.drops", {"silo": "s1", "az": "a"})
        == "net.drops{az=a,silo=s1}"
    )


def test_counter_and_gauge_are_get_or_create():
    registry = MetricsRegistry()
    c1 = registry.counter("runtime.asks", silo="s1")
    c1.inc()
    c1.inc(2.5)
    assert registry.counter("runtime.asks", silo="s1") is c1
    assert c1.value == 3.5
    # Different labels are a different instrument.
    assert registry.counter("runtime.asks", silo="s2") is not c1
    g = registry.gauge("mailbox.depth", silo="s1")
    g.set(7.0)
    g.add(-2.0)
    assert registry.gauge("mailbox.depth", silo="s1").value == 5.0


def test_histogram_buckets_and_quantiles():
    registry = MetricsRegistry()
    h = registry.histogram("lat", boundaries=(0.01, 0.1, 1.0))
    assert registry.histogram("lat") is h  # boundaries only matter at creation
    for value in (0.005, 0.05, 0.05, 0.5, 2.0):
        h.observe(value)
    assert h.count == 5
    assert h.bucket_counts == [1, 2, 1, 1]  # last is the overflow bucket
    assert h.mean == pytest.approx(0.521)
    assert h.minimum == 0.005
    assert h.maximum == 2.0
    assert h.quantile(0.5) == 0.1  # upper edge of the bucket holding rank
    assert h.quantile(1.0) == 2.0  # overflow reports the true max
    summary = h.summary()
    assert summary["count"] == 5
    assert summary["max"] == 2.0


def test_histogram_empty_and_invalid():
    h = Histogram("lat", {}, boundaries=(1.0,))
    assert h.mean == 0.0
    assert h.quantile(0.99) == 0.0
    assert h.summary()["min"] == 0.0  # not inf in the serialized view
    with pytest.raises(ValueError):
        h.quantile(1.5)
    with pytest.raises(ValueError):
        Histogram("bad", {}, boundaries=())


def test_probes_evaluated_only_at_snapshot():
    registry = MetricsRegistry()
    calls = []

    def probe():
        calls.append(1)
        return 42.0

    registry.register_probe("kernel.pending", probe, silo="s1")
    assert calls == []  # registration is free
    snapshot = registry.snapshot()
    assert snapshot["kernel.pending{silo=s1}"] == 42.0
    assert len(calls) == 1


def test_dead_probe_reports_nan_not_raise():
    registry = MetricsRegistry()
    registry.register_probe("gone", lambda: 1 / 0)
    assert math.isnan(registry.snapshot()["gone"])
    # ...and the nan probe is skipped by totals rather than poisoning them.
    registry.counter("alive").inc(3.0)
    assert registry.cluster_totals() == {"alive": 3.0}


def test_unregister_probes_by_label():
    registry = MetricsRegistry()
    registry.register_probe("depth", lambda: 1.0, silo="s1")
    registry.register_probe("depth", lambda: 2.0, silo="s2")
    registry.register_probe("other", lambda: 3.0, silo="s1", az="a")
    assert registry.unregister_probes(silo="s1") == 2
    assert set(registry.snapshot()) == {"depth{silo=s2}"}


class _Layer:
    """A stand-in layer: plain counters, a property and a nested object."""

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.inner = _Inner()

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Inner:
    def __init__(self):
        self.live = 0


@pytest.mark.parametrize(
    "names, labels, expected",
    [
        (("hits", "misses"), {}, {"layer.hits": 3, "layer.misses": 1}),
        (("hit_rate",), {}, {"layer.hit_rate": 0.75}),
        ((("lookups_hit", "hits"),), {}, {"layer.lookups_hit": 3}),
        ((("occupancy", "inner.live"),), {}, {"layer.occupancy": 7}),
        (("hits",), {"silo": "s1"}, {"layer.hits{silo=s1}": 3}),
        (
            ("hits", ("rate", "hit_rate")),
            {"silo": "s1", "az": "a"},
            {"layer.hits{az=a,silo=s1}": 3, "layer.rate{az=a,silo=s1}": 0.75},
        ),
    ],
)
def test_register_fields_reads_attributes_at_snapshot_time(names, labels, expected):
    registry = MetricsRegistry()
    layer = _Layer()
    registry.register_fields("layer", layer, names, **labels)
    # Registration reads nothing: the values below are set afterwards.
    layer.hits, layer.misses, layer.inner.live = 3, 1, 7
    assert registry.snapshot() == expected


def test_register_fields_follows_rebinding_and_reports_missing_as_nan():
    registry = MetricsRegistry()
    layer = _Layer()
    registry.register_fields("layer", layer, (("live", "inner.live"), "absent"))
    layer.inner = _Inner()
    layer.inner.live = 5
    snapshot = registry.snapshot()
    assert snapshot["layer.live"] == 5
    assert math.isnan(snapshot["layer.absent"])


def test_register_fields_probes_unregister_by_label():
    registry = MetricsRegistry()
    registry.register_fields("layer", _Layer(), ("hits", "misses"), silo="s1")
    registry.register_fields("layer", _Layer(), ("hits",), silo="s2")
    assert registry.unregister_probes(silo="s1") == 2
    assert set(registry.snapshot()) == {"layer.hits{silo=s2}"}


def test_snapshot_selector_filters_by_labels():
    registry = MetricsRegistry()
    registry.counter("asks", silo="s1").inc(1)
    registry.counter("asks", silo="s2").inc(10)
    registry.gauge("depth", silo="s1").set(4.0)
    per_silo = registry.snapshot(silo="s1")
    assert per_silo == {"asks{silo=s1}": 1.0, "depth{silo=s1}": 4.0}


def test_cluster_totals_sum_across_silos_and_skip_histograms():
    registry = MetricsRegistry()
    registry.counter("asks", silo="s1").inc(1)
    registry.counter("asks", silo="s2").inc(10)
    registry.histogram("lat", silo="s1").observe(0.5)
    registry.register_probe("depth", lambda: 2.5, silo="s1")
    registry.register_probe("depth", lambda: 1.5, silo="s2")
    totals = registry.cluster_totals()
    assert totals["asks"] == 11.0
    assert totals["depth"] == 4.0
    assert "lat" not in totals


def test_instruments_repr_do_not_crash():
    assert "Counter" in repr(Counter("a", {}))
    assert "Gauge" in repr(Gauge("b", {"x": "y"}))


# -- quantile edge cases -------------------------------------------------------


def test_quantile_fraction_zero_is_observed_minimum():
    h = Histogram("lat", {}, boundaries=(0.1, 1.0))
    h.observe(0.03)
    h.observe(0.7)
    assert h.quantile(0.0) == 0.03


def test_quantile_fraction_one_is_observed_maximum():
    h = Histogram("lat", {}, boundaries=(0.1, 1.0))
    h.observe(0.03)
    h.observe(0.7)
    assert h.quantile(1.0) == 0.7


def test_quantile_overflow_bucket_reports_true_max():
    h = Histogram("lat", {}, boundaries=(0.1,))
    h.observe(5.0)  # only sample, beyond the last finite edge
    for fraction in (0.01, 0.5, 0.99, 1.0):
        assert h.quantile(fraction) == 5.0


def test_quantile_skips_empty_buckets():
    # Samples land only in the last finite bucket; the empty lower buckets
    # must not absorb the rank and report an edge nothing ever reached.
    h = Histogram("lat", {}, boundaries=(0.001, 0.01, 0.1, 1.0))
    for _ in range(10):
        h.observe(0.5)
    assert h.quantile(0.5) == 0.5  # edge 1.0 clamped to the observed max
    assert h.quantile(0.01) == 0.5


def test_quantile_clamps_edge_into_observed_range():
    # One sample at the very bottom of a wide bucket: the bucket's upper
    # edge (1.0) overstates it, so the estimate clamps to the maximum.
    h = Histogram("lat", {}, boundaries=(0.1, 1.0))
    h.observe(0.2)
    assert h.quantile(0.5) == 0.2
    # And a sparse histogram never reports below its minimum either.
    h2 = Histogram("lat", {}, boundaries=(0.1, 1.0))
    h2.observe(0.9)
    h2.observe(0.95)
    assert h2.quantile(0.25) >= h2.minimum


def test_empty_histogram_quantile_is_zero_for_all_fractions():
    h = Histogram("lat", {}, boundaries=(1.0,))
    for fraction in (0.0, 0.5, 1.0):
        assert h.quantile(fraction) == 0.0


# -- label-cardinality guard ---------------------------------------------------


def test_cardinality_guard_collapses_label_sets_beyond_cap():
    registry = MetricsRegistry(max_label_sets=2)
    registry.counter("asks", silo="s1").inc(1.0)
    registry.counter("asks", silo="s2").inc(2.0)
    overflow = registry.counter("asks", silo="s3")
    overflow.inc(5.0)
    assert overflow.labels == {"overflow": "true"}
    assert registry.dropped_label_sets == 1
    # Further over-cap label sets share the same overflow instrument.
    assert registry.counter("asks", silo="s4") is overflow
    assert registry.dropped_label_sets == 2
    snapshot = registry.snapshot()
    assert snapshot["asks{overflow=true}"] == 5.0
    # Totals stay complete — resolution degrades, accounting does not.
    assert registry.cluster_totals()["asks"] == 8.0


def test_cardinality_guard_keeps_admitted_instruments_stable():
    registry = MetricsRegistry(max_label_sets=1)
    first = registry.counter("asks", silo="s1")
    registry.counter("asks", silo="s2").inc()  # collapsed
    assert registry.counter("asks", silo="s1") is first  # still direct


def test_cardinality_guard_is_per_name():
    registry = MetricsRegistry(max_label_sets=1)
    registry.counter("asks", silo="s1")
    registry.counter("tells", silo="s1")  # different name: own budget
    assert registry.dropped_label_sets == 0


def test_cardinality_guard_exempts_unlabeled_instruments():
    registry = MetricsRegistry(max_label_sets=0)
    counter = registry.counter("asks")
    counter.inc(3.0)
    assert counter.labels == {}
    assert registry.dropped_label_sets == 0


def test_cardinality_guard_applies_to_gauges_and_histograms():
    registry = MetricsRegistry(max_label_sets=1)
    registry.gauge("depth", silo="s1").set(1.0)
    overflow_gauge = registry.gauge("depth", silo="s2")
    assert overflow_gauge.labels == {"overflow": "true"}
    registry.histogram("lat", silo="s1").observe(0.1)
    overflow_histogram = registry.histogram("lat", silo="s2")
    assert overflow_histogram.labels == {"overflow": "true"}
    assert registry.dropped_label_sets == 2
