"""A runtime-wide metrics registry: counters, gauges, histograms, probes.

The Reactors line of work argues that an actor *database* system must
absorb monitoring and introspection as first-class database features; this
module is that substrate for our runtime.  Design constraints:

- **Cheap on the hot path.**  A :class:`Counter` increment is one attribute
  add on a pre-bound object; subsystems hold their counters as attributes
  instead of looking them up per event.
- **Pull where possible.**  Most figures the operator wants (mailbox depth,
  utilization, RCU/WCU totals, queue backlog) already exist as state
  somewhere; a *probe* is a zero-cost registration of a callable that is
  only evaluated at snapshot time, so steady-state running pays nothing.
  A layer's counters are exported declaratively: the layer keeps a tuple
  of their names next to them and whoever builds it hands that tuple to
  :meth:`MetricsRegistry.register_fields`, so no layer imports this module.
- **Label-aware.**  Metrics carry labels (``silo="silo-0"``), so snapshots
  can be taken per silo or aggregated cluster-wide.
"""

from __future__ import annotations

import bisect
import math
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Iterable

DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


def format_metric(name: str, labels: dict[str, str]) -> str:
    """Canonical ``name{k=v,...}`` rendering used in snapshots."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {format_metric(self.name, self.labels)}={self.value}>"


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {format_metric(self.name, self.labels)}={self.value}>"


class Histogram:
    """Fixed-boundary histogram with count/sum/min/max.

    Boundaries are upper-inclusive bucket edges; one overflow bucket catches
    everything beyond the last edge.  ``observe`` is O(log buckets).
    """

    __slots__ = ("name", "labels", "boundaries", "bucket_counts", "count",
                 "total", "minimum", "maximum")

    def __init__(
        self,
        name: str,
        labels: dict[str, str],
        boundaries: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.boundaries = tuple(sorted(boundaries))
        if not self.boundaries:
            raise ValueError("histogram needs at least one bucket boundary")
        self.bucket_counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, fraction: float) -> float:
        """Approximate quantile from bucket boundaries (upper edge).

        The estimate is the upper edge of the *non-empty* bucket holding the
        ranked observation, clamped into ``[minimum, maximum]`` so a sparse
        histogram never reports an edge no observation ever reached.
        ``fraction=0.0`` is the observed minimum, ``1.0`` the observed
        maximum; an empty histogram reports 0.0 for any fraction.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if self.count == 0:
            return 0.0
        if fraction == 0.0:
            return self.minimum
        rank = fraction * self.count
        seen = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue  # an empty bucket cannot hold the ranked sample
            seen += bucket_count
            if seen >= rank:
                if index >= len(self.boundaries):
                    # Overflow bucket: no finite edge, report the true max.
                    return self.maximum
                return min(max(self.boundaries[index], self.minimum), self.maximum)
        return self.maximum  # pragma: no cover - defensive

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": 0.0 if self.count == 0 else self.minimum,
            "max": 0.0 if self.count == 0 else self.maximum,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Get-or-create registry of named, labeled instruments.

    Subsystems fetch instruments once (``registry.counter("net.drops")``)
    and keep the returned object; probes let state that already exists be
    exported without any hot-path cost.

    **Label-cardinality guard**: a metric name admits at most
    ``max_label_sets`` distinct label sets.  Beyond the cap, new label sets
    collapse into one shared ``{overflow=true}`` instrument per name and
    :attr:`dropped_label_sets` counts the collapses — so an unbounded label
    (a per-activation id, say) degrades resolution instead of ballooning
    snapshot cost and memory.  Unlabeled instruments are exempt.
    """

    def __init__(self, max_label_sets: int = 256) -> None:
        self.max_label_sets = max_label_sets
        self.dropped_label_sets = 0
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        self._probes: dict[tuple, Callable[[], float]] = {}
        self._series_count: dict[str, int] = {}

    # -- instrument factories --------------------------------------------------

    def _admit(self, name: str, labels: dict[str, str]) -> dict[str, str]:
        """The label set to store a new instrument under (capped per name)."""
        if not labels:
            return labels
        count = self._series_count.get(name, 0)
        if count >= self.max_label_sets:
            self.dropped_label_sets += 1
            return {"overflow": "true"}
        self._series_count[name] = count + 1
        return labels

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        counter = self._counters.get(key)
        if counter is None:
            labels = self._admit(name, labels)
            key = (name, _label_key(labels))
            counter = self._counters.get(key)
            if counter is None:
                counter = Counter(name, labels)
                self._counters[key] = counter
        return counter

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            labels = self._admit(name, labels)
            key = (name, _label_key(labels))
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = Gauge(name, labels)
                self._gauges[key] = gauge
        return gauge

    def histogram(
        self,
        name: str,
        boundaries: Iterable[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = (name, _label_key(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            labels = self._admit(name, labels)
            key = (name, _label_key(labels))
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = Histogram(name, labels, boundaries)
                self._histograms[key] = histogram
        return histogram

    def register_probe(
        self, name: str, probe: Callable[[], float], **labels: str
    ) -> None:
        """Register a callable evaluated (only) at snapshot time."""
        self._probes[(name, _label_key(labels))] = probe

    def register_fields(
        self,
        prefix: str,
        obj: object,
        names: Iterable[str | tuple[str, str]],
        **labels: str,
    ) -> None:
        """Register attributes (or properties) of ``obj`` as probes.

        Each entry of ``names`` exports ``obj.<name>`` as ``prefix.<name>``;
        a ``(metric, attribute)`` pair exports ``obj.<attribute>`` (a dotted
        path is followed) under ``prefix.<metric>``.  Like every probe, the
        attribute is read only at snapshot time.
        """
        key = _label_key(labels)
        for name in names:
            metric, attribute = (name, name) if isinstance(name, str) else name
            self._probes[(f"{prefix}.{metric}", key)] = partial(
                attrgetter(attribute), obj
            )

    def unregister_probes(self, **labels: str) -> int:
        """Drop every probe carrying all given labels (e.g. a dead silo's)."""
        items = _label_key(labels)
        doomed = [
            key for key in self._probes
            if all(pair in key[1] for pair in items)
        ]
        for key in doomed:
            del self._probes[key]
        return len(doomed)

    # -- snapshots ------------------------------------------------------------

    def _matches(self, labels: dict[str, str], selector: dict[str, str]) -> bool:
        return all(labels.get(k) == v for k, v in selector.items())

    def snapshot(self, **selector: str) -> dict[str, Any]:
        """Current value of every instrument matching ``selector`` labels.

        Keys are ``name{label=value,...}`` strings; histogram values are
        summary dicts.  Probes are evaluated here and nowhere else; a probe
        whose underlying object died reports ``nan`` rather than raising.
        """
        out: dict[str, Any] = {}
        for counter in self._counters.values():
            if self._matches(counter.labels, selector):
                out[format_metric(counter.name, counter.labels)] = counter.value
        for gauge in self._gauges.values():
            if self._matches(gauge.labels, selector):
                out[format_metric(gauge.name, gauge.labels)] = gauge.value
        for histogram in self._histograms.values():
            if self._matches(histogram.labels, selector):
                out[format_metric(histogram.name, histogram.labels)] = (
                    histogram.summary()
                )
        for (name, label_items), probe in self._probes.items():
            labels = dict(label_items)
            if self._matches(labels, selector):
                try:
                    value = probe()
                except Exception:  # noqa: BLE001 - dead probe target
                    value = math.nan
                out[format_metric(name, labels)] = value
        return out

    def cluster_totals(self) -> dict[str, float]:
        """Aggregate numeric metrics across label sets by bare name.

        Counters, gauges and probe values with the same name are summed
        (e.g. per-silo mailbox depths roll up to a cluster backlog);
        histograms are excluded (merging them needs bucket-wise addition
        that per-silo views rarely want).
        """
        totals: dict[str, float] = {}
        for key, value in self.snapshot().items():
            if isinstance(value, dict):
                continue
            name = key.split("{", 1)[0]
            if isinstance(value, float) and math.isnan(value):
                continue
            totals[name] = totals.get(name, 0.0) + value
        return totals
