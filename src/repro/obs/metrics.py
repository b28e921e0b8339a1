"""Labeled metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is the single home for a process's numeric
telemetry.  Metrics follow the Prometheus data model — a *metric* has a
name, help text, and label names; each distinct label-value combination
is a *series* — but the implementation is deliberately deterministic:

* histogram buckets are **fixed at construction** (no dynamic growth,
  so two runs bucket identically);
* snapshots serialise with sorted names and label sets;
* nothing reads the wall clock — whatever values land here come from
  the simulator's modelled time or plain event counts.

Exports: Prometheus exposition text and crash-safe JSON snapshots live
in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "METRICS_FORMAT",
]

#: Format tag of persisted snapshot files (see :mod:`repro.obs.export`).
METRICS_FORMAT = "repro-metrics/1"

#: Default histogram buckets, in seconds: spans request latencies from
#: 0.1 ms to 2.5 s, matching the serving layer's simulated time scales.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class _Metric:
    """Shared plumbing: label handling and per-series children."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self._series: Dict[Tuple[str, ...], "_Metric"] = {}
        if not self.labelnames:
            # Label-less metrics are their own single series.
            self._series[()] = self

    def labels(self, **labelvalues: str) -> "_Metric":
        """The series for one label-value combination (created on use)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        series = self._series.get(key)
        if series is None:
            series = type(self).__new__(type(self))
            series.name = self.name
            series.help = self.help
            series.labelnames = self.labelnames
            series._series = {}
            self._prepare_child(series)
            series._init_series()
            self._series[key] = series
        return series

    def _prepare_child(self, child: "_Metric") -> None:
        """Copy per-metric configuration onto a new labeled series."""

    def _init_series(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def series_items(self) -> List[Tuple[Tuple[str, ...], "_Metric"]]:
        """(label values, series) pairs, sorted for deterministic export."""
        return sorted(self._series.items())


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._init_series()

    def _init_series(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._init_series()

    def _init_series(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram(_Metric):
    """A fixed-bucket histogram (plus sum and count).

    Buckets are upper bounds, ascending; an implicit ``+Inf`` bucket
    catches the tail.  Observation is O(#buckets) with no allocation,
    and bucketing is bit-deterministic: the boundaries never move.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(buckets if buckets is not None else DEFAULT_BUCKETS)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"buckets must be strictly ascending: {bounds}")
        self.buckets = bounds
        super().__init__(name, help, labelnames)
        self._init_series()

    def _prepare_child(self, child: "_Metric") -> None:
        child.buckets = self.buckets  # type: ignore[attr-defined]

    def _init_series(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ``inf`` last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Re-registering an existing name returns the existing metric when the
    kind and label names agree, and raises otherwise — instrumentation
    in different modules can therefore share series without coordinating
    construction order.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        #: Tracked counter name -> the (source, field) pairs it sums.
        self._tracked: Dict[str, List[Tuple[object, str]]] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterable[_Metric]:
        self._collect_all()
        return iter(self._metrics.values())

    def get(self, name: str) -> Optional[_Metric]:
        if name in self._tracked:
            self._collect(name)
        return self._metrics.get(name)

    def track(self, source: object,
              counters: Mapping[str, Tuple[str, str]],
              labeled: Mapping[str, Tuple[str, str, str]]) -> None:
        """Export ``source``'s count fields as counters, read on demand.

        ``counters`` maps an int field to ``(metric name, help)``;
        ``labeled`` maps a ``{label value: count}`` dict field to
        ``(metric name, help, label name)``.  The fields stay the only
        store: :meth:`get`, iteration and :meth:`snapshot` set each
        counter to the sum of its field over every tracked source, so
        totals are cumulative across instances (Prometheus semantics).
        Sound because tracked fields only ever increase.  The registry
        keeps every tracked source alive and sums over all of them on
        each read, so a long-lived registry shared by many short-lived
        services or searches grows with the number ever bound.
        """
        for attr, (name, help, *label) in {**counters, **labeled}.items():
            self.counter(name, help, label)
            self._tracked.setdefault(name, []).append((source, attr))

    def _collect(self, name: str) -> None:
        metric = self._metrics[name]
        values = [getattr(source, attr) for source, attr in self._tracked[name]]
        if not metric.labelnames:
            metric.value = float(sum(values))  # type: ignore[attr-defined]
            return
        for label in sorted({label for counts in values for label in counts}):
            series = metric.labels(**{metric.labelnames[0]: label})
            series.value = float(  # type: ignore[attr-defined]
                sum(counts.get(label, 0) for counts in values))

    def _collect_all(self) -> None:
        for name in self._tracked:
            self._collect(name)

    def _register(self, cls, name: str, help: str,
                  labelnames: Sequence[str], **kwargs) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls) \
                    or existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind} with labels {existing.labelnames}"
                )
            return existing
        metric = cls(name, help, labelnames, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._register(
            Histogram, name, help, labelnames, buckets=buckets
        )  # type: ignore[return-value]

    # -- snapshots -------------------------------------------------------
    def snapshot(self) -> Dict:
        """The registry as a deterministic JSON-ready dict.

        Metrics sort by name, series by label values; histograms carry
        their per-bucket (non-cumulative) counts plus sum and count.
        This is the payload both exporters consume and the one persisted
        crash-safe by :func:`repro.obs.export.save_metrics`.
        """
        self._collect_all()
        metrics = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            series = []
            for labelvalues, child in metric.series_items():
                entry: Dict = {
                    "labels": dict(zip(metric.labelnames, labelvalues)),
                }
                if isinstance(child, Histogram):
                    entry["buckets"] = [
                        [bound, count]
                        for bound, count in zip(child.buckets, child.counts)
                    ]
                    entry["overflow"] = child.counts[-1]
                    entry["sum"] = child.sum
                    entry["count"] = child.count
                else:
                    entry["value"] = child.value
                series.append(entry)
            metrics.append({
                "name": metric.name,
                "kind": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "series": series,
            })
        return {"format": METRICS_FORMAT, "metrics": metrics}
