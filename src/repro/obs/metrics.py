"""Typed metrics registry: counters, gauges and histograms with labels.

The simulator's instrumentation points (FTL wear/GC/refresh, flash
retries, pipeline queue depths, per-class latency) publish into one
:class:`MetricsRegistry` instead of inventing ad-hoc counters.  The
registry follows the same zero-cost off-path discipline as the tracer
and profiler: call sites hold ``None`` when telemetry is disabled and
pay one ``is None`` check; when enabled they hold pre-resolved
:class:`Counter` / :class:`Gauge` / :class:`HistogramMetric` handles, so
the hot path is one attribute bump — no name lookup, no label parsing.

Exports: :meth:`MetricsRegistry.snapshot` (plain JSON dict, the form
that rides the pickle-safe pool transport), :func:`merge_snapshots`
(cross-run aggregation), and Prometheus text exposition
(:meth:`MetricsRegistry.to_prometheus_text` /
:func:`snapshot_to_prometheus`) for scrape-compatible files.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Sequence

from .histogram import Histogram, default_latency_bounds

__all__ = [
    "METRICS_SCHEMA",
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricFamily",
    "MetricsRegistry",
    "merge_snapshots",
    "snapshot_to_prometheus",
    "labeled_snapshots_to_prometheus",
]

#: Version of the snapshot dict layout (bumped on breaking changes).
METRICS_SCHEMA = 1

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """Monotonically increasing count; one attribute bump per event."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, free blocks)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class HistogramMetric:
    """A labeled handle wrapping one fixed-bucket :class:`Histogram`."""

    __slots__ = ("hist",)

    def __init__(self, bounds: Sequence[float] | None = None) -> None:
        self.hist = Histogram(bounds if bounds is not None else default_latency_bounds())

    def observe(self, value: float) -> None:
        self.hist.add(value)


_KIND_OF = {Counter: "counter", Gauge: "gauge", HistogramMetric: "histogram"}


class MetricFamily:
    """All children of one metric name, keyed by label values.

    Resolve children once at bind time (``family.labels(die=3)``) and
    keep the returned handle; ``labels`` is a dict lookup plus tuple
    build and does not belong on per-event paths.  A family declared
    with no label names has exactly one child, exposed as ``.unlabeled``
    (and via ``labels()`` with no arguments).
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: tuple[str, ...],
        bounds: Sequence[float] | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self._bounds = tuple(bounds) if bounds is not None else None
        self._children: dict[tuple[str, ...], Counter | Gauge | HistogramMetric] = {}
        if not label_names:
            self._children[()] = self._make_child()

    def _make_child(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return HistogramMetric(self._bounds)

    @property
    def unlabeled(self):
        """The single child of a label-less family."""
        if self.label_names:
            raise ValueError(f"metric {self.name!r} has labels {self.label_names}")
        return self._children[()]

    def labels(self, **labels: object):
        """The child for one label-value combination (created on demand)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def samples(self) -> list[dict]:
        """JSON-ready per-child samples, in label-sorted order."""
        out = []
        for key in sorted(self._children):
            child = self._children[key]
            sample: dict = {"labels": dict(zip(self.label_names, key))}
            if isinstance(child, HistogramMetric):
                sample.update(child.hist.to_dict())
            else:
                sample["value"] = child.value
            out.append(sample)
        return out


class MetricsRegistry:
    """A namespace of metric families; the root telemetry object.

    One registry serves one run.  Declaring an already-declared name
    with the same kind and label set returns the existing family
    (instrument points in different modules can share a metric);
    re-declaring with a different kind or labels raises.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def _declare(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        bounds: Sequence[float] | None = None,
    ) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        label_names = tuple(labels)
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        if len(set(label_names)) != len(label_names):
            raise ValueError(f"duplicate label names in {label_names}")
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} already declared as {existing.kind}"
                    f"{existing.label_names}, not {kind}{label_names}"
                )
            return existing
        family = MetricFamily(name, kind, help, label_names, bounds=bounds)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._declare(name, "counter", help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._declare(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        bounds: Sequence[float] | None = None,
    ) -> MetricFamily:
        return self._declare(name, "histogram", help, labels, bounds=bounds)

    def families(self) -> Iterable[MetricFamily]:
        return self._families.values()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The whole registry as a plain JSON-able dict.

        This is the form that crosses process boundaries (pool workers
        pickle it on the result payload) and lands in manifests.
        """
        return {
            "schema": METRICS_SCHEMA,
            "metrics": {
                family.name: {
                    "kind": family.kind,
                    "help": family.help,
                    "labels": list(family.label_names),
                    "samples": family.samples(),
                }
                for family in sorted(self._families.values(), key=lambda f: f.name)
            },
        }

    def to_prometheus_text(self, extra_labels: Mapping[str, str] | None = None) -> str:
        """Prometheus text exposition of the current state."""
        return snapshot_to_prometheus(self.snapshot(), extra_labels=extra_labels)


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Fold several registry snapshots into one.

    Counters and histogram buckets sum; gauges take the max (the peak
    across the merged runs — the conservative answer for health gauges
    like queue depth or refresh backlog).  Histogram merges across
    mismatched bucket bounds raise ``ValueError`` rather than mis-adding
    counts, the same contract :meth:`Histogram.merge` enforces.
    """
    merged: dict = {"schema": METRICS_SCHEMA, "metrics": {}}
    for snap in snapshots:
        if snap.get("schema") != METRICS_SCHEMA:
            raise ValueError(
                f"cannot merge snapshot with schema {snap.get('schema')!r} "
                f"(expected {METRICS_SCHEMA})"
            )
        for name, family in snap["metrics"].items():
            target = merged["metrics"].get(name)
            if target is None:
                merged["metrics"][name] = {
                    "kind": family["kind"],
                    "help": family["help"],
                    "labels": list(family["labels"]),
                    "samples": [dict(s, labels=dict(s["labels"])) for s in family["samples"]],
                }
                continue
            if target["kind"] != family["kind"] or target["labels"] != list(family["labels"]):
                raise ValueError(
                    f"conflicting declarations of metric {name!r} across snapshots"
                )
            by_labels = {
                tuple(sorted(s["labels"].items())): s for s in target["samples"]
            }
            for sample in family["samples"]:
                key = tuple(sorted(sample["labels"].items()))
                existing = by_labels.get(key)
                if existing is None:
                    copied = dict(sample, labels=dict(sample["labels"]))
                    target["samples"].append(copied)
                    by_labels[key] = copied
                    continue
                _merge_sample(name, family["kind"], existing, sample)
    for family in merged["metrics"].values():
        family["samples"].sort(key=lambda s: tuple(sorted(s["labels"].items())))
    return merged


def _merge_sample(name: str, kind: str, into: dict, sample: dict) -> None:
    if kind == "counter":
        into["value"] += sample["value"]
    elif kind == "gauge":
        into["value"] = max(into["value"], sample["value"])
    else:
        if into["bounds_us"] != sample["bounds_us"]:
            raise ValueError(
                f"cannot merge histogram metric {name!r} across mismatched "
                f"bucket bounds ({len(into['bounds_us'])} vs "
                f"{len(sample['bounds_us'])} bounds)"
            )
        into["counts"] = [a + b for a, b in zip(into["counts"], sample["counts"])]
        into["count"] += sample["count"]
        into["total_us"] += sample["total_us"]
        if sample["count"]:
            into["min_us"] = (
                sample["min_us"]
                if into["count"] == sample["count"]
                else min(into["min_us"], sample["min_us"])
            )
            into["max_us"] = max(into["max_us"], sample["max_us"])


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _fmt_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(str(value))}"' for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def snapshot_to_prometheus(
    snapshot: dict, extra_labels: Mapping[str, str] | None = None
) -> str:
    """Render a registry snapshot in the Prometheus text format.

    ``extra_labels`` are injected into every sample — the device the
    health artifact uses to combine several runs' registries into one
    exposition file distinguished by ``run=...`` labels.
    """
    extra = dict(extra_labels or {})
    lines: list[str] = []
    for name, family in snapshot["metrics"].items():
        kind = family["kind"]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in family["samples"]:
            labels = dict(sample["labels"])
            labels.update(extra)
            if kind == "histogram":
                cumulative = 0
                for bound, count in zip(sample["bounds_us"], sample["counts"]):
                    cumulative += count
                    bucket_labels = dict(labels, le=_fmt_value(bound))
                    lines.append(
                        f"{name}_bucket{_fmt_labels(bucket_labels)} {cumulative}"
                    )
                bucket_labels = dict(labels, le="+Inf")
                lines.append(
                    f"{name}_bucket{_fmt_labels(bucket_labels)} {sample['count']}"
                )
                lines.append(
                    f"{name}_sum{_fmt_labels(labels)} {_fmt_value(sample['total_us'])}"
                )
                lines.append(f"{name}_count{_fmt_labels(labels)} {sample['count']}")
            else:
                lines.append(
                    f"{name}{_fmt_labels(labels)} {_fmt_value(sample['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def labeled_snapshots_to_prometheus(
    runs: Sequence[tuple[Mapping[str, str], dict]],
) -> str:
    """One exposition for several runs' snapshots, kept distinguishable.

    Each ``(labels, snapshot)`` pair contributes every sample it holds
    with the pair's labels injected; ``# HELP`` / ``# TYPE`` headers are
    emitted once per metric name (a valid exposition declares each
    family once), in sorted name order.  This is how the health artifact
    publishes a whole sweep — baseline vs IDA, healthy vs faulted — as
    one scrape-compatible file separated by ``system=... condition=...``
    labels rather than N files.
    """
    families: dict[str, dict] = {}
    contributions: dict[str, list[tuple[Mapping[str, str], dict]]] = {}
    for labels, snap in runs:
        if snap.get("schema") != METRICS_SCHEMA:
            raise ValueError(
                f"cannot render snapshot with schema {snap.get('schema')!r} "
                f"(expected {METRICS_SCHEMA})"
            )
        for name, family in snap["metrics"].items():
            known = families.get(name)
            if known is None:
                families[name] = {"kind": family["kind"], "help": family["help"]}
            elif known["kind"] != family["kind"]:
                raise ValueError(
                    f"conflicting kinds for metric {name!r} across snapshots"
                )
            contributions.setdefault(name, []).append((labels, family))
    lines: list[str] = []
    for name in sorted(families):
        meta = families[name]
        if meta["help"]:
            lines.append(f"# HELP {name} {meta['help']}")
        lines.append(f"# TYPE {name} {meta['kind']}")
        for extra, family in contributions[name]:
            partial = snapshot_to_prometheus(
                {
                    "schema": METRICS_SCHEMA,
                    "metrics": {name: dict(family, help="")},
                },
                extra_labels=extra,
            )
            lines.extend(
                line for line in partial.splitlines() if not line.startswith("#")
            )
    return "\n".join(lines) + ("\n" if lines else "")
