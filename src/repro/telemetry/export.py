"""Exporters: Prometheus text exposition and JSON snapshots.

``to_prometheus`` renders the registry in the Prometheus text format
(version 0.0.4) so a scrape of a live run drops straight into an existing
monitoring stack; ``snapshot``/``registry_from_snapshot`` round-trip the
registry through plain JSON-able dicts for archival and the ``repro top
--json`` output.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.telemetry.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.util.errors import ConfigurationError

PREFIX = "vce_"


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _labels_text(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    parts = [f'{n}="{_escape(v)}"' for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _num(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_prometheus(registry: MetricsRegistry, prefix: str = PREFIX) -> str:
    """The whole registry in Prometheus text exposition format."""
    lines: list[str] = []
    for family in registry.families():
        name = prefix + family.name
        kind = family.kind or "untyped"
        if family.help:
            lines.append(f"# HELP {name} {_escape(family.help)}")
        lines.append(f"# TYPE {name} {kind}")
        for values, child in family.samples():
            labels = _labels_text(family.label_names, values)
            if isinstance(child, Histogram):
                for le, cumulative in child.cumulative_buckets():
                    bucket_labels = _labels_text(
                        family.label_names, values, f'le="{_num(le)}"'
                    )
                    lines.append(f"{name}_bucket{bucket_labels} {cumulative}")
                lines.append(f"{name}_sum{labels} {_num(child.sum)}")
                lines.append(f"{name}_count{labels} {child.count}")
            elif isinstance(child, (Counter, Gauge)):
                lines.append(f"{name}{labels} {_num(child.value)}")
    return "\n".join(lines) + "\n"


def snapshot(registry: MetricsRegistry, time: float | None = None) -> dict[str, Any]:
    """JSON-able dict of every metric's current state (lossless for
    counters, gauges and histograms)."""
    metrics: dict[str, Any] = {}
    for family in registry.families():
        series = []
        for values, child in family.samples():
            entry: dict[str, Any] = {"labels": list(values)}
            if isinstance(child, Histogram):
                entry.update(
                    bounds=list(child.bounds),
                    counts=list(child.bucket_counts),
                    overflow=child.overflow,
                    sum=child.sum,
                    count=child.count,
                    min=None if child.count == 0 else child._min,
                    max=None if child.count == 0 else child._max,
                )
            else:
                entry["value"] = child.value
            series.append(entry)
        metrics[family.name] = {
            "kind": family.kind,
            "help": family.help,
            "label_names": list(family.label_names),
            "series": series,
        }
    out: dict[str, Any] = {"metrics": metrics}
    if time is not None:
        out["time"] = time
    return out


def registry_from_snapshot(data: dict[str, Any]) -> MetricsRegistry:
    """Rebuild a registry from :func:`snapshot` output. Counter, gauge, and
    histogram state round-trips exactly."""
    registry = MetricsRegistry()
    for name, meta in data.get("metrics", {}).items():
        kind = meta.get("kind")
        help_text = meta.get("help", "")
        labels = tuple(meta.get("label_names", ()))
        # create the family even when it has no samples yet, so declared-
        # but-never-observed metrics keep their HELP/TYPE exposition lines
        if kind == "counter":
            family = registry.counter(name, help_text, labels)
        elif kind == "gauge":
            family = registry.gauge(name, help_text, labels)
        elif kind == "histogram":
            family = registry.histogram(name, help_text, labels)
        else:
            raise ConfigurationError(f"snapshot metric {name!r} has unknown kind {kind!r}")
        for entry in meta.get("series", []):
            child = family.labels(*tuple(entry.get("labels", ())))
            if kind == "histogram":
                child.bounds = tuple(entry["bounds"])
                child.bucket_counts = list(entry["counts"])
                child.overflow = int(entry.get("overflow", 0))
                child.sum = float(entry["sum"])
                child.count = int(entry["count"])
                child._min = entry["min"] if entry.get("min") is not None else math.inf
                child._max = entry["max"] if entry.get("max") is not None else -math.inf
            else:
                child.value = float(entry["value"])
    return registry


def write_json(registry: MetricsRegistry, path: str, time: float | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(snapshot(registry, time), fh, indent=2, sort_keys=True)


def write_prometheus(registry: MetricsRegistry, path: str, prefix: str = PREFIX) -> None:
    with open(path, "w") as fh:
        fh.write(to_prometheus(registry, prefix))
