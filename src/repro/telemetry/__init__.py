"""Live telemetry: online metrics, cluster sampling, health watchdog.

Where :mod:`repro.metrics` answers questions *after* a run by re-scanning
the event log, this package maintains the answers *during* the run — the
sensor substrate the runtime manager's "pick the best machines from
current load" decisions (and every load-aware policy built on them) need:

- :class:`MetricsRegistry` — counters, gauges, exponential-bucket
  histograms, and P² quantile sketches, fed directly from emission points
  in the scheduler daemon, runtime manager, channels, vMPI interpreter,
  and migration engine. No per-sample storage.
- :class:`ClusterSampler` — a netsim process snapshotting per-host load,
  queue depth, in-flight instances, and network counters into bounded
  ring-buffer time series, on a fixed grid but only at grid points where
  a reading can have changed.
- :class:`HealthWatchdog` — rules over those series (stragglers, queue
  saturation, bid starvation, repeated allocation errors) raising
  edge-triggered ``health.*`` events, and telling the sampler when a
  verdict can next change with no event in between.
- Exporters — Prometheus text exposition and JSON snapshots — plus the
  ``repro top`` renderer.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "export": (
        "registry_from_snapshot",
        "snapshot",
        "to_prometheus",
        "write_json",
        "write_prometheus",
    ),
    "registry": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "QuantileSketch",
        "exponential_bounds",
    ),
    "sampler": ("ClusterSampler",),
    "series": ("RingSeries", "SeriesStore"),
    "service": ("Telemetry",),
    "top": ("render_top",),
    "watchdog": ("HealthEvent", "HealthWatchdog", "WatchdogConfig", "straggler_severity"),
})
