"""Live control plane: entity model, subscription hub, HTTP streaming.

Layers (each usable on its own):

- :mod:`~repro.controlplane.hub` — :class:`SubscriptionHub`, bounded
  per-subscriber queues with topic filters, coalescing, and drop-oldest
  backpressure;
- :mod:`~repro.controlplane.entities` — :class:`ControlPlaneModel`,
  typed host/daemon/instance/application change events derived from the
  event log and sampler (deterministic: kernel order in, hub order out);
- :mod:`~repro.controlplane.driver` — :class:`ServeSession`, slice-wise
  simulation driving with optional wall-clock pacing;
- :mod:`~repro.controlplane.server` — :class:`ControlPlaneServer`, the
  stdlib-asyncio HTTP server (SSE/WebSocket streams + control API) and
  the single-file dashboard;
- :mod:`~repro.controlplane.rundir` — saved run directories with
  truncation-detecting loads.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "driver": ("WORKLOAD_NAMES", "ServeSession", "submit_workload"),
    "entities": ("ControlPlaneModel",),
    "hub": ("Event", "Subscription", "SubscriptionHub", "topic_matches"),
    "rundir": (
        "TruncatedRunError",
        "load_manifest",
        "load_metrics",
        "load_run_dir",
        "save_run_dir",
    ),
    "server": ("ControlPlaneServer", "serve"),
})
