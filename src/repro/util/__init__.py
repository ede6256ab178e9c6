"""Shared utilities for the VCE reproduction.

This package holds the small, dependency-free building blocks used by every
other subsystems: the exception hierarchy, deterministic id generation,
seeded random-number streams, and the structured event log that all
simulated components write to (and that the metrics layer reads from).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "errors": (
        "VCEError",
        "ConfigurationError",
        "AllocationError",
        "CompilationError",
        "MigrationError",
        "CommunicationError",
        "ScriptError",
        "TaskGraphError",
        "SimulationError",
    ),
    "ids": ("IdGenerator", "fresh_id"),
    "rng": ("RngStreams",),
    "eventlog": ("Category", "EventLog", "LogRecord"),
})
