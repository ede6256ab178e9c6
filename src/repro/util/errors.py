"""Exception hierarchy for the VCE reproduction.

Every error raised by the library derives from :class:`VCEError` so callers
can catch library failures with a single ``except`` clause while still being
able to discriminate by subsystem.
"""

from __future__ import annotations


class VCEError(Exception):
    """Base class of every exception raised by the ``repro`` library."""


class ConfigurationError(VCEError):
    """An invalid configuration value or inconsistent component wiring."""


class AllocationError(VCEError):
    """The bidding protocol could not allocate the requested resources.

    Mirrors the ``returnAllocError`` path in the paper's group-leader
    pseudocode: a group leader received fewer usable bids than the request
    needed.
    """

    def __init__(self, message: str, *, requested: int = 0, available: int = 0):
        super().__init__(message)
        self.requested = requested
        self.available = available


class CompilationError(VCEError):
    """No compiler exists for a (language, architecture) pair, or a compile
    job failed."""


class MigrationError(VCEError):
    """A process-migration scheme could not move a task (e.g. the
    address-space-dump scheme was asked to cross heterogeneous machines)."""


class CommunicationError(VCEError):
    """Channel/port misuse: unknown channel, port direction mismatch,
    detached endpoint, or marshalling failure."""


class ScriptError(VCEError):
    """Syntax or semantic error in a VCE application-description script."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + location)
        self.line = line
        self.column = column


class TaskGraphError(VCEError):
    """Structural problem in a task graph (cycle, duplicate node, dangling
    arc) or a missing annotation required by a downstream SDM/EXM layer."""


class VerificationError(VCEError):
    """A static pre-dispatch check rejected an application.

    Raised by the task-graph verifier (``repro.analysis``) when a graph
    contains error-severity findings and verification is ``strict``. The
    offending :class:`~repro.analysis.report.AnalysisReport` rides along
    as :attr:`report` so callers can render or export the findings.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class SimulationError(VCEError):
    """Internal inconsistency in the discrete-event kernel (time moving
    backwards, events scheduled on a stopped simulator)."""
