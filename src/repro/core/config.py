"""Top-level configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.tenancy import TenantSpec
from repro.isis.member import IsisConfig
from repro.migration.failover import FailoverConfig
from repro.netsim.network import LatencyModel, TransportConfig
from repro.scheduler.daemon import DaemonConfig


@dataclass
class VCEConfig:
    """Everything tunable about one VCE instance.

    Attributes:
        seed: root seed for all randomness.
        backend: names the environment class the config is for; it
            selects nothing, as each class accepts one value:
            ``"serial"`` (the default) for the in-process
            :class:`~repro.core.environment.VirtualComputingEnvironment`
            on the netsim kernel, ``"network"`` for
            :class:`repro.netexec.NetworkVCE` (daemons as real asyncio
            processes over TCP — see docs/NETWORK.md). Replay digests are
            byte-stable on ``serial``; the network backend guarantees
            outcome parity only.
        latency: LAN latency/bandwidth model.
        daemon: scheduler-daemon policy knobs.
        tenants: tenant populations for multi-tenant runs (see
            :class:`~repro.core.tenancy.TenantSpec`).  The environment
            builds a :class:`~repro.core.tenancy.TenantRegistry` from them
            and ``submit(..., tenant=...)`` charges quotas against it.
        isis: group-protocol timing.
        settle_time: simulated seconds given to group formation at boot.
        anticipatory: run the anticipatory engine (compile-ahead + file
            replication) on every submitted application.
        wan_latency: when set and machines declare ``site`` attributes,
            messages between machines at *different* sites use this model
            instead of the LAN one (multi-campus metacomputing). Defaults
            to None (everything on one LAN, like the paper's prototype).
        egress_serialization: model one NIC per host (concurrent sends
            queue for the wire); see repro.netsim.Network.
        telemetry: maintain the live metrics registry and run the cluster
            sampler + health watchdog (see repro.telemetry). On by
            default; turn off for throughput-focused benchmarks.
        telemetry_interval: simulated seconds between cluster samples.
        telemetry_series_capacity: ring-buffer length of each sampled
            time series.
        reliable_transport: always True.  Every remote message runs over
            the sequenced retransmitting transport (see
            :mod:`repro.netsim.network`); the datagram mode it once
            switched off was removed, and False raises ``ValueError``.
        transport: retransmission timing of that transport.
        failover: when set, install the
            :class:`~repro.migration.failover.FailoverManager` at boot: a
            crashed instance is stranded and re-dispatched when its class
            group reports the host lost (see ``enable_failover``). None =
            crashes fail applications, as before.
        verify: pre-dispatch static verification of every submitted task
            graph (see :mod:`repro.analysis`). ``"off"`` skips it;
            ``"warn"`` runs the verifier and logs findings as
            ``verify.finding`` events but always dispatches; ``"strict"``
            additionally refuses to dispatch graphs with error-severity
            findings by raising
            :class:`~repro.util.errors.VerificationError`.
        hb_sanitizer: attach the happens-before race sanitizer and the
            protocol conformance monitor (see :mod:`repro.analysis.hb`
            and :mod:`repro.analysis.protocol`). The tracker threads
            through the kernel's ``schedule`` and instrumented
            component accesses; findings are read back from
            ``vce.hb_tracker`` / ``vce.protocol_monitor`` after the run.
            Off by default — the hooks cost nothing when detached.
        tie_shuffle: nonzero salt permutes the firing order of
            same-timestamp events scheduled by *different* parent events
            (FIFO among events scheduled by the same parent is
            preserved). Used by ``repro sanitize`` to confirm whether a
            reported race actually changes run outcomes. 0 (default)
            keeps the historical byte-identical order.
    """

    seed: int = 0
    backend: str = "serial"
    latency: LatencyModel = field(default_factory=LatencyModel)
    daemon: DaemonConfig = field(default_factory=DaemonConfig)
    tenants: tuple[TenantSpec, ...] = ()
    isis: IsisConfig = field(default_factory=IsisConfig)
    settle_time: float = 15.0
    anticipatory: bool = False
    wan_latency: LatencyModel | None = None
    egress_serialization: bool = False
    telemetry: bool = True
    telemetry_interval: float = 4.0
    telemetry_series_capacity: int = 600
    reliable_transport: bool = True
    transport: TransportConfig = field(default_factory=TransportConfig)
    failover: FailoverConfig | None = None
    verify: str = "off"
    hb_sanitizer: bool = False
    tie_shuffle: int = 0

    #: Legal values of :attr:`verify`.
    VERIFY_MODES = ("off", "warn", "strict")

    def __post_init__(self) -> None:
        if not self.reliable_transport:
            raise ValueError("the datagram transport was removed: reliable_transport must be True")
