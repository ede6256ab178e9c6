"""Unit and integration tests for the network execution backend.

Four layers, matching the netexec stack:

- **codec** — framing and the restricted unpickler: hypothesis-fuzzed
  round-trips through :class:`~repro.netexec.codec.FrameDecoder` under
  arbitrary TCP chunking, plus every rejection path (bad magic, CRC
  mismatch, oversized length, truncated pickle, disallowed globals).
- **transport** — in-process :class:`FrameRouter`/:class:`DaemonConnection`
  pairs over real localhost sockets: handshake, routing, bare frames,
  reconnect-with-Hello-resend, disconnect detection, and the
  bind-failure / unreachable-supervisor error paths.
- **daemon, in process** — :class:`~repro.netexec.daemonhost.DaemonHost`
  on the event loop its process runs, with a recording stand-in for its
  connection: probe replies, the order of a task's records and its
  ``TaskDone``, per-application cancellation, a leader round with a
  silent peer, and how late the loop wakes a ``Compute`` sleep.
- **real processes** (``network`` marker) — a supervisor SIGKILLs a real
  daemon mid-task with eager detection off, so recovery must come from
  the pure lease-expiry path.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import pickle
import statistics
import struct
import threading
import time
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.machines.archclass import MachineClass
from repro.netexec import codec, daemonhost
from repro.netexec.frames import (
    EXEC_ADDR,
    LOG_ADDR,
    Envelope,
    Heartbeat,
    Hello,
    Ping,
    Shutdown,
    TaskAssignment,
    TaskDone,
    Welcome,
    WorkloadSpec,
)
from repro.netexec.transport import DaemonConnection, FrameRouter, TransportError
from repro.netsim.host import Address
from repro.scheduler.messages import (
    AllocationReply,
    DiscloseProbe,
    ModuleNeed,
    ProbeReply,
    ResourceRequest,
    TerminateNotice,
)

# --------------------------------------------------------------------- codec

_names = st.text(
    st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12
)

_frames = st.one_of(
    st.builds(
        Hello,
        host=_names,
        machine_name=_names,
        arch_class=st.sampled_from(["WORKSTATION", "VECTOR", "PARALLEL"]),
        speed=st.floats(0.1, 10.0, allow_nan=False),
        pid=st.integers(1, 2**31),
        incarnation=st.integers(0, 50),
    ),
    st.builds(Heartbeat, host=_names, load=st.integers(0, 64), running=st.integers(0, 64)),
    st.builds(
        TaskAssignment,
        app=_names,
        task=_names,
        rank=st.integers(0, 16),
        epoch=st.integers(0, 16),
        work=st.floats(0.0, 100.0, allow_nan=False),
        trace=st.tuples(st.tuples(st.just("trace_id"), _names)),
    ),
    st.builds(
        TaskDone,
        app=_names,
        task=_names,
        rank=st.integers(0, 16),
        epoch=st.integers(0, 16),
        result=st.one_of(st.none(), st.integers(), st.floats(allow_nan=False), _names),
    ),
    st.builds(Ping, nonce=st.integers(0, 2**32), body=st.binary(max_size=256)),
)


class TestCodec:
    @given(messages=st.lists(_frames, min_size=1, max_size=6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_survives_arbitrary_chunking(self, messages, data):
        """However TCP slices the stream, the decoder reassembles exactly
        the frames that were encoded, in order."""
        wire = b"".join(codec.encode(m) for m in messages)
        dec = codec.FrameDecoder()
        out = []
        pos = 0
        while pos < len(wire):
            size = data.draw(st.integers(1, max(1, len(wire) - pos)))
            out.extend(dec.feed(wire[pos : pos + size]))
            pos += size
        assert out == list(messages)
        assert dec.buffered == 0

    def test_byte_at_a_time_feed(self):
        msg = Envelope(
            src=Address("ws0", "daemon"),
            dst=Address("_supervisor", "exec"),
            payload=Heartbeat(host="ws0", load=1, running=1),
        )
        dec = codec.FrameDecoder()
        out = []
        for i in range(len(codec.encode(msg))):
            out.extend(dec.feed(codec.encode(msg)[i : i + 1]))
        assert out == [msg]

    def test_bad_magic_rejected(self):
        frame = bytearray(codec.encode(Ping(nonce=1, body=b"x")))
        frame[0:4] = b"EVIL"
        with pytest.raises(codec.CodecError, match="bad frame magic"):
            codec.FrameDecoder().feed(bytes(frame))

    def test_crc_mismatch_rejected(self):
        frame = bytearray(codec.encode(Ping(nonce=1, body=b"payload")))
        frame[-1] ^= 0xFF
        with pytest.raises(codec.CodecError, match="CRC mismatch"):
            codec.FrameDecoder().feed(bytes(frame))

    def test_oversized_length_field_rejected_before_buffering(self):
        """A corrupt length field must be rejected from the header alone —
        the decoder never waits for gigabytes that will never arrive."""
        header = codec.HEADER.pack(codec.MAGIC, codec.MAX_FRAME + 1, 0)
        with pytest.raises(codec.CodecError, match="exceeds"):
            codec.FrameDecoder().feed(header)

    def test_oversized_payload_rejected_at_encode(self):
        with pytest.raises(codec.CodecError, match="too large"):
            codec.encode(Ping(nonce=0, body=b"\x00" * (codec.MAX_FRAME + 1)))

    def test_truncated_pickle_rejected(self):
        payload = pickle.dumps(Ping(nonce=7, body=b"x"), protocol=5)[:-4]
        frame = codec.HEADER.pack(codec.MAGIC, len(payload), zlib.crc32(payload))
        with pytest.raises(codec.CodecError, match="undecodable"):
            codec.FrameDecoder().feed(frame + payload)

    def test_disallowed_global_rejected(self):
        """A frame smuggling an ``os.system`` reducer is refused before any
        object is constructed."""

        class Evil:
            def __reduce__(self):
                import os

                return (os.system, ("true",))

        payload = pickle.dumps(Evil(), protocol=5)
        assert any("system" in g for g in codec.scan_globals(payload))
        frame = codec.HEADER.pack(codec.MAGIC, len(payload), zlib.crc32(payload))
        with pytest.raises(codec.CodecError, match="disallowed global"):
            codec.FrameDecoder().feed(frame + payload)

    def test_private_names_in_allowed_modules_rejected(self):
        """The allowlist is module + public name: underscore names inside
        an allowed module are still refused."""
        import io

        unpickler = codec._RestrictedUnpickler(io.BytesIO(b""))
        with pytest.raises(codec.CodecError, match="disallowed global"):
            unpickler.find_class("repro.netexec.frames", "_secret")

    def test_workload_spec_roundtrip(self):
        spec = WorkloadSpec("randomdag", (("layers", 3), ("width", 1), ("seed", 7)))
        (out,) = codec.FrameDecoder().feed(codec.encode(spec))
        assert out == spec
        assert out.as_kwargs() == {"layers": 3, "width": 1, "seed": 7}

    def test_garbage_after_valid_frame_fails_loudly(self):
        """A good frame followed by junk decodes nothing silently: the
        stream errors instead of resynchronizing past corruption."""
        dec = codec.FrameDecoder()
        good = codec.encode(Ping(nonce=3, body=b"ok"))
        (msg,) = dec.feed(good)
        assert msg == Ping(nonce=3, body=b"ok")
        with pytest.raises(codec.CodecError, match="bad frame magic"):
            dec.feed(b"XXXX" + struct.pack(">II", 0, 0) + b"padding")


# ----------------------------------------------------------------- transport


def _run(coro, timeout=15.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def _wait_for(predicate, timeout=5.0, interval=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


def _hello(host="ws0", incarnation=0):
    return Hello(
        host=host,
        machine_name=host,
        arch_class="WORKSTATION",
        speed=1.0,
        pid=0,
        incarnation=incarnation,
    )


class TestTransport:
    def test_handshake_registers_peer(self):
        async def scenario():
            hellos = []

            async def on_hello(hello, peer):
                hellos.append(hello)

            router = FrameRouter(lambda env: None, on_hello=on_hello)
            port = await router.start(port=0)
            assert port != 0  # the OS picked a real port

            inbound = []

            async def handler(message):
                inbound.append(message)

            conn = DaemonConnection("127.0.0.1", port, handler)
            conn.on_connect = lambda: conn.send(_hello("ws0"))
            await conn.connect()
            await _wait_for(lambda: "ws0" in router.peers)
            assert [h.host for h in hellos] == ["ws0"]

            # routed envelope reaches the daemon
            router.send(
                "ws0",
                Envelope(
                    src=Address("_supervisor", "exec"),
                    dst=Address("ws0", "daemon"),
                    payload=Ping(nonce=9, body=b"hi"),
                ),
            )
            await _wait_for(lambda: len(inbound) == 1)
            assert inbound[0].payload == Ping(nonce=9, body=b"hi")

            await conn.close()
            await router.close()

        _run(scenario())

    def test_envelope_to_unknown_host_goes_local(self):
        async def scenario():
            local = []
            router = FrameRouter(local.append)
            port = await router.start(port=0)
            env = Envelope(
                src=Address("ws9", "daemon"),
                dst=Address("_supervisor", "log"),
                payload=Ping(nonce=1, body=b""),
            )
            router.route(env)
            assert local == [env]
            await router.close()
            return port

        _run(scenario())

    def test_bare_frames_hit_on_frame_after_hello(self):
        async def scenario():
            beats = []
            router = FrameRouter(
                lambda env: None, on_frame=lambda host, msg: beats.append((host, msg))
            )
            port = await router.start(port=0)
            conn = DaemonConnection("127.0.0.1", port, lambda m: None)
            conn.on_connect = lambda: conn.send(_hello("ws1"))
            await conn.connect()
            await _wait_for(lambda: "ws1" in router.peers)
            conn.send(Heartbeat(host="ws1", load=2, running=1))
            await _wait_for(lambda: len(beats) == 1)
            assert beats[0] == ("ws1", Heartbeat(host="ws1", load=2, running=1))
            await conn.close()
            await router.close()

        _run(scenario())

    def test_frame_before_hello_drops_connection(self):
        async def scenario():
            router = FrameRouter(lambda env: None)
            port = await router.start(port=0)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(codec.encode(Heartbeat(host="rogue", load=0, running=0)))
            await writer.drain()
            # the router closes a connection whose first frame is not Hello
            assert await reader.read() == b""
            assert router.peers == {}
            writer.close()
            await router.close()

        _run(scenario())

    def test_reconnect_resends_hello_with_bumped_incarnation(self):
        """When the server side drops the link, the daemon client dials
        back and the on_connect hook re-registers it — the supervisor sees
        a fresh Hello with a higher incarnation."""

        async def scenario():
            hellos = []

            async def on_hello(hello, peer):
                hellos.append(hello)

            drops = []
            router = FrameRouter(
                lambda env: None, on_hello=on_hello, on_disconnect=drops.append
            )
            port = await router.start(port=0)

            incarnation = [-1]
            conn = DaemonConnection("127.0.0.1", port, lambda m: None)

            def register():
                incarnation[0] += 1
                conn.send(_hello("ws0", incarnation=incarnation[0]))

            conn.on_connect = register
            await conn.connect()
            await _wait_for(lambda: "ws0" in router.peers)

            router.peers["ws0"].writer.close()
            await _wait_for(lambda: len(hellos) == 2)
            await _wait_for(lambda: "ws0" in router.peers)
            assert drops == ["ws0"]
            assert [h.incarnation for h in hellos] == [0, 1]

            await conn.close()
            await router.close()

        _run(scenario())

    def test_daemon_close_fires_on_disconnect(self):
        async def scenario():
            drops = []
            router = FrameRouter(lambda env: None, on_disconnect=drops.append)
            port = await router.start(port=0)
            conn = DaemonConnection("127.0.0.1", port, lambda m: None)
            conn.on_connect = lambda: conn.send(_hello("ws2"))
            await conn.connect()
            await _wait_for(lambda: "ws2" in router.peers)
            await conn.close()
            await _wait_for(lambda: drops == ["ws2"])
            assert "ws2" not in router.peers
            await router.close()

        _run(scenario())

    def test_bind_collision_raises_transport_error(self):
        """Two routers on one explicit port: the second bind fails with a
        TransportError naming the address instead of a bare OSError."""

        async def scenario():
            first = FrameRouter(lambda env: None)
            port = await first.start(port=0)
            second = FrameRouter(lambda env: None)
            with pytest.raises(TransportError, match=f"127.0.0.1:{port}"):
                await second.start(port=port)
            await first.close()

        _run(scenario())

    def test_unreachable_supervisor_raises_after_bounded_retries(self):
        async def scenario():
            probe = FrameRouter(lambda env: None)
            dead_port = await probe.start(port=0)
            await probe.close()  # nothing listens here any more
            conn = DaemonConnection(
                "127.0.0.1", dead_port, lambda m: None, retries=3, backoff=0.01
            )
            with pytest.raises(TransportError, match="after 3 attempts"):
                await conn.connect()

        _run(scenario())


# ---------------------------------------------------------- daemon, in process


def _on_daemon_loop(coro):
    """Run *coro* on the event loop a daemon process runs."""
    loop = daemonhost.new_event_loop()
    try:
        return loop.run_until_complete(asyncio.wait_for(coro, 15.0))
    finally:
        loop.close()


class _Wire:
    """Stands in for a daemon's :class:`DaemonConnection`: records sends."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)
        return True

    def payloads(self, dst=None):
        return [m.payload for m in self.sent
                if isinstance(m, Envelope) and (dst is None or m.dst == dst)]

    def records(self):
        return [(r.category, dict(r.data)) for r in self.payloads(LOG_ADDR)]


_SPEC = WorkloadSpec(
    "randomdag",
    (("layers", 2), ("width", 2), ("seed", 5), ("min_work", 1.0), ("max_work", 2.0)),
)


def _daemon(peers=("ws0",), rate=1e4):
    """ws0's daemon, wired to a :class:`_Wire`, as its Welcome leaves it."""
    daemon = daemonhost.DaemonHost("ws0", "ws0", "127.0.0.1", 1)
    daemon.conn = _Wire()
    daemon.peers = peers
    daemon.rate = rate
    daemon.graph = daemonhost.build_workload(_SPEC)
    return daemon


def _deliver(daemon, payload, src=EXEC_ADDR):
    return daemon._on_message(Envelope(src, daemon.addr, payload))


def _assign(app, task="L0T0", rank=0, work=1.0):
    return TaskAssignment(app, task, rank, epoch=0, work=work)


class TestDaemonHost:
    def test_a_timer_wakes_within_half_a_millisecond(self):
        """A 1.2 ms ``Compute`` sleep overshoots by about 0.9 ms on an
        epoll loop, which rounds every wait up to the next millisecond."""

        async def median_overshoot():
            late = []
            for _ in range(40):
                start = time.perf_counter()
                await asyncio.sleep(0.0012)
                late.append(time.perf_counter() - start - 0.0012)
            return statistics.median(late)

        assert _on_daemon_loop(median_overshoot()) < 0.0005

    def test_probe_is_answered_with_the_running_count(self):
        async def scenario():
            daemon = _daemon(rate=1e-3)  # the tasks sleep until cancelled
            await _deliver(daemon, _assign("a", "L0T0"))
            await _deliver(daemon, _assign("a", "L0T1"))
            probe = DiscloseProbe("r1", reply_to=Address("ws1", "daemon"))
            await _deliver(daemon, probe, src=probe.reply_to)
            await _deliver(daemon, TerminateNotice("a"))
            await asyncio.gather(*daemon.running.values(), return_exceptions=True)
            return daemon.conn.sent[-1]

        reply = _on_daemon_loop(scenario())
        assert reply.dst == Address("ws1", "daemon")
        assert isinstance(reply.payload, ProbeReply)
        assert reply.payload.req_id == "r1"
        assert reply.payload.bid.load == 2.0
        assert reply.payload.bid.machine == "ws0"

    def test_assignment_reports_start_done_then_the_program_result(self):
        async def scenario():
            daemon = _daemon()
            await _deliver(daemon, _assign("a", "L1T0", work=0.5))
            await asyncio.gather(*daemon.running.values())
            return daemon

        daemon = _on_daemon_loop(scenario())
        sent = daemon.conn.payloads()
        assert [type(p).__name__ for p in sent] == ["EmitRecord", "EmitRecord", "TaskDone"]
        assert [p.category for p in sent[:2]] == ["task.start", "task.done"]
        assert dict(sent[0].data) == {"app": "a", "task": "L1T0", "rank": 0, "host": "ws0"}
        # the program returns its own work, not the assignment's
        work = daemon.graph.task("L1T0").work
        assert sent[2] == TaskDone("a", "L1T0", 0, 0, work)
        assert work != 0.5
        assert daemon.conn.sent[-1].dst == EXEC_ADDR
        assert daemon.running == {}

    def test_terminate_notice_cancels_only_its_application(self):
        async def scenario():
            daemon = _daemon(rate=1e-3)
            await _deliver(daemon, _assign("a", "L0T0"))
            await _deliver(daemon, _assign("b", "L0T0"))
            await _deliver(daemon, _assign("a", "L0T1"))
            tasks = dict(daemon.running)
            await _deliver(daemon, TerminateNotice("a"))
            await asyncio.gather(
                *(task for key, task in tasks.items() if key[0] == "a"),
                return_exceptions=True,
            )
            cancelled = {key[0] for key, task in tasks.items() if task.cancelled()}
            left = sorted(daemon.running)
            await _deliver(daemon, TerminateNotice("b"))
            await asyncio.gather(*tasks.values(), return_exceptions=True)
            return cancelled, left, daemon.conn.payloads()

        cancelled, left, sent = _on_daemon_loop(scenario())
        assert cancelled == {"a"}
        assert left == [("b", "L0T0", 0)]
        assert not any(isinstance(p, TaskDone) for p in sent)

    def test_leader_resolves_a_silent_round_with_its_own_bid(self, monkeypatch):
        monkeypatch.setattr(daemonhost, "PROBE_TIMEOUT", 0.05)
        request = ResourceRequest(
            req_id="r7", app="a", machine_class=MachineClass.WORKSTATION,
            modules=(ModuleNeed("L0T0"),), reply_to=EXEC_ADDR,
        )

        async def scenario():
            daemon = _daemon(peers=("ws0", "ws1"))
            await _deliver(daemon, request)
            start = time.perf_counter()
            await _wait_for(lambda: any(
                isinstance(p, AllocationReply) for p in daemon.conn.payloads()
            ))
            return daemon, time.perf_counter() - start

        daemon, waited = _on_daemon_loop(scenario())
        assert waited >= 0.04
        probes = [m for m in daemon.conn.sent if isinstance(m.payload, DiscloseProbe)]
        assert [m.dst for m in probes] == [Address("ws1", "daemon")]
        (reply,) = daemon.conn.payloads(EXEC_ADDR)
        assert reply.req_id == "r7"
        assert [b.machine for b in reply.bids] == ["ws0"]
        records = daemon.conn.records()
        assert [c for c, _ in records] == ["sched.request", "sched.alloc"]
        assert records[1][1]["bids"] == 1
        assert daemon._rounds == {}

    def test_main_ends_every_task_before_it_closes_the_loop(self, caplog):
        """As under ``asyncio.run``: a task program cancelled at shutdown
        and the connection's reader finish before the loop is closed, so
        none is destroyed while pending."""
        listening, gone, port = threading.Event(), threading.Event(), []

        def supervisor():
            async def serve():
                async def on_hello(hello, peer):
                    router.send("ws0", Welcome("ws0", ("ws0",), "ws0", 0, 1e-3, _SPEC))
                    router.send("ws0", Envelope(EXEC_ADDR, Address("ws0", "daemon"),
                                                _assign("a")))
                    await asyncio.sleep(0.1)  # the task starts and sleeps
                    router.send("ws0", Shutdown())

                router = FrameRouter(lambda env: None, on_hello=on_hello,
                                     on_disconnect=lambda host: gone.set())
                port.append(await router.start(port=0))
                listening.set()
                await _wait_for(gone.is_set, timeout=10.0)
                await router.close()

            asyncio.run(serve())

        thread = threading.Thread(target=supervisor)
        thread.start()
        assert listening.wait(5.0)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            assert daemonhost.main(["--connect", f"127.0.0.1:{port[0]}", "--host", "ws0"]) == 0
            gc.collect()
        thread.join(15.0)
        assert gone.is_set()
        assert [r.getMessage() for r in caplog.records] == []


# ----------------------------------------------------- real daemon processes


@pytest.mark.network
class TestRealProcessFailover:
    def test_sigkill_recovers_via_lease_expiry(self):
        """With eager (EOF-based) detection off, a SIGKILL-ed daemon's
        tasks come back only when the wall-clock lease expires — the pure
        §4.4 recovery path, on real OS processes."""
        from repro.core import VCEConfig, workstation_cluster
        from repro.migration.failover import FailoverConfig
        from repro.netexec.frames import WorkloadSpec
        from repro.netexec.supervisor import NetworkVCE

        spec = WorkloadSpec(
            "randomdag",
            (("layers", 3), ("width", 1), ("seed", 23),
             ("min_work", 8.0), ("max_work", 10.0)),
        )
        vce = NetworkVCE(
            workstation_cluster(3),
            VCEConfig(seed=23, backend="network"),
            rate=20.0,
            failover=FailoverConfig(lease=4.0),
            eager_detection=False,
        )

        async def scenario():
            await vce.aboot(spec)
            try:
                app = await vce.asubmit(spec)
                drive = asyncio.get_running_loop().create_task(
                    vce.sim.drive(stop_when=app.finished.is_set)
                )
                await _wait_for(
                    lambda: vce.sim.log.records(category="runtime.dispatch"),
                    timeout=30.0,
                )
                await asyncio.sleep(0.05)  # let the task actually start
                victim = vce.sim.log.records(category="runtime.dispatch")[0].data["host"]
                vce.kill_daemon(victim)
                await asyncio.wait_for(app.finished.wait(), 60.0)
                drive.cancel()
                return app
            finally:
                await vce.ashutdown()

        app = asyncio.run(scenario())
        assert not app.failed
        assert app.done_set() == {("L0T0", 0), ("L1T0", 0), ("L2T0", 0)}
        log = vce.sim.log
        assert len(log.records(category="recovery.lease_expired")) >= 1
        assert len(log.records(category="recovery.redispatch")) >= 1
        # eager detection was off: no daemon-takeover strands
        assert all(
            r.data.get("via") != "daemon-takeover"
            for r in log.records(category="recovery.strand")
        )
        assert vce.orphan_pids() == []
