"""The control-plane HTTP server: SSE/WebSocket streams + control API.

A deliberately small, dependency-free asyncio server (hand-rolled
HTTP/1.1, Server-Sent Events, and RFC 6455 WebSocket framing — the
container bakes in no web framework, and none is needed at this size).

Endpoints:

======  =================  ==========================================
GET     ``/``              the single-file dashboard
GET     ``/events``        SSE event stream (``?topics=a,b`` prefixes)
GET     ``/ws``            the same stream over WebSocket
GET     ``/api/state``     full entity snapshot
GET     ``/api/metrics``   shared telemetry snapshot (metrics + health)
GET     ``/metrics``       Prometheus text exposition
GET     ``/api/trace``     critical paths of completed applications
POST    ``/api/submit``    ``{"workload": "randomdag", ...}``
POST    ``/api/chaos``     ``{"schedule": "chaos-mix", "seed": 3}``
POST    ``/api/drain``     ``{"host": "ws1"}`` (+ ``"undrain": true``)
POST    ``/api/restart``   ``{"host": "ws1"}`` — reboot the daemon
POST    ``/api/snapshot``  ``{"path": "rundir"}`` — save a run directory
POST    ``/api/shutdown``  stop the server cleanly
======  =================  ==========================================

Concurrency model: everything runs on one asyncio loop. The driver task
advances the simulation in slices (``ServeSession.advance``), and since
``sim.run`` is synchronous, *no handler executes during a slice* —
control handlers mutate the VCE at slice boundaries only, which keeps
the simulation exactly as deterministic as a script making the same
calls. Slow stream consumers never block the driver: each stream owns a
bounded hub subscription that drops oldest under backpressure while the
stream task alone waits on the socket.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import time
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlsplit

from repro.controlplane.driver import ServeSession
from repro.controlplane.rundir import save_run_dir
from repro.util.errors import VCEError

if TYPE_CHECKING:  # pragma: no cover
    from repro.controlplane.hub import Subscription

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
_MAX_HEADER_BYTES = 32768
_MAX_BODY_BYTES = 1 << 20


def _ws_accept(key: str) -> str:
    digest = hashlib.sha1((key + _WS_GUID).encode()).digest()
    return base64.b64encode(digest).decode()


def _ws_frame(payload: bytes, opcode: int = 0x1) -> bytes:
    head = bytearray([0x80 | opcode])
    n = len(payload)
    if n < 126:
        head.append(n)
    elif n < 65536:
        head.append(126)
        head += n.to_bytes(2, "big")
    else:
        head.append(127)
        head += n.to_bytes(8, "big")
    return bytes(head) + payload


async def _ws_read_frame(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    head = await reader.readexactly(2)
    opcode = head[0] & 0x0F
    masked = bool(head[1] & 0x80)
    length = head[1] & 0x7F
    if length == 126:
        length = int.from_bytes(await reader.readexactly(2), "big")
    elif length == 127:
        length = int.from_bytes(await reader.readexactly(8), "big")
    mask = await reader.readexactly(4) if masked else b""
    payload = await reader.readexactly(length) if length else b""
    if masked:
        payload = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
    return opcode, payload


class _Request:
    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method: str, target: str, headers: dict, body: bytes):
        parts = urlsplit(target)
        self.method = method
        self.path = parts.path
        self.query = parse_qs(parts.query)
        self.headers = headers
        self.body = body

    def json(self) -> dict:
        if not self.body:
            return {}
        try:
            obj = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise VCEError(f"request body is not valid JSON: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise VCEError("request body must be a JSON object")
        return obj

    def param(self, name: str, default: str | None = None) -> str | None:
        values = self.query.get(name)
        return values[0] if values else default


class ControlPlaneServer:
    """See module docstring.

    Args:
        session: the :class:`ServeSession` to drive and expose.
        host: bind address (loopback by default — the control API is
            unauthenticated by design, like the paper's era tooling).
        port: TCP port; 0 picks a free one (see :attr:`port` after start).
        keepalive: idle seconds between SSE keepalive comments.
        queue_limit: per-stream hub subscription bound.
    """

    def __init__(
        self,
        session: ServeSession,
        host: str = "127.0.0.1",
        port: int = 0,
        keepalive: float = 15.0,
        queue_limit: int = 512,
    ) -> None:
        self.session = session
        self.vce = session.vce
        self.host = host
        self.requested_port = port
        self.port: int | None = None
        self.keepalive = keepalive
        self.queue_limit = queue_limit
        self._server: asyncio.AbstractServer | None = None
        self._shutdown: asyncio.Event | None = None
        self._wakes: set[asyncio.Event] = set()
        self._stream_count = 0

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._shutdown is not None:
            self._shutdown.set()
        for wake in list(self._wakes):
            wake.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def request_shutdown(self) -> None:
        if self._shutdown is not None:
            self._shutdown.set()
        for wake in list(self._wakes):
            wake.set()

    @property
    def shutting_down(self) -> bool:
        return self._shutdown is not None and self._shutdown.is_set()

    async def run(
        self,
        exit_when_done: bool = False,
        max_wall: float | None = None,
        idle_sleep: float = 0.05,
    ) -> None:
        """Start the server and drive simulation slices until shutdown.

        Args:
            exit_when_done: stop once every tracked run is terminal
                (headless / CI mode).
            max_wall: hard wall-clock cap in seconds (safety for CI).
            idle_sleep: minimum sleep between slices when free-running,
                so handlers get loop time and an idle sim does not spin.
        """
        if self._server is None:
            await self.start()
        start_wall = time.monotonic()  # detlint: ok(D001) - serving, not simulating
        try:
            while not self.shutting_down:
                self.session.advance()
                if exit_when_done and self.session.workload_done:
                    break
                if max_wall is not None:
                    elapsed = time.monotonic() - start_wall  # detlint: ok(D001)
                    if elapsed >= max_wall:
                        break
                await asyncio.sleep(max(self.session.sleep_for(), idle_sleep))
        finally:
            await self.stop()

    # ------------------------------------------------------------ connections

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            await self._route(request, reader, writer)
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> _Request | None:
        raw = await reader.readuntil(b"\r\n\r\n")
        if len(raw) > _MAX_HEADER_BYTES:
            return None
        lines = raw.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", "0") or 0)
        if length:
            if length > _MAX_BODY_BYTES:
                return None
            body = await reader.readexactly(length)
        return _Request(method.upper(), target, headers, body)

    # ---------------------------------------------------------------- routing

    async def _route(
        self,
        request: _Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        method, path = request.method, request.path
        if method == "GET" and path == "/events":
            await self._stream_sse(request, writer)
            return
        if method == "GET" and path == "/ws":
            await self._stream_websocket(request, reader, writer)
            return
        try:
            handled = await self._route_plain(request, writer)
        except (VCEError, ValueError) as exc:
            await self._send_json(writer, {"error": str(exc)}, status=400)
            return
        except KeyError as exc:
            await self._send_json(
                writer, {"error": f"unknown name: {exc.args[0]!r}"}, status=404
            )
            return
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # a handler bug must not kill the server
            await self._send_json(
                writer, {"error": f"internal error: {exc!r}"}, status=500
            )
            return
        if not handled:
            await self._send_json(writer, {"error": "not found"}, status=404)

    async def _route_plain(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> bool:
        method, path = request.method, request.path
        session, vce = self.session, self.vce
        if method == "GET":
            if path == "/":
                from repro.controlplane.dashboard import DASHBOARD_HTML

                await self._send(
                    writer, 200, "text/html; charset=utf-8", DASHBOARD_HTML.encode()
                )
                return True
            if path == "/api/state":
                await self._send_json(writer, session.model.snapshot())
                return True
            if path == "/api/metrics":
                if vce.telemetry is None:
                    raise VCEError("telemetry is disabled for this run")
                await self._send_json(writer, vce.telemetry.snapshot())
                return True
            if path == "/metrics":
                if vce.telemetry is None:
                    raise VCEError("telemetry is disabled for this run")
                await self._send(
                    writer,
                    200,
                    "text/plain; version=0.0.4",
                    vce.telemetry.prometheus().encode(),
                )
                return True
            if path == "/api/trace":
                await self._send_json(writer, self._trace_summary())
                return True
            return False
        if method == "POST":
            body = request.json()
            if path == "/api/submit":
                run = session.submit(
                    body.get("workload", "randomdag"),
                    **{
                        k: body[k]
                        for k in ("layers", "width", "seed", "ranks", "iterations")
                        if k in body
                    },
                )
                await self._send_json(
                    writer,
                    {
                        "ok": True,
                        "app": run.app.id if run.app is not None else None,
                        "state": run.state.value,
                        "time": vce.sim.now,
                    },
                )
                return True
            if path == "/api/chaos":
                controller = vce.chaos(
                    body.get("schedule", "chaos-mix"),
                    seed=body.get("seed"),
                    start=float(body.get("start", 0.0)),
                )
                await self._send_json(
                    writer,
                    {"ok": True, "schedule": body.get("schedule", "chaos-mix"),
                     "actions": len(controller.schedule)},
                )
                return True
            if path == "/api/drain":
                host = body["host"]
                if body.get("undrain"):
                    vce.undrain_host(host)
                else:
                    vce.drain_host(host)
                await self._send_json(
                    writer,
                    {"ok": True, "host": host,
                     "draining": vce.daemons[host].draining},
                )
                return True
            if path == "/api/restart":
                host = body["host"]
                vce.restart_daemon(host)
                await self._send_json(writer, {"ok": True, "host": host})
                return True
            if path == "/api/snapshot":
                path_arg = body.get("path", "run-snapshot")
                save_run_dir(vce, path_arg)
                await self._send_json(writer, {"ok": True, "path": path_arg})
                return True
            if path == "/api/shutdown":
                await self._send_json(writer, {"ok": True, "shutting_down": True})
                self.request_shutdown()
                return True
            return False
        return False

    def _trace_summary(self) -> dict:
        from repro.trace.assemble import TraceAssembler
        from repro.trace.critical import critical_path

        paths = []
        for trace in TraceAssembler(self.vce.sim.log).assemble():
            cp = critical_path(trace)
            if cp is None:
                continue
            paths.append(
                {
                    "app": cp.app,
                    "start": cp.start,
                    "end": cp.end,
                    "makespan": cp.makespan,
                    "segments": [
                        {
                            "kind": s.kind,
                            "start": s.start,
                            "end": s.end,
                            "duration": s.duration,
                            "span": s.span,
                        }
                        for s in cp.segments
                    ],
                }
            )
        return {"paths": paths, "time": self.vce.sim.now}

    # ---------------------------------------------------------------- streams

    def _subscribe(self, request: _Request, kind: str) -> tuple:
        topics_arg = request.param("topics", "")
        topics = tuple(t for t in (topics_arg or "").split(",") if t)
        wake: asyncio.Event = asyncio.Event()
        self._wakes.add(wake)
        self._stream_count += 1
        sub = self.session.hub.subscribe(
            name=f"{kind}-{self._stream_count}",
            topics=topics,
            limit=self.queue_limit,
            on_enqueue=wake.set,
        )
        return sub, wake

    def _release(self, sub: "Subscription", wake: asyncio.Event) -> None:
        sub.close()
        self._wakes.discard(wake)

    async def _wait_events(self, sub: "Subscription", wake: asyncio.Event) -> list:
        """Drain pending events, or block until some arrive / keepalive
        timeout (returns []) / shutdown."""
        events = sub.drain(max_items=256)
        if events or self.shutting_down:
            return events
        wake.clear()
        if sub.pending:  # raced with a publish between drain and clear
            return sub.drain(max_items=256)
        try:
            await asyncio.wait_for(wake.wait(), timeout=self.keepalive)
        except asyncio.TimeoutError:
            return []
        return sub.drain(max_items=256)

    async def _stream_sse(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> None:
        sub, wake = self._subscribe(request, "sse")
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n"
                b"Connection: close\r\n"
                b"Access-Control-Allow-Origin: *\r\n\r\n"
            )
            hello = json.dumps(self.session.model.snapshot(), default=str)
            writer.write(f"event: snapshot\ndata: {hello}\n\n".encode())
            await writer.drain()
            while not self.shutting_down:
                events = await self._wait_events(sub, wake)
                if not events:
                    writer.write(b": keepalive\n\n")
                    await writer.drain()
                    continue
                # unnamed frames so EventSource.onmessage sees every topic
                # (the topic rides in the JSON payload)
                chunks = []
                for event in events:
                    data = json.dumps(event.as_dict(), default=str)
                    chunks.append(f"data: {data}\n\n")
                writer.write("".join(chunks).encode())
                await writer.drain()
        finally:
            self._release(sub, wake)

    async def _stream_websocket(
        self,
        request: _Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        key = request.headers.get("sec-websocket-key")
        if key is None or request.headers.get("upgrade", "").lower() != "websocket":
            await self._send_json(writer, {"error": "expected websocket upgrade"}, 400)
            return
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {_ws_accept(key)}\r\n\r\n"
            ).encode()
        )
        await writer.drain()
        sub, wake = self._subscribe(request, "ws")
        closed = asyncio.Event()

        async def read_client() -> None:
            try:
                while True:
                    opcode, payload = await _ws_read_frame(reader)
                    if opcode == 0x8:  # close
                        break
                    if opcode == 0x9:  # ping -> pong
                        writer.write(_ws_frame(payload, opcode=0xA))
                        await writer.drain()
            except (asyncio.IncompleteReadError, ConnectionResetError):
                pass
            finally:
                closed.set()
                wake.set()

        reader_task = asyncio.ensure_future(read_client())
        try:
            hello = json.dumps(
                {"topic": "snapshot", "data": self.session.model.snapshot()},
                default=str,
            )
            writer.write(_ws_frame(hello.encode()))
            await writer.drain()
            while not self.shutting_down and not closed.is_set():
                events = await self._wait_events(sub, wake)
                if closed.is_set():
                    break
                if not events:
                    writer.write(_ws_frame(b"", opcode=0x9))  # ping as keepalive
                    await writer.drain()
                    continue
                for event in events:
                    payload = json.dumps(event.as_dict(), default=str).encode()
                    writer.write(_ws_frame(payload))
                await writer.drain()
            writer.write(_ws_frame(b"", opcode=0x8))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            reader_task.cancel()
            self._release(sub, wake)

    # -------------------------------------------------------------- responses

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: bytes,
    ) -> None:
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            500: "Internal Server Error",
        }.get(status, "OK")
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Access-Control-Allow-Origin: *\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
        )
        writer.write(body)
        await writer.drain()

    async def _send_json(
        self, writer: asyncio.StreamWriter, obj: dict, status: int = 200
    ) -> None:
        body = json.dumps(obj, default=str).encode()
        await self._send(writer, status, "application/json", body)


def serve(
    session: ServeSession,
    host: str = "127.0.0.1",
    port: int = 8421,
    exit_when_done: bool = False,
    max_wall: float | None = None,
) -> ControlPlaneServer:
    """Blocking convenience wrapper: run a server until shutdown."""
    server = ControlPlaneServer(session, host=host, port=port)
    asyncio.run(server.run(exit_when_done=exit_when_done, max_wall=max_wall))
    return server
