"""Socket plumbing for the network backend.

Two halves, both asyncio (the same idioms as the controlplane server:
``asyncio.start_server`` on a requested port, ``port = server.sockets[0].
getsockname()[1]`` so port 0 picks a free one):

- :class:`FrameRouter` — the supervisor-side hub.  Every daemon holds
  one TCP connection to it; frames are :class:`~repro.netexec.frames.
  Envelope`\\ s addressed by :class:`~repro.netsim.host.Address`, and the
  router forwards by destination host — the same switch role netsim's
  ``Network`` plays, except the links are real sockets.  Addresses whose
  host is not a connected daemon are delivered to the supervisor's local
  handler (the execution program and log sink live in-process with the
  router).  A connection carries one ``Hello`` and then envelopes only;
  its EOF is the supervisor's one failure detector.
- :class:`DaemonConnection` — the daemon-side client: connect with
  bounded retry (the supervisor may still be binding when a daemon
  starts), a reader task feeding a :class:`~repro.netexec.codec.
  FrameDecoder`, and reconnect-with-backoff when the connection drops
  mid-run.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

from repro.netexec import codec
from repro.netexec.frames import Envelope, Hello
from repro.util.errors import SimulationError


class TransportError(SimulationError):
    """Socket-level failure surfaced to the backend's callers."""


class _Peer:
    """One connected daemon as the router sees it."""

    __slots__ = ("host", "writer", "hello", "alive")

    def __init__(self, host: str, writer: asyncio.StreamWriter, hello: Hello) -> None:
        self.host = host
        self.writer = writer
        self.hello = hello
        self.alive = True


class FrameRouter:
    """Supervisor-side frame switch (see module docstring).

    Args:
        local_handler: called with (envelope) for frames addressed to a
            host with no daemon connection — the supervisor's own
            addresses (execution program, log sink).
        on_hello: called with (hello, peer) when a daemon registers.
        on_disconnect: called with (host) when a daemon's connection
            drops (EOF or reset), or when a new ``Hello`` for the host
            replaces a connection not yet seen to drop — the supervisor's
            failure detector.
    """

    def __init__(
        self,
        local_handler: Callable[[Envelope], None],
        on_hello: Callable[[Hello, "_Peer"], Awaitable[None]] | None = None,
        on_disconnect: Callable[[str], None] | None = None,
    ) -> None:
        self.local_handler = local_handler
        self.on_hello = on_hello
        self.on_disconnect = on_disconnect
        self.peers: dict[str, _Peer] = {}
        self.port: int | None = None
        self._server: asyncio.Server | None = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and listen; returns the actual port.  A busy requested
        port raises :class:`TransportError` naming it (the caller can
        retry with port 0)."""
        try:
            self._server = await asyncio.start_server(self._serve, host, port)
        except OSError as exc:
            raise TransportError(
                f"cannot bind netexec router to {host}:{port}: {exc}"
            ) from exc
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def close(self) -> None:
        for peer in list(self.peers.values()):
            peer.alive = False
            peer.writer.close()
        self.peers.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------- serving

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = codec.FrameDecoder()
        peer: _Peer | None = None
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                for message in decoder.feed(data):
                    if peer is None:
                        if not isinstance(message, Hello):
                            raise codec.CodecError(
                                f"expected Hello, got {type(message).__name__}"
                            )
                        old = self.peers.get(message.host)
                        if old is not None:
                            # the daemon reconnected before its old
                            # socket's EOF reached us: that one is lost
                            self._drop(old)
                        peer = _Peer(message.host, writer, message)
                        self.peers[message.host] = peer
                        if self.on_hello is not None:
                            await self.on_hello(message, peer)
                    elif isinstance(message, Envelope):
                        self.route(message)
                    else:
                        raise codec.CodecError(
                            f"expected Envelope, got {type(message).__name__}"
                        )
        except (codec.CodecError, ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if peer is not None and self.peers.get(peer.host) is peer:
                self._drop(peer)
            writer.close()

    def _drop(self, peer: _Peer) -> None:
        """Unregister *peer*, close its socket and report the host lost."""
        peer.alive = False
        del self.peers[peer.host]
        peer.writer.close()
        if self.on_disconnect is not None:
            self.on_disconnect(peer.host)

    # ------------------------------------------------------------- routing

    def route(self, envelope: Envelope) -> None:
        """Forward by destination host; local addresses stay in-process."""
        peer = self.peers.get(envelope.dst.host)
        if peer is not None and peer.alive:
            try:
                peer.writer.write(codec.encode(envelope))
            except (ConnectionError, RuntimeError):
                peer.alive = False
        else:
            self.local_handler(envelope)

    def send(self, host: str, message: Any) -> bool:
        """Write one raw frame to a daemon; False if it is not connected."""
        peer = self.peers.get(host)
        if peer is None or not peer.alive:
            return False
        try:
            peer.writer.write(codec.encode(message))
            return True
        except (ConnectionError, RuntimeError):
            peer.alive = False
            return False

    def broadcast(self, message: Any) -> int:
        """Send to every connected daemon; returns how many got it."""
        return sum(1 for host in list(self.peers) if self.send(host, message))


class DaemonConnection:
    """Daemon-side client connection (see module docstring).

    Args:
        handler: called with each inbound message.
        retries: connection attempts before giving up (each waits
            ``backoff`` seconds longer than the last).
    """

    def __init__(
        self,
        host: str,
        port: int,
        handler: Callable[[Any], Awaitable[None]],
        retries: int = 20,
        backoff: float = 0.05,
    ) -> None:
        self.host = host
        self.port = port
        self.handler = handler
        self.retries = retries
        self.backoff = backoff
        self.writer: asyncio.StreamWriter | None = None
        self.connected = asyncio.Event()
        self.closed = False
        #: called (synchronously) after every successful connect, including
        #: reconnects — the daemon re-sends its Hello here
        self.on_connect: Callable[[], None] | None = None

    async def connect(self) -> None:
        """Dial with bounded linear-backoff retry."""
        last: Exception | None = None
        for attempt in range(self.retries):
            try:
                reader, writer = await asyncio.open_connection(self.host, self.port)
                if self.writer is not None:
                    self.writer.close()  # the connection this one replaces
                self.writer = writer
                self.connected.set()
                asyncio.get_running_loop().create_task(self._read(reader))
                if self.on_connect is not None:
                    self.on_connect()
                return
            except OSError as exc:
                last = exc
                await asyncio.sleep(self.backoff * (attempt + 1))
        raise TransportError(
            f"cannot reach supervisor at {self.host}:{self.port} "
            f"after {self.retries} attempts: {last}"
        )

    async def _read(self, reader: asyncio.StreamReader) -> None:
        decoder = codec.FrameDecoder()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                for message in decoder.feed(data):
                    await self.handler(message)
        except (codec.CodecError, ConnectionError):
            pass
        finally:
            self.connected.clear()
            if not self.closed:
                await self._reconnect()

    async def _reconnect(self) -> None:
        try:
            await self.connect()
        except TransportError:
            self.closed = True

    def send(self, message: Any) -> bool:
        if self.writer is None or not self.connected.is_set():
            return False
        try:
            self.writer.write(codec.encode(message))
            return True
        except (ConnectionError, RuntimeError):
            self.connected.clear()
            return False

    async def close(self) -> None:
        self.closed = True
        if self.writer is not None:
            self.writer.close()
            self.writer = None
        self.connected.clear()
