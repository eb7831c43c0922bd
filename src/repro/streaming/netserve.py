"""The TCP shard transport: serving shard workers across host boundaries.

:mod:`repro.streaming.transport` established the command/response
protocol (:class:`~repro.streaming.transport.ShardSpec` spawn payloads
down, :class:`~repro.privacy.tree.ReleasedMoments` records up,
``(command, payload)`` → ``("ok" | "err", result)`` framing) over a
``multiprocessing`` pipe.  This module serves the *same* protocol, in the
same typed frames (:mod:`repro.streaming.wire`), **length-prefixed on a
TCP socket**, so shards can run in a different process on a different
host:

* :class:`ShardHostListener` — the remote end.  Accepts connections,
  reads a :class:`~repro.streaming.transport.ShardSpec` as the first
  frame, builds the shard it describes in a handler thread, and serves
  :func:`~repro.streaming.transport.dispatch_command` over the socket.
  One listener hosts many shards (one per connection), all under its
  one GIL — run one listener per core (and per host), and point
  ``ShardedStream(transport="tcp", addresses=[...])`` at the fleet.
* :class:`TcpShardWorker` — the parent-side proxy.  A
  :class:`~repro.streaming.transport.ShardRpcClient` whose wire is the
  socket, exposing the exact ``MomentShard`` surface the serving front
  already speaks, including the ``request_timeout`` deadline semantics:
  a missed deadline severs the connection *before* raising
  :class:`~repro.exceptions.ShardTimeoutError`, so a stale late reply
  can never pair with a future request.
* :class:`ShardAddress` — the rendezvous object: where a listener is.

Why the analyses survive this boundary too
------------------------------------------
Nothing privacy- or correctness-relevant is transport-shaped.  The
worker builds its mechanisms from the same two-word noise keys every
other transport builds from, so they release the same noise (``K = 1``
under ``ingest="exact"`` stays bit-identical to the plain batched path,
and thread ≡ process ≡ tcp merged releases under one seed —
``tests/test_tcp_serving.py``).  The wire carries the released statistic
(``O(m²)`` raw ``float64`` bytes, exact), never tree state, and
everything the parent does with the records is post-processing.

Fault semantics
---------------
Identical to the pipe transport, because it is the same code: the
listener serves through :func:`~repro.streaming.transport._serve` and the
proxy sends and awaits through ``ShardRpcClient._send``/``_await``, here
over a socket *link* (``_SocketLink``: one ``put``/``take`` pair on the
frames below).
Three cases: a **command-level error** travels back as an
``("err", exc)`` frame (class name plus message) and the shard keeps
serving (block-atomic rejection holds across the socket); a **dead
peer** (connection reset, listener host down) surfaces as
:class:`~repro.exceptions.ShardUnavailableError` on the next frame
exchange; a **stuck peer** misses the ``request_timeout`` deadline and
is folded into the dead-peer path via
:class:`~repro.exceptions.ShardTimeoutError`.  :meth:`TcpShardWorker.kill`
models a crash by severing the socket abruptly — the listener sees EOF
and tears the shard down, so an uncommanded parent death never leaks
remote shards.  A frame that does not decode is refused with an
``("err", exc)`` reply and the connection is dropped.

Security note
-------------
Frames are typed data (:mod:`repro.streaming.wire`), never pickles: a
peer cannot make the other end execute code, and a malformed or hostile
frame is refused with a :class:`~repro.exceptions.ValidationError`
without allocating more than the bytes it sent.  There is still **no
authentication and no encryption** — anyone who can reach a listener can
build shards on it and feed them data, and anyone on the path can read
the released statistics.  Bind listeners to loopback or a private
interface, never the open internet.
"""

from __future__ import annotations

# Bound but never called: perfbench's tracer wraps ``netserve.pickle``.
import pickle  # noqa: F401
import socket
import struct
import threading
from dataclasses import dataclass

from ..exceptions import ShardUnavailableError, ValidationError
from .transport import (
    BOOT_TIMEOUT,
    SHUTDOWN_TIMEOUT,
    ShardRpcClient,
    ShardSpec,
    _build_handler,
    _serve,
)
from . import wire

__all__ = [
    "ShardAddress",
    "ShardHostListener",
    "TcpShardWorker",
    "recv_frame",
    "send_frame",
]

#: Frame header: unsigned 64-bit big-endian payload length.
_HEADER = struct.Struct(">Q")

#: Sanity cap on a single frame (8 GiB).  Real frames are data blocks and
#: released records — megabytes at most; a length beyond this means a
#: corrupt or hostile header, and refusing eagerly beats a doomed
#: multi-gigabyte allocation.
MAX_FRAME_BYTES = 8 << 30


def send_frame(sock: socket.socket, obj) -> None:
    """Encode ``obj`` (:func:`repro.streaming.wire.encode`) as one
    length-prefixed frame and write it."""
    payload = wire.encode(obj)
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise (``EOFError`` on clean close).

    Reads in chunks of at most 1 MiB and never allocates ahead of the
    bytes that arrived: a header may claim up to :data:`MAX_FRAME_BYTES`,
    but only a peer that really sends them costs that much memory.
    """
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == n and not chunks:
                raise EOFError("connection closed")
            raise ConnectionResetError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket):
    """Read one length-prefixed frame and decode it
    (:func:`repro.streaming.wire.decode`).

    Raises ``EOFError`` on a clean peer close between frames,
    ``ConnectionResetError`` on a close mid-frame, ``socket.timeout``
    when the socket carries a deadline, and ``ValidationError`` on a
    header that fails the :data:`MAX_FRAME_BYTES` sanity cap or a frame
    that does not decode.
    """
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise ValidationError(
            f"frame header claims {length} bytes (> {MAX_FRAME_BYTES}); "
            "corrupt stream or untrusted peer"
        )
    return wire.decode(_recv_exact(sock, length))


class _SocketLink:
    """One end of a tcp shard connection: length-prefixed frames on a socket.

    The pair :class:`~repro.streaming.transport._PipeLink` is on a pipe:
    :meth:`put` writes one message, :meth:`take` reads one within
    ``timeout`` seconds (``None`` waits forever).  Both call this module's
    :func:`send_frame`/:func:`recv_frame` by name at call time, so a
    tracer that swaps those names sees every frame, and the socket
    timeout is set only when the deadline changes.
    """

    __slots__ = ("sock",)

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock

    def put(self, message) -> None:
        send_frame(self.sock, message)

    def take(self, timeout: float | None = None):
        if self.sock.gettimeout() != timeout:
            self.sock.settimeout(timeout)
        return recv_frame(self.sock)


@dataclass(frozen=True)
class ShardAddress:
    """Where a :class:`ShardHostListener` is reachable (the rendezvous).

    ``ShardedStream(transport="tcp", addresses=[...])`` assigns shard
    ``i`` to ``addresses[i % len(addresses)]`` — one listener per host,
    K shards striped across them.  Restarts reconnect to the same
    address, so a shard stays on its host across ``restart_shard``.
    """

    host: str
    port: int

    @classmethod
    def coerce(cls, value) -> "ShardAddress":
        """Accept an address in any config shape: ``ShardAddress``,
        ``"host:port"`` string, or ``(host, port)`` pair."""
        if isinstance(value, ShardAddress):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        try:
            host, port = value
        except (TypeError, ValueError):
            raise ValidationError(
                f"cannot interpret {value!r} as a shard address (want a "
                f"ShardAddress, 'host:port' string, or (host, port) pair)"
            ) from None
        return cls(host=str(host), port=int(port))

    @classmethod
    def parse(cls, text: str) -> "ShardAddress":
        """Build from a ``"host:port"`` string (config-file ergonomics)."""
        host, _, port = text.rpartition(":")
        if not host or not port.isdigit():
            raise ValidationError(
                f"expected 'host:port', got {text!r}"
            )
        return cls(host=host, port=int(port))

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


class ShardHostListener:
    """Serve :class:`ShardSpec`-built shards to TCP peers (the remote end).

    Each connection runs the pipe worker's loop,
    :func:`~repro.streaming.transport._serve`: the first frame is an
    encoded :class:`~repro.streaming.transport.ShardSpec`; the listener
    builds the shard and replies ``("ok", index)`` (the ready handshake —
    or ``("err", exc)`` if construction failed), then serves
    ``(command, payload)`` frames through
    :func:`~repro.streaming.transport.dispatch_command` until a
    ``"close"`` command or EOF.  EOF without a close is treated as a
    parent crash: the shard is torn down, so dead parents never leak
    remote shards.

    Each shard is built in its connection's handler thread, so every
    shard on one listener shares its GIL; for shards that ingest on real
    cores, run one listener per core and list them all in ``addresses``.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` (default) picks a free port — read it
        back from :attr:`address`.  The loopback default is deliberate;
        see the module security note before binding wider.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._closed = False
        self._sock = socket.create_server((host, port), backlog=16)
        bound_host, bound_port = self._sock.getsockname()[:2]
        self.address = ShardAddress(host=bound_host, port=bound_port)
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"repro-shard-listener-{bound_port}",
            daemon=True,
        )
        self._accept_thread.start()

    # ------------------------------------------------------------------
    # Serving loops
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _peer = self._sock.accept()
            except OSError:
                return  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"repro-shard-conn-{self.address.port}",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        """One connection = one shard: :func:`_serve` on the socket link."""
        try:
            _serve(_SocketLink(conn), _build_handler)
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop accepting and sever every live connection.  Idempotent.

        Severing (rather than draining) is deliberate: listener close is
        host teardown, and the parent-side proxies must see the same
        thing they would see if the host died — so their next RPC raises
        :class:`~repro.exceptions.ShardUnavailableError` and the serving
        front applies partial coverage.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns = list(self._conns)
            self._conns.clear()
        # close() alone does not wake a thread parked in accept() on
        # Linux; shutting the listening socket down first does, so the
        # accept thread exits and the join below returns at once.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        self._accept_thread.join(timeout=SHUTDOWN_TIMEOUT)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ShardHostListener":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardHostListener(address={self.address}, closed={self._closed})"


class TcpShardWorker(ShardRpcClient):
    """Parent-side proxy for one shard served by a :class:`ShardHostListener`.

    See :class:`~repro.streaming.transport.ShardRpcClient` for the
    surface contract — this class only owns the socket wire.

    Parameters
    ----------
    spec:
        The shard recipe; shipped as the first frame, built on the
        listener's side of the wire.
    address:
        Where the listener is, in any shape :meth:`ShardAddress.coerce`
        accepts: a :class:`ShardAddress`, a ``"host:port"`` string or a
        ``(host, port)`` pair.
    request_timeout:
        Deadline in seconds on every round trip, enforced with the
        socket's own timeout.  A missed deadline severs the connection
        (the listener sees EOF and tears the remote shard down) and
        raises :class:`~repro.exceptions.ShardTimeoutError` — the same
        mark-dead-then-raise contract as the pipe transport, covering
        stuck *and* unreachable peers with one knob.  ``None`` (default)
        waits forever.
    shutdown_timeout:
        Bound on the graceful-close handshake; a wedged peer falls
        through to the abrupt sever after this many seconds.

    Connect and the ready handshake are bounded by
    :data:`~repro.streaming.transport.BOOT_TIMEOUT` instead: the remote
    build pays mechanism construction.
    """

    def __init__(
        self,
        spec: ShardSpec,
        address,
        request_timeout: float | None = None,
        shutdown_timeout: float = SHUTDOWN_TIMEOUT,
    ) -> None:
        self._init_mirror(spec, request_timeout, shutdown_timeout)
        self.address = ShardAddress.coerce(address)
        try:
            self._sock = socket.create_connection(
                (self.address.host, self.address.port), timeout=BOOT_TIMEOUT
            )
        except OSError as exc:
            raise ShardUnavailableError(
                f"shard {self.index}: no listener at {self.address}"
            ) from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._link = _SocketLink(self._sock)
        self._boot()
        # Steady state: the per-request deadline replaces the boot one
        # here, so the first request's send is bounded by it too.
        self._sock.settimeout(self.request_timeout)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def kill(self) -> None:
        """Sever the connection abruptly — the crash-injection path.

        No close command: the listener sees EOF mid-protocol, exactly
        what a parent crash looks like, and tears the remote shard down.
        Idempotent and safe to race with a concurrent failure detection:
        the socket handle is captured locally and double-close is a
        no-op.
        """
        self.alive = False
        sock = self._sock
        if sock is not None:
            self._sock = None
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover - defensive
                pass

    def shutdown(self) -> None:
        """Gracefully stop the remote shard (close command, bounded).

        Idempotent, and safe after :meth:`kill` or a detected failure.
        The close acknowledgement is bounded by ``shutdown_timeout`` —
        a wedged peer falls through to the abrupt sever.
        """
        self._close_handshake()
        self.kill()
