"""The TCP shard transport: serving shard workers across host boundaries.

:mod:`repro.streaming.transport` established the command/response
protocol (picklable :class:`~repro.streaming.transport.ShardSpec` spawn
payloads down, :class:`~repro.privacy.tree.ReleasedMoments` snapshots
up, ``(command, payload)`` → ``("ok" | "err", result)`` framing) over a
``multiprocessing`` pipe.  This module serves the *same* protocol over
**length-prefixed pickled frames on a TCP socket**, so shards can run in
a different process on a different host:

* :class:`ShardHostListener` — the remote end.  Accepts connections,
  reads a :class:`~repro.streaming.transport.ShardSpec` as the first
  frame, builds the shard it describes (in a handler thread, or wrapped
  in a :class:`~repro.streaming.transport.ProcessShardWorker` subprocess
  for core-parallel isolation), and serves
  :func:`~repro.streaming.transport.dispatch_command` over the socket.
  One listener hosts many shards (one per connection) — run one per
  host, point ``ShardedStream(transport="tcp", addresses=[...])`` at
  the fleet.
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
worker builds its mechanisms from the same spawned rng children every
other transport ships, so they draw the same node-noise keys (``K = 1``
under ``ingest="exact"`` stays bit-identical to the plain batched path,
and thread ≡ process ≡ tcp merged releases under one seed —
``tests/test_tcp_serving.py``).  The wire carries the released statistic
(``O(m²)`` floats, ``float64`` pickles exactly), never tree state, and
everything the parent does with the snapshots is post-processing.

Fault semantics
---------------
Identical to the pipe transport, because the failure surface is the
same three cases: a **command-level error** pickles back as an
``("err", exc)`` frame and the shard keeps serving (block-atomic
rejection holds across the socket); a **dead peer** (connection reset,
listener host down) surfaces as
:class:`~repro.exceptions.ShardUnavailableError` on the next frame
exchange; a **stuck peer** misses the ``request_timeout`` deadline and
is folded into the dead-peer path via
:class:`~repro.exceptions.ShardTimeoutError`.  :meth:`TcpShardWorker.kill`
models a crash by severing the socket abruptly — the listener sees EOF
and tears the shard down (killing its subprocess under
``isolation="process"``), so an uncommanded parent death never leaks
remote shards.

Security note
-------------
Frames are **pickles**: unpickling attacker-controlled bytes is code
execution.  This transport is for trusted networks only (the same trust
model as ``multiprocessing.connection``) — bind listeners to loopback
or a private interface, never the open internet.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from dataclasses import dataclass

from ..exceptions import (
    ShardTimeoutError,
    ShardUnavailableError,
    ValidationError,
)
from .transport import (
    BOOT_TIMEOUT,
    SHUTDOWN_TIMEOUT,
    ProcessShardWorker,
    ShardRpcClient,
    ShardSpec,
    dispatch_command,
)

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
#: released snapshots — megabytes at most; a length beyond this means a
#: corrupt or hostile header, and refusing eagerly beats a doomed
#: multi-gigabyte allocation.
MAX_FRAME_BYTES = 8 << 30


def send_frame(sock: socket.socket, obj) -> None:
    """Pickle ``obj`` and write it as one length-prefixed frame."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise (``EOFError`` on clean close)."""
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
    """Read one length-prefixed frame and unpickle it.

    Raises ``EOFError`` on a clean peer close between frames,
    ``ConnectionResetError`` on a close mid-frame, ``socket.timeout``
    when the socket carries a deadline, and ``ValidationError`` on a
    header that fails the :data:`MAX_FRAME_BYTES` sanity cap.
    """
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise ValidationError(
            f"frame header claims {length} bytes (> {MAX_FRAME_BYTES}); "
            "corrupt stream or untrusted peer"
        )
    return pickle.loads(_recv_exact(sock, length))


def _safe_send_frame(sock: socket.socket, message) -> bool:
    """Frame-layer twin of transport._safe_send: degrade, never raise.

    Returns ``False`` when not even the degraded error reply could be
    delivered — the caller must treat that as "stop serving".
    """
    try:
        send_frame(sock, message)
        return True
    except Exception as exc:
        try:
            send_frame(
                sock,
                (
                    "err",
                    ShardUnavailableError(
                        f"shard reply could not be serialized: {exc}"
                    ),
                ),
            )
            return True
        except Exception:  # peer vanished mid-reply; stop serving
            return False


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

    Protocol per connection: the first frame is a pickled
    :class:`~repro.streaming.transport.ShardSpec`; the listener builds
    the shard and replies ``("ok", index)`` (the ready handshake — or
    ``("err", exc)`` if construction failed), then serves
    ``(command, payload)`` frames through
    :func:`~repro.streaming.transport.dispatch_command` until a
    ``"close"`` command or EOF.  EOF without a close is treated as a
    parent crash: the shard is torn down (its subprocess killed under
    ``isolation="process"``), so dead parents never leak remote shards.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` (default) picks a free port — read it
        back from :attr:`address`.  The loopback default is deliberate;
        see the module security note before binding wider.
    isolation:
        ``"thread"`` (default) builds each shard in its handler thread —
        cheap, but all shards on one listener share its GIL.
        ``"process"`` wraps each shard in a
        :class:`~repro.streaming.transport.ProcessShardWorker`
        subprocess, so shards on one host ingest on real cores — the
        configuration the cross-host scaling story needs.
    request_timeout:
        Deadline the ``isolation="process"`` wrapper applies to its own
        pipe RPCs (listener → local subprocess).  Usually left ``None``:
        the *client-side* deadline on :class:`TcpShardWorker` already
        bounds the full round trip end to end.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        isolation: str = "thread",
        request_timeout: float | None = None,
    ) -> None:
        if isolation not in ("thread", "process"):
            raise ValidationError(
                f"isolation must be 'thread' or 'process', got {isolation!r}"
            )
        self.isolation = isolation
        self.request_timeout = request_timeout
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
        """One connection = one shard: handshake, then the command loop."""
        worker = None  # ProcessShardWorker under isolation="process"
        shard = None
        try:
            try:
                spec = recv_frame(conn)
                if not isinstance(spec, ShardSpec):
                    raise ValidationError(
                        f"first frame must be a ShardSpec, got "
                        f"{type(spec).__name__}"
                    )
                if self.isolation == "process":
                    worker = ProcessShardWorker(
                        spec, request_timeout=self.request_timeout
                    )
                else:
                    shard = spec.build()
            except EOFError:
                return  # peer connected and left; nothing to serve
            except BaseException as exc:
                _safe_send_frame(conn, ("err", exc))
                return
            if not _safe_send_frame(conn, ("ok", spec.index)):  # ready
                return
            while True:
                try:
                    command, payload = recv_frame(conn)
                except (EOFError, OSError):
                    return  # parent vanished: tear down in finally
                if command == "close":
                    _safe_send_frame(conn, ("ok", None))
                    return
                try:
                    if worker is not None:
                        result = worker._request(command, payload)
                    else:
                        result = dispatch_command(shard, command, payload)
                except BaseException as exc:
                    reply = ("err", exc)
                else:
                    reply = ("ok", result)
                if not _safe_send_frame(conn, reply):
                    return
        finally:
            if worker is not None:
                # Graceful if the subprocess is healthy, kill otherwise —
                # shutdown() is bounded now, so this cannot hang the
                # handler thread on a wedged subprocess.
                try:
                    worker.shutdown()
                except Exception:  # pragma: no cover - defensive
                    worker.kill()
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
        return (
            f"ShardHostListener(address={self.address}, "
            f"isolation={self.isolation!r}, closed={self._closed})"
        )


class TcpShardWorker(ShardRpcClient):
    """Parent-side proxy for one shard served by a :class:`ShardHostListener`.

    See :class:`~repro.streaming.transport.ShardRpcClient` for the
    surface contract — this class only owns the socket wire.

    Parameters
    ----------
    spec:
        The picklable shard recipe; shipped as the first frame, built on
        the listener's side of the wire.
    address:
        Where the listener is (:class:`ShardAddress` or ``(host, port)``).
    request_timeout:
        Deadline in seconds on every round trip, enforced with the
        socket's own timeout.  A missed deadline severs the connection
        (the listener sees EOF and tears the remote shard down) and
        raises :class:`~repro.exceptions.ShardTimeoutError` — the same
        mark-dead-then-raise contract as the pipe transport, covering
        stuck *and* unreachable peers with one knob.  ``None`` (default)
        waits forever.
    boot_timeout:
        Deadline on connect plus the ready handshake (remote build pays
        mechanism construction, and subprocess spawn under
        ``isolation="process"``), distinct from the steady-state
        ``request_timeout`` for the same reason the pipe transport's
        :data:`~repro.streaming.transport.BOOT_TIMEOUT` is.
    """

    def __init__(
        self,
        spec: ShardSpec,
        address,
        request_timeout: float | None = None,
        boot_timeout: float = BOOT_TIMEOUT,
        shutdown_timeout: float = SHUTDOWN_TIMEOUT,
    ) -> None:
        self._init_mirror(spec, request_timeout)
        if not isinstance(address, ShardAddress):
            host, port = address
            address = ShardAddress(host=host, port=int(port))
        self.address = address
        self.shutdown_timeout = float(shutdown_timeout)
        try:
            self._sock = socket.create_connection(
                (address.host, address.port), timeout=boot_timeout
            )
        except OSError as exc:
            raise ShardUnavailableError(
                f"shard {self.index}: no listener at {address}"
            ) from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            send_frame(self._sock, spec)
            status, payload = recv_frame(self._sock)
        except socket.timeout as exc:
            self.kill()
            raise ShardTimeoutError(
                f"shard {self.index} listener at {address} did not complete "
                f"the ready handshake within {boot_timeout}s"
            ) from exc
        except (EOFError, OSError) as exc:
            self.kill()
            raise ShardUnavailableError(
                f"shard {self.index} listener at {address} dropped the "
                f"connection during startup"
            ) from exc
        if status == "err":
            self.kill()
            raise payload
        # Steady state: the per-request deadline replaces the boot one.
        self._sock.settimeout(request_timeout)
        self.alive = True

    # ------------------------------------------------------------------
    # Wire
    # ------------------------------------------------------------------

    def _request(self, command: str, payload):
        if not self.alive:
            raise ShardUnavailableError(
                f"shard {self.index} tcp worker is dead"
            )
        try:
            send_frame(self._sock, (command, payload))
            status, result = recv_frame(self._sock)
        except socket.timeout:
            # Must precede the OSError clause (socket.timeout subclasses
            # it).  Deadline missed: sever the connection before raising
            # so the late reply can never pair with a future request —
            # and so the listener sees EOF and reaps the remote shard.
            self.kill()
            raise ShardTimeoutError(
                f"shard {self.index} at {self.address} missed the "
                f"{self.request_timeout}s deadline (command {command!r}); "
                f"connection severed, merges degrade to partial coverage "
                f"until restart_shard({self.index})"
            ) from None
        except (EOFError, OSError) as exc:
            self.kill()
            raise ShardUnavailableError(
                f"shard {self.index} at {self.address} is unreachable "
                f"(command {command!r}); merges degrade to partial "
                f"coverage until restart_shard({self.index})"
            ) from exc
        if status == "err":
            raise result
        return result

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def kill(self) -> None:
        """Sever the connection abruptly — the crash-injection path.

        No close command: the listener sees EOF mid-protocol, exactly
        what a parent crash looks like, and tears the remote shard down
        (killing its subprocess under ``isolation="process"``).
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
        sock = self._sock
        if self.alive and sock is not None:
            try:
                sock.settimeout(self.shutdown_timeout)
                send_frame(sock, ("close", None))
                recv_frame(sock)  # "ok" — listener is tearing down
            except (EOFError, OSError, ValidationError):
                pass
        self.kill()
