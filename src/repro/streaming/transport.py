"""The process shard transport: serving workers in their own interpreters.

:class:`~repro.streaming.serving.ShardedStream` splits one logical stream
across ``K`` shard workers.  With the default in-process transport the
workers share the parent's interpreter, so ingest throughput is capped by
the GIL except where BLAS releases it.  This module provides the
alternative ``transport="process"`` backend: each shard's mechanisms live
in a **separate Python process**, driven over a ``multiprocessing``
command/response pipe, so shard ingestion runs on real cores.

What crosses the pipe — and what never does
-------------------------------------------
* **Down** (parent → worker): a one-time :class:`ShardSpec` (budget, rng
  children, mechanism/backend configuration, and — for the projected
  backends — the front-drawn shared ``Φ`` as its matrix), then routed
  data blocks and the front's other commands.
* **Up** (worker → parent): at refresh points, the shard's released
  moments as compact :class:`~repro.privacy.tree.ReleasedMoments`
  snapshots — the released statistic (``O(m)`` / ``O(m²)`` floats) with
  its variance accounting, **never** the tree state (``O(m² log T)``) and
  never raw data back.  This is the serialize-the-sketch-not-the-data
  pattern: the expensive object stays where it was built, only the
  additive release travels.

Why the privacy and serving analyses survive the boundary
---------------------------------------------------------
The merge rule (:func:`~repro.privacy.tree.merge_released`) consumes only
each shard's released sum, noise variance, step count, and shape — all
frozen losslessly into the snapshot (``float64`` crosses the wire as its
raw bytes), so a merge over pipe-shipped snapshots is bit-identical to a
merge over the live mechanisms.  Each worker builds its mechanisms from
the same spawned rng children the in-process transport would use, so
they draw the same
node-noise keys and release the same noise: under ``ingest="exact"`` a
``K = 1`` process server stays bit-identical to the plain batched path,
and thread and process servers under one seed produce identical merged
releases (``tests/test_process_serving.py``).  Privacy needs even less: each
shard's tree is a complete ``(ε, δ)`` mechanism on its own sub-stream,
and everything the parent does with the snapshots is post-processing.

Fault semantics
---------------
:meth:`ProcessShardWorker.kill` SIGKILLs the worker — deliberately
un-graceful, to model a crash.  A worker that dies *uncommanded* is
detected on the next pipe interaction: the parent marks the shard dead and
raises :class:`~repro.exceptions.ShardUnavailableError`; the serving front
then applies its documented partial-coverage semantics (the dead shard's
ingested mass is counted into ``lost_steps``, merges cover the survivors,
``restart_shard`` spawns a fresh process over a fresh disjoint sub-stream).
A worker that is *alive but stuck* (wedged in a huge BLAS call, poisoned
by a pathological command) is covered by the same fault model: every
parent→worker round trip carries an optional deadline
(``request_timeout``, enforced with ``conn.poll`` before the reply
``recv``), and a missed deadline kills the worker and raises
:class:`~repro.exceptions.ShardTimeoutError` — a
:class:`~repro.exceptions.ShardUnavailableError` subclass, so upstream a
stuck worker is indistinguishable from a crashed one and folds into the
identical partial-coverage accounting.  Command-level failures
(validation, horizon) are *not* faults: the worker catches them, ships
the exception back, and keeps serving — the tree's block-atomic
rejection guarantees hold unchanged across the pipe.

The command/response protocol itself (a :class:`ShardSpec` first frame
answered by ``("ok", index)``, then ``(command, payload)`` →
``("ok" | "err", result)`` replies to :func:`dispatch_command`) is
transport-agnostic and written once: :func:`_serve` runs it on the worker
side and :class:`ShardRpcClient`'s send and await halves
(:meth:`~ShardRpcClient._send`, :meth:`~ShardRpcClient._await`) on the
parent side, over a *link* — :class:`_PipeLink` here,
``netserve._SocketLink`` for the length-prefixed TCP frames of
:mod:`repro.streaming.netserve`, so shards can run on separate hosts
behind the same :class:`ShardRpcClient` surface.

Wire requirements: every message — the spec included — crosses the pipe
as a typed frame of :mod:`repro.streaming.wire`
(``Connection.send_bytes``/``recv_bytes``; no message is pickled — the
``spawn`` start method hands the child only its pipe end).  The spec's
rngs travel as bit-generator name plus state and its config is plain
data.  Workers use the ``"spawn"`` start method — fork-safety of a
threaded parent (async mode, group pools) is exactly the kind of thing
this transport must not gamble on.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import threading
from dataclasses import dataclass, field

import numpy as np

from .._validation import check_positive
from ..exceptions import (
    ShardTimeoutError,
    ShardUnavailableError,
    ValidationError,
)
from ..privacy.parameters import PrivacyParams
from ..privacy.tree import ReleasedMoments
from . import wire

__all__ = ["ProcessShardWorker", "ShardRpcClient", "ShardSpec", "dispatch_command"]

#: Deadline on the ready handshake (worker boot).  Distinct from (and far
#: above) any sensible ``request_timeout``: boot pays interpreter spawn
#: plus ``import repro`` (numpy and the library; scipy is imported on
#: first use only, never at boot), which on a loaded host can take
#: seconds — a per-command deadline tuned to steady-state RPCs would
#: false-kill every worker at startup.
BOOT_TIMEOUT = 120.0

#: Default bound on the graceful-close handshake.  ``shutdown()`` must
#: never hang on a worker wedged mid-command: after this many seconds the
#: close falls through to a kill.
SHUTDOWN_TIMEOUT = 5.0


@dataclass(frozen=True)
class ShardSpec:
    """Recipe for one shard worker (the spawn payload).

    The remote transports never ship a live mechanism: the worker
    *rebuilds* its :class:`~repro.streaming.serving.MomentShard` from this
    spec inside the child interpreter, consuming the shipped rng children
    exactly as the in-process transport would — which is what keeps the
    transports' noise streams identical.  The spec ships the backend
    *name* (statistic rules are closures and cannot travel; the worker
    looks the declaration up in :data:`~repro.streaming.backends.BACKENDS`)
    and that backend's shard ``config`` — plain data; for the projected
    backends the front-drawn shared ``Φ`` as its matrix, so every spawned
    worker (and any restart) applies the *same* ``Φ``.

    On the wire it is a typed frame (:mod:`repro.streaming.wire`): the
    budget as ``(ε, δ)``, each rng as its bit-generator name plus state,
    and the config as typed values.  A config naming ``tenants``
    (a :meth:`~repro.streaming.serving.TenantLayout.config`) builds a
    :class:`~repro.streaming.serving.TenantShard`.
    """

    index: int
    dim: int
    budget: PrivacyParams
    #: One child generator per bundle entry, in entry order.
    rngs: "tuple[np.random.Generator, ...]"
    backend: str = "moment"
    config: dict = field(default_factory=dict)
    mechanism: str = "tree"
    shard_horizon: int | None = None
    #: Non-stationarity knobs (mutually exclusive): forgetting factor
    #: ``γ ∈ (0, 1]`` or sliding window ``W``.
    decay: float | None = None
    window: "int | float | None" = None

    def build(self):
        """Construct the shard worker this spec describes (child side)."""
        # Imported here, not at module top: the parent-side transport layer
        # must stay importable from the serving package without a cycle.
        from .serving.shards import MomentShard, TenantShard

        shard_class = TenantShard if "tenants" in self.config else MomentShard
        return shard_class(
            self.index,
            self.dim,
            self.budget,
            self.rngs,
            backend=self.backend,
            config=self.config,
            mechanism=self.mechanism,
            shard_horizon=self.shard_horizon,
            decay=self.decay,
            window=self.window,
        )


class _PipeLink:
    """One end of a pipe shard connection: typed frames on a ``Connection``.

    :meth:`put` encodes and writes one message; :meth:`take` reads and
    decodes one, raising ``TimeoutError`` when ``timeout`` seconds pass
    first (``None`` waits forever) and ``EOFError``/``OSError`` when the
    peer is gone.  ``netserve._SocketLink`` is the same pair on a socket.
    """

    __slots__ = ("conn",)

    def __init__(self, conn) -> None:
        self.conn = conn

    def put(self, message) -> None:
        self.conn.send_bytes(wire.encode(message))

    def take(self, timeout: float | None = None):
        if timeout is not None and not self.conn.poll(timeout):
            raise TimeoutError
        return wire.decode(self.conn.recv_bytes())


def _reply(link, message) -> bool:
    """Send a reply, degrading an unencodable one to an error reply.

    Returns ``False`` when not even the degraded reply could be delivered
    (broken link, peer gone): the caller must stop serving.
    """
    try:
        link.put(message)
        return True
    except Exception as exc:
        try:
            link.put(
                (
                    "err",
                    ShardUnavailableError(
                        f"shard reply could not be serialized: {exc}"
                    ),
                )
            )
            return True
        except Exception:  # peer vanished mid-reply; stop serving
            return False


def dispatch_command(shard, command: str, payload):
    """Execute one worker command against a built shard; return the result.

    The single definition of the command protocol, shared by every
    transport that serves shards remotely — :func:`_serve` runs it for
    the ``multiprocessing`` pipe worker below and for the TCP listener in
    :mod:`repro.streaming.netserve` — so a shard behaves identically
    behind a pipe and behind a socket.  It answers exactly the commands
    :class:`ShardRpcClient` sends; ``close`` is *not* handled here:
    connection teardown belongs to the serving loop.

    Raising is the error path: the loop ships the exception back as an
    ``("err", exc)`` reply and keeps serving (command failures are not
    faults).
    """
    if command == "ingest":
        xs, ys, fast = payload
        shard.ingest(xs, ys, fast)
        return shard.steps
    if command == "released":
        # Snapshots, never the live mechanisms: the wire carries the
        # released statistics (O(m)/O(m²)), not the trees (O(m² log T)
        # plus generator state) — one per bundle entry, in bundle order.
        return tuple(handle.released_moments() for handle in shard.released())
    if command == "tenant":
        action, name, extra = payload
        if action == "add":
            rng, decay = extra
            shard.add_tenant(name, rng, decay=decay)
        elif action == "remove":
            shard.remove_tenant(name)
        else:
            raise ValidationError(f"unknown tenant action {action!r}")
        return None
    if command == "memory":
        return shard.memory_floats()
    if command == "ping":
        # The heartbeat probe: cheapest possible liveness round trip.  A
        # wedged worker cannot answer it, so a deadline on the ping is
        # what turns "stuck" into "dead" without waiting for real traffic.
        return shard.steps
    raise ValidationError(f"unknown worker command {command!r}")


def _serve(link, host) -> None:
    """Serve one shard connection on either link: boot, then commands.

    The first frame must be a :class:`ShardSpec`; ``host(spec)`` builds
    the shard and returns its command handler, ``handler(command,
    payload) -> result``.  The ready reply is ``("ok", spec.index)``, or
    ``("err", exc)`` when the spec is refused or the build fails.  Each
    ``(command, payload)`` frame then gets one ``("ok", result)`` or
    ``("err", exc)`` reply; a failed command is not a fault (the shard's
    block-atomic rejection makes a retry safe), so the loop keeps
    serving.  The loop ends after ``close`` (answered ``("ok", None)``),
    on EOF, on a reply that cannot be delivered, and on a frame that does
    not decode: that one is refused with an ``err`` reply and the link is
    hung up, since after a bad frame the stream may be out of step.
    """
    try:
        try:
            spec = link.take()
        except (EOFError, OSError):
            return  # the peer connected and left
        if not isinstance(spec, ShardSpec):
            raise ValidationError(
                f"the first frame must be a ShardSpec, got {type(spec).__name__}"
            )
        handler = host(spec)
    except BaseException as exc:
        _reply(link, ("err", exc))
        return
    if not _reply(link, ("ok", spec.index)):
        return
    while True:
        try:
            message = link.take()
        except (EOFError, OSError):
            return  # peer vanished; the caller tears the shard down
        except ValidationError as exc:
            _reply(link, ("err", exc))
            return
        try:
            command, payload = message
            if command == "close":
                _reply(link, ("ok", None))
                return
            reply = ("ok", handler(command, payload))
        except BaseException as exc:
            reply = ("err", exc)
        if not _reply(link, reply):
            return


def _build_handler(spec: ShardSpec):
    """Build ``spec``'s shard in this process; return its command handler."""
    return functools.partial(dispatch_command, spec.build())


def _shard_worker_main(conn) -> None:
    """The worker process: serve one shard on its pipe end, then exit.

    Top-level (not a closure) so the ``"spawn"`` start method can import
    it; the spec arrives as the first frame, as on a tcp connection.
    """
    try:
        _serve(_PipeLink(conn), _build_handler)
    finally:
        conn.close()


class ShardRpcClient:
    """The parent-side shard proxy surface, over any command transport.

    Exposes the same surface the serving front uses on an in-process
    :class:`~repro.streaming.serving.MomentShard` — ``index`` / ``alive``
    / ``steps`` / ``budget`` attributes, :meth:`ingest`,
    :meth:`released`, :meth:`memory_floats`, :meth:`kill`,
    :meth:`shutdown` — so :class:`~repro.streaming.serving.ShardedStream`
    treats every transport uniformly.  ``steps`` is a parent-side mirror
    updated from ingest acknowledgements, which is what keeps the
    lost-mass accounting exact even after the worker is gone.

    Every frame, the ready handshake included, goes out through
    :meth:`_send` and every reply comes back through :meth:`_await` on the
    subclass's ``_link``, so the fault rules live here once.  Subclasses
    own only the link's lifecycle — spawn or connect in the constructor,
    :meth:`kill`, :meth:`shutdown`: :class:`ProcessShardWorker` (a
    ``multiprocessing`` pipe to a spawned process) and
    :class:`~repro.streaming.netserve.TcpShardWorker` (length-prefixed
    frames to a shard host listener).

    Not thread-safe on its own: the serving front drives all wire access
    from under its ingestion lock, which the heartbeat loop takes too.  A
    link holds at most one un-acknowledged frame: group ingestion calls
    :meth:`send_ingest` on several workers from one thread and then
    :meth:`await_ingest` on each in turn, and every other request is a
    send-then-await round trip.
    """

    def _init_mirror(
        self, spec: ShardSpec, request_timeout: float | None, shutdown_timeout: float
    ) -> None:
        """Initialize the parent-side mirror fields (subclass constructors)."""
        self.request_timeout = (
            None
            if request_timeout is None
            else check_positive("request_timeout", request_timeout)
        )
        self.shutdown_timeout = float(shutdown_timeout)
        self.spec = spec
        self.index = spec.index
        self.budget = spec.budget
        self.backend = spec.backend
        self.mechanism = spec.mechanism
        self.steps = 0
        self.alive = False
        # Set by the serving front once this worker's mass is credited to
        # lost_steps (same flag as the in-process MomentShard).
        self.lost_accounted = False

    # ------------------------------------------------------------------
    # The MomentShard surface
    # ------------------------------------------------------------------

    def ingest(self, xs: np.ndarray, ys: np.ndarray, fast: bool) -> None:
        """Route one block over the wire; blocks until acknowledged.

        Failure semantics match the in-process shard: a command-level
        error (validation, horizon) leaves the worker's trees unconsumed
        and the worker alive, so a retry is safe; a *dead or stuck*
        worker raises
        :class:`~repro.exceptions.ShardUnavailableError` after marking
        the shard dead (partial-coverage accounting upstream).
        """
        self.send_ingest(xs, ys, fast)
        self.await_ingest()

    def send_ingest(self, xs: np.ndarray, ys: np.ndarray, fast: bool) -> None:
        """The send half of :meth:`ingest`: put one block on the link.

        The block is un-acknowledged until :meth:`await_ingest` reads its
        reply, and no other request may go out on this link before that:
        the serving front's group drain sends one block to each of
        several shards this way, then awaits each ack in turn.  A dead
        or broken link raises as :meth:`ingest` would.
        """
        self._post("ingest", (xs, ys, bool(fast)))

    def await_ingest(self) -> None:
        """The await half of :meth:`ingest`: read the sent block's ack.

        Under ``request_timeout``, with :meth:`ingest`'s failure
        semantics: an error reply raises with the worker alive, a missed
        deadline or a lost peer stops the worker before raising.
        """
        self.steps = int(self._await(self.request_timeout, "ingest"))

    def released(self) -> tuple[ReleasedMoments, ...]:
        """The bundle's released moments, snapshotted over the wire.

        One round trip for all snapshots, in bundle order — (cross, gram)
        for the default backends, (zz, zx, zy) for the IV backend; each
        merges interchangeably with live mechanisms
        (:func:`~repro.privacy.tree.merge_released`).
        """
        return tuple(self._request("released", None))

    def add_tenant(
        self,
        name: str,
        rng: np.random.Generator,
        decay: float | None = None,
    ) -> None:
        """Attach a tenant cross tree on the worker (tenant backend only).

        The generator crosses the wire as its bit-generator name plus
        state (:mod:`repro.streaming.wire`), so the worker-side tree
        consumes exactly the stream this generator would produce locally —
        the same bit-identity contract as initial construction.  ``decay``
        assigns the tenant to one of the shard's declared γ groups.
        """
        self._request("tenant", ("add", name, (rng, decay)))

    def remove_tenant(self, name: str) -> None:
        """Drop a tenant's cross tree on the worker (tenant backend only)."""
        self._request("tenant", ("remove", name, None))

    def memory_floats(self) -> int:
        """Floats held by the worker's mechanisms (0 once dead)."""
        if not self.alive:
            return 0
        return int(self._request("memory", None))

    def ping(self) -> int:
        """One liveness round trip (the heartbeat probe); returns worker steps.

        Subject to ``request_timeout`` like every RPC, so a wedged worker
        fails the ping within the deadline and is folded into the
        partial-coverage fault path — how the health-check loop detects
        stuck workers without waiting for real traffic.
        """
        return int(self._request("ping", None))

    # ------------------------------------------------------------------
    # The protocol, parent side
    # ------------------------------------------------------------------

    def _send(self, message, timeout: float | None, what: str) -> None:
        """Put one frame on the link; a broken link is :meth:`_lost`.

        ``what`` names the frame in error messages (the command, or
        ``"boot"``).
        """
        try:
            self._link.put(message)
        except (EOFError, OSError) as exc:
            self._lost(exc, timeout, what)

    def _await(self, timeout: float | None, what: str):
        """Read the reply to the frame last sent; returns the ``ok`` result.

        A reply that misses ``timeout`` or a peer that is gone is
        :meth:`_lost`.  An ``("err", exc)`` reply raises ``exc`` with the
        worker left alive: command failures are not faults.
        """
        try:
            status, result = self._link.take(timeout)
        except (EOFError, OSError) as exc:
            self._lost(exc, timeout, what)
        if status == "err":
            raise result
        return result

    def _lost(self, exc: BaseException, timeout: float | None, what: str):
        """Stop the worker, then raise the fault that ``exc`` stands for.

        ``TimeoutError`` (a frame or its reply missed ``timeout``) raises
        :class:`~repro.exceptions.ShardTimeoutError`: left running, a
        stuck worker's late reply would pair with the next request.
        ``EOFError``/``OSError`` (the peer is gone, or a broken link to a
        worker that may still be alive) raises
        :class:`~repro.exceptions.ShardUnavailableError` — dead-and-refunded
        is the only safe state.
        """
        self.kill()
        if isinstance(exc, TimeoutError):
            raise ShardTimeoutError(
                f"shard {self.index} missed the {timeout}s deadline on "
                f"{what!r} and was stopped"
            ) from None
        raise ShardUnavailableError(
            f"shard {self.index} is unreachable on {what!r} and was stopped"
        ) from exc

    def _boot(self) -> None:
        """The ready handshake: ship the spec, await ``("ok", index)``.

        Bounded by :data:`BOOT_TIMEOUT`, not ``request_timeout``: boot pays
        the remote build (and, for a spawned worker, interpreter start plus
        ``import repro``), so a steady-state deadline would false-kill every
        worker at startup.  Any failure — a refused spec, a failed build,
        a dead or silent peer — stops the worker and raises.
        """
        try:
            self._send(self.spec, BOOT_TIMEOUT, "boot")
            self._await(BOOT_TIMEOUT, "boot")
        except BaseException:
            self.kill()
            raise
        self.alive = True

    def _request(self, command: str, payload):
        """One command round trip under ``request_timeout``."""
        self._post(command, payload)
        return self._await(self.request_timeout, command)

    def _post(self, command: str, payload) -> None:
        """Send one command frame to a live worker (no reply read)."""
        if not self.alive:
            raise ShardUnavailableError(f"shard {self.index} worker is dead")
        self._send((command, payload), self.request_timeout, command)

    def _close_handshake(self) -> None:
        """The graceful close handshake, bounded by ``shutdown_timeout``.

        Never raises: a wedged worker cannot answer, and :meth:`shutdown`
        falls through to a kill after the deadline instead of hanging.
        """
        if self.alive:
            try:
                self._link.put(("close", None))
                self._link.take(self.shutdown_timeout)  # "ok": tearing down
            except (EOFError, OSError, ValidationError):
                pass

    def kill(self) -> None:
        raise NotImplementedError

    def shutdown(self) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(index={self.index}, "
            f"backend={self.backend!r}, alive={self.alive}, "
            f"steps={self.steps})"
        )


class ProcessShardWorker(ShardRpcClient):
    """One shard worker running in its own process, driven over a pipe.

    See :class:`ShardRpcClient` for the surface contract.

    Parameters
    ----------
    spec:
        The worker recipe (see :class:`ShardSpec`); shipped to the spawned
        child as the first frame on its pipe.
    request_timeout:
        Deadline in seconds on every parent→worker round trip, enforced
        with ``conn.poll(timeout)`` before the reply ``recv``.  A missed
        deadline means the worker is alive-but-stuck — it is killed on
        the spot (a late reply must never pair with a future request) and
        :class:`~repro.exceptions.ShardTimeoutError` is raised, folding
        the stuck worker into the crashed-worker partial-coverage path.
        ``None`` (default) keeps the legacy unbounded waits.
    shutdown_timeout:
        Bound on the graceful-close handshake and the exit join; a worker
        wedged mid-command falls through to a kill after this many
        seconds instead of hanging ``shutdown()`` (and with it ``close``)
        forever.
    """

    def __init__(
        self,
        spec: ShardSpec,
        request_timeout: float | None = None,
        shutdown_timeout: float = SHUTDOWN_TIMEOUT,
    ) -> None:
        self._init_mirror(spec, request_timeout, shutdown_timeout)
        self._reap_lock = threading.Lock()
        ctx = mp.get_context("spawn")
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._link = _PipeLink(self._conn)
        self._process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn,),
            name=f"repro-shard-{spec.index}",
            daemon=True,
        )
        try:
            self._process.start()
        except BaseException:
            self._reap()  # a start() failure must not leak the pipe fds
            raise
        finally:
            child_conn.close()
        self._boot()

    def kill(self) -> None:
        """SIGKILL the worker — the crash-injection path.

        Deliberately un-graceful (no close command): models a worker
        death, so the parent-side books (``steps``) are all that remains,
        exactly as after a real crash.  Idempotent, and race-safe against
        a concurrent crash detection reaping the handle: the handle is
        captured locally and ``is_alive`` on an already-closed handle
        (``ValueError``) means someone else finished the job.
        """
        process = self._process
        if process is not None:
            try:
                if process.is_alive():
                    process.kill()
            except ValueError:  # handle closed under us; already reaped
                pass
        self._reap()

    def shutdown(self) -> None:
        """Gracefully stop the worker (close command, bounded join, reap).

        Idempotent, and safe after :meth:`kill` or a detected crash.  The
        close handshake and the exit join are both bounded by
        ``shutdown_timeout``: a worker wedged mid-command cannot answer
        the close command, so after the deadline the shutdown falls
        through to a kill instead of hanging forever.
        """
        self._close_handshake()
        self._reap()  # bounded join: a worker that said "ok" exits
        self.kill()  # wedged past the join (a no-op once reaped)

    def _reap(self) -> None:
        """Mark dead and release OS resources (join + close pipe).

        The join is bounded by ``shutdown_timeout``; a worker still
        running after it keeps its handle for a following :meth:`kill`.

        Idempotent, and race-safe when a crash detection and an explicit
        ``kill()`` reap concurrently: the whole handle teardown is
        serialized under ``_reap_lock`` because
        ``multiprocessing.Process.close()`` itself is not thread-safe —
        two unsynchronized closers can both pass its popen check and the
        loser dies on ``del self._sentinel`` (AttributeError).  The
        remaining hazard is a handle closed by a path that does not take
        the lock (``ValueError`` from ``is_alive``), treated as already
        reaped; the AttributeError guard stays as a backstop for that
        same unlocked-closer interleaving inside ``close()``."""
        self.alive = False
        with self._reap_lock:
            process = self._process
            if process is not None:
                try:
                    if process.is_alive():
                        process.join(timeout=self.shutdown_timeout)
                    if not process.is_alive():
                        process.close()
                        self._process = None
                except (
                    ValueError,
                    AttributeError,
                ):  # pragma: no cover - concurrently closed
                    self._process = None
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
