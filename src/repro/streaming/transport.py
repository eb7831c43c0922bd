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
  backends — the front-drawn shared ``Φ``), then routed data blocks as
  commands.
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

The command/response protocol itself (the ``(command, payload)`` →
``("ok" | "err", result)`` framing served by :func:`dispatch_command`) is
transport-agnostic: :mod:`repro.streaming.netserve` serves the same
commands over length-prefixed TCP frames, so shards can run on separate
hosts behind the same :class:`ShardRpcClient` surface.

Wire requirements: every message — the spawn payload included — crosses
the pipe as a typed frame of :mod:`repro.streaming.wire`
(``Connection.send_bytes``/``recv_bytes``; no message is pickled — the
``spawn`` start method hands the child only the encoded spec bytes and
its pipe end).  The spec's rngs travel as bit-generator name plus state,
``Φ`` as its kind plus its matrix, so a remote shard accepts only the two
built-in projections (:class:`~repro.sketching.gaussian.GaussianProjection`,
:class:`~repro.sketching.sparse_jl.SparseProjection`); the serving front
refuses any other when it is built.  Workers default to the ``"spawn"``
start method — fork-safety of a threaded parent (async mode, group pools)
is exactly the kind of thing this transport must not gamble on.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import (
    ShardTimeoutError,
    ShardUnavailableError,
    ValidationError,
)
from ..privacy.parameters import PrivacyParams
from ..privacy.tree import ReleasedMoments
from . import wire

__all__ = ["ProcessShardWorker", "ShardRpcClient", "ShardSpec", "dispatch_command"]

#: Default multiprocessing start method for shard workers.  ``"spawn"`` is
#: slower to boot but safe under threaded parents on every platform; pass
#: ``start_method="fork"`` to :class:`ProcessShardWorker` on POSIX when
#: boot latency matters more.
DEFAULT_START_METHOD = "spawn"

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
    and that backend's shard ``config`` — for the projected backends the
    front-drawn shared ``Φ`` itself, so every spawned worker (and any
    restart) re-attaches to the *same* ``Φ``.

    On the wire it is a typed frame (:mod:`repro.streaming.wire`): the
    budget as ``(ε, δ)``, each rng as its bit-generator name plus state,
    ``Φ`` as one of the two built-in projection kinds plus its matrix,
    the scalar config as typed values and the shard type by name.
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
    #: The shard class to build: ``None`` for
    #: :class:`~repro.streaming.serving.MomentShard`, or a subclass with the
    #: same constructor (the multi-tenant front ships ``TenantShard``).
    shard_type: type | None = None

    @property
    def projection(self):
        """The shared projection shipped in the config (or ``None``)."""
        return self.config.get("projection")

    def build(self):
        """Construct the shard worker this spec describes (child side)."""
        # Imported here, not at module top: the parent-side transport layer
        # must stay importable from the serving package without a cycle.
        from .serving.shards import MomentShard

        return (self.shard_type or MomentShard)(
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


def _safe_send(conn, message) -> bool:
    """Send a reply frame, degrading an unencodable one to an error reply.

    Returns ``False`` when not even the degraded error reply could be
    delivered (broken pipe, parent gone): the *fallback* send used to be
    unguarded, so a reply failure after the parent vanished raised out of
    the worker loop and killed the worker with a traceback instead of the
    clean daemonic exit every other parent-gone path takes.  Callers must
    treat ``False`` as "stop serving".
    """
    try:
        conn.send_bytes(wire.encode(message))
        return True
    except Exception as exc:
        try:
            conn.send_bytes(
                wire.encode(
                    (
                        "err",
                        ShardUnavailableError(
                            f"worker reply could not be serialized: {exc}"
                        ),
                    )
                )
            )
            return True
        except Exception:  # parent vanished mid-reply; exit cleanly
            return False


def _snapshot(handle):
    """A live mechanism's wire snapshot (``None`` stays ``None``: killed)."""
    return None if handle is None else handle.released_moments()


def dispatch_command(shard, command: str, payload):
    """Execute one worker command against a built shard; return the result.

    The single definition of the command protocol, shared by every
    transport that serves shards remotely — the ``multiprocessing`` pipe
    worker below and the TCP listener in
    :mod:`repro.streaming.netserve` — so a shard behaves identically
    behind a pipe and behind a socket.  ``close`` is *not* handled here:
    connection teardown belongs to the serving loop that owns the
    connection.

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
        elif action != "list":
            raise ValidationError(f"unknown tenant action {action!r}")
        return shard.tenants()
    if command == "statistic":
        # Diagnostics: the shard's own named view, so a remote ``cross`` /
        # ``gram`` resolves exactly as the in-process attribute does (a
        # tenant shard's ``cross`` is a tenant → statistic dict; the iv
        # bundle declares neither name).
        if payload not in ("cross", "gram"):
            raise ValidationError(f"unknown shard statistic {payload!r}")
        view = getattr(shard, payload)
        if isinstance(view, dict):
            return {name: _snapshot(handle) for name, handle in view.items()}
        return _snapshot(view)
    if command == "memory":
        return shard.memory_floats()
    if command == "ping":
        # The heartbeat probe: cheapest possible liveness round trip.  A
        # wedged worker cannot answer it, so a deadline on the ping is
        # what turns "stuck" into "dead" without waiting for real traffic.
        return shard.steps
    if command == "sleep":
        # Fault-injection hook for the hung-worker suites and the
        # heartbeat benchmark: wedges the worker mid-command for
        # ``payload`` seconds, exactly like a pathological BLAS call.
        time.sleep(float(payload))
        return None
    if command == "describe":
        projection = getattr(shard, "projection", None)
        return {
            "index": shard.index,
            "backend": shard.backend,
            "mechanism": shard.mechanism,
            "moment_dim": shard.moment_dim,
            "steps": shard.steps,
            "pid": mp.current_process().pid,
            "projection_matrix": (
                None
                if projection is None
                else np.array(projection.matrix, dtype=float)
            ),
        }
    raise ValidationError(f"unknown worker command {command!r}")


def _shard_worker_main(spec_frame: bytes, conn) -> None:
    """The worker process: build the shard, then serve pipe commands.

    Top-level (not a closure) so the ``"spawn"`` start method can import
    it.  ``spec_frame`` is the :mod:`~repro.streaming.wire` encoding of the
    :class:`ShardSpec`.  Protocol: the parent sends ``(command, payload)``
    frames and the worker replies ``("ok", result)`` or ``("err",
    exception)`` frames; command failures (and frames that do not decode)
    never kill the worker — the shard's block-atomic rejection semantics
    make a retry safe, exactly as in-process.  A reply that cannot be
    delivered at all ends the loop cleanly (the parent is gone or the
    pipe is broken — there is no one left to serve).
    """
    try:
        spec = wire.decode(spec_frame)
        if not isinstance(spec, ShardSpec):
            raise ValidationError(
                f"the boot frame must be a ShardSpec, got {type(spec).__name__}"
            )
        shard = spec.build()
    except BaseException as exc:
        _safe_send(conn, ("err", exc))
        conn.close()
        return
    if not _safe_send(conn, ("ok", spec.index)):  # ready handshake
        conn.close()
        return
    while True:
        try:
            frame = conn.recv_bytes()
        except (EOFError, OSError):
            return  # parent vanished; daemonic exit
        try:
            command, payload = wire.decode(frame)
            if command == "close":
                _safe_send(conn, ("ok", None))
                conn.close()
                return
            result = dispatch_command(shard, command, payload)
        except BaseException as exc:
            reply = ("err", exc)
        else:
            reply = ("ok", result)
        if not _safe_send(conn, reply):
            conn.close()
            return


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

    Subclasses own the wire — both speak :mod:`repro.streaming.wire`
    frames: :class:`ProcessShardWorker` (a ``multiprocessing`` pipe to a
    spawned process) and
    :class:`~repro.streaming.netserve.TcpShardWorker` (length-prefixed
    frames to a shard host listener) implement :meth:`_request` plus the
    lifecycle pair :meth:`kill` / :meth:`shutdown`; everything here is
    transport-independent post-processing of ``(status, result)`` replies.

    Not thread-safe on its own: the serving front serializes all wire
    access per worker (its ingestion lock, or one drain task per shard in
    group mode, with the heartbeat loop taking the same lock).
    """

    def _init_mirror(self, spec: ShardSpec, request_timeout: float | None) -> None:
        """Initialize the parent-side mirror fields (subclass constructors)."""
        if request_timeout is not None and not request_timeout > 0:
            raise ValidationError(
                f"request_timeout must be positive (seconds) or None, got "
                f"{request_timeout!r}"
            )
        self.spec = spec
        self.index = spec.index
        self.budget = spec.budget
        self.backend = spec.backend
        self.mechanism = spec.mechanism
        self.request_timeout = request_timeout
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
        self.steps = int(self._request("ingest", (xs, ys, bool(fast))))

    def released(self) -> tuple[ReleasedMoments, ...]:
        """The bundle's released moments, snapshotted over the wire.

        One round trip for all snapshots, in bundle order — (cross, gram)
        for the default backends, (zz, zx, zy) for the IV backend; each
        merges interchangeably with live mechanisms
        (:func:`~repro.privacy.tree.merge_released`).
        """
        return tuple(self._request("released", None))

    @property
    def cross(self):
        """Snapshot of the shard's ``cross`` statistic (diagnostics; one RPC).

        Resolved by name on the worker, so it matches the in-process
        shard's attribute: one release, or a tenant → release dict on a
        tenant shard.
        """
        return self._request("statistic", "cross")

    @property
    def gram(self):
        """Snapshot of the shard's ``gram`` statistic (diagnostics; one RPC)."""
        return self._request("statistic", "gram")

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

    def tenants(self) -> tuple[str, ...]:
        """Active tenant names on the worker, in slot order."""
        return tuple(self._request("tenant", ("list", None, None)))

    def memory_floats(self) -> int:
        """Floats held by the worker's mechanisms (0 once dead)."""
        if not self.alive:
            return 0
        return int(self._request("memory", None))

    def describe(self) -> dict:
        """Worker-side identity snapshot (backend, dims, pid, Φ matrix)."""
        return self._request("describe", None)

    def ping(self) -> int:
        """One liveness round trip (the heartbeat probe); returns worker steps.

        Subject to ``request_timeout`` like every RPC, so a wedged worker
        fails the ping within the deadline and is folded into the
        partial-coverage fault path — how the health-check loop detects
        stuck workers without waiting for real traffic.
        """
        return int(self._request("ping", None))

    def _request(self, command: str, payload):
        raise NotImplementedError

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
        The worker recipe (see :class:`ShardSpec`); shipped to the child
        as one encoded frame.
    start_method:
        ``multiprocessing`` start method; defaults to
        :data:`DEFAULT_START_METHOD` (``"spawn"``).
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
        start_method: str | None = None,
        request_timeout: float | None = None,
        shutdown_timeout: float = SHUTDOWN_TIMEOUT,
    ) -> None:
        self._init_mirror(spec, request_timeout)
        self.shutdown_timeout = float(shutdown_timeout)
        self._reap_lock = threading.Lock()
        # Encoded before any resource exists: a spec the wire refuses (a
        # custom projection) raises here and leaks nothing.
        spec_frame = wire.encode(spec)
        ctx = mp.get_context(start_method or DEFAULT_START_METHOD)
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=_shard_worker_main,
            args=(spec_frame, child_conn),
            name=f"repro-shard-{spec.index}",
            daemon=True,
        )
        try:
            self._process.start()
        except BaseException:
            # A start() failure must not leak the pipe fds.
            child_conn.close()
            self._reap()
            raise
        child_conn.close()
        # Ready handshake: surfaces child-side construction errors (bad
        # spec) eagerly, in the constructor.
        # Bounded by BOOT_TIMEOUT, not request_timeout: boot pays spawn
        # plus the numpy imports, so a steady-state deadline would
        # false-kill every worker at startup.
        # As in _request: ShardTimeoutError is an OSError, so its raise
        # must live outside the try that catches pipe failures.
        boot_timed_out = False
        try:
            if not self._conn.poll(BOOT_TIMEOUT):
                boot_timed_out = True
            else:
                frame = self._conn.recv_bytes()
        except (EOFError, OSError) as exc:
            self.kill()
            raise ShardUnavailableError(
                f"shard {self.index} worker process died during startup"
            ) from exc
        if boot_timed_out:
            self.kill()
            raise ShardTimeoutError(
                f"shard {self.index} worker did not complete the ready "
                f"handshake within {BOOT_TIMEOUT}s"
            )
        try:
            status, payload = wire.decode(frame)
        except ValidationError:
            self.kill()
            raise
        if status == "err":
            self._reap()
            raise payload
        self.alive = True

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
        through to a kill instead of hanging forever (the bug class this
        PR removes from every blocking path).
        """
        if self.alive:
            try:
                self._conn.send_bytes(wire.encode(("close", None)))
                # "ok" — worker is draining out.  poll() before recv():
                # a wedged worker never replies, and an unbounded recv
                # here is exactly the hang shutdown() must not have.
                if self._conn.poll(self.shutdown_timeout):
                    self._conn.recv_bytes()
            except (EOFError, OSError):
                pass
        process = self._process
        if process is not None:
            try:
                if process.is_alive():
                    process.join(timeout=self.shutdown_timeout)
                    if process.is_alive():  # wedged: fall through to kill
                        process.kill()
            except ValueError:  # pragma: no cover - concurrently reaped
                pass
        self._reap()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _request(self, command: str, payload):
        if not self.alive:
            raise ShardUnavailableError(
                f"shard {self.index} process worker is dead"
            )
        # The timeout raise lives OUTSIDE the try: ShardTimeoutError is a
        # TimeoutError is an OSError, so raising it inside would feed it
        # straight into the except clause below and launder the timeout
        # into a generic unavailability.
        # Encoded before the send: a request the wire refuses raises here
        # and leaves the worker alive and the pipe in step.
        request = wire.encode((command, payload))
        timed_out = False
        try:
            self._conn.send_bytes(request)
            if self.request_timeout is not None and not self._conn.poll(
                self.request_timeout
            ):
                timed_out = True
            else:
                frame = self._conn.recv_bytes()
        except (EOFError, OSError) as exc:
            # A broken pipe does not prove the worker exited: it may be
            # alive mid-command behind a closed parent end.  Kill before
            # reaping, as on the timeout path — dead-and-refunded is the
            # only safe state, and the reap must not wait on a live child.
            self.kill()
            raise ShardUnavailableError(
                f"shard {self.index} worker process died (command "
                f"{command!r}); merges degrade to partial coverage until "
                f"restart_shard({self.index})"
            ) from exc
        if timed_out:
            # Deadline missed: the worker is alive but stuck.  Kill it
            # *before* raising — if it were left running, its late reply
            # would still be queued in the pipe and would pair with the
            # *next* command's recv, silently corrupting the protocol.
            # Dead-and-refunded is the only safe state.
            self.kill()
            raise ShardTimeoutError(
                f"shard {self.index} worker missed the "
                f"{self.request_timeout}s deadline (command {command!r}); "
                f"worker killed, merges degrade to partial coverage until "
                f"restart_shard({self.index})"
            )
        status, result = wire.decode(frame)
        if status == "err":
            raise result
        return result

    def _reap(self) -> None:
        """Mark dead and release OS resources (join + close pipe).

        The join is bounded by ``shutdown_timeout``; callers that cannot
        prove the worker exited kill it first.

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
