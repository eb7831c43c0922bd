"""The serving fronts: one shard lifecycle, and the ShardedStream front on it."""

from __future__ import annotations

import math
import queue
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from ..._validation import (
    check_int,
    check_positive,
    check_release_knobs,
    check_rng,
    check_sequence,
    check_vector,
    check_xy_block,
)
from ...core.incremental_regression import adopt_lockstep, lockstep_plan, solve_lockstep
from ...exceptions import (
    GroupIngestionError,
    ServingError,
    ShardUnavailableError,
    StreamExhaustedError,
    ValidationError,
)
from ...geometry.base import ConvexSet, PointSet
from ...privacy.accountant import PrivacyAccountant
from ...privacy.chunked import one_chunk
from ...privacy.parameters import PrivacyParams, bundle_budgets, shard_budgets
from ...privacy.tree import MergedRelease, merge_released
from ..backends import BACKEND_KNOBS, backend_declaration
from ..netserve import ShardAddress, ShardHostListener, TcpShardWorker
from ..transport import ProcessShardWorker, ShardSpec
from ..readers import EstimateHub, HubReads
from .shards import BundleLayout

__all__ = ["KNOB_VALUES", "ShardFront", "ShardedStream", "_CLOSE"]

_CLOSE = object()  # queue sentinel

#: The enumerated knobs of both fronts and their allowed values, the
#: public default first; every other knob rule is one ``if`` in
#: :class:`ShardFront`.
KNOB_VALUES = {
    "ingest": ("exact", "fast"),
    "mechanism": ("tree", "hybrid"),
    "mode": ("sync", "async", "manual"),
    "transport": ("thread", "process", "tcp"),
    "restart_policy": ("never", "auto"),
    "fidelity": ("fast", "paper"),
}


class _Model(NamedTuple):
    """One served model: its solver, its hub, and the merged entries it reads.

    ``reads`` maps the solver's statistic names to bundle entry names, in
    bundle order; the first entry's coverage sizes the solve.
    """

    solver: object
    hub: EstimateHub
    reads: dict


class ShardFront:
    """The shard lifecycle every serving front shares.

    Knob validation for the lifecycle knobs, transport and listener
    set-up, shard construction through a
    :class:`~repro.streaming.transport.ShardSpec` (built in-process, in a
    spawned interpreter, or behind a tcp listener), routing, horizon
    reservation, the sync/async/manual ingestion queue, group ingestion,
    refresh cadence, heartbeats and auto-restart, kill/restart, close, and
    the ``lost_steps`` / ``blocks_routed`` / ``blocks_refunded`` books.

    It also owns the bundle: the backend declaration's ``configure`` gives
    the shard config, and one :class:`~repro.streaming.serving.BundleLayout`
    over the declaration and the knobs gives the entry names
    (:attr:`bundle_names`), each shard's per-entry noise keys, and the served
    models.  One merge-and-solve path (:meth:`_solve`) then merges every
    bundle entry once by name, solves every served model — a solver (the
    ``solver`` knob, or the backend's default), its
    :class:`~repro.streaming.readers.EstimateHub`, and the entry names it
    reads; models sharing a Gram solve as one lockstep PGD — and then
    publishes them in registration order.  :class:`ShardedStream` serves one
    anonymous outcome, one model over its whole bundle; a multi-tenant
    front serves one model per tenant, each reading its own
    ``cross:{name}`` entry and its γ group's shared ``gram:{γ}`` entry.

    Knobs arrive as one mapping, ``knobs``: a public constructor hands
    over its own arguments by name (``dict(locals())`` on entry), so a
    lifecycle knob is written in the public signatures and in one rule
    here — an enumerated knob is one row of :data:`KNOB_VALUES`, checked
    in one loop, and a cross-knob rule is one ``if`` in ``__init__``.
    The front reads the knobs it owns (the backend's and the tenants'
    knobs through the declaration and the layout).  A front without
    ``backend``, ``decay``, ``window`` or ``solver`` knobs (the tenant
    front) serves the class defaults below: the moment backend's plain
    release with its default solver.  A front subclass declares only what
    it serves, through these hooks:

    * ``_charge_ledger()`` — the budget ledger and its labels;
    * ``_validate_block(xs, ys)`` — shape and unit-domain checks of a
      block (run under the ingestion lock, so a block is validated against
      the state it is ingested under);
    * ``_cached()`` / ``_served()`` — what ``observe_batch`` / ``flush``
      return.

    See :class:`ShardedStream` for the lifecycle knobs' semantics.
    """

    backend = "moment"
    decay = None
    window = None
    solver = None

    def __init__(
        self, constraint: ConvexSet, params: PrivacyParams, shards: int, knobs: dict
    ) -> None:
        for knob, allowed in KNOB_VALUES.items():
            if knobs[knob] not in allowed:
                raise ValidationError(
                    f"{knob} must be one of {', '.join(map(repr, allowed))}, "
                    f"got {knobs[knob]!r}"
                )
            setattr(self, knob, knobs[knob])
        self.request_timeout = knobs["request_timeout"]
        if self.request_timeout is not None:
            if self.transport == "thread":
                raise ValidationError(
                    "request_timeout needs a wire to deadline "
                    "(transport='process' or 'tcp'); in-process shard "
                    "calls are plain method calls"
                )
            self.request_timeout = check_positive("request_timeout", self.request_timeout)
        self.addresses = knobs["addresses"]
        if self.addresses is not None:
            if self.transport != "tcp":
                raise ValidationError("addresses only applies to transport='tcp'")
            addresses = check_sequence("addresses", self.addresses, empty=False)
            self.addresses = tuple(map(ShardAddress.coerce, addresses))
        self.heartbeat_every = knobs["heartbeat_every"]
        if self.heartbeat_every is not None:
            self.heartbeat_every = check_positive("heartbeat_every", self.heartbeat_every)
        if self.restart_policy == "auto" and self.heartbeat_every is None:
            raise ValidationError(
                "restart_policy='auto' is driven by the health-check loop; "
                "set heartbeat_every"
            )
        horizon = knobs["horizon"]
        if self.mechanism == "tree" and horizon is None:
            raise ValidationError(
                "mechanism='tree' needs a horizon (use mechanism='hybrid' "
                "for horizon-free serving)"
            )
        self._router = router = knobs["router"]
        if router != "round_robin" and not callable(router):
            raise ValidationError(
                f"router must be 'round_robin' or a callable, got {router!r}"
            )
        self.composition = knobs["composition"]
        if callable(router) and self.composition == "parallel":
            # A data-dependent router breaks the disjointness argument the
            # full-budget parallel mode relies on: a neighboring stream can
            # re-route a block, changing TWO shards' transcripts.  The
            # library cannot verify a callable is data-independent, so it
            # refuses the unsound combination rather than under-reporting
            # the privacy loss.
            raise ValidationError(
                "a callable router cannot be certified disjoint under "
                "neighboring streams; use composition='basic' (per-shard "
                "(ε/K, δ/K)) with custom routing"
            )
        shard_horizon = knobs["shard_horizon"]
        if shard_horizon is not None and self.mechanism != "tree":
            raise ValidationError(
                "shard_horizon only applies to mechanism='tree' (hybrid "
                "shards are horizon-free)"
            )
        self.constraint = constraint
        self.params = params
        self.dim = constraint.dim
        self.shards_count = check_int("shards", shards, minimum=1)
        self.horizon = (
            None if horizon is None else check_int("horizon", horizon, minimum=1)
        )
        refresh_every = knobs["refresh_every"]
        self.refresh_every = (
            None
            if refresh_every is None
            else check_int("refresh_every", refresh_every, minimum=1)
        )
        if self.mechanism != "tree":
            self.shard_horizon = None
        elif shard_horizon is None:
            self.shard_horizon = self.horizon
        else:
            self.shard_horizon = check_int("shard_horizon", shard_horizon, minimum=1)
        self._rng = check_rng(knobs["rng"])
        self._fast = self.ingest == "fast"

        # The backend (a projected one draws its shared Φ from the front
        # rng first) and the bundle layout over its statistics.
        self._declaration = declaration = backend_declaration(self.backend)
        self.projection = None  # a projected backend's configure sets Φ
        self.config = declaration.configure(self.backend, self, knobs)
        self._layout = BundleLayout(declaration, self.dim, self.config, params, knobs)
        # Width of an ingested block row (the stacked [z | x] width for iv).
        self._block_dim = declaration.block_width(self.dim, self.config)
        # One independent child generator per declared statistic per shard
        # — shard i consumes the contiguous slice [n·i, n·(i+1)).  For the
        # default (cross, gram) pair this is the historical spawn(2K) with
        # children 2i/2i+1, byte-for-byte.
        self._entries = len(self._layout.statistics)
        budgets = shard_budgets(params, self.shards_count, self.composition)
        # transport="tcp" with no addresses: boot a private loopback
        # listener owned (and closed) by this front — single-host tcp
        # with zero setup.  Explicit addresses mean the listeners are
        # someone else's lifecycle (other hosts); we only connect.
        self._listener: ShardHostListener | None = None
        self._owns_listener = self.transport == "tcp" and self.addresses is None
        if self._owns_listener:
            self._listener = ShardHostListener()
            self.addresses = (self._listener.address,)
        children = self._rng.spawn(self._entries * self.shards_count)
        n = self._entries
        self._shards: list = []
        self._models: dict = {}
        self._solver_knobs = (knobs["beta"], knobs["fidelity"], knobs["iteration_cap"])
        try:
            for i in range(self.shards_count):
                self._shards.append(
                    self._make_shard(i, budgets[i], children[n * i : n * (i + 1)])
                )
            # The logical budget ledger: within `params`, one labelled
            # charge per privatized statistic.
            self.accountant = PrivacyAccountant(params, mode="basic")
            self._charge_ledger()
            # The solvers spawn their rng children after the shards' (a
            # reordering would move every key).
            for key in self._layout.models():
                self._attach(key)
        except BaseException:
            # A failed shard (e.g. a worker that fails to boot), ledger or
            # solver must not leak the workers already booted, nor the
            # self-hosted tcp listener.
            for shard in self._shards:
                shard.shutdown()
            if self._owns_listener:
                self._listener.close()
            raise

        self._lock = threading.RLock()
        self._queue: queue.Queue = queue.Queue()
        self._processed = 0  # logical t: points fully ingested by shards
        self._enqueued = 0  # points accepted at the API boundary
        self._blocks_routed = 0
        self._blocks_refunded = 0
        self._next_shard = 0
        self._last_refresh_t = 0
        self.lost_steps = 0
        self._error: BaseException | None = None
        self._closed = False
        # close() must be serialized on its own lock: it blocks on the
        # queue drain, and the ingestion lock is exactly what the worker
        # needs to finish that drain.
        self._close_lock = threading.Lock()
        self._group_executor: ThreadPoolExecutor | None = None
        self._worker: threading.Thread | None = None
        if self.mode == "async":
            self._worker = threading.Thread(
                target=self._worker_loop, name="sharded-stream-worker", daemon=True
            )
            self._worker.start()
        # The health-check loop: detects dead/stuck shards between RPCs.
        # Started last so a constructor failure never leaks it.
        self._heartbeat = {
            "pings": 0,
            "deaths_detected": 0,
            "restarts": 0,
            "errors": 0,
        }
        self._heartbeat_stop = threading.Event()
        self._heartbeat_thread: threading.Thread | None = None
        if self.heartbeat_every is not None:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                name="sharded-stream-heartbeat",
                daemon=True,
            )
            self._heartbeat_thread.start()

    def _make_shard(self, index: int, budget: PrivacyParams, children):
        """Construct one shard worker on the configured transport.

        ``children`` holds one rng child per declared statistic; the spec
        carries the entries' keys drawn from them
        (:meth:`~repro.streaming.serving.BundleLayout.keys`), never a
        generator.  Every transport builds from the same
        :class:`~repro.streaming.transport.ShardSpec` — in-process
        (``spec.build()``), in a spawned interpreter
        (:class:`~repro.streaming.transport.ProcessShardWorker`), or behind
        the listener at ``addresses[index % len(addresses)]``
        (:class:`~repro.streaming.netserve.TcpShardWorker`) — so every
        transport builds byte-for-byte the same mechanisms.
        """
        spec = ShardSpec(
            index=index,
            dim=self.dim,
            budget=budget,
            keys=self._layout.keys(children),
            backend=self.backend,
            config={**self.config, **self._layout.config()},
            mechanism=self.mechanism,
            shard_horizon=self.shard_horizon,
            decay=self.decay,
            window=self.window,
        )
        if self.transport == "tcp":
            return TcpShardWorker(
                spec,
                self.addresses[index % len(self.addresses)],
                request_timeout=self.request_timeout,
            )
        if self.transport == "process":
            return ProcessShardWorker(spec, request_timeout=self.request_timeout)
        return spec.build()

    def _group_pool(self) -> ThreadPoolExecutor:
        """The persistent group-ingestion thread pool (lazily created).

        Only in-process shards use it, and only when a group is drained
        more than one shard wide: there the threads overlap the
        GIL-released BLAS of different shards on real cores.  Remote
        shards are driven from the calling thread (a pool thread would
        only wait on a socket), so a remote-only front never creates it.
        One pool per front, reused across :meth:`observe_group` calls, so
        per-group overhead is task dispatch only — creating threads per
        group would dominate small blocks.  Sized at ``K``: there is never
        more than one task per shard queue in flight.
        """
        if self._group_executor is None:
            self._group_executor = ThreadPoolExecutor(
                max_workers=self.shards_count, thread_name_prefix="shard-group"
            )
        return self._group_executor

    # ------------------------------------------------------------------
    # Ingestion API
    # ------------------------------------------------------------------

    def observe_batch(self, xs: np.ndarray, ys: np.ndarray):
        """Ingest a block of consecutive points; return the cached estimate.

        The block is validated and accepted (or rejected) atomically at
        the API boundary, then routed whole to one shard.  ``mode="sync"``
        processes inline; otherwise the block is enqueued FIFO and this
        returns without touching the shard mechanisms or the solver.
        """
        # Validate and reserve capacity under the lock: concurrent
        # producers must not both pass the horizon check (the noise
        # calibration is for T elements, so overshooting it would be a
        # privacy violation, not a bookkeeping one).
        with self._lock:
            self._raise_if_unusable()
            xs, ys = self._validate_block(xs, ys)
            k = xs.shape[0]
            self._reserve(k, "a block")
            if self.mode == "sync":
                self._process_block(xs, ys)
            else:
                # Enqueue private copies: check_xy_block may alias the
                # caller's buffers, and a producer that refills its block
                # buffer before the worker drains would otherwise feed the
                # mechanisms data that was never validated.
                self._queue.put((np.array(xs), np.array(ys)))
        return self._cached()

    def _reserve(self, points: int, what: str) -> None:
        if self.horizon is not None and self._enqueued + points > self.horizon:
            raise StreamExhaustedError(
                f"{type(self).__name__} configured for horizon {self.horizon} "
                f"received {what} of {points} points at logical step "
                f"{self._enqueued}"
            )
        self._enqueued += points

    def observe_group(self, blocks, workers: int | None = None):
        """Ingest a *group* of blocks, with the shards working concurrently.

        Each block of the group is routed exactly as ``len(blocks)``
        successive :meth:`observe_batch` calls would route it (round-robin
        over live shards, in group order), but the shards work on their
        blocks at the same time.  Shards are fully independent — own
        mechanisms, own generators, a read-only shared ``Φ`` — so:

        * in-process shards drain on a thread pool; the heavy lifting
          (the BLAS moment products of the ``fast`` tier, the Gaussian
          draws) releases the GIL, so a group of ``K`` blocks ingests in
          roughly the time of the largest single block;
        * remote shards (``transport="process"``/``"tcp"``) are driven
          from the calling thread in two phases, with no drain thread:
          the front sends every shard its first block, then awaits each
          shard's ack in turn and sends that shard its next block.  Each
          link holds at most one un-acked block, so the workers ingest
          while the front waits on the others.

        One merge + solve runs after the whole group (the refresh cadence
        still honors ``refresh_every``), so the served estimate is exactly
        the sequential route's post-group state; per-shard releases are
        bit-identical to the sequential route because each shard consumes
        its blocks in the same order either way.

        Only ``mode="sync"`` supports groups (async/manual callers already
        have a queue to overlap ingestion with).

        Parameters
        ----------
        blocks:
            Sequence of ``(xs, ys)`` block pairs.  The whole group is
            validated and reserved against the horizon atomically before
            anything ingests.
        workers:
            How many shards have work in flight at once; defaults to every
            shard that received work.  ``workers=1`` degrades to inline
            sequential ingestion, one round trip at a time on the remote
            transports (useful as a control in benchmarks).

        Raises
        ------
        GroupIngestionError
            If any shard fails mid-group — a per-shard capacity overrun
            (custom ``shard_horizon``) or a remote worker dying mid-group:
            the committed blocks stay committed, the failed blocks'
            horizon reservation is refunded (a dead worker's previously
            acknowledged mass goes to ``lost_steps``), and ``failures``
            reports which group indices were lost.
        """
        if self.mode != "sync":
            raise ServingError(
                "observe_group requires mode='sync' (async/manual modes "
                "already pipeline through the ingestion queue)"
            )
        blocks = list(blocks)
        if not blocks:
            raise ValidationError("block group must contain at least one block")
        if workers is not None:
            workers = check_int("workers", workers, minimum=1)
        with self._lock:
            self._raise_if_unusable()
            validated = [self._validate_block(xs, ys) for xs, ys in blocks]
            self._reserve(sum(len(ys) for _, ys in validated), "a group")
            # On failure _ingest_group has already refunded the failed
            # blocks' reservation (a pre-ingestion routing failure refunds
            # everything).
            self._ingest_group(validated, workers)
            if self._should_refresh():
                self._refresh()
        return self._cached()

    def _ingest_group(self, blocks, workers: int | None) -> None:
        """Route a validated group, then drain per-shard queues concurrently.

        Routing happens up front (it is order-sensitive shared state);
        after that each shard's assigned blocks form an independent work
        queue, consumed in order by one pool task (in-process shards) or
        by :meth:`_drain_remote` (remote shards), so no two threads ever
        touch the same mechanism or link.  Failures are per-block atomic
        (the mechanisms validate and check capacity before consuming),
        per-shard fail-stop (a shard stops at its first failed block), and
        fully reported.
        """
        routed = 0
        try:
            assignments: dict[int, list] = {}
            for group_index, (xs, ys) in enumerate(blocks):
                shard = self._route(xs, ys)
                self._blocks_routed += 1
                routed += 1
                assignments.setdefault(shard.index, []).append(
                    (group_index, shard, xs, ys)
                )
        except BaseException:
            # A routing failure refunds the whole group: nothing ingested,
            # so every block counted so far is a refund, not a commit.
            self._blocks_refunded += routed
            self._enqueued -= sum(len(ys) for _, ys in blocks)
            raise

        failures: list[tuple[int, BaseException]] = []
        failure_lock = threading.Lock()

        def fail(tasks, position: int, exc: BaseException) -> None:
            """Fail-stop one shard: its block at ``position`` raised.

            The rest of *this shard's* queue is never attempted (its
            sub-stream order would otherwise gap) and is reported failed
            with it; other shards' queues are unaffected.  A crashed
            remote worker's acknowledged mass is lost (no-op for ordinary
            ingest failures — the shard is still alive).
            """
            with failure_lock:
                self._note_shard_death(tasks[position][1])
                failures.extend(
                    (group_index, exc) for group_index, _, _, _ in tasks[position:]
                )

        def drain_queue(tasks) -> int:
            """Ingest ONE shard's queue in order; fail-stop that shard only."""
            done = 0
            for position, (_, shard, xs, ys) in enumerate(tasks):
                try:
                    shard.ingest(xs, ys, self._fast)
                except BaseException as exc:
                    fail(tasks, position, exc)
                    return done
                done += len(ys)
            return done

        def drain_bucket(bucket) -> int:
            return sum(drain_queue(tasks) for tasks in bucket)

        queues = list(assignments.values())
        width = min(workers or len(queues), len(queues))
        if self.transport != "thread":
            ingested = self._drain_remote(queues, width, fail)
        elif width == 1:
            ingested = drain_bucket(queues)
        else:
            # Bucket whole per-shard queues onto `width` threads of the
            # persistent pool.  Buckets hold queues (never flattened), so
            # per-shard order — and with it release bit-identity — is
            # preserved, and one shard's failure stops only its own queue.
            buckets: list[list] = [[] for _ in range(width)]
            for i, tasks in enumerate(queues):
                buckets[i % width].append(tasks)
            ingested = sum(self._group_pool().map(drain_bucket, buckets))
        self._processed += ingested
        if failures:
            failures.sort(key=lambda pair: pair[0])
            lost = sum(len(blocks[group_index][1]) for group_index, _ in failures)
            self._enqueued -= lost
            # Every failed block — the one that raised and the unattempted
            # fail-stop casualties behind it — was refunded above, so
            # blocks_routed − blocks_refunded still counts committed blocks.
            self._blocks_refunded += len(failures)
            raise GroupIngestionError(
                f"{len(failures)} of {len(blocks)} group blocks failed to "
                f"ingest ({lost} points refunded); first error: "
                f"{failures[0][1]}",
                failures=failures,
            ) from failures[0][1]

    def _drain_remote(self, queues, width: int, fail) -> int:
        """Drain remote shards' queues from this thread, split-phase.

        At most ``width`` shards have a block in flight, and each link at
        most one: a shard's next block is sent only once its previous ack
        has been read.  The first phase sends the first block of up to
        ``width`` queues; then the in-flight shards take turns — read the
        ack, send the next block — and a shard that finishes or fails
        frees its slot for a waiting queue.  A shard whose send or ack
        fails is fail-stopped through ``fail`` and gets no further frame.
        The loop ends only when nothing is in flight, so every frame sent
        has had its ack read or its worker stopped (a missed deadline or
        a lost link kills the worker): no stale ack can pair with a later
        request.  Returns the points acknowledged.
        """
        waiting = deque(queues)
        in_flight: deque = deque()  # (queue, position of its un-acked block)

        def send(tasks, position: int) -> None:
            _, shard, xs, ys = tasks[position]
            try:
                shard.send_ingest(xs, ys, self._fast)
            except BaseException as exc:
                fail(tasks, position, exc)
            else:
                in_flight.append((tasks, position))

        done = 0
        while True:
            while waiting and len(in_flight) < width:
                send(waiting.popleft(), 0)
            if not in_flight:
                return done
            tasks, position = in_flight.popleft()
            _, shard, _, ys = tasks[position]
            try:
                shard.await_ingest()
            except BaseException as exc:
                fail(tasks, position, exc)
                continue
            done += len(ys)
            if position + 1 < len(tasks):
                send(tasks, position + 1)

    def flush(self):
        """Drain pending ingestion and solve through everything processed.

        Blocks until every enqueued block has been processed (async mode
        waits on the worker; manual mode pumps inline), then — if any mass
        arrived since the last refresh — runs a final merge + solve so the
        returned (and cached) estimate covers the full processed stream.
        """
        self._raise_if_unusable()
        if self.mode == "manual":
            self.pump()
        elif self.mode == "async":
            self._join_queue()
        self._raise_if_unusable()
        with self._lock:
            if self._processed > self._last_refresh_t:
                self._refresh()
        return self._served()

    def _join_queue(self) -> None:
        """``Queue.join`` with a worker-liveness probe (bounded waits).

        A bare ``join()`` parks on ``task_done`` calls that can never come
        if the async worker thread died with blocks queued — the flush
        would hang forever.  Waiting in bounded slices on the queue's
        ``all_tasks_done`` condition and probing the worker's
        ``is_alive()`` between them turns that hang into a typed
        :class:`~repro.exceptions.ServingError`; the live path is
        unchanged (the ``task_done`` notify wakes the wait early).
        """
        q = self._queue
        with q.all_tasks_done:
            while q.unfinished_tasks:
                worker = self._worker
                if worker is None or not worker.is_alive():
                    raise ServingError(
                        f"async ingestion worker is dead with "
                        f"{q.unfinished_tasks} queued block(s) unprocessed; "
                        f"the queue can never drain, so the stream cannot "
                        f"be flushed"
                    )
                q.all_tasks_done.wait(timeout=0.05)

    def pump(self, max_blocks: int | None = None) -> int:
        """Process up to ``max_blocks`` queued blocks inline (manual mode).

        Returns the number of blocks processed.  The test suite uses this
        to enumerate queue interleavings deterministically.
        """
        if self.mode != "manual":
            raise ServingError("pump() is only available in mode='manual'")
        self._raise_if_unusable()
        processed = 0
        while max_blocks is None or processed < max_blocks:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            self._process_block(*item)
            processed += 1
        return processed

    def _drain_queue(self) -> None:
        """Ingest every queued block now; the caller holds the ingestion lock.

        Producers validate and enqueue under the same lock, and the async
        worker dequeues under it, so after this returns no block validated
        against the current front state is still waiting — state changes
        made before the lock is released (a tenant add or remove) never
        meet a block validated before them.  A drained block that fails
        poisons an async stream as the worker would, and raises here.
        """
        if self.mode == "manual":
            self.pump()
        while self.mode == "async":
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            self._consume(item)
        self._raise_if_unusable()

    def close(self) -> None:
        """Flush, stop every worker, and refuse further ingestion.

        Workers are reclaimed even when the final flush raises (e.g. a
        poisoned server): shutdown must never leak the async thread, the
        group pool, or the remote shard workers.

        Idempotent under concurrency: all of close runs under a dedicated
        lock (a bare ``_closed`` check-then-act would let two concurrent
        closers both run the teardown — double ``_CLOSE`` sentinels, a
        ``join`` on a reset ``_worker``, double executor shutdown), so a
        second caller blocks until the first finishes, then returns.
        """
        with self._close_lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._closed:
            return
        # Stop the health-check loop first: an auto-restart racing the
        # teardown would re-boot workers close is about to reap.
        self._heartbeat_stop.set()
        try:
            if self._error is None:
                self.flush()
        finally:
            with self._lock:
                self._closed = True
            if self._heartbeat_thread is not None:
                # Bounded: the loop might be mid-ping on a wedged worker
                # (daemon thread — safe to abandon past the deadline).
                self._heartbeat_thread.join(timeout=5.0)
                self._heartbeat_thread = None
            if self._worker is not None:
                self._queue.put(_CLOSE)
                self._worker.join()
                self._worker = None
            if self._group_executor is not None:
                self._group_executor.shutdown(wait=True)
                self._group_executor = None
            for shard in self._shards:
                shard.shutdown()
            if self._owns_listener:
                self._listener.close()
            # Release parked wait_for_version callers (no further publish
            # can ever satisfy them); served entries stay readable.
            for model in self._models.values():
                model.hub.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Books and diagnostics
    # ------------------------------------------------------------------

    @property
    def steps_ingested(self) -> int:
        """Points fully processed into shard mechanisms (logical ``t``)."""
        return self._processed

    @property
    def steps_enqueued(self) -> int:
        """Points accepted at the API boundary (≥ ``steps_ingested``)."""
        return self._enqueued

    @property
    def blocks_routed(self) -> int:
        """Blocks assigned a shard so far (monotone — feeds the callable
        router's ``block_index``, so refunds never reuse an index)."""
        return self._blocks_routed

    @property
    def blocks_refunded(self) -> int:
        """Routed blocks whose ingestion failed or was never attempted
        (fail-stop casualties); their reservations were refunded, so
        ``blocks_routed − blocks_refunded`` counts committed blocks."""
        return self._blocks_refunded

    def shard_states(self) -> list[dict]:
        """Per-shard liveness and load snapshot (diagnostics)."""
        with self._lock:
            return [
                {"index": s.index, "alive": s.alive, "steps": s.steps}
                for s in self._shards
            ]

    def heartbeat_stats(self) -> dict:
        """Counters from the health-check loop (one consistent snapshot).

        ``pings`` (successful probes), ``deaths_detected`` (probes that
        found a dead/stuck worker and booked its loss),
        ``restarts`` (``restart_policy="auto"`` recoveries), ``errors``
        (probe or restart failures that were neither — e.g. a refused
        restart under basic composition).  All zero when
        ``heartbeat_every`` is unset.
        """
        with self._lock:
            return dict(self._heartbeat)

    def _heartbeat_loop(self) -> None:
        """The health-check daemon: ping every live shard, book deaths.

        Shares the ingestion lock, so probes are serialized with real
        traffic — a ping can never interleave mid-RPC on a worker's wire.
        With a ``request_timeout`` a *stuck* worker fails its ping within
        the deadline; without one the probe only catches *crashed*
        workers (pipe/socket EOF fails fast).  Under
        ``restart_policy="auto"`` any dead shard found is restarted on
        the spot with :meth:`restart_shard` semantics (reentrant — the
        ingestion lock is an RLock).
        """
        while not self._heartbeat_stop.wait(self.heartbeat_every):
            with self._lock:
                if self._closed:
                    return
                for shard in self._shards:
                    if not shard.alive:
                        continue
                    probe = getattr(shard, "ping", None)
                    try:
                        if probe is not None:
                            probe()
                        self._heartbeat["pings"] += 1
                    except ShardUnavailableError:
                        self._heartbeat["deaths_detected"] += 1
                        self._note_shard_death(shard)
                    except Exception:  # pragma: no cover - defensive
                        self._heartbeat["errors"] += 1
                if self.restart_policy == "auto":
                    for index in range(self.shards_count):
                        if self._shards[index].alive:
                            continue
                        try:
                            self.restart_shard(index)
                            self._heartbeat["restarts"] += 1
                        except Exception:
                            # e.g. budget refusal under basic composition:
                            # the shard stays dead, merges stay partial.
                            self._heartbeat["errors"] += 1

    def memory_floats(self) -> int:
        """Floats held by the shard mechanisms."""
        with self._lock:
            total = 0
            for shard in self._shards:
                try:
                    total += shard.memory_floats()
                except ShardUnavailableError:
                    # Crash detected by the diagnostic itself: a dead
                    # worker holds nothing, and its mass is booked lost.
                    self._note_shard_death(shard)
        return total

    # ------------------------------------------------------------------
    # Shard lifecycle (fault injection / recovery)
    # ------------------------------------------------------------------

    def _shard_index(self, index: int) -> int:
        index = check_int("index", index, minimum=0)
        if index >= self.shards_count:
            raise ValidationError(
                f"shard index {index} out of range [0, {self.shards_count})"
            )
        return index

    def kill_shard(self, index: int) -> None:
        """Simulate a shard worker dying: its mechanisms (and mass) are lost.

        Under the remote transports this kills the worker (SIGKILL /
        severed socket) — a real crash, not a graceful stop.  Idempotent.
        Subsequent merges degrade to partial coverage; on a multi-tenant
        front the loss applies to every tenant at once, because the shard
        held one sub-stream shared by all of them.
        """
        index = self._shard_index(index)
        with self._lock:
            shard = self._shards[index]
            shard.kill()
            self._note_shard_death(shard)

    def restart_shard(self, index: int) -> None:
        """Bring a dead shard back with fresh mechanisms over a fresh sub-stream.

        Under ``composition="parallel"`` the restarted shard's new
        mechanisms cover only points routed after the restart — still a
        partition of the logical stream, so the parallel-composition
        privacy argument is unchanged and the restart is free.  Under
        ``composition="basic"`` disjointness is exactly what could not be
        certified, so the replacement mechanisms' ``(ε/K, δ/K)`` budget is
        charged to the accountant — which raises
        :class:`~repro.exceptions.PrivacyBudgetError` when the ledger has
        no headroom left (the evenly-split default consumes the whole
        budget up front, so such restarts are refused).  The mass the dead
        shard had ingested stays lost (and reported) either way.  The
        replacement is built from the front's *current* state (a
        multi-tenant shard comes back with the current tenants — on a
        parked stream, with its Gram entries alone).
        """
        index = self._shard_index(index)
        with self._lock:
            old = self._shards[index]
            if old.alive:
                raise ServingError(
                    f"shard {index} is alive; kill_shard() before restarting"
                )
            # The replacement removes the dead worker from every later
            # sweep, so its loss must be booked here if no other path got
            # to it first.
            self._note_shard_death(old)
            if self.composition == "basic":
                # One atomic charge for the replacement bundle's
                # mechanisms; PrivacyAccountant.charge rolls itself back
                # on refusal.
                self.accountant.charge(
                    f"shard{index}:moments(restart)",
                    bundle_budgets(old.budget, (1.0,) * self._entries)[0],
                    count=self._entries,
                )
            children = self._rng.spawn(self._entries)
            self._shards[index] = self._make_shard(index, old.budget, children)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _raise_if_unusable(self) -> None:
        if self._closed:
            raise ServingError(f"{type(self).__name__} is closed")
        if self._error is not None:
            raise ServingError(
                f"asynchronous ingestion failed: {self._error}"
            ) from self._error

    def _route(self, xs: np.ndarray, ys: np.ndarray):
        """Pick the target shard for the next block (skipping dead shards)."""
        if callable(self._router):
            start = int(self._router(self._blocks_routed, xs, ys)) % self.shards_count
        else:
            start = self._next_shard
            self._next_shard = (self._next_shard + 1) % self.shards_count
        for offset in range(self.shards_count):
            shard = self._shards[(start + offset) % self.shards_count]
            if shard.alive:
                return shard
        raise ShardUnavailableError("every shard is dead; nothing can ingest")

    def _process_block(self, xs: np.ndarray, ys: np.ndarray) -> None:
        """Ingest one routed block under the lock, then run any due refresh.

        The single definition of the failure semantics every ingestion
        mode (sync, pump, worker) shares: an *ingest* failure leaves the
        block unconsumed — routing raises before any mechanism advances,
        and the mechanisms validate and check capacity before consuming
        anything — so the block's horizon reservation is released here and
        a retry is safe.  A *refresh* failure happens after the block is
        committed — its capacity must stay consumed (re-ingesting the same
        points would exceed the noise calibration), and only the solve is
        retried (``flush`` re-runs it because ``_last_refresh_t`` only
        advances on success).
        """
        with self._lock:
            try:
                shard = self._ingest_block(xs, ys)
            except BaseException:
                self._enqueued -= len(ys)
                raise
            if self._should_refresh():
                self._refresh()
            else:
                self._prefetch(shard, len(ys))

    def _ingest_block(self, xs: np.ndarray, ys: np.ndarray):
        shard = self._route(xs, ys)
        self._blocks_routed += 1
        try:
            shard.ingest(xs, ys, self._fast)
        except BaseException:
            # The block itself was not acknowledged and is refunded by the
            # caller, so a retry routes again.  If the shard died under it
            # (a remote worker crashed, or its bundle tore mid-block —
            # BundlePartialCommitError), its previously acknowledged mass
            # is lost; any other failure (capacity, validation) leaves the
            # shard alive and this is a no-op.
            self._note_shard_death(shard)
            self._blocks_refunded += 1
            raise
        self._processed += len(ys)
        return shard

    def _prefetch(self, shard, n: int) -> None:
        """Read ``shard``'s releases now if the next refresh reads them
        before the shard's next block.

        A release is computed when read (:mod:`repro.privacy.tree`), so a
        refresh would otherwise build, in its own call, the release of
        every shard that ingested since the last one.  Under round-robin
        routing of ``n``-point blocks over the live shards, this shard's
        next block comes ``(live − 1)·n`` points from now: if the processed
        count reaches the next multiple of ``refresh_every`` by then, the
        refresh comes first and reads exactly what the shard releases now,
        so the read is taken here, in the ingest call.  A refresh in this
        very call reads the shard itself (the caller skips the prefetch),
        and a custom router never prefetches.  The shard caches its
        answer until its state next moves, so the refresh reuses this
        read exactly when nothing changed in between.
        """
        if callable(self._router) or self.refresh_every is None:
            return
        live = sum(s.alive for s in self._shards)
        next_refresh = (self._processed // self.refresh_every + 1) * self.refresh_every
        if self._processed + (live - 1) * n >= next_refresh:
            self._released_handles(shard)

    def _should_refresh(self) -> bool:
        if self.refresh_every is None:
            return True
        if self.horizon is not None and self._processed >= self.horizon:
            return True
        return (
            self._processed // self.refresh_every
            > self._last_refresh_t // self.refresh_every
        )

    @property
    def bundle_names(self) -> tuple[str, ...]:
        """Every shard bundle's entry names, in bundle (merge) order."""
        return self._layout.names

    def _attach(self, key) -> EstimateHub:
        """Register one served model; publish its initial estimate.

        Its solver is the front's ``solver`` or a fresh default of the
        backend (one rng child each, in model order), reading the entries
        the layout names for ``key``.  The hub is the model's single
        publish path (entry swap + waiter wakeup + subscriber fan-out);
        publishing the solver's initial parameter means reads never block.
        """
        solver = self.solver
        if solver is None:
            solver = self._declaration.solver(
                self, self.config, self._rng.spawn(1)[0], *self._solver_knobs
            )
        hub = EstimateHub()
        hub.publish(
            solver.current_estimate(),
            solver.estimate_version,
            timestep=0,
            covered_steps=0,
        )
        self._models[key] = _Model(solver, hub, self._layout.reads(key))
        return hub

    def _merge(self) -> dict[str, MergedRelease]:
        """Every bundle entry's merged release, by name (one merge each),
        over each shard's ``released()`` records (cached by the shard
        since its last state change, e.g. by :meth:`_prefetch`)."""
        handles = [self._released_handles(shard) for shard in self._shards]
        return {
            name: merge_released(
                [None if h is None else h[slot] for h in handles], strict=False
            )
            for slot, name in enumerate(self.bundle_names)
        }

    def _solve(self) -> None:
        """Merge every entry once, solve every served model, then publish.

        A model whose lead entry covers nothing (e.g. every surviving
        shard is empty, or a tenant added since the last ingest) keeps its
        previous estimate.  Decayed / windowed entries cover an *effective
        weight* different from their raw step count — that weight is the
        logical sample count the solver sizes its Lipschitz constant from;
        plain entries report weight == covered exactly (float vs int
        compares exact for counts), which keeps the integer path and its
        bit-identical solves.  A ``(cross, gram)`` model whose Gram covers
        a different weight than its cross entry (a tenant added
        mid-stream shares a Gram that saw more of the stream) solves on
        the Gram rescaled to the cross entry's weight — the unbiased
        second-moment estimate over its own window.  The rescale is
        skipped, not applied with factor 1.0, whenever the weights agree:
        single-model fronts never differ, so their bits cannot move.

        ``(cross, gram)`` models that read one Gram entry at one covered
        weight under one :func:`~repro.core.incremental_regression.lockstep_plan`
        (set, ``α``, ``L``, ``r``) — a γ group's tenants — solve as one
        lockstep PGD (:func:`~repro.core.incremental_regression.solve_lockstep`),
        which checks, rescales and symmetrizes their shared Gram once; each
        model's θ is bit-identical to its own ``refresh_from_released``.

        All or nothing: every group is solved before any solver moves or
        any model is published.  A lockstep group only computes its θ
        (:func:`~repro.core.incremental_regression.solve_lockstep`); its
        solvers adopt them once every group has succeeded.  So a solve
        that raises (e.g. a non-finite merged cross) moves no lockstep
        solver and publishes no model, ``_refresh`` leaves the stream
        stale, and the retry serves what a refresh that never failed would
        serve.  On a multi-model front every ``(cross, gram)`` model with
        a lockstep plan solves this way, a group of one included; a model
        alone in its front keeps its solver's own refresh.
        """
        merged = self._merge()
        groups: dict = {}
        for name, model in self._models.items():
            moments = {key: merged[entry] for key, entry in model.reads.items()}
            lead = next(iter(moments.values()))
            covered = lead.covered_steps
            if covered == 0:
                continue
            weight = lead.covered_weight
            t_solve = weight if weight != covered else covered
            group, lockstep = name, False  # a model that solves alone
            if len(self._models) > 1 and tuple(moments) == ("cross", "gram"):
                plan = lockstep_plan(model.solver, t_solve)
                if plan is not None:
                    group, lockstep = (model.reads["gram"], weight, plan), True
            groups.setdefault(group, (lockstep, []))[1].append(
                (name, model, moments, t_solve, weight, covered)
            )
        solved, adopt = {}, []
        for lockstep, members in groups.values():
            thetas = self._solve_group(members, lockstep)
            if lockstep:
                adopt.append(([model.solver for _, model, *_ in members], thetas))
            for (name, *_, covered), theta in zip(members, thetas):
                solved[name] = theta, covered
        for solvers, thetas in adopt:
            adopt_lockstep(solvers, thetas)
        for name, model in self._models.items():
            if name in solved:
                theta, covered = solved[name]
                model.hub.publish(
                    theta,
                    model.solver.estimate_version,
                    timestep=self._processed,
                    covered_steps=covered,
                )

    @staticmethod
    def _solve_group(members, lockstep: bool) -> list:
        """The refreshed θ of every member of one solve group, in member
        order; a member is ``(name, model, moments, t, weight, covered)``.
        A lone model's solver refreshes (and moves) here; a lockstep
        group's solvers do not move."""
        _, model, moments, t_solve, weight, _ = members[0]
        if tuple(moments) != ("cross", "gram"):
            return [model.solver.refresh_from_bundle(t_solve, moments)]
        gram = moments["gram"]
        gram_value = gram.value
        if weight != gram.covered_weight:
            gram_value = gram_value * (weight / gram.covered_weight)
        if not lockstep:
            return [
                model.solver.refresh_from_released(
                    t_solve, gram_value, moments["cross"].value
                )
            ]
        return solve_lockstep(
            [model.solver for _, model, *_ in members],
            t_solve,
            gram_value,
            [moments["cross"].value for _, _, moments, *_ in members],
        )

    def _refresh(self) -> None:
        """Merge + solve + publish (``_solve``), then mark the stream fresh.

        ``_last_refresh_t`` advances only once the solve completes, so a
        failed solve leaves the stream marked stale and the next ``flush``
        or scheduled refresh retries it instead of silently serving an
        outdated estimate.
        """
        self._solve()
        self._last_refresh_t = self._processed

    def _note_shard_death(self, shard) -> None:
        """Credit a dead worker's acknowledged mass to ``lost_steps`` — once.

        The single definition of the loss-accounting rule, so every path
        that can *observe* a death (commanded kill, crash detected during
        ingest, a bundle torn mid-block, during a merge, or by a
        diagnostic) funnels through the same once-only ledger update and
        no detection order can drop or double-count mass.  ``steps`` only
        advances on fully committed bundles, so a torn bundle's partial
        block is never counted into the loss.  No-op while the shard is
        alive or after its loss is already booked.
        """
        if not shard.alive and not shard.lost_accounted:
            shard.lost_accounted = True
            self.lost_steps += shard.steps

    def _released_handles(self, shard):
        """One shard's release records in bundle order, or ``None`` if dead.

        A remote worker found dead *here* (crashed since its last
        acknowledgement, and asked because it has no cached answer) is
        folded into the partial-coverage path on the spot: its mass is
        accounted as lost and the merge proceeds over the survivors,
        instead of failing the refresh.  Deaths detected
        earlier by paths that could not account them are swept up here
        too — every served estimate is preceded by a merge, so the books
        are settled before coverage is reported.
        """
        if shard.alive:
            try:
                return shard.released()
            except ShardUnavailableError:
                pass
        self._note_shard_death(shard)
        return None

    def _consume(self, item) -> None:
        """Process one dequeued block the way the async worker does."""
        try:
            if self._error is None:
                try:
                    self._process_block(*item)
                except BaseException as exc:  # surfaced on the next API call
                    self._error = exc
            else:
                # A poisoned worker drops the block; refund its horizon
                # reservation so the books match what was ingested.
                self._enqueued -= len(item[1])
        finally:
            self._queue.task_done()

    def _worker_loop(self) -> None:
        """The async worker: dequeue and process each block under the lock.

        Waiting happens outside the lock; the dequeue itself happens under
        it, so a block is never in flight where :meth:`_drain_queue` (run
        under the lock) cannot see it.
        """
        q = self._queue
        while True:
            with q.not_empty:
                while not q.queue:
                    q.not_empty.wait()
            with self._lock:
                try:
                    item = q.get_nowait()
                except queue.Empty:
                    continue  # drained under the lock by someone else
                if item is _CLOSE:
                    q.task_done()
                    return
                self._consume(item)


class ShardedStream(ShardFront, HubReads):
    """A sharded, optionally asynchronous, algorithm-generic serving front.

    Fronts **Algorithm 2** (``backend="moment"``, the default: raw
    ``d``-dimensional moment shards solved by ``PrivIncReg1``),
    **Algorithm 3** (``backend="projected"``: one Gordon-sized ``Φ`` drawn
    up front, Step-4-rescaled projected moment shards in dimension
    ``m ≪ d``, solved by a ``PrivIncReg2`` sharing that same ``Φ``), the
    **private-sketch** variant (``backend="sketch"``: the same shared
    ``Φ`` geometry but sparse-JL, with per-block sketch-side noise in
    place of tree noise), or **private two-stage least squares**
    (``backend="iv"``: shards carry the three-entry (ZᵀZ, ZᵀX, Zᵀy)
    moment bundle over stacked ``[z | x]`` blocks, solved by a
    :class:`~repro.core.priv_inc_iv.PrivIncIV`).  The routing, merge rule,
    budget ledger, cache, async queue, and fault semantics are
    backend-agnostic (:class:`ShardFront`) — a backend is one declaration
    in :data:`~repro.streaming.backends.BACKENDS`, and all declared
    statistics pin their sensitivity at Δ₂ = 2, so the per-statistic
    calibration and the noise-preserving merge carry over unchanged.

    Parameters
    ----------
    constraint:
        The constraint set ``C``; fixes the dimension.
    params:
        The logical stream's total ``(ε, δ)`` budget.
    shards:
        Number of shard workers ``K``.
    horizon:
        Logical stream length ``T``.  Required for ``mechanism="tree"``
        (noise calibration) and for the default known-horizon solver; may
        be ``None`` with ``mechanism="hybrid"``.
    refresh_every:
        Run the merge + PGD refresh whenever the processed count crosses a
        multiple of this (and at the horizon); ``None`` (default)
        refreshes after every processed block.  Post-processing only.
    ingest:
        The summation order of each block's clean moment sum: ``"exact"``
        (elements folded in one at a time, bit-identical to per-point
        ingestion) or ``"fast"`` (one BLAS block total per statistic;
        equal up to float summation order, tree shards only).  Node
        noise is addressed by node, so both release the same noise — see
        the module docstring.
    mechanism:
        ``"tree"`` (known horizon) or ``"hybrid"`` (horizon-free shards).
    decay:
        Optional forgetting factor ``γ ∈ (0, 1]``: every shard's moment
        mechanisms become γ-decayed (tree or hybrid), releases track
        ``Σ γ^{t−i} υ_i``, and refreshes pass the merged effective weight
        ``(1−γ^t)/(1−γ)`` to the solver — recent points dominate the
        served estimate on drifting streams.  ``γ = 1`` is bit-identical
        to the plain front.  Mutually exclusive with ``window``; works
        with both summation orders (``"fast"`` computes γ-weighted block
        totals with one weighted BLAS product).
    window:
        Optional sliding window ``W``: shard mechanisms become chunked
        :class:`~repro.privacy.chunked.SlidingWindowMechanism` rings that
        hard-expire elements older than ``W`` steps.  Finite windows are
        horizon-free (pair with ``mechanism="hybrid"`` for unbounded
        recency serving) but need ``ingest="exact"`` — a pre-reduced
        block total cannot be split at a chunk boundary.  ``window=inf`` is
        the degenerate never-expiring ring, bit-identical to the plain
        tree front.  Mutually exclusive with ``decay``.
    composition:
        Budget mode for :func:`~repro.privacy.parameters.shard_budgets`:
        ``"parallel"`` (default — disjoint routing, full budget per shard)
        or ``"basic"`` (``(ε/K, δ/K)`` per shard).
    router:
        ``"round_robin"`` (default) or a callable
        ``(block_index, xs, ys) -> int`` returning a shard index (taken
        mod ``K``; dead shards fall through to the next live one).
    mode:
        ``"sync"`` — process on the caller's thread; ``"async"`` — enqueue
        and return, a daemon worker processes FIFO; ``"manual"`` — enqueue
        and let the caller :meth:`pump` (deterministic interleavings for
        tests).
    transport:
        ``"thread"`` (default) — shard workers share this interpreter;
        ``"process"`` — each shard runs in its own interpreter behind a
        ``multiprocessing`` pipe
        (:class:`~repro.streaming.transport.ProcessShardWorker`);
        ``"tcp"`` — each shard is served by a
        :class:`~repro.streaming.netserve.ShardHostListener` over
        length-prefixed frames
        (:class:`~repro.streaming.netserve.TcpShardWorker`), which is
        how shards run on separate hosts.  Remote transports speak the
        typed frames of :mod:`repro.streaming.wire` and ship released
        moments back as :class:`~repro.privacy.tree.ReleasedMoments`
        records.  All transports build the same mechanisms from the
        same noise keys, so the ingest contract, merge rule, and fault
        semantics are transport-independent
        (``tests/test_process_serving.py``, ``tests/test_tcp_serving.py``).
        ``Φ`` ships in the spawn payload as its matrix, so any
        ``projection`` serves on every transport, and a custom router is
        fine anywhere (it always runs in the parent).
        Orthogonal to ``mode``.
    request_timeout:
        Deadline in seconds on every shard RPC (remote transports only).
        A worker that misses it is *alive but stuck* — it is killed /
        disconnected and the shard folds into the partial-coverage fault
        path (:class:`~repro.exceptions.ShardTimeoutError`, a
        :class:`~repro.exceptions.ShardUnavailableError`), exactly as if
        it had crashed.  ``None`` (default) waits forever — the only
        option for ``transport="thread"``, where the shard call is a
        plain method call with no wire to deadline.
    addresses:
        Where the shard host listeners are (``transport="tcp"`` only): a
        list of :class:`~repro.streaming.netserve.ShardAddress`,
        ``"host:port"`` strings, or ``(host, port)`` pairs; shard ``i``
        connects to ``addresses[i % len(addresses)]``, and restarts
        reconnect to the same address.  ``None`` (the default) boots a
        private loopback listener inside this stream — single-host tcp
        serving with zero setup, the configuration the test suite and CI
        exercise.
    heartbeat_every:
        Period in seconds of the health-check loop: a daemon thread
        pings every live shard (one
        :meth:`~repro.streaming.transport.ShardRpcClient.ping` RPC,
        sharing the ingestion lock) so dead or stuck workers are
        detected within ``heartbeat_every + request_timeout`` seconds
        even when no traffic is flowing — without a ``request_timeout``
        the ping only detects *crashed* workers (pipe/socket EOF), since
        an unbounded ping to a wedged worker would block.  ``None``
        (default) disables the loop; detection then happens on the next
        RPC, exactly as before.
    restart_policy:
        ``"never"`` (default) — dead shards stay dead until an explicit
        :meth:`restart_shard`; ``"auto"`` — the heartbeat loop restarts
        any dead shard it finds (requires ``heartbeat_every``), with the
        same budget semantics as a manual restart (free under parallel
        composition; charged — and refused on an empty ledger — under
        basic).  Counted in :meth:`heartbeat_stats`.
    shard_horizon:
        Tree capacity per shard; defaults to the full ``horizon`` so any
        routing imbalance fits (slightly conservative noise).  Set to
        ``ceil(T/K)`` when the router guarantees balance.
    backend:
        ``"moment"`` (default — Algorithm 2's raw-moment shards),
        ``"projected"`` (Algorithm 3's shared-Φ projected-moment shards;
        requires ``mechanism="tree"`` and a ``horizon``), ``"sketch"``
        (shared sparse-JL ``Φ`` with per-block sketch-side noise instead
        of tree noise; requires
        ``mechanism="tree"`` and a ``horizon``, refuses ``decay`` and
        ``window``), or ``"iv"`` (private two-stage least squares:
        three-statistic (zz, zx, zy) shard bundles over stacked
        ``[z | x]`` blocks, solved by
        :class:`~repro.core.priv_inc_iv.PrivIncIV`; requires
        ``mechanism="tree"``, a ``horizon`` and ``instruments``, refuses
        ``decay`` and ``window``).
    instruments:
        Number of instrument coordinates ``p`` (``backend="iv"`` only;
        required there).  Blocks then carry stacked ``[z | x]`` rows of
        width ``instruments + dim`` with ``‖z‖ ≤ 1, ‖x‖ ≤ 1, |y| ≤ 1``,
        and identification needs ``instruments ≥ dim`` (checked by the
        default solver).
    x_domain:
        The covariate domain ``X`` (backends ``"projected"`` and
        ``"sketch"`` only) — needed to Gordon-size ``Φ`` when neither
        ``projection`` nor ``projected_dim`` is given, and by the default
        ``PrivIncReg2`` solver in any case.
    projection:
        Optional pre-built shared
        :class:`~repro.sketching.projection.Projection` (e.g. a
        :class:`~repro.sketching.sparse_jl.SparseProjection`); drawn
        internally from ``rng`` when omitted — Gaussian under
        ``backend="projected"``, sparse-JL under ``backend="sketch"``.
        Privacy is unaffected by the choice — the Step-4 rescaling pins
        Δ₂ = 2 for any fixed Φ.
    projected_dim, gamma:
        Explicit ``m`` override / distortion override for the internally
        drawn ``Φ`` (backends ``"projected"``/``"sketch"`` only; the
        default sizing is
        :func:`~repro.core.projected_regression.projected_sizing`, the
        same arithmetic ``PrivIncReg2`` applies).
    sparsity_factor:
        Sparsity ``s`` of the internally drawn sparse-JL ``Φ``
        (``backend="sketch"`` only; default 3): each entry is non-zero
        with probability ``1/s``.  The matrix is still applied as a dense
        product, so ``s`` does not change the ingest cost.  Refused with a
        pre-built ``projection`` — pass
        ``SparseProjection(..., sparsity_factor=s)`` directly instead.
    solver:
        Any object with ``refresh_from_released(t, gram, cross)`` (or,
        for bundles beyond the default pair,
        ``refresh_from_bundle(t, moments)``), ``current_estimate()`` and
        ``estimate_version`` — defaults to a
        :class:`~repro.core.incremental_regression.PrivIncReg1` (or the
        unbounded variant when ``horizon`` is ``None``; or a
        :class:`~repro.core.projected_regression.PrivIncReg2` sharing the
        front's ``Φ`` under ``backend="projected"``/``"sketch"``; or a
        :class:`~repro.core.priv_inc_iv.PrivIncIV` under
        ``backend="iv"``) whose own trees never ingest; it contributes
        only the post-tree post-processing.
    beta, fidelity, iteration_cap:
        Forwarded to the default solver.  ``fidelity`` (``"fast"`` or
        ``"paper"``) is checked on every configuration, even where the
        solver does not read it (a custom ``solver``, or the horizon-free
        default).
    rng:
        Seed or Generator.  Under ``backend="projected"`` (and
        ``"sketch"``) the shared ``Φ`` is drawn from it first (exactly
        the plain ``PrivIncReg2`` consumption); then shard ``i``'s
        bundle mechanisms are keyed by children ``[n·i, n·(i+1))`` of
        ``rng.spawn(n·K)`` where ``n`` is the bundle size (the front
        draws each child's two-word key and ships only the keys) — for the
        default two-entry bundle that is children ``2i``/``2i+1`` of
        ``rng.spawn(2K)``, and for ``K=1`` exactly the plain estimators'
        two-child spawn, which is what makes the ``K=1`` server
        bit-identical (moment backend) or tree-release-bit-identical
        (projected backend) to the plain batched path.
    """

    def __init__(
        self,
        constraint: ConvexSet,
        params: PrivacyParams,
        shards: int = 2,
        *,
        horizon: int | None = None,
        refresh_every: int | None = None,
        ingest: str = "exact",
        mechanism: str = "tree",
        decay: float | None = None,
        window: int | float | None = None,
        composition: str = "parallel",
        router: "str | callable" = "round_robin",
        mode: str = "sync",
        transport: str = "thread",
        request_timeout: float | None = None,
        addresses=None,
        heartbeat_every: float | None = None,
        restart_policy: str = "never",
        shard_horizon: int | None = None,
        backend: str = "moment",
        instruments: int | None = None,
        x_domain: PointSet | None = None,
        projection=None,
        projected_dim: int | None = None,
        gamma: float | None = None,
        sparsity_factor: int | None = None,
        solver=None,
        beta: float = 0.05,
        fidelity: str = "fast",
        iteration_cap: int = 400,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        knobs = dict(locals())
        declaration = backend_declaration(backend)
        for knob in BACKEND_KNOBS:
            if knobs[knob] is not None and knob not in declaration.knobs:
                raise ValidationError(
                    f"{knob} does not apply to backend={backend!r}"
                )
        if declaration.needs_tree and mechanism != "tree":
            raise ValidationError(
                f"backend={backend!r} needs tree shards (its solver assumes "
                f"a known horizon T)"
            )
        decay, window = check_release_knobs(decay, window)
        for knob, value in (("decay", decay), ("window", window)):
            if value is not None and knob in declaration.refuses:
                raise ValidationError(
                    f"{knob} is not supported with backend={backend!r}"
                )
        if window is not None and math.isinf(window) and mechanism != "tree":
            raise ValidationError(
                "window=inf is the degenerate never-expiring window (one "
                "tree over the full stream): it needs mechanism='tree' and "
                "a horizon"
            )
        if ingest == "fast" and not one_chunk(mechanism == "hybrid", window):
            raise ValidationError(
                "ingest='fast' needs a one-chunk release: a pre-reduced block "
                "total (advance_sum) cannot be split at the chunk boundaries of "
                "mechanism='hybrid' or a finite window; use ingest='exact'"
            )
        self.backend = backend
        self.decay = decay
        self.window = window
        self.x_domain = x_domain
        self.gamma = gamma
        self.solver = solver
        super().__init__(constraint, params, shards, knobs)
        # The one model over the whole bundle; `self.cache` is its hub.
        self.solver, self.cache, _ = self._models[None]
        self.projected_dim = getattr(self.projection, "projected_dim", None)
        self.sparsity_factor = getattr(self.projection, "sparsity_factor", None)
        self.instruments = self.config.get("instruments")

    def _charge_ledger(self) -> None:
        """One labelled charge per bundle statistic.

        Under parallel composition the whole sharded release costs what
        ONE shard costs (disjoint sub-streams); under basic composition
        the per-shard charges sum back to the total.  For the default
        bundle: the historical cross/gram pair at ``params.halve()``,
        bit-exactly.
        """
        weights = (1.0,) * len(self.bundle_names)
        if self.composition == "parallel":
            pieces = bundle_budgets(self.params, weights)
            for name, piece in zip(self.bundle_names, pieces):
                self.accountant.charge(f"shards:{name}-moments(parallel)", piece)
            return
        for shard in self._shards:
            pieces = bundle_budgets(shard.budget, weights)
            for name, piece in zip(self.bundle_names, pieces):
                self.accountant.charge(f"shard{shard.index}:{name}-moments", piece)

    def _validate_block(self, xs, ys) -> tuple[np.ndarray, np.ndarray]:
        """Shape + the backend's unit-domain check for one block."""
        xs, ys = check_xy_block(xs, ys, dim=self._block_dim)
        self._declaration.check_domain(xs, ys, self.config)
        return xs, ys

    def observe(self, x: np.ndarray, y: float) -> np.ndarray:
        """Ingest one point (a block of one); return the cached estimate.

        In async mode this enqueues and returns immediately — the returned
        estimate is the cached one, which may not reflect this point until
        the worker's next refresh completes.
        """
        x = check_vector("x", x, dim=self._block_dim)
        return self.observe_batch(x[None, :], np.asarray([float(y)]))

    def merged_moments(self) -> tuple[MergedRelease, ...]:
        """The merged released moments right now, in bundle order.

        One :class:`~repro.privacy.tree.MergedRelease` per bundle
        statistic — ``(cross, gram)`` for the single-equation backends,
        ``(zz, zx, zy)`` for iv.  Post-processing of already-released
        sums — free to call, used by the conformance suite to compare
        against per-shard replays.
        """
        with self._lock:
            return tuple(self._merge().values())

    def merged_bundle(self) -> dict[str, MergedRelease]:
        """The merged released moments keyed by statistic name.

        The same merges as :meth:`merged_moments`, as the name-keyed
        mapping solver ``refresh_from_bundle`` hooks consume.
        """
        with self._lock:
            return self._merge()

    def memory_floats(self) -> int:
        """Floats held by the shard mechanisms (plus the shared ``Φ``).

        ``K · O(D² log T)`` for ``D``-wide moments — under
        ``backend="projected"`` that is ``K·O(m² log T) + m·d`` (one
        shared projection, counted once), versus the moment backend's
        ``K·O(d² log T)``.
        """
        total = super().memory_floats()
        if self.projection is not None:
            total += int(self.projection.matrix.size)
        return total

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    _cached = HubReads.current_estimate
    _served = HubReads.current_served

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedStream(shards={self.shards_count}, dim={self.dim}, "
            f"horizon={self.horizon}, ingest={self.ingest!r}, "
            f"mechanism={self.mechanism!r}, mode={self.mode!r}, "
            f"t={self._processed})"
        )
