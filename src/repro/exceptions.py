"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc. raised by numpy)
propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong range, shape, or domain).

    Subclasses :class:`ValueError` so existing ``except ValueError`` call
    sites keep working.
    """


class PrivacyBudgetError(ReproError):
    """A privacy budget was exhausted or split inconsistently.

    Raised, for instance, when an accountant is asked to spend more
    ``(epsilon, delta)`` than it has left, or when a mechanism is configured
    with a non-positive budget.
    """


class StreamExhaustedError(ReproError):
    """An incremental mechanism was fed more points than its declared horizon.

    The Tree Mechanism (Algorithm 4) calibrates noise to a fixed stream
    length ``T``; feeding point ``T + 1`` would silently break the privacy
    guarantee, so the library refuses instead.
    """


class DomainViolationError(ValidationError):
    """A stream point fell outside the declared bounded domain.

    The privacy calibration of every mechanism in the paper assumes
    ``‖x‖ ≤ 1`` and ``|y| ≤ 1``; points violating the declared bounds would
    invalidate the sensitivity analysis, so they are rejected eagerly.
    """


class LiftingError(ReproError):
    """The lifting program ``min ‖θ‖_C s.t. Φθ = ϑ`` could not be solved.

    This generally indicates an infeasible constraint (``ϑ`` not in the
    row space of ``Φ`` due to numerical trouble) or an LP solver failure.
    """


class NotSupportedError(ReproError):
    """The requested operation is not available for this object.

    Example: asking for the Minkowski gauge of a set that does not contain
    the origin, where the gauge is not a norm and may be infinite.
    """


class ShardUnavailableError(ReproError):
    """A merge required shard releases that are not available.

    Raised by :func:`repro.privacy.tree.merge_released` in strict mode when
    a per-shard mechanism is missing (dead worker, not yet restarted), and
    by the serving layer when *every* shard is unavailable — in which case
    there is no released mass to post-process at all.
    """


class ShardTimeoutError(ShardUnavailableError, TimeoutError):
    """A shard RPC missed its deadline: the worker is alive but stuck.

    Raised by the transport proxies
    (:class:`~repro.streaming.transport.ProcessShardWorker`,
    :class:`~repro.streaming.netserve.TcpShardWorker`) when a
    parent→worker round trip exceeds ``request_timeout``.  The worker is
    killed (or its connection severed) *before* this is raised, so a
    stale late reply can never pair with a future request — from that
    point on the shard is indistinguishable from a crashed one, which is
    the correct fault model: subclassing
    :class:`ShardUnavailableError` folds the timeout into the existing
    partial-coverage / ``lost_steps`` accounting, and subclassing
    :class:`TimeoutError` keeps generic timeout handlers working.
    """


class BundlePartialCommitError(ShardUnavailableError):
    """A moment bundle tore mid-block: some entries committed, some did not.

    Raised by :meth:`~repro.core.moments.MomentBundle.ingest` when a
    statistic *after the first* fails to advance: the earlier entries have
    already consumed the block, so the bundle's streams disagree by one
    block and no later merge over them would be coverage-consistent.  The
    bundle discards its mechanisms before raising, and the owning shard
    marks itself dead — subclassing :class:`ShardUnavailableError` folds
    the torn bundle into the existing partial-coverage / ``lost_steps``
    accounting, which counts only the shard's fully committed blocks (the
    torn block was never acknowledged).  A failure on the *first* entry is
    not a tear: nothing was consumed, the original exception propagates,
    and the shard stays alive with the block refundable.
    """


class ServingError(ReproError):
    """The sharded serving front is in a state that cannot serve the request.

    Covers asynchronous-ingestion failures surfaced on a later call (the
    worker records the error and every subsequent API call re-raises it
    wrapped in this type), operations on a closed server, and invalid shard
    lifecycle transitions (e.g. restarting a shard that is still alive).
    """


class PublishConflictError(ServingError):
    """An :class:`~repro.streaming.readers.EstimateHub` publish conflicted
    with the entry already in the hub.

    Two shapes of conflict, both programming errors on the *publisher* side
    (readers are never at fault):

    * a **version decrease** — the hub's version is the publisher's solve
      counter and must be non-decreasing, otherwise a reader could observe
      an estimate older than the last completed solve;
    * an **equal-version publish with a different payload** — readers
      detect refreshes by comparing versions (the ``ReaderHandle`` snapshot
      fast path relies on ``same version ⇒ same payload``), so silently
      accepting a changed ``theta`` under an unchanged version would make
      version-based refresh detection miss real updates.

    Republishing the *identical* payload under the current version is
    accepted as an idempotent no-op instead.
    """


class WaitTimeoutError(ServingError, TimeoutError):
    """A blocking wait for a published estimate version timed out.

    Raised by ``wait_for_version(version, timeout=...)`` on
    :class:`~repro.streaming.readers.EstimateHub` /
    :class:`~repro.streaming.readers.ReaderHandle` when the requested
    version was not published within the timeout.  Subclasses
    :class:`TimeoutError` so generic timeout handlers keep working.
    """


class NoEstimateError(ServingError, LookupError):
    """A read hit an :class:`~repro.streaming.readers.EstimateHub` that has
    never been published to.

    ``EstimateHub.get`` is an O(1) pointer read; before the first solve
    there is no pointer to return, and silently returning a zero parameter
    would be indistinguishable from a real estimate.  The error names the
    fix (``flush()`` forces a merge + solve over everything ingested).
    Subclasses both :class:`ServingError` (so serving-layer handlers keep
    working) and :class:`LookupError` (the natural builtin for a failed
    cache lookup).

    ``ShardedStream`` publishes its solver's initial parameter at
    construction, so its readers never see this; it surfaces only on a
    bare ``EstimateHub`` used as a standalone component.
    """


class GroupIngestionError(ServingError):
    """A thread-parallel block-group ingestion partially failed.

    ``ShardedStream.observe_group`` ingests a group of routed blocks
    concurrently across shards; shards are independent, so one shard's
    failure cannot be allowed to silently discard the blocks the other
    shards already committed.  This error reports exactly which blocks of
    the group failed (their horizon reservation was refunded; everything
    else was committed and is covered by subsequent merges).

    Attributes
    ----------
    failures:
        ``(group_index, exception)`` pairs for the failed blocks, indexed
        by position in the submitted group.
    """

    def __init__(self, message: str, failures=()) -> None:
        super().__init__(message)
        self.failures = tuple(failures)


class FleetExecutionError(ReproError):
    """A fleet replicate failed; carries the failing spec for triage.

    Attributes
    ----------
    spec:
        The :class:`~repro.streaming.fleet.ReplicateSpec` whose execution
        raised, so multi-worker sweeps report *which* (estimator, stream,
        seed) cell failed instead of a bare pool traceback.
    """

    def __init__(self, message: str, spec=None) -> None:
        super().__init__(message)
        self.spec = spec
