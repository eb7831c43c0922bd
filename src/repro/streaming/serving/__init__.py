"""The sharded serving layer: per-shard bundles, merged releases, cached reads.

The Tree Mechanism's releases are *additive across disjoint sub-streams*:
each shard's released prefix sum is its exact sub-stream sum plus a sum of
independent per-node Gaussians, so summing per-shard releases yields the
logical-stream statistic with a noise variance that simply adds across
shards (:func:`repro.privacy.tree.merge_released`).  That is exactly the
property a sharded server needs to split one logical stream of length ``T``
across ``K`` workers without changing the privacy analysis — the routing is
a partition, so by parallel composition each shard runs at the full
``(ε, δ)`` and the sharded release sequence satisfies the same guarantee as
the single-tree one (:func:`repro.privacy.parameters.shard_budgets`).

:class:`ShardedStream` is that serving front:

* **Routing** — incoming blocks go round-robin (or via a caller-supplied
  key router) to ``K`` :class:`MomentShard` workers, each owning an
  independent *moment bundle* (:class:`~repro.core.moments.MomentBundle`
  — an ordered set of named statistics, each behind its own release
  mechanism: ``Σ x y`` and ``Σ x xᵀ`` trees for the default backends, or
  Hybrid mechanisms for horizon-free serving) over its sub-stream.
* **Pluggable backends** — a backend is one declaration
  (:mod:`repro.streaming.backends`: statistics, row transform, block
  width and domain check, release family, knobs, default solver), so the
  same front serves **Algorithm 3**: ``backend="projected"`` draws
  one Gordon-sized ``Φ`` up front and hands it to every shard (workers
  ingest ``Φx̃·y`` / ``(Φx̃)(Φx̃)ᵀ`` through the shared Step-4 rescale
  helper) *and* to the default ``PrivIncReg2`` solver, whose
  ``refresh_from_released`` then consumes merged **projected** moments —
  and **private two-stage least squares**: ``backend="iv"`` shards carry the three-entry
  (ZᵀZ, ZᵀX, Zᵀy) bundle over stacked ``[z | x]`` blocks, merged and
  solved by a :class:`~repro.core.priv_inc_iv.PrivIncIV` through its
  ``refresh_from_bundle`` hook.  Every bundle pins its streams'
  sensitivity at Δ₂ = 2, so the merge rule, budget ledger, and fault
  semantics below apply to all backends verbatim — and per-shard memory
  under the projected backend drops from ``O(d² log T)`` to
  ``O(m² log T)``.
* **Transports** — shard workers live either in the serving process
  (``transport="thread"``, the default: zero-copy merges, group
  parallelism bounded by the GIL except where BLAS releases it) or each
  in their **own interpreter** (``transport="process"``: a
  :class:`~repro.streaming.transport.ProcessShardWorker` drives the same
  ``MomentShard`` over a ``multiprocessing`` pipe, shipping released
  moments back as :class:`~repro.privacy.tree.ReleasedMoments` snapshots
  in typed :mod:`repro.streaming.wire` frames).  The two
  transports build identical mechanisms from identical noise keys, so
  everything below — tiers, merge rule, fault semantics — holds verbatim
  for both; see :mod:`repro.streaming.transport`.
* **Group ingestion** — :meth:`ShardedStream.observe_group` ingests a
  group of routed blocks shard-parallel (shards are independent; under
  the thread transport BLAS releases the GIL, under the process transport
  each drain thread just awaits its shard's pipe while the worker
  computes on its own core), with per-shard order preserved so tree
  releases stay bit-identical to the sequential route.
* **Merge + solve** — at refresh points the per-shard released moments are
  merged slot-by-slot in bundle order and handed to a solver (Algorithm
  2's PGD pipeline via the estimators' ``refresh_from_released``
  serve-mode hook for the default (cross, gram) bundle, or the
  name-keyed ``refresh_from_bundle`` hook for wider bundles); everything
  after the tree releases is post-processing, so the refresh cadence is a
  pure utility/latency knob.
* **Async ingestion** — ``mode="async"`` makes ``observe``/``observe_batch``
  enqueue-and-return; a worker thread drains the FIFO queue and runs the
  PGD refreshes off the hot path.  Processing order equals enqueue order,
  so the final state is identical to the synchronous path (the
  linearizability contract ``tests/test_sharded_equivalence.py`` pins
  down).  ``mode="manual"`` exposes the queue pump for deterministic
  interleaving tests.
* **Cached reads, lock-free** — every completed solve publishes a
  read-only, versioned :class:`ServedEstimate` into the served model's
  :class:`~repro.streaming.readers.EstimateHub` by *atomic reference
  swap*;
  ``current_estimate`` fan-out reads are single lock-free pointer loads
  (no hot-path mutex, no shared counter) that can never observe an
  estimate older than the last completed solve.  For scaled fan-out,
  :meth:`ShardedStream.reader` hands out per-reader
  :class:`~repro.streaming.readers.ReaderHandle` snapshots (version
  fast-path, per-reader stats), and the hub's pub-sub surface
  (:meth:`ShardedStream.subscribe`, ``wait_for_version``) turns pollers
  into waiters — see :mod:`repro.streaming.readers`.

Ingest summation order (``ingest``).  Tree node noise is addressed by
node — a pure function of the mechanism's key and the node's (level,
index) — so both settings release the same noise for the same node; they
differ only in how each block's clean moment sum is added up:

* ``ingest="exact"`` (default) — shards fold each element into the
  prefix one at a time (the mechanisms' ``advance_batch``), the additions
  per-point ingestion performs, so merged releases (and hence served
  estimates) are **bit-identical** to a replay of the per-shard trees,
  and a ``K=1`` server matches the plain batched path bit for bit.
* ``ingest="fast"`` — shards compute each block's moment totals with one
  BLAS product per bundle statistic (``Xᵀy`` / ``XᵀX``) and add them to
  the prefix (``TreeMechanism.advance_sum``).  Releases equal the exact
  setting's up to float summation order.  Fast ingest needs a one-chunk
  release: a pre-reduced total cannot be split at a chunk boundary, so
  ``mechanism="hybrid"`` and a finite ``window`` accept only ``"exact"``.

Either way a block only commits: a release is computed when read, by a
refresh's merge or by the snapshot the front takes right after an ingest
when the next refresh reads that shard before its next block
(``ShardFront._prefetch``), and a node no read needs is never drawn.

Fault semantics: :meth:`ShardedStream.kill_shard` drops a shard's
mechanisms (under the process transport it SIGKILLs the worker process);
subsequent merges degrade to the documented *partial-coverage* semantics —
the merged statistic covers the surviving sub-streams only,
``ServedEstimate.covered_steps`` and :attr:`ShardedStream.lost_steps`
report the loss (never silently dropped), and
:meth:`ShardedStream.restart_shard` brings the worker back with fresh
mechanisms (a fresh process, under ``transport="process"``) over a fresh
(still disjoint) sub-stream, which keeps the parallel-composition argument
intact.  A process worker that dies *uncommanded* is detected at the next
pipe interaction and folded into the same path: ingest raises
:class:`~repro.exceptions.ShardUnavailableError` (the block stays
refundable), merges degrade to partial coverage, and the dead worker's
acknowledged mass lands in ``lost_steps``.  A bundle torn mid-block
(a later statistic failing after an earlier one committed —
:class:`~repro.exceptions.BundlePartialCommitError`) is the same path:
the shard dies, only its fully committed blocks count into
``lost_steps``, and the torn block stays refundable.

This package splits the layer by concern: :mod:`.shards` (the shard
class and the :class:`BundleLayout` both fronts build from) and
:mod:`.stream` (the shared :class:`ShardFront` lifecycle with its one
merge-and-solve path, and the :class:`ShardedStream` front).  The
versioned read slot, :class:`~repro.streaming.readers.EstimateHub`, and
its :class:`ServedEstimate` live in :mod:`repro.streaming.readers` and
are re-exported here.
"""

from ..readers import EstimateHub, ReaderHandle, ServedEstimate, Subscription
from ..transport import ProcessShardWorker
from .shards import BundleLayout, MomentShard, TenantShard
from .stream import _CLOSE, ShardFront, ShardedStream

__all__ = [
    "ShardedStream",
    "ShardFront",
    "MomentShard",
    "TenantShard",
    "BundleLayout",
    "ProcessShardWorker",
    "ServedEstimate",
    "EstimateHub",
    "ReaderHandle",
    "Subscription",
]
