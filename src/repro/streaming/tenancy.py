"""Multi-tenant (PRIMO) serving: one covariate stream, ``k`` outcome models.

The PRIMO observation (*Private Regression in Multiple Outcomes*): when
``k`` regression problems share one covariate stream — the same ``x_t``
scored against ``k`` different outcome signals ``y_t^{(1)}..y_t^{(k)}`` —
the expensive part of the released statistic, the ``(d, d)`` second-moment
(Gram) matrix, is *identical* for every problem.  Running ``k`` independent
:class:`~repro.streaming.serving.ShardedStream` fronts privatizes it ``k``
times: ``k·(d² + d)`` tree floats, ``k`` Gram noise draws per step, and a
``k``-way budget split that inflates every tenant's noise variance by
``k²``.  :class:`MultiTenantStream` privatizes it **once**:

* the moment backend declares its Gram a *design* statistic (it reads
  only the rows) and its cross statistic an *outcome* statistic, so the
  one :class:`~repro.streaming.serving.BundleLayout` both fronts build
  from lays the bundle out for named tenants — a shared Gram entry per γ
  group at ``(ε/2, δ/2)`` (independent of ``k``), then one cheap ``(d,)``
  cross entry per tenant at an equal slot of the other half — and the
  front and every :class:`~repro.streaming.serving.MomentShard` read it;
* :meth:`MultiTenantStream.observe_batch` routes each
  ``(x, y^{(1)}..y^{(k)})`` block through the shared Gram exactly once and
  fans the outcomes out to the per-tenant cross trees;
* every tenant is one served model of the front's single merge-and-solve
  path (:class:`~repro.streaming.serving.ShardFront`): its own solver and
  :class:`~repro.streaming.readers.EstimateHub`, reading its own cross
  entry and its group's Gram entry, so the whole read-side surface —
  ``reader()`` / ``subscribe()`` / ``wait_for_version()`` — works
  unchanged *per tenant* (:meth:`MultiTenantStream.tenant`).

Privacy is per-element composition over the *slot capacity*: one element
is ingested by the Gram tree once (``ε/2``) and by at most ``capacity``
concurrently active cross trees (``capacity · ε/(2·capacity)``), so its
loss is at most ``ε`` under any :meth:`~MultiTenantStream.add_tenant` /
:meth:`~MultiTenantStream.remove_tenant` schedule — a removed tenant's
tree never ingests again, so a reused slot never sees one element twice.
The ledger mirrors this: adds charge a slot, removes refund it
(:meth:`~repro.privacy.accountant.PrivacyAccountant.refund`).

For ``k = 1`` (and the default ``tenant_capacity=1``) both budget pieces
equal ``params.halve()`` bit-exactly, the shard keys and solver
spawn order match :class:`~repro.streaming.serving.ShardedStream`'s, and
the ingest arithmetic reduces to the single-tenant shard's — so a
one-tenant front is **bit-identical** to the plain sharded path on both
transports (``tests/test_tenancy.py``, ``tests/test_sharded_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from .._validation import check_sequence, check_unit_xy_domain, check_vector, check_xy_block
from ..exceptions import ServingError, ShardUnavailableError, ValidationError
from ..geometry.base import ConvexSet
from ..privacy.parameters import PrivacyParams
from ..privacy.tree import MergedRelease
# Bound but never called here (the one merge lives in ShardFront):
# perfbench's tracer patches ``tenancy.merge_released`` by name.
from ..privacy.tree import merge_released  # noqa: F401
from .readers import EstimateHub, HubReads, ServedEstimate
from .serving import ShardFront

__all__ = ["MultiTenantStream", "TenantView"]

#: Ledger label of the shared Gram trees (parallel composition: one charge).
_GRAM_LABEL = "tenants:gram-moments(parallel)"


def _cross_label(name: str) -> str:
    """Ledger label of one tenant's cross-tree slot (charged and refunded)."""
    return f"tenant:{name}:cross-moments"


class TenantView(HubReads):
    """One tenant's read surface over a :class:`MultiTenantStream`.

    A thin, cheap facade bound to the tenant's own
    :class:`~repro.streaming.readers.EstimateHub`, exposing exactly the
    read API a single-tenant :class:`~repro.streaming.serving.ShardedStream`
    exposes — lock-free cached reads, per-reader handles, pub-sub, version
    waits — so per-tenant consumers never see the multi-tenancy.  Obtained
    from :meth:`MultiTenantStream.tenant`; stays readable (cache and
    stats) after the tenant is removed, though no further publish can
    arrive.
    """

    def __init__(self, name: str, hub: EstimateHub) -> None:
        self.name = name
        self.cache = hub

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TenantView(name={self.name!r}, version={self.cache.version})"


class MultiTenantStream(ShardFront):
    """The PRIMO serving front: ``k`` tenant models over one shared stream.

    Routes each incoming ``(x, y^{(1)}..y^{(k)})`` block round-robin to
    one of ``K`` :class:`~repro.streaming.serving.MomentShard` workers;
    the shard advances its **shared** Gram tree once and each active
    tenant's cross tree with that tenant's outcome column.  At refresh
    points the Gram releases are merged once and reused for every
    tenant's solve, so ingest and merge cost grow like ``d² + k·d``
    instead of the ``k·d²`` that ``k`` independent
    :class:`~repro.streaming.serving.ShardedStream` fronts pay
    (the ``primo`` scenario of ``benchmarks/bench_serving.py`` measures
    the gap).

    Everything that is not tenant-specific — the bundle layout, shard
    specs and served models, routing, horizon reservation, the ``mode``
    queue, group ingestion, refresh cadence, heartbeats and auto-restart,
    kill/restart, close, and the loss books — is
    :class:`~repro.streaming.serving.ShardFront`'s, shared with
    :class:`~repro.streaming.serving.ShardedStream`; this front adds the
    tenant lifecycle, its ledger labels and its ``(n, k)`` block check.
    The knobs below mean exactly what they mean there.

    Parameters
    ----------
    constraint:
        The constraint set ``C`` shared by every tenant's solver; fixes
        the dimension.
    params:
        The stream's total ``(ε, δ)`` budget — what one element's
        participation costs *in total*, across the shared Gram and every
        tenant slot (see :func:`~repro.privacy.parameters.tenant_budgets`).
    tenants:
        Initial tenants: an ``int k`` (named ``tenant-0..tenant-{k-1}``)
        or a sequence of unique non-empty names.
    shards:
        Number of shard workers ``K`` (disjoint routing, parallel
        composition — every shard runs at the full budget, exactly as
        the single-tenant front's default).
    horizon:
        Logical stream length ``T``; required (tenant shards are tree
        shards — the PRIMO layer assumes a known horizon).
    tenant_capacity:
        Concurrent-tenant slot count the budget is split across; defaults
        to the initial tenant count.  Fixed for the stream's lifetime —
        it is a privacy parameter (each element may meet up to this many
        cross trees), not a sizing hint.  Leave headroom only if tenants
        will be added at runtime; a larger capacity means a smaller
        per-tenant slot budget.
    decays:
        Declared γ groups for the shared Gram stream, default ``(1.0,)``
        (the plain group only).  Every element enters every group's Gram
        mechanism, so the gram half of the budget is split evenly across
        the groups (sequential composition) — declare only the γ values
        actually served.  Fixed for the stream's lifetime, like
        ``tenant_capacity``.
    tenant_decays:
        Per-tenant γ assignment for the *initial* tenants, aligned with
        ``tenants``; each entry must be a declared group.  ``None``
        assigns every tenant to ``decays[0]``.  A tenant's cross trees
        use its γ too, so its merged moments are consistently weighted;
        later :meth:`add_tenant` calls pick a group via their ``decay``
        argument.
    refresh_every:
        Merge + solve whenever the processed count crosses a multiple of
        this (and at the horizon); ``None`` refreshes every block.
    ingest:
        The summation order of each block's clean moment sums, as on the
        single-tenant front: ``"exact"`` (sequential, bit-identical to
        per-point ingestion) or ``"fast"`` (BLAS block totals).  Node
        noise is addressed by node, so both release the same noise.
    mode:
        ``"sync"``, ``"async"`` (enqueue and return; a worker thread
        ingests and refreshes) or ``"manual"`` (:meth:`pump`).
        :meth:`add_tenant` / :meth:`remove_tenant` first ingest every
        queued block, under the tenant set it was validated against.
    transport:
        ``"thread"`` (in-process shards), ``"process"`` (one
        interpreter per shard behind a pipe), or ``"tcp"`` (shards
        served by :class:`~repro.streaming.netserve.ShardHostListener`
        hosts, reachable cross-host).  Remote transports ship releases
        back as :class:`~repro.privacy.tree.ReleasedMoments` records,
        one per bundle entry; all transports build the same mechanisms from
        the same noise keys.
    request_timeout:
        Deadline in seconds on every shard RPC (remote transports only;
        same stuck-worker → :class:`~repro.exceptions.ShardTimeoutError`
        → partial-coverage semantics as
        :class:`~repro.streaming.serving.ShardedStream`).
    addresses:
        Shard host listener addresses (``transport="tcp"`` only); shard
        ``i`` connects to ``addresses[i % len(addresses)]``.  ``None``
        boots a private loopback listener owned by this stream.
    heartbeat_every, restart_policy:
        The health-check loop and ``"auto"`` restarts; a restarted shard
        comes back with the *current* tenants (fresh entries over a fresh
        sub-stream, like :meth:`restart_shard`).
    shard_horizon:
        Tree capacity per shard; defaults to ``horizon`` so any routing
        imbalance fits.
    beta, fidelity, iteration_cap:
        Forwarded to every tenant's default
        :class:`~repro.core.incremental_regression.PrivIncReg1` solver.
    rng:
        Seed or Generator.  Shard ``i``'s tenant trees are keyed by child
        ``2i`` of ``rng.spawn(2K)`` (tenant 0) plus its spawned siblings
        (tenants 1..k-1), and its Gram trees by child ``2i+1`` (group 0)
        plus its spawned siblings (groups 1..G-1) — the front draws each
        generator's two-word key and ships only the keys; each
        tenant's solver then spawns one child in tenant order.  For
        ``k = 1`` this is exactly the single-tenant front's consumption,
        which is what makes the one-tenant stream bit-identical to
        :class:`~repro.streaming.serving.ShardedStream`.
    """

    def __init__(
        self,
        constraint: ConvexSet,
        params: PrivacyParams,
        tenants,
        shards: int = 2,
        *,
        horizon: int | None = None,
        tenant_capacity: int | None = None,
        decays: "tuple[float, ...] | None" = None,
        tenant_decays=None,
        refresh_every: int | None = None,
        ingest: str = "exact",
        mode: str = "sync",
        transport: str = "thread",
        request_timeout: float | None = None,
        addresses=None,
        heartbeat_every: float | None = None,
        restart_policy: str = "never",
        shard_horizon: int | None = None,
        beta: float = 0.05,
        fidelity: str = "fast",
        iteration_cap: int = 400,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        knobs = dict(locals(), mechanism="tree", composition="parallel", router="round_robin")
        if horizon is None:
            raise ValidationError(
                "MultiTenantStream needs a horizon (tenant shards are tree "
                "shards; there is no horizon-free PRIMO serving path)"
            )
        # A shard may hold no tenant (a parked stream's restart); a front
        # starts with at least one.
        if not isinstance(tenants, (int, np.integer)):
            check_sequence("tenants", tenants, empty=False)
        super().__init__(constraint, params, shards, knobs)
        self.tenant_capacity = self._layout.capacity
        self.decays = self._layout.decays
        self._views = {name: TenantView(name, self._models[name].hub) for name in self._models}

    # ------------------------------------------------------------------
    # Front hooks
    # ------------------------------------------------------------------

    def _charge_ledger(self) -> None:
        # The shared Gram is one parallel-composition charge; each active
        # tenant holds one refundable slot charge.  Fully occupied, the
        # ledger sums back to `params`.
        self.accountant.charge(_GRAM_LABEL, self._layout.design_budget)
        for name in self._layout.tenants():
            self.accountant.charge(_cross_label(name), self._layout.slot_budget)

    def _validate_block(self, xs, ys) -> tuple[np.ndarray, np.ndarray]:
        """``(n, d)`` covariates and an ``(n, k)`` outcome block.

        One column per active tenant, in :meth:`tenants` order (a 1-D
        ``ys`` is accepted when there is exactly one tenant); one domain
        sweep covers all k columns: ``‖x‖ ≤ 1`` once, ``|y| ≤ 1`` over the
        flattened outcome block.
        """
        k = len(self._models)
        if k == 0:
            raise ServingError("no active tenants; add_tenant() before observing")
        xs, ys = check_xy_block(xs, ys, dim=self.dim, outcomes=k)
        check_unit_xy_domain("MultiTenantStream", xs, ys.ravel())
        return xs, ys

    def _served(self) -> dict[str, ServedEstimate]:
        return {name: view.current_served() for name, view in self._views.items()}

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------

    def tenants(self) -> tuple[str, ...]:
        """Active tenant names, in slot (merge) order."""
        return self._layout.tenants()

    def tenant(self, name: str) -> TenantView:
        """The read surface for one tenant (raises on unknown names)."""
        # One dict read: lock-free, and never torn by a concurrent remove.
        try:
            return self._views[str(name)]
        except KeyError:
            raise ValidationError(f"unknown tenant {name!r}") from None

    def add_tenant(self, name: str, decay: float | None = None) -> TenantView:
        """Attach a new tenant to a free capacity slot, mid-stream.

        The new tenant's cross entries start empty: its estimates cover
        only elements ingested after the add (the merge rescales the
        shared Gram to the tenant's own coverage); blocks queued before
        the add are ingested first, under the old tenant set.  ``decay``
        assigns the tenant to one of the stream's declared γ groups
        (default: the primary group); groups are fixed at construction.
        Charges the tenant's slot on the ledger; raises
        :class:`~repro.exceptions.PrivacyBudgetError` when every slot is
        occupied — capacity is a privacy bound, not a sizing hint.
        """
        with self._lock:
            self._raise_if_unusable()
            name, g = self._layout.admit(name, decay)
            self._drain_queue()
            self.accountant.charge(_cross_label(name), self._layout.slot_budget)
            # One fresh child per shard slot, spawned regardless of
            # liveness so the rng consumption (and with it every later
            # tenant's noise) never depends on failure history; each
            # shard gets the keys of the tenant's outcome entries.
            for shard, child in zip(self._shards, self._rng.spawn(self.shards_count)):
                keys = self._layout.outcome_keys(child)
                self._on_live_shard(shard, lambda s: s.add_tenant(name, keys, decay=g))
            self._layout.add(name, g)
            view = self._views[name] = TenantView(name, self._attach(name))
            return view

    def remove_tenant(self, name: str) -> None:
        """Retire a tenant: drop its entries, refund its slot on the ledger.

        Blocks queued before the removal are ingested first, under the old
        tenant set.  The refund is sound because the removed tenant's
        entries never ingest again — the ledger tracks the worst-case
        per-element loss of the stream *going forward* (see
        :meth:`~repro.privacy.accountant.PrivacyAccountant.refund`).  The
        tenant's :class:`TenantView` stays readable (cached estimates and
        stats survive) but receives no further publishes; parked
        ``wait_for_version`` callers are released with a
        :class:`~repro.exceptions.ServingError`.
        """
        with self._lock:
            self._raise_if_unusable()
            name = self._layout.known(name)
            self._drain_queue()
            self.accountant.refund(_cross_label(name))
            for shard in self._shards:
                self._on_live_shard(shard, lambda s: s.remove_tenant(name))
            self._models.pop(name).hub.close()
            self._views.pop(name)
            self._layout.remove(name)

    def _on_live_shard(self, shard, action) -> None:
        """Apply a tenant change to one live shard; book a death it reveals."""
        if not shard.alive:
            return
        try:
            action(shard)
        except ShardUnavailableError:
            self._note_shard_death(shard)

    # ------------------------------------------------------------------
    # Ingestion and reads
    # ------------------------------------------------------------------

    def observe(self, x: np.ndarray, ys) -> dict[str, np.ndarray]:
        """Ingest one point with one outcome per tenant (a block of one).

        ``ys`` is a length-``k`` sequence in :meth:`tenants` order (a
        bare scalar is accepted when there is exactly one tenant).
        Returns the cached per-tenant estimates.
        """
        x = check_vector("x", x, dim=self.dim)
        row = check_vector("ys", np.atleast_1d(ys), dim=len(self._models))
        return self.observe_batch(x[None, :], row[None, :])

    def estimates(self) -> dict[str, np.ndarray]:
        """Every tenant's cached parameter (lock-free reads, no solve)."""
        return {name: view.current_estimate() for name, view in self._views.items()}

    _cached = estimates

    def merged_moments(self, name: str) -> tuple[MergedRelease, MergedRelease]:
        """One tenant's merged (cross, gram) releases right now.

        Post-processing of already-released sums — free to call; the
        conformance suite compares these against per-shard replays and
        against the single-tenant front's merges.
        """
        with self._lock:
            reads = self._layout.reads(self._layout.known(name))
            merged = self._merge()
            return merged[reads["cross"]], merged[reads["gram"]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiTenantStream(tenants={len(self._models)}/"
            f"{self.tenant_capacity}, shards={self.shards_count}, "
            f"dim={self.dim}, horizon={self.horizon}, t={self._processed})"
        )
