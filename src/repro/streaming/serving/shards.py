"""The shard worker: one moment bundle over a routed sub-stream.

:class:`MomentShard` is the one shard class.  What it ingests is a backend
declaration (:mod:`repro.streaming.backends`): the declaration names the
bundle's statistics and the row transform, and the shard owns the
:class:`~repro.core.moments.MomentBundle` — an ordered set of named
release mechanisms advanced in lockstep — plus the step/liveness books
the serving front's loss accounting reads.  :class:`TenantShard` is the
same shard over the PRIMO bundle: one shared Gram entry per γ group plus
one cross entry per tenant, added and removed at runtime.

The default bundle is built with the same factory arguments, rng children,
and float expressions as the historical inline (cross, gram) pair, so it
is bit-identical under one seed on every transport.
"""

from __future__ import annotations

import numpy as np

from ...exceptions import (
    BundlePartialCommitError,
    PrivacyBudgetError,
    ValidationError,
)
from ...privacy.parameters import PrivacyParams, bundle_budgets, tenant_budgets
from ..backends import backend_declaration
from ...core.moments import MomentBundle, cross_statistic, gram_statistic
from .validation import _check_group, _check_tenants

__all__ = ["MomentShard", "TenantShard"]


class MomentShard:
    """One shard worker: an independent moment bundle over a sub-stream.

    Parameters
    ----------
    index, dim, budget:
        Shard position, estimand dimension, and the shard's ``(ε, δ)``
        (split across the bundle entries by
        :func:`~repro.privacy.parameters.bundle_budgets`, equal weights —
        exactly ``budget.halve()`` per entry for the default pair).
    rngs:
        One child generator per bundle entry, in entry order.
    backend, config:
        The backend declaration's name and its shard config (e.g. the
        shared ``Φ`` of the projected/sketch backends, the instrument
        count of the iv backend).
    mechanism, shard_horizon, decay, window:
        Release-mechanism knobs of every entry; the declaration's
        ``release_family`` (the sketch backend's ``"sketch"``) overrides
        ``mechanism`` while the knob itself keeps its value.

    ``ingest`` maps the routed block through the declaration's row
    transform, then advances the bundle (``advance_batch`` under
    ``ingest="exact"``, or one BLAS block total per statistic +
    ``advance_sum`` under ``ingest="fast"``).
    Sensitivity is Δ₂ = 2 for every declared statistic, so the budget
    split, the noise calibration, and the merge rule are backend-agnostic.
    """

    def __init__(
        self,
        index: int,
        dim: int,
        budget: PrivacyParams,
        rngs,
        *,
        backend: str = "moment",
        config: dict | None = None,
        mechanism: str = "tree",
        shard_horizon: int | None = None,
        decay: float | None = None,
        window: int | float | None = None,
    ) -> None:
        self.index = index
        self.dim = dim
        self.budget = budget
        self.backend = backend
        self.config = dict(config or {})
        self.mechanism = mechanism
        self.shard_horizon = shard_horizon
        self.steps = 0
        self.alive = True
        #: Set once the front has credited this worker's ingested mass to
        #: its ``lost_steps`` ledger (see ShardedStream._note_shard_death).
        self.lost_accounted = False
        self._declaration = backend_declaration(backend)
        self.bundle = self._build_bundle(tuple(rngs), decay, window)
        self.moment_dim = self.bundle.statistics[0].shape[0]

    def _build_bundle(self, rngs, decay, window) -> MomentBundle:
        """The declared bundle, one factory call per statistic."""
        declaration = self._declaration
        statistics = declaration.statistics(self.dim, self.config)
        return MomentBundle(
            statistics,
            bundle_budgets(self.budget, tuple(s.budget_weight for s in statistics)),
            rngs,
            mechanism=declaration.release_family or self.mechanism,
            horizon=self.shard_horizon,
            decay=decay,
            window=window,
        )

    @property
    def projection(self):
        """The shared projection ``Φ`` of the projected backends (or ``None``)."""
        return self.config.get("projection")

    @property
    def cross(self):
        """The cross-moment mechanism (``None`` once killed; diagnostics)."""
        return self.bundle.get("cross")

    @property
    def gram(self):
        """The second-moment mechanism (``None`` once killed; diagnostics)."""
        return self.bundle.get("gram")

    def ingest(self, xs: np.ndarray, ys, fast: bool) -> None:
        """Feed a routed block to the moment bundle.

        Every bundle input is materialized *before* any mechanism
        advances: with the block pre-validated (finite, unit-normalized)
        and the mechanisms in step-lockstep, every failure the library can
        raise (validation, capacity) then happens before anything mutates
        — the no-consumption guarantee the front's refund path relies on.
        If a later bundle entry nevertheless fails after an earlier one
        committed, the bundle is torn: this shard marks itself dead and
        the :class:`~repro.exceptions.BundlePartialCommitError` (a
        ``ShardUnavailableError``) folds it into the partial-coverage
        fault path, with only the fully committed blocks counted into
        ``steps`` (and hence ``lost_steps``).
        """
        rows = self._declaration.transform(self.config, xs)
        try:
            self.bundle.ingest(rows, ys, fast)
        except BundlePartialCommitError:
            self.alive = False
            raise
        self.steps += rows.shape[0]

    def released(self):
        """The bundle's merge handles for :func:`~repro.privacy.tree.merge_released`.

        One handle per bundle entry, in bundle order.  In-process shards
        hand over their **live** mechanisms (zero-copy); the remote
        transports ship :class:`~repro.privacy.tree.ReleasedMoments`
        snapshots of the same
        handles, and ``merge_released`` accepts both interchangeably.
        """
        return self.bundle.released()

    def memory_floats(self) -> int:
        """Floats held by this shard's mechanisms (0 once killed).

        ``O(moment_dim² log T)`` per shard — ``m² log T`` instead of
        ``d² log T`` under the projected backends.
        """
        if not self.alive:
            return 0
        return self.bundle.memory_floats()

    def kill(self) -> None:
        """Drop the mechanisms; the shard's ingested mass is lost."""
        self.alive = False
        self.bundle.kill()

    def shutdown(self) -> None:
        """Transport-uniform teardown hook (nothing to release in-process)."""


def _decay_knob(g: float) -> float | None:
    """γ = 1 builds the plain tree (not a γ=1 decayed wrapper)."""
    return None if g == 1.0 else g


class TenantShard(MomentShard):
    """One multi-tenant shard: **shared** Gram entries + per-tenant crosses.

    The PRIMO shard (*Private Regression in Multiple Outcomes*): when
    ``k`` outcome streams share one covariate stream, the expensive
    ``(d, d)`` second-moment statistic is identical for every tenant, so
    this shard privatizes it **once** per declared γ group — at an equal
    split of ``(ε/2, δ/2)``, independent of the tenant count — and keeps
    only a cheap ``(d,)`` cross entry per tenant, each at a
    ``(ε/(2·cap), δ/(2·cap))`` slot of the other half
    (:func:`~repro.privacy.parameters.tenant_budgets`).  Ingesting
    ``(x, y_1..y_k)`` advances every Gram entry once and tenant ``j``'s
    cross entry with ``x·y_j``, so the per-element privacy loss is at most
    ``ε/2 + cap·ε/(2·cap) = ε``.

    ``config`` carries ``tenants`` (names), ``tenant_capacity`` (default:
    the tenant count), ``decays`` (γ groups, default ``(1.0,)``) and
    ``tenant_decays`` (each tenant's group, default the first); ``rngs``
    holds one generator per tenant followed by one per γ group.  The Gram
    entries are declared first, so — never behind any cross entry in
    step count — they are the bundle's capacity guard, and the bundle's
    torn-bundle fault rule covers tenants too.

    Slot reuse is sound because a removed tenant's entry never ingests
    again.  For a single tenant both budget pieces equal
    ``budget.halve()`` bit-exactly and every entry's arithmetic is
    :class:`MomentShard`'s, which makes a ``k = 1`` multi-tenant stream
    bit-identical to the plain sharded path under the same rng children.
    """

    def __init__(
        self,
        index: int,
        dim: int,
        budget: PrivacyParams,
        rngs,
        *,
        config: dict | None = None,
        mechanism: str = "tree",
        **knobs,
    ) -> None:
        if mechanism != "tree":
            raise ValidationError(
                "TenantShard requires mechanism='tree' (the PRIMO serving "
                "layer assumes a known horizon)"
            )
        config = dict(config or {})
        names, self.tenant_capacity, self.decays, tenant_decays = _check_tenants(
            config.get("tenants", ()),
            config.get("tenant_capacity"),
            config.get("decays"),
            config.get("tenant_decays"),
        )
        #: Tenant → γ group, in the order merges index the cross entries.
        self.tenant_decay: dict[str, float] = dict(zip(names, tenant_decays))
        super().__init__(
            index, dim, budget, rngs, config=config, mechanism=mechanism, **knobs
        )

    def _build_bundle(self, rngs, decay, window) -> MomentBundle:
        """Gram entries per γ group first, then one cross entry per tenant."""
        names = tuple(self.tenant_decay)
        if len(rngs) != len(names) + len(self.decays):
            raise ValidationError(
                f"need one rng per tenant and per γ group: {len(names)} "
                f"tenants, {len(self.decays)} groups, {len(rngs)} rngs"
            )
        gram_budget, slot_budgets = tenant_budgets(self.budget, self.tenant_capacity)
        #: Every slot carries the same budget; kept for later adds.
        self._slot_budget = slot_budgets[0]
        # Every element enters every group, so the groups compose
        # sequentially — split(1) leaves the single plain group at the
        # historical budget bit-exactly.
        group_budgets = gram_budget.split(len(self.decays))
        group_rngs = rngs[len(names):]
        first = self.decays[0]
        bundle = MomentBundle(
            [gram_statistic(self.dim, name=f"gram:{first}")],
            group_budgets[:1],
            group_rngs[:1],
            horizon=self.shard_horizon,
            decay=_decay_knob(first),
        )
        for g, g_budget, g_rng in zip(self.decays[1:], group_budgets[1:], group_rngs[1:]):
            bundle.add(gram_statistic(self.dim, name=f"gram:{g}"), g_budget, g_rng, _decay_knob(g))
        self.bundle = bundle
        for name, rng in zip(names, rngs):
            self._add_cross(name, rng)
        return bundle

    def _add_cross(self, name: str, rng) -> None:
        self.bundle.add(
            cross_statistic(self.dim, name=f"cross:{name}", outcome=name),
            self._slot_budget,
            rng,
            _decay_knob(self.tenant_decay[name]),
        )

    @property
    def gram(self):
        """The primary (group-0) shared Gram mechanism, or ``None`` if killed."""
        return self.bundle.get(f"gram:{self.decays[0]}")

    @property
    def cross(self) -> dict:
        """Tenant → cross mechanism (diagnostics; values ``None`` once killed)."""
        return {name: self.bundle.get(f"cross:{name}") for name in self.tenant_decay}

    def tenants(self) -> tuple[str, ...]:
        """Active tenant names, in the order merges index them."""
        return tuple(self.tenant_decay)

    def add_tenant(self, name: str, rng: np.random.Generator, decay: float | None = None) -> None:
        """Occupy a free capacity slot with a fresh cross entry for ``name``.

        ``decay`` assigns the tenant to one of the shard's declared γ
        groups (default: the primary group); its cross entry uses the same
        weighting, so the tenant's merged moments stay consistent.
        """
        name = str(name)
        if name in self.tenant_decay:
            raise ValidationError(f"tenant {name!r} already exists")
        if len(self.tenant_decay) >= self.tenant_capacity:
            raise PrivacyBudgetError(
                f"all {self.tenant_capacity} tenant slots are occupied; "
                f"remove a tenant before adding {name!r} (the slot budgets "
                f"are what keep the per-element loss within the total)"
            )
        g = self.decays[0] if decay is None else float(decay)
        _check_group(g, self.decays)
        self.tenant_decay[name] = g
        self._add_cross(name, rng)

    def remove_tenant(self, name: str) -> None:
        """Retire ``name``'s cross entry, freeing its capacity slot."""
        name = str(name)
        if name not in self.tenant_decay:
            raise ValidationError(f"unknown tenant {name!r}")
        self.bundle.remove(f"cross:{name}")
        del self.tenant_decay[name]

    def ingest(self, xs: np.ndarray, ys, fast: bool) -> None:
        """Feed a routed block: every Gram entry once, each tenant's cross once.

        ``ys`` is the ``(n, k)`` outcome matrix, one column per active
        tenant in :meth:`tenants` order.
        """
        Y = np.asarray(ys, dtype=float)
        if Y.ndim == 1:
            Y = Y[:, None]
        k = len(self.tenant_decay)
        if Y.shape != (xs.shape[0], k):
            raise ValidationError(
                f"outcome block must have shape ({xs.shape[0]}, {k}) — one "
                f"column per active tenant — got {Y.shape}"
            )
        super().ingest(xs, dict(zip(self.tenant_decay, Y.T)), fast)
