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

from ..._validation import check_decay, check_int, check_sequence
from ...exceptions import (
    BundlePartialCommitError,
    PrivacyBudgetError,
    ValidationError,
)
from ...privacy.parameters import PrivacyParams, bundle_budgets, tenant_budgets
from ..backends import backend_declaration
from ...core.moments import MomentBundle, cross_statistic, gram_statistic

__all__ = ["MomentShard", "TenantLayout", "TenantShard"]


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


class TenantLayout:
    """The PRIMO bundle layout, defined once for the shard and the front.

    *Private Regression in Multiple Outcomes*: when ``k`` outcome streams
    share one covariate stream, the ``(d, d)`` second-moment statistic is
    the same for every tenant.  The layout privatizes it **once** per
    declared γ group and keeps one cheap ``(d,)`` cross entry per tenant:

    * entries, in bundle (advance and merge) order: ``gram:{γ}`` per group,
      then ``cross:{name}`` per tenant in slot order — the Gram entries
      lead, so they are the bundle's capacity guard;
    * budgets: :func:`~repro.privacy.parameters.tenant_budgets` gives the
      Gram half ``(ε/2, δ/2)``, independent of the tenant count, split
      evenly across the groups (every element enters every group:
      sequential composition), and one ``(ε/(2·cap), δ/(2·cap))`` slot
      per tenant — the per-element loss is at most
      ``ε/2 + cap·ε/(2·cap) = ε``, and slot reuse is sound because a
      removed tenant's entry never ingests again;
    * each entry's γ: a Gram entry its group's, a cross entry its tenant's
      group's, so a tenant's merged moments are consistently weighted.

    The constructor and :meth:`admit` hold every tenant check.  ``tenants``
    is a count ``k`` (named ``tenant-0..tenant-{k-1}``) or unique non-empty
    names (none only beside an explicit ``tenant_capacity``, the layout of
    a stream whose last tenant left); ``tenant_capacity`` defaults to the
    tenant count, ``decays`` to ``(1.0,)`` and ``tenant_decays`` to the
    first group.  For one tenant both budget pieces equal
    ``budget.halve()`` bit-exactly, which makes a ``k = 1`` multi-tenant
    stream bit-identical to the plain sharded path.
    """

    def __init__(
        self,
        budget: PrivacyParams,
        tenants,
        tenant_capacity: int | None = None,
        decays=None,
        tenant_decays=None,
    ) -> None:
        if isinstance(tenants, (int, np.integer)) and not isinstance(tenants, bool):
            tenants = [f"tenant-{i}" for i in range(check_int("tenants", tenants, minimum=1))]
        names = tuple(str(name) for name in check_sequence("tenants", tenants))
        # A named capacity lets a stream whose last tenant left rebuild a
        # shard over its Gram entries alone (the front's config names one).
        if not names and tenant_capacity is None:
            raise ValidationError("tenants must name at least one tenant")
        if len(set(names)) != len(names):
            raise ValidationError(f"tenant names must be unique, got {names!r}")
        if any(not name for name in names):
            raise ValidationError("tenant names must be non-empty")
        # One shared Gram entry per group, so a repeated γ would spend
        # Gram budget twice on the same weighting.
        groups = (1.0,) if decays is None else check_sequence("decays", decays, empty=False)
        self.decays = tuple(check_decay(f"decays[{i}]", g) for i, g in enumerate(groups))
        if len(set(self.decays)) != len(self.decays):
            raise ValidationError(f"decays entries must be distinct, got {self.decays!r}")
        if tenant_decays is None:
            tenant_decays = (self.decays[0],) * len(names)
        tenant_decays = tuple(map(self._group, check_sequence("tenant_decays", tenant_decays)))
        if len(tenant_decays) != len(names):
            raise ValidationError(
                f"need one decay per tenant: {len(names)} tenants, "
                f"{len(tenant_decays)} tenant_decays"
            )
        self.capacity = check_int(
            "tenant_capacity",
            len(names) if tenant_capacity is None else tenant_capacity,
            minimum=max(len(names), 1),
        )
        #: Tenant → γ group, in slot (merge) order.
        self.tenant_decay: dict[str, float] = dict(zip(names, tenant_decays))
        self.gram_budget, slots = tenant_budgets(budget, self.capacity)
        #: Every slot carries the same budget, so later adds reuse it.
        self.slot_budget = slots[0]

    def _group(self, decay) -> float:
        g = float(decay)
        if g not in self.decays:
            raise ValidationError(
                f"decay {g!r} is not a declared γ group (decays={self.decays!r}); "
                f"groups are fixed at construction — the gram budget is split "
                f"across them"
            )
        return g

    def config(self) -> dict:
        """The layout as a shard config (what a spec ships; restores it)."""
        return dict(
            tenants=self.tenants(),
            tenant_capacity=self.capacity,
            decays=self.decays,
            tenant_decays=tuple(self.tenant_decay.values()),
        )

    def tenants(self) -> tuple[str, ...]:
        """Active tenant names, in slot (merge) order."""
        return tuple(self.tenant_decay)

    def names(self) -> tuple[str, ...]:
        """The bundle's entry names, in bundle order."""
        grams = tuple(f"gram:{g}" for g in self.decays)
        return grams + tuple(f"cross:{name}" for name in self.tenant_decay)

    def reads(self, name: str) -> dict[str, str]:
        """The entries one tenant's solve reads, keyed ``cross`` and ``gram``."""
        return {"cross": f"cross:{name}", "gram": f"gram:{self.tenant_decay[name]}"}

    def known(self, name) -> str:
        """``name`` as an active tenant's name (raises on unknown names)."""
        name = str(name)
        if name not in self.tenant_decay:
            raise ValidationError(f"unknown tenant {name!r}")
        return name

    def admit(self, name, decay=None) -> tuple[str, float]:
        """Check one tenant add; return its ``(name, γ)`` without adding it.

        ``decay`` picks one of the declared groups (default: the first);
        a full layout raises :class:`~repro.exceptions.PrivacyBudgetError`
        — capacity is a privacy bound, not a sizing hint.
        """
        name = str(name)
        if not name:
            raise ValidationError("tenant names must be non-empty")
        g = self._group(self.decays[0] if decay is None else decay)
        if name in self.tenant_decay:
            raise ValidationError(f"tenant {name!r} already exists")
        if len(self.tenant_decay) >= self.capacity:
            raise PrivacyBudgetError(
                f"all {self.capacity} tenant slots are occupied; "
                f"remove a tenant before adding {name!r} (the slot budgets "
                f"are what keep the per-element loss within the total)"
            )
        return name, g

    def add(self, name, decay=None) -> str:
        """Admit a tenant into the next slot; return its name."""
        name, g = self.admit(name, decay)
        self.tenant_decay[name] = g
        return name

    def remove(self, name) -> str:
        """Retire a tenant, freeing its slot; return its name."""
        name = self.known(name)
        del self.tenant_decay[name]
        return name

    def cross(self, dim: int, name: str, rng) -> tuple:
        """One tenant's cross entry as :meth:`MomentBundle.add` arguments."""
        stat = cross_statistic(dim, name=f"cross:{name}", outcome=name)
        return stat, self.slot_budget, rng, _decay_knob(self.tenant_decay[name])

    def bundle(self, dim: int, rngs, mechanism: str, horizon: int | None) -> MomentBundle:
        """The bundle over ``rngs``: one per tenant, then one per γ group."""
        if mechanism != "tree":
            raise ValidationError(
                "tenant shards require mechanism='tree' (the PRIMO serving "
                "layer assumes a known horizon)"
            )
        names = self.tenants()
        if len(rngs) != len(names) + len(self.decays):
            raise ValidationError(
                f"need one rng per tenant and per γ group: {len(names)} "
                f"tenants, {len(self.decays)} groups, {len(rngs)} rngs"
            )
        group_budgets = self.gram_budget.split(len(self.decays))
        grams = [
            (gram_statistic(dim, name=f"gram:{g}"), budget, rng, _decay_knob(g))
            for g, budget, rng in zip(self.decays, group_budgets, rngs[len(names):])
        ]
        (stat, budget, rng, decay), *later = grams
        bundle = MomentBundle([stat], [budget], [rng], horizon=horizon, decay=decay)
        for entry in later + [self.cross(dim, n, r) for n, r in zip(names, rngs)]:
            bundle.add(*entry)
        return bundle


class TenantShard(MomentShard):
    """One multi-tenant shard: a :class:`MomentShard` over a :class:`TenantLayout`.

    ``config`` is the layout's (:meth:`TenantLayout.config`); ``rngs``
    holds one generator per tenant followed by one per γ group.  Ingesting
    ``(x, y_1..y_k)`` advances every Gram entry once and tenant ``j``'s
    cross entry with ``x·y_j``; the bundle's torn-bundle fault rule covers
    the tenants too.
    """

    def _build_bundle(self, rngs, decay, window) -> MomentBundle:
        self.layout = TenantLayout(self.budget, **self.config)
        return self.layout.bundle(self.dim, rngs, self.mechanism, self.shard_horizon)

    @property
    def gram(self):
        """The primary (group-0) shared Gram mechanism, or ``None`` if killed."""
        return self.bundle.get(f"gram:{self.layout.decays[0]}")

    @property
    def cross(self) -> dict:
        """Tenant → cross mechanism (diagnostics; values ``None`` once killed)."""
        return {name: self.bundle.get(f"cross:{name}") for name in self.layout.tenant_decay}

    def tenants(self) -> tuple[str, ...]:
        """Active tenant names, in the order merges index them."""
        return self.layout.tenants()

    def add_tenant(self, name: str, rng: np.random.Generator, decay: float | None = None) -> None:
        """Occupy a free capacity slot with a fresh cross entry for ``name``."""
        self.bundle.add(*self.layout.cross(self.dim, self.layout.add(name, decay), rng))

    def remove_tenant(self, name: str) -> None:
        """Retire ``name``'s cross entry, freeing its capacity slot."""
        self.bundle.remove(f"cross:{self.layout.remove(name)}")

    def ingest(self, xs: np.ndarray, ys, fast: bool) -> None:
        """Feed a routed block: every Gram entry once, each tenant's cross once.

        ``ys`` is the front-validated ``(n, k)`` outcome matrix, one column
        per active tenant in :meth:`tenants` order.
        """
        columns = np.asarray(ys, dtype=float).reshape(len(xs), -1).T
        super().ingest(xs, dict(zip(self.layout.tenant_decay, columns)), fast)
