"""The shard worker: one moment bundle over a routed sub-stream.

:class:`MomentShard` is the one shard class.  What it ingests is a backend
declaration (:mod:`repro.streaming.backends`): the declaration names the
bundle's statistics, sorts them into *design* statistics (they read only
the rows) and *outcome* statistics (they read ``y``), and gives the row
transform.  One :class:`BundleLayout` crosses those statistics with the
front's outcomes and γ groups: a :class:`~repro.streaming.serving.ShardedStream`
serves one anonymous outcome, whose bundle is the declared statistics
themselves, and a :class:`~repro.streaming.tenancy.MultiTenantStream`
serves named tenants, who share one design entry per γ group and own one
outcome entry each (the PRIMO bundle).  The shard owns the
:class:`~repro.core.moments.MomentBundle` — an ordered set of named
release mechanisms advanced in lockstep — the layout it was built from,
and the step/liveness books the serving front's loss accounting reads.

A shard gets keys, not generators: the front reads each entry's child
generator through :func:`~repro.privacy.tree.noise_key` and ships the
``(n, 2)`` ``uint64`` key array (:meth:`BundleLayout.keys`).  The
anonymous bundle is built with the same factory arguments, keys and
float expressions as the historical inline (cross, gram) pair, so it is
bit-identical under one seed on every transport.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..._validation import check_decay, check_int, check_sequence
from ...exceptions import (
    BundlePartialCommitError,
    PrivacyBudgetError,
    ValidationError,
)
from ...privacy.parameters import PrivacyParams, bundle_budgets, tenant_budgets
from ...privacy.tree import noise_key
from ..backends import backend_declaration
from ...core.moments import MomentBundle, MomentStatistic

__all__ = ["BundleLayout", "MomentShard", "TenantShard"]


class MomentShard:
    """One shard worker: an independent moment bundle over a sub-stream.

    Parameters
    ----------
    index, dim, budget:
        Shard position, estimand dimension, and the shard's ``(ε, δ)``,
        split across the bundle entries by the :class:`BundleLayout`
        (exactly ``budget.halve()`` per entry for the default pair).
    keys:
        One two-word noise key per bundle entry, in entry order: the
        ``(n, 2)`` ``uint64`` array of :meth:`BundleLayout.keys`.
    backend, config:
        The backend declaration's name and its shard config — plain data
        (e.g. the shared ``Φ`` matrix of the projected/sketch backends,
        the instrument count of the iv backend, and the tenant fields of
        :meth:`BundleLayout.config` when the front serves named tenants).
    mechanism, shard_horizon, decay, window:
        Release-mechanism knobs of every entry; the declaration's
        ``release_family`` (the sketch backend's ``"sketch"``) overrides
        ``mechanism`` while the knob itself keeps its value.  Tenant
        entries take their γ group's decay instead of ``decay``.

    ``ingest`` maps the routed block through the declaration's row
    transform, then advances the bundle (``advance_batch`` under
    ``ingest="exact"``, or one BLAS block total per statistic +
    ``advance_sum`` under ``ingest="fast"``).  Its ``ys`` is the outcome
    vector of the anonymous outcome, or the ``(n, k)`` outcome matrix with
    one column per tenant in slot order; every design entry advances once
    per block either way.
    Sensitivity is Δ₂ = 2 for every declared statistic, so the budget
    split, the noise calibration, and the merge rule are backend-agnostic.
    """

    def __init__(
        self,
        index: int,
        dim: int,
        budget: PrivacyParams,
        keys: np.ndarray,
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
        self.steps = 0
        self.alive = True
        #: Set once the front has credited this worker's ingested mass to
        #: its ``lost_steps`` ledger (see ShardedStream._note_shard_death).
        self.lost_accounted = False
        self._declaration = declaration = backend_declaration(backend)
        self.layout = BundleLayout(declaration, dim, self.config, budget, self.config)
        family = declaration.release_family or mechanism
        (stat, piece, key, first), *later = self.layout.entries(keys, decay, family)
        self.bundle = MomentBundle(
            [stat], [piece], [key], mechanism=family, horizon=shard_horizon,
            decay=first, window=window,
        )
        for entry in later:
            self.bundle.add(*entry)
        # This shard's released() answer, kept until its state next moves.
        self._released: tuple | None = None

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
        self._released = None
        rows = self._declaration.transform(self.config, xs)
        try:
            self.bundle.ingest(rows, self.layout.columns(ys), fast)
        except BundlePartialCommitError:
            self.alive = False
            raise
        self.steps += rows.shape[0]

    def add_tenant(self, name: str, keys: np.ndarray, decay: float | None = None) -> None:
        """Occupy a free capacity slot with outcome entries for ``name``,
        one per key (:meth:`BundleLayout.outcome_keys`)."""
        self._released = None
        for entry in self.layout.outcome_entries(name, keys, decay):
            self.bundle.add(*entry)

    def remove_tenant(self, name: str) -> None:
        """Retire ``name``'s outcome entries, freeing its capacity slot."""
        self._released = None
        for entry in self.layout.remove(name):
            self.bundle.remove(entry)

    def released(self) -> tuple:
        """One :class:`~repro.privacy.tree.ReleasedMoments` record per
        bundle entry, in bundle order (``None`` each once killed).

        What :func:`~repro.privacy.tree.merge_released` reads, on every
        transport: a remote worker answers the ``released`` command with
        exactly these records.  The answer is cached until this shard's
        next ingest, tenant add, tenant remove or kill, so repeat reads
        between those build nothing.
        """
        if self._released is None:
            self._released = self.bundle.released()
        return self._released

    def memory_floats(self) -> int:
        """Floats held by this shard's mechanisms (0 once killed).

        ``O(D² log T)`` per shard for ``D``-wide moments — ``m² log T``
        instead of ``d² log T`` under the projected backends.
        """
        if not self.alive:
            return 0
        return self.bundle.memory_floats()

    def kill(self) -> None:
        """Drop the mechanisms; the shard's ingested mass is lost."""
        self.alive = False
        self._released = None
        self.bundle.kill()

    def shutdown(self) -> None:
        """Transport-uniform teardown hook (nothing to release in-process)."""




def _decay_knob(g: float) -> float | None:
    """γ = 1 builds the plain tree (not a γ=1 decayed wrapper)."""
    return None if g == 1.0 else g


def _family_keys(rng: np.random.Generator, count: int) -> list:
    """The keys of ``count`` generators rooted at ``rng``: itself, then
    spawned siblings.

    Spawning advances ``rng``'s spawn counter, never its bit stream, so the
    first key is the same whatever ``count`` is.
    """
    return [noise_key(member) for member in (rng, *rng.spawn(max(count - 1, 0)))[:count]]


def _check_keys(keys, count: int) -> np.ndarray:
    """``keys`` if it is ``count`` noise keys: a ``(count, 2)`` ``uint64``
    array (keys arrive from peers)."""
    if not (
        isinstance(keys, np.ndarray) and keys.dtype == np.uint64 and keys.shape == (count, 2)
    ):
        raise ValidationError(
            f"need one noise key per entry, a ({count}, 2) uint64 array; got "
            f"{getattr(keys, 'dtype', type(keys).__name__)} of shape "
            f"{getattr(keys, 'shape', None)}"
        )
    return keys


def _for_outcome(stat: MomentStatistic, name: str) -> MomentStatistic:
    """``stat`` over the tenant ``name``'s column of a mapping of outcomes."""
    return dataclasses.replace(
        stat,
        name=f"{stat.name}:{name}",
        values=lambda rows, ys, out=None: stat.values(rows, ys[name], out),
        total=lambda rows, ys, weights: stat.total(rows, ys[name], weights),
    )


class BundleLayout:
    """The bundle layout every shard builds from and its front reads.

    It crosses a backend's declared statistics with the front's outcomes
    and γ groups, and gives the entry names, each entry's key, the
    budgets and each served model's reads.  ``outcomes`` is the mapping
    that may name tenants — the front's knobs, or a shard config carrying
    :meth:`config`.

    **One anonymous outcome** (no ``tenants`` key; the
    :class:`~repro.streaming.serving.ShardedStream` bundle): the entries
    are the declared statistics, in declared order and under their own
    names — ``(cross, gram)``, or iv's ``(zz, zx, zy)``; each takes the key
    of one rng child; budgets are :func:`~repro.privacy.parameters.bundle_budgets`'
    split by budget weight (equal halves, or iv's exact thirds); every
    entry runs the front's ``decay``/``window``; one served model reads
    every entry.

    **Named tenants** (PRIMO, *Private Regression in Multiple Outcomes*):
    when ``k`` outcome streams share one covariate stream, a design
    statistic is the same for every tenant, so it is privatized **once**
    per declared γ group while each tenant owns its outcome entries:

    * entries, in bundle (advance and merge) order: ``{design}:{γ}`` per
      design statistic and group, then ``{outcome}:{name}`` per tenant in
      slot order — the design entries lead, so they are the bundle's
      capacity guard;
    * keys: each declared statistic's child roots its entries — the child
      itself for the first group or tenant, spawned siblings for the rest,
      each read as its key (for the moment backend, the single-outcome
      front's cross and gram children, so tenant 0 and group 0 draw
      exactly the anonymous bundle's noise);
    * budgets: :func:`~repro.privacy.parameters.tenant_budgets` gives the
      design half ``(ε/2, δ/2)``, independent of the tenant count, split
      evenly across the design entries (every element enters every group:
      sequential composition), and one ``(ε/(2·cap), δ/(2·cap))`` slot per
      tenant, split across its outcome entries — the per-element loss is
      at most ``ε/2 + cap·ε/(2·cap) = ε``, and slot reuse is sound because
      a removed tenant's entries never ingest again;
    * each entry's γ: a design entry its group's, an outcome entry its
      tenant's group's, so a tenant's merged moments are consistently
      weighted; tenants need ``mechanism="tree"``;
    * each tenant is one served model reading its outcome entries and its
      group's design entries, keyed by statistic name.

    The constructor and :meth:`admit` hold every tenant check.  ``tenants``
    is a count ``k`` (named ``tenant-0..tenant-{k-1}``) or unique non-empty
    names (none only beside an explicit ``tenant_capacity``, the layout of
    a stream whose last tenant left); ``tenant_capacity`` defaults to the
    tenant count, ``decays`` to ``(1.0,)`` and ``tenant_decays`` to the
    first group.  For one moment-backend tenant both budget pieces equal
    ``budget.halve()`` bit-exactly, which makes a ``k = 1`` multi-tenant
    stream bit-identical to the plain sharded path.
    """

    def __init__(self, declaration, dim: int, config, budget: PrivacyParams, outcomes) -> None:
        self.statistics = tuple(declaration.statistics(dim, config))
        self.budget = budget
        #: Tenant → γ group in slot (merge) order; ``None`` for the
        #: anonymous outcome.
        self.tenant_decay: dict[str, float] | None = None
        tenants = outcomes.get("tenants")
        if tenants is None:
            self.names = tuple([s.name for s in self.statistics])
            return
        self._design = tuple(s for s in self.statistics if s.name in declaration.design)
        self._outcome = tuple(s for s in self.statistics if s.name not in declaration.design)
        if isinstance(tenants, (int, np.integer)) and not isinstance(tenants, bool):
            tenants = [f"tenant-{i}" for i in range(check_int("tenants", tenants, minimum=1))]
        # A named capacity lets a stream whose last tenant left rebuild a
        # shard over its design entries alone (the front's config names one).
        capacity = outcomes.get("tenant_capacity")
        tenants = check_sequence("tenants", tenants, empty=capacity is not None)
        names = tuple(str(name) for name in tenants)
        # One shared design entry per group, so a repeated γ would spend
        # design budget twice on the same weighting.
        decays = outcomes.get("decays")
        groups = (1.0,) if decays is None else check_sequence("decays", decays, empty=False)
        self.decays = tuple(check_decay(f"decays[{i}]", g) for i, g in enumerate(groups))
        if len(set(self.decays)) != len(self.decays):
            raise ValidationError(f"decays entries must be distinct, got {self.decays!r}")
        tenant_decays = outcomes.get("tenant_decays")
        if tenant_decays is None:
            tenant_decays = (self.decays[0],) * len(names)
        tenant_decays = check_sequence("tenant_decays", tenant_decays)
        if len(tenant_decays) != len(names):
            raise ValidationError(
                f"need one decay per tenant: {len(names)} tenants, "
                f"{len(tenant_decays)} tenant_decays"
            )
        self.capacity = check_int(
            "tenant_capacity",
            len(names) if capacity is None else capacity,
            minimum=max(len(names), 1),
        )
        self.design_budget, slots = tenant_budgets(budget, self.capacity)
        #: Every slot carries the same budget, so later adds reuse it.
        self.slot_budget = slots[0]
        self.tenant_decay = {}
        self._name_entries()
        for name, g in zip(names, tenant_decays):
            self.add(name, g)  # admit() refuses empty and repeated names

    def _group(self, decay) -> float:
        g = float(decay)
        if g not in self.decays:
            raise ValidationError(
                f"decay {g!r} is not a declared γ group (decays={self.decays!r}); "
                f"groups are fixed at construction — the design budget is split "
                f"across them"
            )
        return g

    def _name_entries(self) -> None:
        self.names = tuple(
            f"{s.name}:{g}" for s in self._design for g in self.decays
        ) + tuple(f"{s.name}:{t}" for t in self.tenant_decay for s in self._outcome)

    def config(self) -> dict:
        """The tenant fields a shard config carries (none for the anonymous outcome)."""
        if self.tenant_decay is None:
            return {}
        return dict(
            tenants=self.tenants(),
            tenant_capacity=self.capacity,
            decays=self.decays,
            tenant_decays=tuple(self.tenant_decay.values()),
        )

    def keys(self, children) -> np.ndarray:
        """One noise key per entry, in entry order, from one child generator
        per statistic: the ``(n, 2)`` ``uint64`` array a shard is built from."""
        if self.tenant_decay is None:
            keys = [noise_key(child) for child in children]
        else:
            k = len(self.tenant_decay)
            roots = {
                s.name: _family_keys(child, len(self.decays) if s in self._design else k)
                for s, child in zip(self.statistics, children)
            }
            keys = [key for s in self._design for key in roots[s.name]]
            keys += [roots[s.name][j] for j in range(k) for s in self._outcome]
        return np.array(keys, dtype=np.uint64).reshape(-1, 2)

    def outcome_keys(self, rng: np.random.Generator) -> np.ndarray:
        """A mid-stream tenant's outcome-entry keys, from one fresh generator."""
        return np.array(_family_keys(rng, len(self._outcome)), dtype=np.uint64)

    def entries(self, keys, decay, mechanism: str) -> list:
        """The bundle's entries as :meth:`MomentBundle.add` arguments, in order."""
        keys = _check_keys(keys, len(self.names))
        if self.tenant_decay is None:
            budgets = bundle_budgets(self.budget, tuple(s.budget_weight for s in self.statistics))
            return list(zip(self.statistics, budgets, keys, (decay,) * len(keys)))
        if mechanism != "tree":
            raise ValidationError(
                "tenant shards require mechanism='tree' (the PRIMO serving "
                "layer assumes a known horizon)"
            )
        design = [(s, g) for s in self._design for g in self.decays]
        pieces = self.design_budget.split(len(design))
        entries = [
            (dataclasses.replace(s, name=f"{s.name}:{g}"), piece, key, _decay_knob(g))
            for (s, g), piece, key in zip(design, pieces, keys)
        ]
        later = iter(keys[len(design) :])  # each tenant takes its next entries' keys
        for name in self.tenant_decay:
            entries += self._outcome_entries(name, later)
        return entries

    def outcome_entries(self, name, keys, decay=None) -> list:
        """Admit tenant ``name`` (a mid-stream add) over its outcome
        entries' keys; return its entries.  Bad keys admit nobody."""
        self.admit(name, decay)  # first: an anonymous outcome has no entries
        keys = _check_keys(keys, len(self._outcome))
        return self._outcome_entries(self.add(name, decay), keys)

    def _outcome_entries(self, name: str, keys) -> list:
        g = _decay_knob(self.tenant_decay[name])
        pieces = self.slot_budget.split(len(self._outcome))
        # The statistics lead the zip, so an iterator of keys gives up
        # exactly one per outcome statistic.
        return [
            (_for_outcome(s, name), piece, key, g)
            for s, piece, key in zip(self._outcome, pieces, keys)
        ]

    def columns(self, ys):
        """``ys`` as the statistics read it: the anonymous outcome vector
        itself, or the ``(n, k)`` matrix as one column per tenant by name."""
        if self.tenant_decay is None:
            return ys
        return dict(zip(self.tenant_decay, np.asarray(ys, dtype=float).reshape(len(ys), -1).T))

    def models(self) -> tuple:
        """The served models' keys: ``None`` for the anonymous outcome, else
        each tenant's name in slot order."""
        return (None,) if self.tenant_decay is None else self.tenants()

    def reads(self, key) -> dict[str, str]:
        """The entries one served model reads, keyed by statistic name in
        declared order (the first sizes the solve)."""
        if key is None:
            return {name: name for name in self.names}
        g = self.tenant_decay[key]
        return {
            s.name: f"{s.name}:{g}" if s in self._design else f"{s.name}:{key}"
            for s in self.statistics
        }

    def tenants(self) -> tuple[str, ...]:
        """Active tenant names, in slot (merge) order."""
        return tuple(self.tenant_decay or ())

    def known(self, name) -> str:
        """``name`` as an active tenant's name (raises on unknown names)."""
        name = str(name)
        if name not in (self.tenant_decay or ()):
            raise ValidationError(f"unknown tenant {name!r}")
        return name

    def admit(self, name, decay=None) -> tuple[str, float]:
        """Check one tenant add; return its ``(name, γ)`` without adding it.

        ``decay`` picks one of the declared groups (default: the first);
        a full layout raises :class:`~repro.exceptions.PrivacyBudgetError`
        — capacity is a privacy bound, not a sizing hint.
        """
        if self.tenant_decay is None:
            raise ValidationError("a bundle of one anonymous outcome has no tenants")
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
        self._name_entries()
        return name

    def remove(self, name) -> tuple[str, ...]:
        """Retire a tenant, freeing its slot; return its entry names."""
        name = self.known(name)
        del self.tenant_decay[name]
        self._name_entries()
        return tuple(f"{s.name}:{name}" for s in self._outcome)


class TenantShard(MomentShard):
    """The historical name of a :class:`MomentShard` serving named tenants.

    Nothing builds it: :class:`MomentShard` serves every layout.  The name
    stays importable (and patchable by perfbench's tracer) as a subclass
    without a body.
    """
