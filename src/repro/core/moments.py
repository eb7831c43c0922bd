"""Moment bundles: named sets of privatized running statistics.

Every moment estimator in the library reduces its stream to *privatized
running moment statistics*: Step 1 of Algorithm 2 feeds ``Σ x y`` and
``Σ x xᵀ`` through one release mechanism each, two-stage least squares
needs three (ZᵀZ, ZᵀX, Zᵀy), and a multi-tenant shard one Gram entry per
γ group plus one cross entry per tenant.  This module is the one place
rows become those releases:

* :class:`MomentStatistic` — one named statistic: a shape, a per-element
  rule that writes a block's values into a fold buffer
  (``ingest="exact"``), a
  pre-reduced block-total rule (``ingest="fast"``), and a budget weight.
* :class:`MomentBundle` — an *ordered* set of statistics, each backed by
  its own release mechanism from
  :func:`~repro.privacy.release.make_release_mechanism`, advanced in
  lockstep over one (sub-)stream.

Everyone feeds a bundle the same way: commit a block through
:meth:`MomentBundle.ingest`, then read its mechanisms' releases.
The standalone estimators hold one bundle
(:class:`~repro.core.incremental_regression.PrivIncReg1` and its
siblings the default (cross, gram) pair,
:class:`~repro.core.priv_inc_iv.PrivIncIV` the (zz, zx, zy) triple),
commit up to each scheduled refresh in the exact tier and read each
mechanism's ``current_sum()`` there.
A serving shard holds the bundle its backend declares
(:mod:`repro.streaming.backends`), laid out for the front's outcomes by
:class:`~repro.streaming.serving.BundleLayout`, and commits it block by
block in the tier the front picked, and answers a merge with
:meth:`MomentBundle.released`.  Both paths build the same
mechanisms under the same keys — the estimator's rng children, or the
two-word keys the front draws from the same children and ships to its
shards — and the same float expressions, so a ``K = 1`` served stream
replays its standalone estimator bit for bit.

Fault semantics (the per-bundle accounting rule)
------------------------------------------------
:meth:`MomentBundle.ingest` materializes *every* statistic's input before
any mechanism advances, so all failures the library can raise
(validation, capacity) happen on the **first** entry, before anything is
consumed — the block-atomic no-consumption guarantee the front's refund
path relies on, unchanged from the two-tree days.  If a *later* entry
nevertheless fails after earlier entries committed (a torn bundle — e.g.
a mechanism poisoned mid-block), the bundle can no longer answer a
coverage-consistent merge: it discards its mechanisms and raises
:class:`~repro.exceptions.BundlePartialCommitError` (a
:class:`~repro.exceptions.ShardUnavailableError`), which the owning shard
converts into its own death.  Loss accounting then counts exactly the
shard's fully committed blocks: the torn block was never acknowledged, so
``lost_steps`` refunds stay per-bundle-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .._validation import check_release_knobs
from ..exceptions import BundlePartialCommitError, ValidationError
from ..privacy.release import make_release_mechanism
from ..privacy.tree import FoldBuffer

__all__ = [
    "MOMENT_SENSITIVITY",
    "MomentBundle",
    "MomentStatistic",
    "cross_statistic",
    "gram_statistic",
    "iv_statistics",
]

#: L2-sensitivity of every moment stream under the unit normalization.
MOMENT_SENSITIVITY = 2.0


@dataclass(frozen=True)
class MomentStatistic:
    """One named running statistic of a shard's sub-stream.

    Attributes
    ----------
    name:
        The statistic's name — the key merges, budgets, and accountant
        labels are indexed by (``"cross"``, ``"gram"``, ``"zz"``, ...).
    shape:
        Element shape of the statistic (the release mechanism's shape).
    values:
        Per-element rule ``(rows, ys, out=None) -> (k, *shape)``: the
        moment values a mechanism's ``advance_batch`` (the exact tier)
        consumes.  With ``out`` — a C-ordered float64 ``(k, *shape)``
        array, the rows of a :class:`~repro.privacy.tree.FoldBuffer` —
        the values are written there and ``out`` is returned; without it,
        into a fresh array.  Both forms hold the same bytes (one ufunc or
        ``einsum`` call, given ``out=``).
    total:
        Fast-tier rule ``(rows, ys, weights) -> shape``: the pre-reduced
        block total ``advance_sum`` consumes.  ``weights`` is the
        γ-weight vector ``γ^{k−1−i}`` when the bundle is decayed, else
        ``None`` (the plain one-product total).
    budget_weight:
        Relative share of the shard budget this statistic's mechanism
        receives (:func:`~repro.privacy.parameters.bundle_budgets`).
    """

    name: str
    shape: tuple[int, ...]
    values: Callable = field(repr=False)
    total: Callable = field(repr=False)
    budget_weight: float = 1.0


def cross_statistic(moment_dim: int) -> MomentStatistic:
    """The ``Σ x_i y_i`` statistic (``(m,)``) of the default bundle."""

    def values(rows, ys, out=None):
        return np.multiply(rows, ys[:, None], out=out)

    def total(rows, ys, weights):
        if weights is not None:
            return (weights * ys) @ rows
        return ys @ rows

    return MomentStatistic("cross", (moment_dim,), values, total)


def gram_statistic(moment_dim: int) -> MomentStatistic:
    """The ``Σ x_i x_iᵀ`` statistic (``(m, m)``) of the default bundle.

    The per-element outer products (here and in :func:`iv_statistics`)
    are one ``einsum``: one IEEE product per entry, like a broadcast
    multiply at about twice its speed.  Only an exact zero's sign can
    differ (``einsum`` writes ``0 + a·b``), and a sum of additions started
    from the ``+0`` prefix is never ``−0``, so no plain (γ = 1) sum sees it.
    """

    def values(rows, ys, out=None):
        return np.einsum("ij,ik->ijk", rows, rows, out=out)

    def total(rows, ys, weights):
        if weights is not None:
            return (weights[:, None] * rows).T @ rows
        return rows.T @ rows

    return MomentStatistic("gram", (moment_dim, moment_dim), values, total)


def iv_statistics(instruments: int, dim: int) -> tuple[MomentStatistic, ...]:
    """The (zz, zx, zy) bundle of private two-stage least squares.

    Rows are stacked ``[z | x]`` blocks of width ``instruments + dim``
    (the serving front routes them like any covariate block); each rule
    slices its factors back out.  Under ``‖z‖ ≤ 1, ‖x‖ ≤ 1, |y| ≤ 1``
    every statistic's element has norm at most 1, so the L2-sensitivity
    is the same Δ₂ = 2 the plain cross/gram calibration uses and the
    bundle budgeting, noise calibration, and merge rule carry over
    verbatim.
    """
    p = instruments

    def zz_values(rows, ys, out=None):
        z = rows[:, :p]
        return np.einsum("ij,ik->ijk", z, z, out=out)

    def zz_total(rows, ys, weights):
        z = rows[:, :p]
        if weights is not None:
            return (weights[:, None] * z).T @ z
        return z.T @ z

    def zx_values(rows, ys, out=None):
        return np.einsum("ij,ik->ijk", rows[:, :p], rows[:, p:], out=out)

    def zx_total(rows, ys, weights):
        z, x = rows[:, :p], rows[:, p:]
        if weights is not None:
            return (weights[:, None] * z).T @ x
        return z.T @ x

    def zy_values(rows, ys, out=None):
        return np.multiply(rows[:, :p], ys[:, None], out=out)

    def zy_total(rows, ys, weights):
        z = rows[:, :p]
        if weights is not None:
            return (weights * ys) @ z
        return ys @ z

    return (
        MomentStatistic("zz", (p, p), zz_values, zz_total),
        MomentStatistic("zx", (p, dim), zx_values, zx_total),
        MomentStatistic("zy", (p,), zy_values, zy_total),
    )


class MomentBundle:
    """An ordered set of named statistics, each behind its own mechanism.

    Parameters
    ----------
    statistics:
        The :class:`MomentStatistic` declarations, in advance order.  The
        first entry is the *guard*: it advances first every block, so all
        ordinary failures (validation, capacity — the entries run in step
        lockstep) surface before anything is consumed.
    budgets:
        One :class:`~repro.privacy.parameters.PrivacyParams` per entry
        (:func:`~repro.privacy.parameters.bundle_budgets`).
    rngs:
        One independent child generator, or its two-word key
        (:func:`~repro.privacy.tree.noise_key`), per entry, in entry order
        — the front spawns ``len(statistics)`` children per shard and
        ships their keys, so every transport builds the same mechanisms.
    mechanism, horizon, decay, window:
        Forwarded to :func:`~repro.privacy.release.make_release_mechanism`
        per entry, exactly as the historical inline pair construction.
        ``decay`` is the default forgetting factor of every entry;
        :meth:`add` may give a later entry its own.
    l2_sensitivity:
        Shared sensitivity of every entry's stream (Δ₂ = 2 under the unit
        normalizations all current statistics assume).

    Entries can be added and removed at runtime (:meth:`add`,
    :meth:`remove`) — the multi-tenant bundle attaches and retires one
    cross entry per tenant that way.
    """

    def __init__(
        self,
        statistics,
        budgets,
        rngs,
        *,
        mechanism: str = "tree",
        horizon: int | None = None,
        decay: float | None = None,
        window: "int | float | None" = None,
        l2_sensitivity: float = MOMENT_SENSITIVITY,
    ) -> None:
        statistics = tuple(statistics)
        budgets = tuple(budgets)
        rngs = tuple(rngs)
        if not statistics:
            raise ValidationError("a moment bundle needs at least one statistic")
        if len(budgets) != len(statistics) or len(rngs) != len(statistics):
            raise ValidationError(
                f"need one budget and one rng per statistic: "
                f"{len(statistics)} statistics, {len(budgets)} budgets, "
                f"{len(rngs)} rngs"
            )
        self.decay, self.window = check_release_knobs(decay, window)
        self._factory = dict(
            mechanism=mechanism,
            horizon=horizon,
            window=self.window,
            l2_sensitivity=l2_sensitivity,
        )
        self.statistics: tuple[MomentStatistic, ...] = ()
        self._mechanisms: dict[str, object] | None = {}
        self._decays: dict[str, float | None] = {}
        for stat, budget, rng in zip(statistics, budgets, rngs):
            self.add(stat, budget, rng, self.decay)

    @property
    def names(self) -> tuple[str, ...]:
        """The entry names, in declaration (advance and release) order."""
        return tuple(stat.name for stat in self.statistics)

    def add(self, stat: MomentStatistic, budget, rng, decay=None) -> None:
        """Append one entry behind a fresh mechanism (``decay=None``: plain)."""
        if self._mechanisms is None:
            raise ValidationError("cannot add to a killed moment bundle")
        if stat.name in self._mechanisms:
            raise ValidationError(
                f"bundle statistic names must be unique, got {stat.name!r} twice"
            )
        self._mechanisms[stat.name] = make_release_mechanism(
            shape=stat.shape, params=budget, rng=rng, decay=decay, **self._factory
        )
        self._decays[stat.name] = decay
        self.statistics += (stat,)

    def remove(self, name: str) -> None:
        """Retire one entry; its mechanism never ingests again."""
        if self._mechanisms is not None:
            del self._mechanisms[name]
        del self._decays[name]
        self.statistics = tuple(s for s in self.statistics if s.name != name)

    def get(self, name: str):
        """The named entry's mechanism, or ``None`` once killed."""
        if self._mechanisms is None:
            return None
        return self._mechanisms[name]

    def ingest(self, rows: np.ndarray, ys, fast: bool) -> None:
        """Advance every entry with one routed block, in declaration order.

        Every statistic's input is materialized *before* any mechanism
        advances; a first-entry failure therefore consumes nothing (the
        block stays refundable, the shard stays alive), while a
        later-entry failure after earlier commits tears the bundle — see
        the module docstring for the per-bundle fault rule.

        The exact tier builds each statistic's values straight into the
        rows of a :class:`~repro.privacy.tree.FoldBuffer` allocated for
        this block and hands it to the mechanism, which folds it where it
        lies: one block-sized array per statistic, never copied.
        """
        k = rows.shape[0]
        if fast:
            # One BLAS product per statistic; the mechanisms add the
            # totals and draw the same keyed node noise as the sequential
            # fold below.  A decayed entry
            # gets γ-weighted block totals — ``advance_sum``'s contract is
            # ``Σ γ^{k−1−i} v_i`` so the mechanism's internal fold
            # ``γ^k·prefix + total`` reproduces the sequential recursion.
            weights: dict[float, np.ndarray] = {}
            inputs = []
            for stat in self.statistics:
                decay = self._decays[stat.name]
                if decay is None or decay == 1.0:
                    weight = None
                else:
                    if decay not in weights:
                        weights[decay] = decay ** np.arange(k - 1, -1, -1, dtype=float)
                    weight = weights[decay]
                inputs.append(stat.total(rows, ys, weight))
            self._advance(inputs, lambda mech, total: mech.advance_sum(total, k))
        else:
            inputs = []
            for stat in self.statistics:
                buffer = FoldBuffer.empty(k, stat.shape)
                stat.values(rows, ys, out=buffer.rows)
                inputs.append(buffer)
            self._advance(inputs, lambda mech, buffer: mech.advance_batch(buffer))

    def _advance(self, inputs, advance) -> None:
        mechanisms = self._mechanisms
        if mechanisms is None:
            raise ValidationError("cannot ingest into a killed moment bundle")
        for position, (stat, payload) in enumerate(zip(self.statistics, inputs)):
            try:
                advance(mechanisms[stat.name], payload)
            except BaseException as exc:
                if position == 0:
                    # Nothing consumed: block-atomic, retry-safe.
                    raise
                self.kill()
                raise BundlePartialCommitError(
                    f"statistic {stat.name!r} failed after {position} of "
                    f"{len(self.statistics)} bundle entries committed this "
                    f"block; the bundle is torn and its mechanisms were "
                    f"discarded"
                ) from exc

    def released(self) -> tuple:
        """One :class:`~repro.privacy.tree.ReleasedMoments` record per
        entry, in declaration order (``None`` each once killed).

        What a merge reads (:func:`~repro.privacy.tree.merge_released`):
        each mechanism's ``released_moments()``, built without copying
        its release.
        """
        mechanisms = self._mechanisms
        if mechanisms is None:
            return (None,) * len(self.statistics)
        return tuple(mechanisms[stat.name].released_moments() for stat in self.statistics)

    def memory_floats(self) -> int:
        """Floats held by the bundle's mechanisms (0 once killed)."""
        if self._mechanisms is None:
            return 0
        return sum(
            mechanism.memory_floats() for mechanism in self._mechanisms.values()
        )

    def kill(self) -> None:
        """Drop every mechanism; the bundle's ingested mass is lost."""
        self._mechanisms = None

    def __len__(self) -> int:
        return len(self.statistics)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "killed" if self._mechanisms is None else "live"
        return f"MomentBundle(names={self.names!r}, {state})"
