"""The ``(ε, δ)`` differential-privacy budget value type.

The paper works throughout with event-level ``(ε, δ)``-differential privacy
on streams (Definition 4): two streams are *neighbors* when they differ in a
single datapoint, and the whole output **sequence** of the mechanism must be
``(ε, δ)``-indistinguishable between neighbors.

:class:`PrivacyParams` is an immutable value object used everywhere a budget
is passed around.  It validates its fields eagerly, supports the halving /
splitting arithmetic used by Algorithms 2 and 3 (which split their budget
across two Tree Mechanism instances), and provides comparison helpers used
by the accountant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import check_int, check_positive, check_probability
from ..exceptions import ValidationError

__all__ = ["PrivacyParams", "bundle_budgets", "shard_budgets", "tenant_budgets"]


@dataclass(frozen=True, slots=True)
class PrivacyParams:
    """An immutable ``(ε, δ)`` differential-privacy budget.

    Parameters
    ----------
    epsilon:
        The privacy-loss bound ``ε > 0``.  Smaller is more private.
    delta:
        The failure probability ``δ ∈ (0, 1)``.  The paper's mechanisms all
        require ``δ > 0`` because they rely on the Gaussian mechanism and on
        advanced composition; pure ``δ = 0`` privacy is intentionally not
        representable here.

    Examples
    --------
    >>> budget = PrivacyParams(epsilon=1.0, delta=1e-6)
    >>> left, right = budget.split(2)
    >>> left.epsilon
    0.5
    """

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", check_positive("epsilon", self.epsilon))
        object.__setattr__(self, "delta", check_probability("delta", self.delta))

    def split(self, parts: int) -> tuple["PrivacyParams", ...]:
        """Split the budget evenly into ``parts`` independent budgets.

        By basic composition (Theorem A.3), running ``parts`` mechanisms each
        satisfying ``(ε/parts, δ/parts)``-DP yields ``(ε, δ)``-DP overall.
        This is exactly how Algorithms 2 and 3 divide their budget between
        the ``Σ x_i y_i`` tree and the ``Σ x_i x_iᵀ`` tree.
        """
        if not isinstance(parts, int) or parts < 1:
            raise ValueError(f"parts must be a positive integer, got {parts!r}")
        piece = PrivacyParams(self.epsilon / parts, self.delta / parts)
        return tuple(piece for _ in range(parts))

    def split_weighted(self, weights: "tuple[float, ...] | list[float]") -> tuple["PrivacyParams", ...]:
        """Split the budget into pieces proportional to positive ``weights``.

        Piece ``i`` receives ``(ε·wᵢ/Σw, δ·wᵢ/Σw)``; by basic composition
        (Theorem A.3) running one mechanism per piece recomposes to exactly
        the original ``(ε, δ)``.  This is the ε-split rule the sharded
        serving layer uses in its conservative ``composition="basic"`` mode,
        where shard ``i``'s expected load is ``wᵢ/Σw`` of the stream.
        """
        weights = list(weights)
        if not weights:
            raise ValidationError("weights must contain at least one entry")
        cleaned = [check_positive(f"weights[{i}]", w) for i, w in enumerate(weights)]
        total = sum(cleaned)
        return tuple(
            PrivacyParams(self.epsilon * w / total, self.delta * w / total)
            for w in cleaned
        )

    def halve(self) -> "PrivacyParams":
        """Return the ``(ε/2, δ/2)`` budget (the paper's ε′, δ′)."""
        return PrivacyParams(self.epsilon / 2.0, self.delta / 2.0)

    def scaled(self, factor: float) -> "PrivacyParams":
        """Return the budget with both parameters multiplied by ``factor``."""
        factor = check_positive("factor", factor)
        return PrivacyParams(self.epsilon * factor, min(self.delta * factor, 1 - 1e-15))

    def is_weaker_than(self, other: "PrivacyParams") -> bool:
        """True if this budget is component-wise at least as large as ``other``.

        A "weaker" guarantee allows more privacy loss; an algorithm proven
        ``other``-DP automatically satisfies any weaker budget.
        """
        return self.epsilon >= other.epsilon and self.delta >= other.delta

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"(ε={self.epsilon:.4g}, δ={self.delta:.3g})"


def shard_budgets(
    total: PrivacyParams, shards: int, composition: str = "parallel"
) -> tuple[PrivacyParams, ...]:
    """Per-shard budgets for a ``K``-way sharded stream.

    ``composition="parallel"`` (default): the serving layer routes each
    stream element to exactly one shard, so the shards' sub-streams are
    *disjoint*.  Changing one element of the logical stream changes one
    shard's transcript only, and the whole sharded release satisfies the
    same ``(ε, δ)`` each shard satisfies — parallel composition.  Every
    shard therefore receives the **full** budget, with no utility tax for
    sharding.

    ``composition="basic"``: each shard receives ``(ε/K, δ/K)``, which
    recomposes to ``(ε, δ)`` by basic composition (Theorem A.3) even if a
    single element could influence *every* shard.  Use this conservative
    mode when disjoint routing cannot be certified — e.g. key-based routing
    where a re-keyed neighboring stream may move an element across shards
    (changing two sub-streams at once).

    Uneven expected loads can instead use
    :meth:`PrivacyParams.split_weighted` directly.
    """
    shards = check_int("shards", shards, minimum=1)
    if composition == "parallel":
        return tuple(total for _ in range(shards))
    if composition == "basic":
        return total.split(shards)
    raise ValidationError(
        f"composition must be 'parallel' or 'basic', got {composition!r}"
    )


def bundle_budgets(
    total: PrivacyParams, weights: "tuple[float, ...] | list[float]"
) -> tuple[PrivacyParams, ...]:
    """Per-statistic budgets for one shard's moment bundle.

    A :class:`~repro.core.moments.MomentBundle` runs one release
    mechanism per named statistic over the *same* sub-stream, so the
    pieces compose sequentially: piece ``i`` receives
    ``(ε·wᵢ/Σw, δ·wᵢ/Σw)`` via :meth:`PrivacyParams.split_weighted` and
    the pieces recompose to exactly ``total`` (Theorem A.3 basic
    composition — the same argument Algorithms 2 and 3 make for their two
    trees).

    For the default two-entry (cross, gram) bundle at equal weights each
    piece is ``(ε·1/2, δ·1/2)``, which IEEE-754 evaluates bit-identically
    to the historical ``total.halve()`` (``x·1.0 == x``, then one shared
    division by 2) — the arithmetic fact the bundle refactor's
    bit-identity gate rests on.  A three-entry IV bundle at equal weights
    likewise lands on exact thirds.
    """
    return total.split_weighted(weights)


def tenant_budgets(
    total: PrivacyParams, capacity: int
) -> tuple[PrivacyParams, tuple[PrivacyParams, ...]]:
    """The PRIMO budget split: one shared Gram budget + per-tenant slots.

    When ``k`` outcome vectors share one covariate stream (PRIMO, *Private
    Regression in Multiple Outcomes*), the expensive ``(d, d)`` Gram
    statistic is computed and privatized **once** for all tenants, while
    each tenant only pays for its own cheap ``(d,)`` cross-moment tree.
    Returns ``(gram_budget, slot_budgets)`` where

    * ``gram_budget = total.halve()`` — the shared Gram tree runs at
      ``(ε/2, δ/2)`` **independent of the tenant count**, which is exactly
      the economy the multi-tenant serving layer exposes (per-tenant Gram
      release variance does not grow with ``k``);
    * ``slot_budgets`` splits the other half across ``capacity`` tenant
      slots via :meth:`PrivacyParams.split_weighted` (equal weights):
      each slot gets ``(ε/(2·capacity), δ/(2·capacity))``.

    Soundness is per-element composition: a stream element is ingested by
    the Gram tree once and by at most ``capacity`` concurrently active
    cross trees, so its privacy loss is at most
    ``ε/2 + capacity·ε/(2·capacity) = ε``.  A removed tenant's tree never
    ingests again, so handing its slot to a later tenant keeps the bound:
    no element is ever seen by two occupants of one slot.

    For ``capacity = 1`` both pieces equal ``total.halve()`` bit-exactly —
    the split a single-tenant :class:`~repro.streaming.serving.MomentShard`
    applies — which is what makes a ``k = 1`` multi-tenant stream
    bit-identical to the plain sharded path.
    """
    capacity = check_int("capacity", capacity, minimum=1)
    half = total.halve()
    return half, half.split_weighted([1.0] * capacity)
