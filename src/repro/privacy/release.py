"""The release-mechanism boundary: decayed, windowed and sketch-side sums.

Every moment-carrying layer of the library — the ``core/`` estimators,
the serving shards, the merge rule, the wire format — talks to its noise
source through one implicit surface: ``observe`` / ``observe_batch`` /
``advance_sum`` / ``current_sum`` / ``release_noise_variance`` /
``released_moments`` / ``steps_taken``.  This module makes that surface
explicit as the :class:`ReleaseMechanism` protocol, and
:func:`make_release_mechanism` is the one place a moment layer's knobs
pick a member:

* :class:`~repro.privacy.tree.TreeMechanism` and, under ``decay=γ``,
  :class:`~repro.privacy.tree.DecayedTreeMechanism` — exponentially
  forgotten private sums ``Σ_{i≤t} γ^{t−i} υ_i``, bit-identical to the
  plain tree at ``γ = 1``;
* the chunked mechanisms of :mod:`repro.privacy.chunked` —
  :class:`~repro.privacy.chunked.HybridMechanism` (doubling chunks, no
  horizon) and :class:`~repro.privacy.chunked.SlidingWindowMechanism`
  (fixed chunks that expire past ``W``; ``window = inf`` is one chunk,
  bit-identical to the plain tree).

The decayed and windowed members report their :attr:`~ReleaseMechanism
.effective_weight` — ``Σ γ^{t−i} = (1−γ^t)/(1−γ)`` and the covered
window count respectively — which flows through the
:class:`~repro.privacy.tree.ReleasedMoments` record into
:func:`~repro.privacy.tree.merge_released` so cross-shard merges of
weighted moments keep the variance ledger and the estimators' logical
``t`` correct.

The last member, :class:`SketchNoiseMechanism`, carries the
**sketch-side** noise model of *Private Sketches for Linear Regression*
(PAPERS.md): no tree at all — the exact running sum of the (sketched)
moment stream plus **one fresh Gaussian draw per ingested block**, added
at ingest time.  Each stream element lives in exactly one block, so the
per-block Gaussian mechanism at the Step-4-pinned sensitivity composes
in parallel across blocks and the whole release sequence is ``(ε, δ)``-
DP; every later read is post-processing of the already-noisy block
totals.  The released noise variance is ``draws · σ²_block`` — it grows
with the number of *blocks*, not ``popcount(t)`` tree nodes, which is
why batch serving with large blocks beats tree noise and per-point
streaming loses to it (see ``docs/SERVING.md`` §"Sketch backend").
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

import numpy as np

from .._validation import check_int, check_positive, check_release_knobs
from ..exceptions import ValidationError
from .chunked import HybridMechanism, SlidingWindowMechanism
from .parameters import PrivacyParams
from .tree import (
    DecayedTreeMechanism,
    TreeMechanism,
    _check_room,
    _check_square,
    _node_sigma,
    _record,
    coerce_stream_block,
    coerce_stream_element,
    noise_key,
)

__all__ = [
    "ReleaseMechanism",
    "DecayedTreeMechanism",
    "SketchNoiseMechanism",
    "SlidingWindowMechanism",
    "make_release_mechanism",
]


@runtime_checkable
class ReleaseMechanism(Protocol):
    """The moment-release surface every noise source implements.

    This is the contract the estimators and serving shards were already
    written against implicitly — extracted so new release semantics
    (decay, windows, sketch-side noise) plug in without touching the
    layers above.  Implementations:
    :class:`~repro.privacy.tree.TreeMechanism`,
    :class:`~repro.privacy.tree.DecayedTreeMechanism`,
    :class:`~repro.privacy.chunked.HybridMechanism`,
    :class:`~repro.privacy.chunked.SlidingWindowMechanism`,
    :class:`SketchNoiseMechanism`.

    ``advance_batch`` (and ``advance_sum``, where a member accepts block
    totals) commits a block and returns ``None``; :meth:`current_sum` is
    the one read.  A tree computes its release there, on the first read
    after a commit (:mod:`repro.privacy.tree`), so a block nobody reads
    releases nothing.  ``observe`` / ``observe_batch`` return the release
    after every element they ingest.

    :meth:`released_moments` is what leaves a mechanism for a merge: a
    frozen :class:`~repro.privacy.tree.ReleasedMoments` record of the
    current sum, its noise variance, the step count and the effective
    weight, built without copying the sum (a tree shares its cached,
    read-only release; the other members freeze the fresh array their
    read returns).  :func:`~repro.privacy.tree.merge_released` takes
    only records.

    ``isinstance(obj, ReleaseMechanism)`` checks the surface structurally
    (``runtime_checkable`` protocols check attribute presence, not
    signatures).
    """

    shape: tuple[int, ...]
    steps_taken: int

    def observe(self, value) -> np.ndarray: ...

    def observe_batch(self, values) -> np.ndarray: ...

    def advance_batch(self, values) -> None: ...

    def current_sum(self) -> np.ndarray: ...

    def release_noise_variance(self) -> float: ...

    def released_moments(self): ...

    def memory_floats(self) -> int: ...

    @property
    def effective_weight(self) -> float: ...


class SketchNoiseMechanism:
    """Continual private sums with **per-block sketch-side** noise.

    The release model of *Private Sketches for Linear Regression*
    (PAPERS.md) adapted to continual release: keep the **exact** running
    sum of the (sketched) moment stream and add **one fresh Gaussian
    draw per ingested block**, at ingest time, calibrated like a single
    tree node (``levels = 1``):

        ``σ_block = Δ₂ · sqrt(2 ln(2/δ)) / ε``.

    Privacy: the mechanism's transcript is the sequence of noisy block
    totals (all later releases are their running sums — post-processing).
    One stream element changes exactly **one** block total, by at most
    the Step-4-pinned ``Δ₂``, so each block is a plain ``(ε, δ)``
    Gaussian mechanism and parallel composition over the disjoint blocks
    keeps the entire stream at one ``(ε, δ)`` — no ``levels`` factor
    anywhere.

    Utility: the released noise variance is ``draws · σ²_block`` where
    ``draws`` counts ingested blocks, reported exactly by
    :meth:`release_noise_variance`.  Large-block serving therefore beats
    the tree (few draws, each ``levels²`` cheaper); per-point streaming
    (``t`` draws by step ``t``) loses to the tree's ``popcount(t)``
    nodes.  That trade is the point: serving shards ingest in blocks.

    Determinism: the noise is keyed, like the tree's node noise.  Block
    ``b`` (the ``b``-th draw, counted from 0) draws ``N(0, σ²_block I)``
    from ``Philox(key, counter=[0, 0, b, 0])``, where ``key`` is the
    two-word key of ``rng`` (:func:`~repro.privacy.tree.noise_key`), so the
    mechanism is a pure function of its key and its blocks.
    :meth:`observe_batch` makes each element its own block, exactly like
    ``k`` sequential :meth:`observe` calls, and :meth:`advance_batch` /
    :meth:`advance_sum` draw **one** block each, so the exact and fast
    serving tiers release identical noise and differ only in the float
    summation order of the exact block totals.

    Parameters
    ----------
    horizon:
        Capacity cap ``T`` (blocks can never cover more elements).
    shape, l2_sensitivity, params, rng:
        As in :class:`~repro.privacy.tree.TreeMechanism`.
    """

    def __init__(
        self,
        horizon: int,
        shape: tuple[int, ...],
        l2_sensitivity: float,
        params: PrivacyParams,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.horizon = check_int("horizon", horizon, minimum=1)
        self.shape = tuple(int(s) for s in shape)
        self.l2_sensitivity = check_positive("l2_sensitivity", l2_sensitivity)
        self.params = params
        self._key = noise_key(rng)
        self._flat_dim = int(np.prod(self.shape)) if self.shape else 1
        self.sigma_block = _node_sigma(1, self.l2_sensitivity, params)
        self.steps_taken = 0
        self.noise_draws = 0
        self._sum = np.zeros(self._flat_dim)
        # One Philox generator, moved to each block's counter by a state
        # assignment (cheaper than building a generator per block).
        self._counter = np.zeros(4, dtype=np.uint64)
        self._noise_state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._noise_gen = np.random.Generator(np.random.Philox(key=self._key))

    def _ingest_total(self, total_flat: np.ndarray) -> None:
        """Fold one block total into the sum with the next block's keyed
        noise, drawn from ``Philox(key, counter=[0, 0, b, 0])``."""
        self._counter[2] = self.noise_draws
        self._noise_gen.bit_generator.state = self._noise_state
        noise = self._noise_gen.standard_normal(self._flat_dim)
        noise *= self.sigma_block
        self._sum = self._sum + total_flat + noise
        self.noise_draws += 1

    # ------------------------------------------------------------------
    # Core streaming API (the ReleaseMechanism surface)
    # ------------------------------------------------------------------

    def observe(self, value: np.ndarray | float) -> np.ndarray:
        """Ingest one element as its own block; return the noisy sum."""
        array = coerce_stream_element(value, self.shape)
        _check_room(self, 1)
        self._ingest_total(array.reshape(self._flat_dim))
        self.steps_taken += 1
        return self.current_sum()

    def observe_batch(self, values: np.ndarray) -> np.ndarray:
        """Ingest ``k`` elements one block each; return all ``k`` sums."""
        array = coerce_stream_block(values, self.shape)
        k = array.shape[0]
        _check_room(self, k)
        flat = array.reshape(k, self._flat_dim)
        releases = np.empty((k, self._flat_dim))
        for r in range(k):
            self._ingest_total(flat[r])
            self.steps_taken += 1
            releases[r] = self._sum
        return releases.reshape((k,) + self.shape)

    def advance_batch(self, values: np.ndarray) -> None:
        """Ingest a block (one noise draw); :meth:`current_sum` reads it."""
        array = coerce_stream_block(values, self.shape)
        k = array.shape[0]
        _check_room(self, k)
        self._ingest_total(array.reshape(k, self._flat_dim).sum(axis=0))
        self.steps_taken += k

    def advance_sum(self, total: np.ndarray | float, count: int) -> None:
        """Ingest a pre-reduced block total of ``count`` elements."""
        total_flat = coerce_stream_element(total, self.shape)
        count = check_int("count", count, minimum=1)
        _check_room(self, count)
        self._ingest_total(total_flat.reshape(self._flat_dim))
        self.steps_taken += count

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def current_sum(self) -> np.ndarray:
        """The latest noisy sum (post-processing, free)."""
        return self._sum.reshape(self.shape).copy()

    def release_noise_variance(self) -> float:
        """Per-coordinate variance of the current release: ``draws·σ²``."""
        return float(self.noise_draws) * self.sigma_block**2

    def released_moments(self):
        """The current release as a record around the fresh array
        :meth:`current_sum` returns (frozen, not copied)."""
        return _record(self)

    @property
    def effective_weight(self) -> float:
        """Total weight of the covered elements — the raw count."""
        return float(self.steps_taken)

    def error_bound(self, beta: float = 0.05) -> float:
        """High-probability error radius at the capacity draw count.

        A configuration constant (like the tree's horizon-based bound):
        the worst case is one block per element — ``horizon`` independent
        draws — giving total scale ``σ_block·√T`` and radius
        ``σ_block·√T·(√d + √(2 ln(1/β)))``.  Callers that ingest in
        blocks of ``B`` enjoy a ``√B`` smaller radius; this bound never
        understates.
        """
        sigma_total = self.sigma_block * math.sqrt(self.horizon)
        return sigma_total * (
            math.sqrt(self._flat_dim) + math.sqrt(2.0 * math.log(1.0 / beta))
        )

    def error_bound_spectral(self, beta: float = 0.05) -> float:
        """Spectral-norm error radius (square-matrix streams only)."""
        side = _check_square(self.shape)
        entry_sigma = self.sigma_block * math.sqrt(self.horizon)
        return entry_sigma * (
            2.0 * math.sqrt(side)
            + math.sqrt(2.0 * math.log(1.0 / beta))
        )

    def memory_floats(self) -> int:
        """Floats held: one running sum — no tree, no ring."""
        return self._flat_dim

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SketchNoiseMechanism(horizon={self.horizon}, shape={self.shape}, "
            f"params={self.params}, sigma_block={self.sigma_block:.4g}, "
            f"draws={self.noise_draws}, steps={self.steps_taken})"
        )


def make_release_mechanism(
    *,
    shape: tuple[int, ...],
    l2_sensitivity: float,
    params: PrivacyParams,
    rng: np.random.Generator | int | None = None,
    mechanism: str = "tree",
    horizon: int | None = None,
    decay: float | None = None,
    window: int | float | None = None,
) -> "ReleaseMechanism":
    """Build the release mechanism a moment layer's knobs select.

    The single construction point behind every estimator and serving
    shard: ``mechanism`` picks the base family (``"tree"`` and
    ``"sketch"`` need ``horizon``; ``"hybrid"`` is horizon-free),
    ``decay`` switches to exponential forgetting (γ-weighted tree nodes,
    or a decayed hybrid), and ``window`` switches to hard expiry (chunk
    trees that expire — horizon-free when finite).  ``decay`` and
    ``window`` are mutually exclusive; both default to ``None`` (the
    plain paper mechanisms).  ``mechanism="sketch"`` (per-block
    sketch-side noise) supports neither knob — there are no node
    subtotals to fade and no sub-trees to expire — and refuses them with
    the knob named.  Knob validation happens up front with the knob
    named (:func:`~repro._validation.check_release_knobs`), never deep
    in tree code.
    """
    decay, window = check_release_knobs(decay, window)
    if mechanism not in ("tree", "hybrid", "sketch"):
        raise ValidationError(
            f"mechanism must be 'tree', 'hybrid' or 'sketch', got {mechanism!r}"
        )
    common = dict(shape=shape, l2_sensitivity=l2_sensitivity, params=params, rng=rng)
    if mechanism == "sketch":
        for knob, value in (("decay", decay), ("window", window)):
            if value is not None:
                raise ValidationError(
                    f"{knob} is not supported with mechanism='sketch': per-block "
                    "sketch noise keeps no node subtotals to fade and no chunks "
                    "to expire; use the tree/hybrid families"
                )
        if horizon is None:
            raise ValidationError("mechanism='sketch' requires a horizon")
        return SketchNoiseMechanism(horizon=horizon, **common)
    if window is not None:
        # The window replaces both base families: finite windows are
        # horizon-free by construction, inf needs the tree's horizon.
        return SlidingWindowMechanism(window=window, horizon=horizon, **common)
    if mechanism == "hybrid":
        return HybridMechanism(decay=1.0 if decay is None else decay, **common)
    if horizon is None:
        raise ValidationError("mechanism='tree' requires a horizon")
    if decay is not None:
        return DecayedTreeMechanism(horizon=horizon, decay=decay, **common)
    return TreeMechanism(horizon=horizon, **common)
