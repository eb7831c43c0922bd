"""The release-mechanism boundary: decayed and windowed private sums.

Every moment-carrying layer of the library — the ``core/`` estimators,
the serving shards, the merge rule, the wire format — talks to its noise
source through one implicit surface: ``observe`` / ``observe_batch`` /
``advance_sum`` / ``current_sum`` / ``release_noise_variance`` /
``released_moments`` / ``steps_taken``.  This module makes that surface
explicit as the :class:`ReleaseMechanism` protocol and ships two new
implementations behind it for **non-stationary** streams:

* :class:`DecayedTreeMechanism` — exponentially-forgotten private sums
  ``Σ_{i≤t} γ^{t−i} υ_i`` (the forgetting-factor formulation every
  production incremental regressor carries).  The binary-tree telescoping
  survives the weighting exactly: the level-``j`` node closing at step
  ``b`` stores the γ-decayed sub-sum *decayed to b*, so the release at
  ``t`` is the decayed prefix plus ``γ^{t−b_j}`` times each active node's
  frozen noise.  Per-node sensitivity is the element's decay weight
  inside its node, at most ``γ⁰·Δ₂ = Δ₂`` — so the per-node ``σ`` and the
  whole ``(ε, δ)`` ledger of Algorithm 4 carry over unchanged, while the
  *released* noise variance **shrinks** to ``Σ_j γ^{2(t−b_j)}·σ²_node``.
  Only the prefix fold and the node-noise fade are weighted; at ``γ = 1``
  every weight is exactly ``1.0``, so it is bit-identical to the
  unweighted tree under one seed.

* :class:`SlidingWindowMechanism` — hard-expiry private sums over the
  last ``W`` elements, as a ring of disjoint chunk sub-trees.  Each chunk
  of ``C`` consecutive elements gets its own full-budget
  :class:`~repro.privacy.tree.TreeMechanism` (parallel composition over
  the disjoint chunks keeps the whole stream at one ``(ε, δ)``); a
  completed chunk freezes into its final noisy total, and chunks expire
  whole once the covered count would exceed ``W``.  The released noise
  variance is bounded by the retained sub-tree count:
  ``(⌊W/C⌋ + 1) · levels(C) · σ²_node(C)``.  Finite windows need **no
  horizon** (expiry caps the live state at ``O(W/C + levels(C)·d)``
  floats); ``window = inf`` degenerates to a single never-expiring tree
  over the full horizon — bit-identical to the plain tree.

Both implementations report their :attr:`~ReleaseMechanism
.effective_weight` — ``Σ γ^{t−i} = (1−γ^t)/(1−γ)`` and the covered
window count respectively — which flows through
:class:`~repro.privacy.tree.ReleasedMoments` /
:func:`~repro.privacy.tree.merge_released` so cross-shard merges of
weighted moments keep the variance ledger and the estimators' logical
``t`` correct.

A third implementation, :class:`SketchNoiseMechanism`, carries the
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
from collections import deque
from typing import Protocol, runtime_checkable

import numpy as np

from .._validation import (
    check_decay,
    check_int,
    check_positive,
    check_release_knobs,
    check_rng,
    check_window,
)
from ..exceptions import (
    NotSupportedError,
    StreamExhaustedError,
    ValidationError,
)
from .parameters import PrivacyParams
from .tree import (
    TreeMechanism,
    _node_sigma,
    _snapshot_released,
    coerce_stream_block,
    coerce_stream_element,
    tree_error_bound,
    tree_error_bound_spectral,
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

    This is the contract the estimators, serving shards, merge rule, and
    wire snapshots were already written against implicitly — extracted so
    new release semantics (decay, windows, sketch-side noise) plug
    in without touching the layers above.  Implementations:
    :class:`~repro.privacy.tree.TreeMechanism`,
    :class:`~repro.privacy.hybrid.HybridMechanism`,
    :class:`DecayedTreeMechanism`, :class:`SlidingWindowMechanism`,
    :class:`SketchNoiseMechanism`.

    ``isinstance(obj, ReleaseMechanism)`` checks the surface structurally
    (``runtime_checkable`` protocols check attribute presence, not
    signatures).
    """

    shape: tuple[int, ...]
    steps_taken: int

    def observe(self, value) -> np.ndarray: ...

    def observe_batch(self, values) -> np.ndarray: ...

    def advance_batch(self, values) -> np.ndarray: ...

    def current_sum(self) -> np.ndarray: ...

    def release_noise_variance(self) -> float: ...

    def released_moments(self): ...

    def memory_floats(self) -> int: ...

    @property
    def effective_weight(self) -> float: ...


class DecayedTreeMechanism(TreeMechanism):
    """Continual private **γ-decayed** sums ``Σ_{i≤t} γ^{t−i} υ_i``.

    A drop-in :class:`~repro.privacy.tree.TreeMechanism` whose running
    sum forgets exponentially.  The prefix-plus-frozen-noise
    decomposition survives the weighting: every observation first fades
    the clean prefix by ``γ``, and every *frozen* node noise ``η_j``
    (attached when its node closed at step ``b_j``) is read back scaled
    by ``γ^{t−b_j}`` — exactly the factor its node's decayed sub-sum
    carries inside the decayed prefix at time ``t``, so the telescoping
    identity of Algorithm 4 holds verbatim.

    Privacy: each stream element still touches at most ``levels`` nodes,
    and its weight inside any node is ``γ^{b−i} ≤ 1``, so the per-node L2
    sensitivity is at most ``Δ₂`` and the plain tree's per-node ``σ`` and
    ``(ε, δ)`` accounting apply unchanged (the decay only ever *shrinks*
    sensitivity, never grows it).  Utility improves correspondingly: the
    released noise variance is ``Σ_{j active} γ^{2(t−b_j)} σ²_node ≤
    popcount(t)·σ²_node``.

    Only the prefix fold and the node-noise fade are weighted; the
    ingest paths, the keyed node noise and the commit are the parent's.
    :meth:`advance_sum` takes the block total decayed to the block end,
    ``Σ_i γ^{k−1−i} υ_i`` (one weighted BLAS product upstream).  At
    ``decay = 1.0`` every weight is exactly ``1.0``, so the mechanism is
    **bit-identical** to :class:`~repro.privacy.tree.TreeMechanism` under
    one seed.

    Parameters
    ----------
    decay:
        The forgetting factor ``γ ∈ (0, 1]``.
    horizon, shape, l2_sensitivity, params, rng:
        As in :class:`~repro.privacy.tree.TreeMechanism`.
    """

    def __init__(
        self,
        horizon: int,
        shape: tuple[int, ...],
        l2_sensitivity: float,
        params: PrivacyParams,
        rng: np.random.Generator | int | None = None,
        decay: float = 1.0,
    ) -> None:
        self.decay = check_decay("decay", decay)
        super().__init__(horizon, shape, l2_sensitivity, params, rng)

    # ------------------------------------------------------------------
    # The γ prefix fold and the γ node-noise fade; every ingest path and
    # read is the plain tree's, so γ = 1 is bit-identical to it.
    # ------------------------------------------------------------------

    def _fade(self, steps: int) -> float:
        """``γ^steps``: a node's noise fades with its sub-sum."""
        return self.decay**steps

    def _fold(self, rows: np.ndarray) -> np.ndarray:
        prefix = self._prefix
        for row in rows:
            prefix = self.decay * prefix + row
        return prefix

    def _fold_total(self, total: np.ndarray, count: int) -> np.ndarray:
        # advance_sum's total is the block sum decayed to the block end,
        # Σ_i γ^{count−1−i} υ_i: the prefix fades by γ^count before it
        # folds in — the sequential recursion telescoped over the block.
        return self.decay**count * self._prefix + total

    def release_noise_variance(self) -> float:
        """``Σ_{j active} γ^{2(t−b_j)} σ²_node`` (``popcount(t)·σ²_node`` at γ=1)."""
        t = self.steps_taken
        fades = [self._fade(t & ((1 << j) - 1)) for j in range(self.levels) if self._active[j]]
        return sum(fade * fade for fade in fades) * self.sigma_node**2

    @property
    def effective_weight(self) -> float:
        """``Σ_{i≤t} γ^{t−i} = (1 − γ^t)/(1 − γ)`` (``t`` itself at γ=1)."""
        if self.decay == 1.0:
            return float(self.steps_taken)
        return (1.0 - self.decay**self.steps_taken) / (1.0 - self.decay)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DecayedTreeMechanism(horizon={self.horizon}, shape={self.shape}, "
            f"decay={self.decay}, params={self.params}, "
            f"sigma_node={self.sigma_node:.4g})"
        )


class SlidingWindowMechanism:
    """Private sums over the last ``W`` stream elements (hard expiry).

    The window is a ring of disjoint **chunk sub-trees**: consecutive
    elements fill a :class:`~repro.privacy.tree.TreeMechanism` of horizon
    ``C`` (the chunk length); a full chunk freezes into its final noisy
    total and a fresh chunk tree starts; frozen chunks expire whole, so
    the release covers between ``W − C + 1`` and ``W`` elements once the
    stream is longer than ``W``.  Because the chunks partition the
    stream, each element lives in exactly one full-``(ε, δ)`` sub-tree —
    parallel composition keeps the entire unbounded stream at ``(ε, δ)``
    — and dropping an expired chunk is post-processing (discarding
    outputs).  The released noise variance is bounded by the sub-tree
    count: at most ``⌊W/C⌋`` frozen totals (one active node each at chunk
    completion ≤ ``levels(C)·σ²_node``... summed) plus the live tree's
    ``popcount·σ²_node`` term — all reported exactly by
    :meth:`release_noise_variance`.

    ``window = math.inf`` degenerates to a single never-expiring tree
    over ``horizon`` (which is then required) and is **bit-identical** to
    the plain :class:`~repro.privacy.tree.TreeMechanism` under one seed.
    Finite windows need no horizon at all — expiry caps the state — which
    makes this the unbounded-stream mechanism of choice for hard-recency
    workloads (pass ``horizon`` anyway to keep a capacity cap).

    Parameters
    ----------
    window:
        The window length ``W`` (elements), an integer ≥ 1 or ``inf``.
    chunk:
        Chunk length ``C`` (elements per sub-tree); defaults to
        ``max(1, W // 4)``.  Smaller chunks track the window edge more
        tightly but retain more frozen totals.
    horizon:
        Optional capacity cap (required when ``window = inf``).
    shape, l2_sensitivity, params, rng:
        As in :class:`~repro.privacy.tree.TreeMechanism`.
    """

    def __init__(
        self,
        window: int | float,
        shape: tuple[int, ...],
        l2_sensitivity: float,
        params: PrivacyParams,
        rng: np.random.Generator | int | None = None,
        horizon: int | None = None,
        chunk: int | None = None,
    ) -> None:
        self.window = check_window("window", window)
        self.shape = tuple(int(s) for s in shape)
        self.l2_sensitivity = check_positive("l2_sensitivity", l2_sensitivity)
        self.params = params
        self._rng = check_rng(rng)
        self._flat_dim = int(np.prod(self.shape)) if self.shape else 1
        self.horizon = (
            None if horizon is None else check_int("horizon", horizon, minimum=1)
        )
        self.steps_taken = 0
        if math.isinf(self.window):
            if self.horizon is None:
                raise ValidationError(
                    "window=inf needs a horizon: the degenerate never-"
                    "expiring window is one tree over the full stream"
                )
            self.chunk = self.horizon
        else:
            if chunk is None:
                chunk = max(1, int(self.window) // 4)
            self.chunk = check_int("chunk", chunk, minimum=1)
            if self.chunk > self.window:
                raise ValidationError(
                    f"chunk ({self.chunk}) cannot exceed window ({self.window})"
                )
        self._frozen: deque[tuple[np.ndarray, float]] = deque()
        self._current_tree = self._new_chunk_tree()
        self._frozen_total = np.zeros(self._flat_dim)
        self._frozen_variance = 0.0
        self.expired_steps = 0

    def _new_chunk_tree(self) -> TreeMechanism:
        """The next chunk's tree; it takes a fresh node-noise key from the
        parent generator as it is built."""
        return TreeMechanism(
            horizon=self.chunk,
            shape=self.shape,
            l2_sensitivity=self.l2_sensitivity,
            params=self.params,
            rng=self._rng,
        )

    # ------------------------------------------------------------------
    # Ring bookkeeping
    # ------------------------------------------------------------------

    @property
    def covered_steps(self) -> int:
        """Elements the current release covers (≤ ``window``)."""
        return len(self._frozen) * self.chunk + self._current_tree.steps_taken

    @staticmethod
    def covered_at(t: int, window: int | float, chunk: int) -> int:
        """Covered count after ``t`` ingested elements — pure arithmetic.

        The closed form of :attr:`covered_steps` as a function of the
        stream position alone, so callers that solve at interior steps of
        a batch (the estimators' ``solve_every`` schedule) can size the
        logical timestep without replaying the ring.  Chunks roll lazily
        (a full live tree freezes on the *next* ingest), so at multiples
        of ``chunk`` the live tree is full and not yet frozen.
        """
        if math.isinf(window):
            return int(t)
        t = int(t)
        if t <= 0:
            return 0
        if t % chunk == 0:
            live = chunk
            completed = t // chunk - 1
        else:
            live = t % chunk
            completed = t // chunk
        kept = min(completed, (int(window) - live) // chunk)
        return kept * chunk + live

    @property
    def effective_weight(self) -> float:
        """Total weight of the covered elements — the covered count."""
        return float(self.covered_steps)

    def _recompute_frozen(self) -> None:
        total = np.zeros(self._flat_dim)
        variance = 0.0
        for value, var in self._frozen:
            total = total + value
            variance += var
        self._frozen_total = total
        self._frozen_variance = variance

    def _roll_chunk(self) -> None:
        """Freeze the full chunk's final noisy total; start a fresh chunk."""
        self._frozen.append(
            (
                np.asarray(
                    self._current_tree.current_sum(), dtype=float
                ).reshape(self._flat_dim),
                float(self._current_tree.release_noise_variance()),
            )
        )
        self._current_tree = self._new_chunk_tree()
        self._expire()

    def _expire(self) -> None:
        """Drop whole frozen chunks while coverage would exceed the window."""
        changed = False
        while (
            self._frozen
            and len(self._frozen) * self.chunk + self._current_tree.steps_taken
            > self.window
        ):
            self._frozen.popleft()
            self.expired_steps += self.chunk
            changed = True
        if changed or self._frozen or self._frozen_variance:
            self._recompute_frozen()

    def _check_capacity(self, incoming: int) -> None:
        if self.horizon is not None and self.steps_taken + incoming > self.horizon:
            raise StreamExhaustedError(
                f"SlidingWindowMechanism configured for horizon "
                f"{self.horizon} received a block of {incoming} elements "
                f"at step {self.steps_taken}"
            )

    # ------------------------------------------------------------------
    # Core streaming API (the ReleaseMechanism surface)
    # ------------------------------------------------------------------

    def observe(self, value: np.ndarray | float) -> np.ndarray:
        """Ingest the next element; return the noisy **windowed** sum."""
        if math.isinf(self.window):
            release = self._current_tree.observe(value)
            self.steps_taken += 1
            return release
        array = coerce_stream_element(value, self.shape)
        self._check_capacity(1)
        if self._current_tree.steps_taken >= self._current_tree.horizon:
            self._roll_chunk()
        tree_release = np.asarray(
            self._current_tree.observe(array), dtype=float
        ).reshape(self._flat_dim)
        self.steps_taken += 1
        self._expire()
        return (self._frozen_total + tree_release).reshape(self.shape)

    def observe_batch(self, values: np.ndarray) -> np.ndarray:
        """Ingest a block; return all ``k`` noisy windowed sums.

        Element at a time, so chunk rollovers (and the chunk trees' keys)
        and expiry happen exactly as for the same elements arriving one at
        a time, and every returned row reflects the window at its step.
        """
        if math.isinf(self.window):
            releases = self._current_tree.observe_batch(values)
            self.steps_taken += releases.shape[0]
            return releases
        array = coerce_stream_block(values, self.shape)
        k = array.shape[0]
        self._check_capacity(k)
        releases = np.empty((k, self._flat_dim))
        for r in range(k):
            releases[r] = np.asarray(
                self.observe(array[r]), dtype=float
            ).reshape(self._flat_dim)
        return releases.reshape((k,) + self.shape)

    def advance_batch(self, values: np.ndarray) -> np.ndarray:
        """Ingest a block; release only the final noisy windowed sum."""
        if math.isinf(self.window):
            release = self._current_tree.advance_batch(values)
            self.steps_taken += np.asarray(values).shape[0]
            return release
        array = coerce_stream_block(values, self.shape)
        k = array.shape[0]
        self._check_capacity(k)
        flat = array.reshape(k, self._flat_dim)
        start = 0
        while start < k:
            if self._current_tree.steps_taken >= self._current_tree.horizon:
                self._roll_chunk()
            capacity = self._current_tree.horizon - self._current_tree.steps_taken
            stop = min(start + capacity, k)
            self._current_tree.advance_batch(
                flat[start:stop].reshape((stop - start,) + self.shape)
            )
            start = stop
        self.steps_taken += k
        self._expire()
        return self.current_sum()

    def advance_sum(self, total: np.ndarray | float, count: int) -> np.ndarray:
        """Refused: block totals cannot be split at chunk boundaries.

        A finite window must attribute each element to its chunk sub-tree,
        and one pre-reduced block total cannot be split at a chunk
        boundary.  This is about the data, not the noise (every chunk
        tree's noise is keyed by node).  Use ``observe_batch`` /
        ``advance_batch`` (``ingest="exact"``) with finite windows;
        ``window = inf`` is one tree and accepts block totals.
        """
        if math.isinf(self.window):
            release = self._current_tree.advance_sum(total, count)
            self.steps_taken += int(count)
            return release
        raise NotSupportedError(
            "SlidingWindowMechanism cannot ingest pre-reduced block totals "
            "(advance_sum): a finite window must split elements at chunk "
            "boundaries; use observe_batch/advance_batch (ingest='exact')"
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def current_sum(self) -> np.ndarray:
        """The latest noisy windowed sum (post-processing, free)."""
        tree_sum = np.asarray(
            self._current_tree.current_sum(), dtype=float
        ).reshape(self._flat_dim)
        return (self._frozen_total + tree_sum).reshape(self.shape)

    def release_noise_variance(self) -> float:
        """Per-coordinate noise variance of the current windowed release.

        Sums the retained frozen chunks' final-release variances and the
        live chunk tree's term — independent Gaussians, so variances add;
        bounded by ``(⌊W/C⌋ + 1)·levels(C)·σ²_node`` regardless of the
        stream length.
        """
        return self._frozen_variance + self._current_tree.release_noise_variance()

    def released_moments(self):
        """Snapshot the current windowed release (picklable wire format)."""
        return _snapshot_released(self)

    def _max_ring_trees(self) -> int:
        """Capacity bound on retained sub-trees: ``⌊W/C⌋ + 1``."""
        return int(self.window) // self.chunk + 1

    def error_bound(self, beta: float = 0.05) -> float:
        """High-probability error radius of the windowed releases.

        Sums (in quadrature — the sub-trees' noises are independent) the
        per-chunk Proposition C.1 radii at the **capacity bound**
        ``⌊W/C⌋ + 1`` on retained sub-trees, splitting the confidence
        ``β`` evenly.  Like the plain tree's horizon-based bound this is
        a configuration constant, not a function of the live ring — so
        callers that size solves from it (the estimators' ``α``) agree
        between batched and sequential ingestion.
        """
        if math.isinf(self.window):
            return self._current_tree.error_bound(beta)
        n = self._max_ring_trees()
        share = beta / n
        per_chunk = tree_error_bound(
            self.chunk, self._flat_dim, self.l2_sensitivity, self.params, share
        )
        return float(math.sqrt(n) * per_chunk)

    def error_bound_spectral(self, beta: float = 0.05) -> float:
        """Spectral-norm error radius (square-matrix streams only)."""
        if len(self.shape) != 2 or self.shape[0] != self.shape[1]:
            raise ValidationError(
                f"spectral error bound needs a square matrix shape, got {self.shape}"
            )
        if math.isinf(self.window):
            return self._current_tree.error_bound_spectral(beta)
        n = self._max_ring_trees()
        share = beta / n
        per_chunk = tree_error_bound_spectral(
            self.chunk, self.shape[0], self.l2_sensitivity, self.params, share
        )
        return float(math.sqrt(n) * per_chunk)

    def memory_floats(self) -> int:
        """Floats held: the frozen ring plus one live chunk tree."""
        return (
            (len(self._frozen) + 1) * self._flat_dim
            + self._current_tree.memory_floats()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SlidingWindowMechanism(window={self.window}, chunk={self.chunk}, "
            f"shape={self.shape}, params={self.params}, "
            f"covered={self.covered_steps}, steps={self.steps_taken})"
        )


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

    Determinism: :meth:`observe_batch` consumes the rng exactly like
    ``k`` sequential :meth:`observe` calls (one draw per element — each
    element is its own block), and :meth:`advance_batch` /
    :meth:`advance_sum` draw **one** Gaussian per block each, so the
    exact and fast serving tiers consume identical noise bits and differ
    only in the float summation order of the exact block totals.

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
        self._rng = check_rng(rng)
        self._flat_dim = int(np.prod(self.shape)) if self.shape else 1
        self.sigma_block = _node_sigma(1, self.l2_sensitivity, params)
        self.steps_taken = 0
        self.noise_draws = 0
        self._sum = np.zeros(self._flat_dim)

    def _check_capacity(self, incoming: int) -> None:
        if self.steps_taken + incoming > self.horizon:
            raise StreamExhaustedError(
                f"SketchNoiseMechanism configured for horizon {self.horizon} "
                f"received a block of {incoming} elements at step "
                f"{self.steps_taken}"
            )

    def _ingest_total(self, total_flat: np.ndarray) -> None:
        """Fold one block total into the sum with one fresh noise draw."""
        noise = self._rng.normal(0.0, self.sigma_block, size=self._flat_dim)
        self._sum = self._sum + total_flat + noise
        self.noise_draws += 1

    # ------------------------------------------------------------------
    # Core streaming API (the ReleaseMechanism surface)
    # ------------------------------------------------------------------

    def observe(self, value: np.ndarray | float) -> np.ndarray:
        """Ingest one element as its own block; return the noisy sum."""
        array = coerce_stream_element(value, self.shape)
        self._check_capacity(1)
        self._ingest_total(array.reshape(self._flat_dim))
        self.steps_taken += 1
        return self.current_sum()

    def observe_batch(self, values: np.ndarray) -> np.ndarray:
        """Ingest ``k`` elements one block each; return all ``k`` sums."""
        array = coerce_stream_block(values, self.shape)
        k = array.shape[0]
        self._check_capacity(k)
        flat = array.reshape(k, self._flat_dim)
        releases = np.empty((k, self._flat_dim))
        for r in range(k):
            self._ingest_total(flat[r])
            self.steps_taken += 1
            releases[r] = self._sum
        return releases.reshape((k,) + self.shape)

    def advance_batch(self, values: np.ndarray) -> np.ndarray:
        """Ingest a block (one noise draw); release only the final sum."""
        array = coerce_stream_block(values, self.shape)
        k = array.shape[0]
        self._check_capacity(k)
        self._ingest_total(array.reshape(k, self._flat_dim).sum(axis=0))
        self.steps_taken += k
        return self.current_sum()

    def advance_sum(self, total: np.ndarray | float, count: int) -> np.ndarray:
        """Ingest a pre-reduced block total of ``count`` elements."""
        total_flat = coerce_stream_element(total, self.shape)
        count = check_int("count", count, minimum=1)
        self._check_capacity(count)
        self._ingest_total(total_flat.reshape(self._flat_dim))
        self.steps_taken += count
        return self.current_sum()

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
        """Snapshot the current release (picklable wire format)."""
        return _snapshot_released(self)

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
        if len(self.shape) != 2 or self.shape[0] != self.shape[1]:
            raise ValidationError(
                f"spectral error bound needs a square matrix shape, got {self.shape}"
            )
        entry_sigma = self.sigma_block * math.sqrt(self.horizon)
        return entry_sigma * (
            2.0 * math.sqrt(self.shape[0])
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
    or a decayed hybrid), and ``window`` switches to hard expiry (a ring
    of chunk sub-trees — horizon-free when finite).  ``decay`` and
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
    if mechanism == "sketch":
        if decay is not None:
            raise ValidationError(
                "decay is not supported with mechanism='sketch': per-block "
                "sketch noise keeps no node subtotals to fade; use the "
                "tree/hybrid families for decayed streams"
            )
        if window is not None:
            raise ValidationError(
                "window is not supported with mechanism='sketch': per-block "
                "sketch noise cannot expire elements; use window= with "
                "mechanism='tree'"
            )
        if horizon is None:
            raise ValidationError("mechanism='sketch' requires a horizon")
        return SketchNoiseMechanism(
            horizon=horizon,
            shape=shape,
            l2_sensitivity=l2_sensitivity,
            params=params,
            rng=rng,
        )
    if window is not None:
        # The window ring replaces both base families: finite windows are
        # horizon-free by construction, inf needs the tree's horizon.
        return SlidingWindowMechanism(
            window=window,
            shape=shape,
            l2_sensitivity=l2_sensitivity,
            params=params,
            rng=rng,
            horizon=horizon,
        )
    if mechanism == "hybrid":
        from .hybrid import HybridMechanism

        return HybridMechanism(
            shape=shape,
            l2_sensitivity=l2_sensitivity,
            params=params,
            rng=rng,
            decay=1.0 if decay is None else decay,
        )
    if horizon is None:
        raise ValidationError("mechanism='tree' requires a horizon")
    if decay is not None:
        return DecayedTreeMechanism(
            horizon=horizon,
            shape=shape,
            l2_sensitivity=l2_sensitivity,
            params=params,
            rng=rng,
            decay=decay,
        )
    return TreeMechanism(
        horizon=horizon,
        shape=shape,
        l2_sensitivity=l2_sensitivity,
        params=params,
        rng=rng,
    )
