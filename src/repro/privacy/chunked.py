"""Chunked tree mechanisms: the doubling trick and the sliding window.

The Tree Mechanism (Algorithm 4) must know the stream length ``T`` up
front to calibrate its noise.  Chan, Shi and Song (2011) remove this
assumption with the doubling trick the paper cites in its footnote 13, and
a sliding window over the last ``W`` elements is the same construction
with fixed chunks that expire.  Both are a run of *chunk trees*: each
chunk of consecutive elements gets its own
:class:`~repro.privacy.tree.TreeMechanism`, keyed as the chunk starts.
The mechanism holds one two-word key (:func:`~repro.privacy.tree.noise_key`);
chunk 0's tree uses it, and chunk ``c ≥ 1``'s tree uses the two words
``Philox(key, counter=[0, 1, c, 0])`` gives — counter word 1 is 1, which no
node draw reaches, so every chunk tree's noise is fresh and the whole
mechanism is a pure function of its key.  One live tree
carries the current chunk; a full chunk freezes into its final noisy total
when the next element arrives (the roll is lazy).  The release is the
frozen total plus the live tree's release.

A :class:`ChunkedTreeMechanism` is declared by three things:

* a :class:`ChunkSchedule` of chunk lengths — doubling ``1, 2, 4, …``
  (:class:`HybridMechanism`), a fixed ``C`` (:class:`SlidingWindowMechanism`),
  or one chunk of length ``horizon`` (the window at ``W = inf``);
* an expiry rule, also on the schedule — never, or drop whole frozen
  chunks once the covered count would exceed ``W``;
* a decay ``γ`` — the chunk trees are γ-decayed and the frozen total fades
  by ``γ`` per later element, so releases track ``Σ γ^{t−i} υ_i`` across
  chunk boundaries.

Privacy is the plain tree's.  The chunks partition the stream, so each
element lives in exactly one full-``(ε, δ)`` chunk tree and parallel
composition keeps the whole unbounded stream at ``(ε, δ)``.  Dropping an
expired chunk only discards outputs.  A γ-decayed node's sensitivity is at
most ``Δ₂``, so ``σ`` is the plain tree's.  The error at time ``t`` sums
over the chunk trees the release covers — ``O(log t)`` doubling chunks,
at most ``⌊W/C⌋ + 1`` window chunks — which is the "asymptotically the
same error" claim of Chan et al. the paper relies on to drop the
known-``T`` assumption from Algorithms 2 and 3.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .._validation import check_decay, check_int, check_positive, check_window
from ..exceptions import NotSupportedError, ValidationError
from .parameters import PrivacyParams
from .tree import (
    DecayedTreeMechanism,
    _check_room,
    _check_square,
    _record,
    coerce_stream_block,
    noise_key,
    tree_error_bound,
    tree_error_bound_spectral,
)

__all__ = [
    "ChunkSchedule",
    "ChunkedTreeMechanism",
    "HybridMechanism",
    "SlidingWindowMechanism",
    "one_chunk",
]


def one_chunk(doubling: bool, window: int | float | None) -> bool:
    """Whether a release is one chunk tree: chunks that do not double and
    never expire (``window`` ``None`` or ``inf``).

    Only a one-chunk release can ingest a pre-reduced block total
    (``advance_sum``): a doubling or expiring schedule must attribute each
    element to its chunk, and one block total cannot be split at a chunk
    boundary.  This is about the data, not the noise.
    """
    return not doubling and (window is None or math.isinf(window))


@dataclass(frozen=True)
class ChunkSchedule:
    """Where the chunks of a chunked mechanism start and end.

    ``chunk=None`` is the doubling schedule (chunk ``i`` holds ``2^i``
    elements); an integer is a fixed chunk length.  ``window`` is the
    expiry rule: ``inf`` never expires, a finite ``W`` drops whole frozen
    chunks once the covered count would exceed it (expiry needs fixed
    chunks).  Every method is pure arithmetic in the stream position, so callers
    that act at interior steps of a block (the estimators' solves) need not
    replay the mechanism.  Chunks roll lazily: after ``t`` elements the
    live chunk is the one holding element ``t``.
    """

    chunk: int | None = None
    window: int | float = math.inf

    def length(self, index: int) -> int:
        """Elements chunk ``index`` holds."""
        return 2**index if self.chunk is None else self.chunk

    def start(self, index: int) -> int:
        """Elements before chunk ``index``."""
        return 2**index - 1 if self.chunk is None else index * self.chunk

    def index_at(self, t: int) -> int:
        """The live chunk after ``t`` elements."""
        t = max(int(t), 1)
        return t.bit_length() - 1 if self.chunk is None else (t - 1) // self.chunk

    def covered_at(self, t: int) -> int:
        """Elements the release covers after ``t`` elements (``≤ W``)."""
        t = max(int(t), 0)
        if math.isinf(self.window):
            return t
        # Whole frozen chunks fill what the live chunk leaves of W.
        live = t - self.start(self.index_at(t))
        return min(t, live + (int(self.window) - live) // self.chunk * self.chunk)


class ChunkedTreeMechanism:
    """Private prefix sums over a run of chunk trees.

    The one implementation of the chunk roll, the block split at chunk
    boundaries, the fade of the frozen total, expiry, the variance
    ledger, the memory count and the error bounds (see the module
    docstring).  :class:`HybridMechanism` and
    :class:`SlidingWindowMechanism` only declare a schedule.

    Like every release mechanism it has one way in and one way out:
    :meth:`advance_batch` (or, on one chunk, :meth:`advance_sum`) commits
    a block, and :meth:`current_sum` reads the release at its end.  A
    caller that wants the release after every element commits
    one-element blocks and reads after each.

    Parameters
    ----------
    schedule:
        The chunk lengths and the expiry rule.
    shape, l2_sensitivity, params, rng:
        As in :class:`~repro.privacy.tree.TreeMechanism`; every chunk tree
        runs at the full ``params``, keyed by ``rng``'s key (chunk 0) or a
        key derived from it and the chunk index (see the module docstring).
    decay:
        Forgetting factor ``γ ∈ (0, 1]`` (``1.0``: unweighted sums).
    horizon:
        Optional capacity cap on the elements ingested.
    """

    def __init__(
        self,
        schedule: ChunkSchedule,
        shape: tuple[int, ...],
        l2_sensitivity: float,
        params: PrivacyParams,
        rng: np.random.Generator | int | None = None,
        decay: float = 1.0,
        horizon: int | None = None,
    ) -> None:
        self.schedule = schedule
        self.shape = tuple(int(s) for s in shape)
        self.l2_sensitivity = check_positive("l2_sensitivity", l2_sensitivity)
        self.params = params
        self.decay = check_decay("decay", decay)
        self.horizon = None if horizon is None else check_int("horizon", horizon, minimum=1)
        self._key = noise_key(rng)
        self._flat_dim = int(np.prod(self.shape)) if self.shape else 1
        self.steps_taken = 0
        self.expired_steps = 0
        # The live chunk's index, which is also the count of frozen chunks.
        self._epoch_index = 0
        # The frozen chunks' total, decayed to the last roll, and its noise
        # variance; the retained chunks themselves, oldest first, are kept
        # only when they can expire.
        self._frozen_total = np.zeros(self.shape)
        self._frozen_variance = 0.0
        self._frozen: deque[tuple[np.ndarray, float]] = deque()
        self._current_tree = self._new_tree()

    @property
    def _completed_epochs(self) -> int:
        """Chunks frozen so far, expired ones included."""
        return self._epoch_index

    def _new_tree(self) -> DecayedTreeMechanism:
        """The live chunk's tree, keyed by :meth:`_chunk_key`."""
        index = self._epoch_index
        return DecayedTreeMechanism(
            self.schedule.length(index), self.shape, self.l2_sensitivity,
            self.params, self._chunk_key(index), self.decay,
        )

    def _chunk_key(self, index: int) -> np.ndarray:
        """Chunk ``index``'s tree key: the mechanism's key for chunk 0, else
        the first two words of ``Philox(key, counter=[0, 1, index, 0])``."""
        if index == 0:
            return self._key
        counter = np.array([0, 1, index, 0], dtype=np.uint64)
        return np.random.Philox(key=self._key, counter=counter).random_raw(2)

    def _fade(self, elapsed: int | None = None) -> float:
        """``γ^e``: the frozen total's weight ``e`` elements into the live
        chunk (default: now).  Every fade is this one scalar power, so the
        per-element and block paths release the same bits."""
        if elapsed is None:
            elapsed = self._current_tree.steps_taken
        return self.decay**elapsed

    @property
    def covered_steps(self) -> int:
        """Elements the current release covers (``≤ W``)."""
        return self.steps_taken - self.expired_steps

    @property
    def effective_weight(self) -> float:
        """Total weight of the current sum: the covered count, or
        ``Σ γ^{t−i} = (1 − γ^t)/(1 − γ)`` under decay."""
        if self.decay == 1.0:
            return float(self.covered_steps)
        return (1.0 - self.decay**self.steps_taken) / (1.0 - self.decay)

    # ------------------------------------------------------------------
    # Chunk roll and expiry
    # ------------------------------------------------------------------

    def _roll(self) -> None:
        """Freeze the full live chunk into the frozen total; start the next.

        The frozen total was decayed to the previous roll, so it fades
        across the chunk that just finished before the chunk's (already
        internally decayed) final release folds in.
        """
        fade = self._fade()
        value = self._current_tree.current_sum()
        variance = self._current_tree.release_noise_variance()
        self._frozen_total = fade * self._frozen_total + value
        self._frozen_variance = fade * fade * self._frozen_variance + variance
        if not math.isinf(self.schedule.window):
            self._frozen.append((value, variance))
        self._epoch_index += 1
        self._current_tree = self._new_tree()

    def _room(self) -> int | float:
        """Elements that fit before the oldest frozen chunk must expire."""
        return self.schedule.window - self.covered_steps if self._frozen else math.inf

    def _expire(self) -> None:
        """Drop the oldest frozen chunks until the next element fits the
        window, then re-sum the retained ones oldest first."""
        if self._room() >= 1:
            return
        while self._room() < 1:
            self._frozen.popleft()
            self.expired_steps += self.schedule.chunk
        self._frozen_total = sum((value for value, _ in self._frozen), np.zeros(self.shape))
        self._frozen_variance = sum((variance for _, variance in self._frozen), 0.0)

    # ------------------------------------------------------------------
    # Core streaming API (the ReleaseMechanism surface)
    # ------------------------------------------------------------------

    def advance_batch(self, values: np.ndarray) -> None:
        """Ingest a block; the next :meth:`current_sum` reads its end.

        The whole block is validated and capacity-checked before any piece
        is consumed.  Each piece never straddles a chunk end or an expiry
        and only commits to its chunk tree
        (:meth:`~repro.privacy.tree.TreeMechanism.advance_batch`); a chunk
        that fills is read once, when it freezes.  Chunk trees are built at
        the same rolls under any block split and their node noise is keyed,
        so the read is bit-identical to the same elements committed one at
        a time.
        """
        array = coerce_stream_block(values, self.shape)
        k = array.shape[0]
        _check_room(self, k)
        start = 0
        while start < k:
            if self._current_tree.steps_taken >= self._current_tree.horizon:
                self._roll()
            self._expire()
            tree = self._current_tree
            stop = min(k, start + tree.horizon - tree.steps_taken, start + self._room())
            tree.advance_batch(array[start:stop])
            self.steps_taken += stop - start
            start = stop

    def advance_sum(self, total: np.ndarray | float, count: int) -> None:
        """Ingest a pre-reduced block total — one-chunk mechanisms only.

        Refused with :class:`~repro.exceptions.NotSupportedError` unless
        the schedule is one chunk (:func:`one_chunk`): each element must
        go to its chunk tree, and one block total cannot be split at a
        chunk boundary.  Use :meth:`advance_batch` (``ingest="exact"``).
        """
        if not one_chunk(self.schedule.chunk is None, self.schedule.window):
            raise NotSupportedError(
                f"{type(self).__name__} cannot ingest pre-reduced block totals "
                "(advance_sum): its chunks must split elements at chunk "
                "boundaries; use advance_batch (ingest='exact')"
            )
        count = check_int("count", count, minimum=1)
        _check_room(self, count)
        self._current_tree.advance_sum(total, count)
        self.steps_taken += count

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def current_sum(self) -> np.ndarray:
        """The noisy sum at the current step (post-processing, free)."""
        return self._fade() * self._frozen_total + self._current_tree.current_sum()

    def release_noise_variance(self) -> float:
        """Per-coordinate noise variance of the current release.

        The frozen chunks' final-release variances (faded by ``γ^{2e}`` with
        the live chunk's elapsed length ``e``) plus the live tree's term —
        independent Gaussians, so variances add.  The per-shard term of
        :func:`~repro.privacy.tree.merge_released`'s variance accounting.
        """
        fade = self._fade()
        return fade * fade * self._frozen_variance + self._current_tree.release_noise_variance()

    def released_moments(self):
        """The current release as a record around the fresh array
        :meth:`current_sum` returns (frozen, not copied)."""
        return _record(self)

    def error_bound(self, beta: float = 0.05) -> float:
        """High-probability error radius of the releases (Proposition C.1
        per chunk tree; see :meth:`_quadrature`)."""
        return self._quadrature(tree_error_bound, self._flat_dim, beta)

    def error_bound_spectral(self, beta: float = 0.05) -> float:
        """Spectral-norm error radius (square-matrix streams only)."""
        return self._quadrature(tree_error_bound_spectral, _check_square(self.shape), beta)

    def _quadrature(self, tree_bound, dim: int, beta: float) -> float:
        """The chunk trees' radii ``tree_bound(length, dim, Δ₂, params,
        β/n)`` summed in quadrature (their noises are independent), ``β``
        split evenly.

        Doubling chunks quote the ``n`` chunks seen so far, ``1, 2, …,
        2^i``.  Fixed chunks quote the capacity — ``n = ⌊W/C⌋ + 1``
        retained trees, one at ``W = inf`` — so the bound is a
        configuration constant on which batched and sequential solves
        agree.
        """
        def radius(length: int, n: int) -> float:
            return tree_bound(length, dim, self.l2_sensitivity, self.params, beta / n)

        if self.schedule.chunk is None:
            n = self._epoch_index + 1
            return math.sqrt(sum(radius(2**k, n) ** 2 for k in range(n)))
        window = self.schedule.window
        n = 1 if math.isinf(window) else int(window) // self.schedule.chunk + 1
        return math.sqrt(n) * radius(self.schedule.chunk, n)

    def memory_floats(self) -> int:
        """Floats held: the frozen total, the retained chunks and the live tree."""
        return (len(self._frozen) + 1) * self._flat_dim + self._current_tree.memory_floats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(schedule={self.schedule}, shape={self.shape}, "
            f"decay={self.decay}, params={self.params}, steps={self.steps_taken})"
        )


class HybridMechanism(ChunkedTreeMechanism):
    """Unbounded-stream private prefix sums via chunk doubling.

    Chunks of length ``1, 2, 4, …`` that never expire (Chan, Shi and
    Song's Hybrid Mechanism, the paper's footnote 13).

    Parameters
    ----------
    shape:
        Shape of each stream element (see
        :class:`~repro.privacy.tree.TreeMechanism`).
    l2_sensitivity:
        L2-diameter of the element domain.
    params:
        ``(ε, δ)`` budget.  Every element belongs to exactly one chunk
        tree, so the *whole* unbounded stream satisfies this budget
        (parallel composition across disjoint chunks).
    rng:
        Seed or Generator for reproducible noise.
    decay:
        Forgetting factor ``γ ∈ (0, 1]``; ``1.0`` (default) is the plain
        unweighted mechanism.

    Examples
    --------
    >>> mech = HybridMechanism(shape=(2,), l2_sensitivity=1.0,
    ...                        params=PrivacyParams(1.0, 1e-6), rng=0)
    >>> mech.advance_batch(np.ones((10, 2)))
    >>> mech.current_sum().shape, mech.steps_taken
    ((2,), 10)
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        l2_sensitivity: float,
        params: PrivacyParams,
        rng: np.random.Generator | int | None = None,
        decay: float = 1.0,
    ) -> None:
        super().__init__(ChunkSchedule(), shape, l2_sensitivity, params, rng, decay)


class SlidingWindowMechanism(ChunkedTreeMechanism):
    """Private sums over the last ``W`` stream elements (hard expiry).

    Chunks of a fixed length ``C`` that expire whole, so the release
    covers between ``W − C + 1`` and ``W`` elements once the stream is
    longer than ``W``.  The released noise variance is the retained
    chunks' final-release variances plus the live tree's ``popcount(t)``
    term: at most ``⌊W/C⌋`` frozen chunks, each at most
    ``levels(C)·σ²_node`` when it froze, so the variance stays below
    ``(⌊W/C⌋ + 1)·levels(C)·σ²_node`` however long the stream.
    :meth:`release_noise_variance` reports it exactly.

    ``window = math.inf`` degenerates to a single never-expiring chunk
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
        Chunk length ``C`` (elements per chunk tree); defaults to
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
        if math.isinf(self.window):
            if horizon is None:
                raise ValidationError(
                    "window=inf needs a horizon: the degenerate never-"
                    "expiring window is one tree over the full stream"
                )
            self.chunk = check_int("horizon", horizon, minimum=1)
        else:
            self.chunk = check_int(
                "chunk", max(1, int(self.window) // 4) if chunk is None else chunk, minimum=1
            )
            if self.chunk > self.window:
                raise ValidationError(
                    f"chunk ({self.chunk}) cannot exceed window ({self.window})"
                )
        schedule = ChunkSchedule(self.chunk, self.window)
        super().__init__(schedule, shape, l2_sensitivity, params, rng, horizon=horizon)

    @staticmethod
    def covered_at(t: int, window: int | float, chunk: int) -> int:
        """Covered count after ``t`` elements (:meth:`ChunkSchedule.covered_at`)."""
        return ChunkSchedule(chunk, window).covered_at(t)
