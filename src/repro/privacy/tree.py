"""The Tree Mechanism for continual private release of vector sums.

This is a faithful implementation of **Algorithm 4 (TreeMech)** from the
paper's Appendix C (due to Dwork-Naor-Pitassi-Rothblum 2010 and
Chan-Shi-Song 2011).  Given a stream ``υ_1, …, υ_T`` of vectors from a
domain of L2-diameter ``Δ₂``, the mechanism releases at every timestep ``t``
a noisy version of the prefix sum ``Σ_{i≤t} υ_i`` such that the whole output
sequence is ``(ε, δ)``-differentially private with respect to changing one
stream element.

How it works
------------
Conceptually, a complete binary tree is built over the ``T`` timesteps;
every node stores the (noisy) sum of the leaves below it.  Each prefix
``[1, t]`` decomposes into at most ``⌊log₂ t⌋ + 1`` dyadic ranges — one per
set bit in the binary representation of ``t`` — so each released prefix sum
is a sum of at most ``levels`` noisy nodes, and each stream element affects
at most ``levels`` nodes.  Calibrating every node's Gaussian noise to

    ``σ² = 2 · levels² · Δ₂² · ln(2/δ) / ε²``

makes the whole tree ``(ε, δ)``-DP (the ``levels`` factor pays for the basic
composition across the ``levels`` nodes containing any single element), and
yields the utility bound of Proposition C.1:

    ``‖s_t − Σ_{i≤t} υ_i‖ = O(Δ₂ (√d + √log(1/β)) log^{3/2} T / ε)``

with probability ``1 − β``.

Only ``levels`` partial sums are alive at any time, so memory is
``O(d log T)`` — the property Algorithms 2 and 3 inherit.

Implementation notes
--------------------
* Algorithm 4's pseudocode keeps clean partial sums ``a[j]`` and their
  noisy releases ``b[j] = a[j] + η[j]``, outputting
  ``s_t = Σ_{j : bit j of t set} b[j]``.  Because the dyadic ranges of the
  set bits of ``t`` tile ``[1, t]`` exactly, this is algebraically

      ``s_t = (Σ_{i≤t} υ_i)  +  Σ_{j : bit j of t set} η[j]``,

  i.e. *exact prefix sum plus the noise of the currently active nodes*.
  We store that decomposition directly: a running clean prefix sum plus
  one frozen noise vector per active level.  The released distribution is
  identical to the pseudocode's (same nodes, same noise, same reuse of
  frozen node releases), the state is slightly smaller
  (``(levels+1)·d`` instead of ``2·levels·d`` floats), and a block of
  stream elements becomes one prefix fold.
* Every node's noise is a pure function of its **address**: node
  ``(j, n)`` — level ``j``, index ``n = t >> j`` — draws
  ``N(0, σ²_node I)`` from ``Philox(key, counter=[0, 0, n, j])``, where
  the two-word ``key`` is the mechanism's ``rng`` read through
  :func:`noise_key` at construction.  This is Algorithm 4's one Gaussian
  draw per node; it does not depend on the order in which nodes are
  reached.
* A release is computed when read.  A commit records the clean prefix,
  the step count and the active levels (after step ``t`` they are exactly
  the set bits of ``t``), and marks the nodes it closed as not drawn.  The
  first read after it sums the prefix and the active nodes'
  noise, drawing each node not drawn yet, and keeps the result until the
  next commit.  A node that is never active at a read is never released
  and its noise is never drawn; drawing a keyed node late is
  post-processing of the same Gaussian, so no bit of any read moves.
* ``levels`` uses the exact tree height ``⌊log₂ T⌋ + 1`` rather than a real
  logarithm, matching the mechanism's analysis (the paper writes
  ``log T`` loosely).
* Values of any shape are accepted; they are flattened internally and the
  noisy sums are returned in the original shape, which is how Algorithms 2
  and 3 feed ``d×d`` matrices through the mechanism "viewed as
  d²-dimensional vectors".

Batched ingestion contract
--------------------------
There is one way in and one way out.  :meth:`~TreeMechanism.advance_batch`
and :meth:`~TreeMechanism.advance_sum` *commit* a block: validate and
capacity-check it, then advance the clean prefix and the active levels.
:meth:`~TreeMechanism.current_sum` *reads* the release at the block end
(:meth:`~TreeMechanism.released_moments` wraps the same read in a
record).  A caller that wants the release after every element commits
one-element blocks, ``advance_batch(v[None])``, and reads after each.
Because node noise is addressed, not drawn in sequence, every read sees
the same noise for the same node under any block split and any read
schedule.  The two commits differ only in how the clean prefix is
summed: ``advance_batch`` folds the elements in one at a time
(``prefix += v``; a plain-tree block of vector elements is one axis-0
reduction, the same additions in the same order), which is bit-identical
to one-element commits; ``advance_sum`` adds a pre-reduced block total
(one BLAS product upstream), which equals the fold up to float summation
order.

Three rules carry the privacy argument.  A node's noise is a pure
function of its address.  The prefix is append-only and a block is
validated and capacity-checked before anything commits, so no node is
ever released over two different data sums.  And every new mechanism
(a restarted shard, a new tenant) gets a fresh key from its own
generator; a new window chunk or hybrid epoch gets a key derived from
its mechanism's key and its chunk index.

The release record (``ReleasedMoments``)
----------------------------------------
:func:`merge_released` reads one thing per shard: a
:class:`ReleasedMoments` record of the shard's current release — the
released sum, its per-coordinate noise variance, the step count and the
effective weight.  :meth:`TreeMechanism.released_moments` (and the method
of the same name on every release mechanism) builds it without copying:
the tree freezes its cached release when it builds it and the record
shares that array.  Records are the merge handle on every transport.  A
shard in another *process* or host ships them as raw ``float64`` bytes
(:mod:`repro.streaming.wire`; pickling works too), so a merge over
decoded records is **bit-identical** to one over in-process records, and
the payload is compact: ``O(d)``/``O(d²)`` per shard per refresh (the
released statistic), never ``O(d log T)`` (the tree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .._validation import check_decay, check_int, check_positive, check_rng
from ..exceptions import ShardUnavailableError, StreamExhaustedError, ValidationError
from .parameters import PrivacyParams

__all__ = [
    "TreeMechanism",
    "DecayedTreeMechanism",
    "noise_key",
    "MergedRelease",
    "ReleasedMoments",
    "merge_released",
    "tree_levels",
    "tree_error_bound",
    "tree_error_bound_spectral",
    "coerce_stream_element",
    "coerce_stream_block",
]


def tree_levels(horizon: int) -> int:
    """Number of levels of the binary tree over a stream of length ``horizon``.

    Equals ``⌊log₂ T⌋ + 1``, the maximum number of dyadic ranges needed to
    cover any prefix ``[1, t]`` with ``t ≤ T``, and equivalently the maximum
    number of tree nodes any single stream element contributes to.
    """
    horizon = check_int("horizon", horizon, minimum=1)
    return horizon.bit_length()


def tree_error_bound(
    horizon: int,
    dim: int,
    l2_sensitivity: float,
    params: PrivacyParams,
    beta: float = 0.05,
) -> float:
    """High-probability error bound of Proposition C.1.

    Returns the radius ``α`` such that with probability at least ``1 − β``
    each released prefix sum satisfies ``‖s_t − Σ υ_i‖ ≤ α``:

        ``α = Δ₂ (√d + √(2 ln(1/β))) · levels^{3/2} · sqrt(2 ln(2/δ)) / ε``.

    The ``levels^{3/2}`` factor is ``levels`` (noise per node is scaled by
    ``levels``) times ``√levels`` (a prefix sums up to ``levels`` independent
    noisy nodes).
    """
    levels = tree_levels(horizon)
    dim = check_int("dim", dim, minimum=1)
    l2_sensitivity = check_positive("l2_sensitivity", l2_sensitivity)
    sigma_node = _node_sigma(levels, l2_sensitivity, params)
    # A sum of <= levels i.i.d. N(0, sigma^2 I_d) vectors has norm
    # <= sigma*sqrt(levels) * (sqrt(d) + sqrt(2 ln(1/beta))) w.h.p.
    return sigma_node * math.sqrt(levels) * (math.sqrt(dim) + math.sqrt(2.0 * math.log(1.0 / beta)))


def tree_error_bound_spectral(
    horizon: int,
    side_dim: int,
    l2_sensitivity: float,
    params: PrivacyParams,
    beta: float = 0.05,
) -> float:
    """Spectral-norm error bound for a tree over ``side × side`` matrices.

    When the stream elements are matrices (Algorithm 2's ``x_i x_iᵀ``
    stream), the noise accumulated in a released prefix sum is itself a
    ``side × side`` Gaussian matrix with i.i.d. entries of scale
    ``σ_node·√levels``.  Its **spectral** norm — the quantity Lemma 4.1
    needs, since the gradient error is ``‖ΔQ·θ‖ ≤ ‖ΔQ‖₂·‖θ‖`` — is
    ``O(σ(2√side + √log(1/β)))`` by the paper's Proposition A.1, a factor
    ``≈ √side`` below the Frobenius bound of :func:`tree_error_bound`.
    """
    levels = tree_levels(horizon)
    side_dim = check_int("side_dim", side_dim, minimum=1)
    l2_sensitivity = check_positive("l2_sensitivity", l2_sensitivity)
    sigma_node = _node_sigma(levels, l2_sensitivity, params)
    entry_sigma = sigma_node * math.sqrt(levels)
    return entry_sigma * (2.0 * math.sqrt(side_dim) + math.sqrt(2.0 * math.log(1.0 / beta)))


def coerce_stream_element(value: np.ndarray | float, shape: tuple[int, ...]) -> np.ndarray:
    """Validate a single stream element for ingestion.

    The single-element counterpart of :func:`coerce_stream_block`, shared by
    the Tree and Hybrid mechanisms: shape ``shape`` with finite entries,
    returned as a float array.  Callers that must not mutate state on a
    rejected element (the Hybrid mechanism's epoch bookkeeping, the
    estimators' step counters) validate through this *before* touching any
    tree.
    """
    array = np.asarray(value, dtype=float)
    if array.shape != tuple(shape):
        raise ValidationError(
            f"stream element has shape {array.shape}, expected {tuple(shape)}"
        )
    if not np.isfinite(array).all():
        raise ValidationError("stream element must contain only finite entries")
    return array


def coerce_stream_block(
    values: np.ndarray, shape: tuple[int, ...], finite: bool = True
) -> np.ndarray:
    """Validate a block of stream elements for batched ingestion.

    The single definition of the block contract shared by the Tree and
    Hybrid mechanisms: shape ``(k, *shape)`` with ``k ≥ 1`` and finite
    entries, returned as a float array.  Validating the whole block before
    any element is consumed is what makes batched rejection atomic.
    ``finite=False`` skips the finiteness scan, for a caller that checks
    its folded result instead (:meth:`TreeMechanism.advance_batch`).
    """
    array = np.asarray(values, dtype=float)
    if array.ndim == 0 or array.shape[1:] != tuple(shape):
        raise ValidationError(
            f"stream block must have shape (k, {', '.join(map(str, shape))})"
            f", got {array.shape}"
        )
    if array.shape[0] == 0:
        raise ValidationError("stream block must contain at least one element")
    if finite and not np.isfinite(array).all():
        raise ValidationError("stream block must contain only finite entries")
    return array


def _check_square(shape: tuple[int, ...]) -> int:
    """The side of a square-matrix element shape (spectral bounds need one)."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValidationError(f"spectral error bound needs a square matrix shape, got {shape}")
    return shape[0]


def _check_room(mechanism, count: int) -> None:
    """Refuse a block of ``count`` elements that would overrun a
    mechanism's ``horizon`` (``None``: no cap) before any state moves."""
    horizon, steps = mechanism.horizon, mechanism.steps_taken
    if horizon is not None and steps + count > horizon:
        raise StreamExhaustedError(
            f"{type(mechanism).__name__} configured for horizon {horizon} "
            f"received a block of {count} elements at step {steps}"
        )


def _node_sigma(levels: int, l2_sensitivity: float, params: PrivacyParams) -> float:
    """Per-node Gaussian noise scale: ``levels · Δ₂ · sqrt(2 ln(2/δ)) / ε``."""
    return (
        levels
        * l2_sensitivity
        * math.sqrt(2.0 * math.log(2.0 / params.delta))
        / params.epsilon
    )


def noise_key(rng) -> np.ndarray:
    """The two-word Philox key a keyed mechanism draws all its noise from.

    A ``(2,)`` ``uint64`` array is a key already and passes through
    unchanged; any other array is refused with
    :class:`~repro.exceptions.ValidationError`, because keys arrive from
    peers.  Anything :func:`~repro._validation.check_rng` accepts yields
    its generator's next two raw words.
    """
    if isinstance(rng, np.ndarray):
        if rng.shape != (2,) or rng.dtype != np.uint64:
            raise ValidationError(
                f"a noise key is a (2,) uint64 array, got {rng.dtype} of shape {rng.shape}"
            )
        return rng
    return check_rng(rng).bit_generator.random_raw(2)


class TreeMechanism:
    """Continual private prefix sums of a vector stream (Algorithm 4).

    Parameters
    ----------
    horizon:
        The stream length ``T``, known in advance (use
        :class:`repro.privacy.chunked.HybridMechanism` when it is not).
    shape:
        Shape of each stream element; scalars use ``()``, the paper's
        Algorithm 2 uses ``(d,)`` for the ``x_i y_i`` stream and ``(d, d)``
        for the ``x_i x_iᵀ`` stream.
    l2_sensitivity:
        L2-diameter ``Δ₂`` of the element domain — the maximum of
        ``‖υ − υ′‖`` (Frobenius norm for matrices) over any two admissible
        elements.  Both streams in Algorithm 2 have ``Δ₂ ≤ 2`` under the
        paper's normalization.
    params:
        Total ``(ε, δ)`` budget for the entire stream of releases.
    rng:
        Seed, Generator or two-word key for reproducible noise
        (:func:`noise_key`).

    Attributes
    ----------
    sigma_node:
        The per-node Gaussian noise standard deviation.
    steps_taken:
        Number of stream elements observed so far.
    decay:
        The forgetting factor ``γ``: exactly ``1.0`` here, below 1 on
        :class:`DecayedTreeMechanism`.  Only the prefix fold and the
        node-noise fade read it.

    Examples
    --------
    >>> mech = TreeMechanism(horizon=8, shape=(3,), l2_sensitivity=2.0,
    ...                      params=PrivacyParams(1.0, 1e-6), rng=0)
    >>> mech.advance_batch(np.ones((2, 3)))
    >>> noisy_sum = mech.current_sum()
    >>> noisy_sum.shape, mech.steps_taken
    ((3,), 2)
    """

    decay: float = 1.0

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
        self.levels = tree_levels(self.horizon)
        self.sigma_node = _node_sigma(self.levels, self.l2_sensitivity, params)
        # The node-noise key: every node's noise is a pure function of it
        # and the node's address (see _node_noise).
        self._key = noise_key(rng)
        self._flat_dim = int(np.prod(self.shape)) if self.shape else 1
        # Running clean prefix sum and one frozen noise vector per active
        # node (level j's node covers the dyadic range ending at the most
        # recent step whose lowest set bit is j).  Together these encode
        # Algorithm 4's a/b arrays: b[j] would be the level-j slice of the
        # prefix plus eta[j].
        self._prefix = np.zeros(self._flat_dim)
        # Allocated lazily by the first read that draws a node, with the
        # Philox generator the node noise is drawn from: an instance that
        # never releases (e.g. the serving front's solver, which reuses
        # only the solve pipeline and error bounds) then holds O(d) instead
        # of O(d log T) and never pays for building a bit generator.
        self._eta: np.ndarray | None = None
        self._active = [False] * self.levels
        # Whether eta[j] holds the noise of level j's active node: a commit
        # clears the flag of every level whose node it replaced, and the
        # first read that needs the node draws it (see _read).
        self._drawn = [False] * self.levels
        self.steps_taken = 0
        # The release at steps_taken, built by the first read after a
        # commit and kept until the next one.
        self._release: np.ndarray | None = None

    def _ensure_eta(self) -> np.ndarray:
        """The per-level frozen-noise store and the node-noise generator,
        built on first use."""
        if self._eta is None:
            self._eta = np.zeros((self.levels, self._flat_dim))
            self._counter = np.zeros(4, dtype=np.uint64)
            self._node_state = {
                "bit_generator": "Philox",
                "state": {"counter": self._counter, "key": self._key},
                "buffer": np.zeros(4, dtype=np.uint64),
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
            self._noise_gen = np.random.Generator(np.random.Philox(key=self._key))
        return self._eta

    def _node_noise(self, level: int, index: int) -> np.ndarray:
        """The noise of node ``(level, index)``, a pure function of its address.

        ``N(0, σ²_node I)`` drawn from ``Philox(key, counter=[0, 0, index,
        level])`` — the same values ``normal(0, σ_node)`` on a fresh
        ``Philox`` with that key and counter gives.  The draw advances only
        the low counter word, so no two nodes share bits.
        """
        self._ensure_eta()
        self._counter[2] = index
        self._counter[3] = level
        self._noise_gen.bit_generator.state = self._node_state
        noise = self._noise_gen.standard_normal(self._flat_dim)
        noise *= self.sigma_node
        return noise

    # ------------------------------------------------------------------
    # Core streaming API: commit a block, then read
    # ------------------------------------------------------------------

    def advance_batch(self, values: np.ndarray) -> None:
        """Ingest a block; the next :meth:`current_sum` reads its end.

        One commit: the prefix folds the block's elements in sequentially
        (one addition per element, in order, so the release read after it
        is bit-identical to committing the elements one at a time and
        reading after the last).  Nothing is released here: the first
        read builds the release and draws the keyed noise of the nodes it
        needs.  Nodes that close and merge inside the block, or before the
        next read, are never released, so their noise is never drawn.

        Finiteness is checked on the folded prefix, not on every entry: a
        non-finite entry stays non-finite under fading and addition, so a
        finite prefix proves the block finite.  Only a non-finite prefix
        pays the full scan, which rejects a bad block and accepts a finite
        one that overflowed.  Both checks precede the capacity check and
        every state change.

        Privacy is unchanged: the mechanism *may* release every prefix; a
        front that reads only block-boundary sums is post-processing that
        discards outputs.
        """
        flat = self._coerce_batch(values, finite=False)
        with np.errstate(over="ignore", invalid="ignore"):
            prefix = self._fold(flat)
        if not np.isfinite(prefix).all():
            self._coerce_batch(values)
        _check_room(self, flat.shape[0])
        self._commit(prefix, flat.shape[0])

    def advance_sum(self, total: np.ndarray | float, count: int) -> None:
        """Advance ``count`` steps given only the block's element **sum**.

        The same commit as :meth:`advance_batch`, with the prefix advanced
        by a pre-reduced total (one BLAS product upstream) instead of a
        sequential fold.  The noise is the same keyed node noise, so the
        release differs from :meth:`advance_batch` only by the float
        summation order of the clean prefix — bit-identical whenever the
        block sums exactly (e.g. small integers).

        The caller owns the contract that ``total`` equals the sum of the
        ``count`` ingested elements (the serving shard computes it as
        ``Xᵀy`` / ``XᵀX`` over its routed block).
        """
        total_flat = self._coerce(total)
        count = check_int("count", count, minimum=1)
        _check_room(self, count)
        self._commit(self._fold_total(total_flat, count), count)

    def _fold(self, rows: np.ndarray) -> np.ndarray:
        """The clean prefix after adding ``rows`` one at a time, in order;
        under ``γ < 1`` the prefix fades by ``γ`` before each row.

        At ``γ = 1`` a multi-row block is one axis-0 pass over a C-ordered
        ``[prefix; rows]``, the same additions in the same order: numpy
        reduces a non-contiguous axis row after row, elementwise, and sums
        pairwise only along the contiguous axis.  So the buffer is built
        C-ordered whatever the caller's layout (a Fortran-ordered block
        would make axis 0 contiguous).  One-entry elements make axis 0 the
        contiguous one, where ``reduce`` would sum pairwise, so they take
        ``accumulate``, which is sequential on every axis; a single row is
        one addition.
        """
        if self.decay != 1.0:
            prefix = self._prefix.copy()
            for row in rows:
                prefix *= self.decay
                prefix += row
            return prefix
        if rows.shape[0] == 1:
            return self._prefix + rows[0]
        stacked = np.empty((rows.shape[0] + 1, self._flat_dim))
        stacked[0] = self._prefix
        stacked[1:] = rows
        if self._flat_dim > 1:
            return np.add.reduce(stacked, axis=0)
        return np.add.accumulate(stacked, axis=0)[-1]

    def _fold_total(self, total: np.ndarray, count: int) -> np.ndarray:
        """The clean prefix after adding a pre-reduced block total.

        Under ``γ < 1`` the total is the block sum decayed to the block end,
        ``Σ_i γ^{count−1−i} υ_i``, and the prefix fades by ``γ^count``
        first — the sequential recursion telescoped over the block.
        """
        return self.decay**count * self._prefix + total

    def _fade(self, steps: int) -> float:
        """``γ^steps``: the weight a node's noise keeps ``steps`` elements
        after it closed (its sub-sum fades by the same power)."""
        return self.decay**steps

    def _commit(self, prefix: np.ndarray, count: int) -> None:
        """Commit ``count`` validated steps ending at clean prefix ``prefix``.

        After step ``t`` the active nodes are the set bits of ``t``; the
        level-``j`` one closed at ``(t >> j) << j``.  Only the levels below
        the highest bit in which ``t0`` and ``t_end`` differ change: each
        gets its new node, not drawn yet, and the levels above keep their
        nodes and whatever noise a read already drew for them.  No noise
        is drawn and no release is built here (see :meth:`_read`).
        """
        t0 = self.steps_taken
        t_end = t0 + count
        self._prefix = prefix
        for j in range((t0 ^ t_end).bit_length()):
            self._active[j] = bool((t_end >> j) & 1)
            self._drawn[j] = False
        self.steps_taken = t_end
        self._release = None

    def _read(self) -> np.ndarray:
        """The flat release at the current step, built once per commit.

        The prefix plus the noise of each active node — one per set bit
        of ``t``, level-ascending — where a node not drawn yet draws its
        keyed noise now.  A node's noise is a pure function of its
        address, so drawing it at its first read rather than when it
        closed changes no bit of any release.
        """
        if self._release is None:
            release = self._prefix.copy()
            t = bits = self.steps_taken
            while bits:
                j = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                if not self._drawn[j]:
                    self._ensure_eta()[j] = self._node_noise(j, t >> j)
                    self._drawn[j] = True
                if self.decay == 1.0:
                    release += self._eta[j]
                else:
                    # The level-j node closed at (t >> j) << j: its age is
                    # the j low bits of t.
                    release += self._fade(t & ((1 << j) - 1)) * self._eta[j]
            # Frozen once built: every read and record shares this array.
            release.setflags(write=False)
            self._release = release
        return self._release

    def current_sum(self) -> np.ndarray:
        """The noisy prefix sum at the current step (zeros before any).

        The first read after a commit builds the release and draws the
        noise of the nodes it needs that no earlier read drew; later reads
        return the same read-only array.  Re-reading is free privacy-wise:
        it is post-processing of an already released value.
        """
        return self._read().reshape(self.shape)

    def release_noise_variance(self) -> float:
        """Per-coordinate noise variance of the current release.

        The release at step ``t`` sums the exact prefix and one frozen
        ``N(0, σ²_node I)`` vector per **active** node — one per set bit of
        ``t`` — so its noise is Gaussian with per-coordinate variance
        ``popcount(t) · σ²_node``; under ``γ < 1`` each active node's
        term fades to ``γ^{2(t−b_j)} σ²_node`` (``b_j`` the step it closed).
        This is the per-shard term of the merge rule's variance accounting
        (see :func:`merge_released`).
        """
        t = self.steps_taken
        if self.decay == 1.0:
            return t.bit_count() * self.sigma_node**2
        fades = [self._fade(t & ((1 << j) - 1)) for j in range(self.levels) if self._active[j]]
        return sum(fade * fade for fade in fades) * self.sigma_node**2

    @property
    def effective_weight(self) -> float:
        """Total weight of the elements in the current sum.

        ``Σ_{i≤t} γ^{t−i} = (1 − γ^t)/(1 − γ)``, which is ``steps_taken``
        itself for the plain tree (every element carries weight 1).  It is
        what the estimators use as the logical ``t`` when consuming
        weighted moments (``refresh_from_released``).
        """
        if self.decay == 1.0:
            return float(self.steps_taken)
        return (1.0 - self.decay**self.steps_taken) / (1.0 - self.decay)

    def released_moments(self) -> "ReleasedMoments":
        """The current release as a :class:`ReleasedMoments` record.

        Post-processing of an already-released value — free privacy-wise,
        like :meth:`current_sum`.  The record shares the cached release
        (no copy); it is what shards hand to :func:`merge_released`.
        """
        return _record(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def error_bound(self, beta: float = 0.05) -> float:
        """Proposition C.1 error radius for this configuration."""
        return tree_error_bound(
            self.horizon, self._flat_dim, self.l2_sensitivity, self.params, beta
        )

    def error_bound_spectral(self, beta: float = 0.05) -> float:
        """Spectral-norm error radius (square-matrix streams only).

        Raises
        ------
        ValidationError
            If the element shape is not a square matrix.
        """
        return tree_error_bound_spectral(
            self.horizon, _check_square(self.shape), self.l2_sensitivity, self.params, beta
        )

    def memory_floats(self) -> int:
        """Number of floats held — ``(levels + 1) · d``, i.e. ``O(d log T)``.

        The prefix-plus-noise representation needs one ``d``-vector for the
        running clean prefix and one per tree level for the active node's
        frozen noise; this never exceeds the ``2 · levels · d`` of
        Algorithm 4's a/b arrays.
        """
        # Reported as the configured bound; the noise store itself is
        # allocated lazily on first ingestion.
        return (self.levels + 1) * self._flat_dim

    def _coerce(self, value: np.ndarray | float) -> np.ndarray:
        return coerce_stream_element(value, self.shape).reshape(self._flat_dim)

    def _coerce_batch(self, values: np.ndarray, finite: bool = True) -> np.ndarray:
        array = coerce_stream_block(values, self.shape, finite)
        return array.reshape(array.shape[0], self._flat_dim)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(horizon={self.horizon}, shape={self.shape}, "
            f"decay={self.decay}, sensitivity={self.l2_sensitivity}, params={self.params}, "
            f"levels={self.levels}, sigma_node={self.sigma_node:.4g})"
        )


class DecayedTreeMechanism(TreeMechanism):
    """Continual private **γ-decayed** sums ``Σ_{i≤t} γ^{t−i} υ_i``.

    A drop-in :class:`TreeMechanism` whose running sum forgets
    exponentially.  The prefix-plus-frozen-noise decomposition survives the
    weighting: every observation first fades the clean prefix by ``γ``, and
    every *frozen* node noise ``η_j`` (attached when its node closed at
    step ``b_j``) is read back scaled by ``γ^{t−b_j}`` — exactly the factor
    its node's decayed sub-sum carries inside the decayed prefix at time
    ``t``, so the telescoping identity of Algorithm 4 holds verbatim.

    Privacy: each stream element still touches at most ``levels`` nodes,
    and its weight inside any node is ``γ^{b−i} ≤ 1``, so the per-node L2
    sensitivity is at most ``Δ₂`` and the plain tree's per-node ``σ`` and
    ``(ε, δ)`` accounting apply unchanged (the decay only ever *shrinks*
    sensitivity, never grows it).  Utility improves correspondingly: the
    released noise variance is ``Σ_{j active} γ^{2(t−b_j)} σ²_node ≤
    popcount(t)·σ²_node``.

    The class only sets :attr:`~TreeMechanism.decay`; the fold, the fade
    and every ingest path are :class:`TreeMechanism`'s.
    :meth:`~TreeMechanism.advance_sum` takes the block total decayed to the
    block end, ``Σ_i γ^{k−1−i} υ_i`` (one weighted BLAS product upstream).
    At ``decay = 1.0`` the mechanism is **bit-identical** to
    :class:`TreeMechanism` under one seed.

    Parameters
    ----------
    decay:
        The forgetting factor ``γ ∈ (0, 1]``.
    horizon, shape, l2_sensitivity, params, rng:
        As in :class:`TreeMechanism`.
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


# ---------------------------------------------------------------------------
# The release record (what every shard hands to a merge)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReleasedMoments:
    """One mechanism's current release, frozen: what a merge reads.

    The released prefix sum, its per-coordinate noise variance, the step
    count and (for decayed or windowed mechanisms) the effective weight.
    Every shard answers ``released()`` with one record per bundle entry,
    on every transport: an in-process shard builds them from its
    mechanisms (:meth:`TreeMechanism.released_moments`), a remote one
    decodes them from a :mod:`repro.streaming.wire` reply (raw ``float64``
    bytes; the class also pickles), and :func:`merge_released` reads
    nothing else.  Both paths are lossless, so a merge is bit-identical on
    every transport, and the payload is the *released statistic*
    (``O(prod(shape))``), never the tree state (``O(d log T)``).

    A record is built around ``value`` without copying it: the mechanisms
    hand over a read-only array that no later ingest writes (a tree's
    cached release, or a fresh array a read returned), and a decoded
    record reads the frame's bytes in place.  Its ``shape`` is
    ``value.shape``.
    """

    value: np.ndarray
    noise_variance: float
    steps: int
    #: Effective weight of the released sum (``Σ γ^{t−i}`` for decayed
    #: mechanisms, the covered count for windowed ones).  ``None`` means
    #: "unweighted" — the weight equals ``steps`` — which keeps records
    #: of plain mechanisms byte-identical to the pre-weight wire format.
    weight: float | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        """The element shape of the released sum."""
        return self.value.shape

    @property
    def effective_weight(self) -> float:
        """Total weight of the released sum."""
        return float(self.steps) if self.weight is None else float(self.weight)

    def __eq__(self, other) -> bool:
        # The dataclass-generated __eq__ would compare the ndarray field
        # elementwise and raise on bool() — define value equality instead
        # (records are wire objects; comparing them must just work).
        if not isinstance(other, ReleasedMoments):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.steps == other.steps
            and self.noise_variance == other.noise_variance
            and self.effective_weight == other.effective_weight
            and np.array_equal(self.value, other.value)
        )

    def __hash__(self) -> int:
        # Defining __eq__ in the class body sets __hash__ = None even with
        # eq=False, silently making records unusable as dict/set keys.
        # Hash the scalar fields only: equal records share them, and the
        # value array (excluded — ndarrays are unhashable) is checked by
        # __eq__ on collision.
        return hash((self.shape, int(self.steps), float(self.noise_variance)))


def _record(mechanism) -> ReleasedMoments:
    """``mechanism``'s current release as a record around the array its
    ``current_sum()`` returns: frozen here, never copied."""
    value = mechanism.current_sum()
    value.setflags(write=False)
    steps = mechanism.steps_taken
    weight = mechanism.effective_weight
    return ReleasedMoments(
        value,
        mechanism.release_noise_variance(),
        steps,
        # Canonicalize the unweighted case to None so plain mechanisms'
        # records stay identical to the pre-weight wire format.
        None if weight == steps else weight,
    )


# ---------------------------------------------------------------------------
# The noise-preserving shard merge rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MergedRelease:
    """A logical-stream statistic assembled from per-shard released sums.

    Attributes
    ----------
    value:
        The merged released prefix sum, in element shape.
    noise_variance:
        Per-coordinate variance of the merged noise — the sum of the
        contributing shards' :meth:`TreeMechanism.release_noise_variance`
        terms (the per-shard noises are sums of *independent* per-node
        Gaussians, so variances add across shards).
    coverage:
        Steps ingested per shard, indexed like the input sequence;
        unavailable shards contribute 0.
    missing:
        Indices of the unavailable shards (partial-coverage semantics: the
        merged value is the statistic of the **covered** sub-streams only,
        and the lost mass is reported here rather than silently dropped).
    """

    value: np.ndarray
    noise_variance: float
    coverage: tuple[int, ...]
    missing: tuple[int, ...]
    #: Summed effective weight of the contributing releases (``None`` when
    #: every contributor was unweighted, i.e. weight = coverage).
    weight: float | None = None

    @property
    def covered_steps(self) -> int:
        """Total stream elements the merged statistic actually covers."""
        return int(sum(self.coverage))

    @property
    def covered_weight(self) -> float:
        """Total effective weight of the merged statistic.

        Equals :attr:`covered_steps` for unweighted (plain) mechanisms;
        for decayed/windowed shards it is the sum of the contributors'
        ``effective_weight`` terms — the logical ``t`` the estimators'
        ``refresh_from_released`` must consume so the variance ledger and
        the Lipschitz scaling stay correct for γ-weighted moments.
        """
        return float(sum(self.coverage)) if self.weight is None else float(self.weight)


def merge_released(
    records: Sequence["ReleasedMoments | None"] | Iterable,
    strict: bool = True,
) -> MergedRelease:
    """Combine per-shard released prefix sums into the logical statistic.

    Each shard mechanism's current release is its exact sub-stream prefix
    sum plus a sum of independent per-node Gaussians, so over **disjoint**
    sub-streams the shard releases are additive: summing them (shard-index
    ascending, a fixed order so replays are bit-identical) yields the exact
    logical-stream sum plus the sum of every shard's active node noises.
    Merging is post-processing of already-released values — it consumes no
    privacy budget, and the privacy analysis of each shard's tree is
    untouched by how many shards participate.

    Variance accounting: the merged noise is a sum of
    ``Σ_k popcount(t_k)`` independent ``N(0, σ²_node,k I)`` vectors, hence
    Gaussian with per-coordinate variance
    ``Σ_k popcount(t_k) · σ²_node,k`` — exposed as
    :attr:`MergedRelease.noise_variance` (each record carries its own
    shard's term, so trees and hybrids mix freely).

    The rule is *shape-agnostic* — the additivity argument only uses that
    every shard's release is its exact sub-stream sum plus independent
    Gaussians, never the element shape.  Algorithm 2 shards merge ``(d,)``
    and ``(d, d)`` moment streams; Algorithm 3 shards merge the projected
    ``(m,)`` / ``(m, m)`` streams through this same function (the Step-4
    rescaling pins the projected sensitivity at Δ₂ = 2 for any fixed
    ``Φ``, so per-shard σ calibration is untouched as long as every shard
    applies the *same* ``Φ``).

    Parameters
    ----------
    records:
        One :class:`ReleasedMoments` record per shard (a mechanism's
        :meth:`~TreeMechanism.released_moments`, an entry of a shard's
        ``released()``, or a record decoded off the wire); the merge
        reads their ``value``, ``noise_variance``, ``steps`` and
        ``effective_weight``.  ``None`` marks an unavailable (dead) shard.
    strict:
        When True (default), any unavailable shard raises
        :class:`~repro.exceptions.ShardUnavailableError`.  When False, the
        merge degrades to partial-coverage semantics: the value covers the
        live shards only and ``missing``/``coverage`` report the loss.
    """
    records = list(records)
    if not records:
        raise ValidationError("merge_released needs at least one shard record")
    missing = tuple(i for i, r in enumerate(records) if r is None)
    if missing and strict:
        raise ShardUnavailableError(
            f"shards {list(missing)} are unavailable (strict merge); pass "
            "strict=False for partial-coverage semantics"
        )
    live = [(i, r) for i, r in enumerate(records) if r is not None]
    if not live:
        raise ShardUnavailableError("every shard is unavailable; nothing to merge")
    for _, record in live:
        if not isinstance(record, ReleasedMoments):
            raise ValidationError(
                "merge_released takes ReleasedMoments records (a mechanism's "
                f"released_moments()), got {type(record).__name__}"
            )
        if record.shape != live[0][1].shape:
            raise ValidationError(
                f"shard element shapes differ: {record.shape} vs {live[0][1].shape}"
            )
    value: np.ndarray | None = None
    noise_variance = 0.0
    coverage = [0] * len(records)
    weight_total = 0.0
    for i, record in live:
        value = record.value.copy() if value is None else value + record.value
        noise_variance += record.noise_variance
        coverage[i] = record.steps
        weight_total += record.effective_weight
    covered = sum(coverage)
    return MergedRelease(
        value=value,
        noise_variance=float(noise_variance),
        coverage=tuple(coverage),
        missing=missing,
        # Canonicalized like ReleasedMoments.weight: None when every
        # contributor was unweighted.
        weight=None if weight_total == float(covered) else weight_total,
    )
