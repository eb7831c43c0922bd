"""The Hybrid Mechanism: continual private sums without a known horizon.

The Tree Mechanism (Algorithm 4) must know the stream length ``T`` up front
to calibrate its noise.  Chan, Shi and Song (2011) remove this assumption
with a simple doubling trick the paper cites in its footnote 13: run a
sequence of Tree Mechanisms over *epochs* of geometrically growing length
(``1, 2, 4, 8, …``), and release the sum of (a) the frozen noisy totals of
all completed epochs and (b) the running noisy prefix sum of the current
epoch's tree.

Each stream element lives in exactly one epoch tree, so changing one element
only affects that tree's output, and the whole mechanism inherits
``(ε, δ)``-DP from the per-epoch trees, each run with the full budget.
The error at time ``t`` sums over ``O(log t)`` completed epochs, giving the
same asymptotic guarantee as the known-horizon tree — this is exactly the
"asymptotically the same error" claim of Chan et al. that the paper relies
on to drop the fixed-``T`` assumption from Algorithms 2 and 3.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_decay, check_positive, check_rng
from .parameters import PrivacyParams
from .tree import (
    TreeMechanism,
    _snapshot_released,
    coerce_stream_block,
    coerce_stream_element,
    tree_error_bound,
)

__all__ = ["HybridMechanism"]


class HybridMechanism:
    """Unbounded-stream private prefix sums via epoch doubling.

    Parameters
    ----------
    shape:
        Shape of each stream element (see :class:`TreeMechanism`).
    l2_sensitivity:
        L2-diameter of the element domain.
    params:
        ``(ε, δ)`` budget.  Every element belongs to exactly one epoch tree,
        so the *whole* unbounded stream satisfies this budget (parallel
        composition across disjoint epochs).
    rng:
        Seed or Generator for reproducible noise.
    decay:
        Forgetting factor ``γ ∈ (0, 1]``; ``1.0`` (default) is the plain
        unweighted mechanism.  Under ``γ < 1`` the epoch trees are
        :class:`~repro.privacy.release.DecayedTreeMechanism` instances and
        the frozen epochs' totals fade by ``γ`` per subsequent element, so
        the release tracks ``Σ γ^{t−i} υ_i`` across epoch boundaries.

    Examples
    --------
    >>> mech = HybridMechanism(shape=(2,), l2_sensitivity=1.0,
    ...                        params=PrivacyParams(1.0, 1e-6), rng=0)
    >>> for _ in range(10):
    ...     s = mech.observe(np.ones(2))
    >>> s.shape
    (2,)
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        l2_sensitivity: float,
        params: PrivacyParams,
        rng: np.random.Generator | int | None = None,
        decay: float = 1.0,
    ) -> None:
        self.shape = tuple(int(s) for s in shape)
        self.l2_sensitivity = check_positive("l2_sensitivity", l2_sensitivity)
        self.params = params
        self.decay = check_decay("decay", decay)
        self._rng = check_rng(rng)
        self._flat_dim = int(np.prod(self.shape)) if self.shape else 1
        self.steps_taken = 0
        self._epoch_index = 0
        self._frozen_total = np.zeros(self.shape)
        self._frozen_noise_variance = 0.0
        self._current_tree = self._new_tree()
        self._completed_epochs = 0

    def _new_tree(self) -> TreeMechanism:
        """The next epoch's tree; it takes a fresh node-noise key from the
        parent generator as it is built."""
        horizon = 2**self._epoch_index
        if self.decay != 1.0:
            # Imported here to avoid a module cycle (release.py imports
            # this module's class from its factory).
            from .release import DecayedTreeMechanism

            return DecayedTreeMechanism(
                horizon=horizon,
                shape=self.shape,
                l2_sensitivity=self.l2_sensitivity,
                params=self.params,
                rng=self._rng,
                decay=self.decay,
            )
        return TreeMechanism(
            horizon=horizon,
            shape=self.shape,
            l2_sensitivity=self.l2_sensitivity,
            params=self.params,
            rng=self._rng,
        )

    def _frozen_fade(self) -> float:
        """``γ^e`` for ``e`` elements ingested since the last epoch roll.

        The frozen epochs' total is decayed *to the roll time*; reading it
        at the current step fades it by the live epoch's elapsed length.
        """
        return self.decay**self._current_tree.steps_taken

    def observe(self, value: np.ndarray | float) -> np.ndarray:
        """Ingest the next element; return the noisy prefix sum over all epochs.

        The element is fully validated (shape *and* finiteness) before any
        state moves, and ``steps_taken`` is bumped only after the epoch tree
        has consumed it — so a rejected element leaves the epoch bookkeeping
        (rollovers, frozen totals, ``release_noise_variance``) and the step
        counter exactly where they were, matching the batch paths' commit
        ordering.
        """
        array = coerce_stream_element(value, self.shape)
        if self._current_tree.steps_taken >= self._current_tree.horizon:
            self._roll_epoch()
        tree_release = self._current_tree.observe(array)
        self.steps_taken += 1
        return self._frozen_fade() * self._frozen_total + tree_release

    def observe_batch(self, values: np.ndarray) -> np.ndarray:
        """Ingest a block of consecutive elements; return all noisy prefix sums.

        The block is split along epoch boundaries and each piece is fed to
        the corresponding epoch tree's
        :meth:`~repro.privacy.tree.TreeMechanism.observe_batch`.  Epoch
        trees are built at the same rollovers either way and their node
        noise is keyed, so the releases are bit-identical to the same
        elements arriving one at a time.
        """
        # Validate the whole block before any epoch piece is consumed: a
        # failure inside a later piece must not leave earlier pieces
        # half-ingested.
        array = coerce_stream_block(values, self.shape)
        k = array.shape[0]
        pieces: list[np.ndarray] = []
        start = 0
        while start < k:
            if self._current_tree.steps_taken >= self._current_tree.horizon:
                self._roll_epoch()
            capacity = self._current_tree.horizon - self._current_tree.steps_taken
            stop = min(start + capacity, k)
            elapsed0 = self._current_tree.steps_taken
            piece = self._current_tree.observe_batch(array[start:stop])
            # Each row fades the frozen epochs by its own elapsed length
            # inside the live epoch (exactly 1.0 at γ = 1).
            fades = self.decay ** np.arange(
                elapsed0 + 1, elapsed0 + (stop - start) + 1, dtype=float
            )
            fades = fades.reshape((stop - start,) + (1,) * len(self.shape))
            pieces.append(fades * self._frozen_total + piece)
            start = stop
        self.steps_taken += k
        return np.concatenate(pieces, axis=0)

    def advance_batch(self, values: np.ndarray) -> np.ndarray:
        """Ingest a block; release **only** the final noisy prefix sum.

        The serving layer's exact ingest path (see
        :meth:`~repro.privacy.tree.TreeMechanism.advance_batch`): the block
        is split along epoch boundaries and each piece advances the
        corresponding epoch tree without materializing interior releases.
        The returned release is bit-identical to :meth:`observe_batch`'s
        final row.
        """
        array = coerce_stream_block(values, self.shape)
        k = array.shape[0]
        release: np.ndarray | None = None
        start = 0
        while start < k:
            if self._current_tree.steps_taken >= self._current_tree.horizon:
                self._roll_epoch()
            capacity = self._current_tree.horizon - self._current_tree.steps_taken
            stop = min(start + capacity, k)
            tree_release = self._current_tree.advance_batch(array[start:stop])
            release = self._frozen_fade() * self._frozen_total + tree_release
            start = stop
        self.steps_taken += k
        return release

    def _roll_epoch(self) -> None:
        """Freeze the finished epoch's final noisy total and double."""
        # The previous frozen total was decayed to the *previous* roll;
        # fade it across the epoch that just finished before folding in
        # that epoch's (already internally decayed) final total.
        fade = self._frozen_fade()
        self._frozen_total = fade * self._frozen_total + self._current_tree.current_sum()
        self._frozen_noise_variance = (
            fade * fade * self._frozen_noise_variance
            + self._current_tree.release_noise_variance()
        )
        self._completed_epochs += 1
        self._epoch_index += 1
        self._current_tree = self._new_tree()

    def current_sum(self) -> np.ndarray:
        """The most recent noisy prefix sum (post-processing, free)."""
        return self._frozen_fade() * self._frozen_total + self._current_tree.current_sum()

    def release_noise_variance(self) -> float:
        """Per-coordinate noise variance of the current release.

        Sums the frozen epochs' final-release variances (each a full tree:
        one active node at ``σ²_node`` of that epoch) and the live epoch
        tree's ``popcount(t) · σ²_node`` term — all independent Gaussians,
        so variances add.  The per-shard term of
        :func:`~repro.privacy.tree.merge_released`'s variance accounting.
        Under ``decay < 1`` the frozen epochs' term fades by ``γ^{2e}``
        with the live epoch's elapsed length ``e`` (noise scaled by ``c``
        has variance scaled by ``c²``).
        """
        fade = self._frozen_fade()
        return (
            fade * fade * self._frozen_noise_variance
            + self._current_tree.release_noise_variance()
        )

    @property
    def effective_weight(self) -> float:
        """Total weight of the current sum (``Σ γ^{t−i}``; ``t`` at γ=1)."""
        if self.decay == 1.0:
            return float(self.steps_taken)
        return (1.0 - self.decay**self.steps_taken) / (1.0 - self.decay)

    def released_moments(self):
        """Snapshot the current release as a ``ReleasedMoments``.

        Same contract as :meth:`TreeMechanism.released_moments
        <repro.privacy.tree.TreeMechanism.released_moments>`: the frozen
        epochs' total and the live epoch's release collapse into one value
        plus the combined variance term, so hybrid shards cross a process
        boundary exactly like tree shards.
        """
        return _snapshot_released(self)

    def error_bound(self, beta: float = 0.05) -> float:
        """High-probability error radius at the current timestep.

        Sums (in quadrature, as the noises are independent Gaussians) the
        per-epoch Proposition C.1 radii of the ``O(log t)`` epochs touched
        so far.
        """
        radii_sq = 0.0
        epochs = self._completed_epochs + 1
        share = beta / max(epochs, 1)
        for k in range(epochs):
            radii_sq += (
                tree_error_bound(
                    2**k, self._flat_dim, self.l2_sensitivity, self.params, share
                )
                ** 2
            )
        return float(np.sqrt(radii_sq))

    def memory_floats(self) -> int:
        """Floats held: the frozen total plus the live epoch tree."""
        return self._flat_dim + self._current_tree.memory_floats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HybridMechanism(shape={self.shape}, sensitivity={self.l2_sensitivity}, "
            f"params={self.params}, steps={self.steps_taken})"
        )
