"""Unknown-horizon private incremental regression (paper footnote 13).

Algorithms 2 and 3 assume the stream length ``T`` is known so the Tree
Mechanism can calibrate its noise.  The paper's footnote 13 notes the
assumption "can be removed by using a simple trick introduced by Chan et
al." — their Hybrid Mechanism — "and the asymptotic excess risk bounds are
not affected".

:class:`UnboundedPrivIncReg` is that variant: Algorithm 2 with each
:class:`~repro.privacy.tree.TreeMechanism` replaced by a
:class:`~repro.privacy.hybrid.HybridMechanism`.  The stream may run forever;
every prefix of the output sequence satisfies the same ``(ε, δ)`` guarantee
(each point lives in exactly one epoch tree, so the per-epoch guarantee is
also the global one), and the per-step gradient-error bound adapts to the
epochs seen so far.
"""

from __future__ import annotations

import numpy as np

from .._validation import (
    check_int,
    check_matrix,
    check_positive,
    check_probability,
    check_release_knobs,
    check_rng,
    check_unit_xy_domain,
    check_vector,
    check_xy_block,
)
from ..erm.noisy_pgd import noisy_pgd_iterations
from ..exceptions import DomainViolationError
from ..geometry.base import ConvexSet
from ..privacy.parameters import PrivacyParams
from ..privacy.release import SlidingWindowMechanism, make_release_mechanism
from .incremental_regression import MOMENT_SENSITIVITY
from .private_gradient import PrivateGradientFunction, solve_released

__all__ = ["UnboundedPrivIncReg"]


class UnboundedPrivIncReg:
    """Algorithm 2 without the known-``T`` assumption.

    Parameters
    ----------
    constraint:
        The convex constraint set ``C``.
    params:
        Total ``(ε, δ)`` budget; holds for the whole (unbounded) stream by
        the epoch-disjointness of the Hybrid Mechanism.
    beta:
        Confidence parameter for the internal error bounds.
    iteration_cap:
        PGD iteration ceiling per step.
    solve_every:
        Run the PGD refresh every ``solve_every`` steps, replaying the
        stale parameter in between (post-processing only; the hybrid
        moment mechanisms advance every step).  1 = per-step refresh.
    decay:
        Optional forgetting factor ``γ ∈ (0, 1]``: the hybrid moment
        mechanisms decay their epoch trees and frozen totals so releases
        track ``Σ γ^{t−i} υ_i``, and solves size their Lipschitz constant
        from the effective weight ``(1−γ^t)/(1−γ)``.  Mutually exclusive
        with ``window``.
    window:
        Optional **finite** sliding window ``W``: the moment mechanisms
        become :class:`~repro.privacy.release.SlidingWindowMechanism`
        rings, which need no horizon at all — a natural pairing with the
        unbounded stream.  Mutually exclusive with ``decay``.
    rng:
        Seed or Generator; each hybrid moment mechanism receives an
        independent child generator spawned from it.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.geometry import L2Ball
    >>> from repro.privacy import PrivacyParams
    >>> mech = UnboundedPrivIncReg(L2Ball(2), PrivacyParams(1.0, 1e-6), rng=0)
    >>> for _ in range(10):  # no horizon declared anywhere
    ...     theta = mech.observe(np.array([0.5, 0.0]), 0.25)
    >>> theta.shape
    (2,)
    """

    def __init__(
        self,
        constraint: ConvexSet,
        params: PrivacyParams,
        beta: float = 0.05,
        iteration_cap: int = 400,
        solve_every: int = 1,
        decay: float | None = None,
        window: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.constraint = constraint
        self.params = params
        self.beta = check_probability("beta", beta)
        self.iteration_cap = check_int("iteration_cap", iteration_cap, minimum=1)
        self.solve_every = check_int("solve_every", solve_every, minimum=1)
        self.decay, self.window = check_release_knobs(decay, window)
        self._rng = check_rng(rng)
        self.dim = constraint.dim

        half = params.halve()
        cross_rng, gram_rng = self._rng.spawn(2)
        self._tree_cross = make_release_mechanism(
            shape=(self.dim,),
            l2_sensitivity=MOMENT_SENSITIVITY,
            params=half,
            rng=cross_rng,
            mechanism="hybrid",
            decay=self.decay,
            window=self.window,
        )
        self._tree_gram = make_release_mechanism(
            shape=(self.dim, self.dim),
            l2_sensitivity=MOMENT_SENSITIVITY,
            params=half,
            rng=gram_rng,
            mechanism="hybrid",
            decay=self.decay,
            window=self.window,
        )
        self.steps_taken = 0
        self.estimate_version = 0
        self._theta = constraint.project(np.zeros(self.dim))

    def gradient_error(self) -> float:
        """Current gradient-error bound, adapted to the epochs seen so far.

        Uses the Hybrid mechanisms' own (Frobenius-level) error bounds;
        conservative versus the spectral refinement available for a single
        tree, but valid at every prefix length without a horizon.
        """
        share = self.beta / 2.0
        gram_error = self._tree_gram.error_bound(share)
        cross_error = self._tree_cross.error_bound(share)
        return PrivateGradientFunction.moment_error_bound(
            gram_error, cross_error, self.constraint.diameter()
        )

    def observe(self, x: np.ndarray, y: float) -> np.ndarray:
        """Process ``(x_t, y_t)``; release ``θ_t^priv``.  No horizon needed."""
        x = check_vector("x", x, dim=self.dim)
        y = float(y)
        if np.linalg.norm(x) > 1.0 + 1e-9 or abs(y) > 1.0 + 1e-9:
            raise DomainViolationError(
                "UnboundedPrivIncReg requires ‖x‖ ≤ 1 and |y| ≤ 1"
            )
        # Trees first, counter after (the batch paths' commit ordering): a
        # rejected point caught by the caller leaves counter and epoch
        # trees in agreement.
        noisy_cross = self._tree_cross.observe(x * y)
        noisy_gram = self._tree_gram.observe(np.outer(x, x))
        self.steps_taken += 1
        t = self.steps_taken
        if t % self.solve_every == 0:
            self._solve_at(self._logical_t(t), noisy_gram, noisy_cross)
        return self._theta.copy()

    def _logical_t(self, t: int) -> int | float:
        """Effective sample weight at stream position ``t``.

        ``t`` when plain, the γ-series ``(1−γ^t)/(1−γ)`` under ``decay``,
        the covered count under ``window`` — pure arithmetic in ``t`` so
        batched and sequential ingestion size their solves identically.
        """
        if self.window is not None:
            return max(
                SlidingWindowMechanism.covered_at(
                    t, self.window, self._tree_cross.chunk
                ),
                1,
            )
        if self.decay is not None and self.decay != 1.0:
            return (1.0 - self.decay**t) / (1.0 - self.decay)
        return t

    def observe_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Process a block of points; release ``θ`` after the final one.

        The hybrid moment mechanisms ingest the block through their
        epoch-chunked batch path (rng-matched to sequential ingestion).
        The gradient-error bound ``α`` changes only when an epoch
        completes, so the block is cut at the ``O(log k)`` epoch-full
        steps ``2^e − 1``; within each piece the scheduled PGD refreshes
        index into the piece's per-step releases with exactly the epoch
        state the sequential path would see — bit-identical to ``k``
        :meth:`observe` calls.  No horizon needed: epochs double as usual.
        """
        xs, ys = check_xy_block(xs, ys, dim=self.dim)
        check_unit_xy_domain("UnboundedPrivIncReg", xs, ys)
        k = xs.shape[0]
        t0 = self.steps_taken
        for chunk_start, chunk_stop in self._epoch_chunks(t0, t0 + k):
            lo, hi = chunk_start - t0, chunk_stop - t0
            chunk_x, chunk_y = xs[lo:hi], ys[lo:hi]
            cross_all = self._tree_cross.observe_batch(chunk_x * chunk_y[:, None])
            gram_all = self._tree_gram.observe_batch(
                chunk_x[:, :, None] * chunk_x[:, None, :]
            )
            self.steps_taken = chunk_stop
            for t in range(chunk_start + 1, chunk_stop + 1):
                if t % self.solve_every == 0:
                    idx = t - chunk_start - 1
                    self._solve_at(self._logical_t(t), gram_all[idx], cross_all[idx])
        return self._theta.copy()

    @staticmethod
    def _epoch_chunks(t0: int, t1: int) -> list[tuple[int, int]]:
        """Cut ``(t0, t1]`` at the epoch-full steps ``2^e − 1``.

        The hybrid mechanism rolls an epoch lazily at the step *after* the
        epoch fills, so the error bound (and hence ``α``) is constant on
        each interval ``(2^e − 1, 2^{e+1} − 1]``; chunks never straddle one
        of those boundaries.
        """
        cuts = []
        e = 1
        while 2**e - 1 < t1:
            if t0 < 2**e - 1:
                cuts.append(2**e - 1)
            e += 1
        edges = [t0] + cuts + [t1]
        return list(zip(edges[:-1], edges[1:]))

    def _solve_at(
        self, t: float, noisy_gram: np.ndarray, noisy_cross: np.ndarray
    ) -> None:
        """One PGD refresh against the released moments at logical ``t``.

        ``α`` is recomputed per refresh: the hybrid bound grows with the
        epochs seen so far.
        """
        alpha = self.gradient_error()
        lipschitz = 2.0 * t * (self.constraint.diameter() + 1.0)
        self._theta = solve_released(
            self.constraint,
            noisy_gram,
            noisy_cross,
            alpha=alpha,
            lipschitz=lipschitz,
            iterations=noisy_pgd_iterations(lipschitz, alpha, cap=self.iteration_cap),
            start=self._theta,
        )
        self.estimate_version += 1

    def refresh_from_released(
        self, t: int | float, noisy_gram: np.ndarray, noisy_cross: np.ndarray
    ) -> np.ndarray:
        """Serve-mode hook: one PGD refresh against external released moments.

        The horizon-free counterpart of
        :meth:`~repro.core.incremental_regression.PrivIncReg1.refresh_from_released`
        — a :class:`~repro.streaming.serving.ShardedStream` with hybrid
        shards and no declared horizon uses this solver.  Post-processing
        only; bumps ``estimate_version`` and returns the refreshed
        parameter.  ``t`` may be a positive float: a front serving
        weighted (``decay``/``window``) moments passes the mechanisms'
        effective weight as the logical sample count.
        """
        if isinstance(t, (int, np.integer)) and not isinstance(t, bool):
            t = check_int("t", t, minimum=1)
        else:
            t = check_positive("t", t)
        noisy_gram = check_matrix("noisy_gram", noisy_gram, shape=(self.dim, self.dim))
        noisy_cross = check_vector("noisy_cross", noisy_cross, dim=self.dim)
        self._solve_at(t, noisy_gram, noisy_cross)
        return self._theta.copy()

    def current_estimate(self) -> np.ndarray:
        """The most recently released parameter."""
        return self._theta.copy()

    def memory_floats(self) -> int:
        """Floats held — still logarithmic in the (unbounded) prefix length."""
        return (
            self._tree_cross.memory_floats()
            + self._tree_gram.memory_floats()
            + self.dim
        )
