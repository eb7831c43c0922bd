"""Unknown-horizon private incremental regression (paper footnote 13).

Algorithms 2 and 3 assume the stream length ``T`` is known so the Tree
Mechanism can calibrate its noise.  The paper's footnote 13 notes the
assumption "can be removed by using a simple trick introduced by Chan et
al." — their Hybrid Mechanism — "and the asymptotic excess risk bounds are
not affected".

:class:`UnboundedPrivIncReg` is that variant: Algorithm 2 with each
:class:`~repro.privacy.tree.TreeMechanism` replaced by a
:class:`~repro.privacy.chunked.HybridMechanism`.  The stream may run forever;
every prefix of the output sequence satisfies the same ``(ε, δ)`` guarantee
(each point lives in exactly one chunk tree, so the per-chunk guarantee is
also the global one), and the per-step gradient-error bound adapts to the
epochs seen so far.
"""

from __future__ import annotations

import numpy as np

from ..geometry.base import ConvexSet
from ..privacy.parameters import PrivacyParams
from .incremental_regression import _MomentRegression

__all__ = ["UnboundedPrivIncReg"]


class UnboundedPrivIncReg(_MomentRegression):
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
        become :class:`~repro.privacy.chunked.SlidingWindowMechanism`
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

    _family = "hybrid"

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
        super().__init__(
            None, constraint, params, beta, "fast", iteration_cap, solve_every,
            decay, window, rng,
        )

    def gradient_error(self) -> float:
        """Current gradient-error bound, adapted to the epochs seen so far.

        Uses the Hybrid mechanisms' own (Frobenius-level) error bounds;
        conservative versus the spectral refinement available for a single
        tree, but valid at every prefix length without a horizon.  Each
        refresh recomputes it: the bound grows with the epochs seen.  A
        refresh inside a block of :meth:`observe_batch` runs with the
        mechanisms advanced to its step, so it sees the epochs the
        sequential path would.
        """
        return self._moment_alpha(self._tree_gram.error_bound(self.beta / 2.0))
