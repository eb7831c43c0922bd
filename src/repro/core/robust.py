"""The robust extension of Algorithm 3 (paper §5.2, final part).

Setting: not all covariates come from the low-Gaussian-width domain — only a
subset ``G ⊆ X`` has small width (e.g. only a fraction of covariates are
sparse), and a *membership oracle* tells the algorithm whether ``x_t ∈ G``.
The non-private fix (just skip points outside ``G``) is not private: whether
a point was skipped leaks a predicate of it through the released estimates.

The paper's fix: **replace** each out-of-domain pair by ``(0, 0)`` *before*
it enters the tree mechanisms.  A zero vector is a perfectly valid stream
element (it contributes nothing to either moment), the substitution is a
per-element deterministic preprocessing applied uniformly, and neighboring
streams still differ in at most one tree element of norm ≤ 1 — so the
sensitivity calibration and hence the ``(ε, δ)`` guarantee are preserved
verbatim.  Utility transfers on the G-subset risk

    ``Σ_{x_i∈G, i≤t} (y_i − ⟨x_i, θ⟩)²``

with ``W = w(G) + w(C)`` in Theorem 5.7's bound.

Implementation: a thin, auditable wrapper that filters and delegates to
:class:`~repro.core.projected_regression.PrivIncReg2` — the inner mechanism
never learns whether a zero it ingested was real or substituted.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .._validation import check_vector, check_xy_block
from ..geometry.base import ConvexSet, PointSet
from ..privacy.parameters import PrivacyParams
from .projected_regression import PrivIncReg2

__all__ = ["RobustPrivIncReg"]


class RobustPrivIncReg:
    """Oracle-filtered variant of :class:`PrivIncReg2`.

    Parameters
    ----------
    horizon, constraint, params:
        As for :class:`PrivIncReg2`.
    good_domain:
        The low-width domain ``G`` whose width sizes the projection.
    membership_oracle:
        ``x ↦ bool`` deciding ``x ∈ G``.  Defaults to
        ``good_domain.contains`` (any callable works; e.g. a sparsity
        check cheaper than full membership).
    **inner_kwargs:
        Forwarded to the inner :class:`PrivIncReg2` (``beta``, ``gamma``,
        ``fidelity``, ``rng``, ...).
    """

    def __init__(
        self,
        horizon: int,
        constraint: ConvexSet,
        good_domain: PointSet,
        params: PrivacyParams,
        membership_oracle: Callable[[np.ndarray], bool] | None = None,
        **inner_kwargs,
    ) -> None:
        self.good_domain = good_domain
        self.membership_oracle = (
            membership_oracle if membership_oracle is not None else good_domain.contains
        )
        self.inner = PrivIncReg2(
            horizon=horizon,
            constraint=constraint,
            x_domain=good_domain,
            params=params,
            **inner_kwargs,
        )
        self.dim = self.inner.dim
        self.substituted = 0
        self.accepted = 0

    def observe(self, x: np.ndarray, y: float) -> np.ndarray:
        """Feed ``(x, y)`` if ``x ∈ G``, else the neutral ``(0, 0)``."""
        x = check_vector("x", x, dim=self.dim)
        if self.membership_oracle(x):
            theta = self.inner.observe(x, float(y))
            # Count only after the inner mechanism accepted the point, as
            # observe_batch does.
            self.accepted += 1
            return theta
        theta = self.inner.observe(np.zeros(self.dim), 0.0)
        self.substituted += 1
        return theta

    def observe_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Filter a block through the oracle, then batch-feed the inner mechanism.

        The membership oracle is consulted per point (it is an arbitrary
        callable), out-of-domain rows are replaced by the neutral ``(0, 0)``
        element, and the substituted block flows through
        :meth:`PrivIncReg2.observe_batch` in one shot — the same
        per-element preprocessing as the sequential path, so the privacy
        argument is untouched.
        """
        xs, ys = check_xy_block(xs, ys, dim=self.dim)
        xs = xs.copy()
        ys = ys.copy()
        in_domain = np.array(
            [bool(self.membership_oracle(x)) for x in xs], dtype=bool
        )
        xs[~in_domain] = 0.0
        ys[~in_domain] = 0.0
        theta = self.inner.observe_batch(xs, ys)
        # Count only after the inner mechanism accepted the block: a
        # rejected block must not inflate the public counters.
        self.accepted += int(in_domain.sum())
        self.substituted += int((~in_domain).sum())
        return theta

    def current_estimate(self) -> np.ndarray:
        """The most recently released parameter."""
        return self.inner.current_estimate()

    @property
    def steps_taken(self) -> int:
        """Total points processed (in-domain plus substituted)."""
        return self.inner.steps_taken

    def substitution_rate(self) -> float:
        """Fraction of the stream replaced by the neutral element."""
        total = self.accepted + self.substituted
        return self.substituted / total if total else 0.0
