"""The private gradient function of Definition 5.

For least-squares, the gradient of the aggregate loss is *linear in the data
moments* (paper eq. (2)):

    ``∇L(θ; Γ_t) = 2(X_tᵀX_t θ − X_tᵀy_t) = 2(Σ x_i x_iᵀ θ − Σ x_i y_i)``.

Algorithms 2 and 3 therefore maintain the two moment streams privately with
the Tree Mechanism and expose the **function**

    ``g_t(θ) = 2(Q_t θ − q_t)``

where ``Q_t ≈ Σ x_i x_iᵀ`` and ``q_t ≈ Σ x_i y_i`` are the noisy prefix
sums.  The function's two defining properties (Definition 5):

(i)  *privacy* — ``(Q_t, q_t)`` are released by a DP mechanism, and ``g_t``
     is a deterministic map of them, so evaluating ``g_t`` at arbitrarily
     many points is free post-processing;
(ii) *utility* — uniformly over ``θ ∈ C``,
     ``‖g_t(θ) − ∇L(θ; Γ_t)‖ ≤ 2(‖Q_t − Σxxᵀ‖_F·‖C‖ + ‖q_t − Σxy‖)``,
     which Lemma 4.1 bounds by ``O(κ‖C‖(√d + √log(1/β)))`` via
     Proposition C.1.

This module packages the released moments and those bounds into a callable
object that :class:`~repro.erm.noisy_pgd.NoisyProjectedGradient` consumes.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_matrix, check_non_negative, check_vector
from ..erm.noisy_pgd import NoisyProjectedGradient
from ..geometry.base import ConvexSet

__all__ = ["PrivateGradientFunction", "solve_released"]


class PrivateGradientFunction:
    """The released gradient function ``g(θ) = 2(Qθ − q)``.

    Parameters
    ----------
    noisy_gram:
        The noisy second-moment matrix ``Q`` (shape ``(d, d)``); callers
        should symmetrize before passing if exact symmetry matters.
    noisy_cross:
        The noisy cross-moment vector ``q`` (shape ``(d,)``), or a
        ``(k, d)`` block of them: the function then maps a ``(k, d)``
        block ``Θ`` to the block of ``2(Qθ_j − q_j)`` — ``k`` problems
        sharing one Gram, as a lockstep
        :class:`~repro.erm.noisy_pgd.NoisyProjectedGradient` solves them.
    error_bound:
        A high-probability bound ``α`` on ``sup_{θ∈C} ‖g(θ) − ∇L(θ)‖``
        (Definition 5(ii)); consumed by the PGD step-size rule.

    Notes
    -----
    The object is deliberately *immutable data + pure call*: its privacy
    property is inherited entirely from how ``Q`` and ``q`` were produced,
    and nothing here touches raw data.
    """

    def __init__(
        self,
        noisy_gram: np.ndarray,
        noisy_cross: np.ndarray,
        error_bound: float,
    ) -> None:
        self.noisy_gram = check_matrix("noisy_gram", noisy_gram)
        dim = self.noisy_gram.shape[0]
        if self.noisy_gram.shape != (dim, dim):
            raise ValueError(f"noisy_gram must be square, got {self.noisy_gram.shape}")
        if np.ndim(noisy_cross) == 2:
            self.noisy_cross = check_matrix(
                "noisy_cross", noisy_cross, shape=(len(noisy_cross), dim)
            )
        else:
            self.noisy_cross = check_vector("noisy_cross", noisy_cross, dim=dim)
        self.error_bound = check_non_negative("error_bound", error_bound)
        self.dim = dim

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        """Evaluate ``g(θ) = 2(Qθ − q)`` (free post-processing)."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 2:
            return self.into(theta, np.empty_like(theta))
        return 2.0 * (self.noisy_gram @ theta - self.noisy_cross)

    def into(self, theta: np.ndarray, out: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """Evaluate ``scale·g(θ)`` into the caller's buffer ``out`` and return it.

        The allocation-free form :class:`~repro.erm.noisy_pgd.NoisyProjectedGradient`
        iterates with, its step size as ``scale``: ``theta`` and ``out``
        must be distinct float64 vectors of length ``dim`` (or distinct
        C-contiguous ``(k, dim)`` blocks).  Writes ``Qθ − q``, then
        multiplies by ``2·scale`` once.  With ``scale = 1`` it is
        :meth:`__call__` bit for bit — ``dot`` runs the same BLAS ``gemv``
        as ``@`` and each in-place step is one of the call's roundings;
        any other ``scale`` gives ``(2·g(θ))·scale`` bit for bit (doubling
        is exact) wherever ``2·g(θ)`` is finite, and a finite value where
        only the doubled gradient overflows.  A block takes one stacked
        matrix–vector product, ``np.matmul(Q, Θ[:, :, None])``: one
        ``gemv`` per row, so row ``j`` is ``Q.dot(θ_j)`` bit for bit (the
        single ``gemm`` ``Θ @ Q.T`` sums in another order;
        ``tests/test_noisy_pgd.py`` pins the identity).
        """
        if theta.ndim == 2:
            np.matmul(self.noisy_gram, theta[:, :, None], out[:, :, None])
        else:
            self.noisy_gram.dot(theta, out)
        out -= self.noisy_cross
        out *= 2.0 * scale
        return out

    @staticmethod
    def moment_error_bound(
        gram_error: float, cross_error: float, constraint_diameter: float
    ) -> float:
        """Lemma 4.1's reduction: gradient error from moment errors.

        ``‖g(θ) − ∇L(θ)‖ ≤ 2(‖ΔQ‖_F ‖θ‖ + ‖Δq‖) ≤ 2(ΔQ·‖C‖ + Δq)``.
        """
        gram_error = check_non_negative("gram_error", gram_error)
        cross_error = check_non_negative("cross_error", cross_error)
        constraint_diameter = check_non_negative("constraint_diameter", constraint_diameter)
        return 2.0 * (gram_error * constraint_diameter + cross_error)


def solve_released(
    constraint: ConvexSet,
    noisy_gram: np.ndarray,
    noisy_cross: np.ndarray,
    *,
    alpha: float,
    lipschitz: float,
    iterations: int,
    start: np.ndarray,
) -> np.ndarray:
    """One PGD refresh against released moments (Steps 2–3 of Algorithm 2).

    Symmetrizes the released Gram — the true moment matrix is symmetric,
    and averaging with the transpose is post-processing that only reduces
    the error — forms ``g(θ) = 2(Qθ − q)`` with error bound ``α`` and runs
    ``NOISYPROJGRAD`` over ``constraint`` from the warm start ``start``.
    The shared refresh of every moment-based estimator.  With a
    ``(k, d)`` ``noisy_cross`` and ``start`` the ``k`` refreshes that share
    this Gram run as one lockstep PGD; row ``j`` of the result is the
    refresh of ``(noisy_cross[j], start[j])`` bit for bit.

    One check per refresh: the refresh hooks check only shapes, and
    :class:`PrivateGradientFunction` scans the symmetrized Gram and the
    cross moments for non-finite entries once (a non-finite entry stays
    non-finite through the average).  The average is formed in one new
    array, ``(Q + Qᵀ)·0.5``, bit-identical to ``0.5·(Q + Qᵀ)``.  The
    solve steps with the oracle's ``into(θ, out, η)``, whose single
    scaling by ``2η`` agrees with ``(2·g)·η`` bit for bit wherever
    ``2·g`` is finite (see :meth:`~repro.erm.noisy_pgd.NoisyProjectedGradient.run`).
    """
    symmetric = np.add(noisy_gram, noisy_gram.T)
    symmetric *= 0.5
    gradient_fn = PrivateGradientFunction(symmetric, noisy_cross, alpha)
    pgd = NoisyProjectedGradient(
        constraint, lipschitz=lipschitz, gradient_error=alpha, iterations=iterations
    )
    return pgd.run(gradient_fn, start=start)
