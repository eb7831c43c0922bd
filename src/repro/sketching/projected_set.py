"""The projected constraint set ``ΦC = {Φθ : θ ∈ C}``.

Algorithm 3 runs its noisy projected gradient descent *inside the projected
space*, over the set ``ΦC ⊂ R^m`` ("Note for a convex C, ΦC ⊂ R^m is also
convex").  That requires a Euclidean projection onto ``ΦC``, which has no
closed form in general; we compute it through the identity

    ``P_{ΦC}(z) = Φ θ*,   θ* ∈ argmin_{θ∈C} ‖Φθ − z‖²``

— a smooth convex quadratic over ``C``, solved with accelerated projected
gradient (FISTA) using ``C``'s own projection operator.  The solver warm
starts from the previous solution, which matters inside PGD loops where
consecutive queries are close.

The support function comes for free (``h_{ΦC}(g) = h_C(Φᵀg)``), and the
gauge is the optimal value of the lifting program (delegated to
:mod:`repro.sketching.lifting`).
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import check_int, check_matrix
from ..geometry.base import ConvexSet

__all__ = ["ProjectedConvexSet"]


class ProjectedConvexSet(ConvexSet):
    """``ΦC`` as a first-class convex set in ``R^m``.

    Parameters
    ----------
    phi:
        The projection matrix ``Φ`` of shape ``(m, d)``.
    base:
        The original constraint set ``C ⊆ R^d``.
    solver_iterations:
        FISTA budget per projection query.

    Notes
    -----
    ``diameter()`` returns the rigorous upper bound ``‖Φ‖₂ · ‖C‖``; under
    the Gordon event ``E₀`` the true diameter is ``(1 ± γ)‖C‖``, which is
    what the paper's Lipschitz-constant argument uses — callers that want
    that sharper value can pass it to the PGD step-size rule directly.
    """

    def __init__(self, phi: np.ndarray, base: ConvexSet, solver_iterations: int = 200) -> None:
        phi = check_matrix("phi", phi)
        if phi.shape[1] != base.dim:
            raise ValueError(
                f"phi has {phi.shape[1]} columns but the base set has dim {base.dim}"
            )
        super().__init__(phi.shape[0])
        self.phi = phi
        self.base = base
        self.solver_iterations = check_int("solver_iterations", solver_iterations, minimum=1)
        self._spectral_norm = float(np.linalg.norm(phi, 2))
        self._warm_theta = base.project(np.zeros(base.dim))

    # ------------------------------------------------------------------

    def preimage_project(self, target: np.ndarray) -> np.ndarray:
        """``argmin_{θ∈C} ‖Φθ − target‖²`` via warm-started FISTA."""
        return self._preimage(self._check_point("target", target))

    def _preimage(self, target: np.ndarray) -> np.ndarray:
        lipschitz = 2.0 * self._spectral_norm**2 + 1e-12
        step = 1.0 / lipschitz
        theta = self._warm_theta
        momentum = theta.copy()
        t_prev = 1.0
        for _ in range(self.solver_iterations):
            gradient = 2.0 * self.phi.T @ (self.phi @ momentum - target)
            new_theta = self.base._project(momentum - step * gradient)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev))
            momentum = new_theta + ((t_prev - 1.0) / t_next) * (new_theta - theta)
            theta, t_prev = new_theta, t_next
        self._warm_theta = theta
        return theta

    def _project(self, point: np.ndarray) -> np.ndarray:
        """``P_{ΦC}(z) = Φ · argmin_{θ∈C} ‖Φθ − z‖²``."""
        return self.phi @ self._preimage(point)

    def contains(self, point: np.ndarray, tol: float = 1e-6) -> bool:
        point = self._check_point("point", point)
        projected = self.project(point)
        return float(np.linalg.norm(projected - point)) <= max(tol, 1e-6)

    def gauge(self, point: np.ndarray) -> float:
        """``inf{ρ : point ∈ ρΦC}`` — the lifting program's optimal value."""
        from .lifting import lift

        point = self._check_point("point", point)
        theta = lift(self.phi, point, self.base)
        return self.base.gauge(theta)

    def support(self, direction: np.ndarray) -> float:
        """``h_{ΦC}(g) = sup_{θ∈C} ⟨Φθ, g⟩ = h_C(Φᵀg)``."""
        direction = self._check_point("direction", direction)
        return self.base.support(self.phi.T @ direction)

    def diameter(self) -> float:
        """Safe upper bound ``‖Φ‖₂ · ‖C‖`` (see class notes)."""
        return self._spectral_norm * self.base.diameter()
