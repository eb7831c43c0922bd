"""The probability simplex constraint set.

``C = {θ ∈ R^d : Σ_i θ_i = 1, θ_i ≥ 0}`` is one of the paper's §5.2
instantiations: its Gaussian width is ``E max_i g_i = Θ(√log d)``, the same
polylogarithmic order as the L1 ball, so Algorithm 3's bound is again
dimension-free over the simplex.

Note the simplex is *not* symmetric and does not contain the origin in its
interior, so its Minkowski gauge is not a norm: ``‖θ‖_C`` is finite only on
the non-negative orthant (where it equals ``Σ θ_i``) and ``+∞`` elsewhere —
exactly the behavior Definition 6 prescribes.
"""

from __future__ import annotations

import math

import numpy as np

from .base import ConvexSet
from .width import expected_max_gaussian

__all__ = ["Simplex", "project_onto_simplex"]


def project_onto_simplex(point: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the standard probability simplex.

    Sort-based algorithm (Held-Wolfe-Crowder 1974 / Duchi et al. 2008):
    find the largest ``ρ`` with ``z_(ρ) − (Σ_{j≤ρ} z_(j) − 1)/ρ > 0`` and
    shift-clip at that threshold.
    """
    point = np.asarray(point, dtype=float)
    sorted_desc = np.sort(point)[::-1]
    cumulative = np.cumsum(sorted_desc) - 1.0
    indices = np.arange(1, point.size + 1)
    rho = np.nonzero(sorted_desc * indices > cumulative)[0][-1]
    threshold = cumulative[rho] / (rho + 1.0)
    return np.maximum(point - threshold, 0.0)


class Simplex(ConvexSet):
    """The standard probability simplex in ``R^d``."""

    def contains(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        point = self._check_point("point", point)
        return bool(np.all(point >= -tol) and abs(point.sum() - 1.0) <= tol)

    def _project(self, point: np.ndarray) -> np.ndarray:
        return project_onto_simplex(point)

    def gauge(self, point: np.ndarray) -> float:
        """``Σθ_i`` on the non-negative orthant, ``+∞`` elsewhere.

        ``ρ·C`` is exactly the set of non-negative vectors summing to ``ρ``,
        so the smallest dilation containing a non-negative ``θ`` is its
        coordinate sum; no dilation contains a vector with a negative entry.

        The negativity tolerance is *relative* to the point's magnitude
        (``−1e-12·‖θ‖_∞``): an absolute cutoff is not scale-invariant, so
        it would break the gauge's positive homogeneity right at the
        tolerance boundary (``θ`` inside, ``2θ`` infeasible).
        """
        point = self._check_point("point", point)
        scale = float(np.abs(point).max(initial=0.0))
        if np.any(point < -1e-12 * scale):
            return math.inf
        return float(np.clip(point, 0.0, None).sum())

    def support(self, direction: np.ndarray) -> float:
        direction = self._check_point("direction", direction)
        return float(direction.max())

    def diameter(self) -> float:
        """``sup ‖θ‖₂ = 1``, attained at the vertices ``e_i``."""
        return 1.0

    def gaussian_width(self) -> float:
        """Exact: ``E max_i g_i`` via quadrature (``Θ(√log d)``)."""
        return expected_max_gaussian(self.dim)

    def vertices(self) -> np.ndarray:
        """The ``d`` standard basis vertices (for Frank-Wolfe solvers)."""
        return np.eye(self.dim)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Simplex(dim={self.dim})"
