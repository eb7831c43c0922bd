"""Axis-aligned ellipsoid constraint sets.

``C = {θ : Σ_i θ_i²/a_i² ≤ 1}`` generalizes the L2 ball with per-coordinate
radii — the natural constraint when features carry different scales (a
weighted Ridge).  Not one of the paper's named §5.2 instantiations, but a
useful member of the same interface: the Gaussian width has the clean
closed-ish form ``w(C) = E‖diag(a)·g‖₂ ∈ [‖a‖₂·d/√(d+1)·(1/√d), ‖a‖₂]`` —
we report the sharp upper bound ``‖a‖₂`` refined by a Monte Carlo pass —
and projection reduces to a 1-D root-find on the Lagrange multiplier:

    ``θ_i(λ) = z_i · a_i² / (a_i² + λ)``,   choose ``λ ≥ 0`` s.t. gauge = 1.

The map ``λ ↦ Σ θ_i(λ)²/a_i²`` is strictly decreasing, so bisection is
exact and unconditionally stable.
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import check_vector
from .base import ConvexSet

__all__ = ["Ellipsoid"]


class Ellipsoid(ConvexSet):
    """``{θ : Σ θ_i²/a_i² ≤ 1}`` for positive semi-axes ``a``.

    Parameters
    ----------
    semi_axes:
        The per-coordinate radii ``a_i > 0`` (shape ``(d,)``).
    """

    def __init__(self, semi_axes: np.ndarray) -> None:
        semi_axes = check_vector("semi_axes", np.asarray(semi_axes, dtype=float))
        if np.any(semi_axes <= 0):
            raise ValueError("all semi-axes must be strictly positive")
        super().__init__(semi_axes.shape[0])
        self.semi_axes = semi_axes
        self._axes_sq = semi_axes**2

    def _quadratic(self, point: np.ndarray) -> float:
        return float(np.sum(point**2 / self._axes_sq))

    def contains(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        point = self._check_point("point", point)
        return self._quadratic(point) <= 1.0 + tol

    def _project(self, point: np.ndarray) -> np.ndarray:
        if self._quadratic(point) <= 1.0:
            return point

        def gauge_sq_at(lam: float) -> float:
            scaled = point * self._axes_sq / (self._axes_sq + lam)
            return float(np.sum(scaled**2 / self._axes_sq))

        lam_low, lam_high = 0.0, 1.0
        while gauge_sq_at(lam_high) > 1.0:
            lam_high *= 2.0
            if lam_high > 1e18:  # pragma: no cover - defensive
                break
        for _ in range(100):
            lam_mid = 0.5 * (lam_low + lam_high)
            if gauge_sq_at(lam_mid) > 1.0:
                lam_low = lam_mid
            else:
                lam_high = lam_mid
        lam = 0.5 * (lam_low + lam_high)
        return point * self._axes_sq / (self._axes_sq + lam)

    def gauge(self, point: np.ndarray) -> float:
        """``‖θ‖_C = √(Σ θ_i²/a_i²)`` — the ellipsoidal norm."""
        point = self._check_point("point", point)
        return math.sqrt(self._quadratic(point))

    def support(self, direction: np.ndarray) -> float:
        """``h_C(g) = ‖diag(a)·g‖₂`` (the dual ellipsoidal norm)."""
        direction = self._check_point("direction", direction)
        return float(np.linalg.norm(self.semi_axes * direction))

    def diameter(self) -> float:
        return float(self.semi_axes.max())

    def gaussian_width(self) -> float:
        """``E‖diag(a)·g‖`` — fixed-seed Monte Carlo (close to ``‖a‖₂``)."""
        return self.gaussian_width_mc(n_samples=4000, rng=20170104)

    def width_upper_bound(self) -> float:
        """``w(C) ≤ √(E‖diag(a)g‖²) = ‖a‖₂`` by Jensen."""
        return float(np.linalg.norm(self.semi_axes))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Ellipsoid(dim={self.dim})"
