"""Norm-ball constraint sets: L2 (Ridge), L1 (Lasso), L∞, and general Lp.

The paper's two flagship regression constraint sets are the L2 ball (Ridge
regression) and the L1 ball (Lasso, §5.2) whose Gaussian width is only
``Θ(√log d)`` — the property that makes Algorithm 3's bound dimension-free.
Lp balls for ``1 < p < 2`` (width ``≈ d^{1−1/p}``) are also discussed in
§5.2 and implemented here with a numerically careful projection.
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import check_positive
from .base import ConvexSet
from .width import (
    expected_gaussian_norm,
    expected_l1_norm_gaussian,
    expected_max_abs_gaussian,
    monte_carlo_width,
)

__all__ = ["L2Ball", "L1Ball", "LinfBall", "LpBall", "project_onto_l1_ball"]


def project_onto_l1_ball(point: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto ``{θ : ‖θ‖₁ ≤ radius}``.

    Implements the ``O(d log d)`` sort-based algorithm of Duchi, Shalev-
    Shwartz, Singer and Chandra (2008): the projection is a soft-threshold
    ``sign(z)·max(|z| − λ, 0)`` with the threshold ``λ`` determined from the
    sorted magnitudes.
    """
    point = np.asarray(point, dtype=float)
    magnitude = np.abs(point)
    if magnitude.sum() <= radius:
        return point.copy()
    sorted_mag = np.sort(magnitude)[::-1]
    cumulative = np.cumsum(sorted_mag) - radius
    indices = np.arange(1, point.size + 1)
    # rho = last index where sorted_mag > cumulative / index.
    rho = np.nonzero(sorted_mag * indices > cumulative)[0][-1]
    threshold = cumulative[rho] / (rho + 1.0)
    return np.sign(point) * np.maximum(magnitude - threshold, 0.0)


def _scaled_norm(point: np.ndarray) -> float:
    """``‖x‖`` of a finite ``x`` whose ``x·x`` overflows: ``s·‖x/s‖`` with
    ``s = max|xᵢ|``."""
    scale = float(np.abs(point).max())
    point = point / scale
    return scale * math.sqrt(point.dot(point))


def _norm(point: np.ndarray) -> float:
    """``‖x‖`` of a finite ``x``: ``sqrt(x·x)``, the bits ``np.linalg.norm``
    gives, or :func:`_scaled_norm` where ``x·x`` overflows."""
    with np.errstate(over="ignore"):
        square = point.dot(point)
    return _scaled_norm(point) if square == math.inf else math.sqrt(square)


class L2Ball(ConvexSet):
    """``C = c·B₂^d`` — the Ridge-regression constraint set.

    Parameters
    ----------
    dim:
        Ambient dimension.
    radius:
        The ball radius ``c`` (defaults to 1).
    """

    def __init__(self, dim: int, radius: float = 1.0) -> None:
        super().__init__(dim)
        self.radius = check_positive("radius", radius)

    def contains(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        point = self._check_point("point", point)
        return _norm(point) <= self.radius + tol

    def _project(self, point: np.ndarray) -> np.ndarray:
        return self._project_squared(point, point.dot(point))

    def _project_rows(self, points: np.ndarray) -> np.ndarray:
        return self._project_squared(points, np.vecdot(points, points))

    def _project_squared(self, points: np.ndarray, squares) -> np.ndarray:
        # ``sqrt(x·x)`` is how ``np.linalg.norm`` computes a 1-D float64
        # norm, without the wrapper's cost; scaling in place keeps it
        # bit-identical to ``point * (radius / norm)``.  A row inside
        # scales by ``radius / radius``, exactly 1.0, which leaves it
        # unchanged.  A finite point whose square overflows (‖x‖ > ~1e154)
        # takes the scaled norm instead of ``inf``, which would send it to
        # the origin.
        if points.ndim == 2:
            norms = np.sqrt(squares)
            # One BLAS ``dot`` spots an ``inf`` norm; when only the sum of
            # squares overflows, the scan below finds nothing to redo.
            if math.isinf(norms.dot(norms)):
                for j in np.flatnonzero(np.isinf(norms)):
                    norms[j] = _scaled_norm(points[j])
            np.maximum(norms, self.radius, out=norms)
            points *= np.divide(self.radius, norms, out=norms)[:, None]
            return points
        norm = math.sqrt(squares)
        if norm <= self.radius:
            return points
        if norm == math.inf:
            norm = _scaled_norm(points)
        points *= self.radius / norm
        return points

    def gauge(self, point: np.ndarray) -> float:
        point = self._check_point("point", point)
        return _norm(point) / self.radius

    def support(self, direction: np.ndarray) -> float:
        direction = self._check_point("direction", direction)
        return self.radius * _norm(direction)

    def diameter(self) -> float:
        return self.radius

    def gaussian_width(self) -> float:
        """Exact: ``c · E‖g‖₂ = c √2 Γ((d+1)/2)/Γ(d/2) ≈ c√d``."""
        return self.radius * expected_gaussian_norm(self.dim)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"L2Ball(dim={self.dim}, radius={self.radius})"


class L1Ball(ConvexSet):
    """``C = c·B₁^d`` — the Lasso constraint set (paper §5.2).

    Gaussian width ``Θ(c√log d)``, which is what lets Algorithm 3 escape the
    ``√d`` noise floor of Algorithm 2 in high dimension.
    """

    def __init__(self, dim: int, radius: float = 1.0) -> None:
        super().__init__(dim)
        self.radius = check_positive("radius", radius)

    def contains(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        point = self._check_point("point", point)
        return float(np.abs(point).sum()) <= self.radius + tol

    def _project(self, point: np.ndarray) -> np.ndarray:
        return project_onto_l1_ball(point, self.radius)

    def gauge(self, point: np.ndarray) -> float:
        point = self._check_point("point", point)
        return float(np.abs(point).sum()) / self.radius

    def support(self, direction: np.ndarray) -> float:
        direction = self._check_point("direction", direction)
        return self.radius * float(np.abs(direction).max())

    def diameter(self) -> float:
        """``sup_{‖θ‖₁ ≤ c} ‖θ‖₂ = c`` (attained at the vertices)."""
        return self.radius

    def gaussian_width(self) -> float:
        """Exact: ``c · E max|g_i|`` via quadrature (``≈ c√(2 ln d)``)."""
        return self.radius * expected_max_abs_gaussian(self.dim)

    def vertices(self) -> np.ndarray:
        """The ``2d`` vertices ``±c·e_i`` (used by Frank-Wolfe solvers)."""
        eye = np.eye(self.dim)
        return self.radius * np.vstack([eye, -eye])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"L1Ball(dim={self.dim}, radius={self.radius})"


class LinfBall(ConvexSet):
    """``C = c·B∞^d`` — the box constraint; projection is a clip."""

    def __init__(self, dim: int, radius: float = 1.0) -> None:
        super().__init__(dim)
        self.radius = check_positive("radius", radius)

    def contains(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        point = self._check_point("point", point)
        return float(np.abs(point).max()) <= self.radius + tol

    def _project(self, point: np.ndarray) -> np.ndarray:
        return np.clip(point, -self.radius, self.radius, out=point)

    def gauge(self, point: np.ndarray) -> float:
        point = self._check_point("point", point)
        return float(np.abs(point).max()) / self.radius

    def support(self, direction: np.ndarray) -> float:
        direction = self._check_point("direction", direction)
        return self.radius * float(np.abs(direction).sum())

    def diameter(self) -> float:
        return self.radius * math.sqrt(self.dim)

    def gaussian_width(self) -> float:
        """Exact: ``c · E‖g‖₁ = c·d·√(2/π)``."""
        return self.radius * expected_l1_norm_gaussian(self.dim)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinfBall(dim={self.dim}, radius={self.radius})"


class LpBall(ConvexSet):
    """``C = c·B_p^d`` for ``1 < p < ∞`` (paper §5.2's third instantiation).

    Gaussian width ``≈ c·d^{1−1/p}`` (the paper's ``w(cB_p) = O(c d^{1−1/p})``).

    Projection has no closed form for general ``p``; we solve the KKT system

        ``u_i + λ p u_i^{p−1} = |z_i|,   ‖u‖_p = c,  u ≥ 0``

    with a vectorized inner bisection in ``u_i`` (monotone in ``u_i`` for
    ``λ ≥ 0``) nested in an outer bisection on the dual variable ``λ``.
    Bisection is slower than Newton but unconditionally robust for
    ``p < 2`` where ``u^{p−1}`` has an infinite derivative at zero.
    """

    def __init__(self, dim: int, p: float, radius: float = 1.0) -> None:
        super().__init__(dim)
        p = check_positive("p", p)
        if p <= 1.0:
            raise ValueError(f"LpBall requires p > 1 (use L1Ball for p = 1), got {p}")
        if math.isinf(p):
            raise ValueError("use LinfBall for p = inf")
        self.p = float(p)
        self.q = self.p / (self.p - 1.0)  # dual exponent
        self.radius = check_positive("radius", radius)

    def _pnorm(self, point: np.ndarray) -> float:
        return float(np.sum(np.abs(point) ** self.p) ** (1.0 / self.p))

    def contains(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        point = self._check_point("point", point)
        return self._pnorm(point) <= self.radius + tol

    def _solve_u(self, magnitudes: np.ndarray, lam: float) -> np.ndarray:
        """Solve ``u + λ p u^{p−1} = |z|`` per coordinate by bisection."""
        low = np.zeros_like(magnitudes)
        high = magnitudes.copy()
        for _ in range(80):
            mid = 0.5 * (low + high)
            residual = mid + lam * self.p * np.power(mid, self.p - 1.0) - magnitudes
            too_big = residual > 0
            high = np.where(too_big, mid, high)
            low = np.where(too_big, low, mid)
        return 0.5 * (low + high)

    def _project(self, point: np.ndarray) -> np.ndarray:
        if self._pnorm(point) <= self.radius:
            return point
        magnitudes = np.abs(point)
        # Outer bisection on λ: ‖u(λ)‖_p is decreasing in λ.
        lam_low, lam_high = 0.0, 1.0
        while self._pnorm(self._solve_u(magnitudes, lam_high)) > self.radius:
            lam_high *= 2.0
            if lam_high > 1e12:  # pragma: no cover - defensive
                break
        for _ in range(80):
            lam_mid = 0.5 * (lam_low + lam_high)
            if self._pnorm(self._solve_u(magnitudes, lam_mid)) > self.radius:
                lam_low = lam_mid
            else:
                lam_high = lam_mid
        u = self._solve_u(magnitudes, 0.5 * (lam_low + lam_high))
        return np.sign(point) * u

    def gauge(self, point: np.ndarray) -> float:
        point = self._check_point("point", point)
        return self._pnorm(point) / self.radius

    def support(self, direction: np.ndarray) -> float:
        direction = self._check_point("direction", direction)
        return self.radius * float(np.sum(np.abs(direction) ** self.q) ** (1.0 / self.q))

    def diameter(self) -> float:
        """``sup_{‖θ‖_p ≤ c} ‖θ‖₂``: ``c`` for p ≤ 2, ``c·d^{1/2−1/p}`` for p > 2."""
        if self.p <= 2.0:
            return self.radius
        return self.radius * self.dim ** (0.5 - 1.0 / self.p)

    def gaussian_width(self) -> float:
        """Fixed-seed Monte Carlo of ``c·E‖g‖_q`` (no closed form)."""
        return monte_carlo_width(self.support, self.dim, n_samples=4000, rng=20170104)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LpBall(dim={self.dim}, p={self.p}, radius={self.radius})"
