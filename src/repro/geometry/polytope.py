"""Vertex polytopes: ``C = conv{a_1, …, a_l}``.

The paper's §5.2 highlights polytopes with polynomially many vertices of
norm ``≤ c``: their Gaussian width is ``O(c √log l)`` — dimension-free when
``l = poly(d)`` — making them prime constraint sets for Algorithm 3, and the
natural domain for the private Frank-Wolfe batch solver (Talwar et al.)
plugged into Mechanism 1.

Projection onto a vertex polytope is a quadratic program over the simplex of
vertex weights; we solve it with accelerated projected gradient (FISTA) using
the exact simplex projection, which converges at ``O(1/k²)`` and needs no
external solver.  The gauge is a small linear program solved with
``scipy.optimize.linprog``.

scipy is imported inside the functions that call it, never at module
level: ``import repro`` (which every spawned shard worker pays before it
serves) stays numpy-only — ``tests/test_import_graph.py`` checks.
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import check_matrix
from ..exceptions import NotSupportedError
from .base import ConvexSet
from .simplex import project_onto_simplex

__all__ = ["Polytope"]


class Polytope(ConvexSet):
    """The convex hull of an explicit vertex list.

    Parameters
    ----------
    vertices:
        Array of shape ``(l, d)`` whose rows are the vertices ``a_i``.
    projection_iterations:
        FISTA iteration budget for Euclidean projection.  The default (300)
        reaches ~1e-8 objective accuracy on well-conditioned hulls.
    """

    def __init__(self, vertices: np.ndarray, projection_iterations: int = 300) -> None:
        vertices = check_matrix("vertices", np.asarray(vertices, dtype=float))
        if vertices.shape[0] < 1:
            raise ValueError("a polytope needs at least one vertex")
        super().__init__(vertices.shape[1])
        self._vertices = vertices
        self._iterations = int(projection_iterations)
        # Lipschitz constant of the weight-space gradient: 2‖V Vᵀ‖₂.
        gram = vertices @ vertices.T
        self._lipschitz = 2.0 * float(np.linalg.norm(gram, 2)) + 1e-12

    def vertices(self) -> np.ndarray:
        """Alias used by Frank-Wolfe solvers."""
        return self._vertices.copy()

    # ------------------------------------------------------------------

    def contains(self, point: np.ndarray, tol: float = 1e-7) -> bool:
        point = self._check_point("point", point)
        projected = self.project(point)
        return float(np.linalg.norm(projected - point)) <= max(tol, 1e-6)

    def _project(self, point: np.ndarray) -> np.ndarray:
        """FISTA on ``min_w ‖Vᵀw − z‖²`` over the weight simplex."""
        n_vertices = self._vertices.shape[0]
        weights = np.full(n_vertices, 1.0 / n_vertices)
        momentum = weights.copy()
        t_prev = 1.0
        step = 1.0 / self._lipschitz
        for _ in range(self._iterations):
            residual = self._vertices.T @ momentum - point
            gradient = 2.0 * (self._vertices @ residual)
            new_weights = project_onto_simplex(momentum - step * gradient)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev))
            momentum = new_weights + ((t_prev - 1.0) / t_next) * (new_weights - weights)
            weights, t_prev = new_weights, t_next
        return self._vertices.T @ weights

    def gauge(self, point: np.ndarray) -> float:
        """LP: ``min Σμ_i  s.t.  Σμ_i a_i = θ, μ ≥ 0``.

        ``ρ·C = {Σ μ_i a_i : μ ≥ 0, Σμ_i = ρ}``, so the optimal objective is
        exactly the smallest dilation factor.  Returns ``+∞`` when ``point``
        is outside the conic hull of the vertices.
        """
        from scipy import optimize

        point = self._check_point("point", point)
        n_vertices = self._vertices.shape[0]
        result = optimize.linprog(
            c=np.ones(n_vertices),
            A_eq=self._vertices.T,
            b_eq=point,
            bounds=[(0.0, None)] * n_vertices,
            method="highs",
        )
        if not result.success:
            return math.inf
        return float(result.fun)

    def support(self, direction: np.ndarray) -> float:
        direction = self._check_point("direction", direction)
        return float((self._vertices @ direction).max())

    def diameter(self) -> float:
        return float(np.linalg.norm(self._vertices, axis=1).max())

    def gaussian_width(self) -> float:
        """Fixed-seed Monte Carlo (``O(c√log l)`` by the max-of-Gaussians bound)."""
        return self.gaussian_width_mc(n_samples=4000, rng=20170104)

    def centroid(self) -> np.ndarray:
        """The vertex average — a convenient strictly feasible start point."""
        return self._vertices.mean(axis=0)

    def require_origin(self) -> None:
        """Raise unless ``0 ∈ C`` (needed for the gauge to be finite at 0)."""
        if not self.contains(np.zeros(self.dim)):
            raise NotSupportedError(
                "this polytope does not contain the origin; its gauge is not a norm"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Polytope(l={self._vertices.shape[0]}, dim={self.dim})"
