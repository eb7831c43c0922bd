"""Convex-geometry substrate.

The paper's results are parameterized by the geometry of two sets: the
constraint set ``C`` that regression parameters are optimized over, and the
input domain ``X`` that covariates are drawn from.  Three geometric
operations drive everything:

* **Euclidean projection** ``P_C`` — used at every step of (noisy) projected
  gradient descent (Appendix B);
* **Minkowski gauge** ``‖θ‖_C`` — the objective of the lifting program in
  Algorithm 3, Step 9;
* **Gaussian width** ``w(S) = E_g sup_{a∈S} ⟨a, g⟩`` — the "effective
  dimension" governing the projected dimension ``m`` (Gordon's theorem) and
  the excess-risk bound of Theorem 5.7.

This package implements those operations for every set family the paper
discusses (§5.2): Lp balls, the probability simplex, vertex polytopes,
group-L1 balls, and the (non-convex) domain of sparse vectors.
"""

from .base import ConvexSet, PointSet
from .balls import L1Ball, L2Ball, LinfBall, LpBall
from .simplex import Simplex
from .polytope import Polytope
from .group import GroupL1Ball
from .sparse import SparseVectors
from .width import (
    expected_gaussian_norm,
    expected_max_abs_gaussian,
    expected_max_gaussian,
    monte_carlo_width,
)

__all__ = [
    "PointSet",
    "ConvexSet",
    "L2Ball",
    "L1Ball",
    "LinfBall",
    "LpBall",
    "Simplex",
    "Polytope",
    "GroupL1Ball",
    "SparseVectors",
    "expected_gaussian_norm",
    "expected_max_abs_gaussian",
    "expected_max_gaussian",
    "monte_carlo_width",
]
