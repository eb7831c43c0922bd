"""Adaptive (projection-aware) covariate generation.

The paper's §5 motivates Gordon's theorem with an adaptivity attack:
"given a random projection matrix Φ ∈ R^{m×d} with m ≪ d, it is simple to
generate x such that the norm of x is substantially different from the norm
of Φx" (footnote 10 stresses this is not a privacy artifact — it breaks
non-private streaming JL too).

These generators implement that adversary:

* :func:`adaptive_null_space_points` — the unrestricted attack.  Any unit
  vector in ``ker(Φ)`` (non-trivial whenever ``m < d``) satisfies
  ``‖Φx‖ = 0`` while ``‖x‖ = 1`` — total distortion, defeating any JL-style
  guarantee that fixed the points in advance.
* :func:`adaptive_sparse_points` — the attack *restricted to the low-width
  domain* of ``k``-sparse vectors.  The adversary greedily searches sparse
  supports minimizing ``‖Φx‖/‖x‖``.  When ``m`` is Gordon-sized for the
  sparse domain, Theorem 5.1's uniform guarantee caps what this adversary
  can achieve — the fact ``benchmarks/bench_adaptive_embedding.py``
  measures.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_int, check_rng
from ..sketching.projection import Projection

__all__ = ["adaptive_null_space_points", "adaptive_sparse_points"]


def adaptive_null_space_points(
    projection: Projection, count: int = 1
) -> np.ndarray:
    """Unit vectors (rows) in or nearest to the kernel of ``Φ``.

    Returns the ``count`` right-singular vectors of ``Φ`` with the smallest
    singular values.  When ``m < d`` the smallest singular values are
    exactly zero and the returned points are annihilated by the projection.
    """
    count = check_int("count", count, minimum=1)
    _, _, v_transpose = np.linalg.svd(projection.matrix, full_matrices=True)
    # Rows of v_transpose are ordered by decreasing singular value; the
    # trailing rows correspond to the smallest (or zero) singular values.
    return v_transpose[-count:][::-1].copy()


def adaptive_sparse_points(
    projection: Projection,
    sparsity: int,
    count: int = 1,
    candidates: int = 200,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Adversarial *k-sparse* unit vectors minimizing ``‖Φx‖``.

    For each output point the adversary draws ``candidates`` random sparse
    supports, and on each support computes the minimum-singular-vector of
    the corresponding ``m × k`` column submatrix of ``Φ`` — the worst
    direction available on that support — keeping the overall best.

    This is the strongest efficiently computable attack within the sparse
    domain; Gordon-sized embeddings keep even its distortion below ``γ``.
    """
    sparsity = check_int("sparsity", sparsity, minimum=1)
    count = check_int("count", count, minimum=1)
    candidates = check_int("candidates", candidates, minimum=1)
    generator = check_rng(rng)
    dim = projection.original_dim
    points = np.zeros((count, dim))
    for row in range(count):
        best_ratio = np.inf
        best_point = None
        for _ in range(candidates):
            support = generator.choice(dim, size=min(sparsity, dim), replace=False)
            submatrix = projection.matrix[:, support]
            _, singular_values, v_transpose = np.linalg.svd(submatrix, full_matrices=False)
            direction = v_transpose[-1]
            candidate = np.zeros(dim)
            candidate[support] = direction
            ratio = float(singular_values[-1])
            if ratio < best_ratio:
                best_ratio = ratio
                best_point = candidate
        points[row] = best_point
    return points
