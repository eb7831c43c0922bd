"""A fixed random projection ``Φ`` and Algorithm 3's Step-4 rescaling.

Algorithm 3 applies ``Φ ∈ R^{m×d}`` with a per-covariate rescaling,

    ``x̃ = (‖x‖ / ‖Φx‖) · x``   so that   ``‖Φ x̃‖ = ‖x‖``,

which pins the exact sensitivity of the projected streams: the Step-6
stream elements ``(Φx̃)(Φx̃)ᵀ`` then have Frobenius norm exactly ``‖x‖² ≤ 1``
(the calculation displayed below Algorithm 3 in the paper), so both trees
run with Δ₂ = 2 for *any* fixed ``Φ``.  Nothing else of ``Φ`` matters to
the algorithm — how it was drawn only sets the embedding quality — so a
projection is its matrix: :class:`Projection` holds one,
:class:`~repro.sketching.gaussian.GaussianProjection` and
:class:`~repro.sketching.sparse_jl.SparseProjection` only draw one, and a
serving shard receives nothing but the matrix.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError

__all__ = ["Projection", "step4_rescale_block"]


def step4_rescale_block(matrix: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Algorithm 3 Step 4, vectorized: the ``(k, m)`` block of ``Φx̃`` rows.

    ``matrix`` is ``Φ`` as an ``(m, d)`` array (a :class:`Projection`'s
    ``matrix``, or the form a serving shard's config carries).  The single
    definition of the batched rescaling shared by
    :meth:`Projection.rescale_covariates`,
    :meth:`~repro.core.projected_regression.PrivIncReg2.observe_batch` and
    the projected serving backends' row transform
    (:mod:`repro.streaming.backends`) — one dense product for the whole
    block, then a per-row scale so every row satisfies
    ``‖Φx̃_i‖ = ‖x_i‖`` exactly.
    """
    xs = np.asarray(xs, dtype=float)
    norms = np.linalg.norm(xs, axis=1)
    projected = xs @ matrix.T
    projected_norms = np.linalg.norm(projected, axis=1)
    safe = (norms > 0.0) & (projected_norms > 0.0)
    scale = np.where(safe, norms / np.where(safe, projected_norms, 1.0), 0.0)
    return projected * scale[:, None]


class Projection:
    """A fixed ``m × d`` map ``Φ`` with the Algorithm-3 rescaling helpers.

    ``Projection(matrix)`` adopts any finite ``(m, d)`` matrix (``m, d ≥
    1``) — a persisted ``Φ``, or one drawn elsewhere; the matrix is copied
    into a C-ordered ``float64`` array.  ``Φ`` is applied as the dense
    product ``Φx`` (``X Φᵀ`` for a block of rows) whatever its sparsity.
    Privacy does not depend on ``Φ`` staying secret (unlike the Blocki et
    al. line of work the paper contrasts with in §1.2).
    """

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.array(matrix, dtype=float, order="C")
        if matrix.ndim != 2 or min(matrix.shape) < 1:
            raise ValidationError(
                f"projection matrix must be (m, d) with m, d >= 1, "
                f"got shape {matrix.shape}"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValidationError("projection matrix must be finite")
        self.matrix = matrix
        self.projected_dim, self.original_dim = (int(s) for s in matrix.shape)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """``Φ x`` for a single vector (or ``X Φᵀ`` for an ``(n, d)`` batch)."""
        vector = np.asarray(vector, dtype=float)
        if vector.ndim == 1:
            if vector.shape[0] != self.original_dim:
                raise ValidationError(
                    f"vector has dim {vector.shape[0]}, expected {self.original_dim}"
                )
            return self.matrix @ vector
        if vector.ndim == 2 and vector.shape[1] == self.original_dim:
            return vector @ self.matrix.T
        raise ValidationError(
            f"expected a ({self.original_dim},) vector or (n, {self.original_dim}) "
            f"matrix, got shape {vector.shape}"
        )

    def rescale_covariate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 3 Step 4 for one covariate: ``(x̃, Φx̃)`` with ``‖Φx̃‖ = ‖x‖``.

        The all-zeros covariate maps to zeros (the paper assumes ``x ≠ 0``
        WLOG; zero covariates carry no information either way).
        """
        x = np.asarray(x, dtype=float)
        projected = self.apply(x)
        original_norm = float(np.linalg.norm(x))
        projected_norm = float(np.linalg.norm(projected))
        if original_norm == 0.0 or projected_norm == 0.0:
            return np.zeros_like(x), np.zeros(self.projected_dim)
        scale = original_norm / projected_norm
        return scale * x, scale * projected

    def rescale_covariates(self, xs: np.ndarray) -> np.ndarray:
        """Step 4 over a block: the ``(k, m)`` rows ``Φx̃_i``."""
        return step4_rescale_block(self.matrix, xs)

    def distortion(self, points: np.ndarray) -> float:
        """Empirical max relative norm distortion over rows of ``points``.

        ``max_i |‖Φa_i‖² − ‖a_i‖²| / ‖a_i‖²`` — the quantity Gordon's
        theorem bounds by ``γ``; used by tests and the adaptivity benchmark.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        norms_sq = np.sum(points**2, axis=1)
        projected_sq = np.sum(self.apply(points) ** 2, axis=1)
        mask = norms_sq > 0
        if not np.any(mask):
            return 0.0
        return float(np.max(np.abs(projected_sq[mask] - norms_sq[mask]) / norms_sq[mask]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(d={self.original_dim}, m={self.projected_dim})"
