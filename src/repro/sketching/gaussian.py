"""The Gaussian random projection used by Algorithm 3.

``Φ`` is an ``m × d`` matrix with entries drawn i.i.d. from ``N(0, 1/m)``
(paper §5: "for ease of exposition... Φ is a matrix in R^{m×d} with i.i.d.
entries from N(0, 1/m)").  Algorithm 3 applies it with a per-covariate
rescaling,

    ``x̃ = (‖x‖ / ‖Φx‖) · x``   so that   ``‖Φ x̃‖ = ‖x‖``,

which pins the exact sensitivity of the projected streams: the Step-6
stream elements ``(Φx̃)(Φx̃)ᵀ`` then have Frobenius norm exactly ``‖x‖² ≤ 1``
(the calculation displayed below Algorithm 3 in the paper), so both trees
run with Δ₂ = 2 regardless of the random draw of ``Φ``.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_int, check_rng
from ..exceptions import ValidationError

__all__ = ["GaussianProjection", "step4_rescale", "step4_rescale_block"]


def step4_rescale(projection, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 3 Step 4 for one covariate: ``(x̃, Φx̃)`` with ``‖Φx̃‖ = ‖x‖``.

    ``projection`` is anything exposing ``apply``/``projected_dim`` (a
    :class:`GaussianProjection` or
    :class:`~repro.sketching.sparse_jl.SparseProjection`).  The all-zeros
    covariate maps to zeros (the paper assumes ``x ≠ 0`` WLOG; zero
    covariates carry no information either way).
    """
    x = np.asarray(x, dtype=float)
    projected = projection.apply(x)
    original_norm = float(np.linalg.norm(x))
    projected_norm = float(np.linalg.norm(projected))
    if original_norm == 0.0 or projected_norm == 0.0:
        return np.zeros_like(x), np.zeros(projection.projected_dim)
    scale = original_norm / projected_norm
    return scale * x, scale * projected


def step4_rescale_block(projection, xs: np.ndarray) -> np.ndarray:
    """Algorithm 3 Step 4, vectorized: the ``(k, m)`` block of ``Φx̃`` rows.

    The single definition of the batched rescaling shared by
    :meth:`~repro.core.projected_regression.PrivIncReg2.observe_batch` and
    the projected serving backends' row transform
    (:mod:`repro.streaming.backends`) — one BLAS
    product for the whole block, then a per-row scale so every row
    satisfies ``‖Φx̃_i‖ = ‖x_i‖`` exactly.  Because the rescaling holds for
    *any* fixed ``Φ``, the projected moment streams built from these rows
    keep sensitivity Δ₂ = 2 regardless of which projection family drew
    ``Φ`` and how many shards share it.
    """
    xs = np.asarray(xs, dtype=float)
    norms = np.linalg.norm(xs, axis=1)
    projected = projection.apply(xs)
    projected_norms = np.linalg.norm(projected, axis=1)
    safe = (norms > 0.0) & (projected_norms > 0.0)
    scale = np.where(safe, norms / np.where(safe, projected_norms, 1.0), 0.0)
    return projected * scale[:, None]


class GaussianProjection:
    """An ``m × d`` Gaussian JL map with Algorithm-3 rescaling helpers.

    Parameters
    ----------
    original_dim:
        Ambient dimension ``d``.
    projected_dim:
        Target dimension ``m`` (use
        :func:`repro.sketching.gordon.gordon_dimension` to size it).
    rng:
        Seed or Generator; Algorithm 3 draws ``Φ`` once, before the stream
        starts, and the privacy guarantee does **not** depend on ``Φ``
        staying secret (unlike the Blocki et al. line of work the paper
        contrasts with in §1.2).
    """

    def __init__(
        self,
        original_dim: int,
        projected_dim: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.original_dim = check_int("original_dim", original_dim, minimum=1)
        self.projected_dim = check_int("projected_dim", projected_dim, minimum=1)
        generator = check_rng(rng)
        self.matrix = generator.normal(
            0.0, 1.0 / np.sqrt(projected_dim), size=(projected_dim, original_dim)
        )

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "GaussianProjection":
        """Rebuild a projection around an existing ``m × d`` matrix.

        The Φ hand-off constructor: a serving front that spawns projected
        shard workers in other processes ships the front-drawn matrix in
        the picklable spawn payload, and the worker re-attaches to the
        *same* map through this (Algorithm 3's guarantee needs every shard
        and the solver to share one fixed ``Φ``; privacy needs nothing of
        ``Φ`` at all).  Also the way to restore a persisted ``Φ``.  The
        matrix is copied; entries are validated finite.
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
            raise ValidationError(
                f"projection matrix must be (m, d) with m, d >= 1, "
                f"got shape {matrix.shape}"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValidationError("projection matrix must be finite")
        self = cls.__new__(cls)
        self.projected_dim, self.original_dim = (int(s) for s in matrix.shape)
        self.matrix = matrix.copy()
        return self

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """``Φ x`` for a single vector (or ``Φ Xᵀ`` column-wise for a batch)."""
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
        """Algorithm 3 Step 4: return ``(x̃, Φx̃)`` with ``‖Φx̃‖ = ‖x‖``.

        Delegates to the shared :func:`step4_rescale` helper.
        """
        return step4_rescale(self, x)

    def rescale_covariates(self, xs: np.ndarray) -> np.ndarray:
        """Step 4 over a block: the ``(k, m)`` rows ``Φx̃_i``.

        Delegates to the shared :func:`step4_rescale_block` helper.
        """
        return step4_rescale_block(self, xs)

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
        return f"GaussianProjection(d={self.original_dim}, m={self.projected_dim})"
