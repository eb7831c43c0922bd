"""Sparse random projections (the paper's footnote 16).

The paper notes that "one could also use other (better) constructions of
Φ, such as those that create sparse Φ matrix, using recent results by
Bourgain et al. extending Theorem 5.1 to other distributions".  This module
implements the classical sparse alternative — Achlioptas-style signed
sub-sampling,

    ``Φ_ij = ±√(s/m)`` with probability ``1/(2s)`` each, ``0`` otherwise,

with expected column sparsity ``m/s`` — behind the same interface as
:class:`~repro.sketching.gaussian.GaussianProjection`, so Algorithm 3 swaps
it in directly: ``PrivIncReg2(..., projection=SparseProjection(d, m))``.
Privacy is untouched by the swap — the Step-4 rescaling pins the projected
streams' sensitivity at 2 for any fixed ``Φ``.

The practical draw: applying ``Φ`` to a ``k``-sparse covariate costs
``O(k·m/s)`` instead of ``O(k·m)``, and the matrix itself stores ``O(dm/s)``
non-zeros.  The Bourgain-Dirksen-Nelson result the paper cites shows such
matrices satisfy a Gordon-type uniform embedding guarantee with comparable
dimensions; we treat the Gaussian sizing from
:func:`~repro.sketching.gordon.gordon_dimension` as the sizing reference
and verify embedding quality empirically in the tests.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_int, check_rng
from ..exceptions import ValidationError
from .gaussian import checked_matrix, step4_rescale, step4_rescale_block

__all__ = ["SparseProjection"]


class SparseProjection:
    """A sparse signed random projection with the GaussianProjection API.

    Parameters
    ----------
    original_dim:
        Ambient dimension ``d``.
    projected_dim:
        Target dimension ``m``.
    sparsity_factor:
        The ``s`` parameter: each entry is non-zero with probability
        ``1/s`` (so each column has ``≈ m/s`` non-zeros).  ``s = 1``
        recovers the dense ±1 Rademacher projection; ``s = 3`` is
        Achlioptas' classic choice.
    rng:
        Seed or Generator.
    """

    def __init__(
        self,
        original_dim: int,
        projected_dim: int,
        sparsity_factor: int = 3,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.original_dim = check_int("original_dim", original_dim, minimum=1)
        self.projected_dim = check_int("projected_dim", projected_dim, minimum=1)
        self.sparsity_factor = check_int("sparsity_factor", sparsity_factor, minimum=1)
        generator = check_rng(rng)
        shape = (projected_dim, original_dim)
        scale = np.sqrt(self.sparsity_factor / projected_dim)
        uniform = generator.uniform(size=shape)
        signs = np.where(generator.uniform(size=shape) < 0.5, -1.0, 1.0)
        self.matrix = np.where(uniform < 1.0 / self.sparsity_factor, signs * scale, 0.0)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, sparsity_factor: int = 3) -> "SparseProjection":
        """Rebuild a projection around an existing ``m × d`` matrix.

        The Φ hand-off constructor, as
        :meth:`~repro.sketching.gaussian.GaussianProjection.from_matrix`:
        a remote shard re-attaches to the front-drawn matrix through this.
        The matrix is copied; entries are validated finite.
        """
        self = cls.__new__(cls)
        self.matrix = checked_matrix(matrix)
        self.projected_dim, self.original_dim = (int(s) for s in self.matrix.shape)
        self.sparsity_factor = check_int("sparsity_factor", sparsity_factor, minimum=1)
        return self

    def nonzero_fraction(self) -> float:
        """Realized fraction of non-zero entries (≈ ``1/s``)."""
        return float(np.count_nonzero(self.matrix)) / self.matrix.size

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """``Φ x`` for a vector or ``(n, d)`` batch of rows."""
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
        """Algorithm 3's Step-4 rescaling, via the shared helper."""
        return step4_rescale(self, x)

    def rescale_covariates(self, xs: np.ndarray) -> np.ndarray:
        """Step 4 over a block of rows, via the shared vectorized helper."""
        return step4_rescale_block(self, xs)

    def distortion(self, points: np.ndarray) -> float:
        """Max relative squared-norm distortion over rows of ``points``."""
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
        return (
            f"SparseProjection(d={self.original_dim}, m={self.projected_dim}, "
            f"s={self.sparsity_factor})"
        )
