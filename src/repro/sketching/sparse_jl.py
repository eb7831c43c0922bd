"""Sparse random projections (the paper's footnote 16).

The paper notes that "one could also use other (better) constructions of
Φ, such as those that create sparse Φ matrix, using recent results by
Bourgain et al. extending Theorem 5.1 to other distributions".  This module
draws the classical sparse alternative — Achlioptas-style signed
sub-sampling,

    ``Φ_ij = ±√(s/m)`` with probability ``1/(2s)`` each, ``0`` otherwise,

with expected column sparsity ``m/s`` — as a
:class:`~repro.sketching.projection.Projection`, so Algorithm 3 swaps it in
directly: ``PrivIncReg2(..., projection=SparseProjection(d, m))``.
Privacy is untouched by the swap — the Step-4 rescaling pins the projected
streams' sensitivity at 2 for any fixed ``Φ``.

Only the draw is sparse: the matrix is stored dense and applied as the
same dense product as a Gaussian ``Φ``, so applying it costs ``O(k·m·d)``
for a ``k``-row block whatever ``s`` is.  The Bourgain-Dirksen-Nelson
result the paper cites shows such matrices satisfy a Gordon-type uniform
embedding guarantee with comparable dimensions; we treat the Gaussian
sizing from :func:`~repro.sketching.gordon.gordon_dimension` as the sizing
reference and verify embedding quality empirically in the tests.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_int, check_rng
from .projection import Projection

__all__ = ["SparseProjection"]


class SparseProjection(Projection):
    """A sparse signed random projection.

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
        original_dim = check_int("original_dim", original_dim, minimum=1)
        projected_dim = check_int("projected_dim", projected_dim, minimum=1)
        self.sparsity_factor = check_int("sparsity_factor", sparsity_factor, minimum=1)
        generator = check_rng(rng)
        shape = (projected_dim, original_dim)
        scale = np.sqrt(self.sparsity_factor / projected_dim)
        uniform = generator.uniform(size=shape)
        signs = np.where(generator.uniform(size=shape) < 0.5, -1.0, 1.0)
        super().__init__(np.where(uniform < 1.0 / self.sparsity_factor, signs * scale, 0.0))

    def nonzero_fraction(self) -> float:
        """Realized fraction of non-zero entries (≈ ``1/s``)."""
        return float(np.count_nonzero(self.matrix)) / self.matrix.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseProjection(d={self.original_dim}, m={self.projected_dim}, "
            f"s={self.sparsity_factor})"
        )
