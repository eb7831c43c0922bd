"""The Gaussian random projection used by Algorithm 3.

``Φ`` is an ``m × d`` matrix with entries drawn i.i.d. from ``N(0, 1/m)``
(paper §5: "for ease of exposition... Φ is a matrix in R^{m×d} with i.i.d.
entries from N(0, 1/m)").  Only the draw lives here; applying ``Φ`` and
the Step-4 rescaling belong to :class:`~repro.sketching.projection.Projection`.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_int, check_rng
from .projection import Projection

__all__ = ["GaussianProjection"]


class GaussianProjection(Projection):
    """An ``m × d`` Gaussian JL map.

    Parameters
    ----------
    original_dim:
        Ambient dimension ``d``.
    projected_dim:
        Target dimension ``m`` (use
        :func:`repro.sketching.gordon.gordon_dimension` to size it).
    rng:
        Seed or Generator; Algorithm 3 draws ``Φ`` once, before the stream
        starts.
    """

    def __init__(
        self,
        original_dim: int,
        projected_dim: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        original_dim = check_int("original_dim", original_dim, minimum=1)
        projected_dim = check_int("projected_dim", projected_dim, minimum=1)
        generator = check_rng(rng)
        super().__init__(
            generator.normal(
                0.0, 1.0 / np.sqrt(projected_dim), size=(projected_dim, original_dim)
            )
        )
