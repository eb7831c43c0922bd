"""The group-L1 (block L1,2) norm ball.

The paper's §5.2 lists the group/block L1 norm as a "prominent sparsity
inducing norm": for block size ``k``,

    ``‖θ‖_{k,L1,2} = Σ_i ‖θ_{block i}‖₂``

and the unit ball of this norm has Gaussian width ``O(√(k log(d/k)))``
(citing Talwar et al.), again polylogarithmic in ``d`` for constant block
size.

All three geometric operations reduce to L1-ball operations on the vector of
block norms:

* **projection** — project the block-norm vector onto the L1 ball, then
  rescale each block to its new norm (the block directions are preserved by
  the optimal solution);
* **gauge** — the block-norm sum divided by the radius;
* **support** — ``radius · max_i ‖g_{block i}‖₂`` (the dual norm).
"""

from __future__ import annotations

import numpy as np

from .._validation import check_int, check_positive
from .balls import project_onto_l1_ball
from .base import ConvexSet

__all__ = ["GroupL1Ball"]


class GroupL1Ball(ConvexSet):
    """``C = {θ : Σ_i ‖θ_{block i}‖₂ ≤ radius}`` with contiguous blocks.

    Parameters
    ----------
    dim:
        Ambient dimension ``d``.
    block_size:
        The block length ``k``; the final block may be shorter when ``k``
        does not divide ``d`` (matching the paper's ``min{ik, d}`` upper
        summation limit).
    radius:
        The ball radius.
    """

    def __init__(self, dim: int, block_size: int, radius: float = 1.0) -> None:
        super().__init__(dim)
        self.block_size = check_int("block_size", block_size, minimum=1)
        self.radius = check_positive("radius", radius)
        edges = list(range(0, dim, self.block_size)) + [dim]
        self._slices = [slice(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]

    @property
    def n_blocks(self) -> int:
        """Number of blocks ``⌈d/k⌉``."""
        return len(self._slices)

    def block_norms(self, point: np.ndarray) -> np.ndarray:
        """The vector of per-block L2 norms."""
        point = self._check_point("point", point)
        return np.array([np.linalg.norm(point[s]) for s in self._slices])

    def norm(self, point: np.ndarray) -> float:
        """The group-L1 norm ``Σ_i ‖θ_{block i}‖₂``."""
        return float(self.block_norms(point).sum())

    # ------------------------------------------------------------------

    def contains(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        return self.norm(point) <= self.radius + tol

    def _project(self, point: np.ndarray) -> np.ndarray:
        norms = self.block_norms(point)
        if norms.sum() <= self.radius:
            return point
        new_norms = project_onto_l1_ball(norms, self.radius)
        result = np.zeros_like(point)
        for block_slice, old, new in zip(self._slices, norms, new_norms):
            if old > 0:
                result[block_slice] = point[block_slice] * (new / old)
        return result

    def gauge(self, point: np.ndarray) -> float:
        return self.norm(point) / self.radius

    def support(self, direction: np.ndarray) -> float:
        """Dual norm: ``radius · max_i ‖g_{block i}‖₂``."""
        direction = self._check_point("direction", direction)
        return self.radius * float(self.block_norms(direction).max())

    def diameter(self) -> float:
        """``sup ‖θ‖₂ = radius`` (concentrate the budget on one block)."""
        return self.radius

    def gaussian_width(self) -> float:
        """Fixed-seed Monte Carlo (``O(radius·√(k log(d/k)))``)."""
        return self.gaussian_width_mc(n_samples=4000, rng=20170104)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GroupL1Ball(dim={self.dim}, block_size={self.block_size}, "
            f"radius={self.radius})"
        )
