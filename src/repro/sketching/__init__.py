"""Random-projection (sketching) substrate for Algorithm 3.

Three pieces:

* :mod:`repro.sketching.projection` — a fixed ``Φ ∈ R^{m×d}`` and the
  covariate rescaling ``x̃ = (‖x‖/‖Φx‖)·x`` from Algorithm 3's Step 4;
  :mod:`repro.sketching.gaussian` (i.i.d. ``N(0, 1/m)`` entries) and
  :mod:`repro.sketching.sparse_jl` (footnote 16's sparse sampling) only
  draw the matrix.
* :mod:`repro.sketching.gordon` — the embedding-dimension calculator from
  Gordon's theorem (paper Theorem 5.1): ``m ≥ (C/γ²)·max{w(S)², ln(1/β)}``
  preserves norms over the *whole set* ``S``, which is what defeats the
  adaptive-input problem of streaming JL.
* :mod:`repro.sketching.lifting` — solvers for the lifting program
  ``min ‖θ‖_C s.t. Φθ = ϑ`` (Algorithm 3 Step 9, Theorem 5.3's M*-bound
  estimator), specialized per constraint-set family.
"""

from .gaussian import GaussianProjection
from .gordon import gordon_dimension, gordon_distortion
from .lifting import lift, lift_l1_basis_pursuit, lift_least_norm, lift_polytope
from .projected_set import ProjectedConvexSet
from .projection import Projection, step4_rescale_block
from .sparse_jl import SparseProjection

__all__ = [
    "GaussianProjection",
    "Projection",
    "SparseProjection",
    "ProjectedConvexSet",
    "gordon_dimension",
    "gordon_distortion",
    "lift",
    "lift_least_norm",
    "lift_l1_basis_pursuit",
    "lift_polytope",
    "step4_rescale_block",
]
