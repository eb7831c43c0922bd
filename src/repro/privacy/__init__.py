"""Differential-privacy substrate.

This package provides everything the paper's mechanisms need from the
differential-privacy literature:

* :mod:`repro.privacy.parameters` — the ``(ε, δ)`` budget value type.
* :mod:`repro.privacy.mechanisms` — Gaussian and Laplace output perturbation
  calibrated by global sensitivity (Theorem A.2 of the paper).
* :mod:`repro.privacy.composition` — basic (Theorem A.3) and advanced
  (Theorem A.4) composition, plus the inverse splits used by Mechanism 1.
* :mod:`repro.privacy.accountant` — a ledger that tracks budget spending.
* :mod:`repro.privacy.tree` — the Tree Mechanism (Algorithm 4 / Appendix C)
  for continual private release of vector sums, and its exponentially
  forgetting :class:`DecayedTreeMechanism`.
* :mod:`repro.privacy.chunked` — one chunked-tree mechanism: a run of chunk
  trees declared by a :class:`ChunkSchedule`.  The Hybrid Mechanism of
  Chan et al. (doubling chunks, removing the known-horizon assumption) and
  :class:`SlidingWindowMechanism` (fixed chunks with hard expiry) are its
  two declarations.
* :mod:`repro.privacy.release` — the :class:`ReleaseMechanism` protocol the
  serving layer programs against, the tree-free
  :class:`SketchNoiseMechanism` (per-block sketch-side noise), and the
  :func:`make_release_mechanism` factory.
"""

from .parameters import (
    PrivacyParams,
    bundle_budgets,
    shard_budgets,
    tenant_budgets,
)
from .mechanisms import (
    GaussianMechanism,
    LaplaceMechanism,
    gaussian_sigma,
    laplace_scale,
)
from .composition import (
    advanced_composition,
    basic_composition,
    split_budget_advanced,
    split_budget_basic,
)
from .accountant import PrivacyAccountant
from .tree import (
    MergedRelease,
    ReleasedMoments,
    TreeMechanism,
    merge_released,
    tree_error_bound,
    tree_error_bound_spectral,
    tree_levels,
)
from .chunked import HybridMechanism, SlidingWindowMechanism
from .release import (
    DecayedTreeMechanism,
    ReleaseMechanism,
    SketchNoiseMechanism,
    make_release_mechanism,
)
from .rdp import RdpAccountant, gaussian_rdp, rdp_to_dp

__all__ = [
    "PrivacyParams",
    "bundle_budgets",
    "shard_budgets",
    "tenant_budgets",
    "MergedRelease",
    "ReleasedMoments",
    "merge_released",
    "GaussianMechanism",
    "LaplaceMechanism",
    "gaussian_sigma",
    "laplace_scale",
    "basic_composition",
    "advanced_composition",
    "split_budget_basic",
    "split_budget_advanced",
    "PrivacyAccountant",
    "TreeMechanism",
    "tree_levels",
    "tree_error_bound",
    "tree_error_bound_spectral",
    "HybridMechanism",
    "ReleaseMechanism",
    "DecayedTreeMechanism",
    "SketchNoiseMechanism",
    "SlidingWindowMechanism",
    "make_release_mechanism",
    "RdpAccountant",
    "gaussian_rdp",
    "rdp_to_dp",
]
