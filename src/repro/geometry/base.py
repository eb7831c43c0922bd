"""Base interfaces for point sets and convex constraint sets.

Two abstractions are used throughout the library:

* :class:`PointSet` — any bounded subset of ``R^d``.  Needs only membership,
  a support function, a diameter and a Gaussian width.  Input domains ``X``
  (which may be non-convex, e.g. sparse vectors — the paper explicitly notes
  ``w(S)`` "is defined for all sets, not just convex sets") implement this.
* :class:`ConvexSet` — a closed convex :class:`PointSet` additionally
  supporting Euclidean projection and the Minkowski gauge.  Constraint sets
  ``C`` implement this; projection drives (noisy) projected gradient descent
  and the gauge is the objective of Algorithm 3's lifting step.
"""

from __future__ import annotations

import abc

import numpy as np

from .._validation import check_vector
from .width import monte_carlo_width

__all__ = ["PointSet", "ConvexSet"]


class PointSet(abc.ABC):
    """A bounded subset of ``R^d`` exposing the geometry the paper needs.

    Attributes
    ----------
    dim:
        The ambient dimension ``d``.
    """

    def __init__(self, dim: int) -> None:
        if not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        self.dim = int(dim)

    # -- abstract geometry ------------------------------------------------

    @abc.abstractmethod
    def contains(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        """Whether ``point`` belongs to the set, up to tolerance ``tol``."""

    @abc.abstractmethod
    def support(self, direction: np.ndarray) -> float:
        """The support function ``h_S(g) = sup_{a ∈ S} ⟨a, g⟩``."""

    @abc.abstractmethod
    def diameter(self) -> float:
        """The paper's ``‖S‖ = sup_{a ∈ S} ‖a‖`` (Definition 2)."""

    # -- widths ------------------------------------------------------------

    def gaussian_width(self) -> float:
        """A deterministic value (or tight estimate) of ``w(S)``.

        Subclasses override with closed forms where available; the default
        is a fixed-seed Monte Carlo estimate through the support function,
        so repeated calls agree.
        """
        return self.gaussian_width_mc(n_samples=4000, rng=20170104)

    def gaussian_width_mc(
        self, n_samples: int = 2000, rng: np.random.Generator | int | None = None
    ) -> float:
        """Monte Carlo estimate of ``w(S)`` via the support function."""
        return monte_carlo_width(self.support, self.dim, n_samples, rng)

    # -- helpers -----------------------------------------------------------

    def _check_point(self, name: str, point: np.ndarray) -> np.ndarray:
        return check_vector(name, point, dim=self.dim)


class ConvexSet(PointSet):
    """A closed convex set with projection and gauge.

    Every constraint set in the paper (§5.2: Lp balls, simplex, polytopes,
    group-L1 balls) implements this interface.
    """

    def project(self, point: np.ndarray) -> np.ndarray:
        """Euclidean projection ``P_C(z) = argmin_{θ∈C} ‖θ − z‖``.

        The one checked entry point: ``point`` must be a finite vector of
        length ``dim`` (else :class:`~repro.exceptions.ValidationError`),
        and the caller's array is never modified or returned.  Subclasses
        implement :meth:`_project`.

        Projection is non-expansive (``‖P(a) − P(b)‖ ≤ ‖a − b‖``), the
        property the Appendix-B convergence proof relies on; the property
        tests in ``tests/test_geometry_properties.py`` verify it for every
        implementation.
        """
        return self._project(self._check_point("point", point).copy())

    @abc.abstractmethod
    def _project(self, point: np.ndarray) -> np.ndarray:
        """The projection itself, on an already validated point.

        ``point`` is a finite float64 vector of length ``dim`` that the
        caller hands over: the implementation may overwrite it and return
        it, or return a fresh array, but never an array it keeps.  Solvers
        that validate once and then iterate (``NoisyProjectedGradient``)
        call this directly.
        """

    def _project_rows(self, points: np.ndarray) -> np.ndarray:
        """:meth:`_project` of every row of a ``(k, dim)`` block.

        ``points`` is a finite float64 block the caller hands over, as for
        :meth:`_project`; the rows are projected in place and the block is
        returned.  Row ``j`` of the result is ``_project(points[j])`` bit
        for bit, which the lockstep solve of
        :class:`~repro.erm.noisy_pgd.NoisyProjectedGradient` relies on.
        This default calls :meth:`_project` once per row; a set overrides
        it only with a kernel that keeps that identity.
        """
        for j, point in enumerate(points):
            points[j] = self._project(point)
        return points

    def _project_squared(self, points: np.ndarray, squares) -> np.ndarray:
        """:meth:`_project` of a point, or :meth:`_project_rows` of a
        ``(k, dim)`` block, given the square the caller already has.

        ``squares`` is ``points.dot(points)`` for a point, or
        ``np.vecdot(points, points)`` (each row's ``x·x``, bit for bit)
        for a block; the loop of
        :class:`~repro.erm.noisy_pgd.NoisyProjectedGradient` computes it
        for its finiteness test and hands it over, so a set whose
        projection starts from the Euclidean norm
        (:class:`~repro.geometry.balls.L2Ball`) need not compute it again.
        An ``inf`` square is a finite point whose square overflows.  The
        result equals :meth:`_project` / :meth:`_project_rows` bit for
        bit; this default ignores the square and calls them.
        """
        if points.ndim == 2:
            return self._project_rows(points)
        return self._project(points)

    @abc.abstractmethod
    def gauge(self, point: np.ndarray) -> float:
        """The Minkowski functional ``‖θ‖_C = inf{ρ ≥ 0 : θ ∈ ρC}``.

        For symmetric convex bodies this is a norm (paper's Definition 6).
        Implementations return ``math.inf`` when no dilation of the set
        contains ``point`` (possible when ``C`` is not symmetric, e.g. the
        simplex).
        """
