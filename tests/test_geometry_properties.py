"""Property-based tests (hypothesis) for the convex-geometry invariants.

These are the invariants the paper's proofs lean on:

* projection is **idempotent** and **non-expansive** (the contractivity
  step in Proposition B.1's telescoping argument);
* the gauge is **positively homogeneous** and ≤ 1 exactly on the set
  (Definition 6, used by Algorithm 3's lifting feasibility argument);
* the support function is **sublinear** (the width estimators' workhorse).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import GroupL1Ball, L1Ball, L2Ball, LinfBall, LpBall, Simplex
from repro.exceptions import ValidationError

DIM = 5

SETS = [
    L2Ball(DIM, radius=1.5),
    L1Ball(DIM, radius=1.5),
    LinfBall(DIM, radius=0.8),
    LpBall(DIM, p=1.5, radius=1.2),
    Simplex(DIM),
    GroupL1Ball(DIM, block_size=2, radius=1.1),
]
SET_IDS = [type(s).__name__ for s in SETS]

coords = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)
vectors = st.lists(coords, min_size=DIM, max_size=DIM).map(np.array)


@pytest.mark.parametrize("convex_set", SETS, ids=SET_IDS)
class TestProjectionProperties:
    @given(point=vectors)
    @settings(max_examples=30, deadline=None)
    def test_projection_feasible(self, convex_set, point):
        projected = convex_set.project(point)
        assert convex_set.contains(projected, tol=1e-5)

    @given(point=vectors)
    @settings(max_examples=30, deadline=None)
    def test_projection_idempotent(self, convex_set, point):
        once = convex_set.project(point)
        twice = convex_set.project(once)
        np.testing.assert_allclose(twice, once, atol=1e-6)

    @given(a=vectors, b=vectors)
    @settings(max_examples=30, deadline=None)
    def test_projection_non_expansive(self, convex_set, a, b):
        pa, pb = convex_set.project(a), convex_set.project(b)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-6

    @given(point=vectors)
    @settings(max_examples=30, deadline=None)
    def test_projection_closer_than_any_member(self, convex_set, point):
        """P(z) is at least as close to z as a reference feasible point."""
        projected = convex_set.project(point)
        reference = convex_set.project(np.ones(DIM) * 0.01)
        assert np.linalg.norm(point - projected) <= np.linalg.norm(point - reference) + 1e-6


@pytest.mark.parametrize("convex_set", SETS, ids=SET_IDS)
class TestGaugeProperties:
    @given(point=vectors, scale=st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_positive_homogeneity(self, convex_set, point, scale):
        base = convex_set.gauge(point)
        scaled = convex_set.gauge(scale * point)
        if np.isfinite(base):
            assert scaled == pytest.approx(scale * base, rel=1e-6, abs=1e-9)

    @given(point=vectors)
    @settings(max_examples=30, deadline=None)
    def test_gauge_at_most_one_on_set(self, convex_set, point):
        projected = convex_set.project(point)
        assert convex_set.gauge(projected) <= 1.0 + 1e-5

    @given(point=vectors)
    @settings(max_examples=30, deadline=None)
    def test_gauge_above_one_outside(self, convex_set, point):
        # Only sets containing the origin have {gauge ≤ 1} = C; the simplex's
        # sublevel set is the *solid* simplex (0 ∉ C), so it is exempt.
        if isinstance(convex_set, Simplex):
            return
        if not convex_set.contains(point, tol=1e-9):
            gauge = convex_set.gauge(point)
            assert gauge > 1.0 - 1e-9


@pytest.mark.parametrize("convex_set", SETS, ids=SET_IDS)
class TestSupportProperties:
    @given(g=vectors, scale=st.floats(min_value=0.0, max_value=4.0))
    @settings(max_examples=30, deadline=None)
    def test_positive_homogeneity(self, convex_set, g, scale):
        assert convex_set.support(scale * g) == pytest.approx(
            scale * convex_set.support(g), rel=1e-6, abs=1e-9
        )

    @given(a=vectors, b=vectors)
    @settings(max_examples=30, deadline=None)
    def test_subadditivity(self, convex_set, a, b):
        assert convex_set.support(a + b) <= convex_set.support(a) + convex_set.support(b) + 1e-6

    @given(point=vectors, g=vectors)
    @settings(max_examples=30, deadline=None)
    def test_support_dominates_members(self, convex_set, point, g):
        """⟨θ, g⟩ ≤ h_C(g) for every θ ∈ C."""
        member = convex_set.project(point)
        assert float(member @ g) <= convex_set.support(g) + 1e-5

    @given(g=vectors)
    @settings(max_examples=30, deadline=None)
    def test_support_bounded_by_diameter(self, convex_set, g):
        """h_C(g) ≤ ‖C‖·‖g‖ (Cauchy-Schwarz through the diameter)."""
        assert convex_set.support(g) <= convex_set.diameter() * np.linalg.norm(g) + 1e-6


def _every_convex_set():
    """One instance of each ``ConvexSet`` in the library, in ``R^DIM``."""
    from repro import GaussianProjection, Polytope
    from repro.sketching.projected_set import ProjectedConvexSet

    rng = np.random.default_rng(7)
    phi = GaussianProjection(DIM + 2, DIM, rng=1).matrix
    return SETS + [
        Polytope(rng.normal(size=(7, DIM))),
        ProjectedConvexSet(phi, L1Ball(DIM + 2)),
    ]


ALL_SETS = _every_convex_set()
ALL_SET_IDS = [type(s).__name__ for s in ALL_SETS]


@pytest.mark.parametrize("convex_set", ALL_SETS, ids=ALL_SET_IDS)
class TestProjectValidates:
    """``project`` is the one checked entry point of every set.

    Subclasses implement an unchecked ``_project``; these tests pin that
    the check moved into the shared wrapper rather than disappearing.
    """

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, convex_set, bad):
        point = np.full(DIM, 0.1)
        point[2] = bad
        with pytest.raises(ValidationError):
            convex_set.project(point)

    @pytest.mark.parametrize("dim", [DIM - 1, DIM + 1])
    def test_rejects_wrong_dimension(self, convex_set, dim):
        with pytest.raises(ValidationError):
            convex_set.project(np.full(dim, 0.1))

    def test_rejects_matrix(self, convex_set):
        with pytest.raises(ValidationError):
            convex_set.project(np.full((DIM, 1), 0.1))

    @pytest.mark.parametrize("scale", [0.01, 10.0])
    def test_never_touches_the_callers_array(self, convex_set, scale):
        """Inside or outside the set, the result is a fresh array and the
        argument is unchanged (``_project`` may work in place)."""
        point = scale * np.linspace(-1.0, 1.0, DIM)
        before = point.copy()
        projected = convex_set.project(point)
        assert projected is not point
        np.testing.assert_array_equal(point, before)
