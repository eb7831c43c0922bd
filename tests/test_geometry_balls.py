"""Tests for L2/L1/L∞/Lp ball constraint sets."""

import math
import warnings

import numpy as np
import pytest

from repro import L1Ball, L2Ball, LinfBall, LpBall
from repro.geometry.balls import project_onto_l1_ball


class TestL2Ball:
    def test_projection_inside_is_identity(self):
        ball = L2Ball(3, radius=2.0)
        point = np.array([0.5, -0.5, 1.0])
        np.testing.assert_array_equal(ball.project(point), point)

    def test_projection_outside_scales(self):
        ball = L2Ball(2, radius=1.0)
        projected = ball.project(np.array([3.0, 4.0]))
        np.testing.assert_allclose(projected, [0.6, 0.8])

    def test_gauge_is_norm_over_radius(self):
        ball = L2Ball(2, radius=2.0)
        assert ball.gauge(np.array([2.0, 0.0])) == pytest.approx(1.0)

    def test_support_is_dual_norm(self):
        ball = L2Ball(3, radius=1.5)
        g = np.array([1.0, 2.0, 2.0])
        assert ball.support(g) == pytest.approx(1.5 * 3.0)

    def test_width_approx_sqrt_d(self):
        for dim in (4, 25, 100):
            width = L2Ball(dim).gaussian_width()
            assert math.sqrt(dim) * 0.9 < width <= math.sqrt(dim)

    def test_width_scales_with_radius(self):
        assert L2Ball(10, 3.0).gaussian_width() == pytest.approx(
            3.0 * L2Ball(10).gaussian_width()
        )

    def test_diameter(self):
        assert L2Ball(7, radius=2.5).diameter() == 2.5

    @pytest.mark.parametrize("scale", [1e200, -1e300, 1e155])
    def test_projects_a_point_whose_square_overflows(self, scale):
        """‖x‖ > ~1.3e154 overflows ``x·x`` to ``inf``; the projection
        falls back to a scaled norm instead of sending x to the origin."""
        direction = np.array([1.0, -2.0, 0.5, 2.0]) * math.copysign(1.0, scale)
        with np.errstate(over="ignore"):
            projected = L2Ball(4).project(direction * abs(scale))
        np.testing.assert_allclose(projected, direction / np.linalg.norm(direction))

    @pytest.mark.parametrize("scale", [1e200, -1e300, 1e155])
    def test_gauge_and_support_of_a_point_whose_square_overflows(self, scale):
        """A finite point with ‖x‖ > ~1.3e154: gauge and support take the
        scaled norm (finite, no overflow warning) instead of ``inf``."""
        direction = np.array([1.0, -2.0, 0.5, 2.0]) * math.copysign(1.0, scale)
        norm = abs(scale) * float(np.linalg.norm(direction))
        ball = L2Ball(4, radius=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gauge = ball.gauge(direction * abs(scale))
            support = ball.support(direction * abs(scale))
            assert not ball.contains(direction * abs(scale))
        assert gauge == pytest.approx(norm / 2.0, rel=1e-15)
        assert support == pytest.approx(2.0 * norm, rel=1e-15)

    def test_gauge_and_support_keep_their_bits_on_finite_squares(self):
        ball = L2Ball(5, radius=1.5)
        scales = 10.0 ** np.arange(-3, 7, 0.2)[:, None]
        points = np.random.default_rng(7).normal(size=(50, 5)) * scales
        for point in points:
            norm = float(np.linalg.norm(point))
            assert ball.gauge(point) == norm / 1.5
            assert ball.support(point) == 1.5 * norm

    def test_projects_huge_rows_and_keeps_the_others(self):
        """The row form: an overflowing row is scaled onto the sphere and
        every row with a finite square keeps ``_project``'s bits."""
        ball = L2Ball(4, radius=2.0)
        rows = np.array([np.full(4, 1e200), [3.0, 0.0, 0.0, 4.0], [0.1, 0.2, 0.3, 0.4]])
        expected = [ball.project(row) for row in rows[1:]]
        with np.errstate(over="ignore"):
            projected = ball._project_rows(rows.copy())
            np.testing.assert_array_equal(ball.project(np.full(4, 1e200)), np.ones(4))
        np.testing.assert_array_equal(projected[0], np.ones(4))
        np.testing.assert_array_equal(projected[1:], expected)


class TestL1Projection:
    def test_inside_untouched(self):
        point = np.array([0.2, -0.3, 0.1])
        np.testing.assert_array_equal(project_onto_l1_ball(point, 1.0), point)

    def test_result_on_boundary_when_outside(self):
        point = np.array([2.0, -3.0, 1.0])
        projected = project_onto_l1_ball(point, 1.0)
        assert np.abs(projected).sum() == pytest.approx(1.0)

    def test_preserves_signs(self):
        point = np.array([2.0, -3.0, 0.5])
        projected = project_onto_l1_ball(point, 1.0)
        for orig, proj in zip(point, projected):
            if proj != 0:
                assert np.sign(proj) == np.sign(orig)

    def test_matches_quadratic_program(self):
        """Cross-check against a brute-force soft-threshold search."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            point = rng.normal(size=6) * 2
            projected = project_onto_l1_ball(point, 1.0)
            # Optimality: for any other feasible z, ‖point−proj‖ ≤ ‖point−z‖.
            for _ in range(50):
                z = rng.normal(size=6)
                z = project_onto_l1_ball(z, 1.0)
                assert np.linalg.norm(point - projected) <= np.linalg.norm(point - z) + 1e-9

    def test_single_coordinate(self):
        np.testing.assert_allclose(project_onto_l1_ball(np.array([5.0]), 1.0), [1.0])


class TestL1Ball:
    def test_width_is_log_d_not_sqrt_d(self):
        """§5.2: w(B₁) = Θ(√log d) — dimension-free in practice."""
        w10 = L1Ball(10).gaussian_width()
        w1000 = L1Ball(1000).gaussian_width()
        assert w1000 / w10 < 2.5  # √(log 1000/log 10) ≈ 1.7
        assert w1000 < math.sqrt(2 * math.log(2000)) + 0.1

    def test_vertices(self):
        verts = L1Ball(3, radius=2.0).vertices()
        assert verts.shape == (6, 3)
        assert np.abs(verts).sum(axis=1).max() == pytest.approx(2.0)

    def test_support(self):
        ball = L1Ball(3, radius=2.0)
        assert ball.support(np.array([1.0, -5.0, 2.0])) == pytest.approx(10.0)

    def test_diameter_is_radius(self):
        assert L1Ball(9, radius=3.0).diameter() == 3.0

    def test_gauge(self):
        assert L1Ball(2, radius=2.0).gauge(np.array([1.0, -1.0])) == pytest.approx(1.0)


class TestLinfBall:
    def test_projection_is_clip(self):
        ball = LinfBall(3, radius=1.0)
        np.testing.assert_allclose(
            ball.project(np.array([2.0, -0.5, -3.0])), [1.0, -0.5, -1.0]
        )

    def test_width_exact_formula(self):
        # E‖g‖₁ = d√(2/π).
        assert LinfBall(10).gaussian_width() == pytest.approx(10 * math.sqrt(2 / math.pi))

    def test_diameter(self):
        assert LinfBall(4, radius=2.0).diameter() == pytest.approx(4.0)


class TestLpBall:
    @pytest.mark.parametrize("p", [1.3, 1.5, 1.8, 3.0])
    def test_projection_feasible_and_optimal_direction(self, p):
        ball = LpBall(5, p, radius=1.0)
        rng = np.random.default_rng(1)
        point = rng.normal(size=5) * 3
        projected = ball.project(point)
        assert ball.contains(projected, tol=1e-5)
        # Projection onto a symmetric body preserves orthant.
        for orig, proj in zip(point, projected):
            assert proj == 0 or np.sign(proj) == np.sign(orig)

    def test_projection_inside_untouched(self):
        ball = LpBall(3, 1.5)
        point = np.array([0.1, 0.1, -0.1])
        np.testing.assert_array_equal(ball.project(point), point)

    @pytest.mark.parametrize("p", [1.5, 2.5])
    def test_projection_optimality_vs_samples(self, p):
        ball = LpBall(4, p)
        rng = np.random.default_rng(2)
        point = rng.normal(size=4) * 2
        projected = ball.project(point)
        base_dist = np.linalg.norm(point - projected)
        for _ in range(100):
            other = ball.project(rng.normal(size=4))
            assert base_dist <= np.linalg.norm(point - other) + 1e-6

    def test_p2_matches_l2(self):
        """LpBall with p=2 must agree with the closed-form L2 projection."""
        lp = LpBall(4, 2.0)
        l2 = L2Ball(4)
        point = np.array([1.0, 2.0, -2.0, 0.5])
        np.testing.assert_allclose(lp.project(point), l2.project(point), atol=1e-6)

    def test_support_is_dual_norm(self):
        ball = LpBall(3, 1.5, radius=2.0)
        g = np.array([1.0, -2.0, 3.0])
        q = 3.0  # dual of 1.5
        expected = 2.0 * (np.abs(g) ** q).sum() ** (1 / q)
        assert ball.support(g) == pytest.approx(expected)

    def test_width_order_d_power(self):
        """w(B_p) ≈ d^{1−1/p}: check the growth exponent across dims."""
        p = 1.5
        w_small = LpBall(20, p).gaussian_width()
        w_large = LpBall(320, p).gaussian_width()
        measured_exponent = math.log(w_large / w_small) / math.log(16.0)
        assert measured_exponent == pytest.approx(1 - 1 / p, abs=0.1)

    def test_rejects_p_at_most_one(self):
        with pytest.raises(ValueError):
            LpBall(3, 1.0)

    def test_rejects_p_inf(self):
        with pytest.raises(ValueError):
            LpBall(3, float("inf"))
