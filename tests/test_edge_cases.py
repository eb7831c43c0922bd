"""Edge-case tests across modules: boundaries the main suites skip over."""

import numpy as np
import pytest

from repro import (
    GroupL1Ball,
    L1Ball,
    L2Ball,
    LpBall,
    NoisySGD,
    Polytope,
    PrivacyParams,
    PrivIncERM,
    PrivIncReg1,
    Simplex,
    SquaredLoss,
    TreeMechanism,
)
from repro.data import make_dense_stream
from repro.streaming import IncrementalRunner

from releases import step

NORMAL = PrivacyParams(1.0, 1e-6)


class TestMechanismBoundaries:
    def test_horizon_one_stream(self):
        """The degenerate single-point stream must work end to end."""
        ball = L2Ball(2)
        mech = PrivIncReg1(horizon=1, constraint=ball, params=NORMAL, rng=0)
        theta = mech.observe(np.array([0.5, 0.0]), 0.25)
        assert ball.contains(theta, tol=1e-9)

    def test_erm_horizon_not_multiple_of_tau(self):
        """T=7, τ=3: refreshes at t=3, 6; the tail replays t=6's output."""
        ball = L2Ball(2)
        mech = PrivIncERM(
            horizon=7,
            constraint=ball,
            params=NORMAL,
            tau=3,
            solver_factory=lambda b: NoisySGD(SquaredLoss(), ball, b, rng=0),
        )
        stream = make_dense_stream(7, 2, rng=1)
        outputs = [mech.observe(x, y) for x, y in stream]
        np.testing.assert_array_equal(outputs[6], outputs[5])
        assert len(mech.accountant.charges) == 2

    def test_erm_tau_larger_than_horizon_never_solves(self):
        """τ > T: the mechanism never touches the data (risk = trivial)."""
        ball = L2Ball(2)
        solve_calls = []

        class Spy:
            def solve(self, xs, ys):
                solve_calls.append(1)
                return np.zeros(2)

        mech = PrivIncERM(
            horizon=4, constraint=ball, params=NORMAL, tau=10,
            solver_factory=lambda b: Spy(),
        )
        stream = make_dense_stream(4, 2, rng=2)
        for x, y in stream:
            mech.observe(x, y)
        assert not solve_calls

    def test_runner_eval_every_larger_than_stream(self):
        ball = L2Ball(2)
        runner = IncrementalRunner(ball, eval_every=100)
        stream = make_dense_stream(5, 2, rng=3)
        mech = PrivIncReg1(horizon=5, constraint=ball, params=NORMAL, rng=4)
        result = runner.run(mech, stream)
        # Only the final timestep is evaluated.
        assert result.trace.timesteps == [5]

    def test_zero_covariate_accepted(self):
        """(0, 0) is the neutral element the robust extension relies on."""
        ball = L2Ball(2)
        mech = PrivIncReg1(horizon=3, constraint=ball, params=NORMAL, rng=5)
        theta = mech.observe(np.zeros(2), 0.0)
        assert ball.contains(theta, tol=1e-9)


class TestGeometryBoundaries:
    def test_lp_ball_p_above_two_diameter(self):
        """For p > 2 the diameter is d^{1/2−1/p}·c, attained on the diagonal."""
        ball = LpBall(4, p=4.0, radius=1.0)
        diagonal = np.full(4, (1.0 / 4.0) ** (1.0 / 4.0))  # ‖·‖₄ = 1
        assert np.linalg.norm(diagonal) == pytest.approx(ball.diameter(), rel=1e-9)

    def test_group_ball_uneven_last_block(self):
        """d=5, k=2: blocks (2,2,1); projection must respect the stub block."""
        ball = GroupL1Ball(dim=5, block_size=2, radius=1.0)
        point = np.array([3.0, 4.0, 0.0, 0.0, 2.0])  # block norms 5, 0, 2
        projected = ball.project(point)
        assert ball.contains(projected, tol=1e-9)
        assert ball.norm(projected) == pytest.approx(1.0, abs=1e-9)

    def test_polytope_gauge_at_origin(self):
        square = Polytope(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))
        assert square.gauge(np.zeros(2)) == pytest.approx(0.0, abs=1e-9)

    def test_simplex_dim_one(self):
        simplex = Simplex(1)
        assert simplex.contains(np.array([1.0]))
        np.testing.assert_allclose(simplex.project(np.array([5.0])), [1.0])
        assert simplex.gaussian_width() == 0.0

    def test_l1_projection_ties(self):
        """All-equal magnitudes: projection distributes the budget evenly."""
        ball = L1Ball(4, radius=1.0)
        projected = ball.project(np.ones(4))
        np.testing.assert_allclose(projected, np.full(4, 0.25), atol=1e-12)


class TestTreeBoundaries:
    def test_horizon_one(self):
        mech = TreeMechanism(1, (2,), 1.0, PrivacyParams(1e9, 0.5), rng=0)
        released = step(mech, np.array([0.3, -0.3]))
        np.testing.assert_allclose(released, [0.3, -0.3], atol=1e-5)

    def test_alternating_signs_cancel(self):
        """+v, −v pairs: prefix sums return to ~zero every other step."""
        mech = TreeMechanism(8, (1,), 2.0, PrivacyParams(1e9, 0.5), rng=1)
        v = np.array([0.7])
        for t in range(1, 9):
            released = step(mech, v if t % 2 else -v)
            expected = 0.7 if t % 2 else 0.0
            assert released[0] == pytest.approx(expected, abs=1e-5)

    def test_spectral_bound_requires_square(self):
        from repro.exceptions import ValidationError

        mech = TreeMechanism(4, (3,), 1.0, NORMAL, rng=0)
        with pytest.raises(ValidationError):
            mech.error_bound_spectral()

    def test_spectral_below_frobenius(self):
        """The Lemma-4.1 refinement: spectral ≪ Frobenius for matrices."""
        mech = TreeMechanism(64, (32, 32), 2.0, NORMAL, rng=0)
        assert mech.error_bound_spectral(0.05) < 0.5 * mech.error_bound(0.05)


class TestSolverBoundaries:
    def test_noisy_sgd_single_point_dataset(self):
        ball = L2Ball(2)
        solver = NoisySGD(SquaredLoss(), ball, NORMAL, rng=0)
        theta = solver.solve(np.array([[0.5, 0.0]]), np.array([0.25]))
        assert ball.contains(theta, tol=1e-9)

    def test_noisy_sgd_fast_equals_paper_for_tiny_n(self):
        """Below the cap, fast mode runs the full n² schedule."""
        ball = L2Ball(2)
        xs = np.array([[0.5, 0.0], [0.0, 0.5]])
        ys = np.array([0.2, -0.2])
        fast = NoisySGD(SquaredLoss(), ball, NORMAL, fidelity="fast", rng=3).solve(xs, ys)
        paper = NoisySGD(SquaredLoss(), ball, NORMAL, fidelity="paper", rng=3).solve(xs, ys)
        np.testing.assert_array_equal(fast, paper)
