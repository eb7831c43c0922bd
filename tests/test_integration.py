"""Cross-module integration tests.

These exercise whole pipelines and check the *orderings* the paper
establishes: non-private ≤ every private mechanism ≤ the trivial bound, and
the tree-based regression mechanism beating the generic transformation on
the same stream (Remark 4.3) at equal budgets.
"""

import numpy as np
import pytest

from repro import (
    HybridMechanism,
    IncrementalRunner,
    L1Ball,
    L2Ball,
    NoisySGD,
    NonPrivateIncremental,
    PrivacyParams,
    PrivIncERM,
    PrivIncReg1,
    PrivIncReg2,
    SparseVectors,
    SquaredLoss,
    StaticOutput,
    tau_convex,
)
from repro.core.bounds import trivial_bound
from repro.data import make_dense_stream, make_sparse_stream

from releases import step

BUDGET = PrivacyParams(2.0, 1e-6)


class TestRiskOrderings:
    def test_nonprivate_then_private_then_trivial(self):
        horizon, dim = 48, 4
        ball = L2Ball(dim)
        stream = make_dense_stream(horizon, dim, noise_std=0.05, rng=0)
        runner = IncrementalRunner(ball, eval_every=8)

        nonprivate = runner.run(NonPrivateIncremental(ball), stream).trace.max_excess()
        private = runner.run(
            PrivIncReg1(horizon=horizon, constraint=ball, params=BUDGET, rng=1), stream
        ).trace.max_excess()
        lipschitz = SquaredLoss().lipschitz(ball.diameter())
        ceiling = trivial_bound(horizon, lipschitz, ball.diameter())

        assert nonprivate <= private + 1e-6
        assert private <= ceiling

    def test_mech1_beats_generic_transform_on_average(self):
        """Remark 4.3 empirically: at equal budget, the tree-based mechanism
        should (on average across seeds) incur less excess risk than the
        generic transformation.

        Uses a moderate ε where both mechanisms get signal — at very small
        T·ε both are noise-dominated and the comparison is a coin flip.
        """
        horizon, dim = 48, 4
        budget = PrivacyParams(20.0, 1e-6)
        ball = L2Ball(dim)
        runner = IncrementalRunner(ball, eval_every=12)

        reg1_scores, generic_scores = [], []
        for seed in range(3):
            stream = make_dense_stream(horizon, dim, noise_std=0.05, rng=200 + seed)
            reg1 = PrivIncReg1(horizon=horizon, constraint=ball, params=budget, rng=seed)
            reg1_scores.append(runner.run(reg1, stream).trace.mean_excess())

            factory = lambda budget_: NoisySGD(  # noqa: E731
                SquaredLoss(), ball, budget_, rng=seed, iteration_cap=300
            )
            generic = PrivIncERM(
                horizon=horizon,
                constraint=ball,
                params=budget,
                tau=tau_convex(horizon, dim, budget.epsilon),
                solver_factory=factory,
            )
            generic_scores.append(runner.run(generic, stream).trace.mean_excess())
        assert float(np.mean(reg1_scores)) < float(np.mean(generic_scores))

    def test_static_is_worst_reasonable_baseline(self):
        horizon, dim = 32, 3
        ball = L2Ball(dim)
        stream = make_dense_stream(horizon, dim, noise_std=0.0, rng=3)
        runner = IncrementalRunner(ball, eval_every=8)
        static = runner.run(StaticOutput(ball), stream).trace.final_excess()
        nonprivate = runner.run(NonPrivateIncremental(ball), stream).trace.final_excess()
        assert nonprivate < static


class TestMechanismsShareRunnerProtocol:
    @pytest.mark.parametrize("builder", [
        lambda h, ball: NonPrivateIncremental(ball),
        lambda h, ball: StaticOutput(ball),
        lambda h, ball: PrivIncReg1(horizon=h, constraint=ball, params=BUDGET, rng=0),
    ])
    def test_observe_protocol(self, builder):
        ball = L2Ball(3)
        estimator = builder(6, ball)
        stream = make_dense_stream(6, 3, rng=4)
        for x, y in stream:
            theta = estimator.observe(x, y)
            assert theta.shape == (3,)


class TestHybridBackedPipeline:
    def test_hybrid_trees_track_moments_unbounded(self):
        """The Hybrid mechanism supports streams with no declared horizon —
        run 3 epochs' worth of points and verify the moment error stays
        finite and within its own bound."""
        dim = 3
        cross_tree = HybridMechanism((dim,), 2.0, PrivacyParams(5.0, 1e-6), rng=0)
        rng = np.random.default_rng(5)
        exact = np.zeros(dim)
        for _ in range(21):
            x = rng.normal(size=dim)
            x /= max(np.linalg.norm(x), 1.0)
            y = float(rng.uniform(-1, 1))
            released = step(cross_tree, x * y)
            exact += x * y
        assert np.linalg.norm(released - exact) < cross_tree.error_bound(beta=0.01)


class TestHighDimensionalStory:
    def test_mech2_projected_dim_below_ambient_for_sparse_domain(self):
        """The §5.2 headline: for sparse inputs + L1 constraint at large d,
        Gordon sizing at a fixed distortion gives m ≪ d.

        (With the Theorem-5.7 default γ = W^{1/3}/T^{1/3}, the reduction
        only kicks in at much larger d — the d ≫ poly(T) regime — so this
        test pins γ to isolate the width-driven sizing.)
        """
        dim = 2000
        mech = PrivIncReg2(
            horizon=1 << 14,
            constraint=L1Ball(dim),
            x_domain=SparseVectors(dim, 4),
            params=BUDGET,
            gamma=0.5,
            rng=0,
        )
        assert mech.projected_dim < dim / 2
        # And the sizing is width-driven: quadrupling d (≈ constant width)
        # must not blow m up proportionally.
        mech_big = PrivIncReg2(
            horizon=1 << 14,
            constraint=L1Ball(4 * dim),
            x_domain=SparseVectors(4 * dim, 4),
            params=BUDGET,
            gamma=0.5,
            rng=0,
        )
        assert mech_big.projected_dim < 2 * mech.projected_dim

    def test_mech2_runs_on_sparse_stream(self):
        dim = 40
        stream = make_sparse_stream(10, dim, sparsity=3, rng=6)
        mech = PrivIncReg2(
            horizon=10,
            constraint=L1Ball(dim),
            x_domain=SparseVectors(dim, 3),
            params=BUDGET,
            rng=7,
            solve_every=5,
        )
        ball = L1Ball(dim)
        for x, y in stream:
            assert ball.contains(mech.observe(x, y), tol=1e-5)
