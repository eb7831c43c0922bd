"""End-to-end privacy calibration tests.

A differential privacy guarantee cannot be unit-tested directly (it is a
property of output *distributions*), but every proof in the paper reduces
to two checkable facts:

1. **Sensitivity**: the noise-free statistic each mechanism releases moves
   by at most the declared Δ₂ between neighboring streams; and
2. **Calibration**: the noise actually added matches the formula proved to
   cover that sensitivity, and the budget splits compose to the target.

These tests verify both facts for the moment streams of Algorithms 2 and 3.
"""

import numpy as np
import pytest

from repro import GaussianProjection, PrivacyParams, PrivIncReg1, PrivIncReg2, L1Ball, L2Ball, SparseVectors
from repro.core.moments import MOMENT_SENSITIVITY
from repro.data import make_dense_stream, make_sparse_stream
from test_streaming import replace_point


class TestMomentStreamSensitivity:
    def test_cross_moment_sensitivity_at_most_two(self):
        """‖x·y − x'·y'‖ ≤ 2 under the unit normalization (worst case:
        antipodal unit vectors with |y| = 1)."""
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(500):
            x1, x2 = rng.normal(size=(2, 5))
            x1 /= max(np.linalg.norm(x1), 1.0)
            x2 /= max(np.linalg.norm(x2), 1.0)
            y1, y2 = rng.uniform(-1, 1, 2)
            worst = max(worst, float(np.linalg.norm(x1 * y1 - x2 * y2)))
        assert worst <= MOMENT_SENSITIVITY

    def test_second_moment_sensitivity_at_most_two(self):
        """‖xxᵀ − x'x'ᵀ‖_F ≤ 2."""
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(500):
            x1, x2 = rng.normal(size=(2, 5))
            x1 /= max(np.linalg.norm(x1), 1.0)
            x2 /= max(np.linalg.norm(x2), 1.0)
            diff = np.outer(x1, x1) - np.outer(x2, x2)
            worst = max(worst, float(np.linalg.norm(diff, "fro")))
        assert worst <= MOMENT_SENSITIVITY

    def test_sensitivity_is_tight(self):
        """Antipodal unit covariates with opposite unit labels attain 2."""
        x = np.zeros(5)
        x[0] = 1.0
        assert np.linalg.norm(x * 1.0 - (-x) * 1.0) == pytest.approx(2.0)

    def test_projected_moment_sensitivity_preserved(self):
        """Algorithm 3's rescaling pins ‖Φx̃‖ = ‖x‖, so the projected
        streams keep Δ₂ ≤ 2 no matter what Φ was drawn."""
        rng = np.random.default_rng(2)
        proj = GaussianProjection(30, 6, rng=3)
        worst_cross, worst_gram = 0.0, 0.0
        for _ in range(300):
            x1, x2 = rng.normal(size=(2, 30))
            x1 /= max(np.linalg.norm(x1), 1.0)
            x2 /= max(np.linalg.norm(x2), 1.0)
            y1, y2 = rng.uniform(-1, 1, 2)
            _, p1 = proj.rescale_covariate(x1)
            _, p2 = proj.rescale_covariate(x2)
            worst_cross = max(worst_cross, float(np.linalg.norm(p1 * y1 - p2 * y2)))
            diff = np.outer(p1, p1) - np.outer(p2, p2)
            worst_gram = max(worst_gram, float(np.linalg.norm(diff, "fro")))
        assert worst_cross <= MOMENT_SENSITIVITY + 1e-9
        assert worst_gram <= MOMENT_SENSITIVITY + 1e-9


class TestNeighboringStreamsMoveStatisticsBySensitivity:
    def test_exact_moments_move_within_delta(self):
        stream = make_dense_stream(12, 4, rng=4)
        neighbor = replace_point(stream, 5, np.zeros(4), 0.0)
        gram_a = stream.xs.T @ stream.xs
        gram_b = neighbor.xs.T @ neighbor.xs
        cross_a = stream.xs.T @ stream.ys
        cross_b = neighbor.xs.T @ neighbor.ys
        assert np.linalg.norm(gram_a - gram_b, "fro") <= MOMENT_SENSITIVITY
        assert np.linalg.norm(cross_a - cross_b) <= MOMENT_SENSITIVITY


class TestBudgetConservation:
    def test_reg1_total_budget(self):
        total = PrivacyParams(0.7, 3e-7)
        mech = PrivIncReg1(horizon=8, constraint=L2Ball(3), params=total, rng=0)
        spent = mech.accountant.spent()
        assert spent.epsilon == pytest.approx(total.epsilon)
        assert spent.delta == pytest.approx(total.delta)

    def test_reg2_total_budget(self):
        total = PrivacyParams(0.7, 3e-7)
        mech = PrivIncReg2(
            horizon=8,
            constraint=L1Ball(20),
            x_domain=SparseVectors(20, 2),
            params=total,
            rng=0,
        )
        spent = mech.accountant.spent()
        assert spent.epsilon == pytest.approx(total.epsilon)
        assert spent.delta == pytest.approx(total.delta)

    def test_tree_noise_uses_halved_budget(self):
        """The per-tree σ must be calibrated to (ε/2, δ/2), not (ε, δ)."""
        from repro.privacy.tree import TreeMechanism

        total = PrivacyParams(1.0, 1e-6)
        mech = PrivIncReg1(horizon=8, constraint=L2Ball(3), params=total, rng=0)
        reference = TreeMechanism(8, (3,), 2.0, total.halve(), rng=0)
        assert mech._tree_cross.sigma_node == pytest.approx(reference.sigma_node)


class TestOutputPerturbationDistribution:
    def test_noisy_outputs_differ_between_seeds_but_not_within(self):
        """Randomness sanity: seeds reproduce, fresh draws differ."""
        stream = make_sparse_stream(4, 10, 2, rng=5)
        def run(seed):
            mech = PrivIncReg1(horizon=4, constraint=L2Ball(10),
                               params=PrivacyParams(1.0, 1e-6), rng=seed)
            outs = [mech.observe(x, y) for x, y in stream]
            return outs[-1]
        np.testing.assert_array_equal(run(1), run(1))
        assert not np.array_equal(run(1), run(2))
