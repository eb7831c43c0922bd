"""Tests for the unknown-horizon Hybrid Mechanism."""

import numpy as np
import pytest

from repro import HybridMechanism, PrivacyParams
from repro.exceptions import NotSupportedError, ValidationError

from releases import step

HUGE_EPS = PrivacyParams(1e9, 0.5)
NORMAL = PrivacyParams(1.0, 1e-6)


class TestExactness:
    def test_prefix_sums_without_noise(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(50, 3)) * 0.2
        mech = HybridMechanism((3,), 2.0, HUGE_EPS, rng=1)
        for t in range(50):
            released = step(mech, data[t])
            np.testing.assert_allclose(released, data[: t + 1].sum(axis=0), atol=1e-3)

    def test_unbounded_length(self):
        """No horizon: the mechanism must accept arbitrarily many points."""
        mech = HybridMechanism((1,), 1.0, NORMAL, rng=0)
        for _ in range(200):
            step(mech, np.array([0.01]))
        assert mech.steps_taken == 200

    def test_scalar_shape(self):
        mech = HybridMechanism((), 1.0, HUGE_EPS, rng=0)
        out = step(mech, 1.0)
        assert out.shape == ()


class TestEpochStructure:
    def test_epoch_doubling(self):
        """After 2^k - 1 points, k epochs are complete."""
        mech = HybridMechanism((1,), 1.0, NORMAL, rng=0)
        for _ in range(15):  # epochs of length 1, 2, 4, 8
            step(mech, np.array([0.1]))
        assert mech._completed_epochs == 3

    def test_memory_stays_logarithmic(self):
        mech = HybridMechanism((2,), 1.0, NORMAL, rng=0)
        for _ in range(100):
            step(mech, np.zeros(2))
        # Live tree of epoch ~7 has ≤ 8 levels: memory ≤ 2·8·2 + 2 ≈ 34.
        assert mech.memory_floats() < 64

    def test_error_bound_grows_slowly(self):
        mech = HybridMechanism((2,), 1.0, NORMAL, rng=0)
        bounds = []
        for t in range(1, 65):
            step(mech, np.zeros(2))
            if t in (4, 64):
                bounds.append(mech.error_bound())
        # 16x more data should cost well under 16x error (polylog growth).
        assert bounds[1] / bounds[0] < 8.0


class TestDiscipline:
    def test_wrong_shape_rejected(self):
        mech = HybridMechanism((2,), 1.0, NORMAL, rng=0)
        with pytest.raises(ValidationError):
            step(mech, np.zeros(3))

    def test_current_sum_stable(self):
        mech = HybridMechanism((2,), 1.0, NORMAL, rng=0)
        step(mech, np.ones(2) * 0.3)
        np.testing.assert_array_equal(mech.current_sum(), mech.current_sum())

    def test_advance_sum_refused(self):
        """Doubling chunks cannot take a pre-reduced block total: the
        refusal is typed and leaves the state untouched."""
        mech = HybridMechanism((2,), 1.0, NORMAL, rng=0)
        mech.advance_batch(np.ones((3, 2)))
        before = mech.current_sum()
        with pytest.raises(NotSupportedError, match="advance_sum"):
            mech.advance_sum(np.ones(2), 4)
        assert mech.steps_taken == 3
        np.testing.assert_array_equal(mech.current_sum(), before)

    def test_deterministic_with_seed(self):
        def run(seed):
            mech = HybridMechanism((2,), 1.0, NORMAL, rng=seed)
            return [step(mech, np.ones(2) * 0.1).copy() for _ in range(10)]

        for a, b in zip(run(5), run(5)):
            np.testing.assert_array_equal(a, b)


class TestEpochRollover:
    """Satellite coverage: behavior at and across epoch boundaries."""

    def test_rollover_is_lazy(self):
        """Filling epoch e does not roll until the next element arrives."""
        mech = HybridMechanism((1,), 1.0, NORMAL, rng=0)
        for _ in range(3):  # epochs 1 and 2 exactly filled (1 + 2 elements)
            step(mech, np.array([0.1]))
        assert mech._completed_epochs == 1
        assert mech._current_tree.steps_taken == mech._current_tree.horizon
        step(mech, np.array([0.1]))  # triggers the deferred rollover
        assert mech._completed_epochs == 2
        assert mech._current_tree.steps_taken == 1

    def test_current_sum_stable_across_rollover(self):
        """Re-reading current_sum at an epoch boundary must not change it."""
        mech = HybridMechanism((2,), 1.0, NORMAL, rng=1)
        for _ in range(3):
            step(mech, np.ones(2) * 0.2)
        at_boundary = mech.current_sum()
        np.testing.assert_array_equal(at_boundary, mech.current_sum())
        step(mech, np.ones(2) * 0.2)  # rollover happens here
        after = mech.current_sum()
        assert not np.array_equal(at_boundary, after)

    def test_batch_spanning_multiple_epochs(self):
        """One block can close several epochs: 1+2+4+8 < 20 < 1+...+16."""
        mech = HybridMechanism((1,), 1.0, NORMAL, rng=2)
        mech.advance_batch(np.full((20, 1), 0.1))
        assert mech.current_sum().shape == (1,)
        assert mech._completed_epochs == 4
        assert mech.steps_taken == 20

    def test_frozen_totals_accumulate_monotonically(self):
        """With zero noise the frozen total equals the sum of completed
        epochs' elements after each rollover."""
        mech = HybridMechanism((1,), 1.0, HUGE_EPS, rng=0)
        for t in range(1, 16):
            step(mech, np.array([1.0]))
            # completed epochs hold 2^e - 1 elements once rolled; the frozen
            # total only includes epochs whose rollover has fired.
            completed = mech._completed_epochs
            expected_frozen = (2**completed) - 1
            np.testing.assert_allclose(
                mech._frozen_total, [expected_frozen], atol=1e-3
            )

    def test_memory_bounded_through_many_epochs_batched(self):
        mech = HybridMechanism((2,), 1.0, NORMAL, rng=3)
        mech.advance_batch(np.zeros((500, 2)))
        mech.current_sum()
        # Live tree of epoch 9 (horizon 256) has <= 9 levels: memory is
        # (levels+1)*2 for the tree plus the frozen total's 2 floats.
        assert mech.memory_floats() <= (9 + 1) * 2 + 2
