"""Tests for the Tree Mechanism (Algorithm 4)."""

import math
import warnings

import numpy as np
import pytest

from repro import HybridMechanism, PrivacyParams, TreeMechanism
from repro.exceptions import StreamExhaustedError, ValidationError
from repro.privacy import (
    DecayedTreeMechanism,
    SlidingWindowMechanism,
    tree_error_bound,
    tree_levels,
)

from releases import step, steps

HUGE_EPS = PrivacyParams(1e9, 0.5)  # effectively zero noise
NORMAL = PrivacyParams(1.0, 1e-6)


class TestLevels:
    @pytest.mark.parametrize(
        "horizon,expected",
        [(1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4), (1023, 10), (1024, 11)],
    )
    def test_bit_length(self, horizon, expected):
        assert tree_levels(horizon) == expected

    def test_rejects_zero(self):
        with pytest.raises(Exception):
            tree_levels(0)


class TestExactnessWithoutNoise:
    """With ε → ∞ the released sums must equal the exact prefix sums."""

    def test_vector_prefix_sums(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(16, 4)) * 0.3
        mech = TreeMechanism(16, (4,), 2.0, HUGE_EPS, rng=1)
        for t in range(16):
            released = step(mech, data[t])
            np.testing.assert_allclose(released, data[: t + 1].sum(axis=0), atol=1e-4)

    def test_matrix_stream(self):
        """Matrices flow through as flattened d²-vectors (Algorithm 2 usage)."""
        rng = np.random.default_rng(1)
        data = rng.normal(size=(8, 3, 3)) * 0.2
        mech = TreeMechanism(8, (3, 3), 2.0, HUGE_EPS, rng=2)
        for t in range(8):
            released = step(mech, data[t])
            assert released.shape == (3, 3)
            np.testing.assert_allclose(released, data[: t + 1].sum(axis=0), atol=1e-4)

    def test_scalar_stream(self):
        mech = TreeMechanism(4, (), 1.0, HUGE_EPS, rng=0)
        outputs = [float(step(mech, 1.0)) for _ in range(4)]
        np.testing.assert_allclose(outputs, [1.0, 2.0, 3.0, 4.0], atol=1e-4)

    def test_non_power_of_two_horizon(self):
        data = np.ones((11, 2)) * 0.1
        mech = TreeMechanism(11, (2,), 2.0, HUGE_EPS, rng=0)
        for t in range(11):
            released = step(mech, data[t])
        np.testing.assert_allclose(released, data.sum(axis=0), atol=1e-4)


class TestNoiseCalibration:
    def test_node_sigma_formula(self):
        """σ_node = levels · Δ₂ · √(2 ln(2/δ)) / ε."""
        mech = TreeMechanism(8, (2,), 2.0, NORMAL, rng=0)
        levels = tree_levels(8)
        expected = levels * 2.0 * math.sqrt(2.0 * math.log(2.0 / 1e-6)) / 1.0
        assert mech.sigma_node == pytest.approx(expected)

    def test_noise_shrinks_with_epsilon(self):
        strict = TreeMechanism(8, (2,), 2.0, PrivacyParams(0.1, 1e-6))
        loose = TreeMechanism(8, (2,), 2.0, PrivacyParams(10.0, 1e-6))
        assert strict.sigma_node == pytest.approx(100.0 * loose.sigma_node)

    def test_error_bound_polylog_in_horizon(self):
        """Prop C.1: the error grows polylogarithmically, not linearly, in T."""
        short = tree_error_bound(64, 4, 2.0, NORMAL)
        long = tree_error_bound(64 * 1024, 4, 2.0, NORMAL)
        assert long / short < (math.log2(64 * 1024) / math.log2(64)) ** 2

    def test_error_bound_sqrt_d(self):
        lo = tree_error_bound(64, 4, 2.0, NORMAL, beta=0.5)
        hi = tree_error_bound(64, 400, 2.0, NORMAL, beta=0.5)
        # √(400)/√4 = 10, and the √log(1/β) additive term dilutes it slightly.
        assert 5.0 < hi / lo <= 10.0

    def test_empirical_error_within_bound(self):
        """The realized max error should sit below the 1-β bound."""
        rng = np.random.default_rng(3)
        horizon, dim = 64, 3
        data = rng.normal(size=(horizon, dim))
        data /= np.maximum(np.linalg.norm(data, axis=1, keepdims=True), 1.0)
        mech = TreeMechanism(horizon, (dim,), 2.0, NORMAL, rng=4)
        bound = mech.error_bound(beta=0.01)
        worst = 0.0
        exact = np.zeros(dim)
        for t in range(horizon):
            released = step(mech, data[t])
            exact += data[t]
            worst = max(worst, float(np.linalg.norm(released - exact)))
        assert worst < bound


class TestStreamDiscipline:
    def test_exhaustion_raises(self):
        mech = TreeMechanism(2, (1,), 1.0, NORMAL, rng=0)
        step(mech, np.array([0.1]))
        step(mech, np.array([0.1]))
        with pytest.raises(StreamExhaustedError):
            step(mech, np.array([0.1]))

    def test_wrong_shape_rejected(self):
        mech = TreeMechanism(4, (2,), 1.0, NORMAL, rng=0)
        with pytest.raises(ValidationError):
            step(mech, np.zeros(3))

    def test_nan_rejected(self):
        mech = TreeMechanism(4, (2,), 1.0, NORMAL, rng=0)
        with pytest.raises(ValidationError):
            step(mech, np.array([0.1, float("nan")]))

    def test_current_sum_is_stable(self):
        """Re-reading must not re-randomize (post-processing only)."""
        mech = TreeMechanism(4, (2,), 1.0, NORMAL, rng=0)
        step(mech, np.array([0.5, 0.5]))
        first = mech.current_sum()
        second = mech.current_sum()
        np.testing.assert_array_equal(first, second)

    def test_current_sum_before_any_observation(self):
        mech = TreeMechanism(4, (2,), 1.0, NORMAL, rng=0)
        np.testing.assert_array_equal(mech.current_sum(), np.zeros(2))


BLOCK_FAMILIES = {
    "tree": lambda: TreeMechanism(16, (3,), 2.0, NORMAL, rng=8),
    "decayed": lambda: DecayedTreeMechanism(16, (3,), 2.0, NORMAL, rng=8, decay=0.5),
    "hybrid": lambda: HybridMechanism((3,), 2.0, NORMAL, rng=8),
    "window": lambda: SlidingWindowMechanism(5, (3,), 2.0, NORMAL, rng=8, horizon=16),
}

GOOD = np.linspace(-0.3, 0.3, 30).reshape(10, 3)


def _bad_block(entries):
    """A finite 4-row block with the given ``(row, column): value`` entries."""
    block = GOOD[:4].copy()
    for (row, column), value in entries.items():
        block[row, column] = value
    return block


BAD_BLOCKS = {
    "nan-first": _bad_block({(0, 0): math.nan}),
    "nan-last": _bad_block({(3, 2): math.nan}),
    "inf-middle": _bad_block({(1, 1): math.inf}),
    "neg-inf-last": _bad_block({(3, 0): -math.inf}),
    # inf − inf: the fold of this block raises the invalid-operation flag.
    "inf-and-neg-inf": _bad_block({(1, 2): math.inf, (2, 2): -math.inf}),
    # The fold overflows before it meets the NaN.
    "overflow-then-nan": _bad_block({(0, 1): 1e308, (1, 1): 1e308, (3, 1): math.nan}),
}


def _state(mech):
    """Everything a rejected block must leave as it was, as bytes."""
    tree = getattr(mech, "_current_tree", mech)
    return (
        mech.steps_taken,
        tree._prefix.tobytes(),
        mech.current_sum().tobytes(),
        np.float64(mech.release_noise_variance()).tobytes(),
    )


class TestBlockRejection:
    """A block with a non-finite entry is refused whole, before any state
    moves and without a RuntimeWarning, on every ingest path."""

    @pytest.mark.parametrize("prefix", [0, 3], ids=["fresh", "mid-stream"])
    @pytest.mark.parametrize("bad", sorted(BAD_BLOCKS))
    @pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
    def test_non_finite_block_is_rejected_atomically(self, family, bad, prefix):
        mech = BLOCK_FAMILIES[family]()
        if prefix:
            mech.advance_batch(GOOD[:prefix])
        before = _state(mech)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValidationError, match="stream block must contain only finite entries"
            ):
                mech.advance_batch(BAD_BLOCKS[bad])
        assert _state(mech) == before
        # The mechanism goes on exactly like a twin that never saw the block.
        twin = BLOCK_FAMILIES[family]()
        if prefix:
            twin.advance_batch(GOOD[:prefix])
        mech.advance_batch(GOOD[3:9])
        twin.advance_batch(GOOD[3:9])
        assert mech.current_sum().tobytes() == twin.current_sum().tobytes()

    @pytest.mark.parametrize("family", ["tree", "decayed", "window"])
    def test_non_finite_block_past_the_horizon_is_a_validation_error(self, family):
        mech = BLOCK_FAMILIES[family]()
        mech.advance_batch(np.tile(GOOD, (2, 1))[:14])
        before = _state(mech)
        block = GOOD[:4].copy()
        block[2, 1] = math.nan
        with pytest.raises(ValidationError):
            mech.advance_batch(block)
        assert _state(mech) == before

    @pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
    def test_finite_overflowing_block_is_accepted(self, family):
        mech = BLOCK_FAMILIES[family]()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mech.advance_batch(np.full((8, 3), 1e308))
            release = mech.current_sum()
        assert mech.steps_taken == 8
        assert not np.isfinite(release).all()

    @pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
    def test_read_only_block_is_ingested_and_left_unchanged(self, family):
        raw = GOOD[:6].tobytes()
        block = np.frombuffer(raw, dtype=float).reshape(6, 3)
        assert not block.flags.writeable
        mech = BLOCK_FAMILIES[family]()
        twin = BLOCK_FAMILIES[family]()
        mech.advance_batch(block)
        twin.advance_batch(GOOD[:6].copy())
        assert mech.current_sum().tobytes() == twin.current_sum().tobytes()
        assert block.tobytes() == raw


class TestMemory:
    def test_logarithmic_memory(self):
        """Memory must be (levels+1)·d floats — O(d log T), not O(d·T) —
        and never above Algorithm 4's 2·levels·d."""
        mech = TreeMechanism(1024, (8,), 2.0, NORMAL, rng=0)
        assert mech.memory_floats() == (tree_levels(1024) + 1) * 8
        assert mech.memory_floats() <= 2 * tree_levels(1024) * 8

    def test_memory_independent_of_steps(self):
        mech = TreeMechanism(64, (4,), 2.0, NORMAL, rng=0)
        before = mech.memory_floats()
        for _ in range(32):
            step(mech, np.zeros(4))
        assert mech.memory_floats() == before


class TestDeterminism:
    def test_same_seed_same_outputs(self):
        def run(seed):
            mech = TreeMechanism(8, (2,), 2.0, NORMAL, rng=seed)
            return [step(mech, np.ones(2) * 0.1).copy() for _ in range(8)]

        for a, b in zip(run(11), run(11)):
            np.testing.assert_array_equal(a, b)


class TestActiveMaskRegression:
    """The release path reads the maintained active-level mask instead of
    recomputing the set-bit list each step; these tests pin the releases to
    an independent from-scratch model of Algorithm 4."""

    def _reference_releases(self, data, horizon, sigma, seed):
        """Direct model: exact prefix + per-node noise at the set bits of t,
        each node's noise drawn from a fresh Philox keyed by two raw words
        of the seed's generator at counter [0, 0, node index, level],
        replayed independently of the TreeMechanism implementation."""
        key = np.random.default_rng(seed).bit_generator.random_raw(2)
        levels = horizon.bit_length()
        dim = data.shape[1]
        eta = np.zeros((levels, dim))
        prefix = np.zeros(dim)
        out = []
        for t in range(1, len(data) + 1):
            prefix = prefix + data[t - 1]
            closed_level = (t & -t).bit_length() - 1
            node = np.random.Philox(key=key, counter=[0, 0, t >> closed_level, closed_level])
            eta[closed_level] = np.random.Generator(node).normal(0.0, sigma, size=dim)
            release = prefix.copy()
            for j in range(levels):
                if (t >> j) & 1:
                    release += eta[j]
            out.append(release.copy())
        return np.stack(out)

    def test_releases_match_reference_model(self):
        horizon = 13
        rng = np.random.default_rng(0)
        data = rng.normal(size=(horizon, 3)) * 0.2
        mech = TreeMechanism(horizon, (3,), 2.0, NORMAL, rng=77)
        released = steps(mech, data)
        reference = self._reference_releases(data, horizon, mech.sigma_node, 77)
        np.testing.assert_array_equal(released, reference)

    def test_active_mask_tracks_set_bits(self):
        mech = TreeMechanism(16, (2,), 2.0, NORMAL, rng=0)
        for t in range(1, 17):
            step(mech, np.zeros(2))
            expected = [(t >> j) & 1 == 1 for j in range(mech.levels)]
            assert list(mech._active) == expected
