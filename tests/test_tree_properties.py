"""Property-based tests (hypothesis) for the Tree and Hybrid mechanisms.

These check the structural invariants the privacy and utility analyses
depend on, independent of any specific stream:

* with the noise disabled (ε → ∞) the released prefix sums are *exact* for
  arbitrary streams of arbitrary (valid) length;
* the mechanism is linear: summing two streams element-wise equals summing
  their exact prefix sums (checked via the zero-noise limit);
* noise is independent of the data: the released error sequence (release
  minus exact prefix) is identical for any two streams processed under the
  same seed — the property that makes the privacy proof a pure
  sensitivity-times-calibration argument;
* node noise is addressed by node, so every ingest path releases the same
  noise for the same node under any block split: on small-integer streams
  (where every float sum is exact) sequential ``observe``,
  ``observe_batch``, ``advance_batch`` and ``advance_sum`` agree bit for
  bit;
* the plain tree's one-reduction block fold performs the per-row
  additions in their order: on streams whose sums depend on the order
  (exact ``±0``, subnormals, cancelling magnitudes) ``advance_batch``
  releases the bytes of per-row ``observe``, and the moment statistics'
  ``einsum`` outer products release the bytes of the broadcast products
  they replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import HybridMechanism, PrivacyParams, TreeMechanism
from repro.exceptions import StreamExhaustedError
from repro.privacy import DecayedTreeMechanism, SlidingWindowMechanism, make_release_mechanism
from repro.streaming.backends import BACKENDS

HUGE_EPS = PrivacyParams(1e12, 0.5)
NORMAL = PrivacyParams(1.0, 1e-6)

element_lists = st.lists(
    st.lists(
        st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
        min_size=3,
        max_size=3,
    ).map(np.array),
    min_size=1,
    max_size=24,
)


class TestTreeExactnessProperty:
    @given(elements=element_lists)
    @settings(max_examples=25, deadline=None)
    def test_zero_noise_prefix_sums_exact(self, elements):
        mech = TreeMechanism(len(elements), (3,), 2.0, HUGE_EPS, rng=0)
        exact = np.zeros(3)
        for element in elements:
            released = mech.observe(element)
            exact += element
            np.testing.assert_allclose(released, exact, atol=1e-6)

    @given(elements=element_lists)
    @settings(max_examples=25, deadline=None)
    def test_hybrid_zero_noise_prefix_sums_exact(self, elements):
        mech = HybridMechanism((3,), 2.0, HUGE_EPS, rng=0)
        exact = np.zeros(3)
        for element in elements:
            released = mech.observe(element)
            exact += element
            np.testing.assert_allclose(released, exact, atol=1e-6)


class TestNoiseDataIndependence:
    @given(
        elements_a=element_lists,
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_error_sequence_independent_of_data(self, elements_a, seed):
        """release(stream) − prefix(stream) is the same for any stream
        under a fixed seed: the noise never looks at the data."""
        horizon = len(elements_a)
        elements_b = [np.zeros(3) for _ in range(horizon)]  # a different stream

        def error_sequence(elements):
            mech = TreeMechanism(horizon, (3,), 2.0, NORMAL, rng=seed)
            exact = np.zeros(3)
            errors = []
            for element in elements:
                released = mech.observe(element)
                exact += element
                errors.append(released - exact)
            return errors

        for err_a, err_b in zip(error_sequence(elements_a), error_sequence(elements_b)):
            np.testing.assert_allclose(err_a, err_b, atol=1e-8)


class TestMemoryInvariant:
    @given(horizon=st.integers(min_value=1, max_value=512))
    @settings(max_examples=25, deadline=None)
    def test_memory_formula(self, horizon):
        """Prefix-plus-noise state: (levels+1)·d floats, never above the
        2·levels·d of Algorithm 4's a/b arrays."""
        mech = TreeMechanism(horizon, (2,), 1.0, NORMAL, rng=0)
        levels = horizon.bit_length()
        assert mech.memory_floats() == (levels + 1) * 2
        assert mech.memory_floats() <= 2 * levels * 2


class TestErrorBoundProperty:
    """Satellite invariant: the realized prefix-sum error stays within
    error_bound() at the configured β across seeds and batch layouts."""

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        horizon=st.integers(min_value=1, max_value=64),
        batch=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=30, deadline=None)
    def test_error_within_bound(self, seed, horizon, batch):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(horizon, 3))
        data /= np.maximum(np.linalg.norm(data, axis=1, keepdims=True), 1.0)
        mech = TreeMechanism(horizon, (3,), 2.0, NORMAL, rng=seed + 1)
        bound = mech.error_bound(beta=0.005)
        released = np.concatenate(
            [
                mech.observe_batch(data[s : s + batch])
                for s in range(0, horizon, batch)
            ],
            axis=0,
        )
        errors = np.linalg.norm(released - np.cumsum(data, axis=0), axis=1)
        # β=0.005 per prefix; a violation over ≤64 prefixes is a rare event
        # and a deterministic-given-seed regression if it ever trips.
        assert float(errors.max()) < bound

    @given(
        horizon=st.integers(min_value=1, max_value=128),
        batch=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=25, deadline=None)
    def test_memory_constant_under_batched_ingestion(self, horizon, batch):
        mech = TreeMechanism(horizon, (2,), 1.0, NORMAL, rng=0)
        ceiling = 2 * horizon.bit_length() * 2
        assert mech.memory_floats() <= ceiling
        for s in range(0, horizon, batch):
            mech.observe_batch(np.zeros((min(batch, horizon - s), 2)))
            assert mech.memory_floats() <= ceiling


class TestExhaustionProperty:
    """StreamExhaustedError fires on element horizon+1 for both paths."""

    @given(horizon=st.integers(min_value=1, max_value=32))
    @settings(max_examples=20, deadline=None)
    def test_sequential_exhaustion(self, horizon):
        mech = TreeMechanism(horizon, (2,), 1.0, NORMAL, rng=0)
        for _ in range(horizon):
            mech.observe(np.zeros(2))
        with pytest.raises(StreamExhaustedError):
            mech.observe(np.zeros(2))

    @given(
        horizon=st.integers(min_value=1, max_value=32),
        overshoot=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_batched_exhaustion_leaves_state_untouched(self, horizon, overshoot):
        mech = TreeMechanism(horizon, (2,), 1.0, NORMAL, rng=0)
        mech.observe_batch(np.zeros((horizon, 2)))
        before = mech.steps_taken
        with pytest.raises(StreamExhaustedError):
            mech.observe_batch(np.zeros((overshoot, 2)))
        assert mech.steps_taken == before  # the rejected block consumed nothing

    @given(horizon=st.integers(min_value=2, max_value=32))
    @settings(max_examples=20, deadline=None)
    def test_oversized_block_rejected_atomically(self, horizon):
        """A block that would cross the horizon is rejected whole."""
        mech = TreeMechanism(horizon, (2,), 1.0, NORMAL, rng=0)
        mech.observe(np.zeros(2))
        with pytest.raises(StreamExhaustedError):
            mech.observe_batch(np.zeros((horizon, 2)))
        assert mech.steps_taken == 1


class TestBatchedExactnessProperty:
    @given(elements=element_lists, batch=st.integers(min_value=1, max_value=8))
    @settings(max_examples=25, deadline=None)
    def test_zero_noise_batched_prefix_sums_exact(self, elements, batch):
        stacked = np.stack(elements)
        mech = TreeMechanism(len(elements), (3,), 2.0, HUGE_EPS, rng=0)
        released = np.concatenate(
            [
                mech.observe_batch(stacked[s : s + batch])
                for s in range(0, len(elements), batch)
            ],
            axis=0,
        )
        np.testing.assert_allclose(released, np.cumsum(stacked, axis=0), atol=1e-6)

    @given(elements=element_lists, batch=st.integers(min_value=1, max_value=8))
    @settings(max_examples=25, deadline=None)
    def test_hybrid_zero_noise_batched_prefix_sums_exact(self, elements, batch):
        stacked = np.stack(elements)
        mech = HybridMechanism((3,), 2.0, HUGE_EPS, rng=0)
        released = np.concatenate(
            [
                mech.observe_batch(stacked[s : s + batch])
                for s in range(0, len(elements), batch)
            ],
            axis=0,
        )
        np.testing.assert_allclose(released, np.cumsum(stacked, axis=0), atol=1e-6)


# Small integers keep every prefix (and, at γ = 0.5, every γ-weighted
# prefix of up to 40 elements) exactly representable, so any two summation
# orders give the same bits and only the noise can tell the paths apart.
int_streams = st.lists(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
    min_size=1,
    max_size=40,
).map(lambda rows: np.array(rows, dtype=float))
block_sizes = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=40)


def _cut(data, sizes):
    """Consecutive blocks of ``data`` with the given sizes (the rest last)."""
    blocks, start = [], 0
    for size in sizes:
        if start >= len(data):
            break
        blocks.append(data[start : start + size])
        start += size
    if start < len(data):
        blocks.append(data[start:])
    return blocks


TREE_FAMILIES = {
    "tree": lambda n: TreeMechanism(n, (2,), 2.0, NORMAL, rng=5),
    "decayed-1": lambda n: DecayedTreeMechanism(n, (2,), 2.0, NORMAL, rng=5, decay=1.0),
    "decayed-0.5": lambda n: DecayedTreeMechanism(n, (2,), 2.0, NORMAL, rng=5, decay=0.5),
    "window-inf": lambda n: SlidingWindowMechanism(math.inf, (2,), 2.0, NORMAL, rng=5, horizon=n),
}

SPLIT_FAMILIES = {
    "hybrid": lambda n: HybridMechanism((2,), 2.0, NORMAL, rng=5),
    "hybrid-0.5": lambda n: HybridMechanism((2,), 2.0, NORMAL, rng=5, decay=0.5),
    "window-4": lambda n: SlidingWindowMechanism(4, (2,), 2.0, NORMAL, rng=5),
    "window-7": lambda n: SlidingWindowMechanism(7, (2,), 2.0, NORMAL, rng=5, chunk=3),
}


def _sequential(make, data):
    mech = make(len(data))
    return np.stack([mech.observe(v) for v in data])


def _block_ends(blocks):
    return np.cumsum([len(b) for b in blocks]) - 1


class TestOneNoiseStreamProperty:
    @pytest.mark.parametrize("family", sorted(TREE_FAMILIES))
    @given(data=int_streams, sizes=block_sizes)
    @settings(max_examples=30, deadline=None)
    def test_every_ingest_path_releases_the_same_bits(self, family, data, sizes):
        make = TREE_FAMILIES[family]
        blocks = _cut(data, sizes)
        ends = _block_ends(blocks)
        sequential = _sequential(make, data)

        batched = make(len(data))
        np.testing.assert_array_equal(
            np.concatenate([batched.observe_batch(b) for b in blocks]), sequential
        )

        advanced = make(len(data))
        np.testing.assert_array_equal(
            np.stack([advanced.advance_batch(b) for b in blocks]), sequential[ends]
        )

        summed = make(len(data))
        gamma = getattr(summed, "decay", 1.0)
        releases = []
        for block in blocks:
            weights = gamma ** np.arange(len(block) - 1, -1, -1, dtype=float)
            releases.append(summed.advance_sum(weights @ block, len(block)))
        np.testing.assert_array_equal(np.stack(releases), sequential[ends])
        assert summed.release_noise_variance() == advanced.release_noise_variance()

    @pytest.mark.parametrize("family", sorted(SPLIT_FAMILIES))
    @given(data=int_streams, sizes=block_sizes)
    @settings(max_examples=30, deadline=None)
    def test_schedule_closed_forms_track_the_live_mechanism(self, family, data, sizes):
        """After every block of a random split, the chunk schedule's closed
        forms name the live mechanism's chunk, its start and the covered
        count (doubling at γ = 1 and 0.5; fixed chunks whose expiry fires
        inside a live chunk)."""
        mech = SPLIT_FAMILIES[family](len(data))
        schedule = mech.schedule
        for i, block in enumerate(_cut(data, sizes)):
            (mech.observe_batch if i % 2 else mech.advance_batch)(block)
            t = mech.steps_taken
            index = schedule.index_at(t)
            assert mech._epoch_index == index
            assert mech._current_tree.horizon == schedule.length(index)
            assert t - mech._current_tree.steps_taken == ([0] + schedule.ends(0, t))[-1]
            assert mech.covered_steps == schedule.covered_at(t)

    @pytest.mark.parametrize("family", sorted(SPLIT_FAMILIES))
    @given(data=int_streams, sizes=block_sizes)
    @settings(max_examples=30, deadline=None)
    def test_split_mechanisms_release_the_same_bits(self, family, data, sizes):
        make = SPLIT_FAMILIES[family]
        blocks = _cut(data, sizes)
        sequential = _sequential(make, data)

        batched = make(len(data))
        np.testing.assert_array_equal(
            np.concatenate([batched.observe_batch(b) for b in blocks]), sequential
        )

        advanced = make(len(data))
        np.testing.assert_array_equal(
            np.stack([advanced.advance_batch(b) for b in blocks]),
            sequential[_block_ends(blocks)],
        )


# Entries whose sums depend on the order of the additions: exact ±0 (the
# sign of a zero sum), subnormals, and magnitudes that cancel — left to
# right, ``1e16 + 1 + 1 − 1e16`` is 0, while ``1e16 + (1 + 1) − 1e16`` is 2.
ORDER_SENSITIVE = [0.0, -0.0, 5e-324, -5e-324, 2.5e-308, -1.0, 1.0, 0.1, 1e16, -1e16]
order_floats = st.one_of(
    st.sampled_from(ORDER_SENSITIVE),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


@st.composite
def order_streams(draw, shape):
    """A stream of 1–40 elements of ``shape`` built from order-sensitive entries."""
    n = draw(st.integers(min_value=1, max_value=40))
    size = n * math.prod(shape)
    entries = draw(st.lists(order_floats, min_size=size, max_size=size))
    return np.array(entries, dtype=float).reshape((n, *shape))


def _state_bytes(mech):
    """The bytes a release depends on: release, clean prefix, variance."""
    return (
        mech.current_sum().tobytes(),
        mech._prefix.tobytes(),
        np.float64(mech.release_noise_variance()).tobytes(),
    )


#: Element shapes of the fold tests: one-entry elements (a scalar, and the
#: ``d = 1`` cross and Gram), vectors and matrices.
FOLD_SHAPES = [(), (1,), (1, 1), (3,), (4, 4)]


class TestAxisZeroFoldProperty:
    @pytest.mark.parametrize("shape", FOLD_SHAPES, ids=str)
    @given(data=st.data(), sizes=block_sizes)
    @settings(max_examples=40, deadline=None)
    def test_advance_batch_is_byte_identical_to_per_row_observe(self, shape, data, sizes):
        stream = data.draw(order_streams(shape))
        fortran = data.draw(st.booleans())
        per_row = TreeMechanism(len(stream), shape, 2.0, NORMAL, rng=3)
        blocked = TreeMechanism(len(stream), shape, 2.0, NORMAL, rng=3)
        for block in _cut(stream, sizes):
            for row in block:
                per_row.observe(row)
            release = blocked.advance_batch(np.asfortranarray(block) if fortran else block)
            assert release.tobytes() == per_row.current_sum().tobytes()
            assert _state_bytes(blocked) == _state_bytes(per_row)

    @pytest.mark.parametrize("shape", FOLD_SHAPES, ids=str)
    def test_cancelling_block_folds_left_to_right(self, shape):
        """One block where a pairwise sum differs from the left-to-right
        fold in every entry: the release must be the fold's."""
        column = np.array([1e16, 1.0, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0])
        # Guard the fixture: numpy's pairwise sum of [prefix; column] (a
        # contiguous reduction) is 5, not the fold's 4.
        assert np.add.reduce(np.concatenate(([0.0], column))) != 4.0
        block = np.broadcast_to(column.reshape((8,) + (1,) * len(shape)), (8, *shape))
        per_row = TreeMechanism(8, shape, 2.0, NORMAL, rng=4)
        for row in block:
            per_row.observe(row)
        blocked = TreeMechanism(8, shape, 2.0, NORMAL, rng=4)
        blocked.advance_batch(block)
        assert np.all(blocked._prefix == 4.0)
        assert _state_bytes(blocked) == _state_bytes(per_row)

    def test_fortran_ordered_block_folds_left_to_right(self):
        """The cancelling block laid out column-major, where axis 0 is the
        contiguous axis numpy would sum pairwise: the fold is still left
        to right, and the caller's block is left as it was."""
        column = np.array([1e16, 1.0, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0])
        block = np.asfortranarray(np.repeat(column[:, None], 3, axis=1))
        # Guard the fixture: a column-major [prefix; block] reduces pairwise.
        stacked = np.asfortranarray(np.vstack((np.zeros((1, 3)), block)))
        assert np.all(np.add.reduce(stacked, axis=0) != 4.0)
        before = block.tobytes(order="A")
        per_row = TreeMechanism(8, (3,), 2.0, NORMAL, rng=4)
        for row in block:
            per_row.observe(row)
        blocked = TreeMechanism(8, (3,), 2.0, NORMAL, rng=4)
        release = blocked.advance_batch(block)
        assert release.tobytes() == per_row.current_sum().tobytes()
        assert np.all(blocked._prefix == 4.0)
        assert _state_bytes(blocked) == _state_bytes(per_row)
        assert block.flags.f_contiguous and block.tobytes(order="A") == before


#: The broadcast outer products the statistics' ``values`` rules used
#: before ``einsum``, by statistic name (``p``: the instrument count).
BROADCAST_VALUES = {
    "cross": lambda rows, ys, p: rows * ys[:, None],
    "gram": lambda rows, ys, p: rows[:, :, None] * rows[:, None, :],
    "zz": lambda rows, ys, p: rows[:, :p, None] * rows[:, None, :p],
    "zx": lambda rows, ys, p: rows[:, :p, None] * rows[:, None, p:],
    "zy": lambda rows, ys, p: rows[:, :p] * ys[:, None],
}

#: Per backend: its shard config and the width of the rows its statistics
#: read (projected rows are ``m = 4`` wide; iv rows are ``[z | x]``).
INSTRUMENTS = 2
BACKEND_ROWS = {
    "moment": (None, 3),
    "projected": ({"phi": np.zeros((4, 3))}, 4),
    "sketch": ({"phi": np.zeros((4, 3))}, 4),
    "iv": ({"instruments": INSTRUMENTS}, INSTRUMENTS + 3),
}


class TestEinsumValuesProperty:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @given(data=st.data(), sizes=block_sizes)
    @settings(max_examples=20, deadline=None)
    def test_releases_match_the_broadcast_rules_byte_for_byte(self, backend, data, sizes):
        config, width = BACKEND_ROWS[backend]
        declaration = BACKENDS[backend]
        n = data.draw(st.integers(min_value=1, max_value=24))
        rows = np.array(
            data.draw(st.lists(order_floats, min_size=n * width, max_size=n * width))
        ).reshape(n, width)
        ys = np.array(data.draw(st.lists(order_floats, min_size=n, max_size=n)))
        for stat in declaration.statistics(3, config):
            twins = [
                make_release_mechanism(
                    shape=stat.shape,
                    l2_sensitivity=2.0,
                    params=NORMAL,
                    rng=7,
                    mechanism=declaration.release_family or "tree",
                    horizon=n,
                )
                for _ in range(2)
            ]
            old = BROADCAST_VALUES[stat.name]
            for block in _cut(np.arange(n), sizes):
                new_values = stat.values(rows[block], ys[block])
                old_values = old(rows[block], ys[block], INSTRUMENTS)
                np.testing.assert_array_equal(new_values, old_values)
                new_release = twins[0].advance_batch(new_values)
                old_release = twins[1].advance_batch(old_values)
                assert new_release.tobytes() == old_release.tobytes(), stat.name
            assert twins[0].release_noise_variance() == twins[1].release_noise_variance()
