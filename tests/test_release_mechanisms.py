"""Tests for the :mod:`repro.privacy.release` mechanism family.

The serving stack programs against the :class:`ReleaseMechanism`
protocol; these tests pin the contracts the protocol members share —
conformance, factory dispatch, the γ=1 / W=inf bit-identity escape
hatches, decayed and windowed correctness against brute force, the
noise-variance ledger, up-front knob validation, keyed releases (every
family is a pure function of one two-word key) and the frozen
``ReleasedMoments`` record each family hands to a merge.
"""

import math

import numpy as np
import pytest

from repro import (
    DecayedTreeMechanism,
    HybridMechanism,
    PrivacyParams,
    ReleaseMechanism,
    ReleasedMoments,
    SlidingWindowMechanism,
    TreeMechanism,
    make_release_mechanism,
    merge_released,
)
from repro.exceptions import (
    NotSupportedError,
    StreamExhaustedError,
    ValidationError,
)
from repro.privacy.tree import noise_key
from repro.streaming import wire

HUGE_EPS = PrivacyParams(1e9, 0.5)
NORMAL = PrivacyParams(1.0, 1e-6)
DIM = 3


def _stream(n, seed=0, dim=DIM):
    return np.random.default_rng(seed).normal(size=(n, dim)) * 0.3


# ---------------------------------------------------------------------------
# Import surface
# ---------------------------------------------------------------------------


class TestImportSurface:
    """The non-stationary family is part of the public API."""

    NAMES = (
        "ReleaseMechanism",
        "DecayedTreeMechanism",
        "SlidingWindowMechanism",
        "make_release_mechanism",
    )

    def test_top_level_exports(self):
        import repro

        for name in self.NAMES:
            assert name in repro.__all__, name
            assert getattr(repro, name) is not None

    def test_privacy_package_exports(self):
        import repro.privacy as privacy

        for name in self.NAMES:
            assert name in privacy.__all__, name
            assert getattr(privacy, name) is not None

    def test_top_level_matches_privacy_package(self):
        import repro
        import repro.privacy as privacy

        for name in self.NAMES:
            assert getattr(repro, name) is getattr(privacy, name)

    def test_all_names_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


# ---------------------------------------------------------------------------
# Protocol conformance and factory dispatch
# ---------------------------------------------------------------------------


class TestProtocol:
    @pytest.mark.parametrize(
        "mech",
        [
            TreeMechanism(16, (DIM,), 2.0, NORMAL, rng=0),
            HybridMechanism((DIM,), 2.0, NORMAL, rng=0),
            DecayedTreeMechanism(16, (DIM,), 2.0, NORMAL, rng=0, decay=0.9),
            SlidingWindowMechanism(8, (DIM,), 2.0, NORMAL, rng=0),
        ],
        ids=["tree", "hybrid", "decayed", "window"],
    )
    def test_members_conform(self, mech):
        assert isinstance(mech, ReleaseMechanism)
        out = mech.observe(np.zeros(DIM))
        assert out.shape == (DIM,)
        assert mech.release_noise_variance() >= 0.0
        assert mech.memory_floats() > 0
        assert mech.effective_weight >= 1.0

    def test_factory_dispatch(self):
        base = dict(shape=(DIM,), l2_sensitivity=2.0, params=NORMAL, rng=0)
        assert type(make_release_mechanism(horizon=16, **base)) is TreeMechanism
        assert (
            type(make_release_mechanism(mechanism="hybrid", **base))
            is HybridMechanism
        )
        assert (
            type(make_release_mechanism(horizon=16, decay=0.9, **base))
            is DecayedTreeMechanism
        )
        assert (
            type(make_release_mechanism(window=8, **base))
            is SlidingWindowMechanism
        )
        decayed_hybrid = make_release_mechanism(
            mechanism="hybrid", decay=0.9, **base
        )
        assert isinstance(decayed_hybrid, HybridMechanism)
        assert decayed_hybrid.decay == 0.9

    def test_factory_validation_names_the_knob(self):
        base = dict(shape=(DIM,), l2_sensitivity=2.0, params=NORMAL, rng=0)
        with pytest.raises(ValidationError, match="decay"):
            make_release_mechanism(horizon=16, decay=0.9, window=8, **base)
        with pytest.raises(ValidationError, match="decay"):
            make_release_mechanism(horizon=16, decay=1.5, **base)
        with pytest.raises(ValidationError, match="decay"):
            make_release_mechanism(horizon=16, decay=0.0, **base)
        with pytest.raises(ValidationError, match="window"):
            make_release_mechanism(horizon=16, window=0, **base)
        with pytest.raises(ValidationError, match="horizon"):
            make_release_mechanism(**base)  # tree without horizon
        with pytest.raises(ValidationError, match="horizon"):
            make_release_mechanism(window=math.inf, **base)
        with pytest.raises(ValidationError, match="mechanism"):
            make_release_mechanism(mechanism="laplace", horizon=16, **base)


# ---------------------------------------------------------------------------
# γ = 1 and W = inf are bit-identical to the plain tree
# ---------------------------------------------------------------------------


class TestDegenerateIdentity:
    def test_decay_one_is_bit_identical(self):
        data = _stream(32, seed=1)
        plain = TreeMechanism(32, (DIM,), 2.0, NORMAL, rng=7)
        decayed = DecayedTreeMechanism(32, (DIM,), 2.0, NORMAL, rng=7, decay=1.0)
        for row in data:
            assert np.array_equal(plain.observe(row), decayed.observe(row))
        assert plain.release_noise_variance() == decayed.release_noise_variance()

    def test_window_inf_is_bit_identical(self):
        data = _stream(32, seed=2)
        plain = TreeMechanism(32, (DIM,), 2.0, NORMAL, rng=7)
        ring = SlidingWindowMechanism(
            math.inf, (DIM,), 2.0, NORMAL, rng=7, horizon=32
        )
        for row in data:
            assert np.array_equal(plain.observe(row), ring.observe(row))
        assert ring.covered_steps == 32
        assert ring.effective_weight == 32.0

    def test_decay_one_batch_kernels_match(self):
        data = _stream(24, seed=3)
        plain = TreeMechanism(32, (DIM,), 2.0, NORMAL, rng=5)
        decayed = DecayedTreeMechanism(32, (DIM,), 2.0, NORMAL, rng=5, decay=1.0)
        plain.advance_batch(data)
        decayed.advance_batch(data)
        assert np.array_equal(plain.current_sum(), decayed.current_sum())


# ---------------------------------------------------------------------------
# Decayed correctness
# ---------------------------------------------------------------------------


class TestDecayedTree:
    def test_release_tracks_weighted_sum(self):
        gamma = 0.8
        data = _stream(40, seed=4)
        mech = DecayedTreeMechanism(40, (DIM,), 2.0, HUGE_EPS, rng=1, decay=gamma)
        brute = np.zeros(DIM)
        for row in data:
            brute = gamma * brute + row
            released = mech.observe(row)
            np.testing.assert_allclose(released, brute, atol=1e-3)

    def test_batch_matches_sequential_bitwise(self):
        gamma = 0.9
        data = _stream(30, seed=5)
        seq = DecayedTreeMechanism(32, (DIM,), 2.0, NORMAL, rng=9, decay=gamma)
        bat = DecayedTreeMechanism(32, (DIM,), 2.0, NORMAL, rng=9, decay=gamma)
        for row in data:
            last = seq.observe(row)
        bat.advance_batch(data)
        assert np.array_equal(last, bat.current_sum())
        assert seq.release_noise_variance() == bat.release_noise_variance()

    def test_advance_sum_consumes_weighted_block_totals(self):
        gamma = 0.7
        data = _stream(20, seed=6)
        mech = DecayedTreeMechanism(32, (DIM,), 2.0, HUGE_EPS, rng=2, decay=gamma)
        for start in range(0, 20, 5):
            block = data[start : start + 5]
            weights = gamma ** np.arange(4, -1, -1, dtype=float)
            mech.advance_sum((weights[:, None] * block).sum(axis=0), 5)
        brute = np.zeros(DIM)
        for row in data:
            brute = gamma * brute + row
        np.testing.assert_allclose(mech.current_sum(), brute, atol=1e-3)

    def test_variance_ledger_fades(self):
        """Decayed release variance is at most the plain popcount bound,
        and strictly below it once old node noise has faded."""
        gamma = 0.5
        mech = DecayedTreeMechanism(64, (DIM,), 2.0, NORMAL, rng=0, decay=gamma)
        plain = TreeMechanism(64, (DIM,), 2.0, NORMAL, rng=0)
        for t in range(1, 64):
            mech.observe(np.zeros(DIM))
            plain.observe(np.zeros(DIM))
            assert (
                mech.release_noise_variance()
                <= plain.release_noise_variance() + 1e-12
            )
        # t = 63 has six active levels; all but the newest have faded.
        assert mech.release_noise_variance() < plain.release_noise_variance()

    def test_effective_weight_is_geometric_series(self):
        gamma = 0.9
        mech = DecayedTreeMechanism(32, (DIM,), 2.0, NORMAL, rng=0, decay=gamma)
        for t in range(1, 11):
            mech.observe(np.zeros(DIM))
            expected = (1 - gamma**t) / (1 - gamma)
            assert abs(mech.effective_weight - expected) < 1e-12

    def test_horizon_still_enforced(self):
        mech = DecayedTreeMechanism(4, (DIM,), 2.0, NORMAL, rng=0, decay=0.9)
        for _ in range(4):
            mech.observe(np.zeros(DIM))
        with pytest.raises(StreamExhaustedError):
            mech.observe(np.zeros(DIM))


# ---------------------------------------------------------------------------
# Sliding-window correctness
# ---------------------------------------------------------------------------


class TestSlidingWindow:
    def test_release_covers_only_the_window(self):
        window, chunk = 8, 2
        data = _stream(30, seed=7)
        mech = SlidingWindowMechanism(
            window, (DIM,), 2.0, HUGE_EPS, rng=1, chunk=chunk
        )
        for t, row in enumerate(data, start=1):
            released = mech.observe(row)
            covered = mech.covered_steps
            assert covered == SlidingWindowMechanism.covered_at(t, window, chunk)
            if t >= window:
                assert window - chunk + 1 <= covered <= window
            np.testing.assert_allclose(
                released, data[t - covered : t].sum(axis=0), atol=1e-3
            )

    def test_observe_batch_matches_sequential_bitwise(self):
        data = _stream(25, seed=8)
        seq = SlidingWindowMechanism(10, (DIM,), 2.0, NORMAL, rng=3, chunk=3)
        bat = SlidingWindowMechanism(10, (DIM,), 2.0, NORMAL, rng=3, chunk=3)
        released = [seq.observe(row) for row in data]
        assert np.array_equal(np.asarray(released), bat.observe_batch(data))
        assert seq.covered_steps == bat.covered_steps

    def test_finite_window_is_horizon_free(self):
        mech = SlidingWindowMechanism(6, (DIM,), 2.0, NORMAL, rng=0)
        for _ in range(500):  # far beyond any horizon
            mech.observe(np.zeros(DIM))
        assert mech.covered_steps <= 6
        assert mech.effective_weight == float(mech.covered_steps)

    def test_memory_is_bounded_by_the_ring(self):
        mech = SlidingWindowMechanism(16, (DIM,), 2.0, NORMAL, rng=0, chunk=4)
        floors = []
        for _ in range(200):
            mech.observe(np.zeros(DIM))
            floors.append(mech.memory_floats())
        assert max(floors[32:]) == max(floors[:32])  # plateaus, no growth

    def test_advance_sum_refused_for_finite_windows(self):
        mech = SlidingWindowMechanism(8, (DIM,), 2.0, NORMAL, rng=0)
        with pytest.raises(NotSupportedError):
            mech.advance_sum(np.zeros(DIM), 4)

    def test_advance_sum_passes_through_at_inf(self):
        plain = TreeMechanism(16, (DIM,), 2.0, NORMAL, rng=4)
        ring = SlidingWindowMechanism(
            math.inf, (DIM,), 2.0, NORMAL, rng=4, horizon=16
        )
        total = np.ones(DIM)
        plain.advance_sum(total, 4)
        ring.advance_sum(total, 4)
        assert np.array_equal(plain.current_sum(), ring.current_sum())

    def test_horizon_caps_capacity(self):
        mech = SlidingWindowMechanism(4, (DIM,), 2.0, NORMAL, rng=0, horizon=10)
        for _ in range(10):
            mech.observe(np.zeros(DIM))
        with pytest.raises(StreamExhaustedError):
            mech.observe(np.zeros(DIM))

    def test_error_bound_is_state_independent(self):
        """Bounds quote the ring capacity, not the live ring, so a batch
        solve sized mid-stream equals the same solve replayed element by
        element (the serving layer depends on this)."""
        mech = SlidingWindowMechanism(12, (DIM, DIM), 2.0, NORMAL, rng=0, chunk=3)
        before = (mech.error_bound(), mech.error_bound_spectral())
        for _ in range(40):
            mech.observe(np.zeros((DIM, DIM)))
        after = (mech.error_bound(), mech.error_bound_spectral())
        assert before == after

    def test_chunk_validation(self):
        with pytest.raises(ValidationError, match="chunk"):
            SlidingWindowMechanism(4, (DIM,), 2.0, NORMAL, rng=0, chunk=5)
        with pytest.raises(ValidationError, match="chunk"):
            SlidingWindowMechanism(4, (DIM,), 2.0, NORMAL, rng=0, chunk=0)


# ---------------------------------------------------------------------------
# Keyed releases: every family is a pure function of its two-word key
# ---------------------------------------------------------------------------

#: Every release family, as make_release_mechanism knobs, with whether it
#: ingests pre-reduced block totals (the fast tier; a chunked schedule
#: does not).
FAMILIES = {
    "tree": (dict(mechanism="tree", horizon=64), True),
    "decayed-tree": (dict(mechanism="tree", horizon=64, decay=0.9), True),
    "hybrid": (dict(mechanism="hybrid"), False),
    "decayed-hybrid": (dict(mechanism="hybrid", decay=0.9), False),
    "window-12": (dict(mechanism="tree", window=12), False),
    "window-inf": (dict(mechanism="tree", horizon=64, window=math.inf), True),
    "sketch": (dict(mechanism="sketch", horizon=64), True),
}


def _family(name, rng):
    knobs, _ = FAMILIES[name]
    return make_release_mechanism(
        shape=(DIM,), l2_sensitivity=2.0, params=NORMAL, rng=rng, **knobs
    )


class TestKeyedReleases:
    @pytest.mark.parametrize(
        "name,tier",
        [(name, "exact") for name in FAMILIES]
        + [(name, "fast") for name, (_, fast) in FAMILIES.items() if fast],
    )
    def test_a_key_releases_what_its_generator_releases(self, name, tier):
        """A mechanism built from a key and one built from the generator
        the key came from release the same bits on one stream, on every
        tier the family ingests."""
        key = noise_key(np.random.default_rng(8))
        keyed, seeded = _family(name, key), _family(name, np.random.default_rng(8))
        data = _stream(40, seed=3)
        for start, stop in ((0, 1), (1, 5), (5, 17), (17, 40)):
            for mech in (keyed, seeded):
                if tier == "exact":
                    mech.advance_batch(data[start:stop])
                else:
                    mech.advance_sum(data[start:stop].sum(axis=0), stop - start)
            np.testing.assert_array_equal(keyed.current_sum(), seeded.current_sum())
            assert keyed.release_noise_variance() == seeded.release_noise_variance()

    def test_chunk_keys_are_fresh(self):
        """Chunk c ≥ 1 derives its key from (key, c): distinct across
        chunks and from the entry key, which chunk 0 uses itself."""
        mech = HybridMechanism((DIM,), 2.0, NORMAL, rng=5)
        keys = [tuple(mech._chunk_key(c)) for c in range(65)]
        assert keys[0] == tuple(noise_key(np.random.default_rng(5)))
        assert len(set(keys)) == 65

    def test_noise_key_passes_keys_and_reads_generators(self):
        key = np.array([1, 2], dtype=np.uint64)
        assert noise_key(key) is key
        expected = np.random.default_rng(4).bit_generator.random_raw(2)
        np.testing.assert_array_equal(noise_key(4), expected)
        for bad in (key.astype(np.int64), np.zeros(3, np.uint64), np.zeros((1, 2), np.uint64)):
            with pytest.raises(ValidationError, match="noise key"):
                noise_key(bad)
        with pytest.raises(ValidationError):
            noise_key("key")


# ---------------------------------------------------------------------------
# Records: what leaves every family for a merge
# ---------------------------------------------------------------------------


def _two_commits(mech, seed=1):
    data = _stream(10, seed=seed)
    mech.advance_batch(data[:4])
    mech.advance_batch(data[4:])
    return mech


class TestRecords:
    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_a_record_is_a_frozen_read_that_later_ingest_leaves_alone(self, name):
        """Every family's record carries its current release, noise
        variance, step count and weight; it is read-only, a later commit
        does not move it, and it crosses the wire codec byte for byte."""
        mech = _two_commits(_family(name, 2))
        record = mech.released_moments()
        assert isinstance(record, ReleasedMoments)
        assert not record.value.flags.writeable
        np.testing.assert_array_equal(record.value, mech.current_sum())
        assert record.noise_variance == mech.release_noise_variance()
        assert record.steps == mech.steps_taken == 10
        assert record.effective_weight == mech.effective_weight
        assert (record.weight is None) == (mech.effective_weight == 10)
        frozen = record.value.copy()

        mech.advance_batch(_stream(5, seed=9))
        later = mech.released_moments()
        assert later.steps == 15
        np.testing.assert_array_equal(record.value, frozen)

        status, (wired,) = wire.decode(wire.encode(("ok", (record,))))
        assert status == "ok"
        assert wired == record
        assert wired.value.tobytes() == frozen.tobytes()

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_records_merge_to_a_fresh_sum_of_their_values(self, name):
        """Two shards' records merge to the sum of their values and noise
        variances; the merged value is the caller's own array, never a
        view of a record (which shares a mechanism's release)."""
        a = _two_commits(_family(name, 3), seed=4)
        b = _two_commits(_family(name, 5), seed=6)
        ra, rb = a.released_moments(), b.released_moments()
        merged = merge_released([ra, rb])
        np.testing.assert_array_equal(merged.value, ra.value + rb.value)
        assert merged.noise_variance == ra.noise_variance + rb.noise_variance
        assert merged.coverage == (10, 10)
        assert merged.covered_weight == ra.effective_weight + rb.effective_weight

        alone = merge_released([ra])
        assert alone.value.flags.writeable
        assert not np.shares_memory(alone.value, ra.value)
        alone.value[...] = 0.0
        np.testing.assert_array_equal(ra.value, a.current_sum())
