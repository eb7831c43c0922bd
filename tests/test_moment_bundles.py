"""Moment-bundle refactor regression suite.

The refactor's core claim: the shard classes are now thin *bundle
declarations* over :class:`repro.core.moments.MomentBundle`, and the
default two-entry (cross, gram) bundle is **bit-identical** to the
pre-refactor inline pair — same factory arguments, same rng children,
same float expressions, same budget split.  This suite pins that claim
directly (shard vs. hand-built mechanism pair under one seed, exact and
fast tiers, decayed and windowed), plus the bundle-generic pieces the
refactor introduced:

* :meth:`~repro.core.moments.MomentBundle.observe_batch` — the path the
  standalone estimators ingest through — releases each entry's per-step
  sums exactly as the entry's own mechanism would;
* :func:`~repro.privacy.parameters.bundle_budgets` reproduces the
  historical ``halve()`` split bit for bit at equal two-way weights;
* the per-bundle fault rule — a statistic failing *after* an earlier
  entry committed tears the bundle
  (:class:`~repro.exceptions.BundlePartialCommitError`), kills the owning
  shard, and loss accounting counts only fully committed blocks, with
  the torn block refunded.
"""

import numpy as np
import pytest

from repro import GaussianProjection, L2Ball, PrivacyParams, ShardedStream, merge_released
from repro.data import make_dense_stream
from repro.exceptions import (
    BundlePartialCommitError,
    ShardUnavailableError,
    ValidationError,
)
from repro.privacy import bundle_budgets, make_release_mechanism
from repro.privacy.tree import noise_key
from repro.streaming import MomentBundle, MomentShard
from repro.streaming.backends import BACKENDS
from repro.streaming.serving import BundleLayout
from repro.core.moments import (
    cross_statistic,
    gram_statistic,
    iv_statistics,
)

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 3
T = 24
BLOCKS = [(0, 5), (5, 6), (6, 13), (13, 20), (20, 24)]


@pytest.fixture(scope="module")
def stream():
    return make_dense_stream(T, DIM, noise_std=0.05, rng=321)


def _legacy_pair(seed, mechanism="tree", horizon=T, decay=None, window=None):
    """The pre-refactor inline construction: halve() + two spawned children."""
    front = np.random.default_rng(seed)
    cross_rng, gram_rng = front.spawn(2)
    half = PARAMS.halve()
    kwargs = dict(
        l2_sensitivity=2.0, params=half, mechanism=mechanism,
        horizon=horizon, decay=decay, window=window,
    )
    cross = make_release_mechanism(shape=(DIM,), rng=cross_rng, **kwargs)
    gram = make_release_mechanism(shape=(DIM, DIM), rng=gram_rng, **kwargs)
    return cross, gram


def _shard(seed, **kwargs):
    front = np.random.default_rng(seed)
    kwargs.setdefault("shard_horizon", T)
    return MomentShard(0, DIM, PARAMS, np.array([noise_key(r) for r in front.spawn(2)]), **kwargs)


def _feed(shard, xs, ys, path):
    """One block through the shard's serving tiers or the bundle's
    per-step path (``observe_batch`` returns the per-entry releases)."""
    if path == "observe_batch":
        return shard.bundle.observe_batch(xs, ys)
    shard.ingest(xs, ys, path == "fast")


class TestDefaultBundleBitIdentity:
    """The acceptance gate: bundle shards replay the pre-refactor pair."""

    @pytest.mark.parametrize("path", ["exact", "fast", "observe_batch"])
    def test_every_path_replays_inline_pair(self, stream, path):
        shard = _shard(11)
        cross_ref, gram_ref = _legacy_pair(11)
        for s, e in BLOCKS:
            xs, ys = stream.xs[s:e], stream.ys[s:e]
            releases = _feed(shard, xs, ys, path)
            if path == "fast":
                cross_ref.advance_sum(ys @ xs, e - s)
                gram_ref.advance_sum(xs.T @ xs, e - s)
            elif path == "exact":
                cross_ref.advance_batch(xs * ys[:, None])
                gram_ref.advance_batch(xs[:, :, None] * xs[:, None, :])
            else:
                cross_all, gram_all = releases
                np.testing.assert_array_equal(
                    cross_all, cross_ref.observe_batch(xs * ys[:, None])
                )
                np.testing.assert_array_equal(
                    gram_all, gram_ref.observe_batch(xs[:, :, None] * xs[:, None, :])
                )
        cross, gram = shard.released()  # bundle order
        np.testing.assert_array_equal(cross.value, cross_ref.current_sum())
        np.testing.assert_array_equal(gram.value, gram_ref.current_sum())

    def test_decayed_fast_tier_replays_inline_weights(self, stream):
        shard = _shard(12, decay=0.9)
        cross_ref, gram_ref = _legacy_pair(12, decay=0.9)
        for s, e in BLOCKS:
            xs, ys = stream.xs[s:e], stream.ys[s:e]
            k = e - s
            shard.ingest(xs, ys, fast=True)
            weights = 0.9 ** np.arange(k - 1, -1, -1, dtype=float)
            cross_ref.advance_sum((weights * ys) @ xs, k)
            gram_ref.advance_sum((weights[:, None] * xs).T @ xs, k)
        cross, gram = shard.released()  # bundle order
        np.testing.assert_array_equal(cross.value, cross_ref.current_sum())
        np.testing.assert_array_equal(gram.value, gram_ref.current_sum())

    def test_windowed_shard_replays_inline_pair(self, stream):
        shard = _shard(14, window=8)
        cross_ref, _ = _legacy_pair(14, window=8)
        for s, e in BLOCKS:
            shard.ingest(stream.xs[s:e], stream.ys[s:e], False)
            cross_ref.advance_batch(stream.xs[s:e] * stream.ys[s:e][:, None])
        np.testing.assert_array_equal(
            merge_released(shard.released()[:1]).value,
            merge_released([cross_ref.released_moments()]).value,
        )

    def test_released_order_is_declaration_order(self, stream):
        shard = _shard(15)
        shard.ingest(stream.xs[:4], stream.ys[:4], False)
        released = shard.released()
        assert released == tuple(
            shard.bundle.get(name).released_moments() for name in ("cross", "gram")
        )
        assert shard.bundle.names == ("cross", "gram")


class TestBundleBudgets:
    def test_equal_two_way_split_is_halve_bit_exact(self):
        for params in (PARAMS, PrivacyParams(1.0, 1e-7), PrivacyParams(0.3, 1e-9)):
            half = params.halve()
            for piece in bundle_budgets(params, (1.0, 1.0)):
                assert piece.epsilon == half.epsilon
                assert piece.delta == half.delta

    def test_three_way_split_is_exact_thirds(self):
        thirds = bundle_budgets(PARAMS, (1.0, 1.0, 1.0))
        assert len(thirds) == 3
        for piece in thirds:
            assert piece.epsilon == PARAMS.epsilon / 3.0
            assert piece.delta == PARAMS.delta / 3.0

    def test_weighted_split_conserves_budget(self):
        pieces = bundle_budgets(PARAMS, (2.0, 1.0, 1.0))
        assert sum(p.epsilon for p in pieces) == pytest.approx(PARAMS.epsilon)
        assert pieces[0].epsilon == pytest.approx(2 * pieces[1].epsilon)


class TestBundleApi:
    def test_bundle_names_mapping(self):
        config = {"phi": GaussianProjection(DIM, 2, rng=0).matrix, "instruments": 3}
        def names(backend):
            return BundleLayout(BACKENDS[backend], DIM, config, PARAMS, {}).names

        assert names("moment") == ("cross", "gram")
        assert names("projected") == ("cross", "gram")
        assert names("sketch") == ("cross", "gram")
        assert names("iv") == ("zz", "zx", "zy")

    def test_iv_statistic_shapes_and_rules(self):
        zz, zx, zy = iv_statistics(3, 2)
        assert (zz.name, zx.name, zy.name) == ("zz", "zx", "zy")
        assert zz.shape == (3, 3) and zx.shape == (3, 2) and zy.shape == (3,)
        rows = np.arange(10.0).reshape(2, 5)  # [z | x] with p=3, d=2
        ys = np.array([0.5, -0.5])
        z, x = rows[:, :3], rows[:, 3:]
        np.testing.assert_allclose(zz.total(rows, ys, None), z.T @ z)
        np.testing.assert_allclose(zx.total(rows, ys, None), z.T @ x)
        np.testing.assert_allclose(zy.total(rows, ys, None), ys @ z)
        np.testing.assert_allclose(zx.values(rows, ys).sum(axis=0), z.T @ x)

    def test_duplicate_names_rejected(self):
        stats = (cross_statistic(DIM), cross_statistic(DIM))
        rngs = np.random.default_rng(0).spawn(2)
        with pytest.raises(ValidationError, match="unique"):
            MomentBundle(stats, bundle_budgets(PARAMS, (1.0, 1.0)), rngs, horizon=T)

    def test_arity_mismatch_rejected(self):
        stats = (cross_statistic(DIM), gram_statistic(DIM))
        rngs = np.random.default_rng(0).spawn(1)
        with pytest.raises(ValidationError, match="one budget and one rng"):
            MomentBundle(stats, bundle_budgets(PARAMS, (1.0, 1.0)), rngs, horizon=T)

    def test_killed_bundle_releases_nones_and_frees_memory(self, stream):
        shard = _shard(16)
        shard.ingest(stream.xs[:4], stream.ys[:4], False)
        assert shard.memory_floats() > 0
        shard.kill()
        assert shard.released() == (None, None)
        assert shard.memory_floats() == 0
        with pytest.raises(ValidationError, match="killed"):
            shard.bundle.ingest(stream.xs[:4], stream.ys[:4], False)


class TestPartialCommitFaults:
    def _poison(self, bundle, name):
        """Make one entry's mechanism fail on its next advance."""

        class Poisoned:
            def observe_batch(self, values):
                raise RuntimeError("poisoned mechanism")

            def advance_batch(self, values):
                raise RuntimeError("poisoned mechanism")

            def advance_sum(self, total, k):
                raise RuntimeError("poisoned mechanism")

        bundle._mechanisms[name] = Poisoned()

    @pytest.mark.parametrize("path", ["exact", "observe_batch"])
    def test_first_entry_failure_is_block_atomic(self, stream, path):
        """Guard-entry failure consumes nothing: shard alive, retry safe."""
        shard = _shard(17)
        self._poison(shard.bundle, "cross")
        with pytest.raises(RuntimeError, match="poisoned"):
            _feed(shard, stream.xs[:4], stream.ys[:4], path)
        assert shard.alive
        assert shard.steps == 0
        assert shard.bundle.get("gram").steps_taken == 0  # not torn, not advanced

    @pytest.mark.parametrize("path", ["exact", "observe_batch"])
    def test_later_entry_failure_tears_the_bundle(self, stream, path):
        """A bundle failing mid-block is a typed death of the bundle."""
        shard = _shard(18)
        _feed(shard, stream.xs[:4], stream.ys[:4], path)  # one committed block
        self._poison(shard.bundle, "gram")
        with pytest.raises(BundlePartialCommitError) as excinfo:
            _feed(shard, stream.xs[4:8], stream.ys[4:8], path)
        assert isinstance(excinfo.value, ShardUnavailableError)
        assert shard.released() == (None, None)
        assert shard.memory_floats() == 0
        if path == "exact":
            # The owning shard dies with it; only the committed block counts.
            assert not shard.alive
            assert shard.steps == 4

    def test_front_counts_only_committed_blocks(self, stream):
        """Through the serving front: torn block refunded, committed mass lost."""
        server = ShardedStream(
            L2Ball(DIM), PARAMS, shards=2, horizon=T, rng=44, iteration_cap=10
        )
        try:
            for s, e in [(0, 4), (4, 8)]:  # one block per shard
                server.observe_batch(stream.xs[s:e], stream.ys[s:e])
            # Tear shard 0's bundle mid-block: gram fails after cross commits.
            self._poison(server._shards[0].bundle, "gram")
            with pytest.raises(ShardUnavailableError):
                server.observe_batch(stream.xs[8:12], stream.ys[8:12])
            assert server.lost_steps == 4  # the committed block only
            assert server.blocks_refunded == 1  # the torn block
            assert server.steps_ingested == 8
            # The survivor keeps serving with partial coverage.
            server.observe_batch(stream.xs[12:16], stream.ys[12:16])
            served = server.flush()
            assert served.covered_steps == server.steps_ingested - server.lost_steps
        finally:
            server.close()
