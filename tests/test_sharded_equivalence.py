"""Shard-equivalence conformance suite for the serving layer.

Three contracts, locked in over shard counts ``K ∈ {1, 2, 4, 8}``
(overridable via the ``SERVE_SHARDS`` env var — the CI matrix leg pins
2 and 8) and re-proven across the shard transport (``SERVE_TRANSPORT`` ∈
``{thread, process}``; the process axis runs every server in this suite
over pipe-connected worker interpreters) and the shard backend
(``SERVE_BACKEND`` ∈ ``{moment, projected, sketch}``; the replay twins
below draw the shared ``Φ`` and pick tree- or sketch-noise mechanisms to
match — see ``serving_backends.serve_backend_replay``):

(a) **Merge correctness** — merged K-shard released sums are
    distributionally correct (matched mean; per-coordinate variance within
    analytic bounds of the documented accounting over seeds) and
    bit-identical to a replay of the per-shard trees under the fixed rng
    discipline (children ``2i``/``2i+1`` of ``rng.spawn(2K)``); for
    ``K = 1`` the sharded release is bit-identical to a single plain tree.

(b) **Async linearizability** — enqueue order is processing order, so the
    final estimate matches the synchronous path bit for bit for *every*
    interleaving the queue can produce; exercised by enumerating manual
    pump schedules (including reads between pumps) and by a live worker
    thread.

(c) **Cache freshness** — ``current_estimate`` reads are O(1) (they return
    the same frozen buffer between refreshes) and never observe an
    estimate older than the last completed solve; versions are monotone
    under concurrent readers.

Ragged shard loads (uneven block sizes, K not dividing the block count)
are exercised throughout.
"""

import math
import os
import threading

import numpy as np
import pytest

from serving_backends import SERVE_BACKEND, serve_backend_kwargs, serve_backend_replay
from repro import (
    L2Ball,
    PrivacyParams,
    PrivIncReg1,
    PrivIncReg2,
    ServingError,
    ShardedStream,
    UnboundedPrivIncReg,
    merge_released,
    step4_rescale_block,
)
from repro.data import make_dense_stream
from repro.exceptions import StreamExhaustedError, ValidationError

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 3
T = 26

if "SERVE_SHARDS" in os.environ:
    SHARD_COUNTS = [int(os.environ["SERVE_SHARDS"])]
else:
    SHARD_COUNTS = [1, 2, 4, 8]

#: Shard transport every server in this suite runs on (the CI TRANSPORT
#: axis).  The contracts are transport-independent by design, so the same
#: assertions must hold verbatim over process workers.
TRANSPORT = os.environ.get("SERVE_TRANSPORT", "thread")

#: Uneven block cuts of [0, T) — ragged loads by construction.
RAGGED_BLOCKS = [(0, 5), (5, 6), (6, 13), (13, 20), (20, 26)]
EVEN_BLOCKS = [(s, min(s + 4, T)) for s in range(0, T, 4)]


@pytest.fixture(scope="module")
def stream():
    return make_dense_stream(T, DIM, noise_std=0.05, rng=900)


def _make_server(k, seed, **kwargs):
    defaults = dict(horizon=T, iteration_cap=20, transport=TRANSPORT)
    defaults.update(serve_backend_kwargs(DIM))
    defaults.update(kwargs)
    return ShardedStream(L2Ball(DIM), PARAMS, shards=k, rng=seed, **defaults)


def _replay_shard_trees(k, seed, blocks, stream):
    """Per-shard moment mechanisms under the documented rng discipline.

    Backend-aware (the ``SERVE_BACKEND`` axis): the moment rows and the
    mechanism family come from ``serving_backends.serve_backend_replay``, which
    mirrors the front's Φ draw and ``spawn(2K)`` consumption exactly.
    """
    cross, gram, transform = serve_backend_replay(k, seed, DIM, T, PARAMS)
    for block_index, (s, e) in enumerate(blocks):
        shard = block_index % k
        rows = transform(stream.xs[s:e])
        by = stream.ys[s:e]
        cross[shard].advance_batch(rows * by[:, None])
        gram[shard].advance_batch(rows[:, :, None] * rows[:, None, :])
    return cross, gram


#: Release knobs the exact-tier per-point replay runs under.
RELEASE_KNOBS = {
    "tree": {},
    "hybrid": {"mechanism": "hybrid", "horizon": None},
    "window-7": {"window": 7},
    "window-inf": {"window": math.inf},
}


def _solver_twin(server, horizon):
    """A standalone solver that refreshes like the server's default one."""
    if SERVE_BACKEND != "moment":
        return PrivIncReg2(
            horizon=T,
            constraint=L2Ball(DIM),
            x_domain=L2Ball(DIM),
            params=PARAMS,
            iteration_cap=20,
            projection=server.projection,
            rng=0,
        )
    if horizon is None:
        return UnboundedPrivIncReg(L2Ball(DIM), PARAMS, iteration_cap=20, rng=0)
    return PrivIncReg1(
        horizon=T, constraint=L2Ball(DIM), params=PARAMS, iteration_cap=20, rng=0
    )


# ---------------------------------------------------------------------------
# (a) Merge correctness
# ---------------------------------------------------------------------------


class TestMergeCorrectness:
    @pytest.mark.parametrize("k", SHARD_COUNTS)
    @pytest.mark.parametrize("blocks", [EVEN_BLOCKS, RAGGED_BLOCKS])
    def test_merged_release_bit_identical_to_shard_replay(self, stream, k, blocks):
        server = _make_server(k, seed=13)
        for s, e in blocks:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        cross_trees, gram_trees = _replay_shard_trees(k, 13, blocks, stream)
        cross_m, gram_m = server.merged_moments()
        for merged, trees in ((cross_m, cross_trees), (gram_m, gram_trees)):
            np.testing.assert_array_equal(
                merged.value, merge_released([m.released_moments() for m in trees]).value
            )
        assert cross_m.covered_steps == T
        assert cross_m.missing == ()
        assert cross_m.noise_variance == pytest.approx(
            sum(t.release_noise_variance() for t in cross_trees)
        )

    def test_k1_bit_identical_to_single_tree(self, stream):
        """One shard ≡ one plain mechanism pair: same spawn, same releases.

        The tree-based backends are blocking-invariant, so their twin
        ingests element by element; the sketch backend draws one noise
        vector per ingested block, so its twin replays the same block
        cuts through the exact tier.
        """
        server = _make_server(1, seed=21)
        for s, e in RAGGED_BLOCKS:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        cross, gram, transform = serve_backend_replay(1, 21, DIM, T, PARAMS)
        single_cross, single_gram = cross[0], gram[0]
        rows = transform(stream.xs)
        if SERVE_BACKEND == "sketch":
            for s, e in RAGGED_BLOCKS:
                block = rows[s:e]
                single_cross.advance_batch(block * stream.ys[s:e][:, None])
                single_gram.advance_batch(block[:, :, None] * block[:, None, :])
        else:
            for v in rows * stream.ys[:, None]:
                single_cross.observe(v)
            for r in rows:
                single_gram.observe(np.outer(r, r))
        cross_m, gram_m = server.merged_moments()
        np.testing.assert_array_equal(cross_m.value, single_cross.current_sum())
        np.testing.assert_array_equal(gram_m.value, single_gram.current_sum())

    @pytest.mark.skipif(
        SERVE_BACKEND == "sketch",
        reason="sketch noise is one draw per ingested block, so a per-point "
        "replay draws other noise",
    )
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("k", SHARD_COUNTS)
    @pytest.mark.parametrize("knobs", sorted(RELEASE_KNOBS))
    def test_exact_tier_is_byte_identical_to_per_point_replay(
        self, stream, k, knobs, layout
    ):
        """The exact tier's block fold releases the bytes of per-point
        ingestion: merged releases, their variances and weights, and the
        served θ, for plain, hybrid and windowed shards, whether the
        caller's blocks are row-major or column-major."""
        knobs = RELEASE_KNOBS[knobs]
        if SERVE_BACKEND != "moment" and knobs.get("mechanism") == "hybrid":
            pytest.skip("the projected backend needs tree shards")
        horizon = knobs.get("horizon", T)
        server = _make_server(k, seed=41, ingest="exact", refresh_every=T, **knobs)
        try:
            for s, e in RAGGED_BLOCKS:
                server.observe_batch(np.array(stream.xs[s:e], order=layout), stream.ys[s:e])
            served = server.flush()
            live = server.merged_moments()
        finally:
            server.close()
        cross, gram, transform = serve_backend_replay(
            k,
            41,
            DIM,
            horizon,
            PARAMS,
            mechanism=knobs.get("mechanism", "tree"),
            window=knobs.get("window"),
        )
        for index, (s, e) in enumerate(RAGGED_BLOCKS):
            for row, y in zip(transform(stream.xs[s:e]), stream.ys[s:e]):
                cross[index % k].observe(row * y)
                gram[index % k].observe(np.outer(row, row))
        replayed = [
            merge_released([m.released_moments() for m in trees]) for trees in (cross, gram)
        ]
        for served_moment, replay in zip(live, replayed):
            assert served_moment.value.tobytes() == replay.value.tobytes()
            assert served_moment.noise_variance == replay.noise_variance
            assert served_moment.covered_weight == replay.covered_weight
        cross_m, gram_m = replayed
        t = cross_m.covered_weight
        if t == cross_m.covered_steps:
            t = cross_m.covered_steps
        theta = _solver_twin(server, horizon).refresh_from_released(
            t, gram_m.value, cross_m.value
        )
        assert served.theta.tobytes() == theta.tobytes()

    @pytest.mark.skipif(
        SERVE_BACKEND != "moment",
        reason="MultiTenantStream has no projected/sketch backend",
    )
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_one_tenant_stream_bit_identical_to_sharded_stream(
        self, stream, shards
    ):
        """K=1-tenant exactness: a one-tenant MultiTenantStream is the same
        server as ShardedStream — same rng children, same budget split
        (both halves equal ``params.halve()`` bit-exactly at capacity 1),
        same solver spawn — so merged moments AND served estimates match
        bit for bit on the suite's transport."""
        from repro import MultiTenantStream

        single = _make_server(shards, seed=33)
        multi = MultiTenantStream(
            L2Ball(DIM),
            PARAMS,
            tenants=["only"],
            shards=shards,
            horizon=T,
            iteration_cap=20,
            transport=TRANSPORT,
            rng=33,
        )
        try:
            for s, e in RAGGED_BLOCKS:
                single.observe_batch(stream.xs[s:e], stream.ys[s:e])
                multi.observe_batch(stream.xs[s:e], stream.ys[s:e])
            cross_s, gram_s = single.merged_moments()
            cross_m, gram_m = multi.merged_moments("only")
            np.testing.assert_array_equal(cross_s.value, cross_m.value)
            np.testing.assert_array_equal(gram_s.value, gram_m.value)
            assert cross_s.noise_variance == cross_m.noise_variance
            assert gram_s.noise_variance == gram_m.noise_variance
            np.testing.assert_array_equal(
                single.flush().theta, multi.flush()["only"].theta
            )
        finally:
            single.close()
            multi.close()

    @pytest.mark.parametrize("k", SHARD_COUNTS)
    def test_served_estimate_matches_solver_replay(self, stream, k):
        """The served parameter is exactly the hook applied to the merge."""
        server = _make_server(k, seed=33, refresh_every=T)  # solve only at T
        for s, e in RAGGED_BLOCKS:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        served = server.flush()
        cross_trees, gram_trees = _replay_shard_trees(k, 33, RAGGED_BLOCKS, stream)
        if SERVE_BACKEND == "moment":
            twin = PrivIncReg1(
                horizon=T,
                constraint=L2Ball(DIM),
                params=PARAMS,
                iteration_cap=20,
                rng=0,
            )
        else:
            twin = PrivIncReg2(
                horizon=T,
                constraint=L2Ball(DIM),
                x_domain=L2Ball(DIM),
                params=PARAMS,
                iteration_cap=20,
                projection=server.projection,
                rng=0,
            )
        theta = twin.refresh_from_released(
            T,
            merge_released([m.released_moments() for m in gram_trees]).value,
            merge_released([m.released_moments() for m in cross_trees]).value,
        )
        np.testing.assert_array_equal(served.theta, theta)
        assert served.covered_steps == T

    @pytest.mark.parametrize("ingest", ["exact", "fast"])
    @pytest.mark.parametrize("k", [k for k in SHARD_COUNTS if k <= 4] or SHARD_COUNTS[:1])
    def test_merged_noise_distribution(self, ingest, k):
        """Matched mean; empirical variance within analytic bounds.

        The merged release is (exact logical sum) + (Gaussian noise of
        per-coordinate variance ``MergedRelease.noise_variance``); both
        ``ingest`` summation orders must match it.
        """
        trials = 300
        length, dim = 12, 2
        base = np.random.default_rng(7)
        xs = base.normal(size=(length, dim)) * 0.3
        xs /= np.maximum(np.linalg.norm(xs, axis=1, keepdims=True), 1.0)
        ys = np.clip(base.normal(size=length) * 0.3, -1.0, 1.0)
        blocks = [(0, 3), (3, 4), (4, 9), (9, 12)]

        errors = []
        variance = None
        for seed in range(trials):
            server = ShardedStream(
                L2Ball(dim),
                PARAMS,
                shards=k,
                horizon=length,
                ingest=ingest,
                iteration_cap=1,
                refresh_every=length,
                rng=10_000 + seed,
                **serve_backend_kwargs(dim),
            )
            for s, e in blocks:
                server.observe_batch(xs[s:e], ys[s:e])
            # The exact logical sum is backend-dependent (Step-4 rescaled
            # rows through this trial's Φ for projected/sketch).
            if server.projection is None:
                rows = xs
            else:
                rows = step4_rescale_block(server.projection.matrix, xs)
            exact_cross = (rows * ys[:, None]).sum(axis=0)
            cross_m, _ = server.merged_moments()
            variance = cross_m.noise_variance
            errors.append(cross_m.value - exact_cross)
        errors = np.stack(errors)
        sigma = np.sqrt(variance)
        # Mean within 4 standard errors per coordinate.
        assert np.all(np.abs(errors.mean(axis=0)) < 4.0 * sigma / np.sqrt(trials))
        # Sample variance within chi-square-ish bounds (sd of the variance
        # ratio is sqrt(2/n) ≈ 0.08 at n=300; allow ±5 sd).
        ratio = errors.var(axis=0, ddof=1) / variance
        assert np.all(ratio > 0.6) and np.all(ratio < 1.5), ratio

    def test_fast_and_exact_share_variance_accounting(self, stream):
        """Same active-node count ⇒ identical reported noise variance."""
        exact = _make_server(2, seed=3, ingest="exact")
        fast = _make_server(2, seed=3, ingest="fast")
        for s, e in RAGGED_BLOCKS:
            exact.observe_batch(stream.xs[s:e], stream.ys[s:e])
            fast.observe_batch(stream.xs[s:e], stream.ys[s:e])
        ce, ge = exact.merged_moments()
        cf, gf = fast.merged_moments()
        assert ce.noise_variance == pytest.approx(cf.noise_variance)
        assert ge.noise_variance == pytest.approx(gf.noise_variance)
        assert ce.coverage == cf.coverage

    @pytest.mark.skipif(
        SERVE_BACKEND == "sketch",
        reason="sketch shards draw per-block noise, not per-tree-node noise",
    )
    @pytest.mark.parametrize("k", SHARD_COUNTS)
    def test_exact_and_fast_release_the_same_noise(self, stream, k):
        """Node-addressed noise: the two ``ingest`` settings differ only in
        the float summation order of the clean block sums."""
        exact = _make_server(k, seed=21, ingest="exact")
        fast = _make_server(k, seed=21, ingest="fast")
        try:
            for s, e in RAGGED_BLOCKS:
                exact.observe_batch(stream.xs[s:e], stream.ys[s:e])
                fast.observe_batch(stream.xs[s:e], stream.ys[s:e])
            for m_exact, m_fast in zip(exact.merged_moments(), fast.merged_moments()):
                np.testing.assert_allclose(m_fast.value, m_exact.value, rtol=1e-12, atol=1e-12)
                assert m_fast.noise_variance == m_exact.noise_variance
                assert m_fast.coverage == m_exact.coverage
        finally:
            exact.close()
            fast.close()


# ---------------------------------------------------------------------------
# (b) Async ingestion is linearizable
# ---------------------------------------------------------------------------


class TestAsyncLinearizability:
    @pytest.mark.parametrize("k", SHARD_COUNTS)
    def test_async_final_state_matches_sync(self, stream, k):
        sync = _make_server(k, seed=5)
        for s, e in RAGGED_BLOCKS:
            sync.observe_batch(stream.xs[s:e], stream.ys[s:e])
        expected = sync.flush()

        with _make_server(k, seed=5, mode="async") as asynchronous:
            for s, e in RAGGED_BLOCKS:
                asynchronous.observe_batch(stream.xs[s:e], stream.ys[s:e])
            got = asynchronous.flush()
        np.testing.assert_array_equal(expected.theta, got.theta)
        assert expected.version == got.version
        assert expected.covered_steps == got.covered_steps

    @pytest.mark.parametrize("schedule_seed", range(6))
    def test_every_queue_interleaving_converges(self, stream, schedule_seed):
        """Manual pump schedules enumerate the queue's interleavings.

        Whatever the drain pattern — one block at a time, bursts, reads
        between pumps, everything-at-the-end — the drained state is the
        synchronous one, bit for bit.
        """
        k = SHARD_COUNTS[min(1, len(SHARD_COUNTS) - 1)]
        sync = _make_server(k, seed=17)
        for s, e in RAGGED_BLOCKS:
            sync.observe_batch(stream.xs[s:e], stream.ys[s:e])
        expected = sync.flush()

        rng = np.random.default_rng(schedule_seed)
        server = _make_server(k, seed=17, mode="manual")
        versions = []
        for s, e in RAGGED_BLOCKS:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
            if rng.random() < 0.5:
                server.pump(max_blocks=int(rng.integers(0, 3)))
            versions.append(server.current_served().version)
        got = server.flush()
        np.testing.assert_array_equal(expected.theta, got.theta)
        assert got.version == expected.version
        # Interleaved reads saw a monotone version sequence.
        assert versions == sorted(versions)

    def test_enqueued_blocks_are_snapshots_of_the_caller_buffer(self, stream):
        """Mutating the caller's buffer after enqueue-and-return must not
        change what the worker ingests — validated data only."""
        k = SHARD_COUNTS[0]
        sync = _make_server(k, seed=23)
        for s, e in RAGGED_BLOCKS:
            sync.observe_batch(stream.xs[s:e], stream.ys[s:e])
        expected = sync.flush()

        server = _make_server(k, seed=23, mode="manual")
        for s, e in RAGGED_BLOCKS:
            buffer_x = stream.xs[s:e].copy()
            buffer_y = stream.ys[s:e].copy()
            server.observe_batch(buffer_x, buffer_y)
            buffer_x[:] = 5.0  # would violate ‖x‖ ≤ 1 if it were ingested
            buffer_y[:] = 5.0
        got = server.flush()
        np.testing.assert_array_equal(expected.theta, got.theta)

    def test_observe_returns_without_processing_in_async_mode(self, stream):
        with _make_server(2, seed=9, mode="async") as server:
            # Saturate nothing: just check the enqueue-and-return contract —
            # the estimate returned is the *cached* one (possibly stale).
            theta = server.observe(stream.xs[0], float(stream.ys[0]))
            assert theta.shape == (DIM,)
            assert server.steps_enqueued == 1
            served = server.flush()
            assert served.timestep == 1

    def test_async_worker_error_surfaces_on_later_call(self, stream):
        server = _make_server(2, seed=9, mode="manual")
        for s, e in RAGGED_BLOCKS:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        # Kill every shard so the queued blocks cannot be ingested.
        server.kill_shard(0)
        server.kill_shard(1)
        with pytest.raises(Exception):
            server.pump()

    def test_horizon_enforced_at_the_api_boundary(self, stream):
        server = _make_server(2, seed=9, mode="manual")
        for s, e in RAGGED_BLOCKS:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        with pytest.raises(StreamExhaustedError):
            server.observe(stream.xs[0], float(stream.ys[0]))
        # Nothing was processed yet; the rejection happened pre-queue.
        assert server.steps_ingested == 0

    def test_closed_server_refuses_ingestion(self, stream):
        server = _make_server(1, seed=9)
        server.observe_batch(stream.xs[:4], stream.ys[:4])
        server.close()
        with pytest.raises(ServingError):
            server.observe(stream.xs[4], float(stream.ys[4]))


# ---------------------------------------------------------------------------
# (c) Cache freshness
# ---------------------------------------------------------------------------


class TestCacheFreshness:
    def test_reads_never_older_than_last_completed_solve(self, stream):
        server = _make_server(2, seed=41)
        for s, e in RAGGED_BLOCKS:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
            # Sync mode refreshes after every block: the read must already
            # reflect the solve that just completed.
            assert server.current_served().version == server.solver.estimate_version
            assert server.current_served().timestep == server.steps_ingested

    def test_reads_are_o1_between_refreshes(self, stream):
        server = _make_server(2, seed=41, refresh_every=T)
        server.observe_batch(stream.xs[:4], stream.ys[:4])
        first = server.current_estimate()
        second = server.current_estimate()
        assert first is second  # same frozen buffer — a pointer read
        assert not first.flags.writeable
        # Read stats live on per-reader handles (aggregated on demand),
        # never on the lock-free anonymous read path.
        before = server.read_stats().reads
        with server.reader() as handle:
            for _ in range(100):
                assert handle.theta() is first
            stats = server.read_stats()
            assert stats.reads == before + 100
            # Between refreshes every read after the first hits the
            # per-reader snapshot fast path.
            assert handle.snapshot_hits == 99
        # Closing the handle folds its counts into the retired totals.
        assert server.read_stats().reads == before + 100

    def test_cache_invalidates_on_solve(self, stream):
        server = _make_server(2, seed=41)
        server.observe_batch(stream.xs[:4], stream.ys[:4])
        v1 = server.current_served()
        server.observe_batch(stream.xs[4:8], stream.ys[4:8])
        v2 = server.current_served()
        assert v2.version == v1.version + 1
        assert v2.theta is not v1.theta

    def test_version_monotone_under_concurrent_readers(self, stream):
        server = _make_server(2, seed=43, mode="async")
        seen: list[int] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                seen.append(server.current_served().version)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for s, e in RAGGED_BLOCKS:
                server.observe_batch(stream.xs[s:e], stream.ys[s:e])
            server.flush()
        finally:
            stop.set()
            thread.join()
            server.close()
        assert seen == sorted(seen)
        assert server.estimate_version == server.solver.estimate_version


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------


class TestServingValidation:
    def test_tree_mechanism_requires_horizon(self):
        with pytest.raises(ValidationError):
            ShardedStream(L2Ball(DIM), PARAMS, shards=2)

    def test_fast_ingest_requires_tree_shards(self):
        with pytest.raises(ValidationError):
            ShardedStream(
                L2Ball(DIM), PARAMS, shards=2, mechanism="hybrid", ingest="fast"
            )

    def test_hybrid_shards_run_without_horizon(self, stream):
        server = ShardedStream(
            L2Ball(DIM),
            PARAMS,
            shards=2,
            mechanism="hybrid",
            iteration_cap=10,
            rng=3,
        )
        for s, e in RAGGED_BLOCKS:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        served = server.flush()
        assert served.covered_steps == T

    def test_rejects_bad_blocks_atomically(self, stream):
        server = _make_server(2, seed=3)
        with pytest.raises(ValidationError):
            server.observe_batch(np.zeros((0, DIM)), np.zeros(0))
        with pytest.raises(ValidationError):
            server.observe_batch(np.zeros((3, DIM + 1)), np.zeros(3))
        bad = np.zeros((2, DIM))
        bad[1, 0] = 1.5
        from repro.exceptions import DomainViolationError

        with pytest.raises(DomainViolationError):
            server.observe_batch(bad, np.zeros(2))
        assert server.steps_ingested == 0 and server.steps_enqueued == 0

    def test_key_router_routes_by_block(self, stream):
        routed = []

        def router(block_index, xs, ys):
            routed.append(block_index)
            return 1  # everything to shard 1

        # Custom routing cannot be certified disjoint, so it must be paired
        # with the conservative per-shard (ε/K, δ/K) budgets.
        server = _make_server(2, seed=3, router=router, composition="basic")
        for s, e in RAGGED_BLOCKS:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        states = server.shard_states()
        assert states[0]["steps"] == 0
        assert states[1]["steps"] == T
        assert routed == list(range(len(RAGGED_BLOCKS)))

    def test_callable_router_with_parallel_composition_rejected(self):
        """The full-budget parallel mode needs certifiably disjoint routing;
        a data-dependent callable could re-route a block between neighboring
        streams, so the unsound combination is refused up front."""
        with pytest.raises(ValidationError):
            _make_server(2, seed=3, router=lambda i, xs, ys: 0)

    def test_shard_horizon_rejected_for_hybrid_shards(self):
        with pytest.raises(ValidationError):
            ShardedStream(
                L2Ball(DIM),
                PARAMS,
                shards=2,
                mechanism="hybrid",
                shard_horizon=16,
            )

    def test_failed_block_releases_horizon_capacity(self, stream):
        """A block rejected after acceptance must not consume capacity:
        the documented kill → restart → retry recovery path depends on it."""
        server = _make_server(2, seed=3)
        server.observe_batch(stream.xs[:4], stream.ys[:4])
        server.kill_shard(0)
        server.kill_shard(1)
        from repro import ShardUnavailableError

        with pytest.raises(ShardUnavailableError):
            server.observe_batch(stream.xs[4:8], stream.ys[4:8])
        assert server.steps_enqueued == 4  # the failed block rolled back
        server.restart_shard(0)
        # The retry (and the rest of the stream) still fits the horizon.
        for s, e in [(4, 8), (8, 16), (16, T)]:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        assert server.flush().covered_steps == T - server.lost_steps

    def test_concurrent_producers_cannot_overshoot_horizon(self, stream):
        """The capacity check-and-reserve is atomic across threads."""
        server = ShardedStream(
            L2Ball(DIM), PARAMS, shards=2, horizon=40, iteration_cap=5, rng=3
        )
        xs = np.tile(stream.xs[:10], (3, 1))
        ys = np.tile(stream.ys[:10], 3)
        outcomes = []

        def ingest():
            try:
                server.observe_batch(xs, ys)  # 30 points each
                outcomes.append("ok")
            except StreamExhaustedError:
                outcomes.append("exhausted")

        threads = [threading.Thread(target=ingest) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(outcomes) == ["exhausted", "ok"]
        assert server.steps_ingested == 30  # never 60 > horizon

    def test_failed_solve_keeps_capacity_and_flush_retries(self, stream):
        """A refresh failure happens after the block is in the trees: its
        capacity stays consumed (re-ingesting would break the noise
        calibration) and the stream stays marked stale, so flush() re-runs
        the solve instead of silently serving the outdated estimate."""

        class FlakySolver:
            def __init__(self, inner, failures=1):
                self.inner = inner
                self.failures = failures

            @property
            def estimate_version(self):
                return self.inner.estimate_version

            def current_estimate(self):
                return self.inner.current_estimate()

            def refresh_from_released(self, t, gram, cross):
                if self.failures:
                    self.failures -= 1
                    raise RuntimeError("transient solver outage")
                return self.inner.refresh_from_released(t, gram, cross)

        inner = PrivIncReg1(
            horizon=T, constraint=L2Ball(DIM), params=PARAMS, iteration_cap=20, rng=0
        )
        server = _make_server(2, seed=3, solver=FlakySolver(inner))
        with pytest.raises(RuntimeError):
            server.observe_batch(stream.xs[:8], stream.ys[:8])
        # The block is committed: capacity consumed, trees advanced.
        assert server.steps_enqueued == 8
        assert server.steps_ingested == 8
        served = server.flush()  # retries the solve over the ingested mass
        assert served.covered_steps == 8
        assert served.version == 1

    def test_close_reclaims_worker_even_when_poisoned(self, stream):
        server = _make_server(2, seed=3, mode="async")
        server.observe_batch(stream.xs[:4], stream.ys[:4])
        server.flush()
        server.kill_shard(0)
        server.kill_shard(1)
        server.observe_batch(stream.xs[4:8], stream.ys[4:8])  # worker will fail
        worker = server._worker
        try:
            # Must not hang or leak despite the poisoned state; it may
            # re-raise the worker's failure if the poisoning races the
            # final flush.
            server.close()
        except ServingError:
            pass
        assert server._worker is None
        assert not worker.is_alive()
        with pytest.raises(ServingError):
            server.observe(stream.xs[0], float(stream.ys[0]))
