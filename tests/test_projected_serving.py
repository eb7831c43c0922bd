"""Projected-serving conformance suite: Algorithm 3 behind ``ShardedStream``.

The counterpart of ``tests/test_sharded_equivalence.py`` for
``backend="projected"``, over shard counts ``K ∈ {1, 2, 4, 8}``
(overridable via ``SERVE_SHARDS`` — the CI matrix leg pins 2 and 8):

(a) **Shared-Φ contract** — one projection is drawn by the front and used
    by every shard *and* the solver; merged K-shard released projected
    moments are bit-identical to a replay of per-shard trees fed the same
    Step-4-rescaled rows under the fixed rng discipline (Φ from the main
    generator first, then children ``2i``/``2i+1`` of ``rng.spawn(2K)``).

(b) **K=1 ≡ plain Algorithm 3** — a single-shard projected server draws
    the same Φ and the same tree noise as a plain ``PrivIncReg2`` under
    one seed: tree releases are bit-identical and the served parameters
    match the plain ``observe_batch`` path to floating-point accuracy.

(c) **Noise accounting** — merged projected-moment noise matches the
    analytic per-coordinate variance (``Σ_k popcount(t_k)·σ²_node,k``)
    over seeds, for both ingest tiers.

(d) **Group ingestion** — ``observe_group`` (thread-parallel across
    shards) produces bit-identical shard trees to the sequential
    ``observe_batch`` route, for any worker count.  The remote
    transports' split-phase drain is pinned in
    ``tests/test_remote_group_ingest.py``.

Ragged shard loads are exercised throughout.
"""

import os

import numpy as np
import pytest

from repro import (
    L2Ball,
    PrivacyParams,
    PrivIncReg2,
    ServingError,
    ShardedStream,
    SparseProjection,
    TreeMechanism,
    merge_released,
    step4_rescale_block,
)
from repro.data import make_dense_stream
from repro.exceptions import (
    DomainViolationError,
    StreamExhaustedError,
    ValidationError,
)
from repro.sketching import GaussianProjection
from repro.streaming.backends import BACKENDS

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 8
M = 4
T = 26

if "SERVE_SHARDS" in os.environ:
    SHARD_COUNTS = [int(os.environ["SERVE_SHARDS"])]
else:
    SHARD_COUNTS = [1, 2, 4, 8]

#: Uneven block cuts of [0, T) — ragged loads by construction.
RAGGED_BLOCKS = [(0, 5), (5, 6), (6, 13), (13, 20), (20, 26)]
EVEN_BLOCKS = [(s, min(s + 4, T)) for s in range(0, T, 4)]


@pytest.fixture(scope="module")
def stream():
    return make_dense_stream(T, DIM, noise_std=0.05, rng=901)


def _make_server(k, seed, **kwargs):
    defaults = dict(
        horizon=T,
        backend="projected",
        x_domain=L2Ball(DIM),
        projected_dim=M,
        iteration_cap=10,
    )
    defaults.update(kwargs)
    return ShardedStream(L2Ball(DIM), PARAMS, shards=k, rng=seed, **defaults)


def _replay_shard_trees(k, seed, blocks, stream):
    """Per-shard projected trees under the documented fixed rng discipline."""
    rng = np.random.default_rng(seed)
    projection = GaussianProjection(DIM, M, rng=rng)  # Φ drawn first
    children = rng.spawn(2 * k)
    half = PARAMS.halve()
    cross = [TreeMechanism(T, (M,), 2.0, half, rng=children[2 * i]) for i in range(k)]
    gram = [
        TreeMechanism(T, (M, M), 2.0, half, rng=children[2 * i + 1])
        for i in range(k)
    ]
    for block_index, (s, e) in enumerate(blocks):
        shard = block_index % k
        rows = step4_rescale_block(projection.matrix, stream.xs[s:e])
        ys = stream.ys[s:e]
        cross[shard].advance_batch(rows * ys[:, None])
        gram[shard].advance_batch(rows[:, :, None] * rows[:, None, :])
    return projection, cross, gram


# ---------------------------------------------------------------------------
# (a) Shared-Φ merge correctness
# ---------------------------------------------------------------------------


class TestSharedPhiMerge:
    @pytest.mark.parametrize("k", SHARD_COUNTS)
    @pytest.mark.parametrize("blocks", [EVEN_BLOCKS, RAGGED_BLOCKS])
    def test_merged_release_bit_identical_to_shard_replay(self, stream, k, blocks):
        server = _make_server(k, seed=13)
        for s, e in blocks:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        projection, cross_trees, gram_trees = _replay_shard_trees(
            k, 13, blocks, stream
        )
        np.testing.assert_array_equal(
            server.projection.matrix, projection.matrix
        )
        cross_m, gram_m = server.merged_moments()
        np.testing.assert_array_equal(
            cross_m.value, merge_released([m.released_moments() for m in cross_trees]).value
        )
        np.testing.assert_array_equal(
            gram_m.value, merge_released([m.released_moments() for m in gram_trees]).value
        )
        assert cross_m.value.shape == (M,)
        assert gram_m.value.shape == (M, M)
        assert cross_m.covered_steps == T
        assert cross_m.noise_variance == pytest.approx(
            sum(t.release_noise_variance() for t in cross_trees)
        )

    @pytest.mark.parametrize("k", SHARD_COUNTS)
    def test_every_shard_and_the_solver_share_one_phi(self, k):
        server = _make_server(k, seed=5)
        for shard in server._shards:
            assert shard.backend == "projected"
            assert BACKENDS[shard.backend].release_family is None
            # Shards receive Φ as its matrix: the very array the front holds.
            assert shard.config["phi"] is server.projection.matrix
            assert [h.shape for h in shard.released()] == [(M,), (M, M)]
        assert server.solver.projection is server.projection

    def test_restarted_shard_shares_the_same_phi(self, stream):
        server = _make_server(2, seed=5)
        server.observe_batch(stream.xs[:4], stream.ys[:4])
        server.kill_shard(0)
        server.restart_shard(0)
        assert server._shards[0].config["phi"] is server.projection.matrix
        for s, e in [(4, 13), (13, T)]:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        cross_m, gram_m = server.merged_moments()
        assert cross_m.value.shape == (M,)
        assert gram_m.value.shape == (M, M)
        assert cross_m.covered_steps == T - server.lost_steps

    def test_prebuilt_sparse_projection_is_accepted(self, stream):
        """Footnote 16: any fixed Φ works — sensitivity is pinned by Step 4."""
        projection = SparseProjection(DIM, M, rng=11)
        server = _make_server(2, seed=5, projected_dim=None, projection=projection)
        assert server.projection is projection
        assert server.solver.projection is projection
        for s, e in RAGGED_BLOCKS:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        served = server.flush()
        assert served.covered_steps == T
        assert served.theta.shape == (DIM,)


# ---------------------------------------------------------------------------
# (b) K=1 ≡ the plain Algorithm 3 batched path
# ---------------------------------------------------------------------------


class TestK1PlainEquivalence:
    def test_k1_matches_plain_observe_batch(self, stream):
        """Same seed ⇒ same Φ, bit-identical tree releases, matching θ.

        The served parameters agree with the plain ``observe_batch`` path
        to floating-point accuracy (the acceptance bar; in practice the
        shared helper makes even the solves bit-identical).
        """
        blocks = [(s, s + 4) for s in range(0, 24, 4)]
        server = ShardedStream(
            L2Ball(DIM),
            PARAMS,
            shards=1,
            horizon=24,
            backend="projected",
            x_domain=L2Ball(DIM),
            projected_dim=M,
            iteration_cap=10,
            rng=21,
        )
        plain = PrivIncReg2(
            horizon=24,
            constraint=L2Ball(DIM),
            x_domain=L2Ball(DIM),
            params=PARAMS,
            projected_dim=M,
            iteration_cap=10,
            solve_every=4,
            rng=21,
        )
        for s, e in blocks:
            served_theta = server.observe_batch(stream.xs[s:e], stream.ys[s:e])
            plain_theta = plain.observe_batch(stream.xs[s:e], stream.ys[s:e])
            np.testing.assert_allclose(
                served_theta, plain_theta, rtol=1e-9, atol=1e-12
            )
        np.testing.assert_array_equal(
            server.projection.matrix, plain.projection.matrix
        )
        cross_m, gram_m = server.merged_moments()
        np.testing.assert_array_equal(
            cross_m.value, plain._tree_cross.current_sum()
        )
        np.testing.assert_array_equal(
            gram_m.value, plain._tree_gram.current_sum()
        )

    @pytest.mark.parametrize("k", SHARD_COUNTS)
    def test_served_estimate_matches_solver_replay(self, stream, k):
        """The served parameter is exactly the Alg-3 hook on the merge."""
        server = _make_server(k, seed=33, refresh_every=T)
        for s, e in RAGGED_BLOCKS:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        served = server.flush()
        _, cross_trees, gram_trees = _replay_shard_trees(
            k, 33, RAGGED_BLOCKS, stream
        )
        twin = PrivIncReg2(
            horizon=T,
            constraint=L2Ball(DIM),
            x_domain=L2Ball(DIM),
            params=PARAMS,
            projection=server.projection,
            iteration_cap=10,
            rng=0,
        )
        theta = twin.refresh_from_released(
            T,
            merge_released([m.released_moments() for m in gram_trees]).value,
            merge_released([m.released_moments() for m in cross_trees]).value,
        )
        np.testing.assert_array_equal(served.theta, theta)
        assert served.covered_steps == T


# ---------------------------------------------------------------------------
# (c) Merged projected-moment noise accounting
# ---------------------------------------------------------------------------


class TestProjectedNoiseDistribution:
    @pytest.mark.parametrize("ingest", ["exact", "fast"])
    @pytest.mark.parametrize(
        "k", [k for k in SHARD_COUNTS if k <= 4] or SHARD_COUNTS[:1]
    )
    def test_merged_noise_matches_analytic_variance(self, ingest, k):
        """Matched mean; empirical variance within analytic bounds.

        The merged projected release is (exact projected sum) + Gaussian
        noise of per-coordinate variance ``MergedRelease.noise_variance``
        — the Step-4 rescaling keeps the calibration Φ-independent, so
        pooling over seeds (each with its own Φ) is sound.  Both tiers
        must match (the fast tier draws different bits, same law).
        """
        trials = 300
        length, dim, m = 12, 5, 2
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
                backend="projected",
                x_domain=L2Ball(dim),
                projected_dim=m,
                ingest=ingest,
                iteration_cap=1,
                refresh_every=length,
                rng=20_000 + seed,
            )
            for s, e in blocks:
                server.observe_batch(xs[s:e], ys[s:e])
            rows = step4_rescale_block(server.projection.matrix, xs)
            exact_cross = (rows * ys[:, None]).sum(axis=0)
            cross_m, _ = server.merged_moments()
            variance = cross_m.noise_variance
            errors.append(cross_m.value - exact_cross)
        errors = np.stack(errors)
        sigma = np.sqrt(variance)
        # Mean within 4 standard errors per coordinate.
        assert np.all(np.abs(errors.mean(axis=0)) < 4.0 * sigma / np.sqrt(trials))
        # Sample variance within chi-square-ish bounds (sd of the ratio is
        # sqrt(2/n) ≈ 0.08 at n=300; allow ±5 sd).
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

    def test_projected_memory_is_m_squared_not_d_squared(self, stream):
        """The Algorithm-3 backend's point: per-shard state is O(m² log T)."""
        projected = _make_server(2, seed=3)
        plain = ShardedStream(
            L2Ball(DIM), PARAMS, shards=2, horizon=T, iteration_cap=10, rng=3
        )
        for s, e in RAGGED_BLOCKS:
            projected.observe_batch(stream.xs[s:e], stream.ys[s:e])
            plain.observe_batch(stream.xs[s:e], stream.ys[s:e])
        # Shared Φ counted once; every per-shard tree term shrinks d² → m².
        assert projected.memory_floats() < plain.memory_floats()
        per_shard = projected._shards[0].memory_floats()
        gram = projected._shards[0].bundle.get("gram")
        levels = gram.levels
        assert per_shard == (levels + 1) * (M * M + M)


# ---------------------------------------------------------------------------
# (d) Thread-parallel group ingestion
# ---------------------------------------------------------------------------


class TestGroupIngestion:
    @pytest.mark.parametrize("k", SHARD_COUNTS)
    @pytest.mark.parametrize("workers", [1, 2, None])
    @pytest.mark.parametrize("backend", ["projected", "moment"])
    def test_group_matches_sequential_route(self, stream, k, workers, backend):
        """Same shard trees, same final solve, any thread-pool width.

        A group runs one refresh after the whole group, so the sequential
        reference uses the matching cadence (``refresh_every=T``): with
        identical merged moments and identical solve schedules the served
        parameters are bit-identical too.
        """
        kwargs = dict(refresh_every=T)
        if backend == "projected":
            kwargs.update(
                backend="projected", x_domain=L2Ball(DIM), projected_dim=M
            )
        sequential = ShardedStream(
            L2Ball(DIM), PARAMS, shards=k, horizon=T, iteration_cap=10,
            rng=17, **kwargs
        )
        for s, e in RAGGED_BLOCKS:
            sequential.observe_batch(stream.xs[s:e], stream.ys[s:e])
        expected = sequential.flush()

        grouped = ShardedStream(
            L2Ball(DIM), PARAMS, shards=k, horizon=T, iteration_cap=10,
            rng=17, **kwargs
        )
        grouped.observe_group(
            [(stream.xs[s:e], stream.ys[s:e]) for s, e in RAGGED_BLOCKS],
            workers=workers,
        )
        got = grouped.flush()
        cs, gs = sequential.merged_moments()
        cg, gg = grouped.merged_moments()
        np.testing.assert_array_equal(cs.value, cg.value)
        np.testing.assert_array_equal(gs.value, gg.value)
        np.testing.assert_array_equal(expected.theta, got.theta)
        assert got.covered_steps == expected.covered_steps
        assert grouped.steps_ingested == T

    def test_group_rejection_is_atomic(self, stream):
        server = _make_server(2, seed=3)
        bad = np.full((2, DIM), 5.0)  # violates ‖x‖ ≤ 1
        with pytest.raises(DomainViolationError):
            server.observe_group(
                [(stream.xs[:4], stream.ys[:4]), (bad, np.zeros(2))]
            )
        assert server.steps_ingested == 0 and server.steps_enqueued == 0
        with pytest.raises(ValidationError):
            server.observe_group([])

    def test_group_respects_the_horizon_reservation(self, stream):
        server = _make_server(2, seed=3)
        with pytest.raises(StreamExhaustedError):
            server.observe_group(
                [
                    (stream.xs[:20], stream.ys[:20]),
                    (stream.xs[:20], stream.ys[:20]),
                ]
            )
        assert server.steps_ingested == 0 and server.steps_enqueued == 0
        # The refused group consumed nothing: the full horizon still fits.
        server.observe_group(
            [(stream.xs[s:e], stream.ys[s:e]) for s, e in RAGGED_BLOCKS]
        )
        assert server.steps_ingested == T

    def test_group_requires_sync_mode(self, stream):
        server = _make_server(2, seed=3, mode="manual")
        with pytest.raises(ServingError):
            server.observe_group([(stream.xs[:4], stream.ys[:4])])

    @pytest.mark.parametrize("workers", [1, 2, 3, None])
    def test_bucketed_partial_failure_is_per_shard_fail_stop(
        self, stream, workers
    ):
        """One shard's mid-group failure must not touch co-bucketed shards.

        With ``workers < K`` several shard queues share one thread; the
        failure semantics must stay per-shard: the failing shard's
        remaining blocks are reported and refunded, every other shard's
        queue commits in full, and ``steps_enqueued`` ends equal to
        ``steps_ingested`` (no silent loss, no over-refund past the
        horizon books).
        """
        from repro.exceptions import GroupIngestionError

        # shard_horizon=4 with 3 blocks of 2 per shard: every shard's
        # third block overflows its trees (6 > 4), whatever the bucketing.
        server = ShardedStream(
            L2Ball(DIM),
            PARAMS,
            shards=4,
            horizon=T,
            shard_horizon=4,
            iteration_cap=5,
            rng=4,
        )
        blocks = [
            (stream.xs[2 * i : 2 * i + 2], stream.ys[2 * i : 2 * i + 2])
            for i in range(12)
        ]
        with pytest.raises(GroupIngestionError) as excinfo:
            server.observe_group(blocks, workers=workers)
        failed = sorted(i for i, _ in excinfo.value.failures)
        assert failed == [8, 9, 10, 11]
        assert server.steps_ingested == 16  # two committed blocks per shard
        assert server.steps_enqueued == server.steps_ingested
        assert all(s["steps"] == 4 for s in server.shard_states())
        # The routing stats must not count the refunded blocks as commits:
        # every routed block either committed or was refunded, and the
        # difference is exactly the committed count (8 blocks of 2 = 16).
        assert server.blocks_routed == 12
        assert server.blocks_refunded == 4
        assert server.blocks_routed - server.blocks_refunded == 8

    def test_single_block_failure_counts_a_refund(self, stream):
        """The non-group path keeps the same invariant: a failed
        observe_batch leaves blocks_routed bumped (router indices never
        reused) but books the block as refunded, not committed."""
        server = ShardedStream(
            L2Ball(DIM),
            PARAMS,
            shards=2,
            horizon=T,
            shard_horizon=2,
            iteration_cap=5,
            rng=4,
        )
        server.observe_batch(stream.xs[:2], stream.ys[:2])
        with pytest.raises(Exception):
            server.observe_batch(stream.xs[2:6], stream.ys[2:6])  # 4 > 2
        assert server.blocks_routed == 2
        assert server.blocks_refunded == 1
        assert (
            server.blocks_routed - server.blocks_refunded == 1
        )  # one committed block
        assert server.steps_ingested == 2 == server.steps_enqueued


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------


class TestProjectedServingValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError):
            ShardedStream(
                L2Ball(DIM), PARAMS, shards=2, horizon=T, backend="sketchy"
            )

    def test_projected_knobs_rejected_for_moment_backend(self):
        with pytest.raises(ValidationError):
            ShardedStream(
                L2Ball(DIM), PARAMS, shards=2, horizon=T, x_domain=L2Ball(DIM)
            )
        with pytest.raises(ValidationError):
            ShardedStream(
                L2Ball(DIM), PARAMS, shards=2, horizon=T, projected_dim=M
            )

    def test_projected_requires_tree_shards(self):
        with pytest.raises(ValidationError):
            ShardedStream(
                L2Ball(DIM),
                PARAMS,
                shards=2,
                backend="projected",
                x_domain=L2Ball(DIM),
                mechanism="hybrid",
            )

    def test_projected_requires_x_domain_for_default_solver(self):
        with pytest.raises(ValidationError):
            ShardedStream(
                L2Ball(DIM),
                PARAMS,
                shards=2,
                horizon=T,
                backend="projected",
                projected_dim=M,
            )

    def test_projection_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ShardedStream(
                L2Ball(DIM),
                PARAMS,
                shards=2,
                horizon=T,
                backend="projected",
                x_domain=L2Ball(DIM),
                projection=GaussianProjection(DIM + 1, M, rng=0),
            )

    def test_projected_dim_must_agree_with_a_prebuilt_projection(self):
        """``projected_dim`` beside a pre-built Φ may only restate its size."""
        kwargs = dict(
            horizon=T,
            backend="projected",
            x_domain=L2Ball(DIM),
            projection=GaussianProjection(DIM, 2, rng=0),
        )
        with pytest.raises(ValidationError, match="projected_dim"):
            ShardedStream(L2Ball(DIM), PARAMS, shards=2, projected_dim=3, **kwargs)
        server = ShardedStream(L2Ball(DIM), PARAMS, shards=2, projected_dim=2, **kwargs)
        assert server.projection.projected_dim == 2
        server.close()

    def test_gordon_sizing_is_the_privincreg2_sizing(self):
        """Omitting projected_dim sizes Φ exactly as PrivIncReg2 would."""
        server = ShardedStream(
            L2Ball(DIM),
            PARAMS,
            shards=2,
            horizon=T,
            backend="projected",
            x_domain=L2Ball(DIM),
            iteration_cap=10,
            rng=9,
        )
        plain = PrivIncReg2(
            horizon=T,
            constraint=L2Ball(DIM),
            x_domain=L2Ball(DIM),
            params=PARAMS,
            iteration_cap=10,
            rng=9,
        )
        assert server.projected_dim == plain.projected_dim
        np.testing.assert_array_equal(
            server.projection.matrix, plain.projection.matrix
        )
