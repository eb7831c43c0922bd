"""Conformance suite for the sketch-native shard backend.

Three layers, pinned bottom-up:

(a) **SketchNoiseMechanism** — the per-block noise model: the exact
    running sum of sketched moments plus ONE Gaussian draw per ingested
    block (σ_block calibrated to the Step-4-pinned sensitivity Δ₂ = 2, so
    one stream element changes one block total by at most Δ₂ and the
    release sequence is (ε, δ)-DP by per-block Gaussian mechanism +
    parallel composition over disjoint blocks; later reads are
    post-processing).  Element and batched ingest consume identical rng
    bits; both block tiers (``advance_batch`` exact, ``advance_sum``
    fast) draw exactly once per block.

(b) **Knob validation** — ``backend="sketch"`` refuses incompatible
    combinations with typed errors naming the knob (``decay``,
    ``window``, ``sparsity_factor`` misuse, missing horizon/x_domain),
    and sizes its sparse ``Φ`` by the same ``projected_sizing``
    arithmetic as the projected backend when ``projected_dim`` is
    omitted.

(c) **Serving acceptance** — with ``ε → ∞`` a K=1 sketch server recovers
    plain sketched least-squares within solver tolerance, and one seed
    produces bit-identical merged releases over the thread, process, and
    tcp transports.
"""

import math

import numpy as np
import pytest

from repro import (
    L2Ball,
    PrivacyParams,
    PrivIncReg2,
    ShardedStream,
    SketchNoiseMechanism,
    SparseProjection,
    make_release_mechanism,
    step4_rescale_block,
)
from repro.core.projected_regression import projected_sizing
from repro.data import make_dense_stream
from repro.exceptions import StreamExhaustedError, ValidationError
from repro.streaming.backends import BACKENDS

from releases import steps

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 3
T = 26
RAGGED_BLOCKS = [(0, 5), (5, 6), (6, 13), (13, 20), (20, 26)]


@pytest.fixture(scope="module")
def stream():
    return make_dense_stream(T, DIM, noise_std=0.05, rng=902)


def _sketch_server(k, seed, **kwargs):
    defaults = dict(
        horizon=T,
        iteration_cap=20,
        backend="sketch",
        x_domain=L2Ball(DIM),
        projected_dim=DIM,
    )
    defaults.update(kwargs)
    return ShardedStream(L2Ball(DIM), PARAMS, shards=k, rng=seed, **defaults)


def _moment_blocks(rng, blocks=4, dim=3, block_len=3):
    values = rng.normal(size=(blocks, block_len, dim)) * 0.2
    return np.clip(values, -0.5, 0.5)


# ---------------------------------------------------------------------------
# (a) The per-block noise model
# ---------------------------------------------------------------------------


class TestSketchNoiseMechanism:
    def test_factory_dispatches_the_sketch_family(self):
        mech = make_release_mechanism(
            shape=(DIM,),
            l2_sensitivity=2.0,
            params=PARAMS,
            rng=0,
            mechanism="sketch",
            horizon=T,
        )
        assert isinstance(mech, SketchNoiseMechanism)
        assert mech.sigma_block == pytest.approx(
            2.0 * math.sqrt(2.0 * math.log(2.0 / PARAMS.delta)) / PARAMS.epsilon
        )

    def test_factory_refuses_decay_window_and_missing_horizon(self):
        common = dict(shape=(DIM,), l2_sensitivity=2.0, params=PARAMS, rng=0)
        with pytest.raises(ValidationError, match="decay"):
            make_release_mechanism(mechanism="sketch", horizon=T, decay=0.9, **common)
        with pytest.raises(ValidationError, match="window"):
            make_release_mechanism(mechanism="sketch", horizon=T, window=8, **common)
        with pytest.raises(ValidationError, match="horizon"):
            make_release_mechanism(mechanism="sketch", **common)
        with pytest.raises(ValidationError, match="mechanism"):
            make_release_mechanism(mechanism="sketchy", horizon=T, **common)

    def test_one_element_commits_draw_one_keyed_block_each(self):
        """k one-element commits are k blocks: the releases equal a
        direct model that adds element ``b`` and the Gaussian of
        ``Philox(key, counter=[0, 0, b, 0])`` to the running sum, bit for
        bit."""
        values = _moment_blocks(np.random.default_rng(5), blocks=1, block_len=8)[0]
        mech = SketchNoiseMechanism(10, (DIM,), 2.0, PARAMS, rng=42)
        key = np.random.default_rng(42).bit_generator.random_raw(2)
        running, model = np.zeros(DIM), []
        for b, value in enumerate(values):
            node = np.random.Philox(key=key, counter=[0, 0, b, 0])
            noise = np.random.Generator(node).standard_normal(DIM) * mech.sigma_block
            running = running + value + noise
            model.append(running)
        np.testing.assert_array_equal(steps(mech, values), np.array(model))
        assert mech.noise_draws == len(values)

    def test_block_tiers_draw_once_per_block_and_share_noise_bits(self):
        """advance_batch (exact) and advance_sum (fast) each draw ONE
        Gaussian per ingested block, from the same stream of bits."""
        blocks = _moment_blocks(np.random.default_rng(6))
        exact = SketchNoiseMechanism(T, (DIM,), 2.0, PARAMS, rng=7)
        fast = SketchNoiseMechanism(T, (DIM,), 2.0, PARAMS, rng=7)
        for block in blocks:
            exact.advance_batch(block)
            fast.advance_sum(block.sum(axis=0), len(block))
        assert exact.noise_draws == fast.noise_draws == len(blocks)
        assert exact.steps_taken == fast.steps_taken == blocks.size // DIM
        np.testing.assert_array_equal(exact.current_sum(), fast.current_sum())

    def test_release_noise_variance_is_draws_times_sigma_squared(self):
        mech = SketchNoiseMechanism(T, (DIM,), 2.0, PARAMS, rng=1)
        blocks = _moment_blocks(np.random.default_rng(2), blocks=3)
        for block in blocks:
            mech.advance_batch(block)
        assert mech.release_noise_variance() == pytest.approx(
            3 * mech.sigma_block**2
        )
        assert mech.effective_weight == float(mech.steps_taken)

    def test_capacity_refusal_consumes_nothing(self):
        """An over-horizon block is refused atomically: no steps, no rng
        consumption — the subsequent fitting block draws the same bits a
        fresh twin would."""
        mech = SketchNoiseMechanism(4, (DIM,), 2.0, PARAMS, rng=9)
        twin = SketchNoiseMechanism(4, (DIM,), 2.0, PARAMS, rng=9)
        block = _moment_blocks(np.random.default_rng(3), blocks=1, block_len=3)[0]
        with pytest.raises(StreamExhaustedError, match="horizon 4"):
            mech.advance_batch(np.tile(block, (2, 1)))  # 6 > 4
        assert mech.steps_taken == 0 and mech.noise_draws == 0
        mech.advance_batch(block)
        twin.advance_batch(block)
        np.testing.assert_array_equal(mech.current_sum(), twin.current_sum())

    def test_released_moments_snapshot(self):
        mech = SketchNoiseMechanism(T, (DIM,), 2.0, PARAMS, rng=4)
        block = _moment_blocks(np.random.default_rng(8), blocks=1)[0]
        mech.advance_batch(block)
        snapshot = mech.released_moments()
        np.testing.assert_array_equal(snapshot.value, mech.current_sum())
        assert snapshot.steps == mech.steps_taken
        assert snapshot.noise_variance == mech.release_noise_variance()

    def test_error_bounds(self):
        vector = SketchNoiseMechanism(T, (DIM,), 2.0, PARAMS, rng=0)
        square = SketchNoiseMechanism(T, (DIM, DIM), 2.0, PARAMS, rng=0)
        assert vector.error_bound() > 0
        assert square.error_bound_spectral() > 0
        # Tighter β ⇒ larger bound.
        assert vector.error_bound(beta=0.01) > vector.error_bound(beta=0.2)
        with pytest.raises(ValidationError):
            vector.error_bound_spectral()
        assert vector.memory_floats() == DIM


# ---------------------------------------------------------------------------
# (b) Knob validation
# ---------------------------------------------------------------------------


class TestSketchKnobValidation:
    def test_sparsity_factor_requires_the_sketch_backend(self):
        with pytest.raises(ValidationError, match="sparsity_factor"):
            ShardedStream(
                L2Ball(DIM), PARAMS, shards=2, horizon=T, sparsity_factor=3
            )
        with pytest.raises(ValidationError, match="sparsity_factor"):
            ShardedStream(
                L2Ball(DIM),
                PARAMS,
                shards=2,
                horizon=T,
                backend="projected",
                x_domain=L2Ball(DIM),
                sparsity_factor=3,
            )

    def test_sparsity_factor_refused_with_a_prebuilt_projection(self):
        prebuilt = SparseProjection(DIM, 2, sparsity_factor=2, rng=0)
        with pytest.raises(ValidationError, match="sparsity_factor"):
            _sketch_server(2, seed=0, projection=prebuilt, sparsity_factor=2)

    def test_sketch_needs_tree_shards(self):
        with pytest.raises(ValidationError, match="backend='sketch'"):
            _sketch_server(2, seed=0, mechanism="hybrid", horizon=None)

    def test_sketch_refuses_decay_and_window_naming_the_knob(self):
        with pytest.raises(ValidationError, match="decay"):
            _sketch_server(2, seed=0, decay=0.9)
        with pytest.raises(ValidationError, match="window"):
            _sketch_server(2, seed=0, window=8)

    def test_sketch_requires_horizon(self):
        with pytest.raises(ValidationError):
            _sketch_server(2, seed=0, horizon=None)

    def test_sketch_needs_x_domain_or_solver(self):
        with pytest.raises(ValidationError, match="x_domain"):
            ShardedStream(
                L2Ball(DIM), PARAMS, shards=2, horizon=T, backend="sketch"
            )

    def test_omitted_projected_dim_uses_projected_sizing(self):
        server = _sketch_server(2, seed=1, projected_dim=None)
        _, _, expected_m = projected_sizing(T, L2Ball(DIM), L2Ball(DIM))
        assert server.projected_dim == expected_m
        assert server.sparsity_factor == 3  # Achlioptas default

    def test_sparsity_factor_knob_and_prebuilt_projection_pass_through(self):
        custom = _sketch_server(2, seed=1, sparsity_factor=2)
        assert custom.sparsity_factor == 2
        prebuilt = SparseProjection(DIM, 2, sparsity_factor=5, rng=3)
        server = _sketch_server(2, seed=1, projection=prebuilt, projected_dim=None)
        assert server.projection is prebuilt
        assert server.sparsity_factor == 5

    def test_shards_are_sketch_backed_but_keep_the_tree_knob(self, stream):
        """The user-facing ``mechanism`` knob (and the wire spec) stays
        ``"tree"``; the sketch family is pinned per shard."""
        server = _sketch_server(2, seed=2)
        assert server.mechanism == "tree"
        shard = server._shards[0]
        assert BACKENDS[shard.backend].release_family == "sketch"
        assert shard.backend == "sketch"
        assert shard.mechanism == "tree"
        assert len(shard.released()) == len(server.bundle_names) == 2
        assert all(
            isinstance(shard.bundle.get(name), SketchNoiseMechanism)
            for name in server.bundle_names
        )


# ---------------------------------------------------------------------------
# (c) Serving acceptance
# ---------------------------------------------------------------------------


class TestSketchServing:
    def test_k1_epsilon_to_infinity_recovers_sketched_least_squares(self, stream):
        """ε → ∞ kills both the per-block noise and the solver noise, so
        a K=1 sketch server serves the *plain* constrained sketched
        least-squares estimate (exact Step-4 moments through the same Φ)
        within solver tolerance."""
        huge = PrivacyParams(1e9, 1e-6)
        server = ShardedStream(
            L2Ball(DIM),
            huge,
            shards=1,
            horizon=T,
            refresh_every=T,
            iteration_cap=200,
            backend="sketch",
            x_domain=L2Ball(DIM),
            projected_dim=DIM,
            rng=11,
        )
        for s, e in RAGGED_BLOCKS:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        served = server.flush()

        rows = step4_rescale_block(server.projection.matrix, stream.xs)
        exact_cross = (rows * stream.ys[:, None]).sum(axis=0)
        exact_gram = rows.T @ rows
        twin = PrivIncReg2(
            horizon=T,
            constraint=L2Ball(DIM),
            x_domain=L2Ball(DIM),
            params=huge,
            iteration_cap=200,
            projection=server.projection,
            rng=0,
        )
        theta_ls = twin.refresh_from_released(T, exact_gram, exact_cross)
        np.testing.assert_allclose(served.theta, theta_ls, atol=1e-3)

    def test_thread_process_tcp_merges_bit_identical(self, stream):
        """One seed ⇒ one noise stream, whatever interpreter the shard
        runs in: the spawn payload ships the same rng children and the
        same front-drawn sparse Φ to every transport."""
        merged = {}
        thetas = {}
        for transport in ("thread", "process", "tcp"):
            server = _sketch_server(2, seed=7, transport=transport)
            try:
                for s, e in RAGGED_BLOCKS:
                    server.observe_batch(stream.xs[s:e], stream.ys[s:e])
                cross_m, gram_m = server.merged_moments()
                merged[transport] = (cross_m.value, gram_m.value)
                thetas[transport] = server.flush().theta
            finally:
                server.close()
        for transport in ("process", "tcp"):
            np.testing.assert_array_equal(
                merged["thread"][0], merged[transport][0]
            )
            np.testing.assert_array_equal(
                merged["thread"][1], merged[transport][1]
            )
            np.testing.assert_array_equal(thetas["thread"], thetas[transport])

    def test_merged_noise_variance_counts_blocks_not_elements(self, stream):
        """Sketch accounting is per ingested block: K shards fed B blocks
        report exactly B·σ_block² of cross noise — fewer draws than any
        tree would spend on the same stream."""
        server = _sketch_server(2, seed=13)
        for s, e in RAGGED_BLOCKS:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        cross_m, gram_m = server.merged_moments()
        sigma_block = SketchNoiseMechanism(
            T, (DIM,), 2.0, PARAMS.halve(), rng=0
        ).sigma_block
        expected = len(RAGGED_BLOCKS) * sigma_block**2
        assert cross_m.noise_variance == pytest.approx(expected)
        assert gram_m.noise_variance == pytest.approx(expected)
        assert cross_m.covered_steps == T

    def test_fast_and_exact_tiers_share_noise_bits(self, stream):
        """Unlike the tree backends (same distribution, different bits),
        the sketch tiers consume identical noise: merged releases differ
        only by float summation order of the exact totals."""
        exact = _sketch_server(2, seed=3, ingest="exact")
        fast = _sketch_server(2, seed=3, ingest="fast")
        for s, e in RAGGED_BLOCKS:
            exact.observe_batch(stream.xs[s:e], stream.ys[s:e])
            fast.observe_batch(stream.xs[s:e], stream.ys[s:e])
        ce, ge = exact.merged_moments()
        cf, gf = fast.merged_moments()
        np.testing.assert_allclose(ce.value, cf.value, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ge.value, gf.value, rtol=1e-12, atol=1e-12)
        assert ce.noise_variance == cf.noise_variance
