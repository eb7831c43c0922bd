"""Batched-vs-sequential equivalence suite.

The batched engine's contract (README, "Batched API contract") is tiered:

* **bit-identical** — ``TreeMechanism``, ``HybridMechanism``,
  ``PrivIncReg1``, ``UnboundedPrivIncReg``, ``PrivIncERM``,
  ``NaiveRecompute`` and ``StaticOutput``: block ingestion consumes the rng
  exactly like per-point ingestion and performs the same floating-point
  additions in the same order, so outputs are ``np.array_equal`` to the
  sequential reference for every batch size, including the ragged final
  block, and the two APIs may be interleaved freely.
* **floating-point equal** — ``PrivIncReg2`` (and ``RobustPrivIncReg``):
  the trees are rng-matched, but the Step-4 projection uses one BLAS
  matrix-matrix product per block whose reduction order differs from
  ``k`` matrix-vector products; outputs agree to tight tolerance.
* **solver-equivalent** — ``NonPrivateIncremental``: the batched path
  re-solves once per block instead of once per point; both approximate the
  same constrained minimizer to FISTA accuracy.

Every test compares a sequential run against batched runs over batch sizes
``{1, 3, 7, T}`` (exercising aligned, misaligned, and whole-stream blocks,
each with a ragged final block when ``T % b ≠ 0``).
"""

import numpy as np
import pytest

from repro import (
    HybridMechanism,
    L1Ball,
    L2Ball,
    NaiveRecompute,
    NoisySGD,
    NonPrivateIncremental,
    PrivacyParams,
    PrivIncERM,
    PrivIncReg1,
    PrivIncReg2,
    RobustPrivIncReg,
    SparseVectors,
    SquaredLoss,
    StaticOutput,
    UnboundedPrivIncReg,
)
from repro.data import make_dense_stream, make_sparse_stream
from repro.exceptions import ValidationError

from releases import block_reads, step, steps

PARAMS = PrivacyParams(4.0, 1e-6)
T = 14
DIM = 3
BATCH_SIZES = [1, 3, 7, T]


def _blocks(length, batch):
    return [(s, min(s + batch, length)) for s in range(0, length, batch)]


def _block_ends(length, batch):
    return [stop - 1 for _, stop in _blocks(length, batch)]


#: Extra inputs for the estimators: each release knob × a solve cadence
#: finer than most blocks, so interior solves run at weighted logical t.
RELEASE_KNOBS = [
    pytest.param(knob, solve_every, id=f"{name}-every{solve_every}")
    for name, knob in [("decay", {"decay": 0.9}), ("window", {"window": 7})]
    for solve_every in (1, 3)
]


def _random_blocks(length, seed):
    """Random contiguous block split of ``range(length)`` (sizes 1-6)."""
    sizes = np.random.default_rng(seed).integers(1, 7, size=length)
    edges = np.minimum(np.concatenate([[0], np.cumsum(sizes)]), length)
    edges = np.unique(edges)
    return list(zip(edges[:-1].tolist(), edges[1:].tolist()))


def _knob_thetas(make, stream, seed):
    """Sequential thetas at the block ends of a random split, and the
    thetas the batched path releases on that split."""
    blocks = _random_blocks(stream.length, seed)
    reference = _sequential_thetas(make(), stream)
    estimator = make()
    released = np.stack(
        [estimator.observe_batch(stream.xs[s:e], stream.ys[s:e]) for s, e in blocks]
    )
    return reference[[e - 1 for _, e in blocks]], released


# ---------------------------------------------------------------------------
# Mechanisms: bit-identical releases
# ---------------------------------------------------------------------------


class TestTreeMechanismEquivalence:
    @pytest.mark.parametrize("shape", [(), (2,), (2, 2)])
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_bit_identical_releases(self, shape, batch):
        from repro import TreeMechanism

        rng = np.random.default_rng(0)
        data = rng.normal(size=(T,) + shape) * 0.1
        sequential = TreeMechanism(T, shape, 2.0, PARAMS, rng=21)
        reference = steps(sequential, data)

        batched = TreeMechanism(T, shape, 2.0, PARAMS, rng=21)
        released = block_reads(batched, [data[s:e] for s, e in _blocks(T, batch)])
        np.testing.assert_array_equal(reference[_block_ends(T, batch)], released)
        np.testing.assert_array_equal(
            sequential.current_sum(), batched.current_sum()
        )

    def test_interleaving_single_and_block_commits(self):
        from repro import TreeMechanism

        rng = np.random.default_rng(1)
        data = rng.normal(size=(T, 2)) * 0.1
        sequential = TreeMechanism(T, (2,), 2.0, PARAMS, rng=5)
        reference = steps(sequential, data)

        mixed = TreeMechanism(T, (2,), 2.0, PARAMS, rng=5)
        first = step(mixed, data[0])[None]
        middle = block_reads(mixed, [data[1:9]])
        tail = steps(mixed, data[9:])
        np.testing.assert_array_equal(
            reference[[0, 8, *range(9, T)]], np.concatenate([first, middle, tail], axis=0)
        )

    def test_ragged_final_block(self):
        """T=14 with batch 4 ends in a length-2 block."""
        from repro import TreeMechanism

        rng = np.random.default_rng(2)
        data = rng.normal(size=(T, 2)) * 0.1
        sequential = TreeMechanism(T, (2,), 2.0, PARAMS, rng=9)
        reference = steps(sequential, data)
        batched = TreeMechanism(T, (2,), 2.0, PARAMS, rng=9)
        released = block_reads(batched, [data[s:e] for s, e in _blocks(T, 4)])
        assert _blocks(T, 4)[-1] == (12, 14)  # the ragged block
        np.testing.assert_array_equal(reference[[3, 7, 11, 13]], released)


class TestHybridMechanismEquivalence:
    @pytest.mark.parametrize("shape", [(), (2,), (2, 2)])
    @pytest.mark.parametrize("batch", [1, 3, 7, 21])
    # 21 crosses the 1, 2, 4, 8 epoch boundaries; the decayed streams run
    # long enough for the frozen-epoch fades to reach float rounding.
    @pytest.mark.parametrize("decay, length", [(1.0, 21), (0.9, 64), (0.99, 64)])
    def test_bit_identical_across_epochs(self, shape, batch, decay, length):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(length,) + shape) * 0.1
        sequential = HybridMechanism(shape, 2.0, PARAMS, rng=13, decay=decay)
        reference = steps(sequential, data)

        batched = HybridMechanism(shape, 2.0, PARAMS, rng=13, decay=decay)
        released = block_reads(batched, [data[s:e] for s, e in _blocks(length, batch)])
        np.testing.assert_array_equal(reference[_block_ends(length, batch)], released)
        assert batched._completed_epochs == sequential._completed_epochs


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def stream():
    return make_dense_stream(T, DIM, noise_std=0.05, rng=100)


def _sequential_thetas(estimator, stream):
    return np.stack([estimator.observe(x, y) for x, y in stream])


def _batched_thetas(estimator, stream, batch):
    return np.stack(
        [
            estimator.observe_batch(stream.xs[s:e], stream.ys[s:e])
            for s, e in _blocks(stream.length, batch)
        ]
    )


class TestPrivIncReg1Equivalence:
    """Batched blocks of size b ≡ sequential run with solve_every=b."""

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_bit_identical(self, stream, batch):
        make = lambda: PrivIncReg1(  # noqa: E731
            horizon=T,
            constraint=L2Ball(DIM),
            params=PARAMS,
            iteration_cap=25,
            solve_every=batch,
            rng=7,
        )
        reference = _sequential_thetas(make(), stream)
        released = _batched_thetas(make(), stream, batch)
        np.testing.assert_array_equal(reference[_block_ends(T, batch)], released)

    @pytest.mark.parametrize("knob, solve_every", RELEASE_KNOBS)
    def test_bit_identical_with_release_knobs(self, stream, knob, solve_every):
        make = lambda: PrivIncReg1(  # noqa: E731
            horizon=T,
            constraint=L2Ball(DIM),
            params=PARAMS,
            iteration_cap=25,
            solve_every=solve_every,
            rng=7,
            **knob,
        )
        reference, released = _knob_thetas(make, stream, seed=solve_every)
        np.testing.assert_array_equal(reference, released)


class TestUnboundedEquivalence:
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_bit_identical(self, stream, batch):
        make = lambda: UnboundedPrivIncReg(  # noqa: E731
            L2Ball(DIM), PARAMS, iteration_cap=25, solve_every=batch, rng=17
        )
        reference = _sequential_thetas(make(), stream)
        released = _batched_thetas(make(), stream, batch)
        np.testing.assert_array_equal(reference[_block_ends(T, batch)], released)

    @pytest.mark.parametrize("solve_every", [1, 3])
    def test_bit_identical_solves_inside_blocks(self, solve_every):
        """solve_every < batch: interior solves must see the per-step
        releases AND the epoch state of their own timestep (the ε-error
        bound changes at epoch rollovers mid-block)."""
        length = 21  # crosses the epoch-full steps 1, 3, 7, 15
        long_stream = make_dense_stream(length, DIM, noise_std=0.05, rng=400)
        make = lambda: UnboundedPrivIncReg(  # noqa: E731
            L2Ball(DIM), PARAMS, iteration_cap=20, solve_every=solve_every, rng=19
        )
        reference = _sequential_thetas(make(), long_stream)
        released = _batched_thetas(make(), long_stream, 7)
        np.testing.assert_array_equal(reference[_block_ends(length, 7)], released)

    # γ = 0.99 over 40 points: every frozen-epoch fade must be the same
    # float on both paths, or the interior solves drift by an ulp.
    @pytest.mark.parametrize(
        "knob, solve_every",
        RELEASE_KNOBS + [pytest.param({"decay": 0.99}, 3, id="decay99-every3")],
    )
    def test_bit_identical_with_release_knobs(self, knob, solve_every):
        long_stream = make_dense_stream(40, DIM, noise_std=0.05, rng=400)
        make = lambda: UnboundedPrivIncReg(  # noqa: E731
            L2Ball(DIM),
            PARAMS,
            iteration_cap=20,
            solve_every=solve_every,
            rng=19,
            **knob,
        )
        reference, released = _knob_thetas(make, long_stream, seed=solve_every)
        np.testing.assert_array_equal(reference, released)

class TestPrivIncERMEquivalence:
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("tau", [3, 4])
    def test_bit_identical_any_tau_alignment(self, stream, batch, tau):
        ball = L2Ball(DIM)
        factory = lambda budget: NoisySGD(  # noqa: E731
            SquaredLoss(), ball, budget, rng=23
        )
        make = lambda: PrivIncERM(  # noqa: E731
            horizon=T, constraint=ball, params=PARAMS, tau=tau, solver_factory=factory
        )
        reference = _sequential_thetas(make(), stream)
        released = _batched_thetas(make(), stream, batch)
        np.testing.assert_array_equal(reference[_block_ends(T, batch)], released)

    def test_accountant_sees_same_charges(self, stream):
        ball = L2Ball(DIM)
        factory = lambda budget: NoisySGD(  # noqa: E731
            SquaredLoss(), ball, budget, rng=23
        )
        sequential = PrivIncERM(
            horizon=T, constraint=ball, params=PARAMS, tau=4, solver_factory=factory
        )
        _sequential_thetas(sequential, stream)
        batched = PrivIncERM(
            horizon=T, constraint=ball, params=PARAMS, tau=4, solver_factory=factory
        )
        _batched_thetas(batched, stream, 5)
        assert [c.label for c in sequential.accountant.charges] == [
            c.label for c in batched.accountant.charges
        ]


class TestNaiveRecomputeEquivalence:
    @pytest.mark.parametrize("batch", [3, T])
    def test_bit_identical(self, stream, batch):
        ball = L2Ball(DIM)
        factory = lambda budget: NoisySGD(  # noqa: E731
            SquaredLoss(), ball, budget, rng=29
        )
        make = lambda: NaiveRecompute(T, ball, PARAMS, factory)  # noqa: E731
        reference = _sequential_thetas(make(), stream)
        released = _batched_thetas(make(), stream, batch)
        np.testing.assert_array_equal(reference[_block_ends(T, batch)], released)


class TestStaticOutputEquivalence:
    def test_constant_either_way(self, stream):
        ball = L2Ball(DIM)
        static = StaticOutput(ball)
        reference = _sequential_thetas(static, stream)
        released = _batched_thetas(StaticOutput(ball), stream, 5)
        np.testing.assert_array_equal(reference[_block_ends(T, 5)], released)


class TestPrivIncReg2Equivalence:
    """rng-matched trees; the block projection is BLAS-ordered, so the
    released parameters agree to floating-point accuracy, not bit-for-bit."""

    @pytest.mark.parametrize("batch", [3, 7, T])
    def test_floating_point_equal(self, batch):
        sparse_stream = make_sparse_stream(T, DIM, sparsity=2, rng=200)
        make = lambda: PrivIncReg2(  # noqa: E731
            horizon=T,
            constraint=L1Ball(DIM),
            x_domain=SparseVectors(DIM, 2),
            params=PARAMS,
            iteration_cap=20,
            solve_every=batch,
            rng=31,
        )
        reference = _sequential_thetas(make(), sparse_stream)
        released = _batched_thetas(make(), sparse_stream, batch)
        np.testing.assert_allclose(
            reference[_block_ends(T, batch)], released, rtol=1e-8, atol=1e-10
        )

    @pytest.mark.parametrize("knob, solve_every", RELEASE_KNOBS)
    def test_floating_point_equal_with_release_knobs(self, knob, solve_every):
        sparse_stream = make_sparse_stream(T, DIM, sparsity=2, rng=200)
        make = lambda: PrivIncReg2(  # noqa: E731
            horizon=T,
            constraint=L1Ball(DIM),
            x_domain=SparseVectors(DIM, 2),
            params=PARAMS,
            iteration_cap=20,
            solve_every=solve_every,
            rng=31,
            **knob,
        )
        reference, released = _knob_thetas(make, sparse_stream, seed=solve_every)
        np.testing.assert_allclose(reference, released, rtol=1e-8, atol=1e-10)


class TestRobustEquivalence:
    @pytest.mark.parametrize("batch", [3, T])
    def test_floating_point_equal_with_substitution(self, batch):
        mixed = make_dense_stream(T, DIM, noise_std=0.05, rng=300)
        make = lambda: RobustPrivIncReg(  # noqa: E731
            horizon=T,
            constraint=L1Ball(DIM),
            good_domain=SparseVectors(DIM, 2),
            params=PARAMS,
            iteration_cap=15,
            solve_every=batch,
            rng=37,
        )
        sequential = make()
        reference = _sequential_thetas(sequential, mixed)
        batched = make()
        released = _batched_thetas(batched, mixed, batch)
        np.testing.assert_allclose(
            reference[_block_ends(T, batch)], released, rtol=1e-8, atol=1e-10
        )
        # The oracle decisions are per-point either way.
        assert batched.substituted == sequential.substituted
        assert batched.accepted == sequential.accepted


class TestNonPrivateEquivalence:
    def test_same_minimizer_to_solver_accuracy(self, stream):
        from repro.erm.objective import QuadraticRisk

        ball = L2Ball(DIM)
        sequential = NonPrivateIncremental(ball, solver_iterations=500)
        for x, y in stream:
            sequential.observe(x, y)
        batched = NonPrivateIncremental(ball, solver_iterations=500)
        for s, e in _blocks(T, 5):
            batched.observe_batch(stream.xs[s:e], stream.ys[s:e])
        # Both paths minimize the same prefix objective; along nearly-flat
        # directions the argmins may differ more than the objectives do.
        risk = QuadraticRisk.from_data(stream.xs, stream.ys)
        assert abs(
            risk.value(sequential.current_estimate())
            - risk.value(batched.current_estimate())
        ) < 1e-8
        np.testing.assert_allclose(
            sequential.current_estimate(), batched.current_estimate(), atol=1e-4
        )


# ---------------------------------------------------------------------------
# Shared batched-API discipline
# ---------------------------------------------------------------------------


class TestBatchDiscipline:
    def test_empty_batch_rejected_everywhere(self, stream):
        from repro import TreeMechanism

        empty_x = np.empty((0, DIM))
        empty_y = np.empty((0,))
        tree = TreeMechanism(4, (DIM,), 2.0, PARAMS, rng=0)
        with pytest.raises(ValidationError):
            tree.advance_batch(np.empty((0, DIM)))
        hybrid = HybridMechanism((DIM,), 2.0, PARAMS, rng=0)
        with pytest.raises(ValidationError):
            hybrid.advance_batch(np.empty((0, DIM)))
        estimators = [
            PrivIncReg1(horizon=4, constraint=L2Ball(DIM), params=PARAMS, rng=0),
            UnboundedPrivIncReg(L2Ball(DIM), PARAMS, rng=0),
            NonPrivateIncremental(L2Ball(DIM)),
            StaticOutput(L2Ball(DIM)),
        ]
        for estimator in estimators:
            with pytest.raises(ValidationError):
                estimator.observe_batch(empty_x, empty_y)

    def test_mismatched_block_shapes_rejected(self):
        estimator = PrivIncReg1(
            horizon=4, constraint=L2Ball(DIM), params=PARAMS, rng=0
        )
        with pytest.raises(ValidationError):
            estimator.observe_batch(np.zeros((3, DIM)), np.zeros(2))
        with pytest.raises(ValidationError):
            estimator.observe_batch(np.zeros((3, DIM + 1)), np.zeros(3))

    def test_domain_violation_rejected_in_batch(self):
        estimator = PrivIncReg1(
            horizon=4, constraint=L2Ball(DIM), params=PARAMS, rng=0
        )
        from repro.exceptions import DomainViolationError

        bad_x = np.zeros((2, DIM))
        bad_x[1, 0] = 1.5  # ‖x‖ > 1 breaks the sensitivity calibration
        with pytest.raises(DomainViolationError):
            estimator.observe_batch(bad_x, np.zeros(2))

    def test_hybrid_rejects_bad_block_atomically(self):
        """A NaN in a later epoch piece must not consume earlier pieces."""
        mech = HybridMechanism((2,), 2.0, PARAMS, rng=0)
        step(mech, np.ones(2) * 0.1)  # epoch 1 now exactly full
        block = np.full((3, 2), 0.1)
        block[2, 0] = float("nan")
        epochs_before = mech._completed_epochs
        sum_before = mech.current_sum().copy()
        with pytest.raises(ValidationError):
            mech.advance_batch(block)
        assert mech.steps_taken == 1
        assert mech._completed_epochs == epochs_before
        np.testing.assert_array_equal(mech.current_sum(), sum_before)

    def test_robust_counters_untouched_by_rejected_block(self):
        robust = RobustPrivIncReg(
            horizon=8,
            constraint=L1Ball(DIM),
            good_domain=SparseVectors(DIM, 2),
            params=PARAMS,
            # Accept-everything oracle: the over-norm row reaches the inner
            # mechanism unsubstituted and the whole block is rejected there.
            membership_oracle=lambda x: True,
            rng=0,
        )
        from repro.exceptions import DomainViolationError

        bad_x = np.zeros((2, DIM))
        bad_x[:, 0] = 1.0
        bad_x[0, 1] = 1.0  # row 0: ‖x‖ = √2 > 1 → inner rejects the block
        with pytest.raises(DomainViolationError):
            robust.observe_batch(bad_x, np.zeros(2))
        assert robust.accepted == 0
        assert robust.substituted == 0


class TestShardedK1Equivalence:
    """PR-1 safety net, extended: a one-shard serving front is the batched path.

    ``ShardedStream(K=1)`` with exact ingest spawns its trees exactly like
    ``PrivIncReg1`` (children of ``rng.spawn(2)``), advances them with the
    rng-identical ``advance_batch``, and refreshes at block boundaries — so
    routing the same stream through it must reproduce the plain batched
    path bit for bit, block by block.
    """

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_bit_identical_with_plain_batched_path(self, stream, batch):
        from repro import ShardedStream

        plain = PrivIncReg1(
            horizon=T,
            constraint=L2Ball(DIM),
            params=PARAMS,
            iteration_cap=25,
            solve_every=batch,
            rng=7,
        )
        reference = np.stack(
            [
                plain.observe_batch(stream.xs[s:e], stream.ys[s:e])
                for s, e in _blocks(T, batch)
            ]
        )
        server = ShardedStream(
            L2Ball(DIM),
            PARAMS,
            shards=1,
            horizon=T,
            iteration_cap=25,
            rng=7,
        )
        served = np.stack(
            [
                np.asarray(server.observe_batch(stream.xs[s:e], stream.ys[s:e]))
                for s, e in _blocks(T, batch)
            ]
        )
        np.testing.assert_array_equal(reference, served)
