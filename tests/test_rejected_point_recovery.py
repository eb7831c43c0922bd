"""Rejected-point recovery: counters must never desync from tree state.

The estimators' ``observe`` and the Hybrid mechanism's ``advance_batch``
commit in tree-first order (trees consume, *then* the step counter bumps —
matching the batch paths).  These tests pin the recovery contract that
ordering buys: after a **caught** rejection

* the estimator/mechanism counter still agrees with its trees' state, and
* subsequent valid ingestion proceeds identically to a never-rejected
  replay (bit-identical releases — the rejection consumed no rng, no
  capacity, no epoch rollover).

Before the fix, ``steps_taken`` bumped *before* the trees ingested, so a
``StreamExhaustedError`` one past the horizon (or, for the Hybrid
mechanism, a non-finite element failing inside the epoch tree after a
possible ``_roll_epoch``) left the counter — and with it solve schedules,
merge coverage, and ``release_noise_variance`` accounting — permanently
off by one per rejection.
"""

import numpy as np
import pytest

from repro import (
    HybridMechanism,
    L2Ball,
    PrivacyParams,
    PrivIncReg1,
    PrivIncReg2,
    UnboundedPrivIncReg,
)
from repro.exceptions import (
    DomainViolationError,
    StreamExhaustedError,
    ValidationError,
)

from releases import step

PARAMS = PrivacyParams(2.0, 1e-6)
DIM = 3
T = 6


def _points(n, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(n, DIM)) * 0.3
    xs /= np.maximum(np.linalg.norm(xs, axis=1, keepdims=True), 1.0)
    ys = np.clip(rng.normal(size=n) * 0.3, -1.0, 1.0)
    return xs, ys


def _reg1(seed=1):
    return PrivIncReg1(
        horizon=T, constraint=L2Ball(DIM), params=PARAMS, iteration_cap=5, rng=seed
    )


def _reg2(seed=1):
    return PrivIncReg2(
        horizon=T,
        constraint=L2Ball(DIM),
        x_domain=L2Ball(DIM),
        params=PARAMS,
        projected_dim=2,
        iteration_cap=5,
        rng=seed,
    )


def _unbounded(seed=1):
    return UnboundedPrivIncReg(
        L2Ball(DIM), PARAMS, iteration_cap=5, rng=seed
    )


class TestEstimatorCountersSurviveRejection:
    @pytest.mark.parametrize("factory", [_reg1, _reg2], ids=["reg1", "reg2"])
    def test_horizon_overrun_leaves_counter_synced(self, factory):
        """One past the horizon: caught, and the books still balance."""
        xs, ys = _points(T + 1)
        mech = factory()
        for x, y in zip(xs[:T], ys[:T]):
            mech.observe(x, float(y))
        with pytest.raises(StreamExhaustedError):
            mech.observe(xs[T], float(ys[T]))
        assert mech.steps_taken == T
        assert mech._tree_cross.steps_taken == T
        assert mech._tree_gram.steps_taken == T
        # The estimator remains a consistent serve-mode solver afterwards.
        theta = mech.current_estimate()
        assert np.all(np.isfinite(theta))

    @pytest.mark.parametrize(
        "factory", [_reg1, _reg2, _unbounded], ids=["reg1", "reg2", "unbounded"]
    )
    def test_midstream_rejection_matches_unrejected_replay(self, factory):
        """Rejections between valid points must not perturb the run."""
        xs, ys = _points(T)
        bad_x = np.full(DIM, 5.0)  # ‖x‖ > 1
        nan_x = np.full(DIM, np.nan)

        rejected = factory(seed=9)
        clean = factory(seed=9)
        for i, (x, y) in enumerate(zip(xs, ys)):
            if i in (1, 4):
                with pytest.raises(DomainViolationError):
                    rejected.observe(bad_x, 0.0)
                with pytest.raises(ValidationError):
                    rejected.observe(nan_x, 0.0)
                with pytest.raises(ValidationError):
                    rejected.observe(x[:-1], 0.0)  # wrong dimension
            got = rejected.observe(x, float(y))
            want = clean.observe(x, float(y))
            np.testing.assert_array_equal(got, want)
        assert rejected.steps_taken == clean.steps_taken == T
        assert rejected._tree_cross.steps_taken == clean._tree_cross.steps_taken
        assert rejected.estimate_version == clean.estimate_version

    @pytest.mark.parametrize("factory", [_reg1, _reg2], ids=["reg1", "reg2"])
    def test_rejected_batch_then_valid_batch_matches_replay(self, factory):
        xs, ys = _points(T)
        rejected = factory(seed=5)
        clean = factory(seed=5)
        rejected.observe_batch(xs[:2], ys[:2])
        clean.observe_batch(xs[:2], ys[:2])
        with pytest.raises(StreamExhaustedError):
            rejected.observe_batch(xs, ys)  # 2 + 6 > T: atomic refusal
        got = rejected.observe_batch(xs[2:], ys[2:])
        want = clean.observe_batch(xs[2:], ys[2:])
        np.testing.assert_array_equal(got, want)
        assert rejected.steps_taken == T


class TestHybridMechanismRejection:
    def test_nonfinite_element_is_rejected_before_any_state_moves(self):
        mech = HybridMechanism(shape=(2,), l2_sensitivity=1.0, params=PARAMS, rng=0)
        for _ in range(3):
            step(mech, np.ones(2))
        epochs_before = mech._completed_epochs
        variance_before = mech.release_noise_variance()
        bad = np.array([1.0, np.nan])
        with pytest.raises(ValidationError):
            step(mech, bad)
        assert mech.steps_taken == 3
        assert mech._completed_epochs == epochs_before
        assert mech.release_noise_variance() == variance_before

    def test_rejection_at_epoch_boundary_does_not_roll_the_epoch(self):
        """The historic worst case: element 4 arrives when epoch 2 is full.

        The old code rolled the epoch (freezing the finished tree) and
        bumped ``steps_taken`` before the tree's own validation rejected
        the non-finite element — corrupting the epoch bookkeeping that
        ``release_noise_variance`` and merge coverage are built on.
        """
        mech = HybridMechanism(shape=(), l2_sensitivity=1.0, params=PARAMS, rng=1)
        for _ in range(3):  # epochs of horizon 1 and 2 are now exactly full
            step(mech, 1.0)
        assert mech._current_tree.steps_taken == mech._current_tree.horizon
        epochs_before = mech._completed_epochs
        with pytest.raises(ValidationError):
            step(mech, float("inf"))
        # No rollover, no counter bump: the rejection consumed nothing.
        assert mech._completed_epochs == epochs_before
        assert mech.steps_taken == 3

    def test_counter_always_agrees_with_epoch_tree_mass(self):
        mech = HybridMechanism(shape=(2,), l2_sensitivity=1.0, params=PARAMS, rng=2)
        ingested = 0
        rng = np.random.default_rng(3)
        for i in range(12):
            if i % 4 == 1:
                with pytest.raises(ValidationError):
                    step(mech, np.full(2, np.nan))
                with pytest.raises(ValidationError):
                    step(mech, np.zeros(3))  # wrong shape
            step(mech, rng.normal(size=2))
            ingested += 1
            frozen_mass = 2 ** mech._epoch_index - 1
            assert mech.steps_taken == ingested
            assert mech.steps_taken == frozen_mass + mech._current_tree.steps_taken

    def test_rejections_leave_the_release_stream_bit_identical(self):
        rejected = HybridMechanism(shape=(2,), l2_sensitivity=1.0, params=PARAMS, rng=7)
        clean = HybridMechanism(shape=(2,), l2_sensitivity=1.0, params=PARAMS, rng=7)
        rng = np.random.default_rng(11)
        for i in range(10):
            value = rng.normal(size=2)
            if i in (0, 3, 7):  # includes epoch-boundary steps
                with pytest.raises(ValidationError):
                    step(rejected, np.full(2, np.inf))
            np.testing.assert_array_equal(
                step(rejected, value), step(clean, value)
            )
        assert rejected.release_noise_variance() == clean.release_noise_variance()
