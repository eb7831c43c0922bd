"""Failure-injection tests: bad inputs must fail loudly, never corrupt state.

A privacy library has a special obligation here — a silently accepted
out-of-domain point would invalidate the sensitivity analysis rather than
just produce a wrong number.  These tests verify that every rejection
happens *before* any internal state (trees, histories, accountants) is
mutated.
"""

import numpy as np
import pytest

from repro import (
    L1Ball,
    L2Ball,
    NoisySGD,
    PrivacyParams,
    PrivIncERM,
    PrivIncReg1,
    PrivIncReg2,
    SparseVectors,
    SquaredLoss,
    TreeMechanism,
)
from repro.exceptions import (
    DomainViolationError,
    LiftingError,
    StreamExhaustedError,
    ValidationError,
)
from repro.sketching.lifting import lift_l1_basis_pursuit

from releases import step

NORMAL = PrivacyParams(1.0, 1e-6)


class TestRejectionsLeaveStateUntouched:
    def test_reg1_rejects_without_consuming_tree_capacity(self):
        mech = PrivIncReg1(horizon=2, constraint=L2Ball(2), params=NORMAL, rng=0)
        with pytest.raises(DomainViolationError):
            mech.observe(np.array([5.0, 0.0]), 0.0)
        # The failed point must not have consumed a tree slot: both valid
        # observations still fit.
        mech.observe(np.array([0.5, 0.0]), 0.1)
        mech.observe(np.array([0.0, 0.5]), 0.1)
        assert mech.steps_taken == 2

    def test_reg1_rejects_nan_covariate(self):
        mech = PrivIncReg1(horizon=2, constraint=L2Ball(2), params=NORMAL, rng=0)
        with pytest.raises(ValidationError):
            mech.observe(np.array([float("nan"), 0.0]), 0.0)
        assert mech.steps_taken == 0

    def test_reg2_rejects_without_state_change(self):
        mech = PrivIncReg2(
            horizon=2,
            constraint=L1Ball(6),
            x_domain=SparseVectors(6, 2),
            params=NORMAL,
            rng=0,
        )
        before = mech.current_estimate()
        with pytest.raises(DomainViolationError):
            mech.observe(np.ones(6), 0.0)  # norm √6 > 1
        np.testing.assert_array_equal(mech.current_estimate(), before)
        assert mech.steps_taken == 0

    def test_erm_rejects_wrong_dimension(self):
        ball = L2Ball(3)
        mech = PrivIncERM(
            horizon=4,
            constraint=ball,
            params=NORMAL,
            tau=2,
            solver_factory=lambda b: NoisySGD(SquaredLoss(), ball, b, rng=0),
        )
        with pytest.raises(ValidationError):
            mech.observe(np.zeros(4), 0.0)
        assert mech.steps_taken == 0
        assert len(mech._xs) == 0

    def test_tree_exhaustion_preserves_last_release(self):
        mech = TreeMechanism(1, (1,), 1.0, NORMAL, rng=0)
        released = step(mech, np.array([0.5]))
        with pytest.raises(StreamExhaustedError):
            step(mech, np.array([0.5]))
        np.testing.assert_array_equal(mech.current_sum(), released)


class TestLiftingFailures:
    def test_infeasible_lp_raises_lifting_error(self):
        """A zero projection matrix cannot reach a non-zero target."""
        phi = np.zeros((3, 6))
        with pytest.raises(LiftingError):
            lift_l1_basis_pursuit(phi, np.array([1.0, 0.0, 0.0]))

    def test_shape_mismatch_raises_validation(self):
        rng = np.random.default_rng(0)
        phi = rng.normal(size=(3, 6))
        with pytest.raises(ValidationError):
            lift_l1_basis_pursuit(phi, np.zeros(4))


class TestConstructorValidation:
    def test_bad_horizon(self):
        with pytest.raises(ValidationError):
            PrivIncReg1(horizon=0, constraint=L2Ball(2), params=NORMAL)

    def test_bad_beta(self):
        with pytest.raises(ValidationError):
            PrivIncReg1(horizon=4, constraint=L2Ball(2), params=NORMAL, beta=1.5)

    def test_bad_solve_every(self):
        with pytest.raises(ValidationError):
            PrivIncReg2(
                horizon=4,
                constraint=L1Ball(6),
                x_domain=SparseVectors(6, 2),
                params=NORMAL,
                solve_every=0,
            )

    def test_bad_tau(self):
        ball = L2Ball(2)
        with pytest.raises(ValidationError):
            PrivIncERM(
                horizon=4,
                constraint=ball,
                params=NORMAL,
                tau=0,
                solver_factory=lambda b: NoisySGD(SquaredLoss(), ball, b),
            )
