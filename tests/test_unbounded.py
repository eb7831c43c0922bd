"""Tests for the unknown-horizon regression variant (footnote 13)."""

import numpy as np
import pytest

from repro import L2Ball, PrivacyParams, UnboundedPrivIncReg
from repro.data import make_dense_stream
from repro.exceptions import DomainViolationError

NORMAL = PrivacyParams(1.0, 1e-6)
LOOSE = PrivacyParams(1e6, 1e-2)


class TestNoHorizonNeeded:
    def test_runs_past_any_declared_length(self):
        """The whole point: no horizon parameter exists, streams never end."""
        mech = UnboundedPrivIncReg(L2Ball(3), NORMAL, rng=0)
        x = np.array([0.5, 0.0, 0.0])
        for _ in range(70):  # crosses several epoch boundaries (1,2,4,...,64)
            theta = mech.observe(x, 0.25)
        assert mech.steps_taken == 70
        assert theta.shape == (3,)

    def test_memory_stays_logarithmic(self):
        mech = UnboundedPrivIncReg(L2Ball(4), NORMAL, rng=0)
        x = np.zeros(4)
        for _ in range(20):
            mech.observe(x, 0.0)
        after_20 = mech.memory_floats()
        for _ in range(100):
            mech.observe(x, 0.0)
        # 6x more data: memory grows by at most a couple of tree levels.
        assert mech.memory_floats() < 2 * after_20


class TestBehavior:
    def test_feasible_outputs(self):
        ball = L2Ball(3)
        mech = UnboundedPrivIncReg(ball, NORMAL, rng=1)
        stream = make_dense_stream(12, 3, rng=2)
        for x, y in stream:
            assert ball.contains(mech.observe(x, y), tol=1e-6)

    def test_domain_enforced(self):
        mech = UnboundedPrivIncReg(L2Ball(2), NORMAL, rng=0)
        with pytest.raises(DomainViolationError):
            mech.observe(np.array([2.0, 0.0]), 0.0)

    def test_near_noiseless_learns(self):
        """With ε → ∞ it reduces to PGD on exact moments."""
        ball = L2Ball(3)
        mech = UnboundedPrivIncReg(ball, LOOSE, rng=3, iteration_cap=1500)
        stream = make_dense_stream(48, 3, noise_std=0.0, rng=4)
        for x, y in stream:
            theta = mech.observe(x, y)
        risk = float(np.sum((stream.ys - stream.xs @ theta) ** 2))
        zero_risk = float(np.sum(stream.ys**2))
        assert risk < 0.25 * zero_risk

    def test_gradient_error_grows_slowly_across_epochs(self):
        mech = UnboundedPrivIncReg(L2Ball(3), NORMAL, rng=5)
        x = np.zeros(3)
        errors = []
        for step in range(1, 65):
            mech.observe(x, 0.0)
            if step in (4, 64):
                errors.append(mech.gradient_error())
        assert errors[1] / errors[0] < 8.0  # polylog growth in prefix length

    def test_ledger_charges_both_moment_mechanisms(self):
        mech = UnboundedPrivIncReg(L2Ball(2), NORMAL, rng=8)
        for x, y in make_dense_stream(20, 2, rng=9):
            mech.observe(x, y)
        charges = mech.accountant.charges
        assert [c.label for c in charges] == ["tree:cross-moments", "tree:second-moments"]
        assert mech.accountant.within_budget()
        spent = mech.accountant.spent()
        assert spent.epsilon == pytest.approx(NORMAL.epsilon)
        assert spent.delta == pytest.approx(NORMAL.delta)

    def test_deterministic_with_seed(self):
        stream = make_dense_stream(10, 2, rng=6)

        def run(seed):
            mech = UnboundedPrivIncReg(L2Ball(2), NORMAL, rng=seed)
            return [mech.observe(x, y).copy() for x, y in stream]

        for a, b in zip(run(7), run(7)):
            np.testing.assert_array_equal(a, b)
