"""Tests for the robust (oracle-filtered) extension of Algorithm 3."""

import numpy as np
import pytest

from repro import L1Ball, PrivacyParams, RobustPrivIncReg, SparseVectors
from repro.data import make_mixed_width_stream
from repro.exceptions import DomainViolationError, StreamExhaustedError

NORMAL = PrivacyParams(1.0, 1e-6)


def _mechanism(horizon=12, dim=24, sparsity=3, **kwargs):
    kwargs.setdefault("rng", 0)
    kwargs.setdefault("solve_every", 4)
    return RobustPrivIncReg(
        horizon=horizon,
        constraint=L1Ball(dim),
        good_domain=SparseVectors(dim, sparsity),
        params=NORMAL,
        **kwargs,
    )


class TestFiltering:
    def test_counts_substitutions(self):
        mech = _mechanism()
        dim = 24
        sparse_x = np.zeros(dim)
        sparse_x[0] = 0.9
        dense_x = np.ones(dim) / np.sqrt(dim)
        mech.observe(sparse_x, 0.1)
        mech.observe(dense_x, 0.1)
        mech.observe(sparse_x, -0.1)
        assert mech.accepted == 2
        assert mech.substituted == 1
        assert mech.substitution_rate() == pytest.approx(1.0 / 3.0)

    def test_substituted_points_do_not_move_moments(self):
        """A filtered point must act exactly like a (0, 0) stream element:
        two mechanisms fed (outlier) vs (0,0) produce identical outputs."""
        dim = 24
        dense_x = np.ones(dim) / np.sqrt(dim)

        mech_a = _mechanism(rng=5)
        mech_b = _mechanism(rng=5)
        out_a = mech_a.observe(dense_x, 0.7)
        out_b = mech_b.inner.observe(np.zeros(dim), 0.0)
        np.testing.assert_array_equal(out_a, out_b)

    def test_custom_oracle(self):
        dim = 24
        calls = []

        def oracle(x):
            calls.append(x.copy())
            return bool(np.count_nonzero(x) <= 3)

        mech = _mechanism(membership_oracle=oracle)
        sparse_x = np.zeros(dim)
        sparse_x[1] = 0.5
        mech.observe(sparse_x, 0.2)
        assert len(calls) == 1
        assert mech.accepted == 1

    def test_refused_points_are_not_counted(self):
        """A point the inner mechanism refuses moves no counter: past the
        horizon, and with |y| > 1."""
        dim = 24
        sparse_x = np.zeros(dim)
        sparse_x[0] = 0.9
        mech = _mechanism(horizon=2)
        mech.observe(sparse_x, 0.1)
        mech.observe(sparse_x, 0.1)
        with pytest.raises(StreamExhaustedError):
            mech.observe(sparse_x, 0.1)
        assert (mech.accepted, mech.substituted, mech.steps_taken) == (2, 0, 2)

        mech = _mechanism()
        with pytest.raises(DomainViolationError):
            mech.observe(sparse_x, 1.5)
        assert (mech.accepted, mech.substituted, mech.steps_taken) == (0, 0, 0)

    def test_width_sized_by_good_domain(self):
        """The projection must be sized by w(G), not by the full √d width."""
        mech = _mechanism(dim=24, sparsity=2)
        g_width = SparseVectors(24, 2).gaussian_width()
        c_width = L1Ball(24).gaussian_width()
        assert mech.inner.total_width == pytest.approx(g_width + c_width)


class TestEndToEnd:
    def test_runs_over_mixed_stream(self):
        dim = 24
        stream, in_g = make_mixed_width_stream(
            12, dim, sparsity=3, outlier_fraction=0.3, rng=1
        )
        mech = _mechanism(horizon=12, dim=dim, rng=2)
        ball = L1Ball(dim)
        for x, y in stream:
            theta = mech.observe(x, y)
            assert ball.contains(theta, tol=1e-5)
        # The oracle-filter statistics must agree with the generator's mask.
        assert mech.accepted == int(in_g.sum())
        assert mech.substituted == int((~in_g).sum())

    def test_steps_counted_for_all_points(self):
        mech = _mechanism(horizon=5)
        dim = 24
        for _ in range(5):
            mech.observe(np.ones(dim) / np.sqrt(dim), 0.0)  # all outliers
        assert mech.steps_taken == 5
        assert mech.substitution_rate() == 1.0
