"""Tests for the stream model, adjacency helpers, and metrics."""

import numpy as np
import pytest

from repro import ExcessRiskTrace, RegressionStream
from repro.exceptions import DomainViolationError


def replace_point(stream, index, x, y):
    """A neighboring stream (the paper's Definition 4: one datapoint
    changed): position ``index`` replaced by ``(x, y)``.  The stream
    constructor re-checks the unit normalization of the replacement."""
    if not 0 <= index < stream.length:
        raise ValueError(f"index {index} out of range for stream of length {stream.length}")
    xs, ys = stream.xs.copy(), stream.ys.copy()
    xs[index], ys[index] = x, y
    return RegressionStream(xs, ys, stream.theta_star)


def is_neighbor(a, b, tol=0.0):
    """Whether two streams differ in at most one position (Definition 4)."""
    if a.length != b.length or a.dim != b.dim:
        return False
    differing = np.any(np.abs(a.xs - b.xs) > tol, axis=1) | (np.abs(a.ys - b.ys) > tol)
    return int(differing.sum()) <= 1


def _valid_stream(length=5, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(length, dim))
    xs /= np.maximum(np.linalg.norm(xs, axis=1, keepdims=True), 1.0) * 1.1
    ys = rng.uniform(-1, 1, size=length)
    return RegressionStream(xs, ys)


class TestRegressionStream:
    def test_basic_properties(self):
        stream = _valid_stream(7, 4)
        assert stream.length == 7
        assert stream.dim == 4
        assert len(stream) == 7

    def test_iteration_order(self):
        stream = _valid_stream()
        points = list(stream)
        assert len(points) == 5
        np.testing.assert_array_equal(points[0][0], stream.xs[0])
        assert points[0][1] == pytest.approx(float(stream.ys[0]))

    def test_rejects_large_covariate(self):
        xs = np.zeros((2, 2))
        xs[0] = [1.5, 0.0]
        with pytest.raises(DomainViolationError, match="covariate norm"):
            RegressionStream(xs, np.zeros(2))

    def test_rejects_large_response(self):
        with pytest.raises(DomainViolationError, match="response"):
            RegressionStream(np.zeros((2, 2)), np.array([0.0, 1.5]))

    def test_rejects_nan(self):
        xs = np.zeros((2, 2))
        xs[0, 0] = float("nan")
        with pytest.raises(DomainViolationError, match="finite"):
            RegressionStream(xs, np.zeros(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainViolationError):
            RegressionStream(np.zeros((3, 2)), np.zeros(4))

    def test_prefix(self):
        stream = _valid_stream(6)
        prefix = stream.prefix(3)
        assert prefix.length == 3
        np.testing.assert_array_equal(prefix.xs, stream.xs[:3])

    def test_prefix_bounds_checked(self):
        stream = _valid_stream(4)
        with pytest.raises(ValueError):
            stream.prefix(5)

    def test_normalized_rescales(self):
        xs = np.ones((3, 2)) * 2.0
        ys = np.array([3.0, -3.0, 1.5])
        stream = RegressionStream.normalized(xs, ys)
        assert np.linalg.norm(stream.xs, axis=1).max() <= 1.0 + 1e-12
        assert np.abs(stream.ys).max() <= 1.0 + 1e-12

    def test_normalized_keeps_small_data(self):
        xs = np.eye(2) * 0.5
        ys = np.array([0.2, -0.2])
        stream = RegressionStream.normalized(xs, ys)
        np.testing.assert_array_equal(stream.xs, xs)


class TestAdjacency:
    def test_replace_creates_neighbor(self):
        stream = _valid_stream()
        other = replace_point(stream, 2, np.zeros(3), 0.0)
        assert is_neighbor(stream, other)
        assert not np.array_equal(stream.xs, other.xs)

    def test_stream_is_its_own_neighbor(self):
        stream = _valid_stream()
        assert is_neighbor(stream, stream)

    def test_two_changes_not_neighbors(self):
        stream = _valid_stream()
        other = replace_point(stream, 0, np.zeros(3), 0.0)
        other = replace_point(other, 1, np.zeros(3), 0.0)
        assert not is_neighbor(stream, other)

    def test_different_lengths_not_neighbors(self):
        assert not is_neighbor(_valid_stream(4), _valid_stream(5))

    def test_replace_validates_index(self):
        with pytest.raises(ValueError):
            replace_point(_valid_stream(3), 3, np.zeros(3), 0.0)

    def test_replacement_still_normalized(self):
        stream = _valid_stream()
        with pytest.raises(DomainViolationError):
            replace_point(stream, 0, np.ones(3) * 2, 0.0)


class TestExcessRiskTrace:
    def test_record_and_summaries(self):
        trace = ExcessRiskTrace()
        trace.record(1, 1.0, 0.5)
        trace.record(2, 2.0, 1.9)
        assert trace.max_excess() == pytest.approx(0.5)
        assert trace.final_excess() == pytest.approx(0.1)
        assert trace.mean_excess() == pytest.approx(0.3)
        assert trace.final_optimal_risk() == pytest.approx(1.9)

    def test_negative_excess_floored(self):
        """Solver jitter can make estimator_risk < optimal_risk; clamp to 0."""
        trace = ExcessRiskTrace()
        trace.record(1, 0.5, 0.6)
        assert trace.max_excess() == 0.0

    def test_empty_trace(self):
        trace = ExcessRiskTrace()
        assert trace.max_excess() == 0.0
        assert trace.final_excess() == 0.0
        assert trace.mean_excess() == 0.0

    def test_summary_keys(self):
        trace = ExcessRiskTrace()
        trace.record(1, 1.0, 0.5)
        summary = trace.summary()
        assert set(summary) == {"max_excess", "final_excess", "mean_excess", "final_opt"}
