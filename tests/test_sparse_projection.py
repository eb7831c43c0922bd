"""Property tests for the sparse-JL projection (footnote 16).

``SparseProjection`` is the sketch backend's shared ``Φ``: only its draw
is sparse (it is applied as a dense product), privacy is pinned by the
Step-4 rescaling, and the realized matrix is what process/tcp spawn
payloads carry.  These properties keep the construction honest:

* ``apply`` is *exactly* the explicit matrix product, for vectors and
  row batches — no fused shortcut may change the bits the moment streams
  (and their replay twins) are built from;
* entries are non-zero with probability ``1/s`` (Achlioptas sampling), so
  ``nonzero_fraction`` concentrates near ``1/s`` over seeds;
* ``s = 1`` degenerates to the dense ±``√(1/m)`` Rademacher projection;
* squared norms are preserved to JL distortion at Gordon-sized ``m``,
  uniformly over seeds;
* pickle round-trips bit-identically.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import SparseProjection
from repro.exceptions import ValidationError


def _unit_rows(n, d, seed):
    rows = np.random.default_rng(seed).normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestApplyIsTheMatrixProduct:
    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(min_value=1, max_value=24),
        m=st.integers(min_value=1, max_value=12),
        s=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_vector_and_batch_apply_equal_explicit_matmul(self, d, m, s, seed):
        projection = SparseProjection(d, m, sparsity_factor=s, rng=seed)
        vec = np.random.default_rng(seed + 1).normal(size=d)
        batch = np.random.default_rng(seed + 2).normal(size=(5, d))
        np.testing.assert_array_equal(projection.apply(vec), projection.matrix @ vec)
        np.testing.assert_array_equal(
            projection.apply(batch), batch @ projection.matrix.T
        )

    def test_apply_rejects_wrong_dim(self):
        projection = SparseProjection(4, 2, rng=0)
        with pytest.raises(ValidationError):
            projection.apply(np.zeros(5))
        with pytest.raises(ValidationError):
            projection.apply(np.zeros((3, 5)))


class TestSparsityPattern:
    @pytest.mark.parametrize("s", [1, 2, 3, 5])
    def test_nonzero_fraction_concentrates_near_one_over_s(self, s):
        """Each entry is non-zero w.p. 1/s: over seeds the realized
        fraction of a (64, 128) matrix stays within 5 binomial standard
        deviations of 1/s."""
        m, d = 64, 128
        p = 1.0 / s
        tolerance = 5.0 * math.sqrt(p * (1.0 - p) / (m * d))
        for seed in range(10):
            projection = SparseProjection(d, m, sparsity_factor=s, rng=seed)
            assert abs(projection.nonzero_fraction() - p) <= tolerance

    def test_s1_recovers_the_dense_rademacher_projection(self):
        """``s = 1``: every entry is ±√(1/m), nothing is zero."""
        m, d = 8, 20
        projection = SparseProjection(d, m, sparsity_factor=1, rng=7)
        assert projection.nonzero_fraction() == 1.0
        np.testing.assert_allclose(
            np.abs(projection.matrix), np.full((m, d), math.sqrt(1.0 / m))
        )

    def test_nonzero_values_are_plus_minus_sqrt_s_over_m(self):
        m, d, s = 16, 40, 3
        projection = SparseProjection(d, m, sparsity_factor=s, rng=11)
        nonzero = projection.matrix[projection.matrix != 0.0]
        assert nonzero.size > 0
        np.testing.assert_allclose(np.abs(nonzero), math.sqrt(s / m))

    def test_sparsity_factor_validated(self):
        with pytest.raises(ValidationError):
            SparseProjection(4, 2, sparsity_factor=0)
        with pytest.raises(ValidationError):
            SparseProjection(4, 2, sparsity_factor=1.5)


class TestDistortion:
    @pytest.mark.parametrize("s", [1, 3])
    def test_jl_distortion_bounded_over_seeds(self, s):
        """At a generous ``m`` the squared-norm distortion of a fixed
        point set stays below 1/2 for every seed — the empirical stand-in
        for the Bourgain-Dirksen-Nelson embedding guarantee the paper
        cites for sparse Φ."""
        d, m, n = 48, 256, 12
        points = _unit_rows(n, d, seed=123)
        for seed in range(8):
            projection = SparseProjection(d, m, sparsity_factor=s, rng=seed)
            assert projection.distortion(points) < 0.5

    def test_distortion_of_zero_points_is_zero(self):
        projection = SparseProjection(6, 4, rng=0)
        assert projection.distortion(np.zeros((3, 6))) == 0.0


class TestPickleFidelity:
    def test_round_trip_is_bit_identical(self):
        """A pickled ``Φ`` (e.g. a persisted one) comes back with the
        same dims, the same ``s``, and the same matrix bits."""
        projection = SparseProjection(32, 8, sparsity_factor=3, rng=99)
        clone = pickle.loads(pickle.dumps(projection))
        assert clone.original_dim == projection.original_dim
        assert clone.projected_dim == projection.projected_dim
        assert clone.sparsity_factor == projection.sparsity_factor
        np.testing.assert_array_equal(clone.matrix, projection.matrix)
        vec = np.random.default_rng(1).normal(size=32)
        np.testing.assert_array_equal(clone.apply(vec), projection.apply(vec))

    def test_round_trip_preserves_step4_rescaling(self):
        projection = SparseProjection(16, 6, sparsity_factor=2, rng=5)
        clone = pickle.loads(pickle.dumps(projection))
        xs = _unit_rows(4, 16, seed=3) * 0.9
        np.testing.assert_array_equal(
            clone.rescale_covariates(xs), projection.rescale_covariates(xs)
        )
