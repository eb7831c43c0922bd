"""Unit tests for the shared validation helpers."""

import numpy as np
import pytest

from repro._validation import (
    check_finite,
    check_int,
    check_matrix,
    check_non_negative,
    check_positive,
    check_probability,
    check_rng,
    check_sample_weight,
    check_vector,
)
from repro.exceptions import ValidationError


class TestScalarChecks:
    def test_positive_accepts_positive(self):
        assert check_positive("x", 2.5) == 2.5

    def test_positive_rejects_zero(self):
        with pytest.raises(ValidationError, match="must be > 0"):
            check_positive("x", 0.0)

    def test_positive_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive("x", -1.0)

    def test_positive_rejects_nan(self):
        with pytest.raises(ValidationError, match="finite"):
            check_positive("x", float("nan"))

    def test_positive_rejects_inf(self):
        with pytest.raises(ValidationError, match="finite"):
            check_positive("x", float("inf"))

    def test_non_negative_accepts_zero(self):
        assert check_non_negative("x", 0.0) == 0.0

    def test_non_negative_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_non_negative("x", -0.1)

    def test_finite_coerces_int(self):
        result = check_finite("x", 3)
        assert result == 3.0
        assert isinstance(result, float)

    def test_finite_rejects_string(self):
        with pytest.raises(ValidationError):
            check_finite("x", "abc")


class TestProbabilityCheck:
    def test_accepts_interior(self):
        assert check_probability("p", 0.5) == 0.5

    def test_rejects_zero_by_default(self):
        with pytest.raises(ValidationError):
            check_probability("p", 0.0)

    def test_allows_zero_when_enabled(self):
        assert check_probability("p", 0.0, allow_zero=True) == 0.0

    def test_rejects_one(self):
        with pytest.raises(ValidationError):
            check_probability("p", 1.0)

    def test_rejects_above_one(self):
        with pytest.raises(ValidationError):
            check_probability("p", 1.5)


class TestIntCheck:
    def test_accepts_int(self):
        assert check_int("n", 7) == 7

    def test_accepts_numpy_int(self):
        assert check_int("n", np.int64(7)) == 7

    def test_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_int("n", True)

    def test_rejects_float(self):
        with pytest.raises(ValidationError):
            check_int("n", 7.0)

    def test_enforces_minimum(self):
        with pytest.raises(ValidationError, match=">= 2"):
            check_int("n", 1, minimum=2)


class TestArrayChecks:
    def test_vector_accepts_list(self):
        result = check_vector("v", [1.0, 2.0])
        assert isinstance(result, np.ndarray)
        assert result.shape == (2,)

    def test_vector_rejects_matrix(self):
        with pytest.raises(ValidationError, match="1-D"):
            check_vector("v", np.zeros((2, 2)))

    def test_vector_rejects_nan(self):
        with pytest.raises(ValidationError, match="finite"):
            check_vector("v", [1.0, float("nan")])

    def test_vector_dim_enforced(self):
        with pytest.raises(ValidationError, match="dimension 3"):
            check_vector("v", [1.0, 2.0], dim=3)

    def test_matrix_accepts_2d(self):
        assert check_matrix("m", np.eye(3)).shape == (3, 3)

    def test_matrix_rejects_vector(self):
        with pytest.raises(ValidationError, match="2-D"):
            check_matrix("m", np.zeros(3))

    def test_matrix_shape_enforced(self):
        with pytest.raises(ValidationError):
            check_matrix("m", np.eye(3), shape=(2, 3))


class TestRngCheck:
    def test_none_gives_generator(self):
        assert isinstance(check_rng(None), np.random.Generator)

    def test_int_seeds_deterministically(self):
        a = check_rng(42).normal(size=3)
        b = check_rng(42).normal(size=3)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert check_rng(gen) is gen

    def test_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_rng(True)

    def test_rejects_string(self):
        with pytest.raises(ValidationError):
            check_rng("seed")


class TestSampleWeightCheck:
    def test_int_count_stays_int(self):
        assert check_sample_weight("t", np.int64(5)) == 5
        assert type(check_sample_weight("t", 5)) is int

    def test_weighted_count_is_float(self):
        assert check_sample_weight("t", 2.5) == 2.5

    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_rejects_bool(self, value):
        with pytest.raises(ValidationError, match="positive number"):
            check_sample_weight("t", value)

    @pytest.mark.parametrize("value", [0, -3, 0.0, float("nan"), None])
    def test_rejects_non_positive_or_missing(self, value):
        with pytest.raises(ValidationError):
            check_sample_weight("t", value)


def _moment_estimators():
    from repro import (
        L1Ball,
        L2Ball,
        PrivacyParams,
        PrivIncReg1,
        PrivIncReg2,
        SparseVectors,
        UnboundedPrivIncReg,
    )

    params = PrivacyParams(1.0, 1e-6)
    return [
        PrivIncReg1(horizon=8, constraint=L2Ball(2), params=params, rng=0),
        PrivIncReg2(
            horizon=8, constraint=L1Ball(2), x_domain=SparseVectors(2, 1),
            params=params, projected_dim=2, rng=0,
        ),
        UnboundedPrivIncReg(L2Ball(2), params, rng=0),
    ]


class TestRefreshRejectsBoolTimestep:
    """A bool ``t`` is a caller bug, not the sample count 1: every
    serve-mode refresh hook refuses it before solving."""

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["reg1", "reg2", "unbounded"])
    def test_moment_estimators(self, index):
        estimator = _moment_estimators()[index]
        with pytest.raises(ValidationError):
            estimator.refresh_from_released(True, np.eye(2), np.ones(2))
        assert estimator.estimate_version == 0

    def test_priv_inc_iv(self):
        from repro import L2Ball, PrivacyParams, PrivIncIV

        mech = PrivIncIV(
            horizon=8, constraint=L2Ball(2), instruments=2,
            params=PrivacyParams(1.0, 1e-6), rng=0,
        )
        bundle = {"zz": np.eye(2), "zx": np.eye(2), "zy": np.ones(2)}
        with pytest.raises(ValidationError):
            mech.refresh_from_bundle(True, bundle)
        assert mech.estimate_version == 0
