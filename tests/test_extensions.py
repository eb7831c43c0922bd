"""Tests for the extension modules: sparse JL, RDP accounting."""

import math

import numpy as np
import pytest

from repro.privacy import PrivacyParams, RdpAccountant, gaussian_rdp, rdp_to_dp
from repro.privacy.mechanisms import gaussian_sigma
from repro.sketching import SparseProjection


class TestSparseProjection:
    def test_sparsity_fraction(self):
        proj = SparseProjection(200, 50, sparsity_factor=4, rng=0)
        assert proj.nonzero_fraction() == pytest.approx(0.25, abs=0.03)

    def test_dense_when_s_is_one(self):
        proj = SparseProjection(50, 20, sparsity_factor=1, rng=1)
        assert proj.nonzero_fraction() == 1.0

    def test_norm_preservation_for_fixed_points(self):
        proj = SparseProjection(400, 150, sparsity_factor=3, rng=2)
        rng = np.random.default_rng(3)
        points = rng.normal(size=(20, 400))
        assert proj.distortion(points) < 0.5

    def test_rescale_pins_projected_norm(self):
        proj = SparseProjection(60, 20, rng=4)
        x = np.random.default_rng(5).normal(size=60)
        x /= np.linalg.norm(x) * 2
        _, projected = proj.rescale_covariate(x)
        assert np.linalg.norm(projected) == pytest.approx(np.linalg.norm(x))

    def test_batch_apply_matches_loop(self):
        proj = SparseProjection(30, 10, rng=6)
        batch = np.random.default_rng(7).normal(size=(5, 30))
        batched = proj.apply(batch)
        for i in range(5):
            np.testing.assert_allclose(batched[i], proj.apply(batch[i]))

    def test_apply_rejects_bad_dim(self):
        proj = SparseProjection(30, 10, rng=8)
        with pytest.raises(Exception):
            proj.apply(np.zeros(29))


class TestRdpAccounting:
    def test_gaussian_rdp_formula(self):
        assert gaussian_rdp(2.0, 4.0, order=3.0) == pytest.approx(3 * 4 / 32)

    def test_rejects_order_one(self):
        with pytest.raises(ValueError):
            gaussian_rdp(1.0, 1.0, order=1.0)

    def test_conversion_formula(self):
        assert rdp_to_dp(order=2.0, rho=0.5, delta=1e-6) == pytest.approx(
            0.5 + math.log(1e6)
        )

    def test_additivity(self):
        one = RdpAccountant()
        one.add_gaussian(1.0, 5.0, count=10)
        ten = RdpAccountant()
        for _ in range(10):
            ten.add_gaussian(1.0, 5.0)
        for order in one.orders:
            assert one.rho(order) == pytest.approx(ten.rho(order))

    def test_beats_advanced_composition_for_long_gaussian_chains(self):
        """The extension's raison d'être: for many Gaussian releases, RDP
        composition is tighter than Theorem A.4."""
        from repro.privacy.composition import advanced_composition

        delta = 1e-6
        k = 200
        per_step = PrivacyParams(0.1, delta / (2 * k))
        sigma = gaussian_sigma(1.0, per_step)

        thm_a4 = advanced_composition(per_step, k, delta_slack=delta / 2).epsilon

        rdp = RdpAccountant()
        rdp.add_gaussian(1.0, sigma, count=k)
        assert rdp.epsilon(delta) < thm_a4

    def test_tree_mechanism_cost(self):
        acct = RdpAccountant()
        cost = acct.tree_mechanism_cost(
            levels=10, node_sigma=50.0, l2_sensitivity=2.0, delta=1e-6
        )
        assert cost > 0
        # Probing must not mutate the accountant.
        assert all(acct.rho(order) == 0.0 for order in acct.orders)

    def test_as_privacy_params(self):
        acct = RdpAccountant()
        acct.add_gaussian(1.0, 10.0)
        params = acct.as_privacy_params(1e-6)
        assert params.delta == 1e-6
        assert params.epsilon == pytest.approx(acct.epsilon(1e-6))
