"""Tests for the four training objectives and the composite."""

import numpy as np
import pytest

from fuzzformer import autodiff as ad
from fuzzformer import fuzzy
from fuzzformer.autodiff import Tensor, parameter
from fuzzformer.exceptions import ShapeError
from fuzzformer.losses import balance_loss, fcm_loss, mse_loss, overlap_loss

from fuzzy_oracle import from_covariance
from gradcheck import check_gradients


class TestMseLoss:
    def test_perfect_forecast_is_zero(self):
        y = Tensor(np.arange(6.0).reshape(2, 3))
        assert mse_loss(y, Tensor(y.data.copy())).item() == 0.0

    def test_unit_residuals_sum_over_horizon(self):
        pred = Tensor(np.ones((1, 30)))
        target = Tensor(np.zeros((1, 30)))
        assert mse_loss(pred, target).item() == pytest.approx(30.0)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(0)
        target = Tensor(rng.normal(size=(4, 5)))
        resid = rng.normal(size=(4, 5))
        l1 = mse_loss(Tensor(target.data + resid), target).item()
        l2 = mse_loss(Tensor(target.data + 2 * resid), target).item()
        assert l2 == pytest.approx(4.0 * l1, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def _membership_pieces(z, centers_arr, factors_arr):
    centers = Tensor(np.asarray(centers_arr, float))
    factors = Tensor(np.asarray(factors_arr, float))
    cov = fuzzy.covariances_graph(factors)
    return fuzzy.memberships_graph(Tensor(np.asarray(z, float)), centers, cov)


def _iso_factors(n_rules, dim, std=1.0):
    scale = np.sqrt(std**2 - fuzzy.COV_EPS)
    return np.tile(scale * np.eye(dim), (n_rules, 1, 1))


class TestFcmLoss:
    def test_collapsed_data_is_zero(self):
        mu = np.array([[0.5, -0.5]])
        z = np.tile(mu, (6, 1))
        psi, diffs = _membership_pieces(z, mu, _iso_factors(1, 2))
        assert fcm_loss(psi, diffs).item() == pytest.approx(0.0, abs=1e-15)

    def test_single_cluster_distance_two(self):
        mu = np.array([[0.0, 0.0]])
        z = np.array([[2.0, 0.0]])
        psi, diffs = _membership_pieces(z, mu, _iso_factors(1, 2))
        assert fcm_loss(psi, diffs).item() == pytest.approx(4.0, rel=1e-12)

    def test_symmetric_midpoint(self):
        mu = np.array([[-1.0, 0.0], [1.0, 0.0]])
        z = np.array([[0.0, 0.0]])
        psi, diffs = _membership_pieces(z, mu, _iso_factors(2, 2))
        # both weights 0.5, both distances r^2=1 -> loss = r^2
        assert fcm_loss(psi, diffs).item() == pytest.approx(1.0, rel=1e-12)


class TestOverlapLoss:
    def _pairs(self, clusters):
        centers = Tensor(np.stack([c.center for c in clusters]))
        factors = Tensor(np.stack([c.factor for c in clusters]))
        cov = fuzzy.covariances_graph(factors)
        n = len(clusters)
        idx_m, idx_n = np.triu_indices(n, k=1)
        return fuzzy.bhattacharyya_pairs_graph(centers, cov, idx_m, idx_n)

    def test_two_unit_clusters(self):
        a = from_covariance([0.0], [[1.0]])
        b = from_covariance([1.0], [[1.0]])
        loss = overlap_loss(self._pairs([a, b]))
        assert loss.item() == pytest.approx(16.0, abs=1e-9)

    def test_separation_decreases_loss(self):
        a = from_covariance([0.0], [[1.0]])
        near = from_covariance([1.0], [[1.0]])
        far = from_covariance([3.0], [[1.0]])
        assert overlap_loss(self._pairs([a, far])).item() < overlap_loss(self._pairs([a, near])).item()

    def test_single_cluster_zero(self):
        assert overlap_loss(Tensor(np.zeros(0))).item() == 0.0

    def test_floor_survives_coincident_clusters(self):
        a = from_covariance([0.0], [[1.0]])
        loss = overlap_loss(self._pairs([a, a]))
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(2.0 / fuzzy.OVERLAP_FLOOR)


class TestBalanceLoss:
    def test_uniform_assignment_zero(self):
        psi = Tensor(np.full((8, 4), 0.25))
        assert balance_loss(psi).item() == pytest.approx(0.0, abs=1e-15)

    def test_one_hot_collapse_gives_log_c(self):
        psi = np.zeros((5, 2))
        psi[:, 0] = 1.0
        assert balance_loss(Tensor(psi)).item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            w = rng.random((6, 4))
            psi = w / w.sum(axis=1, keepdims=True)
            assert balance_loss(Tensor(psi)).item() >= -1e-15

    def test_permutation_invariant_in_rule_index(self):
        rng = np.random.default_rng(2)
        w = rng.random((6, 5))
        psi = w / w.sum(axis=1, keepdims=True)
        perm = rng.permutation(5)
        a = balance_loss(Tensor(psi)).item()
        b = balance_loss(Tensor(psi[:, perm])).item()
        assert a == pytest.approx(b, rel=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        logits = parameter(rng.normal(size=(4, 3)))
        check_gradients(lambda: balance_loss(ad.softmax(logits, axis=1)), [logits])
