"""Tests for Gaussian-cluster antecedents: distances, memberships, overlap."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzformer import autodiff as ad
from fuzzformer import fuzzy
from fuzzformer.autodiff import Tensor, parameter
from fuzzformer.exceptions import PositiveDefinitenessError
from fuzzformer.fuzzy import GaussianCluster, memberships

from fuzzy_oracle import bhattacharyya, from_covariance, hardmax_rule, mahalanobis_sq
from gradcheck import check_gradients


def cluster(center, cov):
    return from_covariance(np.asarray(center, float), np.asarray(cov, float))


def stacked(*clusters):
    """(centers, covariances) tensors of a rule bank, as the model builds them."""
    centers = Tensor(np.stack([c.center for c in clusters]))
    return centers, fuzzy.covariances_graph(Tensor(np.stack([c.factor for c in clusters])))


def both_orders(a, b):
    """The graph distance of the pair (a, b) and of the pair (b, a)."""
    pairs = fuzzy.bhattacharyya_pairs_graph(*stacked(a, b), np.array([0, 1]), np.array([1, 0]))
    return tuple(pairs.data)


def random_cluster(rng, dim=2, spread=2.0):
    m = rng.normal(size=(dim, dim))
    cov = m @ m.T + 0.3 * np.eye(dim)
    return cluster(rng.normal(scale=spread, size=dim), cov)


class TestMahalanobis:
    def test_center_distance_zero(self):
        c = cluster([1.0, -2.0], np.eye(2))
        assert mahalanobis_sq([1.0, -2.0], c) == pytest.approx(0.0, abs=1e-12)

    def test_identity_covariance_reduces_to_euclidean(self):
        c = cluster([0.0, 0.0], np.eye(2))
        assert mahalanobis_sq([3.0, 4.0], c) == pytest.approx(25.0, rel=1e-9)

    def test_diagonal_covariance(self):
        c = cluster([0.0, 0.0], np.diag([4.0, 1.0]))
        assert mahalanobis_sq([2.0, 0.0], c) == pytest.approx(1.0, rel=1e-9)

    def test_singular_covariance_raises(self):
        # L L^T is [[1e16, 1e16], [1e16, 1e16]]: the COV_EPS jitter rounds away
        bad = GaussianCluster(np.zeros(2), [[1e8, 0.0], [1e8, 0.0]])
        with pytest.raises(PositiveDefinitenessError):
            mahalanobis_sq([1.0, 0.0], bad)


class TestMemberships:
    def test_single_cluster_is_one(self):
        np.testing.assert_allclose(
            memberships([0.3, 0.4], [cluster([0, 0], np.eye(2))]), [1.0]
        )

    def test_equidistant_pair_splits_evenly(self):
        cs = [cluster([-1, 0], np.eye(2)), cluster([1, 0], np.eye(2))]
        np.testing.assert_allclose(memberships([0.0, 5.0], cs), [0.5, 0.5], atol=1e-12)

    def test_distance_log3_gives_three_quarters(self):
        # d^2 = [0, ln 3] -> softmax(-d^2) = [0.75, 0.25]
        z = np.zeros(1)
        cs = [cluster([0.0], [[1.0]]), cluster([np.sqrt(np.log(3.0))], [[1.0]])]
        np.testing.assert_allclose(memberships(z, cs), [0.75, 0.25], atol=1e-12)

    def test_unit_partition_random(self):
        rng = np.random.default_rng(0)
        cs = [random_cluster(rng) for _ in range(6)]
        z = rng.normal(scale=3.0, size=(500, 2))
        psi = memberships(z, cs)
        assert np.all(psi >= 0) and np.all(psi <= 1)
        np.testing.assert_allclose(psi.sum(axis=1), 1.0, atol=1e-9)

    def test_monotone_in_distance(self):
        # moving cluster j away (raising d_j^2, others fixed) lowers psi_j
        base = [cluster([0, 0], np.eye(2)), cluster([1, 1], np.eye(2))]
        z = [0.2, -0.1]
        before = memberships(z, base)[1]
        moved = [base[0], cluster([2, 2], np.eye(2))]
        after = memberships(z, moved)[1]
        assert after < before

    def test_shift_invariance_of_argmax(self):
        # adding a constant to every squared distance rescales all
        # activations equally, so memberships and argmax are unchanged
        rng = np.random.default_rng(1)
        d2 = rng.uniform(0, 5, size=7)
        def soft(v):
            e = np.exp(-(v - v.min()))
            return e / e.sum()
        np.testing.assert_allclose(soft(d2), soft(d2 + 3.7), atol=1e-12)


class TestHardmax:
    def test_center_dominance(self):
        rng = np.random.default_rng(2)
        cs = [cluster(c, np.eye(2)) for c in [[5, 5], [-5, 5], [5, -5], [0.0, 0.0], [-5, -5]]]
        assert hardmax_rule([0.0, 0.0], cs) == 3

    def test_tie_breaks_to_lowest_index(self):
        cs = [
            cluster([9, 9], np.eye(2)),
            cluster([-1, 0], np.eye(2)),
            cluster([9, -9], np.eye(2)),
            cluster([1, 0], np.eye(2)),
        ]
        assert hardmax_rule([0.0, 0.0], cs) == 1

    def test_agrees_with_membership_argmax(self):
        rng = np.random.default_rng(3)
        cs = [random_cluster(rng) for _ in range(5)]
        for _ in range(50):
            z = rng.normal(scale=3.0, size=2)
            assert hardmax_rule(z, cs) == int(np.argmax(memberships(z, cs)))


class TestBhattacharyya:
    def test_identical_clusters_zero(self):
        rng = np.random.default_rng(4)
        c = random_cluster(rng)
        assert fuzzy.bhattacharyya(*stacked(c, c))[0, 1] == 0.0

    def test_unit_variance_centers_one_apart(self):
        a = cluster([0.0], [[1.0]])
        b = cluster([1.0], [[1.0]])
        assert fuzzy.bhattacharyya(*stacked(a, b))[0, 1] == pytest.approx(0.125, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            ab, ba = both_orders(random_cluster(rng), random_cluster(rng))
            assert ab == pytest.approx(ba, abs=1e-12)

    @settings(max_examples=400, deadline=None)
    @given(
        dim=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([1e-3, 1.0, 1e3]),
        scale=st.sampled_from([1e-2, 1.0, 1e2]),
    )
    def test_exactly_symmetric(self, dim, seed, spread, scale):
        # the bundle's clusters.csv mirrors each pair, so == and not approx
        rng = np.random.default_rng(seed)
        a, b = (
            GaussianCluster(rng.normal(scale=spread, size=dim), rng.normal(scale=scale, size=(dim, dim)))
            for _ in range(2)
        )
        ab, ba = both_orders(a, b)
        assert ab == ba

    def test_non_negative_and_zero_only_when_equal(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = fuzzy.bhattacharyya(*stacked(random_cluster(rng), random_cluster(rng)))[0, 1]
            assert d >= 0.0
            assert d > 1e-8  # distinct random clusters practically never coincide


class TestFactorParameterization:
    def test_covariance_round_trip(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(3, 3))
        cov = m @ m.T + 0.5 * np.eye(3)
        c = from_covariance(np.zeros(3), cov)
        np.testing.assert_allclose(c.covariance, cov, atol=1e-10)

    def test_eps_floor_keeps_positive_definite(self):
        c = GaussianCluster(np.zeros(2), np.zeros((2, 2)))  # zero factor
        eig = np.linalg.eigvalsh(c.covariance)
        assert np.all(eig >= fuzzy.COV_EPS * (1 - 1e-12))

    def test_from_covariance_rejects_non_pd(self):
        with pytest.raises(PositiveDefinitenessError):
            from_covariance(np.zeros(2), np.diag([1.0, -0.5]))


class TestGraphPathAgreement:
    def _params(self, rng, n_rules=4, dim=2):
        centers = rng.normal(size=(n_rules, dim))
        factors = rng.normal(size=(n_rules, dim, dim)) * 0.4 + np.eye(dim)
        return parameter(centers), parameter(factors)

    def test_memberships_graph_matches_plain(self):
        rng = np.random.default_rng(8)
        centers, factors = self._params(rng)
        cov = fuzzy.covariances_graph(factors)
        z = rng.normal(size=(10, 2))
        psi, diffs = fuzzy.memberships_graph(Tensor(z), centers, cov)
        clusters = fuzzy.clusters_from_params(centers.data, factors.data)
        np.testing.assert_allclose(psi.data, memberships(z, clusters), atol=1e-10)
        d2 = np.array([[mahalanobis_sq(row, c) for c in clusters] for row in z])
        e = np.exp(d2.min(axis=1, keepdims=True) - d2)
        np.testing.assert_allclose(psi.data, e / e.sum(axis=1, keepdims=True), atol=1e-10)
        np.testing.assert_array_equal(diffs.data, z[:, None, :] - centers.data)

    def test_bhattacharyya_graph_matches_plain(self):
        rng = np.random.default_rng(9)
        centers, factors = self._params(rng, n_rules=5)
        cov = fuzzy.covariances_graph(factors)
        idx_m, idx_n = np.triu_indices(5, k=1)
        pairs = fuzzy.bhattacharyya_pairs_graph(centers, cov, idx_m, idx_n)
        clusters = fuzzy.clusters_from_params(centers.data, factors.data)
        expected = [bhattacharyya(clusters[m], clusters[n]) for m, n in zip(idx_m, idx_n)]
        np.testing.assert_allclose(pairs.data, expected, atol=1e-10)

    @pytest.mark.parametrize("n_rules", [1, 2, 5])
    def test_bhattacharyya_matrix_matches_plain(self, n_rules):
        rng = np.random.default_rng(13)
        centers, factors = self._params(rng, n_rules=n_rules)
        distance = fuzzy.bhattacharyya(centers, fuzzy.covariances_graph(factors))
        clusters = fuzzy.clusters_from_params(centers.data, factors.data)
        expected = [
            [0.0 if m == n else bhattacharyya(clusters[m], clusters[n]) for n in range(n_rules)]
            for m in range(n_rules)
        ]
        np.testing.assert_allclose(distance, expected, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(distance, distance.T)
        np.testing.assert_array_equal(np.diag(distance), 0.0)

    def test_membership_gradients(self):
        rng = np.random.default_rng(10)
        centers, factors = self._params(rng, n_rules=3)
        z = rng.normal(size=(4, 2))
        mixer = rng.normal(size=(4, 3))

        def build():
            cov = fuzzy.covariances_graph(factors)
            psi, _ = fuzzy.memberships_graph(Tensor(z), centers, cov)
            return ad.tsum(ad.mul(psi, mixer))

        check_gradients(build, [centers, factors])

    def test_bhattacharyya_gradients(self):
        rng = np.random.default_rng(11)
        centers, factors = self._params(rng, n_rules=3)
        idx_m, idx_n = np.triu_indices(3, k=1)

        def build():
            cov = fuzzy.covariances_graph(factors)
            return ad.tsum(fuzzy.bhattacharyya_pairs_graph(centers, cov, idx_m, idx_n))

        check_gradients(build, [centers, factors])


class TestInitClusters:
    def test_centers_come_from_latents(self):
        rng = np.random.default_rng(12)
        latents = rng.normal(size=(50, 2))
        centers, factors = fuzzy.init_clusters(latents, 4, np.random.default_rng(0))
        for c in centers:
            assert any(np.allclose(c, z) for z in latents)
        cov = np.tril(factors[0]) @ np.tril(factors[0]).T + fuzzy.COV_EPS * np.eye(2)
        np.testing.assert_allclose(cov, 0.25 * np.eye(2), atol=1e-12)
