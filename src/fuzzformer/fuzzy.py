"""Gaussian-cluster rule antecedents.

Each rule owns a multivariate Gaussian over the encoder latent: a center
and a covariance stored through an unconstrained lower-triangular factor
L with cov = L L^T + COV_EPS I, which stays positive definite under
unconstrained gradient updates.  Rule activations are softmax-normalized
negated squared Mahalanobis distances, so memberships always form a unit
partition.  The Bhattacharyya distance between clusters feeds the
overlap regularizer and the forecast bundle's ``clusters.csv``.

The ``*_graph`` functions build the maths on the differentiation graph
from stacked parameter tensors (C, D) and (C, D, D); ``bhattacharyya``
reads the bundle's distance matrix off the same graph function.
:class:`GaussianCluster` and :func:`memberships` are a plain-array view
of the rule bank that the benchmark checks the graph path against.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .exceptions import PositiveDefinitenessError, ShapeError

COV_EPS = 1e-6  # diagonal jitter floor for every covariance
OVERLAP_FLOOR = 1e-8  # division floor used by the overlap loss


@dataclass
class GaussianCluster:
    """Center and covariance factor of one antecedent fuzzy set."""

    center: np.ndarray
    factor: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.factor = np.asarray(self.factor, dtype=np.float64)
        d = self.center.shape[0]
        if self.center.ndim != 1 or self.factor.shape != (d, d):
            raise ShapeError(
                f"GaussianCluster: center {self.center.shape} vs factor {self.factor.shape}"
            )

    @property
    def covariance(self) -> np.ndarray:
        L = np.tril(self.factor)
        return L @ L.T + COV_EPS * np.eye(self.center.shape[0])


def memberships(z, clusters) -> np.ndarray:
    """Softmax of negated squared Mahalanobis distances; rows sum to one.

    z: (D,) or (S, D).  Returns (C,) or (S, C).
    """
    z = np.asarray(z, dtype=np.float64)
    covs = np.stack([c.covariance for c in clusters])
    mus = np.stack([c.center for c in clusters])
    diffs = z[..., None, :] - mus
    try:
        sol = np.linalg.solve(covs, diffs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise PositiveDefinitenessError("cluster covariance lost positive definiteness") from exc
    neg = -np.sum(diffs * sol, axis=-1)
    shifted = neg - np.max(neg, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def isotropic_factors(n_rules, dim):
    """(C, D, D) factors of ``n_rules`` isotropic clusters of covariance 0.5**2 I."""
    return np.tile(np.sqrt(0.5**2 - COV_EPS) * np.eye(dim), (n_rules, 1, 1))


def init_clusters(latents, n_rules, rng):
    """Warm-up initialization: centers drawn from observed latent vectors,
    covariances from :func:`isotropic_factors`.

    ``latents`` is an (N, D) array or a sequence of rows such as
    :class:`training.WarmupLatents`; only ``len(latents)`` and the rows
    picked as centers are read, in one ``latents[pick]``.  Returns
    (centers (C, D), factors (C, D, D)) parameter arrays.
    """
    n = len(latents)
    replace = n < n_rules
    pick = rng.choice(n, size=n_rules, replace=replace)
    centers = np.asarray(latents[pick], dtype=np.float64)
    if replace:  # break exact duplicates so clusters stay distinguishable
        centers += rng.normal(scale=1e-3, size=centers.shape)
    return centers, isotropic_factors(n_rules, centers.shape[1])


def clusters_from_params(centers, factors):
    """View stacked parameter arrays as a list of GaussianCluster."""
    return [GaussianCluster(c, f) for c, f in zip(np.asarray(centers), np.asarray(factors))]


# ---------------------------------------------------------------------------
# graph-side versions (operate on parameter tensors, gradients flow)


def covariances_graph(factors):
    """factors: (C, D, D) tensor -> (C, D, D) covariance tensor L L^T + COV_EPS I."""
    d = factors.data.shape[-1]
    L = ad.mul(factors, np.tril(np.ones((d, d))))
    return ad.add(ad.matmul(L, ad.swapaxes(L, -1, -2)), COV_EPS * np.eye(d))


def memberships_graph(z, centers, covariances):
    """Memberships of a latent batch against every rule.

    z: (B, D); centers: (C, D); covariances: (C, D, D).
    Returns (psi (B, C), diffs (B, C, D)).
    """
    b = z.data.shape[0]
    c, d = centers.data.shape
    diffs = ad.sub(ad.reshape(z, (b, 1, d)), ad.reshape(centers, (1, c, d)))
    sol = ad.solve_vec(covariances, diffs)
    d2 = ad.tsum(ad.mul(diffs, sol), axis=-1)
    psi = ad.softmax(ad.neg(d2), axis=-1)
    return psi, diffs


def bhattacharyya_pairs_graph(centers, covariances, idx_m, idx_n):
    """Bhattacharyya distances for the cluster pairs (idx_m[k], idx_n[k])."""
    mu_m, mu_n = centers[idx_m], centers[idx_n]
    cov_m, cov_n = covariances[idx_m], covariances[idx_n]
    pooled = ad.mul(ad.add(cov_m, cov_n), 0.5)
    dmu = ad.sub(mu_m, mu_n)
    quad = ad.tsum(ad.mul(dmu, ad.solve_vec(pooled, dmu)), axis=-1)
    term1 = ad.mul(quad, 0.125)
    ld = ad.logdet(covariances)
    term2 = ad.mul(ad.sub(ad.logdet(pooled), ad.mul(ad.add(ld[idx_m], ld[idx_n]), 0.5)), 0.5)
    return ad.add(term1, term2)


def bhattacharyya(centers, covariances) -> np.ndarray:
    """Symmetric (C, C) array of pairwise Bhattacharyya distances.

    Evaluates each unordered pair once through
    :func:`bhattacharyya_pairs_graph` without recording a graph, mirrors
    it and leaves the diagonal at zero.
    """
    c = ad.astensor(centers).data.shape[0]
    distance = np.zeros((c, c))
    idx_m, idx_n = np.triu_indices(c, k=1)
    with ad.no_grad():
        pairs = bhattacharyya_pairs_graph(centers, covariances, idx_m, idx_n).data
    distance[idx_m, idx_n] = distance[idx_n, idx_m] = pairs
    return distance
