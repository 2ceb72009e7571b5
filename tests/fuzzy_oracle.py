"""Per-cluster plain-array oracle for the Gaussian rule antecedents.

Scalar versions of the fuzzy maths on one :class:`GaussianCluster` (or
one pair) at a time, each through its own factorization, kept as an
independent check on ``fuzzformer.fuzzy``, whose graph functions run the
same maths on stacked parameter tensors.
"""

import numpy as np

from fuzzformer.exceptions import PositiveDefinitenessError, ShapeError
from fuzzformer.fuzzy import COV_EPS, GaussianCluster


def from_covariance(center, covariance) -> GaussianCluster:
    """Factorize a target covariance (must exceed the COV_EPS floor)."""
    covariance = np.asarray(covariance, dtype=np.float64)
    d = covariance.shape[0]
    try:
        L = np.linalg.cholesky(covariance - COV_EPS * np.eye(d))
    except np.linalg.LinAlgError as exc:
        raise PositiveDefinitenessError(
            f"covariance is not positive definite above the {COV_EPS} floor"
        ) from exc
    return GaussianCluster(np.asarray(center, dtype=np.float64), L)


def mahalanobis_sq(z, cluster: GaussianCluster) -> float:
    """(z - mu)^T cov^-1 (z - mu), via solve against the Cholesky factor."""
    z = np.asarray(z, dtype=np.float64)
    diff = z - cluster.center
    try:
        chol = np.linalg.cholesky(cluster.covariance)
    except np.linalg.LinAlgError as exc:
        raise PositiveDefinitenessError("cluster covariance lost positive definiteness") from exc
    w = np.linalg.solve(chol, diff)
    return float(w @ w)


def hardmax_rule(z, clusters) -> int:
    """Index of the most activated rule; lowest index wins ties."""
    if np.ndim(z) != 1:
        raise ShapeError("hardmax_rule expects a single latent vector")
    return int(np.argmin([mahalanobis_sq(z, c) for c in clusters]))


def bhattacharyya(a: GaussianCluster, b: GaussianCluster) -> float:
    """Bhattacharyya distance between two Gaussian clusters.

    1/8 (mu_a - mu_b)^T pooled^-1 (mu_a - mu_b)
      + 1/2 ln(det pooled / sqrt(det cov_a det cov_b)),
    pooled = (cov_a + cov_b) / 2.  Symmetric, zero iff parameters coincide.
    """
    ca, cb = a.covariance, b.covariance
    pooled = 0.5 * (ca + cb)
    dmu = a.center - b.center
    try:
        sol = np.linalg.solve(pooled, dmu)
    except np.linalg.LinAlgError as exc:
        raise PositiveDefinitenessError("pooled covariance is singular") from exc
    term1 = 0.125 * float(dmu @ sol)
    sign_p, ld_p = np.linalg.slogdet(pooled)
    sign_a, ld_a = np.linalg.slogdet(ca)
    sign_b, ld_b = np.linalg.slogdet(cb)
    if min(sign_p, sign_a, sign_b) <= 0:
        raise PositiveDefinitenessError("covariance determinant not positive")
    term2 = 0.5 * (ld_p - 0.5 * (ld_a + ld_b))
    return term1 + term2
