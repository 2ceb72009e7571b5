"""Training objectives.

Four terms: forecast MSE (winner-takes-all during training), the fuzzy
C-means clustering loss shaping the latent space, an overlap penalty of
inverse Bhattacharyya distances keeping clusters apart, and a balance
term (KL of the mean assignment from uniform, natural log) preventing
cluster collapse.  MSE follows the batch-sum convention: it sums squared
errors over the batch's windows and horizon steps.  ``losses.csv`` and
the ``training.fit`` log hold each term's mean over the epoch's batches,
so their ``mse`` is that batch sum, not a per-sample mean.
"""

from . import autodiff as ad
from .exceptions import ShapeError
from .fuzzy import OVERLAP_FLOOR


def mse_loss(pred, target):
    """Sum over the batch of squared forecast-error norms."""
    pred, target = ad.astensor(pred), ad.astensor(target)
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"mse_loss: {pred.data.shape} vs {target.data.shape}")
    diff = ad.sub(pred, target)
    return ad.tsum(ad.mul(diff, diff))


def fcm_loss(psi, diffs):
    """Membership-weighted squared Euclidean distance of latents to centers.

    psi: (B, C) memberships; diffs: (B, C, D) latent-minus-center.
    The weights come from Mahalanobis distances (via the membership
    softmax) while the distance being weighted is Euclidean.
    """
    sq = ad.tsum(ad.mul(diffs, diffs), axis=-1)
    return ad.tsum(ad.mul(psi, sq))


def overlap_loss(bhattacharyya_pairs):
    """Sum of inverse Bhattacharyya distances over ordered cluster pairs.

    ``bhattacharyya_pairs`` holds each unordered pair once; the sum
    counts both orders, hence the factor two.  Distances are floored so
    transiently coincident clusters cannot blow the loss up.  One rule
    has no pairs, and the empty sum makes the loss 0.
    """
    inv = ad.div(1.0, ad.clip_min(bhattacharyya_pairs, OVERLAP_FLOOR))
    return ad.mul(ad.tsum(inv), 2.0)


def balance_loss(psi):
    """KL divergence of the mean membership distribution from uniform."""
    psi = ad.astensor(psi)
    if psi.data.ndim != 2:
        raise ShapeError(f"balance_loss: expected (batch, rules), got {psi.data.shape}")
    n_rules = psi.data.shape[1]
    pbar = ad.tmean(psi, axis=0)
    safe = ad.clip_min(pbar, 1e-300)  # 0 * log(0) -> 0
    return ad.tsum(ad.mul(pbar, ad.log(ad.mul(safe, float(n_rules)))))


def composite_loss(batch, model, rng=None):
    """Weighted four-term objective on one training batch.

    The weights are the ``weight_*`` fields of ``model.config``.  The
    MSE term uses the winner-takes-all forecast: each sample's
    forward pass runs only the rule with the highest activation, and the
    selection itself is non-differentiable routing.  Returns the scalar
    loss tensor and a per-term breakdown of plain floats.
    """
    fwd = model.training_forward(batch.x, batch.y_history, rng=rng)
    l_mse = mse_loss(fwd.winner_forecast, batch.y_target)
    l_fcm = fcm_loss(fwd.memberships, fwd.latent_diffs)
    l_overlap = overlap_loss(fwd.bhattacharyya_pairs)
    l_balance = balance_loss(fwd.memberships)
    cfg = model.config
    total = ad.add(
        ad.add(ad.mul(l_mse, cfg.weight_mse), ad.mul(l_fcm, cfg.weight_fcm)),
        ad.add(ad.mul(l_overlap, cfg.weight_overlap), ad.mul(l_balance, cfg.weight_balance)),
    )
    parts = {
        "mse": l_mse.item(),
        "fcm": l_fcm.item(),
        "overlap": l_overlap.item(),
        "balance": l_balance.item(),
        "composite": total.item(),
    }
    return total, parts
