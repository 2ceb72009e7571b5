"""Per-rule ARIX local models.

A rule's consequent is an autoregressive model with exogenous input and
an optional integrator: A(q^-1) (1 - q^-1)^d y = B(q^-1) u, with
A(q^-1) = 1 + a_1 q^-1 + ... + a_p q^-p (note the plus signs: the
recursion therefore subtracts the a_m terms -- many texts print the
opposite convention) and B(q^-1) = b_1 q^-1 + ... + b_q q^-q, so the
exogenous input enters with at least one step of delay.

The H-step forecast runs recursively in a sliding-window way: past
values come from observed history while they exist and from earlier
recursive outputs afterwards.  ``u_seq[j]`` holds u(k + j) for
j = 0..H-1; exogenous terms that would need inputs before the forecast
origin are treated as zero (only reachable when q > 1).

``arix_forecast`` runs that recursion for one rule on plain arrays and is
kept as the independent check.  On the graph side the whole H-step
recursion of every (sample, rule) row is one fused node.  In the
differenced values w (w = y when d = 0) it is the linear recurrence

    w_j = -sum_m a_m w_{j-m} + sum_n b_n u_{j-n},   j = 1..H,

seeded by the last p observed differences, with y_j = y_0 + w_1 + ... + w_j
when d = 1.  The node's adjoint is the transposed recurrence run
backwards in time (standard reverse mode for linear recurrences):
carrying the output gradient back through the integrator gives g_w (a
reverse cumulative sum), then

    lam_j = g_w_j - sum_m a_m lam_{j+m},   lam_j = 0 for j > H,

and dL/da_m = -sum_j lam_j w_{j-m}, dL/db_n = sum_j lam_j u_{j-n},
dL/du_t = sum_n b_n lam_{t+n}.  A non-finite forecast raises
``NonFiniteError`` naming the lowest failing rule.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .exceptions import ConfigError, NonFiniteError, ShapeError


@dataclass
class ArixCoefficients:
    """AR polynomial a_1..a_p, exogenous polynomial b_1..b_q, integration order d."""

    a: np.ndarray
    b: np.ndarray
    d: int = 1

    def __post_init__(self):
        self.a = np.atleast_1d(np.asarray(self.a, dtype=np.float64))
        self.b = np.atleast_1d(np.asarray(self.b, dtype=np.float64)) if np.size(self.b) else np.zeros(0)
        if self.a.size < 1:
            raise ConfigError("ARIX needs AR order p >= 1")
        if self.d not in (0, 1):
            raise ConfigError(f"integration order d={self.d} unsupported (expected 0 or 1)")

    @property
    def p(self) -> int:
        return self.a.size

    @property
    def q(self) -> int:
        return self.b.size


def arix_forecast(history, u_seq, coeffs: ArixCoefficients, horizon: int) -> np.ndarray:
    """Recursive H-step forecast of one rule on plain arrays.

    history: at least the last p+d observed values of the target series
    (oldest first); u_seq: exogenous sequence with u_seq[j] = u(k+j).
    """
    history = np.asarray(history, dtype=np.float64)
    p, q, d = coeffs.p, coeffs.q, coeffs.d
    if history.size < p + d:
        raise ShapeError(f"arix_forecast: history of {history.size} values, need {p + d}")
    if q >= 1:
        u_seq = np.asarray(u_seq, dtype=np.float64)
        if u_seq.size < horizon:
            raise ShapeError(f"arix_forecast: u_seq of {u_seq.size} values, need {horizon}")
    hist = history[-(p + d):]
    if d == 1:
        vals = list(np.diff(hist))
        level = hist[-1]
    else:
        vals = list(hist)
        level = None
    preds = np.zeros(horizon)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, horizon + 1):
            step = 0.0
            for m in range(1, p + 1):
                step -= coeffs.a[m - 1] * vals[-m]
            for n in range(1, q + 1):
                idx = j - n
                if idx >= 0:
                    step += coeffs.b[n - 1] * u_seq[idx]
            vals.append(step)
            if d == 1:
                level = level + step
                preds[j - 1] = level
            else:
                preds[j - 1] = step
    if not np.all(np.isfinite(preds)):
        raise NonFiniteError("arix_forecast: non-finite forecast (unstable polynomial)")
    return preds


def aggregate(psi, rule_forecasts) -> np.ndarray:
    """Membership-weighted blend of per-rule forecasts.

    psi: (C,) or (S, C); rule_forecasts: (C, H) or (S, C, H).
    """
    psi = np.asarray(psi, dtype=np.float64)
    rule_forecasts = np.asarray(rule_forecasts, dtype=np.float64)
    if psi.shape != rule_forecasts.shape[:-1]:
        raise ShapeError(
            f"aggregate: memberships {psi.shape} vs forecasts {rule_forecasts.shape}"
        )
    return np.sum(psi[..., None] * rule_forecasts, axis=-2)


# ---------------------------------------------------------------------------
# graph-side recursion: one fused node per call (see the module docstring)


def _fused_forecast(seed, level, u, a, b, d, horizon, rules):
    """H-step recursion of every forecast row as a single graph node.

    seed: (..., p) plain array of the last p differenced (d=1) or raw (d=0)
    values, oldest first; level: (...) last observed level, or None when
    d=0; u: (B, H) tensor, read with seed's leading shape (B or B, 1);
    a: (..., p) and b: (..., q) tensors.  The leading shapes of seed,
    level, a and b broadcast to the output rows.  ``rules``
    (broadcastable to the rows) gives the rule each row runs, so a
    non-finite forecast names its rule.
    """
    p, q = a.data.shape[-1], b.data.shape[-1]
    uv = u.data.reshape(seed.shape[:-1] + u.data.shape[-1:])
    rows = np.broadcast_shapes(
        seed.shape[:-1], a.data.shape[:-1], b.data.shape[:-1], uv.shape[:-1]
    )
    # u_lag[n-1][..., j-1] = u(k + j - n), zero before the forecast origin
    u_lag = [np.zeros(uv.shape) for _ in range(q)]
    for n in range(1, min(q, horizon) + 1):
        u_lag[n - 1][..., n - 1 :] = uv[..., : horizon - n + 1]
    w = np.empty(rows + (p + horizon,))
    w[..., :p] = seed
    with np.errstate(over="ignore", invalid="ignore"):
        exog = None
        for n in range(q):
            term = b.data[..., n : n + 1] * u_lag[n]
            exog = term if exog is None else exog + term
        terms = np.empty(rows + (p,))
        for j in range(horizon):
            # the p newest values, newest first, to line up with a_1..a_p
            np.multiply(w[..., j : j + p][..., ::-1], a.data, out=terms)
            w_j = np.add.reduce(terms, axis=-1, out=w[..., p + j])
            if exog is None:
                np.negative(w_j, out=w_j)
            else:
                np.subtract(exog[..., j], w_j, out=w_j)
        out = w[..., p:].copy()
        if d == 1:
            out[..., 0] += level  # y_1 = y_0 + w_1, then a running sum
            np.cumsum(out, axis=-1, out=out)
    finite = np.isfinite(out).all(axis=-1)
    if not finite.all():
        rule = int(np.min(np.broadcast_to(rules, rows)[~finite]))
        raise NonFiniteError(
            f"rule {rule}: non-finite ARIX forecast (unstable polynomial)",
            op="arix_recursion", rule=rule,
        )

    def vjp(g):
        g_w = np.cumsum(g[..., ::-1], axis=-1)[..., ::-1] if d == 1 else g
        lam = np.zeros(rows + (horizon + p,))
        terms = np.empty(rows + (p,))
        for j in range(horizon - 1, -1, -1):
            np.multiply(lam[..., j + 1 : j + 1 + p], a.data, out=terms)
            lam_j = np.add.reduce(terms, axis=-1, out=lam[..., j])
            np.subtract(g_w[..., j], lam_j, out=lam_j)
        lam = lam[..., :horizon]
        da = np.stack(
            [-np.sum(lam * w[..., p - m : p - m + horizon], axis=-1) for m in range(1, p + 1)], axis=-1
        )
        db = np.zeros(rows + (q,))
        du = np.zeros(rows + (horizon,))
        for n in range(1, min(q, horizon) + 1):
            db[..., n - 1] = np.sum(lam * u_lag[n - 1], axis=-1)
            du[..., : horizon - n + 1] += b.data[..., n - 1 : n] * lam[..., n - 1 :]
        return (
            ad._unbroadcast(du, uv.shape).reshape(u.data.shape),
            ad._unbroadcast(da, a.data.shape),
            ad._unbroadcast(db, b.data.shape),
        )

    return ad.custom_op("arix_recursion", out, (u, a, b), vjp)


def _split_history(y_hist, p, d):
    y_hist = np.asarray(y_hist, dtype=np.float64)
    if y_hist.ndim != 2 or y_hist.shape[1] < p + d:
        raise ShapeError(f"arix recursion: history {y_hist.shape}, need width >= {p + d}")
    hist = y_hist[:, -(p + d):]
    if d == 1:
        return np.diff(hist, axis=1), hist[:, -1]
    return hist, None


def winner_forecast_graph(y_hist, u, a_sel, b_sel, d, horizon, rules):
    """Per-sample forecast using each sample's selected rule.

    y_hist: (B, >=p+d) array; u: (B, H) tensor; a_sel: (B, p); b_sel: (B, q);
    rules: (B,) selected rule indices, named if a forecast is non-finite.
    Returns a (B, H) tensor.
    """
    u = ad.astensor(u)
    seed, last = _split_history(y_hist, a_sel.data.shape[-1], d)
    return _fused_forecast(seed, last, u, a_sel, b_sel, d, horizon, rules)


def all_rules_forecast_graph(y_hist, u, a, b, d, horizon):
    """Forecasts of every rule for every sample.

    y_hist: (B, >=p+d) array; u: (B, H) tensor; a: (C, p); b: (C, q).
    Returns a (B, C, H) tensor.
    """
    u = ad.astensor(u)
    c, p = a.data.shape
    seed, last = _split_history(y_hist, p, d)
    return _fused_forecast(
        seed[:, None, :], None if last is None else last[:, None], u, a, b, d, horizon,
        np.arange(c),
    )
