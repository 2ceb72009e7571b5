"""Oracles for the ARIX recursion.

Computes the impulse response of B(q^-1) / (A(q^-1) (1 - q^-1)^d) by
explicit polynomial long division and convolves it with the exogenous
input: a zero-initial-state forecast that never runs the recursion under
test.

``fused_forecast`` is the graph-side recursion as it was before its
horizon and adjoint loops wrote in place: ``fuzzformer.arix`` must give
its forecasts and gradients bit for bit.
"""

import numpy as np

from fuzzformer import autodiff as ad
from fuzzformer.exceptions import NonFiniteError


def impulse_response(a, b, d, n_terms):
    """First ``n_terms + 1`` power-series coefficients of B / (A (1-q)^d).

    a, b follow the convention A = 1 + a_1 q^-1 + ...,
    B = b_1 q^-1 + ... (so the response at lag 0 is always zero).
    """
    den = np.concatenate(([1.0], np.asarray(a, dtype=np.float64)))
    for _ in range(int(d)):
        den = np.convolve(den, [1.0, -1.0])
    num = np.zeros(n_terms + 1)
    b = np.asarray(b, dtype=np.float64)
    # taps at lags beyond n_terms fall outside the truncated series
    k = min(b.size, n_terms)
    num[1 : 1 + k] = b[:k]
    g = np.zeros(n_terms + 1)
    for i in range(n_terms + 1):
        acc = num[i]
        for m in range(1, min(i, den.size - 1) + 1):
            acc -= den[m] * g[i - m]
        g[i] = acc / den[0]
    return g


def zero_state_forecast(a, b, d, u_seq, horizon):
    """Forecast from all-zero history: convolution of u with the response."""
    g = impulse_response(a, b, d, horizon)
    u_seq = np.asarray(u_seq, dtype=np.float64)
    yhat = np.zeros(horizon)
    for j in range(1, horizon + 1):
        s = 0.0
        for i in range(1, j + 1):
            lag = j - i
            if lag < u_seq.size:
                s += g[i] * u_seq[lag]
        yhat[j - 1] = s
    return yhat


def random_stable_system(rng, p_max=3, q=1, horizon_max=10):
    """Random AR polynomial with roots inside the unit circle, plus b, d, u."""
    p = int(rng.integers(1, p_max + 1))
    roots = rng.uniform(-0.9, 0.9, size=p)
    poly = np.array([1.0])
    for r in roots:
        poly = np.convolve(poly, [1.0, -r])
    a = poly[1:]  # A = prod (1 - r q^-1) -> coefficients after the leading 1
    b = rng.uniform(-1.0, 1.0, size=q)
    d = int(rng.integers(0, 2))
    horizon = int(rng.integers(1, horizon_max + 1))
    u = rng.normal(size=horizon)
    return a, b, d, u, horizon


def fused_forecast(seed, level, u, a, b, d, horizon, rules):
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
        for j in range(horizon):
            # the p newest values, newest first, to line up with a_1..a_p
            ar = np.sum(w[..., j : j + p][..., ::-1] * a.data, axis=-1)
            w[..., p + j] = -ar if exog is None else exog[..., j] - ar
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
        for j in range(horizon - 1, -1, -1):
            lam[..., j] = g_w[..., j] - np.sum(lam[..., j + 1 : j + 1 + p] * a.data, axis=-1)
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
