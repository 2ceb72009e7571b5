"""Per-window scalar oracle for the batched ARIMA kernels.

The ARMA leaves as plain per-window loops (one series, one coefficient
vector, scalar recursions and ``np.linalg.lstsq``), kept as an
independent check on ``fuzzformer.kernels.arima``, which runs the same
maths on a stack of windows.  ``forecast_window`` chains them into the
per-window fit-and-forecast pipeline of ``fuzzformer.baselines``.
"""

import numpy as np


def companion_stable(coeffs) -> bool:
    """True when the recursion y[t] = sum_j coeffs[j] y[t-1-j] is stable,
    i.e. all companion-matrix eigenvalues lie strictly inside the unit
    circle.  Used by the baseline layer to reject non-stationary /
    non-invertible estimates, whose forecast and residual recursions
    explode."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    m = coeffs.size
    if m == 0:
        return True
    if m == 1:
        return bool(abs(coeffs[0]) < 1.0)
    comp = np.zeros((m, m))
    comp[0, :] = coeffs
    for i in range(1, m):
        comp[i, i - 1] = 1.0
    eig = np.linalg.eigvals(comp)
    return bool(np.max(np.abs(eig)) < 1.0)


def hr_fit(x, p, q):
    """Estimate ARMA(p, q) coefficients on a stationary series.

    Returns (phi, theta, ok); phi/theta follow the regression convention
    x[t] = sum_j phi[j] x[t-1-j] + sum_n theta[n] eps[t-1-n] + eps[t].
    """
    T = x.shape[0]
    phi = np.zeros(p)
    theta = np.zeros(q)
    if not x.any():
        # degenerate (constant) input: zero dynamics fit it exactly
        return phi, theta, T > p + q
    if q == 0:
        rows = T - p
        if rows < p + 1:
            return phi, theta, False
        X = np.zeros((rows, p))
        for j in range(p):
            X[:, j] = x[p - 1 - j : T - 1 - j]
        sol, _res, rank, _sv = np.linalg.lstsq(X, x[p:])
        if rank < p:
            return phi, theta, False
        phi[:] = sol
        return phi, theta, True
    # stage 1: long AR for residual proxies; order capped by window length
    n1 = 2 * (p + q)
    if n1 < 20:
        n1 = 20
    if n1 > T // 2:
        n1 = T // 2
    rows1 = T - n1
    if n1 < 1 or rows1 < n1 + 1:
        return phi, theta, False
    X1 = np.zeros((rows1, n1))
    for j in range(n1):
        X1[:, j] = x[n1 - 1 - j : T - 1 - j]
    y1 = x[n1:]
    sol1, _res1, rank1, _sv1 = np.linalg.lstsq(X1, y1)
    if rank1 < n1:
        return phi, theta, False
    eps = np.zeros(T)
    eps[n1:] = y1 - np.dot(X1, sol1)
    # stage 2: regress on own lags and lagged residual proxies
    m0 = max(p, n1 + q)
    rows2 = T - m0
    if rows2 < p + q + 1:
        return phi, theta, False
    X2 = np.zeros((rows2, p + q))
    for j in range(p):
        X2[:, j] = x[m0 - 1 - j : T - 1 - j]
    for n in range(q):
        X2[:, p + n] = eps[m0 - 1 - n : T - 1 - n]
    sol2, _res2, rank2, _sv2 = np.linalg.lstsq(X2, x[m0:])
    if rank2 < p + q:
        return phi, theta, False
    phi[:] = sol2[:p]
    theta[:] = sol2[p:]
    return phi, theta, True


def arma_residuals(x, phi, theta):
    """One-step-ahead residuals with zero initial conditions."""
    T = x.shape[0]
    p = phi.shape[0]
    q = theta.shape[0]
    eps = np.zeros(T)
    for t in range(T):
        pred = 0.0
        for j in range(p):
            k = t - 1 - j
            if k >= 0:
                pred += phi[j] * x[k]
        for n in range(q):
            k = t - 1 - n
            if k >= 0:
                pred += theta[n] * eps[k]
        eps[t] = x[t] - pred
    return eps


def arma_predict(x, eps, phi, theta, H):
    """Recursive H-step forecast with future residuals set to zero."""
    T = x.shape[0]
    p = phi.shape[0]
    q = theta.shape[0]
    ext = np.zeros(T + H)
    ext[:T] = x
    for h in range(H):
        t = T + h
        pred = 0.0
        for j in range(p):
            k = t - 1 - j
            if k >= 0:
                pred += phi[j] * ext[k]
        for n in range(q):
            k = t - 1 - n
            if 0 <= k < T:
                pred += theta[n] * eps[k]
        ext[t] = pred
    return ext[T:].copy()


def forecast_window(window, p, d, q, horizon):
    """Difference, demean, fit, check stability and forecast one window;
    returns the H-step forecast, or None where the fit is rejected."""
    window = np.asarray(window, dtype=np.float64)
    if window.size <= p + q + d + 1:
        return None
    x = window
    for _ in range(d):
        x = x[1:] - x[:-1]
    mean = float(x.mean())
    phi, theta, ok = hr_fit(x - mean, p, q)
    if not (ok and companion_stable(phi) and companion_stable(-theta)):
        return None
    eps = arma_residuals(x - mean, phi, theta)
    xhat = arma_predict(x - mean, eps, phi, theta, horizon) + mean
    out = xhat if d == 0 else window[-1] + np.cumsum(xhat)
    return out if np.all(np.isfinite(out)) else None
