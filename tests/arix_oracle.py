"""Independent transfer-function oracle for the ARIX recursion.

Computes the impulse response of B(q^-1) / (A(q^-1) (1 - q^-1)^d) by
explicit polynomial long division and convolves it with the exogenous
input: a zero-initial-state forecast that never runs the recursion under
test.
"""

import numpy as np


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
