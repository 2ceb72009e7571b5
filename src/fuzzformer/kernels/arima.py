"""ARMA estimation and forecast recursion kernels, batched across windows.

The baseline refits coefficients on every sliding window, so each kernel
takes a stack of W windows: series are (W, T) float64 arrays, already
differenced and demeaned by the caller, and coefficients are (W, p) and
(W, q).  Every operation acts on each row alone, so a window's results
are bit-identical whether it is fitted by itself or inside any stack.

``hr_fit`` is the two-stage Hannan-Rissanen least-squares procedure
(Hannan & Rissanen, Biometrika 1982): a long autoregression supplies
residual proxies, then the series is regressed on its own lags and
lagged residuals.  The proxies come from one batched product of each
window's long-AR coefficients with its stage-1 design, the same stack
the regression factors.  Rank deficiency, and overflow of a window near
the float64 limit, are reported per window via the ``ok`` flags rather
than an exception; the baseline layer turns them into typed errors.  The
time recursions loop once over time with vector operations across
windows, adding terms in the order of the per-window scalar loop.

Each least-squares stage decides full rank with numpy lstsq's rule, but
takes singular values only where it must.  A cheap bound on the
condition of R, from R^-1 and two Frobenius norms, proves full rank for
almost every window; the few windows it cannot decide (near-singular,
zero diagonal) get the SVD rule itself.  Where the bound's squared norms
leave float64's range (windows beyond about 1e+-154), they are taken
again on R and R^-1 rescaled, exactly, by reciprocal powers of two, so
such windows are certified too.  R is upper triangular, so one
back-substitution, one batched row step at a time, solves R X =
[I | Q'b]: its first N columns are the R^-1 the bound needs and its last
column is the coefficients.  No LU inverse or solve is used.  Triangular
back-substitution is backward stable (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., ch. 8, Thm 8.5), so on the windows the
bound accepts its inverse is as accurate as LU's, and every accepted
window's coefficients solve a system within ~N eps of its own R.  The
bound only accepts windows whose ratio of extreme singular values sits
orders of magnitude above the rule's threshold, so both routes make the
same decision.
"""

import numpy as np

_EPS = np.finfo(np.float64).eps
# least bound on sigma_min / sigma_max that certifies full rank without an SVD
_CERTIFIED = 1e-8


def companion_stable(coeffs):
    """True where the recursion y[t] = sum_j coeffs[..., j] y[t-1-j] is
    stable, i.e. all companion-matrix eigenvalues lie strictly inside the
    unit circle.  ``coeffs`` is (..., m); returns a bool array of shape
    (...).  Used by the baseline layer to reject non-stationary /
    non-invertible estimates, whose forecast and residual recursions
    explode."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    m = coeffs.shape[-1]
    if m == 0:
        return np.ones(coeffs.shape[:-1], dtype=bool)
    if m == 1:
        return np.abs(coeffs[..., 0]) < 1.0
    comp = np.zeros(coeffs.shape[:-1] + (m, m))
    comp[..., 0, :] = coeffs
    comp[..., np.arange(1, m), np.arange(m - 1)] = 1.0
    return np.max(np.abs(np.linalg.eigvals(comp)), axis=-1) < 1.0


def _back_substitute(r, rhs):
    """Solve R X = rhs for every upper-triangular R in a (W, N, N) stack,
    with rhs (W, N, K).

    Back-substitution from the last row up: row i of X is (rhs[i] -
    R[i, i+1:] X[i+1:]) / r_ii.  Each row step is one batched matmul of
    every window's row i with its own rows below, so a window's solution
    is bit-identical alone or in any stack.  Never raises: a zero or tiny
    diagonal yields inf or NaN entries, under the caller's errstate.
    """
    x = np.empty_like(rhs)
    for i in range(r.shape[1] - 1, -1, -1):
        x[:, i] = (rhs[:, i] - (r[:, i, None, i + 1 :] @ x[:, i + 1 :])[:, 0]) / r[:, i, i, None]
    return x


def _lstsq(design):
    """Least squares per window: in a (W, N + 1, M) ``design`` stack of
    columns, regress each window's last column on its N others, for M > N.

    QR of the (W, M, N + 1) matrix [A | b] yields R and Q'b
    together, and one back-substitution with right-hand side [I | Q'b]
    yields R^-1 and the solution together; no LU is used.  A window counts
    as full rank under numpy lstsq's rule: the smallest singular value of
    its R exceeds eps * max(M, N) * the largest.  Most windows are
    certified full rank without an SVD, from R^-1; the rest get the SVD
    rule itself (see below).  Returns the (W, N) solutions and the
    full-rank mask.  Solutions are zero where rank deficient, and NaN where
    R or the solution is not finite (overflow, or non-finite columns); the
    mask is False in both cases.
    """
    W, N, M = design.shape[0], design.shape[1] - 1, design.shape[2]
    # a C-ordered stack viewed transposed makes each window's matrix
    # column-major: the layout numpy's QR copies into LAPACK fastest
    r = np.linalg.qr(design.transpose(0, 2, 1), mode="r")[:, :N]
    rhs = np.zeros((W, N, N + 1))
    rhs[:, range(N), range(N)] = 1.0
    rhs[:, :, N] = r[:, :, N]
    r = r[:, :, :N]
    tol = _EPS * max(M, N)
    # Certificate: for triangular R, sigma_min / sigma_max >= 1 / (|R^-1|_F
    # |R|_F), and it is at most min |r_ii| / max |r_ii|, so rows failing that
    # diagonal test could never pass.  A row passes when its bound exceeds
    # ``cut``, which is at least 1e-8 and 1e4 times the rule's threshold.
    # Its condition number is then below 1e8.  Back-substitution is
    # backward stable (Higham 2002, ch. 8): each computed row of R^-1 is
    # exact for R perturbed by ~N eps relative, so the computed |R^-1|_F is
    # accurate to ~1e-8 relative, as are LAPACK's singular values, and the
    # SVD rule, with a threshold 1e4 times lower, accepts the row too.
    # Every other row keeps ``full`` False here and gets the SVD rule
    # unchanged: a tiny or zero diagonal, or a bound whose norms overflow
    # (0) or meet inf * 0 (NaN) even after the rescaling below.  So each
    # window's decision is the rule's decision.  A certified row has a
    # finite |R|_F, so only the rows left open can hold a non-finite R, and
    # those never reach the SVD.
    # The squared norms leave float64's range for windows beyond about
    # 1e+-154: the product overflows, underflows to 0 or meets inf * 0.
    # Those rows take both norms again on R scaled by 2^-e and R^-1 by 2^e,
    # with e the frexp exponent of the row's largest |r_ii|.  Powers of two
    # scale exactly, so such a row gets the bound it would get at unit
    # scale, and no SVD either.
    cut = max(_CERTIFIED, 1e4 * tol)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
        x = _back_substitute(r, rhs)
        inv = x[:, :, :N]
        norms2 = np.einsum("wij,wij->w", inv, inv) * np.einsum("wij,wij->w", r, r)
        redo = ~((norms2 > 0) & (norms2 < np.inf))
        if redo.any():
            e = np.frexp(diag[redo].max(axis=1))[1][:, None, None]
            r_s, inv_s = r[redo] * np.ldexp(1.0, -e), inv[redo] * np.ldexp(1.0, e)
            norms2[redo] = np.einsum("wij,wij->w", inv_s, inv_s) * np.einsum("wij,wij->w", r_s, r_s)
        full = (diag.min(axis=1) > cut * diag.max(axis=1)) & (1.0 / np.sqrt(norms2) > cut)
    finite = np.ones(W, dtype=bool)
    finite[~full] = np.isfinite(r[~full]).all(axis=(1, 2))
    undecided = ~full & finite
    if undecided.any():
        s = np.linalg.svd(r[undecided], compute_uv=False)
        full[undecided] = s[:, -1] > tol * s[:, 0]
    # The last column solves R x = Q'b, backward stable like R^-1 itself
    # (Higham 2002, Thm 8.5), so no second solve is needed.
    sol = x[:, :, N]
    overflow = ~finite | (full & ~np.isfinite(sol).all(axis=1))
    full &= ~overflow
    sol[~full] = 0.0
    sol[overflow] = np.nan
    return sol, full


def hr_fit(x, p, q):
    """Estimate ARMA(p, q) coefficients on each row of a stationary (W, T) stack.

    Returns (phi (W, p), theta (W, q), ok (W,)); phi/theta follow the
    regression convention x[t] = sum_j phi[j] x[t-1-j] + sum_n theta[n]
    eps[t-1-n] + eps[t].  Where ok is False they are zero for a rank
    deficient regression and NaN for one whose series, residual proxies or
    coefficients are not finite; a row of ``x`` may hold inf or NaN.
    """
    W, T = x.shape
    phi = np.zeros((W, p))
    theta = np.zeros((W, q))

    def lags(series, start, n):
        # column j of a design matrix whose rows are t = start .. T-1
        return [series[:, start - 1 - j : T - 1 - j] for j in range(n)]

    # degenerate (all-zero) rows: zero dynamics fit them exactly
    ok = ~x.any(axis=1) & (T > p + q)
    if q == 0:
        if T - p < p + 1:
            return phi, theta, ok
        phi, full = _lstsq(np.stack(lags(x, p, p) + [x[:, p:]], axis=1))
        return phi, theta, ok | full
    # stage 1: long AR for residual proxies; order capped by window length
    n1 = min(max(2 * (p + q), 20), T // 2)
    m0 = max(p, n1 + q)
    if n1 < 1 or T - n1 < n1 + 1 or T - m0 < p + q + 1:
        return phi, theta, ok
    stage1 = np.stack(lags(x, n1, n1) + [x[:, n1:]], axis=1)
    sol1, full1 = _lstsq(stage1)
    # every proxy of a window from one batched product with its own lags,
    # written into eps in place
    eps = np.zeros((W, T))
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(sol1[:, None], stage1[:, :n1], out=eps[:, None, n1:])
        np.subtract(x[:, n1:], eps[:, n1:], out=eps[:, n1:])
    # stage 2: regress on own lags and lagged residual proxies.  A NaN
    # stage-1 solution makes every proxy NaN, so stage 2 is NaN too; its
    # other rejections (rank) leave zeros.
    sol2, full2 = _lstsq(np.stack(lags(x, m0, p) + lags(eps, m0, q) + [x[:, m0:]], axis=1))
    sol2[full2 & ~full1] = 0.0
    return sol2[:, :p], sol2[:, p:], ok | (full1 & full2)


def arma_residuals(x, phi, theta):
    """One-step-ahead residuals (W, T) with zero initial conditions."""
    T = x.shape[1]
    # the AR part needs no residuals: accumulate it for every t at once
    ar = np.zeros_like(x)
    for j in range(min(phi.shape[1], T - 1)):
        ar[:, j + 1 :] += phi[:, j, None] * x[:, : T - 1 - j]
    q = theta.shape[1]
    if q == 0:
        return x - ar
    eps = np.empty_like(x)
    for t in range(T):
        pred = ar[:, t]
        for n in range(min(q, t)):
            pred = pred + theta[:, n] * eps[:, t - 1 - n]
        eps[:, t] = x[:, t] - pred
    return eps


def arma_predict(x, eps, phi, theta, H):
    """Recursive H-step forecasts (W, H) with future residuals set to zero."""
    W, T = x.shape
    ext = np.zeros((W, T + H))
    ext[:, :T] = x
    for t in range(T, T + H):
        pred = np.zeros(W)
        for j in range(min(phi.shape[1], t)):
            pred += phi[:, j] * ext[:, t - 1 - j]
        for n in range(t - T, min(theta.shape[1], t)):
            pred += theta[:, n] * eps[:, t - 1 - n]
        ext[:, t] = pred
    return ext[:, T:]
