"""Reference forecasters: per-window ARIMA, persistence, and the
LSTM-only model.  The LSTM is trained by ``training.train_lstm_baseline``
through the same loop as Fuzzformer; this module holds only its layers.

The ARIMA baseline refits on every input window (it keeps no state
across windows, unlike the learned models) with two-stage
Hannan-Rissanen least squares on the differenced, demeaned window;
demeaning the differences acts as a drift term.  Coefficients follow the
standard regression convention x_t = sum_j phi_j x_{t-j} + sum_n
theta_n eps_{t-n} + eps_t.  Windows where the regression is rank
deficient are skipped and counted rather than guessed at.

One pipeline serves both entry points: ``evaluate_arima_windows`` sends
its stack through the batched kernels in ``kernels.arima`` in chunks of
``ARIMA_CHUNK`` windows, and ``fit_arima``/``arima_forecast`` are the
one-window case of the same code.  In the kernels the stage-1 residual
proxies of a chunk come from one batched product, and the full-rank
certificate is scale-safe: scaling a window by a power of two leaves its
decision, and its route past the SVD, as they were, unless the fit
overflows or underflows.  Orders and horizons must be integers (numpy's
too); anything else, a bool included, is a ``ConfigError``.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import as_int
from .encoder import Dense, LstmLayer
from .exceptions import ArimaFitError, ConfigError, DataError, NonFiniteError
from .kernels import arima as arima_kernels


def rmse(pred, target) -> float:
    """Root mean squared error over every entry; NaN when there are none."""
    sq = (np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)) ** 2
    with np.errstate(invalid="ignore"):  # no entries: 0 / 0
        return float(np.sqrt(np.sum(sq) / sq.size))


@dataclass
class ArimaOrder:
    p: int
    d: int
    q: int

    def __post_init__(self):
        order = (self.p, self.d, self.q)
        try:  # integers of any kind (numpy's too), never bools, floats or strings
            self.p, self.d, self.q = (as_int("ARIMA order", k) for k in order)
        except ConfigError:
            raise ConfigError(f"ARIMA order must be integers, got {order!r}") from None
        if self.p < 0 or self.q < 0 or (self.p == 0 and self.q == 0):
            raise ConfigError(f"ARIMA order needs p >= 1 or q >= 1, got ({self.p}, {self.q})")
        if self.d not in (0, 1):
            raise ConfigError(f"ARIMA d must be 0 or 1, got {self.d}")

    def label(self) -> str:
        return f"ARIMA({self.p},{self.d},{self.q})"


@dataclass
class ArimaFit:
    order: ArimaOrder
    phi: np.ndarray
    theta: np.ndarray
    mean: float


# windows per kernel call.  Each call pays the kernels' Python loops once,
# so larger chunks run faster up to a plateau: at lookback 60, 320 beat
# 128 by about 12% and 448 or more gained nothing.  The chunk also bounds
# the stacked stage-1 design, about 2.1 MB per chunk at lookback 60.
ARIMA_CHUNK = 320

# the codes _fit_stack gives a window (0: accepted) and fit_arima's message for each
_RANK, _NONSTATIONARY, _NONINVERTIBLE, _NONFINITE = 1, 2, 3, 4
_REJECTIONS = {
    _NONFINITE: "{label}: the differenced window or its regression overflows to non-finite values",
    _RANK: "{label}: rank-deficient regression on a {size}-point window",
    _NONSTATIONARY: "{label}: non-stationary AR estimate",
    _NONINVERTIBLE: "{label}: non-invertible MA estimate",
}


def _difference(y, d):
    x = np.asarray(y, dtype=np.float64)
    for _ in range(d):
        x = x[..., 1:] - x[..., :-1]
    return x


def _check_finite(windows):
    if not np.isfinite(windows).all():
        raise DataError("ARIMA window holds a non-finite value")


def _check_horizon(horizon, label="ARIMA"):
    try:
        as_int("horizon", horizon)
    except ConfigError:
        raise ConfigError(f"{label} horizon must be an integer, got {horizon!r}") from None
    if horizon < 1:
        raise ConfigError(f"{label} horizon must be >= 1, got {horizon}")


def _too_short(size, order: ArimaOrder):
    """True when a window of ``size`` values cannot hold ``order``'s
    regression; decided before anything is sized by p or q."""
    return size <= order.p + order.q + order.d + 1


def _fit_stack(windows, order: ArimaOrder):
    """Fit every row of a finite (W, T) stack that is not ``_too_short``.

    Returns (phi (W, p), theta (W, q), mean (W,), code (W,)), where
    code is 0 for an accepted fit, else the first reason in the order
    non-finite, rank, non-stationary, non-invertible that rejects the
    window.  Finite windows near the float64 limit can overflow in the
    differences, their mean or the regression; those rows are rejected
    as non-finite, with zero coefficients, and never raise or warn.
    """
    code = np.zeros(windows.shape[0], dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        x = _difference(windows, order.d)
        mean = x.mean(axis=1)
        x = x - mean[:, None]
    phi, theta, ok = arima_kernels.hr_fit(x, order.p, order.q)
    finite = np.isfinite(x).all(axis=1) & np.isfinite(phi).all(axis=1) & np.isfinite(theta).all(axis=1)
    phi[~finite] = 0.0
    theta[~finite] = 0.0
    # the zero-init residual and forecast recursions explode on
    # non-stationary (AR) or non-invertible (MA) estimates
    stationary = arima_kernels.companion_stable(phi)
    invertible = arima_kernels.companion_stable(-theta)
    code[~invertible] = _NONINVERTIBLE
    code[~stationary] = _NONSTATIONARY
    code[~ok] = _RANK
    code[~finite] = _NONFINITE
    return phi, theta, mean, code


def _forecast_stack(windows, phi, theta, mean, d, horizon):
    """(W, H) recursive forecasts with future residuals at zero, integrated
    d times; a forecast that overflows comes back non-finite, without a
    warning, for the caller to reject."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = _difference(windows, d) - mean[:, None]
        eps = arima_kernels.arma_residuals(x, phi, theta)
        xhat = arima_kernels.arma_predict(x, eps, phi, theta, horizon) + mean[:, None]
        return xhat if d == 0 else windows[:, -1:] + np.cumsum(xhat, axis=1)


def _one_window(window):
    """``window`` as a float64 array; one that is not 1-D or holds a
    non-finite value raises ``DataError``."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 1:
        raise DataError(f"ARIMA window must be 1-D, got shape {window.shape}")
    _check_finite(window)
    return window


def fit_arima(window, order: ArimaOrder) -> ArimaFit:
    """Hannan-Rissanen estimation on one look-back window.

    Rejects regressions that overflow to non-finite values or are rank
    deficient, and estimates that are non-stationary (AR part) or
    non-invertible (MA part), with ``ArimaFitError``.  A window that is
    not 1-D or holds a non-finite value raises ``DataError``.
    """
    window = _one_window(window)
    if _too_short(window.size, order):
        raise ArimaFitError(f"window of {window.size} values is too short for {order.label()}")
    phi, theta, mean, code = _fit_stack(window[None], order)
    if code[0]:
        raise ArimaFitError(_REJECTIONS[code[0]].format(size=window.size, label=order.label()))
    return ArimaFit(order=order, phi=phi[0], theta=theta[0], mean=float(mean[0]))


def arima_forecast(fit: ArimaFit, window, horizon: int) -> np.ndarray:
    """Recursive H-step forecast with future residuals at zero, integrated d times.

    The window must be one ``fit_arima`` could fit with ``fit.order``: a
    window that is not 1-D, holds a non-finite value or is too short for
    the order raises ``DataError``.
    """
    _check_horizon(horizon)
    window = _one_window(window)
    if _too_short(window.size, fit.order):
        raise DataError(f"window of {window.size} values is too short for {fit.order.label()}")
    out = _forecast_stack(
        window[None], fit.phi[None], fit.theta[None], np.array([fit.mean]), fit.order.d, horizon
    )[0]
    if not np.all(np.isfinite(out)):
        raise NonFiniteError(f"{fit.order.label()}: non-finite forecast")
    return out


def evaluate_arima_windows(windows, order: ArimaOrder, horizon: int):
    """``fit_arima`` then ``arima_forecast`` on every row of a (W, T) stack;
    returns (preds (W, H), ok mask).

    The stack runs through the same kernels in chunks of ``ARIMA_CHUNK``
    windows, so each row equals the per-window result bit for bit.
    Windows the fit rejects, or whose forecast is non-finite, stay NaN
    with ok=False and callers report the count.  Malformed input (not
    2-D, or a non-finite value) raises ``DataError``.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 2:
        raise DataError(f"ARIMA windows must be a 2-D (W, T) stack, got shape {windows.shape}")
    _check_finite(windows)
    _check_horizon(horizon)
    preds = np.full((windows.shape[0], horizon), np.nan)
    ok = np.zeros(windows.shape[0], dtype=bool)
    if _too_short(windows.shape[1], order):
        return preds, ok
    for start in range(0, windows.shape[0], ARIMA_CHUNK):
        chunk = windows[start : start + ARIMA_CHUNK]
        phi, theta, mean, code = _fit_stack(chunk, order)
        rows = np.flatnonzero(code == 0)
        out = _forecast_stack(chunk[rows], phi[rows], theta[rows], mean[rows], order.d, horizon)
        finite = np.isfinite(out).all(axis=1)
        preds[start + rows[finite]] = out[finite]
        ok[start + rows[finite]] = True
    return preds, ok


def persistence_forecast(window, horizon: int) -> np.ndarray:
    """Repeat the last observed value across the horizon.

    A window that is not 1-D or is empty raises ``DataError``, a horizon
    below 1 ``ConfigError``.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 1:
        raise DataError(f"persistence_forecast: window must be 1-D, got shape {window.shape}")
    if window.size == 0:
        raise DataError("persistence_forecast: empty window")
    _check_horizon(horizon, "persistence")
    return np.full(horizon, window[-1])


# ---------------------------------------------------------------------------
# LSTM-only baseline


class LstmBaseline:
    """Stacked LSTM with a per-step linear head; the hidden sequence maps
    to one channel and the last H steps are taken as the forecast."""

    def __init__(self, channels, hidden, layers, horizon, lookback, rng):
        if lookback < horizon:
            raise ConfigError(
                f"LSTM baseline needs lookback >= horizon ({lookback} < {horizon})"
            )
        self.horizon = horizon
        params = ad.Parameters(rng)
        self.layers = [
            LstmLayer(channels if i == 0 else hidden, hidden, params.scope(f"lstm{i}"))
            for i in range(layers)
        ]
        self.head = Dense(hidden, 1, params.scope("head"))
        self.named = params.named

    def forward(self, x) -> ad.Tensor:
        h = ad.astensor(x)
        for layer in self.layers:
            h = layer(h)
        y = self.head(h)  # (B, N, 1)
        return y[:, -self.horizon :, 0]

    def predict(self, x) -> np.ndarray:
        return ad.checked_forward(lambda: self.forward(x).data)
