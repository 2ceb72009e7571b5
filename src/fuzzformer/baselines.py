"""Reference forecasters: per-window ARIMA, persistence, and LSTM-only.

The ARIMA baseline refits on every input window (it keeps no state
across windows, unlike the learned models) with two-stage
Hannan-Rissanen least squares on the differenced, demeaned window;
demeaning the differences acts as a drift term.  Coefficients follow the
standard regression convention x_t = sum_j phi_j x_{t-j} + sum_n
theta_n eps_{t-n} + eps_t.  Windows where the regression is rank
deficient are skipped and counted rather than guessed at.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Adam
from .data import WindowedDataset
from .encoder import Dense, LstmLayer
from .exceptions import ArimaFitError, ConfigError, DataError, NonFiniteError
from .kernels import arima as arima_kernels


def rmse(pred, target) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    return float(np.sqrt(np.mean((pred - target) ** 2)))


@dataclass
class ArimaOrder:
    p: int
    d: int
    q: int

    def __post_init__(self):
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


def _difference(y, d):
    x = np.asarray(y, dtype=np.float64)
    for _ in range(d):
        x = x[1:] - x[:-1]
    return x


def fit_arima(window, order: ArimaOrder) -> ArimaFit:
    """Hannan-Rissanen estimation on one look-back window.

    Rejects rank-deficient regressions and estimates that are
    non-stationary (AR part) or non-invertible (MA part): the zero-init
    residual and forecast recursions explode on such coefficients.
    A window that is not 1-D or holds a non-finite value raises
    ``DataError``.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 1:
        raise DataError(f"ARIMA window must be 1-D, got shape {window.shape}")
    if not np.isfinite(window).all():
        raise DataError("ARIMA window holds a non-finite value")
    if window.size <= order.p + order.q + order.d + 1:
        raise ArimaFitError(
            f"window of {window.size} values is too short for {order.label()}"
        )
    x = _difference(window, order.d)
    mean = float(x.mean())
    phi, theta, ok = arima_kernels.hr_fit(x - mean, order.p, order.q)
    if not ok:
        raise ArimaFitError(
            f"{order.label()}: rank-deficient regression on a {window.size}-point window"
        )
    if not arima_kernels.companion_stable(phi):
        raise ArimaFitError(f"{order.label()}: non-stationary AR estimate")
    if not arima_kernels.companion_stable(-theta):
        raise ArimaFitError(f"{order.label()}: non-invertible MA estimate")
    return ArimaFit(order=order, phi=phi, theta=theta, mean=mean)


def arima_forecast(fit: ArimaFit, window, horizon: int) -> np.ndarray:
    """Recursive H-step forecast with future residuals at zero, integrated d times."""
    if horizon < 1:
        raise ConfigError(f"ARIMA horizon must be >= 1, got {horizon}")
    window = np.asarray(window, dtype=np.float64)
    x = _difference(window, fit.order.d) - fit.mean
    eps = arima_kernels.arma_residuals(x, fit.phi, fit.theta)
    xhat = arima_kernels.arma_predict(x, eps, fit.phi, fit.theta, horizon) + fit.mean
    if fit.order.d == 0:
        out = xhat
    else:
        out = window[-1] + np.cumsum(xhat)
    if not np.all(np.isfinite(out)):
        raise NonFiniteError(f"{fit.order.label()}: non-finite forecast")
    return out


def evaluate_arima_windows(windows, order: ArimaOrder, horizon: int):
    """``fit_arima`` then ``arima_forecast`` on every row of a (W, T) stack;
    returns (preds (W, H), ok mask).

    Windows the fit rejects, or whose forecast is non-finite, stay NaN
    with ok=False and callers report the count.  Malformed input (not
    2-D, or a non-finite value) raises ``DataError``.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 2:
        raise DataError(f"ARIMA windows must be a 2-D (W, T) stack, got shape {windows.shape}")
    if horizon < 1:
        raise ConfigError(f"ARIMA horizon must be >= 1, got {horizon}")
    preds = np.full((windows.shape[0], horizon), np.nan)
    ok = np.zeros(windows.shape[0], dtype=bool)
    for w, window in enumerate(windows):
        try:
            preds[w] = arima_forecast(fit_arima(window, order), window, horizon)
        except (ArimaFitError, NonFiniteError):
            continue
        ok[w] = True
    return preds, ok


def persistence_forecast(window, horizon: int) -> np.ndarray:
    """Repeat the last observed value across the horizon."""
    window = np.asarray(window, dtype=np.float64)
    if window.size == 0:
        raise DataError("persistence_forecast: empty window")
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
        self.layers = [
            LstmLayer(channels if i == 0 else hidden, hidden, rng) for i in range(layers)
        ]
        self.head = Dense(hidden, 1, rng)

    def forward(self, x) -> ad.Tensor:
        h = ad.astensor(x)
        for layer in self.layers:
            h = layer(h)
        y = self.head(h)  # (B, N, 1)
        return y[:, -self.horizon :, 0]

    def predict(self, x) -> np.ndarray:
        with ad.no_grad():
            return self.forward(x).data

    def parameters(self):
        named = []
        for i, layer in enumerate(self.layers):
            named.extend((f"lstm{i}.{n}", t) for n, t in layer.parameters())
        named.extend((f"head.{n}", t) for n, t in self.head.parameters())
        return named


def train_lstm_baseline(
    dataset: WindowedDataset,
    hidden=32,
    layers=1,
    epochs=30,
    learning_rate=1e-3,
    batch_size=64,
    seed=0,
    log=None,
) -> LstmBaseline:
    """Fit the LSTM-only baseline on the training split with Adam on MSE."""
    ss = np.random.SeedSequence(seed)
    rng_init, rng_shuffle = [np.random.default_rng(s) for s in ss.spawn(2)]
    model = LstmBaseline(
        channels=dataset.matrix.shape[1],
        hidden=hidden,
        layers=layers,
        horizon=dataset.horizon,
        lookback=dataset.lookback,
        rng=rng_init,
    )
    opt = Adam([t for _, t in model.parameters()], learning_rate=learning_rate)
    train_origins = dataset.origins_for("train")
    for epoch in range(epochs):
        order = rng_shuffle.permutation(train_origins)
        total = 0.0
        for start in range(0, order.size, batch_size):
            chunk = order[start : start + batch_size]
            batch = dataset.batch(chunk, history=1)
            pred = model.forward(batch.x)
            diff = ad.sub(pred, ad.Tensor(batch.y_target))
            loss = ad.tsum(ad.mul(diff, diff))
            ad.backward(loss)
            opt.step()
            total += loss.item()
        if log is not None:
            log(f"lstm-baseline epoch {epoch + 1}/{epochs} train_mse={total / max(train_origins.size, 1):.6f}")
    return model


def lstm_baseline_forecasts(model: LstmBaseline, dataset: WindowedDataset, split) -> np.ndarray:
    origins = dataset.origins_for(split)
    preds = np.zeros((origins.size, dataset.horizon))
    for start in range(0, origins.size, 256):
        chunk = origins[start : start + 256]
        batch = dataset.batch(chunk, history=1)
        preds[start : start + chunk.size] = model.predict(batch.x)
    return preds
