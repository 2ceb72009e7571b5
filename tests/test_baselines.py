"""Tests for ARIMA, persistence, and LSTM-only baselines."""

import numpy as np
import pytest

from fuzzformer.baselines import (
    ArimaFit,
    ArimaOrder,
    arima_forecast,
    evaluate_arima_windows,
    fit_arima,
    lstm_baseline_forecasts,
    persistence_forecast,
    rmse,
    train_lstm_baseline,
)
from fuzzformer.data import RawSeries, prepare_dataset
from fuzzformer.exceptions import ArimaFitError, ConfigError, DataError, NonFiniteError


def simulate_arma(rng, n, phi=(), theta=(), scale=1.0):
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    eps = rng.normal(scale=scale, size=n)
    x = np.zeros(n)
    for t in range(n):
        acc = eps[t]
        for j, p in enumerate(phi, start=1):
            if t - j >= 0:
                acc += p * x[t - j]
        for j, q in enumerate(theta, start=1):
            if t - j >= 0:
                acc += q * eps[t - j]
        x[t] = acc
    return x


class TestArimaOrder:
    def test_rejects_empty_model(self):
        with pytest.raises(ConfigError):
            ArimaOrder(p=0, d=0, q=0)

    def test_rejects_high_differencing(self):
        with pytest.raises(ConfigError):
            ArimaOrder(p=1, d=2, q=0)


class TestFitArima:
    def test_recovers_pure_ar2(self):
        rng = np.random.default_rng(0)
        x = simulate_arma(rng, 10_000, phi=(0.5, -0.3))
        fit = fit_arima(x, ArimaOrder(p=2, d=0, q=0))
        np.testing.assert_allclose(fit.phi, [0.5, -0.3], atol=0.05)

    def test_white_noise_has_no_ar_signal(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=10_000)
        fit = fit_arima(x, ArimaOrder(p=1, d=0, q=0))
        assert abs(fit.phi[0]) < 0.05

    def test_recovers_arma11(self):
        rng = np.random.default_rng(2)
        x = simulate_arma(rng, 20_000, phi=(0.6,), theta=(0.3,))
        fit = fit_arima(x, ArimaOrder(p=1, d=0, q=1))
        assert abs(fit.phi[0] - 0.6) < 0.05
        assert abs(fit.theta[0] - 0.3) < 0.05

    def test_constant_series_d1_zero_coefficients(self):
        fit = fit_arima(np.full(80, 3.7), ArimaOrder(p=2, d=1, q=1))
        np.testing.assert_array_equal(fit.phi, 0.0)
        np.testing.assert_array_equal(fit.theta, 0.0)
        out = arima_forecast(fit, np.full(80, 3.7), horizon=5)
        np.testing.assert_allclose(out, 3.7)

    def test_too_short_window_errors(self):
        with pytest.raises(ArimaFitError, match="short"):
            fit_arima(np.arange(5.0), ArimaOrder(p=4, d=1, q=1))

    def test_infeasible_order_errors(self):
        # p=30 on a 60-point window cannot be identified
        rng = np.random.default_rng(3)
        with pytest.raises(ArimaFitError, match="rank"):
            fit_arima(rng.normal(size=60).cumsum(), ArimaOrder(p=30, d=1, q=1))

    def test_explosive_ar_estimate_rejected(self):
        rng = np.random.default_rng(0)
        y = np.zeros(300)
        for t in range(1, 300):
            y[t] = 1.1 * y[t - 1] + rng.normal()
        with pytest.raises(ArimaFitError, match="non-stationary"):
            fit_arima(y, ArimaOrder(p=1, d=0, q=0))

    def test_non_invertible_ma_estimate_rejected(self):
        # over-differencing white noise pushes the MA root onto/over the
        # unit circle; this seed lands it outside
        w = np.random.default_rng(1).normal(size=120)
        with pytest.raises(ArimaFitError, match="non-invertible"):
            fit_arima(w, ArimaOrder(p=1, d=1, q=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_window_raises_data_error(self, bad):
        window = np.random.default_rng(9).normal(size=80).cumsum()
        window[40] = bad
        with pytest.raises(DataError, match="non-finite"):
            fit_arima(window, ArimaOrder(p=2, d=1, q=1))
        # one bad window fails the whole stack with the same typed error
        with pytest.raises(DataError, match="non-finite"):
            evaluate_arima_windows(np.stack([window + 1, window]), ArimaOrder(p=2, d=1, q=1), 5)

    def test_two_dimensional_window_raises_data_error(self):
        windows = np.random.default_rng(10).normal(size=(2, 80)).cumsum(axis=1)
        with pytest.raises(DataError, match="1-D"):
            fit_arima(windows, ArimaOrder(p=2, d=1, q=1))

    def test_companion_stability_helper(self):
        from fuzzformer.kernels.arima import companion_stable

        assert companion_stable(np.array([0.5]))
        assert not companion_stable(np.array([1.2]))
        assert companion_stable(np.array([0.5, -0.3]))
        assert not companion_stable(np.array([1.5, -0.3]))
        assert companion_stable(np.zeros(0))


class TestArimaForecast:
    def test_zero_coefficients_d1_is_persistence(self):
        fit = ArimaFit(ArimaOrder(1, 1, 1), np.zeros(1), np.zeros(1), 0.0)
        window = np.array([1.0, 4.0, 2.0, 8.0])
        np.testing.assert_allclose(arima_forecast(fit, window, 6), 8.0)

    def test_ar1_geometric_decay_closed_form(self):
        a = 0.7
        fit = ArimaFit(ArimaOrder(1, 0, 0), np.array([a]), np.zeros(0), 0.0)
        window = np.array([0.0, 0.0, 0.0, 2.0])
        # residual recursion on a window that is not AR(1)-consistent still
        # forecasts x_{T+h} = a^h * x_T with zero future residuals
        out = arima_forecast(fit, window, 5)
        np.testing.assert_allclose(out, 2.0 * a ** np.arange(1, 6), atol=1e-9)

    def test_forecast_prefix_property(self):
        rng = np.random.default_rng(4)
        x = simulate_arma(rng, 300, phi=(0.5,), theta=(0.2,))
        fit = fit_arima(x, ArimaOrder(p=1, d=0, q=1))
        h1 = arima_forecast(fit, x, 1)
        h2 = arima_forecast(fit, x, 2)
        assert h1[0] == h2[0]

    def test_non_positive_horizon_raises_config_error(self):
        fit = ArimaFit(ArimaOrder(1, 1, 1), np.zeros(1), np.zeros(1), 0.0)
        with pytest.raises(ConfigError, match="horizon"):
            arima_forecast(fit, np.arange(10.0), horizon=-3)
        with pytest.raises(ConfigError, match="horizon"):
            evaluate_arima_windows(np.ones((2, 10)), ArimaOrder(1, 1, 1), horizon=-3)

    def test_d1_starts_from_last_level(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=200).cumsum() + 50
        fit = fit_arima(y, ArimaOrder(p=2, d=1, q=1))
        out = arima_forecast(fit, y, 10)
        # first step deviates from the last level only by the modeled increment
        assert abs(out[0] - y[-1]) < np.abs(np.diff(y)).max()


class TestEvaluateWindows:
    def test_matches_per_window_api(self):
        rng = np.random.default_rng(6)
        series = simulate_arma(rng, 400, phi=(0.4,), theta=(0.2,)).cumsum()
        good = np.stack([series[i : i + 80] for i in range(0, 200, 10)])
        # one stack mixing accepted windows with each way fit_arima rejects
        explosive = np.zeros(120)
        noise = np.random.default_rng(0).normal(size=120)
        for t in range(1, 120):
            explosive[t] = 1.1 * explosive[t - 1] + noise[t]
        mixed = np.stack(
            [series[i : i + 120] for i in range(0, 200, 40)]
            + [
                explosive,
                # the seed-1 case of test_non_invertible_ma_estimate_rejected
                np.random.default_rng(1).normal(size=120),
                np.cumsum(np.tile([1.0, -1.0], 60)),
            ]
        )
        # linear ramps difference to zeros, which hr_fit alone would accept
        short = np.arange(4.0) + np.arange(3.0)[:, None]
        cases = [
            (good, ArimaOrder(p=2, d=1, q=1), 7, set()),
            (mixed, ArimaOrder(p=1, d=1, q=1), 7, {"non-stationary", "non-invertible", "rank"}),
            (short, ArimaOrder(p=1, d=1, q=1), 3, {"short"}),
        ]
        for windows, order, horizon, reasons in cases:
            preds, ok = evaluate_arima_windows(windows, order, horizon)
            rejected = []
            for w in range(windows.shape[0]):
                try:
                    want = arima_forecast(fit_arima(windows[w], order), windows[w], horizon)
                except (ArimaFitError, NonFiniteError) as err:
                    rejected.append(str(err))
                    assert not ok[w]
                    assert np.isnan(preds[w]).all()
                    continue
                assert ok[w]
                np.testing.assert_array_equal(preds[w], want)
            for reason in reasons:
                assert any(reason in msg for msg in rejected), reason
            if not reasons:
                assert ok.all()

    def test_infeasible_windows_are_skipped_and_counted(self):
        rng = np.random.default_rng(7)
        windows = rng.normal(size=(5, 60)).cumsum(axis=1)
        preds, ok = evaluate_arima_windows(windows, ArimaOrder(p=30, d=1, q=1), horizon=5)
        assert not ok.any()
        assert np.isnan(preds).all()

    def test_one_dimensional_input_raises_data_error(self):
        with pytest.raises(DataError, match="2-D"):
            evaluate_arima_windows(np.arange(80.0), ArimaOrder(p=2, d=1, q=1), horizon=5)


class TestPersistence:
    def test_repeats_last_value(self):
        out = persistence_forecast(np.array([1.0, 2.0, 0.42]), 30)
        np.testing.assert_array_equal(out, np.full(30, 0.42))

    def test_constant_series_rmse_zero(self):
        window = np.full(10, 5.0)
        preds = persistence_forecast(window, 4)
        assert rmse(preds, np.full(4, 5.0)) == 0.0

    def test_ignores_earlier_history(self):
        a = persistence_forecast(np.array([9.0, -3.0, 1.5]), 3)
        b = persistence_forecast(np.array([0.0, 100.0, 1.5]), 3)
        np.testing.assert_array_equal(a, b)

    def test_empty_window(self):
        with pytest.raises(DataError):
            persistence_forecast(np.array([]), 3)


def sinusoid_dataset(n=1000, lookback=60, horizon=30):
    # the split embargo consumes lookback + horizon - 1 samples per
    # boundary, so n must be comfortably larger than 10x that
    t = np.arange(n, dtype=float)
    rng = np.random.default_rng(8)
    main = np.sin(2 * np.pi * t / 40.0) + 0.02 * rng.normal(size=n)
    other = np.cos(2 * np.pi * t / 40.0) + 0.02 * rng.normal(size=n)
    dates = [f"d{i:05d}" for i in range(n)]
    # windowing never parses dates, any unique strings will do
    series = [RawSeries("main", dates, main + 2.0), RawSeries("aux", dates, other + 2.0)]
    return prepare_dataset(series, lookback=lookback, horizon=horizon)


class TestLstmBaseline:
    def test_learns_sinusoid_better_than_persistence(self):
        ds = sinusoid_dataset()
        assert ds.origins_for("valid").size > 0
        model = train_lstm_baseline(ds, hidden=8, layers=1, epochs=25, learning_rate=3e-3, seed=0)
        origins = ds.origins_for("valid")
        batch = ds.batch(origins, history=1)
        lstm_rmse = rmse(lstm_baseline_forecasts(model, ds, "valid"), batch.y_target)
        pers = np.stack(
            [persistence_forecast(w, ds.horizon) for w in ds.window_main(origins)]
        )
        pers_rmse = rmse(pers, batch.y_target)
        assert lstm_rmse < pers_rmse

    def test_zero_epochs_still_forecasts(self):
        ds = sinusoid_dataset(n=200, lookback=40, horizon=10)
        model = train_lstm_baseline(ds, hidden=4, layers=1, epochs=0, seed=1)
        preds = lstm_baseline_forecasts(model, ds, "test")
        assert preds.shape[1] == 10
        assert np.all(np.isfinite(preds))

    def test_seeded_determinism(self):
        ds = sinusoid_dataset(n=300, lookback=20, horizon=5)
        r = []
        for _ in range(2):
            model = train_lstm_baseline(ds, hidden=4, layers=1, epochs=3, seed=5)
            origins = ds.origins_for("test")
            batch = ds.batch(origins, history=1)
            r.append(rmse(lstm_baseline_forecasts(model, ds, "test"), batch.y_target))
        assert r[0] == r[1]
