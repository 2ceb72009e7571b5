"""Tests for ARIMA, persistence, and LSTM-only baselines."""

import re
import tracemalloc
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import arima_oracle
from fuzzformer.baselines import (
    ARIMA_CHUNK,
    ArimaFit,
    ArimaOrder,
    LstmBaseline,
    arima_forecast,
    evaluate_arima_windows,
    fit_arima,
    persistence_forecast,
    rmse,
)
from fuzzformer.data import RawSeries, make_synthetic, prepare_dataset
from fuzzformer.exceptions import ArimaFitError, ConfigError, DataError, NonFiniteError
from fuzzformer.kernels import arima as arima_kernels
from fuzzformer.training import train_lstm_baseline


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

    def test_numpy_integers_are_accepted(self):
        order = ArimaOrder(np.int64(2), np.int32(1), np.uint8(1))
        assert order == ArimaOrder(2, 1, 1) and order.label() == "ARIMA(2,1,1)"
        windows = np.random.default_rng(2).normal(size=(3, 40)).cumsum(axis=1)
        preds, ok = evaluate_arima_windows(windows, order, np.int64(4))
        want, want_ok = evaluate_arima_windows(windows, ArimaOrder(2, 1, 1), 4)
        assert np.array_equal(preds, want, equal_nan=True) and np.array_equal(ok, want_ok)
        assert persistence_forecast(windows[0], np.int16(2)).shape == (2,)


ZERO_FIT = ArimaFit(ArimaOrder(1, 1, 1), np.zeros(1), np.zeros(1), 0.0)


@pytest.mark.parametrize(
    "call, args, message",
    [
        (ArimaOrder, (1.5, 1, 1), "ARIMA order must be integers, got (1.5, 1, 1)"),
        (ArimaOrder, ("2", 1, 1), "ARIMA order must be integers, got ('2', 1, 1)"),
        (ArimaOrder, (2, 1, 1.0), "ARIMA order must be integers, got (2, 1, 1.0)"),
        (ArimaOrder, (True, 1, False), "ARIMA order must be integers, got (True, 1, False)"),
        (ArimaOrder, (2, True, 1), "ARIMA order must be integers, got (2, True, 1)"),
        *[
            (call, (*args, horizon), f"{label} horizon must be an integer, got {horizon}")
            for horizon in (5.0, 2.5, True)
            for call, args, label in (
                (evaluate_arima_windows, (np.ones((2, 10)), ArimaOrder(1, 1, 1)), "ARIMA"),
                (arima_forecast, (ZERO_FIT, np.arange(10.0)), "ARIMA"),
                (persistence_forecast, (np.arange(3.0),), "persistence"),
            )
        ],
    ],
    ids=[
        "p-float", "p-str", "q-float", "p-q-bool", "d-bool",
        *[f"{name}-{h}" for h in (5.0, 2.5, True) for name in ("evaluate", "forecast", "persistence")],
    ],
)
def test_malformed_arima_input_is_a_config_error(call, args, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call(*args)


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
        window = np.array([1.0, 4.0, 2.0, 3.0, 8.0])  # the shortest window fit_arima takes
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

    @pytest.mark.parametrize(
        "window, message",
        [
            (np.ones((2, 60)), r"must be 1-D, got shape \(2, 60\)"),
            (np.zeros(0), r"window of 0 values is too short for ARIMA\(2,1,1\)"),
            (np.full(60, np.nan), "non-finite"),
            (np.array([1.0, 2.0]), r"window of 2 values is too short for ARIMA\(2,1,1\)"),
        ],
        ids=["2-D", "empty", "NaN", "two values"],
    )
    def test_a_window_fit_arima_would_refuse_is_a_data_error(self, window, message):
        fit = fit_arima(np.random.default_rng(7).normal(size=60).cumsum(), ArimaOrder(2, 1, 1))
        with pytest.raises(DataError, match=message):
            arima_forecast(fit, window, 5)

    def test_d1_starts_from_last_level(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=200).cumsum() + 50
        fit = fit_arima(y, ArimaOrder(p=2, d=1, q=1))
        out = arima_forecast(fit, y, 10)
        # first step deviates from the last level only by the modeled increment
        assert abs(out[0] - y[-1]) < np.abs(np.diff(y)).max()


def evaluation_cases():
    """(windows, order, horizon, rejection reasons the stack must show)."""
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
    return [
        (good, ArimaOrder(p=2, d=1, q=1), 7, set()),
        (mixed, ArimaOrder(p=1, d=1, q=1), 7, {"non-stationary", "non-invertible", "rank"}),
        (short, ArimaOrder(p=1, d=1, q=1), 3, {"short"}),
    ]


def assert_matches_oracle(windows, order, horizon):
    preds, ok = evaluate_arima_windows(windows, order, horizon)
    for w in range(windows.shape[0]):
        want = arima_oracle.forecast_window(windows[w], order.p, order.d, order.q, horizon)
        assert ok[w] == (want is not None), w
        if want is None:
            assert np.isnan(preds[w]).all()
        else:
            np.testing.assert_allclose(preds[w], want, rtol=0, atol=1e-10)
    return ok


class TestEvaluateWindows:
    def test_matches_per_window_api(self):
        for windows, order, horizon, reasons in evaluation_cases():
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

    def test_mixed_and_short_stacks_match_scalar_oracle(self):
        for windows, order, horizon, _reasons in evaluation_cases():
            assert_matches_oracle(windows, order, horizon)

    @pytest.mark.parametrize("seed", [42, 301, 302])
    def test_synthetic_windows_match_scalar_oracle(self, seed):
        dataset = prepare_dataset(make_synthetic(n_points=1200, seed=seed), lookback=60, horizon=30)
        windows = dataset.window_main(dataset.origins)
        for p, d, q in [(4, 1, 1), (2, 1, 1), (1, 0, 1), (3, 0, 0), (2, 1, 2), (0, 1, 1)]:
            ok = assert_matches_oracle(windows, ArimaOrder(p, d, q), dataset.horizon)
            assert ok.mean() > 0.8

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_row_is_bit_identical_alone_in_a_stack_and_across_chunks(self, data):
        T = data.draw(st.integers(4, 70), label="T")
        p = data.draw(st.integers(0, 4), label="p")
        q = data.draw(st.integers(0 if p else 1, 2), label="q")
        order = ArimaOrder(p, data.draw(st.integers(0, 1), label="d"), q)
        horizon = data.draw(st.integers(1, 8), label="horizon")
        steps = hnp.arrays(np.float64, T, elements=st.floats(-100.0, 100.0))
        window = np.cumsum(data.draw(steps, label="steps")) if data.draw(st.booleans()) else data.draw(steps)
        # the window sits first, last in chunk 0, or first in chunk 1
        at = data.draw(st.sampled_from([0, ARIMA_CHUNK - 1, ARIMA_CHUNK]), label="at")
        stack = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed")).normal(
            size=(ARIMA_CHUNK + 3, T)
        ).cumsum(axis=1)
        stack[at] = window
        alone, ok_alone = evaluate_arima_windows(window[None], order, horizon)
        preds, ok = evaluate_arima_windows(stack, order, horizon)
        assert ok[at] == ok_alone[0]
        assert np.array_equal(preds[at], alone[0], equal_nan=True)
        try:
            want = arima_forecast(fit_arima(window, order), window, horizon)
        except (ArimaFitError, NonFiniteError):
            assert not ok[at]
        else:
            assert ok[at] and np.array_equal(preds[at], want)

    def test_infeasible_windows_are_skipped_and_counted(self):
        rng = np.random.default_rng(7)
        windows = rng.normal(size=(5, 60)).cumsum(axis=1)
        preds, ok = evaluate_arima_windows(windows, ArimaOrder(p=30, d=1, q=1), horizon=5)
        assert not ok.any()
        assert np.isnan(preds).all()

    @pytest.mark.parametrize("p,q", [(10**6, 1), (1, 10**6)], ids=["p", "q"])
    def test_order_beyond_the_window_allocates_nothing(self, p, q):
        # shortness is decided before any array is sized by p or q
        windows = np.random.default_rng(8).normal(size=(3, 60)).cumsum(axis=1)
        order = ArimaOrder(p=p, d=1, q=q)
        tracemalloc.start()
        try:
            preds, ok = evaluate_arima_windows(windows, order, horizon=5)
            with pytest.raises(ArimaFitError, match="too short"):
                fit_arima(windows[0], order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not ok.any() and np.isnan(preds).all()
        assert peak < 1 << 20

    def test_one_dimensional_input_raises_data_error(self):
        with pytest.raises(DataError, match="2-D"):
            evaluate_arima_windows(np.arange(80.0), ArimaOrder(p=2, d=1, q=1), horizon=5)


# finite windows whose fit overflows float64, by where the overflow starts
OVERFLOWING = {
    "differences": np.tile([1e308, -1e308], 30),
    "mean": np.tile([6e307, -6e307], 30),
    "regression": np.random.default_rng(0).uniform(-1.0, 1.0, 60) * 5e307,
}


class TestOverflowingWindows:
    """Finite windows near the float64 limit are rejected, never raised on or warned about."""

    @pytest.mark.parametrize("order", [(4, 1, 1), (2, 0, 0), (2, 0, 1), (1, 1, 2)], ids=str)
    @pytest.mark.parametrize("kind", OVERFLOWING)
    def test_rejected_row_leaves_the_others_bit_identical(self, monkeypatch, kind, order):
        order = ArimaOrder(*order)
        good = np.random.default_rng(3).normal(size=(3, 60)).cumsum(axis=1)
        want, want_ok = evaluate_arima_windows(good, order, 7)
        stable = arima_kernels.companion_stable

        def finite_only(coeffs):
            assert np.isfinite(coeffs).all()
            return stable(coeffs)

        monkeypatch.setattr(arima_kernels, "companion_stable", finite_only)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            preds, ok = evaluate_arima_windows(np.vstack([good, OVERFLOWING[kind]]), order, 7)
            with pytest.raises(ArimaFitError, match="non-finite"):
                fit_arima(OVERFLOWING[kind], order)
        assert want_ok.all() and ok.tolist() == [True, True, True, False]
        assert np.array_equal(preds[:3], want) and np.isnan(preds[3]).all()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_scale_raises_only_data_error_and_matches_per_window_api(self, data):
        W = data.draw(st.integers(1, 4), label="W")
        T = data.draw(st.integers(4, 70), label="T")
        p = data.draw(st.integers(0, 4), label="p")
        q = data.draw(st.integers(0 if p else 1, 2), label="q")
        order = ArimaOrder(p, data.draw(st.integers(0, 1), label="d"), q)
        horizon = data.draw(st.integers(1, 8), label="horizon")
        stack = data.draw(hnp.arrays(np.float64, (W, T), elements=st.floats(-100.0, 100.0)), label="stack")
        if data.draw(st.booleans(), label="walk"):
            stack = stack.cumsum(axis=1)
        # every other draw sits at the float64 limit, where the fit overflows
        scales = st.integers(-300, 308) | st.integers(300, 308)
        k = data.draw(hnp.arrays(np.int64, W, elements=scales), label="k")
        with np.errstate(over="ignore"):
            stack = stack * 10.0 ** k[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                preds, ok = evaluate_arima_windows(stack, order, horizon)
            except DataError:
                assert not np.isfinite(stack).all()
                return
            for w in range(W):
                try:
                    want = arima_forecast(fit_arima(stack[w], order), stack[w], horizon)
                except (ArimaFitError, NonFiniteError):
                    assert not ok[w] and np.isnan(preds[w]).all()
                else:
                    assert ok[w] and np.array_equal(preds[w], want)


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

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_is_a_config_error(self, horizon):
        with pytest.raises(ConfigError, match=f"^persistence horizon must be >= 1, got {horizon}$"):
            persistence_forecast(np.array([1.0, 2.0]), horizon)

    @pytest.mark.parametrize("shape", [(2, 3), (1, 1), ()])
    def test_window_not_1d_is_a_data_error(self, shape):
        with pytest.raises(DataError, match=re.escape(f"window must be 1-D, got shape {shape}")):
            persistence_forecast(np.ones(shape), 3)


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
        lstm_rmse = rmse(model.predict(batch.x), batch.y_target)
        pers = np.stack(
            [persistence_forecast(w, ds.horizon) for w in ds.window_main(origins)]
        )
        pers_rmse = rmse(pers, batch.y_target)
        assert lstm_rmse < pers_rmse

    def test_empty_train_split_raises_data_error(self):
        # 100 rows with lookback 90 and horizon 5: every origin is past
        # the 80-row training range
        ds = prepare_dataset(make_synthetic(100), lookback=90, horizon=5)
        assert ds.origins_for("train").size == 0
        with pytest.raises(DataError, match="dataset has no training samples"):
            train_lstm_baseline(ds, hidden=4, layers=1, epochs=1)

    def test_zero_epochs_still_forecasts(self):
        ds = sinusoid_dataset(n=200, lookback=40, horizon=10)
        model = train_lstm_baseline(ds, hidden=4, layers=1, epochs=0, seed=1)
        preds = model.predict(ds.batch(ds.origins_for("test"), history=1).x)
        assert preds.shape[1] == 10
        assert np.all(np.isfinite(preds))

    @pytest.mark.parametrize(
        "name, value",
        [("hidden", 2.5), ("hidden", True), ("layers", 1.0), ("batch_size", 16.0), ("epochs", 1.0),
         ("epochs", False), ("seed", 0.5), ("seed", True)],
    )
    def test_non_integer_sizes_are_config_errors(self, name, value):
        ds = prepare_dataset(make_synthetic(n_points=400, seed=3), lookback=12, horizon=4)
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{name} must be int, got {value!r}')}$"):
            train_lstm_baseline(ds, **{"hidden": 4, "epochs": 1, **{name: value}})

    @pytest.mark.parametrize("value", [True, "0.1", None])
    def test_non_real_learning_rate_is_a_config_error(self, value):
        ds = prepare_dataset(make_synthetic(n_points=400, seed=3), lookback=12, horizon=4)
        with pytest.raises(ConfigError, match=f"^{re.escape(f'learning_rate must be float, got {value!r}')}$"):
            train_lstm_baseline(ds, hidden=4, epochs=1, learning_rate=value)

    def test_int_and_numpy_learning_rates_are_accepted(self):
        ds = prepare_dataset(make_synthetic(n_points=400, seed=3), lookback=12, horizon=4)
        a = train_lstm_baseline(ds, hidden=4, epochs=1, learning_rate=0.5)
        for rate in (np.float64(0.5), np.float32(0.5)):
            b = train_lstm_baseline(ds, hidden=4, epochs=1, learning_rate=rate)
            assert all(np.array_equal(ta.data, tb.data) for (_, ta), (_, tb) in zip(a.named, b.named))
        train_lstm_baseline(ds, hidden=4, epochs=1, learning_rate=1)

    def test_numpy_integer_sizes_are_accepted(self):
        ds = prepare_dataset(make_synthetic(n_points=400, seed=3), lookback=12, horizon=4)
        sizes = dict(hidden=4, layers=1, epochs=1, batch_size=64, seed=3)
        a = train_lstm_baseline(ds, **sizes)
        b = train_lstm_baseline(ds, **{k: np.int64(v) for k, v in sizes.items()})
        assert all(np.array_equal(ta.data, tb.data) for (_, ta), (_, tb) in zip(a.named, b.named))

    def test_empty_batch_forecasts_nothing(self):
        model = LstmBaseline(3, 4, 2, 5, 12, np.random.default_rng(0))
        assert model.predict(np.zeros((0, 12, 3))).shape == (0, 5)

    def test_numeric_failure_names_epoch_and_batch(self):
        ds = prepare_dataset(make_synthetic(n_points=400, seed=3), lookback=12, horizon=4)
        # the first step moves every weight by about the learning rate
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as info:
            train_lstm_baseline(ds, hidden=4, epochs=1, learning_rate=1e308, batch_size=16, seed=1)
        assert str(info.value) == (
            "epoch 1, batch at sample 16: lstm_scan: non-finite values in forward pass"
        )

    def test_seeded_determinism(self):
        ds = sinusoid_dataset(n=300, lookback=20, horizon=5)
        r = []
        for _ in range(2):
            model = train_lstm_baseline(ds, hidden=4, layers=1, epochs=3, seed=5)
            origins = ds.origins_for("test")
            batch = ds.batch(origins, history=1)
            r.append(rmse(model.predict(batch.x), batch.y_target))
        assert r[0] == r[1]
