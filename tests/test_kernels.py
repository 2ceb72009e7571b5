"""The fused LSTM scan against finite differences, and the ARMA leaves."""

import numpy as np

from fuzzformer.kernels import arima as ak, lstm as lk

from gradcheck import fd_gradient, max_rel_err


def _lstm_inputs(rng, N=6, B=3, d_in=4, d_h=5):
    x = np.ascontiguousarray(rng.normal(size=(N, B, d_in)))
    wx = rng.normal(size=(d_in, 4 * d_h)) * 0.4
    wh = rng.normal(size=(d_h, 4 * d_h)) * 0.4
    b = rng.normal(size=4 * d_h) * 0.2
    return x, wx, wh, b


class TestLstmKernels:
    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x, wx, wh, b = _lstm_inputs(rng, N=4, B=2, d_in=2, d_h=3)
        mixer = rng.normal(size=(4, 2, 3))

        def loss():
            h = lk.lstm_forward(x, wx, wh, b)[0]
            return float(np.sum(h * mixer))

        caches = lk.lstm_forward(x, wx, wh, b)
        grads = lk.lstm_backward(x, wx, wh, mixer, *caches)
        for arr, ana in zip((x, wx, wh, b), grads):
            num, _ = fd_gradient(loss, arr)
            assert max_rel_err(ana, num) < 1e-4

    def test_forward_deterministic(self):
        rng = np.random.default_rng(3)
        x, wx, wh, b = _lstm_inputs(rng)
        a = lk.lstm_forward(x, wx, wh, b)[0]
        c = lk.lstm_forward(x, wx, wh, b)[0]
        assert np.array_equal(a, c)


class TestArimaKernels:
    def test_fit_flags_rank_deficiency(self):
        # constant nonzero series: lagged design matrix has rank 1
        x = np.ones(80)
        phi, theta, ok = ak.hr_fit(x, 2, 0)
        assert not ok

    def test_all_zero_series_fits_zero_dynamics(self):
        phi, theta, ok = ak.hr_fit(np.zeros(80), 2, 1)
        assert ok
        np.testing.assert_array_equal(phi, 0.0)
        np.testing.assert_array_equal(theta, 0.0)

    def test_fit_rejects_too_short_window(self):
        phi, theta, ok = ak.hr_fit(np.random.default_rng(0).normal(size=8), 4, 1)
        assert not ok

    def test_pure_ar_fit_recovers_coefficients(self):
        rng = np.random.default_rng(6)
        n = 10_000
        eps = rng.normal(size=n)
        x = np.zeros(n)
        for t in range(2, n):
            x[t] = 0.5 * x[t - 1] - 0.3 * x[t - 2] + eps[t]
        phi, theta, ok = ak.hr_fit(x, 2, 0)
        assert ok
        np.testing.assert_allclose(phi, [0.5, -0.3], atol=0.05)

