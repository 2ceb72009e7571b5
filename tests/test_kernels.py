"""The fused LSTM scan against finite differences, and the batched ARMA
kernels against the per-window scalar oracle."""

import numpy as np
import pytest

from fuzzformer.kernels import arima as ak, lstm as lk

import arima_oracle
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
        phi, theta, ok = ak.hr_fit(np.ones((1, 80)), 2, 0)
        assert ok.shape == (1,) and not ok[0]
        np.testing.assert_array_equal(phi, 0.0)

    def test_all_zero_series_fits_zero_dynamics(self):
        phi, theta, ok = ak.hr_fit(np.zeros((1, 80)), 2, 1)
        assert ok[0]
        assert phi.shape == (1, 2) and theta.shape == (1, 1)
        np.testing.assert_array_equal(phi, 0.0)
        np.testing.assert_array_equal(theta, 0.0)

    def test_fit_rejects_too_short_window(self):
        phi, theta, ok = ak.hr_fit(np.random.default_rng(0).normal(size=(1, 8)), 4, 1)
        assert not ok[0]

    def test_pure_ar_fit_recovers_coefficients(self):
        rng = np.random.default_rng(6)
        n = 10_000
        eps = rng.normal(size=n)
        x = np.zeros(n)
        for t in range(2, n):
            x[t] = 0.5 * x[t - 1] - 0.3 * x[t - 2] + eps[t]
        phi, theta, ok = ak.hr_fit(x[None], 2, 0)
        assert ok[0]
        np.testing.assert_allclose(phi[0], [0.5, -0.3], atol=0.05)

    @pytest.mark.parametrize("p,q", [(4, 1), (2, 2), (1, 0), (3, 0), (0, 1), (0, 2)])
    def test_stack_matches_scalar_oracle(self, p, q):
        # random walks mixed with the special rows: all-zero, constant, alternating
        rng = np.random.default_rng(11)
        x = rng.normal(size=(12, 59)).cumsum(axis=1)
        x[3] = 0.0
        x[5] = 2.5
        x[7] = np.tile([1.0, -1.0], 30)[:59]
        x -= x.mean(axis=1, keepdims=True)
        phi, theta, ok = ak.hr_fit(x, p, q)
        eps = ak.arma_residuals(x, phi, theta)
        pred = ak.arma_predict(x, eps, phi, theta, 9)
        for w in range(x.shape[0]):
            phi1, theta1, ok1 = arima_oracle.hr_fit(x[w], p, q)
            assert ok[w] == ok1
            np.testing.assert_allclose(phi[w], phi1, rtol=0, atol=1e-10)
            np.testing.assert_allclose(theta[w], theta1, rtol=0, atol=1e-10)
            # the recursions run the oracle's summation order exactly
            eps1 = arima_oracle.arma_residuals(x[w], phi[w], theta[w])
            np.testing.assert_array_equal(eps[w], eps1)
            np.testing.assert_array_equal(pred[w], arima_oracle.arma_predict(x[w], eps1, phi[w], theta[w], 9))

    def test_companion_stable_is_one_stacked_check(self):
        rng = np.random.default_rng(12)
        for m in (0, 1, 2, 4):
            coeffs = rng.uniform(-1.2, 1.2, size=(20, m))
            got = ak.companion_stable(coeffs)
            assert got.shape == (20,)
            assert [bool(g) for g in got] == [arima_oracle.companion_stable(c) for c in coeffs]
