"""Tests for ARIX local models: recursion, aggregation, graph parity."""

import numpy as np
import pytest

from fuzzformer import arix, autodiff as ad
from fuzzformer.arix import (
    ArixCoefficients,
    aggregate,
    all_rules_forecast_graph,
    arix_forecast,
    winner_forecast_graph,
)
from fuzzformer.autodiff import Tensor, parameter
from fuzzformer.exceptions import ConfigError, NonFiniteError, ShapeError

import arix_oracle
from arix_oracle import random_stable_system, zero_state_forecast
from gradcheck import check_gradients


class TestArixForecast:
    def test_zero_dynamics_is_persistence(self):
        coeffs = ArixCoefficients(a=np.zeros(3), b=np.zeros(1), d=1)
        hist = np.array([1.0, 3.0, 2.0, 5.0, 4.2])
        out = arix_forecast(hist, np.ones(6), coeffs, horizon=6)
        np.testing.assert_allclose(out, 4.2)

    def test_pure_exogenous_integrates_linearly(self):
        # p=1 with a_1=0, b_1=1, d=1, u == c  ->  y(k+j) = y(k) + j*c
        coeffs = ArixCoefficients(a=[0.0], b=[1.0], d=1)
        c = 0.7
        out = arix_forecast([2.0, 1.5], np.full(5, c), coeffs, horizon=5)
        np.testing.assert_allclose(out, 1.5 + c * np.arange(1, 6), atol=1e-12)

    def test_unit_pole_carries_last_value(self):
        # d=0, p=1, a_1=-1, b=0: y(k+j) = y(k+j-1) -> constant forecast
        coeffs = ArixCoefficients(a=[-1.0], b=[], d=0)
        out = arix_forecast([9.0, 2.5], None, coeffs, horizon=4)
        np.testing.assert_allclose(out, 2.5)

    def test_short_history_raises(self):
        coeffs = ArixCoefficients(a=np.zeros(4), b=np.zeros(1), d=1)
        with pytest.raises(ShapeError, match="history"):
            arix_forecast([1.0, 2.0], np.ones(3), coeffs, horizon=3)

    def test_short_u_seq_raises(self):
        coeffs = ArixCoefficients(a=np.zeros(1), b=np.ones(1), d=0)
        with pytest.raises(ShapeError, match="u_seq"):
            arix_forecast([1.0], np.ones(2), coeffs, horizon=5)

    def test_invalid_orders_rejected(self):
        with pytest.raises(ConfigError):
            ArixCoefficients(a=[], b=[1.0], d=1)
        with pytest.raises(ConfigError):
            ArixCoefficients(a=[0.5], b=[1.0], d=2)

    def test_horizon_one_ignores_future_exogenous(self):
        rng = np.random.default_rng(0)
        coeffs = ArixCoefficients(a=rng.normal(size=2) * 0.3, b=[0.8], d=1)
        hist = rng.normal(size=3)
        u1 = rng.normal(size=4)
        u2 = u1.copy()
        u2[1:] += 100.0  # only u(k) may matter at j=1
        a = arix_forecast(hist, u1, coeffs, horizon=4)
        b = arix_forecast(hist, u2, coeffs, horizon=4)
        assert a[0] == b[0]

    def test_matches_transfer_function_oracle_zero_state(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b, d, u, horizon = random_stable_system(rng)
            coeffs = ArixCoefficients(a=a, b=b, d=d)
            hist = np.zeros(coeffs.p + d)
            mine = arix_forecast(hist, u, coeffs, horizon)
            oracle = zero_state_forecast(a, b, d, u, horizon)
            assert np.max(np.abs(mine - oracle)) < 1e-9

    def test_matches_expanded_polynomial_recursion_with_history(self):
        # independent formulation: recursion on levels with A(q) (1-q)^d
        # expanded via convolution, seeded by observed history
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b, d, u, horizon = random_stable_system(rng)
            coeffs = ArixCoefficients(a=a, b=b, d=d)
            p = coeffs.p
            hist = rng.normal(size=p + d)
            mine = arix_forecast(hist, u, coeffs, horizon)
            den = np.concatenate(([1.0], a))
            for _ in range(d):
                den = np.convolve(den, [1.0, -1.0])
            levels = list(hist[-(p + d):]) if p + d > 0 else []
            ref = []
            for j in range(1, horizon + 1):
                s = 0.0
                for m in range(1, den.size):
                    s -= den[m] * levels[-m]
                for n in range(1, coeffs.q + 1):
                    if j - n >= 0:
                        s += b[n - 1] * u[j - n]
                levels.append(s)
                ref.append(s)
            np.testing.assert_allclose(mine, ref, atol=1e-9)


class TestAggregate:
    def test_one_hot_selects_rule(self):
        rng = np.random.default_rng(3)
        forecasts = rng.normal(size=(4, 6))
        psi = np.array([0.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(aggregate(psi, forecasts), forecasts[2])

    def test_identical_forecasts_unchanged_by_weights(self):
        row = np.arange(5.0)
        forecasts = np.tile(row, (3, 1))
        psi = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(aggregate(psi, forecasts), row, atol=1e-12)

    def test_weighted_mean(self):
        forecasts = np.stack([np.zeros(3), np.full(3, 4.0)])
        np.testing.assert_allclose(aggregate([0.25, 0.75], forecasts), 3.0)

    def test_convexity(self):
        rng = np.random.default_rng(4)
        forecasts = rng.normal(size=(5, 7))
        w = rng.random(5)
        psi = w / w.sum()
        out = aggregate(psi, forecasts)
        assert np.all(out <= forecasts.max(axis=0) + 1e-12)
        assert np.all(out >= forecasts.min(axis=0) - 1e-12)

    def test_batched(self):
        rng = np.random.default_rng(5)
        forecasts = rng.normal(size=(3, 4, 6))
        w = rng.random((3, 4))
        psi = w / w.sum(axis=1, keepdims=True)
        out = aggregate(psi, forecasts)
        assert out.shape == (3, 6)
        np.testing.assert_allclose(out[1], aggregate(psi[1], forecasts[1]))


class TestGraphRecursion:
    def test_winner_graph_matches_plain(self):
        rng = np.random.default_rng(6)
        p, q, d, horizon, bsz = 3, 1, 1, 5, 4
        a = rng.normal(size=(bsz, p)) * 0.3
        b = rng.normal(size=(bsz, q))
        hist = rng.normal(size=(bsz, p + d))
        u = rng.normal(size=(bsz, horizon))
        out = winner_forecast_graph(
            hist, Tensor(u), Tensor(a), Tensor(b), d, horizon, rules=np.arange(bsz)
        )
        for s in range(bsz):
            coeffs = ArixCoefficients(a=a[s], b=b[s], d=d)
            np.testing.assert_allclose(
                out.data[s], arix_forecast(hist[s], u[s], coeffs, horizon), atol=1e-12
            )

    def test_all_rules_graph_matches_plain(self):
        rng = np.random.default_rng(7)
        p, q, d, horizon, bsz, c = 2, 1, 1, 4, 3, 5
        a = rng.normal(size=(c, p)) * 0.3
        b = rng.normal(size=(c, q))
        hist = rng.normal(size=(bsz, p + d))
        u = rng.normal(size=(bsz, horizon))
        out = all_rules_forecast_graph(hist, Tensor(u), Tensor(a), Tensor(b), d, horizon)
        assert out.data.shape == (bsz, c, horizon)
        for s in range(bsz):
            for i in range(c):
                coeffs = ArixCoefficients(a=a[i], b=b[i], d=d)
                np.testing.assert_allclose(
                    out.data[s, i], arix_forecast(hist[s], u[s], coeffs, horizon), atol=1e-12
                )

    def test_d_zero_graph_matches_plain(self):
        rng = np.random.default_rng(8)
        p, q, d, horizon, bsz = 2, 1, 0, 4, 3
        a = rng.normal(size=(bsz, p)) * 0.3
        b = rng.normal(size=(bsz, q))
        hist = rng.normal(size=(bsz, p))
        u = rng.normal(size=(bsz, horizon))
        out = winner_forecast_graph(
            hist, Tensor(u), Tensor(a), Tensor(b), d, horizon, rules=np.arange(bsz)
        )
        for s in range(bsz):
            coeffs = ArixCoefficients(a=a[s], b=b[s], d=d)
            np.testing.assert_allclose(
                out.data[s], arix_forecast(hist[s], u[s], coeffs, horizon), atol=1e-12
            )

    def test_gradients_through_recursion(self):
        rng = np.random.default_rng(9)
        p, q, d, horizon, bsz = 2, 1, 1, 4, 2
        a = parameter(rng.normal(size=(bsz, p)) * 0.3)
        b = parameter(rng.normal(size=(bsz, q)))
        u = parameter(rng.normal(size=(bsz, horizon)))
        hist = rng.normal(size=(bsz, p + d))
        mixer = rng.normal(size=(bsz, horizon))

        def build():
            out = winner_forecast_graph(hist, u, a, b, d, horizon, rules=np.arange(bsz))
            return ad.tsum(ad.mul(out, mixer))

        check_gradients(build, [a, b, u])

    def test_gradients_through_all_rules_recursion(self):
        rng = np.random.default_rng(10)
        p, q, d, horizon, bsz, c = 2, 1, 1, 3, 2, 3
        a = parameter(rng.normal(size=(c, p)) * 0.3)
        b = parameter(rng.normal(size=(c, q)))
        u = parameter(rng.normal(size=(bsz, horizon)))
        hist = rng.normal(size=(bsz, p + d))
        mixer = rng.normal(size=(bsz, c, horizon))

        def build():
            out = all_rules_forecast_graph(hist, u, a, b, d, horizon)
            return ad.tsum(ad.mul(out, mixer))

        check_gradients(build, [a, b, u])


# (p, q, d, horizon): q = 0, p > H, and H < q are the edge cases of the
# fused op's lag bookkeeping
FUSED_CASES = [
    (2, 0, 0, 4),
    (2, 0, 1, 4),
    (2, 1, 0, 4),
    (2, 1, 1, 4),
    (2, 2, 0, 4),
    (2, 2, 1, 4),
    (5, 1, 1, 3),
    (5, 2, 0, 2),
    (1, 2, 1, 1),
    (3, 2, 0, 1),
]


class TestFusedRecursion:
    """The recursion is one graph node whose adjoint is the transposed recursion."""

    @pytest.mark.parametrize("p,q,d,horizon", FUSED_CASES)
    def test_winner_gradients(self, p, q, d, horizon):
        rng = np.random.default_rng(100 + 10 * p + q + d + horizon)
        bsz = 3
        a = parameter(rng.normal(size=(bsz, p)) * 0.3)
        b = parameter(rng.normal(size=(bsz, q)))
        u = parameter(rng.normal(size=(bsz, horizon)))
        hist = rng.normal(size=(bsz, p + d + 1))
        mixer = rng.normal(size=(bsz, horizon))

        def build():
            out = winner_forecast_graph(hist, u, a, b, d, horizon, rules=np.arange(bsz))
            return ad.tsum(ad.mul(out, mixer))

        params = [a, b, u] if q else [a, u]  # an empty b has nothing to check
        assert check_gradients(build, params, tol=1e-6) < 1e-6

    @pytest.mark.parametrize("p,q,d,horizon", FUSED_CASES)
    def test_all_rules_gradients(self, p, q, d, horizon):
        rng = np.random.default_rng(200 + 10 * p + q + d + horizon)
        bsz, c = 2, 3
        a = parameter(rng.normal(size=(c, p)) * 0.3)
        b = parameter(rng.normal(size=(c, q)))
        u = parameter(rng.normal(size=(bsz, horizon)))
        hist = rng.normal(size=(bsz, p + d))
        mixer = rng.normal(size=(bsz, c, horizon))

        def build():
            out = all_rules_forecast_graph(hist, u, a, b, d, horizon)
            return ad.tsum(ad.mul(out, mixer))

        params = [a, b, u] if q else [a, u]  # an empty b has nothing to check
        assert check_gradients(build, params, tol=1e-6) < 1e-6

    @pytest.mark.parametrize("p,q,d,horizon", FUSED_CASES)
    def test_matches_plain_recursion(self, p, q, d, horizon):
        rng = np.random.default_rng(300 + 10 * p + q + d + horizon)
        bsz, c = 3, 2
        a = rng.normal(size=(c, p)) * 0.3
        b = rng.normal(size=(c, q))
        hist = rng.normal(size=(bsz, p + d))
        u = rng.normal(size=(bsz, horizon))
        rules = all_rules_forecast_graph(hist, Tensor(u), Tensor(a), Tensor(b), d, horizon).data
        winners = np.array([1, 0, 1])
        sel = winner_forecast_graph(
            hist, Tensor(u), Tensor(a[winners]), Tensor(b[winners]), d, horizon, rules=winners
        ).data
        for s in range(bsz):
            for i in range(c):
                plain = arix_forecast(hist[s], u[s], ArixCoefficients(a=a[i], b=b[i], d=d), horizon)
                np.testing.assert_allclose(rules[s, i], plain, atol=1e-12)
            np.testing.assert_array_equal(sel[s], rules[s, winners[s]])

    def test_matches_transfer_function_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, d, u, horizon = random_stable_system(rng, q=int(rng.integers(0, 3)))
            hist = np.zeros((1, a.size + d))
            out = winner_forecast_graph(
                hist, Tensor(u[None]), Tensor(a[None]), Tensor(b[None]), d, horizon, rules=[0]
            )
            oracle = zero_state_forecast(a, b, d, u, horizon)
            assert np.max(np.abs(out.data[0] - oracle)) < 1e-9

    def test_one_graph_node_per_call(self):
        rng = np.random.default_rng(12)
        a = parameter(rng.normal(size=(4, 3)) * 0.3)
        b = parameter(rng.normal(size=(4, 1)))
        u = parameter(rng.normal(size=(2, 5)))
        out = all_rules_forecast_graph(rng.normal(size=(2, 4)), u, a, b, 1, 5)
        assert out._op == "arix_recursion"
        assert set(out._parents) == {u, a, b}

    def test_unstable_rule_is_named(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(4, 2)) * 0.1
        a[3, 0] = -1e150
        b = rng.normal(size=(4, 1))
        hist = rng.normal(size=(3, 3))
        u = Tensor(rng.normal(size=(3, 4)))
        with pytest.raises(NonFiniteError, match="rule 3"):
            all_rules_forecast_graph(hist, u, Tensor(a), Tensor(b), 1, 4)
        winners = np.array([0, 3, 1])
        with pytest.raises(NonFiniteError, match="rule 3"):
            winner_forecast_graph(
                hist, u, Tensor(a[winners]), Tensor(b[winners]), 1, 4, rules=winners
            )

    @pytest.mark.parametrize("bsz", [1, 96])
    @pytest.mark.parametrize("q", [0, 1, 2])
    @pytest.mark.parametrize("d", [0, 1])
    @pytest.mark.parametrize("p", [1, 4, 30])
    @pytest.mark.parametrize("winner", [False, True])
    def test_loops_match_the_reference_bit_for_bit(self, monkeypatch, winner, p, d, q, bsz):
        # forecasts and (du, da, db) byte for byte against the loops of
        # arix_oracle.fused_forecast; p=30 sums its AR terms pairwise
        rng = np.random.default_rng(1000 * p + 100 * d + 10 * q + bsz + winner)
        c, horizon = 16, 30
        rows = bsz if winner else c
        a0 = rng.uniform(-1.0, 1.0, size=(rows, p))
        a0 *= rng.uniform(0.5, 0.95, size=(rows, 1)) / np.abs(a0).sum(axis=1, keepdims=True)
        b0 = rng.normal(scale=0.5, size=(rows, q))
        u0 = rng.normal(size=(bsz, horizon))
        hist = rng.normal(size=(bsz, p + d)).cumsum(axis=1)
        mixer = rng.normal(size=(bsz, horizon) if winner else (bsz, c, horizon))

        def run():
            a, b, u = parameter(a0), parameter(b0), parameter(u0)
            if winner:
                out = winner_forecast_graph(hist, u, a, b, d, horizon, rules=np.arange(bsz) % c)
            else:
                out = all_rules_forecast_graph(hist, u, a, b, d, horizon)
            ad.backward(ad.tsum(ad.mul(out, mixer)))
            return out.data, u.grad, a.grad, b.grad

        got = run()
        monkeypatch.setattr(arix, "_fused_forecast", arix_oracle.fused_forecast)
        for x, want in zip(got, run()):
            assert x.shape == want.shape and x.tobytes() == want.tobytes()
