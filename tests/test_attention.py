"""Tests for scaled dot-product and multi-head self-attention."""

import inspect
import warnings

import numpy as np
import pytest

from fuzzformer import attention
from fuzzformer import autodiff as ad
from fuzzformer.attention import MultiHeadAttention, scaled_dot_attention
from fuzzformer.autodiff import Tensor, parameter
from fuzzformer.exceptions import ConfigError, ShapeError

import attention_oracle
from gradcheck import check_gradients


class TestScaledDotAttention:
    def test_single_row_passes_value_through(self):
        q = Tensor(np.array([[1.0, -2.0]]))
        k = Tensor(np.array([[0.3, 0.7]]))
        v = Tensor(np.array([[5.0, 6.0, 7.0]]))
        out, w = scaled_dot_attention(q, k, v, maps=True)
        np.testing.assert_allclose(out.data, v.data)
        np.testing.assert_allclose(w.data, [[1.0]])

    def test_zero_queries_give_column_mean(self):
        rng = np.random.default_rng(0)
        k = Tensor(rng.normal(size=(5, 3)))
        v = Tensor(rng.normal(size=(5, 4)))
        out, w = scaled_dot_attention(Tensor(np.zeros((5, 3))), k, v, maps=True)
        np.testing.assert_allclose(out.data, np.tile(v.data.mean(axis=0), (5, 1)), atol=1e-12)
        np.testing.assert_allclose(w.data, 1.0 / 5.0, atol=1e-12)

    def test_dominant_aligned_key_selects_its_value(self):
        # one key aligned with the query and scaled up; the rest orthogonal
        d = 4
        q = np.zeros((1, d))
        q[0, 0] = 1.0
        k = np.zeros((3, d))
        k[0] = 50.0 * q[0]
        k[1, 1] = 1.0
        k[2, 2] = 1.0
        rng = np.random.default_rng(1)
        v = rng.normal(size=(3, 2))
        out, _ = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
        assert np.max(np.abs(out.data[0] - v[0])) < 1e-6

    def test_rows_are_stochastic(self):
        rng = np.random.default_rng(2)
        q = Tensor(rng.normal(size=(2, 6, 3)))
        k = Tensor(rng.normal(size=(2, 6, 3)))
        v = Tensor(rng.normal(size=(2, 6, 3)))
        _, w = scaled_dot_attention(q, k, v, maps=True)
        assert np.all(w.data >= 0)
        np.testing.assert_allclose(w.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_permuting_queries_permutes_outputs(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(5, 3))
        k = Tensor(rng.normal(size=(5, 3)))
        v = Tensor(rng.normal(size=(5, 2)))
        perm = rng.permutation(5)
        out, _ = scaled_dot_attention(Tensor(q), k, v)
        out_p, _ = scaled_dot_attention(Tensor(q[perm]), k, v)
        np.testing.assert_allclose(out_p.data, out.data[perm], atol=1e-12)

    def test_row_count_mismatch_raises(self):
        with pytest.raises(ShapeError, match="scaled_dot_attention"):
            scaled_dot_attention(
                Tensor(np.zeros((3, 2))), Tensor(np.zeros((4, 2))), Tensor(np.zeros((3, 2)))
            )
        with pytest.raises(ShapeError, match="widths"):
            scaled_dot_attention(
                Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 5))), Tensor(np.zeros((3, 2)))
            )

    def test_value_batch_mismatch_raises(self):
        # the weights are (2, 3, 3); a (3, 3, 5) value stack cannot broadcast
        with pytest.raises(ShapeError, match="values"):
            scaled_dot_attention(
                Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 3, 5)))
            )

    def test_gradients(self):
        rng = np.random.default_rng(4)
        q = parameter(rng.normal(size=(4, 3)))
        k = parameter(rng.normal(size=(4, 3)))
        v = parameter(rng.normal(size=(4, 2)))
        check_gradients(
            lambda: ad.tsum(ad.tanh(scaled_dot_attention(q, k, v)[0])), [q, k, v]
        )

    def test_gradients_with_a_broadcast_value_matrix(self):
        rng = np.random.default_rng(14)
        q = parameter(rng.normal(size=(3, 5, 4)))
        k = parameter(rng.normal(size=(3, 5, 4)))
        v = parameter(rng.normal(size=(5, 2)))  # one (N, d) value matrix for the whole batch
        check_gradients(
            lambda: ad.tsum(ad.tanh(scaled_dot_attention(q, k, v)[0])), [q, k, v]
        )

    def test_weights_only_on_request_and_same_output_bits(self):
        rng = np.random.default_rng(15)
        q, k, v = (Tensor(rng.normal(size=(4, 9, 3))) for _ in range(3))
        out, w = scaled_dot_attention(q, k, v)
        out_maps, w_maps = scaled_dot_attention(q, k, v, maps=True)
        assert w is None
        assert w_maps.data.shape == (4, 9, 9)
        np.testing.assert_array_equal(out.data, out_maps.data)

    def test_window_alone_and_in_a_batch_of_64_match_bit_for_bit(self):
        # the benchmark checks batch-1 against batch-n forecasts; each window's
        # output and gradients must not depend on the batch around it
        rng = np.random.default_rng(16)
        Q, K, V, G = (rng.normal(size=(64, 60, 8)) for _ in range(4))

        def run(rows):
            q, k, v = parameter(Q[rows]), parameter(K[rows]), parameter(V[rows])
            out, _ = scaled_dot_attention(q, k, v)
            ad.backward(ad.tsum(ad.mul(out, G[rows])))
            return out.data, q.grad, k.grad, v.grad

        batch = run(slice(None))
        for i in (0, 17, 63):
            for alone, batched in zip(run(slice(i, i + 1)), batch):
                np.testing.assert_array_equal(alone, batched[i : i + 1])

    def test_anti_aligned_query_at_large_scores(self):
        # query 0 points away from every key: all its scores are about -1e3,
        # so the shift, not the scores, keeps its weights finite
        rng = np.random.default_rng(17)
        d, n = 8, 60
        u = np.ones(d) / np.sqrt(d)
        K = np.outer(rng.uniform(0.5, 1.0, size=n), 53.0 * u)
        Q = rng.normal(size=(n, d))
        Q[0] = -53.0 * u
        V = rng.normal(size=(n, 3))
        scores = Q[0] @ K.T / np.sqrt(d)
        assert -1.0e3 < scores.min() and scores.max() < -4.0e2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, w = scaled_dot_attention(Tensor(Q), Tensor(K), Tensor(V), maps=True)
            assert _oracle_gap(Q, K, V, rng.normal(size=(n, 3))) < 1e-12
        assert np.all(np.isfinite(out.data)) and np.all(w.data >= 0)
        np.testing.assert_allclose(w.data.sum(axis=-1), 1.0, atol=1e-12)


class TestMalformedInputs:
    """Each malformed input raises ShapeError, never a bare numpy error or warning."""

    def test_one_dimensional_inputs(self):
        row, mat = Tensor(np.zeros(3)), Tensor(np.zeros((4, 3)))
        for args in ((row, mat, mat), (mat, row, mat), (mat, mat, row)):
            with pytest.raises(ShapeError, match="must be"):
                scaled_dot_attention(*args)

    def test_empty_sequence(self):
        empty, full = Tensor(np.zeros((0, 3))), Tensor(np.zeros((4, 3)))
        with pytest.raises(ShapeError, match="empty sequence"):
            scaled_dot_attention(empty, full, full)
        with pytest.raises(ShapeError, match="empty sequence"):
            scaled_dot_attention(full, empty, empty)
        mha = MultiHeadAttention(d_in=4, n_heads=2, params=ad.Parameters(np.random.default_rng(0)))
        with pytest.raises(ShapeError, match="empty sequence"):
            mha(Tensor(np.zeros((2, 0, 4))))

    def test_zero_head_width(self):
        z = Tensor(np.zeros((4, 0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="zero head width"):
                scaled_dot_attention(z, z, Tensor(np.zeros((4, 2))))


class TestTracerContract:
    """What the benchmark's tracer patches and reads: name, (q, k, v), node shape."""

    def test_first_three_parameters_are_q_k_v(self):
        params = list(inspect.signature(attention.scaled_dot_attention).parameters)
        assert params[:3] == ["q", "k", "v"]

    def test_one_node_with_three_parents(self):
        rng = np.random.default_rng(18)
        q, k, v = (parameter(rng.normal(size=(5, 2))) for _ in range(3))
        out, _ = attention.scaled_dot_attention(q, k, v)
        assert out._op == "scaled_dot_attention"
        assert out._parents == (q, k, v)

    def test_multi_head_calls_through_the_module_global(self, monkeypatch):
        calls = []
        original = attention.scaled_dot_attention

        def counting(*args, **kwargs):
            calls.append(args[:3])
            return original(*args, **kwargs)

        monkeypatch.setattr(attention, "scaled_dot_attention", counting)
        rng = np.random.default_rng(19)
        mha = MultiHeadAttention(d_in=8, n_heads=4, params=ad.Parameters(rng))
        mha(Tensor(rng.normal(size=(3, 6, 8))))
        assert len(calls) == 4
        assert all(q.data.shape == (3, 6, 2) for q, _, _ in calls)


def _oracle_gap(Q, K, V, g):
    """Worst norm-relative gap of (out, W, dQ, dK, dV) from the scores-first oracle."""
    q, k, v = parameter(Q), parameter(K), parameter(V)
    out, w = scaled_dot_attention(q, k, v, maps=True)
    ad.backward(ad.tsum(ad.mul(out, g)))
    want_out, want_w = attention_oracle.attention(Q, K, V)
    want = (want_out, want_w) + attention_oracle.attention_vjp(Q, K, V, want_w, g)
    got = (out.data, w.data, q.grad, k.grad, v.grad)
    return max(np.max(np.abs(a - b)) / np.max(np.abs(b)) for a, b in zip(got, want))


def _against_oracle(q_shape, v_shape, seed, magnitude=1.0):
    rng = np.random.default_rng(seed)
    Q = rng.normal(scale=magnitude, size=q_shape)
    K = rng.normal(scale=magnitude, size=q_shape)
    V = rng.normal(size=v_shape)
    g = rng.normal(size=q_shape[:-1] + v_shape[-1:])
    return _oracle_gap(Q, K, V, g)


class TestAgainstOracle:
    """Q-side scaling and the output-side row sums against the scores-first formula."""

    @pytest.mark.parametrize(
        "q_shape, v_shape",
        [
            ((64, 60, 8), (64, 60, 8)),  # desk heads: batch 64, lookback 60, D_h/heads = 8
            ((4, 60, 32), (4, 60, 32)),  # paper heads: D_h/heads = 32
            ((4, 60, 8), (60, 8)),  # one value matrix broadcast over the batch
        ],
    )
    def test_outputs_weights_and_gradients_match(self, q_shape, v_shape):
        assert _against_oracle(q_shape, v_shape, seed=12) < 1e-12

    def test_large_scores_underflow_without_warnings(self):
        # scores reach about 1.5e3: many weights underflow to exact zeros
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _against_oracle((8, 60, 8), (8, 60, 8), seed=13, magnitude=17.0) < 1e-12


class TestMultiHead:
    def test_single_head_identity_output_projection(self):
        rng = np.random.default_rng(5)
        mha = MultiHeadAttention(d_in=4, n_heads=1, params=ad.Parameters(rng))
        mha.w_o.data[...] = np.eye(4)
        s = Tensor(rng.normal(size=(6, 4)))
        out, _ = mha(s)
        direct, _ = scaled_dot_attention(
            ad.matmul(s, mha.w_q[0]), ad.matmul(s, mha.w_k[0]), ad.matmul(s, mha.w_v)
        )
        np.testing.assert_allclose(out.data, direct.data, atol=1e-12)

    def test_zero_projections_give_zero_output(self):
        rng = np.random.default_rng(6)
        params = ad.Parameters(rng)
        mha = MultiHeadAttention(d_in=8, n_heads=4, params=params)
        for _, t in params.named:
            t.data[...] = 0.0
        out, _ = mha(Tensor(rng.normal(size=(7, 8))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_output_shape(self):
        rng = np.random.default_rng(7)
        mha = MultiHeadAttention(d_in=8, n_heads=4, params=ad.Parameters(rng))
        out, weights = mha(Tensor(rng.normal(size=(7, 8))), maps=True)
        assert out.data.shape == (7, 8)
        assert len(weights) == 4 and weights[0].data.shape == (7, 7)

    def test_head_width_must_divide(self):
        with pytest.raises(ConfigError):
            MultiHeadAttention(d_in=6, n_heads=4, params=ad.Parameters(np.random.default_rng(0)))

    def test_batched_input(self):
        rng = np.random.default_rng(8)
        mha = MultiHeadAttention(d_in=4, n_heads=2, params=ad.Parameters(rng))
        s = rng.normal(size=(3, 5, 4))
        out, _ = mha(Tensor(s))
        assert out.data.shape == (3, 5, 4)
        # batch rows are independent
        single, _ = mha(Tensor(s[1]))
        np.testing.assert_allclose(out.data[1], single.data, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(9)
        params = ad.Parameters(rng)
        mha = MultiHeadAttention(d_in=4, n_heads=2, params=params)
        s = parameter(rng.normal(size=(5, 4)))
        check_gradients(lambda: ad.tsum(ad.tanh(mha(s)[0])), [s] + [t for _, t in params.named])
