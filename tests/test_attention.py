"""Tests for scaled dot-product and multi-head self-attention."""

import warnings

import numpy as np
import pytest

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
        out, w = scaled_dot_attention(q, k, v)
        np.testing.assert_allclose(out.data, v.data)
        np.testing.assert_allclose(w.data, [[1.0]])

    def test_zero_queries_give_column_mean(self):
        rng = np.random.default_rng(0)
        k = Tensor(rng.normal(size=(5, 3)))
        v = Tensor(rng.normal(size=(5, 4)))
        out, w = scaled_dot_attention(Tensor(np.zeros((5, 3))), k, v)
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
        _, w = scaled_dot_attention(q, k, v)
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


def _against_oracle(q_shape, v_shape, seed, magnitude=1.0):
    """Worst norm-relative gap of (out, W, dQ, dK, dV) from the scores-first oracle."""
    rng = np.random.default_rng(seed)
    Q = rng.normal(scale=magnitude, size=q_shape)
    K = rng.normal(scale=magnitude, size=q_shape)
    V = rng.normal(size=v_shape)
    q, k, v = parameter(Q), parameter(K), parameter(V)
    out, w = scaled_dot_attention(q, k, v)
    g = rng.normal(size=out.data.shape)
    ad.backward(ad.tsum(ad.mul(out, g)))
    want_out, want_w = attention_oracle.attention(Q, K, V)
    want = (want_out, want_w) + attention_oracle.attention_vjp(Q, K, V, want_w, g)
    got = (out.data, w.data, q.grad, k.grad, v.grad)
    return max(np.max(np.abs(a - b)) / np.max(np.abs(b)) for a, b in zip(got, want))


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
