"""Tests for the LSTM cell/scan and the full encoder."""

import numpy as np
import pytest

from fuzzformer import autodiff as ad
from fuzzformer.autodiff import Tensor, parameter
from fuzzformer.config import RunConfig
from fuzzformer.encoder import Dense, Encoder, LstmLayer, lstm_scan
from fuzzformer.exceptions import ShapeError
from fuzzformer.kernels import lstm as lstm_kernels

from gradcheck import check_gradients
from lstm_oracle import lstm_step


def _zero_weights(d_in, d_h):
    return np.zeros((d_in, 4 * d_h)), np.zeros((d_h, 4 * d_h)), np.zeros(4 * d_h)


class TestLstmStep:
    def test_zero_network_outputs_zero(self):
        # all weights/biases zero with zero state: candidate tanh(0)=0 and
        # gates sigmoid(0)=0.5, so both h' and c' vanish
        wx, wh, b = _zero_weights(3, 2)
        h, c = lstm_step(np.ones(3), np.zeros(2), np.zeros(2), wx, wh, b)
        np.testing.assert_array_equal(h, 0.0)
        np.testing.assert_array_equal(c, 0.0)

    def test_zero_weights_halve_cell_state(self):
        wx, wh, b = _zero_weights(3, 2)
        h, c = lstm_step(np.ones(3), np.ones(2), np.ones(2), wx, wh, b)
        np.testing.assert_allclose(c, 0.5)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5))

    def test_saturated_forget_gate_preserves_cell(self):
        d_h = 2
        wx, wh, b = _zero_weights(1, d_h)
        b[d_h : 2 * d_h] = 50.0  # forget-gate bias -> sigmoid ~ 1
        b[: d_h] = -50.0         # input gate ~ 0
        c0 = np.array([0.3, -0.7])
        _, c1 = lstm_step(np.zeros(1), np.zeros(d_h), c0, wx, wh, b)
        np.testing.assert_allclose(c1, c0, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        wx, wh, b = rng.normal(size=(3, 8)), rng.normal(size=(2, 8)), rng.normal(size=8)
        args = (rng.normal(size=3), rng.normal(size=2), rng.normal(size=2), wx, wh, b)
        h1, c1 = lstm_step(*args)
        h2, c2 = lstm_step(*args)
        assert np.array_equal(h1, h2) and np.array_equal(c1, c2)

    def test_dimension_mismatch(self):
        wx, wh, b = _zero_weights(3, 2)
        with pytest.raises(ShapeError):
            lstm_step(np.zeros(4), np.zeros(2), np.zeros(2), wx, wh, b)


class TestLstmScan:
    # B = 1 and N = 1 (lookback 1: no recurrent step) and D_h = 1 are the
    # edges of the kernel's loops and views; D_in > D_h widens the input GEMM
    @pytest.mark.parametrize(
        "B,N,d_in,d_h", [(3, 7, 4, 5), (1, 7, 4, 5), (3, 1, 4, 5), (3, 7, 4, 1), (2, 5, 9, 3)]
    )
    def test_matches_stepwise_reference(self, B, N, d_in, d_h):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(B, N, d_in))
        wx = rng.normal(size=(d_in, 4 * d_h)) * 0.3
        wh = rng.normal(size=(d_h, 4 * d_h)) * 0.3
        b = rng.normal(size=4 * d_h) * 0.1
        out = lstm_scan(Tensor(x), Tensor(wx), Tensor(wh), Tensor(b))
        h = np.zeros((B, d_h))
        c = np.zeros((B, d_h))
        for t in range(N):
            h, c = lstm_step(x[:, t], h, c, wx, wh, b)
            np.testing.assert_allclose(out.data[:, t], h, atol=1e-12)

    def test_gradients_through_scan(self):
        rng = np.random.default_rng(2)
        B, N, d_in, d_h = 2, 4, 2, 3
        x = parameter(rng.normal(size=(B, N, d_in)))
        wx = parameter(rng.normal(size=(d_in, 4 * d_h)) * 0.5)
        wh = parameter(rng.normal(size=(d_h, 4 * d_h)) * 0.5)
        b = parameter(rng.normal(size=4 * d_h) * 0.2)
        mixer = rng.normal(size=(B, N, d_h))

        def build():
            out = lstm_scan(x, wx, wh, b)
            return ad.tsum(ad.mul(ad.tanh(out), mixer))

        check_gradients(build, [x, wx, wh, b])

    def test_data_input_gets_no_adjoint(self, monkeypatch):
        # the first layer's input is the data window: its dx is never read
        rng = np.random.default_rng(21)
        x = rng.normal(size=(3, 9, 2))
        weights = [rng.normal(size=(2, 12)) * 0.5, rng.normal(size=(3, 12)) * 0.5, rng.normal(size=12)]
        kinds = []
        backward = lstm_kernels.lstm_backward

        def spy(*args, **kwargs):
            grads = backward(*args, **kwargs)
            kinds.append(grads[0] is None)
            return grads

        monkeypatch.setattr(lstm_kernels, "lstm_backward", spy)
        grads = []
        for inp in (Tensor(x), parameter(x)):
            params = [parameter(w) for w in weights]
            ad.backward(ad.tsum(ad.tanh(lstm_scan(inp, *params))))
            grads.append([p.grad for p in params])
        assert kinds == [True, False]
        for plain, tracked in zip(*grads):
            assert np.array_equal(plain, tracked)

    def test_caches_only_while_recording(self, monkeypatch):
        kept = []
        forward = lstm_kernels.lstm_forward

        def spy(*args, **kwargs):
            kept.append(kwargs["cache"])
            return forward(*args, **kwargs)

        monkeypatch.setattr(lstm_kernels, "lstm_forward", spy)
        wx, wh, b = (parameter(w) for w in _zero_weights(2, 3))
        x = Tensor(np.ones((2, 4, 2)))
        lstm_scan(x, wx, wh, b)
        with ad.no_grad():
            lstm_scan(x, wx, wh, b)
        assert kept == [True, False]

    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 8)])
    def test_bias_shape_mismatch_raises(self, shape):
        # d_h = 2: the bias must be (8,); (1,) and (2, 8) would broadcast
        wx, wh, _ = _zero_weights(3, 2)
        with pytest.raises(ShapeError, match="bias"):
            lstm_scan(Tensor(np.zeros((2, 4, 3))), Tensor(wx), Tensor(wh), Tensor(np.zeros(shape)))

    def test_hidden_state_bounded_by_one(self):
        rng = np.random.default_rng(3)
        layer = LstmLayer(2, 4, ad.Parameters(rng))
        x = rng.uniform(0.0, 1.0, size=(5, 20, 2))
        out = layer(Tensor(x))
        assert np.all(np.abs(out.data) <= 1.0)


class TestEncoder:
    def _encoder(self, params, **kw):
        defaults = dict(
            channels=2, hidden_width=4, lstm_layers=2, mha_layers=2, attention_heads=2,
            latent_width=2, horizon=3, dropout_rate=0.0,
        )
        defaults.update(kw)
        return Encoder(RunConfig(**defaults), params)

    def test_zero_parameters_give_zero_latents(self):
        params = ad.Parameters(np.random.default_rng(4))
        enc = self._encoder(params)
        for _, t in params.named:
            t.data[...] = 0.0
        out = enc(Tensor(np.random.default_rng(5).uniform(size=(3, 6, 2))))
        np.testing.assert_array_equal(out.z_latent.data, 0.0)
        np.testing.assert_array_equal(out.u_latent.data, 0.0)

    def test_full_dropout_zeroes_attended_features(self):
        enc = self._encoder(ad.Parameters(np.random.default_rng(6)), dropout_rate=1.0)
        out = enc(
            Tensor(np.random.default_rng(7).uniform(size=(2, 5, 2))),
            rng=np.random.default_rng(8),
        )
        # zero attended features pool to zero, so each head gives its bias
        np.testing.assert_array_equal(out.z_latent.data, np.tanh(enc.z_head.b.data) + np.zeros((2, 1)))
        np.testing.assert_array_equal(out.u_latent.data, enc.u_head.b.data + np.zeros((2, 1)))

    def test_eval_mode_is_pure(self):
        enc = self._encoder(ad.Parameters(np.random.default_rng(9)), dropout_rate=0.3)
        x = Tensor(np.random.default_rng(10).uniform(size=(2, 5, 2)))
        a = enc(x)
        b = enc(x)
        assert np.array_equal(a.z_latent.data, b.z_latent.data)
        assert np.array_equal(a.u_latent.data, b.u_latent.data)

    def test_training_dropout_differs_from_eval(self):
        enc = self._encoder(ad.Parameters(np.random.default_rng(11)), dropout_rate=0.5)
        x = Tensor(np.random.default_rng(12).uniform(size=(2, 5, 2)))
        t = enc(x, rng=np.random.default_rng(13))
        e = enc(x)
        assert not np.allclose(t.z_latent.data, e.z_latent.data)

    def test_channel_mismatch_raises(self):
        enc = self._encoder(ad.Parameters(np.random.default_rng(14)))
        with pytest.raises(ShapeError, match="encoder"):
            enc(Tensor(np.zeros((2, 5, 3))))

    def test_gradients_reach_every_lstm_weight(self):
        # tiny config: N=4, D_X=2, D_h=3, one head
        params = ad.Parameters(np.random.default_rng(15))
        enc = self._encoder(params, hidden_width=3, attention_heads=1, lstm_layers=2, mha_layers=1)
        x = np.random.default_rng(16).uniform(size=(2, 4, 2))
        lstm_params = [t for n, t in params.named if n.startswith("lstm")]

        def build():
            out = enc(Tensor(x))
            return ad.add(
                ad.tsum(ad.mul(out.z_latent, out.z_latent)),
                ad.tsum(ad.mul(out.u_latent, out.u_latent)),
            )

        check_gradients(build, lstm_params)

    def test_sequence_features_shape(self):
        enc = self._encoder(ad.Parameters(np.random.default_rng(17)))
        out = enc(Tensor(np.random.default_rng(18).uniform(size=(3, 6, 2))), attention_maps=True)
        assert out.z_latent.data.shape == (3, 2) and out.u_latent.data.shape == (3, 3)
        assert len(out.attention_weights) == 2
        assert out.attention_weights[0][0].data.shape == (3, 6, 6)


class TestDense:
    def test_tanh_activation_bounds(self):
        rng = np.random.default_rng(19)
        d = Dense(3, 2, ad.Parameters(rng), activation="tanh")
        out = d(Tensor(rng.normal(size=(10, 3)) * 10))
        assert np.all(np.abs(out.data) <= 1.0)
