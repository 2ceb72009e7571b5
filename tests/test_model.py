"""Tests for the assembled model: routing, loss composition, gradients."""

import gc
import tracemalloc
import warnings

import numpy as np
import pytest

from fuzzformer import autodiff as ad
from fuzzformer import encoder, training
from fuzzformer.config import RunConfig
from fuzzformer.data import Batch, make_synthetic, prepare_dataset
from fuzzformer.exceptions import NonFiniteError, ShapeError
from fuzzformer.losses import composite_loss, overlap_loss
from fuzzformer.model import FuzzformerModel

from gradcheck import check_gradients

TINY = dict(
    lookback=6,
    horizon=3,
    channels=2,
    lstm_layers=1,
    hidden_width=4,
    mha_layers=1,
    attention_heads=2,
    latent_width=2,
    rules=3,
    ar_order=2,
    integration_order=1,
    exog_order=1,
    dropout_rate=0.0,
    batch_size=4,
    epochs=1,
    seed=0,
)


def tiny_model(seed=0, **overrides):
    cfg = RunConfig(**{**TINY, **overrides})
    return FuzzformerModel(cfg, np.random.default_rng(seed))


def tiny_batch(cfg, rng, batch=4):
    x = rng.uniform(0.0, 1.0, size=(batch, cfg.lookback, cfg.channels))
    y_target = rng.uniform(0.0, 1.0, size=(batch, cfg.horizon))
    y_history = x[:, -(cfg.ar_order + cfg.integration_order):, 0]
    return Batch(x=x, y_target=y_target, y_history=y_history, origins=np.arange(batch))


class TestForwardPaths:
    def test_winner_equals_aggregate_when_memberships_one_hot(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        batch = tiny_batch(model.config, rng)
        rng2 = np.random.default_rng(2)
        model.arix_a.data[...] = rng2.normal(size=model.arix_a.data.shape) * 0.2
        model.arix_b.data[...] = rng2.normal(size=model.arix_b.data.shape)
        # place rule 1 on top of every latent, others far away: memberships
        # underflow to an exact one-hot
        with ad.no_grad():
            z = model.encode(batch.x).z_latent.data
        model.centers.data[...] = 500.0
        model.centers.data[1] = z.mean(axis=0)
        train = model.training_forward(batch.x, batch.y_history)
        ev = model.evaluation_forward(batch.x, batch.y_history)
        assert np.all(np.argmax(train.memberships.data, axis=1) == 1)
        np.testing.assert_array_equal(ev.memberships.data[:, 1], 1.0)
        np.testing.assert_allclose(
            train.winner_forecast.data, ev.aggregate_forecast.data, atol=1e-12
        )

    def test_aggregate_is_membership_blend(self):
        model = tiny_model(seed=3)
        rng = np.random.default_rng(4)
        model.arix_a.data[...] = rng.normal(size=model.arix_a.data.shape) * 0.2
        model.arix_b.data[...] = rng.normal(size=model.arix_b.data.shape)
        batch = tiny_batch(model.config, rng)
        ev = model.evaluation_forward(batch.x, batch.y_history)
        blended = np.sum(
            ev.memberships.data[:, :, None] * ev.rule_forecasts.data, axis=1
        )
        np.testing.assert_allclose(ev.aggregate_forecast.data, blended, atol=1e-12)

    def test_eval_forward_is_deterministic(self):
        model = tiny_model(seed=5, dropout_rate=0.4)
        batch = tiny_batch(model.config, np.random.default_rng(6))
        a = model.predict(batch.x, batch.y_history)
        b = model.predict(batch.x, batch.y_history)
        assert np.array_equal(a, b)

    def test_training_dropout_changes_forward(self):
        model = tiny_model(seed=7, dropout_rate=0.5)
        model.arix_b.data[...] = 1.0  # let the exogenous path carry dropout noise
        batch = tiny_batch(model.config, np.random.default_rng(8))
        t1 = model.training_forward(batch.x, batch.y_history, rng=np.random.default_rng(1))
        t2 = model.training_forward(batch.x, batch.y_history, rng=np.random.default_rng(2))
        assert not np.allclose(t1.winner_forecast.data, t2.winner_forecast.data)

    def test_empty_batch_forecasts_nothing(self):
        model = tiny_model()
        cfg = model.config
        preds = model.predict(np.zeros((0, cfg.lookback, cfg.channels)), np.zeros((0, cfg.history)))
        assert preds.shape == (0, cfg.horizon)

    def test_window_length_checked(self):
        model = tiny_model()
        with pytest.raises(ShapeError, match="lookback"):
            model.predict(np.zeros((2, 5, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("rows", [2, 1])
    @pytest.mark.parametrize("method", ["predict", "evaluation_forward", "training_forward"])
    def test_history_batch_mismatch_names_both_sizes(self, method, rows):
        model = tiny_model()
        batch = tiny_batch(model.config, np.random.default_rng(1), batch=3)
        with pytest.raises(ShapeError, match=f"y_history holds {rows} windows, x holds 3"):
            getattr(model, method)(batch.x, batch.y_history[:rows])

    def test_single_rule_has_zero_overlap_and_gradients(self):
        model = tiny_model(rules=1)
        batch = tiny_batch(model.config, np.random.default_rng(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fwd = model.training_forward(batch.x, batch.y_history)
            loss = overlap_loss(fwd.bhattacharyya_pairs)
            ad.backward(loss)
        assert fwd.bhattacharyya_pairs.data.shape == (0,)
        assert loss.item() == 0.0
        np.testing.assert_array_equal(model.centers.grad, 0.0)
        np.testing.assert_array_equal(model.factors.grad, 0.0)

    def test_unstable_rule_is_named(self):
        model = tiny_model(seed=9)
        model.arix_a.data[...] = 0.0
        model.arix_a.data[2, 0] = -1e150  # pole violent enough to overflow in 3 steps
        batch = tiny_batch(model.config, np.random.default_rng(10))
        with pytest.raises(NonFiniteError, match="rule 2"):
            model.evaluation_forward(batch.x, batch.y_history)

    def test_rule_at_infinite_distance_gets_membership_zero(self):
        model = tiny_model(seed=9)
        model.centers.data[0] = 1e200  # its squared distance overflows to inf
        batch = tiny_batch(model.config, np.random.default_rng(10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = ad.checked_forward(lambda: model.evaluation_forward(batch.x, batch.y_history).memberships.data)
            preds = model.predict(batch.x, batch.y_history)
        assert np.all(psi[:, 0] == 0.0) and np.all(psi[:, 1:] > 0.0)
        assert np.isfinite(preds).all()
        # probed op by op, the infinite distance itself raises
        with ad.no_grad(), pytest.raises(NonFiniteError):
            model.evaluation_forward(batch.x, batch.y_history)

    def test_unstable_winner_rule_is_named(self):
        model = tiny_model(seed=9)
        model.arix_a.data[...] = -1e150  # every rule overflows
        batch = tiny_batch(model.config, np.random.default_rng(10))
        with pytest.raises(NonFiniteError, match="rule ") as info:
            model.training_forward(batch.x, batch.y_history)
        with ad.no_grad():
            psi = model.fuzzy_head(model.encode(batch.x).z_latent)[1].data
        assert f"rule {np.argmax(psi, axis=1).min()}:" in str(info.value)

    def test_parameter_names_unique_and_complete(self):
        model = tiny_model()
        names = [n for n, _ in model.parameters()]
        assert len(names) == len(set(names))
        assert "rules.centers" in names and "encoder.lstm0.wx" in names
        # creation order, which is also the draw order: every head's w_q, then every w_k
        block = [n.removeprefix("encoder.mha0.") for n in names if n.startswith("encoder.mha0.")]
        assert block == ["head0.w_q", "head1.w_q", "head0.w_k", "head1.w_k", "w_v", "w_o"]


class TestCompositeLoss:
    def test_mse_only_weights_reduce_to_mse(self):
        model = tiny_model(seed=11, weight_fcm=0.0, weight_overlap=0.0, weight_balance=0.0)
        batch = tiny_batch(model.config, np.random.default_rng(12))
        total, parts = composite_loss(batch, model)
        assert total.item() == pytest.approx(parts["mse"], rel=1e-12)

    def test_unit_weights_sum_components(self):
        model = tiny_model(seed=13, weight_fcm=1.0, weight_overlap=1.0, weight_balance=1.0)
        batch = tiny_batch(model.config, np.random.default_rng(14))
        total, parts = composite_loss(batch, model)
        expected = parts["mse"] + parts["fcm"] + parts["overlap"] + parts["balance"]
        assert total.item() == pytest.approx(expected, rel=1e-12)

    def test_finite_on_random_model(self):
        model = tiny_model(seed=15)
        batch = tiny_batch(model.config, np.random.default_rng(16))
        total, parts = composite_loss(batch, model)
        assert np.isfinite(total.item())
        assert all(np.isfinite(v) for v in parts.values())
        assert all(v >= 0 for v in parts.values())

    def test_gradients_reach_every_parameter_group(self):
        model = tiny_model(seed=17)
        rng = np.random.default_rng(18)
        model.arix_a.data[...] = rng.normal(size=model.arix_a.data.shape) * 0.1
        model.arix_b.data[...] = rng.normal(size=model.arix_b.data.shape) * 0.5
        batch = tiny_batch(model.config, rng)
        total, _ = composite_loss(batch, model)
        ad.backward(total)
        groups = {
            "encoder.lstm": 0.0,
            "encoder.mha": 0.0,
            "encoder.z_head": 0.0,
            "encoder.u_head": 0.0,
            "rules.centers": 0.0,
            "rules.factors": 0.0,
            "rules.arix": 0.0,
        }
        for name, t in model.parameters():
            for g in groups:
                if name.startswith(g):
                    groups[g] += 0.0 if t.grad is None else float(np.abs(t.grad).sum())
        for g, total_abs in groups.items():
            assert total_abs > 1e-12, f"dead parameter group {g}"

    def test_composite_gradient_matches_finite_differences(self):
        model = tiny_model(seed=19)
        rng = np.random.default_rng(20)
        model.arix_a.data[...] = rng.normal(size=model.arix_a.data.shape) * 0.1
        model.arix_b.data[...] = rng.normal(size=model.arix_b.data.shape) * 0.5
        batch = tiny_batch(model.config, rng, batch=3)
        params = model.parameter_tensors()

        def build():
            total, _ = composite_loss(batch, model)
            return total

        check_gradients(build, params, max_coords=4, rng=np.random.default_rng(0))


class TestGraphLifetime:
    def test_backward_leaves_no_reference_cycles(self):
        model = tiny_model(seed=19, dropout_rate=0.2)
        batch = tiny_batch(model.config, np.random.default_rng(20))
        gc.collect()
        gc.disable()
        try:
            total, _ = composite_loss(batch, model, rng=np.random.default_rng(21))
            ad.backward(total)
            del total
            assert gc.collect() == 0
        finally:
            gc.enable()


def traced_peak(fn):
    """Bytes ``fn()`` holds at its peak beyond what was live before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


class TestInferenceMemory:
    def test_no_grad_forward_holds_less_than_one_gate_cache(self):
        # the paper shape (D_h=128, N=60) on one evaluation chunk; a forward
        # that allocated the LSTM gate cache would hold at least that much
        # (at 96 windows the parent's peak was 53 MB, the cache alone 23.6 MB)
        cfg = RunConfig()
        model = FuzzformerModel(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        size = encoder.chunk_windows(cfg.hidden_width)
        x = rng.uniform(size=(size, cfg.lookback, cfg.channels))
        y_history = rng.uniform(size=(size, cfg.history))
        gate_cache = x.shape[0] * cfg.lookback * 4 * cfg.hidden_width * 8
        with ad.no_grad():
            peak = traced_peak(lambda: model.evaluation_forward(x, y_history))
        assert peak < gate_cache

    def test_a_paper_width_chunk_holds_about_half_of_96_windows(self, monkeypatch):
        # 48 windows at D_h=128, projected 16 steps at a time, peaked at
        # 9.9 MiB against 19.7 MiB for a 96-window chunk
        cfg = RunConfig()
        model = FuzzformerModel(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(96, cfg.lookback, cfg.channels))
        y_history = rng.uniform(size=(96, cfg.history))
        size = encoder.chunk_windows(cfg.hidden_width)
        assert size == 48
        with ad.no_grad():
            chunk = traced_peak(lambda: model.evaluation_forward(x[:size], y_history[:size]))
            monkeypatch.setattr(encoder, "chunk_windows", lambda _width: 96)
            whole = traced_peak(lambda: model.evaluation_forward(x, y_history))
        assert chunk <= 0.55 * whole

    def test_forward_only_paths_keep_no_attention_maps(self):
        model = tiny_model(seed=3, channels=3)
        dataset = prepare_dataset(make_synthetic(n_points=200, seed=3), lookback=6, horizon=3)
        maps = []
        encoder = model.encoder

        def spy(*args, **kwargs):
            out = encoder(*args, **kwargs)
            maps.append(out.attention_weights)
            return out

        model.encoder = spy
        batch = dataset.batch(dataset.origins_for("test")[:5], history=model.config.history)
        model.predict(batch.x, batch.y_history)
        training.evaluate_split(model, dataset, "test")
        with ad.no_grad():
            model.evaluation_forward(batch.x, batch.y_history)
        assert maps == [[], [], []]
        with ad.no_grad():
            asked = model.evaluation_forward(batch.x, batch.y_history, attention_maps=True)
        layer = asked.encoder_output.attention_weights
        assert len(layer) == 1 and [w.data.shape for w in layer[0]] == [(5, 6, 6)] * 2

    def test_a_large_no_grad_forward_holds_one_chunk(self):
        # the paper shape: two chunks in turn hold what one chunk holds, not
        # twice that (a 256-window forward peaked at 52.6 MiB in one batch
        # and at 19.8 MiB in 96-window chunks)
        cfg = RunConfig()
        model = FuzzformerModel(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        size = encoder.chunk_windows(cfg.hidden_width)
        x = rng.uniform(size=(2 * size, cfg.lookback, cfg.channels))
        y_history = rng.uniform(size=(x.shape[0], cfg.history))
        with ad.no_grad():
            one = traced_peak(lambda: model.evaluation_forward(x[:size], y_history[:size]))
            two = traced_peak(lambda: model.evaluation_forward(x, y_history))
        assert two < 1.25 * one

    @pytest.mark.parametrize("extra", [1, 2, 16, 37])
    @pytest.mark.parametrize("width", [16, 32, 64, 128])
    def test_chunked_forward_keeps_one_batchs_bits(self, monkeypatch, width, extra):
        # 2 x 48 + 1 windows at D_h=128 is a batch of 1 mod 48, whose lone
        # last window joins the chunk before it
        cfg = RunConfig(**{**TINY, "hidden_width": width, "mha_layers": 2})
        model = FuzzformerModel(cfg, np.random.default_rng(4))
        size = encoder.chunk_windows(width)
        batch = tiny_batch(cfg, np.random.default_rng(5), batch=2 * size + extra)
        calls = encode_calls(monkeypatch)

        def outputs():
            with ad.no_grad():
                ev = model.evaluation_forward(batch.x, batch.y_history, attention_maps=True)
            maps = [w.data for layer in ev.encoder_output.attention_weights for w in layer]
            return [ev.aggregate_forecast.data, ev.memberships.data, ev.rule_forecasts.data,
                    ev.encoder_output.z_latent.data, ev.encoder_output.u_latent.data, *maps]

        chunked = outputs()
        assert calls == ([size, size + 1] if extra == 1 else [size, size, extra])
        monkeypatch.setattr(encoder, "chunk_windows", lambda _width: batch.x.shape[0])
        whole = outputs()
        assert calls[-1] == batch.x.shape[0]
        assert len(chunked) == 5 + cfg.mha_layers * cfg.attention_heads
        for got, want in zip(chunked, whole):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_a_recorded_or_dropout_forward_is_not_chunked(self, monkeypatch):
        cfg = RunConfig(**{**TINY, "dropout_rate": 0.5})
        model = FuzzformerModel(cfg, np.random.default_rng(6))
        n = encoder.chunk_windows(cfg.hidden_width) + 2  # two chunks, were it cut
        x = np.random.default_rng(7).uniform(size=(n, cfg.lookback, cfg.channels))
        calls = encode_calls(monkeypatch)
        model.encode(x)  # records a graph
        with ad.no_grad():
            model.encode(x, rng=np.random.default_rng(8))  # draws dropout masks
        assert calls == [x.shape[0], x.shape[0]]


def encode_calls(monkeypatch):
    """Batch sizes of every pass of the encoder's network from now on,
    one per chunk of a chunked call."""
    calls = []
    body = encoder.Encoder._encode

    def counting(self, x, *args):
        calls.append(x.data.shape[0])
        return body(self, x, *args)

    monkeypatch.setattr(encoder.Encoder, "_encode", counting)
    return calls
