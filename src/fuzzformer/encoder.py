"""Sequence encoder: stacked LSTM, attention, and the two latent heads.

The LSTM stack turns the scaled input window into a feature sequence;
each layer is one graph node, :func:`lstm_scan`, whose forward and
backward passes run in the fused kernel ``kernels.lstm``, and in
training, dropout follows every layer.  The attention stack
(residual connections between blocks) contextualizes the sequence, which
is then mean-pooled over time so the summary width is independent of the
window length.  Two dense heads map the summary to the rule-activation
latent ``z`` (tanh-bounded, which keeps it friendly to Gaussian
clustering) and to the exogenous sequence ``u`` with one entry per
forecast step.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attention import MultiHeadAttention
from .exceptions import ShapeError
from .kernels import lstm as lstm_kernels

# windows per chunk of a forward-only encode, and the most per chunk of
# training._over_chunks, and so per worker and per forecast or encode call.
# Larger chunks hold more activations at once.  _over_chunks cuts smaller
# chunks only for a split's last round, and only for models wide enough to
# gain from threads (training.WORK_FLOOR): small models are per-call bound,
# and splitting a desk-shape (D_h=16) 90-window split into 64 + 26 cut its
# throughput by a third, while at D_h=128 48 + 42 ran 1.3x as fast on two
# cores.  Keep it, and the smaller chunks, a multiple of 16.
# OpenBLAS's double GEMM takes rows in blocks of 16 and the rows left over
# in smaller blocks, and a row in a block of 1 or 2 can get other last bits
# than in a larger one (at the paper shape, warm-up chunks of 2, 5 or 102
# windows changed the latents of 156, 31 and 2 of 256 windows; every
# multiple of 4 tried left all equal).  With chunks a multiple of 16, each
# window falls in the same kind of block as in one batch of all the
# windows, so chunked forecasts and latents keep one batch's bits.  The
# exception is a last chunk of one window: at the paper shape, 96 + r
# windows keep one batch's bits for every r from 2 to 40, but at r = 1 the
# last window's latent moves in its last bit (a 17-window batch cut 16 + 1
# moves the last forecast by 2e-16), so training._chunk_layout cuts off no
# lone last window of its own.
EVAL_BATCH = 96


def lstm_scan(x, wx, wh, b):
    """Graph op: run one LSTM layer over a batch of windows.

    x: (B, N, D_in) tensor -> (B, N, D_h).  Forward and backward run in
    the fused kernel (time-major internally); the graph sees one node.
    This is the one caller of the kernel, and it decides what the kernel
    keeps: the gate and cell caches only while gradients are recorded
    (outside ``ad.no_grad``), since only the backward pass reads them,
    and no input adjoint when ``x`` needs no gradient.
    """
    x, wx, wh, b = ad.astensor(x), ad.astensor(wx), ad.astensor(wh), ad.astensor(b)
    if x.data.ndim != 3 or x.data.shape[-1] != wx.data.shape[0]:
        raise ShapeError(
            f"lstm_scan: input {x.data.shape} does not match weights {wx.data.shape}"
        )
    if wx.data.shape[1] != 4 * wh.data.shape[0] or wh.data.shape[1] != 4 * wh.data.shape[0]:
        raise ShapeError(
            f"lstm_scan: inconsistent gate widths {wx.data.shape}/{wh.data.shape}"
        )
    if b.data.shape != (wx.data.shape[1],):
        raise ShapeError(
            f"lstm_scan: bias {b.data.shape} does not match gate width {wx.data.shape[1]}"
        )
    xt = np.ascontiguousarray(np.swapaxes(x.data, 0, 1))
    h_all, gates, c_all = lstm_kernels.lstm_forward(
        xt, wx.data, wh.data, b.data, cache=ad.grad_enabled()
    )

    def vjp(g):
        gt = np.ascontiguousarray(np.swapaxes(g, 0, 1))
        dx, dwx, dwh, db = lstm_kernels.lstm_backward(
            xt, wx.data, wh.data, gt, h_all, gates, c_all, input_grad=x.requires_grad
        )
        return None if dx is None else np.swapaxes(dx, 0, 1), dwx, dwh, db

    return ad.custom_op("lstm_scan", np.swapaxes(h_all, 0, 1), (x, wx, wh, b), vjp)


class LstmLayer:
    """Parameters of one LSTM layer (fused input/hidden gate weights)."""

    def __init__(self, d_in, d_h, params):
        self.wx = params.new("wx", (d_in, 4 * d_h), d_in)
        self.wh = params.new("wh", (d_h, 4 * d_h), d_h)
        self.b = params.new("b", (4 * d_h,), d_h)

    def __call__(self, x):
        return lstm_scan(x, self.wx, self.wh, self.b)


class Dense:
    def __init__(self, d_in, d_out, params, activation=None):
        self.w = params.new("w", (d_in, d_out), d_in)
        self.b = params.new("b", (d_out,), d_in)
        self.activation = activation

    def __call__(self, x):
        y = ad.add(ad.matmul(x, self.w), self.b)
        if self.activation == "tanh":
            return ad.tanh(y)
        return y


@dataclass
class EncoderOutput:
    """Batched encoder products; ``attention_weights[layer][head]``."""

    z_latent: ad.Tensor  # (B, D_Z)
    u_latent: ad.Tensor  # (B, H)
    attention_weights: list = field(default_factory=list)


def _rows(tensors) -> ad.Tensor:
    """One plain tensor of the chunks' rows, in order."""
    return ad.Tensor(np.concatenate([t.data for t in tensors]))


class Encoder:
    """LSTM stack + attention stack + the z/u dense heads of a ``RunConfig``.

    A forward pass under ``ad.no_grad`` (prediction, evaluation, cluster
    warm-up, the forecast bundle) holds only what its outputs need: the
    LSTM layers keep no gradient caches, the attention maps are kept
    only when the caller asks for them, and a batch of more than
    EVAL_BATCH windows is encoded one chunk at a time.
    """

    def __init__(self, config, params):
        self.config = config
        d_h = config.hidden_width
        self.lstm_layers = [
            LstmLayer(config.channels if i == 0 else d_h, d_h, params.scope(f"lstm{i}"))
            for i in range(config.lstm_layers)
        ]
        self.mha_layers = [
            MultiHeadAttention(d_h, config.attention_heads, params.scope(f"mha{i}"))
            for i in range(config.mha_layers)
        ]
        self.z_head = Dense(d_h, config.latent_width, params.scope("z_head"), activation="tanh")
        self.u_head = Dense(d_h, config.horizon, params.scope("u_head"))

    def __call__(self, x, rng=None, attention_maps=False) -> EncoderOutput:
        """x: (B, N, D_X) tensor of scaled windows; ``rng`` draws dropout masks (None: none).

        ``attention_weights`` holds every head's (B, N, N) map only when
        ``attention_maps`` asks for them, and is empty otherwise.

        A pass that records no graph and draws no dropout encodes more
        than EVAL_BATCH windows EVAL_BATCH at a time, so it holds one
        chunk's activations at once, however many windows it is given,
        and each window gets the bits ``training.score_split``'s chunks
        give it.
        """
        cfg = self.config
        x = ad.astensor(x)
        if x.data.ndim != 3 or x.data.shape[-1] != cfg.channels:
            raise ShapeError(
                f"encoder: expected (B, N, {cfg.channels}) input, got {x.data.shape}"
            )
        n = x.data.shape[0]
        if n > EVAL_BATCH and rng is None and not ad.grad_enabled():
            parts = [
                self(x.data[start : start + EVAL_BATCH], attention_maps=attention_maps)
                for start in range(0, n, EVAL_BATCH)
            ]
            return EncoderOutput(
                z_latent=_rows(p.z_latent for p in parts),
                u_latent=_rows(p.u_latent for p in parts),
                attention_weights=[
                    [_rows(head) for head in zip(*layer)]
                    for layer in zip(*(p.attention_weights for p in parts))
                ],
            )
        h = x
        for layer in self.lstm_layers:
            h = layer(h)
            h = ad.dropout(h, cfg.dropout_rate, rng)
        all_weights = []
        for mha in self.mha_layers:
            m, weights = mha(h, maps=attention_maps)
            h = ad.add(h, m)
            del m  # outside a recorded graph, free it before the next block runs
            if attention_maps:
                all_weights.append(weights)
        pooled = ad.tmean(h, axis=1)
        return EncoderOutput(
            z_latent=self.z_head(pooled),
            u_latent=self.u_head(pooled),
            attention_weights=all_weights,
        )
