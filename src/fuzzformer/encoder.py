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

# the most windows per chunk of a forward-only encode and of
# training.score_split, and so per worker and per forecast or encode
# call, and the most windows x the model's hidden width D_h per chunk
# (chunk_windows reads both).  A chunk holds its windows' activations at
# once, and past a few dozen windows a larger chunk is no faster per
# window, only larger.  Milliseconds per window of forecasting 192 windows
# in chunks of B, in turn on one thread / on two threads at once, and the
# tracemalloc peak of one chunk's forward in MiB, at the paper shape
# (C=16, p=30, look-back 60) but for D_h, two-core Xeon, one BLAS thread,
# input projections of at least kernels.lstm.BLOCK_ROWS = 768 rows:
#   D_h       ms per window, B = 16 ... 96               MiB, B = 16 ... 96
#          16        32        48        64        96     16   32   48   64   96
#    16  0.34/0.42 0.29/0.33 0.28/0.28 0.26/0.25 0.27/0.22  0.8  1.7  2.5  3.3  4.9
#    32  0.47/0.66 0.43/0.42 0.40/0.36 0.53/0.33 0.41/0.26  1.3  2.4  3.5  4.7  7.0
#    48  0.61/0.71 0.54/0.54 0.57/0.47 0.55/0.43 0.59/0.35  1.9  3.1  4.6  6.1  9.1
#    64  0.77/0.77 0.76/0.54 0.72/0.47 0.74/0.57 0.78/0.45  2.6  4.1  5.6  7.5 11.2
#    96  1.23/1.03 1.17/0.88 1.09/0.76 1.18/0.78 1.14/0.71  3.8  6.0  7.7 10.3 15.5
#   128  2.07/1.36 1.79/1.15 1.64/0.97 1.66/1.26 1.77/1.19  5.1  8.0  9.9 13.2 19.7
# (192 windows in chunks of 64 are three chunks for two threads, so its
# two-thread times lag.)  Up to D_h=64 two threads still gain from 96
# windows over 48 (0.22 against 0.28 ms at D_h=16: per-call overhead and
# the GIL weigh most there), and 96 windows hold at most 11 MiB, so a
# chunk keeps CHUNK_WINDOWS windows.  From about D_h=96 on, a chunk of
# CHUNK_WORK / D_h windows (64 at D_h=96, 48 at the paper's D_h=128) is as
# fast as 96 and holds a half to two thirds of its memory.  chunk_layout
# cuts smaller chunks only for a split's last round, and only for models
# wide enough to gain from threads (WORK_FLOOR).
#
# Chunk sizes are multiples of 16.  OpenBLAS's double GEMM takes rows in
# blocks of 16 and the rows left over in smaller blocks, and a row in a
# block of 1 or 2 can get other last bits than in a larger one (at the
# paper shape, warm-up chunks of 2, 5 or 102 windows changed the latents
# of 156, 31 and 2 of 256 windows; every multiple of 4 tried left all
# equal).  With chunks a multiple of 16, each window falls in the same
# kind of block as in one batch of all the windows, so chunked forecasts
# and latents keep one batch's bits.  The exception is a last chunk of
# one window, which numpy runs as a matrix-vector product: at the paper
# shape, 96 + r windows keep one batch's bits for every r from 2 to 40,
# but at r = 1 the last window's latent moves in its last bit (a
# 17-window batch cut 16 + 1 moves the last forecast by 2e-16), so
# chunk_layout gives a lone last window to the chunk before it.
CHUNK_WINDOWS = 96
CHUNK_WORK = 6144

# the least work, in windows x the model's hidden width D_h, for which the
# windows left after a split's whole rounds (see chunk_layout) are cut
# into one part per core.  Each numpy call of a forward pass takes a few
# microseconds at D_h=16, and handing the GIL between two threads around
# such calls costs more than the threads overlap.  Two-core speedup over
# one thread of a 90-window split cut into two parts, on the synthetic
# series (p=30, C=16, look-back 60), on a two-core Xeon with one BLAS
# thread:
#   D_h   16    32    48    64    96   128
#   90   0.87  0.98  1.01  1.32  1.28  1.33
# So 48 windows at D_h=32 (1536) stay one chunk, and 16 windows at
# D_h=128 (2048) get a part of their own.  Whole chunks stay on the pool
# at every width: at the desk shape (D_h=16, C=4, p=4) the
# 812-window train split took 111 ms in turn on the calling thread
# against 99 ms on two threads (20 alternating pairs, 0 won by the
# calling thread).
WORK_FLOOR = 2048


def chunk_windows(width):
    """The most windows per forward-only chunk of a model of hidden width
    ``width``: CHUNK_WINDOWS, or fewer where windows x width would pass
    CHUNK_WORK, a multiple of 16 and at least 16.  Width 0 (a forecaster
    with no such width) gets CHUNK_WINDOWS."""
    return max(16, min(CHUNK_WINDOWS, CHUNK_WORK // max(width, 1)) // 16 * 16)


def chunk_layout(n, cores, width):
    """The row slices a forward-only pass cuts ``range(n)`` into for
    ``cores`` usable cores and a model of hidden width ``width``.

    Whole rounds of one ``chunk_windows(width)`` chunk per core come
    first.  The rows left after them are cut into one part per core, of
    16 * ceil(rows / (16 * cores)) windows, when such a part meets
    WORK_FLOOR; otherwise they stay ``chunk_windows(width)`` chunks.  A
    lone last window joins the chunk before it (alone, it can take other
    bits).  So every chunk starts on a multiple of 16 windows, and none
    holds more than ``chunk_windows(width)`` windows but a last chunk
    that took a lone window.  With one core this is the plain cut into
    ``chunk_windows(width)``-window chunks.
    """
    size = chunk_windows(width)
    full = n - n % (cores * size)
    part = 16 * -(-(n - full) // (16 * cores))  # <= size, as n - full < cores * size
    step = part if part * width >= WORK_FLOOR else size
    starts = [*range(0, full, size), *range(full, n, step)]
    if len(starts) > 1 and starts[-1] == n - 1:
        del starts[-1]
    return [slice(start, stop) for start, stop in zip(starts, [*starts[1:], n])]


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
    ``chunk_windows(D_h)`` windows is encoded one chunk at a time.
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

        A pass that records no graph and draws no dropout encodes its
        windows in the chunks of ``chunk_layout(B, 1, D_h)``, so it holds
        one chunk's activations at once, however many windows it is given,
        and each window gets the bits ``training.score_split``'s chunks
        give it.
        """
        cfg = self.config
        x = ad.astensor(x)
        if x.data.ndim != 3 or x.data.shape[-1] != cfg.channels:
            raise ShapeError(
                f"encoder: expected (B, N, {cfg.channels}) input, got {x.data.shape}"
            )
        # a recorded or dropout pass is one batch; tested first, as every
        # training step takes it and a layout costs more than the test
        if rng is not None or ad.grad_enabled():
            return self._encode(x, rng, attention_maps)
        chunks = chunk_layout(len(x.data), 1, cfg.hidden_width)
        if len(chunks) < 2:
            return self._encode(x, None, attention_maps)
        parts = [self._encode(ad.Tensor(x.data[rows]), None, attention_maps) for rows in chunks]
        return EncoderOutput(
            z_latent=_rows(p.z_latent for p in parts),
            u_latent=_rows(p.u_latent for p in parts),
            attention_weights=[
                [_rows(head) for head in zip(*layer)]
                for layer in zip(*(p.attention_weights for p in parts))
            ],
        )

    def _encode(self, x, rng, attention_maps):
        """One pass of the whole network over every window of ``x``."""
        h = x
        for layer in self.lstm_layers:
            h = layer(h)
            h = ad.dropout(h, self.config.dropout_rate, rng)
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
