"""Single-step plain-array oracle for the fused LSTM scan.

One LSTM cell update on plain arrays, kept as an independent check on
``fuzzformer.encoder.lstm_scan`` and ``fuzzformer.kernels.lstm``, which
run every time step of a batch in one fused kernel.
"""

import numpy as np

from fuzzformer.exceptions import ShapeError


def lstm_step(x, h, c, wx, wh, b):
    """Single LSTM cell update on plain arrays.

    Gate order in the fused matrices is input, forget, candidate, output.
    """
    x, h, c = np.asarray(x, float), np.asarray(h, float), np.asarray(c, float)
    dh = wh.shape[0]
    if x.shape[-1] != wx.shape[0] or h.shape[-1] != dh or c.shape[-1] != dh:
        raise ShapeError(
            f"lstm_step: dimensions {x.shape}/{h.shape}/{c.shape} do not match "
            f"weights {wx.shape}/{wh.shape}"
        )
    acts = x @ wx + h @ wh + b
    with np.errstate(over="ignore"):
        i = 1.0 / (1.0 + np.exp(-acts[..., :dh]))
        f = 1.0 / (1.0 + np.exp(-acts[..., dh : 2 * dh]))
        g = np.tanh(acts[..., 2 * dh : 3 * dh])
        o = 1.0 / (1.0 + np.exp(-acts[..., 3 * dh :]))
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new
