"""Plain-array oracles for the fused LSTM scan.

``lstm_step`` is one LSTM cell update on plain arrays, kept as an
independent check on ``fuzzformer.encoder.lstm_scan`` and
``fuzzformer.kernels.lstm``, which run every time step of a batch in one
fused kernel.

``lstm_forward`` and ``lstm_backward`` are the fused kernels as they were
while the gate cache held (i, f, g, o): each step finishes the i, f
sigmoids and the o sigmoid in separate calls, and the backward pass
copies its adjoints into ``dA`` in one call.  The kernels in
``fuzzformer.kernels.lstm``, whose cache holds (i, f, o, g), must return
the same bits.
"""

import numpy as np

from fuzzformer.exceptions import ShapeError
from fuzzformer.kernels.lstm import block_steps


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


def lstm_forward(x, wx, wh, b, *, cache=True):
    """Scan one LSTM layer over a window.

    x: (N, B, D_in); wx: (D_in, 4*D_h); wh: (D_h, 4*D_h); b: (4*D_h,).
    Returns (h_all, gates, c_all): h_all and c_all are (N, B, D_h),
    gates is (N, 4, B, D_h) with the post-activation i, f, g, o blocks;
    the gate and cell caches feed the backward pass.  ``cache=False``
    keeps neither: gates and c_all are None, and h_all has the same bits.
    """
    N, B, d_in = x.shape
    Dh = wh.shape[0]
    h_all = np.empty((N, B, Dh))
    per_block = block_steps(B)
    if cache:
        gates = np.empty((N, 4, B, Dh))
        c_all = cells = np.empty((N, B, Dh))
    else:
        block = np.empty((min(N, per_block), 4, B, Dh))
        gates = c_all = None
        cells = np.empty((2, B, Dh))  # step t writes slot t % 2
    pre = np.empty((B, 4 * Dh))
    pre_blocks = _gate_view(pre)
    pre_if, pre_g, pre_o = pre_blocks[:2], pre_blocks[2], pre_blocks[3]
    fc = np.empty((B, Dh))
    h_prev = c_prev = None
    for start in range(0, N, per_block):
        steps = range(start, min(start + per_block, N))
        g_block = gates[start : steps.stop] if cache else block[: len(steps)]
        ax = g_block.reshape(len(steps) * B, 4 * Dh)
        np.dot(x[start : steps.stop].reshape(len(steps) * B, d_in), wx, out=ax)
        ax += b
        for t, ax_t, g_t in zip(steps, ax.reshape(len(steps), B, 4 * Dh), g_block):
            c, h = cells[t % len(cells)], h_all[t]
            if h_prev is None:
                np.copyto(pre, ax_t)  # h_0 = 0
            else:
                np.dot(h_prev, wh, out=pre)
                pre += ax_t
            i, f, g, o = g_t
            sig_if = g_t[:2]
            np.negative(pre_if, out=sig_if)
            np.negative(pre_o, out=o)
            np.tanh(pre_g, out=g)
            for s in (sig_if, o):
                np.exp(s, out=s)
                s += 1.0
                np.reciprocal(s, out=s)
            np.multiply(i, g, out=c)
            if c_prev is not None:
                np.multiply(f, c_prev, out=fc)
                c += fc
            np.tanh(c, out=h)
            h *= o
            h_prev, c_prev = h, c
    return h_all, gates, c_all


def _gate_view(a):
    """A row-major (B, 4*D_h) array seen as its four (B, D_h) gate blocks."""
    B, width = a.shape
    return a.reshape(B, 4, width // 4).transpose(1, 0, 2)


def lstm_backward(x, wx, wh, dh_out, h_all, gates, c_all, *, input_grad=True):
    """Adjoints of the scan given dL/dh at every step.

    Returns (dx, dwx, dwh, db) matching the forward argument shapes; dx
    is None when ``input_grad`` is false.  Reads but never writes its
    arguments.
    """
    N, B, d_in = x.shape
    Dh = wh.shape[0]
    whT = np.ascontiguousarray(wh.T)
    dA = np.empty((N, B, 4 * Dh))
    dgate = np.empty((4, B, Dh))
    di, df, dg, do = dgate
    slope = np.empty((4, B, Dh))
    dh_buf = np.empty((B, Dh))
    dh_next = np.empty((B, Dh))
    dc = np.empty((B, Dh))
    dc_next = np.empty((B, Dh))
    tc = np.empty((B, Dh))
    for t in range(N - 1, -1, -1):
        g_t = gates[t]
        i, f, g, o = g_t
        np.tanh(c_all[t], out=tc)
        if t < N - 1:
            dh = np.add(dh_out[t], dh_next, out=dh_buf)
        else:
            dh = dh_out[t]
        np.multiply(dh, tc, out=do)
        tc *= tc
        np.subtract(1.0, tc, out=tc)
        np.multiply(dh, o, out=dc)
        dc *= tc
        if t < N - 1:
            dc += dc_next
        np.multiply(dc, g, out=di)
        np.multiply(dc, i, out=dg)
        if t:
            np.multiply(dc, c_all[t - 1], out=df)
            np.multiply(dc, f, out=dc_next)
        else:
            df.fill(0.0)
        # gate slopes: s * (1 - s) for i, f, o and 1 - g^2 for g
        np.subtract(1.0, g_t, out=slope)
        slope *= g_t
        np.multiply(g, g, out=slope[2])
        np.subtract(1.0, slope[2], out=slope[2])
        dgate *= slope
        np.copyto(_gate_view(dA[t]), dgate)
        if t:
            np.dot(dA[t], whT, out=dh_next)
    dA2 = dA.reshape(N * B, 4 * Dh)
    dwh = np.dot(h_all[:-1].reshape((N - 1) * B, Dh).T, dA[1:].reshape((N - 1) * B, 4 * Dh))
    dx = np.dot(dA2, wx.T).reshape(N, B, d_in) if input_grad else None
    dwx = np.dot(x.reshape(N * B, d_in).T, dA2)
    db = np.sum(dA2, axis=0)
    return dx, dwx, dwh, db
