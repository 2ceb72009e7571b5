"""Fused LSTM sequence scan: forward over all time steps plus the
hand-derived backward pass.

This is the hottest loop in training and serving.  Arrays are time-major
``(N, B, ...)`` C-contiguous float64; gate order inside the fused weight
matrices is input, forget, candidate, output (i, f, g, o), as in the
checkpoints and the single-step oracle ``tests/lstm_oracle.py``.

Forward.  The input-side contribution and the bias are hoisted into one
GEMM before the time loop (``ax = x @ wx + b``), so each step runs only
the recurrent GEMM into a reused ``(B, 4*D_h)`` buffer ``pre`` and adds
``ax[t]`` to it; ``h_0 = 0`` spares the first step's GEMM.  The
post-activation gates go into one cache ``gates`` of shape
``(N, 4, B, D_h)``: ``gates[t, k]`` is gate k of step t, a contiguous
``(B, D_h)`` block.  ``gates`` is ``ax``'s own buffer: step t has read
``ax[t]`` into ``pre`` before it writes ``gates[t]`` over the same bytes,
so the cache costs no memory beyond the projection.  Each nonlinearity
reads its column slice of ``pre`` once and writes its block; the rest of
the sigmoid (``exp``, ``+1``, ``reciprocal``) then runs in place on the
contiguous (i, f) pair and on the o block, and c and h are written into
``c_all``/``h_all`` with ``out=``.

Backward.  Each step builds the four gate adjoints in a contiguous
``(4, B, D_h)`` scratch and copies them once into the row-major
``(N, B, 4*D_h)`` pre-activation adjoint ``dA``.  ``dh`` for the step
before is one GEMM against ``wh.T`` with ``out=``; ``dwh`` is a single
GEMM after the loop (``h_all[:-1]`` against ``dA[1:]``) rather than one
per step, and ``dx``, ``dwx``, ``db`` come from ``dA`` as a whole.

Why each gate block must be contiguous: at D_h=16 an elementwise op on
a column slice of a ``(B, 4*D_h)`` buffer loops once per row, so keeping
the gates as slices of such a buffer made desk training slower (+7.6%
``epoch_s``).  Only the one op per gate group that reads the GEMM's
output touches a slice.  Keeping the state transposed as ``(D_h, B)``
instead makes the ``(B, N, D_h)`` output a strided view that ``matmul``
cannot hand to BLAS (27.5 ms against 5.3 ms at B=256), and copying it
costs 24 ms per layer; paper-shape evaluation lost 14% that way.
"""

import numpy as np


def lstm_forward(x, wx, wh, b):
    """Scan one LSTM layer over a window.

    x: (N, B, D_in); wx: (D_in, 4*D_h); wh: (D_h, 4*D_h); b: (4*D_h,).
    Returns (h_all, gates, c_all): h_all and c_all are (N, B, D_h),
    gates is (N, 4, B, D_h) with the post-activation i, f, g, o blocks;
    the gate and cell caches feed the backward pass.
    """
    N, B, d_in = x.shape
    Dh = wh.shape[0]
    # the outputs before the projection: in the other order glibc's heap
    # fragmented and paper-shape serving peaked ~4 MB higher
    h_all = np.empty((N, B, Dh))
    c_all = np.empty((N, B, Dh))
    ax = np.dot(x.reshape(N * B, d_in), wx)
    ax += b
    gates = ax.reshape(N, 4, B, Dh)
    ax = ax.reshape(N, B, 4 * Dh)
    pre = np.empty((B, 4 * Dh))
    pre_blocks = _gate_view(pre)
    pre_if, pre_g, pre_o = pre_blocks[:2], pre_blocks[2], pre_blocks[3]
    fc = np.empty((B, Dh))
    h_prev = c_prev = None
    for ax_t, g_t, c, h in zip(ax, gates, c_all, h_all):
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


def lstm_backward(x, wx, wh, dh_out, h_all, gates, c_all):
    """Adjoints of the scan given dL/dh at every step.

    Returns (dx, dwx, dwh, db) matching the forward argument shapes.
    Reads but never writes its arguments.
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
    dx = np.dot(dA2, wx.T).reshape(N, B, d_in)
    dwx = np.dot(x.reshape(N * B, d_in).T, dA2)
    db = np.sum(dA2, axis=0)
    return dx, dwx, dwh, db
