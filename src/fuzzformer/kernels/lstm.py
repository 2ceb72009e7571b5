"""Fused LSTM sequence scan: forward over all time steps plus the
hand-derived backward pass.

This is the hottest loop in training and serving.  Arrays are time-major
``(N, B, ...)`` C-contiguous float64; gate order inside the fused weight
matrices is input, forget, candidate, output (i, f, g, o), as in the
checkpoints and the oracles in ``tests/lstm_oracle.py``.

Forward.  The input-side contribution and the bias are hoisted out of
the recurrence: one GEMM per block of time steps (:func:`block_steps`)
computes ``ax = x @ wx + b`` for the block, so each step runs only the
recurrent GEMM into a reused ``(B, 4*D_h)`` buffer ``pre`` and adds
``ax[t]`` to it; ``h_0 = 0`` spares the first step's GEMM.  The post-activation gates
of step t go into ``gates[t]``, a ``(4, B, D_h)`` array whose blocks are
i, f, o, g, over the bytes of ``ax[t]``: step t has read ``ax[t]`` into
``pre`` before it writes its gates, so they cost no memory beyond the
projection.  The three sigmoid gates lead, so after the two negations
that read the i, f and the o column slices of ``pre``, the rest of the
sigmoid (``exp``, ``+1``, ``reciprocal``) runs once over one contiguous
``(3, B, D_h)`` block; the tanh reads the g slice, and c and h are
written with ``out=``.  A step is 13 array calls.  Its operands are
views made once per block by iterating, in one ``zip``, over ``h_all``,
the gate block's leading axis and its i, f, o, g and sigmoid slices,
and the cell slots, so the loop body indexes nothing: at B=1, where a
step's arithmetic is tiny, the ten views per step that indexing made
cost about 6% of a desk-shape forecast.

The bits are those of the reference kernels in ``tests/lstm_oracle.py``,
whose cache holds (i, f, g, o): every GEMM is the same call on the same
operands, and each gate entry meets the same elementwise operations in
the same order; only which entries share a call changed.  Negating
the sigmoid columns of ``wx``, ``wh`` and ``b`` instead (a sign fold)
would spare the two negations per step, but costs a weight copy per
call: at D_h=128 that is 1 MB of fresh memory, and a single-window
paper-shape forecast got no faster.  Moving the o columns next to i
and f in the weights also changes GEMM bits when D_h is odd (seen at
D_h = 3, 5, 7, 9 from D_in = 16 on): 4*D_h is then no multiple of 8,
and OpenBLAS computes the last 4 columns with another kernel, which
sums in another order.

Where the blocks go depends on whether a backward pass will follow.
With ``cache=True`` each block is its slice of the full ``(N, 4, B,
D_h)`` gate cache and c goes into ``c_all``, both kept for
:func:`lstm_backward`.  With ``cache=False`` (forward-only runs) every
block reuses one buffer of a block's gates and c cycles through two
slots, so for blocks of S steps a layer holds only ``h_all`` beyond a
fixed ``(4 * S + 2) * B * D_h`` floats.  At the paper shape (N=60,
D_h=128) and 256 windows (S=16) that is 17 MB where the caches take
79 MB.  The outputs are the same bits either way, and the same as with
one GEMM over all N steps: a block's rows are a multiple of 16, which
keeps OpenBLAS's 16-row blocks aligned, so every block GEMM gives the
bits of the matching rows of the whole-window GEMM.

Backward.  Each step builds the four gate adjoints in a contiguous
``(4, B, D_h)`` scratch in the cache's i, f, o, g order, scales them by
the gate slopes in one call and copies them into the row-major ``(N, B,
4*D_h)`` pre-activation adjoint ``dA`` in two: i, f as they lie, then
o, g reversed into the g, o columns.  ``dA`` keeps the (i, f, g, o)
column order of the weights, so every GEMM below sums in the reference
kernels' order; one broadcast product writes both ``dc * g`` and
``dc * i``, so a step does the reference's 19 array calls.  ``dh`` for
the step before is one GEMM against ``wh.T`` with ``out=``; ``dwh`` is a
single GEMM after the loop (``h_all[:-1]`` against ``dA[1:]``) rather
than one per step, and ``dwx``, ``db`` and, unless the input needs no
gradient (the first layer, whose input is the data window), ``dx`` come
from ``dA`` as a whole.

Why each gate block must be contiguous: at D_h=16 an elementwise op on
a column slice of a ``(B, 4*D_h)`` buffer loops once per row, so keeping
the gates as slices of such a buffer made desk training slower (+7.6%
``epoch_s``).  Only the one op per gate group that reads the GEMM's
output touches a slice.  Keeping the state transposed as ``(D_h, B)``
instead makes the ``(B, N, D_h)`` output a strided view that ``matmul``
cannot hand to BLAS (27.5 ms against 5.3 ms at B=256), and copying it
costs 24 ms per layer; paper-shape evaluation lost 14% that way.
"""

import itertools

import numpy as np

BLOCK_ROWS = 768  # least rows per input-projection GEMM, where the window has them


def block_steps(B):
    """Time steps per input-projection GEMM for a batch of B windows.

    A multiple of 16, so a block's rows keep OpenBLAS's 16-row blocks
    aligned, and at least BLOCK_ROWS rows: each GEMM packs all of ``wx``,
    and at B=1 four 16-row GEMMs instead of one made a paper-shape
    forecast about 3% slower.  From B=48 on it is 16 steps, so a
    forward-only 48-window paper-shape chunk (``encoder.chunk_windows``)
    projects into a 3.1 MiB block buffer, not the 6.3 MiB of 32 steps
    that 1024 rows gave it; an empty batch gets B=1's blocks.
    """
    return 16 * -(-BLOCK_ROWS // (16 * max(B, 1)))


def lstm_forward(x, wx, wh, b, *, cache=True):
    """Scan one LSTM layer over a window.

    x: (N, B, D_in); wx: (D_in, 4*D_h); wh: (D_h, 4*D_h); b: (4*D_h,),
    gate columns (i, f, g, o).  Returns (h_all, gates, c_all): h_all and
    c_all are (N, B, D_h), gates is (N, 4, B, D_h) with the
    post-activation i, f, o, g blocks; the gate and cell caches feed the
    backward pass.  ``cache=False`` keeps neither: gates and c_all are
    None, and h_all has the same bits.  The step loop draws its
    per-step views from iterators built once per block (see the module
    docstring); each step makes the same 13 array calls on the same
    operands as an indexed loop, so no bit moves.
    """
    N, B, d_in = x.shape
    Dh = wh.shape[0]
    h_all = np.empty((N, B, Dh))
    per_block = block_steps(B)
    if cache:
        gates = np.empty((N, 4, B, Dh))
        c_all = np.empty((N, B, Dh))
    else:
        block = np.empty((min(N, per_block), 4, B, Dh))
        gates = c_all = None
        ring = itertools.cycle(np.empty((2, B, Dh)))  # step t writes slot t % 2
    pre = np.empty((B, 4 * Dh))
    pre_blocks = _gate_view(pre)
    pre_if, pre_g, pre_o = pre_blocks[:2], pre_blocks[2], pre_blocks[3]
    fc = np.empty((B, Dh))
    h_prev = c_prev = None
    for start in range(0, N, per_block):
        stop = min(start + per_block, N)
        g_block = gates[start:stop] if cache else block[: stop - start]
        ax = g_block.reshape((stop - start) * B, 4 * Dh)
        np.dot(x[start:stop].reshape((stop - start) * B, d_in), wx, out=ax)
        ax += b
        # per-step views by iteration, not by indexing in the loop; the
        # ring goes last, so zip stops before it draws a slot for no step
        steps = zip(
            ax.reshape(stop - start, B, 4 * Dh), g_block[:, :3], g_block[:, :2],
            g_block[:, 0], g_block[:, 1], g_block[:, 2], g_block[:, 3],
            h_all[start:stop], c_all[start:stop] if cache else ring,
        )
        for ax_t, sig, sig_if, i, f, o, g, h, c in steps:
            if h_prev is None:
                np.copyto(pre, ax_t)  # h_0 = 0
            else:
                np.dot(h_prev, wh, out=pre)
                pre += ax_t
            np.negative(pre_if, out=sig_if)
            np.negative(pre_o, out=o)
            np.exp(sig, out=sig)
            sig += 1.0
            np.reciprocal(sig, out=sig)
            np.tanh(pre_g, out=g)
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
    # dA's gate blocks i, f and g, o: the cache's i, f and, reversed, its o, g
    dA_gates = dA.reshape(N, B, 4, Dh).transpose(0, 2, 1, 3)
    dA_if, dA_go = dA_gates[:, :2], dA_gates[:, 2:]
    dgate = np.empty((4, B, Dh))  # i, f, o, g like the cache
    di, df, do, dg = dgate
    d_ig = dgate[::3]  # (di, dg) = dc * (g, i)
    g_i = gates[:, ::-3]
    slope = np.empty((4, B, Dh))
    dh_buf = np.empty((B, Dh))
    dh_next = np.empty((B, Dh))
    dc = np.empty((B, Dh))
    dc_next = np.empty((B, Dh))
    tc = np.empty((B, Dh))
    for t in range(N - 1, -1, -1):
        g_t = gates[t]
        i, f, o, g = g_t
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
        np.multiply(dc, g_i[t], out=d_ig)
        if t:
            np.multiply(dc, c_all[t - 1], out=df)
            np.multiply(dc, f, out=dc_next)
        else:
            df.fill(0.0)
        # gate slopes: s * (1 - s) for i, f, o and 1 - g^2 for g
        np.subtract(1.0, g_t, out=slope)
        slope *= g_t
        np.multiply(g, g, out=slope[3])
        np.subtract(1.0, slope[3], out=slope[3])
        dgate *= slope
        np.copyto(dA_if[t], dgate[:2])
        np.copyto(dA_go[t], dgate[:1:-1])
        if t:
            np.dot(dA[t], whT, out=dh_next)
    dA2 = dA.reshape(N * B, 4 * Dh)
    dwh = np.dot(h_all[:-1].reshape((N - 1) * B, Dh).T, dA[1:].reshape((N - 1) * B, 4 * Dh))
    dx = np.dot(dA2, wx.T).reshape(N, B, d_in) if input_grad else None
    dwx = np.dot(x.reshape(N * B, d_in).T, dA2)
    db = np.sum(dA2, axis=0)
    return dx, dwx, dwh, db
