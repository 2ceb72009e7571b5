"""Fused LSTM sequence scan: forward over all time steps plus the
hand-derived backward pass.

This is the hottest loop in training.  The input-side gate contribution
is hoisted into a single large matmul before the time loop; only the
recurrent matmul and the gate nonlinearities stay inside it.  Arrays are
time-major ``(N, B, ...)`` C-contiguous float64; gate order inside the
fused weight matrices is input, forget, candidate, output.
"""

import numpy as np


def lstm_forward(x, wx, wh, b):
    """Scan one LSTM layer over a window.

    x: (N, B, D_in); wx: (D_in, 4*D_h); wh: (D_h, 4*D_h); b: (4*D_h,).
    Returns (h_all, i_all, f_all, g_all, o_all, c_all), each (N, B, D_h);
    the post-activation gate and cell caches feed the backward pass.
    """
    N, B, d_in = x.shape
    Dh = wh.shape[0]
    h_all = np.zeros((N, B, Dh))
    i_all = np.zeros((N, B, Dh))
    f_all = np.zeros((N, B, Dh))
    g_all = np.zeros((N, B, Dh))
    o_all = np.zeros((N, B, Dh))
    c_all = np.zeros((N, B, Dh))
    ax_all = np.dot(x.reshape(N * B, d_in), wx).reshape(N, B, 4 * Dh)
    h_prev = np.zeros((B, Dh))
    c_prev = np.zeros((B, Dh))
    for t in range(N):
        acts = ax_all[t] + np.dot(h_prev, wh) + b
        i = 1.0 / (1.0 + np.exp(-acts[:, :Dh]))
        f = 1.0 / (1.0 + np.exp(-acts[:, Dh : 2 * Dh]))
        g = np.tanh(acts[:, 2 * Dh : 3 * Dh])
        o = 1.0 / (1.0 + np.exp(-acts[:, 3 * Dh :]))
        c = f * c_prev + i * g
        h = o * np.tanh(c)
        i_all[t] = i
        f_all[t] = f
        g_all[t] = g
        o_all[t] = o
        c_all[t] = c
        h_all[t] = h
        h_prev = h
        c_prev = c
    return h_all, i_all, f_all, g_all, o_all, c_all


def lstm_backward(x, wx, wh, dh_out, h_all, i_all, f_all, g_all, o_all, c_all):
    """Adjoints of the scan given dL/dh at every step.

    Returns (dx, dwx, dwh, db) matching the forward argument shapes.
    """
    N, B, d_in = x.shape
    Dh = wh.shape[0]
    dwh = np.zeros_like(wh)
    dA_all = np.zeros((N, B, 4 * Dh))
    dh_next = np.zeros((B, Dh))
    dc_next = np.zeros((B, Dh))
    zeros_bd = np.zeros((B, Dh))
    whT = np.ascontiguousarray(wh.T)
    for t in range(N - 1, -1, -1):
        i = i_all[t]
        f = f_all[t]
        g = g_all[t]
        o = o_all[t]
        tc = np.tanh(c_all[t])
        if t > 0:
            c_prev = c_all[t - 1]
            h_prev = h_all[t - 1]
        else:
            c_prev = zeros_bd
            h_prev = zeros_bd
        dh = dh_out[t] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dc_next = dc * f
        dA = dA_all[t]
        dA[:, :Dh] = di * i * (1.0 - i)
        dA[:, Dh : 2 * Dh] = df * f * (1.0 - f)
        dA[:, 2 * Dh : 3 * Dh] = dg * (1.0 - g * g)
        dA[:, 3 * Dh :] = do * o * (1.0 - o)
        dwh += np.dot(h_prev.T, dA)
        dh_next = np.dot(dA, whT)
    dA2 = dA_all.reshape(N * B, 4 * Dh)
    dx = np.dot(dA2, wx.T).reshape(N, B, d_in)
    dwx = np.dot(x.reshape(N * B, d_in).T, dA2)
    db = np.sum(dA2, axis=0)
    return dx, dwx, dwh, db
