"""Plain-array oracle for the fused scaled dot-product attention.

The scores-first formula: scale the (..., N_q, N_k) scores, normalise
them with a row-wise softmax, and in the backward pass form the softmax
adjoint from the elementwise product W * dW and its row sums.  It is
kept as an independent check on ``fuzzformer.attention.
scaled_dot_attention``, which lays the scores out key-major, scales Q
instead of the scores, never normalises the N x N array (it divides the
output, and in the backward pass the upstream gradient, by the softmax
row sums) and takes rowsum(W * dW) from the output side as rowsum(g *
out).  The two agree to rounding, not bit for bit.
"""

import numpy as np

from fuzzformer.autodiff import _unbroadcast


def attention(Q, K, V):
    """softmax(Q K^T / sqrt(d)) V; returns (output, weights)."""
    scale = 1.0 / np.sqrt(K.shape[-1])
    scores = np.matmul(Q, np.swapaxes(K, -1, -2))
    scores *= scale
    scores -= np.max(scores, axis=-1, keepdims=True)
    W = np.exp(scores)
    W /= np.sum(W, axis=-1, keepdims=True)
    return np.matmul(W, V), W


def attention_vjp(Q, K, V, W, g):
    """(dQ, dK, dV) for the upstream gradient ``g`` of the output."""
    scale = 1.0 / np.sqrt(K.shape[-1])
    dV = _unbroadcast(np.matmul(np.swapaxes(W, -1, -2), g), V.shape)
    dW = np.matmul(g, np.swapaxes(V, -1, -2))
    dW *= W
    dS = dW - W * np.sum(dW, axis=-1, keepdims=True)  # softmax adjoint
    dS *= scale
    dQ = _unbroadcast(np.matmul(dS, K), Q.shape)
    dK = _unbroadcast(np.matmul(np.swapaxes(dS, -1, -2), Q), K.shape)
    return dQ, dK, dV
