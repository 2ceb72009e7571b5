"""Temporal multi-head self-attention over the encoded feature sequence.

Each head carries its own query/key projections while all heads share a
single value projection; head outputs are concatenated and recombined by
an output projection.  Head width is ``d_in / n_heads`` so the input
features are distributed across head subspaces.
"""

import numpy as np

from . import autodiff as ad
from .exceptions import ConfigError, ShapeError


def scaled_dot_attention(q, k, v):
    """softmax(Q K^T / sqrt(D_h)) V with row-wise softmax.

    q, k: (..., N, D_h); v: (..., N, d_out).  Returns (output, weights);
    the weight rows are non-negative and sum to one, and are kept around
    for interpretability export (as plain values, not a graph path).

    Fused into a single graph node: the (N x N) weight matrices are the
    largest intermediates in the network, so the backward pass is
    hand-derived instead of composed from primitives, and both passes
    touch the (..., N, N) arrays as few times as they can.  The scale
    goes on Q, not on the scores, and the exponential runs in place.
    The softmax adjoint W * (dW - rowsum(W * dW)) takes its row sums
    from the (..., N, d_out) output instead: rowsum(W * dW) =
    rowsum(g * out), FlashAttention's D_i = dO_i . O_i (Dao et al.,
    arXiv:2205.14135), and then runs in place in dW.
    """
    q, k, v = ad.astensor(q), ad.astensor(k), ad.astensor(v)
    if k.data.shape[-2] != v.data.shape[-2]:
        raise ShapeError(
            f"scaled_dot_attention: key/value row counts differ ({k.data.shape}, {v.data.shape})"
        )
    if q.data.shape[-1] != k.data.shape[-1]:
        raise ShapeError(
            f"scaled_dot_attention: query/key widths differ ({q.data.shape}, {k.data.shape})"
        )
    Q, K, V = q.data, k.data, v.data
    scale = 1.0 / np.sqrt(K.shape[-1])
    Qs = Q * scale
    try:
        W = np.matmul(Qs, np.swapaxes(K, -1, -2))
    except ValueError as exc:
        raise ShapeError(
            f"scaled_dot_attention: incompatible shapes {Q.shape} and {K.shape}"
        ) from exc
    W -= np.max(W, axis=-1, keepdims=True)
    np.exp(W, out=W)
    W /= np.sum(W, axis=-1, keepdims=True)
    try:
        out_data = np.matmul(W, V)
    except ValueError as exc:
        raise ShapeError(
            f"scaled_dot_attention: values {V.shape} do not broadcast against weights {W.shape}"
        ) from exc

    def vjp(g):
        dV = ad._unbroadcast(np.matmul(np.swapaxes(W, -1, -2), g), V.shape)
        dS = np.matmul(g, np.swapaxes(V, -1, -2))
        dS -= np.sum(g * out_data, axis=-1, keepdims=True)
        dS *= W  # softmax adjoint, w.r.t. the scores of the scaled Q
        dQ = np.matmul(dS, K)
        dQ *= scale
        dK = ad._unbroadcast(np.matmul(np.swapaxes(dS, -1, -2), Qs), K.shape)
        return ad._unbroadcast(dQ, Q.shape), dK, dV

    out = ad.custom_op("scaled_dot_attention", out_data, (q, k, v), vjp)
    return out, ad.Tensor(W)


class MultiHeadAttention:
    """One attention block: per-head W_Q/W_K, shared W_V, output W_O."""

    def __init__(self, d_in, n_heads, params):
        if d_in % n_heads != 0:
            raise ConfigError(f"attention width {d_in} is not divisible by {n_heads} heads")
        self.d_in = d_in
        self.n_heads = n_heads
        self.head_dim = d_in // n_heads
        hd = self.head_dim
        # every head's w_q, then every w_k: the order of draws and of checkpoints
        self.w_q = [params.new(f"head{h}.w_q", (d_in, hd), d_in) for h in range(n_heads)]
        self.w_k = [params.new(f"head{h}.w_k", (d_in, hd), d_in) for h in range(n_heads)]
        self.w_v = params.new("w_v", (d_in, hd), d_in)
        self.w_o = params.new("w_o", (n_heads * hd, d_in), n_heads * hd)

    def __call__(self, s, maps=False):
        """s: (..., N, D_in) -> ((..., N, D_in), per-head weight tensors).

        The weight list is empty unless ``maps`` asks for it.  Outside a
        recorded graph nothing outlives its use: a head's (..., N, N) map
        is freed with the head, before the next head makes its own, and
        the head outputs once they are concatenated.
        """
        s = ad.astensor(s)
        if s.data.shape[-1] != self.d_in:
            raise ShapeError(
                f"multi_head: expected feature width {self.d_in}, got {s.data.shape[-1]}"
            )
        v = ad.matmul(s, self.w_v)
        weights = []

        def head(h):
            out, w = scaled_dot_attention(
                ad.matmul(s, self.w_q[h]), ad.matmul(s, self.w_k[h]), v
            )
            if maps:
                weights.append(w)
            return out

        merged = ad.matmul(ad.concat([head(h) for h in range(self.n_heads)], axis=-1), self.w_o)
        return merged, weights
