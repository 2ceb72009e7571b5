"""Temporal multi-head self-attention over the encoded feature sequence.

Each head carries its own query/key projections while all heads share a
single value projection; head outputs are concatenated and recombined by
an output projection.  Head width is ``d_in / n_heads`` so the input
features are distributed across head subspaces.  Each head is one call
of the fused kernel ``scaled_dot_attention``, made through this module's
global so that a wrapper set on it sees every head.
"""

import numpy as np

from . import autodiff as ad
from .exceptions import ConfigError, ShapeError


def scaled_dot_attention(q, k, v, *, maps=False):
    """softmax(Q K^T / sqrt(D_h)) V with row-wise softmax.

    q: (..., N_q, D_h); k: (..., N_k, D_h); v: (..., N_k, d_out).
    Returns (output, weights).  ``weights`` is None unless ``maps`` asks
    for the (..., N_q, N_k) softmax rows (non-negative, each summing to
    one), built then as plain values for interpretability export, not
    as a graph path.

    Fused into a single graph node with a hand-derived backward pass.
    The (N x N) arrays are the largest intermediates in the network, and
    at short head widths the passes over them, not the GEMMs, set the
    cost.  So they are laid out key-major: ``ET = K (Q / sqrt(D_h))^T``
    is (..., N_k, N_q), and a reduction or broadcast over one query's
    scores runs down a column, across contiguous rows.

    Forward: ET is shifted by its exact column max, exponentiated in
    place, and its column sums ``Z`` (the softmax normalisers) come from
    one BLAS product with a ones vector.  The N x N array is never
    divided: the (..., N_q, d_out) output ET^T V is divided by ``Z``
    instead, FlashAttention's deferred normalisation (Dao et al.,
    arXiv:2205.14135).  The shift
    stays the exact max, not a cheaper bound: every column then holds
    an exact 1, so ``Z >= 1`` and scores far below their column's max
    underflow to zero weights with no guard path.

    Backward: the node keeps ET and ``Z``.  Dividing the upstream
    gradient by ``Z`` once, on the thin side, gives g_Z = g / Z, and
    then dV = ET g_Z and the transposed softmax adjoint is
    (V g_Z^T - rho) * ET, with rho = rowsum(g_Z * out) =
    rowsum(W * dW) / Z (FlashAttention's D_i = dO_i . O_i) from one BLAS
    product on the output side.  dQ and dK are that adjoint times K and
    the scaled Q.  Every pass over N x N reads contiguous memory, and
    none divides.
    """
    q, k, v = ad.astensor(q), ad.astensor(k), ad.astensor(v)
    Q, K, V = q.data, k.data, v.data
    if min(Q.ndim, K.ndim, V.ndim) < 2:
        raise ShapeError(
            f"scaled_dot_attention: q, k and v must be (..., N, width), got "
            f"{Q.shape}, {K.shape}, {V.shape}"
        )
    if K.shape[-2] != V.shape[-2]:
        raise ShapeError(
            f"scaled_dot_attention: key/value row counts differ ({K.shape}, {V.shape})"
        )
    if Q.shape[-1] != K.shape[-1]:
        raise ShapeError(
            f"scaled_dot_attention: query/key widths differ ({Q.shape}, {K.shape})"
        )
    if Q.shape[-2] == 0 or K.shape[-2] == 0:
        raise ShapeError(f"scaled_dot_attention: empty sequence ({Q.shape}, {K.shape})")
    if K.shape[-1] == 0:
        raise ShapeError(f"scaled_dot_attention: zero head width ({Q.shape}, {K.shape})")
    scale = 1.0 / np.sqrt(K.shape[-1])
    Qs = Q * scale
    try:
        ET = np.matmul(K, np.swapaxes(Qs, -1, -2))
    except ValueError as exc:
        raise ShapeError(
            f"scaled_dot_attention: incompatible shapes {Q.shape} and {K.shape}"
        ) from exc
    ET -= np.max(ET, axis=-2, keepdims=True)
    np.exp(ET, out=ET)
    Z = np.matmul(np.ones(ET.shape[-2]), ET)[..., None]  # (..., N_q, 1)
    try:
        out_data = np.matmul(np.swapaxes(ET, -1, -2), V)
    except ValueError as exc:
        raise ShapeError(
            f"scaled_dot_attention: values {V.shape} do not broadcast against weights "
            f"{np.swapaxes(ET, -1, -2).shape}"
        ) from exc
    out_data /= Z

    def vjp(g):
        g = g / Z
        dV = ad._unbroadcast(np.matmul(ET, g), V.shape)
        dE = np.matmul(V, np.swapaxes(g, -1, -2))
        dE -= np.matmul(g * out_data, np.ones(g.shape[-1]))[..., None, :]
        dE *= ET  # the softmax adjoint w.r.t. the scaled-Q scores, transposed
        dQ = np.matmul(np.swapaxes(dE, -1, -2), K)
        dQ *= scale
        dK = ad._unbroadcast(np.matmul(dE, Qs), K.shape)
        return ad._unbroadcast(dQ, Q.shape), dK, dV

    out = ad.custom_op("scaled_dot_attention", out_data, (q, k, v), vjp)
    if not maps:
        return out, None
    return out, ad.Tensor(np.divide(np.swapaxes(ET, -1, -2), Z, order="C"))


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

        The weight list is empty unless ``maps`` asks for it, and only
        then does a head build its normalised weights.  Outside a
        recorded graph nothing outlives its use: a head's (..., N, N)
        scores are freed with the head, before the next head makes its
        own, and the head outputs once they are concatenated.
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
                ad.matmul(s, self.w_q[h]), ad.matmul(s, self.w_k[h]), v, maps=maps
            )
            if maps:
                weights.append(w)
            return out

        merged = ad.matmul(ad.concat([head(h) for h in range(self.n_heads)], axis=-1), self.w_o)
        return merged, weights
