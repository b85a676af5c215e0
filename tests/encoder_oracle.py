"""The encoder layer as a chain of generic ops: the reference for the fused op.

This is what ``EncoderLayer.forward`` recorded before ``autodiff.encoder_layer``:
eighteen graph nodes per layer (six matmuls, eight adds, two layer norms,
attention and gelu). ``gelu`` and ``layer_norm`` are used by nothing else,
so they live here with it. The fused op must match this chain bit for bit,
in the forward and in every gradient.
"""

from __future__ import annotations

import numpy as np

from tokentab.autodiff import (
    DimensionError,
    Tensor,
    _op,
    add,
    attention,
    linear_forward,
)

_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x: Tensor) -> Tensor:
    # tanh form; the backward uses the exact derivative of this same form,
    # which keeps finite-difference checks honest.
    u = _GELU_C * (x.data + 0.044715 * (x.data * x.data * x.data))
    t = np.tanh(u)
    out_data = 0.5 * x.data * (1.0 + t)

    def backward(g):
        du = _GELU_C * (1.0 + 3 * 0.044715 * (x.data * x.data))
        x._accumulate(g * (0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t**2) * du))

    return _op(out_data, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise layer normalization for a 2-D activation matrix."""
    if x.data.ndim != 2:
        raise DimensionError(f"layer_norm on shape {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError("layer_norm gain/bias must be width-d vectors")
    mu = x.data.mean(axis=1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            gain._accumulate((g * xhat).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0))
        if x.requires_grad:
            dxhat = g * gain.data
            term = dxhat - dxhat.mean(axis=1, keepdims=True)
            term -= xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
            x._accumulate(inv * term)

    return _op(out_data, (x, gain, bias), backward)


def layer_chain(layer, x: Tensor, s: int) -> Tensor:
    """``EncoderLayer.forward`` as the chain of generic ops."""
    h = layer_norm(x, layer.ln1_g, layer.ln1_b)
    context = attention(linear_forward(h, layer.wq, layer.bq),
                        linear_forward(h, layer.wk, layer.bk),
                        linear_forward(h, layer.wv, layer.bv), s, layer.heads)
    x = add(x, linear_forward(context, layer.wo, layer.bo))
    f = layer_norm(x, layer.ln2_g, layer.ln2_b)
    f = linear_forward(gelu(linear_forward(f, layer.w1, layer.b1)), layer.w2, layer.b2)
    return add(x, f)


def encoder_forward(x: Tensor, s: int, layers) -> Tensor:
    """``model.encoder_forward`` through ``layer_chain``."""
    for layer in layers:
        x = layer_chain(layer, x, s)
    return x
