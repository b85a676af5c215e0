"""The encoder layer as a chain of generic ops: the reference for the fused op.

This is what ``EncoderLayer.forward`` recorded before ``autodiff.encoder_layer``:
eighteen graph nodes per layer (six matmuls, eight adds, two layer norms,
attention and gelu), built from ``chain_ops`` and the ``attention`` op of
``attention_oracle``. The fused op must match this chain bit for bit, in
the forward and in every gradient.
"""

from __future__ import annotations

from attention_oracle import attention
from chain_ops import add, gelu, layer_norm, linear_forward
from tokentab.autodiff import Tensor


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
