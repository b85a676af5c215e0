"""Support/query attention as one op, and the dense masked chain before it.

``attention`` is support/query attention as one op, as the layer chain in
``encoder_oracle`` uses it. It runs the ``autodiff._attention_forward`` and
``_attention_backward`` that ``autodiff.encoder_layer`` runs, so it checks
them in isolation.

``dense_attention`` is the per-head chain used before that: for each head,
slice the q/k/v columns, form the full (n, n) score matrix, softmax it under
the support/query permission mask, and lay the per-head contexts side by
side. It costs O(n^2) per head and records about thirty graph nodes per
layer, which is why it lives here as an oracle only.
"""

from __future__ import annotations

import numpy as np

from chain_ops import (add, gelu, layer_norm, linear_forward, matmul, mul_scalar,
                       slice_cols)
from tokentab import autodiff
from tokentab.autodiff import DimensionError, Tensor, _op


def attention(q: Tensor, k: Tensor, v: Tensor, s: int, heads: int) -> Tensor:
    """Multi-head attention over n rows whose first ``s`` are supports.

    Every row attends to all supports and each query also to itself, never
    to another query. Head h uses column block h of the (n, d) projections.
    Scores are a (heads, n, s) block plus one self score per query, never
    an (n, n) matrix. Returns the per-head contexts side by side, (n, d).
    """
    if q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise DimensionError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}")
    if heads < 1 or q.shape[1] % heads:
        raise DimensionError(f"attention: {heads} heads, shape {q.shape}")
    # read at call time: no_grad() rebinds the module global
    record = autodiff._recording and (q.requires_grad or k.requires_grad
                                      or v.requires_grad)
    out, saved = autodiff._attention_forward(
        *(autodiff._split_heads(t.data, heads) for t in (q, k, v)), s, record)

    def backward(g):
        for t, grad in zip((q, k, v), autodiff._attention_backward(g, saved)):
            t._accumulate(grad)

    return _op(out, (q, k, v), backward)


def build_mask(s: int, q: int) -> np.ndarray:
    """Attention permission matrix over the s supports followed by q queries.

    Supports attend to every support; each query attends to every support
    and to itself, never to another query.
    """
    if s < 1 or q < 1:
        raise ValueError(f"need s >= 1 and q >= 1, got s={s}, q={q}")
    allow = np.zeros((s + q, s + q), dtype=bool)
    allow[:, :s] = True
    allow[s:, s:] = np.eye(q, dtype=bool)
    return allow


def mask_for(s: int, n: int) -> np.ndarray:
    """``build_mask`` over n rows, where s == n means supports only."""
    return build_mask(s, n - s) if s < n else np.ones((n, n), dtype=bool)


def transpose2d(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"transpose2d on shape {a.shape}")

    def backward(g):
        a._accumulate(np.ascontiguousarray(g.T))

    return _op(np.ascontiguousarray(a.data.T), (a,), backward)


def concat_cols(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise DimensionError("concat_cols of nothing")
    heights = {p.shape[0] for p in parts}
    if any(p.data.ndim != 2 for p in parts) or len(heights) != 1:
        raise DimensionError(f"concat_cols shapes {[p.shape for p in parts]}")
    sizes = [p.shape[1] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._accumulate(np.ascontiguousarray(g[:, lo:hi]))

    return _op(np.concatenate([p.data for p in parts], axis=1), tuple(parts), backward)


def masked_softmax(scores: Tensor, allow: np.ndarray) -> Tensor:
    """Row softmax over the positions where ``allow`` is True.

    Disallowed positions get exactly zero weight. Every row must allow at
    least one position.
    """
    allow = np.asarray(allow, dtype=bool)
    if allow.shape != scores.shape:
        raise DimensionError(f"mask {allow.shape} vs scores {scores.shape}")
    if not allow.any(axis=1).all():
        raise DimensionError("masked_softmax: a row allows no positions")
    shifted = np.where(allow, scores.data, -np.inf)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        inner = (g * p).sum(axis=1, keepdims=True)
        scores._accumulate(p * (g - inner))

    return _op(p, (scores,), backward)


def dense_attention(q: Tensor, k: Tensor, v: Tensor, allow: np.ndarray,
                    heads: int) -> Tensor:
    """Per-head masked attention through generic 2-D ops."""
    dk = q.shape[1] // heads
    scale = 1.0 / np.sqrt(dk)
    contexts = []
    for head in range(heads):
        lo, hi = head * dk, (head + 1) * dk
        qh = slice_cols(q, lo, hi)
        kh = slice_cols(k, lo, hi)
        vh = slice_cols(v, lo, hi)
        scores = mul_scalar(matmul(qh, transpose2d(kh)), scale)
        contexts.append(matmul(masked_softmax(scores, allow), vh))
    return concat_cols(contexts)


def layer_forward(layer, x: Tensor, allow: np.ndarray) -> Tensor:
    """``EncoderLayer.forward`` with the dense masked attention chain."""
    h = layer_norm(x, layer.ln1_g, layer.ln1_b)
    context = dense_attention(linear_forward(h, layer.wq, layer.bq),
                              linear_forward(h, layer.wk, layer.bk),
                              linear_forward(h, layer.wv, layer.bv),
                              allow, layer.heads)
    x = add(x, linear_forward(context, layer.wo, layer.bo))
    f = layer_norm(x, layer.ln2_g, layer.ln2_b)
    f = linear_forward(gelu(linear_forward(f, layer.w1, layer.b1)), layer.w2, layer.b2)
    return add(x, f)


def encoder_forward(x: Tensor, s: int, layers) -> Tensor:
    allow = mask_for(s, x.shape[0])
    for layer in layers:
        x = layer_forward(layer, x, allow)
    return x
