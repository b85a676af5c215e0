"""Generic 2-D ops: the chains the package's fused ops replaced.

Before the package folded an episode into a few fused ops, its graph was
built from these: ``add``, ``mul``, ``mul_scalar``, ``sum_all``,
``matmul``, ``linear_forward``, ``outer_scale_row``, ``slice_rows``,
``slice_cols``, ``concat_rows``, ``gelu`` and ``layer_norm``. Nothing in the
package calls them now, so they live here as the references the fused ops
are compared against, bit for bit. The fine-tuning loss was
``add(softmax_cross_entropy(...), mul_scalar(orthogonal_loss(...), lam))``.

``episode_chain`` and ``query_logits_chain`` are the chains that
``model.episode_rows`` and ``model.query_logits`` replaced: the label token,
its add and the row concatenation; and the query row slice, the head's
product and bias, and the class column slice.
"""

from __future__ import annotations

import numpy as np

from tokentab.autodiff import DimensionError, Tensor, _as_f64, _op


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for equal shapes, or a 2-D ``a`` plus a bias row ``b`` of width d."""
    row_broadcast = (
        a.data.ndim == 2 and b.data.ndim == 1 and b.data.shape[0] == a.data.shape[1]
    )
    if a.shape != b.shape and not row_broadcast:
        raise DimensionError(f"add: {a.shape} + {b.shape}")
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0) if row_broadcast else g)

    return _op(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul: {a.shape} * {b.shape}")
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return _op(out_data, (a, b), backward)


def mul_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        a._accumulate(g * c)

    return _op(a.data * c, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(np.full_like(a.data, g.item()))

    return _op(np.asarray(a.data.sum()), (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _op(out_data, (a, b), backward)


def linear_forward(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w with an optional bias row added to every output row."""
    y = matmul(x, w)
    return y if b is None else add(y, b)


def outer_scale_row(values: np.ndarray, w: Tensor, i: int) -> Tensor:
    """Tokens ``values[r] * w[i]`` for every r: output shape (len(values), d)."""
    vals = _as_f64(values).reshape(-1)
    if not 0 <= i < w.shape[0]:
        raise IndexError(f"row {i} out of range for {w.shape[0]} rows")

    def backward(g):
        if w.requires_grad:
            full = np.zeros_like(w.data)
            full[i] = vals @ g
            w._accumulate(full)

    return _op(vals[:, None] * w.data[i][None, :], (w,), backward)


def slice_rows(a: Tensor, lo: int, hi: int) -> Tensor:
    if a.data.ndim != 2 or not 0 <= lo <= hi <= a.shape[0]:
        raise DimensionError(f"slice_rows({lo},{hi}) on shape {a.shape}")

    def backward(g):
        full = np.zeros_like(a.data)
        full[lo:hi] = g
        a._accumulate(full)

    return _op(a.data[lo:hi].copy(), (a,), backward)


def slice_cols(a: Tensor, lo: int, hi: int) -> Tensor:
    if a.data.ndim != 2 or not 0 <= lo <= hi <= a.shape[1]:
        raise DimensionError(f"slice_cols({lo},{hi}) on shape {a.shape}")

    def backward(g):
        full = np.zeros_like(a.data)
        full[:, lo:hi] = g
        a._accumulate(full)

    return _op(np.ascontiguousarray(a.data[:, lo:hi]), (a,), backward)


def concat_rows(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise DimensionError("concat_rows of nothing")
    widths = {p.shape[1] for p in parts}
    if any(p.data.ndim != 2 for p in parts) or len(widths) != 1:
        raise DimensionError(f"concat_rows shapes {[p.shape for p in parts]}")
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._accumulate(g[lo:hi])

    return _op(np.concatenate([p.data for p in parts], axis=0), tuple(parts), backward)


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


def episode_chain(support: Tensor, query: Tensor, support_y: np.ndarray,
                  label_w: Tensor) -> Tensor:
    """``model.episode_rows`` as the chain of generic ops."""
    label_part = outer_scale_row(np.asarray(support_y).astype(np.float64), label_w, 0)
    return concat_rows([add(support, label_part), query])


def query_logits_chain(h: Tensor, s: int, head_w: Tensor, head_b: Tensor,
                       n_classes: int) -> Tensor:
    """``model.query_logits`` as the chain of generic ops."""
    logits = linear_forward(slice_rows(h, s, h.shape[0]), head_w, head_b)
    if n_classes < head_w.shape[1]:
        logits = slice_cols(logits, 0, n_classes)
    return logits
