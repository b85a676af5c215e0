"""Dense float64 tensors with reverse-mode automatic differentiation.

Deliberately small: only the operations the in-context tabular model needs,
all in 64-bit arithmetic so finite-difference checks can run at tight
tolerances. No broadcasting beyond bias rows, no views, no GPU.

Freezing is gradient suppression: a tensor with ``requires_grad=False``
participates in the forward graph like any other but never accumulates
gradient, so its bytes cannot change through training. Inside ``no_grad()``
nothing is recorded, so a forward pass keeps no intermediate arrays alive.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not line up for the requested operation."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values."""


@contextmanager
def numeric_guard(block: str):
    """Raise numpy overflow and invalid operations in the body as a
    ``NumericError`` whose message starts with ``block``. Changes no
    arithmetic."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericError(f"{block}: {exc}") from None


def _as_f64(data) -> np.ndarray:
    return np.ascontiguousarray(data, dtype=np.float64)


class Tensor:
    """A dense float64 array plus an optional same-shape gradient.

    Tensors produced by operations remember their parents and a backward
    closure; ``backward()`` on a scalar output replays the closures in
    reverse topological order and accumulates gradients into every
    reachable tensor that requires them.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_f64(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros(self.data.shape)   # zeros_like's wrapper is slower
        self.grad += g

    def backward(self) -> "ComputationTape":
        """Run reverse-mode accumulation from this scalar output.

        Returns the tape that was traversed (mostly useful for tests).
        """
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar output")
        tape = ComputationTape.trace(self)
        self.grad = np.ones_like(self.data)  # d out / d out = 1
        for node in reversed(tape.nodes):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        return tape

    def __repr__(self) -> str:
        flags = "frozen" if not self.requires_grad else "trainable"
        return f"Tensor(shape={self.shape}, {flags})"


class ComputationTape:
    """Topologically ordered record of the graph below one output.

    ``nodes`` lists every reachable tensor with parents before children,
    so iterating in reverse visits each operation only after all of its
    consumers have contributed gradient.
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "ComputationTape":
        nodes: list[Tensor] = []
        seen = {id(root)}
        stack = [(root, iter(root._parents))]
        while stack:
            node, parents = stack[-1]
            advanced = False
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    advanced = True
                    break
            if not advanced:
                nodes.append(node)
                stack.pop()
        return cls(nodes)


_recording = True


@contextmanager
def no_grad():
    """Operations in this block record no graph and require no gradient."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _op(out_data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(out_data, requires_grad=_recording
                 and any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# elementwise operations
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# losses and attention
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the labelled class, stabilized.

    Gradient w.r.t. the logits is (softmax - onehot) / n. Forward and
    backward run under ``numeric_guard("loss")``.
    """
    y = np.asarray(labels)
    if logits.data.ndim != 2:
        raise DimensionError(f"softmax_cross_entropy on shape {logits.shape}")
    n, c = logits.shape
    if y.shape != (n,) or not np.issubdtype(y.dtype, np.integer):
        raise DimensionError("labels must be a 1-D integer array matching rows")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise IndexError(f"label out of range [0,{c})")
    with numeric_guard("loss"):
        m = logits.data.max(axis=1, keepdims=True)
        lse = m + np.log(np.exp(logits.data - m).sum(axis=1, keepdims=True))
        losses = lse[:, 0] - logits.data[np.arange(n), y]
        out_data = np.asarray(losses.mean())

    def backward(g):
        with numeric_guard("loss"):
            p = np.exp(logits.data - lse)
            p[np.arange(n), y] -= 1.0
            logits._accumulate(g.item() * p / n)

    return _op(out_data, (logits,), backward)


def softmax_rows(data: np.ndarray) -> np.ndarray:
    """Plain stable softmax on a 2-D array (no gradient), under
    ``numeric_guard("softmax")``: logits more than the float range apart
    are a ``NumericError``."""
    with numeric_guard("softmax"):
        shifted = data - data.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)


# Rows per attention block. Inference holds a (heads, block, S) score block,
# never (heads, n, S); an episode of up to one block is computed in one piece.
_BLOCK_ROWS = 256


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """Split n rows into ceil(n / block) nearly equal consecutive blocks.

    With two or more blocks each has at least half the block's rows, so
    no block is small enough for BLAS to switch to a different kernel.
    """
    count = -(-n // _BLOCK_ROWS)
    return [(i * n // count, (i + 1) * n // count) for i in range(count)]


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(n, d) -> contiguous (heads, n, d / heads): head h is column block h."""
    return np.ascontiguousarray(a.reshape(a.shape[0], heads, -1).transpose(1, 0, 2))


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """Inverse of ``_split_heads``."""
    heads, n, width = a.shape
    return a.transpose(1, 0, 2).reshape(n, heads * width)


def _attention_forward(qh, kh, vh, s: int, record: bool):
    """Support/query attention on split heads; returns (context, saved).

    The rows run in blocks (``_row_blocks``); each row's softmax still reads
    all s supports at once. ``saved`` is what ``_attention_backward`` reads,
    or None unless ``record``. Without it the blocks share one
    (heads, block, s) scratch buffer; with it they fill the full weight
    block the backward reads.
    """
    heads, n, width = qh.shape
    if not 1 <= s <= n:
        raise DimensionError(f"attention: {s} supports for {n} rows")
    scale = 1.0 / np.sqrt(width)
    ks, vs = kh[:, :s], vh[:, :s]
    blocks = _row_blocks(n)
    if record:
        p = np.empty((heads, n, s))
    else:
        scratch = np.empty(heads * max(b - a for a, b in blocks) * s)
    p_own = np.empty((heads, n - s))
    out = np.empty_like(qh)
    for a, b in blocks:
        pb = (p[:, a:b] if record
              else scratch[:heads * (b - a) * s].reshape(heads, b - a, s))
        c = min(max(a, s), b)   # rows c..b of this block are queries
        pb_own = p_own[:, c - s:b - s]   # empty when c == b
        own = np.add.reduce(qh[:, c:b] * kh[:, c:b], axis=2)   # self scores
        own *= scale
        np.matmul(qh[:, a:b], ks.transpose(0, 2, 1), out=pb)
        pb *= scale
        top = np.maximum.reduce(pb, axis=2)
        np.maximum(top[:, c - a:], own, out=top[:, c - a:])
        pb -= top[:, :, None]
        np.exp(pb, out=pb)
        np.exp(own - top[:, c - a:], out=pb_own)
        total = np.add.reduce(pb, axis=2)
        total[:, c - a:] += pb_own
        pb /= total[:, :, None]
        pb_own /= total[:, c - a:]
        np.matmul(pb, vs, out=out[:, a:b])
        out[:, c:b] += pb_own[:, :, None] * vh[:, c:b]
    saved = (qh, kh, vh, p, p_own, s, scale) if record else None
    return _merge_heads(out), saved


def _attention_backward(g: np.ndarray, saved):
    """Gradients (dq, dk, dv), each (n, d), of the context gradient ``g``."""
    qh, kh, vh, p, p_own, s, scale = saved
    ks, vs = kh[:, :s], vh[:, :s]
    gh = _split_heads(g, qh.shape[0])
    dp = np.matmul(gh, vs.transpose(0, 2, 1))
    dp_own = np.add.reduce(gh[:, s:] * vh[:, s:], axis=2)
    inner = np.add.reduce(dp * p, axis=2)
    inner[:, s:] += dp_own * p_own
    dp -= inner[:, :, None]
    dp *= p                               # d loss / d scaled scores
    d_own = p_own * (dp_own - inner[:, s:])
    dq = np.matmul(dp, ks)
    dq[:, s:] += d_own[:, :, None] * kh[:, s:]
    dk = np.empty_like(qh)                # support rows, then each query's own
    np.matmul(dp.transpose(0, 2, 1), qh, out=dk[:, :s])
    np.multiply(d_own[:, :, None], qh[:, s:], out=dk[:, s:])
    dv = np.empty_like(vh)
    np.matmul(p.transpose(0, 2, 1), gh, out=dv[:, :s])
    np.multiply(p_own[:, :, None], gh[:, s:], out=dv[:, s:])
    dq *= scale
    dk *= scale
    return _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)


# ---------------------------------------------------------------------------
# the encoder layer
# ---------------------------------------------------------------------------

#: parameter names of one encoder layer, in checkpoint order
LAYER_PARAMS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                "w1", "b1", "w2", "b2", "ln1_g", "ln1_b", "ln2_g", "ln2_b")

_GELU_C = np.sqrt(2.0 / np.pi)
_LN_EPS = 1e-5


def _affine(a: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    y = a @ w.data
    y += b.data
    return y


def _row_mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=1, keepdims=True)``: the same sum and division, without
    the method's Python wrapper."""
    m = np.add.reduce(a, axis=1, keepdims=True)
    m /= a.shape[1]
    return m


def _layer_norm(x: np.ndarray, gain: Tensor, bias: Tensor):
    """Row-wise layer norm; returns (output, normalized rows, 1 / row std)."""
    mu = _row_mean(x)
    xhat = x - mu
    var = _row_mean(xhat ** 2)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data
    return out, xhat, inv


def _layer_norm_backward(g, xhat, inv, gain: Tensor, bias: Tensor):
    """Accumulate the gain and bias gradients; return d input."""
    if gain.requires_grad:
        gain._accumulate(np.add.reduce(g * xhat, axis=0))
    if bias.requires_grad:
        bias._accumulate(np.add.reduce(g, axis=0))
    dxhat = g * gain.data
    term = dxhat - _row_mean(dxhat)
    dxhat *= xhat
    term -= xhat * _row_mean(dxhat)
    term *= inv
    return term


def _gelu_backward(g, u, t):
    """Gradient through the tanh-form gelu at ``u``; ``t`` is the forward's tanh.

    The exact derivative of that same form, which keeps finite-difference
    checks honest.
    """
    du = u * u
    du *= 3 * 0.044715
    du += 1.0
    du *= _GELU_C
    curve = 0.5 * u
    curve *= 1.0 - t ** 2
    curve *= du
    out = 1.0 + t
    out *= 0.5
    out += curve
    out *= g
    return out


def _check_finite(a: np.ndarray) -> None:
    """Raise as numpy's raised errors do, so ``numeric_guard`` names the block."""
    if not np.isfinite(a).all():
        raise FloatingPointError("non-finite values")


def encoder_layer(x: Tensor, s: int, params, heads: int) -> Tensor:
    """One pre-norm encoder layer over rows whose first ``s`` are supports.

    ``params`` maps every name of ``LAYER_PARAMS`` to its tensor. The layer
    is LN -> q, k, v products -> support/query attention -> output product
    plus residual, then LN -> W1 -> gelu (tanh form) -> W2 plus residual,
    recorded as one graph node. Its arithmetic is that of the same chain of
    generic ops, expression for expression and in the same order, so the
    forward and every gradient are bit-identical to it.

    The forward runs with numpy overflow and invalid operations raised; one
    of those, or a non-finite block output, is a ``NumericError`` naming the
    block ("attention" or "feed-forward"). A recorded layer keeps what the
    backward reads to pass a gradient to ``x``; the inputs of a weight
    product are kept only when that weight trains.
    """
    p = [params[name] for name in LAYER_PARAMS]
    wq, bq, wk, bk, wv, bv, wo, bo, w1, b1, w2, b2, g1, c1, g2, c2 = p
    if x.data.ndim != 2 or x.shape[1] != wq.shape[0] or x.shape[1] % heads:
        raise DimensionError(f"encoder layer: input {x.shape}, {heads} heads, "
                             f"width {wq.shape[0]}")
    record = _recording and (x.requires_grad or any(t.requires_grad for t in p))
    saved = {}
    with numeric_guard("attention"):
        h, xhat, inv = _layer_norm(x.data, g1, c1)
        if record:
            saved["ln1"] = (xhat, inv)
        if record and (wq.requires_grad or wk.requires_grad or wv.requires_grad):
            saved["h"] = h
        del xhat, inv
        qh, kh, vh = (_split_heads(_affine(h, w, b), heads)
                      for w, b in ((wq, bq), (wk, bk), (wv, bv)))
        del h
        ctx, saved["attention"] = _attention_forward(qh, kh, vh, s, record)
        del qh, kh, vh
        x1 = ctx @ wo.data
        x1 += bo.data
        x1 += x.data
        if record and wo.requires_grad:
            saved["ctx"] = ctx
        del ctx
        _check_finite(x1)
    with numeric_guard("feed-forward"):
        f, xhat, inv = _layer_norm(x1, g2, c2)
        if record:
            saved["ln2"] = (xhat, inv)
        del xhat, inv
        u = _affine(f, w1, b1)
        if record and w1.requires_grad:
            saved["f"] = f
        del f
        t = u * u
        t *= u
        t *= 0.044715
        t += u
        t *= _GELU_C
        np.tanh(t, out=t)
        a = 0.5 * u
        a *= 1.0 + t
        if record:
            saved["gelu"] = (u, t)
        del u, t
        out = _affine(a, w2, b2)
        out += x1
        if record and w2.requires_grad:
            saved["a"] = a
        del a, x1
        _check_finite(out)

    def backward(g):
        if b2.requires_grad:
            b2._accumulate(np.add.reduce(g, axis=0))
        if w2.requires_grad:
            w2._accumulate(saved["a"].T @ g)
        du = _gelu_backward(g @ w2.data.T, *saved["gelu"])
        if b1.requires_grad:
            b1._accumulate(np.add.reduce(du, axis=0))
        if w1.requires_grad:
            w1._accumulate(saved["f"].T @ du)
        dx1 = _layer_norm_backward(du @ w1.data.T, *saved["ln2"], g2, c2)
        dx1 += g                              # the feed-forward residual
        x._accumulate(dx1)                    # the attention residual
        if bo.requires_grad:
            bo._accumulate(np.add.reduce(dx1, axis=0))
        if wo.requires_grad:
            wo._accumulate(saved["ctx"].T @ dx1)
        dq, dk, dv = _attention_backward(dx1 @ wo.data.T, saved["attention"])
        for w, b, d in ((wv, bv, dv), (wk, bk, dk), (wq, bq, dq)):
            if b.requires_grad:
                b._accumulate(np.add.reduce(d, axis=0))
            if w.requires_grad:
                w._accumulate(saved["h"].T @ d)
        dh = dv @ wv.data.T                   # the order the chain's tape took
        dh += dk @ wk.data.T
        dh += dq @ wq.data.T
        x._accumulate(_layer_norm_backward(dh, *saved["ln1"], g1, c1))

    return _op(out, (x, *p), backward)


# ---------------------------------------------------------------------------
# order-canonical token aggregation
# ---------------------------------------------------------------------------

def aggregate_tokens(tokens) -> Tensor:
    """Sum a non-empty list of same-shape tokens into one embedding.

    The addends are sorted per output coordinate before summation, so the
    result depends only on the multiset of tokens: permuting feature
    columns (together with their parameter rows) leaves the embedding
    bit-identical.
    """
    tokens = list(tokens)
    if not tokens:
        raise ValueError("aggregate_tokens needs at least one token")
    shape = tokens[0].shape
    if any(t.shape != shape for t in tokens):
        raise DimensionError(
            f"aggregate_tokens shapes differ: {[t.shape for t in tokens]}"
        )
    stacked = np.stack([t.data for t in tokens], axis=0)
    stacked.sort(axis=0)
    out_data = stacked.sum(axis=0)

    def backward(g):
        for t in tokens:
            if t.requires_grad:
                t._accumulate(g)

    return _op(out_data, tuple(tokens), backward)
