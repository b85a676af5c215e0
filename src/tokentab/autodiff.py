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
            self.grad = np.zeros_like(self.data)
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
# elementwise / structural operations
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


def row(a: Tensor, i: int) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"row() on shape {a.shape}")
    if not 0 <= i < a.shape[0]:
        raise IndexError(f"row {i} out of range for {a.shape[0]} rows")

    def backward(g):
        full = np.zeros_like(a.data)
        full[i] = g
        a._accumulate(full)

    return _op(a.data[i].copy(), (a,), backward)


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Pick rows ``table[indices]``; backward scatter-adds into the table."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise DimensionError("gather_rows expects a 1-D integer index array")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(
            f"gather index out of range for table with {table.shape[0]} rows"
        )

    def backward(g):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, idx, g)
            table._accumulate(full)

    return _op(table.data[idx].copy(), (table,), backward)


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


# ---------------------------------------------------------------------------
# nonlinearities, attention and losses
# ---------------------------------------------------------------------------

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


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the labelled class, stabilized.

    Gradient w.r.t. the logits is (softmax - onehot) / n.
    """
    y = np.asarray(labels)
    if logits.data.ndim != 2:
        raise DimensionError(f"softmax_cross_entropy on shape {logits.shape}")
    n, c = logits.shape
    if y.shape != (n,) or not np.issubdtype(y.dtype, np.integer):
        raise DimensionError("labels must be a 1-D integer array matching rows")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise IndexError(f"label out of range [0,{c})")
    m = logits.data.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits.data - m).sum(axis=1, keepdims=True))
    losses = lse[:, 0] - logits.data[np.arange(n), y]
    out_data = np.asarray(losses.mean())

    def backward(g):
        p = np.exp(logits.data - lse)
        p[np.arange(n), y] -= 1.0
        logits._accumulate(g.item() * p / n)

    return _op(out_data, (logits,), backward)


def softmax_rows(data: np.ndarray) -> np.ndarray:
    """Plain stable softmax on a 2-D array (no gradient)."""
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


def attention(q: Tensor, k: Tensor, v: Tensor, s: int, heads: int) -> Tensor:
    """Multi-head attention over n rows whose first ``s`` are supports.

    Every row attends to all supports and each query also to itself, never
    to another query. Head h uses column block h of the (n, d) projections.
    Scores are a (heads, n, s) block plus one self score per query, never
    an (n, n) matrix. Returns the per-head contexts side by side, (n, d).

    The forward runs in blocks of rows (``_row_blocks``); each row's softmax
    still reads all s supports at once. Without a recorded graph the blocks
    share one (heads, block, s) scratch buffer; with one they fill the full
    weight block the backward reads.
    """
    if q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise DimensionError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}")
    n, d = q.shape
    if heads < 1 or d % heads or not 1 <= s <= n:
        raise DimensionError(f"attention: {heads} heads, {s} supports, shape {q.shape}")
    scale = 1.0 / np.sqrt(d // heads)

    def split(a):   # (n, d) -> (heads, n, d / heads)
        return np.ascontiguousarray(a.reshape(n, heads, -1).transpose(1, 0, 2))

    def merge(a):   # inverse of split
        return a.transpose(1, 0, 2).reshape(n, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    ks, vs = kh[:, :s], vh[:, :s]
    blocks = _row_blocks(n)
    record = _recording and (q.requires_grad or k.requires_grad or v.requires_grad)
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
        own = (qh[:, c:b] * kh[:, c:b]).sum(axis=2) * scale   # self scores
        np.matmul(qh[:, a:b], ks.transpose(0, 2, 1), out=pb)
        pb *= scale
        top = pb.max(axis=2)
        np.maximum(top[:, c - a:], own, out=top[:, c - a:])
        pb -= top[:, :, None]
        np.exp(pb, out=pb)
        np.exp(own - top[:, c - a:], out=pb_own)
        total = pb.sum(axis=2)
        total[:, c - a:] += pb_own
        pb /= total[:, :, None]
        pb_own /= total[:, c - a:]
        np.matmul(pb, vs, out=out[:, a:b])
        out[:, c:b] += pb_own[:, :, None] * vh[:, c:b]

    def backward(g):
        gh = split(g)
        dp = np.matmul(gh, vs.transpose(0, 2, 1))
        dp_own = (gh[:, s:] * vh[:, s:]).sum(axis=2)
        inner = (dp * p).sum(axis=2)
        inner[:, s:] += dp_own * p_own
        dp -= inner[:, :, None]
        dp *= p                               # d loss / d scaled scores
        d_own = p_own * (dp_own - inner[:, s:])
        dq = np.matmul(dp, ks)
        dq[:, s:] += d_own[:, :, None] * kh[:, s:]
        dk = np.concatenate([np.matmul(dp.transpose(0, 2, 1), qh),
                             d_own[:, :, None] * qh[:, s:]], axis=1)
        dv = np.concatenate([np.matmul(p.transpose(0, 2, 1), gh),
                             p_own[:, :, None] * gh[:, s:]], axis=1)
        for t, grad in ((q, dq * scale), (k, dk * scale), (v, dv)):
            t._accumulate(merge(grad))

    return _op(merge(out), (q, k, v), backward)


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
