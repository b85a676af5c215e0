"""In-context transformer backbone over support and query embeddings.

One episode is a single forward pass: labelled support rows and unlabelled
query rows are embedded, concatenated, and run through a pre-norm encoder
stack whose attention lets supports attend to each other while each query
sees only the supports and itself. A linear head on the query positions
yields class logits; no parameter changes at prediction time, and
prediction records no backward graph.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import (
    LAYER_PARAMS,
    DimensionError,
    NumericError,
    Tensor,
    _op,
    encoder_layer,
    no_grad,
    numeric_guard,
    softmax_rows,
)
from .tokenizer import FeatureTokenizer, initial_array


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 64
    layers: int = 3
    heads: int = 4
    ff_dim: int = 128
    max_classes: int = 4

    def __post_init__(self):
        for name, value in asdict(self).items():
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if min(self.embed_dim, self.heads, self.ff_dim) < 1:
            raise ValueError("embed_dim, heads and ff_dim must be >= 1")
        if self.embed_dim % self.heads != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}"
            )
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.max_classes < 2:
            raise ValueError("max_classes must be >= 2")


@dataclass
class SupportQueryBatch:
    """One episode: encoded support rows with labels, encoded query rows."""

    support_num: np.ndarray
    support_cat: np.ndarray
    support_y: np.ndarray
    query_num: np.ndarray
    query_cat: np.ndarray
    n_classes: int
    query_y: np.ndarray | None = None

    def __post_init__(self):
        self.support_y = np.asarray(self.support_y)
        if self.support_num.shape[0] < 1 or self.query_num.shape[0] < 1:
            raise DimensionError("an episode needs at least one support and one query row")
        if self.support_y.shape[0] != self.support_num.shape[0]:
            raise DimensionError("support labels do not match support rows")
        if self.support_y.size and self.support_y.max() >= self.n_classes:
            raise IndexError("support label out of range")

    @property
    def s(self) -> int:
        return self.support_num.shape[0]

    @property
    def q(self) -> int:
        return self.query_num.shape[0]


def split_episode(rows, rng: np.random.Generator,
                  support_fraction: float) -> SupportQueryBatch:
    """Random support/query split of ``rows`` (anything with ``num``, ``cat``,
    ``labels``, ``n_classes`` and a length): ``round(support_fraction * n)``
    supports, clipped so that both sides keep at least one row.
    """
    n = len(rows)
    s = int(np.clip(round(support_fraction * n), 1, n - 1))
    perm = rng.permutation(n)
    sup, qry = perm[:s], perm[s:]
    return SupportQueryBatch(
        support_num=rows.num[sup], support_cat=rows.cat[sup],
        support_y=rows.labels[sup], query_num=rows.num[qry],
        query_cat=rows.cat[qry], query_y=rows.labels[qry],
        n_classes=rows.n_classes,
    )


class EncoderLayer:
    """Pre-norm transformer encoder layer: support/query attention then feed-forward."""

    def __init__(self, tensors: dict[str, Tensor], heads: int):
        """``tensors`` maps every name of ``parameter_shapes`` to its tensor."""
        dim = tensors["wq"].shape[0]
        if dim % heads != 0:
            raise DimensionError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        vars(self).update(tensors)

    @classmethod
    def create(cls, dim: int, heads: int, ff_dim: int,
               rng: np.random.Generator) -> "EncoderLayer":
        """Every parameter trainable, drawn by ``initial_array`` as a
        ``layers.*`` parameter, in parameter order."""
        return cls({name: Tensor(initial_array(f"layers.{name}", shape, dim, rng),
                                 requires_grad=True)
                    for name, shape in cls.parameter_shapes(dim, ff_dim).items()},
                   heads)

    @staticmethod
    def parameter_shapes(dim: int, ff_dim: int) -> dict[str, tuple[int, ...]]:
        """Shape of every parameter by name, in checkpoint order
        (``LAYER_PARAMS``): (dim, dim) matrices and width-dim vectors, except
        the feed-forward's ``w1``, ``b1`` and ``w2``."""
        ff = {"w1": (dim, ff_dim), "b1": (ff_dim,), "w2": (ff_dim, dim)}
        return {name: ff.get(name, (dim, dim) if name[0] == "w" else (dim,))
                for name in LAYER_PARAMS}

    def forward(self, x: Tensor, s: int) -> Tensor:
        """One layer over rows whose first ``s`` are supports, the rest queries."""
        return encoder_layer(x, s, vars(self), self.heads)   # vars: the 16 tensors


def episode_rows(support: Tensor, query: Tensor, support_y: np.ndarray,
                 label_w: Tensor) -> Tensor:
    """The encoder input: support rows plus ``support_y[r] * label_w[0]``,
    then the query rows under them, (s + q, d).

    One graph node, with the arithmetic of the chain it replaced (the label
    token, its add, the row concatenation), so the forward and every
    gradient are bit-identical to that chain. The parents are ordered
    (support, query, label_w): the reversed tape then runs the query
    tokenizer's backward before the support's, as the chain's did, which
    fixes the order of each tokenizer parameter's gradient sum.
    """
    y = np.asarray(support_y, dtype=np.float64)
    s = support.shape[0]
    out = np.concatenate([support.data + y[:, None] * label_w.data[0], query.data])

    def backward(g):
        support._accumulate(g[:s])
        query._accumulate(g[s:])
        if label_w.requires_grad:
            label_w._accumulate((y @ g[:s])[None, :])

    return _op(out, (support, query, label_w), backward)


def query_logits(h: Tensor, s: int, head_w: Tensor, head_b: Tensor,
                 n_classes: int) -> Tensor:
    """Class logits of the query rows ``h[s:]``: their first ``n_classes``
    columns of ``h[s:] @ head_w + head_b``.

    One graph node with the arithmetic of the chain it replaced (row slice,
    product, bias, column slice): its backward pads the gradient to every
    head column, as that chain did, so the result is bit-identical to it.
    Forward and backward run under ``numeric_guard("head")``.
    """
    queries = h.data[s:].copy()
    with numeric_guard("head"):
        full = queries @ head_w.data
        full += head_b.data

    def backward(g):
        padded = np.zeros_like(full)
        padded[:, :n_classes] = g
        with numeric_guard("head"):
            if head_b.requires_grad:
                head_b._accumulate(padded.sum(axis=0))
            if head_w.requires_grad:
                head_w._accumulate(queries.T @ padded)
            if h.requires_grad:
                dh = np.zeros_like(h.data)
                dh[s:] = padded @ head_w.data.T
                h._accumulate(dh)

    return _op(np.ascontiguousarray(full[:, :n_classes]), (h, head_w, head_b),
               backward)


def encoder_forward(x: Tensor, s: int, layers) -> Tensor:
    """Run the stack over ``s`` supports then queries; empty is the identity."""
    for i, layer in enumerate(layers):
        try:
            x = layer.forward(x, s)
        except NumericError as exc:
            raise NumericError(f"encoder layer {i} {exc}") from None
    return x


class InContextClassifier:
    """Feature tokenizer, label embedder, encoder stack and class head."""

    def __init__(self, config: ModelConfig, table_sizes,
                 tensors: dict[str, Tensor]):
        """``tensors`` maps every name of ``parameter_shapes`` to its tensor,
        in that order; the parts of the model hold these same tensors."""
        if tensors["label_embed"].shape != (1, config.embed_dim):
            raise DimensionError("label embedder must be a (1, d) matrix")
        self.config = config
        self.table_sizes = tuple(table_sizes)
        self.tensors = tensors
        self.tokenizer = FeatureTokenizer(tensors["tokenizer.w_num"],
                                          tensors["tokenizer.table"],
                                          tensors.get("tokenizer.identifiers"))
        self.label_weights = tensors["label_embed"]
        self.layers = [EncoderLayer({n: tensors[f"layers.{i}.{n}"]
                                     for n in LAYER_PARAMS}, config.heads)
                       for i in range(config.layers)]
        self.head_w = tensors["head.w"]
        self.head_b = tensors["head.b"]

    @classmethod
    def create(cls, config: ModelConfig, n_numerical: int, table_sizes,
               rng: np.random.Generator) -> "InContextClassifier":
        """Every parameter trainable, identifiers included, drawn by
        ``initial_array`` in ``parameter_shapes`` order."""
        arrays = {name: initial_array(name, shape, config.embed_dim, rng)
                  for name, shape in cls.parameter_shapes(
                      config, n_numerical, table_sizes, True)}
        return cls.from_arrays(config, table_sizes, arrays,
                               dict.fromkeys(arrays, True))

    @staticmethod
    def parameter_shapes(config: ModelConfig, n_numerical: int | None,
                         table_sizes, identifiers: bool):
        """Name and shape of every parameter, lazily, in ``named_tensors`` order.

        ``n_numerical`` None leaves the row count of ``tokenizer.w_num`` open.
        """
        d = config.embed_dim
        yield from FeatureTokenizer.parameter_shapes(n_numerical, table_sizes, d,
                                                     identifiers)
        yield "label_embed", (1, d)
        for i in range(config.layers):
            for name, shape in EncoderLayer.parameter_shapes(d, config.ff_dim).items():
                yield f"layers.{i}.{name}", shape
        yield "head.w", (d, config.max_classes)
        yield "head.b", (config.max_classes,)

    @classmethod
    def from_arrays(cls, config: ModelConfig, table_sizes,
                    arrays: dict[str, np.ndarray],
                    trainable: dict[str, bool]) -> "InContextClassifier":
        """The model holding a copy of ``arrays[name]`` for every parameter name.

        The model has identifiers when ``arrays`` holds them; each tensor's
        ``requires_grad`` is ``trainable[name]``. Shapes are not checked here.
        """
        names = cls.parameter_shapes(config, None, table_sizes,
                                     "tokenizer.identifiers" in arrays)
        # np.array copies: Tensor() would wrap a float64 array without copying
        return cls(config, table_sizes,
                   {name: Tensor(np.array(arrays[name], dtype=np.float64),
                                 requires_grad=trainable[name])
                    for name, _ in names})

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return list(self.tensors.items())

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_tensors()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        for name, t in self.named_tensors():
            if t.data.shape != state[name].shape:
                raise DimensionError(f"state shape mismatch for {name}")
            t.data[...] = state[name]

    def predict_logits(self, batch: SupportQueryBatch) -> Tensor:
        """Class logits for every query row, computed in one forward pass."""
        if batch.n_classes > self.config.max_classes:
            raise IndexError(
                f"episode has {batch.n_classes} classes, head supports "
                f"{self.config.max_classes}"
            )
        # no local names for the embeddings: without a graph they are freed
        # as soon as episode_rows has stacked them
        x = episode_rows(self.tokenizer.embed_rows(batch.support_num, batch.support_cat),
                         self.tokenizer.embed_rows(batch.query_num, batch.query_cat),
                         batch.support_y, self.label_weights)
        h = encoder_forward(x, batch.s, self.layers)
        return query_logits(h, batch.s, self.head_w, self.head_b, batch.n_classes)

    def predict_proba(self, batch: SupportQueryBatch) -> Tensor:
        """Row-wise softmax over the query logits, computed without a graph."""
        with no_grad():
            logits = self.predict_logits(batch)
        return Tensor(softmax_rows(logits.data))
