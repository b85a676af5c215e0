"""In-context transformer backbone over support and query embeddings.

One episode is a single forward pass: labelled support rows and unlabelled
query rows are embedded, concatenated, and run through a pre-norm encoder
stack whose attention lets supports attend to each other while each query
sees only the supports and itself. A linear head on the query positions
yields class logits; no parameter changes at prediction time, and
prediction records no backward graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    DimensionError,
    NumericError,
    Tensor,
    add,
    concat_rows,
    encoder_layer,
    linear_forward,
    no_grad,
    outer_scale_row,
    slice_cols,
    slice_rows,
    softmax_rows,
)
from .tokenizer import CategoricalTokenTable, FeatureTokenizer


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 64
    layers: int = 3
    heads: int = 4
    ff_dim: int = 128
    max_classes: int = 4

    def __post_init__(self):
        for name, value in self.to_dict().items():
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

    def to_dict(self) -> dict:
        return {
            "embed_dim": self.embed_dim,
            "layers": self.layers,
            "heads": self.heads,
            "ff_dim": self.ff_dim,
            "max_classes": self.max_classes,
        }


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
        """Matrices drawn from N(0, 1/rows) in parameter order; biases 0, gains 1."""
        tensors = {}
        for name, shape in cls.parameter_shapes(dim, ff_dim).items():
            if len(shape) == 2:
                data = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
            else:
                data = np.ones(shape) if name.endswith("_g") else np.zeros(shape)
            tensors[name] = Tensor(data, requires_grad=True)
        return cls(tensors, heads)

    @staticmethod
    def parameter_shapes(dim: int, ff_dim: int) -> dict[str, tuple[int, ...]]:
        """Shape of every parameter by name, in checkpoint order."""
        return {
            "wq": (dim, dim), "bq": (dim,), "wk": (dim, dim), "bk": (dim,),
            "wv": (dim, dim), "bv": (dim,), "wo": (dim, dim), "bo": (dim,),
            "w1": (dim, ff_dim), "b1": (ff_dim,), "w2": (ff_dim, dim), "b2": (dim,),
            "ln1_g": (dim,), "ln1_b": (dim,), "ln2_g": (dim,), "ln2_b": (dim,),
        }

    def named_tensors(self, prefix: str):
        return [(f"{prefix}.{n}", getattr(self, n))
                for n in self.parameter_shapes(*self.w1.shape)]

    def forward(self, x: Tensor, s: int) -> Tensor:
        """One layer over rows whose first ``s`` are supports, the rest queries."""
        return encoder_layer(x, s, vars(self), self.heads)   # vars: the 16 tensors


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

    def __init__(self, config: ModelConfig, tokenizer: FeatureTokenizer,
                 label_weights: Tensor, layers: list[EncoderLayer],
                 head_w: Tensor, head_b: Tensor):
        if label_weights.shape != (1, config.embed_dim):
            raise DimensionError("label embedder must be a (1, d) matrix")
        self.config = config
        self.tokenizer = tokenizer
        self.label_weights = label_weights
        self.layers = layers
        self.head_w = head_w
        self.head_b = head_b

    @classmethod
    def create(cls, config: ModelConfig, tokenizer: FeatureTokenizer,
               rng: np.random.Generator) -> "InContextClassifier":
        d = config.embed_dim
        std = 1.0 / np.sqrt(d)
        label_weights = Tensor(rng.normal(0.0, std, size=(1, d)), requires_grad=True)
        layers = [EncoderLayer.create(d, config.heads, config.ff_dim, rng)
                  for _ in range(config.layers)]
        head_w = Tensor(rng.normal(0.0, std, size=(d, config.max_classes)),
                        requires_grad=True)
        head_b = Tensor(np.zeros(config.max_classes), requires_grad=True)
        return cls(config, tokenizer, label_weights, layers, head_w, head_b)

    @staticmethod
    def parameter_shapes(config: ModelConfig, n_numerical: int | None,
                         table_sizes, identifiers: bool):
        """Name and shape of every parameter, lazily, in ``named_tensors`` order.

        ``n_numerical`` None leaves the row count of ``tokenizer.w_num`` open.
        """
        d = config.embed_dim
        yield "tokenizer.w_num", (n_numerical, d)
        yield "tokenizer.table", (1 + sum(table_sizes), d)
        if identifiers:
            yield "tokenizer.identifiers", (len(table_sizes), d)
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
        t = {name: Tensor(np.array(arrays[name], dtype=np.float64),
                          requires_grad=trainable[name]) for name, _ in names}
        tokenizer = FeatureTokenizer(
            t["tokenizer.w_num"],
            CategoricalTokenTable(t["tokenizer.table"], tuple(table_sizes)),
            t.get("tokenizer.identifiers"))
        layer_names = EncoderLayer.parameter_shapes(config.embed_dim, config.ff_dim)
        layers = [EncoderLayer({n: t[f"layers.{i}.{n}"] for n in layer_names},
                               config.heads) for i in range(config.layers)]
        return cls(config, tokenizer, t["label_embed"], layers,
                   t["head.w"], t["head.b"])

    def named_tensors(self):
        out = list(self.tokenizer.named_tensors())
        out.append(("label_embed", self.label_weights))
        for i, layer in enumerate(self.layers):
            out.extend(layer.named_tensors(f"layers.{i}"))
        out.extend([("head.w", self.head_w), ("head.b", self.head_b)])
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_tensors()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        for name, t in self.named_tensors():
            if t.data.shape != state[name].shape:
                raise DimensionError(f"state shape mismatch for {name}")
            t.data[...] = state[name]

    def forward_embeddings(self, batch: SupportQueryBatch) -> Tensor:
        support = self.tokenizer.embed_rows(batch.support_num, batch.support_cat)
        label_part = outer_scale_row(batch.support_y.astype(np.float64),
                                     self.label_weights, 0)
        support = add(support, label_part)
        query = self.tokenizer.embed_rows(batch.query_num, batch.query_cat)
        return concat_rows([support, query])

    def predict_logits(self, batch: SupportQueryBatch) -> Tensor:
        """Class logits for every query row, computed in one forward pass."""
        if batch.n_classes > self.config.max_classes:
            raise IndexError(
                f"episode has {batch.n_classes} classes, head supports "
                f"{self.config.max_classes}"
            )
        x = self.forward_embeddings(batch)
        h = encoder_forward(x, batch.s, self.layers)
        queries = slice_rows(h, batch.s, batch.s + batch.q)
        logits = linear_forward(queries, self.head_w, self.head_b)
        if batch.n_classes < self.config.max_classes:
            logits = slice_cols(logits, 0, batch.n_classes)
        return logits

    def predict_proba(self, batch: SupportQueryBatch) -> Tensor:
        """Row-wise softmax over the query logits, computed without a graph."""
        with no_grad():
            logits = self.predict_logits(batch)
        return Tensor(softmax_rows(logits.data))
