"""Feature tokenization: one d-dimensional token per feature.

Numerical features scale a dedicated weight row (frozen during downstream
fine-tuning); categorical features look up a row of a shared token table
(a missing or unseen category gets a constant zero token) and add a
per-column identifier vector. Tokens are summed into the sample
embedding. An orthogonality penalty on the identifiers keeps different
categorical columns distinguishable after the sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .autodiff import NumericError, Tensor, _op, numeric_guard

NUMERICAL = "numerical"
CATEGORICAL = "categorical"

#: index of the reserved token-table row for missing / unseen categories
NAN_ROW = 0

#: a token-table row gets its gradient from a matrix product when at least
#: one batch row in this many reads it, and from a sequential sum over its
#: reads otherwise. The product then does at most this many times the
#: sum's adds, and its one-hot holds at most this many doubles per batch
#: cell; near this share the two take about the same time
#: (``scripts/table_gradient_timing.py``)
PRODUCT_SHARE = 64

#: the sequential sum bins a block of coordinates at a time, so that the
#: bins and their terms hold at most this many entries each (one
#: coordinate at a time when the reads alone are more)
SUM_BLOCK = 1 << 14

#: stand-in denominator for zero-norm identifier rows (removes the
#: normalization singularity; nonzero rows divide by their exact norm)
NORM_EPS = 1e-12


def initial_array(name: str, shape, dim: int,
                  rng: np.random.Generator) -> np.ndarray:
    """The initial value of the model parameter ``name`` (a name of
    ``InContextClassifier.parameter_shapes``): the one rule every parameter
    is drawn by.

    A matrix is N(0, 1/rows), where rows is ``shape[0]`` for an encoder
    layer's (``layers.*``) and the embedding width ``dim`` for every other;
    a vector is 0, and a layer-norm gain (``*_g``) is 1. The token table's
    ``NAN_ROW`` is 0. Only matrices draw from ``rng``.
    """
    if len(shape) == 1:
        return np.ones(shape) if name.endswith("_g") else np.zeros(shape)
    rows = shape[0] if name.startswith("layers.") else dim
    data = rng.normal(0.0, 1.0 / np.sqrt(rows), size=shape)
    if name == "tokenizer.table":
        data[NAN_ROW] = 0.0
    return data


class SchemaError(ValueError):
    """A row or dataset does not conform to the fitted feature schema."""


@dataclass(frozen=True)
class Column:
    name: str
    kind: str
    vocabulary: tuple = ()

    def __post_init__(self):
        if self.kind not in (NUMERICAL, CATEGORICAL):
            raise SchemaError(f"unknown column kind {self.kind!r}")
        if self.kind == NUMERICAL and self.vocabulary:
            raise SchemaError(f"numerical column {self.name!r} has a vocabulary")
        if len(set(self.vocabulary)) != len(self.vocabulary):
            raise SchemaError(f"duplicate vocabulary entries in {self.name!r}")
        if any(v is None for v in self.vocabulary):
            raise SchemaError(f"missing-value sentinel inside vocabulary of {self.name!r}")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered column declarations plus the categorical index layout.

    Column order is fixed for the lifetime of a dataset. Offsets assign each
    categorical column a disjoint range of token-table rows starting at 1;
    row 0 is reserved for missing values.
    """

    columns: tuple[Column, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names")

    @property
    def n(self) -> int:
        return sum(1 for c in self.columns if c.kind == NUMERICAL)

    @property
    def m(self) -> int:
        return sum(1 for c in self.columns if c.kind == CATEGORICAL)

    @property
    def categorical_columns(self) -> tuple[Column, ...]:
        return tuple(c for c in self.columns if c.kind == CATEGORICAL)

    @property
    def vocab_sizes(self) -> tuple[int, ...]:
        return tuple(len(c.vocabulary) for c in self.categorical_columns)

    @property
    def total_categories(self) -> int:
        return sum(self.vocab_sizes)

    @property
    def table_rows(self) -> int:
        return self.total_categories + 1

    @property
    def offsets(self) -> tuple[int, ...]:
        return _first_rows(self.vocab_sizes)


def _first_rows(sizes) -> tuple[int, ...]:
    """First token-table row of each categorical column: consecutive ranges from 1."""
    return tuple(accumulate(sizes, initial=1))[:-1]


def map_category(value, j: int, schema: FeatureSchema) -> int:
    """Index of ``value`` from categorical column ``j`` in the token table.

    Total by design: missing values and values unseen at fit time both map
    to the reserved row 0.
    """
    cols = schema.categorical_columns
    if not 0 <= j < len(cols):
        raise IndexError(f"categorical column {j} out of range ({len(cols)} columns)")
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return NAN_ROW
    try:
        pos = cols[j].vocabulary.index(value)
    except ValueError:
        return NAN_ROW
    return schema.offsets[j] + pos


@dataclass
class CategoricalTokenTable:
    """Shared lookup table: one row per known category plus the NaN row.

    Row ``NAN_ROW`` (0) is stored and starts at zero, but it is not a
    trained entry: ``FeatureTokenizer.embed_rows`` gives missing and unseen
    categories a constant zero token and never sends gradient into it.
    """

    weights: Tensor
    sizes: tuple[int, ...]

    @property
    def offsets(self) -> tuple[int, ...]:
        return _first_rows(self.sizes)


class FeatureTokenizer:
    """Bundles the three token parameter sets and turns rows into embeddings.

    Operates on encoded inputs: numerical values as floats, categorical
    values as token-table row indices. ``identifiers`` is None for the
    no-identifier model variant.
    """

    def __init__(self, w_num: Tensor, table: CategoricalTokenTable,
                 identifiers: Tensor | None):
        self.w_num = w_num
        self.table = table
        self.identifiers = identifiers
        if identifiers is not None and identifiers.data.ndim != 2:
            raise SchemaError("identifiers must be an (m, d) matrix")

    @property
    def dim(self) -> int:
        return self.w_num.shape[1]

    @staticmethod
    def parameter_shapes(n: int | None, table_sizes, dim: int, identifiers: bool):
        """Name and shape of the tokenizer's parameters, lazily, in checkpoint
        order: the first rows of ``InContextClassifier.parameter_shapes``."""
        yield "tokenizer.w_num", (n, dim)
        yield "tokenizer.table", (1 + sum(table_sizes), dim)
        if identifiers:
            yield "tokenizer.identifiers", (len(table_sizes), dim)

    @classmethod
    def create(cls, n: int, vocab_sizes, dim: int,
               rng: np.random.Generator) -> "FeatureTokenizer":
        """Every parameter trainable, identifiers included, drawn by
        ``initial_array`` in the order ``w_num``, table, identifiers."""
        sizes = tuple(int(s) for s in vocab_sizes)
        w_num, table, ids = (
            Tensor(initial_array(name, shape, dim, rng), requires_grad=True)
            for name, shape in cls.parameter_shapes(n, sizes, dim, True))
        return cls(w_num, CategoricalTokenTable(table, sizes), ids)

    def embed_rows(self, num: np.ndarray, cat: np.ndarray) -> Tensor:
        """Sample embeddings for an encoded batch: (rows, d).

        One op over every feature token. Numerical feature i gives
        ``num[:, i] * w_num[i]``; categorical feature j gives its table row
        plus identifier j, where a ``NAN_ROW`` index (missing or unseen)
        gives a zero token in place of the row, so row 0 neither shapes the
        output nor receives gradient. The (features, rows, d) token stack
        is sorted per output coordinate before the sum, so the embedding
        depends only on the multiset of tokens: permuting feature columns
        (together with their parameter rows) leaves it bit-identical. The
        tokens are built and summed under ``numeric_guard("tokenizer")``.
        """
        num = np.asarray(num, dtype=np.float64)
        cat = np.asarray(cat)
        if num.ndim != 2 or cat.ndim != 2 or num.shape[0] != cat.shape[0]:
            raise SchemaError(
                f"encoded batch shapes disagree: num {num.shape}, cat {cat.shape}"
            )
        (rows, n_used), m_used = num.shape, cat.shape[1]
        w_num, table, ids = self.w_num, self.table.weights, self.identifiers
        if n_used > w_num.shape[0]:
            raise SchemaError(
                f"{n_used} numerical features exceed tokenizer capacity "
                f"{w_num.shape[0]}"
            )
        if ids is not None and m_used > ids.shape[0]:
            raise SchemaError(
                f"{m_used} categorical features exceed identifier capacity "
                f"{ids.shape[0]}"
            )
        if not np.isfinite(num).all():
            raise NumericError("non-finite numerical feature after imputation")
        if n_used + m_used == 0:
            raise ValueError("embed_rows needs at least one feature")
        idx = cat.T.astype(np.intp)   # (m_used, rows): one row per column
        if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
            raise IndexError(
                f"category index out of range for table with {table.shape[0]} rows"
            )
        tokens = np.empty((n_used + m_used, rows, self.dim))
        with numeric_guard("tokenizer"):
            np.multiply(num.T[:, :, None], w_num.data[:n_used, None, :],
                        out=tokens[:n_used])
            tokens[n_used:] = table.data[idx]
            tokens[n_used:][idx == NAN_ROW] = 0.0
            if ids is not None:
                tokens[n_used:] += ids.data[:m_used, None, :]
            tokens.sort(axis=0)
            out_data = tokens.sum(axis=0)
        # parents are only the parameters this batch reads, so a table or
        # identifiers unused by a batch keep ``grad is None``
        parents = (w_num,) if n_used else ()
        if m_used:
            parents += (table,) if ids is None else (table, ids)

        def backward(g):
            # one fresh gradient array per parameter and call, accumulated
            # once; w_num and the identifiers add each row's terms in the
            # order a separate node per feature would
            if n_used and w_num.requires_grad:
                full = np.zeros_like(w_num.data)
                for i in range(n_used):   # not num.T @ g: its blocking differs
                    full[i] = np.ascontiguousarray(num[:, i]) @ g
                w_num._accumulate(full)
            if m_used and table.requires_grad:
                table._accumulate(_table_gradient(table.shape[0], idx, g))
            if m_used and ids is not None and ids.requires_grad:
                full = np.zeros_like(ids.data)
                full[:m_used] = g.sum(axis=0)
                ids._accumulate(full)

        return _op(out_data, parents, backward)


def _table_gradient(table_rows: int, idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Token-table gradient of one ``embed_rows`` call: (table_rows, d).

    Row t sums ``g[r]`` over every (column j, batch row r) with
    ``idx[j, r] == t``. A row read by at least one batch row in
    ``PRODUCT_SHARE`` gets its sum from one product ``onehot @ g``, where
    ``onehot[t, r]`` counts those reads; it spends ``rows`` multiply-adds
    per coordinate on the row, so at most ``PRODUCT_SHARE`` times the terms
    it sums. Every other row gets its sum from ``np.bincount``, a block of
    coordinates at a time, which adds each row's terms in batch-row order,
    as the scatter-add this replaced did. The constant ``NAN_ROW`` token and
    untouched rows get exact zeros.

    BLAS associates the product's sums. With OpenBLAS 0.3.31 (SkylakeX
    kernel) that is the batch-row order on batches of up to 256 rows with
    d >= 5, unless exactly one row goes into the product; elsewhere the two
    may differ in the last bits. A non-finite ``g`` is refused, since it
    would reach Adam without a warning.
    """
    if not np.isfinite(g).all():
        raise NumericError("tokenizer.table: non-finite gradient")
    rows, d = g.shape
    reads = np.bincount(idx.ravel(), minlength=table_rows)
    reads[NAN_ROW] = 0
    in_product = reads * PRODUCT_SHARE >= max(rows, 1)
    full = np.zeros((table_rows, d))
    # bincount adds a repeated (row, batch row) cell, which a well-formed
    # batch never has: rows >= 1 each belong to one column
    touched, at, r = _reads_of(in_product, idx)
    onehot = np.bincount(at * rows + r, np.ones(r.size), touched.size * rows)
    full[touched] = onehot.reshape(touched.size, rows) @ g
    touched, at, r = _reads_of((reads > 0) & ~in_product, idx)
    if r.size:
        sums = np.empty((d, touched.size))
        width = max(1, min(d, SUM_BLOCK // r.size))
        for k in range(0, d, width):
            terms = g.T[k:k + width, r]
            w = terms.shape[0]
            bins = (np.arange(w) * touched.size)[:, None] + at
            sums[k:k + w] = np.bincount(bins.ravel(), terms.ravel(),
                                        w * touched.size).reshape(w, -1)
        full[touched] = sums.T
    return full


def _reads_of(rows: np.ndarray, idx: np.ndarray):
    """The table rows marked in ``rows``, and for each read of one of them
    (column by column, each in batch-row order) the row's position among
    them and the batch row that reads it."""
    col, r = np.nonzero(rows[idx])
    return np.flatnonzero(rows), (np.cumsum(rows) - 1)[idx[col, r]], r


# ---------------------------------------------------------------------------
# identifier regularization and analysis exports
# ---------------------------------------------------------------------------

def orthogonal_loss(identifiers: Tensor) -> Tensor:
    """Sum of squared off-diagonal cosine similarities between identifiers.

    Rows are normalized to unit length first, so the loss is invariant to
    positive rescaling of any identifier and bounded by m*(m-1). A single
    identifier gives an empty sum: exactly zero.
    """
    x = identifiers.data
    if x.ndim != 2:
        raise SchemaError("identifiers must be an (m, d) matrix")
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    safe = np.where(norms > 0.0, norms, NORM_EPS)
    u = x / safe
    g = u @ u.T
    off = g - np.diag(np.diag(g))
    out_data = np.asarray((off * off).sum())

    def backward(grad):
        du = 4.0 * off @ u  # d loss / d normalized rows
        coef = (x * du).sum(axis=1, keepdims=True) / safe**3
        dx = du / safe - x * coef
        identifiers._accumulate(grad.item() * dx)

    return _op(out_data, (identifiers,), backward)


def category_gram_matrix(table: CategoricalTokenTable) -> np.ndarray:
    """Pairwise inner products of all token-table rows (NaN row included)."""
    w = table.weights.data
    return w @ w.T


def identifier_gram_matrix(identifiers: Tensor) -> np.ndarray:
    """Cosine-similarity matrix of the identifier rows."""
    x = identifiers.data
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    u = x / np.where(norms > 0.0, norms, NORM_EPS)
    return u @ u.T


def mean_abs_off_diagonal(matrix: np.ndarray) -> float:
    """Mean |entry| off the diagonal; 0.0 for a 1x1 matrix."""
    k = matrix.shape[0]
    if k <= 1:
        return 0.0
    mask = ~np.eye(k, dtype=bool)
    return float(np.abs(matrix[mask]).mean())
