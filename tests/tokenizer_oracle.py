"""Per-column and single-row feature tokenization: references for the fused op.

``embed_rows_chain`` is the chain ``FeatureTokenizer.embed_rows`` built
before it became one op: one ``outer_scale_row`` per numerical column, one
``gather_rows`` (plus ``add`` of a ``row`` of the identifiers) per
categorical column, and ``aggregate_tokens`` over the list. It records
about three graph nodes per categorical column, and every ``gather_rows``
backward allocates a table-sized array, which is why it lives here as an
oracle only.

``tokenize_numerical``, ``tokenize_categorical``, ``embed_query`` and
``embed_support`` build one token or one row embedding at a time from raw
values. ``row`` and ``gather_rows`` are the generic ops both paths use.

``table_gradient_scatter`` is the token-table gradient ``embed_rows``
computed before it became a product plus a sequential sum: ``np.add.at``
over the indices, column by column and each in batch-row order.

Both paths read the missing-value row 0 of the token table like any other
row and send gradient into it. ``embed_rows`` treats that row as a constant
zero token instead; the two agree on outputs while row 0 holds zeros, which
is how every table is created.
"""

from __future__ import annotations

import numpy as np

from tokentab.autodiff import (
    DimensionError,
    NumericError,
    Tensor,
    _op,
    add,
    aggregate_tokens,
    mul_scalar,
    outer_scale_row,
)
from tokentab.tokenizer import (
    NAN_ROW,
    FeatureSchema,
    FeatureTokenizer,
    SchemaError,
    map_category,
)


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


def table_gradient_scatter(table_rows: int, idx: np.ndarray,
                           g: np.ndarray) -> np.ndarray:
    """``embed_rows``' table gradient by scatter-add over ``idx`` (m, rows)."""
    full = np.zeros((table_rows, g.shape[1]))
    np.add.at(full, idx, g)
    full[NAN_ROW] = 0.0
    return full


#: numpy's BLAS, as ``np.show_config`` names it, on which the table
#: gradient's product was found to sum in batch-row order (OpenBLAS picks
#: its kernel per CPU; this was SkylakeX)
RECORDED_BLAS = ("scipy-openblas", "0.3.31")


def on_recorded_blas() -> bool:
    """Whether numpy runs on ``RECORDED_BLAS``; bit-exact checks of the
    table gradient's product only hold there."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy before 1.25 has no mode
        return False
    name, version = RECORDED_BLAS
    return (blas.get("name") == name
            and str(blas.get("version", "")).startswith(version + "."))


def feature_tokens(tok: FeatureTokenizer, num: np.ndarray,
                   cat: np.ndarray) -> list[Tensor]:
    """One (rows, d) token matrix per feature column of an encoded batch."""
    num = np.asarray(num, dtype=np.float64)
    cat = np.asarray(cat)
    if num.ndim != 2 or cat.ndim != 2 or num.shape[0] != cat.shape[0]:
        raise SchemaError(
            f"encoded batch shapes disagree: num {num.shape}, cat {cat.shape}"
        )
    n_used, m_used = num.shape[1], cat.shape[1]
    if n_used > tok.w_num.shape[0]:
        raise SchemaError(
            f"{n_used} numerical features exceed tokenizer capacity "
            f"{tok.w_num.shape[0]}"
        )
    if tok.identifiers is not None and m_used > tok.identifiers.shape[0]:
        raise SchemaError(
            f"{m_used} categorical features exceed identifier capacity "
            f"{tok.identifiers.shape[0]}"
        )
    if not np.isfinite(num).all():
        raise NumericError("non-finite numerical feature after imputation")
    tokens = []
    for i in range(n_used):
        tokens.append(outer_scale_row(num[:, i], tok.w_num, i))
    for j in range(m_used):
        t = gather_rows(tok.table.weights, cat[:, j].astype(np.intp))
        if tok.identifiers is not None:
            t = add(t, row(tok.identifiers, j))
        tokens.append(t)
    return tokens


def embed_rows_chain(tok: FeatureTokenizer, num: np.ndarray,
                     cat: np.ndarray) -> Tensor:
    """Sample embeddings through the per-column chain: (rows, d)."""
    return aggregate_tokens(feature_tokens(tok, num, cat))


def tokenize_numerical(value: float, i: int, tokenizer: FeatureTokenizer) -> Tensor:
    """Token for numerical feature i: value times the feature's weight row."""
    if not 0 <= i < tokenizer.w_num.shape[0]:
        raise IndexError(f"numerical feature {i} out of range")
    value = float(value)
    if not np.isfinite(value):
        raise NumericError(f"non-finite numerical feature value {value!r}")
    return mul_scalar(row(tokenizer.w_num, i), value)


def tokenize_categorical(value, j: int, tokenizer: FeatureTokenizer,
                         schema: FeatureSchema) -> Tensor:
    """Token for categorical feature j: table row for the value plus identifier."""
    idx = map_category(value, j, schema)
    tok = row(tokenizer.table.weights, idx)
    if tokenizer.identifiers is not None:
        tok = add(tok, row(tokenizer.identifiers, j))
    return tok


def embed_query(num_row: np.ndarray, cat_row, tokenizer: FeatureTokenizer,
                schema: FeatureSchema) -> Tensor:
    """Embedding of one row: the aggregated tokens of all its features.

    ``cat_row`` holds raw categorical values (missing as None); numerical
    values must already be encoded.
    """
    num_row = np.asarray(num_row, dtype=np.float64).reshape(-1)
    cat_row = list(cat_row)
    if len(num_row) != schema.n or len(cat_row) != schema.m:
        raise SchemaError(
            f"row has {len(num_row)} numerical / {len(cat_row)} categorical "
            f"features, schema expects {schema.n} / {schema.m}"
        )
    tokens = [tokenize_numerical(v, i, tokenizer) for i, v in enumerate(num_row)]
    tokens += [tokenize_categorical(v, j, tokenizer, schema)
               for j, v in enumerate(cat_row)]
    return aggregate_tokens(tokens)


def embed_support(num_row: np.ndarray, cat_row, y: int,
                  tokenizer: FeatureTokenizer, schema: FeatureSchema,
                  label_weights: Tensor, n_classes: int) -> Tensor:
    """Support-row embedding: query embedding plus y times the label row."""
    if not 0 <= int(y) < n_classes:
        raise IndexError(f"label {y} out of range [0,{n_classes})")
    base = embed_query(num_row, cat_row, tokenizer, schema)
    return add(base, mul_scalar(row(label_weights, 0), float(y)))
