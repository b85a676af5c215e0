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
values.

Both paths read the missing-value row 0 of the token table like any other
row and send gradient into it. ``embed_rows`` treats that row as a constant
zero token instead; the two agree on outputs while row 0 holds zeros, which
is how every table is created.
"""

from __future__ import annotations

import numpy as np

from tokentab.autodiff import (
    NumericError,
    Tensor,
    add,
    aggregate_tokens,
    gather_rows,
    mul_scalar,
    outer_scale_row,
    row,
)
from tokentab.tokenizer import (
    FeatureSchema,
    FeatureTokenizer,
    SchemaError,
    map_category,
)


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
