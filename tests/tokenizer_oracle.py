"""Per-column feature tokenization: the reference for the fused op.

This is the chain ``FeatureTokenizer.embed_rows`` built before it became
one op: one ``outer_scale_row`` per numerical column, one ``gather_rows``
(plus ``add`` of a ``row`` of the identifiers) per categorical column, and
``aggregate_tokens`` over the list. It records about three graph nodes per
categorical column, and every ``gather_rows`` backward allocates a
table-sized array, which is why it lives here as an oracle only.
"""

from __future__ import annotations

import numpy as np

from tokentab.autodiff import (
    NumericError,
    Tensor,
    add,
    aggregate_tokens,
    gather_rows,
    outer_scale_row,
    row,
)
from tokentab.tokenizer import FeatureTokenizer, SchemaError


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
