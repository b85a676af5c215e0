"""Finite-difference verification of reverse-mode gradients.

Central differences: f(x+eps) - f(x-eps) over 2*eps, which halves the
truncation error of the one-sided form and keeps the attainable tolerance
near 1e-6 relative in float64.
"""

from __future__ import annotations

import warnings

import numpy as np

from .autodiff import LAYER_PARAMS, NumericError, Tensor, add, mul, sum_all
from .model import (
    EncoderLayer,
    InContextClassifier,
    ModelConfig,
    SupportQueryBatch,
    encoder_forward,
    episode_rows,
)
from .tokenizer import FeatureTokenizer, orthogonal_loss
from .training import FinetuneConfig, total_loss


def grad_check(f, params, eps: float = 1e-5) -> float:
    """Max relative error between analytic gradients of ``f`` and central differences.

    ``f`` is a zero-argument callable that rebuilds its graph on every call and
    returns a scalar Tensor; ``params`` are the trainable tensors to perturb.
    The relative error at each entry is |analytic - numeric| divided by
    max(1, |analytic|, |numeric|).
    """
    if not 0.0 < eps <= 1e-3:
        raise ValueError(f"eps must be in (0, 1e-3], got {eps}")
    params = list(params)
    if not params:
        warnings.warn("grad_check called with no parameters; passing vacuously")
        return 0.0
    for p in params:
        if not p.requires_grad:
            raise ValueError("grad_check parameters must require gradients")

    def evaluate() -> float:
        out = f()
        if out.data.size != 1:
            raise ValueError("grad_check target must be scalar-valued")
        value = float(out.data.reshape(()))
        if not np.isfinite(value):
            raise NumericError("grad_check target returned a non-finite value")
        return value

    for p in params:
        p.grad = None
    out = f()
    if not np.isfinite(out.data).all():
        raise NumericError("grad_check target returned a non-finite value")
    out.backward()
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
        for p in params
    ]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = evaluate()
            flat[i] = orig - eps
            f_minus = evaluate()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(a_flat[i] - numeric) / max(1.0, abs(a_flat[i]), abs(numeric))
            if err > worst:
                worst = err
    return worst


def component_checks(seed: int = 0, eps: float = 1e-5, embed_dim: int = 8,
                     layers: int = 2, heads: int = 2, ff_dim: int = 16,
                     max_classes: int = 3) -> dict[str, float]:
    """Gradient-check the token layer, encoder, label embedder and full loss.

    Uses deliberately tiny dimensions so exhaustive central differences
    finish in seconds. Returns the max relative error per component.
    """
    rng = np.random.default_rng(seed)
    results: dict[str, float] = {}

    # token layer: squared embeddings plus the identifier penalty
    tok = FeatureTokenizer.create(n=2, vocab_sizes=(2, 3), dim=embed_dim, rng=rng)
    num = rng.standard_normal((5, 2))
    cat = np.column_stack([rng.integers(0, 3, size=5),      # rows {0,1,2}
                           3 + rng.integers(0, 3, size=5)])  # rows {3,4,5}
    cat[0] = 0  # exercise the reserved missing-value row

    def ft_target():
        e = tok.embed_rows(num, cat)
        return add(sum_all(mul(e, e)), orthogonal_loss(tok.identifiers))

    results["token_layer"] = grad_check(
        ft_target, [tok.w_num, tok.table.weights, tok.identifiers], eps=eps)

    # encoder stack over 2 supports and 2 queries
    stack = [EncoderLayer.create(embed_dim, heads, ff_dim, rng) for _ in range(layers)]
    x = Tensor(rng.standard_normal((4, embed_dim)), requires_grad=True)

    def encoder_target():
        h = encoder_forward(x, 2, stack)
        return sum_all(mul(h, h))

    enc_params = [x] + [getattr(layer, n) for layer in stack for n in LAYER_PARAMS]
    results["encoder"] = grad_check(encoder_target, enc_params, eps=eps)

    # label embedder: squared encoder input of 3 labelled supports, 2 queries
    label_w = Tensor(rng.standard_normal((1, embed_dim)), requires_grad=True)
    support = Tensor(rng.standard_normal((3, embed_dim)), requires_grad=True)
    query = Tensor(rng.standard_normal((2, embed_dim)), requires_grad=True)
    y_values = np.array([0, 1, 2])

    def label_target():
        e = episode_rows(support, query, y_values, label_w)
        return sum_all(mul(e, e))

    results["label_embedder"] = grad_check(label_target, [label_w, support, query],
                                           eps=eps)

    # full episode loss with the orthogonality term active
    config = ModelConfig(embed_dim=embed_dim, layers=layers, heads=heads,
                         ff_dim=ff_dim, max_classes=max_classes)
    model = InContextClassifier.create(config, 2, (2, 3), rng)
    batch = SupportQueryBatch(
        support_num=rng.standard_normal((3, 2)),
        support_cat=np.column_stack([rng.integers(0, 3, size=3),
                                     3 + rng.integers(0, 3, size=3)]),
        support_y=np.array([0, 1, 2]),
        query_num=rng.standard_normal((2, 2)),
        query_cat=np.column_stack([rng.integers(0, 3, size=2),
                                   3 + rng.integers(0, 3, size=2)]),
        query_y=np.array([1, 0]),
        n_classes=3,
    )
    cfg = FinetuneConfig(lambda_orth=1.0, variant="full")

    def loss_target():
        return total_loss(batch, model, cfg)

    loss_params = [t for _, t in model.named_tensors() if t.requires_grad]
    results["total_loss"] = grad_check(loss_target, loss_params, eps=eps)
    return results
