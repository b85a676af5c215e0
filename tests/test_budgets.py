"""Deterministic performance budgets: tape nodes per step and traced memory.

Wall time on a shared machine is too noisy to gate on, so each budget is a
quantity a change of design moves and noise does not: the number of graph
nodes one training step traverses, or the peak of ``tracemalloc``.
"""

import tracemalloc

import numpy as np

from test_model import random_batch, small_model
from tokentab.data import RawDataset, encode, fit_schema
from tokentab.model import ModelConfig
from tokentab.prior import (
    PriorConfig,
    _episode_loss,
    _seeded_episode,
    build_pretraining_model,
)
from tokentab.training import (
    FinetuneConfig,
    build_finetune_model,
    sample_episode,
    total_loss,
)


def test_pretrain_step_traverses_at_most_70_nodes():
    """One seeded pretraining episode of a 3-layer model.

    Each encoder layer is one node over its input and 16 parameters.
    """
    cfg = PriorConfig(seed=0)
    model = build_pretraining_model(
        cfg, ModelConfig(embed_dim=16, layers=3, heads=4, ff_dim=32, max_classes=4))
    _, batch = _seeded_episode(cfg, 0)
    tape = _episode_loss(model, batch).backward()
    assert len(tape.nodes) <= 70


def test_wide_finetune_step_traverses_at_most_75_nodes():
    """One fine-tune step on 2 numerical + 30 categorical columns."""
    rng = np.random.default_rng(5)
    vocab = [f"v{k}" for k in range(8)]
    cells = [[float(x) for x in rng.normal(size=2)]
             + rng.choice(vocab, size=30).tolist() for _ in range(120)]
    raw = RawDataset(("x0", "x1") + tuple(f"c{j}" for j in range(30)),
                     ("numerical",) * 2 + ("categorical",) * 30, cells,
                     rng.integers(0, 2, size=120).astype(np.intp), ("0", "1"))
    schema, stats = fit_schema(raw)
    backbone = build_pretraining_model(
        PriorConfig(max_features=4, seed=1),
        ModelConfig(embed_dim=16, layers=3, heads=4, ff_dim=32, max_classes=4))
    cfg = FinetuneConfig(variant="full")
    model = build_finetune_model(backbone, schema, 2, cfg)
    batch = sample_episode(encode(raw, schema, stats),
                           np.random.default_rng(0), cfg.support_fraction)
    tape = total_loss(batch, model, cfg).backward()
    assert len(tape.nodes) <= 75


def test_predict_proba_peak_memory_at_1000_plus_1000_rows_under_18_mib():
    """The benchmark's inference size on the 64-dim, 3-layer model."""
    model = small_model(dim=64, layers=3, heads=4)
    batch = random_batch(seed=18, s=1000, q=1000)
    tracemalloc.start()
    try:
        model.predict_proba(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2**20
