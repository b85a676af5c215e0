"""Deterministic performance budgets: tape nodes per step and traced memory.

Wall time on a shared machine is too noisy to gate on, so each budget is a
quantity a change of design moves and noise does not: the number of graph
nodes one training step traverses, the peak of ``tracemalloc``, or whether
a step calls a slow primitive at all.
"""

import tracemalloc

import numpy as np

from chain_ops import sum_all
from test_model import random_batch, small_model
from tokentab.data import RawDataset, encode, fit_schema
from tokentab.model import ModelConfig
from tokentab.optim import Adam
from tokentab.prior import (
    PriorConfig,
    _episode_loss,
    _seeded_episode,
    build_pretraining_model,
)
from tokentab.tokenizer import NAN_ROW, FeatureTokenizer, first_rows
from tokentab.training import (
    FinetuneConfig,
    build_finetune_model,
    sample_episode,
    total_loss,
)


def pretrain_step_tape():
    """The tape of one seeded pretraining episode of a 3-layer model."""
    cfg = PriorConfig(seed=0)
    model = build_pretraining_model(
        cfg, ModelConfig(embed_dim=16, layers=3, heads=4, ff_dim=32, max_classes=4))
    _, batch = _seeded_episode(cfg, 0)
    return _episode_loss(model, batch).backward()


def ops(tape):
    """The tape's non-leaf nodes."""
    return [t for t in tape.nodes if t._parents]


def test_pretrain_step_traverses_at_most_70_nodes():
    """Each encoder layer is one node over its input and 16 parameters."""
    assert len(pretrain_step_tape().nodes) <= 70


def test_pretrain_step_records_layers_plus_5_ops():
    """Two tokenizer calls, the episode rows, one node per layer, the head
    and the loss."""
    assert len(ops(pretrain_step_tape())) == 3 + 5


def wide_finetune_step():
    """A fine-tune model, config and seeded episode on 2 numerical + 30
    categorical columns of 8 values."""
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
    return model, cfg, batch


def test_wide_finetune_step_traverses_at_most_75_nodes():
    """One fine-tune step on 2 numerical + 30 categorical columns."""
    model, cfg, batch = wide_finetune_step()
    tape = total_loss(batch, model, cfg).backward()
    assert len(tape.nodes) <= 75


def test_wide_finetune_step_records_at_most_11_ops():
    """The pretraining step's 8 ops plus the orthogonality term, its weight
    and the sum."""
    model, cfg, batch = wide_finetune_step()
    assert len(ops(total_loss(batch, model, cfg).backward())) <= 11


def test_wide_finetune_step_records_at_most_9_ops():
    """The pretraining step's L + 5 ops plus the orthogonality term: its
    weight and sum are part of the loss node."""
    model, cfg, batch = wide_finetune_step()
    assert len(ops(total_loss(batch, model, cfg).backward())) <= 3 + 6


class _AddWithoutScatter:
    """``np.add`` whose ``at`` (an unbuffered scatter) raises."""

    def __init__(self, add):
        self._add = add

    def __call__(self, *args, **kwargs):
        return self._add(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._add, name)

    def at(self, *args, **kwargs):
        raise AssertionError("np.add.at on the training path")


def test_wide_finetune_step_runs_no_scatter_add(monkeypatch):
    """The token-table gradient is a product and a sequential sum, not
    ``np.add.at``."""
    model, cfg, batch = wide_finetune_step()
    monkeypatch.setattr(np, "add", _AddWithoutScatter(np.add))
    opt = Adam([t for _, t in model.named_tensors()], lr=cfg.lr)
    total_loss(batch, model, cfg).backward()
    opt.step()
    assert model.tokenizer.table.grad[1:].any()


def table_backward_peak(columns, values, rows, seed):
    """``tracemalloc`` peak of one table backward at d 64, with 30% of the
    cells missing, and the tokenizer it ran on."""
    rng = np.random.default_rng(seed)
    tok = FeatureTokenizer.create(0, (values,) * columns, 64, rng)
    cat = np.column_stack([
        np.where(rng.random(rows) < 0.3, NAN_ROW,
                 offset + rng.integers(0, values, size=rows))
        for offset in first_rows((values,) * columns)])
    e = tok.embed_rows(np.zeros((rows, 0)), cat)
    loss = sum_all(e)
    tracemalloc.start()
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tok.table.grad is not None
    return peak, tok


def test_table_backward_peak_memory_at_50_columns_of_1000_values_under_64_mib():
    """One table gradient over 240 rows at d 64: the gradient and its
    accumulated copy are 24 MiB each, where a one-hot over every table row
    alone is 92 MiB."""
    peak, _ = table_backward_peak(50, 1000, 240, seed=50)
    assert peak < 64 * 2**20


def test_table_backward_peak_memory_at_2000_rows_is_two_gradients():
    """2000 rows of 30 columns of 1000 values, about 750 touched rows per
    column: the gradient and its accumulated copy (15 MiB each) plus at
    most 4 MiB, as with the scatter-add. A one-hot over the touched rows
    would be about 400 MiB."""
    peak, tok = table_backward_peak(30, 1000, 2000, seed=30)
    assert peak < 2 * tok.table.data.nbytes + 4 * 2**20


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
