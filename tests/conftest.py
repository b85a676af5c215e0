import numpy as np
import pytest

from tokentab.data import RawDataset
from tokentab.model import ModelConfig
from tokentab.prior import PriorConfig, build_pretraining_model, pretrain


def make_rule_dataset(rows=160, seed=0, noise=0.0, columns=2,
                      missing=0.0) -> RawDataset:
    """Categorical dataset whose columns share one raw vocabulary.

    The label XORs per-column membership tests, so the same string means
    different things in different columns; the membership sets are drawn
    distinct to keep that guaranteed. ``missing`` blanks cells at random.
    """
    rng = np.random.default_rng(seed)
    vocab = np.array(["a", "b", "c", "d", "e", "f"])
    membership = []
    while len(membership) < columns:
        candidate = frozenset(rng.choice(vocab, size=3, replace=False))
        if candidate not in membership:
            membership.append(candidate)
    cells, labels = [], []
    for _ in range(rows):
        values = [str(rng.choice(vocab)) for _ in range(columns)]
        bit = 0
        for v, members in zip(values, membership):
            bit ^= int(v in members)
        if noise > 0.0 and rng.random() < noise:
            bit ^= 1
        row = list(values)
        for k in range(columns):
            if missing > 0.0 and rng.random() < missing:
                row[k] = None
        cells.append(row)
        labels.append(bit)
    names = tuple(f"c{k}" for k in range(columns))
    return RawDataset(names, ("categorical",) * columns, cells,
                      np.array(labels, dtype=np.intp), ("0", "1"))


def make_mixed_dataset(rows=160, seed=0, noise=0.05, missing=0.05) -> RawDataset:
    """Two numerical and two categorical columns with some missing cells.

    The label XORs a numeric-sum sign with a category membership, so both
    feature kinds carry signal, and missing categories exercise the
    constant zero token of the reserved missing-value row.
    """
    rng = np.random.default_rng(seed)
    vocab = np.array(["u", "v", "w", "x"])
    members = {"u", "w"}
    cells, labels = [], []
    for _ in range(rows):
        x0, x1 = rng.normal(), rng.normal()
        c0, c1 = str(rng.choice(vocab)), str(rng.choice(vocab))
        bit = int((x0 + x1 > 0.0) != (c0 in members))
        if noise > 0.0 and rng.random() < noise:
            bit ^= 1
        row = [x0, x1, c0, c1]
        for k in range(4):
            if rng.random() < missing:
                row[k] = None
        cells.append(row)
        labels.append(bit)
    return RawDataset(("x0", "x1", "c0", "c1"),
                      ("numerical", "numerical", "categorical", "categorical"),
                      cells, np.array(labels, dtype=np.intp), ("0", "1"))


def write_dataset_csv(dir_path, raw: RawDataset, name="data"):
    """Write a RawDataset plus its descriptor file; returns the descriptor path."""
    csv_path = dir_path / f"{name}.csv"
    header = ",".join(raw.feature_names + ("label",))
    lines = [header]
    for cells, label in zip(raw.cells, raw.labels):
        text = [("" if c is None else str(c)) for c in cells]
        lines.append(",".join(text + [raw.label_names[label]]))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    categorical = [n for n, k in zip(raw.feature_names, raw.kinds)
                   if k == "categorical"]
    descriptor = dir_path / f"{name}.descriptor"
    descriptor.write_text(
        f"csv = {csv_path.name}\n"
        f"target = label\n"
        f"categorical = {','.join(categorical)}\n",
        encoding="utf-8",
    )
    return descriptor


@pytest.fixture(scope="session")
def tiny_backbone():
    """Small pretrained model shared across tests that need a real backbone."""
    cfg = PriorConfig(max_features=4, max_categories=6, min_samples=32,
                      max_samples=64, seed=11)
    mcfg = ModelConfig(embed_dim=16, layers=2, heads=2, ff_dim=32, max_classes=3)
    model = build_pretraining_model(cfg, mcfg)
    pretrain(model, cfg, episodes=200, lr=2e-3)
    return model


@pytest.fixture()
def rule_dataset():
    return make_rule_dataset(rows=120, seed=3)
