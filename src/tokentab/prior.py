"""Synthetic task prior and the pretraining loop.

Random classification tasks from three cheap families (linear score,
random MLP, categorical decision rule) stand in for a large curated
pretraining corpus: varied enough to induce in-context behaviour at desk
scale, deterministic from (config, seed).

Categorical values use a fixed slot layout in the pretraining token table:
column j owns rows [1 + j*max_categories, 1 + (j+1)*max_categories), so
every task shares one table whose parameters persist across episodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import NumericError, no_grad, softmax_cross_entropy
from .model import (InContextClassifier, ModelConfig, SupportQueryBatch,
                    split_episode)
from .optim import Adam

_TASK_TAG = 7791      # seed-stream tags keep task, split and init draws apart
_SPLIT_TAG = 3317
_INIT_TAG = 5521

FAMILIES = ("linear", "mlp", "rule")


@dataclass(frozen=True)
class PriorConfig:
    max_features: int = 5
    max_categories: int = 6
    min_classes: int = 2
    max_classes: int = 3
    min_samples: int = 48
    max_samples: int = 96
    noise: float = 0.05
    weight_linear: float = 0.4
    weight_mlp: float = 0.3
    weight_rule: float = 0.3
    min_class_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.max_features < 1 or self.max_categories < 2:
            raise ValueError("need max_features >= 1 and max_categories >= 2")
        if not 2 <= self.min_classes <= self.max_classes:
            raise ValueError("invalid class count range")
        if not 2 <= self.min_samples <= self.max_samples:
            raise ValueError("invalid samples-per-task range")
        if not 0.0 <= self.noise < 0.5:
            raise ValueError("noise must be in [0, 0.5)")
        weights = (self.weight_linear, self.weight_mlp, self.weight_rule)
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("family weights must be non-negative and sum to 1")

    @property
    def family_weights(self) -> tuple[float, float, float]:
        return (self.weight_linear, self.weight_mlp, self.weight_rule)

    @property
    def table_sizes(self) -> tuple[int, ...]:
        return (self.max_categories,) * self.max_features


@dataclass
class SyntheticTask:
    """One generated classification task plus its generator provenance.

    ``truth`` records the sampled ground-truth function (family-specific),
    which makes by-construction label rules directly checkable.
    """

    num: np.ndarray
    cat: np.ndarray
    labels: np.ndarray
    n_classes: int
    family: str
    seed: int
    vocab_sizes: tuple[int, ...]
    truth: dict

    def __len__(self) -> int:
        return self.labels.shape[0]


def _quantile_labels(score: np.ndarray, n_classes: int) -> np.ndarray:
    order = np.argsort(score, kind="mergesort")
    labels = np.empty(score.size, dtype=np.intp)
    bins = np.array_split(order, n_classes)
    for c, idx in enumerate(bins):
        labels[idx] = c
    return labels


def _draw_linear(rng: np.random.Generator, cfg: PriorConfig, rows: int,
                 n_classes: int):
    n = int(rng.integers(1, cfg.max_features + 1))
    x = rng.standard_normal((rows, n))
    w = rng.standard_normal(n)
    score = x @ w
    if n_classes == 2:
        labels = (score > 0).astype(np.intp)  # noise-free binary is the sign rule
    else:
        labels = _quantile_labels(score, n_classes)
    truth = {"weights": w.tolist()}
    return x, np.zeros((rows, 0), dtype=np.intp), (), labels, truth


def _draw_mlp(rng: np.random.Generator, cfg: PriorConfig, rows: int,
              n_classes: int):
    n = int(rng.integers(1, cfg.max_features + 1))
    hidden = 8
    x = rng.standard_normal((rows, n))
    w1 = rng.standard_normal((n, hidden))
    b1 = rng.standard_normal(hidden)
    w2 = rng.standard_normal(hidden)
    score = np.tanh(x @ w1 + b1) @ w2
    labels = _quantile_labels(score, n_classes)
    truth = {"hidden": hidden}
    return x, np.zeros((rows, 0), dtype=np.intp), (), labels, truth


def _draw_rule(rng: np.random.Generator, cfg: PriorConfig, rows: int,
               n_classes: int):
    m = int(rng.integers(1, cfg.max_features + 1))
    n = int(rng.integers(0, min(2, cfg.max_features - m) + 1))
    sizes = tuple(int(rng.integers(2, cfg.max_categories + 1)) for _ in range(m))
    values = np.column_stack([rng.integers(0, v, size=rows) for v in sizes])
    if m == 1:
        rule = rng.integers(0, n_classes, size=sizes[0])
        while len(np.unique(rule)) < 2:
            rule = rng.integers(0, n_classes, size=sizes[0])
        labels = rule[values[:, 0]]
    else:
        rule = rng.integers(0, n_classes, size=(sizes[0], sizes[1]))
        while len(np.unique(rule)) < 2:
            rule = rng.integers(0, n_classes, size=(sizes[0], sizes[1]))
        labels = rule[values[:, 0], values[:, 1]]
    # slot layout: column j owns max_categories rows starting at 1 + j*max_categories
    cat = np.zeros((rows, m), dtype=np.intp)
    for j in range(m):
        cat[:, j] = 1 + j * cfg.max_categories + values[:, j]
    x = rng.standard_normal((rows, n)) if n else np.zeros((rows, 0))
    truth = {"rule": rule.tolist()}
    return x, cat, sizes, labels.astype(np.intp), truth


_DRAWERS = {"linear": _draw_linear, "mlp": _draw_mlp, "rule": _draw_rule}


def sample_task(cfg: PriorConfig, seed: int, max_retries: int = 50) -> SyntheticTask:
    """Draw one task; degenerate draws resample with an incremented sub-seed."""
    for attempt in range(max_retries):
        rng = np.random.default_rng([cfg.seed, _TASK_TAG, seed, attempt])
        family = FAMILIES[rng.choice(len(FAMILIES), p=cfg.family_weights)]
        rows = int(rng.integers(cfg.min_samples, cfg.max_samples + 1))
        n_classes = int(rng.integers(cfg.min_classes, cfg.max_classes + 1))
        num, cat, sizes, labels, truth = _DRAWERS[family](rng, cfg, rows, n_classes)
        if cfg.noise > 0.0:
            flip = rng.random(rows) < cfg.noise
            shift = rng.integers(1, n_classes, size=rows)
            labels = np.where(flip, (labels + shift) % n_classes, labels)
        present, counts = np.unique(labels, return_counts=True)
        if len(present) < 2:
            continue  # single-class draw, retry
        if counts.min() < cfg.min_class_fraction * rows:
            continue  # declared balance bound: minority share stays above it
        # compress to consecutive class indices so labels < n_classes holds
        remap = {c: k for k, c in enumerate(present.tolist())}
        labels = np.array([remap[c] for c in labels], dtype=np.intp)
        return SyntheticTask(num, cat, labels, len(present), family, seed,
                             sizes, truth)
    raise RuntimeError(f"no valid task after {max_retries} retries (seed {seed})")


def episode_from_task(task: SyntheticTask, rng: np.random.Generator,
                      support_fraction: float | None = None) -> SupportQueryBatch:
    """Split a task's rows into one support/query episode."""
    frac = support_fraction if support_fraction is not None else rng.uniform(0.3, 0.7)
    return split_episode(task, rng, frac)


def _seeded_episode(cfg: PriorConfig, seed: int,
                    support_fraction: float | None = None,
                    ) -> tuple[SyntheticTask, SupportQueryBatch]:
    """Task ``seed`` and its episode, split by that seed's own stream."""
    task = sample_task(cfg, seed=seed)
    rng = np.random.default_rng([cfg.seed, _SPLIT_TAG, seed])
    return task, episode_from_task(task, rng, support_fraction)


def build_pretraining_model(cfg: PriorConfig, model_cfg: ModelConfig,
                            ) -> InContextClassifier:
    """Model sized for the prior's capacity; all token parameters trainable."""
    if cfg.max_classes > model_cfg.max_classes:
        raise ValueError("prior max_classes exceeds the model head width")
    rng = np.random.default_rng([cfg.seed, _INIT_TAG])
    return InContextClassifier.create(model_cfg, cfg.max_features,
                                      cfg.table_sizes, rng)


def _episode_loss(model: InContextClassifier, batch: SupportQueryBatch):
    logits = model.predict_logits(batch)
    return softmax_cross_entropy(logits, batch.query_y)


def holdout_episodes(cfg: PriorConfig, count: int) -> list[SupportQueryBatch]:
    """Fixed episodes (disjoint seed range) for loss tracking across a run."""
    return [_seeded_episode(cfg, 2**20 + i)[1] for i in range(count)]


def mean_holdout_loss(model: InContextClassifier,
                      episodes: list[SupportQueryBatch]) -> float:
    with no_grad():
        losses = [_episode_loss(model, b).item() for b in episodes]
    return float(np.mean(losses)) if losses else float("nan")


def pretrain(model: InContextClassifier, cfg: PriorConfig, episodes: int,
             lr: float = 1e-3, holdout: int = 0, log_every: int = 50) -> dict:
    """Train on ``episodes`` fresh tasks, one optimizer step per episode.

    Returns a log dict with per-episode records and, when ``holdout`` > 0,
    the mean held-out loss before and after training.
    """
    if episodes >= 2**20:
        raise ValueError("episode budget exceeds the reserved seed range")
    opt = Adam([t for _, t in model.named_tensors()], lr=lr)
    held = holdout_episodes(cfg, holdout) if holdout else []
    log = {"episodes": [], "holdout_start": None, "holdout_end": None}
    if held:
        log["holdout_start"] = mean_holdout_loss(model, held)
    for e in range(episodes):
        task, batch = _seeded_episode(cfg, e)
        opt.zero_grad()
        loss = _episode_loss(model, batch)
        value = loss.item()
        if not np.isfinite(value):
            raise NumericError(
                f"non-finite loss at episode {e} (task seed {task.seed})"
            )
        loss.backward()
        opt.step()
        if e % log_every == 0 or e == episodes - 1:
            log["episodes"].append({
                "episode": e,
                "loss": value,
                "family": task.family,
                "n_classes": task.n_classes,
            })
    if held:
        log["holdout_end"] = mean_holdout_loss(model, held)
    return log


def majority_baseline_accuracy(batch: SupportQueryBatch) -> float:
    """Accuracy of always predicting the most frequent support class."""
    counts = np.bincount(batch.support_y, minlength=batch.n_classes)
    prediction = int(counts.argmax())  # ties break to the lowest class
    return float((batch.query_y == prediction).mean())


def evaluate_fresh_tasks(model: InContextClassifier, cfg: PriorConfig,
                         n_tasks: int, seed_offset: int = 0) -> dict:
    """Mean in-context query accuracy on fresh tasks vs the majority baseline."""
    from .metrics import accuracy

    model_acc, base_acc = [], []
    for i in range(n_tasks):
        _, batch = _seeded_episode(cfg, seed_offset + i, support_fraction=0.5)
        probs = model.predict_proba(batch).data
        model_acc.append(accuracy(probs, batch.query_y))
        base_acc.append(majority_baseline_accuracy(batch))
    return {
        "model_accuracy": float(np.mean(model_acc)),
        "baseline_accuracy": float(np.mean(base_acc)),
        "per_task_model": model_acc,
        "per_task_baseline": base_acc,
    }
