"""Downstream fine-tuning and the 5-repetition evaluation protocol.

Each optimization step resamples a support/query partition of the training
rows; the loss is query cross-entropy plus the weighted identifier
orthogonality penalty. Checkpoint selection reads training metrics only,
so the test set cannot influence which model is reported.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .autodiff import NumericError, no_grad, softmax_cross_entropy, softmax_rows
from .data import (
    EncodedDataset,
    NormalizationStats,
    ParseError,
    RawDataset,
    encode,
    fit_schema,
    split_train_test,
)
from .metrics import UndefinedMetricError, accuracy, roc_auc_ovo
from .model import InContextClassifier, SupportQueryBatch, split_episode
from .optim import Adam
from .tokenizer import FeatureSchema, SchemaError, initial_array, orthogonal_loss

VARIANTS = ("full", "no_identifiers", "no_regularization")
TRAINABLE_SETS = ("ft_layer_only", "full_model")

_STEP_TAG = 911      # finetune seed streams: optimization steps vs metric episode
_EVAL_TAG = 417
_INIT_TAG = 233


@dataclass(frozen=True)
class FinetuneConfig:
    epochs: int = 30
    lr: float = 1e-3
    lambda_orth: float = 1.0
    variant: str = "full"
    trainable: str = "ft_layer_only"
    support_fraction: float = 0.7
    steps_per_epoch: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0.0 < self.lr < math.inf:   # NaN fails every comparison
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")
        if self.lambda_orth < 0:
            raise ValueError("lambda_orth must be >= 0")
        if not self.lambda_orth < math.inf:
            raise ValueError(f"lambda_orth must be finite, got {self.lambda_orth!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.trainable not in TRAINABLE_SETS:
            raise ValueError(f"trainable must be one of {TRAINABLE_SETS}")
        if not 0.0 < self.support_fraction < 1.0:
            raise ValueError("support_fraction must be in (0, 1)")
        if self.steps_per_epoch < 1:
            raise ValueError("steps_per_epoch must be >= 1")

    @property
    def effective_lambda(self) -> float:
        """The orthogonality weight actually applied under this variant."""
        return self.lambda_orth if self.variant == "full" else 0.0


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    train_auc: float
    test_accuracy: float | None = None
    test_auc: float | None = None


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    def to_records(self) -> list[dict]:
        return [asdict(r) for r in self.records]


@dataclass
class RepetitionResult:
    seed: int
    auc: float
    accuracy: float


@dataclass
class RepetitionReport:
    results: list[RepetitionResult]

    @property
    def mean_auc(self) -> float:
        return sum(r.auc for r in self.results) / len(self.results)

    @property
    def mean_accuracy(self) -> float:
        return sum(r.accuracy for r in self.results) / len(self.results)

    def to_records(self) -> list[dict]:
        rows = [{"seed": r.seed, "auc": r.auc, "accuracy": r.accuracy}
                for r in self.results]
        rows.append({"aggregate": "mean", "auc": self.mean_auc,
                     "accuracy": self.mean_accuracy})
        return rows

    def summary_table(self) -> str:
        lines = [f"{'seed':>6}  {'auc_ovo':>10}  {'accuracy':>10}"]
        for r in self.results:
            lines.append(f"{r.seed:>6}  {r.auc:>10.4f}  {r.accuracy:>10.4f}")
        lines.append(f"{'mean':>6}  {self.mean_auc:>10.4f}  "
                     f"{self.mean_accuracy:>10.4f}")
        return "\n".join(lines)


def rank_table(reports: dict[str, RepetitionReport]) -> str:
    """Per-seed and mean one-vs-one AUC of each variant, in the given order,
    with its rank by mean AUC (ties keep that order). Which variant wins is
    an empirical question, so the ranks are reported, never asserted."""
    order = sorted(reports, key=lambda v: -reports[v].mean_auc)
    rank = {v: i + 1 for i, v in enumerate(order)}
    first = next(iter(reports.values()))
    seed_cols = "  ".join(f"seed{r.seed:>2}" for r in first.results)
    lines = [f"{'variant':<20} {seed_cols}  {'mean_auc':>9} {'mean_acc':>9} "
             f"{'rank':>5}"]
    for v, report in reports.items():
        per_seed = "  ".join(f"{r.auc:6.4f}" for r in report.results)
        lines.append(f"{v:<20} {per_seed}  {report.mean_auc:9.4f} "
                     f"{report.mean_accuracy:9.4f} {rank[v]:>5}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# episode construction over encoded datasets
# ---------------------------------------------------------------------------

def sample_episode(ds: EncodedDataset, rng: np.random.Generator,
                   support_fraction: float) -> SupportQueryBatch:
    if len(ds) < 2:
        raise SchemaError("need at least two rows to build an episode")
    return split_episode(ds, rng, support_fraction)


def full_support_episode(train: EncodedDataset,
                         test: EncodedDataset) -> SupportQueryBatch:
    """Inference episode: every training row as support, test rows as queries."""
    return SupportQueryBatch(
        support_num=train.num, support_cat=train.cat, support_y=train.labels,
        query_num=test.num, query_cat=test.cat, query_y=test.labels,
        n_classes=train.n_classes,
    )


# ---------------------------------------------------------------------------
# model construction from a pretrained backbone
# ---------------------------------------------------------------------------

def build_finetune_model(pretrained: InContextClassifier, schema: FeatureSchema,
                         n_classes: int, cfg: FinetuneConfig) -> InContextClassifier:
    """Fresh token table and identifiers for this dataset; numerical weight
    rows carried over from pretraining and frozen; backbone copied with
    trainable flags set by ``cfg.trainable``.
    """
    config = pretrained.config
    capacity = pretrained.tokenizer.w_num.shape[0]
    if schema.n > capacity:
        raise SchemaError(
            f"dataset has {schema.n} numerical features, pretrained capacity is {capacity}"
        )
    if n_classes > config.max_classes:
        raise SchemaError(
            f"dataset has {n_classes} classes, model head supports {config.max_classes}"
        )
    rng = np.random.default_rng([cfg.seed, _INIT_TAG])
    d = config.embed_dim
    arrays = {name: t.data for name, t in pretrained.named_tensors()
              if name != "tokenizer.identifiers"}
    arrays["tokenizer.w_num"] = arrays["tokenizer.w_num"][:schema.n]
    arrays["tokenizer.table"] = initial_array("tokenizer.table",
                                              (schema.table_rows, d), d, rng)
    if cfg.variant != "no_identifiers":
        # fresh identifiers must start small relative to token scale: a
        # token-sized random bias on every token of a column shifts the
        # embedding distribution the frozen backbone was trained on and
        # destabilizes fine-tuning
        arrays["tokenizer.identifiers"] = rng.normal(0.0, 0.1 / np.sqrt(d),
                                                     size=(schema.m, d))
    full = cfg.trainable == "full_model"
    trainable = {name: full or name in ("head.w", "head.b") for name in arrays}
    trainable.update({"tokenizer.w_num": False,   # frozen for the whole fine-tune
                      "tokenizer.table": True, "tokenizer.identifiers": True})
    return InContextClassifier.from_arrays(config, schema.vocab_sizes, arrays,
                                           trainable)


# ---------------------------------------------------------------------------
# losses and the fine-tuning loop
# ---------------------------------------------------------------------------

def total_loss(batch: SupportQueryBatch, model: InContextClassifier,
               cfg: FinetuneConfig):
    """Query cross-entropy plus the weighted identifier orthogonality penalty."""
    return _loss_from_logits(model.predict_logits(batch), batch, model, cfg)


def _loss_from_logits(logits, batch: SupportQueryBatch,
                      model: InContextClassifier, cfg: FinetuneConfig):
    lam = cfg.effective_lambda
    if lam > 0.0 and model.tokenizer.identifiers is not None:
        return softmax_cross_entropy(
            logits, batch.query_y, orthogonal_loss(model.tokenizer.identifiers), lam)
    return softmax_cross_entropy(logits, batch.query_y)


def _episode_metrics(model, batch, cfg) -> tuple[float, float, float]:
    # one graph-free forward yields both the loss and the probabilities
    with no_grad():
        logits = model.predict_logits(batch)
        loss = _loss_from_logits(logits, batch, model, cfg).item()
    probs = softmax_rows(logits.data)
    acc = accuracy(probs, batch.query_y)
    try:
        auc = roc_auc_ovo(probs, batch.query_y)
    except UndefinedMetricError:
        auc = 0.5  # neutral when the metric episode drew a single class
    return loss, acc, auc


def finetune(model: InContextClassifier, train: EncodedDataset,
             cfg: FinetuneConfig, test: EncodedDataset | None = None) -> TrainLog:
    """Fine-tune in place and leave the model at its best-on-train state.

    Selection key is train ROC AUC, ties broken by lower train loss, both
    measured on a fixed partition of the training rows. Test metrics, when
    a test set is provided, are recorded for reporting only.
    """
    log = TrainLog()
    if cfg.epochs == 0:
        return log
    opt = Adam([t for _, t in model.named_tensors()], lr=cfg.lr)
    step_rng = np.random.default_rng([cfg.seed, _STEP_TAG])
    metric_rng = np.random.default_rng([cfg.seed, _EVAL_TAG])
    metric_batch = sample_episode(train, metric_rng, cfg.support_fraction)
    best_key = None
    best_state = None
    for epoch in range(1, cfg.epochs + 1):
        for _ in range(cfg.steps_per_epoch):
            batch = sample_episode(train, step_rng, cfg.support_fraction)
            opt.zero_grad()
            loss = total_loss(batch, model, cfg)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(
                    f"non-finite loss at epoch {epoch} (seed {cfg.seed})"
                )
            loss.backward()
            opt.step()
        train_loss, train_acc, train_auc = _episode_metrics(model, metric_batch, cfg)
        record = EpochRecord(epoch, train_loss, train_acc, train_auc)
        if test is not None:
            probs = model.predict_proba(full_support_episode(train, test)).data
            record.test_accuracy = accuracy(probs, test.labels)
            try:
                record.test_auc = roc_auc_ovo(probs, test.labels)
            except UndefinedMetricError:
                record.test_auc = None
        log.records.append(record)
        key = (train_auc, -train_loss)
        if best_key is None or key > best_key:
            best_key = key
            best_state = model.state_arrays()
    model.load_state_arrays(best_state)
    return log


# ---------------------------------------------------------------------------
# the repetition protocol
# ---------------------------------------------------------------------------

@dataclass
class RepetitionDetail:
    seed: int
    model: InContextClassifier
    log: TrainLog
    schema: FeatureSchema
    stats: NormalizationStats


def run_protocol(raw: RawDataset, pretrained: InContextClassifier,
                 cfg: FinetuneConfig, seeds=(0, 1, 2, 3, 4),
                 ) -> tuple[RepetitionReport, list[RepetitionDetail]]:
    """Split / fit / fine-tune / evaluate once per seed.

    Every repetition splits 50/50, fits the schema and statistics on its
    training half only, fine-tunes from the pretrained backbone, and scores
    the best-on-train checkpoint on the test half.
    """
    results, details = [], []
    for seed in seeds:
        rep_cfg = replace(cfg, seed=int(seed))
        train_raw, test_raw = split_train_test(raw, int(seed))
        schema, stats = fit_schema(train_raw)
        train = encode(train_raw, schema, stats)
        test = encode(test_raw, schema, stats)
        model = build_finetune_model(pretrained, schema, train.n_classes, rep_cfg)
        log = finetune(model, train, rep_cfg, test=test)
        probs = model.predict_proba(full_support_episode(train, test)).data
        results.append(RepetitionResult(
            seed=int(seed),
            auc=roc_auc_ovo(probs, test.labels),
            accuracy=accuracy(probs, test.labels),
        ))
        details.append(RepetitionDetail(int(seed), model, log, schema, stats))
    return RepetitionReport(results), details


def _field_problem(name: str, value) -> str | None:
    """Why ``value`` cannot be epoch-record field ``name``, or None: the
    epoch is an integer, each metric a number, and a test metric may also
    be null."""
    if value is None and name.startswith("test_"):
        return None
    wanted, kinds = (("an integer", int) if name == "epoch"
                     else ("a number", (int, float)))
    if isinstance(value, kinds) and not isinstance(value, bool):
        return None
    return f"{name} must be {wanted}, got {value!r}"


def read_train_log(path) -> TrainLog:
    """The epoch records of a ``trainlog_*.jsonl`` file; an undecodable file
    or a line that is not an epoch record is a ParseError naming the file
    (and the line)."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    records = []
    for line_no, line in enumerate(lines, start=1):
        try:
            record = EpochRecord(**json.loads(line))
        except (ValueError, TypeError) as exc:   # not JSON, not a record
            raise ParseError(f"{path}: line {line_no}: {exc}") from None
        for f in fields(EpochRecord):
            problem = _field_problem(f.name, getattr(record, f.name))
            if problem:
                raise ParseError(f"{path}: line {line_no}: {problem}")
        records.append(record)
    return TrainLog(records)


def average_train_logs(logs: list[TrainLog]) -> list[dict]:
    """Equal-weight per-epoch average of several training logs.

    Each log contributes with the same weight regardless of dataset size;
    the output records carry a ``weighting`` label saying so.
    """
    if not logs:
        return []
    epochs = min(len(log.records) for log in logs)
    out = []
    for e in range(epochs):
        rows = [log.records[e] for log in logs]

        def mean_of(attr):
            values = [getattr(r, attr) for r in rows]
            if any(v is None for v in values):
                return None
            return float(np.mean(values))

        out.append({
            "epoch": rows[0].epoch,
            "weighting": "equal",
            "train_loss": mean_of("train_loss"),
            "train_accuracy": mean_of("train_accuracy"),
            "train_auc": mean_of("train_auc"),
            "test_accuracy": mean_of("test_accuracy"),
            "test_auc": mean_of("test_auc"),
        })
    return out
