"""The three workloads: generated inputs, set-up, one timed operation, checks.

Every operation is one in-process call of ``tokentab.cli.main`` with
generated files and CLI flags, the way a user drives the program. Inputs
depend only on the workload seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from tokentab.checkpoint import load_checkpoint

# acceptance size of the encoder
MODEL_FLAGS = ["--embed_dim", "64", "--layers", "3", "--heads", "4",
               "--ff_dim", "128"]
PRETRAIN_EPISODES = 100      # per timed pretrain call
BACKBONE_EPISODES = 100      # backbone pretraining during set-up
FINETUNE_EPOCHS = 30         # the protocol's default
PROTOCOL_SEEDS = 5
PRIOR_SEEDS = 5
MISSING = 0.1                # share of blank cells in generated tables


class CheckFailed(Exception):
    """An operation returned, but its outputs are wrong."""


def _write_table(prefix: Path, header, categorical, rows) -> Path:
    lines = [",".join(header + ["label"])]
    lines += [",".join(r) for r in rows]
    prefix.with_suffix(".csv").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")
    descriptor = prefix.with_suffix(".descriptor")
    descriptor.write_text(f"csv = {prefix.name}.csv\ntarget = label\n"
                          f"categorical = {','.join(categorical)}\n",
                          encoding="utf-8")
    return descriptor


def _blank(rng, cells):
    return ["" if rng.random() < MISSING else c for c in cells]


def wide_table(prefix: Path, seed: int, rows=240, cat_cols=30) -> Path:
    """2 numerical and ``cat_cols`` categorical columns over one shared
    vocabulary; the label follows x0 and membership tests on c0 and c1."""
    rng = np.random.default_rng([seed, 1])
    vocab = [f"v{k}" for k in range(8)]
    members = [set(rng.choice(vocab, size=4, replace=False).tolist())
               for _ in range(2)]
    categorical = [f"c{j}" for j in range(cat_cols)]
    out = []
    for _ in range(rows):
        x = rng.normal(size=2)
        values = rng.choice(vocab, size=cat_cols).tolist()
        hits = (values[0] in members[0]) + (values[1] in members[1])
        bit = int(2.0 * x[0] + hits - 1.0 > 0.0)
        cells = [repr(float(x[0])), repr(float(x[1]))] + values
        out.append(_blank(rng, cells) + [str(bit)])
    return _write_table(prefix, ["x0", "x1"] + categorical, categorical, out)


def mixed_table(prefix: Path, seed, rows: int) -> Path:
    """Two numerical and two categorical columns with missing cells and
    5% flipped labels."""
    rng = np.random.default_rng(seed)
    vocab = ["u", "v", "w", "x"]
    out = []
    for _ in range(rows):
        x0, x1 = rng.normal(size=2)
        c0, c1 = (str(v) for v in rng.choice(vocab, size=2))
        bit = int(x0 + x1 + (c0 in ("u", "w")) - 0.5 > 0.0)
        if rng.random() < 0.05:
            bit ^= 1
        cells = [repr(float(x0)), repr(float(x1)), c0, c1]
        out.append(_blank(rng, cells) + [str(bit)])
    return _write_table(prefix, ["x0", "x1", "c0", "c1"], ["c0", "c1"], out)


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in
            path.read_text(encoding="utf-8").splitlines()]


def _finite(value, what: str) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise CheckFailed(f"{what} is {value!r}, not a finite number")
    return float(value)


class Workload:
    """One closed-loop workload; subclasses fill in the hooks."""

    name = ""
    why = ""
    # spans that must see calls in a traced loop of this workload
    layers: frozenset[str] = frozenset()
    # calls k and k + distinct_calls get the same inputs
    distinct_calls = 1

    def __init__(self, cli, work: Path, seed: int):
        self.cli = cli
        self.work = work
        self.seed = seed
        self.out = work / "op"

    def run(self, argv) -> None:
        """One ``tokentab`` command; its console output is captured.

        ``cli.main`` is looked up on every call, so a traced run reaches
        the wrapper the tracer installed there.
        """
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = self.cli.main([str(a) for a in argv])
        if rc != 0:
            raise CheckFailed(f"tokentab {argv[0]} exited with {rc}: "
                              f"{stderr.getvalue().strip()}")

    def prepare(self) -> None:
        """Generate input files (benchmark work, not timed as set-up)."""

    def setup(self) -> None:
        """Program work the timed loop needs; timed and repeated."""

    def call(self, k: int) -> list:
        raise NotImplementedError

    def check(self, k: int) -> float:
        """Validate call ``k``'s outputs; return its quality value."""
        raise NotImplementedError

    def named(self, call_s: float, quality: float) -> dict:
        """This workload's own names for call_s_p50 and quality:
        name -> (value, unit)."""
        raise NotImplementedError

    def _backbone(self) -> Path:
        out = self.work / "backbone"
        self.run(["pretrain", "--out", out, "--episodes", BACKBONE_EPISODES,
                  "--seed", self.seed, *MODEL_FLAGS])
        return out / "checkpoint.ckpt"


class Pretrain(Workload):
    name = "pretrain"
    why = ("many small steps (48-96 rows, <=5 features): per-op Python "
           "overhead, backward and Adam dominate; bypasses attention and "
           "tokenizer changes")
    layers = frozenset({
        "cli.main", "prior.pretrain", "prior.sample_task", "autodiff.backward",
        "autodiff.tape_trace", "model.encoder_layer", "model.predict_logits",
        "tokenizer.embed_rows", "optim.step", "checkpoint.save",
    })
    distinct_calls = PRIOR_SEEDS

    def _argv(self, out: Path, k: int) -> list:
        # calls cycle through PRIOR_SEEDS prior seeds of this workload seed
        return ["pretrain", "--out", out, "--episodes", PRETRAIN_EPISODES,
                "--seed", PRIOR_SEEDS * self.seed + k % PRIOR_SEEDS,
                "--holdout", 20, *MODEL_FLAGS]

    def named(self, call_s, quality):
        return {"pretrain_episodes_per_s": (PRETRAIN_EPISODES / call_s, "episodes/s"),
                "pretrain_holdout_loss": (-math.log(quality) if quality > 0
                                          else math.inf, "nats")}

    def setup(self):
        self.run(self._argv(self.work / "warmup", 0))

    def call(self, k):
        return self._argv(self.out, k)

    def check(self, k):
        last = _read_jsonl(self.out / "pretrain_log.jsonl")[-1]
        start = _finite(last.get("holdout_start"), "holdout_start")
        end = _finite(last.get("holdout_end"), "holdout_end")
        if not end < start:
            raise CheckFailed(f"holdout loss did not fall: {start} -> {end}")
        return math.exp(-end)


class FinetuneWide(Workload):
    name = "finetune-wide"
    why = ("240 rows, 2 numerical + 30 categorical columns on one vocabulary: "
           "the per-column tokenizer chain, its backward and per-epoch "
           "reporting forwards dominate")
    layers = frozenset({
        "cli.main", "training.run_protocol", "training.finetune",
        "training.total_loss", "tokenizer.orthogonal_loss",
        "tokenizer.embed_rows", "autodiff.backward", "autodiff.tape_trace",
        "model.encoder_layer", "model.predict_logits", "model.predict_proba",
        "model.state_arrays", "optim.step", "metrics.roc_auc_ovo",
        "data.load_csv", "data.fit_schema", "data.encode",
        "data.split_train_test", "checkpoint.load", "checkpoint.rebuild",
        "checkpoint.save",
    })
    distinct_calls = PROTOCOL_SEEDS

    def prepare(self):
        self.data = wide_table(self.work / "wide", self.seed)

    def named(self, call_s, quality):
        return {"finetune_s_per_seed": (call_s, "s"),
                "finetune_mean_auc": (quality, "1")}

    def setup(self):
        self.backbone = self._backbone()
        self.run(["finetune", "--data", self.data, "--checkpoint", self.backbone,
                  "--out", self.work / "warmup", "--epochs", 1, "--seeds", 0])

    def call(self, k):
        # one protocol repetition per call, cycling through its seeds
        return ["finetune", "--data", self.data, "--checkpoint", self.backbone,
                "--out", self.out, "--variant", "full",
                "--epochs", FINETUNE_EPOCHS, "--seeds", k % PROTOCOL_SEEDS]

    def check(self, k):
        seed = k % PROTOCOL_SEEDS
        rows = _read_jsonl(self.out / "report_full.jsonl")
        if [r.get("seed") for r in rows[:-1]] != [seed] or \
                rows[-1].get("aggregate") != "mean":
            raise CheckFailed(f"report rows {rows} are not seed {seed} + mean")
        for r in rows:
            auc = _finite(r.get("auc"), "auc")
            if not 0.0 <= auc <= 1.0:
                raise CheckFailed(f"auc {auc} outside [0, 1]")
        for ckpt in sorted(self.out.glob("*.ckpt")):
            load_checkpoint(ckpt)
        if not (self.out / f"checkpoint_full_seed{seed}.ckpt").exists():
            raise CheckFailed(f"no checkpoint for seed {seed}")
        return rows[-1]["auc"]


class EvaluateLarge(Workload):
    name = "evaluate-large"
    why = ("evaluate on 2000 mixed rows (1000 support + 1000 query): dense "
           "(S+Q)^2 attention and the retained forward graph dominate time "
           "and memory")
    query_rows = 1000
    layers = frozenset({
        "cli.main", "checkpoint.load", "checkpoint.rebuild", "data.load_csv",
        "data.split_train_test", "data.encode", "tokenizer.embed_rows",
        "model.encoder_layer", "model.predict_logits", "model.predict_proba",
        "metrics.roc_auc_ovo",
    })

    def prepare(self):
        # fine-tuning sees a small table from the same rule; evaluate reads
        # a large one, so the checkpoint's schema binds both
        self.small = mixed_table(self.work / "small", [self.seed, 2], rows=160)
        self.large = mixed_table(self.work / "large", [self.seed, 3], rows=2000)

    def named(self, call_s, quality):
        return {"evaluate_s_p50": (call_s, "s"),
                "evaluate_query_rows_per_s": (self.query_rows / call_s, "rows/s"),
                "evaluate_auc": (quality, "1")}

    def setup(self):
        backbone = self._backbone()
        tuned = self.work / "tuned"
        self.run(["finetune", "--data", self.small, "--checkpoint", backbone,
                  "--out", tuned, "--epochs", 10, "--seeds", 0])
        self.checkpoint = tuned / "checkpoint_full_seed0.ckpt"
        warmup = self.work / "warmup"
        self.run(["evaluate", "--data", self.large, "--checkpoint",
                  self.checkpoint, "--out", warmup])
        self.reference = (warmup / "evaluation.json").read_bytes()

    def call(self, k):
        return ["evaluate", "--data", self.large, "--checkpoint",
                self.checkpoint, "--out", self.out]

    def check(self, k):
        raw = (self.out / "evaluation.json").read_bytes()
        result = json.loads(raw)
        auc = _finite(result.get("auc_ovo"), "auc_ovo")
        _finite(result.get("accuracy"), "accuracy")
        if result.get("test_rows") != self.query_rows:
            raise CheckFailed(f"test_rows is {result.get('test_rows')}")
        if raw != self.reference:
            raise CheckFailed("evaluation.json differs from the first call's")
        return auc


WORKLOADS = {w.name: w for w in (Pretrain, FinetuneWide, EvaluateLarge)}
