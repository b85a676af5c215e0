"""Command-line surface: pretrain, finetune, evaluate, export-heatmaps, grad-check.

Every command is reproducible: the resolved configuration plus the seed
determine all output bytes, and a copy of the resolved configuration lands
in the output directory. Exit codes: 0 success, 1 usage or configuration
error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .autodiff import NumericError
from .checkpoint import (
    CheckpointError,
    load_checkpoint,
    rebuild_model,
    save_checkpoint,
)
from .config import (
    FIELD_TYPES,
    FINETUNE,
    GRAD_CHECK,
    PRETRAIN,
    ConfigError,
    as_kv,
    read_kv_file,
    render_kv,
    resolve,
)
from .data import ParseError, encode, load_csv, split_train_test
from .gradcheck import component_checks
from .metrics import UndefinedMetricError, accuracy, roc_auc_ovo
from .prior import build_pretraining_model, pretrain
from .tokenizer import SchemaError, category_gram_matrix, identifier_gram_matrix
from .training import full_support_episode, run_protocol

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DESCRIPTOR_KEYS = {"csv", "target", "categorical", "name"}

#: the errors of unusable input files, reported with exit code 2
DATA_ERRORS = (ParseError, SchemaError, CheckpointError, UndefinedMetricError,
               OSError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems become exit code 1, not 2
        raise ConfigError(message)


def _add_settings_flags(parser, bindings) -> None:
    for binding in bindings:
        for key, f in binding.keyed():
            parser.add_argument(
                f"--{key}", type=FIELD_TYPES[f.type], default=None,
                help=f"(default: {getattr(binding.defaults, f.name)})")


def _settings_from_args(bindings, args) -> tuple:
    file_map = read_kv_file(args.config) if args.config else None
    overrides = {key: getattr(args, key)
                 for binding in bindings for key, _ in binding.keyed()}
    return resolve(bindings, file_map, overrides)


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return value


def _write_jsonl(path: Path, records) -> None:
    path.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
        encoding="utf-8",
    )


def _write_resolved(out_dir: Path, bindings, objects,
                    name: str = "config.resolved") -> None:
    (out_dir / name).write_text(render_kv(as_kv(bindings, objects)),
                                encoding="utf-8")


def _write_matrix_csv(path: Path, matrix: np.ndarray) -> None:
    lines = [",".join(str(i) for i in range(matrix.shape[1]))]
    for row in matrix:
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_descriptor(path):
    """Dataset descriptor: a key=value file naming the csv, target column
    and categorical columns; the csv path is relative to the descriptor."""
    kv = read_kv_file(path)
    unknown = set(kv) - DESCRIPTOR_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown descriptor keys {sorted(unknown)}")
    for required in ("csv", "target"):
        if required not in kv:
            raise ConfigError(f"{path}: descriptor key {required!r} is missing")
    csv_path = Path(path).parent / kv["csv"]
    categorical = [c.strip() for c in kv.get("categorical", "").split(",")
                   if c.strip()]
    return load_csv(csv_path, kv["target"], categorical)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_pretrain(args) -> int:
    resolved = _settings_from_args(PRETRAIN, args)
    settings, model_cfg, prior = resolved
    prior = replace(prior, seed=settings.seed)
    if prior.max_classes > model_cfg.max_classes:
        raise ConfigError("key 'prior_classes_max' exceeds key 'max_classes'")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = build_pretraining_model(prior, model_cfg)
    log = pretrain(model, prior, settings.episodes, lr=settings.lr,
                   holdout=settings.holdout, log_every=settings.log_every)
    save_checkpoint(out / "checkpoint.ckpt", model, kind="pretrain",
                    extra={"prior": asdict(prior),
                           "episodes": settings.episodes})
    records = list(log["episodes"])
    records.append({"holdout_start": log["holdout_start"],
                    "holdout_end": log["holdout_end"]})
    _write_jsonl(out / "pretrain_log.jsonl", records)
    _write_resolved(out, PRETRAIN, resolved)
    print(f"pretrained for {settings.episodes} episodes -> {out / 'checkpoint.ckpt'}")
    if log["holdout_start"] is not None:
        print(f"holdout loss {log['holdout_start']:.4f} -> {log['holdout_end']:.4f}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    resolved = _settings_from_args(FINETUNE, args)
    settings, cfg = resolved
    seeds = settings.seed_list()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    backbone = rebuild_model(load_checkpoint(args.checkpoint))
    raw = load_descriptor(args.data)
    report, details = run_protocol(raw, backbone, cfg, seeds=seeds)
    suffix = cfg.variant
    _write_jsonl(out / f"report_{suffix}.jsonl", report.to_records())
    (out / f"report_{suffix}.txt").write_text(
        f"variant: {suffix}\n{report.summary_table()}\n", encoding="utf-8")
    for detail in details:
        _write_jsonl(out / f"trainlog_{suffix}_seed{detail.seed}.jsonl",
                     detail.log.to_records())
        save_checkpoint(
            out / f"checkpoint_{suffix}_seed{detail.seed}.ckpt",
            detail.model, kind="finetune",
            schema=detail.schema, stats=detail.stats,
            label_names=raw.label_names,
            extra={"variant": suffix, "split_seed": detail.seed,
                   "finetune": asdict(replace(cfg, seed=detail.seed))},
        )
    _write_resolved(out, FINETUNE, resolved, name=f"config_{suffix}.resolved")
    print(f"variant: {suffix}")
    print(report.summary_table())
    return EXIT_OK


def cmd_evaluate(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    if ckpt.schema is None or ckpt.stats is None or ckpt.label_names is None:
        raise CheckpointError(
            f"{args.checkpoint}: checkpoint is not schema-bound; "
            "evaluate needs a fine-tuned checkpoint"
        )
    model = rebuild_model(ckpt)
    raw = load_descriptor(args.data)
    if raw.label_names != ckpt.label_names:
        raise SchemaError(
            f"dataset classes {raw.label_names} do not match checkpoint "
            f"classes {ckpt.label_names}"
        )
    split_seed = args.split_seed
    if split_seed is None:
        split_seed = ckpt.extra.get("split_seed", 0)
    train_raw, test_raw = split_train_test(raw, split_seed)
    train = encode(train_raw, ckpt.schema, ckpt.stats)
    test = encode(test_raw, ckpt.schema, ckpt.stats)
    probs = model.predict_proba(full_support_episode(train, test)).data
    result = {
        "split_seed": split_seed,
        "auc_ovo": roc_auc_ovo(probs, test.labels),
        "accuracy": accuracy(probs, test.labels),
        "test_rows": len(test),
    }
    text = json.dumps(result, sort_keys=True)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "evaluation.json").write_text(text + "\n", encoding="utf-8")
        (out / "config.resolved").write_text(
            render_kv({"checkpoint": str(args.checkpoint),
                       "data": str(args.data),
                       "split_seed": str(split_seed)}), encoding="utf-8")
    return EXIT_OK


def cmd_export_heatmaps(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model = rebuild_model(ckpt)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_matrix_csv(out / "category_gram.csv",
                      category_gram_matrix(model.tokenizer.table))
    if model.tokenizer.identifiers is not None:
        _write_matrix_csv(out / "identifier_gram.csv",
                          identifier_gram_matrix(model.tokenizer.identifiers))
    else:
        print("warning: checkpoint has no feature identifiers; "
              "wrote the category matrix only", file=sys.stderr)
    (out / "config.resolved").write_text(
        render_kv({"checkpoint": str(args.checkpoint)}), encoding="utf-8")
    return EXIT_OK


def cmd_grad_check(args) -> int:
    resolved = _settings_from_args(GRAD_CHECK, args)
    settings, model_cfg = resolved
    results = component_checks(seed=settings.seed, eps=settings.eps,
                               config=model_cfg)
    lines = []
    failed = False
    for name, err in results.items():
        status = "PASS" if err < settings.tolerance else "FAIL"
        failed = failed or status == "FAIL"
        lines.append(f"{name}: max_rel_err={err:.3e} "
                     f"tolerance={settings.tolerance:.1e} {status}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "gradcheck.txt").write_text(text + "\n", encoding="utf-8")
        _write_resolved(out, GRAD_CHECK, resolved)
    return EXIT_NUMERIC if failed else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="tokentab",
                     description="in-context tabular classifier toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="pretrain on the synthetic prior")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", required=True, help="output directory")
    _add_settings_flags(p, PRETRAIN)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="run the seeded fine-tune protocol")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--data", required=True, help="dataset descriptor file")
    p.add_argument("--checkpoint", required=True, help="pretrained checkpoint")
    p.add_argument("--out", required=True, help="output directory")
    _add_settings_flags(p, FINETUNE)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="score a fine-tuned checkpoint")
    p.add_argument("--data", required=True, help="dataset descriptor file")
    p.add_argument("--checkpoint", required=True, help="fine-tuned checkpoint")
    p.add_argument("--split-seed", type=_seed, default=None,
                   help="split seed (default: the checkpoint's own)")
    p.add_argument("--out", default=None, help="optional output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-heatmaps",
                       help="write token and identifier gram matrices as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_export_heatmaps)

    p = sub.add_parser("grad-check",
                       help="finite-difference check of all model gradients")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", default=None, help="optional output directory")
    _add_settings_flags(p, GRAD_CHECK)
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
