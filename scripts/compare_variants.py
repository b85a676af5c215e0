#!/usr/bin/env python3
"""Run all three model variants on one dataset and print a comparison table.

The table reports per-seed and mean one-vs-one AUC plus the rank of each
variant; which variant wins is an empirical question, so nothing here
asserts an ordering. Unusable flags exit 2 before any file is read; data
errors exit 2 and numeric failures exit 3, each with one message line.

Usage: python scripts/compare_variants.py --data data/rule.descriptor \
           --checkpoint runs/pretrain/checkpoint.ckpt --epochs 30
"""

import argparse
import sys

from tokentab.autodiff import NumericError
from tokentab.checkpoint import load_checkpoint, rebuild_model
from tokentab.cli import DATA_ERRORS, EXIT_DATA, EXIT_NUMERIC, load_descriptor
from tokentab.config import ConfigError, FinetuneSettings
from tokentab.training import FinetuneConfig, run_protocol

VARIANTS = ("full", "no_regularization", "no_identifiers")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", required=True, help="dataset descriptor file")
    ap.add_argument("--checkpoint", required=True, help="pretrained checkpoint")
    ap.add_argument("--epochs", type=int, default=FinetuneConfig.epochs)
    ap.add_argument("--lr", type=float, default=FinetuneConfig.lr)
    ap.add_argument("--lambda_orth", type=float, default=FinetuneConfig.lambda_orth)
    ap.add_argument("--steps_per_epoch", type=int,
                    default=FinetuneConfig.steps_per_epoch)
    ap.add_argument("--seeds", default=FinetuneSettings.seeds)
    args = ap.parse_args()

    try:   # a ConfigError is a ValueError too
        seeds = FinetuneSettings(seeds=args.seeds).seed_list()
        configs = {v: FinetuneConfig(epochs=args.epochs, lr=args.lr,
                                     lambda_orth=args.lambda_orth, variant=v,
                                     steps_per_epoch=args.steps_per_epoch)
                   for v in VARIANTS}
    except ValueError as exc:
        ap.error(str(exc))

    try:
        backbone = rebuild_model(load_checkpoint(args.checkpoint))
        raw = load_descriptor(args.data)
        reports = {v: run_protocol(raw, backbone, configs[v], seeds=seeds)[0]
                   for v in VARIANTS}
    except ConfigError as exc:   # an unusable descriptor
        ap.error(str(exc))
    except DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    means = {v: reports[v].mean_auc for v in VARIANTS}
    order = sorted(VARIANTS, key=lambda v: -means[v])
    rank = {v: i + 1 for i, v in enumerate(order)}

    seed_cols = "  ".join(f"seed{s:>2}" for s in seeds)
    print(f"{'variant':<20} {seed_cols}  {'mean_auc':>9} {'mean_acc':>9} {'rank':>5}")
    for v in VARIANTS:
        per_seed = "  ".join(f"{r.auc:6.4f}" for r in reports[v].results)
        print(f"{v:<20} {per_seed}  {means[v]:9.4f} "
              f"{reports[v].mean_accuracy:9.4f} {rank[v]:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
