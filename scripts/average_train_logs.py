#!/usr/bin/env python3
"""Average several per-epoch training logs into one curve, equal weight.

Each input log (trainlog_*.jsonl from the finetune command) contributes
with the same weight per epoch regardless of its dataset's size; the
output records are labelled accordingly. An unreadable file, a line that
is not JSON or a record that is not an epoch record exits 2 with one
message line.

Usage: python scripts/average_train_logs.py runs/*/trainlog_full_seed0.jsonl \
           --out averaged_full.jsonl
"""

import argparse
import json
import sys
from pathlib import Path

from tokentab.cli import EXIT_DATA
from tokentab.training import EpochRecord, TrainLog, average_train_logs


def read_log(path) -> TrainLog:
    records = []
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for line_no, line in enumerate(lines, start=1):
        try:
            records.append(EpochRecord(**json.loads(line)))
        except (ValueError, TypeError) as exc:   # not JSON, not a record
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
    return TrainLog(records)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("logs", nargs="+", help="trainlog jsonl files")
    ap.add_argument("--out", required=True, help="output jsonl path")
    args = ap.parse_args()

    try:
        merged = average_train_logs([read_log(p) for p in args.logs])
        text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in merged)
        Path(args.out).write_text(text, encoding="utf-8")
    except (OSError, ValueError, TypeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    print(f"averaged {len(args.logs)} logs over {len(merged)} epochs -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
