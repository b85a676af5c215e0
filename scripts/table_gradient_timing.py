#!/usr/bin/env python3
"""Time the token-table gradient of ``embed_rows`` against a scatter-add.

For each batch shape, the table rows a column touches decide which way is
cheaper: the product ``onehot @ g`` does ``rows`` multiply-adds per
coordinate for every touched row, a sequential sum one add per read.
Prints, per shape, the mean touched rows per column and the best time and
``tracemalloc`` peak of four ways to compute the same gradient:

- ``scatter``: ``np.add.at`` over the reads (the reference);
- ``product``: every touched row through the product;
- ``sum``: every touched row through the per-coordinate ``np.bincount``;
- ``split``: what ``embed_rows`` does, the product for rows read by at
  least one batch row in ``PRODUCT_SHARE`` and the sum for the rest.

BLAS runs on one thread, as in ``perfbench/run.py``.

Usage: PYTHONPATH=src python3 scripts/table_gradient_timing.py [--rounds 7]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"    # fixed before numpy loads

import argparse  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from tokentab import tokenizer  # noqa: E402
from tokentab.tokenizer import NAN_ROW  # noqa: E402

# (categorical columns, values per column, batch rows, d)
SHAPES = [(30, 8, 240, 64), (30, 32, 240, 64), (30, 200, 240, 64),
          (50, 1000, 240, 64), (30, 8, 2000, 64), (30, 100, 2000, 64),
          (30, 1000, 2000, 64)]
MISSING = 0.3


def batch(columns, values, rows, d, seed=0):
    rng = np.random.default_rng(seed)
    first = 1 + values * np.arange(columns)
    idx = first[:, None] + rng.integers(0, values, size=(columns, rows))
    idx[rng.random((columns, rows)) < MISSING] = NAN_ROW
    return 1 + columns * values, idx, rng.standard_normal((rows, d))


def scatter(table_rows, idx, g):
    full = np.zeros((table_rows, g.shape[1]))
    np.add.at(full, idx, g)
    full[NAN_ROW] = 0.0
    return full


def with_share(share):
    def gradient(table_rows, idx, g):
        kept, tokenizer.PRODUCT_SHARE = tokenizer.PRODUCT_SHARE, share
        try:
            return tokenizer._table_gradient(table_rows, idx, g)
        finally:
            tokenizer.PRODUCT_SHARE = kept
    return gradient


WAYS = {"scatter": scatter, "product": with_share(10**9), "sum": with_share(0),
        "split": tokenizer._table_gradient}


def best_ms(f, args, rounds, calls=3):
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            f(*args)
        times.append((time.perf_counter() - start) / calls * 1e3)
    return min(times)


def peak_mib(f, args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--rounds", type=int, default=7)
    args = ap.parse_args()
    print(f"PRODUCT_SHARE = {tokenizer.PRODUCT_SHARE}; ms and MiB per call")
    for columns, values, rows, d in SHAPES:
        table_rows, idx, g = batch(columns, values, rows, d)
        touched = np.mean([np.setdiff1d(c, [NAN_ROW]).size for c in idx])
        cells = [f"{columns}x{values} values, {rows} rows, d {d}, "
                 f"{touched:.0f} touched rows per column:"]
        for name, f in WAYS.items():
            if name == "product" and touched * rows * columns > 2e7:
                cells.append(f"{name} skipped")   # a one-hot over 160 MB
                continue
            ms = best_ms(f, (table_rows, idx, g), args.rounds)
            cells.append(f"{name} {ms:.2f} ms {peak_mib(f, (table_rows, idx, g)):.1f} MiB")
        print(" | ".join(cells), flush=True)


if __name__ == "__main__":
    main()
