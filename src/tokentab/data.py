"""CSV loading, schema fitting, encoding and seeded splits.

All statistics (vocabularies, means, stds) come from training rows only;
encoding is total, so unseen categories and missing values at test time
never fail.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .tokenizer import (
    CATEGORICAL,
    NAN_ROW,
    NUMERICAL,
    Column,
    FeatureSchema,
    SchemaError,
)

#: cell contents treated as missing after stripping surrounding whitespace
MISSING_SENTINELS = frozenset({"", "?", "NaN", "nan"})


class ParseError(ValueError):
    """The file is not a readable dataset; the message carries the position."""


@dataclass
class RawDataset:
    """Rectangular typed table: feature cells plus integer class labels.

    Numerical cells are floats or None, categorical cells are strings or
    None. ``label_names`` fixes the class-index mapping for the dataset's
    lifetime, so every split shares it.
    """

    feature_names: tuple[str, ...]
    kinds: tuple[str, ...]
    cells: list[list]
    labels: np.ndarray
    label_names: tuple[str, ...]

    def __post_init__(self):
        for r, row_cells in enumerate(self.cells):
            if len(row_cells) != len(self.feature_names):
                raise ParseError(f"row {r} has {len(row_cells)} cells, "
                                 f"expected {len(self.feature_names)}")
        if len(self.label_names) < 2:
            raise SchemaError("a classification dataset needs at least 2 classes")

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def n_classes(self) -> int:
        return len(self.label_names)

    def subset(self, indices) -> "RawDataset":
        indices = np.asarray(indices)
        return RawDataset(
            feature_names=self.feature_names,
            kinds=self.kinds,
            cells=[list(self.cells[i]) for i in indices],
            labels=self.labels[indices].copy(),
            label_names=self.label_names,
        )


def _parse_cell(text: str, kind: str):
    text = text.strip()
    if text in MISSING_SENTINELS:
        return None
    if kind == NUMERICAL:
        try:
            value = float(text)
        except ValueError:
            return None  # unparseable numeric cells become missing
        return value if np.isfinite(value) else None   # so do inf and nan
    return text


def _rows(path, reader):
    """(line, fields) for each row of ``reader``, where line is the file line
    the row ends on (a quoted field may span lines); a row the csv module
    rejects is a ParseError naming its line."""
    try:
        for values in reader:
            yield reader.line_num, values
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None


def load_csv(path, target: str, categorical: list[str]) -> RawDataset:
    """Read a comma-delimited file with a header row into a typed dataset.

    Columns named in ``categorical`` keep raw string values; every other
    feature column is parsed as numeric. Header names must be distinct and
    name at least one feature column. The target column must be present,
    not listed in ``categorical``, and non-missing on every row.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8").removeprefix("\ufeff")   # drop a BOM
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not UTF-8 text") from None
    with io.StringIO(text, newline="") as fh:
        reader = _rows(path, csv.reader(fh))
        try:
            _, header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for k, name in enumerate(header):
            if name in header[:k]:
                raise SchemaError(f"{path}: column {name!r} appears more than "
                                  "once in the header")
        if target not in header:
            raise SchemaError(f"{path}: target column {target!r} not in header")
        if len(header) == 1:
            raise SchemaError(f"{path}: no feature column besides target {target!r}")
        unknown = set(categorical) - set(header)
        if unknown:
            raise SchemaError(f"{path}: categorical columns not in header: {sorted(unknown)}")
        if target in categorical:
            raise SchemaError(f"{path}: categorical column {target!r} is the "
                              "target column")
        target_idx = header.index(target)
        feature_names = tuple(h for h in header if h != target)
        kinds = tuple(CATEGORICAL if h in set(categorical) else NUMERICAL
                      for h in feature_names)
        cells: list[list] = []
        raw_labels: list[str] = []
        for line_no, values in reader:
            if not values:
                continue  # ignore blank lines
            if len(values) != len(header):
                raise ParseError(f"{path}: line {line_no} has {len(values)} fields, "
                                 f"expected {len(header)}")
            label = values[target_idx].strip()
            if label in MISSING_SENTINELS:
                raise ParseError(f"{path}: line {line_no} has a missing target value")
            raw_labels.append(label)
            feature_values = [v for k, v in enumerate(values) if k != target_idx]
            cells.append([_parse_cell(v, kind)
                          for v, kind in zip(feature_values, kinds)])
    if not cells:
        raise ParseError(f"{path}: no data rows")
    label_names = tuple(sorted(set(raw_labels)))
    index = {name: i for i, name in enumerate(label_names)}
    labels = np.array([index[v] for v in raw_labels], dtype=np.intp)
    return RawDataset(feature_names, kinds, cells, labels, label_names)


@dataclass(frozen=True)
class NormalizationStats:
    """Training-set means and stds for the numerical columns, in schema order."""

    means: tuple[float, ...]
    stds: tuple[float, ...]


def fit_schema(train: RawDataset) -> tuple[FeatureSchema, NormalizationStats]:
    """Fit vocabularies and z-normalization statistics on training rows only.

    Vocabularies keep first-occurrence order. A constant (or fully missing)
    numerical column gets std clamped to 1 so encoding stays finite.
    """
    if len(train) == 0:
        raise SchemaError("cannot fit a schema on an empty dataset")
    columns = []
    means, stds = [], []
    for k, (name, kind) in enumerate(zip(train.feature_names, train.kinds)):
        values = [row_cells[k] for row_cells in train.cells]
        if kind == CATEGORICAL:
            vocab = []
            seen = set()
            for v in values:
                if v is not None and v not in seen:
                    seen.add(v)
                    vocab.append(v)
            columns.append(Column(name, CATEGORICAL, tuple(vocab)))
        else:
            present = np.array([v for v in values if v is not None], dtype=np.float64)
            mean = float(present.mean()) if present.size else 0.0
            std = float(present.std()) if present.size else 1.0
            if std == 0.0 or not np.isfinite(std):
                std = 1.0
            columns.append(Column(name, NUMERICAL))
            means.append(mean)
            stds.append(std)
    return FeatureSchema(tuple(columns)), NormalizationStats(tuple(means), tuple(stds))


@dataclass
class EncodedDataset:
    """Model-ready matrices bound to the schema that produced them."""

    num: np.ndarray
    cat: np.ndarray
    labels: np.ndarray
    schema: FeatureSchema
    stats: NormalizationStats
    label_names: tuple[str, ...]

    @property
    def n_classes(self) -> int:
        return len(self.label_names)

    def __len__(self) -> int:
        return self.num.shape[0]


def encode(data: RawDataset, schema: FeatureSchema,
           stats: NormalizationStats) -> EncodedDataset:
    """Z-normalize numerics and index categoricals with the fitted schema.

    Missing numerics impute to the training mean (encoded 0.0); missing or
    unseen categories map to the reserved table row 0.
    """
    if data.feature_names != tuple(c.name for c in schema.columns):
        raise SchemaError("dataset columns do not match the schema")
    rows = len(data)
    num = np.zeros((rows, schema.n), dtype=np.float64)
    cat = np.zeros((rows, schema.m), dtype=np.intp)
    num_positions = [k for k, kind in enumerate(data.kinds) if kind == NUMERICAL]
    cat_positions = [k for k, kind in enumerate(data.kinds) if kind == CATEGORICAL]
    # one dict per column from value to table row; a NaN value is missing,
    # so no NaN key may match it by identity
    lookups = [
        {v: offset + pos for pos, v in enumerate(col.vocabulary)
         if not (isinstance(v, float) and np.isnan(v))}
        for col, offset in zip(schema.categorical_columns, schema.offsets)
    ]
    for r, row_cells in enumerate(data.cells):
        for i, k in enumerate(num_positions):
            v = row_cells[k]
            if v is None:
                num[r, i] = 0.0
            else:
                num[r, i] = (float(v) - stats.means[i]) / stats.stds[i]
        for j, (k, lookup) in enumerate(zip(cat_positions, lookups)):
            cat[r, j] = lookup.get(row_cells[k], NAN_ROW)
    return EncodedDataset(num, cat, data.labels.copy(), schema, stats,
                          data.label_names)


def split_train_test(data: RawDataset, seed: int) -> tuple[RawDataset, RawDataset]:
    """Seeded shuffle then 50/50 split; odd row counts give train the extra row."""
    rows = len(data)
    if rows < 2:
        raise SchemaError("need at least two rows to split")
    perm = np.random.default_rng(seed).permutation(rows)
    cut = (rows + 1) // 2
    return data.subset(perm[:cut]), data.subset(perm[cut:])
