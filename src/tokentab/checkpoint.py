"""Versioned binary checkpoint container.

Layout: 4-byte magic, little-endian uint32 format version, little-endian
uint64 header length, UTF-8 JSON header, then the raw float64
little-endian bytes of every parameter in header order. The header records
parameter names, shapes and frozen flags, the model configuration, and the
bound feature schema and normalization statistics when present. Identical
model state always serializes to identical bytes.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .data import NormalizationStats
from .model import InContextClassifier, ModelConfig
from .tokenizer import Column, FeatureSchema, SchemaError

MAGIC = b"TTCK"
FORMAT_VERSION = 1
_REQUIRED_KEYS = ("kind", "model_config", "table_sizes", "params")


class CheckpointError(ValueError):
    """The file is not a readable checkpoint of a supported version."""


def _schema_to_dict(schema: FeatureSchema) -> dict:
    return {
        "columns": [
            {"name": c.name, "kind": c.kind, "vocabulary": list(c.vocabulary)}
            for c in schema.columns
        ]
    }


def _schema_from_dict(path, obj) -> FeatureSchema:
    columns = obj.get("columns") if isinstance(obj, dict) else None
    if not isinstance(columns, list):
        raise CheckpointError(f"{path}: header schema.columns is not a list")
    for k, c in enumerate(columns):
        if not (isinstance(c, dict) and isinstance(c.get("name"), str)
                and isinstance(c.get("kind"), str)
                and isinstance(c.get("vocabulary"), list)
                and all(isinstance(v, (str, int, float)) for v in c["vocabulary"])):
            raise CheckpointError(
                f"{path}: header schema.columns[{k}] needs a string name and "
                "kind and a vocabulary list of values")
    try:
        return FeatureSchema(tuple(Column(c["name"], c["kind"], tuple(c["vocabulary"]))
                                   for c in columns))
    except SchemaError as exc:
        raise CheckpointError(f"{path}: header schema: {exc}") from None


def _finite_floats(seq) -> tuple[float, ...] | None:
    """``seq`` as floats if it is a list of finite JSON numbers, else None."""
    if not isinstance(seq, list) or any(type(v) not in (int, float) for v in seq):
        return None
    try:
        out = tuple(float(v) for v in seq)
    except OverflowError:   # an integer beyond the float range
        return None
    return out if all(math.isfinite(v) for v in out) else None


def _stats_from_dict(path, obj, count: int | None) -> NormalizationStats:
    """``count`` is the schema's numerical column count, when there is one."""
    if not isinstance(obj, dict):
        raise CheckpointError(f"{path}: header stats is not a JSON object")
    means, stds = _finite_floats(obj.get("means")), _finite_floats(obj.get("stds"))
    for key, values in (("means", means), ("stds", stds)):
        if values is None:
            raise CheckpointError(
                f"{path}: header stats.{key} is not a list of finite numbers")
    if any(v <= 0.0 for v in stds):
        raise CheckpointError(f"{path}: header stats.stds holds a value <= 0")
    want = len(means) if count is None else count
    if len(means) != want or len(stds) != want:
        raise CheckpointError(
            f"{path}: header stats.means and stats.stds need {want} entries, "
            f"one per numerical column; they have {len(means)} and {len(stds)}")
    return NormalizationStats(means, stds)


@dataclass
class Checkpoint:
    kind: str
    model_config: dict
    table_sizes: tuple[int, ...]
    arrays: dict[str, np.ndarray]
    flags: dict[str, bool]
    schema: FeatureSchema | None
    stats: NormalizationStats | None
    label_names: tuple[str, ...] | None
    extra: dict


def save_checkpoint(path, model: InContextClassifier, kind: str,
                    schema: FeatureSchema | None = None,
                    stats: NormalizationStats | None = None,
                    label_names=None, extra: dict | None = None) -> None:
    named = model.named_tensors()
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "model_config": model.config.to_dict(),
        "table_sizes": list(model.tokenizer.table.sizes),
        "params": [
            {"name": n, "shape": list(t.shape), "requires_grad": t.requires_grad}
            for n, t in named
        ],
        "schema": _schema_to_dict(schema) if schema is not None else None,
        "stats": ({"means": list(stats.means), "stds": list(stats.stds)}
                  if stats is not None else None),
        "label_names": list(label_names) if label_names is not None else None,
        "extra": extra or {},
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for _, t in named:
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def _is_sizes(value) -> bool:
    return isinstance(value, list) and all(type(e) is int and e >= 0 for e in value)


def _check_param_entry(path, k: int, meta) -> None:
    """Reject a header ``params`` entry that does not describe one tensor."""
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: params entry {k} is not a JSON object")
    name = meta.get("name")
    if not isinstance(name, str):
        raise CheckpointError(f"{path}: params entry {k} has no string name")
    if not _is_sizes(meta.get("shape")):
        raise CheckpointError(
            f"{path}: parameter {name} shape {meta.get('shape')!r} is not a list of sizes")
    if not isinstance(meta.get("requires_grad"), bool):
        raise CheckpointError(f"{path}: parameter {name} has no boolean requires_grad")


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    (header_len,) = struct.unpack("<Q", blob[8:16])
    if 16 + header_len > len(blob):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[16:16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header ({exc})") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    missing = [key for key in _REQUIRED_KEYS if key not in header]
    if missing:
        raise CheckpointError(f"{path}: header lacks {', '.join(missing)}")
    if not isinstance(header["params"], list):
        raise CheckpointError(f"{path}: header params is not a list")
    if not isinstance(header["model_config"], dict):
        raise CheckpointError(f"{path}: header model_config is not a JSON object")
    if not _is_sizes(header["table_sizes"]):
        raise CheckpointError(f"{path}: header table_sizes is not a list of sizes")
    arrays: dict[str, np.ndarray] = {}
    flags: dict[str, bool] = {}
    pos = 16 + header_len
    for k, meta in enumerate(header["params"]):
        _check_param_entry(path, k, meta)
        shape = tuple(meta["shape"])
        nbytes = math.prod(shape) * 8   # exact: a huge shape cannot wrap around
        if pos + nbytes > len(blob):
            raise CheckpointError(f"{path}: truncated parameter {meta['name']}")
        arr = np.frombuffer(blob[pos:pos + nbytes], dtype="<f8").reshape(shape)
        arrays[meta["name"]] = np.ascontiguousarray(arr, dtype=np.float64)
        flags[meta["name"]] = bool(meta["requires_grad"])
        pos += nbytes
    if pos != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after parameters")
    schema = stats = label_names = None
    if header.get("schema") is not None:
        schema = _schema_from_dict(path, header["schema"])
        if list(schema.vocab_sizes) != header["table_sizes"]:
            raise CheckpointError(
                f"{path}: header schema vocabularies do not match table_sizes")
    if header.get("stats") is not None:
        stats = _stats_from_dict(path, header["stats"],
                                 None if schema is None else schema.n)
    if header.get("label_names") is not None:
        label_names = header["label_names"]
        if not (isinstance(label_names, list)
                and all(isinstance(v, str) for v in label_names)):
            raise CheckpointError(f"{path}: header label_names is not a list of strings")
        label_names = tuple(label_names)
    extra = header.get("extra", {})
    if not isinstance(extra, dict):
        raise CheckpointError(f"{path}: header extra is not a JSON object")
    split_seed = extra.get("split_seed", 0)
    if type(split_seed) is not int or split_seed < 0:
        raise CheckpointError(
            f"{path}: header extra.split_seed {split_seed!r} is not a "
            "non-negative integer")
    return Checkpoint(
        kind=header["kind"],
        model_config=header["model_config"],
        table_sizes=tuple(header["table_sizes"]),
        arrays=arrays,
        flags=flags,
        schema=schema,
        stats=stats,
        label_names=label_names,
        extra=extra,
    )


def _check_stored(ckpt: Checkpoint, name: str, shape) -> None:
    """Reject a missing, misshapen or non-finite stored array ``name``;
    ``shape`` entries of None match any size."""
    if name not in ckpt.arrays:
        raise CheckpointError(f"checkpoint lacks parameter {name}")
    arr = ckpt.arrays[name]
    if len(arr.shape) != len(shape) or any(
            want is not None and got != want for got, want in zip(arr.shape, shape)):
        expected = ["*" if want is None else want for want in shape]
        raise CheckpointError(f"parameter {name} has shape {list(arr.shape)}, "
                              f"expected {expected}")
    if not np.isfinite(arr).all():
        raise CheckpointError(f"parameter {name} holds a non-finite value")


def rebuild_model(ckpt: Checkpoint) -> InContextClassifier:
    """Build the model from the stored parameters and frozen flags.

    Every size the header declares is compared with the stored arrays
    before the model is built, so a header cannot make it allocate more
    than the file holds. The tensors are copies of the stored arrays; no
    parameter is drawn at random.
    """
    try:
        config = ModelConfig(**ckpt.model_config)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint model_config: {exc}") from None
    declared = set()
    shapes = InContextClassifier.parameter_shapes(
        config, None, ckpt.table_sizes, "tokenizer.identifiers" in ckpt.arrays)
    for name, shape in shapes:   # lazy: stops at the first miss
        _check_stored(ckpt, name, shape)
        declared.add(name)
    undeclared = sorted(set(ckpt.arrays) - declared)
    if undeclared:
        raise CheckpointError(
            f"checkpoint stores parameter {undeclared[0]}, which its "
            "model_config does not declare")
    return InContextClassifier.from_arrays(config, ckpt.table_sizes, ckpt.arrays,
                                           ckpt.flags)
