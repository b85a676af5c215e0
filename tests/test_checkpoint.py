import pytest

from conftest import make_rule_dataset

from tokentab.checkpoint import (
    CheckpointError,
    load_checkpoint,
    rebuild_model,
    save_checkpoint,
)
from tokentab.data import fit_schema, split_train_test
from tokentab.training import FinetuneConfig, build_finetune_model


def test_round_trip_is_bit_exact(tiny_backbone, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tiny_backbone, kind="pretrain", extra={"note": "x"})
    ckpt = load_checkpoint(path)
    rebuilt = rebuild_model(ckpt)
    assert ckpt.kind == "pretrain"
    assert ckpt.extra == {"note": "x"}
    for (name_a, a), (name_b, b) in zip(tiny_backbone.named_tensors(),
                                        rebuilt.named_tensors()):
        assert name_a == name_b
        assert a.data.tobytes() == b.data.tobytes()
        assert a.requires_grad == b.requires_grad


def test_identical_state_serializes_to_identical_bytes(tiny_backbone, tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, tiny_backbone, kind="pretrain")
    save_checkpoint(p2, tiny_backbone, kind="pretrain")
    assert p1.read_bytes() == p2.read_bytes()


def test_frozen_flags_survive_round_trip(tiny_backbone, tmp_path):
    raw = make_rule_dataset(rows=60, seed=4)
    train_raw, _ = split_train_test(raw, 0)
    schema, stats = fit_schema(train_raw)
    cfg = FinetuneConfig(seed=0)
    model = build_finetune_model(tiny_backbone, schema, 2, cfg)
    path = tmp_path / "ft.ckpt"
    save_checkpoint(path, model, kind="finetune", schema=schema, stats=stats,
                    label_names=raw.label_names,
                    extra={"split_seed": 0})
    ckpt = load_checkpoint(path)
    rebuilt = rebuild_model(ckpt)
    assert not rebuilt.tokenizer.w_num.requires_grad
    assert rebuilt.tokenizer.table.requires_grad
    assert rebuilt.head_w.requires_grad
    assert not rebuilt.label_weights.requires_grad  # ft-layer-only default


def test_schema_and_stats_round_trip(tiny_backbone, tmp_path):
    raw = make_rule_dataset(rows=60, seed=4)
    train_raw, _ = split_train_test(raw, 0)
    schema, stats = fit_schema(train_raw)
    cfg = FinetuneConfig(seed=0)
    model = build_finetune_model(tiny_backbone, schema, 2, cfg)
    path = tmp_path / "ft.ckpt"
    save_checkpoint(path, model, kind="finetune", schema=schema, stats=stats,
                    label_names=raw.label_names)
    ckpt = load_checkpoint(path)
    assert ckpt.schema == schema
    assert ckpt.stats == stats
    assert ckpt.label_names == raw.label_names


def test_no_identifier_checkpoint_round_trips(tiny_backbone, tmp_path):
    raw = make_rule_dataset(rows=60, seed=4)
    train_raw, _ = split_train_test(raw, 0)
    schema, _ = fit_schema(train_raw)
    cfg = FinetuneConfig(seed=0, variant="no_identifiers")
    model = build_finetune_model(tiny_backbone, schema, 2, cfg)
    path = tmp_path / "ni.ckpt"
    save_checkpoint(path, model, kind="finetune")
    rebuilt = rebuild_model(load_checkpoint(path))
    assert rebuilt.tokenizer.identifiers is None


def test_not_a_checkpoint_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_short_or_garbled_files_rejected(tmp_path, tiny_backbone):
    path = tmp_path / "tiny.ckpt"
    path.write_bytes(b"TTCK")  # magic only, no version or header
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    save_checkpoint(path, tiny_backbone, kind="pretrain")
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0xFF  # corrupt the JSON header
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_truncated_checkpoint_rejected(tiny_backbone, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tiny_backbone, kind="pretrain")
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_unsupported_version_rejected(tiny_backbone, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tiny_backbone, kind="pretrain")
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
