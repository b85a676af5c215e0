"""``InContextClassifier.parameter_shapes`` is the one parameter table: models
built from arrays follow it and make exactly one fresh tensor per entry,
``create`` draws it by one rule, and ``named_tensors`` is the model's own
mapping, not a list assembled from its parts."""

import numpy as np
import pytest

from conftest import make_mixed_dataset

from tokentab.autodiff import LAYER_PARAMS, Tensor
from tokentab.checkpoint import load_checkpoint, rebuild_model, save_checkpoint
from tokentab.data import fit_schema
from tokentab.model import InContextClassifier, ModelConfig
from tokentab.tokenizer import NAN_ROW
from tokentab.training import FinetuneConfig, build_finetune_model


@pytest.fixture(scope="module")
def schema():
    return fit_schema(make_mixed_dataset(rows=40, seed=2))[0]


def finetuned(backbone, schema, variant="full", trainable="ft_layer_only"):
    cfg = FinetuneConfig(variant=variant, trainable=trainable, seed=3)
    return build_finetune_model(backbone, schema, 2, cfg)


def declared(model):
    tok = model.tokenizer
    return list(InContextClassifier.parameter_shapes(
        model.config, tok.w_num.shape[0], model.table_sizes,
        tok.identifiers is not None))


def count_tensors(monkeypatch):
    """A list that grows by one on every ``Tensor`` construction."""
    made = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        made.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    return made


class TestParameterShapes:
    def test_pretraining_model(self, tiny_backbone):
        assert declared(tiny_backbone) == [
            (name, t.shape) for name, t in tiny_backbone.named_tensors()]

    @pytest.mark.parametrize("variant", ["full", "no_identifiers"])
    def test_finetuned_model(self, tiny_backbone, schema, variant):
        model = finetuned(tiny_backbone, schema, variant)
        assert (model.tokenizer.identifiers is None) == (variant == "no_identifiers")
        assert declared(model) == [(name, t.shape) for name, t in model.named_tensors()]


class TestOneTensorPerParameter:
    @pytest.mark.parametrize("variant", ["full", "no_identifiers"])
    def test_build_finetune_model(self, tiny_backbone, schema, monkeypatch, variant):
        made = count_tensors(monkeypatch)
        model = finetuned(tiny_backbone, schema, variant)
        assert len(made) == len(model.named_tensors())

    def test_rebuild_model(self, tiny_backbone, schema, tmp_path, monkeypatch):
        path = tmp_path / "ft.ckpt"
        save_checkpoint(path, finetuned(tiny_backbone, schema), kind="finetune")
        ckpt = load_checkpoint(path)
        made = count_tensors(monkeypatch)
        model = rebuild_model(ckpt)
        assert len(made) == len(model.named_tensors()) == len(ckpt.arrays)


def record_generators(monkeypatch):
    """A list of (seed arguments, generator) for every ``np.random.default_rng``
    call from now on."""
    made = []
    real = np.random.default_rng

    def recording(*args):
        made.append((args, real(*args)))
        return made[-1][1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    return made


class TestNoDiscardedDraws:
    def test_rebuild_model_draws_nothing(self, tiny_backbone, schema, tmp_path,
                                         monkeypatch):
        path = tmp_path / "ft.ckpt"
        save_checkpoint(path, finetuned(tiny_backbone, schema), kind="finetune")
        ckpt = load_checkpoint(path)
        made = record_generators(monkeypatch)
        rebuild_model(ckpt)
        assert made == []

    @pytest.mark.parametrize("variant", ["full", "no_identifiers"])
    def test_build_finetune_model_draws_table_and_identifiers_only(
            self, tiny_backbone, schema, monkeypatch, variant):
        real = np.random.default_rng
        made = record_generators(monkeypatch)
        model = finetuned(tiny_backbone, schema, variant)
        ((seed, rng),) = made
        replay = real(*seed)
        replay.normal(size=model.tokenizer.table.shape)
        if variant == "full":
            replay.normal(size=model.tokenizer.identifiers.shape)
        assert rng.bit_generator.state == replay.bit_generator.state


class TestNoSharedMemory:
    @pytest.mark.parametrize("trainable", ["ft_layer_only", "full_model"])
    def test_finetuned_model_owns_its_arrays(self, tiny_backbone, schema, tmp_path,
                                             trainable):
        model = finetuned(tiny_backbone, schema, trainable=trainable)
        path = tmp_path / "ft.ckpt"
        save_checkpoint(path, model, kind="finetune")
        ckpt = load_checkpoint(path)
        rebuilt = rebuild_model(ckpt)
        sources = ([t.data for _, t in tiny_backbone.named_tensors()]
                   + list(ckpt.arrays.values()))
        for built in (model, rebuilt):
            for name, t in built.named_tensors():
                assert not any(np.shares_memory(t.data, s) for s in sources), name
        for (name, a), (_, b) in zip(model.named_tensors(), rebuilt.named_tensors()):
            assert a.data.tobytes() == b.data.tobytes(), name
            assert a.requires_grad == b.requires_grad, name


class TestCreate:
    CONFIG = ModelConfig(embed_dim=8, layers=2, heads=2, ff_dim=12, max_classes=3)

    def test_draws_each_matrix_once_in_table_order(self):
        rng = np.random.default_rng(5)
        model = InContextClassifier.create(self.CONFIG, 3, (2, 4), rng)
        replay = np.random.default_rng(5)
        for name, t in model.named_tensors():
            if t.data.ndim == 1:
                fill = 1.0 if name.endswith("_g") else 0.0
                assert np.array_equal(t.data, np.full(t.shape, fill)), name
                continue
            rows = t.shape[0] if name.startswith("layers.") else 8
            expected = replay.normal(0.0, 1.0 / np.sqrt(rows), size=t.shape)
            if name == "tokenizer.table":
                expected[NAN_ROW] = 0.0
            assert t.data.tobytes() == expected.tobytes(), name
            assert t.requires_grad, name
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_follows_the_table_with_identifiers(self):
        model = InContextClassifier.create(self.CONFIG, 3, (2, 4),
                                           np.random.default_rng(0))
        assert declared(model) == [(name, t.shape) for name, t in model.named_tensors()]
        assert model.tokenizer.identifiers is not None


def held_by_parts(model):
    """Name -> the tensor the tokenizer, label term, layers and head use."""
    tok = model.tokenizer
    held = {"tokenizer.w_num": tok.w_num, "tokenizer.table": tok.table}
    if tok.identifiers is not None:
        held["tokenizer.identifiers"] = tok.identifiers
    held["label_embed"] = model.label_weights
    for i, layer in enumerate(model.layers):
        held.update({f"layers.{i}.{n}": getattr(layer, n) for n in LAYER_PARAMS})
    held.update({"head.w": model.head_w, "head.b": model.head_b})
    return held


class TestNamedTensorsAreTheModelsOwn:
    def test_created_model(self):
        model = InContextClassifier.create(TestCreate.CONFIG, 2, (3,),
                                           np.random.default_rng(1))
        self.assert_same(model)

    def test_pretraining_model(self, tiny_backbone):
        self.assert_same(tiny_backbone)

    @pytest.mark.parametrize("variant", ["full", "no_identifiers"])
    def test_finetuned_and_rebuilt_model(self, tiny_backbone, schema, tmp_path,
                                         variant):
        model = finetuned(tiny_backbone, schema, variant)
        self.assert_same(model)
        path = tmp_path / "ft.ckpt"
        save_checkpoint(path, model, kind="finetune")
        self.assert_same(rebuild_model(load_checkpoint(path)))

    @staticmethod
    def assert_same(model):
        named = model.named_tensors()
        held = held_by_parts(model)
        assert [name for name, _ in named] == list(held)
        for name, t in named:
            assert t is held[name], name
