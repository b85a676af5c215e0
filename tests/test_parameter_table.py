"""``InContextClassifier.parameter_shapes`` is the one parameter table: models
built from arrays follow it and make exactly one fresh tensor per entry."""

import numpy as np
import pytest

from conftest import make_mixed_dataset

from tokentab.autodiff import Tensor
from tokentab.checkpoint import load_checkpoint, rebuild_model, save_checkpoint
from tokentab.data import fit_schema
from tokentab.model import InContextClassifier
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
        model.config, tok.w_num.shape[0], tok.table.sizes,
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
        replay.normal(size=model.tokenizer.table.weights.shape)
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
