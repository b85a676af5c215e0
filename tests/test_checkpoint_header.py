"""Checkpoint headers that lie: every one exits 2 (or runs) through ``main()``.

Each test rewrites the JSON header of a real checkpoint and keeps the
parameter bytes, then runs ``evaluate`` or ``export-heatmaps`` on it.
"""

import json
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_mixed_dataset, write_dataset_csv

from tokentab.checkpoint import save_checkpoint
from tokentab.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from tokentab.model import ModelConfig
from tokentab.prior import PriorConfig, build_pretraining_model


def read_header(path):
    blob = path.read_bytes()
    size = int.from_bytes(blob[8:16], "little")
    return json.loads(blob[16:16 + size]), blob[16 + size:]


def write_header(path, header, body):
    text = json.dumps(header).encode("utf-8")
    path.write_bytes(b"TTCK" + (1).to_bytes(4, "little")
                     + len(text).to_bytes(8, "little") + text + body)


@pytest.fixture(scope="module")
def finetuned(tmp_path_factory):
    """(checkpoint, descriptor) of a model fine-tuned on 2 numerical and 2
    categorical columns, so every header key is in use."""
    root = tmp_path_factory.mktemp("finetuned")
    descriptor = write_dataset_csv(root, make_mixed_dataset(rows=40, seed=2))
    pre = root / "pre"
    assert main(["pretrain", "--out", str(pre), "--episodes", "4",
                 "--embed_dim", "8", "--layers", "1", "--heads", "2",
                 "--ff_dim", "16", "--holdout", "0", "--prior_max_features", "3",
                 "--prior_samples_min", "16", "--prior_samples_max", "24"]) == EXIT_OK
    out = root / "ft"
    assert main(["finetune", "--data", str(descriptor),
                 "--checkpoint", str(pre / "checkpoint.ckpt"), "--out", str(out),
                 "--epochs", "1", "--steps_per_epoch", "1", "--seeds", "0"]) == EXIT_OK
    return out / "checkpoint_full_seed0.ckpt", descriptor


def run_both(ckpt, descriptor, out):
    """Exit codes of ``evaluate`` and ``export-heatmaps`` on one checkpoint."""
    return (main(["evaluate", "--data", str(descriptor), "--checkpoint", str(ckpt)]),
            main(["export-heatmaps", "--checkpoint", str(ckpt), "--out", str(out)]))


def _set(*path_and_value):
    *path, value = path_and_value

    def edit(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _drop_vocabulary(header):
    del header["schema"]["columns"][-1]["vocabulary"]


class TestHeaderTypes:
    @pytest.mark.parametrize("edit, named", [
        (_set("stats", []), "stats"),
        (_set("stats", "means", 1), "stats.means"),
        (_set("stats", "means", []), "stats.means"),
        (_set("schema", "columns", 5), "schema.columns"),
        (_drop_vocabulary, "schema.columns[3]"),
        (_set("schema", "columns", 2, "vocabulary", 3), "schema.columns[2]"),
        (_set("label_names", 7), "label_names"),
        (_set("extra", []), "extra"),
        (_set("extra", "split_seed", "x"), "extra.split_seed"),
        (_set("extra", "split_seed", -1), "extra.split_seed"),
        (_set("model_config", "heads", 0), "heads"),
        (_set("model_config", "embed_dim", 64.0), "embed_dim"),
    ])
    def test_mistyped_header_value_is_data_error(self, finetuned, tmp_path, capsys,
                                                 edit, named):
        source, descriptor = finetuned
        header, body = read_header(source)
        edit(header)
        ckpt = tmp_path / "edited.ckpt"
        write_header(ckpt, header, body)
        capsys.readouterr()
        assert run_both(ckpt, descriptor, tmp_path / "heat") == (EXIT_DATA, EXIT_DATA)
        err = capsys.readouterr().err
        assert err.count(named) >= 2, err


@pytest.fixture(scope="module")
def acceptance_size_checkpoint(tmp_path_factory):
    """A pretraining checkpoint at the default model size (64-dim, 3 layers,
    ff 128): about 0.8 MB of parameters."""
    model = build_pretraining_model(PriorConfig(), ModelConfig())
    path = tmp_path_factory.mktemp("sized") / "checkpoint.ckpt"
    save_checkpoint(path, model, kind="pretrain")
    return path


class TestHeaderSizes:
    @pytest.mark.parametrize("edit, named", [
        (_set("model_config", "ff_dim", 20000), "layers.0.w1"),
        (_set("table_sizes", -1, 100000), "tokenizer.table"),
        (_set("model_config", "layers", 60), "layers.3"),
    ])
    def test_declared_size_is_checked_before_allocating(
            self, acceptance_size_checkpoint, tmp_path, capsys, edit, named):
        header, body = read_header(acceptance_size_checkpoint)
        edit(header)
        ckpt = tmp_path / "edited.ckpt"
        write_header(ckpt, header, body)
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(["export-heatmaps", "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "heat")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_DATA
        assert named in capsys.readouterr().err
        assert peak < 8 * 2**20


# JSON values of depth <= 2 with small sizes; dictionary keys are often the
# names the header uses, so nested objects reach the checks behind them
_KEYS = st.sampled_from(["means", "stds", "columns", "name", "kind", "vocabulary",
                         "split_seed", "numerical", "categorical"]) | st.text(max_size=3)
_SCALARS = (st.none() | st.booleans() | st.integers(-2, 300)
            | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4))
_FLAT = (_SCALARS | st.lists(_SCALARS, max_size=4)
         | st.dictionaries(_KEYS, _SCALARS, max_size=3))
_VALUES = (_SCALARS | st.lists(_FLAT, max_size=4)
           | st.dictionaries(_KEYS, _FLAT, max_size=3))

_TOP_KEYS = ["format_version", "kind", "model_config", "table_sizes", "params",
             "schema", "stats", "label_names", "extra"]
_CONFIG_KEYS = ["embed_dim", "layers", "heads", "ff_dim", "max_classes"]


class TestHeaderFuzz:
    @given(key=st.sampled_from(["top." + k for k in _TOP_KEYS]
                               + ["model_config." + k for k in _CONFIG_KEYS]),
           value=_VALUES)
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_header_value_gives_an_exit_code(self, finetuned, tmp_path, key, value):
        source, descriptor = finetuned
        header, body = read_header(source)
        scope, name = key.split(".")
        (header if scope == "top" else header["model_config"])[name] = value
        ckpt = tmp_path / "fuzzed.ckpt"
        write_header(ckpt, header, body)
        codes = run_both(ckpt, descriptor, tmp_path / "heat")
        assert set(codes) <= {EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC}
