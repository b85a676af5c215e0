import json
import runpy
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import make_rule_dataset, write_dataset_csv

from tokentab.checkpoint import load_checkpoint, rebuild_model
from tokentab.cli import (EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                          load_descriptor, main)
from tokentab.config import FINETUNE, GRAD_CHECK, PRETRAIN, as_kv, render_kv, resolve
from tokentab.data import encode, split_train_test
from tokentab.metrics import accuracy, roc_auc_ovo
from tokentab.tokenizer import category_gram_matrix, identifier_gram_matrix
from tokentab.training import full_support_episode

SMALL_PRETRAIN = [
    "--episodes", "12", "--embed_dim", "8", "--layers", "1", "--heads", "2",
    "--ff_dim", "16", "--holdout", "2", "--prior_max_features", "3",
    "--prior_samples_min", "16", "--prior_samples_max", "24",
]


def run_pretrain(out_dir, extra=()):
    code = main(["pretrain", "--out", str(out_dir), *SMALL_PRETRAIN, *extra])
    assert code == EXIT_OK
    return out_dir / "checkpoint.ckpt"


@pytest.fixture()
def dataset_descriptor(tmp_path):
    raw = make_rule_dataset(rows=44, seed=6)
    return write_dataset_csv(tmp_path, raw)


class TestPretrainCommand:
    def test_smoke_run_writes_loadable_checkpoint(self, tmp_path, capsys):
        ckpt_path = run_pretrain(tmp_path / "run")
        model = rebuild_model(load_checkpoint(ckpt_path))
        assert model.config.embed_dim == 8
        assert (tmp_path / "run" / "config.resolved").exists()
        assert (tmp_path / "run" / "pretrain_log.jsonl").exists()

    def test_same_seed_identical_checkpoint_bytes(self, tmp_path, capsys):
        a = run_pretrain(tmp_path / "a")
        b = run_pretrain(tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a" / "pretrain_log.jsonl").read_bytes() == \
            (tmp_path / "b" / "pretrain_log.jsonl").read_bytes()

    def test_config_file_merges_under_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("episodes = 5\nembed_dim = 8\nlayers = 1\nheads = 2\n"
                       "ff_dim = 16\nprior_max_features = 3\n"
                       "prior_samples_min = 16\nprior_samples_max = 24\n")
        code = main(["pretrain", "--config", str(cfg),
                     "--out", str(tmp_path / "run"), "--episodes", "3"])
        assert code == EXIT_OK
        resolved = (tmp_path / "run" / "config.resolved").read_text()
        assert "episodes = 3" in resolved  # flag overrides file

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("episodess = 5\n")
        code = main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "episodess" in capsys.readouterr().err

    def test_invalid_value_names_the_field(self, tmp_path, capsys):
        code = main(["pretrain", "--out", str(tmp_path / "o"),
                     "--prior_noise", "0.9"])
        assert code == EXIT_USAGE
        assert "noise" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_flag_is_usage_error(self, tmp_path, capsys, value):
        code = main(["pretrain", "--out", str(tmp_path / "o"), f"--lr={value}"])
        assert code == EXIT_USAGE
        assert "'lr'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_finite_float_in_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("prior_noise = nan\n")
        code = main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "prior_noise" in capsys.readouterr().err


class TestFinetuneCommand:
    def finetune_args(self, ckpt, descriptor, out, variant="full"):
        return ["finetune", "--data", str(descriptor), "--checkpoint", str(ckpt),
                "--out", str(out), "--epochs", "2", "--steps_per_epoch", "1",
                "--seeds", "0,1,2,3,4", "--variant", variant]

    def test_report_has_five_entries(self, tmp_path, dataset_descriptor, capsys):
        ckpt = run_pretrain(tmp_path / "pre")
        out = tmp_path / "ft"
        assert main(self.finetune_args(ckpt, dataset_descriptor, out)) == EXIT_OK
        lines = (out / "report_full.jsonl").read_text().strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert len([r for r in records if "seed" in r]) == 5
        assert records[-1]["aggregate"] == "mean"

    def test_variant_flags_write_distinct_report_files(self, tmp_path,
                                                       dataset_descriptor, capsys):
        ckpt = run_pretrain(tmp_path / "pre")
        out = tmp_path / "ft"
        for variant in ("full", "no_identifiers", "no_regularization"):
            args = self.finetune_args(ckpt, dataset_descriptor, out, variant)
            assert main(args) == EXIT_OK
        assert (out / "report_full.jsonl").exists()
        assert (out / "report_no_identifiers.jsonl").exists()
        assert (out / "report_no_regularization.jsonl").exists()
        assert (out / "config_full.resolved").exists()

    def test_rerun_produces_byte_identical_outputs(self, tmp_path,
                                                   dataset_descriptor, capsys):
        ckpt = run_pretrain(tmp_path / "pre")
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            assert main(self.finetune_args(ckpt, dataset_descriptor, out)) == EXIT_OK
            outs.append(out)
        for fname in ("report_full.jsonl", "report_full.txt",
                      "checkpoint_full_seed0.ckpt", "trainlog_full_seed3.jsonl"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        ckpt = run_pretrain(tmp_path / "pre")
        desc = tmp_path / "none.descriptor"
        desc.write_text("csv = missing.csv\ntarget = label\n")
        code = main(self.finetune_args(ckpt, desc, tmp_path / "ft"))
        assert code == EXIT_DATA

    def test_non_utf8_csv_is_data_error(self, tmp_path, dataset_descriptor, capsys):
        ckpt = run_pretrain(tmp_path / "pre")
        csv_path = dataset_descriptor.parent / "data.csv"
        csv_path.write_bytes(csv_path.read_bytes() + b"\xff,\xfe,1\n")
        code = main(self.finetune_args(ckpt, dataset_descriptor, tmp_path / "ft"))
        assert code == EXIT_DATA
        assert "not UTF-8" in capsys.readouterr().err

    def test_bad_variant_is_usage_error(self, tmp_path, dataset_descriptor, capsys):
        ckpt = run_pretrain(tmp_path / "pre")
        args = self.finetune_args(ckpt, dataset_descriptor, tmp_path / "ft",
                                  variant="nope")
        assert main(args) == EXIT_USAGE

    def test_each_checkpoint_records_its_own_seed(self, tmp_path,
                                                  dataset_descriptor, capsys):
        ckpt = run_pretrain(tmp_path / "pre")
        out = tmp_path / "ft"
        assert main(["finetune", "--data", str(dataset_descriptor),
                     "--checkpoint", str(ckpt), "--out", str(out),
                     "--epochs", "1", "--steps_per_epoch", "1",
                     "--seeds", "2,0"]) == EXIT_OK
        for seed in (2, 0):
            extra = load_checkpoint(out / f"checkpoint_full_seed{seed}.ckpt").extra
            assert extra["split_seed"] == seed
            assert extra["finetune"]["seed"] == seed


class TestEvaluateCommand:
    @staticmethod
    def finetuned(tmp_path, descriptor):
        """The seed-0 checkpoint of a one-epoch fine-tune."""
        out = tmp_path / "ft"
        assert main(["finetune", "--data", str(descriptor),
                     "--checkpoint", str(run_pretrain(tmp_path / "pre")),
                     "--out", str(out), "--epochs", "1", "--steps_per_epoch", "1",
                     "--seeds", "0"]) == EXIT_OK
        return out / "checkpoint_full_seed0.ckpt"

    def test_out_dir_holds_the_printed_result_and_its_inputs(
            self, tmp_path, dataset_descriptor, capsys):
        ckpt = self.finetuned(tmp_path, dataset_descriptor)
        out = tmp_path / "ev"
        capsys.readouterr()
        assert main(["evaluate", "--data", str(dataset_descriptor),
                     "--checkpoint", str(ckpt), "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert (out / "evaluation.json").read_text() == printed
        assert json.loads(printed)["split_seed"] == 0
        assert (out / "config.resolved").read_text() == (
            f"checkpoint = {ckpt}\ndata = {dataset_descriptor}\nsplit_seed = 0\n")

    def test_split_seed_flag_scores_that_split(self, tmp_path, dataset_descriptor,
                                               capsys):
        ckpt_path = self.finetuned(tmp_path, dataset_descriptor)
        capsys.readouterr()
        assert main(["evaluate", "--data", str(dataset_descriptor),
                     "--checkpoint", str(ckpt_path), "--split-seed", "3"]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        ckpt = load_checkpoint(ckpt_path)
        train_raw, test_raw = split_train_test(load_descriptor(dataset_descriptor), 3)
        train = encode(train_raw, ckpt.schema, ckpt.stats)
        test = encode(test_raw, ckpt.schema, ckpt.stats)
        probs = rebuild_model(ckpt).predict_proba(full_support_episode(train, test)).data
        assert result == {"split_seed": 3, "auc_ovo": roc_auc_ovo(probs, test.labels),
                          "accuracy": accuracy(probs, test.labels),
                          "test_rows": len(test)}

    def test_evaluate_reports_metrics(self, tmp_path, dataset_descriptor, capsys):
        ckpt = run_pretrain(tmp_path / "pre")
        out = tmp_path / "ft"
        main(["finetune", "--data", str(dataset_descriptor),
              "--checkpoint", str(ckpt), "--out", str(out),
              "--epochs", "2", "--steps_per_epoch", "1", "--seeds", "0"])
        capsys.readouterr()
        code = main(["evaluate", "--data", str(dataset_descriptor),
                     "--checkpoint", str(out / "checkpoint_full_seed0.ckpt")])
        assert code == EXIT_OK
        result = json.loads(capsys.readouterr().out.strip())
        assert result["split_seed"] == 0
        assert 0.0 <= result["auc_ovo"] <= 1.0

    def test_pretrain_checkpoint_rejected(self, tmp_path, dataset_descriptor, capsys):
        ckpt = run_pretrain(tmp_path / "pre")
        code = main(["evaluate", "--data", str(dataset_descriptor),
                     "--checkpoint", str(ckpt)])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("key", ["params", "kind", "model_config", "table_sizes"])
    def test_checkpoint_header_without_key_is_data_error(
            self, tmp_path, dataset_descriptor, capsys, key):
        ckpt = run_pretrain(tmp_path / "pre")
        blob = ckpt.read_bytes()
        header_len = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + header_len])
        del header[key]
        text = json.dumps(header).encode("utf-8")
        ckpt.write_bytes(blob[:8] + len(text).to_bytes(8, "little") + text
                         + blob[16 + header_len:])
        capsys.readouterr()
        code = main(["evaluate", "--data", str(dataset_descriptor),
                     "--checkpoint", str(ckpt)])
        assert code == EXIT_DATA
        assert key in capsys.readouterr().err


class TestExportHeatmaps:
    def test_matrices_match_in_process_values(self, tmp_path, dataset_descriptor,
                                              capsys):
        ckpt = run_pretrain(tmp_path / "pre")
        out = tmp_path / "ft"
        main(["finetune", "--data", str(dataset_descriptor),
              "--checkpoint", str(ckpt), "--out", str(out),
              "--epochs", "1", "--steps_per_epoch", "1", "--seeds", "0"])
        ft_ckpt = out / "checkpoint_full_seed0.ckpt"
        heat = tmp_path / "heat"
        assert main(["export-heatmaps", "--checkpoint", str(ft_ckpt),
                     "--out", str(heat)]) == EXIT_OK
        model = rebuild_model(load_checkpoint(ft_ckpt))

        cat = np.loadtxt(heat / "category_gram.csv", delimiter=",", skiprows=1)
        assert np.array_equal(cat, category_gram_matrix(model.tokenizer.table))
        ident = np.loadtxt(heat / "identifier_gram.csv", delimiter=",", skiprows=1)
        assert np.array_equal(ident,
                              identifier_gram_matrix(model.tokenizer.identifiers))
        n_rows = model.tokenizer.table.shape[0]
        assert cat.shape == (n_rows, n_rows)
        m = model.tokenizer.identifiers.shape[0]
        assert ident.shape == (m, m)

    def test_orthonormal_identifiers_export_identity(self, tmp_path,
                                                     dataset_descriptor, capsys):
        ckpt = run_pretrain(tmp_path / "pre")
        out = tmp_path / "ft"
        main(["finetune", "--data", str(dataset_descriptor),
              "--checkpoint", str(ckpt), "--out", str(out),
              "--epochs", "1", "--steps_per_epoch", "1", "--seeds", "0"])
        ft_ckpt = out / "checkpoint_full_seed0.ckpt"
        ckpt_obj = load_checkpoint(ft_ckpt)
        model = rebuild_model(ckpt_obj)
        model.tokenizer.identifiers.data[...] = np.eye(
            *model.tokenizer.identifiers.shape)
        from tokentab.checkpoint import save_checkpoint

        forced = tmp_path / "forced.ckpt"
        save_checkpoint(forced, model, kind="finetune", schema=ckpt_obj.schema,
                        stats=ckpt_obj.stats, label_names=ckpt_obj.label_names)
        heat = tmp_path / "heat2"
        assert main(["export-heatmaps", "--checkpoint", str(forced),
                     "--out", str(heat)]) == EXIT_OK
        ident = np.loadtxt(heat / "identifier_gram.csv", delimiter=",", skiprows=1)
        assert np.allclose(ident, np.eye(ident.shape[0]), atol=1e-12)

    def test_no_identifier_checkpoint_warns_and_writes_category_only(
            self, tmp_path, dataset_descriptor, capsys):
        ckpt = run_pretrain(tmp_path / "pre")
        out = tmp_path / "ft"
        main(["finetune", "--data", str(dataset_descriptor),
              "--checkpoint", str(ckpt), "--out", str(out),
              "--epochs", "1", "--steps_per_epoch", "1", "--seeds", "0",
              "--variant", "no_identifiers"])
        ni_ckpt = out / "checkpoint_no_identifiers_seed0.ckpt"
        heat = tmp_path / "heat3"
        capsys.readouterr()
        assert main(["export-heatmaps", "--checkpoint", str(ni_ckpt),
                     "--out", str(heat)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert (heat / "category_gram.csv").exists()
        assert not (heat / "identifier_gram.csv").exists()


class TestGradCheckCommand:
    def test_default_config_passes(self, tmp_path, capsys):
        code = main(["grad-check", "--layers", "1", "--out", str(tmp_path / "gc")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 4 and "FAIL" not in out
        assert (tmp_path / "gc" / "gradcheck.txt").exists()
        assert (tmp_path / "gc" / "config.resolved").exists()

    def test_impossible_tolerance_fails_with_numeric_exit(self, capsys):
        code = main(["grad-check", "--layers", "1", "--tolerance", "1e-30"])
        assert code == EXIT_NUMERIC
        assert "FAIL" in capsys.readouterr().out


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert main(["pretrain"]) == EXIT_USAGE


class TestSettingsExitCodes:
    @pytest.mark.parametrize("argv, named", [
        (["pretrain", "--seed", "-1"], "seed"),
        (["finetune", "--data", "d", "--checkpoint", "c", "--seeds", "-2"], "seeds"),
        (["grad-check", "--seed", "-1"], "seed"),
        (["evaluate", "--data", "d", "--checkpoint", "c", "--split-seed", "-1"],
         "split-seed"),
        (["pretrain", "--heads", "0"], "heads"),
        (["grad-check", "--heads", "0"], "heads"),
        (["pretrain", "--layers", "0"], "layers"),
        (["grad-check", "--eps", "1"], "eps"),
        (["pretrain", "--log_every", "0"], "log_every"),
        (["pretrain", "--max_classes", "2"], "max_classes"),
        (["pretrain", "--episodes", "-1"], "episodes"),
        (["pretrain", "--holdout", "-1"], "holdout"),
        # finetune refuses its settings before it reads the checkpoint and data
        (["finetune", "--data", "d", "--checkpoint", "c", "--variant", "bogus"],
         "variant"),
        (["finetune", "--data", "d", "--checkpoint", "c", "--epochs", "-1"],
         "epochs"),
        (["finetune", "--data", "d", "--checkpoint", "c", "--lambda_orth", "-1"],
         "lambda_orth"),
        (["finetune", "--data", "d", "--checkpoint", "c",
          "--support_fraction", "1.5"], "support_fraction"),
        (["finetune", "--data", "d", "--checkpoint", "c",
          "--steps_per_epoch", "0"], "steps_per_epoch"),
        (["finetune", "--data", "d", "--checkpoint", "c", "--trainable", "nope"],
         "trainable"),
        (["grad-check", "--tolerance", "0"], "tolerance"),
        (["grad-check", "--tolerance", "-1"], "tolerance"),
        (["finetune", "--data", "d", "--checkpoint", "c", "--seeds", "0,1,0"],
         "seed 0"),
        (["pretrain", "--lr", "-5"], "key 'lr' must be > 0"),
        (["pretrain", "--lr", "0"], "key 'lr' must be > 0"),
        (["finetune", "--data", "d", "--checkpoint", "c", "--lr", "0"],
         "lr must be finite and > 0"),
    ])
    def test_unusable_setting_is_usage_error(self, tmp_path, capsys, argv, named):
        if argv[0] in ("pretrain", "finetune"):
            argv = [*argv, "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


#: every key of each command with its default, as a default config.resolved
#: renders them
DEFAULT_RESOLVED = {
    "pretrain": (PRETRAIN, """\
embed_dim = 64
episodes = 2000
ff_dim = 128
heads = 4
holdout = 20
layers = 3
log_every = 50
lr = 0.001
max_classes = 4
prior_classes_max = 3
prior_classes_min = 2
prior_max_categories = 6
prior_max_features = 5
prior_min_class_fraction = 0.05
prior_noise = 0.05
prior_samples_max = 96
prior_samples_min = 48
prior_weight_linear = 0.4
prior_weight_mlp = 0.3
prior_weight_rule = 0.3
seed = 0
"""),
    "finetune": (FINETUNE, """\
epochs = 30
lambda_orth = 1.0
lr = 0.001
seeds = 0,1,2,3,4
steps_per_epoch = 4
support_fraction = 0.7
trainable = ft_layer_only
variant = full
"""),
    "grad-check": (GRAD_CHECK, """\
embed_dim = 8
eps = 1e-05
ff_dim = 16
heads = 2
layers = 2
max_classes = 3
seed = 0
tolerance = 0.0001
"""),
}


@pytest.mark.parametrize("command", sorted(DEFAULT_RESOLVED))
def test_default_keys_and_values_of_each_command(command):
    bindings, text = DEFAULT_RESOLVED[command]
    assert render_kv(as_kv(bindings, resolve(bindings, None, None))) == text


@pytest.mark.parametrize("command, declared", [
    ("pretrain", 5), ("finetune", 1), ("grad-check", 3)])
def test_settings_classes_declare_no_runtime_config_key(command, declared):
    """A command's settings class holds only the keys that none of the
    ``ModelConfig``, ``PriorConfig`` or ``FinetuneConfig`` it builds has."""
    settings, *runtime = DEFAULT_RESOLVED[command][0]
    names = [f.name for f in fields(settings.defaults)]
    keyed = [(key, f.name) for binding in runtime for key, f in binding.keyed()]
    assert not set(names) & {word for pair in keyed for word in pair}
    assert len({key for key, _ in keyed}) == len(keyed)
    assert len(names) == declared


SCRIPTS = Path(__file__).parents[1] / "scripts"


def run_script(monkeypatch, name, *argv):
    """The exit code of ``scripts/<name>`` run with ``argv``."""
    script = str(SCRIPTS / name)
    monkeypatch.setattr(sys, "argv", [script, *argv])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(script, run_name="__main__")
    return stop.value.code


def run_compare_variants(monkeypatch, *argv):
    return run_script(monkeypatch, "compare_variants.py", *argv)


EPOCH = {"epoch": 0, "train_loss": 0.5, "train_accuracy": 0.75, "train_auc": 0.8,
         "test_accuracy": None, "test_auc": None}


#: the bytes of an unusable training log (None: no file), and what the
#: message names
BAD_LOGS = {
    "missing file": (None, "No such file"),
    "not JSON": (json.dumps(EPOCH).encode() + b"\n{epoch: 1\n", "b.jsonl: line 2: "),
    "missing keys": (b'{"epoch": 0}\n', "b.jsonl: line 1: "),
    "not a record": (b"[0.5]\n", "b.jsonl: line 1: "),
    "not UTF-8": (b"\xff\xfe\n", "b.jsonl: 'utf-8' codec"),
}


@pytest.mark.parametrize("case", sorted(BAD_LOGS))
def test_average_train_logs_reports_data_errors_in_one_line(
        tmp_path, monkeypatch, capsys, case):
    """``scripts/average_train_logs.py`` exits 2 with one message line on an
    unreadable log and averages readable ones."""
    good = tmp_path / "a.jsonl"
    good.write_text(json.dumps(EPOCH) + "\n", encoding="utf-8")
    out = tmp_path / "avg.jsonl"
    assert run_script(monkeypatch, "average_train_logs.py", str(good), str(good),
                      "--out", str(out)) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["train_auc"] == 0.8
    data, named = BAD_LOGS[case]
    bad = tmp_path / "b.jsonl"
    if data is not None:
        bad.write_bytes(data)
    capsys.readouterr()
    assert run_script(monkeypatch, "average_train_logs.py", str(good), str(bad),
                      "--out", str(out)) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("seeds, named", [
    ("0,1,0", "seed 0 more than once"),
    ("-1", "seeds >= 0"),
    ("0,x", "invalid value"),
])
def test_compare_variants_reads_seeds_by_the_finetune_rule(monkeypatch, capsys,
                                                           seeds, named):
    """``scripts/compare_variants.py`` refuses the seed lists ``finetune``
    refuses, as a usage error before it reads any file."""
    assert run_compare_variants(monkeypatch, "--data", "d", "--checkpoint", "c",
                                f"--seeds={seeds}") == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("flag, named", [
    ("--epochs=-1", "epochs must be >= 0"),
    ("--lambda_orth=-1", "lambda_orth must be >= 0"),
    ("--lambda_orth=nan", "lambda_orth must be finite"),
    ("--lambda_orth=inf", "lambda_orth must be finite"),
    ("--lr=nan", "lr must be finite and > 0"),
    ("--lr=inf", "lr must be finite and > 0"),
    ("--lr=0", "lr must be finite and > 0"),
    ("--lr=-1e-3", "lr must be finite and > 0"),
    ("--steps_per_epoch=0", "steps_per_epoch must be >= 1"),
])
def test_compare_variants_refuses_settings_before_reading_files(
        monkeypatch, capsys, flag, named):
    assert run_compare_variants(monkeypatch, "--data", "d", "--checkpoint", "c",
                                flag) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("case, code, named", [
    ("missing checkpoint", EXIT_DATA, "data error: "),
    ("missing csv", EXIT_DATA, "data error: "),
    ("huge orthogonality weight", EXIT_NUMERIC, "numeric error: orthogonality"),
])
def test_compare_variants_reports_package_errors_in_one_line(
        tmp_path, dataset_descriptor, monkeypatch, capsys, case, code, named):
    """Data errors exit 2 and numeric failures 3, as ``tokentab`` does."""
    ckpt = run_pretrain(tmp_path / "pre")
    argv = ["--data", str(dataset_descriptor), "--checkpoint", str(ckpt),
            "--epochs", "1", "--steps_per_epoch", "1", "--seeds", "0"]
    if case == "missing checkpoint":
        argv[3] = str(tmp_path / "none.ckpt")
    elif case == "missing csv":
        (dataset_descriptor.parent / "data.csv").unlink()
    else:
        argv += ["--lambda_orth", "1e308"]
    capsys.readouterr()
    assert run_compare_variants(monkeypatch, *argv) == code
    err = capsys.readouterr().err
    assert err.startswith(named) and err.count("\n") == 1


def _drop_shape(header, body):
    del header["params"][0]["shape"]
    return body


def _drop_last_param(header, body):
    last = header["params"].pop()
    return body[:len(body) - 8 * int(np.prod(last["shape"]))]


def _params_as_object(header, body):
    header["params"] = {p["name"]: p for p in header["params"]}
    return body


def _transpose_head_w(header, body):
    (entry,) = [p for p in header["params"] if p["name"] == "head.w"]
    entry["shape"] = entry["shape"][::-1]   # same byte count, wrong layout
    return body


def _unknown_model_config_key(header, body):
    header["model_config"]["depth"] = 2
    return body


def _table_sizes_as_text(header, body):
    header["table_sizes"] = [str(v) for v in header["table_sizes"]]
    return body


class TestMalformedCheckpointParams:
    @pytest.mark.parametrize("edit, named", [
        (_drop_shape, "tokenizer.w_num"),
        (_drop_last_param, "head.b"),
        (_params_as_object, "params"),
        (_transpose_head_w, "head.w"),
        (_unknown_model_config_key, "model_config"),
        (_table_sizes_as_text, "table_sizes"),
    ])
    def test_bad_parameter_header_is_data_error(
            self, tmp_path, dataset_descriptor, capsys, edit, named):
        pre = run_pretrain(tmp_path / "pre")
        out = tmp_path / "ft"
        assert main(["finetune", "--data", str(dataset_descriptor),
                     "--checkpoint", str(pre), "--out", str(out), "--epochs", "1",
                     "--steps_per_epoch", "1", "--seeds", "0"]) == EXIT_OK
        ckpt = out / "checkpoint_full_seed0.ckpt"
        blob = ckpt.read_bytes()
        header_len = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + header_len])
        body = edit(header, blob[16 + header_len:])
        text = json.dumps(header).encode("utf-8")
        ckpt.write_bytes(blob[:8] + len(text).to_bytes(8, "little") + text + body)
        capsys.readouterr()
        code = main(["evaluate", "--data", str(dataset_descriptor),
                     "--checkpoint", str(ckpt)])
        assert code == EXIT_DATA
        assert named in capsys.readouterr().err


class TestNonFiniteCheckpointValues:
    @pytest.mark.parametrize("name", ["head.w", "label_embed", "tokenizer.table"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_parameter_is_data_error(
            self, tmp_path, dataset_descriptor, capsys, name, value):
        pre = run_pretrain(tmp_path / "pre")
        out = tmp_path / "ft"
        assert main(["finetune", "--data", str(dataset_descriptor),
                     "--checkpoint", str(pre), "--out", str(out), "--epochs", "1",
                     "--steps_per_epoch", "1", "--seeds", "0"]) == EXIT_OK
        ckpt = out / "checkpoint_full_seed0.ckpt"
        blob = bytearray(ckpt.read_bytes())
        header_len = int.from_bytes(blob[8:16], "little")
        pos = 16 + header_len
        for entry in json.loads(blob[16:pos])["params"]:
            if entry["name"] == name:
                break
            pos += 8 * int(np.prod(entry["shape"]))
        blob[pos:pos + 8] = np.array([value], dtype="<f8").tobytes()
        ckpt.write_bytes(bytes(blob))
        capsys.readouterr()
        codes = (main(["evaluate", "--data", str(dataset_descriptor),
                       "--checkpoint", str(ckpt)]),
                 main(["export-heatmaps", "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "heat")]))
        assert codes == (EXIT_DATA, EXIT_DATA)
        assert capsys.readouterr().err.count(f"parameter {name} ") == 2
