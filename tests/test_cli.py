import json
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_rule_dataset, write_dataset_csv

from tokentab.checkpoint import load_checkpoint, rebuild_model
from tokentab.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from tokentab.tokenizer import category_gram_matrix, identifier_gram_matrix

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


class TestEvaluateCommand:
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
        n_rows = model.tokenizer.table.weights.shape[0]
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
    ])
    def test_unusable_setting_is_usage_error(self, tmp_path, capsys, argv, named):
        if argv[0] in ("pretrain", "finetune"):
            argv = [*argv, "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seeds, named", [
    ("0,1,0", "seed 0 more than once"),
    ("-1", "seeds >= 0"),
    ("0,x", "invalid value"),
])
def test_compare_variants_reads_seeds_by_the_finetune_rule(monkeypatch, capsys,
                                                           seeds, named):
    """``scripts/compare_variants.py`` refuses the seed lists ``finetune``
    refuses, as a usage error before it reads any file."""
    script = Path(__file__).parents[1] / "scripts" / "compare_variants.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--data", "d",
                                      "--checkpoint", "c", f"--seeds={seeds}"])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(script), run_name="__main__")
    assert stop.value.code == 2
    assert named in capsys.readouterr().err


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
