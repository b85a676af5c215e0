"""Exit codes of ``main()`` on damaged inputs: CSV contents and headers,
huge weights in the encoder and the head, a huge orthogonality weight,
well-formed categorical tables and a non-finite token-table gradient.

Every input maps to 0 (ok), 1 (usage), 2 (data) or 3 (numeric), with a
message naming where it went wrong, and never to a traceback or a numpy
warning.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_mixed_dataset, write_dataset_csv

from tokentab.autodiff import _op
from tokentab.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from tokentab.tokenizer import FeatureTokenizer

EXIT_CODES = {EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC}
HEADER = "x0,x1,c0,c1,label"


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """(pretrained, fine-tuned) checkpoint paths of a small model."""
    root = tmp_path_factory.mktemp("ckpt")
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
    return pre / "checkpoint.ckpt", out / "checkpoint_full_seed0.ckpt"


@pytest.fixture(scope="module")
def backbone(tmp_path_factory):
    """A checkpoint of the benchmark's backbone: 64-dim, 3 layers, 100
    pretraining episodes."""
    pre = tmp_path_factory.mktemp("backbone")
    assert main(["pretrain", "--out", str(pre), "--episodes", "100",
                 "--embed_dim", "64", "--layers", "3", "--heads", "4",
                 "--ff_dim", "128", "--holdout", "0"]) == EXIT_OK
    return pre / "checkpoint.ckpt"


def header_params(blob):
    """(offset of the body, the header's parameter entries) of checkpoint bytes."""
    header_len = int.from_bytes(blob[8:16], "little")
    return 16 + header_len, json.loads(blob[16:16 + header_len])["params"]


def patched(checkpoint, name, index, value, out):
    """A copy of ``checkpoint`` at ``out`` with ``name[index] = value``."""
    blob = bytearray(checkpoint.read_bytes())
    pos, params = header_params(blob)
    for entry in params:
        if entry["name"] == name:
            break
        pos += 8 * int(np.prod(entry["shape"]))
    pos += 8 * int(np.ravel_multi_index(index, entry["shape"]))
    blob[pos:pos + 8] = np.array([value], dtype="<f8").tobytes()
    out.write_bytes(bytes(blob))
    return out


def write_csv(dir_path, data: bytes, categorical="c0,c1"):
    """Write ``data`` as the csv of a mixed-dataset descriptor; returns it."""
    (dir_path / "fuzz.csv").write_bytes(data)
    descriptor = dir_path / "fuzz.descriptor"
    descriptor.write_text("csv = fuzz.csv\ntarget = label\n"
                          f"categorical = {categorical}\n", encoding="utf-8")
    return descriptor


def mixed_csv_text(rows=40, seed=2):
    raw = make_mixed_dataset(rows=rows, seed=seed)
    lines = [HEADER]
    for cells, label in zip(raw.cells, raw.labels):
        lines.append(",".join(["" if c is None else str(c) for c in cells]
                              + [raw.label_names[label]]))
    return "\n".join(lines) + "\n"


def finetune(checkpoint, descriptor, out, *flags):
    return main(["finetune", "--data", str(descriptor), "--checkpoint",
                 str(checkpoint), "--out", str(out), "--epochs", "1",
                 "--steps_per_epoch", "1", "--seeds", "0", *flags])


def evaluate(checkpoint, descriptor):
    return main(["evaluate", "--data", str(descriptor),
                 "--checkpoint", str(checkpoint)])


class TestCsvDefects:
    def test_field_over_the_csv_limit_is_data_error_naming_the_line(
            self, checkpoints, tmp_path, capsys):
        lines = mixed_csv_text().split("\n")
        lines[2] = "1.0,2.0," + "u" * 131073 + ",v,0"   # line 3 of the file
        descriptor = write_csv(tmp_path, "\n".join(lines).encode("utf-8"))
        capsys.readouterr()
        assert finetune(checkpoints[0], descriptor, tmp_path / "ft") == EXIT_DATA
        assert evaluate(checkpoints[1], descriptor) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("line 3") == 2 and "field larger than field limit" in err

    def test_ragged_row_after_a_multi_line_field_names_its_file_line(
            self, checkpoints, tmp_path, capsys):
        lines = mixed_csv_text().split("\n")
        lines[1] = '0.5,1.5,"u\nv",v,0'   # one record on lines 2 and 3
        lines[2] = "0.5,1.5"              # file line 4
        descriptor = write_csv(tmp_path, "\n".join(lines).encode("utf-8"))
        capsys.readouterr()
        assert evaluate(checkpoints[1], descriptor) == EXIT_DATA
        assert "line 4 has 2 fields, expected 5" in capsys.readouterr().err

    @pytest.mark.parametrize("text, categorical, named", [
        ("label,x1,c0,c1,label\n1,2,u,v,0\n3,4,v,u,1\n", "c0,c1",
         "column 'label' appears more than once in the header"),
        ("label\n0\n1\n0\n", "c0,c1", "no feature column besides target 'label'"),
        (mixed_csv_text(), "c0,c1,label",
         "categorical column 'label' is the target column"),
    ], ids=["repeated target", "target only", "categorical target"])
    def test_unusable_header_is_one_data_error_line(
            self, checkpoints, tmp_path, capsys, text, categorical, named):
        descriptor = write_csv(tmp_path, text.encode("utf-8"), categorical)
        for run in (lambda: finetune(checkpoints[0], descriptor, tmp_path / "ft"),
                    lambda: evaluate(checkpoints[1], descriptor)):
            capsys.readouterr()
            assert run() == EXIT_DATA
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and err.count("\n") == 1
            assert "fuzz.csv" in err and named in err and "Traceback" not in err

    def test_byte_order_mark_is_not_part_of_the_first_header(
            self, checkpoints, tmp_path, capsys):
        plain = write_csv(tmp_path, mixed_csv_text().encode("utf-8"))
        assert evaluate(checkpoints[1], plain) == EXIT_OK
        expected = capsys.readouterr().out
        marked = write_csv(tmp_path, mixed_csv_text().encode("utf-8-sig"))
        assert evaluate(checkpoints[1], marked) == EXIT_OK
        assert capsys.readouterr().out == expected
        assert finetune(checkpoints[0], marked, tmp_path / "ft") == EXIT_OK


FIELDS = st.one_of(
    st.sampled_from(["0", "1", "u", "v", "1.5", "", " ", "2", "-3e5", "nan",
                     "inf", "?", '"', '""', 'a"b', "\x00", "\ufeff", "é"]),
    st.text(alphabet='uv01,"\n\r\x00 ', max_size=6),
)
# mostly five fields, as the header has; sometimes ragged
ROW_FIELDS = st.one_of(st.lists(FIELDS, min_size=5, max_size=5),
                       st.lists(FIELDS, max_size=7))
HEADERS = st.one_of(st.just(HEADER), st.sampled_from([
    "\ufeff" + HEADER, '"x0","x1","c0","c1","label"', "label", "",
    "x0,x0,c0,c1,label", HEADER + ",label", "x0,x1,c0,c1", '"x0,x1,c0,c1,label']))
ROWS = st.lists(st.tuples(ROW_FIELDS, st.booleans()), max_size=4)


def render(header, rows, valid_rows, huge):
    """A header, fuzzed rows (raw or quoted) and some rows that parse; with
    ``huge``, first a row whose middle field exceeds the csv module's limit."""
    lines = [header] + (["0,1," + "w" * 131073 + ",u,1"] if huge else [])
    for fields, quoted in rows:
        if quoted:
            fields = ['"' + f.replace('"', '""') + '"' for f in fields]
        lines.append(",".join(fields))
    lines.extend(mixed_csv_text(rows=valid_rows).split("\n")[1:])
    return "\n".join(lines)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(header=HEADERS, rows=ROWS, valid_rows=st.sampled_from([12, 0, 1, 3]),
       bom=st.booleans(), huge=st.sampled_from([False, False, False, True]))
def test_fuzzed_csv_contents_exit_with_a_code(checkpoints, tmp_path, capsys,
                                              header, rows, valid_rows, bom, huge):
    text = render(header, rows, valid_rows, huge)
    descriptor = write_csv(tmp_path, text.encode("utf-8-sig" if bom else "utf-8"))
    assert evaluate(checkpoints[1], descriptor) in EXIT_CODES
    assert finetune(checkpoints[0], descriptor, tmp_path / "ft") in EXIT_CODES


def test_huge_encoder_weight_is_numeric_error_without_warnings(
        checkpoints, tmp_path, capsys):
    """layers.0.w1[0,0] = 1e300 overflows in the gelu: exit 3, no warning."""
    ckpt = patched(checkpoints[1], "layers.0.w1", (0, 0), 1e300,
                   tmp_path / "huge.ckpt")
    descriptor = write_csv(tmp_path, mixed_csv_text().encode("utf-8"))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert evaluate(ckpt, descriptor) == EXIT_NUMERIC
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "encoder layer 0 feed-forward" in err and "RuntimeWarning" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, index, value, block", [
    ("head.w", (0, 0), 1e305, "optimizer"),     # Adam's g * g
    ("head.w", (0, 0), 1.7e308, "optimizer"),
    ("head.w", (1, 0), 1.7e308, "head"),        # the head's product
    ("head.b", (0,), 1.7e308, "loss"),          # the mean of the losses
])
def test_huge_head_parameter_is_numeric_error_naming_the_block(
        backbone, tmp_path, capsys, name, index, value, block):
    """One fine-tuning step from a backbone with one huge head entry stops
    with exit 3 where the overflow happens, and numpy warns nothing."""
    ckpt = patched(backbone, name, index, value, tmp_path / "huge.ckpt")
    descriptor = write_csv(tmp_path, mixed_csv_text().encode("utf-8"))
    capsys.readouterr()
    assert finetune(ckpt, descriptor, tmp_path / "ft") == EXIT_NUMERIC
    assert f"numeric error: {block}: overflow" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_orthogonality_weight_is_numeric_error_naming_the_block(
        checkpoints, tmp_path, capsys):
    """Two categorical columns make the penalty 2 cos^2 of their identifiers,
    well under 1 here, so 1e308 times it stays finite in the loss; the
    penalty's backward overflows."""
    descriptor = write_csv(tmp_path, mixed_csv_text().encode("utf-8"))
    capsys.readouterr()
    assert finetune(checkpoints[0], descriptor, tmp_path / "ft",
                    "--lambda_orth", "1e308") == EXIT_NUMERIC
    assert "numeric error: orthogonality: overflow" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["finetune", "evaluate"]),
       which=st.integers(0, 2**16), where=st.integers(0, 2**16),
       value=st.sampled_from([1e154, 1e300, 1.7e308, -1e300, -1.7e308]))
def test_one_huge_parameter_exits_ok_or_numeric_without_warnings(
        checkpoints, tmp_path, capsys, command, which, where, value):
    """Any one parameter of either checkpoint set to a huge finite value."""
    source = checkpoints[0] if command == "finetune" else checkpoints[1]
    shapes = [(e["name"], tuple(e["shape"]))
              for e in header_params(source.read_bytes())[1] if np.prod(e["shape"])]
    name, shape = shapes[which % len(shapes)]
    index = np.unravel_index(where % int(np.prod(shape)), shape)
    ckpt = patched(source, name, index, value, tmp_path / "huge.ckpt")
    descriptor = write_csv(tmp_path, mixed_csv_text().encode("utf-8"))
    run = finetune(ckpt, descriptor, tmp_path / "ft") if command == "finetune" \
        else evaluate(ckpt, descriptor)
    assert run in (EXIT_OK, EXIT_NUMERIC)
    assert "Traceback" not in capsys.readouterr().err


def write_categorical_table(dir_path, name, rng, vocab_sizes, rows, blank,
                            unseen=0):
    """A well-formed all-categorical CSV and its descriptor; returns the
    descriptor. Column j draws from ``vocab_sizes[j]`` values plus ``unseen``
    values no other table has; labels are 0/1 with both present."""
    columns = [f"c{j}" for j in range(len(vocab_sizes))]
    lines = [",".join(columns + ["label"])]
    labels = rng.integers(0, 2, size=rows)
    labels[:2] = (0, 1)
    for label in labels:
        cells = []
        for size in vocab_sizes:
            k = int(rng.integers(0, size + unseen))
            cells.append("" if rng.random() < blank
                         else f"v{k}" if k < size else f"new{k}")
        lines.append(",".join(cells + [str(label)]))
    (dir_path / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    descriptor = dir_path / f"{name}.descriptor"
    descriptor.write_text(f"csv = {name}.csv\ntarget = label\n"
                          f"categorical = {','.join(columns)}\n", encoding="utf-8")
    return descriptor


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), columns=st.integers(1, 30),
       blank=st.sampled_from([0.0, 0.1, 0.5]))
def test_fuzzed_categorical_tables_train_and_evaluate(
        checkpoints, tmp_path, capsys, seed, columns, blank):
    """Well-formed tables fine-tune to a checkpoint, so the token table's
    backward runs; the fine-tuned checkpoint then meets categories it never
    saw. Row counts come from the seed: drawn by Hypothesis, most would sit
    at the 2-row boundary."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(2, 301))
    sizes = [int(s) for s in rng.integers(1, 13, size=columns)]
    train = write_categorical_table(tmp_path, "train", rng, sizes, rows, blank)
    out = tmp_path / "ft"
    assert finetune(checkpoints[0], train, out) == EXIT_OK
    unseen = write_categorical_table(tmp_path, "unseen", rng, sizes, 40,
                                     blank, unseen=3)
    assert evaluate(out / "checkpoint_full_seed0.ckpt", unseen) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err


def test_non_finite_table_gradient_is_numeric_error_without_warnings(
        checkpoints, tmp_path, capsys, monkeypatch):
    """An ``inf`` in the embeddings' upstream gradient stops fine-tuning at
    the token table (exit 3) before Adam turns it into NaN parameters."""
    embed_rows = FeatureTokenizer.embed_rows

    def embed_rows_with_inf_gradient(self, num, cat):
        e = embed_rows(self, num, cat)

        def backward(g):
            g = g.copy()
            g[0, 0] = np.inf
            e._accumulate(g)

        return _op(e.data.copy(), (e,), backward)

    monkeypatch.setattr(FeatureTokenizer, "embed_rows", embed_rows_with_inf_gradient)
    descriptor = write_csv(tmp_path, mixed_csv_text().encode("utf-8"))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert finetune(checkpoints[0], descriptor, tmp_path / "ft") == EXIT_NUMERIC
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "tokenizer.table: non-finite gradient" in err and "Warning" not in err
