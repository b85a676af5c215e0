"""Damaged checkpoint bodies: truncations and single-bit flips of the 16-byte
prefix and of the parameter bytes never escape ``main()`` as an exception."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_mixed_dataset, write_dataset_csv

from tokentab.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

EXIT_CODES = {EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC}


@pytest.fixture(scope="module")
def finetuned(tmp_path_factory):
    """(checkpoint bytes, parameter start, descriptor) of a small fine-tuned model."""
    root = tmp_path_factory.mktemp("body")
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
    blob = (out / "checkpoint_full_seed0.ckpt").read_bytes()
    return blob, 16 + int.from_bytes(blob[8:16], "little"), descriptor


def flip(blob: bytes, bit: int) -> bytes:
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def run_both(blob, tmp_path, descriptor):
    ckpt = tmp_path / "damaged.ckpt"
    ckpt.write_bytes(blob)
    return (main(["evaluate", "--data", str(descriptor), "--checkpoint", str(ckpt)]),
            main(["export-heatmaps", "--checkpoint", str(ckpt),
                  "--out", str(tmp_path / "heat")]))


_FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(fraction=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_body_exits_with_a_code(finetuned, tmp_path, capsys, fraction):
    blob, _, descriptor = finetuned
    codes = run_both(blob[:int(fraction * len(blob))], tmp_path, descriptor)
    assert codes == (EXIT_DATA, EXIT_DATA)


@_FUZZ
@given(bit=st.integers(0, 16 * 8 - 1))
def test_prefix_bit_flip_exits_with_a_code(finetuned, tmp_path, capsys, bit):
    blob, _, descriptor = finetuned
    assert set(run_both(flip(blob, bit), tmp_path, descriptor)) <= EXIT_CODES


@_FUZZ
@given(position=st.floats(0.0, 1.0, exclude_max=True), bit=st.integers(0, 7))
def test_parameter_bit_flip_exits_with_a_code(finetuned, tmp_path, capsys,
                                              position, bit):
    blob, start, descriptor = finetuned
    byte = start + int(position * (len(blob) - start))
    assert set(run_both(flip(blob, 8 * byte + bit), tmp_path, descriptor)) <= EXIT_CODES
