"""End-to-end acceptance suite.

Each test covers one numbered criterion at its stated tolerance and prints
one pass line on success (run with ``pytest -v -s tests/test_acceptance.py``
to see them; a failed criterion fails its test).

The pretraining used by the behavioural criteria runs once per session
through the command-line interface (embed dim 64, 3 layers, 3000 episodes)
and is shared by the fine-tuning experiments.
"""

import json
import time

import numpy as np
import pytest

from conftest import make_mixed_dataset, make_rule_dataset, write_dataset_csv

from tokentab.autodiff import Tensor
from tokentab.checkpoint import load_checkpoint, rebuild_model
from tokentab.cli import EXIT_OK, main
from tokentab.data import encode, fit_schema, split_train_test
from tokentab.metrics import roc_auc_ovo
from tokentab.model import SupportQueryBatch
from tokentab.prior import PriorConfig, evaluate_fresh_tasks
from tokentab.tokenizer import (
    FeatureTokenizer,
    first_rows,
    identifier_gram_matrix,
    mean_abs_off_diagonal,
    orthogonal_loss,
)
from tokentab.training import (
    FinetuneConfig,
    build_finetune_model,
    finetune,
    run_protocol,
)

PRETRAIN_EPISODES = 3000
PRETRAIN_SEED = 0


@pytest.fixture(scope="session")
def acceptance_run(tmp_path_factory):
    """Criterion-5 scale pretraining, run once through the CLI and timed."""
    out = tmp_path_factory.mktemp("acceptance_pretrain")
    start = time.time()
    code = main([
        "pretrain", "--out", str(out),
        "--seed", str(PRETRAIN_SEED),
        "--episodes", str(PRETRAIN_EPISODES),
        "--embed_dim", "64", "--layers", "3", "--heads", "4",
        "--ff_dim", "128", "--holdout", "20",
    ])
    duration = time.time() - start
    assert code == EXIT_OK
    ckpt_path = out / "checkpoint.ckpt"
    records = [json.loads(line)
               for line in (out / "pretrain_log.jsonl").read_text().splitlines()]
    return {
        "out": out,
        "ckpt_path": ckpt_path,
        "model": rebuild_model(load_checkpoint(ckpt_path)),
        "duration": duration,
        "holdout": records[-1],
    }


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_gradient_correctness(capsys):
    start = time.time()
    code = main(["grad-check", "--eps", "1e-5", "--tolerance", "1e-4"])
    duration = time.time() - start
    out = capsys.readouterr().out
    assert code == EXIT_OK, out
    assert out.count("PASS") == 4 and "FAIL" not in out
    assert duration < 60.0, f"grad check took {duration:.1f}s"
    with capsys.disabled():
        report(1, f"all four components < 1e-4 in {duration:.1f}s")


def test_criterion_02_orthogonal_loss_oracle_equivalence(capsys):
    def brute_force(rows):
        unit = [r / np.linalg.norm(r) for r in rows]
        return sum(float(np.dot(unit[i], unit[j])) ** 2
                   for i in range(len(unit)) for j in range(len(unit)) if i != j)

    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 9))
        d = int(rng.integers(2, 33))
        rows = rng.standard_normal((m, d))
        got = orthogonal_loss(Tensor(rows)).item()
        worst = max(worst, abs(got - brute_force(rows)))
    assert worst < 1e-10, f"worst deviation {worst:.2e}"
    assert orthogonal_loss(Tensor(np.eye(4))).item() == 0.0
    assert orthogonal_loss(Tensor([[1.0, 0.0], [1.0, 0.0]])).item() == 2.0
    with capsys.disabled():
        report(2, f"100 random instances within {worst:.1e}; "
                  "orthonormal 0.0 and duplicated 2.0 exact")


def test_criterion_03_roc_auc_ovo_oracle_equivalence(capsys):
    def pairwise(scores, positive):
        pos = scores[positive]
        neg = scores[~positive]
        total = 0.0
        for sp in pos:
            for sn in neg:
                total += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
        return total / (len(pos) * len(neg))

    def oracle(probs, labels):
        present = set(labels.tolist())
        values = []
        for i in range(probs.shape[1]):
            for j in range(i + 1, probs.shape[1]):
                if i not in present or j not in present:
                    continue
                keep = (labels == i) | (labels == j)
                sub = labels[keep]
                values.append(0.5 * (pairwise(probs[keep, i], sub == i)
                                     + pairwise(probs[keep, j], sub == j)))
        return sum(values) / len(values)

    rng = np.random.default_rng(303)
    for case in range(200):
        q = int(rng.integers(2, 51))
        c = int(rng.integers(2, 5))
        labels = rng.integers(0, c, size=q)
        if len(np.unique(labels)) < 2:
            labels[0], labels[1] = 0, 1
        probs = rng.random((q, c))
        if case % 2 == 0:
            probs = np.round(probs * 4.0) / 4.0  # force tied scores
        assert roc_auc_ovo(probs, labels) == oracle(probs, labels), f"case {case}"
    with capsys.disabled():
        report(3, "exact oracle match on 200 random instances incl. ties")


def test_criterion_04_freeze_contracts(acceptance_run, capsys):
    raw = make_mixed_dataset(rows=160, seed=40)
    cfg = FinetuneConfig(epochs=30, lr=1e-3, seed=0, steps_per_epoch=4)
    train_raw, test_raw = split_train_test(raw, 0)
    schema, stats = fit_schema(train_raw)
    train = encode(train_raw, schema, stats)
    test = encode(test_raw, schema, stats)
    model = build_finetune_model(acceptance_run["model"], schema, 2, cfg)
    w_num_before = model.tokenizer.w_num.data.tobytes()
    nan_row_before = model.tokenizer.table.data[0].tobytes()
    table_before = model.tokenizer.table.data.tobytes()
    log = finetune(model, train, cfg, test=test)
    assert model.tokenizer.w_num.data.tobytes() == w_num_before
    assert model.tokenizer.table.data[0].tobytes() == nan_row_before
    assert model.tokenizer.table.data.tobytes() != table_before
    assert log.records[-1].train_loss < log.records[0].train_loss
    with capsys.disabled():
        report(4, "numerical weights and the reserved row bit-identical "
                  "after 30 epochs (rest of the table moved, loss fell "
                  f"{log.records[0].train_loss:.3f} -> "
                  f"{log.records[-1].train_loss:.3f})")


def test_criterion_05_in_context_learning_at_small_scale(acceptance_run, capsys):
    assert acceptance_run["duration"] < 900.0, \
        f"pretraining took {acceptance_run['duration']:.0f}s"
    holdout = acceptance_run["holdout"]
    assert holdout["holdout_end"] < holdout["holdout_start"]
    eval_cfg = PriorConfig(seed=PRETRAIN_SEED + 1, noise=0.0,
                           weight_linear=1.0, weight_mlp=0.0, weight_rule=0.0)
    res = evaluate_fresh_tasks(acceptance_run["model"], eval_cfg, n_tasks=100)
    margin = res["model_accuracy"] - res["baseline_accuracy"]
    assert margin >= 0.15, (
        f"margin {margin:.3f} (model {res['model_accuracy']:.3f}, "
        f"baseline {res['baseline_accuracy']:.3f})"
    )
    with capsys.disabled():
        report(5, f"accuracy {res['model_accuracy']:.3f} vs baseline "
                  f"{res['baseline_accuracy']:.3f} (margin {margin:+.3f}) "
                  f"after {PRETRAIN_EPISODES} episodes in "
                  f"{acceptance_run['duration']:.0f}s")


def test_criterion_06_regularization_effect(acceptance_run, capsys):
    raw = make_rule_dataset(rows=200, seed=21, columns=4)
    train_raw, _ = split_train_test(raw, 0)
    schema, stats = fit_schema(train_raw)
    train = encode(train_raw, schema, stats)
    offdiag = {}
    init = {}
    for lam in (1.0, 0.0):
        cfg = FinetuneConfig(epochs=30, lr=1e-3, lambda_orth=lam, seed=0,
                             steps_per_epoch=4)
        model = build_finetune_model(acceptance_run["model"], schema, 2, cfg)
        init[lam] = model.tokenizer.identifiers.data.tobytes()
        finetune(model, train, cfg)
        gram = identifier_gram_matrix(model.tokenizer.identifiers)
        offdiag[lam] = mean_abs_off_diagonal(gram)
    assert init[1.0] == init[0.0]  # identical initialization and seed
    assert offdiag[1.0] * 2.0 <= offdiag[0.0], (
        f"lambda=1 gives {offdiag[1.0]:.5f}, lambda=0 gives {offdiag[0.0]:.5f}"
    )
    with capsys.disabled():
        report(6, f"mean |off-diagonal| {offdiag[1.0]:.5f} (lambda=1) vs "
                  f"{offdiag[0.0]:.5f} (lambda=0): "
                  f"{offdiag[0.0] / offdiag[1.0]:.0f}x smaller")


def test_criterion_07_identifier_effect(acceptance_run, capsys):
    raw = make_rule_dataset(rows=240, seed=31, columns=2, noise=0.03,
                            missing=0.2)
    per_seed = {}
    for variant in ("full", "no_identifiers"):
        cfg = FinetuneConfig(epochs=30, lr=1e-3, variant=variant,
                             steps_per_epoch=4)
        rep, _ = run_protocol(raw, acceptance_run["model"], cfg)
        per_seed[variant] = [(r.seed, float(round(r.auc, 4))) for r in rep.results]
    mean_full = np.mean([a for _, a in per_seed["full"]])
    mean_ni = np.mean([a for _, a in per_seed["no_identifiers"]])
    assert mean_full > mean_ni, (
        f"full {mean_full:.4f} not above no-identifier {mean_ni:.4f}; "
        f"per-seed full={per_seed['full']} ni={per_seed['no_identifiers']}"
    )
    with capsys.disabled():
        report(7, f"mean test AUC full {mean_full:.4f} > no-identifier "
                  f"{mean_ni:.4f}; per-seed full={per_seed['full']} "
                  f"ni={per_seed['no_identifiers']}")


def test_criterion_08_protocol_fidelity(acceptance_run, capsys):
    raw = make_rule_dataset(rows=121, seed=80)  # odd count: train gets 61
    cfg = FinetuneConfig(epochs=2, steps_per_epoch=1)
    rep, details = run_protocol(raw, acceptance_run["model"], cfg)
    assert [r.seed for r in rep.results] == [0, 1, 2, 3, 4]
    for seed in range(5):
        train_raw, test_raw = split_train_test(raw, seed)
        assert len(train_raw) == 61 and len(test_raw) == 60

    # leakage by mutation: corrupt the test half after the split and check
    # that schema fitting and checkpoint selection cannot tell
    seed = 0
    train_raw, test_raw = split_train_test(raw, seed)
    schema, stats = fit_schema(train_raw)
    train = encode(train_raw, schema, stats)
    test = encode(test_raw, schema, stats)
    cfg = FinetuneConfig(epochs=4, steps_per_epoch=2, seed=seed)

    model_a = build_finetune_model(acceptance_run["model"], schema, 2, cfg)
    finetune(model_a, train, cfg, test=test)
    selected_a = {n: t.data.tobytes() for n, t in model_a.named_tensors()}

    mutated_rows = [[None for _ in row] for row in test_raw.cells]
    mutated_raw = type(test_raw)(test_raw.feature_names, test_raw.kinds,
                                 mutated_rows, (test_raw.labels + 1) % 2,
                                 test_raw.label_names)
    schema_b, stats_b = fit_schema(train_raw)
    assert schema_b == schema and stats_b == stats
    mutated_test = encode(mutated_raw, schema_b, stats_b)
    model_b = build_finetune_model(acceptance_run["model"], schema_b, 2, cfg)
    finetune(model_b, train, cfg, test=mutated_test)
    selected_b = {n: t.data.tobytes() for n, t in model_b.named_tensors()}
    assert selected_a == selected_b
    with capsys.disabled():
        report(8, "exactly 5 seeded 50/50 repetitions; mutated test rows "
                  "change neither schema nor checkpoint selection")


def test_criterion_09_invariance_suite(acceptance_run, capsys):
    model = acceptance_run["model"]
    rng = np.random.default_rng(90)

    # support-permutation invariance at 1e-10
    batch = SupportQueryBatch(
        support_num=rng.standard_normal((8, 3)),
        support_cat=np.column_stack([1 + rng.integers(0, 6, size=8),
                                     7 + rng.integers(0, 6, size=8)]),
        support_y=rng.integers(0, 2, size=8),
        query_num=rng.standard_normal((4, 3)),
        query_cat=np.column_stack([1 + rng.integers(0, 6, size=4),
                                   7 + rng.integers(0, 6, size=4)]),
        n_classes=2,
    )
    base = model.predict_logits(batch).data
    perm = rng.permutation(8)
    shuffled = SupportQueryBatch(
        support_num=batch.support_num[perm], support_cat=batch.support_cat[perm],
        support_y=batch.support_y[perm], query_num=batch.query_num,
        query_cat=batch.query_cat, n_classes=2,
    )
    deviation = np.abs(model.predict_logits(shuffled).data - base).max()
    assert deviation < 1e-10, f"support permutation moved logits by {deviation:.2e}"

    # feature-permutation equivariance, bit-exact
    n, m, d = 3, 3, 16
    sizes = (2, 3, 2)
    tok = FeatureTokenizer.create(n, sizes, d, rng)
    num = rng.standard_normal((6, n))
    local = np.column_stack([rng.integers(0, s + 1, size=6) for s in sizes])
    offsets = np.array(first_rows(sizes))
    cat = np.where(local == 0, 0, local - 1 + offsets[None, :])
    base_embed = tok.embed_rows(num, cat).data
    perm_n, perm_m = rng.permutation(n), rng.permutation(m)
    sizes_p = tuple(sizes[j] for j in perm_m)
    tok_p = FeatureTokenizer.create(n, sizes_p, d, rng)
    tok_p.w_num.data[...] = tok.w_num.data[perm_n]
    tok_p.identifiers.data[...] = tok.identifiers.data[perm_m]
    offsets_p = np.array(first_rows(sizes_p))
    tok_p.table.data[0] = tok.table.data[0]
    for new_j, old_j in enumerate(perm_m):
        size = sizes[old_j]
        src = tok.table.data[offsets[old_j]:offsets[old_j] + size]
        tok_p.table.data[offsets_p[new_j]:offsets_p[new_j] + size] = src
    local_p = local[:, perm_m]
    cat_p = np.where(local_p == 0, 0, local_p - 1 + offsets_p[None, :])
    permuted_embed = tok_p.embed_rows(num[:, perm_n], cat_p).data
    assert base_embed.tobytes() == permuted_embed.tobytes()

    # all-missing sample embeds to the identifier sum, bit-exact
    from tokentab.autodiff import aggregate_tokens

    all_nan = tok.embed_rows(np.zeros((1, n)), np.zeros((1, m), dtype=np.intp))
    expected = aggregate_tokens(
        [Tensor(tok.identifiers.data[j]) for j in range(m)]).data
    assert all_nan.data[0].tobytes() == expected.tobytes()
    with capsys.disabled():
        report(9, f"support permutation {deviation:.1e} <= 1e-10; feature "
                  "permutation and NaN-row embedding bit-exact")


def test_criterion_10_command_determinism(tmp_path, capsys):
    pretrain_args = ["--episodes", "25", "--embed_dim", "16", "--layers", "2",
                     "--heads", "2", "--ff_dim", "32", "--holdout", "3",
                     "--prior_max_features", "3", "--prior_samples_min", "16",
                     "--prior_samples_max", "24"]
    for name in ("p1", "p2"):
        assert main(["pretrain", "--out", str(tmp_path / name),
                     *pretrain_args]) == EXIT_OK
    assert (tmp_path / "p1" / "checkpoint.ckpt").read_bytes() == \
        (tmp_path / "p2" / "checkpoint.ckpt").read_bytes()
    assert (tmp_path / "p1" / "pretrain_log.jsonl").read_bytes() == \
        (tmp_path / "p2" / "pretrain_log.jsonl").read_bytes()

    descriptor = write_dataset_csv(tmp_path, make_rule_dataset(rows=44, seed=6))
    ft_args = ["--epochs", "2", "--steps_per_epoch", "1", "--seeds", "0,1"]
    for name in ("f1", "f2"):
        assert main(["finetune", "--data", str(descriptor),
                     "--checkpoint", str(tmp_path / "p1" / "checkpoint.ckpt"),
                     "--out", str(tmp_path / name), *ft_args]) == EXIT_OK
    for fname in ("report_full.jsonl", "report_full.txt",
                  "checkpoint_full_seed0.ckpt", "checkpoint_full_seed1.ckpt",
                  "trainlog_full_seed0.jsonl"):
        assert (tmp_path / "f1" / fname).read_bytes() == \
            (tmp_path / "f2" / fname).read_bytes(), fname
    capsys.readouterr()
    with capsys.disabled():
        report(10, "repeated pretrain and finetune runs byte-identical "
                   "(checkpoints, logs, reports)")
