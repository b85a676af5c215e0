import numpy as np
import pytest

from conftest import make_rule_dataset

from tokentab.data import RawDataset, encode, fit_schema, split_train_test
from tokentab.model import SupportQueryBatch
from tokentab.tokenizer import identifier_gram_matrix, mean_abs_off_diagonal
from tokentab.training import (
    FinetuneConfig,
    RepetitionReport,
    RepetitionResult,
    average_train_logs,
    build_finetune_model,
    finetune,
    run_protocol,
    sample_episode,
    total_loss,
)


def encoded_halves(raw, seed=0):
    train_raw, test_raw = split_train_test(raw, seed)
    schema, stats = fit_schema(train_raw)
    return encode(train_raw, schema, stats), encode(test_raw, schema, stats), schema


class TestTotalLoss:
    def episode(self, model):
        rng = np.random.default_rng(0)
        return SupportQueryBatch(
            support_num=rng.standard_normal((4, 1)),
            support_cat=rng.integers(0, 3, size=(4, 2)),
            support_y=rng.integers(0, 2, size=4),
            query_num=rng.standard_normal((3, 1)),
            query_cat=rng.integers(0, 3, size=(3, 2)),
            query_y=rng.integers(0, 2, size=3),
            n_classes=2,
        )

    def build(self, tiny_backbone, variant="full", lambda_orth=1.0,
              trainable="ft_layer_only"):
        raw = make_rule_dataset(rows=40, seed=1)
        train, _, schema = encoded_halves(raw)
        cfg = FinetuneConfig(variant=variant, lambda_orth=lambda_orth, seed=0,
                             trainable=trainable)
        model = build_finetune_model(tiny_backbone, schema, 2, cfg)
        return model, cfg, train

    def test_zero_lambda_equals_cross_entropy_exactly(self, tiny_backbone):
        from tokentab.autodiff import softmax_cross_entropy

        model, cfg, train = self.build(tiny_backbone, lambda_orth=0.0)
        batch = sample_episode(train, np.random.default_rng(0), 0.7)
        total = total_loss(batch, model, cfg).item()
        ce = softmax_cross_entropy(model.predict_logits(batch),
                                   batch.query_y).item()
        assert total == ce

    def test_orthogonal_identifiers_add_nothing(self, tiny_backbone):
        from tokentab.autodiff import softmax_cross_entropy

        model, cfg, train = self.build(tiny_backbone, lambda_orth=1.0)
        ids = model.tokenizer.identifiers
        ids.data[...] = 0.0
        ids.data[0, 0] = 1.0
        ids.data[1, 1] = 1.0
        batch = sample_episode(train, np.random.default_rng(0), 0.7)
        total = total_loss(batch, model, cfg).item()
        ce = softmax_cross_entropy(model.predict_logits(batch),
                                   batch.query_y).item()
        assert total == pytest.approx(ce, abs=1e-15)

    def test_identical_identifiers_add_exactly_two(self, tiny_backbone):
        from tokentab.autodiff import softmax_cross_entropy

        model, cfg, train = self.build(tiny_backbone, lambda_orth=1.0)
        model.tokenizer.identifiers.data[...] = np.tile([1.0] + [0.0] * 15, (2, 1))
        batch = sample_episode(train, np.random.default_rng(0), 0.7)
        total = total_loss(batch, model, cfg).item()
        ce = softmax_cross_entropy(model.predict_logits(batch),
                                   batch.query_y).item()
        assert total == pytest.approx(ce + 2.0, abs=1e-12)

    def test_no_regularization_variant_drops_the_term(self, tiny_backbone):
        from tokentab.autodiff import softmax_cross_entropy

        model, cfg, train = self.build(tiny_backbone,
                                       variant="no_regularization",
                                       lambda_orth=5.0)
        batch = sample_episode(train, np.random.default_rng(0), 0.7)
        total = total_loss(batch, model, cfg).item()
        ce = softmax_cross_entropy(model.predict_logits(batch),
                                   batch.query_y).item()
        assert total == ce

    def test_no_identifier_variant_has_no_identifiers(self, tiny_backbone):
        model, cfg, train = self.build(tiny_backbone, variant="no_identifiers")
        assert model.tokenizer.identifiers is None
        batch = sample_episode(train, np.random.default_rng(0), 0.7)
        assert np.isfinite(total_loss(batch, model, cfg).item())

    @pytest.mark.parametrize("variant, lambda_orth, trainable", [
        ("full", 1.0, "ft_layer_only"),
        ("full", 0.37, "full_model"),
        ("no_regularization", 1.0, "ft_layer_only"),
        ("no_identifiers", 1.0, "full_model"),
    ])
    def test_one_loss_node_matches_the_chain_bit_for_bit(
            self, tiny_backbone, variant, lambda_orth, trainable):
        """The value and every gradient of ``total_loss`` equal those of the
        chain it replaced: the cross-entropy plus the weighted penalty
        through ``add`` and ``mul_scalar``."""
        from chain_ops import add, mul_scalar
        from tokentab.autodiff import softmax_cross_entropy
        from tokentab.tokenizer import orthogonal_loss

        model, cfg, train = self.build(tiny_backbone, variant, lambda_orth, trainable)
        batch = sample_episode(train, np.random.default_rng(0), 0.7)
        ids, lam = model.tokenizer.identifiers, cfg.effective_lambda

        def chain():
            ce = softmax_cross_entropy(model.predict_logits(batch), batch.query_y)
            if lam > 0.0 and ids is not None:
                return add(ce, mul_scalar(orthogonal_loss(ids), lam))
            return ce

        runs = []
        for f in (chain, lambda: total_loss(batch, model, cfg)):
            for _, t in model.named_tensors():
                t.grad = None
            out = f()
            out.backward()
            runs.append((out.data, {n: t.grad for n, t in model.named_tensors()
                                    if t.grad is not None}))
        (want, want_grads), (got, got_grads) = runs
        assert np.array_equal(got, want)
        assert got_grads.keys() == want_grads.keys()
        assert all(np.array_equal(got_grads[n], want_grads[n]) for n in want_grads)

    def test_episode_metrics_match_separate_forwards_exactly(self, tiny_backbone):
        from tokentab.metrics import accuracy, roc_auc_ovo
        from tokentab.training import _episode_metrics

        model, cfg, train = self.build(tiny_backbone, lambda_orth=1.0)
        batch = sample_episode(train, np.random.default_rng(2), 0.7)
        probs = model.predict_proba(batch).data
        expected = (total_loss(batch, model, cfg).item(),
                    accuracy(probs, batch.query_y),
                    roc_auc_ovo(probs, batch.query_y))
        assert _episode_metrics(model, batch, cfg) == expected
        assert all(t.grad is None for _, t in model.named_tensors())


class TestFinetune:
    def setup_case(self, tiny_backbone, epochs=3, **kw):
        raw = make_rule_dataset(rows=60, seed=2)
        train, test, schema = encoded_halves(raw)
        cfg = FinetuneConfig(epochs=epochs, seed=0, steps_per_epoch=2, **kw)
        model = build_finetune_model(tiny_backbone, schema, 2, cfg)
        return model, cfg, train, test

    def test_zero_epochs_leaves_model_unchanged_with_empty_log(self, tiny_backbone):
        model, cfg, train, test = self.setup_case(tiny_backbone, epochs=0)
        before = {n: t.data.tobytes() for n, t in model.named_tensors()}
        log = finetune(model, train, cfg)
        after = {n: t.data.tobytes() for n, t in model.named_tensors()}
        assert before == after and log.records == []

    def test_numerical_weights_bit_identical_after_training(self, tiny_backbone):
        model, cfg, train, test = self.setup_case(tiny_backbone, epochs=5)
        w_before = model.tokenizer.w_num.data.tobytes()
        nan_row_before = model.tokenizer.table.data[0].tobytes()
        finetune(model, train, cfg, test=test)
        assert model.tokenizer.w_num.data.tobytes() == w_before
        assert model.tokenizer.table.data[0].tobytes() == nan_row_before
        assert not model.tokenizer.w_num.requires_grad

    def test_log_has_one_record_per_epoch(self, tiny_backbone):
        model, cfg, train, test = self.setup_case(tiny_backbone, epochs=4)
        log = finetune(model, train, cfg, test=test)
        assert [r.epoch for r in log.records] == [1, 2, 3, 4]
        assert all(r.test_auc is not None for r in log.records)

    def test_selection_reads_train_metrics_only(self, tiny_backbone):
        model, cfg, train, test = self.setup_case(tiny_backbone, epochs=4)
        finetune(model, train, cfg, test=test)
        selected_with_test = {n: t.data.tobytes() for n, t in model.named_tensors()}

        # same run against mutated test rows: the selected checkpoint may not move
        model2 = build_finetune_model(tiny_backbone, train.schema, 2, cfg)
        corrupted = type(test)(
            num=test.num + 123.0, cat=np.zeros_like(test.cat),
            labels=(test.labels + 1) % 2, schema=test.schema, stats=test.stats,
            label_names=test.label_names)
        finetune(model2, train, cfg, test=corrupted)
        selected_with_corrupted = {n: t.data.tobytes()
                                   for n, t in model2.named_tensors()}
        assert selected_with_test == selected_with_corrupted

    def test_same_seed_is_bit_deterministic(self, tiny_backbone):
        states = []
        for _ in range(2):
            model, cfg, train, test = self.setup_case(tiny_backbone, epochs=3)
            finetune(model, train, cfg, test=test)
            states.append({n: t.data.tobytes() for n, t in model.named_tensors()})
        assert states[0] == states[1]

    def test_train_loss_decreases_on_learnable_data(self, tiny_backbone):
        model, cfg, train, test = self.setup_case(tiny_backbone, epochs=12,
                                                  lr=3e-3)
        log = finetune(model, train, cfg)
        assert log.records[-1].train_loss < log.records[0].train_loss


class TestRegularizationEffect:
    def test_lambda_reduces_identifier_correlations(self, tiny_backbone):
        raw = make_rule_dataset(rows=80, seed=5, columns=3)
        train, _, schema = encoded_halves(raw)
        offdiags = {}
        for lam in (1.0, 0.0):
            cfg = FinetuneConfig(epochs=10, lambda_orth=lam, seed=0,
                                 steps_per_epoch=2)
            model = build_finetune_model(tiny_backbone, schema, 2, cfg)
            finetune(model, train, cfg)
            gram = identifier_gram_matrix(model.tokenizer.identifiers)
            offdiags[lam] = mean_abs_off_diagonal(gram)
        assert offdiags[1.0] < offdiags[0.0]


class TestRunProtocol:
    def test_exactly_five_seeded_repetitions(self, tiny_backbone, rule_dataset):
        cfg = FinetuneConfig(epochs=2, steps_per_epoch=1)
        report, details = run_protocol(rule_dataset, tiny_backbone, cfg)
        assert len(report.results) == 5
        assert [r.seed for r in report.results] == [0, 1, 2, 3, 4]
        assert len(details) == 5

    def test_fifty_fifty_splits(self, tiny_backbone, rule_dataset):
        cfg = FinetuneConfig(epochs=1, steps_per_epoch=1)
        _, details = run_protocol(rule_dataset, tiny_backbone, cfg, seeds=(0,))
        train_raw, test_raw = split_train_test(rule_dataset, 0)
        assert len(train_raw) == (len(rule_dataset) + 1) // 2
        assert len(test_raw) == len(rule_dataset) // 2

    def test_mean_is_arithmetic_mean_of_entries(self, tiny_backbone, rule_dataset):
        cfg = FinetuneConfig(epochs=2, steps_per_epoch=1)
        report, _ = run_protocol(rule_dataset, tiny_backbone, cfg, seeds=(0, 1))
        assert report.mean_auc == pytest.approx(
            sum(r.auc for r in report.results) / 2.0, abs=1e-15)

    def test_repeat_invocations_identical(self, tiny_backbone, rule_dataset):
        cfg = FinetuneConfig(epochs=2, steps_per_epoch=1)
        a, _ = run_protocol(rule_dataset, tiny_backbone, cfg, seeds=(0, 1))
        b, _ = run_protocol(rule_dataset, tiny_backbone, cfg, seeds=(0, 1))
        assert a.to_records() == b.to_records()


class TestReports:
    def test_report_records_and_table(self):
        report = RepetitionReport([RepetitionResult(0, 0.8, 0.7),
                                   RepetitionResult(1, 0.6, 0.5)])
        records = report.to_records()
        assert records[-1]["aggregate"] == "mean"
        assert records[-1]["auc"] == pytest.approx(0.7)
        table = report.summary_table()
        assert "mean" in table and "0.7000" in table

    def test_average_train_logs_equal_weighting(self, tiny_backbone):
        from tokentab.training import EpochRecord, TrainLog

        a = TrainLog([EpochRecord(1, 1.0, 0.5, 0.5, 0.4, 0.5)])
        b = TrainLog([EpochRecord(1, 3.0, 0.7, 0.9, 0.6, 0.7)])
        merged = average_train_logs([a, b])
        assert merged[0]["weighting"] == "equal"
        assert merged[0]["train_loss"] == pytest.approx(2.0)
        assert merged[0]["test_auc"] == pytest.approx(0.6)


class TestTapeSize:
    def test_wide_finetune_step_traverses_at_most_130_nodes(self):
        """One fine-tune step on 2 numerical + 30 categorical columns.

        The tokenizer is one graph node per embedding, so the tape does not
        grow with the column count (the per-column chain made it 303 here).
        """
        from tokentab.model import ModelConfig
        from tokentab.prior import PriorConfig, build_pretraining_model

        rng = np.random.default_rng(5)
        vocab = [f"v{k}" for k in range(8)]
        cells = [[float(x) for x in rng.normal(size=2)]
                 + rng.choice(vocab, size=30).tolist() for _ in range(120)]
        raw = RawDataset(("x0", "x1") + tuple(f"c{j}" for j in range(30)),
                         ("numerical",) * 2 + ("categorical",) * 30, cells,
                         rng.integers(0, 2, size=120).astype(np.intp), ("0", "1"))
        schema, stats = fit_schema(raw)
        backbone = build_pretraining_model(
            PriorConfig(max_features=4, seed=1),
            ModelConfig(embed_dim=16, layers=3, heads=4, ff_dim=32, max_classes=4))
        cfg = FinetuneConfig(variant="full")
        model = build_finetune_model(backbone, schema, 2, cfg)
        batch = sample_episode(encode(raw, schema, stats),
                               np.random.default_rng(0), cfg.support_fraction)
        tape = total_loss(batch, model, cfg).backward()
        assert len(tape.nodes) <= 130
