import numpy as np
from dataclasses import replace

from tokentab.model import ModelConfig
from tokentab.prior import (
    PriorConfig,
    build_pretraining_model,
    episode_from_task,
    evaluate_fresh_tasks,
    holdout_episodes,
    majority_baseline_accuracy,
    pretrain,
    sample_task,
)


CFG = PriorConfig(max_features=4, max_categories=5, seed=7)


class TestSampleTask:
    def test_same_seed_identical_tasks(self):
        a = sample_task(CFG, seed=12)
        b = sample_task(CFG, seed=12)
        assert a.family == b.family
        assert a.num.tobytes() == b.num.tobytes()
        assert a.cat.tobytes() == b.cat.tobytes()
        assert a.labels.tolist() == b.labels.tolist()

    def test_different_seeds_differ(self):
        a = sample_task(CFG, seed=1)
        b = sample_task(CFG, seed=2)
        assert (a.num.tobytes(), a.labels.tolist()) != (b.num.tobytes(), b.labels.tolist())

    def test_noise_free_linear_labels_are_score_signs(self):
        cfg = replace(CFG, noise=0.0, weight_linear=1.0, weight_mlp=0.0,
                      weight_rule=0.0, min_classes=2, max_classes=2)
        for seed in range(10):
            task = sample_task(cfg, seed=seed)
            assert task.family == "linear"
            w = np.array(task.truth["weights"])
            assert ((task.num @ w > 0).astype(int) == task.labels).all()

    def test_every_task_has_at_least_two_classes(self):
        for seed in range(50):
            task = sample_task(CFG, seed=seed)
            assert len(np.unique(task.labels)) >= 2
            assert task.labels.max() < task.n_classes

    def test_rule_family_uses_slot_layout(self):
        cfg = replace(CFG, weight_linear=0.0, weight_mlp=0.0, weight_rule=1.0)
        task = sample_task(cfg, seed=5)
        assert task.cat.shape[1] >= 1
        for j, size in enumerate(task.vocab_sizes):
            col = task.cat[:, j]
            lo = 1 + j * cfg.max_categories
            assert col.min() >= lo and col.max() < lo + size

    def test_monte_carlo_class_balance_within_declared_bound(self):
        counts = []
        for seed in range(1000):
            task = sample_task(CFG, seed=seed)
            _, c = np.unique(task.labels, return_counts=True)
            counts.append(c.min() / len(task))
        # the generator resamples any draw whose minority share dips below
        # the configured fraction, so the realized minimum must respect it
        assert min(counts) >= CFG.min_class_fraction


class TestEpisodes:
    def test_episode_split_partitions_rows(self):
        task = sample_task(CFG, seed=3)
        rng = np.random.default_rng(0)
        batch = episode_from_task(task, rng)
        assert batch.s + batch.q == len(task)
        assert batch.s >= 1 and batch.q >= 1

    def test_majority_baseline(self):
        task = sample_task(CFG, seed=4)
        batch = episode_from_task(task, np.random.default_rng(1))
        counts = np.bincount(batch.support_y, minlength=task.n_classes)
        expected = (batch.query_y == counts.argmax()).mean()
        assert majority_baseline_accuracy(batch) == expected


class TestPretrain:
    def make_model(self):
        mcfg = ModelConfig(embed_dim=8, layers=1, heads=2, ff_dim=16, max_classes=3)
        return build_pretraining_model(CFG, mcfg)

    def test_zero_episodes_leaves_model_unchanged(self):
        model = self.make_model()
        before = {n: t.data.tobytes() for n, t in model.named_tensors()}
        log = pretrain(model, CFG, episodes=0)
        after = {n: t.data.tobytes() for n, t in model.named_tensors()}
        assert before == after
        assert log["episodes"] == []

    def test_loss_logged_and_finite(self):
        model = self.make_model()
        log = pretrain(model, CFG, episodes=12, log_every=4)
        assert all(np.isfinite(r["loss"]) for r in log["episodes"])
        assert log["episodes"][-1]["episode"] == 11

    def test_holdout_episodes_fixed_across_calls(self):
        a = holdout_episodes(CFG, 3)
        b = holdout_episodes(CFG, 3)
        for x, y in zip(a, b):
            assert x.support_num.tobytes() == y.support_num.tobytes()
            assert x.query_y.tolist() == y.query_y.tolist()

    def test_same_seed_bit_identical_models(self):
        runs = []
        for _ in range(2):
            model = self.make_model()
            pretrain(model, CFG, episodes=8)
            runs.append({n: t.data.tobytes() for n, t in model.named_tensors()})
        assert runs[0] == runs[1]

    def test_nan_row_and_numerical_weights_train_during_pretraining(self):
        model = self.make_model()
        w_before = model.tokenizer.w_num.data.copy()
        pretrain(model, CFG, episodes=10)
        # the freeze contract applies downstream, not here
        assert not np.array_equal(model.tokenizer.w_num.data, w_before)
        # but the reserved missing-value row never moves, even here
        assert model.tokenizer.table.data[0].tobytes() == \
            np.zeros(8).tobytes()

    def test_query_labels_only_reach_the_loss(self):
        model = self.make_model()
        task = sample_task(CFG, seed=9)
        batch = episode_from_task(task, np.random.default_rng(2))
        base = model.predict_logits(batch).data
        batch.query_y = np.random.default_rng(3).permutation(batch.query_y)
        assert np.array_equal(model.predict_logits(batch).data, base)


class TestEvaluateFreshTasks:
    def test_report_structure(self, tiny_backbone):
        cfg = PriorConfig(max_features=4, max_categories=6, min_samples=32,
                          max_samples=64, seed=11, noise=0.0,
                          weight_linear=1.0, weight_mlp=0.0, weight_rule=0.0)
        res = evaluate_fresh_tasks(tiny_backbone, cfg, n_tasks=5)
        assert len(res["per_task_model"]) == 5
        assert 0.0 <= res["baseline_accuracy"] <= 1.0
        assert 0.0 <= res["model_accuracy"] <= 1.0
