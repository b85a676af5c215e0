import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attention_oracle
from attention_oracle import build_mask
from tokenizer_oracle import (
    embed_query,
    embed_support,
    tokenize_categorical,
    tokenize_numerical,
)
from tokentab import autodiff
from tokentab.autodiff import NumericError, Tensor
from tokentab.model import (
    EncoderLayer,
    InContextClassifier,
    ModelConfig,
    SupportQueryBatch,
    encoder_forward,
)
from tokentab.tokenizer import Column, FeatureSchema, FeatureTokenizer


def small_model(seed=0, dim=8, layers=2, heads=2, max_classes=3,
                n=2, sizes=(2, 3)):
    rng = np.random.default_rng(seed)
    tok = FeatureTokenizer.create(n, sizes, dim, rng)
    config = ModelConfig(embed_dim=dim, layers=layers, heads=heads,
                         ff_dim=dim * 2, max_classes=max_classes)
    return InContextClassifier.create(config, tok, rng)


def random_batch(seed=0, s=4, q=3, n=2, n_classes=3):
    rng = np.random.default_rng(seed)
    return SupportQueryBatch(
        support_num=rng.standard_normal((s, n)),
        support_cat=np.column_stack([rng.integers(0, 3, size=s),
                                     3 + rng.integers(0, 3, size=s)]),
        support_y=rng.integers(0, n_classes, size=s),
        query_num=rng.standard_normal((q, n)),
        query_cat=np.column_stack([rng.integers(0, 3, size=q),
                                   3 + rng.integers(0, 3, size=q)]),
        query_y=rng.integers(0, n_classes, size=q),
        n_classes=n_classes,
    )


class TestBuildMask:
    def test_minimal_episode(self):
        assert np.array_equal(build_mask(1, 1),
                              np.array([[True, False], [True, True]]))

    def test_two_by_two_enumeration(self):
        # supports see supports; each query sees supports plus itself only
        expected = np.array([
            [True, True, False, False],
            [True, True, False, False],
            [True, True, True, False],
            [True, True, False, True],
        ])
        assert np.array_equal(build_mask(2, 2), expected)

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_support_block_always_all_true(self, s, q):
        allow = build_mask(s, q)
        assert allow[:s, :s].all()
        assert not allow[:s, s:].any()
        assert np.array_equal(allow[s:, s:], np.eye(q, dtype=bool))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_mask(0, 1)
        with pytest.raises(ValueError):
            build_mask(1, 0)


class TestEncoderForward:
    def test_zero_depth_is_identity(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
        out = encoder_forward(x, 2, [])
        assert np.array_equal(out.data, x.data)

    def test_single_head_matches_plain_numpy_oracle(self):
        # replicate one layer step by step without the autodiff engine
        rng = np.random.default_rng(1)
        dim = 2
        layer = EncoderLayer.create(dim, 1, 3, rng)
        x = np.array([[0.3, -1.2], [0.8, 0.4]])

        def ln(v, gain, bias, eps=1e-5):
            mu = v.mean(axis=1, keepdims=True)
            var = ((v - mu) ** 2).mean(axis=1, keepdims=True)
            return (v - mu) / np.sqrt(var + eps) * gain + bias

        h = ln(x, layer.ln1_g.data, layer.ln1_b.data)
        q = h @ layer.wq.data + layer.bq.data
        k = h @ layer.wk.data + layer.bk.data
        v = h @ layer.wv.data + layer.bv.data
        scores = q @ k.T / np.sqrt(dim)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        attended = (p @ v) @ layer.wo.data + layer.bo.data
        mid = x + attended
        f = ln(mid, layer.ln2_g.data, layer.ln2_b.data)
        pre = f @ layer.w1.data + layer.b1.data
        c = np.sqrt(2.0 / np.pi)
        act = 0.5 * pre * (1.0 + np.tanh(c * (pre + 0.044715 * pre**3)))
        expected = mid + act @ layer.w2.data + layer.b2.data

        got = layer.forward(Tensor(x), 2).data  # two supports: full attention
        assert np.allclose(got, expected, atol=1e-12)

    def test_masked_positions_get_zero_attention(self):
        # a query row is masked out for every row but itself: moving it
        # must leave the supports and the other query bit-identical
        rng = np.random.default_rng(2)
        layer = EncoderLayer.create(4, 2, 8, rng)
        x = rng.standard_normal((4, 4))
        base = layer.forward(Tensor(x), 2).data
        x[3] += 5.0
        moved = layer.forward(Tensor(x), 2).data
        assert np.array_equal(base[:3], moved[:3])
        assert not np.array_equal(base[3], moved[3])

    def test_nan_activations_reported_with_layer_index(self):
        rng = np.random.default_rng(3)
        stack = [EncoderLayer.create(4, 2, 8, rng) for _ in range(2)]
        stack[1].wo.data[...] = np.nan
        x = Tensor(rng.standard_normal((3, 4)))
        with pytest.raises(NumericError, match="layer 1"):
            encoder_forward(x, 2, stack)


class TestDenseOracleEquivalence:
    """The fused encoder matches the dense masked chain it replaced."""

    @given(st.integers(1, 7), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_logits_and_every_parameter_gradient(self, s, q, seed):
        from tokentab.training import FinetuneConfig, total_loss

        model = small_model(seed=seed % 7, dim=8, layers=2, heads=4)
        batch = random_batch(seed=seed, s=s, q=q)
        cfg = FinetuneConfig(lambda_orth=1.0)
        params = [t for _, t in model.named_tensors() if t.requires_grad]

        def run():
            for t in params:
                t.grad = None
            loss = total_loss(batch, model, cfg)
            loss.backward()
            return model.predict_logits(batch).data, [t.grad.copy() for t in params]

        fused, fused_grads = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("tokentab.model.encoder_forward",
                       attention_oracle.encoder_forward)
            dense, dense_grads = run()
        assert np.allclose(fused, dense, rtol=0.0, atol=1e-12)
        for a, b in zip(fused_grads, dense_grads):
            assert np.allclose(a, b, rtol=0.0, atol=1e-12)


class TestPredict:
    def test_support_permutation_leaves_query_logits_unchanged(self):
        model = small_model()
        batch = random_batch(seed=5)
        base = model.predict_logits(batch).data
        perm = np.random.default_rng(1).permutation(batch.s)
        shuffled = SupportQueryBatch(
            support_num=batch.support_num[perm],
            support_cat=batch.support_cat[perm],
            support_y=batch.support_y[perm],
            query_num=batch.query_num, query_cat=batch.query_cat,
            query_y=batch.query_y, n_classes=batch.n_classes,
        )
        assert np.allclose(model.predict_logits(shuffled).data, base, atol=1e-10)

    def test_query_permutation_permutes_logits(self):
        model = small_model()
        batch = random_batch(seed=6)
        base = model.predict_logits(batch).data
        perm = np.random.default_rng(2).permutation(batch.q)
        shuffled = SupportQueryBatch(
            support_num=batch.support_num, support_cat=batch.support_cat,
            support_y=batch.support_y,
            query_num=batch.query_num[perm], query_cat=batch.query_cat[perm],
            query_y=batch.query_y[perm], n_classes=batch.n_classes,
        )
        assert np.allclose(model.predict_logits(shuffled).data, base[perm],
                           atol=1e-10)

    def test_duplicate_query_rows_get_identical_logits(self):
        model = small_model()
        rng = np.random.default_rng(7)
        qn = rng.standard_normal((1, 2))
        qc = np.array([[1, 4]])
        batch = SupportQueryBatch(
            support_num=rng.standard_normal((3, 2)),
            support_cat=np.array([[1, 4], [2, 5], [0, 3]]),
            support_y=np.array([0, 1, 2]),
            query_num=np.vstack([qn, qn]),
            query_cat=np.vstack([qc, qc]),
            n_classes=3,
        )
        logits = model.predict_logits(batch).data
        assert np.array_equal(logits[0], logits[1])

    def test_query_isolation_under_row_deletion(self):
        model = small_model()
        batch = random_batch(seed=8, q=4)
        full = model.predict_logits(batch).data
        reduced = SupportQueryBatch(
            support_num=batch.support_num, support_cat=batch.support_cat,
            support_y=batch.support_y,
            query_num=batch.query_num[:-1], query_cat=batch.query_cat[:-1],
            n_classes=batch.n_classes,
        )
        kept = model.predict_logits(reduced).data
        assert np.allclose(full[:-1], kept, atol=1e-12)

    def test_prediction_mutates_no_parameters(self):
        model = small_model()
        before = {name: t.data.tobytes() for name, t in model.named_tensors()}
        model.predict_logits(random_batch(seed=9))
        after = {name: t.data.tobytes() for name, t in model.named_tensors()}
        assert before == after

    def test_shuffled_query_labels_leave_logits_unchanged(self):
        model = small_model()
        batch = random_batch(seed=10)
        base = model.predict_logits(batch).data
        batch.query_y = np.random.default_rng(0).permutation(batch.query_y)
        assert np.array_equal(model.predict_logits(batch).data, base)

    def test_too_many_classes_rejected(self):
        model = small_model(max_classes=3)
        batch = random_batch(seed=11)
        batch.n_classes = 9
        with pytest.raises(IndexError):
            model.predict_logits(batch)


class TestPredictProba:
    def test_uniform_logits_give_uniform_rows(self):
        model = small_model()
        model.head_w.data[...] = 0.0
        model.head_b.data[...] = 0.0
        probs = model.predict_proba(random_batch(seed=12)).data
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_records_no_graph_and_no_gradients(self):
        model = small_model()
        logits = []
        forward = model.predict_logits
        model.predict_logits = lambda b: logits.append(forward(b)) or logits[-1]
        probs = model.predict_proba(random_batch(seed=15))
        assert probs._parents == () and probs._backward is None
        assert logits[0]._parents == () and not logits[0].requires_grad
        assert all(t.grad is None for _, t in model.named_tensors())

    def test_matches_softmax_of_logits(self):
        from tokentab.autodiff import softmax_rows

        model = small_model()
        batch = random_batch(seed=16)
        expected = softmax_rows(model.predict_logits(batch).data)
        assert np.array_equal(model.predict_proba(batch).data, expected)

    def test_rows_sum_to_one(self):
        probs = small_model().predict_proba(random_batch(seed=13)).data
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_binary_softmax_hand_case(self):
        from tokentab.autodiff import softmax_rows

        probs = softmax_rows(np.array([[np.log(2.0), 0.0]]))
        assert np.allclose(probs, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)


class TestRowBlockedInference:
    """Episodes longer than one attention row block."""

    def test_query_alone_matches_query_among_all_queries(self):
        model = small_model()
        batch = random_batch(seed=17, s=200, q=150)
        assert len(autodiff._row_blocks(batch.s + batch.q)) > 1
        together = model.predict_proba(batch).data
        for i in range(batch.q):
            alone = SupportQueryBatch(
                support_num=batch.support_num, support_cat=batch.support_cat,
                support_y=batch.support_y, query_num=batch.query_num[i:i + 1],
                query_cat=batch.query_cat[i:i + 1], n_classes=batch.n_classes,
            )
            assert np.allclose(model.predict_proba(alone).data[0], together[i],
                               rtol=0.0, atol=1e-12)

    def test_predict_proba_peak_memory_at_1000_plus_1000_rows(self):
        # the whole (heads, S+Q, S) weight block alone would be 61 MiB here
        model = small_model(dim=64, layers=3, heads=4)
        batch = random_batch(seed=18, s=1000, q=1000)
        tracemalloc.start()
        try:
            model.predict_proba(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestRowEmbedding:
    def schema(self):
        return FeatureSchema((
            Column("x", "numerical"),
            Column("c", "categorical", ("a", "b")),
        ))

    def test_zero_numerical_row_without_categoricals(self):
        schema = FeatureSchema((Column("x", "numerical"),
                                Column("y", "numerical")))
        rng = np.random.default_rng(0)
        tok = FeatureTokenizer.create(2, (), 4, rng)
        out = embed_query([0.0, 0.0], [], tok, schema)
        assert np.array_equal(out.data, np.zeros(4))

    def test_single_nan_categorical_embeds_to_identifier(self):
        schema = FeatureSchema((Column("c", "categorical", ("a", "b")),))
        rng = np.random.default_rng(1)
        tok = FeatureTokenizer.create(0, (2,), 4, rng)
        out = embed_query([], [None], tok, schema)
        assert np.array_equal(out.data, tok.identifiers.data[0])

    def test_mixed_row_is_sum_of_tokens(self):
        from tokentab.autodiff import aggregate_tokens

        schema = self.schema()
        rng = np.random.default_rng(2)
        tok = FeatureTokenizer.create(1, (2,), 4, rng)
        composed = aggregate_tokens([
            tokenize_numerical(1.5, 0, tok),
            tokenize_categorical("b", 0, tok, schema),
        ]).data
        assert np.array_equal(embed_query([1.5], ["b"], tok, schema).data, composed)

    def test_embed_support_zero_label_equals_embed_query(self):
        schema = self.schema()
        rng = np.random.default_rng(3)
        tok = FeatureTokenizer.create(1, (2,), 4, rng)
        w_y = Tensor(rng.standard_normal((1, 4)))
        base = embed_query([0.7], ["a"], tok, schema).data
        sup = embed_support([0.7], ["a"], 0, tok, schema, w_y, n_classes=2).data
        assert np.array_equal(sup, base)

    def test_embed_support_label_one_on_zero_row(self):
        schema = FeatureSchema((Column("x", "numerical"),))
        rng = np.random.default_rng(4)
        tok = FeatureTokenizer.create(1, (), 4, rng)
        w_y = Tensor(rng.standard_normal((1, 4)))
        sup = embed_support([0.0], [], 1, tok, schema, w_y, n_classes=2).data
        assert np.array_equal(sup, w_y.data[0])

    def test_embed_support_scales_label_row(self):
        schema = self.schema()
        rng = np.random.default_rng(5)
        tok = FeatureTokenizer.create(1, (2,), 4, rng)
        w_y = Tensor(rng.standard_normal((1, 4)))
        base = embed_query([0.4], ["a"], tok, schema).data
        sup = embed_support([0.4], ["a"], 2, tok, schema, w_y, n_classes=3).data
        assert np.allclose(sup, base + 2.0 * w_y.data[0], atol=1e-15)

    def test_label_out_of_range(self):
        schema = self.schema()
        tok = FeatureTokenizer.create(1, (2,), 4, np.random.default_rng(6))
        w_y = Tensor(np.zeros((1, 4)))
        with pytest.raises(IndexError):
            embed_support([0.0], ["a"], 5, tok, schema, w_y, n_classes=3)

    def test_schema_mismatch(self):
        from tokentab.tokenizer import SchemaError

        schema = self.schema()
        tok = FeatureTokenizer.create(1, (2,), 4, np.random.default_rng(7))
        with pytest.raises(SchemaError):
            embed_query([1.0, 2.0], ["a"], tok, schema)


class TestModelConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ModelConfig(embed_dim=10, heads=4)
        with pytest.raises(ValueError):
            ModelConfig(layers=0)
        with pytest.raises(ValueError):
            ModelConfig(max_classes=1)

    def test_full_model_gradients_on_small_episode(self):
        from tokentab.gradcheck import grad_check
        from tokentab.training import FinetuneConfig, total_loss

        model = small_model(seed=4, dim=4, layers=1, heads=2)
        batch = random_batch(seed=14, s=3, q=2)
        cfg = FinetuneConfig(lambda_orth=1.0)
        params = [t for _, t in model.named_tensors() if t.requires_grad]
        err = grad_check(lambda: total_loss(batch, model, cfg), params, eps=1e-5)
        assert err < 1e-4
