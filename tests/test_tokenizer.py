import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chain_ops import add, mul, sum_all
from tokenizer_oracle import (
    embed_query,
    embed_rows_chain,
    map_category,
    on_recorded_blas,
    table_gradient_scatter,
    tokenize_categorical,
    tokenize_numerical,
)

from tokentab.autodiff import NumericError, Tensor, _op
from tokentab.gradcheck import grad_check
from tokentab.tokenizer import (
    NAN_ROW,
    PRODUCT_SHARE,
    Column,
    FeatureSchema,
    FeatureTokenizer,
    SchemaError,
    category_gram_matrix,
    identifier_gram_matrix,
    first_rows,
    mean_abs_off_diagonal,
    orthogonal_loss,
)


def make_schema():
    return FeatureSchema((
        Column("age", "numerical"),
        Column("color", "categorical", ("red", "green", "blue")),
        Column("size", "categorical", ("s", "m")),
    ))


def make_tokenizer(dim=4, seed=0):
    schema = make_schema()
    rng = np.random.default_rng(seed)
    tok = FeatureTokenizer.create(schema.n, schema.vocab_sizes, dim, rng)
    return schema, tok


def brute_force_orthogonal_loss(rows: np.ndarray) -> float:
    """Ordered-pair sum of squared cosines, straight from the definition."""
    unit = [r / np.linalg.norm(r) for r in rows]
    total = 0.0
    for i in range(len(unit)):
        for j in range(len(unit)):
            if i != j:
                total += float(np.dot(unit[i], unit[j])) ** 2
    return total


class TestSchema:
    def test_counts_and_offsets(self):
        schema = make_schema()
        assert schema.n == 1 and schema.m == 2
        assert schema.vocab_sizes == (3, 2)
        assert schema.offsets == (1, 4)
        assert schema.table_rows == 6

    def test_duplicate_vocabulary_rejected(self):
        with pytest.raises(SchemaError):
            Column("c", "categorical", ("a", "a"))

    def test_nan_sentinel_rejected(self):
        with pytest.raises(SchemaError):
            Column("c", "categorical", ("a", None))


class TestMapCategory:
    def test_missing_maps_to_reserved_row(self):
        schema = make_schema()
        assert map_category(None, 0, schema) == 0
        assert map_category(float("nan"), 1, schema) == 0

    def test_first_entry_of_first_column(self):
        assert map_category("red", 0, make_schema()) == 1

    def test_offset_arithmetic(self):
        # column 0 holds 3 categories, so column 1 starts at row 4
        assert map_category("m", 1, make_schema()) == 4 + 1

    def test_unseen_value_maps_to_reserved_row(self):
        assert map_category("purple", 0, make_schema()) == 0

    def test_column_out_of_range(self):
        with pytest.raises(IndexError):
            map_category("red", 2, make_schema())


class TestTokenizeNumerical:
    def setup_method(self):
        _, self.tok = make_tokenizer(dim=3)
        self.tok.w_num.data[0] = [1.0, 2.0, 3.0]

    def test_zero_scaling(self):
        assert np.array_equal(tokenize_numerical(0.0, 0, self.tok).data, [0.0, 0.0, 0.0])

    def test_identity_returns_row(self):
        assert np.array_equal(tokenize_numerical(1.0, 0, self.tok).data, [1.0, 2.0, 3.0])

    def test_scalar_vector_multiply(self):
        assert np.array_equal(tokenize_numerical(2.5, 0, self.tok).data, [2.5, 5.0, 7.5])

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            tokenize_numerical(1.0, 9, self.tok)

    def test_non_finite_value(self):
        with pytest.raises(NumericError):
            tokenize_numerical(float("nan"), 0, self.tok)

    def test_no_gradient_reaches_frozen_rows(self):
        schema = make_schema()
        tok = FeatureTokenizer.create(schema.n, schema.vocab_sizes, 3,
                                      np.random.default_rng(0))
        tok.w_num.requires_grad = False
        out = tokenize_numerical(2.0, 0, tok)
        sum_all(out).backward()
        assert tok.w_num.grad is None


class TestTokenizeCategorical:
    def test_nan_token_is_identifier_only(self):
        schema, tok = make_tokenizer(dim=2)
        tok.identifiers.data[0] = [0.1, 0.2]
        out = tokenize_categorical(None, 0, tok, schema)
        assert np.array_equal(out.data, [0.1, 0.2])  # zero row plus identifier

    def test_zero_identifier_returns_table_row(self):
        schema, tok = make_tokenizer(dim=2)
        tok.table.data[1] = [1.0, 0.0]
        tok.identifiers.data[0] = [0.0, 0.0]
        out = tokenize_categorical("red", 0, tok, schema)
        assert np.array_equal(out.data, [1.0, 0.0])

    def test_elementwise_add(self):
        schema, tok = make_tokenizer(dim=2)
        tok.table.data[1] = [1.0, 2.0]
        tok.identifiers.data[0] = [0.5, -0.5]
        out = tokenize_categorical("red", 0, tok, schema)
        assert np.array_equal(out.data, [1.5, 1.5])

    def test_gradient_reaches_table_and_identifier(self):
        schema, tok = make_tokenizer(dim=2)
        sum_all(tokenize_categorical("red", 0, tok, schema)).backward()
        assert tok.table.grad is not None
        assert tok.identifiers.grad is not None
        assert np.all(tok.table.grad[1] == 1.0)
        assert np.all(tok.table.grad[2:] == 0.0)


class TestOrthogonalLoss:
    def test_orthogonal_rows_give_zero(self):
        ids = Tensor([[1.0, 0.0], [0.0, 1.0]], requires_grad=True)
        assert orthogonal_loss(ids).item() == 0.0

    def test_duplicated_rows_give_two(self):
        ids = Tensor([[1.0, 0.0], [1.0, 0.0]], requires_grad=True)
        assert orthogonal_loss(ids).item() == 2.0  # ordered pairs (1,2) and (2,1)

    def test_single_identifier_gives_zero(self):
        ids = Tensor([[3.0, 4.0]], requires_grad=True)
        assert orthogonal_loss(ids).item() == 0.0

    @given(st.integers(1, 8), st.integers(2, 32), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_ordered_pair_sum(self, m, d, seed):
        rows = np.random.default_rng(seed).standard_normal((m, d))
        got = orthogonal_loss(Tensor(rows)).item()
        assert got == pytest.approx(brute_force_orthogonal_loss(rows), abs=1e-10)

    @given(st.integers(2, 6), st.integers(2, 16), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_positive_row_rescaling(self, m, d, seed):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((m, d))
        scales = rng.uniform(0.1, 10.0, size=(m, 1))
        base = orthogonal_loss(Tensor(rows)).item()
        scaled = orthogonal_loss(Tensor(scales * rows)).item()
        assert scaled == pytest.approx(base, abs=1e-10)

    @given(st.integers(1, 8), st.integers(2, 16), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bounds(self, m, d, seed):
        rows = np.random.default_rng(seed).standard_normal((m, d))
        value = orthogonal_loss(Tensor(rows)).item()
        assert 0.0 <= value <= m * (m - 1) + 1e-12

    def test_zero_norm_row_guarded(self):
        ids = Tensor([[0.0, 0.0], [1.0, 0.0]], requires_grad=True)
        loss = orthogonal_loss(ids)
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.isfinite(ids.grad).all()

    def test_gradient_matches_finite_differences(self):
        ids = Tensor(np.random.default_rng(5).standard_normal((4, 6)),
                     requires_grad=True)
        err = grad_check(lambda: orthogonal_loss(ids), [ids])
        assert err < 1e-6


class TestGramMatrices:
    def test_identity_table_gives_identity(self):
        table = FeatureTokenizer.create(0, (2,), 3, np.random.default_rng(0)).table
        table.data[...] = np.eye(3)
        assert np.array_equal(category_gram_matrix(table), np.eye(3))

    def test_symmetric_nonnegative_diagonal(self):
        table = FeatureTokenizer.create(0, (3, 2), 4, np.random.default_rng(1)).table
        g = category_gram_matrix(table)
        assert np.array_equal(g, g.T)
        assert (np.diag(g) >= 0.0).all()

    def test_matches_pairwise_dot_oracle(self):
        rows = np.random.default_rng(2).standard_normal((3, 4))
        table = FeatureTokenizer.create(0, (2,), 4, np.random.default_rng(0)).table
        table.data[...] = rows
        g = category_gram_matrix(table)
        for i in range(3):
            for j in range(3):
                assert g[i, j] == pytest.approx(float(np.dot(rows[i], rows[j])), rel=1e-12)

    def test_identifier_gram_orthonormal_is_identity(self):
        ids = Tensor(np.eye(3))
        assert np.allclose(identifier_gram_matrix(ids), np.eye(3), atol=1e-9)

    def test_identifier_gram_identical_rows_all_ones(self):
        ids = Tensor(np.tile([2.0, 1.0], (3, 1)))
        assert np.allclose(identifier_gram_matrix(ids), np.ones((3, 3)), atol=1e-9)

    def test_identifier_gram_cosine_properties(self):
        ids = Tensor(np.random.default_rng(3).standard_normal((3, 5)))
        g = identifier_gram_matrix(ids)
        assert np.array_equal(g, g.T)
        assert np.allclose(np.diag(g), 1.0, atol=1e-9)
        assert (np.abs(g) <= 1.0 + 1e-12).all()

    def test_mean_abs_off_diagonal(self):
        g = np.array([[1.0, 0.2], [-0.4, 1.0]])
        assert mean_abs_off_diagonal(g) == pytest.approx(0.3)
        assert mean_abs_off_diagonal(np.array([[1.0]])) == 0.0


class TestEmbedding:
    def test_table_row_zero_fixed_after_training_steps(self):
        from tokentab.optim import Adam

        schema, tok = make_tokenizer(dim=4, seed=2)
        opt = Adam([tok.w_num, tok.table, tok.identifiers], lr=0.1)
        num = np.random.default_rng(0).standard_normal((6, 1))
        cat = np.array([[0, 4], [1, 5], [2, 4], [3, 5], [0, 4], [2, 5]])
        for _ in range(20):
            opt.zero_grad()
            e = tok.embed_rows(num, cat)
            sum_all(mul(e, e)).backward()
            opt.step()
        assert tok.table.data[0].tobytes() == np.zeros(4).tobytes()

    def test_all_nan_zero_sample_embeds_to_identifier_sum(self):
        schema, tok = make_tokenizer(dim=4, seed=3)
        from tokentab.autodiff import aggregate_tokens
        from tokentab.autodiff import Tensor as T

        num = np.zeros((1, 1))
        cat = np.zeros((1, 2), dtype=np.intp)  # both categoricals missing
        embedded = tok.embed_rows(num, cat).data[0]
        expected = aggregate_tokens([T(tok.identifiers.data[j]) for j in range(2)]).data
        assert embedded.tobytes() == expected.tobytes()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_feature_permutation_equivariance_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        n, m, d, rows = 3, 3, 8, 5
        sizes = (2, 3, 2)
        tok = FeatureTokenizer.create(n, sizes, d, rng)
        num = rng.standard_normal((rows, n))
        cat_local = np.column_stack([rng.integers(0, s + 1, size=rows) for s in sizes])
        offsets = (1, 3, 6)
        cat = np.where(cat_local == 0, 0,
                       cat_local - 1 + np.array(offsets)[None, :])
        base = tok.embed_rows(num, cat).data

        perm_n = rng.permutation(n)
        perm_m = rng.permutation(m)
        sizes_p = tuple(sizes[j] for j in perm_m)
        tok_p = FeatureTokenizer.create(n, sizes_p, d, rng)
        tok_p.w_num.data[...] = tok.w_num.data[perm_n]
        tok_p.identifiers.data[...] = tok.identifiers.data[perm_m]
        # rebuild the table with each column's block moved to its new offset
        offsets_p = first_rows(sizes_p)
        tok_p.table.data[0] = tok.table.data[0]
        for new_j, old_j in enumerate(perm_m):
            size = sizes[old_j]
            src = tok.table.data[offsets[old_j]:offsets[old_j] + size]
            tok_p.table.data[offsets_p[new_j]:offsets_p[new_j] + size] = src
        cat_local_p = cat_local[:, perm_m]
        cat_p = np.where(cat_local_p == 0, 0,
                         cat_local_p - 1 + np.array(offsets_p)[None, :])
        permuted = tok_p.embed_rows(num[:, perm_n], cat_p).data
        assert base.tobytes() == permuted.tobytes()

    def test_batch_path_matches_single_row_path_bitwise(self):
        schema, tok = make_tokenizer(dim=4, seed=4)
        rng = np.random.default_rng(7)
        num = rng.standard_normal((5, 1))
        raw_cats = [["red", "m"], [None, "s"], ["blue", None], ["green", "m"],
                    ["purple", "s"]]  # includes an unseen value
        cat = np.array([[map_category(rc[0], 0, schema),
                         map_category(rc[1], 1, schema)]
                        for rc in raw_cats], dtype=np.intp)
        batch = tok.embed_rows(num, cat).data
        for r in range(5):
            single = embed_query(num[r], raw_cats[r], tok, schema).data
            assert batch[r].tobytes() == single.tobytes()

    def test_capacity_exceeded_raises_schema_error(self):
        schema, tok = make_tokenizer(dim=4)
        with pytest.raises(SchemaError):
            tok.embed_rows(np.zeros((2, 5)), np.zeros((2, 2), dtype=np.intp))

    def test_full_tokenization_gradient_vs_finite_differences(self):
        schema, tok = make_tokenizer(dim=3, seed=6)
        rng = np.random.default_rng(8)
        num = rng.standard_normal((4, 1))
        cat = np.array([[1, 4], [0, 5], [3, 0], [2, 4]], dtype=np.intp)

        def target():
            e = tok.embed_rows(num, cat)
            return sum_all(mul(e, e))

        err = grad_check(target, [tok.w_num, tok.table, tok.identifiers])
        assert err < 1e-5


class TestTokenTable:
    def test_offsets_partition_rows(self):
        table = FeatureTokenizer.create(0, (3, 2), 4, np.random.default_rng(0)).table
        assert first_rows((3, 2)) == (1, 4)
        assert table.shape == (6, 4)

    def test_row_zero_initialized_to_zero(self):
        table = FeatureTokenizer.create(0, (3, 2), 4, np.random.default_rng(0)).table
        assert np.array_equal(table.data[0], np.zeros(4))


# ---------------------------------------------------------------------------
# the fused embed_rows op against the per-column chain it replaced
# ---------------------------------------------------------------------------

# name: (numerical columns, vocabulary sizes, identifiers, trainable w_num,
#        rows, d)
FUSED_CASES = {
    "numerical_only": (3, (), True, True, 6, 5),
    "categorical_only": (0, (3, 2, 4), True, True, 6, 5),
    "both": (2, (3, 2), True, True, 7, 5),
    "no_identifiers": (2, (3, 2), False, True, 7, 5),
    "frozen_w_num": (2, (3, 2), True, False, 7, 5),
    "one_row": (2, (3, 2), True, True, 1, 5),
    "wide": (2, (8,) * 30, True, True, 240, 64),   # the finetune-wide shape
}


def fused_case(name, seed=0):
    """A fresh tokenizer plus a query-like and a support-like encoded batch.

    Categorical indices repeat, and about a third are row 0 (missing or
    unseen), so the reserved row is shared by every column.
    """
    n, sizes, use_ids, train_num, rows, dim = FUSED_CASES[name]
    tok = FeatureTokenizer.create(n, sizes, dim, np.random.default_rng(seed))
    tok.w_num.requires_grad = train_num
    if not use_ids:
        tok.identifiers = None
    rng = np.random.default_rng(seed + 1)
    offsets = first_rows(sizes)
    batches = []
    for _ in range(2):
        num = rng.standard_normal((rows, n))
        cols = [np.where(rng.random(rows) < 0.35, 0,
                         offsets[j] + rng.integers(0, size, size=rows))
                for j, size in enumerate(sizes)]
        cat = (np.column_stack(cols).astype(np.intp) if cols
               else np.zeros((rows, 0), dtype=np.intp))
        batches.append((num, cat))
    return tok, batches


def run_two_calls(tok, batches, embed):
    """Embed both batches and backpropagate through both plus the penalty.

    The consumers differ per call, so each call's gradient is distinct; the
    orthogonality term gives the identifiers a third addend.
    """
    (num_a, cat_a), (num_b, cat_b) = batches
    a = embed(tok, num_a, cat_a)
    b = embed(tok, num_b, cat_b)
    weights = Tensor(num_b.sum(axis=1)[:, None] + np.arange(float(tok.dim)))
    loss = add(sum_all(mul(a, a)), sum_all(mul(b, weights)))
    if tok.identifiers is not None and tok.identifiers.shape[0] > 1:
        loss = add(orthogonal_loss(tok.identifiers), loss)
    loss.backward()
    params = {"tokenizer.w_num": tok.w_num, "tokenizer.table": tok.table,
              "tokenizer.identifiers": tok.identifiers}
    grads = {name: t.grad for name, t in params.items() if t is not None}
    return a.data, b.data, grads


class TestFusedEmbedRows:
    @pytest.mark.parametrize("name", sorted(FUSED_CASES))
    def test_forward_and_gradients_match_the_chain(self, name):
        tok_f, batches = fused_case(name)
        tok_c, _ = fused_case(name)
        a_f, b_f, g_f = run_two_calls(tok_f, batches, FeatureTokenizer.embed_rows)
        a_c, b_c, g_c = run_two_calls(tok_c, batches, embed_rows_chain)
        assert np.array_equal(a_f, a_c) and np.array_equal(b_f, b_c)
        for key in ("tokenizer.w_num", "tokenizer.identifiers"):
            if key in g_c:
                assert (g_f[key] is None) == (g_c[key] is None), key
                assert g_c[key] is None or np.array_equal(g_f[key], g_c[key]), key
        t_f, t_c = g_f["tokenizer.table"], g_c["tokenizer.table"]
        assert (t_f is None) == (t_c is None)
        if t_c is not None:
            # rows >= 1 belong to one column each; row 0 is a constant zero
            # token for the fused op, while the chain still reads it. The
            # table gradient's product sums in the chain's order on the
            # recorded BLAS only.
            if on_recorded_blas():
                assert np.array_equal(t_f[1:], t_c[1:])
            else:
                assert np.allclose(t_f[1:], t_c[1:], rtol=1e-12,
                                   atol=1e-12 * np.abs(t_c).max())
            assert not t_f[0].any()

    def test_frozen_w_num_gets_no_gradient(self):
        tok, batches = fused_case("frozen_w_num")
        run_two_calls(tok, batches, FeatureTokenizer.embed_rows)
        assert tok.w_num.grad is None
        assert tok.table.grad is not None

    def test_no_categorical_columns_leave_table_and_identifiers_untouched(self):
        tok, batches = fused_case("numerical_only")
        run_two_calls(tok, batches, FeatureTokenizer.embed_rows)
        assert tok.w_num.grad is not None
        assert tok.table.grad is None
        assert tok.identifiers.grad is None

    def test_one_graph_node_over_parameter_leaves(self):
        tok, [(num, cat), _] = fused_case("both")
        e = tok.embed_rows(num, cat)
        tape = sum_all(e).backward()
        assert len(tape.nodes) == 5   # 3 leaves, embed_rows, sum_all
        assert e._parents == (tok.w_num, tok.table, tok.identifiers)

    def test_row_zero_is_a_constant_zero_token(self):
        tok, [(num, cat), (num_b, cat_b)] = fused_case("both")
        assert (cat == 0).any() and (cat_b == 0).any()
        at_zero = tok.embed_rows(num, cat).data
        tok.table.data[0] = 1.0
        e = tok.embed_rows(num, cat)
        assert e.data.tobytes() == at_zero.tobytes()
        sum_all(mul(e, e)).backward()
        assert not tok.table.grad[0].any()

        def target():
            a = tok.embed_rows(num, cat)
            b = tok.embed_rows(num_b, cat_b)
            return sum_all(mul(mul(a, a), b))

        assert grad_check(target, [tok.table]) < 1e-6

    def test_gradient_vs_finite_differences(self):
        tok, [(num, cat), (num_b, cat_b)] = fused_case("both", seed=3)
        assert tok.w_num.requires_grad

        def target():
            a = tok.embed_rows(num, cat)
            b = tok.embed_rows(num_b, cat_b)
            return sum_all(mul(mul(a, a), b))

        err = grad_check(target, [tok.w_num, tok.table, tok.identifiers])
        assert err < 1e-6

    @pytest.mark.parametrize("num, cat, error", [
        (np.zeros((3, 2)), np.zeros((2, 2), dtype=np.intp), SchemaError),
        (np.zeros((3, 4)), np.zeros((3, 2), dtype=np.intp), SchemaError),
        (np.zeros((3, 2)), np.zeros((3, 3), dtype=np.intp), SchemaError),
        (np.array([[0.0, np.nan]]), np.zeros((1, 2), dtype=np.intp), NumericError),
        (np.array([[0.0, np.inf]]), np.zeros((1, 2), dtype=np.intp), NumericError),
        (np.zeros((2, 2)), np.array([[1, 6], [0, 0]]), IndexError),
        (np.zeros((2, 2)), np.array([[1, -1], [0, 0]]), IndexError),
        (np.zeros((2, 0)), np.zeros((2, 0), dtype=np.intp), ValueError),
    ])
    def test_bad_batches_raise_like_the_chain(self, num, cat, error):
        tok, _ = fused_case("both")   # capacity 2 numerical, 2 categorical
        with pytest.raises(error):
            tok.embed_rows(num, cat)
        with pytest.raises(error):
            embed_rows_chain(tok, num, cat)


def table_batch(seed, dim, sizes, rows, nan_share=0.3):
    """A tokenizer plus a categorical batch over its columns and an upstream
    gradient; about ``nan_share`` of the cells are ``NAN_ROW``."""
    rng = np.random.default_rng(seed)
    tok = FeatureTokenizer.create(0, sizes, dim, rng)
    cols = [np.where(rng.random(rows) < nan_share, NAN_ROW,
                     offset + rng.integers(0, size, size=rows))
            for offset, size in zip(first_rows(sizes), sizes)]
    cat = np.column_stack(cols).astype(np.intp)
    return tok, cat, rng.standard_normal((rows, dim))


def table_gradient_of_op(tok, cat, g):
    """The table gradient ``embed_rows`` accumulates for upstream ``g``."""
    e = tok.embed_rows(np.zeros((cat.shape[0], 0)), cat)
    sum_all(mul(e, Tensor(g))).backward()   # e receives 1.0 * g: exactly g
    return tok.table.grad


def touched_rows(cat):
    return np.setdiff1d(cat, [NAN_ROW])


def product_rows(cat):
    """The table rows whose gradient comes from the product: read by at
    least one batch row in ``PRODUCT_SHARE``."""
    reads = np.bincount(cat.ravel())
    reads[NAN_ROW] = 0
    return np.flatnonzero((reads > 0) & (reads * PRODUCT_SHARE >= cat.shape[0]))


def assert_within_1e_12_of_the_scatter(tok, cat, g):
    """Element-wise within 1e-12 of the sum of |terms|; exact zeros on
    ``NAN_ROW`` and every untouched row."""
    table_rows = tok.table.shape[0]
    got = table_gradient_of_op(tok, cat, g)
    ref = table_gradient_scatter(table_rows, cat.T, g)
    scale = table_gradient_scatter(table_rows, cat.T, np.abs(g))
    assert (np.abs(got - ref) <= 1e-12 * scale).all()
    untouched = np.setdiff1d(np.arange(table_rows), touched_rows(cat))
    assert NAN_ROW in untouched and not got[untouched].any()


class TestTableGradient:
    """Rows read by many batch rows get their gradient from one product,
    the others from a sequential sum; the scatter-add both replaced is the
    reference."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([5, 8, 16, 64]),
           sizes=st.lists(st.integers(2, 1000), min_size=1, max_size=30),
           rows=st.integers(1, 256))
    def test_bit_identical_to_the_scatter_up_to_256_rows(self, seed, dim,
                                                         sizes, rows):
        """Holds for the BLAS the product was checked on: its sums follow
        batch-row order up to 256 rows at d >= 5 unless the product has
        exactly one row (numpy's gemv path). Elsewhere the 1e-12 bound
        below is the check."""
        if not on_recorded_blas():
            pytest.skip("bit-exact products recorded for OpenBLAS 0.3.31 only")
        tok, cat, g = table_batch(seed, dim, sizes, rows)
        assume(product_rows(cat).size != 1)
        ref = table_gradient_scatter(tok.table.shape[0], cat.T, g)
        assert np.array_equal(table_gradient_of_op(tok, cat, g), ref)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           dim=st.sampled_from([1, 2, 3, 5, 8, 64]),
           sizes=st.lists(st.integers(1, 1000), min_size=1, max_size=30),
           rows=st.integers(1, 2000), nan_share=st.sampled_from([0.0, 0.3, 0.9]))
    def test_rows_outside_the_product_are_bit_identical_at_any_shape(
            self, seed, dim, sizes, rows, nan_share):
        """The sequential sum needs no BLAS: exact on every shape."""
        tok, cat, g = table_batch(seed, dim, sizes, rows, nan_share)
        table_rows = tok.table.shape[0]
        summed = np.setdiff1d(np.arange(table_rows), product_rows(cat))
        got = table_gradient_of_op(tok, cat, g)
        ref = table_gradient_scatter(table_rows, cat.T, g)
        assert np.array_equal(got[summed], ref[summed])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           dim=st.sampled_from([1, 2, 3, 5, 8, 64]),
           sizes=st.lists(st.integers(1, 1000), min_size=1, max_size=30),
           rows=st.integers(1, 2000), nan_share=st.sampled_from([0.0, 0.3, 0.9]))
    def test_within_1e_12_of_the_scatter_at_any_shape(self, seed, dim, sizes,
                                                      rows, nan_share):
        tok, cat, g = table_batch(seed, dim, sizes, rows, nan_share)
        assert_within_1e_12_of_the_scatter(tok, cat, g)

    def test_one_column_splits_between_product_and_sum(self):
        """Of 400 rows, 300 read three values and 100 read one value each:
        the product takes the three, the sum the other 100."""
        tok, _, g = table_batch(0, 8, (103,), 400, nan_share=0.0)
        first = first_rows((103,))[0]
        cat = first + np.concatenate([np.arange(300) % 3, 3 + np.arange(100)])
        cat = cat[:, None].astype(np.intp)
        assert product_rows(cat).tolist() == [first, first + 1, first + 2]
        assert_within_1e_12_of_the_scatter(tok, cat, g)
        got = tok.table.grad
        ref = table_gradient_scatter(tok.table.shape[0], cat.T, g)
        assert np.array_equal(got[first + 3:], ref[first + 3:])

    def test_one_touched_row(self):
        tok, cat, g = table_batch(0, 2, (3,), 300, nan_share=0.0)
        cat[:] = first_rows((3,))[0] + 1
        assert_within_1e_12_of_the_scatter(tok, cat, g)

    def test_a_repeated_cell_counts_twice(self):
        """Two columns of one batch row reading one table row is not a
        well-formed batch, but its gradient still adds both reads."""
        tok, _, g = table_batch(0, 5, (3, 3), 4)
        cat = np.full((4, 2), 2, dtype=np.intp)
        got = table_gradient_of_op(tok, cat, g)
        assert np.allclose(got[2], 2.0 * g.sum(axis=0), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_upstream_gradient_names_the_table(self, bad):
        tok, cat, g = table_batch(0, 5, (3, 4), 6)
        e = tok.embed_rows(np.zeros((6, 0)), cat)
        g[2, 1] = bad

        def backward(_):
            e._accumulate(g)

        with pytest.raises(NumericError, match="tokenizer.table"):
            sum_all(_op(e.data.copy(), (e,), backward)).backward()
