import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attention_oracle import attention, concat_cols, masked_softmax, transpose2d
from chain_ops import (
    add,
    concat_rows,
    gelu,
    layer_norm,
    linear_forward,
    matmul,
    mul,
    mul_scalar,
    outer_scale_row,
    slice_cols,
    slice_rows,
    sum_all,
)
from tokenizer_oracle import gather_rows, row
from tokentab import autodiff
from tokentab.autodiff import (
    DimensionError,
    NumericError,
    Tensor,
    aggregate_tokens,
    no_grad,
    softmax_cross_entropy,
    softmax_rows,
)
from tokentab.gradcheck import grad_check
from tokentab.optim import Adam
from tokentab.tokenizer import orthogonal_loss


def tensor(data, rg=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


class TestLinearForward:
    def test_identity_input_returns_weight_rows(self):
        x = tensor([[1.0, 0.0], [0.0, 1.0]])
        w = tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(linear_forward(x, w).data, w.data)

    def test_zero_input(self):
        x = tensor([[0.0, 0.0]])
        w = tensor([[3.0, 4.0, 5.0], [6.0, 7.0, 8.0]])
        assert np.array_equal(linear_forward(x, w).data, np.zeros((1, 3)))

    def test_hand_multiply_with_bias(self):
        # hand matrix multiply: [1*1+2*1+0.5, 1*1+2*(-1)+0.5]
        x = tensor([[1.0, 2.0]])
        w = tensor([[1.0, 1.0], [1.0, -1.0]])
        b = tensor([0.5, 0.5])
        assert np.array_equal(linear_forward(x, w, b).data, [[3.5, -0.5]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            linear_forward(tensor([[1.0, 2.0]]), tensor([[1.0], [2.0], [3.0]]))

    def test_gradients_flow_to_all_inputs(self):
        x, w, b = tensor([[1.0, 2.0]]), tensor([[1.0, 1.0], [1.0, -1.0]]), tensor([0.5, 0.5])
        sum_all(linear_forward(x, w, b)).backward()
        assert x.grad is not None and w.grad is not None and b.grad is not None

    def test_no_gradient_to_frozen(self):
        x = tensor([[1.0, 2.0]])
        w = tensor([[1.0, 1.0], [1.0, -1.0]], rg=False)
        sum_all(linear_forward(x, w)).backward()
        assert w.grad is None and x.grad is not None


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = softmax_cross_entropy(tensor([[0.0, 0.0]]), np.array([0]))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_saturated_logits_stay_finite(self):
        loss = softmax_cross_entropy(tensor([[1000.0, 0.0]]), np.array([0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_scalar_log_sum_exp_oracle(self):
        # independent scalar computation of -log softmax(logits)[2]
        logits = [1.0, 2.0, 3.0]
        expected = math.log(sum(math.exp(v) for v in logits)) - logits[2]
        loss = softmax_cross_entropy(tensor([logits]), np.array([2]))
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            softmax_cross_entropy(tensor([[0.0, 0.0]]), np.array([2]))

    def test_gradient_is_softmax_minus_onehot_over_n(self):
        logits = tensor([[1.0, 2.0], [0.5, -0.5]])
        labels = np.array([0, 1])
        softmax_cross_entropy(logits, labels).backward()
        p = softmax_rows(logits.data)
        p[np.arange(2), labels] -= 1.0
        assert np.allclose(logits.grad, p / 2.0, atol=1e-15)

    def test_overflow_is_numeric_error_without_warnings(self):
        logits = tensor([[1.7e308, 0.0], [1.7e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericError, match="^loss: overflow"):
                softmax_cross_entropy(logits, np.array([1, 1]))

    @given(st.floats(min_value=10.0, max_value=1e4), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_finite_for_large_magnitudes(self, scale, seed):
        rng = np.random.default_rng(seed)
        logits = tensor(rng.uniform(-scale, scale, size=(4, 3)))
        loss = softmax_cross_entropy(logits, rng.integers(0, 3, size=4))
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.isfinite(logits.grad).all()


class TestLossWithPenalty:
    """``softmax_cross_entropy`` with a weighted penalty against the chain it
    replaced, ``add(ce, mul_scalar(orthogonal_loss(ids), lam))``. The
    identifiers feed the logits too, so their gradient sums a logits term
    and the penalty's term, in the chain's order."""

    @staticmethod
    def graph(seed, frozen_ids):
        """(ids, logits-building function, labels, trainable tensors)."""
        rng = np.random.default_rng(seed)
        ids = tensor(rng.standard_normal((3, 4)), rg=not frozen_ids)
        a = tensor(rng.standard_normal((5, 3)), rg=False)
        w = tensor(rng.standard_normal((4, 3)))
        b = tensor(rng.standard_normal(3))
        labels = rng.integers(0, 3, size=5)
        params = [w, b] if frozen_ids else [ids, w, b]
        return ids, lambda: linear_forward(matmul(a, ids), w, b), labels, params

    @given(seed=st.integers(0, 2**32 - 1),
           lam=st.sampled_from([None, 1e-3, 0.37, 1.0, 12.5]),
           frozen_ids=st.booleans())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_the_chain_bit_for_bit(self, seed, lam, frozen_ids):
        ids, logits, labels, params = self.graph(seed, frozen_ids)

        def op():
            if lam is None:
                return softmax_cross_entropy(logits(), labels)
            return softmax_cross_entropy(logits(), labels, orthogonal_loss(ids), lam)

        def chain():
            ce = softmax_cross_entropy(logits(), labels)
            if lam is None:
                return ce
            return add(ce, mul_scalar(orthogonal_loss(ids), lam))

        results = []
        for f in (chain, op):
            for t in params:
                t.grad = None
            out = f()
            out.backward()
            results.append((out.data.copy(), [t.grad.copy() for t in params]))
        (want, want_grads), (got, got_grads) = results
        assert np.array_equal(got, want)
        assert all(np.array_equal(g, w) for g, w in zip(got_grads, want_grads))
        assert grad_check(op, params, eps=1e-5) < 1e-5

    def test_overflow_of_the_weighted_penalty_is_numeric_error(self):
        ids = tensor(np.ones((30, 4)))   # 870 squared cosines of 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericError, match="^loss: overflow"):
                softmax_cross_entropy(tensor([[0.0, 1.0]]), np.array([1]),
                                      orthogonal_loss(ids), 1e307)

    def test_penalty_must_be_a_scalar(self):
        with pytest.raises(DimensionError):
            softmax_cross_entropy(tensor([[0.0, 1.0]]), np.array([1]),
                                  tensor([1.0, 2.0]), 1.0)


class TestMaskedSoftmax:
    def test_masked_positions_get_zero_weight(self):
        scores = tensor([[1.0, 5.0, 2.0], [0.0, 0.0, 0.0]])
        allow = np.array([[True, False, True], [True, True, True]])
        p = masked_softmax(scores, allow).data
        assert p[0, 1] == 0.0
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_all_masked_row_rejected(self):
        with pytest.raises(DimensionError):
            masked_softmax(tensor([[1.0, 2.0]]), np.array([[False, False]]))


class TestAggregateTokens:
    def test_singleton(self):
        out = aggregate_tokens([tensor([3.0, 4.0])])
        assert np.array_equal(out.data, [3.0, 4.0])

    def test_elementwise_sum_oracle(self):
        out = aggregate_tokens([tensor([1.0, 0.0]), tensor([0.0, 1.0])])
        assert np.array_equal(out.data, [1.0, 1.0])

    def test_zero_tokens(self):
        out = aggregate_tokens([tensor([0.0, 0.0]), tensor([0.0, 0.0])])
        assert np.array_equal(out.data, [0.0, 0.0])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            aggregate_tokens([])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DimensionError):
            aggregate_tokens([tensor([1.0]), tensor([1.0, 2.0])])

    @given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_order_canonical_bit_exact(self, count, dim, seed):
        rng = np.random.default_rng(seed)
        tokens = [tensor(rng.standard_normal(dim)) for _ in range(count)]
        base = aggregate_tokens(tokens).data
        perm = rng.permutation(count)
        shuffled = aggregate_tokens([tokens[i] for i in perm]).data
        assert np.array_equal(base, shuffled)


def _scalarize(out, seed=0):
    weights = Tensor(np.random.default_rng(seed).standard_normal(out.shape))
    return sum_all(mul(out, weights))


OP_CASES = {
    "add": lambda a, b: add(a, b),
    "add_bias_row": lambda a, v: add(a, v),
    "mul": lambda a, b: mul(a, b),
    "mul_scalar": lambda a: mul_scalar(a, 1.7),
    "matmul": lambda a, b: matmul(a, b),
    "transpose": lambda a: transpose2d(a),
    "gelu": lambda a: gelu(a),
    "sum": lambda a: sum_all(a),
    "slice_rows": lambda a: slice_rows(a, 1, 3),
    "slice_cols": lambda a: slice_cols(a, 0, 2),
    "concat_rows": lambda a, b: concat_rows([a, b]),
    "concat_cols": lambda a, b: concat_cols([a, b]),
    "row": lambda a: row(a, 1),
    "aggregate": lambda a, b, c: aggregate_tokens([a, b, c]),
}


class TestPrimitiveGradients:
    """Every primitive's backward matches central differences (< 1e-5 relative)."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_elementwise_and_structural_ops(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(3, 6)), int(rng.integers(2, 5)))
        for name, op in OP_CASES.items():
            a = tensor(rng.standard_normal(shape))
            if name == "add_bias_row":
                args = (a, tensor(rng.standard_normal(shape[1])))
            elif name == "matmul":
                args = (a, tensor(rng.standard_normal((shape[1], 3))))
            elif name in ("add", "mul", "concat_rows", "concat_cols"):
                args = (a, tensor(rng.standard_normal(shape)))
            elif name == "aggregate":
                args = (a, tensor(rng.standard_normal(shape)),
                        tensor(rng.standard_normal(shape)))
            else:
                args = (a,)
            err = grad_check(lambda op=op, args=args: _scalarize(op(*args), seed),
                             list(args), eps=1e-5)
            assert err < 1e-5, f"{name}: {err:.2e}"

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_gather_and_outer_scale(self, seed):
        rng = np.random.default_rng(seed)
        table = tensor(rng.standard_normal((5, 3)))
        idx = rng.integers(0, 5, size=7)
        err = grad_check(lambda: _scalarize(gather_rows(table, idx), seed),
                         [table], eps=1e-5)
        assert err < 1e-5
        w = tensor(rng.standard_normal((4, 3)))
        values = rng.standard_normal(6)
        err = grad_check(lambda: _scalarize(outer_scale_row(values, w, 2), seed),
                         [w], eps=1e-5)
        assert err < 1e-5

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_layer_norm_and_masked_softmax(self, seed):
        rng = np.random.default_rng(seed)
        x = tensor(rng.standard_normal((4, 5)))
        gain = tensor(rng.standard_normal(5))
        bias = tensor(rng.standard_normal(5))
        err = grad_check(lambda: _scalarize(layer_norm(x, gain, bias), seed),
                         [x, gain, bias], eps=1e-5)
        assert err < 1e-5
        scores = tensor(rng.standard_normal((4, 4)))
        allow = np.ones((4, 4), dtype=bool)
        allow[0, 1:3] = False
        err = grad_check(lambda: _scalarize(masked_softmax(scores, allow), seed),
                         [scores], eps=1e-5)
        assert err < 1e-5

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_cross_entropy(self, seed):
        rng = np.random.default_rng(seed)
        logits = tensor(rng.standard_normal((4, 3)))
        labels = rng.integers(0, 3, size=4)
        err = grad_check(lambda: softmax_cross_entropy(logits, labels),
                         [logits], eps=1e-5)
        assert err < 1e-5


class TestAttention:
    """The fused support/query op against central differences and the dense chain."""

    @pytest.mark.parametrize("s", [1, 3, 5])
    def test_gradients_for_q_k_v(self, s):
        rng = np.random.default_rng(s)
        q, k, v = (tensor(rng.standard_normal((5, 6))) for _ in range(3))
        err = grad_check(lambda: _scalarize(attention(q, k, v, s, 2), s),
                         [q, k, v], eps=1e-5)
        assert err < 1e-5

    @given(st.integers(1, 6), st.integers(0, 4), st.sampled_from([1, 2, 4]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_masked_chain(self, s, q_rows, heads, seed):
        from attention_oracle import dense_attention, mask_for

        rng = np.random.default_rng(seed)
        n = s + q_rows
        inputs = [rng.standard_normal((n, 4)) for _ in range(3)]
        fused_args = [tensor(a) for a in inputs]
        dense_args = [tensor(a) for a in inputs]
        fused = attention(*fused_args, s, heads)
        dense = dense_attention(*dense_args, mask_for(s, n), heads)
        assert np.allclose(fused.data, dense.data, rtol=0.0, atol=1e-12)
        _scalarize(fused, seed).backward()
        _scalarize(dense, seed).backward()
        for a, b in zip(fused_args, dense_args):
            assert np.allclose(a.grad, b.grad, rtol=0.0, atol=1e-12)

    def test_rejects_bad_support_count_and_heads(self):
        q = tensor(np.zeros((3, 4)))
        for s, heads in [(0, 2), (4, 2), (2, 3)]:
            with pytest.raises(DimensionError):
                attention(q, q, q, s, heads)


# (n, s) at row blocks of 4: s inside a block (7, 2), (9, 5), (10, 1),
# (13, 8); s on a block edge (7, 3), (9, 6), (12, 4); and s = n.
BLOCK_CASES = [(7, 2), (7, 3), (7, 7), (9, 5), (9, 6), (10, 1), (12, 4),
               (12, 12), (13, 8), (13, 13)]


class TestBlockedAttention:
    """Attention in row blocks of 4 against the same rows as one block."""

    @staticmethod
    def blocked(monkeypatch, n):
        monkeypatch.setattr(autodiff, "_BLOCK_ROWS", 4)
        assert len(autodiff._row_blocks(n)) > 1

    @staticmethod
    def inputs(n, seed):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal((n, 4)) for _ in range(3)]

    def test_rows_split_into_even_consecutive_blocks(self):
        assert autodiff._row_blocks(1) == [(0, 1)]
        assert autodiff._row_blocks(256) == [(0, 256)]
        for n in range(257, 3000, 41):
            blocks = autodiff._row_blocks(n)
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            assert all(b == a for (_, b), (a, _) in zip(blocks, blocks[1:]))
            assert all(128 <= b - a <= 256 for a, b in blocks)

    @pytest.mark.parametrize("n, s", BLOCK_CASES)
    def test_no_grad_forward_matches_one_block(self, monkeypatch, n, s):
        args = [tensor(a) for a in self.inputs(n, s)]
        with no_grad():
            whole = attention(*args, s, 2)
            self.blocked(monkeypatch, n)
            blocked = attention(*args, s, 2)
        assert blocked._parents == () and not blocked.requires_grad
        assert np.allclose(blocked.data, whole.data, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n, s", BLOCK_CASES)
    def test_recorded_forward_and_gradients_match_one_block(self, monkeypatch,
                                                            n, s):
        data = self.inputs(n, s)
        whole_args = [tensor(a) for a in data]
        whole = attention(*whole_args, s, 2)
        _scalarize(whole, n).backward()
        self.blocked(monkeypatch, n)
        blocked_args = [tensor(a) for a in data]
        blocked = attention(*blocked_args, s, 2)
        _scalarize(blocked, n).backward()
        assert np.allclose(blocked.data, whole.data, rtol=0.0, atol=1e-12)
        for a, b in zip(blocked_args, whole_args):
            assert np.allclose(a.grad, b.grad, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n, s", [(7, 2), (9, 6), (13, 13)])
    def test_gradients_of_multi_block_path(self, monkeypatch, n, s):
        self.blocked(monkeypatch, n)
        q, k, v = (tensor(a) for a in self.inputs(n, s))
        err = grad_check(lambda: _scalarize(attention(q, k, v, s, 2), s),
                         [q, k, v], eps=1e-5)
        assert err < 1e-5


class TestNoGrad:
    def test_records_no_graph(self):
        a = tensor([[1.0, 2.0]])
        with no_grad():
            out = sum_all(mul(a, a))
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
        assert out.item() == 5.0

    def test_recording_restored_after_exception(self):
        a = tensor([[1.0, 2.0]])
        with pytest.raises(DimensionError):
            with no_grad():
                matmul(a, a)
        out = sum_all(mul(a, a))
        assert out._parents and out.requires_grad
        out.backward()
        assert np.array_equal(a.grad, [[2.0, 4.0]])

    def test_nested_blocks_restore_the_outer_state(self):
        a = tensor([1.0])
        with no_grad():
            with no_grad():
                pass
            assert not mul(a, a).requires_grad
        assert mul(a, a).requires_grad


class TestFreezing:
    def test_frozen_bit_identical_through_optimizer_steps(self):
        rng = np.random.default_rng(0)
        frozen = Tensor(rng.standard_normal((3, 2)), requires_grad=False)
        live = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        before = frozen.data.tobytes()
        opt = Adam([frozen, live], lr=0.1)
        for _ in range(25):
            opt.zero_grad()
            sum_all(mul(add(matmul(frozen, transpose2d(live)), tensor(np.ones((3, 3)), rg=False)),
                        add(matmul(frozen, transpose2d(live)), tensor(np.ones((3, 3)), rg=False)))).backward()
            opt.step()
        assert frozen.data.tobytes() == before
        assert frozen.grad is None


class TestAdam:
    def test_overflow_is_numeric_error_without_warnings(self):
        w = tensor([1.0, 2.0])
        opt = Adam([w])
        w.grad = np.array([1e200, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericError, match="^optimizer: overflow"):
                opt.step()


class TestDeterminism:
    def _run_trajectory(self, seed):
        rng = np.random.default_rng(seed)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        opt = Adam([w], lr=1e-2)
        snapshots = []
        for _ in range(5):
            x = Tensor(rng.standard_normal((2, 4)))
            opt.zero_grad()
            softmax_cross_entropy(matmul(x, w), rng.integers(0, 3, size=2)).backward()
            opt.step()
            snapshots.append(w.data.tobytes())
        return snapshots

    def test_same_seed_bit_identical_trajectories(self):
        assert self._run_trajectory(7) == self._run_trajectory(7)

    def test_different_seed_diverges(self):
        assert self._run_trajectory(7) != self._run_trajectory(8)


class TestTapeInvariants:
    def test_reverse_topological_order(self):
        a = tensor([1.0, 2.0])
        b = tensor([3.0, 4.0])
        c = mul(a, b)
        d = sum_all(c)
        tape = d.backward()
        order = {id(t): i for i, t in enumerate(tape.nodes)}
        # parents always appear before the nodes consuming them
        assert order[id(a)] < order[id(c)] < order[id(d)]
        assert order[id(b)] < order[id(c)]

    def test_loss_gradient_is_one(self):
        a = tensor([2.0])
        out = sum_all(mul(a, a))
        out.backward()
        assert out.grad == np.ones(1)

    def test_backward_requires_scalar(self):
        with pytest.raises(DimensionError):
            tensor([[1.0, 2.0]]).backward()


def called_names(tree):
    return {getattr(n.func, "id", getattr(n.func, "attr", None))
            for n in ast.walk(tree) if isinstance(n, ast.Call)}


def recorded_ops(source):
    """Public functions of ``source`` that record a graph node (call ``_op``)."""
    return {f.name for f in ast.parse(source.read_text(encoding="utf-8")).body
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
            and "_op" in called_names(f)}


def test_the_engine_records_only_the_model_ops():
    """The loss, the encoder layer and the token sum: the generic ops the
    model outgrew live in ``tests/chain_ops.py``."""
    assert recorded_ops(Path(autodiff.__file__)) == {
        "softmax_cross_entropy", "encoder_layer", "aggregate_tokens"}


def test_every_public_op_has_a_caller_in_another_package_module():
    """The engine holds only the ops the package runs: each public function
    of ``autodiff.py`` that records a node is called from another module of
    the package. The reference chains live in ``tests/``."""
    allowed = {"aggregate_tokens": "criterion 9"}
    source = Path(autodiff.__file__)
    ops = recorded_ops(source)
    assert "encoder_layer" in ops and set(allowed) <= ops
    called = set()
    for path in source.parent.glob("*.py"):
        if path != source:
            called |= called_names(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(ops - called - set(allowed)) == []
