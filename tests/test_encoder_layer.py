"""The fused encoder layer against the chain of generic ops it replaced."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_ops import mul, sum_all
from encoder_oracle import layer_chain
from tokentab import autodiff
from tokentab.autodiff import (
    LAYER_PARAMS,
    NumericError,
    Tensor,
    encoder_layer,
    no_grad,
)
from tokentab.gradcheck import grad_check
from tokentab.model import EncoderLayer, encoder_forward

DIM, FF = 8, 16


def layer_tensors(layer):
    """The layer's 16 parameter tensors in ``LAYER_PARAMS`` order."""
    return [getattr(layer, n) for n in LAYER_PARAMS]


def make_layer(rng, heads, trainable=True, dim=DIM, ff=FF):
    """A layer with every parameter perturbed, so no bias is 0 and no gain 1."""
    layer = EncoderLayer.create(dim, heads, ff, rng)
    for t in layer_tensors(layer):
        t.data += 0.2 * rng.standard_normal(t.shape)
        t.requires_grad = trainable
    return layer


def weighted_sum(out, seed):
    weights = Tensor(np.random.default_rng(seed).standard_normal(out.shape))
    return sum_all(mul(out, weights))


def run(forward, layer, x_data, x_grad, s, seed):
    """Forward data, x's gradient and every parameter gradient of one pass."""
    for t in layer_tensors(layer):
        t.grad = None
    x = Tensor(x_data.copy(), requires_grad=x_grad)
    out = forward(x, s)
    weighted_sum(out, seed).backward()
    return [out.data, x.grad] + [t.grad for t in layer_tensors(layer)]


def assert_identical(fused, chain):
    for a, b in zip(fused, chain, strict=True):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b)


def test_parameter_names_follow_the_checkpoint_order():
    assert tuple(EncoderLayer.parameter_shapes(DIM, FF)) == LAYER_PARAMS


class TestChainEquivalence:
    @given(n=st.integers(1, 300), s_frac=st.floats(0.0, 1.0),
           heads=st.sampled_from([1, 2, 4]),
           trainable=st.lists(st.booleans(), min_size=16, max_size=16),
           x_grad=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_forward_and_every_gradient_are_bit_identical(
            self, n, s_frac, heads, trainable, x_grad, seed):
        rng = np.random.default_rng(seed)
        s = min(n, 1 + int(s_frac * n))
        layer = make_layer(rng, heads)
        for t, flag in zip(layer_tensors(layer), trainable):
            t.requires_grad = flag
        x = rng.standard_normal((n, DIM))
        fused = run(layer.forward, layer, x, x_grad, s, seed)
        chain = run(lambda v, s: layer_chain(layer, v, s), layer, x, x_grad, s, seed)
        assert_identical(fused, chain)

    @pytest.mark.parametrize("trainable", [True, False])
    def test_more_than_one_row_block(self, trainable):
        rng = np.random.default_rng(3)
        layer = make_layer(rng, 4, trainable)
        n, s = 300, 170
        assert len(autodiff._row_blocks(n)) == 2
        x = rng.standard_normal((n, DIM))
        assert_identical(run(layer.forward, layer, x, True, s, 1),
                         run(lambda v, s: layer_chain(layer, v, s), layer, x, True, s, 1))

    def test_frozen_weights_get_no_gradient(self):
        rng = np.random.default_rng(4)
        layer = make_layer(rng, 2, trainable=False)
        grads = run(layer.forward, layer, rng.standard_normal((6, DIM)), True, 3, 0)
        assert grads[1] is not None
        assert all(g is None for g in grads[2:])


class TestGradients:
    """Central differences at s=1, 1<s<n and s=n (< 1e-5 relative)."""

    @pytest.mark.parametrize("s", [1, 3, 5])
    @pytest.mark.parametrize("trainable", [True, False])
    def test_matches_central_differences(self, s, trainable):
        rng = np.random.default_rng(10 + s)
        layer = make_layer(rng, 2, trainable, dim=4, ff=6)
        x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        params = [x] + [t for t in layer_tensors(layer) if t.requires_grad]
        err = grad_check(lambda: weighted_sum(layer.forward(x, s), s), params,
                         eps=1e-5)
        assert err < 1e-5


class TestNoGrad:
    @pytest.mark.parametrize("n, s", [(5, 2), (5, 5), (300, 120)])
    def test_forward_equals_recorded_forward_and_records_nothing(self, n, s):
        rng = np.random.default_rng(n)
        layer = make_layer(rng, 2)
        x = Tensor(rng.standard_normal((n, DIM)), requires_grad=True)
        recorded = layer.forward(x, s)
        with no_grad():
            plain = layer.forward(x, s)
        assert plain.data.tobytes() == recorded.data.tobytes()
        assert plain._parents == () and plain._backward is None
        assert not plain.requires_grad

    def test_recorded_node_has_x_and_the_sixteen_parameters(self):
        rng = np.random.default_rng(6)
        layer = make_layer(rng, 2)
        x = Tensor(rng.standard_normal((4, DIM)))
        out = encoder_layer(x, 2, vars(layer), layer.heads)
        assert out._parents == (x, *(getattr(layer, n) for n in LAYER_PARAMS))


class TestNumericErrors:
    """Overflow, invalid operations and non-finite outputs name the block."""

    @pytest.mark.parametrize("name, block", [
        ("ln1_g", "attention"),
        ("w1", "feed-forward"), ("ln2_g", "feed-forward"),
    ])
    def test_huge_parameter_is_numeric_error_without_warnings(self, name, block):
        rng = np.random.default_rng(7)
        stack = [make_layer(rng, 2) for _ in range(2)]
        getattr(stack[1], name).data.reshape(-1)[0] = 1e300
        x = Tensor(rng.standard_normal((6, DIM)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=f"encoder layer 1 {block}"):
                encoder_forward(x, 3, stack)

    @pytest.mark.parametrize("name, block", [("bo", "attention"),
                                             ("b2", "feed-forward")])
    def test_nan_parameter_names_its_block(self, name, block):
        rng = np.random.default_rng(8)
        layer = make_layer(rng, 2)
        getattr(layer, name).data[0] = np.nan
        with pytest.raises(NumericError, match=f"^{block}: non-finite"):
            layer.forward(Tensor(rng.standard_normal((4, DIM))), 2)
