"""The two episode ops around the encoder against the chains they replaced.

``model.episode_rows`` (label term plus row stacking) and
``model.query_logits`` (query rows through the head) must give the forward
and every gradient of the generic-op chains in ``chain_ops`` bit for bit,
including the order in which the tokenizer's parameters sum their
gradients, and must match central differences.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_ops import episode_chain, query_logits_chain
from test_encoder_layer import weighted_sum
from test_model import random_batch, small_model
from tokentab.autodiff import NumericError, Tensor
from tokentab.gradcheck import grad_check
from tokentab.model import episode_rows, query_logits
from tokentab.training import FinetuneConfig, _loss_from_logits

MAX_CLASSES = 4


def episode_step(seed, s, q, n_classes, train_label, train_head, train_rest):
    """Logits, loss and every parameter gradient of one fine-tune loss."""
    model = small_model(seed=seed % 7, dim=8, layers=1, heads=2,
                        max_classes=MAX_CLASSES)
    for name, t in model.named_tensors():
        if name == "label_embed":
            t.requires_grad = train_label
        elif name.startswith("head."):
            t.requires_grad = train_head
        else:
            t.requires_grad = train_rest
    batch = random_batch(seed=seed, s=s, q=q, n_classes=n_classes)
    logits = model.predict_logits(batch)
    loss = _loss_from_logits(logits, batch, model, FinetuneConfig(lambda_orth=1.0))
    if loss.requires_grad:
        loss.backward()
    return [logits.data, loss.data] + [t.grad for _, t in model.named_tensors()]


@given(s=st.integers(1, 7), q=st.integers(1, 5),
       n_classes=st.integers(2, MAX_CLASSES), train_label=st.booleans(),
       train_head=st.booleans(), train_rest=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_forward_and_every_gradient_are_bit_identical_to_the_chains(
        s, q, n_classes, train_label, train_head, train_rest, seed):
    args = (seed, s, q, n_classes, train_label, train_head, train_rest)
    fused = episode_step(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("tokentab.model.episode_rows", episode_chain)
        mp.setattr("tokentab.model.query_logits", query_logits_chain)
        chain = episode_step(*args)
    for a, b in zip(fused, chain, strict=True):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b)


@pytest.mark.parametrize("s, q", [(1, 1), (3, 2), (4, 4)])
def test_episode_rows_gradients(s, q):
    rng = np.random.default_rng(s + 10 * q)
    support, query, label_w = (Tensor(rng.standard_normal(shape), requires_grad=True)
                               for shape in ((s, 5), (q, 5), (1, 5)))
    y = rng.integers(0, 3, size=s)
    err = grad_check(lambda: weighted_sum(episode_rows(support, query, y, label_w), s),
                     [support, query, label_w], eps=1e-5)
    assert err < 1e-5


@pytest.mark.parametrize("n_classes", [2, 3, MAX_CLASSES])
def test_query_logits_gradients(n_classes):
    rng = np.random.default_rng(n_classes)
    h, head_w, head_b = (Tensor(rng.standard_normal(shape), requires_grad=True)
                         for shape in ((6, 5), (5, MAX_CLASSES), (MAX_CLASSES,)))
    err = grad_check(lambda: weighted_sum(query_logits(h, 2, head_w, head_b,
                                                       n_classes), n_classes),
                     [h, head_w, head_b], eps=1e-5)
    assert err < 1e-5


def test_head_overflow_is_numeric_error_without_warnings():
    h = Tensor(np.full((3, 2), 2.0))
    head_w = Tensor(np.array([[1.7e308, 0.0], [0.0, 1.0]]), requires_grad=True)
    head_b = Tensor(np.zeros(2), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError, match="^head: overflow"):
            query_logits(h, 1, head_w, head_b, 2)
