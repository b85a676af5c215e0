import numpy as np
import pytest

from chain_ops import mul, sum_all
from tokentab.autodiff import NumericError, Tensor, _op, softmax_cross_entropy
from tokentab.gradcheck import component_checks, grad_check
from tokentab.model import ModelConfig


def test_quadratic_exact_to_roundoff():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    err = grad_check(lambda: sum_all(mul(x, x)), [x], eps=1e-5)
    assert err < 1e-7  # analytic grad 2x, central differences exact for quadratics


def test_cross_entropy_against_central_differences():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    labels = rng.integers(0, 3, size=4)
    err = grad_check(lambda: softmax_cross_entropy(logits, labels), [logits])
    assert err < 1e-5


def test_eps_precondition():
    x = Tensor([1.0], requires_grad=True)
    for bad in (0.0, -1e-5, 1e-2):
        with pytest.raises(ValueError):
            grad_check(lambda: sum_all(x), [x], eps=bad)


def test_non_finite_target_rejected():
    x = Tensor([1e308], requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        grad_check(lambda: sum_all(mul(mul(x, x), x)), [x])


def test_empty_parameter_set_passes_vacuously_with_warning():
    with pytest.warns(UserWarning):
        assert grad_check(lambda: sum_all(Tensor([1.0], requires_grad=True)), []) == 0.0


def test_frozen_parameter_rejected():
    x = Tensor([1.0], requires_grad=False)
    with pytest.raises(ValueError):
        grad_check(lambda: sum_all(x), [x])


def test_wrong_sign_gradient_detected():
    # negative control: an op with a deliberately wrong backward must fail
    x = Tensor([1.0, 2.0], requires_grad=True)

    def broken_square(t):
        def backward(g):
            t._accumulate(-2.0 * t.data * g)  # sign flipped on purpose
        return _op(t.data * t.data, (t,), backward)

    err = grad_check(lambda: sum_all(broken_square(x)), [x])
    assert err > 1e-4


def test_component_suite_passes_default_tolerance():
    results = component_checks(seed=1, config=ModelConfig(
        embed_dim=8, layers=1, heads=2, ff_dim=12, max_classes=3))
    assert set(results) == {"token_layer", "encoder", "label_embedder", "total_loss"}
    for name, err in results.items():
        assert err < 1e-4, f"{name}: {err:.2e}"
