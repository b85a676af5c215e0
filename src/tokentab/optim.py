"""Adam optimizer over whole tensors.

Tensors with ``requires_grad`` False are skipped at construction, and a
tensor whose ``grad`` is None in a step keeps its data and moments. An
entry whose gradient is always exactly zero (the token table's missing-value
row) keeps zero moments, so its update is exactly 0.0 and it never moves.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class Adam:
    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self._entries = [
            {"tensor": tensor,
             "m": np.zeros_like(tensor.data),
             "v": np.zeros_like(tensor.data)}
            for tensor in params
            if tensor.requires_grad   # frozen tensors are never touched
        ]

    @property
    def tensors(self) -> list[Tensor]:
        return [e["tensor"] for e in self._entries]

    def zero_grad(self) -> None:
        for e in self._entries:
            e["tensor"].grad = None

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for e in self._entries:
            tensor = e["tensor"]
            if tensor.grad is None:
                continue
            g = tensor.grad
            e["m"] = self.beta1 * e["m"] + (1.0 - self.beta1) * g
            e["v"] = self.beta2 * e["v"] + (1.0 - self.beta2) * g * g
            mhat = e["m"] / c1
            vhat = e["v"] / c2
            tensor.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
