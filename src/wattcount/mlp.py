"""Minimal dense networks with hand-written backprop.

The planner's policies are small enough (a few thousand parameters) that an
explicit float64 implementation is simpler to verify than a framework: the
whole gradient can be checked against central finite differences, and
inference stays deterministic across machines and thread counts.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


class Mlp:
    """Fully connected net, tanh hidden layers, linear output."""

    def __init__(self, sizes: Sequence[int], rng: np.random.Generator):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = tuple(int(s) for s in sizes)
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(self.sizes, self.sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @property
    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    @property
    def n_weight_mults(self) -> int:
        # multiply-adds of one forward pass, bias adds excluded
        return sum(w.size for w in self.weights)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """forward_cache's output, keeping no activations."""
        h = np.asarray(x, dtype=np.float64)
        if h.ndim < 2:
            h = h.reshape(1, -1)  # np.atleast_2d's view, without its call
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.tanh(h @ w + b)
        return h @ self.weights[-1] + self.biases[-1]

    def forward_cache(self, x: np.ndarray):
        """Forward pass keeping activations for backward. x is (batch, in)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        acts = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i != last:
                h = np.tanh(h)
            acts.append(h)
        return h, acts

    def backward(self, acts, grad_out: np.ndarray):
        """Parameter gradients for d(loss)/d(output) = grad_out, summed over batch."""
        grad_out = np.atleast_2d(np.asarray(grad_out, dtype=np.float64))
        grads_w, grads_b = [], []
        delta = grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            grads_w.append(acts[i].T @ delta)
            grads_b.append(delta.sum(axis=0))
            if i > 0:
                # acts[i] is the tanh output of layer i-1
                delta = (delta @ self.weights[i].T) * (1.0 - acts[i] ** 2)
        return grads_w[::-1], grads_b[::-1]

    # flat views; used by checkpoints and the finite-difference checks

    def get_flat(self) -> np.ndarray:
        parts = [w.ravel() for w in self.weights] + [b.ravel() for b in self.biases]
        return np.concatenate(parts)

    def set_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.size != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {vec.size}")
        pos = 0
        for w in self.weights:
            w[...] = vec[pos : pos + w.size].reshape(w.shape)
            pos += w.size
        for b in self.biases:
            b[...] = vec[pos : pos + b.size]
            pos += b.size

    @staticmethod
    def flatten_grads(grads_w, grads_b) -> np.ndarray:
        parts = [g.ravel() for g in grads_w] + [g.ravel() for g in grads_b]
        return np.concatenate(parts)


class Adam:
    """Standard Adam on a flat parameter vector, with the defaults of Kingma & Ba (2015)."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, n_params: int, lr: float):
        self.lr = lr
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))
