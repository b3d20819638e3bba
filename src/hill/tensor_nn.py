"""Dense float64 matrix kernel: forward ops with hand-written backward
passes, linear layers, Adam, parameter checkpointing, and a
central-difference gradient checker.

No autodiff tape: the model graph is small and static, and explicit
backward functions keep the finite-difference oracle meaningful. All ops
reject NaN/Inf at their boundaries.

An Adam optimizer owns the storage of its parameter group: it keeps all
values and all grads in one flat buffer each and rebinds every
Parameter's ``value`` and ``grad`` to views of those buffers, so a step
is a handful of in-place vector ops. Code that writes into ``value`` or
``grad`` in place (``+=``, ``[...] =``, ``fill``) keeps working;
rebinding either attribute after the optimizer is built detaches that
parameter from it.
"""

from __future__ import annotations

import json

import numpy as np


def check_finite(x, name: str):
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite values")
    return x


def as_matrix(x, name: str = "tensor") -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    return check_finite(a, name)


# -- elementary ops --------------------------------------------------


def matmul(a, b):
    a, b = as_matrix(a, "matmul lhs"), as_matrix(b, "matmul rhs")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return a @ b


def matmul_backward(grad, a, b):
    return grad @ b.T, a.T @ grad


def add_bias(x, bias):
    x, bias = as_matrix(x, "add_bias input"), as_matrix(bias, "bias")
    if bias.shape != (1, x.shape[1]):
        raise ValueError(f"add_bias shape mismatch: input {x.shape}, bias {bias.shape}")
    return x + bias


def add_bias_backward(grad):
    return grad, grad.sum(axis=0, keepdims=True)


def relu(x):
    return np.maximum(as_matrix(x, "relu input"), 0.0)


def relu_backward(grad, x):
    return grad * (x > 0.0)


def concat_cols(a, b):
    a, b = as_matrix(a, "concat lhs"), as_matrix(b, "concat rhs")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"concat_cols row mismatch: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=1)


def concat_cols_backward(grad, left_cols):
    return grad[:, :left_cols], grad[:, left_cols:]


def sum_rows(x):
    return as_matrix(x, "sum_rows input").sum(axis=0, keepdims=True)


def sum_rows_backward(grad, rows):
    return np.repeat(grad, rows, axis=0)


def mean_rows(x):
    return as_matrix(x, "mean_rows input").mean(axis=0, keepdims=True)


def mean_rows_backward(grad, rows):
    return np.repeat(grad, rows, axis=0) / rows


def sigmoid(x):
    x = check_finite(np.asarray(x, dtype=np.float64), "sigmoid input")
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(grad, y):
    return grad * y * (1.0 - y)


def cosine_similarity(u, v) -> float:
    u = check_finite(np.asarray(u, dtype=np.float64).ravel(), "cosine u")
    v = check_finite(np.asarray(v, dtype=np.float64).ravel(), "cosine v")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine_similarity: zero-norm input")
    return float(u @ v / (nu * nv))


def cosine_similarity_backward(grad, u, v):
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    s = u @ v / (nu * nv)
    gu = grad * (v / (nu * nv) - s * u / (nu * nu))
    gv = grad * (u / (nu * nv) - s * v / (nv * nv))
    return gu, gv


# -- parameters and layers -------------------------------------------


class Parameter:
    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = as_matrix(value, name)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad.fill(0.0)


class LinearLayer:
    """y = x @ W (+ b). Weight (in, out), bias (1, out)."""

    def __init__(self, in_dim, out_dim, rng, bias=True, name="linear"):
        self.weight = Parameter(
            f"{name}.weight", rng.normal(0.0, 1.0 / np.sqrt(in_dim), (in_dim, out_dim))
        )
        self.bias = Parameter(f"{name}.bias", np.zeros((1, out_dim))) if bias else None

    def forward(self, x):
        y = matmul(x, self.weight.value)
        if self.bias is not None:
            y = add_bias(y, self.bias.value)
        return y, x

    def backward(self, grad, ctx):
        x = ctx
        if self.bias is not None:
            grad, gbias = add_bias_backward(grad)
            self.bias.grad += gbias
        gx, gw = matmul_backward(grad, x, self.weight.value)
        self.weight.grad += gw
        return gx

    def params(self):
        return [self.weight] if self.bias is None else [self.weight, self.bias]


class Adam:
    """Adam with bias correction; rejects steps with non-finite grads.

    On construction the group's values and grads are copied into one
    contiguous buffer each, and every Parameter's ``value``/``grad`` is
    rebound to a reshaped view of them; the moments and two scratch
    buffers are flat too. A step applies the textbook update
    elementwise, in place, with the same operations in the same order as
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g``,
    ``value -= lr m_hat / (sqrt(v_hat) + eps)``.
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        size = sum(p.value.size for p in self.params)
        self.value = np.empty(size)
        self.grad = np.empty(size)
        offset = 0
        for p in self.params:
            end = offset + p.value.size
            self.value[offset:end] = p.value.ravel()
            self.grad[offset:end] = p.grad.ravel()
            p.value = self.value[offset:end].reshape(p.value.shape)
            p.grad = self.grad[offset:end].reshape(p.grad.shape)
            offset = end
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._a = np.empty(size)
        self._b = np.empty(size)

    def step(self):
        g = self.grad
        if not np.isfinite(g).all():
            bad = next(p for p in self.params if not np.isfinite(p.grad).all())
            raise ValueError(f"non-finite gradient for {bad.name}")
        self.t += 1
        b1, b2, m, v, a, b = self.beta1, self.beta2, self.m, self.v, self._a, self._b
        np.multiply(m, b1, out=m)
        np.multiply(g, 1 - b1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, b2, out=v)
        np.multiply(g, 1 - b2, out=a)
        np.multiply(a, g, out=a)
        np.add(v, a, out=v)
        np.divide(m, 1 - b1**self.t, out=a)  # m_hat
        np.multiply(a, self.lr, out=a)
        np.divide(v, 1 - b2**self.t, out=b)  # v_hat
        np.sqrt(b, out=b)
        np.add(b, self.eps, out=b)
        np.divide(a, b, out=a)
        np.subtract(self.value, a, out=self.value)

    def zero_grad(self):
        self.grad.fill(0.0)


# -- checkpoints -----------------------------------------------------


def save_checkpoint(params, path):
    blob = {
        p.name: {"shape": list(p.value.shape), "values": p.value.ravel().tolist()}
        for p in params
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh)


def load_checkpoint(params, path):
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    for p in params:
        if p.name not in blob:
            raise ValueError(f"checkpoint missing parameter {p.name}")
        entry = blob[p.name]
        if tuple(entry["shape"]) != p.value.shape:
            raise ValueError(
                f"checkpoint shape mismatch for {p.name}: "
                f"{tuple(entry['shape'])} vs {p.value.shape}"
            )
        p.value[...] = np.asarray(entry["values"], dtype=np.float64).reshape(p.value.shape)


# -- gradient checking -----------------------------------------------


def central_difference(f, x, step=1e-5):
    """Central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        hi = f(x)
        x[idx] = orig - step
        lo = f(x)
        x[idx] = orig
        grad[idx] = (hi - lo) / (2 * step)
    return grad


def max_rel_error(analytic, numeric, floor=1e-8):
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
