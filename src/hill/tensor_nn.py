"""Dense float64 matrix kernel: forward ops with hand-written backward
passes, linear layers, Adam, parameter checkpointing, and a
central-difference gradient checker.

No autodiff tape: the model graph is small and static, and explicit
backward functions keep the finite-difference oracle meaningful.

Each array the model computes is checked for NaN/Inf once, by the first
op that reads it: ``matmul``, ``relu``, ``sigmoid`` or a loss; parameter
values are checked the same way on every pass. Glue between ops (bias
adds, concatenation, slicing) checks nothing, because any non-finite
value it passes on reaches one of those ops. Arrays from outside keep
their own named checks: the token counts (by the encoder, under that
name), the losses' inputs, each ``Parameter`` value on
construction and the gradients at ``Adam.step``.

The elementwise kernels at the model's edges (``sigmoid`` here, the BCE
clamp, the label projector's outer product, the label sets and the
token counts) are single whole-array numpy expressions, not boolean-mask
gathers and scatters or per-row loops. Each one evaluates the same IEEE
operation on the same operands for every entry as the masked form it
replaced, so it gives the same bits; the tests keep those masked forms
as references and compare with ``np.array_equal``.

An Adam optimizer owns the storage of its parameter group: it keeps all
values and all grads in one flat buffer each and rebinds every
Parameter's ``value`` and ``grad`` to views of those buffers, so a step
is a handful of in-place vector ops on each cache-sized slice. Code
that writes into ``value`` or ``grad`` in place (``+=``, ``[...] =``,
``fill``) keeps working; rebinding either attribute after the optimizer
is built detaches that parameter from it.
"""

from __future__ import annotations

import json

import numpy as np

from .graph import prefix_errors

# Adam's moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# entries per Adam slice: a slice's six float64 operands (value, grad, m,
# v and the two scratch buffers, 1.5 MB) stay in a 2 MB L2 cache from one
# op to the next. On the 135k-entry default encoder group, 32k slices
# took 0.93 ms a step against 1.16 ms unsliced; 4k slices took 1.24 ms,
# as the per-op call cost then dominates
ADAM_BLOCK = 32768


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


def matmul(a, b, lhs_name="matmul lhs"):
    a, b = as_matrix(a, lhs_name), as_matrix(b, "matmul rhs")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return a @ b


def matmul_backward(grad, a, b):
    return grad @ b.T, a.T @ grad


def relu(x):
    return np.maximum(as_matrix(x, "relu input"), 0.0)


def relu_backward(grad, x):
    return grad * (x > 0.0)


def sigmoid(x):
    """Overflow-free logistic: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below 0, with e = exp(-|x|) serving both branches.
    exp(-|x|) is exp(-x) where x >= 0 and exp(x) below, and 1.0 / d is
    where(x >= 0, 1.0, e) / d where x >= 0, so every entry is the same
    IEEE expression the two-branch form computes, and gives its bits."""
    x = check_finite(np.asarray(x, dtype=np.float64), "sigmoid input")
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def sigmoid_backward(grad, y):
    return grad * y * (1.0 - y)


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
            y += self.bias.value
        return y, x

    def backward(self, grad, ctx):
        x = ctx
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=0, keepdims=True)
        gx, gw = matmul_backward(grad, x, self.weight.value)
        self.weight.grad += gw
        return gx

    def params(self):
        return [self.weight] if self.bias is None else [self.weight, self.bias]


class Adam:
    """Adam with bias correction; rejects steps with non-finite grads.

    On construction the group's values and grads are copied into one
    contiguous buffer each, and every Parameter's ``value``/``grad`` is
    rebound to a reshaped view of them; the moments are flat too. A step
    checks the whole gradient buffer first and writes nothing if any
    entry is non-finite. It then walks the flat buffers in consecutive
    slices of ADAM_BLOCK entries, and on each slice runs 14 in-place
    ops in this order, with two slice-sized scratch buffers a and b:

        m *= b1;  a = g * (1 - b1);  m += a
        v *= b2;  a = g * (1 - b2);  a *= g;  v += a
        a = m / (1 - b1**t);  a *= lr                  (lr m_hat)
        b = v / (1 - b2**t);  b = sqrt(b);  b += eps   (sqrt(v_hat) + eps)
        a /= b;  value -= a

    Every op is elementwise, so each entry sees the same IEEE operations
    on the same operands as the textbook update ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + (1 - b2) g g``, ``value -= lr m_hat / (sqrt(v_hat) +
    eps)`` and gets its bits; the slices only keep a slice's six
    operands in cache from one op to the next. ``1 - b1**t`` and
    ``1 - b2**t`` are computed once a step, the same Python floats.
    """

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
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
        self._a = np.empty(min(size, ADAM_BLOCK))
        self._b = np.empty(min(size, ADAM_BLOCK))

    def step(self):
        if not np.isfinite(self.grad).all():
            bad = next(p for p in self.params if not np.isfinite(p.grad).all())
            raise ValueError(f"non-finite gradient for {bad.name}")
        self.t += 1
        b1, b2, lr = ADAM_BETA1, ADAM_BETA2, self.lr
        c1, c2 = 1 - b1**self.t, 1 - b2**self.t
        for lo in range(0, self.value.size, ADAM_BLOCK):
            hi = lo + ADAM_BLOCK
            g, m, v, x = self.grad[lo:hi], self.m[lo:hi], self.v[lo:hi], self.value[lo:hi]
            a, b = self._a[: g.size], self._b[: g.size]
            np.multiply(m, b1, out=m)
            np.multiply(g, 1 - b1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, 1 - b2, out=a)
            np.multiply(a, g, out=a)
            np.add(v, a, out=v)
            np.divide(m, c1, out=a)  # m_hat
            np.multiply(a, lr, out=a)
            np.divide(v, c2, out=b)  # v_hat
            np.sqrt(b, out=b)
            np.add(b, ADAM_EPS, out=b)
            np.divide(a, b, out=a)
            np.subtract(x, a, out=x)


# -- checkpoints -----------------------------------------------------


def save_checkpoint(params, path):
    blob = {
        p.name: {"shape": list(p.value.shape), "values": p.value.ravel().tolist()}
        for p in params
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh)


def load_checkpoint(params, path):
    """Write each parameter's saved values into it in place. Every entry
    is checked before any parameter is written; a bad file raises
    ValueError naming the file and the parameter."""
    with prefix_errors(path), open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
        if not isinstance(blob, dict):
            raise ValueError("checkpoint must be a JSON object")
        values = [_checkpoint_values(blob, p) for p in params]
    for p, v in zip(params, values):
        p.value[...] = v


def _checkpoint_values(blob, p):
    if p.name not in blob:
        raise ValueError(f"checkpoint missing parameter {p.name}")
    entry = blob[p.name]
    if not isinstance(entry, dict) or "shape" not in entry or "values" not in entry:
        raise ValueError(f"checkpoint entry for {p.name} needs a shape and values")
    shape = entry["shape"]
    # a JSON boolean would compare equal to 0 or 1, and numpy would parse a
    # JSON string such as "1.5", so both load as numbers unless refused
    if not isinstance(shape, list) or _has_non_number(shape) or tuple(shape) != p.value.shape:
        raise ValueError(
            f"checkpoint shape mismatch for {p.name}: {shape} vs {list(p.value.shape)}"
        )
    try:
        if _has_non_number(entry["values"]):
            raise TypeError("a boolean or a string is not a number")
        values = np.asarray(entry["values"], dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"checkpoint values for {p.name} are not numbers") from None
    except OverflowError:
        raise ValueError(f"checkpoint values for {p.name} exceed the float64 range") from None
    if values.shape != (p.value.size,):
        raise ValueError(
            f"checkpoint values for {p.name} must be a flat list of {p.value.size} numbers, "
            f"got shape {values.shape}"
        )
    check_finite(values, f"checkpoint values for {p.name}")
    return values.reshape(p.value.shape)


def _has_non_number(x):
    """A JSON boolean or string, or a list holding one at its top level;
    nested lists are refused by the shape checks anyway."""
    return any(isinstance(v, (bool, str)) for v in (x if isinstance(x, list) else [x]))


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
