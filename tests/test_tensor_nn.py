import json
import re

import numpy as np
import pytest

from hill import tensor_nn as tn


def fd_check(f, x, analytic, tol=1e-6):
    numeric = tn.central_difference(f, x.copy())
    assert tn.max_rel_error(analytic, numeric) < tol


def test_matmul_shape_check():
    with pytest.raises(ValueError, match="shape mismatch"):
        tn.matmul(np.ones((2, 3)), np.ones((2, 3)))


def test_sigmoid_stable_and_backward():
    x = np.array([[-800.0, -5.0, 0.0, 5.0, 800.0]])
    y = tn.sigmoid(x)
    assert np.all(np.isfinite(y))
    assert y[0, 0] == pytest.approx(0.0, abs=1e-300)
    assert y[0, 2] == 0.5
    assert y[0, 4] == pytest.approx(1.0)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 3))
    grad = rng.normal(size=(3, 3))
    fd_check(lambda v: float(np.sum(tn.sigmoid(v) * grad)), x, tn.sigmoid_backward(grad, tn.sigmoid(x)))


def masked_sigmoid(x):
    """The two-branch sigmoid with boolean-mask gathers and scatters that
    tn.sigmoid replaced, kept as its bit-for-bit reference."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# signed zeros, tiny inputs, where sigmoid(x) rounds to 1.0 (36.7), the
# largest exp argument with a finite result (709) and where exp(-|x|) is
# the smallest subnormal (745)
SIGMOID_GRID = [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 709.0, -709.0, 745.0, -745.0]


def test_sigmoid_matches_masked_form_bit_for_bit():
    rng = np.random.default_rng(7)
    x = np.concatenate([SIGMOID_GRID, rng.normal(0.0, 40.0, 990)])
    for arr in [x, x.reshape(20, 50)] + [np.array(v) for v in SIGMOID_GRID]:
        got, want = tn.sigmoid(arr), masked_sigmoid(arr)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        tn.as_matrix(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        tn.sigmoid(np.array([[np.inf]]))


def test_as_matrix_requires_two_dimensions():
    with pytest.raises(ValueError, match=r"probe must be 2-D, got shape \(3,\)"):
        tn.as_matrix(np.ones(3), "probe")


def test_linear_layer_gradients():
    rng = np.random.default_rng(6)
    layer = tn.LinearLayer(4, 3, rng, name="t")
    x = rng.normal(size=(5, 4))
    grad = rng.normal(size=(5, 3))
    y, ctx = layer.forward(x)
    gx = layer.backward(grad, ctx)

    def loss_of(param):
        def loss(v):
            saved = param.value.copy()
            param.value[...] = v
            out, _ = layer.forward(x)
            param.value[...] = saved
            return float(np.sum(out * grad))

        return loss

    fd_check(loss_of(layer.weight), layer.weight.value.copy(), layer.weight.grad)
    fd_check(loss_of(layer.bias), layer.bias.value.copy(), layer.bias.grad)
    fd_check(lambda v: float(np.sum((layer.forward(v)[0]) * grad)), x, gx)


def test_linear_layer_no_bias():
    layer = tn.LinearLayer(3, 2, np.random.default_rng(0), bias=False)
    assert layer.bias is None
    assert len(layer.params()) == 1


def test_adam_reduces_quadratic():
    p = tn.Parameter("w", np.array([[5.0, -3.0]]))
    opt = tn.Adam([p], lr=0.1)
    for _ in range(300):
        p.zero_grad()
        p.grad += 2 * p.value
        opt.step()
    assert np.all(np.abs(p.value) < 1e-2)


def test_adam_rejects_non_finite_grad():
    p = tn.Parameter("w", np.zeros((1, 1)))
    p.grad[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite gradient"):
        tn.Adam([p], lr=0.1).step()


def textbook_adam(values, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Per-parameter Adam written out with fresh arrays; the reference
    the flat in-place optimizer must match bit for bit."""
    out = []
    for i, (x, g) in enumerate(zip(values, grads)):
        m[i] = b1 * m[i] + (1 - b1) * g
        v[i] = b2 * v[i] + (1 - b2) * g * g
        m_hat = m[i] / (1 - b1**t)
        v_hat = v[i] / (1 - b2**t)
        out.append(x - lr * m_hat / (np.sqrt(v_hat) + eps))
    return out


def test_flat_adam_matches_textbook_bit_for_bit():
    rng = np.random.default_rng(11)
    shapes = [(3, 4), (1, 5), (7, 1), (2, 2)]
    params = [tn.Parameter(f"p{i}", rng.normal(size=s)) for i, s in enumerate(shapes)]
    ref = [p.value.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    opt = tn.Adam(params, lr=0.01)
    for t in range(1, 6):
        for p in params:
            p.zero_grad()
        grads = [rng.normal(scale=10.0 ** rng.integers(-3, 3), size=s) for s in shapes]
        for p, g in zip(params, grads):
            p.grad += g
        opt.step()
        ref = textbook_adam(ref, grads, m, v, t, lr=0.01)
        for p, r in zip(params, ref):
            assert np.array_equal(p.value, r)


def test_adam_non_finite_grad_touches_no_value():
    params = [tn.Parameter("a", np.ones((2, 3))), tn.Parameter("b", np.ones((1, 2)))]
    opt = tn.Adam(params, lr=0.1)
    params[0].grad += 1.0
    params[1].grad[0, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite gradient for b"):
        opt.step()
    assert all(np.array_equal(p.value, np.ones_like(p.value)) for p in params)
    assert opt.t == 0


def test_load_checkpoint_after_adam_feeds_the_optimizer(tmp_path):
    rng = np.random.default_rng(12)
    saved = [tn.Parameter("a", rng.normal(size=(3, 2))), tn.Parameter("b", rng.normal(size=(1, 4)))]
    path = tmp_path / "ckpt.json"
    tn.save_checkpoint(saved, path)
    params = [tn.Parameter("a", np.zeros((3, 2))), tn.Parameter("b", np.zeros((1, 4)))]
    opt = tn.Adam(params, lr=0.05)
    tn.load_checkpoint(params, path)
    grads = [rng.normal(size=(3, 2)), rng.normal(size=(1, 4))]
    for p, g in zip(params, grads):
        p.grad += g
    opt.step()
    ref = textbook_adam([p.value for p in saved], grads, [0.0, 0.0], [0.0, 0.0], 1, lr=0.05)
    for p, r in zip(params, ref):
        assert np.array_equal(p.value, r)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    a = tn.Parameter("a", rng.normal(size=(3, 2)))
    b = tn.Parameter("b", rng.normal(size=(1, 4)))
    path = tmp_path / "ckpt.json"
    tn.save_checkpoint([a, b], path)
    a2 = tn.Parameter("a", np.zeros((3, 2)))
    b2 = tn.Parameter("b", np.zeros((1, 4)))
    tn.load_checkpoint([a2, b2], path)
    assert np.array_equal(a.value, a2.value)
    assert np.array_equal(b.value, b2.value)


def test_checkpoint_shape_and_name_errors(tmp_path):
    a = tn.Parameter("a", np.zeros((2, 2)))
    path = tmp_path / "ckpt.json"
    tn.save_checkpoint([a], path)
    with pytest.raises(ValueError, match="missing parameter"):
        tn.load_checkpoint([tn.Parameter("other", np.zeros((2, 2)))], path)
    with pytest.raises(ValueError, match="shape mismatch"):
        tn.load_checkpoint([tn.Parameter("a", np.zeros((1, 2)))], path)


@pytest.mark.parametrize(
    "entry,why",
    [
        ([0.0, 0.0], "needs a shape and values"),
        ({"values": [0.0, 0.0]}, "needs a shape and values"),
        ({"shape": [1, 2]}, "needs a shape and values"),
        ({"shape": [2, 1], "values": [0.0, 0.0]}, "shape mismatch for b"),
        ({"shape": [1, 2], "values": [0.0]}, "flat list of 2 numbers, got shape (1,)"),
        ({"shape": [1, 2], "values": [[0.0, 0.0]]}, "flat list of 2 numbers, got shape (1, 2)"),
        ({"shape": [1, 2], "values": ["x", 0.0]}, "values for b are not numbers"),
        ({"shape": [1, 2], "values": [float("nan"), 0.0]}, "values for b contains non-finite"),
        ({"shape": [1, 2], "values": [0.0, float("inf")]}, "values for b contains non-finite"),
        ({"shape": [1, 2], "values": [float("-inf"), 0.0]}, "values for b contains non-finite"),
        ({"shape": [True, 2], "values": [0.0, 0.0]}, "shape mismatch for b"),
        ({"shape": [1, 2], "values": [True, False]}, "values for b are not numbers"),
        ({"shape": [1, 2], "values": ["1.5", "2"]}, "values for b are not numbers"),
        ({"shape": [1, 2], "values": [10**400, 1]}, "values for b exceed the float64 range"),
    ],
)
def test_checkpoint_rejects_bad_entry_before_writing(tmp_path, entry, why):
    path = tmp_path / "ckpt.json"
    blob = {"a": {"shape": [2, 2], "values": [1.0, 2.0, 3.0, 4.0]}, "b": entry}
    path.write_text(json.dumps(blob), encoding="utf-8")
    params = [tn.Parameter("a", np.zeros((2, 2))), tn.Parameter("b", np.zeros((1, 2)))]
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: checkpoint.*{re.escape(why)}"):
        tn.load_checkpoint(params, path)
    assert not params[0].value.any()  # the valid entry before it was not written


@pytest.mark.parametrize(
    "data",
    [b"{", b"[]", b'{"a": \xff}', pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-too-deep")],
)
def test_checkpoint_rejects_malformed_file(tmp_path, data):
    path = tmp_path / "ckpt.json"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        tn.load_checkpoint([tn.Parameter("a", np.zeros((1, 1)))], path)


def test_max_rel_error_floor():
    assert tn.max_rel_error([0.0], [0.0]) == 0.0
    assert tn.max_rel_error([1.0], [1.0 + 1e-9]) < 1e-6
    assert tn.max_rel_error([1.0], [2.0]) == pytest.approx(0.5)


@pytest.mark.parametrize("shapes", [
    # about 2.5 slices: not a multiple of the slice, and parameters that
    # straddle slice boundaries
    [(3, 7), (tn.ADAM_BLOCK // 2 + 3, 4), (1, tn.ADAM_BLOCK // 2 - 5)],
    [(5, 6), (1, 9)],  # smaller than one slice
])
def test_sliced_adam_matches_textbook_bit_for_bit(shapes):
    size = sum(r * c for r, c in shapes)
    assert size % tn.ADAM_BLOCK and (size < tn.ADAM_BLOCK or 2 * tn.ADAM_BLOCK < size < 3 * tn.ADAM_BLOCK)
    rng = np.random.default_rng(13)
    params = [tn.Parameter(f"p{i}", rng.normal(size=s)) for i, s in enumerate(shapes)]
    ref = [p.value.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    opt = tn.Adam(params, lr=0.003)
    for t in range(1, 6):
        grads = [rng.normal(scale=10.0 ** rng.integers(-4, 3), size=s) for s in shapes]
        for p, g in zip(params, grads):
            p.zero_grad()
            p.grad += g
        opt.step()
        ref = textbook_adam(ref, grads, m, v, t, lr=0.003)
        for p, r in zip(params, ref):
            assert np.array_equal(p.value, r) and p.value.tobytes() == r.tobytes()
        assert opt.m.tobytes() == np.concatenate([x.ravel() for x in m]).tobytes()
        assert opt.v.tobytes() == np.concatenate([x.ravel() for x in v]).tobytes()
