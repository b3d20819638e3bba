import numpy as np
import pytest

from hill import tensor_nn as tn


def fd_check(f, x, analytic, tol=1e-6):
    numeric = tn.central_difference(f, x.copy())
    assert tn.max_rel_error(analytic, numeric) < tol


def test_matmul_forward_and_backward():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    grad = rng.normal(size=(3, 2))
    ga, gb = tn.matmul_backward(grad, a, b)
    fd_check(lambda x: float(np.sum(tn.matmul(x, b) * grad)), a, ga)
    fd_check(lambda x: float(np.sum(tn.matmul(a, x) * grad)), b, gb)


def test_matmul_shape_check():
    with pytest.raises(ValueError, match="shape mismatch"):
        tn.matmul(np.ones((2, 3)), np.ones((2, 3)))


def test_add_bias_backward():
    rng = np.random.default_rng(1)
    x, bias = rng.normal(size=(5, 3)), rng.normal(size=(1, 3))
    grad = rng.normal(size=(5, 3))
    gx, gb = tn.add_bias_backward(grad)
    fd_check(lambda v: float(np.sum(tn.add_bias(x, v) * grad)), bias, gb)
    assert np.array_equal(gx, grad)


def test_relu_backward():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 4)) + 0.05  # keep clear of the kink
    grad = rng.normal(size=(4, 4))
    fd_check(lambda v: float(np.sum(tn.relu(v) * grad)), x, tn.relu_backward(grad, x))


def test_concat_and_reductions():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 4))
    grad = rng.normal(size=(3, 6))
    ga, gb = tn.concat_cols_backward(grad, 2)
    fd_check(lambda v: float(np.sum(tn.concat_cols(v, b) * grad)), a, ga)
    fd_check(lambda v: float(np.sum(tn.concat_cols(a, v) * grad)), b, gb)
    g1 = rng.normal(size=(1, 2))
    fd_check(lambda v: float(np.sum(tn.sum_rows(v) * g1)), a, tn.sum_rows_backward(g1, 3))
    fd_check(lambda v: float(np.sum(tn.mean_rows(v) * g1)), a, tn.mean_rows_backward(g1, 3))


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


def test_cosine_similarity_and_backward():
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 2.0])
    assert tn.cosine_similarity(u, u) == pytest.approx(1.0)
    assert tn.cosine_similarity(u, v) == pytest.approx(0.0)
    with pytest.raises(ValueError, match="zero-norm"):
        tn.cosine_similarity(u, np.zeros(2))
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=4), rng.normal(size=4)
    gu, gv = tn.cosine_similarity_backward(1.0, a, b)
    fd_check(lambda x: tn.cosine_similarity(x.ravel(), b), a.reshape(1, -1), gu)
    fd_check(lambda x: tn.cosine_similarity(a, x.ravel()), b.reshape(1, -1), gv)


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        tn.as_matrix(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        tn.sigmoid(np.array([[np.inf]]))


def test_linear_layer_gradients():
    rng = np.random.default_rng(6)
    layer = tn.LinearLayer(4, 3, rng, name="t")
    x = rng.normal(size=(5, 4))
    grad = rng.normal(size=(5, 3))
    y, ctx = layer.forward(x)
    gx = layer.backward(grad, ctx)

    def loss_w(w):
        saved = layer.weight.value.copy()
        layer.weight.value[...] = w
        out, _ = layer.forward(x)
        layer.weight.value[...] = saved
        return float(np.sum(out * grad))

    fd_check(loss_w, layer.weight.value.copy(), layer.weight.grad)
    fd_check(lambda v: float(np.sum((layer.forward(v)[0]) * grad)), x, gx)


def test_linear_layer_no_bias():
    layer = tn.LinearLayer(3, 2, np.random.default_rng(0), bias=False)
    assert layer.bias is None
    assert len(layer.params()) == 1


def test_adam_reduces_quadratic():
    p = tn.Parameter("w", np.array([[5.0, -3.0]]))
    opt = tn.Adam([p], lr=0.1)
    for _ in range(300):
        opt.zero_grad()
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
        opt.zero_grad()
        grads = [rng.normal(scale=10.0 ** rng.integers(-3, 3), size=s) for s in shapes]
        for p, g in zip(params, grads):
            p.grad += g
        opt.step()
        ref = textbook_adam(ref, grads, m, v, t, lr=0.01)
        for p, r in zip(params, ref):
            assert np.array_equal(p.value, r)


def test_adam_zero_grad_clears_every_parameter():
    params = [tn.Parameter("a", np.ones((2, 3))), tn.Parameter("b", np.ones((1, 2)))]
    opt = tn.Adam(params, lr=0.1)
    for p in params:
        p.grad += 1.0
    opt.zero_grad()
    assert all(not p.grad.any() for p in params)


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


def test_max_rel_error_floor():
    assert tn.max_rel_error([0.0], [0.0]) == 0.0
    assert tn.max_rel_error([1.0], [1.0 + 1e-9]) < 1e-6
    assert tn.max_rel_error([1.0], [2.0]) == pytest.approx(0.5)
