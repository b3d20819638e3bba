import json
import math
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from hill import tensor_nn as tn
from hill.datagen import Example, count_matrix, gen_corpus, gen_hierarchy, hierarchy_to_graph, label_matrix
from hill.entropy_min import build_coding_tree
from hill.experiments import DEFAULT_VOCAB, build_model, default_dataset
from hill.hill_model import (
    BCE_CLAMP,
    BagOfWordsEncoder,
    HillConfig,
    HillModel,
    LabelProjector,
    NTXENT_FORMS,
    StructureEncoder,
    _mlp_backward,
    _mlp_forward,
    bce_backward,
    bce_loss,
    nt_xent,
    nt_xent_backward,
    total_loss,
    train,
)


def small_setup(lambda_clr=0.1, k=2, eta="sum", seed=3, ntxent_form="simclr"):
    h = gen_hierarchy(2, 2, seed)
    config = HillConfig(
        d_B=8,
        d_V=4,
        K=k,
        lambda_clr=lambda_clr,
        eta=eta,
        seed=seed,
        ntxent_form=ntxent_form,
        epochs=2,
        batch_size=4,
    )
    tree = build_coding_tree(hierarchy_to_graph(h), k)
    model = HillModel(config, vocab_size=32, num_labels=h.num_labels, tree=tree)
    docs = gen_corpus(h, 12, 32, seed=seed)
    counts = count_matrix(docs, 32)
    y = label_matrix(docs, h.num_labels)
    return h, config, model, docs, counts, y


# -- config ----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="eta"):
        HillConfig(eta="max")
    with pytest.raises(ValueError, match="ntxent_form"):
        HillConfig(ntxent_form="bogus")
    with pytest.raises(ValueError, match="height"):
        HillConfig(K=1)
    with pytest.raises(ValueError, match="batch_size"):
        HillConfig(batch_size=0)
    with pytest.raises(ValueError, match="^tau must be positive and finite, got inf$"):
        HillConfig(tau=math.inf)
    # NT-Xent needs a second document in each batch for its negatives
    with pytest.raises(ValueError, match="^batch_size must be at least 2 when lambda_clr > 0, got 1$"):
        HillConfig(batch_size=1)
    assert HillConfig(batch_size=1, lambda_clr=0.0).batch_size == 1


def test_config_json_round_trip(tmp_path):
    config = HillConfig(d_B=16, lambda_clr=0.3, eta="mean")
    path = tmp_path / "config.json"
    config.to_json_file(path)
    assert HillConfig.from_json_file(path) == config
    assert HillConfig.from_json_file(path, seed=7).seed == 7


def test_default_config_file_holds_the_config_defaults():
    # perfbench and tests/test_training_pin.py read the file; hill train
    # without --config uses HillConfig()
    path = Path(__file__).resolve().parents[1] / "configs" / "default.json"
    assert json.loads(path.read_text(encoding="utf-8")) == asdict(HillConfig())


def test_config_accepts_reported_settings():
    for k in (2, 3):
        for lam in (0.001, 0.1, 0.3):
            for eta in ("sum", "mean"):
                HillConfig(K=k, lambda_clr=lam, eta=eta)


# -- losses ----------------------------------------------------------


def test_bce_known_value():
    loss, _ = bce_loss(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
    assert loss == pytest.approx(-np.log(0.5))


def test_bce_clamps_extremes():
    loss, ctx = bce_loss(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
    assert np.isfinite(loss)
    grad = bce_backward(ctx)
    assert np.all(grad == 0.0)  # clamped entries carry no gradient


def two_sided_bce_backward(ctx):
    """bce_backward with the clamp test it replaced, (p < C) | (p > 1 - C),
    kept as its bit-for-bit reference."""
    p, pc, y = ctx
    grad = (-(y / pc) + (1.0 - y) / (1.0 - pc)) / p.size
    grad[(p < BCE_CLAMP) | (p > 1.0 - BCE_CLAMP)] = 0.0
    return grad


def test_bce_backward_matches_two_sided_clamp_test():
    lo, hi = BCE_CLAMP, 1.0 - BCE_CLAMP
    # each bound exactly, one ulp inside and one ulp beyond, and the ends
    edges = [lo, np.nextafter(lo, 1.0), np.nextafter(lo, 0.0), hi, np.nextafter(hi, 0.0),
             np.nextafter(hi, 1.0), 0.0, 1.0]
    rng = np.random.default_rng(3)
    p = np.concatenate([edges, rng.random(32)]).reshape(4, 10)
    for y in (np.zeros_like(p), np.ones_like(p), (rng.random(p.shape) < 0.5).astype(float)):
        _, ctx = bce_loss(p, y)
        got, want = bce_backward(ctx), two_sided_bce_backward(ctx)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()
        assert not got[0, [2, 5, 6, 7]].any()  # clamped: no gradient
        assert got[0, [0, 1, 3, 4]].all()  # on or inside the bounds: gradient


def test_bce_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        bce_loss(np.zeros((1, 2)), np.zeros((1, 3)))


def five_point_difference(f, x, step):
    """Gradient of scalar f at array x by the five-point central
    difference, whose error is O(step^4) where the two-point one's is
    O(step^2): a wider step then keeps roundoff far below the bound."""
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        fx = []
        for k in (-2, -1, 1, 2):
            x[idx] = orig + k * step
            fx.append(f(x))
        x[idx] = orig
        grad[idx] = (fx[0] - 8 * fx[1] + 8 * fx[2] - fx[3]) / (12 * step)
    return grad


@pytest.mark.parametrize("form", ["simclr", "paper_literal"])
def test_nt_xent_gradient_matches_fd(form):
    rng = np.random.default_rng(1)
    h = rng.normal(size=(5, 6))
    h_hat = rng.normal(size=(5, 6))
    _, ctx = nt_xent(h, h_hat, tau=0.7, form=form)
    gh, gh_hat = nt_xent_backward(ctx)
    num_h = five_point_difference(lambda v: nt_xent(v, h_hat, 0.7, form)[0], h.copy(), 1e-3)
    num_hh = five_point_difference(lambda v: nt_xent(h, v, 0.7, form)[0], h_hat.copy(), 1e-3)
    assert tn.max_rel_error(gh, num_h, floor=1e-6) < 1e-6
    assert tn.max_rel_error(gh_hat, num_hh, floor=1e-6) < 1e-6


def test_nt_xent_prefers_aligned_pairs():
    rng = np.random.default_rng(2)
    h = rng.normal(size=(6, 8))
    aligned, _ = nt_xent(h, h.copy(), tau=0.5)
    shuffled, _ = nt_xent(h, h[::-1].copy(), tau=0.5)
    assert aligned < shuffled


def test_nt_xent_input_checks():
    h = np.ones((1, 4))
    with pytest.raises(ValueError, match="batch size"):
        nt_xent(h, h, tau=1.0)
    with pytest.raises(ValueError, match="shape mismatch"):
        nt_xent(np.ones((2, 4)), np.ones((2, 3)), tau=1.0)
    with pytest.raises(ValueError, match="zero-norm"):
        nt_xent(np.vstack([np.zeros(4), np.ones(4)]), np.ones((2, 4)), tau=1.0)
    with pytest.raises(ValueError, match="unknown nt_xent form 'cosine'"):
        nt_xent(np.ones((2, 4)), np.ones((2, 4)), tau=1.0, form="cosine")
    x, y = np.random.default_rng(0).normal(size=(2, 4, 3))
    for tau in (0.0, -1.0, math.nan, math.inf, -math.inf):
        for form in NTXENT_FORMS:
            with pytest.raises(ValueError, match="tau must be positive and finite"):
                nt_xent(x, y, tau=tau, form=form)


def test_one_doc_contrastive_batch_is_refused_by_nt_xent():
    _, _, model, _, counts, y = small_setup(lambda_clr=0.1)
    with pytest.raises(ValueError, match="nt_xent needs batch size >= 2"):
        model.forward_batch(counts[:1], y[:1])


def test_total_loss():
    assert total_loss(1.0, 2.0, 0.1) == pytest.approx(1.2)
    with pytest.raises(ValueError, match="non-finite"):
        total_loss(np.inf, 0.0, 0.1)


# -- components ------------------------------------------------------


def level1_agg(depth, branching, k=2):
    """S1, the 0/1 leaf-to-level-1 matrix of the greedy coding tree over
    gen_hierarchy(depth, branching)."""
    tree = build_coding_tree(hierarchy_to_graph(gen_hierarchy(depth, branching, 0)), k)
    return StructureEncoder(tree, 1, "sum", np.random.default_rng(0)).agg[0]


def explicit_x0(proj, h):
    """The (B, |Y|, d_V) leaf features the projector never builds."""
    z = h @ proj.lin.weight.value
    return proj.scale.value[None] * z[:, None, :] + proj.lin.bias.value[0]


def test_label_projector_per_doc_matches_batch():
    rng = np.random.default_rng(4)
    s1 = level1_agg(2, 2)  # 3 level-1 nodes over 7 leaves
    proj = LabelProjector(7, 6, 3, rng)
    proj.lin.bias.value[...] = rng.normal(size=(1, 3))
    h = rng.normal(size=(2, 6))
    a1, _ = proj.forward_batch(h, s1)
    assert a1.shape == (2, 3, 3)
    assert np.max(np.abs(a1 - np.matmul(s1, explicit_x0(proj, h)))) <= 1e-12
    for i in range(2):
        assert np.allclose(proj.forward_batch(h[i : i + 1], s1)[0][0], a1[i])


def test_structure_encoder_shapes_and_wrapper():
    h = gen_hierarchy(2, 2, 0)
    tree = build_coding_tree(hierarchy_to_graph(h), 2)
    rng = np.random.default_rng(5)
    enc = StructureEncoder(tree, d_v=3, eta="sum", rng=rng)
    x0 = rng.normal(size=(2, h.num_labels, 3))
    a1 = np.matmul(enc.agg[0], x0)
    assert a1.shape == (2, len(tree.layer(1)), 3)
    ht, _ = enc.forward_batch(a1)
    assert ht.shape == (2, 6)
    assert np.allclose(enc.forward_batch(a1[:1])[0][0], ht[0])


def test_structure_encoder_rejects_unknown_eta():
    tree = build_coding_tree(hierarchy_to_graph(gen_hierarchy(2, 2, 0)), 2)
    with pytest.raises(ValueError, match="eta must be one of"):
        StructureEncoder(tree, d_v=3, eta="max", rng=np.random.default_rng(0))


@pytest.mark.parametrize(
    "eta,k",
    [
        pytest.param("sum", 2, id="sum"),
        pytest.param("mean", 2, id="mean"),
        # 7 labels at K=3: levels of 3, 2 and 1 nodes, so agg[1] is not all ones
        pytest.param("sum", 3, id="sum-k3"),
        pytest.param("mean", 3, id="mean-k3"),
    ],
)
def test_structure_encoder_gradients(eta, k):
    h = gen_hierarchy(2, 2, 0)
    tree = build_coding_tree(hierarchy_to_graph(h), k)
    rng = np.random.default_rng(6)
    enc = StructureEncoder(tree, d_v=3, eta=eta, rng=rng)
    s1 = enc.agg[0]
    x0 = rng.normal(size=(2, h.num_labels, 3))
    grad = rng.normal(size=(2, enc.k * 3))
    _, ctx = enc.forward_batch(np.matmul(s1, x0))
    gx0 = np.matmul(s1.T, enc.backward(grad, ctx))
    numeric = tn.central_difference(
        lambda v: float(np.sum(enc.forward_batch(np.matmul(s1, v))[0] * grad)), x0.copy()
    )
    assert tn.max_rel_error(gx0, numeric) < 1e-6


def broadcast_a1(proj, h, s1):
    """forward_batch's a1 as the two broadcasts it replaced (inner loops
    d_V wide), kept as its bit-for-bit reference."""
    z = h @ proj.lin.weight.value
    coef = s1 @ proj.scale.value
    count = s1.sum(axis=1, keepdims=True)
    return coef * z[:, None, :] + count * proj.lin.bias.value


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("batch", [1, 32, 256])
def test_label_projector_matches_broadcast_form_bit_for_bit(batch, k):
    rng = np.random.default_rng(batch + k)
    s1 = level1_agg(3, 4, k)  # 85 leaves
    proj = LabelProjector(85, 8, 16, rng)
    proj.lin.bias.value[...] = rng.normal(size=(1, 16))
    h = rng.normal(size=(batch, 8))
    got, want = proj.forward_batch(h, s1)[0], broadcast_a1(proj, h, s1)
    assert got.shape == want.shape == (batch, s1.shape[0], 16)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def einsum_label_projector(proj, h, s1, grad_a1):
    """Label projector forward and backward written with einsum over the
    explicit leaf features x0 and S1; returns (a1, grad wrt h, scale
    grad, weight grad, bias grad)."""
    z = h @ proj.lin.weight.value
    x0 = np.einsum("y,bd->byd", proj.scale.value[:, 0], z) + proj.lin.bias.value[0]
    a1 = np.einsum("iy,byd->bid", s1, x0)
    grad_x0 = np.einsum("iy,bid->byd", s1, grad_a1)
    gscale = np.einsum("byd,bd->y", grad_x0, z)[:, None]
    gz = np.einsum("y,byd->bd", proj.scale.value[:, 0], grad_x0)
    gw = h.T @ gz
    return a1, gz @ proj.lin.weight.value.T, gscale, gw, grad_x0.sum(axis=(0, 1))[None, :]


def test_label_projector_matches_einsum_reference():
    rng = np.random.default_rng(8)
    s1 = level1_agg(2, 4)  # 5 level-1 nodes over 21 leaves
    proj = LabelProjector(21, 6, 4, rng)
    proj.lin.bias.value[...] = rng.normal(size=(1, 4))
    h = rng.normal(size=(5, 6))
    grad_a1 = rng.normal(size=(5, s1.shape[0], 4))
    a1, ctx = proj.forward_batch(h, s1)
    gh = proj.backward(grad_a1, ctx)
    got = (a1, gh, proj.scale.grad, proj.lin.weight.grad, proj.lin.bias.grad)
    for a, b in zip(got, einsum_label_projector(proj, h, s1, grad_a1)):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-12


def einsum_structure_encoder(enc, x0, grad_ht):
    """Structure encoder forward and backward with einsum aggregation,
    starting from the leaf features x0 (S1 applied here); accumulates FFN
    grads like the real backward and returns (h_T, grad wrt a1 = S1 x0)."""
    x, ctxs, readouts = x0, [], []
    for s, (lin1, lin2) in zip(enc.agg, enc.level_ffns):
        a = np.einsum("ij,bjd->bid", s, x)
        f, fctx = _mlp_forward(lin1, lin2, a.reshape(-1, a.shape[2]))
        f = f.reshape(a.shape)
        readouts.append(f.sum(axis=1) if enc.eta == "sum" else f.mean(axis=1))
        ctxs.append((fctx, f.shape[1]))
        x = f
    carry = 0.0
    for k in reversed(range(enc.k)):
        fctx, n = ctxs[k]
        gf = np.repeat(np.split(grad_ht, enc.k, axis=1)[k][:, None, :], n, axis=1)
        gf = (gf / n if enc.eta == "mean" else gf) + carry
        lin1, lin2 = enc.level_ffns[k]
        ga = _mlp_backward(lin1, lin2, gf.reshape(-1, gf.shape[2]), fctx).reshape(gf.shape)
        carry = np.einsum("ij,bid->bjd", enc.agg[k], ga)
    return np.concatenate(readouts, axis=1), ga


@pytest.mark.parametrize("eta,k", [("sum", 2), ("mean", 2), ("sum", 3)])
def test_structure_encoder_matches_einsum_reference(eta, k):
    h = gen_hierarchy(3, 3, 0)
    tree = build_coding_tree(hierarchy_to_graph(h), k)
    rng = np.random.default_rng(9)
    enc = StructureEncoder(tree, d_v=4, eta=eta, rng=rng)
    x0 = rng.normal(size=(6, h.num_labels, 4))
    grad = rng.normal(size=(6, enc.k * 4))
    ht, ctx = enc.forward_batch(np.matmul(enc.agg[0], x0))
    ga1 = enc.backward(grad, ctx)
    grads = [p.grad.copy() for p in enc.params()]
    for p in enc.params():
        p.zero_grad()
    ht_ref, ga1_ref = einsum_structure_encoder(enc, x0, grad)
    assert np.max(np.abs(ht - ht_ref)) <= 1e-12
    assert np.max(np.abs(ga1 - ga1_ref)) <= 1e-12
    for g, p in zip(grads, enc.params()):
        assert np.max(np.abs(g - p.grad)) <= 1e-12


# -- assembled model -------------------------------------------------


def test_model_rejects_height_mismatch():
    h = gen_hierarchy(2, 2, 0)
    tree = build_coding_tree(hierarchy_to_graph(h), 3)
    with pytest.raises(ValueError, match="tree height"):
        HillModel(HillConfig(K=2), 32, h.num_labels, tree)


def test_model_rejects_leaf_count_mismatch():
    h = gen_hierarchy(2, 2, 0)
    tree = build_coding_tree(hierarchy_to_graph(h), 2)
    with pytest.raises(ValueError, match="leaves"):
        HillModel(HillConfig(K=2), 32, h.num_labels + 1, tree)


def test_forward_batch_requires_pairs_for_contrastive():
    _, _, model, _, counts, y = small_setup(lambda_clr=0.1)
    with pytest.raises(ValueError, match="batch size"):
        model.forward_batch(counts[:1], y[:1])
    # fine without the contrastive term
    _, _, model0, _, counts0, y0 = small_setup(lambda_clr=0.0)
    loss, parts, _ = model0.forward_batch(counts0[:1], y0[:1])
    assert parts["ntxent"] == 0.0
    assert np.isfinite(loss)


def test_loss_parts_compose():
    _, config, model, _, counts, y = small_setup(lambda_clr=0.3)
    loss, parts, _ = model.forward_batch(counts[:4], y[:4])
    assert loss == pytest.approx(parts["bce"] + 0.3 * parts["ntxent"])


@pytest.mark.parametrize(
    "eta,form,k",
    [
        pytest.param("sum", "simclr", 2, id="sum-simclr"),
        pytest.param("mean", "paper_literal", 2, id="mean-paper_literal"),
        pytest.param("sum", "simclr", 3, id="sum-simclr-k3"),
        pytest.param("mean", "paper_literal", 3, id="mean-paper_literal-k3"),
    ],
)
def test_end_to_end_gradients(eta, form, k):
    _, _, model, _, counts, y = small_setup(lambda_clr=0.3, k=k, eta=eta, ntxent_form=form)
    cb, yb = counts[:4], y[:4]
    model.zero_grad()
    _, _, ctx = model.forward_batch(cb, yb)
    model.backward(ctx)
    rng = np.random.default_rng(9)
    worst = 0.0
    for param in model.parameters():
        flat = param.value.ravel()
        for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + 1e-5
            hi, _, _ = model.forward_batch(cb, yb)
            flat[idx] = orig - 1e-5
            lo, _, _ = model.forward_batch(cb, yb)
            flat[idx] = orig
            numeric = (hi - lo) / 2e-5
            worst = max(worst, tn.max_rel_error([param.grad.ravel()[idx]], [numeric]))
    assert worst < 1e-4


def test_predict_labels_thresholds_probs():
    _, _, model, _, counts, _ = small_setup()
    probs = model.predict_probs(counts[:3])
    labels = model.predict_labels(counts[:3])
    for row, lab in zip(probs, labels):
        assert lab == set(np.nonzero(row > 0.5)[0].tolist())


def per_row_label_sets(probs):
    """predict_labels' per-row form, kept as its reference."""
    return [set(np.nonzero(row > 0.5)[0].tolist()) for row in probs]


def test_predict_labels_matches_per_row_sets(monkeypatch):
    _, _, model, _, counts, _ = small_setup()
    rng = np.random.default_rng(10)
    probs = rng.random((6, model.num_labels))
    probs[1] = 0.25  # no label
    probs[2, 3] = 0.5  # exactly the threshold, which is not above it
    probs[4] = 0.75  # every label
    for rows in (probs[:0], probs[:1], probs):
        monkeypatch.setattr(model, "predict_probs", lambda c, rows=rows: rows)
        got = model.predict_labels(counts[: len(rows)])
        assert got == per_row_label_sets(rows)
        assert all(type(i) is int for labels in got for i in labels)
    assert got[1] == set() and 3 not in got[2] and got[4] == set(range(model.num_labels))


@pytest.mark.parametrize("eta,k", [("sum", 2), ("mean", 3)])
def test_non_finite_parameter_entry_is_rejected(eta, k):
    """Every parameter entry reaches a check: each kernel op checks what
    it reads, so a NaN or inf anywhere in the model raises instead of
    flowing into a loss or a prediction."""
    _, _, model, _, counts, y = small_setup(lambda_clr=0.1, k=k, eta=eta)
    cb, yb = counts[:4], y[:4]
    for param in model.parameters():
        contrastive_only = param.name.startswith(("proj_text.", "proj_tree."))
        flat = param.value.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            for bad in (np.nan, np.inf, -np.inf):
                flat[idx] = bad
                with np.errstate(invalid="ignore", over="ignore"):
                    with pytest.raises(ValueError, match="non-finite"):
                        model.forward_batch(cb, yb)
                    if not contrastive_only:
                        with pytest.raises(ValueError, match="non-finite"):
                            model.predict_probs(cb)
            flat[idx] = orig
        assert np.isfinite(model.predict_probs(cb)).all()


def test_train_reduces_loss_and_reports():
    h, config, model, docs, _, _ = small_setup(seed=11)
    report = train(model, docs, docs, config)
    assert len(report) == config.epochs
    assert set(report[0]) == {"epoch", "train_loss", "dev_micro_f1", "dev_macro_f1"}
    assert report[-1]["train_loss"] <= report[0]["train_loss"]


def test_train_writes_report_file(tmp_path):
    import json

    h, config, model, docs, _, _ = small_setup(seed=12)
    path = tmp_path / "report.jsonl"
    report = train(model, docs, docs, config, report_path=path)
    lines = [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines()]
    assert lines == report


def test_train_handles_trailing_singleton_batch():
    h, config, model, docs, _, _ = small_setup(seed=13)
    # 13 docs with batch size 4 leaves a size-1 remainder that must be
    # merged when the contrastive term is active
    docs = docs + [docs[0]]
    report = train(model, docs, [], config)
    assert "dev_micro_f1" not in report[0]


def test_train_refuses_a_config_other_than_the_models():
    # the model's NT-Xent reads its own lambda_clr, so a lambda_clr=0 config
    # would leave the 13th doc unmerged and die mid-epoch on a 1-doc batch
    h, config, model, docs, _, _ = small_setup(seed=13)
    before = [p.value.copy() for p in model.parameters()]
    refusals = [({"lambda_clr": 0.0}, "lambda_clr"), ({"tau": 0.5, "seed": 9}, "tau, seed")]
    for other, names in refusals:
        with pytest.raises(ValueError, match=f"^config differs from model.config in {names}$"):
            train(model, docs + [docs[0]], [], replace(config, epochs=1, **other))
    assert all((p.value == v).all() for p, v in zip(model.parameters(), before))


def test_train_takes_epochs_from_its_config():
    h, config, model, docs, _, _ = small_setup(seed=13)
    assert len(train(model, docs, [], replace(config, epochs=1))) == 1


def test_train_rejects_empty_training_set():
    h, config, model, docs, _, _ = small_setup()
    with pytest.raises(ValueError, match="empty"):
        train(model, [], docs, config)


def test_train_rejects_one_doc_only_for_contrastive_training():
    _, config, model, docs, _, _ = small_setup(seed=15)
    with pytest.raises(ValueError, match=r"^one example only, which contrastive training"):
        train(model, docs[:1], docs, config)
    _, config, model, docs, _, _ = small_setup(lambda_clr=0.0, seed=15)
    assert len(train(model, docs[:1], docs, config)) == config.epochs


def test_train_checks_every_id_before_the_first_step():
    _, config, model, docs, _, _ = small_setup(seed=14)
    before = [p.value.copy() for p in model.parameters()]
    bad_token = docs[:11] + [Example(tokens=[3, 32], labels=docs[11].labels)]
    with pytest.raises(ValueError, match=r"^doc 11: token id 32 outside \[0, 32\)"):
        train(model, bad_token, docs, config)
    bad_label = docs[:4] + [Example(tokens=docs[4].tokens, labels=[-1])]
    with pytest.raises(ValueError, match=r"^doc 4: label id -1 is negative$"):
        train(model, docs, bad_label, config)
    assert all((p.value == v).all() for p, v in zip(model.parameters(), before))


def test_train_memory_does_not_grow_with_the_corpus():
    # one epoch on 2000 docs at V=4096: a dense count matrix would take
    # 2000 x 4096 x 8 bytes = 65.5 MB; per-batch arrays take 1 MB
    vocab, n = 4096, 2000
    h = gen_hierarchy(3, 4, 0)
    config = HillConfig(d_B=8, d_V=4, epochs=1, batch_size=32)
    tree = build_coding_tree(hierarchy_to_graph(h), config.K)
    model = HillModel(config, vocab_size=vocab, num_labels=h.num_labels, tree=tree)
    docs = gen_corpus(h, 100, vocab, seed=0) * (n // 100)
    tracemalloc.start()
    try:
        train(model, docs, docs[:500], config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * vocab * 8 / 4


def test_token_counts_are_named_in_their_check():
    _, _, model, _, counts, _ = small_setup()
    counts[1, 3] = np.nan
    with pytest.raises(ValueError, match="^token counts contains non-finite values"):
        model.predict_probs(counts)


def level1_groups(s1):
    """Leaf ids grouped by their level-1 node."""
    return [np.flatnonzero(row) for row in s1]


@pytest.mark.parametrize("k", [2, 3])
def test_leaf_to_level1_assignment_does_not_change_training(k):
    """Label identity reaches the structure branch only as S1 scale, so a
    tree whose leaves sit under other level-1 nodes, with scale permuted
    to match, trains the same model: only the tree's shape matters."""
    hierarchy, train_docs, dev_docs = default_dataset(n_train=200, n_dev=100)
    config = HillConfig(K=k, epochs=2)
    tree = build_coding_tree(hierarchy_to_graph(hierarchy), k)
    true, scrambled = (HillModel(config, DEFAULT_VOCAB, hierarchy.num_labels, tree) for _ in range(2))
    s1 = true.structure.agg[0]
    perm = np.random.default_rng(0).permutation(hierarchy.num_labels)
    scrambled.structure.agg[0] = s1[:, perm]
    scrambled.label_proj.scale.value[...] = true.label_proj.scale.value[perm]
    moved = np.count_nonzero(s1.argmax(axis=0) != s1[:, perm].argmax(axis=0))
    assert moved > hierarchy.num_labels // 2
    starts = [m.label_proj.scale.value.copy() for m in (true, scrambled)]
    reports = [train(m, train_docs, dev_docs, config) for m in (true, scrambled)]
    for a, b in zip(*reports):
        assert (a["dev_micro_f1"], a["dev_macro_f1"]) == (b["dev_micro_f1"], b["dev_macro_f1"])
        assert abs(a["train_loss"] - b["train_loss"]) <= 1e-6 * abs(a["train_loss"])
    # the scale entries under one level-1 node share every gradient, so
    # they take the same steps; value - start rounds differently per entry
    for model, start in zip((true, scrambled), starts):
        update = (model.label_proj.scale.value - start)[:, 0]
        assert np.abs(update).max() > 1e-3
        for leaves in level1_groups(model.structure.agg[0]):
            assert np.ptp(update[leaves]) <= 1e-12


def test_training_is_deterministic():
    _, config, model_a, docs, _, _ = small_setup(seed=21)
    _, _, model_b, _, _, _ = small_setup(seed=21)
    rep_a = train(model_a, docs, docs, config)
    rep_b = train(model_b, docs, docs, config)
    assert rep_a == rep_b


# -- the embedding path, bit for bit ---------------------------------


def dense_encoder_backward(encoder, grad_h, ctx):
    """BagOfWordsEncoder.backward with the full counts.T @ gsum product
    over every token row: the reference the touched-rows form must match
    bit for bit."""
    counts, z, lctx = ctx
    gsum = encoder.lin.backward(tn.relu_backward(grad_h, z), lctx)
    encoder.embedding.grad += counts.T @ gsum


def embedding_grads(model, counts, y, monkeypatch):
    """The embedding gradient of one forward/backward, by the encoder's
    backward and by the dense reference, each from zeroed gradients."""
    _, _, ctx = model.forward_batch(counts, y)
    out = []
    for dense in (False, True):
        model.zero_grad()
        with monkeypatch.context() as patch:
            if dense:
                patch.setattr(BagOfWordsEncoder, "backward", dense_encoder_backward)
            model.backward(ctx)
        out.append(model.encoder.embedding.grad.copy())
    return out


def test_embedding_gradient_equals_the_dense_product_bit_for_bit(monkeypatch):
    hierarchy, train_docs, _ = default_dataset()
    config = HillConfig()
    model = build_model(config, hierarchy)
    perm = np.random.default_rng(0).permutation(len(train_docs))
    for start in range(0, 50 * config.batch_size, config.batch_size):
        batch = [train_docs[i] for i in perm[start : start + config.batch_size]]
        got, want = embedding_grads(
            model, count_matrix(batch, DEFAULT_VOCAB), label_matrix(batch, hierarchy.num_labels),
            monkeypatch,
        )
        assert np.count_nonzero(want.any(axis=1)) < DEFAULT_VOCAB // 2  # most rows untouched
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def test_embedding_gradient_bit_for_bit_on_edge_documents(monkeypatch):
    # a repeated token, the last token id and a document with no tokens,
    # which only lambda_clr = 0 accepts
    hierarchy = gen_hierarchy(3, 4)
    model = build_model(HillConfig(lambda_clr=0.0), hierarchy)
    v = DEFAULT_VOCAB
    docs = [Example([7, 7, 7, v - 1], [1, 5]), Example([], [2]), Example([v - 1, 0, 7], [3])]
    got, want = embedding_grads(
        model, count_matrix(docs, v), label_matrix(docs, hierarchy.num_labels), monkeypatch
    )
    assert np.count_nonzero(got.any(axis=1)) == 3
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def test_default_step_kernel_call_counts(monkeypatch):
    # one default forward_batch and backward on 32 documents calls
    # check_finite 34 times and matmul 12 times; neither may grow
    hierarchy, train_docs, _ = default_dataset(n_train=32, n_dev=1)
    model = build_model(HillConfig(), hierarchy)
    counts = count_matrix(train_docs, DEFAULT_VOCAB)
    y = label_matrix(train_docs, hierarchy.num_labels)
    calls = {"check_finite": 0, "matmul": 0}

    def counted(name):
        fn = getattr(tn, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(tn, name, counted(name))
    _, _, ctx = model.forward_batch(counts, y)
    model.backward(ctx)
    assert calls["check_finite"] <= 34
    assert calls["matmul"] <= 12


def longdouble_paper_literal(h, h_hat, tau):
    """The paper_literal loss and its gradient in np.longdouble, each
    anchor's sums over the other anchors taken directly."""
    h, h_hat, tau = h.astype(np.longdouble), h_hat.astype(np.longdouble), np.longdouble(tau)
    nu = np.sqrt((h * h).sum(axis=1, keepdims=True))
    nv = np.sqrt((h_hat * h_hat).sum(axis=1, keepdims=True))
    u, v = h / nu, h_hat / nv
    s = (u * v).sum(axis=1)
    a = s / tau
    e = np.exp(a - a.max())
    b = len(s)
    others = ~np.eye(b, dtype=bool)
    denom = np.array([e[others[i]].sum() for i in range(b)])
    loss = np.mean(-a + a.max() + np.log(denom))
    inv = 1 / denom
    ds = (-1 + e * np.array([inv[others[i]].sum() for i in range(b)])) / (b * tau)
    gh = ds[:, None] * (v - s[:, None] * u) / nu
    gh_hat = ds[:, None] * (u - s[:, None] * v) / nv
    return loss, gh, gh_hat


@pytest.mark.parametrize(
    "tau,pinned",
    [(0.01, 95.8346), (0.001, 958.3464), (1e-4, 9583.4644)],
    ids=["tau=0.01", "tau=0.001", "tau=1e-4"],
)
def test_paper_literal_nt_xent_is_finite_when_one_pair_dominates(tau, pinned):
    # anchor 0's positive pair holds nearly all of the sum: a sum over
    # the others taken as total - e cancels to 0 there, and one taken
    # unshifted from the largest logit underflows to 0.0 at tau = 0.001
    rng = np.random.default_rng(0)
    h = rng.normal(size=(8, 8))
    h_hat = rng.normal(size=(8, 8))
    h_hat[0] = h[0]
    loss, ctx = nt_xent(h, h_hat, tau, "paper_literal")
    ref_loss, ref_gh, ref_gh_hat = longdouble_paper_literal(h, h_hat, tau)
    assert math.isfinite(loss)
    assert loss == pytest.approx(pinned, abs=1e-4)
    assert loss == pytest.approx(float(ref_loss), rel=1e-14)
    for got, want in zip(nt_xent_backward(ctx), (ref_gh, ref_gh_hat)):
        want = want.astype(np.float64)
        assert np.all(np.isfinite(got))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
