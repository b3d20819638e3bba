import numpy as np
import pytest

from hill import tensor_nn as tn
from hill.datagen import count_matrix, gen_corpus, gen_hierarchy, hierarchy_to_graph, label_matrix
from hill.entropy_min import build_coding_tree
from hill.hill_model import (
    BagOfWordsEncoder,
    HillConfig,
    HillModel,
    LabelProjector,
    StructureEncoder,
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


def test_config_json_round_trip(tmp_path):
    config = HillConfig(d_B=16, lambda_clr=0.3, eta="mean")
    path = tmp_path / "config.json"
    config.to_json_file(path)
    assert HillConfig.from_json_file(path) == config
    assert HillConfig.from_json_file(path, seed=7).seed == 7


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


def test_bce_gradient_matches_fd():
    rng = np.random.default_rng(0)
    p = rng.uniform(0.05, 0.95, size=(4, 5))
    y = (rng.random((4, 5)) < 0.4).astype(float)
    _, ctx = bce_loss(p, y)
    numeric = tn.central_difference(lambda v: bce_loss(v, y)[0], p.copy())
    assert tn.max_rel_error(bce_backward(ctx), numeric) < 1e-6


def test_bce_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        bce_loss(np.zeros((1, 2)), np.zeros((1, 3)))


@pytest.mark.parametrize("form", ["simclr", "paper_literal"])
def test_nt_xent_gradient_matches_fd(form):
    rng = np.random.default_rng(1)
    h = rng.normal(size=(5, 6))
    h_hat = rng.normal(size=(5, 6))
    _, ctx = nt_xent(h, h_hat, tau=0.7, form=form)
    gh, gh_hat = nt_xent_backward(ctx)
    # step 1e-4 balances truncation against roundoff for this loss scale
    num_h = tn.central_difference(lambda v: nt_xent(v, h_hat, 0.7, form)[0], h.copy(), step=1e-4)
    num_hh = tn.central_difference(lambda v: nt_xent(h, v, 0.7, form)[0], h_hat.copy(), step=1e-4)
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


def test_total_loss():
    assert total_loss(1.0, 2.0, 0.1) == pytest.approx(1.2)
    with pytest.raises(ValueError, match="non-finite"):
        total_loss(np.inf, 0.0, 0.1)


# -- components ------------------------------------------------------


def test_encoder_per_doc_matches_batch():
    rng = np.random.default_rng(3)
    enc = BagOfWordsEncoder(16, 6, rng)
    tokens = [1, 1, 7, 12]
    counts = np.zeros((1, 16))
    np.add.at(counts[0], np.asarray(tokens), 1.0)
    h_batch, _ = enc.encode_counts(counts)
    assert np.allclose(enc.encode(tokens).h_d, h_batch)


def test_label_projector_per_doc_matches_batch():
    rng = np.random.default_rng(4)
    proj = LabelProjector(5, 6, 3, rng)
    h = rng.normal(size=(2, 6))
    x0, _ = proj.forward_batch(h)
    assert x0.shape == (2, 5, 3)
    assert np.allclose(proj.project_labels(h[0]), x0[0])
    assert np.allclose(proj.project_labels(h[1]), x0[1])


def test_structure_encoder_shapes_and_wrapper():
    h = gen_hierarchy(2, 2, 0)
    tree = build_coding_tree(hierarchy_to_graph(h), 2)
    rng = np.random.default_rng(5)
    enc = StructureEncoder(tree, d_v=3, eta="sum", rng=rng)
    assert enc.out_dim == 6
    x0 = rng.normal(size=(2, h.num_labels, 3))
    ht, _ = enc.forward_batch(x0)
    assert ht.shape == (2, 6)
    assert np.allclose(enc.tree_forward(x0[0]), ht[0])
    with pytest.raises(ValueError, match="leaf-count"):
        enc.forward_batch(rng.normal(size=(1, 3, 3)))


@pytest.mark.parametrize("eta", ["sum", "mean"])
def test_structure_encoder_gradients(eta):
    h = gen_hierarchy(2, 2, 0)
    tree = build_coding_tree(hierarchy_to_graph(h), 2)
    rng = np.random.default_rng(6)
    enc = StructureEncoder(tree, d_v=3, eta=eta, rng=rng)
    x0 = rng.normal(size=(2, h.num_labels, 3))
    grad = rng.normal(size=(2, enc.out_dim))
    _, ctx = enc.forward_batch(x0)
    gx0 = enc.backward(grad, ctx)
    numeric = tn.central_difference(
        lambda v: float(np.sum(enc.forward_batch(v)[0] * grad)), x0.copy()
    )
    assert tn.max_rel_error(gx0, numeric) < 1e-6


def einsum_label_projector(proj, h, grad_x0):
    """Label projector forward and backward written with einsum; returns
    (x0, grad wrt h, scale grad, weight grad, bias grad)."""
    z = h @ proj.lin.weight.value
    x0 = np.einsum("y,bd->byd", proj.scale.value[:, 0], z) + proj.lin.bias.value[0]
    gscale = np.einsum("byd,bd->y", grad_x0, z)[:, None]
    gz = np.einsum("y,byd->bd", proj.scale.value[:, 0], grad_x0)
    gw = h.T @ gz
    return x0, gz @ proj.lin.weight.value.T, gscale, gw, grad_x0.sum(axis=(0, 1))[None, :]


def test_label_projector_matches_einsum_reference():
    rng = np.random.default_rng(8)
    proj = LabelProjector(21, 6, 4, rng)
    proj.lin.bias.value[...] = rng.normal(size=(1, 4))
    h = rng.normal(size=(5, 6))
    grad_x0 = rng.normal(size=(5, 21, 4))
    x0, ctx = proj.forward_batch(h)
    gh = proj.backward(grad_x0, ctx)
    got = (x0, gh, proj.scale.grad, proj.lin.weight.grad, proj.lin.bias.grad)
    for a, b in zip(got, einsum_label_projector(proj, h, grad_x0)):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-12


def einsum_structure_encoder(enc, x0, grad_ht):
    """Structure encoder forward and backward with einsum aggregation;
    accumulates FFN grads like the real backward and returns (h_T, grad
    wrt x0)."""
    x, ctxs, readouts = x0, [], []
    for s, ffn in zip(enc.agg, enc.level_ffns):
        f, fctx = ffn.forward_batch(np.einsum("ij,bjd->bid", s, x))
        readouts.append(f.sum(axis=1) if enc.eta == "sum" else f.mean(axis=1))
        ctxs.append((fctx, f.shape[1]))
        x = f
    carry = 0.0
    for k in reversed(range(enc.k)):
        fctx, n = ctxs[k]
        gf = np.repeat(np.split(grad_ht, enc.k, axis=1)[k][:, None, :], n, axis=1)
        gf = (gf / n if enc.eta == "mean" else gf) + carry
        carry = np.einsum("ij,bid->bjd", enc.agg[k], enc.level_ffns[k].backward_batch(gf, fctx))
    return np.concatenate(readouts, axis=1), carry


@pytest.mark.parametrize("eta,k", [("sum", 2), ("mean", 2), ("sum", 3)])
def test_structure_encoder_matches_einsum_reference(eta, k):
    h = gen_hierarchy(3, 3, 0)
    tree = build_coding_tree(hierarchy_to_graph(h), k)
    rng = np.random.default_rng(9)
    enc = StructureEncoder(tree, d_v=4, eta=eta, rng=rng)
    x0 = rng.normal(size=(6, h.num_labels, 4))
    grad = rng.normal(size=(6, enc.out_dim))
    ht, ctx = enc.forward_batch(x0)
    gx0 = enc.backward(grad, ctx)
    grads = [p.grad.copy() for p in enc.params()]
    for p in enc.params():
        p.zero_grad()
    ht_ref, gx0_ref = einsum_structure_encoder(enc, x0, grad)
    assert np.max(np.abs(ht - ht_ref)) <= 1e-12
    assert np.max(np.abs(gx0 - gx0_ref)) <= 1e-12
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


@pytest.mark.parametrize("eta,form", [("sum", "simclr"), ("mean", "paper_literal")])
def test_end_to_end_gradients(eta, form):
    _, _, model, _, counts, y = small_setup(lambda_clr=0.3, eta=eta, ntxent_form=form)
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


def test_train_rejects_empty_training_set():
    h, config, model, docs, _, _ = small_setup()
    with pytest.raises(ValueError, match="empty"):
        train(model, [], docs, config)


def test_training_is_deterministic():
    _, config, model_a, docs, _, _ = small_setup(seed=21)
    _, _, model_b, _, _, _ = small_setup(seed=21)
    rep_a = train(model_a, docs, docs, config)
    rep_b = train(model_b, docs, docs, config)
    assert rep_a == rep_b
