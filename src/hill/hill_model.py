"""The full learning pipeline: pluggable text encoder, label projector,
hierarchical representation learning over a coding tree, contrastive
projectors with NT-Xent, sigmoid classifier with BCE, and the training
loop.

Per-document ops (project_labels, tree_forward, classify) are thin
wrappers over batched internals; the batch dimension is only an
efficiency device and never changes semantics.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor_nn as tn
from .coding_tree import CodingTree
from .datagen import count_matrix, label_matrix
from .metrics import macro_f1, micro_f1

ETA_MODES = ("sum", "mean")
NTXENT_FORMS = ("simclr", "paper_literal")
BCE_CLAMP = 1e-7


@dataclass
class HillConfig:
    d_B: int = 64
    d_V: int = 16
    K: int = 2
    tau: float = 1.0
    lambda_clr: float = 0.1
    eta: str = "sum"
    lr_encoder: float = 3e-3
    lr_structure: float = 3e-3
    batch_size: int = 32
    epochs: int = 20
    seed: int = 42
    ntxent_form: str = "simclr"

    def __post_init__(self):
        if self.eta not in ETA_MODES:
            raise ValueError(f"eta must be one of {ETA_MODES}, got {self.eta!r}")
        if self.ntxent_form not in NTXENT_FORMS:
            raise ValueError(f"ntxent_form must be one of {NTXENT_FORMS}")
        if self.K < 2:
            raise ValueError(f"coding-tree height must be at least 2, got {self.K}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")

    @classmethod
    def from_json_file(cls, path, **overrides):
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
        blob.update(overrides)
        return cls(**blob)

    def to_json_file(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)


# -- encoders --------------------------------------------------------


@dataclass
class EncoderOutput:
    h_d: np.ndarray  # (1, d_B)


class TextEncoder:
    """Contract for document encoders: deterministic given parameters."""

    def encode(self, tokens) -> EncoderOutput:
        raise NotImplementedError


class BagOfWordsEncoder(TextEncoder):
    """Token-count lookup-sum followed by one linear+relu layer."""

    def __init__(self, vocab_size, d_b, rng):
        self.vocab_size = vocab_size
        self.embedding = tn.Parameter(
            "encoder.embedding", rng.normal(0.0, 0.1, (vocab_size, d_b))
        )
        self.lin = tn.LinearLayer(d_b, d_b, rng, name="encoder.out")

    def encode_counts(self, counts):
        counts = tn.as_matrix(counts, "token counts")
        summed = tn.matmul(counts, self.embedding.value)
        z, lctx = self.lin.forward(summed)
        return tn.relu(z), (counts, z, lctx)

    def backward(self, grad_h, ctx):
        counts, z, lctx = ctx
        gz = tn.relu_backward(grad_h, z)
        gsum = self.lin.backward(gz, lctx)
        self.embedding.grad += counts.T @ gsum

    def encode(self, tokens) -> EncoderOutput:
        counts = np.zeros((1, self.vocab_size))
        np.add.at(counts[0], np.asarray(list(tokens), dtype=int), 1.0)
        h, _ = self.encode_counts(counts)
        return EncoderOutput(h_d=h)

    def params(self):
        return [self.embedding] + self.lin.params()


# -- structure branch ------------------------------------------------


class LabelProjector:
    """phi_proj: a learned per-label vector (the |Y| x 1 stage) outer
    h_D, then a d_B x d_V linear map. One d_V row per label vertex."""

    def __init__(self, num_labels, d_b, d_v, rng):
        self.num_labels = num_labels
        self.scale = tn.Parameter("proj_label.scale", rng.normal(0.0, 1.0, (num_labels, 1)))
        self.lin = tn.LinearLayer(d_b, d_v, rng, name="proj_label.map")

    def forward_batch(self, h):
        h = tn.as_matrix(h, "document embeddings")
        z = tn.matmul(h, self.lin.weight.value)  # (B, d_V), bias applied after the outer
        x0 = self.scale.value[None] * z[:, None, :]
        x0 += self.lin.bias.value[0]  # in place: a second (B, |Y|, d_V) temporary tripled this op's time
        return x0, (h, z)

    def backward(self, grad_x0, ctx):
        h, z = ctx
        self.lin.bias.grad += grad_x0.sum(axis=(0, 1))[None, :]
        self.scale.grad += (grad_x0 @ z[:, :, None]).sum(axis=0)
        gz = self.scale.value[:, 0] @ grad_x0
        self.lin.weight.grad += h.T @ gz
        return gz @ self.lin.weight.value.T

    def project_labels(self, h_d):
        h_d = tn.as_matrix(np.atleast_2d(h_d), "h_D")
        x0, _ = self.forward_batch(h_d)
        return x0[0]

    def params(self):
        return [self.scale] + self.lin.params()


class LevelFFN:
    """Two-layer perceptron applied node-wise within one tree level."""

    def __init__(self, d_v, rng, name):
        self.lin1 = tn.LinearLayer(d_v, d_v, rng, name=f"{name}.lin1")
        self.lin2 = tn.LinearLayer(d_v, d_v, rng, name=f"{name}.lin2")

    def forward_batch(self, a):
        b, n, d = a.shape
        flat = a.reshape(b * n, d)
        z1, c1 = self.lin1.forward(flat)
        r = tn.relu(z1)
        z2, c2 = self.lin2.forward(r)
        return z2.reshape(b, n, d), (a.shape, z1, c1, c2)

    def backward_batch(self, grad, ctx):
        shape, z1, c1, c2 = ctx
        b, n, d = shape
        g = grad.reshape(b * n, d)
        gr = self.lin2.backward(g, c2)
        gz1 = tn.relu_backward(gr, z1)
        ga = self.lin1.backward(gz1, c1)
        return ga.reshape(b, n, d)

    def params(self):
        return self.lin1.params() + self.lin2.params()


class StructureEncoder:
    """Bottom-up child-sum propagation over the coding tree with one FFN
    per level and per-level readout concatenation; output dim K * d_V."""

    def __init__(self, tree: CodingTree, d_v, eta, rng):
        if eta not in ETA_MODES:
            raise ValueError(f"eta must be one of {ETA_MODES}")
        self.tree = tree
        self.k = tree.height
        self.d_v = d_v
        self.eta = eta
        self.num_leaves = len(tree.leaf_ids())
        # leaves in graph-vertex order; aggregation matrices per level
        layers = []
        leaf_layer = sorted(tree.leaf_ids(), key=lambda i: min(tree.nodes[i].subset))
        layers.append(leaf_layer)
        for k in range(1, self.k + 1):
            layers.append(tree.layer(k))
        self.agg = []
        for k in range(1, self.k + 1):
            below_index = {nid: j for j, nid in enumerate(layers[k - 1])}
            s = np.zeros((len(layers[k]), len(layers[k - 1])))
            for i, nid in enumerate(layers[k]):
                for c in tree.nodes[nid].children:
                    s[i, below_index[c]] = 1.0
            self.agg.append(s)
        self.level_ffns = [LevelFFN(d_v, rng, f"structure.level{k}") for k in range(1, self.k + 1)]

    @property
    def out_dim(self):
        return self.k * self.d_v

    def forward_batch(self, x0):
        if x0.shape[1] != self.num_leaves:
            raise ValueError(
                f"leaf-count mismatch: {x0.shape[1]} feature rows vs {self.num_leaves} leaves"
            )
        x = x0
        level_ctx = []
        readouts = []
        for s, ffn in zip(self.agg, self.level_ffns):
            a = np.matmul(s, x)
            f, fctx = ffn.forward_batch(a)
            readouts.append(f.sum(axis=1) if self.eta == "sum" else f.mean(axis=1))
            level_ctx.append((fctx, f.shape[1]))
            x = f
        return np.concatenate(readouts, axis=1), level_ctx

    def backward(self, grad_ht, level_ctx):
        b = grad_ht.shape[0]
        grads_r = np.split(grad_ht, self.k, axis=1)
        carry = None
        for k in reversed(range(self.k)):
            fctx, n_nodes = level_ctx[k]
            gr = grads_r[k][:, None, :]
            gf = np.repeat(gr, n_nodes, axis=1)
            if self.eta == "mean":
                gf = gf / n_nodes
            if carry is not None:
                gf = gf + carry
            ga = self.level_ffns[k].backward_batch(gf, fctx)
            carry = np.matmul(self.agg[k].T, ga)
        return carry

    def tree_forward(self, x0):
        x0 = np.asarray(x0, dtype=np.float64)
        ht, _ = self.forward_batch(x0[None, :, :])
        return ht[0]

    def params(self):
        out = []
        for ffn in self.level_ffns:
            out.extend(ffn.params())
        return out


class MlpProjector:
    """Two-layer relu projector: W2 relu(W1 x + b); no second bias."""

    def __init__(self, in_dim, out_dim, rng, name):
        self.lin1 = tn.LinearLayer(in_dim, out_dim, rng, name=f"{name}.lin1")
        self.lin2 = tn.LinearLayer(out_dim, out_dim, rng, bias=False, name=f"{name}.lin2")

    def forward(self, x):
        z1, c1 = self.lin1.forward(x)
        r = tn.relu(z1)
        z2, c2 = self.lin2.forward(r)
        return z2, (z1, c1, c2)

    def backward(self, grad, ctx):
        z1, c1, c2 = ctx
        gr = self.lin2.backward(grad, c2)
        gz1 = tn.relu_backward(gr, z1)
        return self.lin1.backward(gz1, c1)

    def params(self):
        return self.lin1.params() + self.lin2.params()


# -- losses ----------------------------------------------------------


def _normalize_rows(x, name):
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError(f"nt_xent: zero-norm {name} embedding")
    return x / norms, norms


def nt_xent(h, h_hat, tau, form="simclr"):
    """Contrastive loss over cosine similarities of positive pairs
    (h_i, h_hat_i) against in-batch negatives; returns (loss, ctx).

    form="simclr": symmetric in-batch negatives over both views.
    form="paper_literal": denominator sums the other samples' positive
    similarities only (kept for fidelity testing).
    """
    h = tn.as_matrix(h, "nt_xent view 1")
    h_hat = tn.as_matrix(h_hat, "nt_xent view 2")
    if h.shape != h_hat.shape:
        raise ValueError(f"nt_xent shape mismatch: {h.shape} vs {h_hat.shape}")
    b = h.shape[0]
    if b < 2:
        raise ValueError("nt_xent needs batch size >= 2 (no negatives otherwise)")
    if form not in NTXENT_FORMS:
        raise ValueError(f"unknown nt_xent form {form!r}")
    u, nu = _normalize_rows(h, "view-1")
    v, nv = _normalize_rows(h_hat, "view-2")
    if form == "simclr":
        z = np.vstack([u, v])
        sims = (z @ z.T) / tau
        masked = sims.copy()
        np.fill_diagonal(masked, -np.inf)
        row_max = masked.max(axis=1, keepdims=True)
        lse = row_max[:, 0] + np.log(np.exp(masked - row_max).sum(axis=1))
        pos = np.concatenate([np.arange(b) + b, np.arange(b)])
        loss = float(np.mean(lse - sims[np.arange(2 * b), pos]))
        ctx = ("simclr", h, h_hat, u, v, nu, nv, tau, masked, lse, pos)
        return loss, ctx
    # paper_literal
    s = np.sum(u * v, axis=1)
    a = s / tau
    m = a.max()
    e = np.exp(a - m)
    total = e.sum()
    denom = total - e  # per-anchor sum over j != i
    loss = float(np.mean(-a + m + np.log(denom)))
    ctx = ("paper_literal", h, h_hat, u, v, nu, nv, tau, s, e, denom)
    return loss, ctx


def _cosine_rows_backward(g_unit, unit, norms):
    # gradient through row-wise normalization x -> x/|x|
    dots = np.sum(g_unit * unit, axis=1, keepdims=True)
    return (g_unit - dots * unit) / norms


def nt_xent_backward(ctx):
    form = ctx[0]
    if form == "simclr":
        _, h, h_hat, u, v, nu, nv, tau, masked, lse, pos = ctx
        b = h.shape[0]
        p = np.exp(masked - lse[:, None])
        g_sims = p.copy()
        g_sims[np.arange(2 * b), pos] -= 1.0
        g_sims /= 2 * b
        z = np.vstack([u, v])
        gz = (g_sims @ z + g_sims.T @ z) / tau
        gh = _cosine_rows_backward(gz[:b], u, nu)
        gh_hat = _cosine_rows_backward(gz[b:], v, nv)
        return gh, gh_hat
    _, h, h_hat, u, v, nu, nv, tau, s, e, denom = ctx
    b = h.shape[0]
    inv = 1.0 / denom
    ds = (-1.0 + e * (inv.sum() - inv)) / (b * tau)
    gu = ds[:, None] * (v - s[:, None] * u)
    gv = ds[:, None] * (u - s[:, None] * v)
    gh = gu / nu
    gh_hat = gv / nv
    return gh, gh_hat


def bce_loss(p, y):
    """Mean binary cross-entropy (natural log); probabilities clipped to
    [1e-7, 1 - 1e-7] before the logs."""
    p = tn.as_matrix(np.atleast_2d(p), "probabilities")
    y = tn.as_matrix(np.atleast_2d(y), "targets")
    if p.shape != y.shape:
        raise ValueError(f"bce shape mismatch: {p.shape} vs {y.shape}")
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    loss = float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))
    return loss, (p, pc, y)


def bce_backward(ctx):
    p, pc, y = ctx
    grad = (-(y / pc) + (1.0 - y) / (1.0 - pc)) / p.size
    grad[(p < BCE_CLAMP) | (p > 1.0 - BCE_CLAMP)] = 0.0
    return grad


def total_loss(l_c, l_clr, lambda_clr):
    if not (np.isfinite(l_c) and np.isfinite(l_clr)):
        raise ValueError("non-finite loss component")
    return l_c + lambda_clr * l_clr


# -- the assembled model ---------------------------------------------


class HillModel:
    def __init__(self, config: HillConfig, vocab_size, num_labels, tree: CodingTree, rng=None):
        if tree.height != config.K:
            raise ValueError(f"tree height {tree.height} != configured K {config.K}")
        if rng is None:
            rng = np.random.default_rng(config.seed)
        self.config = config
        self.num_labels = num_labels
        self.d_t = config.K * config.d_V
        self.encoder = BagOfWordsEncoder(vocab_size, config.d_B, rng)
        self.label_proj = LabelProjector(num_labels, config.d_B, config.d_V, rng)
        self.structure = StructureEncoder(tree, config.d_V, config.eta, rng)
        if self.structure.num_leaves != num_labels:
            raise ValueError(
                f"coding tree has {self.structure.num_leaves} leaves but |Y| is {num_labels}"
            )
        self.proj_text = MlpProjector(config.d_B, config.d_B, rng, "proj_text")
        self.proj_tree = MlpProjector(self.d_t, config.d_B, rng, "proj_tree")
        self.classifier = tn.LinearLayer(
            config.d_B + self.d_t, num_labels, rng, name="classifier"
        )

    # parameter groups

    def encoder_params(self):
        return self.encoder.params()

    def structure_params(self):
        return (
            self.label_proj.params()
            + self.structure.params()
            + self.proj_text.params()
            + self.proj_tree.params()
            + self.classifier.params()
        )

    def parameters(self):
        return self.encoder_params() + self.structure_params()

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    # forward / backward

    def classify(self, h_d, h_t):
        x = tn.concat_cols(np.atleast_2d(h_d), np.atleast_2d(h_t))
        logits, _ = self.classifier.forward(x)
        return tn.sigmoid(logits)

    def forward_batch(self, counts, y01):
        lam = self.config.lambda_clr
        if lam > 0 and counts.shape[0] < 2:
            raise ValueError("contrastive training needs batch size >= 2")
        h, ctx_enc = self.encoder.encode_counts(counts)
        x0, ctx_lp = self.label_proj.forward_batch(h)
        ht, ctx_s = self.structure.forward_batch(x0)
        x = tn.concat_cols(h, ht)
        logits, ctx_cls = self.classifier.forward(x)
        p = tn.sigmoid(logits)
        l_c, ctx_bce = bce_loss(p, y01)
        if lam > 0:
            hp, ctx_pt = self.proj_text.forward(h)
            tp, ctx_pp = self.proj_tree.forward(ht)
            l_clr, ctx_nt = nt_xent(hp, tp, self.config.tau, self.config.ntxent_form)
        else:
            l_clr, ctx_pt, ctx_pp, ctx_nt = 0.0, None, None, None
        loss = total_loss(l_c, l_clr, lam)
        ctx = (p, ctx_bce, ctx_cls, ctx_enc, ctx_lp, ctx_s, ctx_pt, ctx_pp, ctx_nt)
        return loss, {"loss": loss, "bce": l_c, "ntxent": l_clr, "probs": p}, ctx

    def backward(self, ctx):
        p, ctx_bce, ctx_cls, ctx_enc, ctx_lp, ctx_s, ctx_pt, ctx_pp, ctx_nt = ctx
        lam = self.config.lambda_clr
        g_logits = tn.sigmoid_backward(bce_backward(ctx_bce), p)
        gx = self.classifier.backward(g_logits, ctx_cls)
        gh, ght = tn.concat_cols_backward(gx, self.config.d_B)
        gh, ght = gh.copy(), ght.copy()
        if ctx_nt is not None:
            ghp, gtp = nt_xent_backward(ctx_nt)
            gh += self.proj_text.backward(lam * ghp, ctx_pt)
            ght += self.proj_tree.backward(lam * gtp, ctx_pp)
        gx0 = self.structure.backward(ght, ctx_s)
        gh += self.label_proj.backward(gx0, ctx_lp)
        self.encoder.backward(gh, ctx_enc)

    def predict_probs(self, counts):
        h, _ = self.encoder.encode_counts(counts)
        x0, _ = self.label_proj.forward_batch(h)
        ht, _ = self.structure.forward_batch(x0)
        logits, _ = self.classifier.forward(tn.concat_cols(h, ht))
        return tn.sigmoid(logits)

    def predict_labels(self, counts):
        probs = self.predict_probs(counts)
        return [set(np.nonzero(row > 0.5)[0].tolist()) for row in probs]


def train(model: HillModel, train_examples, dev_examples, config: HillConfig, report_path=None):
    """Minibatch training with Adam; per-epoch loss and dev Micro/Macro-F1.

    Encoder parameters step at lr_encoder, everything else at
    lr_structure. Deterministic under config.seed.
    """
    if not train_examples:
        raise ValueError("empty training set")
    vocab = model.encoder.vocab_size
    c_train = count_matrix(train_examples, vocab)
    y_train = label_matrix(train_examples, model.num_labels)
    c_dev = count_matrix(dev_examples, vocab)
    gold_dev = [set(ex.labels) for ex in dev_examples]
    opt_enc = tn.Adam(model.encoder_params(), config.lr_encoder)
    opt_struct = tn.Adam(model.structure_params(), config.lr_structure)
    rng = np.random.default_rng(config.seed)
    n = len(train_examples)
    report = []
    out = open(report_path, "w", encoding="utf-8") if report_path else None
    try:
        for epoch in range(1, config.epochs + 1):
            perm = rng.permutation(n)
            batches = [perm[i : i + config.batch_size] for i in range(0, n, config.batch_size)]
            if config.lambda_clr > 0 and len(batches) > 1 and len(batches[-1]) == 1:
                batches[-2] = np.concatenate([batches[-2], batches[-1]])
                batches.pop()
            total = 0.0
            for idx in batches:
                model.zero_grad()
                loss, _, ctx = model.forward_batch(c_train[idx], y_train[idx])
                model.backward(ctx)
                opt_enc.step()
                opt_struct.step()
                total += loss * len(idx)
            row = {"epoch": epoch, "train_loss": total / n}
            if dev_examples:
                preds = model.predict_labels(c_dev)
                row["dev_micro_f1"] = micro_f1(preds, gold_dev)
                row["dev_macro_f1"] = macro_f1(preds, gold_dev, model.num_labels)
            report.append(row)
            if out:
                out.write(json.dumps(row, sort_keys=True) + "\n")
                out.flush()
    finally:
        if out:
            out.close()
    return report
