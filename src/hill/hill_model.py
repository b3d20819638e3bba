"""The full learning pipeline: bag-of-words text encoder, label
projector, hierarchical representation learning over a coding tree,
contrastive projectors with NT-Xent, sigmoid classifier with BCE, and the
training loop. Every layer works on a batch of documents; a batch of one
is one document. The label projector hands the structure encoder
a1 = S1 x0, the level-1 sums of the leaf features x0[b, y] = scale[y] z[b]
+ bias; x0 has rank one in the label axis, so a1 = (S1 scale) z[b] +
(S1 1) bias comes from z and the (B, |Y|, d_V) tensor x0 is never built.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from itertools import islice
from pathlib import Path

import numpy as np

from . import tensor_nn as tn
from .coding_tree import CodingTree
from .datagen import PackedExamples, check_ids, count_matrix
from .graph import prefix_errors
from .metrics import macro_f1, micro_f1

ETA_MODES = ("sum", "mean")
NTXENT_FORMS = ("simclr", "paper_literal")
BCE_CLAMP = 1e-7
NORM_EPS = 1e-12  # the floor under an NT-Xent view's row norm, as in torch's F.normalize
# accepted Python types per annotated field type; bool is refused everywhere
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        for name, low in (("d_B", 1), ("d_V", 1), ("epochs", 1), ("batch_size", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        # an int past the largest float is refused here, as float() would overflow on it
        for name in ("tau", "lr_encoder", "lr_structure"):
            if not 0 < getattr(self, name) <= sys.float_info.max:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0 <= self.lambda_clr <= sys.float_info.max:
            raise ValueError(f"lambda_clr must be non-negative and finite, got {self.lambda_clr}")
        if self.lambda_clr > 0 and self.batch_size < 2:  # NT-Xent needs in-batch negatives
            raise ValueError(
                f"batch_size must be at least 2 when lambda_clr > 0, got {self.batch_size}"
            )
        if self.eta not in ETA_MODES:
            raise ValueError(f"eta must be one of {ETA_MODES}, got {self.eta!r}")
        if self.ntxent_form not in NTXENT_FORMS:
            raise ValueError(f"ntxent_form must be one of {NTXENT_FORMS}")
        if self.K < 2:
            raise ValueError(f"coding-tree height must be at least 2, got {self.K}")

    @classmethod
    def from_json_file(cls, path, **overrides):
        """Config from a JSON object of field values; `overrides` win.
        Raises ValueError naming `path` on malformed JSON, a non-object,
        an unknown key or an invalid value."""
        with prefix_errors(path):
            with open(path, encoding="utf-8") as fh:
                blob = json.load(fh)
            if not isinstance(blob, dict):
                raise ValueError(f"expected a JSON object, got {type(blob).__name__}")
            unknown = sorted(set(blob) - {f.name for f in fields(cls)})
            if unknown:  # escaped, so a key holding a line break keeps the error on one line
                keys = ", ".join(k.encode("unicode_escape").decode() for k in unknown)
                raise ValueError(f"unknown config key(s) {keys}")
            return cls(**{**blob, **overrides})

    def to_json_file(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)


# -- encoders --------------------------------------------------------


class BagOfWordsEncoder:
    """Token-count lookup-sum followed by one linear+relu layer.

    The lookup-sum has two forms, chosen by whether a backward follows.
    A training step (``train=True``) works on the columns of the tokens
    the batch holds, ``u`` (about 290 of 2048 at the defaults): it sums
    ``counts[:, u] @ embedding[u]`` and keeps ``u`` and that column block
    for the backward. Dropping the all-zero columns changes the GEMM's
    summation order, so a sum can differ from the dense product's in its
    last bits, and the trained parameters with it. Prediction keeps the dense ``counts @ embedding`` bit for
    bit: a 256-document predict batch touches about half the vocabulary,
    where finding and cutting the columns costs more than the GEMM they
    save. Both forms check the full counts and the full embedding.

    The backward adds ``counts[:, u].T @ gsum`` to the embedding's
    gradient only on the rows in ``u``. Each such row is the same
    length-B dot product over the same operands as in the full product
    ``counts.T @ gsum``, and every other row would receive a sum of ±0.0
    terms, which changes no value (nor the sign of the +0.0 that
    zero_grad writes); so the gradient keeps its bits."""

    def __init__(self, vocab_size, d_b, rng):
        self.vocab_size = vocab_size
        self.embedding = tn.Parameter(
            "encoder.embedding", rng.normal(0.0, 0.1, (vocab_size, d_b))
        )
        self.lin = tn.LinearLayer(d_b, d_b, rng, name="encoder.out")

    def encode_counts(self, counts, train=False):
        """(h, ctx); only a ``train=True`` ctx feeds ``backward``."""
        emb = self.embedding.value
        if not train:
            summed = tn.matmul(counts, emb, lhs_name="token counts")
            return tn.relu(self.lin.forward(summed)[0]), None
        counts = tn.as_matrix(counts, "token counts")
        tn.check_finite(emb, self.embedding.name)
        if counts.shape[1] != emb.shape[0]:
            raise ValueError(f"matmul shape mismatch: {counts.shape} x {emb.shape}")
        u = np.flatnonzero(counts.any(axis=0))
        cols = np.take(counts, u, axis=1)
        z, lctx = self.lin.forward(cols @ emb[u])
        return tn.relu(z), (u, cols, z, lctx)

    def backward(self, grad_h, ctx):
        u, cols, z, lctx = ctx
        gz = tn.relu_backward(grad_h, z)
        gsum = self.lin.backward(gz, lctx)
        self.embedding.grad[u] += cols.T @ gsum

    def params(self):
        return [self.embedding] + self.lin.params()


# -- structure branch ------------------------------------------------


class LabelProjector:
    """phi_proj: a learned per-label vector (the |Y| x 1 stage) outer
    h_D, then a d_B x d_V linear map: one d_V row x0[y] per label vertex.
    Returns a1 = S1 x0 as (S1 scale) z + (S1 1) bias, never building x0."""

    def __init__(self, num_labels, d_b, d_v, rng):
        self.scale = tn.Parameter("proj_label.scale", rng.normal(0.0, 1.0, (num_labels, 1)))
        self.lin = tn.LinearLayer(d_b, d_v, rng, name="proj_label.map")

    def forward_batch(self, h, s1):
        z = tn.matmul(h, self.lin.weight.value)  # (B, d_V), bias applied after the outer
        coef = s1 @ self.scale.value  # (n1, 1)
        count = s1.sum(axis=1, keepdims=True)  # (n1, 1): leaves under each level-1 node
        # one outer product, then the (n1, d_V) bias term added in place:
        # the same two roundings per entry as coef * z + count * bias
        a1 = np.einsum("bj,i->bij", z, coef[:, 0])
        a1 += count * self.lin.bias.value
        return a1, (h, z, s1, coef, count)

    def backward(self, grad_a1, ctx):
        h, z, s1, coef, count = ctx
        self.lin.bias.grad += count.T @ grad_a1.sum(axis=0)
        self.scale.grad += s1.T @ (grad_a1 @ z[:, :, None]).sum(axis=0)
        gz = coef[:, 0] @ grad_a1
        self.lin.weight.grad += h.T @ gz
        return gz @ self.lin.weight.value.T

    def params(self):
        return [self.scale] + self.lin.params()


def _mlp_forward(lin1, lin2, x):
    """lin1 -> relu -> lin2 on the rows of x; returns (output, ctx)."""
    z1, c1 = lin1.forward(x)
    z2, c2 = lin2.forward(tn.relu(z1))
    return z2, (z1, c1, c2)


def _mlp_backward(lin1, lin2, grad, ctx):
    z1, c1, c2 = ctx
    gz1 = tn.relu_backward(lin2.backward(grad, c2), z1)
    return lin1.backward(gz1, c1)


class StructureEncoder:
    """Bottom-up child-sum propagation over the coding tree with one
    two-layer perceptron per level, run on the level's (B * n, d_V) node
    rows, and per-level readout concatenation; output dim K * d_V.
    Takes a1 = S1 x0 (S1 = agg[0]) from LabelProjector, starts at the
    level-1 perceptron and returns the gradient wrt a1.

    The tree sets only the shape of this branch: K and the node count of
    each level. Which leaf sits under which level-1 node does not matter.
    Label identity enters only through the per-label LabelProjector.scale,
    which level 1 sees as the sum S1 scale; h_T is one vector per
    document and the classifier has its own weights per label. So
    permuting S1's columns, with scale permuted to match, gives the same
    function, and Adam, being elementwise, takes the same steps."""

    def __init__(self, tree: CodingTree, d_v, eta, rng):
        if eta not in ETA_MODES:
            raise ValueError(f"eta must be one of {ETA_MODES}")
        self.k = tree.height
        self.eta = eta
        # agg[k-1][i, j] = 1 when node j of level k-1 is a child of node i
        # of level k; level 0 is the leaves in graph-vertex order
        below = sorted(tree.leaf_ids(), key=lambda i: min(tree.nodes[i].subset))
        self.agg = []
        for k in range(1, self.k + 1):
            level = tree.layer(k)
            row = {nid: i for i, nid in enumerate(level)}
            s = np.zeros((len(level), len(below)))
            s[[row[tree.nodes[c].parent] for c in below], np.arange(len(below))] = 1.0
            self.agg.append(s)
            below = level
        self.level_ffns = [
            tuple(tn.LinearLayer(d_v, d_v, rng, name=f"structure.level{k}.lin{i}") for i in (1, 2))
            for k in range(1, self.k + 1)
        ]

    def forward_batch(self, a1):
        x = a1
        level_ctx = []
        readouts = []
        for k, (lin1, lin2) in enumerate(self.level_ffns):
            a = np.matmul(self.agg[k], x) if k else x
            f, fctx = _mlp_forward(lin1, lin2, a.reshape(-1, a.shape[2]))
            f = f.reshape(a.shape)
            readouts.append(f.sum(axis=1) if self.eta == "sum" else f.mean(axis=1))
            level_ctx.append(fctx)
            x = f
        return np.concatenate(readouts, axis=1), level_ctx

    def backward(self, grad_ht, level_ctx):
        grads_r = np.split(grad_ht, self.k, axis=1)
        ga = None
        for k in reversed(range(self.k)):
            n_nodes = self.agg[k].shape[0]
            gr = grads_r[k][:, None, :]
            if self.eta == "mean":
                gr = gr / n_nodes
            # every node of a level gets its readout's gradient
            gf = np.repeat(gr, n_nodes, axis=1) if ga is None else self.agg[k + 1].T @ ga + gr
            rows = _mlp_backward(*self.level_ffns[k], gf.reshape(-1, gf.shape[2]), level_ctx[k])
            ga = rows.reshape(gf.shape)
        return ga

    def params(self):
        return [p for lin1, lin2 in self.level_ffns for p in lin1.params() + lin2.params()]


class MlpProjector:
    """Two-layer relu projector: W2 relu(W1 x + b); no second bias."""

    def __init__(self, in_dim, out_dim, rng, name):
        self.lin1 = tn.LinearLayer(in_dim, out_dim, rng, name=f"{name}.lin1")
        self.lin2 = tn.LinearLayer(out_dim, out_dim, rng, bias=False, name=f"{name}.lin2")

    def forward(self, x):
        return _mlp_forward(self.lin1, self.lin2, x)

    def backward(self, grad, ctx):
        return _mlp_backward(self.lin1, self.lin2, grad, ctx)

    def params(self):
        return self.lin1.params() + self.lin2.params()


# -- losses ----------------------------------------------------------


def _normalize_rows(x):
    """(x / max(|x|, NORM_EPS) row by row, the floored norms), as
    torch's F.normalize: a row above the floor keeps its bits, and a zero
    row stays zero, so its cosine with every row is 0."""
    norms = np.maximum(np.linalg.norm(x, axis=1, keepdims=True), NORM_EPS)
    return x / norms, norms


def _off_diagonal_lse(logits):
    """Per-row log-sum-exp over the off-diagonal entries of a square
    matrix, each row shifted by its max; writes -inf on its diagonal."""
    np.fill_diagonal(logits, -np.inf)
    row_max = logits.max(axis=1, keepdims=True)
    return row_max[:, 0] + np.log(np.exp(logits - row_max).sum(axis=1))


def nt_xent(h, h_hat, tau, form="simclr"):
    """Contrastive loss over cosine similarities of positive pairs
    (h_i, h_hat_i) against in-batch negatives; returns (loss, ctx).
    Both forms are mean_i(log sum_{j != i} exp(l_ij) - l_i+) over the
    off-diagonal entries of a square logit matrix l:
    form="simclr": l = z z^T / tau over z, the 2b unit rows of both
    views, and i+ is row i's other view.
    form="paper_literal": l_ij = s_j / tau over s_j = u_j . v_j, the
    positive similarities only, and l_i+ = s_i / tau (kept for fidelity
    testing).
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
    if not 0 < tau <= sys.float_info.max:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    u, nu = _normalize_rows(h)
    v, nv = _normalize_rows(h_hat)
    if form == "simclr":
        z = np.vstack([u, v])
        sims = (z @ z.T) / tau
        lse = _off_diagonal_lse(sims)  # the positives lie off the diagonal
        pos = np.concatenate([np.arange(b) + b, np.arange(b)])
        loss = float(np.mean(lse - sims[np.arange(2 * b), pos]))
        return loss, ("simclr", z, nu, nv, tau, sims, lse, pos)
    # paper_literal: each row holds every anchor's positive logit
    a = np.sum(u * v, axis=1) / tau
    others = np.tile(a, (b, 1))
    lse = _off_diagonal_lse(others)
    loss = float(np.mean(lse - a))
    return loss, ("paper_literal", u, v, nu, nv, tau, others, lse)


def _cosine_rows_backward(g_unit, unit, norms):
    # gradient through row-wise normalization x -> x/max(|x|, eps); a
    # floored row is x/eps, whose gradient is g/eps
    dots = np.where(norms > NORM_EPS, np.sum(g_unit * unit, axis=1, keepdims=True), 0.0)
    return (g_unit - dots * unit) / norms


def nt_xent_backward(ctx):
    form = ctx[0]
    if form == "simclr":
        _, z, nu, nv, tau, sims, lse, pos = ctx
        b = len(nu)
        g_sims = np.exp(sims - lse[:, None])
        g_sims[np.arange(2 * b), pos] -= 1.0
        g_sims /= 2 * b
        gz = (g_sims @ z + g_sims.T @ z) / tau
        gh = _cosine_rows_backward(gz[:b], z[:b], nu)
        gh_hat = _cosine_rows_backward(gz[b:], z[b:], nv)
        return gh, gh_hat
    _, u, v, nu, nv, tau, others, lse = ctx
    # d loss / d a_k = (-1 + sum over anchors i of softmax_i(k)) / b
    weights = np.exp(others - lse[:, None]).sum(axis=0)
    ds = ((weights - 1.0) / (len(u) * tau))[:, None]
    return _cosine_rows_backward(ds * v, u, nu), _cosine_rows_backward(ds * u, v, nv)


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
    """Gradient of the mean BCE wrt p; zero where the clamp bound p. For
    finite p, clip moves p exactly when p < BCE_CLAMP or p > 1 - BCE_CLAMP
    and returns it unchanged otherwise, so pc != p selects the same
    entries as that two-sided test, in one comparison."""
    p, pc, y = ctx
    grad = (-(y / pc) + (1.0 - y) / (1.0 - pc)) / p.size
    grad[pc != p] = 0.0
    return grad


def total_loss(l_c, l_clr, lambda_clr):
    if not (np.isfinite(l_c) and np.isfinite(l_clr)):
        raise ValueError("non-finite loss component")
    return l_c + lambda_clr * l_clr


# -- the assembled model ---------------------------------------------


class HillModel:
    def __init__(self, config: HillConfig, vocab_size, num_labels, tree: CodingTree):
        tree.validate()  # the structure encoder reads every leaf at depth K
        if tree.height != config.K:
            raise ValueError(f"tree height {tree.height} != configured K {config.K}")
        rng = np.random.default_rng(config.seed)
        self.config = config
        self.num_labels = num_labels
        d_t = config.K * config.d_V
        self.encoder = BagOfWordsEncoder(vocab_size, config.d_B, rng)
        self.label_proj = LabelProjector(num_labels, config.d_B, config.d_V, rng)
        self.structure = StructureEncoder(tree, config.d_V, config.eta, rng)
        leaves = self.structure.agg[0].shape[1]
        if leaves != num_labels:
            raise ValueError(f"coding tree has {leaves} leaves but |Y| is {num_labels}")
        self.proj_text = MlpProjector(config.d_B, config.d_B, rng, "proj_text")
        self.proj_tree = MlpProjector(d_t, config.d_B, rng, "proj_tree")
        self.classifier = tn.LinearLayer(config.d_B + d_t, num_labels, rng, name="classifier")

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

    def _forward(self, counts, train=False):
        """Encoder to sigmoid: (h, ht, probs, ctx_enc, ctx_lp, ctx_s, ctx_cls);
        `train` picks the encoder's form for a step that runs backward."""
        h, ctx_enc = self.encoder.encode_counts(counts, train)
        a1, ctx_lp = self.label_proj.forward_batch(h, self.structure.agg[0])
        ht, ctx_s = self.structure.forward_batch(a1)
        logits, ctx_cls = self.classifier.forward(np.concatenate([h, ht], axis=1))
        return h, ht, tn.sigmoid(logits), ctx_enc, ctx_lp, ctx_s, ctx_cls

    def forward_batch(self, counts, y01):
        lam = self.config.lambda_clr
        h, ht, p, ctx_enc, ctx_lp, ctx_s, ctx_cls = self._forward(counts, train=True)
        l_c, ctx_bce = bce_loss(p, y01)
        if lam > 0:
            hp, ctx_pt = self.proj_text.forward(h)
            tp, ctx_pp = self.proj_tree.forward(ht)
            l_clr, ctx_nt = nt_xent(hp, tp, self.config.tau, self.config.ntxent_form)
        else:
            l_clr, ctx_pt, ctx_pp, ctx_nt = 0.0, None, None, None
        loss = total_loss(l_c, l_clr, lam)
        ctx = (p, ctx_bce, ctx_cls, ctx_enc, ctx_lp, ctx_s, ctx_pt, ctx_pp, ctx_nt)
        return loss, {"bce": l_c, "ntxent": l_clr}, ctx

    def backward(self, ctx):
        p, ctx_bce, ctx_cls, ctx_enc, ctx_lp, ctx_s, ctx_pt, ctx_pp, ctx_nt = ctx
        lam = self.config.lambda_clr
        g_logits = tn.sigmoid_backward(bce_backward(ctx_bce), p)
        gx = self.classifier.backward(g_logits, ctx_cls)
        d_b = self.config.d_B
        gh, ght = gx[:, :d_b], gx[:, d_b:]  # views: gx is not read again
        if ctx_nt is not None:
            ghp, gtp = nt_xent_backward(ctx_nt)
            gh += self.proj_text.backward(lam * ghp, ctx_pt)
            ght += self.proj_tree.backward(lam * gtp, ctx_pp)
        ga1 = self.structure.backward(ght, ctx_s)
        gh += self.label_proj.backward(ga1, ctx_lp)
        self.encoder.backward(gh, ctx_enc)

    def predict_probs(self, counts):
        return self._forward(counts)[2]

    def predict_labels(self, counts):
        probs = self.predict_probs(counts)
        # one nonzero over the flat mask (np.nonzero on a 2-D mask is many
        # times slower); flat indices come in row order, so each row's
        # labels are the next bincount[row] columns
        rows, cols = np.divmod(np.flatnonzero(probs > 0.5), probs.shape[1])
        per_row = np.bincount(rows, minlength=len(probs)).tolist()
        col_iter = iter(cols.tolist())
        return [set(islice(col_iter, n)) for n in per_row]


def refuse_empty_docs(examples, config: HillConfig):
    """ValueError on an empty training set and, with lambda_clr > 0, on
    one example only or on the first example with no tokens (1-based):
    NT-Xent needs a negative, and an example with no tokens has nothing
    to contrast."""
    if not examples:
        raise ValueError("empty training set")
    why = "which contrastive training (lambda_clr > 0) cannot use"
    empty = next((i for i, ex in enumerate(examples, 1) if not ex.tokens), None)
    if config.lambda_clr > 0 and len(examples) == 1:
        raise ValueError(f"one example only, {why}")
    if config.lambda_clr > 0 and empty is not None:
        raise ValueError(f"example {empty} has no tokens, {why}")


def train(model: HillModel, train_examples, dev_examples, config: HillConfig, out=None):
    """Minibatch training with Adam; per-epoch loss and dev Micro/Macro-F1.

    `config` must equal `model.config` in every field but `epochs`, so the
    loss the model computes and the batching here agree on lambda_clr.
    Encoder parameters step at lr_encoder, everything else at
    lr_structure. Deterministic under config.seed. Every id of both lists
    is checked before the first step, the training set's tokens and
    labels first. The training ids are kept from that check as flat
    int64 arrays, and each batch's dense count and label arrays are cut
    from them; dev predictions run in batch_size slices through
    count_matrix. So the only array that grows with the corpus is the
    flat id array, and the dense arrays grow with the batch.

    With `out`, a run directory made only after every check, it writes
    config.json, streams report.jsonl and ends with checkpoint.json.
    """
    ours = asdict(model.config)
    differ = [k for k, v in asdict(config).items() if k != "epochs" and v != ours[k]]
    if differ:
        raise ValueError(f"config differs from model.config in {', '.join(differ)}")
    vocab, num_labels, bs = model.encoder.vocab_size, model.num_labels, config.batch_size
    train_set = PackedExamples(train_examples, vocab, num_labels)
    check_ids(dev_examples, vocab, num_labels)
    refuse_empty_docs(train_examples, config)
    if out is not None:
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        config.to_json_file(out / "config.json")
    gold_dev = [set(ex.labels) for ex in dev_examples]
    opt_enc = tn.Adam(model.encoder_params(), config.lr_encoder)
    opt_struct = tn.Adam(model.structure_params(), config.lr_structure)
    rng = np.random.default_rng(config.seed)
    n = len(train_examples)
    report = []
    with open(out / "report.jsonl", "w", encoding="utf-8") if out else nullcontext() as report_file:
        for epoch in range(1, config.epochs + 1):
            perm = rng.permutation(n)
            batches = [perm[i : i + bs] for i in range(0, n, bs)]
            if config.lambda_clr > 0 and len(batches) > 1 and len(batches[-1]) == 1:
                batches[-2] = np.concatenate([batches[-2], batches[-1]])
                batches.pop()
            total = 0.0
            for idx in batches:
                model.zero_grad()
                loss, _, ctx = model.forward_batch(
                    train_set.count_matrix(idx), train_set.label_matrix(idx)
                )
                model.backward(ctx)
                opt_enc.step()
                opt_struct.step()
                total += loss * len(idx)
            row = {"epoch": epoch, "train_loss": total / n}
            if dev_examples:
                preds = []
                for i in range(0, len(dev_examples), bs):
                    preds += model.predict_labels(count_matrix(dev_examples[i : i + bs], vocab))
                row["dev_micro_f1"] = micro_f1(preds, gold_dev)
                row["dev_macro_f1"] = macro_f1(preds, gold_dev, num_labels)
            report.append(row)
            if report_file:
                report_file.write(json.dumps(row, sort_keys=True) + "\n")
                report_file.flush()
    if out is not None:
        tn.save_checkpoint(model.parameters(), out / "checkpoint.json")
    return report
