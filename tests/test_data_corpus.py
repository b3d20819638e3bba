"""The synthetic corpora of one fixed set of calls, pinned by digest.

Each family is one SHA-256 over the bytes `save_dataset` writes for its
corpora, in order:

- default-train and default-dev: the two corpora of
  `experiments.default_dataset()`, which are the `train.jsonl` and
  `dev.jsonl` that `hill gen-data` writes with no flags;
- small-vocab: `gen_corpus` at vocabularies 1, 3 and 7, where noise
  tokens collide with label tokens, on two hierarchies and two seeds.

A change that is meant to alter the corpora edits the digest its failure
prints and says so in CHANGES.md."""

import hashlib

import pytest

from hill import experiments
from hill.datagen import gen_corpus, gen_hierarchy, save_dataset


def default_corpus(part):
    return lambda: [experiments.default_dataset()[part]]


def small_vocab_corpora():
    for vocab in (1, 3, 7):
        for depth, branching in ((2, 2), (3, 3)):
            for seed in (0, 1):
                yield gen_corpus(gen_hierarchy(depth, branching), 40, vocab, seed)


FAMILIES = {  # family: (corpora, pinned SHA-256)
    "default-train": (default_corpus(1), "791d2410a42c84d1a14474826605443b37759beeddcfd21dcffff58fcc5c2d7b"),
    "default-dev": (default_corpus(2), "c0a478ecde135a46b880ef7666c007e51d023864343cf644603158f951b4cc57"),
    "small-vocab": (small_vocab_corpora, "9c414d008f318a9fc8d4dae6e8c8df899d43aa3b677bb90857cad0d8004b78df"),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_corpus_is_pinned(family, tmp_path):
    corpora, digest = FAMILIES[family]
    sha, path = hashlib.sha256(), tmp_path / "corpus.jsonl"
    for docs in corpora():
        save_dataset(docs, path)
        sha.update(path.read_bytes())
    assert sha.hexdigest() == digest, f"{family} corpora changed: digest now {sha.hexdigest()}"
