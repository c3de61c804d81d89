"""Synthetic corpus generator: determinism, label split, gold consistency."""

import dataclasses
import json

import numpy as np
import pytest

from multigrain.evaluate import normalize_text
from multigrain.preprocess import wordpiece_with_offsets
from multigrain import synthgen
from multigrain.synthgen import CorpusSpec, build_vocab, generate_corpus


def corpus_bytes(spec):
    examples, golds = generate_corpus(spec)
    return json.dumps(
        [e.to_json() for e in examples] + [g.to_json() for g in golds]
    ).encode()


def test_same_spec_byte_identical():
    spec = CorpusSpec(seed=5, n_docs=12)
    assert corpus_bytes(spec) == corpus_bytes(CorpusSpec(seed=5, n_docs=12))


def test_different_seed_differs():
    assert corpus_bytes(CorpusSpec(seed=1, n_docs=12)) != corpus_bytes(
        CorpusSpec(seed=2, n_docs=12)
    )


def test_zero_answerable_all_null():
    spec = CorpusSpec(seed=0, n_docs=10, answerable_frac=0.0, yesno_frac=0.0)
    examples, golds = generate_corpus(spec)
    assert all(g.long_index is None and g.short is None for g in golds)
    assert all(e.annotations.long_index is None for e in examples)


def test_half_answerable_exact_split():
    spec = CorpusSpec(seed=3, n_docs=64, answerable_frac=0.5, yesno_frac=0.0)
    _, golds = generate_corpus(spec)
    assert sum(g.long_index is not None for g in golds) == 32


def test_yesno_fraction_counts():
    spec = CorpusSpec(seed=3, n_docs=40, answerable_frac=0.4, yesno_frac=0.1)
    _, golds = generate_corpus(spec)
    yn = sum(g.short in ("yes", "no") for g in golds)
    spans = sum(g.short is not None and g.short not in ("yes", "no") for g in golds)
    assert yn == 4 and spans == 16


def test_gold_annotations_consistent():
    spec = CorpusSpec(seed=9, n_docs=30)
    examples, golds = generate_corpus(spec)
    for ex, g in zip(examples, golds):
        assert ex.example_id == g.example_id
        ann = ex.annotations
        assert ann.long_index == g.long_index
        if g.short in ("yes", "no"):
            assert ann.yes_no == g.short
        elif g.short is not None:
            (a, b), = ann.short_spans
            text = ex.blocks[ann.long_index].text
            assert normalize_text(text.encode()[a:b].decode()) == normalize_text(g.short)


def test_null_docs_never_contain_question_key():
    spec = CorpusSpec(seed=4, n_docs=30)
    examples, golds = generate_corpus(spec)
    for ex, g in zip(examples, golds):
        if g.long_index is None:
            key = ex.question.split()[-1]
            assert all(key not in b.text.split() for b in ex.blocks)


def test_answerable_docs_contain_key_once():
    spec = CorpusSpec(seed=4, n_docs=30)
    examples, golds = generate_corpus(spec)
    for ex, g in zip(examples, golds):
        if g.long_index is not None:
            key = ex.question.split()[-1]
            hits = [i for i, b in enumerate(ex.blocks) if key in b.text.split()]
            assert hits == [g.long_index]


def test_vocab_covers_corpus():
    spec = CorpusSpec(seed=2, n_docs=20)
    vocab = build_vocab(spec)
    examples, _ = generate_corpus(spec)
    unk = vocab.lookup["[UNK]"] if hasattr(vocab, "lookup") else None
    for ex in examples:
        for text in [ex.question] + [b.text for b in ex.blocks]:
            ids = wordpiece_with_offsets(text, vocab)[0]
            assert all(vocab.tokens[i] != "[UNK]" for i in ids), text


def test_invalid_fractions_rejected():
    with pytest.raises(ValueError):
        CorpusSpec(answerable_frac=0.8, yesno_frac=0.4)
    with pytest.raises(ValueError):
        CorpusSpec(par_min=3, par_max=2)


@pytest.mark.parametrize("key", ["seed", "filler_vocab", "n_keys", "n_entities", "n_docs"])
def test_count_and_seed_minima_are_the_least_the_generator_takes(key):
    """Each of these fields' declared minimum is the least value with
    which `generate_corpus` runs (8 documents, 3 of them short answers,
    which draw two distinct entities); one below it, put past the check,
    makes the generator itself fail. `n_docs` is a count: -1 and 0 both
    give no documents, and the declaration takes 0."""
    (lo,) = [f.metadata["min"] for f in dataclasses.fields(CorpusSpec) if f.name == key]
    examples, _ = generate_corpus(CorpusSpec(**{"n_docs": 8, key: lo}))
    assert len(examples) == (lo if key == "n_docs" else 8)
    spec = CorpusSpec(n_docs=8)
    setattr(spec, key, lo - 1)
    if key == "n_docs":
        assert generate_corpus(spec) == ([], [])
    else:
        with pytest.raises(ValueError):
            generate_corpus(spec)


def choice_filler_sentence(rng, fillers, spec):
    """The former `_filler_sentence`, which drew the words with rng.choice."""
    n = int(rng.integers(spec.tok_min, spec.tok_max + 1))
    return " ".join(rng.choice(fillers, size=n)) + " ."


@pytest.mark.parametrize("spec", [
    CorpusSpec(seed=0, n_docs=40),
    CorpusSpec(seed=7, n_docs=40, filler_vocab=5, tok_min=1, tok_max=12),
    CorpusSpec(seed=123, n_docs=40, filler_vocab=300, par_max=6, table_list_prob=0.5),
    CorpusSpec(seed=2**40 + 3, n_docs=40, filler_vocab=1, tok_min=3, tok_max=3),
])
def test_filler_words_equal_the_choice_draws(spec, monkeypatch):
    """Filler sentences index the word list with rng.integers, the draws
    rng.choice makes over a list: every corpus is the one the former
    formulation gives."""
    fast = corpus_bytes(spec)
    monkeypatch.setattr(synthgen, "_filler_sentence", choice_filler_sentence)
    assert fast == corpus_bytes(spec)
