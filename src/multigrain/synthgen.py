"""Deterministic synthetic corpus with planted two-grained answers.

Each answerable document embeds a unique key word mentioned by the
question. The paragraph holding the key is the gold long answer; the
entity pair after the "answeris" marker is the gold short span. Yes/no
documents plant a polarity sentence instead; null documents never
contain the question's key. Distractor paragraphs reuse the filler
vocabulary only, so gold answers are unambiguous by exact string match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import bounded, check_fields
from .evaluate import GoldLabel
from .preprocess import Annotations, CandidateBlock, RawExample, Vocab


@dataclass
class CorpusSpec:
    seed: int = bounded(0, 0)
    n_docs: int = bounded(64, 0)
    par_min: int = bounded(2, 1)
    par_max: int = bounded(4, 1)
    sent_min: int = bounded(2, 1)
    sent_max: int = bounded(3, 1)
    tok_min: int = bounded(5, 1)
    tok_max: int = bounded(8, 1)
    answerable_frac: float = bounded(0.4, 0, 1)
    yesno_frac: float = bounded(0.1, 0, 1)
    filler_vocab: int = bounded(48, 1)
    n_keys: int = bounded(16, 1)
    n_entities: int = bounded(16, 2)  # a short answer is two distinct entities
    table_list_prob: float = bounded(0.1, 0, 1)  # chance a distractor block is a table/list stub

    def __post_init__(self):
        check_fields(self)
        for lo, hi in (("par_min", "par_max"), ("sent_min", "sent_max"), ("tok_min", "tok_max")):
            if getattr(self, lo) > getattr(self, hi):
                raise ValueError(f"{lo} {getattr(self, lo)} exceeds {hi} {getattr(self, hi)}")
        if self.answerable_frac + self.yesno_frac > 1:
            raise ValueError(f"answerable_frac {self.answerable_frac} + yesno_frac {self.yesno_frac} > 1")


FUNCTION_WORDS = ["find", "confirm", "answeris", "stop", "yesword", "noword", "."]


def word_pools(spec: CorpusSpec) -> dict[str, list[str]]:
    return {
        "filler": [f"w{i:03d}" for i in range(spec.filler_vocab)],
        "key": [f"key{i}" for i in range(spec.n_keys)],
        "entity": [f"ent{i}" for i in range(spec.n_entities)],
    }


def build_vocab(spec: CorpusSpec) -> Vocab:
    pools = word_pools(spec)
    return Vocab.build(FUNCTION_WORDS + pools["filler"] + pools["key"] + pools["entity"])


def _doc_labels(spec: CorpusSpec) -> list[str]:
    n_short = round(spec.answerable_frac * spec.n_docs)
    n_yn = round(spec.yesno_frac * spec.n_docs)
    labels = ["short"] * n_short + ["yesno"] * n_yn
    labels += ["null"] * (spec.n_docs - len(labels))
    rng = np.random.default_rng([spec.seed, 999])
    return [labels[i] for i in rng.permutation(len(labels))]


def _filler_sentence(rng, fillers, spec) -> str:
    n = int(rng.integers(spec.tok_min, spec.tok_max + 1))
    words = rng.integers(0, len(fillers), size=n)  # rng.choice(fillers, size=n)'s draws
    return " ".join([fillers[i] for i in words]) + " ."


def generate_corpus(spec: CorpusSpec) -> tuple[list[RawExample], list[GoldLabel]]:
    pools = word_pools(spec)
    labels = _doc_labels(spec)
    examples: list[RawExample] = []
    golds: list[GoldLabel] = []
    for d in range(spec.n_docs):
        rng = np.random.default_rng([spec.seed, d])
        label = labels[d]
        key = pools["key"][int(rng.integers(len(pools["key"])))]
        n_par = int(rng.integers(spec.par_min, spec.par_max + 1))
        blocks: list[CandidateBlock] = []
        for _ in range(n_par):
            n_sent = int(rng.integers(spec.sent_min, spec.sent_max + 1))
            sents = [_filler_sentence(rng, pools["filler"], spec) for _ in range(n_sent)]
            kind = "paragraph"
            if rng.random() < spec.table_list_prob:
                kind = "table" if rng.random() < 0.5 else "list"
            blocks.append(CandidateBlock(kind, " ".join(sents), sents))

        example_id = f"doc{spec.seed}-{d:04d}"
        ann = Annotations()
        gold = GoldLabel(example_id)
        if label == "short":
            question = f"find {key}"
            gp = int(rng.integers(n_par))
            ea, eb = rng.choice(pools["entity"], size=2, replace=False)
            planted = f"{key} answeris {ea} {eb} stop ."
            _plant(blocks[gp], rng, planted)
            off = blocks[gp].text.index(f"{ea} {eb}")
            ann = Annotations(long_index=gp, short_spans=[(off, off + len(f"{ea} {eb}"))])
            gold = GoldLabel(example_id, long_index=gp, short=f"{ea} {eb}")
        elif label == "yesno":
            question = f"confirm {key}"
            gp = int(rng.integers(n_par))
            verdict = "yes" if rng.random() < 0.5 else "no"
            planted = f"{key} answeris {'yesword' if verdict == 'yes' else 'noword'} ."
            _plant(blocks[gp], rng, planted)
            ann = Annotations(long_index=gp, yes_no=verdict)
            gold = GoldLabel(example_id, long_index=gp, short=verdict)
        else:
            question = f"find {key}"  # the key is planted nowhere
        examples.append(RawExample(example_id, question, blocks, ann))
        golds.append(gold)
    return examples, golds


def _plant(block: CandidateBlock, rng, sentence: str):
    """Replace one sentence of the block with the planted sentence."""
    idx = int(rng.integers(len(block.sentences)))
    block.sentences[idx] = sentence
    block.text = " ".join(block.sentences)
