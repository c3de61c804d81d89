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

from .evaluate import GoldLabel
from .preprocess import Annotations, CandidateBlock, RawExample, Vocab


@dataclass
class CorpusSpec:
    seed: int = 0
    n_docs: int = 64
    par_min: int = 2
    par_max: int = 4
    sent_min: int = 2
    sent_max: int = 3
    tok_min: int = 5
    tok_max: int = 8
    answerable_frac: float = 0.4
    yesno_frac: float = 0.1
    filler_vocab: int = 48
    n_keys: int = 16
    n_entities: int = 16
    table_list_prob: float = 0.1  # chance a distractor block is a table/list stub

    def __post_init__(self):
        for lo, hi, what in (
            (self.par_min, self.par_max, "paragraphs"),
            (self.sent_min, self.sent_max, "sentences"),
            (self.tok_min, self.tok_max, "tokens"),
        ):
            if not 1 <= lo <= hi:
                raise ValueError(f"empty {what} range ({lo}, {hi})")
        if not (0 <= self.answerable_frac <= 1 and 0 <= self.yesno_frac <= 1):
            raise ValueError("fractions must lie in [0, 1]")
        if self.answerable_frac + self.yesno_frac > 1:
            raise ValueError("answerable + yes/no fractions exceed 1")


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
