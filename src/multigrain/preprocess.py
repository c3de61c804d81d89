"""Corpus fragmentation: raw examples -> bounded-length training instances.

Deterministic pipeline: wordpiece tokenization, rule-based sentence
segmentation, per-kind markup tokens, sliding-window fragmentation and
answer-type tagging. Everything is a pure function of (example, vocab,
config, seed) so instance files are byte-identical across runs.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Optional

import numpy as np

from .config import bounded, check_fields

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
MARKUP_KINDS = ("paragraph", "table", "list")
MARKUP_CAP = 49  # [Paragraph=N] ids saturate at N=49 to bound the vocab

_WORD_RE = re.compile(r"\w+|[^\w\s]")
_BREAK_RE = re.compile(r"[.?!]\s+")  # a sentence may end here; see segment_sentences


class AnswerType(IntEnum):
    NO_ANSWER = 0  # 0 is load-bearing: inference treats type 0 as null
    YES = 1
    NO = 2
    LONG = 3
    SHORT = 4


def markup_token(kind: str, n: int) -> str:
    if kind not in MARKUP_KINDS:
        raise ValueError(f"unknown candidate kind {kind!r}")
    return f"[{kind.capitalize()}={min(n, MARKUP_CAP)}]"


class Vocab:
    """Wordpiece vocabulary; one piece per line, line number == id."""

    def __init__(self, tokens: list[str]):
        self.tokens = list(tokens)
        self.token2id = {}
        for i, tok in enumerate(self.tokens):
            if tok in self.token2id:
                raise ValueError(f"duplicate vocab entry {tok!r}")
            self.token2id[tok] = i
        for special in (PAD, UNK, CLS, SEP):
            if special not in self.token2id:
                raise ValueError(f"vocab is missing special token {special}")
        self.unk_id = self.token2id[UNK]
        self.cls_id = self.token2id[CLS]
        self.sep_id = self.token2id[SEP]

    def __len__(self):
        return len(self.tokens)

    def markup_id(self, kind: str, n: int) -> int:
        return self.token2id[markup_token(kind, n)]

    @classmethod
    def build(cls, words: Iterable[str]) -> "Vocab":
        """Standard layout: specials, markup range, then content pieces."""
        tokens = [PAD, UNK, CLS, SEP]
        for kind in MARKUP_KINDS:
            tokens.extend(markup_token(kind, n) for n in range(MARKUP_CAP + 1))
        seen = set(tokens)
        for w in words:
            if w not in seen:
                seen.add(w)
                tokens.append(w)
        return cls(tokens)

    def save(self, path):
        with whole_file(path) as fh:
            for tok in self.tokens:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        with open(path, encoding="utf-8") as fh:
            return cls([line.rstrip("\n") for line in fh if line.rstrip("\n")])


# ------------------------------------------------------------ tokenization


def wordpiece_with_offsets(text: str, vocab: Vocab) -> tuple[list[int], list[tuple[int, int]]]:
    """Greedy longest-prefix wordpiece over lowercased words.

    Returns ids and per-piece character offsets into `text`. A word with
    no matching prefix becomes a single [UNK] covering the whole word.
    Lowercasing can lengthen a character ("İ" becomes "i̇"), so a piece's
    offsets are mapped back to the characters of `text` it came from; a
    piece that splits one such character shares it with its neighbour.
    """
    ids: list[int] = []
    offsets: list[tuple[int, int]] = []
    for m in _WORD_RE.finditer(text):
        word = m.group().lower()
        base = m.start()
        # owner[i]: the character of the word that lowercased index i came from
        owner = (
            range(len(word))
            if len(word) == len(m.group())
            else [j for j, ch in enumerate(m.group()) for _ in ch.lower()]
        )
        pieces: list[tuple[int, int, int]] = []
        start = 0
        ok = True
        while start < len(word):
            end = len(word)
            piece_id = None
            while start < end:
                sub = word[start:end]
                if start > 0:
                    sub = "##" + sub
                if sub in vocab.token2id:
                    piece_id = vocab.token2id[sub]
                    break
                end -= 1
            if piece_id is None:
                ok = False
                break
            pieces.append((piece_id, base + owner[start], base + owner[end - 1] + 1))
            start = end
        if ok:
            for pid, a, b in pieces:
                ids.append(pid)
                offsets.append((a, b))
        else:
            ids.append(vocab.unk_id)
            offsets.append((m.start(), m.end()))
    return ids, offsets


def segment_sentences(text: str) -> list[tuple[int, int]]:
    """Rule-based boundaries: '.', '?' or '!' followed by whitespace and an
    uppercase letter, or end of text. Returns a partition of [0, len)."""
    if not text:
        return []
    bounds = [m.start() + 1 for m in _BREAK_RE.finditer(text)
              if m.end() < len(text) and text[m.end()].isupper()]
    return list(zip([0, *bounds], [*bounds, len(text)]))


def _byte_to_char(text: str, byte_off: int) -> int:
    """Translate a UTF-8 byte offset into a character offset."""
    if text.isascii():
        return byte_off
    raw = text.encode("utf-8")
    return len(raw[:byte_off].decode("utf-8", errors="ignore"))


# ---------------------------------------------------------------- raw data


@dataclass
class CandidateBlock:
    kind: str  # paragraph | table | list
    text: str
    sentences: Optional[list[str]] = None


@dataclass
class Annotations:
    long_index: Optional[int] = None
    short_spans: Optional[list[tuple[int, int]]] = None  # byte offsets in the
    # annotated candidate's text
    yes_no: Optional[str] = None  # "yes" | "no"


@dataclass
class RawExample:
    example_id: str
    question: str
    blocks: list[CandidateBlock]
    annotations: Annotations = field(default_factory=Annotations)

    def to_json(self) -> dict:
        return {
            "example_id": self.example_id,
            "question": self.question,
            "paragraphs": [
                {"kind": b.kind, "text": b.text, "sentences": b.sentences}
                for b in self.blocks
            ],
            "annotations": {
                "long_index": self.annotations.long_index,
                "short_spans": self.annotations.short_spans,
                "yes_no": self.annotations.yes_no,
            },
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RawExample":
        ann = obj.get("annotations") or {}
        spans = ann.get("short_spans")
        return cls(
            example_id=obj["example_id"],
            question=obj["question"],
            blocks=[
                CandidateBlock(p["kind"], p["text"], p.get("sentences"))
                for p in obj["paragraphs"]
            ],
            annotations=Annotations(
                long_index=ann.get("long_index"),
                short_spans=[tuple(s) for s in spans] if spans else None,
                yes_no=ann.get("yes_no"),
            ),
        )


# ------------------------------------------------------- tokenized document


@dataclass
class TokenizedDocument:
    """Decorated token stream: markup token + content per candidate."""

    token_ids: np.ndarray          # [n] int
    sent_id: np.ndarray            # [n] global sentence index (0-based)
    char_spans: list[tuple[int, int]]  # candidate-local char offsets; markup (-1, -1)
    cand_token_spans: list[tuple[int, int]]  # [start, end) in doc tokens
    n_sentences: int

    def __len__(self):
        return len(self.token_ids)


def _sentence_starts(block: CandidateBlock) -> list[int]:
    """The character offset of each sentence of the block, in order."""
    if not block.sentences:
        return [a for a, _ in segment_sentences(block.text)]
    starts = []
    pos = 0
    for s in block.sentences:
        start = block.text.find(s, pos)
        if start < 0:
            raise ValueError("candidate sentence text not found in block text")
        starts.append(start)
        pos = start + len(s)
    return starts


def insert_markup_tokens(blocks: list[CandidateBlock], vocab: Vocab) -> TokenizedDocument:
    """Tokenize candidates in order, prefixing each with its markup token.

    The markup token belongs to the candidate span and to the candidate's
    first sentence. A content token belongs to the last sentence that
    starts at or before it, or to the first sentence if none does, so
    text outside the given sentences joins the sentence before it.
    """
    kind_counters = {k: 0 for k in MARKUP_KINDS}
    token_ids: list[int] = []
    sent_id: list[int] = []
    char_spans: list[tuple[int, int]] = []
    cand_token_spans: list[tuple[int, int]] = []
    next_sentence = 0
    for block in blocks:
        if block.kind not in MARKUP_KINDS:
            raise ValueError(f"unknown candidate kind {block.kind!r}")
        n = kind_counters[block.kind]
        kind_counters[block.kind] += 1
        start = len(token_ids)
        token_ids.append(vocab.markup_id(block.kind, n))
        char_spans.append((-1, -1))
        sent_id.append(next_sentence)

        ids, offs = wordpiece_with_offsets(block.text, vocab)
        starts = _sentence_starts(block)
        si = 0  # token offsets only grow, so one walk over the starts serves
        for tid, (a, b) in zip(ids, offs):
            while si + 1 < len(starts) and starts[si + 1] <= a:
                si += 1
            token_ids.append(tid)
            char_spans.append((a, b))
            sent_id.append(next_sentence + si)
        next_sentence += max(1, len(starts))
        cand_token_spans.append((start, len(token_ids)))
    return TokenizedDocument(
        token_ids=np.asarray(token_ids, dtype=np.int64),
        sent_id=np.asarray(sent_id, dtype=np.int64),
        char_spans=char_spans,
        cand_token_spans=cand_token_spans,
        n_sentences=next_sentence,
    )


# ------------------------------------------------------------ fragmentation


def fragment_document(
    doc_len: int, question_len: int, max_len: int = 512, stride: int = 128
) -> list[tuple[int, int]]:
    """Sliding windows [k*stride, k*stride + B) over the decorated stream.

    B = max_len - 3 - question_len. The last fragment is the first whose
    window reaches the document end, so every token is covered.
    """
    if stride < 1:
        raise ValueError(f"stride {stride} must be >= 1")
    budget = max_len - 3 - question_len
    if budget < stride:
        # windows advance by the stride, so a budget below it would leave
        # uncovered tokens between consecutive fragments
        raise ValueError(
            f"question length {question_len} leaves a content budget of {budget} "
            f"below the stride {stride}; full document coverage is impossible"
        )
    last = max(0, -(-(doc_len - budget) // stride))  # ceil; 0 when one window holds it all
    return [(k * stride, min(k * stride + budget, doc_len)) for k in range(last + 1)]


# ---------------------------------------------------------------- instances


@dataclass
class TrainingInstance:
    """The six-tuple (c, S, l, s, e, t) plus provenance.

    `tokens` holds one window laid out as [CLS] question [SEP] content
    [SEP], with no padding: every position is a real token and
    `len(tokens)` is the instance length. `sentences` has one entry per
    position; [CLS], the question and both [SEP]s are in sentence 0.
    """

    tokens: np.ndarray            # [n] int ids
    spans: list[tuple[int, int]]  # S: inclusive instance-coordinate spans; spans[0] is [CLS]
    long_target: int              # l: index into spans
    start: int                    # s
    end: int                      # e
    answer_type: AnswerType       # t
    sentences: np.ndarray         # [n] sentence id per position
    example_id: str
    fragment_index: int
    fragment_start: int           # doc-token offset of the window
    question_len: int
    cand_doc_idx: list[int]       # original candidate index per span; -1 for [CLS]

    @property
    def content_start(self) -> int:
        """Position of the first content token, after [CLS] question [SEP]."""
        return self.question_len + 2

    def to_json(self) -> dict:
        return {
            "c": self.tokens.tolist(),
            "S": [list(s) for s in self.spans],
            "l": self.long_target,
            "s": self.start,
            "e": self.end,
            "t": int(self.answer_type),
            "sentences": self.sentences.tolist(),
            "provenance": {
                "example_id": self.example_id,
                "fragment_index": self.fragment_index,
                "fragment_start": self.fragment_start,
                "question_len": self.question_len,
                "cand_doc_idx": self.cand_doc_idx,
            },
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TrainingInstance":
        """Parse one instance line. A line with a "mask" field (padded
        windows, an earlier format) is refused, not converted, and so is
        one with a span in S reversed or outside it, a first span other
        than [CLS]'s (0, 0), a `cand_doc_idx` of another length, an `l`
        outside S, or sentence ids other than 0..k with none skipped."""
        if "mask" in obj:
            raise ValueError("instance has a 'mask' field: padded instances are no longer "
                             "read; run preprocess again")
        n = len(obj["c"])
        if n != len(obj["sentences"]):
            raise ValueError(f"instance has {n} tokens but {len(obj['sentences'])} sentence ids")
        ids = np.unique(obj["sentences"])
        if not np.array_equal(ids, np.arange(len(ids))):
            raise ValueError(f"instance sentences must number 0..k with none skipped, "
                             f"not {len(ids)} ids from {ids[0]} to {ids[-1]}")
        prov = obj["provenance"]
        bad = [(a, b) for a, b in obj["S"] if not 0 <= a <= b < n]
        if bad:
            raise ValueError(f"instance span S {bad[0]} is reversed or outside its {n} tokens")
        if not obj["S"] or tuple(obj["S"][0]) != (0, 0):
            raise ValueError("instance spans S must start with the [CLS] span (0, 0)")
        if len(prov["cand_doc_idx"]) != len(obj["S"]):
            raise ValueError(f"instance has {len(obj['S'])} spans S but "
                             f"{len(prov['cand_doc_idx'])} cand_doc_idx entries")
        if not 0 <= obj["l"] < len(obj["S"]):
            raise ValueError(f"instance long target l {obj['l']} outside its {len(obj['S'])} spans S")
        return cls(
            tokens=np.asarray(obj["c"], dtype=np.int64),
            spans=[tuple(s) for s in obj["S"]],
            long_target=obj["l"],
            start=obj["s"],
            end=obj["e"],
            answer_type=AnswerType(obj["t"]),
            sentences=np.asarray(obj["sentences"], dtype=np.int64),
            example_id=prov["example_id"],
            fragment_index=prov["fragment_index"],
            fragment_start=prov["fragment_start"],
            question_len=prov["question_len"],
            cand_doc_idx=list(prov["cand_doc_idx"]),
        )


def _short_span_tokens(
    doc: TokenizedDocument, cand: int, byte_span: tuple[int, int], text: str
) -> tuple[int, int]:
    """Map a byte span inside candidate text to [first, last] doc tokens."""
    if not 0 <= byte_span[0] < byte_span[1] <= len(text.encode("utf-8")):
        raise ValueError(f"annotation offsets {byte_span} outside candidate text")
    a = _byte_to_char(text, byte_span[0])
    b = _byte_to_char(text, byte_span[1])
    if not (0 <= a < b <= len(text)):
        raise ValueError(f"annotation offsets {byte_span} outside candidate text")
    cs, ce = doc.cand_token_spans[cand]
    toks = [
        i
        for i in range(cs, ce)
        if doc.char_spans[i] != (-1, -1)
        and doc.char_spans[i][0] < b
        and doc.char_spans[i][1] > a
    ]
    if not toks:
        raise ValueError(f"annotation span {byte_span} covers no tokens")
    return toks[0], toks[-1]


def build_instance(
    doc: TokenizedDocument,
    window: tuple[int, int],
    fragment_index: int,
    question_ids: list[int],
    example: RawExample,
    vocab: Vocab,
    max_len: int = 512,
) -> TrainingInstance:
    ws, we = window
    head = [vocab.cls_id, *question_ids, vocab.sep_id]
    base = len(head)  # instance position of the first content token
    seq = head + list(doc.token_ids[ws:we]) + [vocab.sep_id]
    if len(seq) > max_len:
        raise ValueError("fragment does not fit the instance length")

    # Sentence map: [CLS], question and both [SEP]s live in sentence 0
    # (the [CLS] pseudo-sentence); content sentences are renumbered from 1,
    # in order of appearance, since doc.sent_id never decreases.
    sentences = np.zeros(len(seq), dtype=np.int64)
    sentences[base : base + we - ws] = np.unique(doc.sent_id[ws:we], return_inverse=True)[1] + 1

    # Candidate spans clipped to the window; spans are inclusive.
    spans: list[tuple[int, int]] = [(0, 0)]
    cand_doc_idx = [-1]
    s_index_of_cand = {}
    for ci, (cs, ce) in enumerate(doc.cand_token_spans):
        lo, hi = max(cs, ws), min(ce, we)
        if lo < hi:
            s_index_of_cand[ci] = len(spans)
            spans.append((base + lo - ws, base + hi - 1 - ws))
            cand_doc_idx.append(ci)

    ann = example.annotations
    t = AnswerType.NO_ANSWER
    s = e = 0
    l = 0
    gold = ann.long_index
    long_inside = False
    if gold is not None:
        if not 0 <= gold < len(doc.cand_token_spans):
            raise ValueError(f"annotated long index {gold} outside document")
        gs, ge = doc.cand_token_spans[gold]
        long_inside = ws <= gs and ge <= we

    if gold is not None and ann.short_spans:
        text = example.blocks[gold].text
        tok_spans = [_short_span_tokens(doc, gold, sp, text) for sp in ann.short_spans]
        if all(ws <= a and b < we for a, b in tok_spans):
            t = AnswerType.SHORT
            s = base + tok_spans[0][0] - ws
            e = base + tok_spans[-1][1] - ws
            l = s_index_of_cand[gold]
    if t == AnswerType.NO_ANSWER and gold is not None and long_inside:
        if ann.yes_no == "yes":
            t = AnswerType.YES
        elif ann.yes_no == "no":
            t = AnswerType.NO
        else:
            t = AnswerType.LONG
        l = s_index_of_cand[gold]

    return TrainingInstance(
        tokens=np.asarray(seq, dtype=np.int64),
        spans=spans,
        long_target=l,
        start=s,
        end=e,
        answer_type=t,
        sentences=sentences,
        example_id=example.example_id,
        fragment_index=fragment_index,
        fragment_start=ws,
        question_len=len(question_ids),
        cand_doc_idx=cand_doc_idx,
    )


@dataclass
class PreprocessConfig:
    max_len: int = bounded(512, 1)
    stride: int = bounded(128, 1)
    keep_prob: float = bounded(0.03, 0, 1)  # null-instance keep probability (~97% downsampled)
    seed: int = bounded(0, 0)

    def __post_init__(self):
        check_fields(self)
        if self.stride > self.max_len - 3:  # max_len - 3: the most content a window holds
            raise ValueError(f"stride {self.stride} exceeds max_len {self.max_len} - 3")


def preprocess_example(
    example: RawExample, vocab: Vocab, cfg: PreprocessConfig
) -> list[TrainingInstance]:
    doc = insert_markup_tokens(example.blocks, vocab)
    question_ids = wordpiece_with_offsets(example.question, vocab)[0]
    windows = fragment_document(len(doc), len(question_ids), cfg.max_len, cfg.stride)
    return [
        build_instance(doc, w, k, question_ids, example, vocab, cfg.max_len)
        for k, w in enumerate(windows)
    ]


def _example_rng(seed: int, example_id: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(example_id.encode("utf-8"))])


def downsample_null(
    instances: list[TrainingInstance], keep_prob: float, seed: int
) -> list[TrainingInstance]:
    """Drop no-answer instances with probability 1 - keep_prob.

    The decision stream is per example, so processing order across
    examples does not change the output.
    """
    rngs: dict[str, np.random.Generator] = {}
    kept = []
    for inst in instances:
        if inst.answer_type != AnswerType.NO_ANSWER:
            kept.append(inst)
            continue
        rng = rngs.setdefault(inst.example_id, _example_rng(seed, inst.example_id))
        if rng.random() < keep_prob:
            kept.append(inst)
    return kept


def preprocess_examples(
    examples: Iterable[RawExample], vocab: Vocab, cfg: PreprocessConfig
) -> list[TrainingInstance]:
    instances: list[TrainingInstance] = []
    for ex in examples:
        instances.extend(preprocess_example(ex, vocab, cfg))
    return downsample_null(instances, cfg.keep_prob, cfg.seed)


# ------------------------------------------------------------------- JSONL


def read_jsonl(path) -> list[dict]:
    """The objects of a JSONL file; ValueError names the path and line of one that is not JSON."""
    objs = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                objs.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}, line {number}: {exc.msg}") from exc
    return objs


@contextmanager
def whole_file(path, mode: str = "w"):
    """A file opened beside `path` and renamed over it when the block ends,
    or removed if the block raises: the target is whole or as it was."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_jsonl(path, objs: Iterable[dict]):
    with whole_file(path) as fh:
        for obj in objs:
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def read_raw_examples(path) -> list[RawExample]:
    return [RawExample.from_json(o) for o in read_jsonl(path)]


def write_raw_examples(path, examples: Iterable[RawExample]):
    write_jsonl(path, (e.to_json() for e in examples))


def read_instances(path) -> list[TrainingInstance]:
    return [TrainingInstance.from_json(o) for o in read_jsonl(path)]


def write_instances(path, instances: Iterable[TrainingInstance]):
    write_jsonl(path, (i.to_json() for i in instances))


def detokenize(ids: Iterable[int], vocab: Vocab) -> str:
    """Join wordpieces back into whitespace-normalized text."""
    words: list[str] = []
    for i in ids:
        tok = vocab.tokens[int(i)]
        if tok.startswith("##") and words:
            words[-1] += tok[2:]
        else:
            words.append(tok)
    return " ".join(words)
