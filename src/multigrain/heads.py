"""Output layer: span/candidate/type scoring, the joint loss, and the
pipelined answer selection used at inference time.

Long answers are scored from paragraph-node states, short answers from
token-node states, the answer type from the document node. Inference
subtracts the [CLS] null scores so every score is a margin against
abstention, then picks the long candidate first and searches the short
span inside that candidate only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .docgraph import HierGraph, NodeType
from .preprocess import AnswerType, TrainingInstance, Vocab, detokenize
from .tensor import ContractViolation, Tensor

NEG_INF = float("-inf")


@dataclass
class ScoreSet:
    """Logits from one instance forward pass, one entry per token node
    (span scores; token node i is instance position i), candidate span or
    answer type. Tensor fields are kept for the loss; the *_logits
    properties are their float64 numpy views.
    """

    start_t: Tensor              # [n_tokens]
    end_t: Tensor
    long_t: Tensor               # [|S|]
    type_t: Tensor               # [5]
    span_valid: np.ndarray       # [n_tokens] bool; True where a span may start/end

    @property
    def long_logits(self) -> np.ndarray:
        return np.asarray(self.long_t.data, dtype=np.float64)

    @property
    def type_logits(self) -> np.ndarray:
        return np.asarray(self.type_t.data, dtype=np.float64)

    @property
    def token_positions(self) -> np.ndarray:
        """The instance position of each token node: arange(n). Nothing in
        the package reads it; `perfbench`'s span-pair count reads it with
        `span_valid`."""
        return np.arange(len(self.span_valid))


def _project(states: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return T.reshape(T.matmul(states, w) + b, (states.shape[0],))


def score_nodes(
    states: Tensor,
    graph: HierGraph,
    instance: TrainingInstance,
    params,
) -> ScoreSet:
    """Scalar projections of the final node states.

    Valid span positions are position 0 (the [CLS] null target) and the
    document-content positions; question tokens and both [SEP]s are
    masked out of the start/end softmaxes.
    """
    tok_sl = graph.level_slice(NodeType.TOKEN)
    par_sl = graph.level_slice(NodeType.PARAGRAPH)
    doc_sl = graph.level_slice(NodeType.DOCUMENT)
    tok_states = T.rows(states, tok_sl)
    par_states = T.rows(states, par_sl)
    doc_state = T.rows(states, doc_sl)

    start_t = _project(tok_states, params["head.start.w"], params["head.start.b"])
    end_t = _project(tok_states, params["head.end.w"], params["head.end.b"])
    long_t = _project(par_states, params["head.long.w"], params["head.long.b"])
    type_t = T.reshape(
        T.matmul(doc_state, params["head.type.w"]) + params["head.type.b"], (5,)
    )

    span_valid = np.zeros(len(instance.tokens), dtype=bool)
    span_valid[0] = True
    span_valid[instance.content_start : -1] = True
    return ScoreSet(start_t=start_t, end_t=end_t, long_t=long_t, type_t=type_t,
                    span_valid=span_valid)


def joint_loss(scores: ScoreSet, l: int, s: int, e: int, t: AnswerType) -> Tensor:
    """Negative sum of the four log probabilities.

    For long-only instances the start/end terms are dropped: forcing the
    span heads toward the null target would only add noise.
    """
    if not 0 <= l < scores.long_t.shape[0]:
        raise ContractViolation(f"long target {l} outside candidate set")
    total = T.log_softmax_at(scores.type_t, int(t)) + T.log_softmax_at(scores.long_t, l)
    if t != AnswerType.LONG:
        valid, n = scores.span_valid, len(scores.span_valid)
        if not (0 <= s < n and 0 <= e < n and valid[s] and valid[e]):
            raise ContractViolation(f"span target ({s}, {e}) outside the instance or masked")
        lp_s = T.log_softmax_at(scores.start_t, s, valid)
        lp_e = T.log_softmax_at(scores.end_t, e, valid)
        total = total + lp_s + lp_e
    return total * -1.0


def fragment_score(scores: ScoreSet) -> float:
    """g_frag: the log-sum-exp of the four answer types' logits over the
    no-answer type's."""
    ft = scores.type_logits
    return float(np.logaddexp.reduce(ft[1:]) - ft[0])


def best_span(
    scores: ScoreSet, a: int, b: int, max_answer_tokens: int
) -> Optional[tuple[int, int, float]]:
    """The best short span (s, e, g_short) inside the candidate span
    (a, b), with e at most max_answer_tokens valid positions past s,
    scored as a margin over the [CLS] null; None when (a, b) has no valid
    position. Instances refuse spans outside them, so the slice is direct.
    """
    fs = np.asarray(scores.start_t.data, dtype=np.float64)
    fe = np.asarray(scores.end_t.data, dtype=np.float64)
    nodes = a + np.flatnonzero(scores.span_valid[a : b + 1])
    width = min(max_answer_tokens, len(nodes))
    if width < 1:
        return None
    # row i, column t scores the span from nodes[i] to nodes[i + t]; -inf
    # past the last node. The first argmax in row-major order is the first
    # maximum of the (start, end) scan.
    fe_pad = np.concatenate([fe[nodes], np.full(width - 1, NEG_INF)])
    ends = np.arange(len(nodes))[:, None] + np.arange(width)
    band = fs[nodes][:, None] + fe_pad[ends] - (fs[0] + fe[0])
    i, t = np.unravel_index(int(np.argmax(band)), band.shape)
    return int(nodes[i]), int(nodes[i + t]), float(band[i, t])


@dataclass
class DocumentPrediction:
    example_id: str
    long_index: int          # candidate index in the source document
    long_start: int          # doc-token span (inclusive) of the candidate
    long_end: int
    long_score: float        # g_long + g_frag
    answer_type: int
    short_kind: Optional[str]  # "span" | "yes" | "no" | None
    short_start: int = -1    # doc tokens, when short_kind == "span"
    short_end: int = -1
    short_score: float = 0.0
    short_text: str = ""

    def to_json(self) -> dict:
        if self.short_kind == "span":
            short = {
                "start": self.short_start,
                "end": self.short_end,
                "score": self.short_score,
                "text": self.short_text,
            }
        elif self.short_kind in ("yes", "no"):
            short = self.short_kind
        else:
            short = None
        return {
            "example_id": self.example_id,
            "long": {
                "start": self.long_start,
                "end": self.long_end,
                "score": self.long_score,
                "index": self.long_index,
            },
            "short": short,
            "type": self.answer_type,
        }


def _doc_token(instance: TrainingInstance, pos: int) -> int:
    return instance.fragment_start + (pos - instance.content_start)


def select_answers(
    fragments: list[tuple[TrainingInstance, ScoreSet]],
    max_answer_tokens: int,
    vocab: Optional[Vocab] = None,
) -> DocumentPrediction:
    """Pipeline selection over all fragments of one document.

    Long candidate: argmax of g_long + g_frag over non-[CLS] candidates,
    ties broken by earliest document position. Short answer: the best
    span inside the chosen candidate, searched in that fragment only, or
    the literal yes/no when the predicted answer type says so. With a
    `vocab`, the span's text is read from the same fragment.
    """
    if not fragments:
        raise ContractViolation("select_answers requires at least one fragment")
    best = None  # (sort key, instance, scores, s_idx, g_frag)
    for instance, scores in fragments:
        g_frag = fragment_score(scores)
        fl = scores.long_logits
        g_long = fl - fl[0]  # entry 0 ([CLS]) is 0 by definition
        for s_idx in range(1, len(instance.spans)):
            total = float(g_long[s_idx]) + g_frag
            doc_start = _doc_token(instance, instance.spans[s_idx][0])
            key = (-total, doc_start, instance.fragment_index)
            if best is None or key < best[0]:
                best = (key, instance, scores, s_idx, g_frag)
    if best is None:
        raise ContractViolation("document has no long answer candidates")
    key, instance, scores, s_idx, g_frag = best
    a, b = instance.spans[s_idx]
    pred = DocumentPrediction(
        example_id=fragments[0][0].example_id,
        long_index=instance.cand_doc_idx[s_idx],
        long_start=_doc_token(instance, a),
        long_end=_doc_token(instance, b),
        long_score=-key[0],  # g_long + g_frag
        answer_type=int(np.argmax(scores.type_logits)),
        short_kind=None,
    )
    if pred.answer_type in (int(AnswerType.YES), int(AnswerType.NO)):
        pred.short_kind = "yes" if pred.answer_type == int(AnswerType.YES) else "no"
        pred.short_score = g_frag
    elif (span := best_span(scores, a, b, max_answer_tokens)) is not None:
        s, e, pred.short_score = span
        pred.short_kind = "span"
        pred.short_start = _doc_token(instance, s)
        pred.short_end = _doc_token(instance, e)
        if vocab is not None:
            pred.short_text = detokenize(instance.tokens[s : e + 1], vocab)
    return pred
