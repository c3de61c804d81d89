"""Output layer: span/candidate/type scoring, the joint loss, and the
pipelined answer selection used at inference time.

Long answers are scored from paragraph-node states, short answers from
token-node states, the answer type from the document node. Inference
subtracts the [CLS] null scores so every score is a margin against
abstention, then picks the long candidate first and the short span
inside it second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .docgraph import HierGraph, NodeType
from .preprocess import AnswerType, TrainingInstance
from .tensor import ContractViolation, Tensor

NEG_INF = float("-inf")


@dataclass
class ScoreSet:
    """Logits from one instance forward pass, one entry per token node
    (span scores), candidate span or answer type. Tensor fields are kept
    for the loss; the *_logits properties are their float64 numpy views.
    """

    start_t: Tensor              # [n_token_nodes]
    end_t: Tensor
    long_t: Tensor               # [|S|]
    type_t: Tensor               # [5]
    token_positions: np.ndarray  # instance position per token node, ascending
    span_valid: np.ndarray       # [n_token_nodes] bool; True where a span may start/end
    spans: list[tuple[int, int]]

    @property
    def long_logits(self) -> np.ndarray:
        return np.asarray(self.long_t.data, dtype=np.float64)

    @property
    def type_logits(self) -> np.ndarray:
        return np.asarray(self.type_t.data, dtype=np.float64)

    def node_of_position(self, pos: int) -> int:
        idx = np.where(self.token_positions == pos)[0]
        if len(idx) == 0:
            raise ContractViolation(f"position {pos} has no token node")
        return int(idx[0])


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

    pos = graph.token_positions
    content = (pos >= instance.content_start) & (pos < len(instance.tokens) - 1)
    span_valid = (pos == 0) | content
    return ScoreSet(
        start_t=start_t,
        end_t=end_t,
        long_t=long_t,
        type_t=type_t,
        token_positions=pos,
        span_valid=span_valid,
        spans=list(instance.spans),
    )


def _pick(logp: Tensor, idx: int) -> Tensor:
    return T.tsum(T.rows(logp, slice(idx, idx + 1)))


def joint_loss(scores: ScoreSet, l: int, s: int, e: int, t: AnswerType) -> Tensor:
    """Negative sum of the four log probabilities.

    For long-only instances the start/end terms are dropped: forcing the
    span heads toward the null target would only add noise.
    """
    if not 0 <= l < len(scores.spans):
        raise ContractViolation(f"long target {l} outside candidate set")
    lp_l = T.masked_log_softmax(scores.long_t, np.ones(len(scores.spans), dtype=bool))
    lp_t = T.masked_log_softmax(scores.type_t, np.ones(5, dtype=bool))
    total = _pick(lp_t, int(t)) + _pick(lp_l, l)
    if t != AnswerType.LONG:
        s_node = scores.node_of_position(s)
        e_node = scores.node_of_position(e)
        if not scores.span_valid[s_node] or not scores.span_valid[e_node]:
            raise ContractViolation(f"span target ({s}, {e}) at a masked position")
        lp_s = T.masked_log_softmax(scores.start_t, scores.span_valid)
        lp_e = T.masked_log_softmax(scores.end_t, scores.span_valid)
        total = total + _pick(lp_s, s_node) + _pick(lp_e, e_node)
    return total * -1.0


@dataclass
class InferenceScores:
    g_frag: float
    g_long: np.ndarray  # per candidate in S; entry 0 ([CLS]) is 0 by definition
    best_short: list[Optional[tuple[int, int, float]]]  # per candidate: (s, e, score)


def inference_scores(
    scores: ScoreSet, max_answer_tokens: int = 30, type_score_agg: str = "lse"
) -> InferenceScores:
    ft = scores.type_logits
    if type_score_agg == "lse":
        g_frag = float(np.logaddexp.reduce(ft[1:]) - ft[0])
    elif type_score_agg == "max":
        g_frag = float(ft[1:].max() - ft[0])
    else:
        raise ValueError(f"unknown type_score_agg {type_score_agg!r}")
    fl = scores.long_logits
    g_long = fl - fl[0]

    fs = np.asarray(scores.start_t.data, dtype=np.float64)
    fe = np.asarray(scores.end_t.data, dtype=np.float64)
    cls_node = scores.node_of_position(0)
    null = fs[cls_node] + fe[cls_node]
    best_short: list[Optional[tuple[int, int, float]]] = [None]
    pos = scores.token_positions
    for a, b in scores.spans[1:]:
        lo, hi = np.searchsorted(pos, (a, b + 1))
        nodes = lo + np.flatnonzero(scores.span_valid[lo:hi])
        width = min(max_answer_tokens, len(nodes))
        if width < 1:
            best_short.append(None)
            continue
        # row i, column t scores the span from nodes[i] to nodes[i + t];
        # -inf past the last node. The first argmax in row-major order is
        # the first maximum of the (start, end) scan.
        fe_pad = np.concatenate([fe[nodes], np.full(width - 1, NEG_INF)])
        ends = np.arange(len(nodes))[:, None] + np.arange(width)
        band = fs[nodes][:, None] + fe_pad[ends] - null
        i, t = np.unravel_index(int(np.argmax(band)), band.shape)
        best_short.append((int(pos[nodes[i]]), int(pos[nodes[i + t]]), float(band[i, t])))
    return InferenceScores(g_frag=g_frag, g_long=g_long, best_short=best_short)


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
    max_answer_tokens: int = 30,
    type_score_agg: str = "lse",
) -> DocumentPrediction:
    """Pipeline selection over all fragments of one document.

    Long candidate: argmax of g_long + g_frag over non-[CLS] candidates,
    ties broken by earliest document position. Short answer: best span
    inside the chosen candidate within the same fragment, or the literal
    yes/no when the predicted answer type says so.
    """
    if not fragments:
        raise ContractViolation("select_answers requires at least one fragment")
    example_id = fragments[0][0].example_id
    best = None  # (sort key, instance, scores, iscores, s_idx)
    for instance, scores in fragments:
        isc = inference_scores(scores, max_answer_tokens, type_score_agg)
        for s_idx in range(1, len(instance.spans)):
            total = float(isc.g_long[s_idx]) + isc.g_frag
            doc_start = _doc_token(instance, instance.spans[s_idx][0])
            key = (-total, doc_start, instance.fragment_index)
            if best is None or key < best[0]:
                best = (key, instance, scores, isc, s_idx)
    if best is None:
        raise ContractViolation("document has no long answer candidates")
    _, instance, scores, isc, s_idx = best
    a, b = instance.spans[s_idx]
    pred = DocumentPrediction(
        example_id=example_id,
        long_index=instance.cand_doc_idx[s_idx],
        long_start=_doc_token(instance, a),
        long_end=_doc_token(instance, b),
        long_score=float(isc.g_long[s_idx]) + isc.g_frag,
        answer_type=int(np.argmax(scores.type_logits)),
        short_kind=None,
    )
    if pred.answer_type in (int(AnswerType.YES), int(AnswerType.NO)):
        pred.short_kind = "yes" if pred.answer_type == int(AnswerType.YES) else "no"
        pred.short_score = isc.g_frag
    else:
        span = isc.best_short[s_idx]
        if span is not None:
            s, e, sc = span
            pred.short_kind = "span"
            pred.short_start = _doc_token(instance, s)
            pred.short_end = _doc_token(instance, e)
            pred.short_score = sc
    return pred
