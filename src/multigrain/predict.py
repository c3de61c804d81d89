"""Batch inference: instances -> per-document predictions."""

from __future__ import annotations

from typing import Optional

from . import tensor as T
from .docgraph import build_graph
from .encoder import ModelParams, encode
from .heads import DocumentPrediction, score_nodes, select_answers
from .preprocess import TrainingInstance, Vocab, detokenize


def predict_instances(
    instances: list[TrainingInstance],
    model: ModelParams,
    vocab: Optional[Vocab] = None,
) -> list[DocumentPrediction]:
    """Forward every fragment, then pipeline-select one answer per document."""
    by_doc: dict[str, list[TrainingInstance]] = {}
    for inst in instances:
        by_doc.setdefault(inst.example_id, []).append(inst)
    cfg = model.config
    preds = []
    with T.no_grad():
        for example_id, frags in by_doc.items():
            scored = []
            for inst in frags:
                graph = build_graph(inst, clips=cfg.clips)
                states = encode(inst, graph, model)
                scored.append((inst, score_nodes(states, graph, inst, model)))
            pred = select_answers(scored, cfg.max_answer_tokens, cfg.type_score_agg)
            if pred.short_kind == "span" and vocab is not None:
                pred.short_text = _span_text(scored, pred, vocab)
            preds.append(pred)
    return preds


def _span_text(scored, pred: DocumentPrediction, vocab: Vocab) -> str:
    """Detokenize the predicted span from the first fragment whose content
    holds it; the closing [SEP] is not content."""
    for inst, _ in scored:
        lo = pred.short_start - inst.fragment_start + inst.content_start
        hi = pred.short_end - inst.fragment_start + inst.content_start
        if inst.content_start <= lo <= hi < len(inst.tokens) - 1:
            return detokenize(inst.tokens[lo : hi + 1], vocab)
    return ""
