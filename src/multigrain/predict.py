"""Batch inference: instances -> per-document predictions."""

from __future__ import annotations

from typing import Optional

from .docgraph import build_graph
from .encoder import ModelParams, encode
from .heads import DocumentPrediction, score_nodes, select_answers
from .preprocess import TrainingInstance, Vocab


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
    for frags in by_doc.values():
        scored = []
        for inst in frags:
            graph = build_graph(inst, cfg.cross_clip)
            states = encode(inst, graph, model)
            scored.append((inst, score_nodes(states, graph, inst, model)))
        preds.append(select_answers(scored, cfg.max_answer_tokens, vocab=vocab))
    return preds
