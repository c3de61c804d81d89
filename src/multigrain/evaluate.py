"""Thresholded precision/recall/F1 for both answer grains, threshold
sweeping, and the five-case error breakdown.

A prediction is emitted iff its score exceeds the threshold. Long
answers match on the candidate index; short answers match on
whitespace-normalized detokenized text or yes/no equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .preprocess import read_jsonl, write_jsonl

GRAINS = ("long", "short")


@dataclass
class GoldLabel:
    example_id: str
    long_index: Optional[int] = None
    short: Optional[str] = None  # span text, "yes"/"no", or None

    def to_json(self) -> dict:
        return {
            "example_id": self.example_id,
            "long_index": self.long_index,
            "short": self.short,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GoldLabel":
        return cls(obj["example_id"], obj.get("long_index"), obj.get("short"))


def normalize_text(s: str) -> str:
    return " ".join(s.lower().split())


@dataclass
class GrainRecord:
    """One example reduced to what the metric needs for one grain."""

    example_id: str
    gold_has: bool
    correct: bool     # prediction matches gold (meaningful when emitted)
    score: float      # -inf when the system produced no prediction value


def _short_fields(pred: dict) -> tuple[Optional[str], float]:
    short = pred.get("short")
    if short is None:
        return None, -math.inf
    if isinstance(short, str):
        # yes/no verdicts carry no span score; the long score stands in
        return short, float(pred["long"]["score"])
    return short.get("text", ""), float(short["score"])


def grain_records(
    predictions: Iterable[dict], golds: Iterable[GoldLabel], grain: str
) -> list[GrainRecord]:
    if grain not in GRAINS:
        raise ValueError(f"unknown grain {grain!r}")
    by_id: dict[str, dict] = {}
    for p in predictions:
        if p["example_id"] in by_id:
            raise ValueError(f"duplicate prediction for example {p['example_id']}")
        by_id[p["example_id"]] = p
    records = []
    for gold in golds:
        pred = by_id.get(gold.example_id)
        gold_has = (gold.long_index if grain == "long" else gold.short) is not None
        if pred is None:
            correct, score = False, -math.inf
        elif grain == "long":
            correct = gold_has and pred["long"]["index"] == gold.long_index
            score = float(pred["long"]["score"])
        else:
            text, score = _short_fields(pred)
            correct = (
                gold_has
                and text is not None
                and normalize_text(text) == normalize_text(gold.short)
            )
        records.append(GrainRecord(gold.example_id, gold_has, correct, score))
    return records


def prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def f1_at_threshold(records: list[GrainRecord], tau: float) -> tuple[float, float, float]:
    """Emitted iff score > tau. Emitted-and-correct is a TP; emitted but
    null-gold or wrong is an FP; gold answers that are not emitted
    correctly count as FN."""
    tp = fp = fn = 0
    for rec in records:
        emitted = rec.score > tau
        if emitted and rec.correct:
            tp += 1
        else:
            if emitted:
                fp += 1
            if rec.gold_has:
                fn += 1
    return prf(tp, fp, fn)


@dataclass
class SweepResult:
    tau: float
    precision: float
    recall: float
    f1: float
    curve: list[tuple[float, float, float, float]]  # (tau, P, R, F1)
    cases: tuple[int, int, int, int, int]           # five_case_breakdown at tau


def threshold_sweep(records: list[GrainRecord]) -> SweepResult:
    """Evaluate every distinct score as a threshold (plus +/-inf), from
    one sort and cumulative counts; return the F1 argmax, ties resolved
    toward the larger threshold, with the five cases at that threshold."""
    if not records:
        raise ValueError("threshold_sweep requires at least one prediction")
    taus = sorted({r.score for r in records if math.isfinite(r.score)})
    taus = [-math.inf] + taus + [math.inf]
    # The counts `f1_at_threshold` takes, for every tau at once: a record
    # is emitted iff score > tau, i.e. iff it sorts after tau's last tie;
    # a NaN score never is. Per record: emitted-and-correct (TP),
    # emitted-and-wrong (FP), and a TP that also clears a gold answer's FN.
    scored = [r for r in records if not math.isnan(r.score)]
    scores = np.array([r.score for r in scored], dtype=float)
    order = np.argsort(scores)
    kinds = np.array([(r.correct, not r.correct, r.correct and r.gold_has) for r in scored],
                     dtype=np.int64).reshape(-1, 3)[order]
    from_top = np.zeros((len(scored) + 1, 3), dtype=np.int64)  # sums of kinds[i:]
    from_top[:-1] = np.cumsum(kinds[::-1], axis=0)[::-1]
    first_above = np.searchsorted(scores[order], taus, side="right")
    tp, fp, tp_gold = from_top[first_above].T.tolist()
    n_gold = sum(r.gold_has for r in records)
    curve = []
    best = None
    for tau, t, f, tg in zip(taus, tp, fp, tp_gold):
        p, r, f1 = prf(t, f, n_gold - tg)
        curve.append((tau, p, r, f1))
        if best is None or f1 >= best[3]:  # >= keeps the larger tau on ties
            best = (tau, p, r, f1)
    return SweepResult(*best, curve=curve, cases=five_case_breakdown(records, best[0]))


def five_case_breakdown(records: list[GrainRecord], tau: float) -> tuple[int, int, int, int, int]:
    """Exhaustive partition of the examples:
    1 gold answer, above threshold, correct;
    2 no gold answer, below threshold;
    3 gold answer, above threshold, wrong;
    4 gold answer, below threshold;
    5 no gold answer, above threshold.
    """
    counts = [0, 0, 0, 0, 0]
    for rec in records:
        above = rec.score > tau
        if rec.gold_has:
            if not above:
                counts[3] += 1
            elif rec.correct:
                counts[0] += 1
            else:
                counts[2] += 1
        else:
            counts[4 if above else 1] += 1
    return tuple(counts)


@dataclass
class EvalReport:
    grains: dict[str, SweepResult] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            grain: {
                "threshold": g.tau,
                "precision": g.precision,
                "recall": g.recall,
                "f1": g.f1,
                "cases": list(g.cases),
                "curve": [list(row) for row in g.curve],
            }
            for grain, g in self.grains.items()
        }

    def format_table(self) -> str:
        lines = [
            f"{'':14s} {'P':>8s} {'R':>8s} {'F1':>8s} {'tau':>10s}",
        ]
        for grain in GRAINS:
            g = self.grains[grain]
            lines.append(
                f"{grain + ' answer':14s} {g.precision:8.3f} {g.recall:8.3f} "
                f"{g.f1:8.3f} {g.tau:10.4f}"
            )
            lines.append(
                "  cases: " + " ".join(f"C{i + 1}={c}" for i, c in enumerate(g.cases))
            )
        return "\n".join(lines)


def evaluate(predictions: list[dict], golds: list[GoldLabel]) -> EvalReport:
    return EvalReport({grain: threshold_sweep(grain_records(predictions, golds, grain))
                       for grain in GRAINS})


def read_gold(path) -> list[GoldLabel]:
    return [GoldLabel.from_json(obj) for obj in read_jsonl(path)]


def write_gold(path, golds: Iterable[GoldLabel]):
    write_jsonl(path, (g.to_json() for g in golds))
