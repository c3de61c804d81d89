"""Thresholded metrics, sweep, and the five-case breakdown."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigrain.evaluate import (
    GoldLabel,
    GrainRecord,
    evaluate,
    f1_at_threshold,
    five_case_breakdown,
    grain_records,
    normalize_text,
    prf,
    read_gold,
    threshold_sweep,
    write_gold,
)


def rec(gold_has, correct, score, eid="e"):
    return GrainRecord(eid, gold_has, correct, score)


# ---------------------------------------------------------------- f1


def test_all_correct_above_threshold():
    records = [rec(True, True, 1.0, f"e{i}") for i in range(4)]
    assert f1_at_threshold(records, 0.5) == (1.0, 1.0, 1.0)


def test_infinite_threshold_emits_nothing():
    records = [rec(True, True, 1.0), rec(False, False, 0.3)]
    assert f1_at_threshold(records, math.inf) == (0.0, 0.0, 0.0)


def test_hand_counted_mixed_set():
    records = [
        rec(True, True, 0.9, "a"),   # TP
        rec(True, False, 0.8, "b"),  # FP and FN
        rec(False, False, 0.5, "c"),  # below tau, gold null: ignored
    ]
    p, r, f1 = f1_at_threshold(records, 0.6)
    assert (p, r, f1) == (0.5, 0.5, 0.5)


def test_prf_zero_division():
    assert prf(0, 0, 0) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------- sweep


def test_single_correct_prediction_perfect_f1():
    records = [rec(True, True, 0.7)]
    sweep = threshold_sweep(records)
    assert sweep.f1 == 1.0
    assert sweep.tau < 0.7


def test_sweep_stops_at_first_wrong_score():
    # descending scores: correct, correct, wrong — best tau cuts the wrong one
    records = [
        rec(True, True, 0.9, "a"),
        rec(True, True, 0.8, "b"),
        rec(False, False, 0.4, "c"),
    ]
    sweep = threshold_sweep(records)
    assert sweep.f1 == 1.0
    assert sweep.tau == 0.4  # emission is score > tau, so tau sits on the wrong score


def test_sweep_tie_prefers_larger_tau():
    records = [rec(True, True, 0.9, "a"), rec(True, True, 0.2, "b")]
    sweep = threshold_sweep(records)
    assert sweep.f1 == 1.0
    # -inf and 0.1-ish thresholds tie at F1=1; the larger one must win
    assert sweep.tau == -math.inf or sweep.tau < 0.2
    best_taus = [tau for tau, _, _, f1 in sweep.curve if f1 == 1.0]
    assert sweep.tau == max(best_taus)


def test_sweep_empty_rejected():
    with pytest.raises(ValueError):
        threshold_sweep([])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sweep_matches_dense_grid(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 15))
    records = [
        rec(bool(rng.random() < 0.6), bool(rng.random() < 0.5), float(rng.uniform(-1, 1)), f"e{i}")
        for i in range(n)
    ]
    for r in records:
        if not r.gold_has:
            r.correct = False
    sweep = threshold_sweep(records)
    scores = [r.score for r in records]
    grid = np.arange(min(scores) - 2e-4, max(scores) + 2e-4, 1e-4)
    # scores closer than the grid step leave gaps the grid steps over; probe each gap
    distinct = np.unique(scores)
    grid = np.concatenate([grid, (distinct[:-1] + distinct[1:]) / 2])
    best_grid = max(f1_at_threshold(records, float(t))[2] for t in grid)
    np.testing.assert_allclose(sweep.f1, best_grid, atol=1e-12)


def sweep_brute_force(records):
    """The sweep as one `f1_at_threshold` pass per candidate threshold."""
    taus = sorted({r.score for r in records if math.isfinite(r.score)})
    taus = [-math.inf] + taus + [math.inf]
    curve = []
    best = None
    for tau in taus:
        p, r, f1 = f1_at_threshold(records, tau)
        curve.append((tau, p, r, f1))
        if best is None or f1 >= best[3]:
            best = (tau, p, r, f1)
    return best, curve


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gold=st.sampled_from(["mixed", "none", "all"]))
def test_sweep_matches_brute_force(seed, gold):
    """Tied scores, +/-inf and NaN scores, no gold and all gold: the curve
    and the chosen threshold equal the per-threshold loop's exactly."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    levels = rng.uniform(-1, 1, size=int(rng.integers(1, 8)))  # few values, many ties
    special = [math.inf, -math.inf, math.nan]
    records = []
    for i in range(n):
        u = rng.random()
        score = special[int(rng.integers(0, 3))] if u < 0.2 else float(rng.choice(levels))
        gold_has = {"mixed": bool(rng.random() < 0.6), "none": False, "all": True}[gold]
        records.append(rec(gold_has, bool(rng.random() < 0.5), score, f"e{i}"))
    sweep = threshold_sweep(records)
    best, curve = sweep_brute_force(records)
    assert sweep.curve == curve
    assert (sweep.tau, sweep.precision, sweep.recall, sweep.f1) == best


# ---------------------------------------------------------------- five cases


def test_perfect_system_cases_1_and_2():
    records = [rec(True, True, 0.9, "a"), rec(False, False, 0.1, "b")]
    assert five_case_breakdown(records, 0.5) == (1, 1, 0, 0, 0)


def test_infinite_tau_gold_examples_case_4():
    records = [rec(True, True, 0.9, "a"), rec(True, False, 0.3, "b")]
    assert five_case_breakdown(records, math.inf) == (0, 0, 0, 2, 0)


def test_five_case_fixture_one_each():
    records = [
        rec(True, True, 0.9, "a"),    # case 1: gold, above, correct
        rec(False, False, 0.1, "b"),  # case 2: null, below
        rec(True, False, 0.8, "c"),   # case 3: gold, above, wrong
        rec(True, True, 0.2, "d"),    # case 4: gold, below
        rec(False, False, 0.7, "e"),  # case 5: null, above
    ]
    assert five_case_breakdown(records, 0.5) == (1, 1, 1, 1, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-2, 2))
def test_five_cases_partition(seed, tau):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 25))
    records = [
        rec(bool(rng.random() < 0.5), bool(rng.random() < 0.5), float(rng.uniform(-1, 1)), f"e{i}")
        for i in range(n)
    ]
    assert sum(five_case_breakdown(records, tau)) == n


# ---------------------------------------------------------------- records


def pred(eid, long_index=0, long_score=1.0, short=None):
    return {
        "example_id": eid,
        "long": {"start": 0, "end": 3, "score": long_score, "index": long_index},
        "short": short,
        "type": 3,
    }


def test_long_records_match_on_index():
    preds = [pred("a", long_index=2), pred("b", long_index=0)]
    golds = [GoldLabel("a", long_index=2), GoldLabel("b", long_index=1)]
    recs = grain_records(preds, golds, "long")
    assert [r.correct for r in recs] == [True, False]


def test_short_records_normalize_text():
    sp = {"start": 0, "end": 1, "score": 2.0, "text": "  Ent1   ent2 "}
    preds = [pred("a", short=sp)]
    golds = [GoldLabel("a", long_index=0, short="ent1 ent2")]
    recs = grain_records(preds, golds, "short")
    assert recs[0].correct and recs[0].score == 2.0


def test_short_records_yes_no():
    preds = [pred("a", long_score=1.5, short="yes")]
    golds = [GoldLabel("a", long_index=0, short="yes")]
    recs = grain_records(preds, golds, "short")
    assert recs[0].correct and recs[0].score == 1.5


def test_missing_prediction_scores_neg_inf():
    recs = grain_records([], [GoldLabel("a", long_index=0)], "long")
    assert recs[0].score == -math.inf and not recs[0].correct


def test_duplicate_prediction_rejected():
    with pytest.raises(ValueError):
        grain_records([pred("a"), pred("a")], [GoldLabel("a")], "long")


def test_normalize_text():
    assert normalize_text("  A   b\tC ") == "a b c"


# ---------------------------------------------------------------- report


def test_evaluate_produces_both_grains():
    preds = [pred("a", long_index=1, short={"start": 0, "end": 0, "score": 1.0, "text": "x"})]
    golds = [GoldLabel("a", long_index=1, short="x")]
    report = evaluate(preds, golds)
    assert set(report.grains) == {"long", "short"}
    assert report.grains["long"].f1 == 1.0
    assert report.grains["short"].f1 == 1.0
    table = report.format_table()
    assert "long answer" in table and "short answer" in table
    json.dumps(report.to_json())  # must be serializable


def test_gold_jsonl_round_trip(tmp_path):
    golds = [GoldLabel("a", 1, "yes"), GoldLabel("b"), GoldLabel("c", 0, "ent1 ent2")]
    path = tmp_path / "gold.jsonl"
    write_gold(path, golds)
    assert read_gold(path) == golds
