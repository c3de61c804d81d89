"""Acceptance gate: ten system-level criteria, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines; each
test also asserts, so the suite fails loudly if a criterion regresses.
"""

import json
import time

import numpy as np
import pytest

from multigrain import tensor as T
from multigrain.checks import micro_config, micro_gradcheck_by_param
from multigrain.docgraph import build_graph
from multigrain.encoder import EncoderConfig, ModelParams, encode
from multigrain.evaluate import evaluate, normalize_text
from multigrain.heads import score_nodes
from multigrain.predict import predict_instances
from multigrain.preprocess import (
    Annotations,
    AnswerType,
    CandidateBlock,
    PreprocessConfig,
    RawExample,
    Vocab,
    build_instance,
    fragment_document,
    insert_markup_tokens,
    preprocess_example,
    wordpiece_with_offsets,
)
from multigrain.synthgen import CorpusSpec, build_vocab, generate_corpus
from multigrain.train import TrainConfig, train_loop
from oracles import (
    attention_rows_check,
    dense_oracle_check,
    initializer_check,
    random_instance,
    reachability_check,
    sweep_grid_check,
)


def report(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}"
    print(line)
    assert ok, line


# ------------------------------------------------------------ criterion 1


def test_criterion_01_gradient_fidelity():
    t0 = time.time()
    err = max(micro_gradcheck_by_param(eps=1e-3).values())
    dt = time.time() - t0
    ok = err < 1e-4 and dt < 60.0
    report(1, "gradient fidelity", ok, f"max rel err {err:.3e} < 1e-4 in {dt:.1f}s < 60s")


# ------------------------------------------------------------ criterion 2


def test_criterion_02_attention_stochasticity():
    ok = attention_rows_check(trials=100, tol=1e-6)
    report(2, "attention rows", ok, "100 trials: rows sum to 1 +/- 1e-6, masked entries 0")


# ------------------------------------------------------------ criterion 3


def test_criterion_03_dense_attention_oracle():
    dev = dense_oracle_check(trials=20)
    report(3, "dense attention oracle", dev <= 1e-6, f"20 trials, max deviation {dev:.2e} <= 1e-6")


# ------------------------------------------------------------ criterion 4


def test_criterion_04_initializer_exactness():
    dev = initializer_check(trials=50)
    report(4, "initializer exactness", dev < 1e-7, f"50 random trees, max deviation {dev:.2e} < 1e-7")


# ------------------------------------------------------------ criterion 5


def test_criterion_05_graph_reachability():
    ok = reachability_check(trials=50)
    report(5, "two-hop reachability", ok, "50 instances, exhaustive BFS, all pairs <= 2 hops")


# ------------------------------------------------------------ criterion 6


def _fixture_vocab():
    return Vocab.build(["a", "b", "c", "d", "e", "f"])


def _fixture_example(ann):
    blocks = [
        CandidateBlock("paragraph", "a b c. d e f.", ["a b c.", "d e f."]),
        CandidateBlock("paragraph", "c d. e f a b.", ["c d.", "e f a b."]),
    ]
    return RawExample("fx", "a b", blocks, ann)


def _tag(ann, window):
    vocab = _fixture_vocab()
    ex = _fixture_example(ann)
    doc = insert_markup_tokens(ex.blocks, vocab)
    q = wordpiece_with_offsets(ex.question, vocab)[0]
    return build_instance(doc, window, 0, q, ex, vocab, max_len=64)


def test_criterion_06_preprocessing_conformance():
    # (a) fragmentation: 600 doc tokens, 10 question tokens -> starts {0, 128}
    frags = fragment_document(600, 10)
    frag_ok = [f[0] for f in frags] == [0, 128] and len(frags) == 2

    # (b) answer-type rule table on a 12-case fixture covering all 5 labels
    vocab = _fixture_vocab()
    doc = insert_markup_tokens(_fixture_example(Annotations()).blocks, vocab)
    c0 = doc.cand_token_spans[0]
    c1 = doc.cand_token_spans[1]
    full = (0, len(doc))
    first_only = (0, c0[1])
    second_only = (c1[0], len(doc))
    partial_second = (0, c1[0] + 2)  # cuts candidate 1 in half

    span_cd = [(0, 3)]     # "c d" at the start of candidate 1
    span_two = [(0, 3), (9, 12)]  # "c d" and "a b" (bytes in "c d. e f a b.")

    cases = [
        (Annotations(1, span_cd, None), full, AnswerType.SHORT),
        (Annotations(1, span_two, None), full, AnswerType.SHORT),
        (Annotations(0, None, "yes"), full, AnswerType.YES),
        (Annotations(0, None, "no"), full, AnswerType.NO),
        (Annotations(0, None, None), full, AnswerType.LONG),
        (Annotations(None, None, None), full, AnswerType.NO_ANSWER),
        (Annotations(1, span_cd, None), first_only, AnswerType.NO_ANSWER),
        (Annotations(1, None, "yes"), first_only, AnswerType.NO_ANSWER),
        (Annotations(1, None, None), partial_second, AnswerType.NO_ANSWER),
        (Annotations(1, span_two, None), partial_second, AnswerType.NO_ANSWER),
        (Annotations(1, span_cd, None), second_only, AnswerType.SHORT),
        (Annotations(None, None, None), second_only, AnswerType.NO_ANSWER),
    ]
    tags = [_tag(ann, win).answer_type for ann, win, _ in cases]
    tag_ok = tags == [want for _, _, want in cases]

    # multi-span check: s = first span start, e = last span end
    inst = _tag(Annotations(1, span_two, None), full)
    toks = [vocab.tokens[t] for t in inst.tokens[inst.start : inst.end + 1]]
    multi_ok = toks[0] == "c" and toks[-1] == "b"

    # null targets point at [CLS]
    null_inst = _tag(Annotations(None, None, None), full)
    null_ok = (null_inst.start, null_inst.end, null_inst.long_target) == (0, 0, 0)

    # (c) byte-identical pipeline output across runs
    spec = CorpusSpec(seed=11, n_docs=8)
    vv = build_vocab(spec)
    examples, _ = generate_corpus(spec)
    cfg = PreprocessConfig(keep_prob=0.5, seed=2)
    runs = []
    for _ in range(2):
        insts = [i for ex in examples for i in preprocess_example(ex, vv, cfg)]
        runs.append(json.dumps([i.to_json() for i in insts]).encode())
    byte_ok = runs[0] == runs[1]

    ok = frag_ok and tag_ok and multi_ok and null_ok and byte_ok
    report(
        6,
        "preprocessing conformance",
        ok,
        f"fragments {[f[0] for f in frags]}, 12/12 answer-type cases, byte-identical output",
    )


# ------------------------------------------------------------ criterion 7


def _corpus():
    spec = CorpusSpec(seed=7, n_docs=80, answerable_frac=0.4, yesno_frac=0.1)
    examples, golds = generate_corpus(spec)
    vocab = build_vocab(spec)
    insts = []
    for ex in examples:
        insts.extend(preprocess_example(ex, vocab, PreprocessConfig(keep_prob=1.0, seed=0)))
    doc_idx = lambda i: int(i.example_id.split("-")[1])
    train = [i for i in insts if doc_idx(i) < 64]
    held = [i for i in insts if doc_idx(i) >= 64]
    return vocab, train, held, {g.example_id: g for g in golds}


def _train_and_f1(vocab, train, held, golds, n_layers, steps=500):
    cfg = EncoderConfig(d_h=32, m=4, n_layers=n_layers, d_ff=128, vocab_size=len(vocab))
    model = ModelParams.init(cfg, seed=0)
    tc = TrainConfig(batch_size=8, total_steps=steps, peak_lr=3e-3, seed=0)
    model, trace, _ = train_loop(train, model, tc)
    preds = predict_instances(held, model, vocab)
    rep = evaluate([p.to_json() for p in preds], [golds[p.example_id] for p in preds])
    return model, rep.grains["long"].f1


def test_criterion_07_end_to_end_learning():
    t0 = time.time()
    vocab, train, held, golds = _corpus()
    model, held_f1_2 = _train_and_f1(vocab, train, held, golds, n_layers=2)

    preds = predict_instances(train, model, vocab)
    n_long = n_short = ok_long = ok_short = 0
    for p in preds:
        g = golds[p.example_id]
        pj = p.to_json()
        if g.long_index is not None:
            n_long += 1
            ok_long += pj["long"]["index"] == g.long_index
        if g.short is not None:
            n_short += 1
            s = pj["short"]
            text = s if isinstance(s, str) else (s or {}).get("text")
            ok_short += text is not None and normalize_text(text) == normalize_text(g.short)
    long_acc = ok_long / n_long
    short_em = ok_short / n_short
    dt = time.time() - t0

    ok = long_acc >= 0.95 and short_em >= 0.90 and held_f1_2 >= 0.80 and dt <= 900
    report(
        7,
        "end-to-end learning",
        ok,
        f"train long acc {long_acc:.3f} >= 0.95, short EM {short_em:.3f} >= 0.90, "
        f"held-out long F1 {held_f1_2:.3f} >= 0.80, {dt:.0f}s <= 900s",
    )

    # layer study (reported, no hard threshold)
    _, held_f1_0 = _train_and_f1(vocab, train, held, golds, n_layers=0)
    print(
        f"       layer study: held-out long F1 = {held_f1_0:.3f} (0 layers) "
        f"vs {held_f1_2:.3f} (2 layers)"
    )


# ------------------------------------------------------------ criterion 8


def test_criterion_08_threshold_sweep():
    ok = sweep_grid_check(trials=200, grid_step=1e-4)
    report(8, "threshold sweep", ok, "200 random sets: sweep best-F1 == 1e-4 grid search")


# ------------------------------------------------------------ criterion 9


def test_criterion_09_five_case_partition():
    from multigrain.evaluate import GrainRecord, five_case_breakdown

    rng = np.random.default_rng(0)
    sums_ok = True
    for _ in range(50):
        n = int(rng.integers(1, 40))
        records = [
            GrainRecord(f"e{i}", bool(rng.random() < 0.5), bool(rng.random() < 0.5),
                        float(rng.uniform(-1, 1)))
            for i in range(n)
        ]
        tau = float(rng.uniform(-1, 1))
        sums_ok &= sum(five_case_breakdown(records, tau)) == n

    fixture = [
        GrainRecord("a", True, True, 0.9),
        GrainRecord("b", False, False, 0.1),
        GrainRecord("c", True, False, 0.8),
        GrainRecord("d", True, True, 0.2),
        GrainRecord("e", False, False, 0.7),
    ]
    fixture_ok = five_case_breakdown(fixture, 0.5) == (1, 1, 1, 1, 1)
    ok = sums_ok and fixture_ok
    report(9, "five-case partition", ok, "counts sum to n on 50 random sets; fixture = (1,1,1,1,1)")


# ------------------------------------------------------------ criterion 10


def test_criterion_10_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    cfg = micro_config(vocab_size=32, max_len=64)
    model = ModelParams.init(cfg, seed=0, scale=0.1)
    path = tmp_path / "rt.ckpt"
    model.save(path)
    loaded, _ = ModelParams.load(path)
    ok = True
    for k in range(10):
        inst = random_instance(rng)
        graph = build_graph(inst, cfg.cross_clip)
        a = encode(inst, graph, model).data
        b = encode(inst, graph, loaded).data
        ok &= bool((a == b).all())
    report(10, "checkpoint round-trip", ok, "10 instances, save -> load -> forward bit-identical")
