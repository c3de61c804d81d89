"""Answer scoring heads, joint loss, inference scores, and pipelined
answer selection."""

import math

import numpy as np
import pytest

from multigrain import tensor as T
from multigrain.checks import micro_config, micro_instance
from multigrain.docgraph import build_graph
from multigrain.encoder import ModelParams, encode
from multigrain.heads import (
    DocumentPrediction,
    ScoreSet,
    inference_scores,
    joint_loss,
    score_nodes,
    select_answers,
)
from multigrain.predict import _span_text
from multigrain.preprocess import AnswerType, TrainingInstance, Vocab
from multigrain.tensor import ContractViolation, Tensor


def make_scores(
    start=None, end=None, long=None, typ=None, positions=None, valid=None, spans=None
):
    """ScoreSet over 6 token nodes: [CLS] q q [SEP] c c c [SEP] collapsed
    to positions [0..5] with content at 3, 4, 5 by default."""
    positions = np.asarray(positions if positions is not None else [0, 1, 2, 3, 4, 5])
    n = len(positions)
    if valid is None:
        valid = (positions == 0) | (positions >= 3)
    spans = spans or [(0, 0), (3, 5)]
    z = np.zeros(n)
    return ScoreSet(
        start_t=Tensor(np.asarray(start if start is not None else z, dtype=float)),
        end_t=Tensor(np.asarray(end if end is not None else z, dtype=float)),
        long_t=Tensor(np.asarray(long if long is not None else np.zeros(len(spans)), dtype=float)),
        type_t=Tensor(np.asarray(typ if typ is not None else np.zeros(5), dtype=float)),
        token_positions=positions,
        span_valid=np.asarray(valid, dtype=bool),
        spans=spans,
    )


# ---------------------------------------------------------------- score_nodes


@pytest.fixture
def forward():
    cfg = micro_config()
    inst = micro_instance()
    graph = build_graph(inst, clips=cfg.clips)
    model = ModelParams.init(cfg, seed=0, scale=0.1)
    states = encode(inst, graph, model)
    return cfg, inst, graph, model, states


def test_zero_head_weights_zero_logits(forward):
    cfg, inst, graph, model, states = forward
    for name in list(model.tensors):
        if name.startswith("head."):
            model.tensors[name].data[...] = 0.0
    sc = score_nodes(states, graph, inst, model)
    assert (sc.start_t.data == 0).all()
    assert (sc.end_t.data == 0).all()
    assert (sc.long_t.data == 0).all()
    assert (sc.type_t.data == 0).all()


def test_long_logits_cover_cls_pseudo_candidate(forward):
    cfg, inst, graph, model, states = forward
    sc = score_nodes(states, graph, inst, model)
    assert sc.long_t.shape[0] == len(inst.spans)
    assert inst.spans[0] == (0, 0)


def start_logits(sc: ScoreSet, seq_len: int) -> np.ndarray:
    """Start logits over all `seq_len` instance positions, -inf wherever
    no valid token node sits."""
    out = np.full(seq_len, -np.inf)
    out[sc.token_positions[sc.span_valid]] = sc.start_t.data[sc.span_valid]
    return out


def test_masked_position_never_wins(forward):
    cfg, inst, graph, model, states = forward
    sc = score_nodes(states, graph, inst, model)
    full = start_logits(sc, len(inst.tokens))
    masked = np.ones(len(inst.tokens), dtype=bool)
    masked[sc.token_positions[sc.span_valid]] = False
    assert not np.isfinite(full[masked]).any()
    assert np.argmax(full) in np.where(np.isfinite(full))[0]


def test_question_and_separators_masked(forward):
    cfg, inst, graph, model, states = forward
    sc = score_nodes(states, graph, inst, model)
    q = inst.question_len
    pos = sc.token_positions
    for p in range(1, q + 2):  # question tokens and first [SEP]
        assert not sc.span_valid[np.where(pos == p)[0][0]]
    last = len(inst.tokens) - 1  # trailing [SEP]
    assert not sc.span_valid[np.where(pos == last)[0][0]]
    assert sc.span_valid[np.where(pos == 0)[0][0]]


# ---------------------------------------------------------------- joint loss


def test_perfect_logits_loss_to_zero():
    big = 50.0
    start = np.zeros(6)
    start[3] = big
    end = np.zeros(6)
    end[4] = big
    long = np.array([0.0, big])
    typ = np.zeros(5)
    typ[int(AnswerType.SHORT)] = big
    sc = make_scores(start=start, end=end, long=long, typ=typ)
    loss = joint_loss(sc, 1, 3, 4, AnswerType.SHORT)
    assert loss.data < 1e-8


def test_uniform_logits_closed_form():
    sc = make_scores()  # 4 valid starts/ends, |S| = 2, 5 types
    loss = joint_loss(sc, 1, 3, 4, AnswerType.SHORT)
    want = math.log(4) + math.log(4) + math.log(2) + math.log(5)
    np.testing.assert_allclose(loss.data, want, atol=1e-12)


def test_long_type_drops_span_terms():
    sc = make_scores()
    loss = joint_loss(sc, 1, 0, 0, AnswerType.LONG)
    np.testing.assert_allclose(loss.data, math.log(2) + math.log(5), atol=1e-12)


def test_bad_long_target_rejected():
    with pytest.raises(ContractViolation):
        joint_loss(make_scores(), 5, 3, 4, AnswerType.SHORT)


def test_masked_span_target_rejected():
    with pytest.raises(ContractViolation):
        joint_loss(make_scores(), 1, 1, 4, AnswerType.SHORT)  # position 1 is a question token


def test_loss_differentiable_end_to_end(forward):
    cfg, inst, graph, model, states = forward
    with T.record_tape():
        st = encode(inst, graph, model)
        sc = score_nodes(st, graph, inst, model)
        loss = joint_loss(sc, inst.long_target, inst.start, inst.end, inst.answer_type)
        grads = T.backward(loss, model.tensors)
    assert all(np.isfinite(g).all() for g in grads.values())
    assert any(np.abs(g).sum() > 0 for g in grads.values())


# ---------------------------------------------------------------- g-scores


def test_g_long_zero_when_equal_to_cls():
    sc = make_scores(long=[1.7, 1.7])
    isc = inference_scores(sc)
    assert isc.g_long[1] == 0.0 and isc.g_long[0] == 0.0


def test_g_short_shift_invariant():
    rng = np.random.default_rng(0)
    start = rng.normal(size=6)
    end = rng.normal(size=6)
    a = inference_scores(make_scores(start=start, end=end))
    b = inference_scores(make_scores(start=start + 10.0, end=end - 3.0))
    sa = a.best_short[1]
    sb = b.best_short[1]
    assert sa[:2] == sb[:2]
    np.testing.assert_allclose(sa[2], sb[2], atol=1e-9)


def test_g_frag_uniform_types():
    isc = inference_scores(make_scores(typ=np.zeros(5)))
    np.testing.assert_allclose(isc.g_frag, math.log(4), atol=1e-12)


def test_g_frag_max_aggregation():
    isc = inference_scores(make_scores(typ=[1.0, 3.0, 2.0, 0.0, -1.0]), type_score_agg="max")
    np.testing.assert_allclose(isc.g_frag, 2.0, atol=1e-12)


def test_max_answer_tokens_cap():
    start = np.zeros(6)
    end = np.zeros(6)
    start[3] = 5.0
    end[5] = 5.0  # best unconstrained span is 3..5 (3 tokens)
    isc = inference_scores(make_scores(start=start, end=end), max_answer_tokens=2)
    s, e, _ = isc.best_short[1]
    assert e - s + 1 <= 2


def double_loop_short(scores, max_answer_tokens):
    """Each candidate's best (start, end) by scanning its valid nodes in
    position order, ends at most max_answer_tokens nodes on, keeping the
    first maximum."""
    fs, fe, pos = scores.start_t.data, scores.end_t.data, scores.token_positions
    cls = scores.node_of_position(0)
    null = fs[cls] + fe[cls]
    node_at = {int(p): i for i, p in enumerate(pos)}
    out = [None]
    for a, b in scores.spans[1:]:
        nodes = [node_at[p] for p in range(a, b + 1) if p in node_at and scores.span_valid[node_at[p]]]
        best = None
        for k, i in enumerate(nodes):
            for j in nodes[k : k + max_answer_tokens]:
                sc = fs[i] + fe[j] - null
                if best is None or sc > best[2]:
                    best = (int(pos[i]), int(pos[j]), float(sc))
        out.append(best)
    return out


@pytest.mark.parametrize("max_answer_tokens", [0, 1, 30])
def test_span_search_matches_double_loop(max_answer_tokens):
    """Integer logits, so equal scores are common and the tie order
    shows. Positions have gaps (no node) and masked nodes; candidate
    (5, 8) has no valid node, (10, 12) has one, and (1, 79) has more
    than 30."""
    rng = np.random.default_rng(11)
    L = 80
    for _ in range(25):
        present = rng.random(L) < 0.85
        present[[0, 11]] = True
        valid_at = rng.random(L) < 0.7
        valid_at[[0, 11]] = True
        valid_at[5:9] = False
        valid_at[[10, 12]] = False
        positions = np.flatnonzero(present)
        n = len(positions)
        starts = rng.integers(1, L, size=6)
        random_spans = [(int(a), int(min(a + rng.integers(0, 40), L - 1))) for a in starts]
        sc = ScoreSet(
            start_t=Tensor(rng.integers(-3, 4, size=n).astype(float)),
            end_t=Tensor(rng.integers(-3, 4, size=n).astype(float)),
            long_t=Tensor(np.zeros(4 + len(random_spans))),
            type_t=Tensor(np.zeros(5)),
            token_positions=positions,
            span_valid=valid_at[positions],
            spans=[(0, 0), (5, 8), (10, 12), (1, L - 1)] + random_spans,
        )
        got = inference_scores(sc, max_answer_tokens=max_answer_tokens).best_short
        want = double_loop_short(sc, max_answer_tokens)
        assert got == want
        assert got[1] is None
        if max_answer_tokens >= 1:
            assert got[2][:2] == (11, 11)


# ---------------------------------------------------------------- selection


def frag_instance(frag_index=0, frag_start=0, n_spans=1, q=2):
    content = 6
    seq = 1 + q + 1 + content + 1
    tokens = np.zeros(seq, dtype=np.int64)
    sentences = np.zeros(seq, dtype=np.int64)
    spans = [(0, 0)]
    cand_doc_idx = [-1]
    per = content // n_spans
    base = q + 2
    for c in range(n_spans):
        lo = base + c * per
        hi = lo + per - 1 if c < n_spans - 1 else base + content - 1
        sentences[lo : hi + 1] = c + 1
        spans.append((lo, hi))
        cand_doc_idx.append(frag_start // 6 * n_spans + c)
    return TrainingInstance(
        tokens=tokens,
        spans=spans,
        long_target=0,
        start=0,
        end=0,
        answer_type=AnswerType.NO_ANSWER,
        sentences=sentences,
        example_id="sel0",
        fragment_index=frag_index,
        fragment_start=frag_start,
        question_len=q,
        cand_doc_idx=cand_doc_idx,
    )


def scores_for(inst, long=None, typ=None, start=None, end=None):
    n = len(inst.tokens)
    pos = np.arange(n)
    valid = (pos == 0) | ((pos >= inst.content_start) & (pos < n - 1))
    return ScoreSet(
        start_t=Tensor(np.asarray(start if start is not None else np.zeros(n)) * 1.0),
        end_t=Tensor(np.asarray(end if end is not None else np.zeros(n)) * 1.0),
        long_t=Tensor(np.asarray(long if long is not None else np.zeros(len(inst.spans))) * 1.0),
        type_t=Tensor(np.asarray(typ if typ is not None else np.zeros(5)) * 1.0),
        token_positions=pos,
        span_valid=valid,
        spans=list(inst.spans),
    )


def test_single_candidate_always_selected():
    inst = frag_instance()
    sc = scores_for(inst, long=[5.0, -9.0], typ=[8.0, -1, -1, -1, -1])
    pred = select_answers([(inst, sc)])
    assert pred.long_index == inst.cand_doc_idx[1]


def test_fragment_sum_decides():
    a = frag_instance(frag_index=0, frag_start=0)
    b = frag_instance(frag_index=1, frag_start=6)
    # fragment a: high g_long (5), low g_frag; fragment b: g_long 2, high g_frag
    sc_a = scores_for(a, long=[0.0, 5.0], typ=[10.0, 0, 0, 0, 0])  # g_frag ~ -8.6
    sc_b = scores_for(b, long=[0.0, 2.0], typ=[0.0, 10, 0, 0, 0])  # g_frag ~ 10
    pred = select_answers([(a, sc_a), (b, sc_b)])
    assert pred.long_index == b.cand_doc_idx[1]


def test_tie_broken_by_document_position():
    a = frag_instance(frag_index=1, frag_start=6)
    b = frag_instance(frag_index=0, frag_start=0)
    sc_a = scores_for(a, long=[0.0, 1.0])
    sc_b = scores_for(b, long=[0.0, 1.0])
    pred = select_answers([(a, sc_a), (b, sc_b)])
    assert pred.long_start == 0  # earliest document position wins the tie


def test_short_span_inside_long_span():
    rng = np.random.default_rng(3)
    inst = frag_instance(n_spans=2)
    sc = scores_for(
        inst,
        long=rng.normal(size=3),
        start=rng.normal(size=len(inst.tokens)) * 3,
        end=rng.normal(size=len(inst.tokens)) * 3,
    )
    pred = select_answers([(inst, sc)])
    if pred.short_kind == "span":
        assert pred.long_start <= pred.short_start <= pred.short_end <= pred.long_end


def test_yes_type_gives_literal_short():
    inst = frag_instance()
    typ = np.zeros(5)
    typ[int(AnswerType.YES)] = 9.0
    pred = select_answers([(inst, scores_for(inst, typ=typ))])
    assert pred.short_kind == "yes"
    assert pred.to_json()["short"] == "yes"


def test_prediction_json_shape():
    inst = frag_instance()
    pred = select_answers([(inst, scores_for(inst))])
    obj = pred.to_json()
    assert set(obj) == {"example_id", "long", "short", "type"}
    assert set(obj["long"]) == {"start", "end", "score", "index"}


def test_span_text_skips_closing_separator():
    """Fragments cover document tokens 0-5 and 3-8. A span that reaches
    token 6 is read from fragment 1, not from fragment 0's closing [SEP]
    at that offset."""
    vocab = Vocab.build(f"w{i}" for i in range(12))
    frags = [frag_instance(frag_index=0, frag_start=0), frag_instance(frag_index=1, frag_start=3)]
    for inst in frags:
        words = range(inst.fragment_start, inst.fragment_start + 6)
        inst.tokens[:] = [vocab.cls_id, 4, 4, vocab.sep_id,
                          *(vocab.token2id[f"w{i}"] for i in words), vocab.sep_id]
    scored = [(inst, None) for inst in frags]
    for (s, e), want in (((6, 6), "w6"), ((5, 6), "w5 w6"), ((4, 5), "w4 w5")):
        pred = DocumentPrediction("sel0", 1, 0, 8, 0.0, int(AnswerType.SHORT), "span", s, e)
        assert _span_text(scored, pred, vocab) == want
