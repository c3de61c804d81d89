"""Answer scoring heads, joint loss, fragment and span scores, and
pipelined answer selection."""

import math

import numpy as np
import pytest

from multigrain import heads
from multigrain import tensor as T
from multigrain.checks import micro_config, micro_instance
from multigrain.docgraph import build_graph
from multigrain.encoder import ModelParams, encode
from multigrain.heads import (
    ScoreSet,
    best_span,
    fragment_score,
    joint_loss,
    score_nodes,
    select_answers,
)
from multigrain.preprocess import AnswerType, TrainingInstance, Vocab
from multigrain.tensor import ContractViolation, Tensor

MAX_TOKENS = 30  # EncoderConfig's max_answer_tokens


def make_scores(start=None, end=None, long=None, typ=None):
    """ScoreSet over 6 token nodes, [CLS] q q then content at positions
    3, 4, 5, with the candidate spans (0, 0) and (3, 5)."""
    z = np.zeros(6)
    return ScoreSet(
        start_t=Tensor(np.asarray(start if start is not None else z, dtype=float)),
        end_t=Tensor(np.asarray(end if end is not None else z, dtype=float)),
        long_t=Tensor(np.asarray(long if long is not None else np.zeros(2), dtype=float)),
        type_t=Tensor(np.asarray(typ if typ is not None else np.zeros(5), dtype=float)),
        span_valid=np.array([True, False, False, True, True, True]),
    )


# ---------------------------------------------------------------- score_nodes


@pytest.fixture
def forward():
    cfg = micro_config()
    inst = micro_instance()
    graph = build_graph(inst, cfg.cross_clip)
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
    """Start logits over all `seq_len` instance positions (token node i
    is position i), -inf wherever a span may not start."""
    out = np.full(seq_len, -np.inf)
    out[sc.span_valid] = sc.start_t.data[sc.span_valid]
    return out


def test_masked_position_never_wins(forward):
    cfg, inst, graph, model, states = forward
    sc = score_nodes(states, graph, inst, model)
    full = start_logits(sc, len(inst.tokens))
    masked = ~sc.span_valid
    assert len(masked) == len(inst.tokens) == graph.n_tokens
    assert not np.isfinite(full[masked]).any()
    assert np.argmax(full) in np.where(np.isfinite(full))[0]


def test_question_and_separators_masked(forward):
    cfg, inst, graph, model, states = forward
    sc = score_nodes(states, graph, inst, model)
    q = inst.question_len
    assert not sc.span_valid[1 : q + 2].any()  # question tokens and first [SEP]
    assert not sc.span_valid[-1]  # trailing [SEP]
    assert sc.span_valid[0]


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
    """A question token (1), a position past the end (6) and a negative
    one are each refused, not wrapped around or read past the end."""
    for s, e in [(1, 4), (3, 6), (-1, 4)]:
        with pytest.raises(ContractViolation):
            joint_loss(make_scores(), 1, s, e, AnswerType.SHORT)


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
    """A candidate scored like [CLS] has g_long 0: its long score is g_frag."""
    inst = frag_instance()
    sc = scores_for(inst, long=[1.7, 1.7])
    assert select_answers([(inst, sc)], MAX_TOKENS).long_score == fragment_score(sc)


def test_g_short_shift_invariant():
    rng = np.random.default_rng(0)
    start = rng.normal(size=6)
    end = rng.normal(size=6)
    sa = best_span(make_scores(start=start, end=end), 3, 5, MAX_TOKENS)
    sb = best_span(make_scores(start=start + 10.0, end=end - 3.0), 3, 5, MAX_TOKENS)
    assert sa[:2] == sb[:2]
    np.testing.assert_allclose(sa[2], sb[2], atol=1e-9)


def test_g_frag_uniform_types():
    np.testing.assert_allclose(fragment_score(make_scores(typ=np.zeros(5))), math.log(4), atol=1e-12)


def test_g_frag_log_sum_exp():
    """g_frag is the log-sum-exp of the four answer types over no-answer."""
    typ = [1.0, 3.0, 2.0, 0.0, -1.0]
    want = math.log(sum(math.exp(x) for x in typ[1:])) - typ[0]
    np.testing.assert_allclose(fragment_score(make_scores(typ=typ)), want, atol=1e-12)


def test_max_answer_tokens_cap():
    start = np.zeros(6)
    end = np.zeros(6)
    start[3] = 5.0
    end[5] = 5.0  # best unconstrained span is 3..5 (3 tokens)
    s, e, _ = best_span(make_scores(start=start, end=end), 3, 5, max_answer_tokens=2)
    assert e - s + 1 <= 2


def double_loop_short(scores, a, b, max_answer_tokens):
    """The best (start, end) of candidate (a, b) by scanning its valid
    positions in order, ends at most max_answer_tokens valid positions
    on, keeping the first maximum."""
    fs, fe = scores.start_t.data, scores.end_t.data
    null = fs[0] + fe[0]
    nodes = [p for p in range(a, b + 1) if scores.span_valid[p]]
    best = None
    for k, i in enumerate(nodes):
        for j in nodes[k : k + max_answer_tokens]:
            sc = fs[i] + fe[j] - null
            if best is None or sc > best[2]:
                best = (i, j, float(sc))
    return best


@pytest.mark.parametrize("max_answer_tokens", [0, 1, 30])
def test_span_search_matches_double_loop(max_answer_tokens):
    """Integer logits, so equal scores are common and the tie order
    shows. Masked positions are scattered; candidate (5, 8) has no valid
    position, (10, 12) has one, and (1, 79) has more than 30."""
    rng = np.random.default_rng(11)
    L = 80
    for _ in range(25):
        valid = rng.random(L) < 0.7
        valid[[0, 11]] = True
        valid[5:9] = False
        valid[[10, 12]] = False
        starts = rng.integers(1, L, size=6)
        random_spans = [(int(a), int(min(a + rng.integers(0, 40), L - 1))) for a in starts]
        sc = ScoreSet(
            start_t=Tensor(rng.integers(-3, 4, size=L).astype(float)),
            end_t=Tensor(rng.integers(-3, 4, size=L).astype(float)),
            long_t=Tensor(np.zeros(4 + len(random_spans))),
            type_t=Tensor(np.zeros(5)),
            span_valid=valid,
        )
        for a, b in [(5, 8), (10, 12), (1, L - 1)] + random_spans:
            got = best_span(sc, a, b, max_answer_tokens)
            assert got == double_loop_short(sc, a, b, max_answer_tokens), (a, b)
        assert best_span(sc, 5, 8, max_answer_tokens) is None
        if max_answer_tokens >= 1:
            assert best_span(sc, 10, 12, max_answer_tokens)[:2] == (11, 11)


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
        span_valid=valid,
    )


def test_single_candidate_always_selected():
    inst = frag_instance()
    sc = scores_for(inst, long=[5.0, -9.0], typ=[8.0, -1, -1, -1, -1])
    pred = select_answers([(inst, sc)], MAX_TOKENS)
    assert pred.long_index == inst.cand_doc_idx[1]


def test_fragment_sum_decides():
    a = frag_instance(frag_index=0, frag_start=0)
    b = frag_instance(frag_index=1, frag_start=6)
    # fragment a: high g_long (5), low g_frag; fragment b: g_long 2, high g_frag
    sc_a = scores_for(a, long=[0.0, 5.0], typ=[10.0, 0, 0, 0, 0])  # g_frag ~ -8.6
    sc_b = scores_for(b, long=[0.0, 2.0], typ=[0.0, 10, 0, 0, 0])  # g_frag ~ 10
    pred = select_answers([(a, sc_a), (b, sc_b)], MAX_TOKENS)
    assert pred.long_index == b.cand_doc_idx[1]


def test_tie_broken_by_document_position():
    a = frag_instance(frag_index=1, frag_start=6)
    b = frag_instance(frag_index=0, frag_start=0)
    sc_a = scores_for(a, long=[0.0, 1.0])
    sc_b = scores_for(b, long=[0.0, 1.0])
    pred = select_answers([(a, sc_a), (b, sc_b)], MAX_TOKENS)
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
    pred = select_answers([(inst, sc)], MAX_TOKENS)
    if pred.short_kind == "span":
        assert pred.long_start <= pred.short_start <= pred.short_end <= pred.long_end


def test_yes_type_gives_literal_short():
    inst = frag_instance()
    typ = np.zeros(5)
    typ[int(AnswerType.YES)] = 9.0
    pred = select_answers([(inst, scores_for(inst, typ=typ))], MAX_TOKENS)
    assert pred.short_kind == "yes"
    assert pred.to_json()["short"] == "yes"


def test_prediction_json_shape():
    inst = frag_instance()
    pred = select_answers([(inst, scores_for(inst))], MAX_TOKENS)
    obj = pred.to_json()
    assert set(obj) == {"example_id", "long", "short", "type"}
    assert set(obj["long"]) == {"start", "end", "score", "index"}


def test_best_span_runs_once_per_document(monkeypatch):
    """select_answers searches a short span in the chosen candidate only:
    once over three fragments of three candidates each, never for a
    yes/no answer."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return best_span(*args, **kwargs)

    monkeypatch.setattr(heads, "best_span", counting)
    rng = np.random.default_rng(5)
    frags = [frag_instance(frag_index=k, frag_start=6 * k, n_spans=3) for k in range(3)]
    scored = [(inst, scores_for(inst, long=rng.normal(size=4), start=rng.normal(size=11),
                                end=rng.normal(size=11))) for inst in frags]
    pred = select_answers(scored, MAX_TOKENS)
    assert len(calls) == 1 and pred.short_kind == "span"
    typ = np.zeros(5)
    typ[int(AnswerType.NO)] = 9.0
    scored = [(inst, scores_for(inst, typ=typ)) for inst in frags]
    assert select_answers(scored, MAX_TOKENS).short_kind == "no" and len(calls) == 1


def test_span_text_skips_closing_separator():
    """Fragments cover document tokens 0-5 and 3-8. The text of a span is
    read from the fragment that scored it: one that reaches token 6 comes
    from fragment 1, and fragment 0's closing [SEP] at that offset is
    never part of a span."""
    vocab = Vocab.build(f"w{i}" for i in range(12))
    frags = [frag_instance(frag_index=0, frag_start=0), frag_instance(frag_index=1, frag_start=3)]
    for inst in frags:
        words = range(inst.fragment_start, inst.fragment_start + 6)
        inst.tokens[:] = [vocab.cls_id, 4, 4, vocab.sep_id,
                          *(vocab.token2id[f"w{i}"] for i in words), vocab.sep_id]

    def pick(inst, s, e, long):
        """Scores for `inst` whose best span is doc tokens s..e."""
        start, end = np.zeros(len(inst.tokens)), np.zeros(len(inst.tokens))
        start[s - inst.fragment_start + inst.content_start] = 5.0
        end[e - inst.fragment_start + inst.content_start] = 5.0
        return scores_for(inst, long=[0.0, long], start=start, end=end)

    for (s, e), want in (((6, 6), "w6"), ((5, 6), "w5 w6"), ((4, 5), "w4 w5")):
        scored = [(frags[0], scores_for(frags[0])), (frags[1], pick(frags[1], s, e, 1.0))]
        pred = select_answers(scored, MAX_TOKENS, vocab=vocab)
        assert (pred.short_start, pred.short_end, pred.short_text) == (s, e, want)
        assert select_answers(scored, MAX_TOKENS).short_text == ""
    # fragment 0 wins; its best end logit sits on the closing [SEP]
    scored = [(frags[0], pick(frags[0], 2, 6, 1.0)), (frags[1], scores_for(frags[1]))]
    pred = select_answers(scored, MAX_TOKENS, vocab=vocab)
    assert pred.short_end <= 5 and "[SEP]" not in pred.short_text
