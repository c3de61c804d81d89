"""Tokenization, fragmentation, answer-type tagging, downsampling, the
instance format, and a fuzz test over raw examples."""

import functools
import json
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from multigrain.preprocess import (
    Annotations,
    AnswerType,
    CandidateBlock,
    PreprocessConfig,
    RawExample,
    TrainingInstance,
    Vocab,
    _short_span_tokens,
    build_instance,
    detokenize,
    downsample_null,
    fragment_document,
    insert_markup_tokens,
    markup_token,
    preprocess_example,
    read_instances,
    read_jsonl,
    segment_sentences,
    wordpiece_with_offsets,
    write_jsonl,
)
from multigrain.checks import micro_config
from multigrain.docgraph import build_graph
from multigrain.encoder import ModelParams
from multigrain.train import instance_loss
from oracles import validate_graph


@pytest.fixture
def vocab():
    return Vocab.build(["play", "##ing", "a", "b", "c", "d", "no", "terminator", "yes"])


# ---------------------------------------------------------------- wordpiece


def test_wordpiece_empty(vocab):
    assert wordpiece_with_offsets("", vocab)[0] == []


def test_wordpiece_greedy_longest_match(vocab):
    ids = wordpiece_with_offsets("playing", vocab)[0]
    assert [vocab.tokens[i] for i in ids] == ["play", "##ing"]


def test_wordpiece_unknown_fallback(vocab):
    ids = wordpiece_with_offsets("qzx", vocab)[0]
    assert [vocab.tokens[i] for i in ids] == ["[UNK]"]


def test_wordpiece_offsets_cover_words(vocab):
    text = "playing a b"
    ids, offs = wordpiece_with_offsets(text, vocab)
    assert len(ids) == len(offs)
    for s, e in offs:
        assert 0 <= s < e <= len(text)
    assert text[offs[0][0] : offs[1][1]] == "playing"


# ---------------------------------------------------------------- sentences


def test_sentence_split_two():
    assert len(segment_sentences("A b. C d.")) == 2


def test_sentence_no_terminator():
    assert len(segment_sentences("no terminator")) == 1


def test_sentence_empty():
    assert segment_sentences("") == []


@settings(max_examples=50, deadline=None)
@given(st.text(alphabet="aB .?!x", max_size=60))
def test_sentence_spans_partition_text(text):
    spans = segment_sentences(text)
    if text.strip():
        assert spans, "non-blank text must yield at least one sentence"
    covered = "".join(text[a:b] for a, b in spans)
    assert covered == text[spans[0][0] : spans[-1][1]] if spans else True
    for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
        assert b1 <= a2


def segment_sentences_loop(text):
    """Sentence spans by a walk over the characters: a boundary after
    '.', '?' or '!' when whitespace and then an uppercase letter follow."""
    if not text:
        return []
    bounds = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in ".?!":
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            if j >= n:
                bounds.append(n)
                i = n
                break
            if j > i + 1 and text[j].isupper():
                bounds.append(i + 1)
        i += 1
    if not bounds or bounds[-1] != n:
        bounds.append(n)
    spans = []
    prev = 0
    for b in bounds:
        spans.append((prev, b))
        prev = b
    return spans


# Upper- and lower-case letters of several scripts, a titlecase letter
# (not upper), runs of terminators, and whitespace that str.isspace and
# regex \s both count (no-break and em space) or neither does (zero width).
SENTENCE_TEXT = st.text(alphabet="aBxéÉßΣσİǅ日1 .?!\t\n\u00a0\u2003\u200b", max_size=60)


@settings(max_examples=300, deadline=None)
@given(st.one_of(SENTENCE_TEXT, st.text(max_size=40)))
@example("Wait?! Then. ")
@example("a.B c. D.\t\n")
@example("x.\u00a0É and... Σ! ǅ")
def test_sentence_spans_match_character_loop(text):
    assert segment_sentences(text) == segment_sentences_loop(text)


# ---------------------------------------------------------------- markup


def test_markup_counters_per_kind(vocab):
    blocks = [CandidateBlock("paragraph", "a b.", ["a b."]), CandidateBlock("paragraph", "c d.", ["c d."])]
    doc = insert_markup_tokens(blocks, vocab)
    marks = [vocab.tokens[i] for i in doc.token_ids if vocab.tokens[i].startswith("[Paragraph")]
    assert marks == ["[Paragraph=0]", "[Paragraph=1]"]


def test_markup_kinds_count_independently(vocab):
    blocks = [
        CandidateBlock("paragraph", "a.", ["a."]),
        CandidateBlock("table", "b.", ["b."]),
        CandidateBlock("paragraph", "c.", ["c."]),
    ]
    doc = insert_markup_tokens(blocks, vocab)
    marks = [vocab.tokens[i] for i in doc.token_ids if "=" in vocab.tokens[i]]
    assert marks == ["[Paragraph=0]", "[Table=0]", "[Paragraph=1]"]


def test_markup_empty_block_list(vocab):
    doc = insert_markup_tokens([], vocab)
    assert len(doc.token_ids) == 0 and doc.n_sentences == 0


def test_tokens_outside_the_given_sentences_join_the_one_before(vocab):
    """A content token belongs to the last given sentence that starts at
    or before it, or to the first one for leading text: "lead" and "mid x ."
    join "a b .", and text after the last sentence joins that one."""
    gaps = CandidateBlock("paragraph", "lead a b . mid x . c d .", ["a b .", "c d ."])
    doc = insert_markup_tokens([gaps], vocab)
    assert doc.sent_id.tolist() == [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1]
    tail = CandidateBlock("paragraph", "a b . c d . tail", ["a b .", "c d ."])
    doc = insert_markup_tokens([gaps, tail], vocab)
    assert doc.sent_id[11:].tolist() == [2, 2, 2, 2, 3, 3, 3, 3]
    assert doc.n_sentences == 4


def test_markup_counter_cap():
    assert markup_token("paragraph", 200) == markup_token("paragraph", 49)


# ---------------------------------------------------------------- fragmentation


def test_fragment_600_10_two_windows():
    frags = fragment_document(600, 10)
    assert [f[0] for f in frags] == [0, 128]


def test_fragment_short_doc_single_window():
    assert fragment_document(400, 10) == [(0, 400)]


def test_fragment_question_too_long_rejected():
    with pytest.raises(ValueError):
        fragment_document(600, 512 - 3 - 127)  # budget 127 < stride 128


def fragment_loop(doc_len, question_len, max_len, stride):
    """Windows from k = 0 up, stopping at the first that reaches the end."""
    budget = max_len - 3 - question_len
    frags, k = [], 0
    while True:
        frags.append((k * stride, min(k * stride + budget, doc_len)))
        if frags[-1][1] >= doc_len:
            return frags
        k += 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 40), st.integers(8, 600), st.integers(1, 200))
def test_fragments_match_loop(doc_len, q_len, max_len, stride):
    assume(max_len - 3 - q_len >= stride)
    assert fragment_document(doc_len, q_len, max_len, stride) == fragment_loop(
        doc_len, q_len, max_len, stride)


@pytest.mark.parametrize("stride", [0, -1])
def test_fragment_stride_below_one_rejected(stride):
    """A window that does not advance would never reach the end."""
    with pytest.raises(ValueError, match="stride"):
        fragment_document(600, 10, stride=stride)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 512 - 3 - 128))
def test_fragment_coverage(doc_len, q_len):
    frags = fragment_document(doc_len, q_len)
    covered = set()
    for s, e in frags:
        assert s % 128 == 0
        assert e - s <= 512 - 3 - q_len
        covered.update(range(s, e))
    assert covered == set(range(doc_len))


# ---------------------------------------------------------------- answer types


def make_example(ann: Annotations):
    blocks = [
        CandidateBlock("paragraph", "a b c. d a b.", ["a b c.", "d a b."]),
        CandidateBlock("paragraph", "c d a b. a c.", ["c d a b.", "a c."]),
    ]
    return RawExample("ex0", "a b", blocks, ann)


def run_case(ann, window=None, vocab=None, max_len=64):
    vocab = vocab or Vocab.build(["a", "b", "c", "d"])
    ex = make_example(ann)
    doc = insert_markup_tokens(ex.blocks, vocab)
    q = wordpiece_with_offsets(ex.question, vocab)[0]
    window = window or (0, len(doc))
    return build_instance(doc, window, 0, q, ex, vocab, max_len=max_len), doc, vocab


def test_short_spans_in_window_tag_short():
    # two short spans in candidate 1: "c d" (bytes 0-3) and "a b" (bytes 4-7)
    ann = Annotations(long_index=1, short_spans=[(0, 3), (4, 7)])
    inst, doc, vocab = run_case(ann)
    assert inst.answer_type == AnswerType.SHORT
    # s = first token of the first span, e = last token of the last span
    span_tokens = [vocab.tokens[t] for t in inst.tokens[inst.start : inst.end + 1]]
    assert span_tokens == ["c", "d", "a", "b"]
    assert inst.long_target == inst.cand_doc_idx.index(1)


def test_window_missing_long_tags_no_answer():
    ann = Annotations(long_index=1, short_spans=[(0, 3)])
    # window over the first candidate only
    inst, doc, vocab = run_case(ann, window=(0, doc_len_of_first_candidate()))
    assert inst.answer_type == AnswerType.NO_ANSWER
    assert (inst.start, inst.end, inst.long_target) == (0, 0, 0)


def doc_len_of_first_candidate():
    vocab = Vocab.build(["a", "b", "c", "d"])
    ex = make_example(Annotations())
    doc = insert_markup_tokens(ex.blocks, vocab)
    return doc.cand_token_spans[0][1]


def test_yes_annotation_with_long_inside():
    ann = Annotations(long_index=0, yes_no="yes")
    inst, _, _ = run_case(ann)
    assert inst.answer_type == AnswerType.YES
    assert (inst.start, inst.end) == (0, 0)
    assert inst.long_target == inst.cand_doc_idx.index(0)


def test_no_annotation_with_long_inside():
    inst, _, _ = run_case(Annotations(long_index=0, yes_no="no"))
    assert inst.answer_type == AnswerType.NO


def test_long_only_annotation():
    inst, _, _ = run_case(Annotations(long_index=0))
    assert inst.answer_type == AnswerType.LONG
    assert (inst.start, inst.end) == (0, 0)


def test_null_annotation():
    inst, _, _ = run_case(Annotations())
    assert inst.answer_type == AnswerType.NO_ANSWER
    assert (inst.start, inst.end, inst.long_target) == (0, 0, 0)


@pytest.mark.parametrize("span", [(-1, 7), (2, 9)])
def test_annotation_bytes_outside_text_rejected(span):
    """Offsets are checked in bytes: in non-ASCII text a negative offset or
    one past the last byte is refused, not mapped to a character."""
    vocab = Vocab.build(["é", "a", "b"])
    ex = RawExample("u", "a", [CandidateBlock("paragraph", "é a b.")], Annotations(0, [span]))
    with pytest.raises(ValueError, match="outside candidate text"):
        preprocess_example(ex, vocab, PreprocessConfig(max_len=64, stride=32))


def test_cls_span_is_first():
    inst, _, _ = run_case(Annotations())
    assert inst.spans[0] == (0, 0) and inst.cand_doc_idx[0] == -1


# ---------------------------------------------------------------- downsampling


def null_inst(i):
    L = 8
    return TrainingInstance(
        tokens=np.zeros(L, dtype=np.int64),
        spans=[(0, 0)],
        long_target=0,
        start=0,
        end=0,
        answer_type=AnswerType.NO_ANSWER,
        sentences=np.zeros(L, dtype=np.int64),
        example_id=f"ex{i}",
        fragment_index=0,
        fragment_start=0,
        question_len=1,
        cand_doc_idx=[-1],
    )


def pos_inst(i):
    inst = null_inst(i)
    inst.answer_type = AnswerType.LONG
    inst.long_target = 0
    return inst


def test_downsample_keep_all():
    insts = [null_inst(i) for i in range(10)]
    assert downsample_null(insts, 1.0, seed=0) == insts


def test_downsample_keep_none_keeps_positives():
    insts = [null_inst(i) for i in range(5)] + [pos_inst(i + 5) for i in range(5)]
    kept = downsample_null(insts, 0.0, seed=0)
    assert len(kept) == 5
    assert all(k.answer_type != AnswerType.NO_ANSWER for k in kept)


def test_downsample_deterministic():
    insts = [null_inst(i) for i in range(200)]
    a = downsample_null(insts, 0.5, seed=7)
    b = downsample_null(insts, 0.5, seed=7)
    assert [x.example_id for x in a] == [x.example_id for x in b]
    c = downsample_null(insts, 0.5, seed=8)
    assert [x.example_id for x in a] != [x.example_id for x in c]


# ---------------------------------------------------------------- round trips


def test_instance_json_round_trip():
    inst, _, _ = run_case(Annotations(long_index=1, short_spans=[(0, 3)]))
    back = TrainingInstance.from_json(inst.to_json())
    assert back.to_json() == inst.to_json()


def test_instance_holds_only_its_real_tokens():
    """[CLS] question [SEP] content [SEP] and nothing after it, with one
    sentence id per position; content starts at `content_start`."""
    inst, doc, vocab = run_case(Annotations(long_index=1, short_spans=[(0, 3)]))
    q = inst.question_len
    assert len(inst.tokens) == len(inst.sentences) == q + len(doc) + 3
    assert inst.content_start == q + 2
    assert inst.tokens[0] == vocab.cls_id
    assert inst.tokens[inst.content_start - 1] == inst.tokens[-1] == vocab.sep_id
    np.testing.assert_array_equal(inst.tokens[inst.content_start : -1], doc.token_ids)
    assert (inst.sentences[: inst.content_start] == 0).all() and inst.sentences[-1] == 0
    assert (inst.sentences[inst.content_start : -1] > 0).all()
    assert "mask" not in inst.to_json()


def test_instance_json_refuses_padded_lines(tmp_path):
    """A line with a "mask" field (the padded format) is refused, not
    converted, and so is one whose token and sentence arrays differ."""
    inst, _, _ = run_case(Annotations())
    obj = inst.to_json()
    n = len(obj["c"])
    padded = dict(obj, c=obj["c"] + [0] * 4, sentences=obj["sentences"] + [-1] * 4,
                  mask=[1] * n + [0] * 4)
    with pytest.raises(ValueError, match="'mask'"):
        TrainingInstance.from_json(padded)
    path = tmp_path / "old.jsonl"
    write_jsonl(path, [obj, padded])
    with pytest.raises(ValueError, match="'mask'"):
        read_instances(path)
    with pytest.raises(ValueError, match=f"{n} tokens but {n - 1} sentence ids"):
        TrainingInstance.from_json(dict(obj, sentences=obj["sentences"][:-1]))


def test_read_jsonl_names_the_file_and_line_of_a_cut_line(tmp_path):
    """A line cut mid-object is refused with a ValueError naming the file
    and the line's 1-based number in it, blank lines counted."""
    line = json.dumps({"example_id": "a", "ids": list(range(100))})
    path = tmp_path / "cut.jsonl"
    path.write_text(f"{line}\n\n{line}\n{line}\n")
    assert read_jsonl(path) == [json.loads(line)] * 3
    path.write_text(f"{line}\n\n{line[:150]}\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: ")):
        read_jsonl(path)


@pytest.mark.parametrize("previous", [b'{"old":1}\n', None], ids=["over-a-file", "new-file"])
def test_write_jsonl_that_fails_half_way_leaves_the_previous_file(tmp_path, previous):
    """An iterator that raises half-way leaves the target byte for byte as
    it was (or absent), and no temporary file; one that ends replaces it."""
    path = tmp_path / "out.jsonl"
    if previous is not None:
        path.write_bytes(previous)

    def objs(fail):
        yield {"a": 1}
        if fail:
            raise RuntimeError("no second object")
        yield {"b": 2}

    with pytest.raises(RuntimeError, match="no second object"):
        write_jsonl(path, objs(fail=True))
    assert [p.name for p in tmp_path.iterdir()] == ([] if previous is None else ["out.jsonl"])
    assert previous is None or path.read_bytes() == previous
    write_jsonl(path, objs(fail=False))
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]
    assert read_jsonl(path) == [{"a": 1}, {"b": 2}]


def test_vocab_save_that_fails_leaves_the_previous_file(tmp_path):
    """`Vocab.save` writes whole or not at all, as `write_jsonl` does."""
    path = tmp_path / "vocab.txt"
    Vocab.build(["a", "b"]).save(path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        Vocab([*Vocab.build(["c"]).tokens, None]).save(path)  # a token that is not text
    assert path.read_bytes() == before and [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]


def add_span(obj, a, b):
    obj["S"].append([a, b])
    obj["provenance"]["cand_doc_idx"].append(0)


@pytest.mark.parametrize("change, field", [
    (lambda o: add_span(o, -3, 18), "S"),
    (lambda o: add_span(o, 11, len(o["c"]) + 20), "S"),
    (lambda o: add_span(o, 10, 4), "S"),
    (lambda o: o["S"].__setitem__(0, [0, 1]), "S must start"),
    (lambda o: o["provenance"]["cand_doc_idx"].append(7), "cand_doc_idx"),
    (lambda o: o.__setitem__("l", len(o["S"])), "long target l"),
    (lambda o: o.__setitem__("l", -1), "long target l"),
    (lambda o: o["sentences"].__setitem__(3, -1), "sentences"),
    (lambda o: o.__setitem__("sentences", [s + (s >= 2) for s in o["sentences"]]), "sentences"),
], ids=["negative-start", "end-past-tokens", "reversed", "first-not-cls", "cand-doc-idx",
        "l-past-S", "l-negative", "sentence-negative", "sentence-skipped"])
def test_instance_json_refuses_spans_outside_it(change, field):
    """Spans reversed or outside the instance, a first span other than the
    [CLS] (0, 0), a cand_doc_idx of another length, a long target outside
    S and sentence ids that are negative or skip a value are refused with
    a ValueError naming the field, before they can reach the span search
    or the graph."""
    inst, _, _ = run_case(Annotations(long_index=1))
    obj = inst.to_json()
    assert TrainingInstance.from_json(obj).to_json() == obj
    change(obj)
    with pytest.raises(ValueError, match=field):
        TrainingInstance.from_json(obj)


# ---------------------------------------------------------------- fuzzing

# "İ" lowercases to two characters, "i" and U+0307; the pieces "i", "##i"
# and "##\u0307" split it in two, at the start of a word or inside one.
FUZZ_VOCAB = Vocab.build(["a", "b", "##b", "é", "##é", "日本", "x1", "ß", "i", "##i", "##\u0307", "##x"])
FUZZ_TEXT = st.one_of(st.text(max_size=30), st.text(alphabet="ab é日本ßİx.?! \n", max_size=40))


def assert_pieces_tile_words(text):
    """Each word's pieces lie inside it, with offsets that do not decrease,
    from the word's first character to its last."""
    _, offsets = wordpiece_with_offsets(text, FUZZ_VOCAB)
    starts, ends = [a for a, _ in offsets], [b for _, b in offsets]
    assert starts == sorted(starts) and ends == sorted(ends)
    k = 0
    for word in re.finditer(r"\w+|[^\w\s]", text):
        start, end = word.span()
        pieces = []
        while k < len(offsets) and offsets[k][0] < end:
            pieces.append(offsets[k])
            k += 1
        assert pieces, f"no piece for {word.group()!r}"
        assert all(start <= a < b <= end for a, b in pieces), (word.group(), pieces)
        assert pieces[0][0] == start and pieces[-1][1] == end, (word.group(), pieces)
    assert k == len(offsets)


@st.composite
def raw_examples(draw):
    """Arbitrary unicode, empty blocks and questions, sentence lists that
    do or do not match the text, and annotation byte offsets anywhere
    (mid-codepoint, negative, past the end)."""
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        text = draw(FUZZ_TEXT)
        how = draw(st.sampled_from(["segment", "cuts", "segment", "cuts", "any"]))
        sentences = None
        if how == "cuts":
            cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=3)))
            sentences = [text[a:b] for a, b in zip([0] + cuts, cuts + [len(text)])]
        elif how == "any":
            sentences = draw(st.lists(FUZZ_TEXT, max_size=2))
        kind = draw(st.sampled_from(["paragraph", "table", "list"] * 5 + ["figure"]))
        blocks.append(CandidateBlock(kind, text, sentences))
    n_bytes = max((len(b.text.encode("utf-8")) for b in blocks), default=0)
    offset = st.integers(-2, n_bytes + 2)
    annotations = Annotations(
        long_index=draw(st.none() | st.integers(-1, len(blocks))),
        short_spans=draw(st.none() | st.lists(st.tuples(offset, offset), max_size=2)),
        yes_no=draw(st.sampled_from([None, "yes", "no", "maybe"])),
    )
    return RawExample("fuzz", draw(FUZZ_TEXT), blocks, annotations)


@functools.lru_cache(maxsize=None)
def fuzz_model(max_len):
    cfg = micro_config(vocab_size=len(FUZZ_VOCAB), max_len=max_len)
    return ModelParams.init(cfg, seed=0, scale=0.1)


@settings(max_examples=300, deadline=None)
@given(
    example=raw_examples(),
    # edge values last: sampled_from draws its first elements most often
    max_len=st.sampled_from([*range(16, 97), *range(16)]),
    stride=st.sampled_from([*range(1, 25), 0, -1]),
)
@example(
    example=RawExample("fuzz", "İx ab", [CandidateBlock("paragraph", "İx ab", None)], Annotations(0, [(0, 3)], None)),
    max_len=32,
    stride=8,
)
def test_fuzz_raw_examples_end_typed_or_valid(example, max_len, stride):
    """Every raw example either raises ValueError (from the config, for a
    stride or max_len below 1, or from preprocessing) or gives instances that
    fit max_len, pass validate_graph, have a finite loss and survive a
    JSON round trip unchanged; in its question and every block, the
    wordpiece offsets tile each word in order."""
    for text in [example.question, *(b.text for b in example.blocks)]:
        assert_pieces_tile_words(text)
    try:
        cfg = PreprocessConfig(max_len=max_len, stride=stride, keep_prob=1.0)
        instances = preprocess_example(example, FUZZ_VOCAB, cfg)
    except ValueError:
        return
    model = fuzz_model(max_len)
    for inst in instances:
        assert len(inst.tokens) <= max_len
        graph = build_graph(inst, model.config.cross_clip)
        assert validate_graph(graph) is None
        assert np.isfinite(instance_loss(inst, graph, model).item())
        line = json.dumps(inst.to_json())
        assert TrainingInstance.from_json(json.loads(line)).to_json() == inst.to_json()


@st.composite
def annotated_spans(draw):
    """(text, a, b): a candidate text and a character span [a, b) of it
    that holds a non-space character; half the time it runs from a word's
    first character to a word's last, otherwise it may cut words."""
    text = draw(FUZZ_TEXT)
    words = [m.span() for m in re.finditer(r"\w+|[^\w\s]", text)]
    assume(words)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(words) - 1))
        j = draw(st.integers(i, len(words) - 1))
        return text, words[i][0], words[j][1]
    a = draw(st.integers(0, len(text) - 1))
    b = draw(st.integers(a + 1, len(text)))
    assume(not text[a:b].isspace())
    return text, a, b


@settings(max_examples=300, deadline=None)
@given(annotated_spans())
@example(("İx ab", 0, 2))  # "İ" lowercases to two characters
@example(("İx ab", 1, 2))  # the "##x" piece alone
@example(("bé İb", 1, 5))  # cuts both words
def test_short_span_tokens_cover_the_annotated_characters(case):
    """For a span given as UTF-8 byte offsets, the tokens from the first
    to the last that `_short_span_tokens` returns hold every non-space
    character of the span, the first and the last overlap it, and on word
    boundaries they hold exactly its non-space characters."""
    text, a, b = case
    doc = insert_markup_tokens([CandidateBlock("paragraph", text, None)], FUZZ_VOCAB)
    byte_span = (len(text[:a].encode("utf-8")), len(text[:b].encode("utf-8")))
    first, last = _short_span_tokens(doc, 0, byte_span, text)
    covered = {i for s, e in doc.char_spans[first : last + 1] for i in range(s, e)}
    wanted = {i for i in range(a, b) if not text[i].isspace()}
    assert wanted <= covered
    for s, e in (doc.char_spans[first], doc.char_spans[last]):
        assert s < b and e > a
    words = [m.span() for m in re.finditer(r"\w+|[^\w\s]", text)]
    if a in {s for s, _ in words} and b in {e for _, e in words}:
        assert covered == wanted


def test_raw_example_json_round_trip():
    ex = make_example(Annotations(long_index=0, short_spans=[(0, 1)], yes_no=None))
    back = RawExample.from_json(ex.to_json())
    assert back.to_json() == ex.to_json()


def test_pipeline_byte_identical():
    vocab = Vocab.build(["a", "b", "c", "d"])
    ex = make_example(Annotations(long_index=1, short_spans=[(0, 3)]))
    cfg = PreprocessConfig(max_len=64, stride=32, keep_prob=0.5, seed=3)
    runs = []
    for _ in range(2):
        insts = preprocess_example(ex, vocab, cfg)
        runs.append(json.dumps([i.to_json() for i in insts]).encode())
    assert runs[0] == runs[1]


def test_detokenize_merges_continuations():
    vocab = Vocab.build(["play", "##ing", "a"])
    ids = wordpiece_with_offsets("playing a", vocab)[0]
    assert detokenize(ids, vocab) == "playing a"
