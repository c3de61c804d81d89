"""Hierarchical document graph: buckets, structure, reachability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigrain.docgraph import (
    EDGE_FAMILIES,
    SELF_BUCKET,
    HierGraph,
    NodeType,
    build_graph,
    family_bucket,
)
from multigrain.encoder import EncoderConfig
from multigrain.preprocess import AnswerType, TrainingInstance
from multigrain.tensor import EdgeList
from oracles import bfs_distances, random_instance, validate_graph


CFG = EncoderConfig()  # the graph tests use the default clips


def make_instance(n_cands=2, sents_per_cand=2, toks_per_sent=3, q=4):
    """n_cands candidates, fixed shape, [CLS] q... [SEP] content [SEP]."""
    n_content = n_cands * sents_per_cand * toks_per_sent
    seq = 1 + q + 1 + n_content + 1
    tokens = np.zeros(seq, dtype=np.int64)
    sentences = np.zeros(seq, dtype=np.int64)
    spans = [(0, 0)]
    cand_doc_idx = [-1]
    pos = q + 2
    sent = 1
    for c in range(n_cands):
        spans.append((pos, pos + sents_per_cand * toks_per_sent - 1))
        cand_doc_idx.append(c)
        for _ in range(sents_per_cand):
            sentences[pos : pos + toks_per_sent] = sent
            sent += 1
            pos += toks_per_sent
    return TrainingInstance(
        tokens=tokens,
        spans=spans,
        long_target=0,
        start=0,
        end=0,
        answer_type=AnswerType.NO_ANSWER,
        sentences=sentences,
        example_id="g0",
        fragment_index=0,
        fragment_start=0,
        question_len=q,
        cand_doc_idx=cand_doc_idx,
    )


# ---------------------------------------------------------------- oracles


def same_level_bucket(i: int, j: int, clip: int) -> int:
    """clip(j - i, -k, k) + k; bucket k is the zero offset / self pair."""
    return int(np.clip(j - i, -clip, clip)) + clip


def node_type(graph, node: int) -> NodeType:
    for level in NodeType:
        sl = graph.level_slice(level)
        if sl.start <= node < sl.stop:
            return level
    raise IndexError(node)


def find_edge(edges, dst: int, src: int) -> int:
    """Index of the edge dst <- src, or -1 if there is none."""
    hits = np.flatnonzero((edges.dst == dst) & (edges.src == src))
    return int(hits[0]) if hits.size else -1


def relative_position(graph, i: int, j: int) -> int:
    """Bucket index for the (i, j) node pair (i attends to j)."""
    ti, tj = node_type(graph, i), node_type(graph, j)
    if ti == tj and ti != NodeType.DOCUMENT:
        sl = graph.level_slice(ti)
        return same_level_bucket(i - sl.start, j - sl.start, CFG.level_clip(ti))
    edge = find_edge(graph.integ_edges, i, j)
    if edge < 0:
        raise ValueError(f"no edge between nodes {i} and {j}")
    return int(graph.integ_edges.bucket[edge])


# ---------------------------------------------------------------- node counts


def test_node_counts_match_construction():
    # 2 candidates x 2 sentences x 3 tokens + [CLS] + 4 question + 2 [SEP]
    inst = make_instance()
    g = build_graph(inst, CFG.cross_clip)
    assert g.n_tokens == 1 + 4 + 1 + 12 + 1  # 18 token nodes
    assert g.n_sents == 5  # [CLS] pseudo-sentence + 4 content sentences
    assert g.n_pars == 3  # [CLS] pseudo-paragraph + 2 candidates
    assert g.n_nodes == g.n_tokens + g.n_sents + g.n_pars + 1


def test_minimal_instance_two_paragraphs():
    tokens = np.zeros(4, dtype=np.int64)  # [CLS] [SEP] tok [SEP]
    sentences = np.array([0, 0, 1, 0])
    inst = TrainingInstance(
        tokens=tokens,
        spans=[(0, 0), (2, 2)],
        long_target=0,
        start=0,
        end=0,
        answer_type=AnswerType.NO_ANSWER,
        sentences=sentences,
        example_id="m0",
        fragment_index=0,
        fragment_start=0,
        question_len=0,
        cand_doc_idx=[-1, 0],
    )
    g = build_graph(inst, CFG.cross_clip)
    assert g.n_pars == 2  # the [CLS] pseudo-paragraph plus one content paragraph


# ---------------------------------------------------------------- buckets


def test_self_pair_center_bucket():
    assert same_level_bucket(5, 5, 16) == 16


def test_clipping_floor():
    assert same_level_bucket(50, 10, 16) == 0  # j - i = -40, clipped to -16


def test_clipping_ceiling():
    assert same_level_bucket(0, 99, 16) == 32


def test_cross_level_third_sentence_ordinal():
    # sentence -> paragraph family: ordinal of the sentence within its paragraph
    fam = EDGE_FAMILIES.index((NodeType.SENTENCE, NodeType.PARAGRAPH, True))
    b2 = family_bucket(fam, 2, 32)
    b_other = family_bucket(fam, 3, 32)
    assert b2 != b_other and b2 != SELF_BUCKET
    assert b2 - family_bucket(fam, 0, 32) == 2


def test_cross_level_ordinal_clipped():
    fam = 0
    assert family_bucket(fam, 200, 32) == family_bucket(fam, 32, 32)


def test_family_buckets_disjoint():
    seen = set()
    for fam in range(len(EDGE_FAMILIES)):
        for o in range(33):
            b = family_bucket(fam, o, 32)
            assert b not in seen and b != SELF_BUCKET
            seen.add(b)


def test_relative_position_antisymmetric_same_level():
    inst = make_instance()
    g = build_graph(inst, CFG.cross_clip)
    k = CFG.token_clip
    assert relative_position(g, 2, 5) - k == -(relative_position(g, 5, 2) - k)


# ---------------------------------------------------------------- validation


def test_validate_ok():
    g = build_graph(make_instance(), CFG.cross_clip)
    assert validate_graph(g) is None


def drop_edges(g, cut):
    """Replace g's integration edges by those for which cut(dst, src) is False."""
    e = g.integ_edges
    keep = ~cut(e.dst, e.src)
    g.integ_edges = EdgeList(e.dst[keep], e.src[keep], e.bucket[keep], e.n_nodes, e.n_buckets)


def test_validate_detects_deleted_containment_edge():
    g = build_graph(make_instance(), CFG.cross_clip)
    s0 = g.level_slice(NodeType.SENTENCE).start
    p0 = g.level_slice(NodeType.PARAGRAPH).start
    # cut sentence 1 <-> its paragraph, both directions
    par = p0 + int(g.sent_par[1])
    sent = s0 + 1
    n_before = len(g.integ_edges)
    drop_edges(g, lambda dst, src: ((dst == sent) & (src == par)) | ((dst == par) & (src == sent)))
    assert len(g.integ_edges) == n_before - 2
    assert validate_graph(g) is not None


def test_validate_detects_three_hop_pair():
    g = build_graph(make_instance(), CFG.cross_clip)
    doc = g.level_slice(NodeType.DOCUMENT).start
    # cutting the document hub from a token strands pairs beyond 2 hops
    drop_edges(g, lambda dst, src: ((dst == 0) | (src == 0)) & (dst != src))
    assert find_edge(g.integ_edges, 0, 0) >= 0
    assert validate_graph(g) is not None
    assert doc == g.n_nodes - 1


# ---------------------------------------------------------------- reachability


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_two_hop_reachability(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    g = build_graph(inst, CFG.cross_clip)
    assert validate_graph(g) is None
    adj = g.integ_mask.copy()
    np.fill_diagonal(adj, False)
    for src in range(g.n_nodes):
        dist = bfs_distances(adj, src)
        assert (dist >= 0).all() and dist.max() <= 2


def sent_par_loop(instance):
    """Each sentence's paragraph: the first span S[p], p >= 1, holding the
    sentence's first position (position 0 for a sentence id with no
    token), else 0."""
    positions = np.arange(len(instance.tokens))
    sent_of_pos = instance.sentences
    sent_par = np.zeros(int(sent_of_pos.max()) + 1, dtype=np.int64)
    for sent in range(1, len(sent_par)):
        first_pos = int(positions[np.argmax(sent_of_pos == sent)])
        par = 0
        for p, (a, b) in enumerate(instance.spans):
            if p == 0:
                continue
            if a <= first_pos <= b:
                par = p
                break
        sent_par[sent] = par
    return sent_par


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_spans=st.integers(0, 8))
def test_sentence_paragraph_map_matches_loop(seed, n_spans):
    """Random, nested and overlapping spans, sentences outside every span
    and sentence ids with no token: `build_graph` maps each sentence as
    the double loop over sentences and spans does."""
    rng = np.random.default_rng(seed)
    inst = make_instance(n_cands=3, sents_per_cand=2, toks_per_sent=4)
    n = len(inst.tokens)
    inst.sentences[:] = rng.integers(0, 12, size=n)  # some ids get no token
    starts = rng.integers(0, n, size=n_spans)
    ends = np.minimum(starts + rng.integers(0, n // 2, size=n_spans), n - 1)
    inst.spans = [(0, 0)] + [(int(a), int(b)) for a, b in zip(starts, ends)]
    if n_spans >= 2:  # one span nested inside another
        a, b = inst.spans[1]
        inst.spans[2] = (a + (b - a) // 3, b - (b - a) // 3)
    g = build_graph(inst, CFG.cross_clip)
    loop = sent_par_loop(inst)
    assert g.sent_par.dtype == np.int64
    np.testing.assert_array_equal(g.sent_par, loop)


def test_sentence_paragraph_map_edge_cases():
    inst = make_instance()  # sentences 1-2 in span 1, 3-4 in span 2
    inst.sentences[np.flatnonzero(inst.sentences == 3)] = 6  # ids 3-5 get no token
    inst.spans = [(0, 0), (0, 63), (6, 8)]  # span 2 nested in span 1
    g = build_graph(inst, CFG.cross_clip)
    np.testing.assert_array_equal(g.sent_par, sent_par_loop(inst))
    np.testing.assert_array_equal(g.sent_par, [0, 1, 1, 1, 1, 1, 1])
    inst.spans = [(0, 0), (9, 11), (40, 50)]  # sentence 1 and the empty ids outside every span
    g = build_graph(inst, CFG.cross_clip)
    np.testing.assert_array_equal(g.sent_par, sent_par_loop(inst))
    np.testing.assert_array_equal(g.sent_par, [0, 0, 1, 0, 0, 0, 0])


def test_uncovered_token_rejected():
    inst = make_instance()
    inst.sentences[7] = -1  # a real position with no sentence
    with pytest.raises(ValueError):
        build_graph(inst, CFG.cross_clip)


def test_buckets_only_on_edges():
    g = build_graph(make_instance(), CFG.cross_clip)
    e = g.integ_edges
    # the edge list is the whole graph: its adjacency is the mask, edges are
    # unique, and a bucket exists only on an edge
    mask = g.integ_mask
    assert mask.sum() == len(e)
    assert mask[e.dst, e.src].all()
    n = g.n_nodes
    diag = np.arange(n)
    loops = e.dst == e.src
    assert np.array_equal(e.dst[loops], diag)
    assert (e.bucket[loops] == SELF_BUCKET).all()
    assert (e.bucket[~loops] != SELF_BUCKET).all()


# ---------------------------------------------------------------- ordinals and mean matrices


def ordinal_loop(parent):
    """Position of each child within its parent, children in id order."""
    ords = np.zeros(len(parent), dtype=np.int64)
    seen = {}
    for i, p in enumerate(parent):
        ords[i] = seen.get(int(p), 0)
        seen[int(p)] = ords[i] + 1
    return ords


def mean_matrix_loop(child_parent, n_parents):
    m = np.zeros((n_parents, len(child_parent)))
    for child, parent in enumerate(child_parent):
        m[parent, child] = 1.0
    return m / m.sum(axis=1, keepdims=True)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_parents=st.integers(1, 9), extra=st.integers(0, 40),
       shuffled=st.booleans())
def test_ordinals_and_mean_matrix_match_loops(seed, n_parents, extra, shuffled):
    """The stable-argsort ranks and the fancy-index fill equal the Python
    loops they replace, on sorted parent arrays (as `build_graph` makes
    them) and on shuffled ones; every parent has at least one child."""
    rng = np.random.default_rng(seed)
    parent = np.sort(np.r_[np.arange(n_parents), rng.integers(0, n_parents, size=extra)])
    if shuffled:
        parent = rng.permutation(parent)
    g = build_graph(make_instance(), CFG.cross_clip)
    ords = g._ordinal_in(parent)
    assert ords.dtype == np.int64
    np.testing.assert_array_equal(ords, ordinal_loop(parent))
    np.testing.assert_array_equal(g.mean_matrix(parent, n_parents), mean_matrix_loop(parent, n_parents))


def test_graph_ordinals_match_loops():
    g = build_graph(make_instance(n_cands=3, sents_per_cand=3), CFG.cross_clip)
    np.testing.assert_array_equal(g.tok_ord, ordinal_loop(g.token_sent))
    np.testing.assert_array_equal(g.sent_ord, ordinal_loop(g.sent_par))
    # token-paragraph ordinals live only in the buckets of the upward edges
    token_par, e = g.sent_par[g.token_sent], g.integ_edges
    up = np.flatnonzero(e.src < g.n_tokens)
    up = up[e.dst[up] == g.level_slice(NodeType.PARAGRAPH).start + token_par[e.src[up]]]
    assert len(up) == g.n_tokens
    want = family_bucket(6, ordinal_loop(token_par)[e.src[up]], g.cross_clip)
    np.testing.assert_array_equal(e.bucket[up], want)


def twelve_family_edges(g):
    """The integration edges of `g`, with each of the twelve families
    written out in EDGE_FAMILIES order as (attending, attended, ordinal)."""
    t, s, p = g.n_tokens, g.n_sents, g.n_pars
    toks, sents, pars, doc = np.arange(t), t + np.arange(s), t + s + np.arange(p), t + s + p
    sent_of_tok, par_of_sent = t + g.token_sent, t + s + g.sent_par
    par_of_tok = t + s + g.sent_par[g.token_sent]
    tok_in_sent, sent_in_par = ordinal_loop(g.token_sent), ordinal_loop(g.sent_par)
    tok_in_par = ordinal_loop(g.sent_par[g.token_sent])
    families = [
        (sent_of_tok, toks, tok_in_sent),        # token -> sentence
        (toks, sent_of_tok, tok_in_sent),        # sentence -> token
        (par_of_sent, sents, sent_in_par),       # sentence -> paragraph
        (sents, par_of_sent, sent_in_par),
        (np.full(p, doc), pars, np.arange(p)),   # paragraph -> document
        (pars, np.full(p, doc), np.arange(p)),
        (par_of_tok, toks, tok_in_par),          # token -> paragraph
        (toks, par_of_tok, tok_in_par),
        (np.full(t, doc), toks, np.arange(t)),   # token -> document
        (toks, np.full(t, doc), np.arange(t)),
        (np.full(s, doc), sents, np.arange(s)),  # sentence -> document
        (sents, np.full(s, doc), np.arange(s)),
    ]
    cc, nodes = g.cross_clip, np.arange(g.n_nodes)
    dst = np.concatenate([nodes, *(d for d, _, _ in families)])
    src = np.concatenate([nodes, *(a for _, a, _ in families)])
    bucket = np.concatenate([np.full(g.n_nodes, SELF_BUCKET)] + [
        1 + fam * (cc + 1) + np.minimum(o, cc) for fam, (_, _, o) in enumerate(families)])
    return EdgeList(dst, src, bucket, g.n_nodes, 1 + 12 * (cc + 1))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_integ_edges_match_twelve_families(seed):
    """On random containments (unsorted, some parents childless) and on a
    random instance's graph, with clips small enough to bind."""
    rng = np.random.default_rng(seed)
    t, s, p = (int(rng.integers(1, k)) for k in (40, 10, 5))
    cc = int(rng.integers(0, 4))
    graphs = [
        HierGraph(t, s, p, rng.integers(0, s, size=t), rng.integers(0, p, size=s), cc),
        build_graph(random_instance(rng), cc),
    ]
    for g in graphs:
        want = twelve_family_edges(g)
        assert g.integ_edges.n_buckets == want.n_buckets
        for name in ("dst", "src", "bucket"):
            np.testing.assert_array_equal(getattr(g.integ_edges, name), getattr(want, name))


def test_mean_matrix_rejects_parent_without_children():
    g = build_graph(make_instance(), CFG.cross_clip)
    with pytest.raises(ValueError, match="parent index 1"):
        g.mean_matrix(np.array([0, 2, 2]), 3)
