"""Encoder forward pass: embeddings, graph initializer, attention
sublayers, integration, FFN, and checkpointing."""

import numpy as np
import pytest

from multigrain import tensor as T
from multigrain.checks import (
    attention_rows_check,
    dense_oracle_check,
    initializer_check,
    micro_config,
    micro_instance,
)
from multigrain.docgraph import NodeType, build_graph
from multigrain.encoder import (
    CHECKPOINT_MAGIC,
    AttentionTrace,
    EncoderConfig,
    ModelParams,
    embed_tokens,
    encode,
    feed_forward_concat,
    gat_attention,
    graph_initialize,
    graph_integration,
    load_checkpoint,
    param_shapes,
    self_attention_level,
)
from multigrain.tensor import Tensor


@pytest.fixture
def setup():
    cfg = micro_config()
    inst = micro_instance()
    graph = build_graph(inst, clips=cfg.clips)
    model = ModelParams.init(cfg, seed=0, scale=0.1)
    return cfg, inst, graph, model


def zeroed(model, names):
    for name in names:
        model.tensors[name].data[...] = 0.0


# ---------------------------------------------------------------- config


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        EncoderConfig(d_h=10, m=4)


def test_param_shapes_cover_model(setup):
    cfg, _, _, model = setup
    shapes = param_shapes(cfg)
    assert set(shapes) == set(model.tensors)
    for name, shape in shapes.items():
        assert model.tensors[name].data.shape == tuple(shape)


# ---------------------------------------------------------------- embeddings


def test_embed_zero_tables(setup):
    cfg, inst, _, model = setup
    zeroed(model, ["emb.token", "emb.pos"])
    out = embed_tokens(inst, model)
    assert (out.data == 0).all()


def test_embed_shape(setup):
    cfg, inst, _, model = setup
    out = embed_tokens(inst, model)
    assert out.shape == (inst.n_real, cfg.d_h)


def test_embed_deterministic(setup):
    _, inst, _, model = setup
    a = embed_tokens(inst, model).data
    b = embed_tokens(inst, model).data
    np.testing.assert_array_equal(a, b)


def test_embed_rejects_out_of_range(setup):
    cfg, inst, _, model = setup
    inst.tokens[0] = cfg.vocab_size
    with pytest.raises(ValueError):
        embed_tokens(inst, model)


# ---------------------------------------------------------------- initializer


def init_names(model):
    return [n for n in model.tensors if n.startswith("init.")]


def one_token_sentence_graph():
    """[CLS] q [SEP] t [SEP]: the content sentence holds a single token."""
    from tests.test_docgraph import make_instance

    inst = make_instance(n_cands=1, sents_per_cand=1, toks_per_sent=1, q=1, L=8)
    return inst, build_graph(inst, clips=micro_config().clips)


def test_single_child_parent_equals_child():
    inst, graph = one_token_sentence_graph()
    model = ModelParams.init(micro_config(max_len=8), seed=0, scale=0.1)
    zeroed(model, init_names(model))
    states = graph_initialize(graph, embed_tokens(inst, model), model)
    counts = np.bincount(graph.token_sent, minlength=graph.n_sents)
    s = int(np.where(counts == 1)[0][0])
    t = int(np.where(graph.token_sent == s)[0][0])
    srow = graph.level_slice(NodeType.SENTENCE).start + s
    np.testing.assert_array_equal(states.data[srow], states.data[t])


def test_children_mean_plus_type(setup):
    cfg, inst, graph, model = setup
    zeroed(model, ["init.rel.sentence", "init.rel.paragraph", "init.rel.document"])
    c = model.tensors["init.type"].data[1].copy()
    tok = embed_tokens(inst, model)
    states = graph_initialize(graph, tok, model)
    srow0 = graph.level_slice(NodeType.SENTENCE).start
    for s in range(graph.n_sents):
        kids = np.where(graph.token_sent == s)[0]
        want = states.data[kids].mean(axis=0) + c
        np.testing.assert_allclose(states.data[srow0 + s], want, atol=1e-12)


def test_document_built_from_paragraphs_bottom_up(setup):
    cfg, inst, graph, model = setup
    # zero everything feeding the paragraph states, keep the document-level
    # relational table: document = b_doc + mean(a_doc[ordinal])
    zeroed(model, ["emb.token", "emb.pos", "init.rel.sentence", "init.rel.paragraph"])
    model.tensors["init.type"].data[1] = 0.0
    model.tensors["init.type"].data[2] = 0.0
    states = graph_initialize(graph, embed_tokens(inst, model), model)
    a = model.tensors["init.rel.document"].data
    ords = np.minimum(graph.par_ord, cfg.cross_clip)
    want = a[ords].mean(axis=0) + model.tensors["init.type"].data[3]
    np.testing.assert_allclose(states.data[-1], want, atol=1e-12)


def test_initializer_mean_exactness_suite():
    assert initializer_check(trials=10) < 1e-7


# ---------------------------------------------------------------- attention


def test_isolated_node_value_projection(setup):
    cfg, _, _, model = setup
    prefix = "layer0.tok"
    zeroed(model, [f"{prefix}.ak", f"{prefix}.av"])
    rng = np.random.default_rng(0)
    h = Tensor(rng.normal(size=(3, cfg.d_h)))
    mask = np.eye(3, dtype=bool)  # self-loops only
    buckets = np.zeros((3, 3), dtype=np.int64)
    out = gat_attention(h, mask, buckets, model, prefix, 5)
    heads = [
        h.data @ model.tensors[f"{prefix}.h{k}.wv"].data for k in range(cfg.m)
    ]
    want = np.concatenate(heads, axis=1) @ model.tensors[f"{prefix}.wo"].data
    np.testing.assert_allclose(out.data, want, atol=1e-12)


def test_identical_neighbors_convexity(setup):
    cfg, _, _, model = setup
    prefix = "layer0.tok"
    zeroed(model, [f"{prefix}.ak", f"{prefix}.av"])
    rng = np.random.default_rng(1)
    u = rng.normal(size=cfg.d_h)
    h = Tensor(np.stack([rng.normal(size=cfg.d_h), u, u]))
    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 1] = mask[0, 2] = True  # query 0 sees two identical neighbors
    mask[1, 1] = mask[2, 2] = True
    buckets = np.zeros((3, 3), dtype=np.int64)
    out = gat_attention(h, mask, buckets, model, prefix, 5)
    heads = [u @ model.tensors[f"{prefix}.h{k}.wv"].data for k in range(cfg.m)]
    want = np.concatenate(heads) @ model.tensors[f"{prefix}.wo"].data
    np.testing.assert_allclose(out.data[0], want, atol=1e-12)


def test_attention_rows_suite():
    assert attention_rows_check(trials=10)


def test_dense_oracle_suite():
    assert dense_oracle_check(trials=5) <= 1e-6


def test_single_node_level_function_of_itself(setup):
    cfg, inst, graph, model = setup
    rng = np.random.default_rng(2)
    s1 = Tensor(rng.normal(size=(graph.n_nodes, cfg.d_h)))
    s2 = Tensor(rng.normal(size=(graph.n_nodes, cfg.d_h)))
    doc_row = graph.n_nodes - 1
    sl = graph.level_slice(NodeType.PARAGRAPH)
    if sl.stop - sl.start == 1:
        s2.data[sl.start] = s1.data[sl.start]
        a = self_attention_level(NodeType.PARAGRAPH, s1, graph, model, 0)
        b = self_attention_level(NodeType.PARAGRAPH, s2, graph, model, 0)
        np.testing.assert_array_equal(a.data[sl.start], b.data[sl.start])


def test_document_level_rejected(setup):
    cfg, inst, graph, model = setup
    s = Tensor(np.zeros((graph.n_nodes, cfg.d_h)))
    with pytest.raises(ValueError):
        self_attention_level(NodeType.DOCUMENT, s, graph, model, 0)


def test_self_attention_permutation_equivariance(setup):
    """Permuting paragraph states while buckets stay self-consistent:
    with relational tables zeroed, attention over a fully connected level
    commutes with any permutation of the level's rows."""
    cfg, inst, graph, model = setup
    prefix = "layer0.par"
    zeroed(model, [f"{prefix}.ak", f"{prefix}.av"])
    rng = np.random.default_rng(3)
    sl = graph.level_slice(NodeType.PARAGRAPH)
    n = sl.stop - sl.start
    h = Tensor(rng.normal(size=(n, cfg.d_h)))
    mask = np.ones((n, n), dtype=bool)
    buckets = np.zeros((n, n), dtype=np.int64)
    nb = cfg.clips.level_buckets(NodeType.PARAGRAPH)
    out = gat_attention(h, mask, buckets, model, prefix, nb).data
    perm = rng.permutation(n)
    hp = Tensor(h.data[perm])
    outp = gat_attention(hp, mask, buckets, model, prefix, nb).data
    np.testing.assert_allclose(outp, out[perm], atol=1e-10)


# ---------------------------------------------------------------- integration


def test_integration_zero_weights(setup):
    cfg, inst, graph, model = setup
    prefix = "layer0.integ"
    zeroed(model, [f"{prefix}.wo"])
    rng = np.random.default_rng(4)
    s = Tensor(rng.normal(size=(graph.n_nodes, cfg.d_h)))
    pre, post = graph_integration(s, graph, model, 0)
    assert pre is s
    np.testing.assert_array_equal(post.data, np.zeros_like(post.data))


def test_paragraph_incoming_set(setup):
    cfg, inst, graph, model = setup
    sl = graph.level_slice(NodeType.PARAGRAPH)
    p = sl.start + 1  # a content paragraph
    ci = int(np.where(graph.sent_par >= 0)[0][0])
    incoming = set(np.where(graph.integ_mask[p])[0])
    pi = p - sl.start
    toks = set(np.where(graph.token_par == pi)[0])
    ss = graph.level_slice(NodeType.SENTENCE).start
    sents = {ss + int(s) for s in np.where(graph.sent_par == pi)[0]}
    assert incoming == toks | sents | {p, graph.n_nodes - 1}


def test_self_loops_only_reduces_to_self_transform(setup):
    cfg, inst, graph, model = setup
    rng = np.random.default_rng(5)
    s = Tensor(rng.normal(size=(graph.n_nodes, cfg.d_h)))
    loop_graph = build_graph(inst, clips=cfg.clips)
    nodes = np.arange(graph.n_nodes)
    loop_graph.integ_edges = T.EdgeList(
        nodes, nodes, np.zeros_like(nodes), graph.n_nodes, cfg.clips.integration_buckets()
    )
    _, post = graph_integration(s, loop_graph, model, 0)
    prefix = "layer0.integ"
    ak = model.tensors[f"{prefix}.ak"].data
    av = model.tensors[f"{prefix}.av"].data
    heads = []
    for k in range(cfg.m):
        v = s.data @ model.tensors[f"{prefix}.h{k}.wv"].data
        heads.append(v + av[0])  # alpha = 1 on the self loop, bucket 0
    want = np.concatenate(heads, axis=1) @ model.tensors[f"{prefix}.wo"].data
    np.testing.assert_allclose(post.data, want, atol=1e-10)


# ---------------------------------------------------------------- FFN


def test_ffn_dead_weights(setup):
    cfg, inst, graph, model = setup
    zeroed(model, ["layer0.ffn.w1", "layer0.ffn.w2"])
    rng = np.random.default_rng(6)
    pre = Tensor(rng.normal(size=(5, cfg.d_h)))
    post = Tensor(rng.normal(size=(5, cfg.d_h)))
    out = feed_forward_concat(pre, post, model, 0)
    x = pre.data + model.tensors["layer0.ffn.b2"].data
    mu = x.mean(axis=1, keepdims=True)
    sd = np.sqrt(x.var(axis=1, keepdims=True) + 1e-12)
    want = (x - mu) / sd * model.tensors["layer0.ffn.ln_g"].data + model.tensors[
        "layer0.ffn.ln_b"
    ].data
    np.testing.assert_allclose(out.data, want, atol=1e-10)


def test_ffn_output_width(setup):
    cfg, _, _, model = setup
    pre = Tensor(np.random.default_rng(7).normal(size=(4, cfg.d_h)))
    post = Tensor(np.random.default_rng(8).normal(size=(4, cfg.d_h)))
    assert feed_forward_concat(pre, post, model, 0).shape == (4, cfg.d_h)


def test_ffn_gradient_through_concat(setup):
    cfg, _, _, model = setup
    rng = np.random.default_rng(9)
    pre = Tensor(rng.normal(size=(3, cfg.d_h)), requires_grad=True)
    post = Tensor(rng.normal(size=(3, cfg.d_h)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, cfg.d_h)))

    def f():
        return T.tsum(T.mul(feed_forward_concat(pre, post, model, 0), w))

    with T.precision("extended"):
        assert T.finite_diff_check(f, {"pre": pre, "post": post}) < 2e-3


# ---------------------------------------------------------------- encode


def test_encode_zero_layers_equals_initializer(setup):
    cfg, inst, graph, _ = setup
    model = ModelParams.init(micro_config(n_layers=0), seed=0)
    out = encode(inst, graph, model)
    want = graph_initialize(graph, embed_tokens(inst, model), model)
    np.testing.assert_array_equal(out.data, want.data)


def test_encode_shape_and_determinism(setup):
    cfg, inst, graph, model = setup
    a = encode(inst, graph, model)
    b = encode(inst, graph, model)
    assert a.shape == (graph.n_nodes, cfg.d_h)
    np.testing.assert_array_equal(a.data, b.data)
    assert np.isfinite(a.data).all()


def test_attention_trace_records_all_sublayers(setup):
    cfg, inst, graph, model = setup
    trace = AttentionTrace()
    encode(inst, graph, model, trace=trace)
    subs = {r["sublayer"] for r in trace.records}
    assert subs == {f"layer0.{s}" for s in ("tok", "sent", "par", "integ")}
    assert len(trace.records) == 4 * cfg.m


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_bits(tmp_path, setup):
    cfg, inst, graph, model = setup
    before = encode(inst, graph, model).data
    path = tmp_path / "m.ckpt"
    model.save(path)
    loaded, extra = ModelParams.load(path)
    assert extra == {}
    after = encode(inst, graph, loaded).data
    np.testing.assert_array_equal(before, after)
    for name, t in model.tensors.items():
        assert (t.data == loaded.tensors[name].data).all()


def test_checkpoint_magic(tmp_path, setup):
    _, _, _, model = setup
    path = tmp_path / "m.ckpt"
    model.save(path)
    assert path.read_bytes().startswith(CHECKPOINT_MAGIC)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_extra_arrays_round_trip(tmp_path, setup):
    _, _, _, model = setup
    extra = {"opt.step": np.array([3.0])}
    path = tmp_path / "m.ckpt"
    model.save(path, extra=extra)
    _, back = ModelParams.load(path)
    np.testing.assert_array_equal(back["opt.step"], extra["opt.step"])
