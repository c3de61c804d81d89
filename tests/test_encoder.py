"""Encoder forward pass: embeddings, graph initializer, attention
sublayers, integration, FFN, and checkpointing."""

import json
import re
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

from multigrain import encoder as E
from multigrain import preprocess as P
from multigrain import tensor as T
from multigrain.checks import micro_config, micro_instance
from multigrain.docgraph import NodeType, build_graph, integration_buckets
from multigrain.encoder import (
    CHECKPOINT_MAGIC,
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
    save_checkpoint,
    self_attention_level,
)
from multigrain.tensor import Tensor
from multigrain.train import OptimizerState
from oracles import split_qkv, tsum


@pytest.fixture
def setup():
    cfg = micro_config()
    inst = micro_instance()
    graph = build_graph(inst, cfg.cross_clip)
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
    assert out.shape == (len(inst.tokens), cfg.d_h)


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


def test_embed_rejects_instance_longer_than_max_len(setup):
    cfg, inst, _, model = setup
    inst.tokens = np.resize(inst.tokens, cfg.max_len + 1)
    with pytest.raises(ValueError, match=f"{cfg.max_len + 1} tokens exceeds max_len {cfg.max_len}"):
        embed_tokens(inst, model)


# ---------------------------------------------------------------- initializer


def init_names(model):
    return [n for n in model.tensors if n.startswith("init.")]


def one_token_sentence_graph():
    """[CLS] q [SEP] t [SEP]: the content sentence holds a single token."""
    from tests.test_docgraph import make_instance

    inst = make_instance(n_cands=1, sents_per_cand=1, toks_per_sent=1, q=1)
    return inst, build_graph(inst, micro_config().cross_clip)


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


# ---------------------------------------------------------------- attention


def value_heads(model, prefix, h):
    """Every head's value projection h Wv, heads side by side: the V block
    of the fused wqkv."""
    d = model.config.d_h
    return h @ model.tensors[f"{prefix}.wqkv"].data[:, 2 * d :]


def test_isolated_node_value_projection(setup):
    cfg, _, _, model = setup
    prefix = "layer0.tok"
    zeroed(model, [f"{prefix}.ak", f"{prefix}.av"])
    rng = np.random.default_rng(0)
    h = Tensor(rng.normal(size=(3, cfg.d_h)))
    nodes = np.arange(3)
    edges = T.EdgeList(nodes, nodes, np.zeros(3), 3, 5)  # self-loops only
    out = gat_attention(h, edges.adjacency(), edges, model, prefix)
    want = value_heads(model, prefix, h.data) @ model.tensors[f"{prefix}.wo"].data
    np.testing.assert_allclose(out.data, want, atol=1e-12)


def test_identical_neighbors_convexity(setup):
    cfg, _, _, model = setup
    prefix = "layer0.tok"
    zeroed(model, [f"{prefix}.ak", f"{prefix}.av"])
    rng = np.random.default_rng(1)
    u = rng.normal(size=cfg.d_h)
    h = Tensor(np.stack([rng.normal(size=cfg.d_h), u, u]))
    # query 0 sees two identical neighbors; 1 and 2 see themselves
    edges = T.EdgeList([0, 0, 1, 2], [1, 2, 1, 2], [0, 0, 0, 0], 3, 5)
    out = gat_attention(h, edges.adjacency(), edges, model, prefix)
    want = value_heads(model, prefix, u) @ model.tensors[f"{prefix}.wo"].data
    np.testing.assert_allclose(out.data[0], want, atol=1e-12)


def test_single_node_level_function_of_itself(setup):
    """A one-node level attends only to itself, in the centre bucket c:
    its new row is layer_norm(h + (h Wv + av[c] per head) Wo)."""
    cfg, inst, graph, model = setup
    prefix = "layer0.par"
    h = np.random.default_rng(2).normal(size=(1, cfg.d_h))
    out = self_attention_level(NodeType.PARAGRAPH, Tensor(h), model, 0)
    av = model.tensors[f"{prefix}.av"].data
    heads = value_heads(model, prefix, h) + np.tile(av[cfg.par_clip], cfg.m)
    x = h + heads @ model.tensors[f"{prefix}.wo"].data
    x = (x - x.mean(axis=1, keepdims=True)) / np.sqrt(x.var(axis=1, keepdims=True) + 1e-12)
    want = x * model.tensors[f"{prefix}.ln_g"].data + model.tensors[f"{prefix}.ln_b"].data
    np.testing.assert_allclose(out.data, want, atol=1e-10)


def test_document_level_rejected(setup):
    cfg, inst, graph, model = setup
    s = Tensor(np.zeros((1, cfg.d_h)))
    with pytest.raises(ValueError):
        self_attention_level(NodeType.DOCUMENT, s, model, 0)


def test_self_attention_permutation_equivariance(setup):
    """Permuting paragraph states while buckets stay self-consistent:
    with relational tables zeroed, attention over a fully connected level
    commutes with any permutation of the level's rows, run as a level and
    as the edge list of all pairs."""
    cfg, inst, graph, model = setup
    prefix = "layer0.par"
    zeroed(model, [f"{prefix}.ak", f"{prefix}.av"])
    rng = np.random.default_rng(3)
    sl = graph.level_slice(NodeType.PARAGRAPH)
    n = sl.stop - sl.start
    h = Tensor(rng.normal(size=(n, cfg.d_h)))
    mask = np.ones((n, n), dtype=bool)
    dst, src = np.nonzero(mask)
    nb = 2 * cfg.par_clip + 1
    perm = rng.permutation(n)
    hp = Tensor(h.data[perm])
    for relation in (cfg.par_clip, T.EdgeList(dst, src, np.zeros_like(dst), n, nb)):
        out = gat_attention(h, mask, relation, model, prefix).data
        outp = gat_attention(hp, mask, relation, model, prefix).data
        np.testing.assert_allclose(outp, out[perm], atol=1e-10)


@pytest.mark.parametrize("sub", ["tok", "integ"])
def test_attention_sublayer_records_three_tape_nodes(setup, sub):
    cfg, inst, graph, model = setup
    states = Tensor(np.random.default_rng(10).normal(size=(graph.n_nodes, cfg.d_h)), requires_grad=True)
    if sub == "tok":
        n = graph.n_tokens
        x, mask, relation = T.gather(states, np.arange(n)), np.ones((n, n), bool), cfg.token_clip
    else:
        x, mask, relation = states, graph.integ_mask, graph.integ_edges
    with T.record_tape() as tape:
        gat_attention(x, mask, relation, model, f"layer0.{sub}")
    assert len(tape) == 3  # QKV matmul, fused attention, output matmul


# ---------------------------------------------------------------- integration


def test_integration_zero_weights(setup):
    cfg, inst, graph, model = setup
    prefix = "layer0.integ"
    zeroed(model, [f"{prefix}.wo"])
    rng = np.random.default_rng(4)
    s = Tensor(rng.normal(size=(graph.n_nodes, cfg.d_h)))
    post = graph_integration(s, graph, model, 0)
    np.testing.assert_array_equal(post.data, np.zeros_like(post.data))


def test_paragraph_incoming_set(setup):
    cfg, inst, graph, model = setup
    sl = graph.level_slice(NodeType.PARAGRAPH)
    p = sl.start + 1  # a content paragraph
    ci = int(np.where(graph.sent_par >= 0)[0][0])
    incoming = set(np.where(graph.integ_mask[p])[0])
    pi = p - sl.start
    toks = set(np.where(graph.sent_par[graph.token_sent] == pi)[0])
    ss = graph.level_slice(NodeType.SENTENCE).start
    sents = {ss + int(s) for s in np.where(graph.sent_par == pi)[0]}
    assert incoming == toks | sents | {p, graph.n_nodes - 1}


def test_self_loops_only_reduces_to_self_transform(setup):
    cfg, inst, graph, model = setup
    rng = np.random.default_rng(5)
    s = Tensor(rng.normal(size=(graph.n_nodes, cfg.d_h)))
    loop_graph = build_graph(inst, cfg.cross_clip)
    nodes = np.arange(graph.n_nodes)
    loop_graph.integ_edges = T.EdgeList(
        nodes, nodes, np.zeros_like(nodes), graph.n_nodes, integration_buckets(cfg.cross_clip)
    )
    post = graph_integration(s, loop_graph, model, 0)
    prefix = "layer0.integ"
    av = model.tensors[f"{prefix}.av"].data
    # alpha = 1 on the self loop, bucket 0, in every head
    heads = value_heads(model, prefix, s.data) + np.tile(av[0], cfg.m)
    want = heads @ model.tensors[f"{prefix}.wo"].data
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
        return tsum(T.mul(feed_forward_concat(pre, post, model, 0), w))

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


def test_encoder_layer_records_24_tape_nodes(setup):
    """Per layer: four level rows, five nodes for each of three level
    sublayers (QKV matmul, attention, output matmul, residual add, layer
    norm), one concat of the levels, three for the integration pass and
    one for the FFN."""
    _, inst, graph, _ = setup
    counts = []
    for n_layers in (0, 1):
        model = ModelParams.init(micro_config(n_layers=n_layers), seed=0)
        with T.record_tape() as tape:
            encode(inst, graph, model)
        counts.append(len(tape))
    assert counts[1] - counts[0] == 24


def test_attention_trace_records_all_sublayers(setup):
    cfg, inst, graph, model = setup
    trace = []
    encode(inst, graph, model, trace=trace)
    subs = {r["sublayer"] for r in trace}
    assert subs == {f"layer0.{s}" for s in ("tok", "sent", "par", "integ")}
    assert len(trace) == 4 * cfg.m


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


def test_checkpoint_refuses_other_versions(tmp_path, setup):
    """Only version 2 loads. A file of another version is refused by its
    version number; a malformed magic line is not a checkpoint at all."""
    _, _, _, model = setup
    path = tmp_path / "m.ckpt"
    model.save(path)
    rest = path.read_bytes()[len(CHECKPOINT_MAGIC) :]
    for version in ("1", "3", "10", "02"):
        path.write_bytes(f"MGQA-CKPT-{version}\n".encode() + rest)
        with pytest.raises(ValueError, match=f"version {version} is not supported"):
            load_checkpoint(path)
    for magic in (b"MGQA-CKPT-\n", b"MGQA-CKPT-1x\n", b"MGQA-CKPT-2"):
        path.write_bytes(magic + rest)
        with pytest.raises(ValueError, match="not a checkpoint file"):
            load_checkpoint(path)


def rewrite_header(path, change):
    """Replace the JSON header line of the checkpoint at `path` by
    change(header); the payload is kept as it is."""
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    header = json.dumps(change(json.loads(header))).encode()
    path.write_bytes(magic + b"\n" + header + b"\n" + payload)


def without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize("change, message", [
    (lambda h: without(h, "crc32"), "checkpoint header lacks 'crc32'"),
    (lambda h: without(h, "params"), "checkpoint header lacks 'params'"),
    (lambda h: without(h, "config"), "checkpoint header lacks 'config'"),
    (lambda h: [h], "checkpoint header is not a JSON object"),
    (lambda h: dict(h, params=5), "checkpoint params is not a list"),
    (lambda h: dict(h, params=[without(h["params"][0], "name")]), "checkpoint params is not a list"),
    (lambda h: dict(h, params=[dict(h["params"][0], shape=["a"])]), "checkpoint params is not a list"),
    (lambda h: dict(h, params=[dict(h["params"][0], shape=[-1, 8])]), "checkpoint params is not a list"),
    (lambda h: dict(h, config=[]), "checkpoint config is not a JSON object"),
    (lambda h: dict(h, config=dict(h["config"], colour=1)), "unknown key 'colour'"),
    (lambda h: dict(h, config=without(h["config"], "dropout")), "checkpoint config lacks 'dropout'"),
    (lambda h: dict(h, config=without(h["config"], "d_h")), "checkpoint config lacks 'd_h'"),
    (lambda h: dict(h, config=dict(h["config"], d_h=32.5)), "checkpoint config: d_h must be an int, not 32.5"),
    (lambda h: dict(h, config=dict(h["config"], n_layers=True)),
     "checkpoint config: n_layers must be an int, not True"),
    (lambda h: dict(h, params=[h["params"][0], dict(h["params"][1], name=h["params"][0]["name"])]
                    + h["params"][2:]), "checkpoint params list 'emb.token' more than once"),
])
def test_checkpoint_refuses_malformed_header(tmp_path, setup, change, message):
    """A version-2 header that lacks a key, is not an object, lists a
    name twice, or whose config keys differ from EncoderConfig's fields or
    hold a value its declarations refuse is refused with a ValueError
    naming the file and the key; nothing is filled in or converted."""
    _, _, _, model = setup
    path = tmp_path / "m.ckpt"
    model.save(path)
    rewrite_header(path, change)
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value) and message in str(exc.value)


def test_optimizer_state_refuses_params_only_checkpoint(tmp_path, setup):
    _, _, _, model = setup
    path = tmp_path / "m.ckpt"
    model.save(path)
    loaded, extra = ModelParams.load(path)
    with pytest.raises(ValueError, match="'opt.step' is missing"):
        OptimizerState.from_arrays(loaded, extra)
    state = OptimizerState.init(model).to_arrays()
    del state["opt.v.head.type.b"]
    with pytest.raises(ValueError, match="'opt.v.head.type.b' is missing"):
        OptimizerState.from_arrays(loaded, state)


@pytest.mark.parametrize("key, value", [
    ("opt.m.layer0.ffn.w1", np.zeros(1)),
    ("opt.v.emb.token", np.zeros((16, 7))),
    ("opt.step", np.array([-1.0])),
    ("opt.step", np.array([2.5])),
    ("opt.step", np.array([np.nan])),
    ("opt.step", np.array([np.inf])),
    ("opt.step", np.array([1.0, 2.0])),
    ("opt.step", np.array(3.0)),
])
def test_optimizer_state_refuses_malformed_arrays(setup, key, value):
    """A moment whose shape is not its parameter's (Adam would broadcast
    it), or an `opt.step` that is not one non-negative integer, is refused
    with a ValueError naming the array."""
    _, _, _, model = setup
    arrays = dict(OptimizerState.init(model).to_arrays(), **{key: value})
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        OptimizerState.from_arrays(model, arrays)


def test_checkpoint_extra_arrays_round_trip(tmp_path, setup):
    _, _, _, model = setup
    extra = {"opt.step": np.array([3.0])}
    path = tmp_path / "m.ckpt"
    model.save(path, extra=extra)
    _, back = ModelParams.load(path)
    np.testing.assert_array_equal(back["opt.step"], extra["opt.step"])


def test_init_draws_match_per_head_order():
    """The fused init is one draw in the order of the former per-head
    wq, wk, wv tensors, so a fresh model keeps the same numbers."""
    cfg = micro_config()
    model = ModelParams.init(cfg, seed=4, scale=0.1)
    rng = np.random.default_rng(4)
    for name, shape in param_shapes(cfg).items():
        data = model.tensors[name].data
        if name.endswith(".wqkv"):
            want = [[rng.normal(0.0, 0.1, size=(cfg.d_h, cfg.d_z)) for _ in "qkv"] for _ in range(cfg.m)]
            np.testing.assert_array_equal(split_qkv(data, cfg.m), want)
        elif not name.endswith(("ln_g", ".b", "ln_b", ".b1", ".b2")):  # no draw for norms and biases
            np.testing.assert_array_equal(data, rng.normal(0.0, 0.1, size=shape))


def test_init_keeps_the_working_dtype():
    """Under extended precision, init's parameters and their buffers are
    longdouble and hold the standard draws exactly, so the gradient audit
    checks and accumulates in the extended dtype."""
    standard = ModelParams.init(micro_config(), seed=3)
    with T.precision("extended"):
        model = ModelParams.init(micro_config(), seed=3)
    assert model.flat.dtype == model.grad.dtype == np.longdouble
    assert all(t.data.dtype == np.longdouble for t in model.tensors.values())
    np.testing.assert_array_equal(model.flat, standard.flat.astype(np.longdouble))
    assert model.stray_view() is None


class FailingFile:
    """A file whose writes raise once `limit` bytes are written."""

    def __init__(self, fh, limit):
        self.fh, self.limit = fh, limit

    def write(self, data):
        if self.fh.tell() + len(data) > self.limit:
            raise OSError("disk full")
        return self.fh.write(data)

    def writelines(self, parts):
        for part in parts:
            self.write(part)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_failed_checkpoint_write_keeps_previous(tmp_path, setup, monkeypatch):
    cfg, inst, graph, model = setup
    path = tmp_path / "m.ckpt"
    model.save(path)
    before = path.read_bytes()
    size = len(before)
    changed = {k: t.data + 1.0 for k, t in model.tensors.items()}
    # the checkpoint is written through `preprocess.whole_file`, which opens the file
    monkeypatch.setattr(P, "open", lambda p, mode, **kw: FailingFile(open(p, mode, **kw), size // 2), raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, cfg, changed)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
    loaded, _ = ModelParams.load(path)
    np.testing.assert_array_equal(encode(inst, graph, loaded).data, encode(inst, graph, model).data)


def v2_bytes(cfg, arrays):
    """A version-2 file as written one entry at a time: magic, header with
    the chained CRC32 of the entries, then each entry's little-endian f8."""
    payload = [np.ascontiguousarray(v, dtype="<f8").tobytes() for v in arrays.values()]
    crc = 0
    for buf in payload:
        crc = zlib.crc32(buf, crc)
    header = {
        "version": 2,
        "config": asdict(cfg),
        "params": [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()],
        "crc32": crc,
    }
    return CHECKPOINT_MAGIC + (json.dumps(header) + "\n").encode("utf-8") + b"".join(payload)


def test_checkpoint_snapshot_ignores_later_in_place_changes(tmp_path, setup):
    """With an executor, the arrays are copied before save_checkpoint
    returns: changing them in place while the write waits in the queue
    does not reach the file, which holds the same bytes as a synchronous
    save and as the entry-by-entry format."""
    cfg, _, _, model = setup
    arrays = {k: t.data.copy() for k, t in model.tensors.items()}
    arrays["opt.step"] = np.array([3.0])
    want = v2_bytes(cfg, arrays)
    save_checkpoint(tmp_path / "sync.ckpt", cfg, arrays)
    gate = threading.Event()
    with ThreadPoolExecutor(max_workers=1) as pool:
        blocker = pool.submit(gate.wait, 10)
        future = save_checkpoint(tmp_path / "async.ckpt", cfg, arrays, executor=pool)
        for v in arrays.values():
            v += 1.0
        gate.set()
        assert blocker.result(timeout=10) is True
        assert future.result(timeout=10) is None
    assert (tmp_path / "sync.ckpt").read_bytes() == want
    assert (tmp_path / "async.ckpt").read_bytes() == want


def test_checkpoint_refuses_flipped_or_truncated_payload(tmp_path, setup):
    _, _, _, model = setup
    path = tmp_path / "m.ckpt"
    model.save(path)
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum"):
        load_checkpoint(path)
    path.write_bytes(bytes(raw[:-8]))
    with pytest.raises(ValueError, match="payload"):
        load_checkpoint(path)


def test_a_trace_leaves_the_encode_it_records_alone(monkeypatch):
    """On a 512-token instance with the default `EncoderConfig`, a traced
    encode equals the untraced one bit for bit, and with two CPUs the
    traced token level runs its heads in two groups, as the untraced one
    does: the trace list picks neither the softmax route nor the split."""
    from multigrain.synthgen import CorpusSpec, build_vocab, generate_corpus

    spec = CorpusSpec(n_docs=1, par_min=15, par_max=16, sent_min=4, sent_max=4, tok_min=8, tok_max=12)
    vocab = build_vocab(spec)
    inst = P.preprocess_examples(generate_corpus(spec)[0], vocab, P.PreprocessConfig(keep_prob=1.0))[0]
    assert len(inst.tokens) == 512
    model = ModelParams.init(EncoderConfig(vocab_size=len(vocab)), seed=0)
    graph = build_graph(inst, model.config.cross_clip)
    token_groups, side_by_side = [], T._side_by_side

    def spy(fn, count, *args):
        if fn.__qualname__ == "relative_attention.<locals>.forward" and args[0].shape[1] == len(inst.tokens):
            token_groups.append(count)
        return side_by_side(fn, count, *args)

    monkeypatch.setattr(T, "_cpus", lambda: 2)
    monkeypatch.setattr(T, "_side_by_side", spy)
    plain = encode(inst, graph, model).data
    assert token_groups == [2] * model.config.n_layers
    token_groups.clear()
    trace = []
    traced = encode(inst, graph, model, trace=trace).data
    assert token_groups == [2] * model.config.n_layers
    assert trace and traced.tobytes() == plain.tobytes()
