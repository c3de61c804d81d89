"""Graph encoder: initialization plus stacked attention layers.

One encoder layer = token/sentence/paragraph self-attention (each over a
fully connected same-level graph with relative-distance buckets, dense),
one graph-integration pass over the cross-level edge list (sparse: only
edges are scored), then a feed-forward
block applied to the concatenation of the integration input and output.
Relational embeddings enter the attention on both the key and value side.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import tensor as T
from .docgraph import ClipConfig, HierGraph, NodeType
from .preprocess import TrainingInstance
from .tensor import Tensor

CHECKPOINT_MAGIC = b"MGQA-CKPT-1\n"


@dataclass
class EncoderConfig:
    d_h: int = 64
    m: int = 4                   # attention heads
    n_layers: int = 2
    d_ff: int = 256
    dropout: float = 0.0
    vocab_size: int = 1024
    max_len: int = 512
    token_clip: int = 16
    sent_clip: int = 8
    par_clip: int = 8
    cross_clip: int = 32
    integrate_per_sublayer: bool = False
    type_score_agg: str = "lse"  # "lse" | "max" over positive-type logits
    max_answer_tokens: int = 30

    def __post_init__(self):
        if self.d_h % self.m != 0:
            raise ValueError(f"d_h {self.d_h} not divisible by head count {self.m}")
        if self.n_layers < 0:
            raise ValueError("n_layers must be >= 0")
        if self.d_ff < self.d_h:
            raise ValueError("d_ff must be >= d_h")

    @property
    def d_z(self) -> int:
        return self.d_h // self.m

    @property
    def clips(self) -> ClipConfig:
        return ClipConfig(self.token_clip, self.sent_clip, self.par_clip, self.cross_clip)


SUBLAYERS = ("tok", "sent", "par", "integ")
_LEVEL_OF = {"tok": NodeType.TOKEN, "sent": NodeType.SENTENCE, "par": NodeType.PARAGRAPH}


def param_shapes(cfg: EncoderConfig) -> dict[str, tuple]:
    """Every parameter tensor of the model, by name."""
    d, dz, cc = cfg.d_h, cfg.d_z, cfg.cross_clip
    clips = cfg.clips
    shapes: dict[str, tuple] = {
        "emb.token": (cfg.vocab_size, d),
        "emb.pos": (cfg.max_len, d),
        "init.rel.sentence": (cc + 1, d),
        "init.rel.paragraph": (cc + 1, d),
        "init.rel.document": (cc + 1, d),
        "init.type": (4, d),
    }
    for i in range(cfg.n_layers):
        for sub in SUBLAYERS:
            p = f"layer{i}.{sub}"
            if sub == "integ":
                buckets = clips.integration_buckets()
            else:
                buckets = clips.level_buckets(_LEVEL_OF[sub])
            for k in range(cfg.m):
                shapes[f"{p}.h{k}.wq"] = (d, dz)
                shapes[f"{p}.h{k}.wk"] = (d, dz)
                shapes[f"{p}.h{k}.wv"] = (d, dz)
            shapes[f"{p}.ak"] = (buckets, dz)
            shapes[f"{p}.av"] = (buckets, dz)
            shapes[f"{p}.wo"] = (d, d)
            if sub != "integ":  # integration output feeds the FFN, no own norm
                shapes[f"{p}.ln_g"] = (d,)
                shapes[f"{p}.ln_b"] = (d,)
        shapes[f"layer{i}.ffn.w1"] = (2 * d, cfg.d_ff)
        shapes[f"layer{i}.ffn.b1"] = (cfg.d_ff,)
        shapes[f"layer{i}.ffn.w2"] = (cfg.d_ff, d)
        shapes[f"layer{i}.ffn.b2"] = (d,)
        shapes[f"layer{i}.ffn.ln_g"] = (d,)
        shapes[f"layer{i}.ffn.ln_b"] = (d,)
    # output heads
    shapes["head.start.w"] = (d, 1)
    shapes["head.start.b"] = (1,)
    shapes["head.end.w"] = (d, 1)
    shapes["head.end.b"] = (1,)
    shapes["head.long.w"] = (d, 1)
    shapes["head.long.b"] = (1,)
    shapes["head.type.w"] = (d, 5)
    shapes["head.type.b"] = (5,)
    return shapes


@dataclass
class ModelParams:
    config: EncoderConfig
    tensors: dict[str, Tensor]

    @classmethod
    def init(cls, cfg: EncoderConfig, seed: int = 0, scale: float = 0.02) -> "ModelParams":
        rng = np.random.default_rng(seed)
        tensors = {}
        for name, shape in param_shapes(cfg).items():
            if name.endswith("ln_g"):
                data = np.ones(shape)
            elif name.endswith((".b", "ln_b", ".b1", ".b2")):
                data = np.zeros(shape)
            else:
                data = rng.normal(0.0, scale, size=shape)
            tensors[name] = Tensor(data, requires_grad=True)
        return cls(cfg, tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def save(self, path, extra: Optional[dict[str, np.ndarray]] = None):
        save_checkpoint(path, self.config, {k: v.data for k, v in self.tensors.items()}, extra)

    @classmethod
    def load(cls, path) -> tuple["ModelParams", dict[str, np.ndarray]]:
        cfg, arrays = load_checkpoint(path)
        expected = param_shapes(cfg)
        tensors = {}
        extra = {}
        for name, arr in arrays.items():
            if name in expected:
                if tuple(arr.shape) != tuple(expected[name]):
                    raise ValueError(
                        f"checkpoint shape mismatch for {name}: {arr.shape} vs {expected[name]}"
                    )
                tensors[name] = Tensor(arr, requires_grad=True)
            else:
                extra[name] = arr
        missing = set(expected) - set(tensors)
        if missing:
            raise ValueError(f"checkpoint missing parameters: {sorted(missing)[:5]}")
        return cls(cfg, tensors), extra


def save_checkpoint(path, cfg: EncoderConfig, arrays: dict[str, np.ndarray],
                    extra: Optional[dict[str, np.ndarray]] = None):
    """Versioned container: magic, JSON header, then raw little-endian f8."""
    entries = dict(arrays)
    if extra:
        entries.update(extra)
    header = {
        "version": 1,
        "config": asdict(cfg),
        "params": [{"name": k, "shape": list(v.shape)} for k, v in entries.items()],
    }
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        for v in entries.values():
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[EncoderConfig, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        header = json.loads(fh.readline().decode("utf-8"))
        cfg = EncoderConfig(**header["config"])
        arrays = {}
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            n = int(np.prod(shape)) if shape else 1
            buf = fh.read(n * 8)
            if len(buf) != n * 8:
                raise ValueError(f"{path}: truncated data for {entry['name']}")
            arrays[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    return cfg, arrays


# ------------------------------------------------------------------ traces


class AttentionTrace:
    """Debug capture of raw coefficients, attention rows and head outputs."""

    def __init__(self):
        self.records: list[dict] = []

    def add(self, sublayer: str, head: int, e, alpha, z):
        self.records.append(
            {"sublayer": sublayer, "head": head, "e": e, "alpha": alpha, "z": z}
        )


# ----------------------------------------------------------------- forward


def embed_tokens(instance: TrainingInstance, params: ModelParams) -> Tensor:
    """Token states: embedding[id] + position[index], real tokens only."""
    positions = np.where(instance.mask)[0]
    ids = instance.tokens[positions]
    if (ids < 0).any() or (ids >= params.config.vocab_size).any():
        raise ValueError("token id out of embedding range")
    tok = T.gather(params["emb.token"], ids)
    pos = T.gather(params["emb.pos"], positions)
    return tok + pos


def graph_initialize(graph: HierGraph, token_states: Tensor, params: ModelParams) -> Tensor:
    """Bottom-up averaging: each parent is the mean of its children plus
    the child-ordinal relational embedding, plus the node-type embedding."""
    cc = params.config.cross_clip
    levels = [
        ("sentence", graph.token_sent, graph.n_sents, graph.tok_ord, 1),
        ("paragraph", graph.sent_par, graph.n_pars, graph.sent_ord, 2),
        ("document", np.zeros(graph.n_pars, dtype=np.int64), 1, graph.par_ord, 3),
    ]
    states = [token_states]
    child = token_states
    for name, containment, n_parents, ordinals, type_id in levels:
        rel = T.gather(params[f"init.rel.{name}"], np.minimum(ordinals, cc))
        mean_mat = Tensor(graph.mean_matrix(containment, n_parents))
        pooled = T.matmul(mean_mat, child + rel)
        parent = pooled + T.gather(params["init.type"], np.array([type_id]))
        states.append(parent)
        child = parent
    return T.concat(states, axis=0)


def gat_attention(
    states: Tensor,
    mask: np.ndarray,
    buckets,
    params: ModelParams,
    prefix: str,
    n_buckets: int,
    trace: Optional[AttentionTrace] = None,
) -> Tensor:
    """Multi-head graph attention with relational key/value embeddings.

    e_ij = [(h_i Wq)(h_j Wk)^T + (h_i Wq)(ak[b_ij])^T] / sqrt(d_z)
    z_i  = sum_j alpha_ij (h_j Wv + av[b_ij]), heads concatenated and
    output-projected back to d_h.

    `buckets` is either a dense (n, n) bucket matrix, attended under the
    boolean `mask`, or an `EdgeList` holding the mask's edges with their
    buckets, in which case only the edges are scored (`mask` then only
    describes the graph; a trace still records dense e and alpha).
    """
    cfg = params.config
    n = states.shape[0]
    inv_sqrt = 1.0 / math.sqrt(cfg.d_z)
    ak = params[f"{prefix}.ak"]
    av = params[f"{prefix}.av"]
    edges = buckets if isinstance(buckets, T.EdgeList) else None
    if edges is None:
        rows = np.arange(n)[:, None]
        plan = T.pair_plan(rows, buckets, (n, n_buckets))
    heads = []
    for k in range(cfg.m):
        q = T.matmul(states, params[f"{prefix}.h{k}.wq"])
        key = T.matmul(states, params[f"{prefix}.h{k}.wk"])
        val = T.matmul(states, params[f"{prefix}.h{k}.wv"])
        if edges is not None:
            e = T.edge_scores(q, key, ak, edges) * inv_sqrt
            alpha = T.segment_softmax(e, edges)
            z = T.edge_aggregate(alpha, val, av, edges)
        else:
            content = T.matmul(q, T.transpose(key))
            rel = T.take_pairs(T.matmul(q, T.transpose(ak)), rows, buckets, plan)
            e = (content + rel) * inv_sqrt
            alpha = T.masked_softmax(e, mask, axis=1)
            z = T.matmul(alpha, val) + T.matmul(T.bucket_sum(alpha, buckets, n_buckets, plan), av)
        if trace is not None:
            if edges is None:
                e_rec, alpha_rec = e.data.copy(), alpha.data.copy()
            else:  # scatter to dense: off-edge cells get e = -inf, alpha = 0
                e_rec = np.full((n, n), -np.inf, dtype=e.data.dtype)
                alpha_rec = np.zeros((n, n), dtype=alpha.data.dtype)
                e_rec[edges.dst, edges.src] = e.data
                alpha_rec[edges.dst, edges.src] = alpha.data
            trace.add(prefix, k, e_rec, alpha_rec, z.data.copy())
        heads.append(z)
    zc = T.concat(heads, axis=1)
    return T.matmul(zc, params[f"{prefix}.wo"])


def self_attention_level(
    level: NodeType,
    states: Tensor,
    graph: HierGraph,
    params: ModelParams,
    layer: int,
    rng: Optional[np.random.Generator] = None,
    trace: Optional[AttentionTrace] = None,
) -> Tensor:
    """Fully connected same-level attention; residual + layer norm on the
    level's rows only."""
    if level == NodeType.DOCUMENT:
        raise ValueError("the document level has no self-attention sublayer")
    sub = {NodeType.TOKEN: "tok", NodeType.SENTENCE: "sent", NodeType.PARAGRAPH: "par"}[level]
    prefix = f"layer{layer}.{sub}"
    cfg = params.config
    sl = graph.level_slice(level)
    n_level = sl.stop - sl.start
    block = T.gather(states, np.arange(sl.start, sl.stop))
    buckets = graph.level_bucket_mats[level]
    full = np.ones((n_level, n_level), dtype=bool)
    att = gat_attention(
        block, full, buckets, params, prefix, cfg.clips.level_buckets(level), trace
    )
    att = T.dropout(att, cfg.dropout, rng)
    updated = T.layer_norm(block + att, params[f"{prefix}.ln_g"], params[f"{prefix}.ln_b"])
    before = T.gather(states, np.arange(0, sl.start))
    after = T.gather(states, np.arange(sl.stop, graph.n_nodes))
    return T.concat([before, updated, after], axis=0)


def graph_integration(
    states: Tensor,
    graph: HierGraph,
    params: ModelParams,
    layer: int,
    rng: Optional[np.random.Generator] = None,
    trace: Optional[AttentionTrace] = None,
) -> tuple[Tensor, Tensor]:
    """Cross-level attention pass; returns (input, attended) for the concat."""
    cfg = params.config
    post = gat_attention(
        states,
        graph.integ_mask,
        graph.integ_edges,
        params,
        f"layer{layer}.integ",
        cfg.clips.integration_buckets(),
        trace,
    )
    post = T.dropout(post, cfg.dropout, rng)
    return states, post


def feed_forward_concat(
    pre: Tensor,
    post: Tensor,
    params: ModelParams,
    layer: int,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """FFN over [pre || post] with gelu; residual from pre, then layer norm."""
    if pre.shape != post.shape:
        raise T.ShapeMismatchError(f"pre/post shapes differ: {pre.shape} vs {post.shape}")
    cfg = params.config
    p = f"layer{layer}.ffn"
    x = T.concat([pre, post], axis=1)
    h = T.gelu(T.matmul(x, params[f"{p}.w1"]) + params[f"{p}.b1"])
    h = T.dropout(h, cfg.dropout, rng)
    y = T.matmul(h, params[f"{p}.w2"]) + params[f"{p}.b2"]
    return T.layer_norm(pre + y, params[f"{p}.ln_g"], params[f"{p}.ln_b"])


def encode(
    instance: TrainingInstance,
    graph: HierGraph,
    params: ModelParams,
    rng: Optional[np.random.Generator] = None,
    trace: Optional[AttentionTrace] = None,
) -> Tensor:
    """Full forward pass; n_layers == 0 returns the initializer output."""
    cfg = params.config
    states = graph_initialize(graph, embed_tokens(instance, params), params)
    levels = (NodeType.TOKEN, NodeType.SENTENCE, NodeType.PARAGRAPH)
    for layer in range(cfg.n_layers):
        if cfg.integrate_per_sublayer:
            for level in levels:
                states = self_attention_level(level, states, graph, params, layer, rng, trace)
                pre, post = graph_integration(states, graph, params, layer, rng, trace)
                states = feed_forward_concat(pre, post, params, layer, rng)
        else:
            for level in levels:
                states = self_attention_level(level, states, graph, params, layer, rng, trace)
            pre, post = graph_integration(states, graph, params, layer, rng, trace)
            states = feed_forward_concat(pre, post, params, layer, rng)
    return states
