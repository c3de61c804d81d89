"""Graph encoder: initialization plus stacked attention layers.

One encoder layer = token/sentence/paragraph self-attention (each over a
fully connected same-level graph with clipped relative-distance
buckets), one graph-integration pass over the cross-level edge list
(sparse: only edges are scored), then a feed-forward block applied to the
concatenation of the integration input and output. Within a layer the
node states are held per level: each level's self-attention reads and
writes only its own (n_level, d) tensor, and the four levels are
concatenated once, for the integration pass. Relational embeddings
enter the attention on both the key and value side. Each attention
sublayer is one fused QKV matmul, one batched-head attention op and one
output matmul; the feed-forward block is one fused op.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from collections import Counter
from concurrent.futures import Executor, Future
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import tensor as T
from .config import bounded, check_fields
from .docgraph import HierGraph, NodeType, integration_buckets
from .preprocess import TrainingInstance, whole_file
from .tensor import Tensor

_MAGIC_PREFIX = b"MGQA-CKPT-"
CHECKPOINT_MAGIC = _MAGIC_PREFIX + b"2\n"


@dataclass
class EncoderConfig:
    d_h: int = bounded(64, 1)
    m: int = bounded(4, 1)  # attention heads
    n_layers: int = bounded(2, 0)
    d_ff: int = bounded(256, 1)
    dropout: float = bounded(0.0, 0, below=1)
    vocab_size: int = bounded(1024, 1)
    max_len: int = bounded(512, 1)
    token_clip: int = bounded(16, 0)
    sent_clip: int = bounded(8, 0)
    par_clip: int = bounded(8, 0)
    cross_clip: int = bounded(32, 0)
    max_answer_tokens: int = bounded(30, 1)

    def __post_init__(self):
        check_fields(self)
        if self.d_h % self.m != 0:
            raise ValueError(f"d_h {self.d_h} is not a multiple of m {self.m}")
        if self.d_ff < self.d_h:
            raise ValueError(f"d_ff {self.d_ff} is below d_h {self.d_h}")

    @property
    def d_z(self) -> int:
        return self.d_h // self.m

    def level_clip(self, level: NodeType) -> int:
        """The relative-position clip of a level's self-attention."""
        return (self.token_clip, self.sent_clip, self.par_clip)[level]


# Parameter prefixes, indexed by NodeType: SUBLAYERS[level] is a level's
# self-attention; the document has none, and its slot names the
# integration pass.
SUBLAYERS = ("tok", "sent", "par", "integ")


def param_shapes(cfg: EncoderConfig) -> dict[str, tuple]:
    """Every parameter tensor of the model, by name."""
    d, dz, cc = cfg.d_h, cfg.d_z, cfg.cross_clip
    shapes: dict[str, tuple] = {
        "emb.token": (cfg.vocab_size, d),
        "emb.pos": (cfg.max_len, d),
        "init.rel.sentence": (cc + 1, d),
        "init.rel.paragraph": (cc + 1, d),
        "init.rel.document": (cc + 1, d),
        "init.type": (4, d),
    }
    for i in range(cfg.n_layers):
        for level, sub in zip(NodeType, SUBLAYERS):
            p = f"layer{i}.{sub}"
            if level == NodeType.DOCUMENT:
                buckets = integration_buckets(cc)
            else:
                buckets = 2 * cfg.level_clip(level) + 1
            shapes[f"{p}.wqkv"] = (d, 3 * d)
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
    for head, width in (("start", 1), ("end", 1), ("long", 1), ("type", 5)):  # output heads
        shapes[f"head.{head}.w"], shapes[f"head.{head}.b"] = (d, width), (width,)
    return shapes


def fuse_qkv(per_head: np.ndarray) -> np.ndarray:
    """(m, 3, d, d_z) per-head [wq, wk, wv] -> one (d, 3d) `wqkv` whose
    columns are [Q heads | K heads | V heads], head k at columns
    k d_z..(k + 1) d_z of each block."""
    m, three, d, dz = per_head.shape
    return per_head.transpose(2, 1, 0, 3).reshape(d, three * m * dz)


def split(buffer: np.ndarray, layout) -> dict[str, np.ndarray]:
    """Views of `buffer` by name, one per (name, shape) of `layout`, in order."""
    ends = np.cumsum([math.prod(shape) for _, shape in layout])
    return {name: part.reshape(shape)
            for (name, shape), part in zip(layout, np.split(buffer, ends[:-1]))}


@dataclass
class ModelParams:
    """The tensors by name. The constructor copies their values into one
    buffer, `flat`, and makes each `.data` and `.grad` a view of `flat` and
    of one gradient buffer, `grad`, back to back in `layout` order."""

    config: EncoderConfig
    tensors: dict[str, Tensor]

    def __post_init__(self):
        self.layout = tuple((name, t.shape) for name, t in self.tensors.items())
        self.flat = np.concatenate([t.data.ravel() for t in self.tensors.values()])
        self.grad = np.zeros(self.flat.shape, self.flat.dtype)  # calloc: pages fault on first use
        views = zip(split(self.flat, self.layout).values(), split(self.grad, self.layout).values())
        for t, (data, grad) in zip(self.tensors.values(), views):
            t.data, t.grad = data, grad

    @classmethod
    def init(cls, cfg: EncoderConfig, seed: int = 0, scale: float = 0.02) -> "ModelParams":
        rng = np.random.default_rng(seed)
        tensors = {}
        for name, shape in param_shapes(cfg).items():
            if name.endswith("ln_g"):
                data = np.ones(shape)
            elif name.endswith((".b", "ln_b", ".b1", ".b2")):
                data = np.zeros(shape)
            elif name.endswith(".wqkv"):
                # one draw, in the order of the former per-head wq, wk, wv
                data = fuse_qkv(rng.normal(0.0, scale, size=(cfg.m, 3, cfg.d_h, cfg.d_z)))
            else:
                data = rng.normal(0.0, scale, size=shape)
            tensors[name] = Tensor(data, requires_grad=True)
        return cls(cfg, tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def stray_view(self) -> Optional[str]:
        """The first tensor whose `.data` or `.grad` no longer views the buffers."""
        return next((name for name, t in self.tensors.items()
                     if getattr(t.data, "base", None) is not self.flat
                     or getattr(t.grad, "base", None) is not self.grad), None)

    def save(self, path, extra: Optional[dict[str, np.ndarray]] = None,
             executor: Optional[Executor] = None) -> Optional[Future]:
        return save_checkpoint(path, self.config, split(self.flat, self.layout), extra, executor)

    @classmethod
    def load(cls, path) -> tuple["ModelParams", dict[str, np.ndarray]]:
        """The parameters in `param_shapes` order, and the other arrays."""
        cfg, arrays = load_checkpoint(path)
        expected = param_shapes(cfg)
        missing = [name for name in expected if name not in arrays]
        if missing:
            raise ValueError(f"checkpoint missing parameters: {missing[:5]}")
        tensors = {}
        for name, shape in expected.items():
            arr = arrays.pop(name)
            if arr.shape != tuple(shape):
                raise ValueError(f"checkpoint shape mismatch for {name}: {arr.shape} vs {shape}")
            tensors[name] = Tensor(arr, requires_grad=True)
        return cls(cfg, tensors), arrays


def save_checkpoint(path, cfg: EncoderConfig, arrays: dict[str, np.ndarray],
                    extra: Optional[dict[str, np.ndarray]] = None,
                    executor: Optional[Executor] = None) -> Optional[Future]:
    """Versioned container: magic, JSON header, then raw little-endian f8.

    The header holds the payload's CRC32. The file is written next to the
    target under a temporary name, synced to disk and renamed over the
    target, so a write that fails part-way leaves the previous file whole.

    The arrays are concatenated into one buffer here, so later in-place
    changes do not reach the file. Without an `executor` the write runs
    here too and None is returned; with one, the CRC, write, sync and
    rename run on it and its future is returned, which raises what the
    write raised.
    """
    entries = dict(arrays)
    if extra:
        entries.update(extra)
    payload = np.concatenate([np.ravel(v) for v in entries.values()], dtype="<f8")
    header = {
        "version": 2,
        "config": asdict(cfg),
        "params": [{"name": k, "shape": list(v.shape)} for k, v in entries.items()],
    }
    path = os.fspath(path)
    if executor is None:
        _write_checkpoint(path, header, payload)
        return None
    return executor.submit(_write_checkpoint, path, header, payload)


def _write_checkpoint(path: str, header: dict, payload: np.ndarray):
    """Checksum `payload` into `header`, then write both atomically to `path`."""
    header["crc32"] = zlib.crc32(payload)
    with whole_file(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        fh.write(payload.view(np.uint8))  # a byte view: len() counts bytes
        fh.flush()
        os.fsync(fh.fileno())  # only checkpoints are synced


def _check_header(path, header) -> None:
    """Raise ValueError, naming `path` and the key, unless `header` is an
    object with `config`, `params` and `crc32`, each params entry has a
    name of its own and a shape of non-negative integers, and the config
    has exactly EncoderConfig's fields."""
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    for key in ("config", "params", "crc32"):
        if key not in header:
            raise ValueError(f"{path}: checkpoint header lacks {key!r}")
    params = header["params"]
    if not isinstance(params, list) or not all(
            isinstance(e, dict) and isinstance(e.get("name"), str) and isinstance(e.get("shape"), list)
            and all(isinstance(d, int) and d >= 0 for d in e["shape"]) for e in params):
        raise ValueError(f"{path}: checkpoint params is not a list of names with integer shapes")
    twice = [name for name, n in Counter(e["name"] for e in params).items() if n > 1]
    if twice:
        raise ValueError(f"{path}: checkpoint params list {twice[0]!r} more than once")
    config = header["config"]
    if not isinstance(config, dict):
        raise ValueError(f"{path}: checkpoint config is not a JSON object")
    names = {f.name for f in fields(EncoderConfig)}
    unknown, missing = sorted(set(config) - names), sorted(names - set(config))
    if unknown:
        raise ValueError(f"{path}: checkpoint config has unknown key {unknown[0]!r}")
    if missing:
        raise ValueError(f"{path}: checkpoint config lacks {missing[0]!r}")


def load_checkpoint(path) -> tuple[EncoderConfig, dict[str, np.ndarray]]:
    """Read a version-2 checkpoint; its arrays view one copy of the payload.
    ValueError, naming the path, for a file of any other version, a header
    that lacks a key or lists a name twice, a config whose keys are not
    EncoderConfig's fields or that it refuses, a truncated file, or a bad checksum."""
    with open(path, "rb") as fh:
        magic = fh.readline(64)
        if magic != CHECKPOINT_MAGIC:
            version = magic[len(_MAGIC_PREFIX) : -1]
            if magic.startswith(_MAGIC_PREFIX) and magic.endswith(b"\n") and version.isdigit():
                raise ValueError(f"{path}: checkpoint version {version.decode()} is not supported, "
                                 f"only version 2")
            raise ValueError(f"{path}: not a checkpoint file")
        header = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    _check_header(path, header)
    layout = [(entry["name"], tuple(entry["shape"])) for entry in header["params"]]
    size = 8 * sum(math.prod(shape) for _, shape in layout)
    if len(payload) != size:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, the header lists {size}")
    if zlib.crc32(payload) != header["crc32"]:
        raise ValueError(f"{path}: payload checksum mismatch")
    try:
        config = EncoderConfig(**header["config"])
    except ValueError as exc:
        raise ValueError(f"{path}: checkpoint config: {exc}") from exc
    return config, split(np.frombuffer(payload, "<f8").copy(), layout)


# ----------------------------------------------------------------- forward


def embed_tokens(instance: TrainingInstance, params: ModelParams) -> Tensor:
    """Token states: embedding[id] + position[index], one row per position."""
    cfg = params.config
    ids = instance.tokens
    n = len(ids)
    if n > cfg.max_len:
        raise ValueError(f"instance of {n} tokens exceeds max_len {cfg.max_len}")
    if (ids < 0).any() or (ids >= cfg.vocab_size).any():
        raise ValueError("token id out of embedding range")
    return T.gather(params["emb.token"], ids) + T.rows(params["emb.pos"], slice(0, n))


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
        parent = pooled + T.rows(params["init.type"], slice(type_id, type_id + 1))
        states.append(parent)
        child = parent
    return T.concat(states, axis=0)


def gat_attention(
    states: Tensor,
    mask: np.ndarray,
    relation,
    params: ModelParams,
    prefix: str,
    trace: Optional[list] = None,
) -> Tensor:
    """Multi-head graph attention with relational key/value embeddings.

    e_ij = (h_i Wq) . (h_j Wk + ak[b_ij]) / sqrt(d_z)
    z_i  = sum_j alpha_ij (h_j Wv + av[b_ij]), heads concatenated and
    output-projected back to d_h.

    `relation` is either the clip c of a fully connected level, whose pair
    (i, j) has bucket clip(j - i, -c, c) + c, or an `EdgeList` of the
    attended edges with their buckets. `mask` is the (n, n) boolean of the
    attended cells; the computation reads only `relation`. Records three
    tape nodes: the QKV matmul, the fused attention op and the output
    matmul. A `trace` list gets one dict per head: its sublayer `prefix`,
    `head`, the raw coefficients `e`, the weights `alpha` and its output `z`.
    """
    cfg = params.config
    n = states.shape[0]
    if mask.shape != (n, n):
        raise T.ShapeMismatchError(f"mask {mask.shape} for {n} attending rows")
    qkv = T.matmul(states, params[f"{prefix}.wqkv"])
    ak, av = params[f"{prefix}.ak"], params[f"{prefix}.av"]
    weights = [] if trace is not None else None
    if isinstance(relation, T.EdgeList):
        z = T.edge_attention(qkv, ak, av, cfg.m, relation, weights)
    else:
        z = T.relative_attention(qkv, ak, av, cfg.m, relation, weights)
    if trace is not None:
        ((e, alpha),) = weights
        dz = cfg.d_z
        for k in range(cfg.m):
            trace.append({"sublayer": prefix, "head": k, "e": e[k], "alpha": alpha[k],
                          "z": z.data[:, k * dz : (k + 1) * dz].copy()})
    return T.matmul(z, params[f"{prefix}.wo"])


def self_attention_level(
    level: NodeType,
    block: Tensor,
    params: ModelParams,
    layer: int,
    rng: Optional[np.random.Generator] = None,
    trace: Optional[list] = None,
) -> Tensor:
    """Fully connected attention within one level's rows `block`, then
    residual + layer norm; returns the level's new rows."""
    if level == NodeType.DOCUMENT:
        raise ValueError("the document level has no self-attention sublayer")
    prefix = f"layer{layer}.{SUBLAYERS[level]}"
    cfg = params.config
    n = block.shape[0]
    full = np.broadcast_to(True, (n, n))
    att = gat_attention(block, full, cfg.level_clip(level), params, prefix, trace)
    att = T.dropout(att, cfg.dropout, rng)
    return T.layer_norm(block + att, params[f"{prefix}.ln_g"], params[f"{prefix}.ln_b"])


def graph_integration(
    states: Tensor,
    graph: HierGraph,
    params: ModelParams,
    layer: int,
    rng: Optional[np.random.Generator] = None,
    trace: Optional[list] = None,
) -> Tensor:
    """Cross-level attention pass over all nodes; returns the attended
    states, which the FFN concatenates with its input `states`."""
    post = gat_attention(
        states, graph.integ_mask, graph.integ_edges, params, f"layer{layer}.integ", trace
    )
    return T.dropout(post, params.config.dropout, rng)


def feed_forward_concat(
    pre: Tensor,
    post: Tensor,
    params: ModelParams,
    layer: int,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """FFN over [pre || post] with gelu; residual from pre, then layer
    norm: one `T.feed_forward` op, one tape node."""
    weights = (params[f"layer{layer}.ffn.{k}"] for k in ("w1", "b1", "w2", "b2", "ln_g", "ln_b"))
    return T.feed_forward(pre, post, *weights, params.config.dropout, rng)


def encode(
    instance: TrainingInstance,
    graph: HierGraph,
    params: ModelParams,
    rng: Optional[np.random.Generator] = None,
    trace: Optional[list] = None,
) -> Tensor:
    """Full forward pass; n_layers == 0 returns the initializer output.
    A `trace` list gets every attention head's dict (see `gat_attention`)."""
    cfg = params.config
    states = graph_initialize(graph, embed_tokens(instance, params), params)
    for layer in range(cfg.n_layers):
        blocks = [T.rows(states, graph.level_slice(level)) for level in NodeType]
        for level in (NodeType.TOKEN, NodeType.SENTENCE, NodeType.PARAGRAPH):
            blocks[level] = self_attention_level(level, blocks[level], params, layer, rng, trace)
        states = T.concat(blocks, axis=0)
        post = graph_integration(states, graph, params, layer, rng, trace)
        states = feed_forward_concat(states, post, params, layer, rng)
    return states
