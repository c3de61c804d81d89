"""Property suites and oracles for the tests: random structurally valid
instances, attention-row properties on random graphs, the dense attention
oracle (for both fused attention ops, Toeplitz-level and edge-list),
the feed-forward sublayer as its composite of taped ops, initializer
exactness, graph validation with two-hop reachability via BFS, and
sweep-vs-grid agreement. The acceptance criteria run each suite at its
full trial count; the unit tests reuse the builders and the oracles.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import scipy.sparse as sp
from scipy.special import erf

from multigrain import tensor as T
from multigrain.checks import micro_config
from multigrain.docgraph import HierGraph, NodeType, build_graph, integration_buckets
from multigrain.encoder import EncoderConfig, ModelParams, encode, gat_attention, graph_initialize
from multigrain.evaluate import GrainRecord, f1_at_threshold, threshold_sweep
from multigrain.preprocess import AnswerType, TrainingInstance
from multigrain.tensor import Tensor


def split_qkv(wqkv: np.ndarray, m: int) -> np.ndarray:
    """Inverse of `fuse_qkv`: (d, 3d) -> (m, 3, d, d_z)."""
    return wqkv.reshape(wqkv.shape[0], 3, m, -1).transpose(2, 1, 0, 3)


def random_instance(rng: np.random.Generator, vocab_size: int = 32, max_len: int = 64) -> TrainingInstance:
    """A structurally valid random instance for property checks."""
    q = int(rng.integers(1, 4))
    n_cands = int(rng.integers(1, 4))
    tokens = [2] + list(rng.integers(4, vocab_size, size=q)) + [3]
    sentences = [0] * (q + 2)
    spans = [(0, 0)]
    cand_doc_idx = [-1]
    sent = 0
    for c in range(n_cands):
        start = len(tokens)
        for _ in range(int(rng.integers(1, 3))):
            sent += 1
            for _ in range(int(rng.integers(1, 5))):
                tokens.append(int(rng.integers(4, vocab_size)))
                sentences.append(sent)
        spans.append((start, len(tokens) - 1))
        cand_doc_idx.append(c)
    tokens.append(3)
    sentences.append(0)
    if len(tokens) > max_len:
        raise ValueError("random instance exceeded max_len")

    t = AnswerType(int(rng.integers(0, 5)))
    l, s, e = 0, 0, 0
    if t != AnswerType.NO_ANSWER:
        l = int(rng.integers(1, len(spans)))
        if t == AnswerType.SHORT:
            a, b = spans[l]
            s = int(rng.integers(a, b + 1))
            e = int(rng.integers(s, b + 1))
    return TrainingInstance(
        tokens=np.asarray(tokens, dtype=np.int64),
        spans=spans,
        long_target=l,
        start=s,
        end=e,
        answer_type=t,
        sentences=np.asarray(sentences, dtype=np.int64),
        example_id=f"rand{rng.integers(1 << 30)}",
        fragment_index=0,
        fragment_start=0,
        question_len=q,
        cand_doc_idx=cand_doc_idx,
    )


def attention_rows_check(trials: int = 100, seed: int = 0, tol: float = 1e-6) -> bool:
    """Every attention row in every sublayer is a probability vector over
    its neighbor set; masked entries are exactly zero."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        inst = random_instance(rng)
        m = int(rng.choice([1, 2, 4]))
        cfg = micro_config(
            d_h=4 * m,
            m=m,
            d_ff=max(8, 4 * m),
            vocab_size=32,
            max_len=64,
            n_layers=int(rng.integers(1, 3)),
        )
        model = ModelParams.init(cfg, seed=int(rng.integers(1 << 30)))
        graph = build_graph(inst, cfg.cross_clip)
        trace = []
        encode(inst, graph, model, trace=trace)
        off_edge = ~graph.integ_mask
        integ_rows = 0
        for rec in trace:
            alpha = rec["alpha"]
            if not np.allclose(alpha.sum(axis=1), 1.0, atol=tol):
                return False
            if rec["sublayer"].endswith("integ"):
                integ_rows += 1
                if (alpha[off_edge] != 0.0).any():
                    return False
        if integ_rows == 0:
            return False
    return True


def tsum(a: Tensor) -> Tensor:
    """The sum of every element, as a 0-d taped tensor: the tests' losses."""
    data = a.data.sum()

    def backward(g):
        T._accumulate(a, np.broadcast_to(g, a.shape).astype(a.data.dtype))

    return T._make(data, (a,), backward, "sum")


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x) with the exact-erf normal CDF (not the tanh form), as a
    taped op of its own; erf and the density are taken in float64 and
    cast to the working dtype."""
    x = a.data
    x64 = x if x.dtype == np.float64 else x.astype(np.float64)
    phi = x64 / math.sqrt(2.0)
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    phi = phi.astype(x.dtype, copy=False)

    def backward(g):
        dens = x64 * x64
        dens *= -0.5
        np.exp(dens, out=dens)
        dens /= math.sqrt(2 * math.pi)
        grad = dens.astype(x.dtype, copy=False)  # g (Phi + x phi), in place
        grad *= x
        grad += phi
        grad *= g
        T._accumulate(a, grad)

    return T._make(x * phi, (a,), backward, "gelu")


def composite_feed_forward(pre, post, w1, b1, w2, b2, gain, bias, rate=0.0, rng=None) -> Tensor:
    """`T.feed_forward` as the nine taped ops it fuses (eight without
    dropout): concat, matmul, bias add, gelu, dropout, matmul, bias add,
    residual add and layer norm."""
    h = gelu(T.add(T.matmul(T.concat([pre, post], axis=1), w1), b1))
    y = T.add(T.matmul(T.dropout(h, rate, rng), w2), b2)
    return T.layer_norm(T.add(pre, y), gain, bias)


def dense_attention_oracle(
    states: np.ndarray, wq, wk, wv, wo, d_z: int,
    mask: np.ndarray | None = None,
    buckets: np.ndarray | None = None,
    ak: np.ndarray | None = None,
    av: np.ndarray | None = None,
) -> np.ndarray:
    """Independent dense multi-head attention (numpy, no tape).

    Row i attends to the j with mask[i, j] (all j without a mask). With
    `buckets` and the relational tables, pair (i, j) uses the key
    k_j + ak[b_ij] and the value v_j + av[b_ij], built per pair. Only
    analytic numpy functions are used, so complex inputs give
    complex-step derivatives.
    """
    n = states.shape[0]
    if mask is None:
        mask = np.ones((n, n), dtype=bool)
    heads = []
    for q_w, k_w, v_w in zip(wq, wk, wv):
        q = states @ q_w
        k = np.broadcast_to(states @ k_w, (n, n, d_z))
        v = np.broadcast_to(states @ v_w, (n, n, d_z))
        if buckets is not None:
            k = k + ak[buckets]
            v = v + av[buckets]
        e = np.einsum("id,ijd->ij", q, k) / math.sqrt(d_z)
        e = np.where(mask, e, -np.inf)
        a = np.exp(e - e.max(axis=1, keepdims=True))
        a = a / a.sum(axis=1, keepdims=True)
        heads.append(np.einsum("ij,ijd->id", a, v))
    return np.concatenate(heads, axis=1) @ wo


def dense_oracle_check(trials: int = 20, seed: int = 0, tol: float = 1e-6) -> float:
    """gat_attention vs the dense oracle on random graphs with random
    relational tables. Every other graph is a fully connected token level
    with Toeplitz relative-distance buckets (the same-level case), run both
    as a level (`relative_attention`) and as the edge list of all its
    pairs; the rest are random masks with self-loops and random buckets
    run as edge lists (the integration case). Returns the max abs
    deviation."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        cfg = micro_config(n_layers=1)
        model = ModelParams.init(cfg, seed=int(rng.integers(1 << 30)))
        n = int(rng.integers(2, 9))
        states = rng.normal(size=(n, cfg.d_h))
        if trial % 2 == 0:
            prefix = "layer0.tok"
            n_buckets = 2 * cfg.token_clip + 1
            mask = np.ones((n, n), dtype=bool)
            idx = np.arange(n)
            buckets = np.clip(idx[None, :] - idx[:, None], -cfg.token_clip, cfg.token_clip) + cfg.token_clip
            relations = [cfg.token_clip]
        else:
            prefix = "layer0.integ"
            n_buckets = integration_buckets(cfg.cross_clip)
            mask = rng.random((n, n)) < 0.4
            np.fill_diagonal(mask, True)
            buckets = rng.integers(0, n_buckets, size=(n, n))
            relations = []
        ak, av = model.tensors[f"{prefix}.ak"].data, model.tensors[f"{prefix}.av"].data
        ak[:] = rng.normal(scale=0.5, size=ak.shape)
        av[:] = rng.normal(scale=0.5, size=av.shape)
        dst, src = np.nonzero(mask)
        relations.append(T.EdgeList(dst, src, buckets[dst, src], n, n_buckets))
        wq, wk, wv = split_qkv(model.tensors[f"{prefix}.wqkv"].data, cfg.m).swapaxes(0, 1)
        oracle = dense_attention_oracle(
            states, wq, wk, wv, model.tensors[f"{prefix}.wo"].data, cfg.d_z,
            mask, buckets, ak, av,
        )
        for relation in relations:
            out = gat_attention(Tensor(states), mask, relation, model, prefix)
            worst = max(worst, float(np.abs(out.data - oracle).max()))
    return worst


def initializer_check(trials: int = 50, seed: int = 0) -> float:
    """With zero relational/type embeddings every parent state must equal
    the mean of its children. Returns the max abs deviation."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        cfg = micro_config()
        model = ModelParams.init(cfg, seed=int(rng.integers(1 << 30)))
        for nm in ("init.rel.sentence", "init.rel.paragraph", "init.rel.document", "init.type"):
            model.tensors[nm].data[:] = 0.0
        inst = random_instance(rng, vocab_size=16, max_len=cfg.max_len)
        graph = build_graph(inst, cfg.cross_clip)
        tok = rng.normal(size=(graph.n_tokens, cfg.d_h))
        states = graph_initialize(graph, Tensor(tok), model).data
        t, s, p = graph.n_tokens, graph.n_sents, graph.n_pars
        for sent in range(s):
            children = tok[graph.token_sent == sent]
            worst = max(worst, float(np.abs(states[t + sent] - children.mean(axis=0)).max()))
        sent_states = states[t : t + s]
        for par in range(p):
            children = sent_states[graph.sent_par == par]
            worst = max(worst, float(np.abs(states[t + s + par] - children.mean(axis=0)).max()))
        worst = max(
            worst, float(np.abs(states[-1] - states[t + s : t + s + p].mean(axis=0)).max())
        )
    return worst


def validate_graph(graph: HierGraph) -> str | None:
    """Check all invariants; return None if OK, else the first violation."""
    edges, n = graph.integ_edges, graph.n_nodes
    if edges.n_nodes != n:
        return "adjacency shape does not match node count"
    adj = sp.csr_matrix((np.ones(len(edges)), (edges.dst, edges.src)), shape=(n, n))
    loops = adj.diagonal()
    if not loops.all():
        return f"missing self-loop at node {int(np.argmin(loops))}"
    rows, cols = (adj != adj.T).nonzero()
    if rows.size:
        k = np.lexsort((cols, rows))[0]
        return f"edge ({rows[k]}, {cols[k]}) present without its reverse"
    if (graph.token_sent < 0).any() or (graph.token_sent >= graph.n_sents).any():
        return "token containment points outside sentence range"
    if (graph.sent_par < 0).any() or (graph.sent_par >= graph.n_pars).any():
        return "sentence containment points outside paragraph range"
    # containment edges must exist in the adjacency
    s0 = graph.level_slice(NodeType.SENTENCE).start
    p0 = graph.level_slice(NodeType.PARAGRAPH).start
    linked = np.asarray(adj[np.arange(graph.n_tokens), s0 + graph.token_sent]).ravel()
    if not linked.all():
        tok = int(np.argmin(linked))
        return f"containment violation: token {tok} not linked to sentence {graph.token_sent[tok]}"
    linked = np.asarray(adj[s0 + np.arange(graph.n_sents), p0 + graph.sent_par]).ravel()
    if not linked.all():
        sent = int(np.argmin(linked))
        return f"containment violation: sentence {sent} not linked to paragraph {graph.sent_par[sent]}"
    # two-hop reachability via a sparse product of the edge lists
    reach = adj + adj @ adj
    if reach.nnz < n * n:
        i, j = np.argwhere(reach.toarray() == 0)[0]
        return f"reachability violation: nodes {i} and {j} are more than 2 hops apart"
    return None


def bfs_distances(adj: np.ndarray, source: int) -> np.ndarray:
    n = adj.shape[0]
    dist = np.full(n, -1)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in np.where(adj[u])[0]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def reachability_check(trials: int = 50, seed: int = 0) -> bool:
    """Exhaustive BFS: every node pair within two hops on random graphs."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        inst = random_instance(rng)
        graph = build_graph(inst, EncoderConfig().cross_clip)
        if validate_graph(graph) is not None:
            return False
        adj = graph.integ_mask & ~np.eye(graph.n_nodes, dtype=bool)
        for src in range(graph.n_nodes):
            dist = bfs_distances(adj, src)
            if (dist < 0).any() or dist.max() > 2:
                return False
    return True


def sweep_grid_check(trials: int = 200, seed: int = 0, grid_step: float = 1e-4) -> bool:
    """Sweep best-F1 must equal brute force over a dense threshold grid."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(2, 20))
        records = [
            GrainRecord(
                example_id=str(i),
                gold_has=bool(rng.random() < 0.7),
                correct=bool(rng.random() < 0.6),
                score=float(np.round(rng.normal(), 3)),
            )
            for i in range(n)
        ]
        for r in records:
            r.correct = r.correct and r.gold_has
        sweep = threshold_sweep(records)
        scores = [r.score for r in records]
        lo, hi = min(scores) - 2 * grid_step, max(scores) + 2 * grid_step
        grid = np.arange(lo, hi, grid_step)
        grid_best = max(f1_at_threshold(records, float(tau))[2] for tau in grid)
        if abs(sweep.f1 - grid_best) > 1e-12:
            return False
    return True
