"""Four-granularity document graph with typed, position-bucketed edges.

Node layout is one contiguous block per level: tokens, then sentences,
then paragraphs, then the single document node. Token node i is instance
position i. The [CLS] token doubles
as sentence 0 and paragraph 0 (the null pseudo-candidate). Cross-level
edges make the document node a hub, so any two nodes are within two hops,
and the integration graph has O(n) edges. It is held as an `EdgeList`
sorted by destination; a dense adjacency is derived from it on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .preprocess import TrainingInstance
from .tensor import EdgeList


class NodeType(IntEnum):
    TOKEN = 0
    SENTENCE = 1
    PARAGRAPH = 2
    DOCUMENT = 3


# The six containment relations (finer level, coarser level). Each is an
# edge family in both directions: family 2k is relation k upward (finer ->
# coarser: the coarser node attends to the finer), family 2k + 1 downward.
CONTAINMENT: list[tuple[NodeType, NodeType]] = [
    (NodeType.TOKEN, NodeType.SENTENCE),
    (NodeType.SENTENCE, NodeType.PARAGRAPH),
    (NodeType.PARAGRAPH, NodeType.DOCUMENT),
    (NodeType.TOKEN, NodeType.PARAGRAPH),
    (NodeType.TOKEN, NodeType.DOCUMENT),
    (NodeType.SENTENCE, NodeType.DOCUMENT),
]

# Directed cross-level edge families (finer level, coarser level, upward?).
EDGE_FAMILIES: list[tuple[NodeType, NodeType, bool]] = [
    (fine, coarse, up) for fine, coarse in CONTAINMENT for up in (True, False)
]

SELF_BUCKET = 0  # integration-pass bucket reserved for self-loops


def integration_buckets(cross_clip: int) -> int:
    """Bucket table size of the integration pass: the self-loop bucket,
    then cross_clip + 1 ordinals per edge family."""
    return 1 + len(EDGE_FAMILIES) * (cross_clip + 1)


def family_bucket(family: int, ordinal, cross_clip: int):
    """Bucket of a cross-level edge; `ordinal` may be an int or an array."""
    return 1 + family * (cross_clip + 1) + np.minimum(ordinal, cross_clip)


@dataclass
class HierGraph:
    n_tokens: int
    n_sents: int
    n_pars: int
    token_sent: np.ndarray        # [T] containing sentence per token
    sent_par: np.ndarray          # [S] containing paragraph per sentence
    cross_clip: int               # ordinals past it share the last bucket

    # populated by _finalize
    starts: tuple = field(init=False)         # first node id of each level, then n_nodes
    integ_edges: EdgeList = field(init=False)  # cross-level edges + self-loops
    tok_ord: np.ndarray = field(init=False)   # ordinal of token in sentence
    sent_ord: np.ndarray = field(init=False)  # ordinal of sentence in paragraph
    par_ord: np.ndarray = field(init=False)   # ordinal of paragraph in document

    def __post_init__(self):
        self._finalize()

    # node-id helpers -----------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.n_tokens + self.n_sents + self.n_pars + 1

    def level_slice(self, level: NodeType) -> slice:
        return slice(self.starts[level], self.starts[level + 1])

    @property
    def integ_mask(self) -> np.ndarray:
        """Dense boolean adjacency of the integration graph (derived)."""
        return self.integ_edges.adjacency()

    @staticmethod
    def _ordinal_in(parent: np.ndarray) -> np.ndarray:
        """Position of each child within its parent (children in id order):
        its rank in the stable sort by parent, less its group's first rank."""
        order = np.argsort(parent, kind="stable")
        ranked = parent[order]
        ords = np.empty(len(parent), dtype=np.int64)
        ords[order] = np.arange(len(parent)) - np.searchsorted(ranked, ranked)
        return ords

    def _finalize(self):
        if len(self.token_sent) != self.n_tokens or len(self.sent_par) != self.n_sents:
            raise ValueError("containment arrays do not match node counts")
        if self.n_tokens == 0 or self.n_sents == 0 or self.n_pars == 0:
            raise ValueError("graph requires at least one node per level")
        t, s, p = self.n_tokens, self.n_sents, self.n_pars
        self.starts = (0, t, t + s, t + s + p, t + s + p + 1)
        # holder[level]: each node's parent one level up; composing them
        # gives the containing node at any coarser level
        holder = (self.token_sent, self.sent_par, np.zeros(p, dtype=np.int64))
        nodes = np.arange(self.n_nodes)
        dst, src, bucket = [nodes], [nodes], [np.full(self.n_nodes, SELF_BUCKET)]
        ordinals = []
        for k, (fine, coarse) in enumerate(CONTAINMENT):
            child = parent = np.arange(self.starts[fine + 1] - self.starts[fine])
            for level in range(fine, coarse):
                parent = holder[level][parent]
            ordinal = self._ordinal_in(parent)
            ordinals.append(ordinal)
            lo, hi = self.starts[fine] + child, self.starts[coarse] + parent
            dst += [hi, lo]
            src += [lo, hi]
            bucket += [family_bucket(2 * k, ordinal, self.cross_clip),
                       family_bucket(2 * k + 1, ordinal, self.cross_clip)]
        # the first three relations are token-sentence, sentence-paragraph
        # and paragraph-document
        self.tok_ord, self.sent_ord, self.par_ord = ordinals[:3]
        self.integ_edges = EdgeList(
            np.concatenate(dst), np.concatenate(src), np.concatenate(bucket),
            self.n_nodes, integration_buckets(self.cross_clip),
        )

    # averaging matrices for the bottom-up initializer --------------------
    def mean_matrix(self, child_parent: np.ndarray, n_parents: int) -> np.ndarray:
        m = np.zeros((n_parents, len(child_parent)))
        m[child_parent, np.arange(len(child_parent))] = 1.0
        deg = m.sum(axis=1, keepdims=True)
        if (deg == 0).any():
            bad = int(np.where(deg[:, 0] == 0)[0][0])
            raise ValueError(f"node with zero children at parent index {bad}")
        return m / deg


def build_graph(instance: TrainingInstance, cross_clip: int) -> HierGraph:
    """Build the graph for one instance; cross-level ordinals clip at
    `cross_clip`.

    Token nodes are the instance positions, in order; [CLS] is sentence 0
    and paragraph 0; paragraph nodes follow the candidate list S in order.
    """
    sent_of_pos = instance.sentences
    if (sent_of_pos < 0).any():
        bad = int(np.argmax(sent_of_pos < 0))
        raise ValueError(f"token at position {bad} not covered by any sentence")
    n_sents = int(sent_of_pos.max()) + 1

    # sentence -> paragraph: the first span S[p], p >= 1, holding the
    # sentence's first position, else 0 ([CLS]'s). A sentence id with no
    # token takes position 0, as argmax over an all-false row does.
    sents, first = np.unique(sent_of_pos, return_index=True)
    first_pos = np.zeros(n_sents, dtype=np.int64)
    first_pos[sents] = first
    spans = np.asarray(instance.spans[1:], dtype=np.int64).reshape(-1, 2)
    sent_par = np.zeros(n_sents, dtype=np.int64)
    if spans.size:
        inside = (spans[:, 0] <= first_pos[1:, None]) & (first_pos[1:, None] <= spans[:, 1])
        sent_par[1:] = np.where(inside.any(axis=1), inside.argmax(axis=1) + 1, 0)
    return HierGraph(
        n_tokens=len(instance.tokens),
        n_sents=n_sents,
        n_pars=len(instance.spans),
        token_sent=sent_of_pos.astype(np.int64),
        sent_par=sent_par,
        cross_clip=cross_clip,
    )
