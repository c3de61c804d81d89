"""The micro model and its finite-difference gradient audit: the joint
loss of a 20-token instance under a one-layer, two-head encoder, checked
parameter by parameter in extended precision. `multigrain gradcheck`
prints `micro_gradcheck_by_param`; acceptance criterion 1 bounds its
worst error. The property suites live with the tests (`tests/oracles.py`).
"""

from __future__ import annotations

import numpy as np

from .docgraph import build_graph
from .encoder import EncoderConfig, ModelParams
from .preprocess import AnswerType, TrainingInstance
from .tensor import finite_diff_check, precision
from .train import instance_loss


# ------------------------------------------------------- fixture builders


def micro_config(**overrides) -> EncoderConfig:
    return EncoderConfig(**{"d_h": 8, "m": 2, "n_layers": 1, "d_ff": 8, "vocab_size": 16, "max_len": 24,
                            "token_clip": 2, "sent_clip": 2, "par_clip": 2, "cross_clip": 4, **overrides})


def micro_instance() -> TrainingInstance:
    """20 tokens, 2 content candidates, a short answer at (5, 6)."""
    rng = np.random.default_rng(11)
    return TrainingInstance(
        tokens=rng.integers(4, 16, size=20),
        spans=[(0, 0), (4, 10), (11, 18)],
        long_target=1,
        start=5,
        end=6,
        answer_type=AnswerType.SHORT,
        sentences=np.repeat([0, 1, 2, 3, 4, 0], [4, 4, 3, 4, 4, 1]),
        example_id="micro",
        fragment_index=0,
        fragment_start=0,
        question_len=2,
        cand_doc_idx=[-1, 0, 1],
    )


# ------------------------------------------------------- gradient audit


def micro_loss():
    """(f, params): the joint loss of the micro model on the micro instance
    as a function of its parameters, built in the current precision."""
    cfg = micro_config()
    model = ModelParams.init(cfg, seed=1, scale=0.1)
    inst = micro_instance()
    graph = build_graph(inst, cfg.cross_clip)
    return (lambda: instance_loss(inst, graph, model)), model.tensors


def micro_gradcheck_by_param(eps: float = 1e-3) -> dict[str, float]:
    """Max relative error between analytic and central-difference
    gradients of the joint loss, per parameter in `param_shapes` order,
    on the micro model in extended precision.

    The init scale keeps pre-normalization activations away from the
    high-curvature regime of layer norm, so the O(eps^4) truncation term
    of the central difference stays well under the analytic gradient.
    """
    with precision("extended"):
        f, params = micro_loss()
        return {name: finite_diff_check(f, {name: p}, eps=eps) for name, p in params.items()}
