"""Multi-granularity document modeling for two-grained question answering.

Documents are encoded as four-level graphs (tokens, sentences,
paragraphs, document) with relation-aware graph attention; long and
short answers are trained jointly and selected by a pipelined scorer
with thresholded evaluation.
"""

from .docgraph import HierGraph, build_graph
from .encoder import EncoderConfig, ModelParams, encode
from .evaluate import EvalReport, GoldLabel, evaluate, threshold_sweep
from .heads import joint_loss, score_nodes, select_answers
from .predict import predict_instances
from .preprocess import PreprocessConfig, RawExample, TrainingInstance, Vocab
from .synthgen import CorpusSpec, generate_corpus
from .tensor import Tensor, backward, finite_diff_check, precision
from .train import TrainConfig, train_loop

__all__ = [
    "CorpusSpec",
    "EncoderConfig",
    "EvalReport",
    "GoldLabel",
    "HierGraph",
    "ModelParams",
    "PreprocessConfig",
    "RawExample",
    "Tensor",
    "TrainConfig",
    "TrainingInstance",
    "Vocab",
    "backward",
    "build_graph",
    "encode",
    "evaluate",
    "finite_diff_check",
    "generate_corpus",
    "joint_loss",
    "precision",
    "predict_instances",
    "score_nodes",
    "select_answers",
    "threshold_sweep",
    "train_loop",
]

__version__ = "0.1.0"
