"""Adam training with linear warmup/decay, seeded shuffling and
checkpointing. A run is a pure function of (instances, seed, config):
loss traces are bit-identical across repeats, and resuming from a
checkpoint continues exactly where an uninterrupted run would be.

A checkpoint is snapshotted on the training thread and written (CRC32,
write, fsync, rename) on one background thread while the next steps run.
At most one write is in flight: each save first waits for the previous
one. `train_loop` returns only once the last file is durable, and raises
any error a write raised.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tensor as T
from .docgraph import build_graph
from .encoder import ModelParams, encode
from .heads import joint_loss, score_nodes
from .preprocess import TrainingInstance
from .tensor import NonFiniteError, record_tape


@dataclass
class TrainConfig:
    batch_size: int = 8
    total_steps: int = 200
    peak_lr: float = 2e-5
    warmup_prop: float = 0.1
    seed: int = 0
    checkpoint_every: int = 0  # 0 = checkpoint only at the end
    grad_clip: float = 0.0     # 0 = off

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.warmup_prop < 1.0:
            raise ValueError("warmup_prop must be in [0, 1)")
        for name in ("total_steps", "checkpoint_every", "grad_clip"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def lr_schedule(step: int, total_steps: int, peak: float, warmup_prop: float) -> float:
    """Linear 0 -> peak over the warmup steps, then linear decay to 0."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup = warmup_prop * total_steps
    if warmup > 0 and step <= warmup:
        return peak * step / warmup
    if total_steps == warmup:
        return peak
    return peak * (1.0 - (step - warmup) / (total_steps - warmup))


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, params: dict[str, T.Tensor]) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
        )

    def to_arrays(self) -> dict[str, np.ndarray]:
        out = {"opt.step": np.array([float(self.step)])}
        for k, v in self.m.items():
            out[f"opt.m.{k}"] = v
        for k, v in self.v.items():
            out[f"opt.v.{k}"] = v
        return out

    @classmethod
    def from_arrays(cls, params, arrays: dict[str, np.ndarray]) -> "OptimizerState":
        """The state `to_arrays` wrote; ValueError names the first missing array."""
        state = cls.init(params)
        try:
            state.step = int(arrays["opt.step"][0])
            for k in params:
                state.m[k] = arrays[f"opt.m.{k}"].copy()
                state.v[k] = arrays[f"opt.v.{k}"].copy()
        except KeyError as exc:
            raise ValueError(f"no optimizer state: {exc.args[0]!r} is missing") from None
        return state


def adam_step(
    params: dict[str, T.Tensor],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    lr: float,
    grad_clip: float = 0.0,
):
    """Standard bias-corrected Adam update, in place.

    Every gradient is checked before anything changes, so a refused step
    (a shape mismatch or a non-finite gradient) leaves the parameters and
    `state` as they were.
    """
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    if grad_clip > 0.0:
        norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        if norm > grad_clip:
            scale = grad_clip / norm
            grads = {k: g * scale for k, g in grads.items()}
    for name, p in params.items():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        mhat = state.m[name] / (1 - b1**t)
        vhat = state.v[name] / (1 - b2**t)
        p.data = p.data - lr * mhat / (np.sqrt(vhat) + state.eps)


@dataclass
class TraceRow:
    step: int
    lr: float
    loss: float


def write_trace_csv(path, trace: list[TraceRow]):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,lr,loss\n")
        for row in trace:
            fh.write(f"{row.step},{row.lr!r},{row.loss!r}\n")


def instance_loss(instance: TrainingInstance, graph, model: ModelParams, rng=None):
    states = encode(instance, graph, model, rng=rng)
    scores = score_nodes(states, graph, instance, model)
    return joint_loss(
        scores, instance.long_target, instance.start, instance.end, instance.answer_type
    )


def train_loop(
    instances: list[TrainingInstance],
    model: ModelParams,
    cfg: TrainConfig,
    checkpoint_path: Optional[str] = None,
    opt_state: Optional[OptimizerState] = None,
) -> tuple[ModelParams, list[TraceRow], OptimizerState]:
    """Seeded shuffle per epoch, per-batch mean loss, scheduled Adam.

    Passing a restored `opt_state` resumes at its step; the (seed, epoch)
    shuffle derivation makes the continuation identical to an
    uninterrupted run. Checkpoints go to `checkpoint_path` every
    `cfg.checkpoint_every` steps and after the last step, written in the
    background (see the module docstring).
    """
    if not instances:
        raise ValueError("train_loop requires at least one instance")
    graphs = [build_graph(inst, clips=model.config.clips) for inst in instances]
    params = model.tensors
    state = opt_state or OptimizerState.init(params)
    n = len(instances)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    trace: list[TraceRow] = []
    perm_epoch = -1
    perm = None
    saved = False  # whether the last step that ran saved a checkpoint
    writing: Optional[Future] = None  # the checkpoint write in flight

    def save():
        nonlocal writing
        if writing is not None:
            writing.result()  # at most one write in flight; raises its error
        writing = model.save(checkpoint_path, extra=state.to_arrays(), executor=writer)

    # Leaving the block waits for the write in flight, also when a step
    # raises, so the last checkpoint is whole on disk either way.
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="checkpoint") as writer:
        for step in range(state.step, cfg.total_steps):
            epoch, bidx = divmod(step, steps_per_epoch)
            if epoch != perm_epoch:
                perm = np.random.default_rng([cfg.seed, epoch]).permutation(n)
                perm_epoch = epoch
            batch = perm[bidx * cfg.batch_size : (bidx + 1) * cfg.batch_size]
            T.zero_grads(params)
            total = 0.0
            drop_rng = (
                np.random.default_rng([cfg.seed, 7, step]) if model.config.dropout > 0 else None
            )
            for idx in batch:
                with record_tape():
                    loss = instance_loss(instances[idx], graphs[idx], model, rng=drop_rng)
                    total += loss.item()
                    scaled = loss * (1.0 / len(batch))
                    # gradients accumulate in p.grad: the last call's dict holds the batch sum
                    grads = T.backward(scaled, params)
            lr = lr_schedule(step + 1, cfg.total_steps, cfg.peak_lr, cfg.warmup_prop)
            adam_step(params, grads, state, lr, cfg.grad_clip)
            T.zero_grads(params)
            trace.append(TraceRow(step=step, lr=lr, loss=total / len(batch)))
            saved = bool(
                checkpoint_path
                and cfg.checkpoint_every
                and state.step % cfg.checkpoint_every == 0
            )
            if saved:
                save()
        if checkpoint_path and not saved:
            save()
        if writing is not None:
            writing.result()
    return model, trace, state
