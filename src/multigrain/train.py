"""Adam training with linear warmup/decay, seeded shuffling and
checkpointing. A run is a pure function of (instances, seed, config):
loss traces are bit-identical across repeats, and resuming from a
checkpoint continues exactly where an uninterrupted run would be.

All training state has one layout: the parameters are one buffer
(`ModelParams.flat`), their gradients another (`ModelParams.grad`, which
`backward` adds into), and Adam's moments two more in the same order, so
a step is a few in-place ops over whole buffers, and a checkpoint is the
buffers written back to back. It is snapshotted on the training thread
and written (CRC32, write, fsync, rename) on one background thread while
the next steps run. At most one write is in flight: each save first
waits for the previous one. `train_loop` returns only once the last file
is durable, and raises any error a write raised.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .config import bounded, check_fields
from .docgraph import build_graph
from .encoder import ModelParams, encode, split
from .heads import joint_loss, score_nodes
from .preprocess import TrainingInstance, whole_file
from .tensor import ContractViolation, NonFiniteError, record_tape


@dataclass
class TrainConfig:
    batch_size: int = bounded(8, 1)
    total_steps: int = bounded(200, 0)
    peak_lr: float = bounded(2e-5, 0)
    warmup_prop: float = bounded(0.1, 0, below=1)
    seed: int = bounded(0, 0)
    checkpoint_every: int = bounded(0, 0)  # 0 = checkpoint only at the end
    grad_clip: float = bounded(0.0, 0)     # 0 = off

    def __post_init__(self):
        check_fields(self)


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


# Adam's moment decay rates and denominator floor.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    """Adam's step count and moments, `m` and `v`, flat in a model's `layout`."""

    m: np.ndarray
    v: np.ndarray
    layout: tuple
    step: int = 0

    @classmethod
    def init(cls, model: ModelParams) -> "OptimizerState":
        return cls(np.zeros_like(model.flat), np.zeros_like(model.flat), model.layout)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """`opt.step`, then every `opt.m.<name>` and every `opt.v.<name>`, as views."""
        return {"opt.step": np.array([float(self.step)]),
                **{f"opt.m.{k}": a for k, a in split(self.m, self.layout).items()},
                **{f"opt.v.{k}": a for k, a in split(self.v, self.layout).items()}}

    @classmethod
    def from_arrays(cls, model: ModelParams, arrays: dict[str, np.ndarray]) -> "OptimizerState":
        """The state `to_arrays` wrote for `model`. ValueError names the
        first array that is missing or whose shape is not its parameter's,
        or an `opt.step` that is not one non-negative integer."""
        keys = [f"opt.{k}.{name}" for k in "mv" for name, _ in model.layout]
        try:
            step, moments = arrays["opt.step"], [arrays[key] for key in keys]
        except KeyError as exc:
            raise ValueError(f"no optimizer state: {exc.args[0]!r} is missing") from None
        if step.shape != (1,) or not (step[0] >= 0 and float(step[0]).is_integer()):
            raise ValueError(f"'opt.step' is {step.tolist()}, not one non-negative integer")
        for key, a, (_, shape) in zip(keys, moments, 2 * model.layout):
            if a.shape != shape:
                raise ValueError(f"{key!r} has shape {a.shape}, its parameter {shape}")
        m, v = np.split(np.concatenate([a.ravel() for a in moments]), 2)
        return cls(m, v, model.layout, int(step[0]))


def adam_step(model: ModelParams, state: OptimizerState, lr: float, grad_clip: float = 0.0):
    """Standard bias-corrected Adam, in place over `model.flat`. A refused
    step leaves the parameters and `state` as they were: ContractViolation
    if a tensor's `.data` or `.grad` no longer views the model's buffers,
    NonFiniteError, naming the parameter, for a non-finite gradient."""
    if (stray := model.stray_view()) is not None:
        raise ContractViolation(f"parameter {stray!r} no longer views the model's buffers")
    g = model.grad
    if not np.isfinite(g).all():
        name = next(k for k, t in model.tensors.items() if not np.isfinite(t.grad).all())
        raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    norm = math.sqrt(float(g @ g)) if grad_clip > 0.0 else 0.0
    if norm > grad_clip:
        g = g * (grad_clip / norm)
    c1, c2 = 1 - BETA1**state.step, 1 - BETA2**state.step

    def update(g, m, v, flat, u, t):  # element-wise, so in blocks side by side from SPLIT_WORK
        m *= BETA1
        m += np.multiply(1 - BETA1, g, out=t)
        v *= BETA2
        v += np.multiply(np.multiply(1 - BETA2, g, out=t), g, out=t)
        np.multiply(np.divide(m, c1, out=u), lr, out=u)
        flat -= np.divide(u, np.add(np.sqrt(np.divide(v, c2, out=t), out=t), EPS, out=t), out=u)

    T._side_by_side(update, T._group_count(g.size, g.size), g, state.m, state.v, model.flat,
                    np.empty_like(g), np.empty_like(g))


@dataclass
class TraceRow:
    step: int
    lr: float
    loss: float


def write_trace_csv(path, trace: list[TraceRow]):
    with whole_file(path) as fh:
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
    graphs = [build_graph(inst, model.config.cross_clip) for inst in instances]
    state = opt_state or OptimizerState.init(model)
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
            model.grad[...] = 0.0
            total = 0.0
            drop_rng = (
                np.random.default_rng([cfg.seed, 7, step]) if model.config.dropout > 0 else None
            )
            for idx in batch:
                with record_tape():
                    loss = instance_loss(instances[idx], graphs[idx], model, rng=drop_rng)
                    total += loss.item()
                    T.backward(loss * (1.0 / len(batch)), model.tensors)
            lr = lr_schedule(step + 1, cfg.total_steps, cfg.peak_lr, cfg.warmup_prop)
            adam_step(model, state, lr, cfg.grad_clip)
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
