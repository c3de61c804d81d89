"""Optimizer, schedule, and training-loop determinism."""

import gc
import time
from pathlib import Path

import numpy as np
import pytest

from multigrain import preprocess as P
from multigrain import tensor as T
from multigrain import train as train_module
from multigrain.checks import micro_config, micro_instance
from multigrain.docgraph import build_graph
from multigrain.encoder import EncoderConfig, ModelParams
from multigrain.tensor import ContractViolation, Tape, Tensor, finite_diff_check
from multigrain.train import (
    OptimizerState,
    TrainConfig,
    TraceRow,
    adam_step,
    instance_loss,
    lr_schedule,
    train_loop,
    write_trace_csv,
)


# ---------------------------------------------------------------- schedule


def test_schedule_zero_at_start():
    assert lr_schedule(0, 1000, 2e-5, 0.1) == 0.0


def test_schedule_peak_at_warmup_boundary():
    assert lr_schedule(100, 1000, 2e-5, 0.1) == 2e-5


def test_schedule_linear_decay_point():
    np.testing.assert_allclose(lr_schedule(550, 1000, 2e-5, 0.1), 1e-5, rtol=1e-12)


def test_schedule_zero_at_end():
    np.testing.assert_allclose(lr_schedule(1000, 1000, 2e-5, 0.1), 0.0, atol=1e-20)


def test_schedule_rejects_out_of_range():
    with pytest.raises(ValueError):
        lr_schedule(1001, 1000, 2e-5, 0.1)


# ---------------------------------------------------------------- adam


def make_model(values):
    """A model over the given parameters, in their order."""
    tensors = {k: Tensor(np.asarray(v, dtype=float), requires_grad=True) for k, v in values.items()}
    return ModelParams(micro_config(), tensors)


def step_with(model, state, grads, lr, grad_clip=0.0):
    """adam_step once the model's gradient buffer holds `grads`, by name."""
    for k, g in grads.items():
        model[k].grad[...] = g
    adam_step(model, state, lr, grad_clip)


def test_adam_zero_grad_keeps_params():
    model = make_model({"w": [1.0, -2.0]})
    state = OptimizerState.init(model)
    step_with(model, state, {"w": np.zeros(2)}, lr=0.1)
    np.testing.assert_array_equal(model["w"].data, [1.0, -2.0])


def test_adam_moments_decay():
    model = make_model({"w": [0.0]})
    state = OptimizerState.init(model)
    state.to_arrays()["opt.m.w"][:] = 1.0
    state.to_arrays()["opt.v.w"][:] = 1.0
    step_with(model, state, {"w": np.zeros(1)}, lr=0.1)
    arrays = state.to_arrays()
    assert (arrays["opt.m.w"] == 0.9).all() and (arrays["opt.v.w"] == 0.999).all()


def test_adam_single_step_unit_grad():
    model = make_model({"w": [0.0]})
    state = OptimizerState.init(model)
    step_with(model, state, {"w": np.ones(1)}, lr=0.01)
    # bias correction makes mhat = 1, vhat = 1 on the first step
    np.testing.assert_allclose(model["w"].data, [-0.01 / (1 + 1e-8)], rtol=1e-12)


def test_adam_constant_grad_fixed_point():
    model = make_model({"w": [0.0]})
    state = OptimizerState.init(model)
    lr = 0.003
    last = 0.0
    for _ in range(500):
        before = model["w"].data.copy()
        step_with(model, state, {"w": np.ones(1)}, lr=lr)
        last = abs(float(model["w"].data[0] - before[0]))
    np.testing.assert_allclose(last, lr, rtol=1e-3)


def assert_unchanged(model, state, before, arrays, steps):
    """The parameters equal `before`, and the Adam state `arrays` and `steps`."""
    for k, p in model.tensors.items():
        np.testing.assert_array_equal(p.data, before[k])
    after = state.to_arrays()
    assert after.keys() == arrays.keys() and state.step == steps
    for k, v in arrays.items():
        np.testing.assert_array_equal(after[k], v, err_msg=k)


def test_adam_rejects_nonfinite():
    """A NaN in the last parameter's gradient refuses the whole step: no
    parameter, moment or step count has moved when the error comes out."""
    from multigrain.tensor import NonFiniteError

    model = make_model({"a": [1.0], "w": [0.0]})
    state = OptimizerState.init(model)
    step_with(model, state, {"a": np.ones(1), "w": np.ones(1)}, lr=0.1)
    before = {k: p.data.copy() for k, p in model.tensors.items()}
    arrays = {k: v.copy() for k, v in state.to_arrays().items()}
    with pytest.raises(NonFiniteError, match="w"):
        step_with(model, state, {"a": np.ones(1), "w": np.array([np.nan])}, lr=0.1)
    assert_unchanged(model, state, before, arrays, steps=1)


@pytest.mark.parametrize("rebind", [
    lambda t: setattr(t, "data", t.data + 0.0),
    lambda t: setattr(t, "grad", t.grad.copy()),
    lambda t: setattr(t, "grad", None),
], ids=["data", "grad", "grad-none"])
def test_adam_refuses_rebound_tensor(rebind):
    """A parameter whose `.data` or `.grad` is rebound to an array of its
    own no longer views the model's buffers: adam_step names it in a
    ContractViolation, and no parameter, moment or step count moves."""
    model = make_model({"a": [1.0], "w": [0.0, 2.0]})
    state = OptimizerState.init(model)
    step_with(model, state, {"a": np.ones(1), "w": np.ones(2)}, lr=0.1)
    rebind(model["w"])
    before = {k: p.data.copy() for k, p in model.tensors.items()}
    arrays = {k: v.copy() for k, v in state.to_arrays().items()}
    with pytest.raises(ContractViolation, match="'w'"):
        adam_step(model, state, lr=0.1)
    assert_unchanged(model, state, before, arrays, steps=1)


def test_finite_diff_check_keeps_the_model_trainable():
    """A gradient check leaves the checked `.grad` bound to its view of
    ModelParams.grad with its values, so Adam still takes a step."""
    model = ModelParams.init(micro_config(), seed=1, scale=0.1)
    inst = micro_instance()
    graph = build_graph(inst, model.config.cross_clip)
    checked = model["head.type.b"]
    view = checked.grad
    view[...] = 0.25
    err = finite_diff_check(lambda: instance_loss(inst, graph, model), {"head.type.b": checked})
    assert err < 1e-4
    assert checked.grad is view and (view == 0.25).all()
    assert model.stray_view() is None
    state = OptimizerState.init(model)
    adam_step(model, state, lr=1e-3)
    assert state.step == 1


def test_finite_diff_check_leaves_the_gradient_buffer_alone():
    """The analytic pass of a check on one parameter also adds into every
    other tensor that views ModelParams.grad; the check puts the whole
    buffer back, bit for bit, and the checked parameter's error is the
    same as on a zeroed buffer."""
    model = ModelParams.init(micro_config(), seed=1, scale=0.1)
    inst = micro_instance()
    graph = build_graph(inst, model.config.cross_clip)
    f = lambda: instance_loss(inst, graph, model)
    checked = {"head.type.b": model["head.type.b"]}
    err_on_zeros = finite_diff_check(f, checked)
    assert not model.grad.any()
    model.grad[...] = np.random.default_rng(4).normal(size=model.grad.shape)
    before = model.grad.copy()
    assert finite_diff_check(f, checked) == err_on_zeros
    np.testing.assert_array_equal(model.grad, before)
    assert model.stray_view() is None


def test_model_params_views_its_buffers():
    """ModelParams(config, tensors) copies the values into `flat`, then
    each tensor's `.data` and `.grad` view `flat` and `grad`, back to back
    in the order of the tensors."""
    given = {k: t.data.copy() for k, t in ModelParams.init(micro_config(), seed=3).tensors.items()}
    model = ModelParams(micro_config(), {k: Tensor(v, requires_grad=True) for k, v in given.items()})
    np.testing.assert_array_equal(model.flat, np.concatenate([v.ravel() for v in given.values()]))
    assert model.grad.shape == model.flat.shape and not model.grad.any()
    assert model.stray_view() is None
    offset = 0
    for name, t in model.tensors.items():
        size = given[name].size
        assert t.data.base is model.flat and t.grad.base is model.grad, name
        assert np.shares_memory(t.data, model.flat[offset : offset + size]), name
        assert np.shares_memory(t.grad, model.grad[offset : offset + size]), name
        np.testing.assert_array_equal(t.data, given[name], err_msg=name)
        offset += size
    assert offset == model.flat.size
    model.flat += 1.0
    assert not any(np.shares_memory(v, model.flat) for v in given.values())
    np.testing.assert_array_equal(model["head.type.b"].data, given["head.type.b"] + 1.0)


def test_grad_clip_scales_update():
    p1 = make_model({"w": [0.0]})
    p2 = make_model({"w": [0.0]})
    g = np.array([100.0])
    step_with(p1, OptimizerState.init(p1), {"w": g}, lr=0.1, grad_clip=1.0)
    step_with(p2, OptimizerState.init(p2), {"w": g / 100.0}, lr=0.1)
    np.testing.assert_allclose(p1["w"].data, p2["w"].data, rtol=1e-9)


def test_optimizer_state_array_round_trip():
    model = make_model({"w": [1.0, 2.0], "b": [3.0]})
    state = OptimizerState.init(model)
    state.step = 17
    state.to_arrays()["opt.m.w"][:] = 0.5
    back = OptimizerState.from_arrays(model, state.to_arrays())
    assert back.step == 17
    np.testing.assert_array_equal(back.to_arrays()["opt.m.w"], state.to_arrays()["opt.m.w"])


@pytest.mark.parametrize("grad_clip", [0.0, 0.5])
def test_adam_blocks_equal_one_block(grad_clip, monkeypatch):
    """From SPLIT_WORK values Adam's element-wise update runs in blocks side
    by side: over three steps, with and without clipping, the parameters
    and both moments equal those of one block bit for bit."""
    submitted, runs = [], []
    executor = T._executor
    monkeypatch.setattr(T, "_executor", lambda: submitted.append(1) or executor())
    for cpus in (1, 2):
        monkeypatch.setattr(T, "_cpus", lambda: cpus)
        model = ModelParams.init(EncoderConfig(vocab_size=64, d_h=64, n_layers=2), seed=0)
        assert model.flat.size >= T.SPLIT_WORK
        state, rng = OptimizerState.init(model), np.random.default_rng(1)
        for _ in range(3):
            model.grad[...] = rng.normal(size=model.grad.shape)
            adam_step(model, state, 1e-3, grad_clip)
        runs.append((model.flat, state.m, state.v))
    assert len(submitted) == 3
    for got, want in zip(runs[1], runs[0], strict=True):
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------- train loop


@pytest.fixture
def tiny():
    cfg = micro_config()
    return [micro_instance()], ModelParams.init(cfg, seed=0, scale=0.1)


def test_overfit_single_instance(tiny):
    insts, model = tiny
    tc = TrainConfig(batch_size=1, total_steps=200, peak_lr=5e-3, seed=0)
    _, trace, _ = train_loop(insts, model, tc)
    assert trace[-1].loss < 0.1 * trace[0].loss


def test_same_seed_identical_traces():
    """Also with dropout on, whose masks come from (seed, step)."""
    insts = [micro_instance()]
    tc = TrainConfig(batch_size=1, total_steps=10, peak_lr=1e-3, seed=4)
    runs = {}
    for dropout in (0.0, 0.1):
        traces = []
        for _ in range(2):
            model = ModelParams.init(micro_config(dropout=dropout), seed=0, scale=0.1)
            _, trace, _ = train_loop(insts, model, tc)
            traces.append([(r.step, r.lr, r.loss) for r in trace])
        assert traces[0] == traces[1], f"dropout {dropout}"
        runs[dropout] = traces[0]
    assert runs[0.0] != runs[0.1]  # the masks are live


def test_training_graphs_free_without_the_cyclic_collector(tiny):
    """No graph a step records is part of a reference cycle: with the
    cyclic collector off, a collection afterwards finds no Tensor or Tape
    that reference counting left behind."""
    insts, model = tiny
    tc = TrainConfig(batch_size=1, total_steps=3, peak_lr=1e-3, seed=0)
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    before = len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        train_loop(insts, model, tc)
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage[before:] if isinstance(o, (Tensor, Tape))]
    finally:
        gc.set_debug(flags)
        del gc.garbage[before:]
        if enabled:
            gc.enable()
    assert left == []


class RotatingPath:
    """Path-like object yielding a fresh file per save, so the mid-run
    checkpoint survives the final one."""

    def __init__(self, directory):
        self.directory = directory
        self.count = 0
        self.written = []

    def __fspath__(self):
        self.count += 1
        path = str(self.directory / f"ck{self.count}.ckpt")
        self.written.append(path)
        return path


def test_resume_continues_bitwise(tmp_path):
    """Also with dropout on, whose masks come from (seed, step)."""
    insts = [micro_instance()]
    tc = TrainConfig(
        batch_size=1, total_steps=12, peak_lr=1e-3, seed=9, checkpoint_every=6
    )
    for dropout in (0.0, 0.1):
        rotating = RotatingPath(tmp_path / f"dropout{dropout}")
        rotating.directory.mkdir()
        model_full = ModelParams.init(micro_config(dropout=dropout), seed=0, scale=0.1)
        _, trace_full, _ = train_loop(insts, model_full, tc, checkpoint_path=rotating)

        resumed, extra = ModelParams.load(rotating.written[0])  # the step-6 snapshot
        state = OptimizerState.from_arrays(resumed, extra)
        assert state.step == 6
        _, trace_tail, _ = train_loop(insts, resumed, tc, opt_state=state)

        full = [(r.step, r.lr, r.loss) for r in trace_full]
        tail = [(r.step, r.lr, r.loss) for r in trace_tail]
        assert full[6:] == tail, f"dropout {dropout}"
        for name, t in model_full.tensors.items():
            np.testing.assert_array_equal(t.data, resumed.tensors[name].data,
                                          err_msg=f"{name}, dropout {dropout}")


def test_trace_csv_round_trip(tmp_path):
    rows = [TraceRow(0, 1e-6, 3.25), TraceRow(1, 2e-6, 3.125)]
    path = tmp_path / "trace.csv"
    write_trace_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,lr,loss"
    assert len(lines) == 3
    step, lr, loss = lines[1].split(",")
    assert int(step) == 0 and float(lr) == 1e-6 and float(loss) == 3.25


def test_empty_instances_rejected(tiny):
    _, model = tiny
    with pytest.raises(ValueError):
        train_loop([], model, TrainConfig())


@pytest.mark.parametrize("total_steps, every, saves", [(3, 1, 3), (12, 4, 3), (10, 4, 3), (5, 0, 1)])
def test_checkpoint_saved_once_per_state(tmp_path, total_steps, every, saves):
    """One save per checkpointed step, plus a final one only when the last
    step did not save; the last file holds the final parameters and Adam
    state."""
    insts = [micro_instance()]
    tc = TrainConfig(batch_size=1, total_steps=total_steps, peak_lr=1e-3, seed=2, checkpoint_every=every)
    rotating = RotatingPath(tmp_path)
    model = ModelParams.init(micro_config(), seed=0, scale=0.1)
    _, _, state = train_loop(insts, model, tc, checkpoint_path=rotating)
    assert rotating.count == saves
    loaded, extra = ModelParams.load(rotating.written[-1])
    for name, t in model.tensors.items():
        np.testing.assert_array_equal(loaded.tensors[name].data, t.data)
    saved_state = state.to_arrays()
    assert set(extra) == set(saved_state)
    for name, arr in saved_state.items():
        np.testing.assert_array_equal(extra[name], arr)
    assert int(extra["opt.step"][0]) == total_steps


# ---------------------------------------------------------------- background checkpoint writes


class PatchedFile:
    """Wraps a file; `on_write(data)` runs before each write, and may raise."""

    def __init__(self, fh, on_write):
        self.fh, self.on_write = fh, on_write

    def write(self, data):
        self.on_write(data)
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def step_checkpoints(tmp_path, total_steps):
    """The bytes of each step's checkpoint, from an undisturbed run."""
    tmp_path.mkdir()
    rotating = RotatingPath(tmp_path)
    tc = TrainConfig(batch_size=1, total_steps=total_steps, peak_lr=1e-3, seed=2, checkpoint_every=1)
    train_loop([micro_instance()], ModelParams.init(micro_config(), seed=0, scale=0.1), tc,
               checkpoint_path=rotating)
    return [Path(path).read_bytes() for path in rotating.written]


@pytest.mark.parametrize("every", [1, 2, 0])
def test_background_checkpoint_equals_synchronous_save(tmp_path, every):
    """The file train_loop leaves, written in the background, holds the
    same bytes as a synchronous save of the final state."""
    tc = TrainConfig(batch_size=1, total_steps=5, peak_lr=1e-3, seed=2, checkpoint_every=every)
    model = ModelParams.init(micro_config(), seed=0, scale=0.1)
    _, _, state = train_loop([micro_instance()], model, tc, checkpoint_path=tmp_path / "bg.ckpt")
    model.save(tmp_path / "sync.ckpt", extra=state.to_arrays())
    assert (tmp_path / "bg.ckpt").read_bytes() == (tmp_path / "sync.ckpt").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bg.ckpt", "sync.ckpt"]


def test_failed_background_write_raises_and_keeps_previous(tmp_path, monkeypatch):
    """The second of three writes fails on the writer thread: train_loop
    raises that OSError, submits no further write, and leaves the first
    step's file whole with no temporary file beside it."""
    want = step_checkpoints(tmp_path / "ref", 3)
    work = tmp_path / "work"
    work.mkdir()
    opened, raised = [], []

    def disk_full(data):
        raised.append(OSError("disk full"))
        raise raised[-1]

    def failing_open(path, mode, **kw):
        opened.append(path)
        fh = open(path, mode, **kw)
        return PatchedFile(fh, disk_full) if len(opened) == 2 else fh

    monkeypatch.setattr(P, "open", failing_open, raising=False)  # where `whole_file` opens
    tc = TrainConfig(batch_size=1, total_steps=3, peak_lr=1e-3, seed=2, checkpoint_every=1)
    model = ModelParams.init(micro_config(), seed=0, scale=0.1)
    with pytest.raises(OSError, match="disk full") as excinfo:
        train_loop([micro_instance()], model, tc, checkpoint_path=work / "m.ckpt")
    monkeypatch.undo()
    assert excinfo.value is raised[0]
    assert len(opened) == 2
    assert [p.name for p in work.iterdir()] == ["m.ckpt"]
    assert (work / "m.ckpt").read_bytes() == want[0]


def test_step_error_waits_for_write_in_flight(tmp_path, monkeypatch):
    """A step that raises while the previous checkpoint is still being
    written: the write completes before the error leaves train_loop."""
    want = step_checkpoints(tmp_path / "ref", 2)
    work = tmp_path / "work"
    work.mkdir()
    slowed = []

    def slow_first_write(data):
        if not slowed:
            slowed.append(True)
            time.sleep(0.3)

    monkeypatch.setattr(P, "open", lambda path, mode, **kw: PatchedFile(open(path, mode, **kw), slow_first_write),
                        raising=False)
    losses = []

    def failing_loss(*args, **kwargs):
        losses.append(True)
        if len(losses) == 2:
            raise RuntimeError("step failed")
        return instance_loss(*args, **kwargs)

    instance_loss = train_module.instance_loss
    monkeypatch.setattr(train_module, "instance_loss", failing_loss)
    tc = TrainConfig(batch_size=1, total_steps=2, peak_lr=1e-3, seed=2, checkpoint_every=1)
    model = ModelParams.init(micro_config(), seed=0, scale=0.1)
    with pytest.raises(RuntimeError, match="step failed"):
        train_loop([micro_instance()], model, tc, checkpoint_path=work / "m.ckpt")
    monkeypatch.undo()
    assert slowed == [True]
    assert [p.name for p in work.iterdir()] == ["m.ckpt"]
    assert (work / "m.ckpt").read_bytes() == want[0]
    loaded, extra = ModelParams.load(work / "m.ckpt")
    assert int(extra["opt.step"][0]) == 1
