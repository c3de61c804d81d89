"""Minimal dense tensors with reverse-mode differentiation.

The op set is intentionally small: exactly what the graph encoder and the
output heads need (matmul, broadcast add/mul, concat, reshape, row slices,
gathers, two fused multi-head attention ops, the fused feed-forward
sublayer, layer norm, one log-probability of a masked softmax per loss
term, dropout). Every scatter-add goes through `ScatterPlan`, a 0/1 CSR
matrix applied as one sparse product, which keeps the working dtype; the
relative-position buckets of a fully connected level go through its
cached `BandPlan`, which expands and folds them without an index gather
or scatter. Every forward op validates that its output is finite; NaN/Inf
anywhere is a hard error rather than a silent corruption of the run. The
attention scores, which are not an op output, are covered either by a
bound on their size, known before they are computed, or by a scan of
their own.

Ops record onto the tape of the innermost `record_tape` block, and only
there: an op's output requires a gradient, and is taped, when a block is
open and one of its inputs requires a gradient. Outside every block an
op only computes, so inference and the finite differences need no other
switch. A taped node refers to its tape only weakly, so a graph forms no
reference cycle: the tape, and with it every node it lists, lives until
its block ends and then goes by reference counting. `backward` drops
each node's closure once the replay has passed it, so a replayed tape
holds only node outputs.

Three ops split a large call across the CPUs the calling thread may run
on (`os.sched_getaffinity`; on one CPU nothing splits) once its work reaches
SPLIT_WORK: `relative_attention` runs min(m, CPUs) contiguous groups of
heads side by side, forward and backward, from m n^2 score cells and only
on its bound-shifted route; `feed_forward` runs as many row blocks from
rows x d_ff, and `edge_attention` as many blocks of whole destinations
from E m d_z. Heads are independent until their outputs are concatenated,
FFN rows until the weight gradients sum over them, and destinations until
the sums by source and bucket, so each part does the same arithmetic as
in one call, and the results are bit-identical to it. The first part runs
on the calling thread and the rest on a pool of CPUs - 1 threads, which
the first split call of a process starts, unless the first is done before
the pool begins them, each pinned to a CPU other than the calling thread's
(whose own CPUs stay as they are); only numpy runs there, no op is
recorded or split again there, and whatever mixes parts runs after the
join. Below SPLIT_WORK a call makes no more numpy calls than one that
never splits.

Two precision modes exist: "standard" (float64) for training and
"extended" (longdouble) used only by the finite-difference harness.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from functools import cached_property, lru_cache
from typing import Callable, Dict, Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.special import erf as _erf64


class ShapeMismatchError(ValueError):
    pass


class ContractViolation(ValueError):
    pass


class NonFiniteError(FloatingPointError):
    pass


_DTYPES = {"standard": np.float64, "extended": np.longdouble}
_dtype_stack = [np.float64]
_tape_stack: list["Tape"] = []


def current_dtype():
    return _dtype_stack[-1]


@contextmanager
def precision(mode: str):
    """Switch the working dtype ('standard' or 'extended')."""
    if mode not in _DTYPES:
        raise ValueError(f"unknown precision mode {mode!r}")
    _dtype_stack.append(_DTYPES[mode])
    try:
        yield
    finally:
        _dtype_stack.pop()


class Tape:
    """Ordered record of executed ops; reverse replay drives backward().

    The tape holds its nodes; each node holds only `ref`, a weak reference
    to the tape. The tape lives until its `record_tape` block ends. Once
    replayed, its nodes hold only their outputs, not the arrays their
    backward closures saved.
    """

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.ref = weakref.ref(self)

    def __len__(self):
        return len(self.nodes)


@contextmanager
def record_tape():
    """Record differentiable ops on a fresh tape for the block's duration.

    The tape ends with the block: `backward` refuses a loss whose block
    has ended, and with no cycle between nodes and tape, the graph is
    freed by reference counting as soon as nothing else holds it.
    """
    t = Tape()
    _tape_stack.append(t)
    try:
        yield t
    finally:
        _tape_stack.pop()


def _check_finite(data: np.ndarray, op: str):
    if not np.isfinite(data).all():
        raise NonFiniteError(f"non-finite value produced by op {op!r}")


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_backward", "_tape_ref")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=current_dtype())
        if arr.size and not np.isfinite(arr).all():
            raise NonFiniteError("tensor initialized with non-finite data")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._tape_ref: weakref.ref | None = None

    @property
    def _tape(self) -> Tape | None:
        """The tape this node was recorded on, while that tape lives."""
        return self._tape_ref() if self._tape_ref is not None else None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; constants are wrapped as non-differentiable tensors.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g  # in place: same bits as t.grad + g, and a view stays a view


def _make(data: np.ndarray, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._backward = None
    out._tape_ref = None
    out.requires_grad = bool(_tape_stack) and any(p.requires_grad for p in parents)
    if out.requires_grad:
        tape = _tape_stack[-1]
        out._backward = backward
        out._tape_ref = tape.ref
        tape.nodes.append(out)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting introduced."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------- basic ops


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(
            f"matmul shape mismatch: {a.shape} x {b.shape}"
        )
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _make(data, (a, b), backward, "matmul")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(data, (a,), backward, "reshape")


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]

    def backward(g):
        offset = 0
        for p, n in zip(parts, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + n)
            _accumulate(p, g[tuple(sl)])
            offset += n

    return _make(data, parts, backward, "concat")


class ScatterPlan:
    """Scatter-add over integer keys that keeps the working dtype.

    `plan(values)` returns `out` of length `size` along axis 0 with
    out[k] = sum of values[i] over keys[i] == k.
    Negative keys count from the end, as numpy indices do, so -1 and
    size - 1 land in one sum. The plan is the (size, len(keys)) CSR
    matrix with a one at (keys[i], i), built straight from the stable
    sort order of the keys (O(len(keys)) when they are already sorted);
    a scatter is one sparse product, whose result has the values' dtype,
    longdouble included. A plan built for static index arrays serves
    every later scatter.
    """

    __slots__ = ("matrix",)

    def __init__(self, keys, size: int):
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        if keys.size:
            lo, hi = keys.min(), keys.max()
            if lo < -size or hi >= size:
                raise ContractViolation(f"scatter key outside [-{size}, {size})")
            if lo < 0:
                keys = np.where(keys < 0, keys + size, keys)
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys, minlength=size), out=indptr[1:])
        order = np.argsort(keys, kind="stable")
        self.matrix = csr_array((np.ones(keys.size), order, indptr), shape=(size, keys.size))

    def __call__(self, values: np.ndarray) -> np.ndarray:
        out = self.matrix @ values.reshape(values.shape[0], math.prod(values.shape[1:]))
        return out.reshape((self.matrix.shape[0],) + values.shape[1:])


def rows(a: Tensor, index: slice) -> Tensor:
    """The rows a[index] of a contiguous range; the backward pass places
    the gradient in those rows, with no scatter."""
    data = a.data[index]

    def backward(g):
        full = np.zeros_like(a.data)
        full[index] = g
        _accumulate(a, full)

    return _make(data, (a,), backward, "rows")


def gather(a: Tensor, index) -> Tensor:
    """Take rows along axis 0; index may have any shape."""
    idx = np.asarray(index)
    data = a.data[idx]

    def backward(g):
        if a.requires_grad:
            plan = ScatterPlan(idx, a.shape[0])
            _accumulate(a, plan(g.reshape((-1,) + a.shape[1:])))

    return _make(data, (a,), backward, "gather")


class EdgeList:
    """Directed, bucketed edges (dst attends to src), sorted by (dst, src).

    The sparse counterpart of a boolean mask plus a bucket matrix:
    `starts[i]` is the first edge of destination i, and the scatter plans
    over dst, src and bucket are built once each, so every pass of
    `edge_attention` reuses them.
    """

    def __init__(self, dst, src, bucket, n_nodes: int, n_buckets: int):
        dst, src, bucket = (np.asarray(x, dtype=np.int64).reshape(-1) for x in (dst, src, bucket))
        if not len(dst) == len(src) == len(bucket):
            raise ShapeMismatchError("edge arrays differ in length")
        for name, x, bound in (("dst", dst, n_nodes), ("src", src, n_nodes), ("bucket", bucket, n_buckets)):
            if x.size and (x.min() < 0 or x.max() >= bound):
                raise ContractViolation(f"edge {name} index outside [0, {bound})")
        order = np.lexsort((src, dst))
        self.dst, self.src, self.bucket = dst[order], src[order], bucket[order]
        same = (self.dst[1:] == self.dst[:-1]) & (self.src[1:] == self.src[:-1])
        if same.any():
            k = int(np.argmax(same))
            raise ContractViolation(f"duplicate edge {self.dst[k]} <- {self.src[k]}")
        self.n_nodes, self.n_buckets = n_nodes, n_buckets
        self.degree = np.bincount(self.dst, minlength=n_nodes)
        self.starts = np.r_[0, np.cumsum(self.degree)[:-1]]
        self._blocks: dict[int, tuple] = {}

    def blocks(self, count: int) -> tuple:
        """Up to `count` runs of whole destinations of about equal edge counts, kept per count:
        (node slice, edge slice, dst and first edges counted from the run's start, `by_dst` rows)."""
        if count == 1:  # the whole list: nothing to set up below SPLIT_WORK
            return ((slice(0, self.n_nodes), slice(0, len(self)), self.dst, self.starts, self.by_dst),)
        if count not in self._blocks:
            # a run ends before the first node whose middle edge passes the next share of the edges
            mid, share = self.starts + self.degree / 2, np.arange(1, count) * len(self) / count
            cuts = sorted({0, self.n_nodes, *np.searchsorted(mid, share).tolist()})
            firsts = [*self.starts[cuts[:-1]].tolist(), len(self)]
            self._blocks[count] = tuple(
                (slice(a, b), slice(c, d), to, self.starts[a:b] - c, ScatterPlan(to, b - a))
                for a, b, c, d in zip(cuts, cuts[1:], firsts, firsts[1:]) for to in [self.dst[c:d] - a])
        return self._blocks[count]

    # The scatter plans are built on first use and kept: inference only
    # ever sums by destination.
    @cached_property
    def by_dst(self) -> ScatterPlan:
        return ScatterPlan(self.dst, self.n_nodes)

    @cached_property
    def by_src(self) -> ScatterPlan:
        return ScatterPlan(self.src, self.n_nodes)

    @cached_property
    def by_bucket(self) -> ScatterPlan:
        return ScatterPlan(self.bucket, self.n_buckets)

    def __len__(self) -> int:
        return len(self.dst)

    def adjacency(self) -> np.ndarray:
        """Dense boolean mask, mask[dst, src] = True on every edge."""
        mask = np.zeros((self.n_nodes, self.n_nodes), dtype=bool)
        mask[self.dst, self.src] = True
        return mask


class BandPlan:
    """Relative-position buckets of a fully connected level of n nodes:
    pair (i, j) is in bucket clip(j - i, -c, c) + c.

    In the row-major (n, n) layout the buckets of row i are consecutive
    runs of cells: bucket 0 is columns 0..i-c, the interior bucket c + d
    the single cell (i, i + d) (a diagonal), and bucket 2c the columns
    i+c..n-1 (for c = 0 the one bucket is the whole row).
    `add_expanded` repeats each bucket value over its run and `fold` sums
    each run, so neither pads a copy, as the "skewing" of Music Transformer
    (Huang et al., arXiv:1809.04281) does, nor gathers or scatters by
    index. Build plans with `band_plan`, which caches them.
    """

    __slots__ = ("n", "runs", "starts", "nonempty")

    def __init__(self, n: int, clip: int):
        rows = np.arange(n)[:, None]
        first = np.clip(rows + np.arange(2 * clip + 1) - clip, 0, n)  # first column of each run
        first[:, 0] = 0
        self.n = n
        # int32 halves what the cache holds; n * n < 2**31 for any level
        # whose (n, n) scores fit in memory
        self.runs = np.diff(first, axis=1, append=n).reshape(-1).astype(np.int32)
        # flat run starts; an empty run at the very end points at the last cell
        self.starts = np.minimum(rows * n + first, max(n * n - 1, 0)).reshape(-1).astype(np.int32)
        self.nonempty = self.runs > 0

    def add_expanded(self, out: np.ndarray, r: np.ndarray) -> None:
        """out[..., i, j] += r[..., i, clip(j - i, -c, c) + c] for r of shape
        (..., n, 2c + 1), in place.

        Rows go in blocks of about 64k cells, so the expanded copy is never
        a second (n, n) array: at n = 512 that copy is 8 MB, and malloc
        trims such a block, freed at the top of the heap, back to the
        system, for the next call to fault in again page by page.
        """
        lead, width = r.shape[:-2], r.shape[-1]
        step = max(1, (1 << 16) // (self.n * math.prod(lead)))
        for i in range(0, self.n, step):
            block = r[..., i : i + step, :]
            runs = self.runs[i * width : (i + block.shape[-2]) * width]
            flat = np.repeat(block.reshape(lead + (-1,)), runs, axis=-1)
            out[..., i : i + step, :] += flat.reshape(block.shape[:-1] + (self.n,))

    def fold(self, g: np.ndarray) -> np.ndarray:
        """Adjoint of `add_expanded`: out[..., i, b] is the sum of
        g[..., i, j] over the j with clip(j - i, -c, c) + c == b."""
        lead = g.shape[:-2]
        out = np.add.reduceat(g.reshape(lead + (-1,)), self.starts, axis=-1)
        out *= self.nonempty  # reduceat hands back a cell for an empty run
        return out.reshape(lead + (self.n, -1))


@lru_cache(maxsize=32)
def band_plan(n: int, clip: int) -> BandPlan:
    """The cached `BandPlan` of an n-node level with clip `clip`."""
    return BandPlan(n, clip)


# ---------------------------------------------------------------- side by side

# The work, in cells of a level's (m, n, n) scores or in FFN rows x d_ff,
# from which an op runs independent parts side by side. On a 2-vCPU VM,
# with the pool pinned, over three probes two groups of a 4-head level
# (d_z = 16) took 2.7-4.2x the time of one at n = 32 and 64, 0.85-1.76x
# at n = 128, 0.95-1.15x at n = 256 and 0.72-1.04x at n = 512, and two
# FFN row blocks (d_ff = 256) 0.81-0.89x at the paper's 556 rows and
# 0.86-1.13x at 128 (forward alone, and forward plus backward).
SPLIT_WORK = 1 << 17

_pool: tuple[int, ThreadPoolExecutor] | None = None  # (pid of the process that made it, pool)
_pool_lock = threading.Lock()
_on_pool = threading.local()  # .pool is True on the pool's threads, .cpu the one CPU each is pinned to
# The CPU the calling thread is on now, where the C library says (-1 where not)
_current_cpu = getattr(ctypes.CDLL(None) if os.name == "posix" else None, "sched_getcpu", lambda: -1)


def _cpus() -> int:
    """The CPUs the calling thread's own affinity mask allows, not the process's (one where not known)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _group_count(parts: int, work: int) -> int:
    """Into how many side-by-side groups a call of `parts` independent
    parts and `work` cells in all splits: one per CPU, at most `parts`; one
    below SPLIT_WORK, and one on the pool's own threads, where a split
    would wait on a pool with no thread free to run its groups."""
    return min(parts, _cpus()) if work >= SPLIT_WORK and not getattr(_on_pool, "pool", False) else 1


def _executor() -> ThreadPoolExecutor:
    """This process's pool, made on first use; its threads run each group
    pinned to one CPU (see `_pinned`). A child forked from a process with
    a pool inherits the pool but none of its threads, so it makes its own."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            workers = max(1, _cpus() - 1)
            _pool = (os.getpid(), ThreadPoolExecutor(workers, thread_name_prefix="tensor",
                                                     initializer=setattr, initargs=(_on_pool, "pool", True)))
        return _pool[1]


def _pinned(cpu: int, fn: Callable, *args):
    """fn(*args) on this pool thread, pinned first to `cpu` alone: unpinned,
    it shared the CPU of the thread that woke it while the other idled."""
    if getattr(_on_pool, "cpu", None) != cpu:
        os.sched_setaffinity(0, {cpu})
        _on_pool.cpu = cpu
    return fn(*args)


def _side_by_side(fn: Callable, count: int, *args) -> list:
    """fn once per group, for `count` groups side by side: group i gets the
    i-th of `count` contiguous blocks (views along axis 0) of each array in
    `args`, or the i-th item of each tuple, which holds a block per group
    already (as an earlier call returned them). Group 0 runs on this thread
    and the others on the pool at once, but a group the pool has not begun
    when group 0 is done runs here too; with one group, fn runs here on the
    whole arrays.

    Returns the results in group order, only after every group has
    finished, then raises the first error a group raised. `fn` runs
    numpy on its own blocks and touches no tape or dtype state,
    so each block's arithmetic, and with it every bit of the result, is the
    same as in one call, whichever thread runs it.

    A group allocates no large array: the caller allocates each array the
    groups write, once per call, and they fill its blocks with `out=`. When
    groups allocated their own (4 MB of scores, say), the pool thread faulted
    about 2 200 times per paper training step; now it faults 0 times.
    """
    if count == 1:
        return [fn(*[a[0] if type(a) is tuple else a for a in args])]
    calls = list(zip(*(a if type(a) is tuple else np.array_split(a, count) for a in args)))
    cpus, here = sorted(os.sched_getaffinity(0)), _current_cpu()
    at = cpus.index(here) + 1 if here in cpus else 0  # group i goes to the i-th CPU after this one
    futures = [_executor().submit(_pinned, cpus[i % len(cpus)], fn, *c) for i, c in enumerate(calls[1:], at)]
    try:
        results = [fn(*calls[0])]
        results += [fn(*call) if f.cancel() else f for f, call in zip(futures, calls[1:])]
    finally:
        # Poll rather than block: on a 2-vCPU VM with the pool pinned, over
        # 5 alternating paper benchmark pairs, blocking joins (which leave
        # this thread's CPU idle) ran train 2.5% slower at reference speed
        # and 6.0% slower in wall time, faster in 1 pair of 5. sleep(0)
        # lets the pool's threads take the GIL.
        while not all(f.done() for f in futures):
            time.sleep(0)
    return [r.result() if isinstance(r, Future) else r for r in results]


def _joined(parts: Sequence[np.ndarray], axis: int = 0) -> np.ndarray:
    """The parts concatenated along `axis`; a single part as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _head_width(qkv: Tensor, m: int, ak: Tensor, av: Tensor, n_buckets: int) -> tuple[int, int]:
    """Check the operand shapes of a fused attention op; return (n, d_z)."""
    n, d3 = qkv.shape
    dz = d3 // (3 * m) if m > 0 else 0
    if dz < 1 or d3 != 3 * m * dz:
        raise ShapeMismatchError(f"qkv width {d3} is not 3 x {m} heads x d_z")
    for name, table in (("ak", ak), ("av", av)):
        if table.shape != (n_buckets, dz):
            raise ShapeMismatchError(f"{name} is {table.shape}, expected {(n_buckets, dz)}")
    return n, dz


# The largest score bound U by which `relative_attention` shifts its
# softmax in place of the row max: every exp(e - U) with |e| <= U lies in
# [e**-600, 1], so nothing overflows or underflows and each row sum is at
# least one such term.
SHIFT_LIMIT = 300.0


def relative_attention(
    qkv: Tensor, ak: Tensor, av: Tensor, m: int, clip: int, weights: list | None = None
) -> Tensor:
    """Multi-head attention over a fully connected level whose pair (i, j)
    has relational bucket clip(j - i, -c, c) + c.

    `qkv` is (n, 3d) with columns [Q heads | K heads | V heads], head k at
    columns k d_z..(k + 1) d_z of each block; `ak` and `av` are the
    (2c + 1, d_z) tables the heads share. Per head,
    e_ij = q_i . (k_j + ak[b_ij]) / sqrt(d_z), alpha_i = softmax(e_i),
    z_i = sum_j alpha_ij (v_j + av[b_ij]), and the result is (n, d) with
    the heads side by side. Heads are batched on a leading axis; the key
    term is one q . ak^T added through the level's `BandPlan` (Shaw et al.,
    arXiv:1803.02155), the value term one band fold of the weights.

    The softmax is left unnormalised, p = exp(e - U), and 1/sum_j p, read
    off the fold, scales the (n, d_z) results instead of the (n, n)
    weights. U = sqrt(d_z) max|q| (max|k| + max|ak|) >= |e| (the sum of
    |q_d| |k_d + ak_d| over the d_z columns) comes from one reduction over
    q and k and one over ak, before the scores exist, and -U rides on the
    band add. With U <= SHIFT_LIMIT no score can be non-finite, so there
    is no max pass and no finiteness scan; otherwise (U too large, or not
    finite) the scores are scanned and shifted by their row max.
    If `weights` is a list, the call takes that second route and appends
    the dense (m, n, n) scores e and weights alpha to it.

    On the first route, a call of m n^2 >= SPLIT_WORK score cells runs
    contiguous groups of heads side by side (see `_side_by_side`): each
    group's passes over its (n, n) scores, forward and backward. What
    mixes heads (U, 1/s, the av term and the ak and av gradients) runs
    after the join on the whole arrays.
    """
    n, dz = _head_width(qkv, m, ak, av, 2 * clip + 1)
    band = band_plan(n, clip)
    qkvt = qkv.data.reshape(n, 3, m, dz).transpose(1, 2, 0, 3).copy()  # a copy even when n == 1
    q, k, v = qkvt
    q_max, k_max = np.abs(qkvt[:2]).max(axis=(1, 2, 3)).tolist()
    bound = math.sqrt(dz) * q_max * (k_max + np.abs(ak.data).max())
    shifted = weights is None and bound <= SHIFT_LIMIT
    scale = 1.0 / math.sqrt(dz)
    q *= scale
    count = _group_count(m, m * n * n if shifted else 0)
    scores = None
    p, z = np.empty((m, n, n), q.dtype), np.empty((m, n, dz), q.dtype)  # p is kept for the backward

    def forward(qh, kh, vh, ph, zh):
        nonlocal scores
        np.matmul(qh, kh.swapaxes(1, 2), out=ph)
        r = qh @ ak.data.T
        if shifted:
            r -= bound
        band.add_expanded(ph, r)
        if not shifted:
            _check_finite(ph, "relative_attention")
            if weights is not None:
                scores = ph.copy()
            ph -= ph.max(axis=-1, keepdims=True)  # the softmax runs in place
        np.exp(ph, out=ph)
        np.matmul(ph, vh, out=zh)
        return band.fold(ph)  # the fold's runs partition each row

    folded = _joined(_side_by_side(forward, count, q, k, v, p, z))
    inv_s = 1.0 / folded.sum(axis=-1, keepdims=True)  # (m, n, 1)
    z += folded @ av.data
    z *= inv_s
    if weights is not None:
        weights.append((scores, p * inv_s))

    def backward(g):
        # de_ij = alpha_ij (gz_i . (v_j + av[b_ij]) - gz_i . z_i); 1/s_i
        # rides on gz_i, the one per-row factor
        gzs = g.reshape(n, m, dz).transpose(1, 0, 2) * inv_s
        gs, grad = np.empty((m, n, n), q.dtype), np.empty((m, 3, n, dz), q.dtype)

        def group(gz, vh, zh, kh, qh, ph, gsh, gh):
            np.matmul(gz, vh.swapaxes(1, 2), out=gsh)
            band.add_expanded(gsh, gz @ av.data.T - np.einsum("hid,hid->hi", gz, zh)[..., None])
            gsh *= ph
            gfold = band.fold(gsh)
            if qkv.requires_grad:
                gq = np.matmul(gsh, kh, out=gh[:, 0])
                gq += gfold @ ak.data
                gq *= scale
                np.matmul(gsh.swapaxes(1, 2), qh, out=gh[:, 1])
                np.matmul(ph.swapaxes(1, 2), gz, out=gh[:, 2])
            return gfold

        gfolds = _side_by_side(group, count, gzs, v, z, k, q, p, gs, grad)
        if qkv.requires_grad:
            _accumulate(qkv, grad.transpose(2, 1, 0, 3).reshape(n, 3 * m * dz))
        if ak.requires_grad:
            _accumulate(ak, _joined(gfolds).reshape(-1, 2 * clip + 1).T @ q.reshape(-1, dz))
        if av.requires_grad:
            _accumulate(av, folded.reshape(-1, 2 * clip + 1).T @ gzs.reshape(-1, dz))

    return _make(z.transpose(1, 0, 2).reshape(n, m * dz), (qkv, ak, av), backward, "relative_attention")


def edge_attention(
    qkv: Tensor, ak: Tensor, av: Tensor, m: int, edges: EdgeList, weights: list | None = None
) -> Tensor:
    """Multi-head attention along the edges of `edges` (dst attends to src).

    `qkv`, the result and `weights` are as in `relative_attention`; `ak`
    and `av` are (n_buckets, d_z). Per head and edge,
    e = q[dst] . (k[src] + ak[bucket]) / sqrt(d_z), alpha is the softmax of
    e over each destination's incoming edges, and
    z[i] = sum over edges into i of alpha (v[src] + av[bucket]). Only the
    edges are scored; every sum over edges is one of the edge list's
    scatter plans, and, as in `relative_attention`, 1/sum p scales the
    per-node results. The scores are checked finite and shifted by each
    destination's max, not by a bound: a destination with one incoming
    edge then gets p = 1 and exactly v[src] + av[bucket], where
    exp(e - U) would leave it one rounding off, moving with q. With
    `weights`, off-edge cells hold e = -inf and alpha = 0.

    From E m d_z >= SPLIT_WORK, `edges.blocks` run side by side: each its
    edges' scores and sums by destination, and in the backward its per-edge
    gradients and q rows; the sums by source and bucket follow the join.
    """
    if not edges.degree.all():
        raise ContractViolation("edge_attention: a destination has no incoming edge")
    n, dz = _head_width(qkv, m, ak, av, edges.n_buckets)
    if n != edges.n_nodes:
        raise ShapeMismatchError(f"{n} rows for a graph of {edges.n_nodes} nodes")
    x = qkv.data.reshape(n, 3, m, dz)
    scale = 1.0 / math.sqrt(dz)
    xq = x[:, 0] * scale
    blocks = edges.blocks(_group_count(n, len(edges) * m * dz))
    qd, kb, vb, pv = (np.empty((len(edges), m, dz), x.dtype) for _ in range(4))  # pv holds p vb
    e, p = np.empty((2, len(edges), m), x.dtype)
    inv_s, z = np.empty((n, m), x.dtype), np.empty((n, m, dz), x.dtype)

    def forward(block):  # dst_row: each edge's destination within the block
        nodes, cut, dst_row, starts, plan = block
        xq[nodes].take(dst_row, axis=0, out=qd[cut], mode="clip")  # in range; "raise" would copy out
        for gathered, col, table in ((kb[cut], 1, ak), (vb[cut], 2, av)):
            x[:, col].take(edges.src[cut], axis=0, out=gathered, mode="clip")
            gathered += table.data[edges.bucket[cut]][:, None]
        np.einsum("emd,emd->em", qd[cut], kb[cut], out=e[cut])
        _check_finite(e[cut], "edge_attention")
        pb = np.subtract(e[cut], np.maximum.reduceat(e[cut], starts)[dst_row], out=p[cut])
        np.exp(pb, out=pb)
        np.divide(1.0, plan(pb), out=inv_s[nodes])
        np.multiply(pb[..., None], vb[cut], out=pv[cut])
        np.multiply(plan(pv[cut]), inv_s[nodes, :, None], out=z[nodes])

    _side_by_side(forward, len(blocks), blocks)
    if weights is not None:
        e_dense = np.full((m, n, n), -np.inf, dtype=e.dtype)
        alpha_dense = np.zeros((m, n, n), dtype=e.dtype)
        e_dense[:, edges.dst, edges.src] = e.T
        alpha_dense[:, edges.dst, edges.src] = (p * inv_s[edges.dst]).T
        weights.append((e_dense, alpha_dense))

    def backward(g):
        gzs = g.reshape(n, m, dz) * inv_s[..., None]
        gs, gkb, gvb = np.empty_like(p), np.empty_like(qd), np.empty_like(qd)
        grad = np.empty((n, 3, m, dz), x.dtype)

        def group(block):  # the block's per-edge gradients and its gq rows
            nodes, cut, dst_row, starts, plan = block
            gd = gzs[nodes].take(dst_row, axis=0, out=gvb[cut], mode="clip")
            gsb = np.einsum("emd,emd->em", gd, vb[cut], out=gs[cut])
            gsb -= np.einsum("imd,imd->im", gzs[nodes], z[nodes])[dst_row]
            gsb *= p[cut]
            np.multiply(gsb[..., None], qd[cut], out=gkb[cut])
            gd *= p[cut][..., None]
            if qkv.requires_grad:
                kbb = kb[cut]
                kbb *= gsb[..., None]  # in place: kb is not read again
                np.multiply(plan(kbb), scale, out=grad[nodes, 0])

        _side_by_side(group, len(blocks), blocks)
        if qkv.requires_grad:
            grad[:, 1], grad[:, 2] = edges.by_src(gkb), edges.by_src(gvb)
            _accumulate(qkv, grad.reshape(n, 3 * m * dz))
        if ak.requires_grad:
            _accumulate(ak, edges.by_bucket(gkb.sum(axis=1)))
        if av.requires_grad:
            _accumulate(av, edges.by_bucket(gvb.sum(axis=1)))

    return _make(z.reshape(n, m * dz), (qkv, ak, av), backward, "edge_attention")


def _normalized(x: np.ndarray, centred=None, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Layer norm's xhat over the last axis of `x` (eps 1e-12) and the
    1/std it scaled by; the centred rows go to `centred` and xhat to `out`
    when they are given."""
    if x.shape[-1] < 2:
        raise ContractViolation("layer_norm requires last extent >= 2")
    xc = np.subtract(x, x.mean(axis=-1, keepdims=True), out=centred)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-12)
    return np.multiply(xc, inv, out=out), inv


def _normalized_grad(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                     out=None) -> np.ndarray:
    """The gradient layer norm passes back to its input, in `out` if given."""
    d = xhat.shape[-1]
    dxhat = g * gain
    return np.multiply(inv / d, d * dxhat - dxhat.sum(axis=-1, keepdims=True)
                       - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True), out=out)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    d = a.shape[-1]
    xhat, inv = _normalized(a.data)
    data = xhat * gain.data + bias.data

    def backward(g):
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, d).sum(axis=0))
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if a.requires_grad:
            _accumulate(a, _normalized_grad(g, gain.data, xhat, inv))

    return _make(data, (a, gain, bias), backward, "layer_norm")


def feed_forward(
    pre: Tensor, post: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, gain: Tensor,
    bias: Tensor, rate: float = 0.0, rng: np.random.Generator | None = None,
) -> Tensor:
    """The position-wise FFN sublayer as one op: layer_norm(pre +
    dropout(gelu([pre | post] w1 + b1)) w2 + b2) with `gain` and `bias`,
    gelu by the exact erf in float64 and the dropout mask drawn here.

    A call of rows x d_ff >= SPLIT_WORK runs contiguous row blocks side by
    side (see `_side_by_side`), the whole chain forward and the per-row
    chain backward; the weight and bias gradients, sums over rows, follow
    the join. Output and gradients equal those of the chain's nine ops
    (concat, matmul, add, gelu, dropout, matmul, add, add, `layer_norm`)
    bit for bit."""
    n, d = pre.shape
    d_ff = b1.shape[0]
    want = {"post": (n, d), "w1": (2 * d, d_ff), "w2": (d_ff, d), "b2": (d,), "gain": (d,), "bias": (d,)}
    for (name, shape), t in zip(want.items(), (post, w1, w2, b2, gain, bias)):
        if t.shape != shape:
            raise ShapeMismatchError(f"feed_forward {name} is {t.shape}, expected {shape}")
    count = _group_count(n, n * d_ff)
    keep, scale = _dropout_mask((n, d_ff), rate, rng)
    keep = (None,) * count if keep is None else keep  # no mask for any block: no dropout
    dtype = np.result_type(*(t.data for t in (pre, post, w1, b1, w2, b2, gain, bias)))
    x, h, xhat, out, a = (np.empty((n, k), dtype) for k in (2 * d, d_ff, d, d, d_ff))
    phi = np.empty((n, d_ff))  # float64, for erf

    def forward(p, q, keep, x, h, xhat, out, a, phi):
        x[:, :d], x[:, d:] = p, q
        np.matmul(x, w1.data, out=a)
        a += b1.data
        np.divide(a, math.sqrt(2.0), out=phi, dtype=np.float64)
        _erf64(phi, out=phi)
        phi += 1.0
        phi *= 0.5
        phi = phi.astype(dtype, copy=False)
        np.multiply(a, phi, out=h)
        if keep is not None:
            h *= keep
            h *= scale
        r = h @ w2.data
        r += b2.data
        r += p
        _, inv = _normalized(r, r, xhat)
        np.multiply(xhat, gain.data, out=out)
        out += bias.data
        return phi, inv

    phi, inv = zip(*_side_by_side(forward, count, pre.data, post.data, keep, x, h, xhat, out, a, phi))

    def backward(g):
        da, ga, gx = (np.empty((n, k), dtype) for k in (d, d_ff, 2 * d))

        def block(g, xhat, inv, keep, a, phi, da, ga, gx):
            _normalized_grad(g, gain.data, xhat, inv, da)
            dens = np.square(a, dtype=np.float64, out=ga if dtype == np.float64 else None)
            dens *= -0.5
            np.exp(dens, out=dens)
            dens /= math.sqrt(2 * math.pi)
            np.multiply(dens, a, out=ga)  # g (Phi + x phi), in place
            ga += phi
            gh = np.matmul(da, w2.data.T, out=phi)  # phi is not read again
            if keep is not None:
                gh *= keep
                gh *= scale
            ga *= gh
            if pre.requires_grad or post.requires_grad:
                np.matmul(ga, w1.data.T, out=gx)

        _side_by_side(block, count, g, xhat, inv, keep, a, phi, da, ga, gx)
        for t, grad in ((bias, lambda: g.sum(axis=0)), (gain, lambda: (g * xhat).sum(axis=0)),
                        (pre, lambda: da), (b2, lambda: da.sum(axis=0)), (w2, lambda: h.T @ da),
                        (b1, lambda: ga.sum(axis=0)), (w1, lambda: x.T @ ga),
                        (pre, lambda: gx[:, :d]), (post, lambda: gx[:, d:])):
            if t.requires_grad:
                _accumulate(t, grad())

    return _make(out, (pre, post, w1, b1, w2, b2, gain, bias), backward, "feed_forward")


def log_softmax_at(logits: Tensor, index: int, mask=None) -> Tensor:
    """log softmax(logits)[index] as a 0-d tensor, for 1-d `logits`: the
    softmax runs over the entries where `mask` is True, or over all of
    them when it is None. Masked entries get zero gradient."""
    x = logits.data
    m = np.ones(x.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if not m.any():
        raise ContractViolation("log_softmax_at: every position is masked")
    xmax = np.where(m, x, -np.inf).max(axis=-1, keepdims=True)
    ex = np.where(m, np.exp(x - xmax), 0.0)
    lse = np.log(ex.sum(axis=-1, keepdims=True)) + xmax
    p = ex / ex.sum(axis=-1, keepdims=True)

    def backward(g):
        if logits.requires_grad:
            gm = np.zeros_like(x)
            gm[index] = g
            _accumulate(logits, gm - p * g)

    return _make((x[index] - lse).reshape(()), (logits,), backward, "log_softmax_at")


def _dropout_mask(shape, rate: float, rng: np.random.Generator | None) -> tuple[np.ndarray | None, float]:
    """Inverted dropout's keep mask, drawn from `rng`, and its scale; no
    mask (None) when rate == 0 or rng is None (eval mode)."""
    if rate == 0.0 or rng is None:
        return None, 1.0
    if not 0.0 <= rate < 1.0:
        raise ContractViolation(f"dropout rate {rate} outside [0, 1)")
    return rng.random(shape) >= rate, 1.0 / (1.0 - rate)


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rate == 0 or rng is None (eval mode)."""
    keep, scale = _dropout_mask(a.shape, rate, rng)
    if keep is None:
        return a
    data = a.data * keep * scale

    def backward(g):
        _accumulate(a, g * keep * scale)

    return _make(data, (a,), backward, "dropout")


# ---------------------------------------------------------------- backward


def backward(loss: Tensor, params: Dict[str, Tensor]) -> Dict[str, np.ndarray]:
    """Reverse-replay the tape of `loss`; return a gradient per parameter.

    Parameters not connected to the loss get a zero gradient of matching
    shape. A parameter's existing .grad is added into in place, which is
    how per-instance gradients merge within a batch, and the dict holds
    those arrays: a model's tensors add straight into `ModelParams.grad`.

    Call it inside the loss's `record_tape` block, once per tape. The
    replay drops each node's backward closure as it passes the node, so
    the arrays the forward saved are freed during the replay and the
    tape then holds only node outputs; a second replay would find no
    closures, so it is refused, as is a loss whose block has ended.
    """
    if loss.data.shape != ():
        raise ContractViolation(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._tape_ref is None:
        raise ContractViolation("loss is not recorded on any tape (no grad path)")
    tape = loss._tape
    if tape not in _tape_stack:
        raise ContractViolation("the record_tape block of this loss has ended")
    if loss._backward is None:
        raise ContractViolation("the tape of this loss was already replayed")
    loss.grad = np.ones((), dtype=loss.data.dtype)
    for node in reversed(tape.nodes):
        step, node._backward = node._backward, None
        if node.grad is None or step is None:
            continue
        step(node.grad)
        if node is not loss:
            node.grad = None  # free intermediate storage
    return {
        name: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Dict[str, Tensor],
    eps: float = 1e-3,
) -> float:
    """Compare backward() against central finite differences.

    Uses the 4-point stencil (8(f(x+e) - f(x-e)) - (f(x+2e) - f(x-2e))) / 12e,
    whose O(eps^4) truncation stays small at coordinates whose gradient is
    near zero, where the relative error is most sensitive.

    Returns the maximum relative error |a - b| / max(1e-8, |a| + |b|)
    over every coordinate of every parameter. Each checked `.grad` ends
    bound to the array it was found bound to, and every buffer such a
    `.grad` views (`ModelParams.grad`) ends holding the values it held:
    the analytic pass also adds into the unchecked tensors that view it.
    Call it outside any `record_tape` block, so the differences tape nothing.
    """
    if eps <= 0:
        raise ContractViolation("finite_diff_check requires eps > 0")
    found = [p.grad for p in params.values()]
    bases = {id(g.base): g.base for g in found if g is not None and g.base is not None}
    saved = [(base, base.copy()) for base in bases.values()]
    for p in params.values():
        p.grad = None
    with record_tape():
        loss = f()
        grads = backward(loss, params)
    for p, grad in zip(params.values(), found):
        p.grad = grad
    for base, values in saved:
        base[...] = values
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]

            def diff(step: float) -> float:
                flat[i] = orig + step
                fp = f().item()
                flat[i] = orig - step
                fm = f().item()
                flat[i] = orig
                return fp - fm

            numeric = (8.0 * diff(eps) - diff(2.0 * eps)) / (12.0 * eps)
            analytic = float(gflat[i])
            rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            worst = max(worst, rel)
    return worst
