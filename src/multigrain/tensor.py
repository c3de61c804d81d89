"""Minimal dense tensors with reverse-mode differentiation.

The op set is intentionally small: exactly what the graph encoder and the
output heads need (matmul, broadcast add/mul, concat, row slices, gathers,
two fused multi-head attention ops, gelu, layer norm, masked log-softmax,
reductions, dropout). Every scatter-add goes through `ScatterPlan`, a
0/1 CSR matrix applied as one sparse product, which keeps the working
dtype; the relative-position buckets of a fully connected level go
through its cached `BandPlan`, which expands and folds them without an
index gather or scatter.
Every forward op validates that its output is finite; NaN/Inf anywhere is
a hard error rather than a silent corruption of the run. The attention
scores, which are not an op output, are covered either by a bound on
their size, known before they are computed, or by a scan of their own.

Ops record onto the tape of the innermost `record_tape` block. A taped
node refers to its tape only weakly, so a graph forms no reference cycle:
the tape, and with it every node it lists, lives until its block ends and
then goes by reference counting. `backward` drops each node's closure once
the replay has passed it, so a replayed tape holds only node outputs.

Two ops split a large call across the CPUs the process may run on
(`os.sched_getaffinity`; on one CPU nothing splits). `relative_attention`
runs min(m, CPUs) contiguous groups of heads side by side, forward and
backward, once its m n^2 score cells reach SPLIT_WORK, and only on its
bound-shifted route; `gelu` takes erf in as many row blocks once its input
has SPLIT_WORK elements. Heads are independent until their outputs are
concatenated, and erf works elementwise, so each part does the same
arithmetic as in one call, and the results are bit-identical to it. The
first part runs on the calling thread and the rest on a pool of CPUs - 1
threads, which the first split call of a process starts; only numpy runs
there, no op is recorded there, and whatever mixes parts runs after the
join. Below SPLIT_WORK (every level of a few hundred nodes or fewer) a
call makes no more numpy calls than one that never splits.

Two precision modes exist: "standard" (float64) for training and
"extended" (longdouble) used only by the finite-difference harness.
"""

from __future__ import annotations

import math
import os
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
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
_grad_enabled = [True]
_tape_stack: list["Tape"] = []

LOGP_MASKED = -1e30  # finite sentinel for masked log-probabilities


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


@contextmanager
def no_grad():
    _grad_enabled.append(False)
    try:
        yield
    finally:
        _grad_enabled.pop()


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

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype or current_dtype())
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

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; constants are wrapped as non-differentiable tensors.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return add(self, mul(_as_tensor(other), _const(-1.0)))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, other)


def _const(x) -> Tensor:
    return Tensor(np.asarray(x, dtype=current_dtype()))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else _const(x)


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad = t.grad + g


def _make(data: np.ndarray, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._backward = None
    out._tape_ref = None
    out.requires_grad = _grad_enabled[-1] and any(p.requires_grad for p in parents)
    if out.requires_grad and _tape_stack:
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
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
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

# The work, in cells of a level's (m, n, n) scores or elements of a gelu
# input, from which an op runs independent parts side by side. Handing a
# part to the pool costs up to a few hundred microseconds on a 2-vCPU VM:
# there, over three probes, two groups of a 4-head level (d_z = 16) took
# 1.9-2.9x the time of one at n = 32 and 64, 0.86-1.28x at n = 128,
# 0.85-1.13x at n = 256 and 0.59-0.94x at n = 512 (forward alone, and
# forward plus backward), and gelu's two halves took 0.68-0.81x of one erf
# call at the paper's FFN size (561 or 576, 256) but 0.95-1.16x at
# (64, 256).
SPLIT_WORK = 1 << 17

_pool: tuple[int, ThreadPoolExecutor] | None = None  # (pid of the process that made it, pool)
_pool_lock = threading.Lock()


def _cpus() -> int:
    """The CPUs this process may run on (one where that is not known)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _group_count(parts: int, work: int) -> int:
    """Into how many side-by-side groups a call of `parts` independent
    parts and `work` cells in all splits: one per CPU, at most `parts`; one
    below SPLIT_WORK."""
    return min(parts, _cpus()) if work >= SPLIT_WORK else 1


def _executor() -> ThreadPoolExecutor:
    """This process's pool, made on first use. A child forked from a
    process with a pool inherits the pool but none of its threads, so it
    makes its own."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            workers = max(1, _cpus() - 1)
            _pool = (os.getpid(), ThreadPoolExecutor(workers, thread_name_prefix="tensor"))
        return _pool[1]


def _side_by_side(fn: Callable, count: int, *args) -> list:
    """fn once per group, for `count` groups side by side: group i gets the
    i-th of `count` contiguous blocks (views along axis 0) of each array in
    `args`, or the i-th item of each tuple, which holds a block per group
    already (as an earlier call returned them). Group 0 runs on this thread
    and the others on the pool at once; with one group, fn runs here on the
    whole arrays.

    Returns the results in group order, only after every group has
    finished, then raises the first error any group raised. `fn` runs
    numpy on its own blocks and touches no tape, dtype or grad-mode state,
    so each block's arithmetic, and with it every bit of the result, is the
    same as in one call.
    """
    if count == 1:
        return [fn(*[a[0] if type(a) is tuple else a for a in args])]
    calls = list(zip(*(a if type(a) is tuple else np.array_split(a, count) for a in args)))
    futures = [_executor().submit(fn, *call) for call in calls[1:]]
    try:
        first = fn(*calls[0])
    finally:
        # Poll rather than block: on a 2-vCPU VM, after joins that blocked
        # (and so left this thread's CPU idle) the single-threaded work of
        # a paper predict ran 10% slower, and a fixed numpy kernel 13%;
        # after polled joins neither moved. sleep(0) lets the pool's
        # threads take the GIL.
        while not all(f.done() for f in futures):
            time.sleep(0)
    return [first] + [f.result() for f in futures]


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

    def forward(qh, kh, vh):
        nonlocal scores
        p = qh @ kh.swapaxes(1, 2)
        r = qh @ ak.data.T
        if shifted:
            r -= bound
        band.add_expanded(p, r)
        if not shifted:
            _check_finite(p, "relative_attention")
            if weights is not None:
                scores = p.copy()
            p -= p.max(axis=-1, keepdims=True)  # the softmax runs in place
        np.exp(p, out=p)
        return p, band.fold(p), p @ vh  # the fold's runs partition each row

    ps, folds, zs = zip(*_side_by_side(forward, count, q, k, v))
    folded = _joined(folds)
    inv_s = 1.0 / folded.sum(axis=-1, keepdims=True)  # (m, n, 1)
    z = _joined(zs)
    z += folded @ av.data
    z *= inv_s
    if weights is not None:
        weights.append((scores, ps[0] * inv_s))

    def backward(g):
        # de_ij = alpha_ij (gz_i . (v_j + av[b_ij]) - gz_i . z_i); 1/s_i
        # rides on gz_i, the one per-row factor
        gzs = g.reshape(n, m, dz).transpose(1, 0, 2) * inv_s

        def group(gz, vh, zh, kh, qh, p):
            gs = gz @ vh.swapaxes(1, 2)
            band.add_expanded(gs, gz @ av.data.T - np.einsum("hid,hid->hi", gz, zh)[..., None])
            gs *= p
            gfold = band.fold(gs)
            if not qkv.requires_grad:
                return gfold, None
            gq = gs @ kh
            gq += gfold @ ak.data
            gq *= scale
            return gfold, np.stack([gq, gs.swapaxes(1, 2) @ qh, p.swapaxes(1, 2) @ gz])

        gfolds, grads = zip(*_side_by_side(group, count, gzs, v, z, k, q, ps))
        if qkv.requires_grad:
            grad = _joined(grads, axis=1)
            _accumulate(qkv, grad.transpose(2, 0, 1, 3).reshape(n, 3 * m * dz))
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
    """
    if not edges.degree.all():
        raise ContractViolation("edge_attention: a destination has no incoming edge")
    n, dz = _head_width(qkv, m, ak, av, edges.n_buckets)
    if n != edges.n_nodes:
        raise ShapeMismatchError(f"{n} rows for a graph of {edges.n_nodes} nodes")
    x = qkv.data.reshape(n, 3, m, dz)
    dst, src = edges.dst, edges.src
    scale = 1.0 / math.sqrt(dz)
    qd = (x[:, 0] * scale)[dst]                                  # (E, m, d_z)
    kb = x[src, 1]
    kb += ak.data[edges.bucket][:, None]
    vb = x[src, 2]
    vb += av.data[edges.bucket][:, None]
    e = np.einsum("emd,emd->em", qd, kb)                         # (E, m)
    _check_finite(e, "edge_attention")
    p = e - np.maximum.reduceat(e, edges.starts)[dst]
    np.exp(p, out=p)
    inv_s = 1.0 / edges.by_dst(p)                                # (n, m)
    z = edges.by_dst(p[..., None] * vb)
    z *= inv_s[..., None]
    if weights is not None:
        e_dense = np.full((m, n, n), -np.inf, dtype=e.dtype)
        alpha_dense = np.zeros((m, n, n), dtype=e.dtype)
        e_dense[:, dst, src] = e.T
        alpha_dense[:, dst, src] = (p * inv_s[dst]).T
        weights.append((e_dense, alpha_dense))

    def backward(g):
        gzs = g.reshape(n, m, dz) * inv_s[..., None]
        gd = gzs[dst]
        gs = np.einsum("emd,emd->em", gd, vb)
        gs -= np.einsum("imd,imd->im", gzs, z)[dst]
        gs *= p
        gkb = gs[..., None] * qd
        gvb = gd
        gvb *= p[..., None]  # in place: gd is not read again
        if qkv.requires_grad:
            gq = edges.by_dst(gs[..., None] * kb)
            gq *= scale
            grad = np.stack([gq, edges.by_src(gkb), edges.by_src(gvb)], axis=1)
            _accumulate(qkv, grad.reshape(n, 3 * m * dz))
        if ak.requires_grad:
            _accumulate(ak, edges.by_bucket(gkb.sum(axis=1)))
        if av.requires_grad:
            _accumulate(av, edges.by_bucket(gvb.sum(axis=1)))

    return _make(z.reshape(n, m * dz), (qkv, ak, av), backward, "edge_attention")


def tsum(a: Tensor) -> Tensor:
    """The sum of every element, as a 0-d tensor."""
    data = a.data.sum()

    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.shape).astype(a.data.dtype))

    return _make(data, (a,), backward, "sum")


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x) with the exact-erf normal CDF (not the tanh form).

    An input of SPLIT_WORK elements or more takes its erf in row blocks
    side by side (see `_side_by_side`).
    """
    x = a.data
    # erf is evaluated in float64; the cast costs ~1e-16 relative noise,
    # well under the finite-difference tolerance.
    x64 = x if x.dtype == np.float64 else x.astype(np.float64)
    phi = x64 / math.sqrt(2.0)
    rows = len(phi) if phi.ndim else 1
    _side_by_side(lambda b: _erf64(b, out=b), _group_count(rows, phi.size), phi)
    phi += 1.0
    phi *= 0.5
    phi = phi.astype(x.dtype, copy=False)
    data = x * phi

    def backward(g):
        dens = x64 * x64
        dens *= -0.5
        np.exp(dens, out=dens)
        dens /= math.sqrt(2 * math.pi)
        grad = dens.astype(x.dtype, copy=False)  # g (Phi + x phi), in place
        grad *= x
        grad += phi
        grad *= g
        _accumulate(a, grad)

    return _make(data, (a,), backward, "gelu")


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    d = a.shape[-1]
    if d < 2:
        raise ContractViolation("layer_norm requires last extent >= 2")
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def backward(g):
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, d).sum(axis=0))
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if a.requires_grad:
            dxhat = g * gain.data
            da = inv / d * (
                d * dxhat
                - dxhat.sum(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
            )
            _accumulate(a, da)

    return _make(data, (a, gain, bias), backward, "layer_norm")


def masked_log_softmax(logits: Tensor, mask, axis: int = -1) -> Tensor:
    """Log-softmax over unmasked entries; masked entries get a finite
    sentinel (LOGP_MASKED) and zero gradient — callers must not read them."""
    m = np.broadcast_to(np.asarray(mask, dtype=bool), logits.shape)
    if not m.any(axis=axis).all():
        raise ContractViolation("masked_log_softmax: a row has every position masked")
    x = logits.data
    xmax = np.where(m, x, -np.inf).max(axis=axis, keepdims=True)
    ex = np.where(m, np.exp(x - xmax), 0.0)
    lse = np.log(ex.sum(axis=axis, keepdims=True)) + xmax
    data = np.where(m, x - lse, LOGP_MASKED)
    p = ex / ex.sum(axis=axis, keepdims=True)

    def backward(g):
        if logits.requires_grad:
            gm = np.where(m, g, 0.0)
            _accumulate(logits, gm - p * gm.sum(axis=axis, keepdims=True))

    return _make(data, (logits,), backward, "masked_log_softmax")


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rate == 0 or rng is None (eval mode)."""
    if rate == 0.0 or rng is None:
        return a
    if not 0.0 <= rate < 1.0:
        raise ContractViolation(f"dropout rate {rate} outside [0, 1)")
    keep = (rng.random(a.shape) >= rate).astype(a.data.dtype)
    scale = 1.0 / (1.0 - rate)
    data = a.data * keep * scale

    def backward(g):
        _accumulate(a, g * keep * scale)

    return _make(data, (a,), backward, "dropout")


# ---------------------------------------------------------------- backward


def backward(loss: Tensor, params: Dict[str, Tensor]) -> Dict[str, np.ndarray]:
    """Reverse-replay the tape of `loss`; return a gradient per parameter.

    Parameters not connected to the loss get a zero gradient of matching
    shape. Existing .grad fields on parameters are accumulated into, which
    is how per-instance gradients merge within a batch.

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


def zero_grads(params: Dict[str, Tensor]):
    for p in params.values():
        p.grad = None


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
    over every coordinate of every parameter.
    """
    if eps <= 0:
        raise ContractViolation("finite_diff_check requires eps > 0")
    zero_grads(params)
    with record_tape():
        loss = f()
        grads = backward(loss, params)
    zero_grads(params)
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]

            def diff(step: float) -> float:
                flat[i] = orig + step
                with no_grad():
                    fp = f().item()
                flat[i] = orig - step
                with no_grad():
                    fm = f().item()
                flat[i] = orig
                return fp - fm

            numeric = (8.0 * diff(eps) - diff(2.0 * eps)) / (12.0 * eps)
            analytic = float(gflat[i])
            rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            worst = max(worst, rel)
    return worst
