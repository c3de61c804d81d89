"""Minimal dense tensors with reverse-mode differentiation.

The op set is intentionally small: exactly what the graph encoder and the
output heads need (matmul, broadcast add/mul, concat, gathers, masked
softmax, edge-list attention, gelu, layer norm, masked log-softmax,
reductions, dropout). Every scatter-add goes through `ScatterPlan`, which
keeps the working dtype.
Every forward op validates that its output is finite; NaN/Inf anywhere is
a hard error rather than a silent corruption of the run.

Two precision modes exist: "standard" (float64) for training and
"extended" (longdouble) used only by the finite-difference harness.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Sequence

import numpy as np
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
    """Ordered record of executed ops; reverse replay drives backward()."""

    def __init__(self):
        self.nodes: list[Tensor] = []

    def record(self, t: "Tensor"):
        self.nodes.append(t)

    def __len__(self):
        return len(self.nodes)


@contextmanager
def record_tape():
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
    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype or current_dtype())
        if arr.size and not np.isfinite(arr).all():
            raise NonFiniteError("tensor initialized with non-finite data")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._tape: Tape | None = None

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

    def numpy(self) -> np.ndarray:
        return self.data

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
    out._parents = ()
    out._tape = None
    out.requires_grad = _grad_enabled[-1] and any(p.requires_grad for p in parents)
    if out.requires_grad and _tape_stack:
        out._backward = backward
        out._parents = tuple(parents)
        out._tape = _tape_stack[-1]
        _tape_stack[-1].record(out)
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
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(
            f"matmul shape mismatch: {a.shape} x {b.shape}"
        )
    data = a.data @ b.data

    def backward(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _make(data, (a, b), backward, "matmul")


def transpose(a: Tensor) -> Tensor:
    data = a.data.T

    def backward(g):
        _accumulate(a, g.T)

    return _make(data, (a,), backward, "transpose")


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
    size - 1 land in one sum. The keys are stably argsorted once (not at
    all when already sorted), so a plan built for static index arrays
    serves every later scatter.
    """

    __slots__ = ("order", "starts", "targets", "size")

    def __init__(self, keys, size: int):
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        if keys.size:
            lo, hi = keys.min(), keys.max()
            if lo < -size or hi >= size:
                raise ContractViolation(f"scatter key outside [-{size}, {size})")
            if lo < 0:
                keys = np.where(keys < 0, keys + size, keys)
        self.order = None
        if (keys[1:] < keys[:-1]).any():
            self.order = np.argsort(keys, kind="stable")
            keys = keys[self.order]
        self.starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]) if keys.size else keys
        self.targets = keys[self.starts]
        self.size = size

    def __call__(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros((self.size,) + values.shape[1:], dtype=values.dtype)
        if self.starts.size:
            if self.order is not None:
                values = values[self.order]
            out[self.targets] = np.add.reduceat(values, self.starts, axis=0)
        return out


def gather(a: Tensor, index) -> Tensor:
    """Take rows along axis 0; index may have any shape."""
    idx = np.asarray(index)
    data = a.data[idx]

    def backward(g):
        if a.requires_grad:
            plan = ScatterPlan(idx, a.shape[0])
            _accumulate(a, plan(g.reshape((-1,) + a.shape[1:])))

    return _make(data, (a,), backward, "gather")


def pair_plan(rows, cols, shape: tuple) -> ScatterPlan:
    """Scatter plan over the cells (rows, cols) of a 2-D array of `shape`,
    shared by `take_pairs` backward and `bucket_sum` over the same indices."""
    rows, cols = np.broadcast_arrays(np.asarray(rows), np.asarray(cols))
    if rows.size and (rows.min() < 0 or cols.min() < 0):
        # wrap per axis: the flat key of (r, -1) is not negative
        rows, cols = rows % shape[0], cols % shape[1]
    return ScatterPlan(rows * shape[1] + cols, shape[0] * shape[1])


def take_pairs(a: Tensor, rows, cols, plan: ScatterPlan | None = None) -> Tensor:
    """out[...] = a[rows[...], cols[...]] for a 2-D tensor."""
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    rows, cols = np.broadcast_arrays(rows, cols)
    data = a.data[rows, cols]

    def backward(g):
        if a.requires_grad:
            p = plan if plan is not None else pair_plan(rows, cols, a.shape)
            _accumulate(a, p(g.reshape(-1)).reshape(a.shape))

    return _make(data, (a,), backward, "take_pairs")


def bucket_sum(alpha: Tensor, buckets, n_buckets: int, plan: ScatterPlan | None = None) -> Tensor:
    """out[i, b] = sum_j alpha[i, j] where buckets[i, j] == b.

    Used to fold attention weights over shared relational-embedding
    buckets so the value-side relational term reduces to one matmul.
    """
    b = np.asarray(buckets)
    n = alpha.shape[0]
    rows = np.broadcast_to(np.arange(n)[:, None], b.shape)
    if plan is None:
        plan = pair_plan(rows, b, (n, n_buckets))
    data = plan(alpha.data.reshape(-1)).reshape(n, n_buckets)

    def backward(g):
        _accumulate(alpha, g[rows, b])

    return _make(data, (alpha,), backward, "bucket_sum")


class EdgeList:
    """Directed, bucketed edges (dst attends to src), sorted by (dst, src).

    The sparse counterpart of a boolean mask plus a bucket matrix:
    `starts[i]` is the first edge of destination i, and the scatter plans
    over dst, src and bucket are built once, so every backward pass of
    the edge ops reuses them.
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
        self.by_dst = ScatterPlan(self.dst, n_nodes)
        self.by_src = ScatterPlan(self.src, n_nodes)
        self.by_bucket = ScatterPlan(self.bucket, n_buckets)

    def __len__(self) -> int:
        return len(self.dst)

    def adjacency(self) -> np.ndarray:
        """Dense boolean mask, mask[dst, src] = True on every edge."""
        mask = np.zeros((self.n_nodes, self.n_nodes), dtype=bool)
        mask[self.dst, self.src] = True
        return mask

    def find(self, dst: int, src: int) -> int:
        """Index of the edge dst <- src, or -1 if there is none."""
        lo, hi = self.starts[dst], self.starts[dst] + self.degree[dst]
        k = lo + int(np.searchsorted(self.src[lo:hi], src))
        return k if k < hi and self.src[k] == src else -1


def edge_scores(q: Tensor, k: Tensor, ak: Tensor, edges: EdgeList) -> Tensor:
    """s[e] = q[dst_e] . (k[src_e] + ak[bucket_e]), one score per edge."""
    qd = q.data[edges.dst]
    kb = k.data[edges.src] + ak.data[edges.bucket]
    data = (qd * kb).sum(axis=1)

    def backward(g):
        g = g[:, None]
        if q.requires_grad:
            _accumulate(q, edges.by_dst(g * kb))
        gk = g * qd
        if k.requires_grad:
            _accumulate(k, edges.by_src(gk))
        if ak.requires_grad:
            _accumulate(ak, edges.by_bucket(gk))

    return _make(data, (q, k, ak), backward, "edge_scores")


def segment_softmax(scores: Tensor, edges: EdgeList) -> Tensor:
    """Softmax of edge scores over each destination's incoming edges."""
    if not edges.degree.all():
        raise ContractViolation("segment_softmax: a destination has no incoming edge")
    x = scores.data
    xmax = np.maximum.reduceat(x, edges.starts)
    ex = np.exp(x - xmax[edges.dst])
    p = ex / np.add.reduceat(ex, edges.starts)[edges.dst]

    def backward(g):
        if scores.requires_grad:
            inner = np.add.reduceat(g * p, edges.starts)
            _accumulate(scores, p * (g - inner[edges.dst]))

    return _make(p, (scores,), backward, "segment_softmax")


def edge_aggregate(alpha: Tensor, v: Tensor, av: Tensor, edges: EdgeList) -> Tensor:
    """out[i] = sum over edges e into i of alpha[e] * (v[src_e] + av[bucket_e])."""
    a = alpha.data[:, None]
    vb = v.data[edges.src] + av.data[edges.bucket]
    data = edges.by_dst(a * vb)

    def backward(g):
        gd = g[edges.dst]
        if alpha.requires_grad:
            _accumulate(alpha, (gd * vb).sum(axis=1))
        ga = a * gd
        if v.requires_grad:
            _accumulate(v, edges.by_src(ga))
        if av.requires_grad:
            _accumulate(av, edges.by_bucket(ga))

    return _make(data, (alpha, v, av), backward, "edge_aggregate")


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape).astype(a.data.dtype))
        else:
            gg = g
            if not keepdims:
                gg = np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(gg, a.shape).astype(a.data.dtype))

    return _make(data, (a,), backward, "sum")


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.size
    else:
        n = a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), _const(1.0 / n))


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x) with the exact-erf normal CDF (not the tanh form)."""
    x = a.data
    # erf is evaluated in float64; the cast costs ~1e-16 relative noise,
    # well under the finite-difference tolerance.
    phi = 0.5 * (1.0 + _erf64(x.astype(np.float64) / math.sqrt(2.0))).astype(x.dtype)
    data = x * phi

    def backward(g):
        dens = np.exp(-0.5 * (x.astype(np.float64) ** 2)) / math.sqrt(2 * math.pi)
        _accumulate(a, g * (phi + x * dens.astype(x.dtype)))

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


def masked_softmax(logits: Tensor, mask, axis: int = -1) -> Tensor:
    """Softmax over unmasked entries; masked entries are exactly zero."""
    m = np.broadcast_to(np.asarray(mask, dtype=bool), logits.shape)
    if not m.any(axis=axis).all():
        raise ContractViolation("masked_softmax: a row has every position masked")
    x = logits.data
    xmax = np.where(m, x, -np.inf).max(axis=axis, keepdims=True)
    ex = np.where(m, np.exp(x - xmax), 0.0)
    denom = ex.sum(axis=axis, keepdims=True)
    p = ex / denom

    def backward(g):
        if logits.requires_grad:
            inner = (g * p).sum(axis=axis, keepdims=True)
            _accumulate(logits, p * (g - inner))

    return _make(p, (logits,), backward, "masked_softmax")


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
    """
    if loss.data.shape != ():
        raise ContractViolation(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._tape is None:
        raise ContractViolation("loss is not recorded on any tape (no grad path)")
    loss.grad = np.ones((), dtype=loss.data.dtype)
    for node in reversed(loss._tape.nodes):
        if node.grad is None or node._backward is None:
            continue
        node._backward(node.grad)
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
