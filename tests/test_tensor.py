"""Unit and property tests for the tape-based autodiff core."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from multigrain import tensor as T
from multigrain.checks import micro_config
from multigrain.docgraph import integration_buckets
from multigrain.encoder import ModelParams, gat_attention
from oracles import composite_feed_forward, dense_attention_oracle, gelu, split_qkv, tsum


def tensor(a, grad=True):
    return T.Tensor(np.asarray(a, dtype=float), requires_grad=grad)


# ---------------------------------------------------------------- matmul


def test_matmul_identity():
    b = np.arange(12.0).reshape(3, 4)
    out = T.matmul(tensor(np.eye(3)), tensor(b))
    np.testing.assert_array_equal(out.data, b)


def test_matmul_zero():
    out = T.matmul(tensor(np.zeros((2, 3))), tensor(np.ones((3, 4))))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_matmul_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    want = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    out = T.matmul(tensor(a), tensor(b))
    np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-15)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(T.ShapeMismatchError) as exc:
        T.matmul(tensor(np.ones((2, 3))), tensor(np.ones((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


# ---------------------------------------------------------------- softmax


def edge_softmax(logits, mask):
    """Attention weights of `edge_attention` over the cells of `mask`, for
    scores equal to the square `logits`: one head of width 1 with q = 1,
    k = 0 and one bucket per cell whose ak entry is that cell's logit."""
    n = logits.shape[0]
    dst, src = np.nonzero(mask)
    edges = T.EdgeList(dst, src, dst * n + src, n, n * n)
    qkv = np.zeros((n, 3))
    qkv[:, 0] = 1.0
    weights = []
    ak, av = tensor(np.reshape(logits, (-1, 1))), tensor(np.zeros((n * n, 1)))
    T.edge_attention(tensor(qkv), ak, av, 1, edges, weights)
    return weights[0][1][0]


def test_masked_softmax_symmetry():
    alpha = edge_softmax(np.array([[5.0, 5.0], [0.0, 0.0]]), np.array([[True, True], [False, True]]))
    np.testing.assert_allclose(alpha[0], [0.5, 0.5])


def test_masked_softmax_single_unmasked():
    mask = np.array([[False, True, False], [False, True, False], [False, False, True]])
    alpha = edge_softmax(np.array([[3.0, -2.0, 9.0], [0, 0, 0], [0, 0, 0]]), mask)
    np.testing.assert_array_equal(alpha[0], [0.0, 1.0, 0.0])


def test_masked_softmax_exp_normalize_oracle():
    logits = np.array([[1.0, 2.0, 3.0], [0, 0, 0], [0, 0, 0]])
    alpha = edge_softmax(logits, np.eye(3, dtype=bool) | np.array([[True], [False], [False]]))
    np.testing.assert_allclose(alpha[0], [0.0900, 0.2447, 0.6652], atol=1e-4)


def test_masked_softmax_all_masked_rejected():
    with pytest.raises(T.ContractViolation):
        T.log_softmax_at(tensor([1.0, 2.0]), 0, np.array([False, False]))


def test_log_softmax_at_skips_masked_entries():
    """The softmax runs over the unmasked entries only, and a masked entry
    gets no gradient."""
    mask = np.array([True, False, True])
    x = tensor([0.0, 7.0, 0.0])
    with T.record_tape():
        out = T.log_softmax_at(x, 0, mask)
        grads = T.backward(out, {"x": x})
    assert out.shape == ()
    np.testing.assert_allclose(out.data, np.log(0.5), atol=1e-15)
    np.testing.assert_array_equal(grads["x"], [0.5, 0.0, -0.5])


def composite_log_softmax_at(logits, index, mask):
    """The loss term as three ops: a masked log-softmax whose masked cells
    hold a -1e30 sentinel, the row at `index`, then its sum."""
    m = np.ones(logits.shape, dtype=bool) if mask is None else mask
    x = logits.data
    xmax = np.where(m, x, -np.inf).max(axis=-1, keepdims=True)
    ex = np.where(m, np.exp(x - xmax), 0.0)
    lse = np.log(ex.sum(axis=-1, keepdims=True)) + xmax
    p = ex / ex.sum(axis=-1, keepdims=True)

    def backward(g):
        gm = np.where(m, g, 0.0)
        T._accumulate(logits, gm - p * gm.sum(axis=-1, keepdims=True))

    logp = T._make(np.where(m, x - lse, -1e30), (logits,), backward, "masked_log_softmax")
    return tsum(T.rows(logp, slice(index, index + 1)))


@pytest.mark.parametrize("mode", ["standard", "extended"])
def test_log_softmax_at_matches_composite_bitwise(mode):
    """log_softmax_at gives the composite's value and gradient bit for
    bit, masked and unmasked, times a constant as in the joint loss."""
    rng = np.random.default_rng(4)
    with T.precision(mode):
        for trial in range(60):
            n = int(rng.integers(1, 40))
            mask = None if trial % 3 == 0 else rng.random(n) < 0.6
            index = int(rng.integers(n))
            if mask is not None:
                mask[index] = True
            values = rng.normal(size=n) * rng.choice([0.1, 3.0, 50.0])
            scale = rng.choice([-1.0, 0.125, -3.7])
            out = {}
            for name, op in (("fused", T.log_softmax_at), ("composite", composite_log_softmax_at)):
                x = T.Tensor(values, requires_grad=True)
                with T.record_tape():
                    loss = op(x, index, mask) * scale
                    out[name] = (loss.data, T.backward(loss, {"x": x})["x"])
            (got, ggot), (want, gwant) = out["fused"], out["composite"]
            assert got.dtype == want.dtype == T.current_dtype() == ggot.dtype
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(ggot, gwant)


# ---------------------------------------------------------------- gelu


def test_gelu_zero():
    assert gelu(tensor([0.0])).data[0] == 0.0


def test_gelu_asymptote():
    np.testing.assert_allclose(gelu(tensor([10.0])).data[0], 10.0, atol=1e-6)


def test_gelu_normal_cdf_oracle():
    phi1 = 0.5 * (1.0 + erf(1.0 / np.sqrt(2.0)))
    np.testing.assert_allclose(gelu(tensor([1.0])).data[0], phi1, atol=1e-12)


@pytest.mark.parametrize("mode, shape", [
    pytest.param("standard", (37, 11), id="standard"),
    pytest.param("extended", (37, 11), id="extended"),
    pytest.param("standard", (576, 256), id="standard-ffn"),
])
def test_gelu_bit_identical_to_closed_form(mode, shape):
    """The composite oracle's gelu and its gradient equal x Phi(x) and
    g (Phi(x) + x phi(x)), with erf and exp taken in float64 and cast to
    the working dtype, bit for bit; also at the size of the paper's FFN."""
    rng = np.random.default_rng(0)
    with T.precision(mode):
        dtype = T.current_dtype()
        x = (rng.normal(size=shape) * 3).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        a = T.Tensor(x, requires_grad=True)
        with T.record_tape():
            out = gelu(a)
            grad = T.backward(tsum(T.mul(out, T.Tensor(g))), {"a": a})["a"]
    x64 = x.astype(np.float64)
    phi = (0.5 * (1.0 + erf(x64 / np.sqrt(2.0)))).astype(dtype)
    dens = (np.exp(-0.5 * (x64**2)) / np.sqrt(2 * np.pi)).astype(dtype)
    assert out.data.dtype == grad.dtype == dtype
    np.testing.assert_array_equal(out.data, x * phi)
    np.testing.assert_array_equal(grad, g * (phi + x * dens))


# ---------------------------------------------------------------- feed-forward


FFN_NAMES = ("pre", "post", "w1", "b1", "w2", "b2", "ln_g", "ln_b")


def ffn_arrays(n, d, d_ff, seed):
    """Inputs of a feed-forward sublayer of n rows, in FFN_NAMES order."""
    rng = np.random.default_rng(seed)
    shapes = ((n, d), (n, d), (2 * d, d_ff), (d_ff,), (d_ff, d), (d,), (d,), (d,))
    arrays = [rng.normal(size=shape) for shape in shapes]
    arrays[2] /= np.sqrt(2 * d)  # w1 and w2 scaled by their fan-in
    arrays[4] /= np.sqrt(d_ff)
    return arrays


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("rate", [0.0, 0.3], ids=["no-dropout", "dropout"])
@pytest.mark.parametrize("n, d, d_ff, splits", [(7, 6, 10, 0), (576, 64, 256, 1)], ids=["small", "paper"])
def test_feed_forward_equals_composite(mode, rate, n, d, d_ff, splits, monkeypatch):
    """The fused op's output, and the gradients of all eight inputs, each
    added into a gradient that exists already, equal the composite
    oracle's bit for bit, and the op takes the same dropout draws. With
    two CPUs at the paper's (576, 256), the forward and the backward each
    hand one row block to the pool."""
    arrays = ffn_arrays(n, d, d_ff, seed=n)
    g = np.random.default_rng(1).normal(size=(n, d))
    first = [np.random.default_rng(2).normal(size=a.shape) for a in arrays]
    submitted = []
    executor = T._executor
    monkeypatch.setattr(T, "_cpus", lambda: 2)
    monkeypatch.setattr(T, "_executor", lambda: submitted.append(1) or executor())

    def run(op):
        rng = np.random.default_rng(3)
        with T.precision(mode):
            inputs = [T.Tensor(a, requires_grad=True) for a in arrays]
            for t, grad in zip(inputs, first):
                t.grad = grad.astype(t.data.dtype)
            with T.record_tape() as tape:
                out = op(*inputs, rate, rng)
                nodes = len(tape)
                T.backward(tsum(T.mul(out, T.Tensor(g))), dict(zip(FFN_NAMES, inputs)))
        return out.data, [t.grad for t in inputs], nodes, rng.random()

    want, want_grads, want_nodes, want_next = run(composite_feed_forward)
    assert not submitted and want_nodes == (9 if rate else 8)
    got, got_grads, nodes, got_next = run(T.feed_forward)
    assert len(submitted) == 2 * splits and nodes == 1
    assert got.dtype == T._DTYPES[mode]
    np.testing.assert_array_equal(got, want)
    for name, got_grad, want_grad in zip(FFN_NAMES, got_grads, want_grads, strict=True):
        np.testing.assert_array_equal(got_grad, want_grad, err_msg=name)
    assert got_next == want_next


def test_feed_forward_finite_differences():
    """The op's gradients of all eight inputs, dropout on, agree with
    finite differences in extended precision."""
    arrays = ffn_arrays(5, 4, 6, seed=4)
    g = np.random.default_rng(5).normal(size=(5, 4))
    with T.precision("extended"):
        inputs = {name: T.Tensor(a, requires_grad=True) for name, a in zip(FFN_NAMES, arrays)}

        def f():
            out = T.feed_forward(*inputs.values(), 0.3, np.random.default_rng(6))
            return tsum(T.mul(out, T.Tensor(g)))

        assert T.finite_diff_check(f, inputs) < 1e-6


@pytest.mark.parametrize("rate", [0.3, 1.0])
def test_feed_forward_drops_nothing_without_an_rng(rate):
    """Without an rng (eval mode) the op drops nothing at any rate, as
    `T.dropout` does; with one, a rate outside [0, 1) is refused by both."""
    inputs = [T.Tensor(a) for a in ffn_arrays(5, 4, 6, seed=7)]
    np.testing.assert_array_equal(T.feed_forward(*inputs, rate, None).data, T.feed_forward(*inputs).data)
    assert T.dropout(inputs[0], rate, None) is inputs[0]
    for op in (lambda rng: T.feed_forward(*inputs, 1.0, rng), lambda rng: T.dropout(inputs[0], 1.0, rng)):
        with pytest.raises(T.ContractViolation, match="outside"):
            op(np.random.default_rng(0))


def test_a_split_asked_for_on_the_pool_runs_inline(monkeypatch):
    """A part running on the pool that calls a splitting op gets one group:
    a split there would hand work to a pool whose one thread is that part,
    and wait for it forever. Both parts' nested calls give the bits of one
    group."""
    monkeypatch.setattr(T, "_cpus", lambda: 2)
    assert T._group_count(2, T.SPLIT_WORK) == 2
    assert T._executor().submit(T._group_count, 2, T.SPLIT_WORK).result(timeout=60) == 1
    inputs = [T.Tensor(a) for a in ffn_arrays(576, 64, 256, seed=11)]
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(T, "_cpus", lambda: 1)
        one_group = T.feed_forward(*inputs).data
    for got in T._side_by_side(lambda part: T.feed_forward(*inputs).data, 2, np.arange(2)):
        np.testing.assert_array_equal(got, one_group)


def test_a_group_the_pool_has_not_begun_runs_on_the_caller(monkeypatch):
    """While the pool's only thread is held, a two-group split still
    returns: once group 0 is done, the calling thread takes group 1 back
    from the pool and runs it too. A split FFN run so gives the bits of
    one group."""
    import threading
    from concurrent.futures import ThreadPoolExecutor

    pool, held, release = ThreadPoolExecutor(1), threading.Event(), threading.Event()
    monkeypatch.setattr(T, "_executor", lambda: pool)
    monkeypatch.setattr(T, "_cpus", lambda: 2)
    inputs = [T.Tensor(a) for a in ffn_arrays(576, 64, 256, seed=12)]
    try:
        pool.submit(lambda: held.set() or release.wait(20))
        assert held.wait(60)
        threads = []
        parts = T._side_by_side(lambda a: threads.append(threading.get_ident()) or 2 * a, 2, np.arange(6.0))
        split = T.feed_forward(*inputs).data
    finally:
        release.set()
        pool.shutdown()
    assert threads == [threading.get_ident()] * 2
    np.testing.assert_array_equal(np.concatenate(parts), 2 * np.arange(6.0))
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(T, "_cpus", lambda: 1)
        np.testing.assert_array_equal(split, T.feed_forward(*inputs).data)


# ---------------------------------------------------------------- layer norm


def test_layer_norm_constant_row_zero_before_affine():
    g, b = tensor(np.ones(4), grad=False), tensor(np.zeros(4), grad=False)
    out = T.layer_norm(tensor([[7.0, 7.0, 7.0, 7.0]]), g, b)
    np.testing.assert_allclose(out.data, np.zeros((1, 4)), atol=1e-5)


def test_layer_norm_two_point_row():
    g, b = tensor(np.ones(2), grad=False), tensor(np.zeros(2), grad=False)
    out = T.layer_norm(tensor([[1.0, 3.0]]), g, b)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-6)


def test_layer_norm_output_mean_is_bias():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 8))
    b = rng.normal(size=8)
    out = T.layer_norm(tensor(x), tensor(np.ones(8), grad=False), tensor(b, grad=False))
    np.testing.assert_allclose(out.data.mean(axis=1), np.full(5, b.mean()), atol=1e-9)


# ---------------------------------------------------------------- backward


def test_backward_sum_grad_ones():
    p = tensor(np.arange(6.0).reshape(2, 3))
    with T.record_tape():
        grads = T.backward(tsum(p), {"p": p})
    np.testing.assert_array_equal(grads["p"], np.ones((2, 3)))


def test_backward_half_sum_squares_grad_identity():
    x = np.arange(6.0).reshape(2, 3)
    p = tensor(x)
    with T.record_tape():
        loss = T.mul(tsum(T.mul(p, p)), T.Tensor(np.asarray(0.5)))
        grads = T.backward(loss, {"p": p})
    np.testing.assert_allclose(grads["p"], x)


def test_backward_disconnected_param_zero():
    p = tensor(np.ones(3))
    q = tensor(np.ones(3))
    with T.record_tape():
        grads = T.backward(tsum(p), {"p": p, "q": q})
    np.testing.assert_array_equal(grads["q"], np.zeros(3))


@pytest.mark.parametrize("mode", ["standard", "extended"])
def test_accumulate_adds_in_place_in_the_working_dtype(mode):
    """A gradient that already exists is added into in place: a model's
    `.grad` stays its view of `ModelParams.grad`, keeps the working dtype,
    and holds the same values as a + b; an owned first gradient does too."""
    rng = np.random.default_rng(8)
    with T.precision(mode):
        dtype = T.current_dtype()
        a, b = (rng.normal(size=(2, 3)).astype(dtype) for _ in range(2))
        model = ModelParams(micro_config(), {"w": tensor(np.zeros((2, 3)))})
        plain = tensor(np.zeros((2, 3)))
        for t in (model["w"], plain):
            T._accumulate(t, a)
            first = t.grad
            T._accumulate(t, b)
            assert t.grad is first and t.grad.dtype == dtype
            np.testing.assert_array_equal(t.grad, a + b)
        assert model.flat.dtype == model.grad.dtype == dtype
        assert model.stray_view() is None
        np.testing.assert_array_equal(model.grad, (a + b).ravel())


def test_backward_refuses_a_replayed_tape():
    """The replay drops the closures, so a second one would return zero
    gradients without an error."""
    p = tensor(np.ones(3))
    with T.record_tape():
        loss = tsum(T.mul(p, p))
        T.backward(loss, {"p": p})
        with pytest.raises(T.ContractViolation, match="already replayed"):
            T.backward(loss, {"p": p})


@pytest.mark.parametrize("keep_tape", [False, True])
def test_backward_refuses_a_loss_whose_block_ended(keep_tape):
    p = tensor(np.ones(3))
    with T.record_tape() as tape:
        loss = tsum(T.mul(p, p))
    if keep_tape:
        assert loss._tape is tape
    else:
        del tape
        assert loss._tape is None  # nothing held the tape once its block ended
    with pytest.raises(T.ContractViolation, match="block of this loss has ended"):
        T.backward(loss, {"p": p})


def test_tape_nodes_readable_after_backward_in_the_block():
    """Until the block ends, a replayed tape still lists its nodes and
    their outputs; only the backward closures are gone."""
    p = tensor(np.arange(3.0))
    with T.record_tape() as tape:
        sq = T.mul(p, p)
        loss = tsum(sq)
        T.backward(loss, {"p": p})
        nodes = loss._tape.nodes
        assert len(nodes) == 2 and nodes[0] is sq and nodes[1] is loss
        np.testing.assert_array_equal(nodes[0].data, [0.0, 1.0, 4.0])
        assert all(n._backward is None for n in tape.nodes)


# ---------------------------------------------------------------- finite differences


def test_finite_diff_exact_for_quadratic():
    p = tensor(np.array([1.0, -2.0, 0.5]))
    err = T.finite_diff_check(lambda: tsum(T.mul(p, p)), {"p": p})
    assert err < 1e-10


def test_finite_diff_exact_for_quartic():
    p = tensor(np.array([1.0, -2.0, 0.5]))

    def f():
        sq = T.mul(p, p)
        return tsum(T.mul(sq, sq))

    # the 4-point stencil is exact up to degree 4; a 2-point one would be
    # off by eps^2 * f'''/6 = 4 eps^2 p here
    assert T.finite_diff_check(f, {"p": p}) < 1e-9


def test_finite_diff_dead_parameter():
    p = tensor(np.ones(2))
    dead = tensor(np.ones(2))
    # dead never enters the loss: analytic and numeric grads are exactly 0
    err = T.finite_diff_check(lambda: tsum(p), {"dead": dead})
    assert err == 0.0
    with T.record_tape():
        grads = T.backward(tsum(p), {"p": p, "dead": dead})
    np.testing.assert_array_equal(grads["dead"], np.zeros(2))


# ---------------------------------------------------------------- properties


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_masked_softmax_rows_are_distributions(n, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(n, n)) * 5
    mask = rng.random((n, n)) < 0.7
    mask[np.arange(n), rng.integers(0, n, size=n)] = True  # keep rows nonempty
    out = edge_softmax(logits, mask)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(n), atol=1e-12)
    assert (out[~mask] == 0.0).all()
    assert (out >= 0.0).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_expression_gradcheck(seed):
    rng = np.random.default_rng(seed)
    a = tensor(rng.normal(size=(3, 4)))
    b = tensor(rng.normal(size=(4, 3)))
    w = tensor(rng.normal(size=(3, 3)), grad=False)
    g = tensor(np.ones(3), grad=False)
    z = tensor(np.zeros(3), grad=False)

    def f():
        h = gelu(T.matmul(a, b))
        h = T.layer_norm(T.add(h, w), g, z)
        return tsum(T.mul(h, w))

    # looser than the pinned micro-model check: random points can sit in
    # high-curvature regions
    with T.precision("extended"):
        assert T.finite_diff_check(f, {"a": a, "b": b}) < 2e-3


def _check_band_plan(n, clip, seed):
    rng = np.random.default_rng(seed)
    r = rng.normal(size=(2, n, 2 * clip + 1))
    g = rng.normal(size=(2, n, n))
    band = T.band_plan(n, clip)
    idx = np.arange(n)
    buckets = np.clip(idx[None, :] - idx[:, None], -clip, clip) + clip
    expanded = np.zeros((2, n, n))
    band.add_expanded(expanded, r)
    np.testing.assert_array_equal(expanded, r[:, idx[:, None], buckets])
    scatter = np.zeros_like(r)
    np.add.at(scatter, (slice(None), np.broadcast_to(idx[:, None], buckets.shape), buckets), g)
    folded = band.fold(g)
    np.testing.assert_allclose(folded, scatter, rtol=0, atol=1e-12)
    lhs = (expanded * g).sum()
    assert abs(lhs - (r * folded).sum()) <= 1e-12 * max(1.0, abs(lhs))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_toeplitz_expand_fold_adjoint(n, clip, seed):
    """A band plan's expand is the gather r[i, clip(j - i) + c] and its fold
    the scatter-add; <expand(R), G> == <R, fold(G)>, for n <= c + 1 too,
    and for n >> c, where the clip buckets' tails are long; n + 300 rows
    expand in several row blocks."""
    _check_band_plan(n, clip, seed)
    _check_band_plan(n + 60, clip % 3, seed)
    _check_band_plan(n + 300, clip, seed)


def test_nonfinite_rejected():
    with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError):
        T.mul(tensor([1e308]), tensor([1e308]))


def test_dropout_identity_when_off():
    x = tensor(np.arange(4.0))
    out = T.dropout(x, 0.0, None)
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_finite_differences():
    """Each evaluation rebuilds the rng, so every f() draws the same mask:
    a dropped coordinate gets a zero gradient, a kept one the 1/(1 - rate)
    scaled one."""
    p = tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4))

    def f():
        d = T.dropout(p, 0.3, np.random.default_rng(5))
        return tsum(T.mul(d, d))

    assert T.finite_diff_check(f, {"p": p}) < 1e-9
    with T.record_tape():
        g = T.backward(f(), {"p": p})["p"]
    kept = g != 0
    assert 0 < kept.sum() < kept.size
    np.testing.assert_allclose(g[kept], 2 * p.data[kept] / 0.7**2, rtol=1e-12)


# ---------------------------------------------------------------- fused attention


def random_edges(rng, n, n_buckets, density=0.4):
    """A random edge list with a self-loop on every node, and its mask."""
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, True)
    buckets = rng.integers(0, n_buckets, size=(n, n))
    dst, src = np.nonzero(mask)
    return T.EdgeList(dst, src, buckets[dst, src], n, n_buckets), mask, buckets


def attention_op_cases(rng, n=5, m=2, dz=3, clip=2):
    """(name, op, args) per fused attention op, with random inputs of the
    current dtype; args are (qkv, ak, av), then m and the relation.

    The edges get a bucket each: a bucket shared by all edges into a node
    shifts that node's scores alike, so its ak gradient is zero up to
    rounding, which a relative error cannot score."""
    _, mask, _ = random_edges(rng, n, 1)
    dst, src = np.nonzero(mask)
    edges = T.EdgeList(dst, src, np.arange(len(dst)), n, len(dst))
    qkv = lambda: T.Tensor(rng.normal(size=(n, 3 * m * dz)), requires_grad=True)
    table = lambda rows: T.Tensor(rng.normal(size=(rows, dz)), requires_grad=True)
    return [
        ("edge_attention", lambda *a: T.edge_attention(*a, m, edges), [qkv(), table(len(edges)), table(len(edges))]),
        ("relative_attention", lambda *a: T.relative_attention(*a, m, clip), [qkv(), table(2 * clip + 1), table(2 * clip + 1)]),
    ]


@pytest.mark.parametrize("mode", ["standard", "extended"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_edge_ops_adjoint(mode, seed):
    """Both fused ops are linear in the V block of qkv and in av:
    <f(x + dx) - f(x), G> == <dx, J^T G> along those directions;
    gradients come back in the working dtype."""
    rng = np.random.default_rng(seed)
    with T.precision(mode):
        dtype = T.current_dtype()
        tol = 1e-12 if mode == "standard" else 1e-15
        for name, op, args in attention_op_cases(rng):
            out = op(*args)
            g = rng.normal(size=out.shape).astype(dtype)
            with T.record_tape():
                loss = tsum(T.mul(op(*args), T.Tensor(g)))
                grads = T.backward(loss, {str(i): a for i, a in enumerate(args)})
            width = args[0].shape[1] // 3
            for i, a in enumerate(args):
                assert grads[str(i)].dtype == dtype
                if i == 1:
                    continue  # ak enters the softmax: covered by the finite-difference test
                dx = rng.normal(size=a.shape).astype(dtype)
                if i == 0:
                    dx[:, : 2 * width] = 0.0  # Q and K columns enter the softmax
                moved = [T.Tensor(b.data + dx) if j == i else b for j, b in enumerate(args)]
                lhs = ((op(*moved).data - out.data) * g).sum()
                rhs = (dx * grads[str(i)]).sum()
                assert abs(lhs - rhs) <= tol * max(1.0, abs(lhs)), (name, i)


@pytest.mark.parametrize("mode", ["standard", "extended"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=277)
def test_edge_ops_finite_differences(mode, seed):
    """Both fused ops' backward, in the mode's dtype, against finite
    differences of the same inputs taken in extended precision, less the
    value at the start. Float64 differences of the whole sum carry about
    4e-13 of round-off, which at seed 277 reads as 1.2e-6 relative error
    on qkv coordinates whose gradient is about 1.7e-7."""
    rng = np.random.default_rng(seed)
    with T.precision(mode):
        for name, op, args in attention_op_cases(rng):
            g = rng.normal(size=op(*args).shape)

            def value(tensors):
                return tsum(T.mul(op(*tensors), T.Tensor(g)))

            def extended_value():
                with T.precision("extended"):
                    return value([T.Tensor(a.data) for a in args]).data

            start = extended_value()

            def f():
                taped = value(args)
                if taped.requires_grad:  # the analytic pass
                    return taped
                return T.Tensor(extended_value() - start)

            err = T.finite_diff_check(f, {str(i): a for i, a in enumerate(args)})
            assert err < 1e-6, (name, err)


def test_segment_softmax_rows_are_distributions():
    """edge_attention's weights: per head, each row is a distribution over
    the node's incoming edges, positive on them and zero elsewhere."""
    rng = np.random.default_rng(0)
    edges, mask, _ = random_edges(rng, 6, 3)
    qkv = T.Tensor(rng.normal(size=(6, 3 * 2 * 2)) * 5)
    weights = []
    T.edge_attention(qkv, T.Tensor(rng.normal(size=(3, 2))), T.Tensor(np.zeros((3, 2))), 2, edges, weights)
    e, alpha = weights[0]
    np.testing.assert_allclose(alpha.sum(axis=2), np.ones((2, 6)), atol=1e-12)
    assert (alpha[:, mask] > 0).all() and (alpha[:, ~mask] == 0).all()
    assert (e[:, ~mask] == -np.inf).all() and np.isfinite(e[:, mask]).all()


def test_segment_softmax_rejects_node_without_edges():
    edges = T.EdgeList([0, 0], [0, 1], [0, 0], 2, 1)  # node 1 has no incoming edge
    zeros = T.Tensor(np.zeros((1, 1)))
    with pytest.raises(T.ContractViolation):
        T.edge_attention(T.Tensor(np.zeros((2, 3))), zeros, zeros, 1, edges)


@pytest.mark.parametrize("op", ["relative_attention", "edge_attention"])
def test_fused_attention_rejects_nonfinite_scores(op):
    """The scores are not an op output, so each op checks them itself: a
    score that overflows to -inf must raise, not silently get weight 0
    (the rest of its row, and so the output, stay finite)."""
    qkv = np.zeros((2, 3))  # one head of width 1: columns q, k, v
    qkv[0, 0], qkv[0, 1] = 1e200, -1e200  # e_00 = q_0 k_0 = -inf, e_01 = 0
    dst, src = np.nonzero(np.ones((2, 2), dtype=bool))
    relation = 1 if op == "relative_attention" else T.EdgeList(dst, src, np.zeros(4), 2, 3)
    zeros = T.Tensor(np.zeros((3, 1)))
    with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError, match=op):
        getattr(T, op)(T.Tensor(qkv), zeros, zeros, 1, relation)


@pytest.mark.parametrize("n", [1, 7, 40])
def test_relative_attention_taped_equals_untaped(n):
    """Calls inside and outside a `record_tape` block run one code path:
    bit-identical outputs, and only the taped one requires a gradient."""
    rng = np.random.default_rng(n)
    m, dz, clip = 2, 3, 4
    qkv = tensor(rng.normal(size=(n, 3 * m * dz)))
    ak, av = tensor(rng.normal(size=(2 * clip + 1, dz))), tensor(rng.normal(size=(2 * clip + 1, dz)))
    with T.record_tape() as tape:
        taped = T.relative_attention(qkv, ak, av, m, clip)
    plain = T.relative_attention(qkv, ak, av, m, clip)
    assert len(tape) == 1 and taped.requires_grad and not plain.requires_grad
    np.testing.assert_array_equal(taped.data, plain.data)


@pytest.mark.parametrize("n", [1, 3])
def test_relative_attention_leaves_its_input_alone(n):
    """The op scales its own copy of q: qkv is unchanged and a second call
    gives the same result, also for a one-node level."""
    rng = np.random.default_rng(n)
    m, dz, clip = 2, 4, 1
    qkv = tensor(rng.normal(size=(n, 3 * m * dz)))
    before = qkv.data.copy()
    ak, av = tensor(rng.normal(size=(2 * clip + 1, dz))), tensor(rng.normal(size=(2 * clip + 1, dz)))
    first = T.relative_attention(qkv, ak, av, m, clip)
    np.testing.assert_array_equal(qkv.data, before)
    np.testing.assert_array_equal(T.relative_attention(qkv, ak, av, m, clip).data, first.data)


def split_attention_inputs(seed, n=300, m=4, dz=8, clip=5, scale=0.3):
    """Inputs of a 4-head level of n = 300 nodes: 360 000 score cells, over
    SPLIT_WORK, so the heads run in groups side by side."""
    rng = np.random.default_rng(seed)
    assert m * n * n >= T.SPLIT_WORK
    qkv = rng.normal(size=(n, 3 * m * dz)) * scale
    ak, av = (rng.normal(size=(2 * clip + 1, dz)) * scale for _ in range(2))
    return qkv, ak, av, m, clip


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("taped", [True, False])
@pytest.mark.parametrize("cpus", [2, 3])
def test_relative_attention_head_groups_equal_one_group(mode, taped, cpus, monkeypatch):
    """Above SPLIT_WORK the heads run in min(m, CPUs) groups side by side
    (here 2 + 2 and 2 + 1 + 1 of 4); the output and the qkv, ak and av
    gradients equal, bit for bit, those of the same call in one group,
    and a taped call records one node."""
    qkv, ak, av, m, clip = split_attention_inputs(7)
    g = np.random.default_rng(8).normal(size=(len(qkv), qkv.shape[1] // 3))
    submitted = []
    executor = T._executor

    def run(cpus):
        monkeypatch.setattr(T, "_cpus", lambda: cpus)
        monkeypatch.setattr(T, "_executor", lambda: submitted.append(cpus) or executor())
        with T.precision(mode):
            args = [T.Tensor(a, requires_grad=True) for a in (qkv, ak, av)]
            if not taped:
                return T.relative_attention(*args, m, clip).data, []
            with T.record_tape() as tape:
                out = T.relative_attention(*args, m, clip)
                assert len(tape) == 1
                grads = T.backward(tsum(T.mul(out, T.Tensor(g))), dict(enumerate(args)))
            return out.data, [grads[i] for i in range(3)]

    whole, whole_grads = run(1)
    assert not submitted
    split, split_grads = run(cpus)
    # the forward, and for a taped call the backward, handed groups to the pool
    assert len(submitted) == (2 if taped else 1) * (cpus - 1)
    assert split.dtype == T._DTYPES[mode]
    np.testing.assert_array_equal(split, whole)
    for got, want in zip(split_grads, whole_grads, strict=True):
        np.testing.assert_array_equal(got, want)


def test_relative_attention_exact_route_is_not_split(monkeypatch):
    """Above SPLIT_WORK, a call whose bound U exceeds SHIFT_LIMIT stays one
    group: one finiteness scan of its scores besides the output's, and a
    score of -inf raises, naming the op."""
    qkv, ak, av, m, clip = split_attention_inputs(9, scale=3.0)
    checks = []
    check_finite = T._check_finite
    monkeypatch.setattr(T, "_cpus", lambda: 2)
    monkeypatch.setattr(T, "_executor", lambda: pytest.fail("the exact route was split"))
    monkeypatch.setattr(T, "_check_finite", lambda data, op: checks.append(op) or check_finite(data, op))
    T.relative_attention(T.Tensor(qkv), T.Tensor(ak), T.Tensor(av), m, clip)
    assert checks == ["relative_attention"] * 2
    dz = ak.shape[1]
    qkv[0, 0], qkv[0, m * dz] = 1e200, -1e200  # e_00 = q_0 k_0 = -inf in head 0
    with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError, match="relative_attention"):
        T.relative_attention(T.Tensor(qkv), T.Tensor(ak), T.Tensor(av), m, clip)


@pytest.mark.parametrize("fail_on", ["pool", "caller"])
def test_relative_attention_group_error_comes_out_after_the_join(fail_on, monkeypatch):
    """An error in either group comes out of the call, and only once every
    group has finished: the pool's group, slowed down, has ended by then."""
    import threading
    import time

    qkv, ak, av, m, clip = split_attention_inputs(10)
    plan = T.band_plan(len(qkv), clip)
    caller = threading.get_ident()
    finished = []
    pool_began = threading.Event()

    class SlowPlan:
        def add_expanded(self, out, r):
            plan.add_expanded(out, r)

        def fold(self, g):
            on_pool = threading.get_ident() != caller
            if on_pool:
                pool_began.set()
                time.sleep(0.3)
            else:  # a group the pool has not begun would run here instead
                assert pool_began.wait(60)
            if on_pool == (fail_on == "pool"):
                raise RuntimeError(f"fold failed on the {fail_on}")
            finished.append(on_pool)
            return plan.fold(g)

    monkeypatch.setattr(T, "_cpus", lambda: 2)
    monkeypatch.setattr(T, "band_plan", lambda n, c: SlowPlan())
    with pytest.raises(RuntimeError, match=fail_on):
        T.relative_attention(T.Tensor(qkv), T.Tensor(ak), T.Tensor(av), m, clip)
    assert finished == [fail_on == "caller"]


def split_edge_inputs(seed, n=400, m=4, dz=16, n_buckets=7, scale=0.3):
    """Inputs of an integration-like pass of 4 400 edges (E m d_z = 281 600,
    over SPLIT_WORK): destinations alternate between 1 and 21 in-edges, so
    wherever a block boundary falls, a destination with a single in-edge
    sits on it."""
    rng = np.random.default_rng(seed)
    degree = np.tile([1, 21], n // 2)
    dst = np.repeat(np.arange(n), degree)
    src = np.concatenate([rng.choice(n, k, replace=False) for k in degree])
    edges = T.EdgeList(dst, src, rng.integers(0, n_buckets, size=len(dst)), n, n_buckets)
    assert len(edges) * m * dz >= T.SPLIT_WORK
    qkv = rng.normal(size=(n, 3 * m * dz)) * scale
    ak, av = (rng.normal(size=(n_buckets, dz)) * scale for _ in range(2))
    return qkv, ak, av, m, edges


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("taped", [True, False])
@pytest.mark.parametrize("cpus", [2, 3])
def test_edge_attention_destination_blocks_equal_one_block(mode, taped, cpus, monkeypatch):
    """From E m d_z >= SPLIT_WORK the destinations run in min(n, CPUs)
    contiguous blocks of about equal edge counts, side by side; the output
    and the qkv, ak and av gradients equal, bit for bit, those of the same
    call in one block, and a taped call records one node."""
    qkv, ak, av, m, edges = split_edge_inputs(7)
    g = np.random.default_rng(8).normal(size=(len(qkv), qkv.shape[1] // 3))
    blocks = edges.blocks(cpus)
    assert [b[0].start for b in blocks] == [0] + [b[0].stop for b in blocks[:-1]]
    assert blocks[-1][0].stop == len(qkv) and blocks[-1][1].stop == len(edges)
    for nodes, cut, *_ in blocks:
        assert abs(cut.stop - cut.start - len(edges) / cpus) <= edges.degree.max()
        assert nodes.start == 0 or 1 in edges.degree[[nodes.start - 1, nodes.start]]
    submitted = []
    executor = T._executor

    def run(cpus):
        monkeypatch.setattr(T, "_cpus", lambda: cpus)
        monkeypatch.setattr(T, "_executor", lambda: submitted.append(cpus) or executor())
        with T.precision(mode):
            args = [T.Tensor(a, requires_grad=True) for a in (qkv, ak, av)]
            if not taped:
                return T.edge_attention(*args, m, edges).data, []
            with T.record_tape() as tape:
                out = T.edge_attention(*args, m, edges)
                assert len(tape) == 1
                grads = T.backward(tsum(T.mul(out, T.Tensor(g))), dict(enumerate(args)))
            return out.data, [grads[i] for i in range(3)]

    whole, whole_grads = run(1)
    assert not submitted
    split, split_grads = run(cpus)
    assert len(submitted) == (2 if taped else 1) * (cpus - 1)
    assert split.dtype == T._DTYPES[mode]
    np.testing.assert_array_equal(split, whole)
    for got, want in zip(split_grads, whole_grads, strict=True):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("fail_on", ["pool", "caller"])
def test_edge_attention_block_error_comes_out_after_the_join(fail_on, monkeypatch):
    """A non-finite score in either destination block raises NonFiniteError,
    naming the op, and only once every block has finished: the other
    block, on the pool slowed down, has ended by then."""
    import threading
    import time

    qkv, ak, av, m, edges = split_edge_inputs(10)
    blocks = edges.blocks(2)
    node = 0 if fail_on == "caller" else blocks[1][0].stop - 1
    src = edges.src[edges.starts[node]]
    qkv[node, 0], qkv[src, m * ak.shape[1]] = 1e200, -1e200  # one score of head 0 is -inf
    caller, finished, pool_began = threading.get_ident(), [], threading.Event()
    check_finite, side_by_side = T._check_finite, T._side_by_side

    def check(data, op):
        if threading.get_ident() != caller:
            pool_began.set()
            time.sleep(0.3)
        else:  # a block the pool has not begun would run here instead
            assert pool_began.wait(60)
        check_finite(data, op)

    def blocks_that_record(fn, count, *args):
        def block(*a):
            fn(*a)
            finished.append(threading.get_ident() != caller)
        return side_by_side(block, count, *args)

    monkeypatch.setattr(T, "_cpus", lambda: 2)
    monkeypatch.setattr(T, "_check_finite", check)
    monkeypatch.setattr(T, "_side_by_side", blocks_that_record)
    with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError, match="edge_attention"):
        T.edge_attention(T.Tensor(qkv), T.Tensor(ak), T.Tensor(av), m, edges)
    assert finished == [fail_on == "caller"]


POOL_SCRIPT = """
import hashlib, os, select, signal, sys, threading
import numpy as np
from multigrain import tensor as T
from multigrain.encoder import EncoderConfig, ModelParams
from multigrain.train import OptimizerState, adam_step

def call(n):
    rng = np.random.default_rng(n)
    qkv, ak, av = rng.normal(size=(n, 48)) * 0.3, rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    out = T.relative_attention(T.Tensor(qkv), T.Tensor(ak), T.Tensor(av), 4, 1)
    return hashlib.sha256(out.data.tobytes()).hexdigest()

def ffn(n, d, d_ff):
    rng = np.random.default_rng(n)
    shapes = ((n, d), (n, d), (2 * d, d_ff), (d_ff,), (d_ff, d), (d,), (d,), (d,))
    return T.feed_forward(*(T.Tensor(rng.normal(size=shape) * 0.1) for shape in shapes))

def edges(n, m, dz):
    rng = np.random.default_rng(n)
    mask = rng.random((n, n)) < 0.07
    np.fill_diagonal(mask, True)
    dst, src = np.nonzero(mask)
    rel = T.EdgeList(dst, src, rng.integers(0, 5, size=len(dst)), n, 5)
    args = [T.Tensor(rng.normal(size=shape) * 0.3) for shape in ((n, 3 * m * dz), (5, dz), (5, dz))]
    assert len(rel) * m * dz < T.SPLIT_WORK
    return T.edge_attention(*args, m, rel)

def adam(config):
    model = ModelParams.init(config, seed=0)
    assert model.flat.size < T.SPLIT_WORK
    model.grad[...] = 1.0
    adam_step(model, OptimizerState.init(model), 1e-3)

T._cpus = lambda: 2
assert threading.active_count() == 1, "a thread at import"
call(100)  # 40 000 cells, under SPLIT_WORK
ffn(76, 32, 128)  # a desk-size FFN: 9 728 elements, under SPLIT_WORK
edges(76, 4, 8)  # a desk-size integration pass: about 400 edges
adam(EncoderConfig(vocab_size=1000, d_h=32, m=4, n_layers=2, d_ff=128))  # desk's model
assert threading.active_count() == 1, "a thread below SPLIT_WORK"
digest = call(300)
assert threading.active_count() == 2, threading.enumerate()
read, write = os.pipe()
pid = os.fork()
if pid == 0:
    signal.alarm(60)
    os.write(write, call(300).encode())
    os._exit(0)
ready, _, _ = select.select([read], [], [], 60)
if not ready:
    os.kill(pid, signal.SIGKILL)
    sys.exit("the forked child's split call did not finish")
assert os.read(read, 64).decode() == digest, "the child's bytes differ"
assert os.waitpid(pid, 0)[1] == 0
print("ok")
"""


def test_pool_belongs_to_the_process_that_made_it():
    """The pool starts with the first split call, not at import or below
    SPLIT_WORK (an attention level, or a desk-size FFN, integration pass
    or Adam step); a child forked
    after a split call makes its own pool and gets the same bytes; a
    process with a pool exits promptly."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(T.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", POOL_SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def op_oracle(qkv, ak, av, m, mask, buckets):
    """dense_attention_oracle in the fused ops' layout: the states are qkv,
    each head's W_q, W_k, W_v pick its columns and W_o is the identity."""
    n, d3 = qkv.shape
    d = d3 // 3
    dz = d // m
    pick = np.eye(d3)
    wq, wk, wv = ([pick[:, b * d + h * dz : b * d + (h + 1) * dz] for h in range(m)] for b in range(3))
    return dense_attention_oracle(qkv, wq, wk, wv, np.eye(d), dz, mask, buckets, ak, av)


def op_oracle_gradients(arrays, m, mask, buckets, g):
    """The oracle's output and the gradients of <output, g> with respect to
    qkv, ak and av, by complex steps (exact to rounding)."""
    h = 1e-30
    grads = []
    for i, value in enumerate(arrays):
        grad = np.zeros(value.size)
        for c in range(value.size):
            x = [a.astype(complex) for a in arrays]
            x[i].reshape(-1)[c] += 1j * h
            grad[c] = (op_oracle(*x, m, mask, buckets) * g).sum().imag / h
        grads.append(grad.reshape(value.shape))
    return op_oracle(*arrays, m, mask, buckets), grads


@pytest.mark.parametrize("mode", ["standard", "extended"])
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), clip=st.integers(0, 6),
       bound=st.sampled_from([2.0, 250.0, 350.0, 600.0]))
def test_fused_ops_match_oracle_on_both_softmax_routes(mode, seed, n, clip, bound):
    """Both fused ops equal the dense oracle within 1e-12, forward and for
    the gradients of qkv, ak and av, whichever way the softmax is shifted.
    The Q and K columns and ak are scaled so that relative_attention's
    score bound U = sqrt(d_z) max|q| (max|k| + max|ak|) is `bound`: below
    SHIFT_LIMIT it shifts by U, above it scans the scores and shifts by
    the row max, which shows in the number of finiteness checks it makes
    (the op output's alone, or also the scores')."""
    rng = np.random.default_rng(seed)
    m, dz, nb = 2, 8, 2 * clip + 1
    qkv = rng.normal(size=(n, 3 * m * dz))
    ak, av = rng.normal(size=(nb, dz)), rng.normal(size=(nb, dz))
    qk = np.abs(qkv[:, : 2 * m * dz]).reshape(n, 2, -1)
    t = np.sqrt(bound / (np.sqrt(dz) * qk[:, 0].max() * (qk[:, 1].max() + np.abs(ak).max())))
    qkv[:, : 2 * m * dz] *= t
    ak *= t
    idx = np.arange(n)
    band = np.clip(idx[None, :] - idx[:, None], -clip, clip) + clip
    edges, mask, buckets = random_edges(rng, n, nb)
    g = rng.normal(size=(n, m * dz))
    checks = []
    check_finite = T._check_finite
    with T.precision(mode), pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_check_finite", lambda data, op: checks.append(op) or check_finite(data, op))
        for op, relation, op_mask, op_buckets in (
            (T.relative_attention, clip, np.ones((n, n), dtype=bool), band),
            (T.edge_attention, edges, mask, buckets),
        ):
            args = [T.Tensor(a, requires_grad=True) for a in (qkv, ak, av)]
            with T.record_tape():
                out = op(*args, m, relation)
                grads = T.backward(tsum(T.mul(out, T.Tensor(g))), {str(i): a for i, a in enumerate(args)})
            want, want_grads = op_oracle_gradients([qkv, ak, av], m, op_mask, op_buckets, g)
            np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12, err_msg=op.__name__)
            for i, want_grad in enumerate(want_grads):
                np.testing.assert_allclose(grads[str(i)], want_grad, rtol=0, atol=1e-12, err_msg=f"{op.__name__} {i}")
    shifted = bound <= T.SHIFT_LIMIT
    assert checks.count("relative_attention") == (1 if shifted else 2)
    assert checks.count("edge_attention") == 2


def test_edge_list_rejects_duplicates_and_out_of_range():
    with pytest.raises(T.ContractViolation):
        T.EdgeList([0, 0], [1, 1], [0, 0], 2, 1)
    with pytest.raises(T.ContractViolation):
        T.EdgeList([0], [2], [0], 2, 1)
    with pytest.raises(T.ContractViolation):
        T.EdgeList([0], [0], [3], 2, 3)


def find(edges, dst: int, src: int) -> int:
    """Index of the edge dst <- src from the row starts, or -1 if there is none."""
    lo, hi = edges.starts[dst], edges.starts[dst] + edges.degree[dst]
    k = lo + int(np.searchsorted(edges.src[lo:hi], src))
    return k if k < hi and edges.src[k] == src else -1


def test_edge_list_sorted_with_row_starts():
    edges = T.EdgeList([2, 0, 1, 0, 2], [0, 1, 1, 0, 2], [1, 2, 3, 4, 5], 3, 6)
    assert edges.dst.tolist() == [0, 0, 1, 2, 2]
    assert edges.src.tolist() == [0, 1, 1, 0, 2]
    assert edges.bucket.tolist() == [4, 2, 3, 1, 5]
    assert edges.starts.tolist() == [0, 2, 3]
    assert find(edges, 2, 2) == 4 and find(edges, 1, 0) == -1


@pytest.mark.parametrize("mode", ["standard", "extended"])
def test_scatter_plan_matches_add_at(mode):
    rng = np.random.default_rng(1)
    with T.precision(mode):
        keys = rng.integers(0, 7, size=40)
        values = rng.normal(size=(40, 3)).astype(T.current_dtype())
        want = np.zeros((9, 3), dtype=values.dtype)
        np.add.at(want, keys, values)
        got = T.ScatterPlan(keys, 9)(values)
        assert got.dtype == values.dtype
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        order = np.argsort(keys, kind="stable")
        plan = T.ScatterPlan(keys[order], 9)
        np.testing.assert_array_equal(plan.matrix.indices, np.arange(40))  # already sorted: order kept
        np.testing.assert_allclose(plan(values[order]), want, rtol=0, atol=1e-13)
        # negative keys count from the end: -1 and 8 share one sum
        mixed = np.where(keys % 2 == 0, keys - 9, keys)
        np.testing.assert_allclose(T.ScatterPlan(mixed, 9)(values), want, rtol=0, atol=1e-13)
        mixed[0] = 8
        mixed[1] = -1
        want = np.zeros((9, 3), dtype=values.dtype)
        np.add.at(want, mixed, values)
        np.testing.assert_allclose(T.ScatterPlan(mixed, 9)(values), want, rtol=0, atol=1e-13)
        with pytest.raises(T.ContractViolation):
            T.ScatterPlan([0, 9], 9)
        # no keys: all zeros, in the values' dtype
        empty = T.ScatterPlan(np.arange(0, 0), 9)(values[:0])
        assert empty.dtype == values.dtype
        np.testing.assert_array_equal(empty, np.zeros((9, 3)))


def test_gather_backward_sums_negative_indices():
    """gather accepts numpy-style negative indices; its backward must sum
    index -1 and index n-1 into the same row."""
    rng = np.random.default_rng(2)
    a = tensor(rng.normal(size=(4, 3)))
    idx = np.array([3, -1, 0, -4, 2])
    g = rng.normal(size=(5, 3))
    with T.record_tape():
        grads = T.backward(tsum(T.mul(T.gather(a, idx), tensor(g, grad=False))), {"a": a})
    want = np.zeros((4, 3))
    np.add.at(want, idx, g)
    np.testing.assert_allclose(grads["a"], want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("index", [slice(1, 3), slice(0, 0), slice(2, 4)])
def test_rows_matches_gather(mode, index):
    """rows(a, slice) equals the gather of the slice's arange, forward and
    backward, in the working dtype; an empty slice (the first level's
    `before` block) gives a zero gradient."""
    rng = np.random.default_rng(3)
    with T.precision(mode):
        a = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        g = T.Tensor(rng.normal(size=(4, 3))[index])
        idx = np.arange(4)[index]
        with T.record_tape():
            sliced = T.rows(a, index)
            got = T.backward(tsum(T.mul(sliced, g)), {"a": a})["a"]
        a.grad = None
        with T.record_tape():
            want = T.backward(tsum(T.mul(T.gather(a, idx), g)), {"a": a})["a"]
        np.testing.assert_array_equal(sliced.data, a.data[idx])
        assert got.dtype == a.data.dtype
        np.testing.assert_array_equal(got, want)


def oracle_gradients(states, model, prefix, mask, buckets, g):
    """Output of dense_attention_oracle and the gradients of <output, g>
    with respect to the states and every parameter of `prefix`, by complex
    steps: d/dx f(x) = Im f(x + ih) / h, exact to rounding for the
    oracle's analytic numpy functions."""
    cfg = model.config
    names = ["wqkv", "wo", "ak", "av"]
    base = {"states": states, **{k: model.tensors[f"{prefix}.{k}"].data for k in names}}

    def run(x):
        wq, wk, wv = split_qkv(x["wqkv"], cfg.m).swapaxes(0, 1)
        return dense_attention_oracle(
            x["states"], wq, wk, wv, x["wo"], cfg.d_z, mask, buckets, x["ak"], x["av"]
        )

    h = 1e-30
    grads = {}
    for key, value in base.items():
        grad = np.zeros(value.size)
        for c in range(value.size):
            x = dict(base)
            x[key] = value.astype(complex)
            x[key].reshape(-1)[c] += 1j * h
            grad[c] = (run(x) * g).sum().imag / h
        grads[key] = grad.reshape(value.shape)
    return run(base), grads


def check_against_oracle(model, prefix, relation, mask, buckets, states, g):
    """gat_attention over `relation` equals the dense oracle within 1e-12,
    forward and for every parameter and state gradient."""
    names = ["wqkv", "wo", "ak", "av"]
    for t in model.tensors.values():
        t.grad = None
    x = T.Tensor(states, requires_grad=True)
    with T.record_tape():
        out = gat_attention(x, mask, relation, model, prefix)
        loss = tsum(T.mul(out, T.Tensor(g)))
        grads = T.backward(loss, {"states": x, **{k: model.tensors[f"{prefix}.{k}"] for k in names}})
    for t in model.tensors.values():
        t.grad = None
    want, want_grads = oracle_gradients(states, model, prefix, mask, buckets, g)
    np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
    for k, grad in want_grads.items():
        np.testing.assert_allclose(grads[k], grad, rtol=0, atol=1e-12, err_msg=k)


def randomized_model(seed, prefix, rng):
    model = ModelParams.init(micro_config(), seed=seed % 1000, scale=0.3)
    for nm in (f"{prefix}.ak", f"{prefix}.av"):
        model.tensors[nm].data[:] = rng.normal(scale=0.5, size=model.tensors[nm].shape)
    return model


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), density=st.floats(0.0, 1.0))
def test_edge_integration_matches_dense_masked_oracle(seed, n, density):
    """gat_attention over a random EdgeList equals the dense masked oracle
    over the same edges, forward and for every parameter and state
    gradient."""
    rng = np.random.default_rng(seed)
    prefix = "layer0.integ"
    model = randomized_model(seed, prefix, rng)
    d = model.config.d_h
    edges, mask, buckets = random_edges(rng, n, integration_buckets(model.config.cross_clip), density)
    states, g = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    check_against_oracle(model, prefix, edges, mask, buckets, states, g)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9))
def test_level_attention_matches_dense_oracle(seed, n):
    """A fully connected level with Toeplitz buckets clip(j - i) + c, as a
    level (relative_attention) and as the edge list of all its pairs,
    equals the dense oracle forward and for every gradient; n runs below
    and above the clip."""
    rng = np.random.default_rng(seed)
    prefix = "layer0.tok"
    model = randomized_model(seed, prefix, rng)
    cfg = model.config
    clip = cfg.token_clip
    idx = np.arange(n)
    buckets = np.clip(idx[None, :] - idx[:, None], -clip, clip) + clip
    mask = np.ones((n, n), dtype=bool)
    dst, src = np.nonzero(mask)
    edges = T.EdgeList(dst, src, buckets[dst, src], n, 2 * clip + 1)
    states, g = rng.normal(size=(n, cfg.d_h)), rng.normal(size=(n, cfg.d_h))
    for relation in (clip, edges):
        check_against_oracle(model, prefix, relation, mask, buckets, states, g)
