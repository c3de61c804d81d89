"""Unit and property tests for the tape-based autodiff core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from multigrain import tensor as T
from multigrain.checks import dense_attention_oracle, micro_config
from multigrain.encoder import ModelParams, gat_attention


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


def test_masked_softmax_symmetry():
    out = T.masked_softmax(tensor([[5.0, 5.0]]), np.ones((1, 2), bool))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def test_masked_softmax_single_unmasked():
    mask = np.array([[False, True, False]])
    out = T.masked_softmax(tensor([[3.0, -2.0, 9.0]]), mask)
    np.testing.assert_array_equal(out.data, [[0.0, 1.0, 0.0]])


def test_masked_softmax_exp_normalize_oracle():
    out = T.masked_softmax(tensor([[1.0, 2.0, 3.0]]), np.ones((1, 3), bool))
    np.testing.assert_allclose(out.data, [[0.0900, 0.2447, 0.6652]], atol=1e-4)


def test_masked_softmax_all_masked_rejected():
    with pytest.raises(T.ContractViolation):
        T.masked_softmax(tensor([[1.0, 2.0]]), np.zeros((1, 2), bool))


def test_masked_log_softmax_masked_entries_sentinel():
    mask = np.array([[True, False, True]])
    out = T.masked_log_softmax(tensor([[0.0, 0.0, 0.0]]), mask)
    assert out.data[0, 1] == T.LOGP_MASKED
    np.testing.assert_allclose(np.exp(out.data[0, [0, 2]]).sum(), 1.0, atol=1e-12)


# ---------------------------------------------------------------- gelu


def test_gelu_zero():
    assert T.gelu(tensor([0.0])).data[0] == 0.0


def test_gelu_asymptote():
    np.testing.assert_allclose(T.gelu(tensor([10.0])).data[0], 10.0, atol=1e-6)


def test_gelu_normal_cdf_oracle():
    phi1 = 0.5 * (1.0 + erf(1.0 / np.sqrt(2.0)))
    np.testing.assert_allclose(T.gelu(tensor([1.0])).data[0], phi1, atol=1e-12)


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
        grads = T.backward(T.tsum(p), {"p": p})
    np.testing.assert_array_equal(grads["p"], np.ones((2, 3)))


def test_backward_half_sum_squares_grad_identity():
    x = np.arange(6.0).reshape(2, 3)
    p = tensor(x)
    with T.record_tape():
        loss = T.mul(T.tsum(T.mul(p, p)), T.Tensor(np.asarray(0.5)))
        grads = T.backward(loss, {"p": p})
    np.testing.assert_allclose(grads["p"], x)


def test_backward_disconnected_param_zero():
    p = tensor(np.ones(3))
    q = tensor(np.ones(3))
    with T.record_tape():
        grads = T.backward(T.tsum(p), {"p": p, "q": q})
    np.testing.assert_array_equal(grads["q"], np.zeros(3))


# ---------------------------------------------------------------- finite differences


def test_finite_diff_exact_for_quadratic():
    p = tensor(np.array([1.0, -2.0, 0.5]))
    err = T.finite_diff_check(lambda: T.tsum(T.mul(p, p)), {"p": p})
    assert err < 1e-10


def test_finite_diff_exact_for_quartic():
    p = tensor(np.array([1.0, -2.0, 0.5]))

    def f():
        sq = T.mul(p, p)
        return T.tsum(T.mul(sq, sq))

    # the 4-point stencil is exact up to degree 4; a 2-point one would be
    # off by eps^2 * f'''/6 = 4 eps^2 p here
    assert T.finite_diff_check(f, {"p": p}) < 1e-9


def test_finite_diff_dead_parameter():
    p = tensor(np.ones(2))
    dead = tensor(np.ones(2))
    # dead never enters the loss: analytic and numeric grads are exactly 0
    err = T.finite_diff_check(lambda: T.tsum(p), {"dead": dead})
    assert err == 0.0
    with T.record_tape():
        grads = T.backward(T.tsum(p), {"p": p, "dead": dead})
    np.testing.assert_array_equal(grads["dead"], np.zeros(2))


# ---------------------------------------------------------------- properties


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_masked_softmax_rows_are_distributions(n, m, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(n, m)) * 5
    mask = rng.random((n, m)) < 0.7
    mask[np.arange(n), rng.integers(0, m, size=n)] = True  # keep rows nonempty
    out = T.masked_softmax(tensor(logits), mask)
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(n), atol=1e-12)
    assert (out.data[~mask] == 0.0).all()
    assert (out.data >= 0.0).all()


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
        h = T.gelu(T.matmul(a, b))
        h = T.layer_norm(T.add(h, w), g, z)
        return T.tsum(T.mul(h, w))

    # looser than the pinned micro-model check: random points can sit in
    # high-curvature regions
    with T.precision("extended"):
        assert T.finite_diff_check(f, {"a": a, "b": b}) < 2e-3


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_take_pairs_bucket_sum_adjoint(seed):
    """<take_pairs(A), G> == <A, scatter(G)> for random G: adjoint identity."""
    rng = np.random.default_rng(seed)
    n, m = 4, 3
    a = tensor(rng.normal(size=(n, m)))
    rows = rng.integers(0, n, size=6)
    cols = rng.integers(0, m, size=6)
    with T.record_tape():
        out = T.take_pairs(a, rows, cols)
        g = rng.normal(size=out.data.shape)
        loss = T.tsum(T.mul(out, T.Tensor(g)))
        grads = T.backward(loss, {"a": a})
    scatter = np.zeros((n, m))
    np.add.at(scatter, (rows, cols), g)
    np.testing.assert_allclose(grads["a"], scatter, atol=1e-12)


def test_nonfinite_rejected():
    with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError):
        T.mul(tensor([1e308]), tensor([1e308]))


def test_dropout_identity_when_off():
    x = tensor(np.arange(4.0))
    out = T.dropout(x, 0.0, None)
    np.testing.assert_array_equal(out.data, x.data)


# ---------------------------------------------------------------- edge ops


def random_edges(rng, n, n_buckets, density=0.4):
    """A random edge list with a self-loop on every node, and its mask."""
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, True)
    buckets = rng.integers(0, n_buckets, size=(n, n))
    dst, src = np.nonzero(mask)
    return T.EdgeList(dst, src, buckets[dst, src], n, n_buckets), mask, buckets


def edge_op_cases(rng, n=5, d=3, n_buckets=4):
    """(name, op, args) per edge op, with random inputs of the current dtype."""
    edges, _, _ = random_edges(rng, n, n_buckets)
    E = len(edges)
    node = lambda: T.Tensor(rng.normal(size=(n, d)), requires_grad=True)
    table = lambda: T.Tensor(rng.normal(size=(n_buckets, d)), requires_grad=True)
    edge = lambda: T.Tensor(rng.normal(size=E), requires_grad=True)
    return edges, [
        ("edge_scores", T.edge_scores, [node(), node(), table()]),
        ("segment_softmax", T.segment_softmax, [edge()]),
        ("edge_aggregate", T.edge_aggregate, [T.Tensor(rng.random(E), requires_grad=True), node(), table()]),
    ]


@pytest.mark.parametrize("mode", ["standard", "extended"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_edge_ops_adjoint(mode, seed):
    """<f(x + dx) - f(x), G> == <dx, J^T G> for every argument in which the
    op is linear; gradients come back in the working dtype."""
    rng = np.random.default_rng(seed)
    with T.precision(mode):
        dtype = T.current_dtype()
        tol = 1e-12 if mode == "standard" else 1e-15
        edges, cases = edge_op_cases(rng)
        for name, op, args in cases:
            if name == "segment_softmax":
                continue  # not linear; covered by the finite-difference test
            out = op(*args, edges)
            g = rng.normal(size=out.shape).astype(dtype)
            with T.record_tape():
                loss = T.tsum(T.mul(op(*args, edges), T.Tensor(g)))
                grads = T.backward(loss, {str(i): a for i, a in enumerate(args)})
            for i, a in enumerate(args):
                assert grads[str(i)].dtype == dtype
                dx = rng.normal(size=a.shape).astype(dtype)
                moved = [T.Tensor(b.data + dx) if j == i else b for j, b in enumerate(args)]
                lhs = ((op(*moved, edges).data - out.data) * g).sum()
                rhs = (dx * grads[str(i)]).sum()
                assert abs(lhs - rhs) <= tol * max(1.0, abs(lhs)), (name, i)


@pytest.mark.parametrize("mode", ["standard", "extended"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_edge_ops_finite_differences(mode, seed):
    rng = np.random.default_rng(seed)
    with T.precision(mode):
        edges, cases = edge_op_cases(rng)
        for name, op, args in cases:
            g = T.Tensor(rng.normal(size=op(*args, edges).shape))

            def f():
                return T.tsum(T.mul(op(*args, edges), g))

            err = T.finite_diff_check(f, {str(i): a for i, a in enumerate(args)})
            assert err < 1e-6, (name, err)


def test_segment_softmax_rows_are_distributions():
    rng = np.random.default_rng(0)
    edges, _, _ = random_edges(rng, 6, 3)
    p = T.segment_softmax(T.Tensor(rng.normal(size=len(edges)) * 5), edges).data
    np.testing.assert_allclose(np.bincount(edges.dst, p), np.ones(6), atol=1e-12)
    assert (p > 0).all()


def test_segment_softmax_rejects_node_without_edges():
    edges = T.EdgeList([0, 0], [0, 1], [0, 0], 2, 1)  # node 1 has no incoming edge
    with pytest.raises(T.ContractViolation):
        T.segment_softmax(T.Tensor(np.zeros(2)), edges)


def test_edge_list_rejects_duplicates_and_out_of_range():
    with pytest.raises(T.ContractViolation):
        T.EdgeList([0, 0], [1, 1], [0, 0], 2, 1)
    with pytest.raises(T.ContractViolation):
        T.EdgeList([0], [2], [0], 2, 1)
    with pytest.raises(T.ContractViolation):
        T.EdgeList([0], [0], [3], 2, 3)


def test_edge_list_sorted_with_row_starts():
    edges = T.EdgeList([2, 0, 1, 0, 2], [0, 1, 1, 0, 2], [1, 2, 3, 4, 5], 3, 6)
    assert edges.dst.tolist() == [0, 0, 1, 2, 2]
    assert edges.src.tolist() == [0, 1, 1, 0, 2]
    assert edges.bucket.tolist() == [4, 2, 3, 1, 5]
    assert edges.starts.tolist() == [0, 2, 3]
    assert edges.find(2, 2) == 4 and edges.find(1, 0) == -1


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
        assert plan.order is None  # already sorted: no argsort
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


def test_gather_take_pairs_backward_sum_negative_indices():
    """gather and take_pairs accept numpy-style negative indices; their
    backward must sum index -1 and index n-1 into the same row."""
    rng = np.random.default_rng(2)
    a = tensor(rng.normal(size=(4, 3)))
    idx = np.array([3, -1, 0, -4, 2])
    g = rng.normal(size=(5, 3))
    with T.record_tape():
        grads = T.backward(T.tsum(T.mul(T.gather(a, idx), tensor(g, grad=False))), {"a": a})
    want = np.zeros((4, 3))
    np.add.at(want, idx, g)
    np.testing.assert_allclose(grads["a"], want, rtol=0, atol=1e-14)

    rows, cols = np.array([0, 0, -1, 3]), np.array([2, -1, 1, -2])
    gp = rng.normal(size=4)
    T.zero_grads({"a": a})
    with T.record_tape():
        grads = T.backward(T.tsum(T.mul(T.take_pairs(a, rows, cols), tensor(gp, grad=False))), {"a": a})
    want = np.zeros((4, 3))
    np.add.at(want, (rows, cols), gp)
    np.testing.assert_allclose(grads["a"], want, rtol=0, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), density=st.floats(0.0, 1.0))
def test_edge_integration_matches_dense_masked_oracle(seed, n, density):
    """gat_attention over an EdgeList equals the dense masked path over the
    same edges, forward and for every parameter and state gradient."""
    rng = np.random.default_rng(seed)
    cfg = micro_config()
    model = ModelParams.init(cfg, seed=seed % 1000, scale=0.3)
    prefix = "layer0.integ"
    n_buckets = cfg.clips.integration_buckets()
    for nm in (f"{prefix}.ak", f"{prefix}.av"):
        model.tensors[nm].data[:] = rng.normal(scale=0.5, size=model.tensors[nm].shape)
    edges, mask, buckets = random_edges(rng, n, n_buckets, density)
    states = rng.normal(size=(n, cfg.d_h))
    g = rng.normal(size=(n, cfg.d_h))
    names = [k for k in model.tensors if k.startswith(prefix)]

    def run(index):
        T.zero_grads(model.tensors)
        x = T.Tensor(states, requires_grad=True)
        with T.record_tape():
            out = gat_attention(x, mask, index, model, prefix, n_buckets)
            loss = T.tsum(T.mul(out, T.Tensor(g)))
            grads = T.backward(loss, {**{k: model.tensors[k] for k in names}, "states": x})
        T.zero_grads(model.tensors)
        return out.data, grads

    dense_out, dense_grads = run(buckets)
    edge_out, edge_grads = run(edges)
    oracle = dense_attention_oracle(
        states,
        [model.tensors[f"{prefix}.h{k}.wq"].data for k in range(cfg.m)],
        [model.tensors[f"{prefix}.h{k}.wk"].data for k in range(cfg.m)],
        [model.tensors[f"{prefix}.h{k}.wv"].data for k in range(cfg.m)],
        model.tensors[f"{prefix}.wo"].data,
        cfg.d_z,
        mask, buckets, model.tensors[f"{prefix}.ak"].data, model.tensors[f"{prefix}.av"].data,
    )
    np.testing.assert_allclose(edge_out, oracle, rtol=0, atol=1e-12)
    np.testing.assert_allclose(edge_out, dense_out, rtol=0, atol=1e-12)
    for k in dense_grads:
        np.testing.assert_allclose(edge_grads[k], dense_grads[k], rtol=0, atol=1e-12, err_msg=k)
