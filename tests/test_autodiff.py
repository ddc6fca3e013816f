import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldgraph import autodiff as ad
from coldgraph import enhancer
from coldgraph.graph import SyntheticSpec, build_implicit, generate_synthetic, make_training_graph, segment
from coldgraph.model import GraphTensors
from coldgraph.sparse import SparseOperator
from coldgraph.train import TrainConfig, train_model, train_teacher
from gradcheck import finite_diff_check
from oracles import (
    RecordingTape, bpr_by_gathers, dedup_mean, gather_rows_sorted, log, log_sigmoid, negate,
    scatter_rows_by_operator, scatter_rows_sorted, segment_attention_rows, sigmoid, sum_all, transpose,
)


def rand(rng, *shape):
    return ad.Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)


class TestForwardValues:
    def test_softmax_uniform_logits(self):
        out = ad.softmax(ad.Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3])

    def test_cosine_self_is_one(self):
        v = ad.Tensor([0.3, -1.2, 0.7])
        assert ad.cosine_similarity(v, v).item() == pytest.approx(1.0)

    def test_mean_rows(self):
        out = ad.mean_rows(ad.Tensor([[0.0, 1.0], [1.0, 1.0]]))
        np.testing.assert_allclose(out.data, [0.5, 1.0])

    def test_matmul_shapes(self):
        a = ad.Tensor(np.ones((2, 3)))
        b = ad.Tensor(np.ones((3, 4)))
        assert ad.matmul(a, b).shape == (2, 4)
        assert ad.matmul(ad.Tensor(np.ones(3)), b).shape == (4,)
        assert ad.matmul(a, ad.Tensor(np.ones(3))).shape == (2,)
        assert ad.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones(3))).shape == ()

    def test_concat_accepts_scalars(self):
        out = ad.concat([sum_all(ad.Tensor([1.0, 2.0])), ad.Tensor([4.0])])
        np.testing.assert_allclose(out.data, [3.0, 4.0])


class TestErrors:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.add(ad.Tensor([1.0]), ad.Tensor([1.0, 2.0]))
        with pytest.raises(ValueError, match="matmul"):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_gather_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            ad.gather_rows(ad.Tensor(np.ones((3, 2))), [3])

    def test_cosine_zero_vector(self):
        with pytest.raises(ValueError, match="degenerate norm"):
            ad.cosine_similarity(ad.Tensor([0.0, 0.0]), ad.Tensor([1.0, 0.0]))

    def test_log_domain(self):
        with pytest.raises(ValueError, match="non-positive"):
            log(ad.Tensor([1.0, -1.0]))

    def test_tape_consumed(self):
        with ad.Tape() as tape:
            x = ad.Tensor([1.0, 2.0], requires_grad=True)
            loss = ad.sum_squares(x)
        tape.backward(loss, [x])
        with pytest.raises(RuntimeError, match="tape consumed"):
            tape.backward(loss, [x])

    def test_backward_needs_scalar(self):
        with ad.Tape() as tape:
            x = ad.Tensor([1.0, 2.0], requires_grad=True)
            y = ad.relu(x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y, [x])


class TestBackwardBasics:
    def test_sum_squares_gradient(self):
        with ad.Tape() as tape:
            x = ad.Tensor([1.0, 2.0], requires_grad=True)
            loss = ad.sum_squares(x)
        grads = tape.backward(loss, [x])
        np.testing.assert_allclose(grads[x], [2.0, 4.0])

    def test_unused_leaf_gets_zero(self):
        with ad.Tape() as tape:
            x = ad.Tensor([1.0, 2.0], requires_grad=True)
            w = ad.Tensor([5.0, 5.0], requires_grad=True)
            loss = ad.sum_squares(x)
        grads = tape.backward(loss, [x, w])
        np.testing.assert_allclose(grads[w], [0.0, 0.0])

    def test_accumulation_matches_duplicated_leaf(self):
        # using one tensor twice must equal the sum of per-use gradients
        rng = np.random.default_rng(0)
        data = rng.normal(size=3)
        with ad.Tape() as tape:
            x = ad.Tensor(data, requires_grad=True)
            loss = sum_all(ad.mul(x, x))
        g_shared = tape.backward(loss, [x])[x]

        with ad.Tape() as tape:
            x1 = ad.Tensor(data, requires_grad=True)
            x2 = ad.Tensor(data, requires_grad=True)
            loss = sum_all(ad.mul(x1, x2))
        grads = tape.backward(loss, [x1, x2])
        np.testing.assert_allclose(g_shared, grads[x1] + grads[x2])

    def test_cosine_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        c = rng.normal(size=4)
        c /= np.linalg.norm(c)
        x0 = rng.normal(size=4)
        x0 -= (x0 @ c) * c  # orthogonal start

        def f(params):
            (x,) = params
            return ad.cosine_similarity(x, ad.const(c))

        x = ad.Tensor(x0, requires_grad=True)
        assert finite_diff_check(f, [x], eps=1e-5) < 1e-6
        # moving along the analytic gradient increases cosine toward c
        with ad.Tape() as tape:
            loss = f([x])
        g = tape.backward(loss, [x])[x]
        moved = x0 + 0.1 * g
        assert moved @ c > x0 @ c

    def test_no_tape_is_plain_numpy(self):
        x = ad.Tensor([1.0, -2.0], requires_grad=True)
        out = ad.relu(x)
        assert not out.requires_grad


def _scalarizer(rng):
    """Fixed random linear functional, so the test function is deterministic."""
    cache = {}

    def scalarize(out):
        if out.shape == ():
            return out
        if out.shape not in cache:
            cache[out.shape] = ad.const(rng.uniform(0.5, 1.5, size=out.shape))
        return sum_all(ad.mul(out, cache[out.shape]))

    return scalarize


# every op: a builder returning (callable over params, params list)
def _op_cases(rng):
    t = lambda *s: rand(rng, *s)

    def away_from_zero(*shape):
        data = rng.uniform(0.1, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
        return ad.Tensor(data, requires_grad=True)

    table = t(5, 3)
    vecs = [t(4) for _ in range(3)]
    m = t(4, 3)
    v5 = t(5)
    a23, b23 = t(2, 3), t(2, 3)
    ma, mb = t(3, 4), t(4, 2)
    mv = t(4)
    u4, w4 = t(4), t(4)
    pos = ad.Tensor(rng.uniform(0.2, 2.0, size=(3,)), requires_grad=True)
    sr_m, sr_w = t(4, 3), t(4)
    op = dedup_mean(rng.integers(0, 4, 9), rng.integers(0, 5, 9), (4, 5))
    sa_q, sa_k, sa_v = t(6, 3), t(6, 3), t(6, 3)
    sa_tables = [t(5, 3) for _ in range(3)]
    rows_a, rows_b = t(3, 4), t(3, 4)
    runs = [(1, 2), (2, 2)]
    sc_a, sm_v = t(6, 3), t(6)
    bpr_tables = [t(3, 3), t(5, 3)]
    fu = [t(4, 3) for _ in range(3)] + [t(3, 3) for _ in range(3)] + [t(4, 3)]
    fu_present = np.array([[1, 1, 1], [1, 0, 1], [0, 1, 0], [0, 0, 0]], dtype=bool)
    return [
        ("gather_rows", lambda p: ad.gather_rows(p[0], [0, 2, 2, 4]), [table]),
        ("stack_rows", lambda p: ad.stack_rows(p), vecs),
        ("mean_rows2d", lambda p: ad.mean_rows(p[0]), [m]),
        ("mean_rows1d", lambda p: ad.mean_rows(p[0]), [v5]),
        ("matmul22", lambda p: ad.matmul(p[0], p[1]), [ma, mb]),
        ("matmul12", lambda p: ad.matmul(p[0], p[1]), [mv, mb]),
        ("matmul21", lambda p: ad.matmul(p[0], p[1]), [ma, mv]),
        ("matmul11", lambda p: ad.matmul(p[0], p[1]), [u4, w4]),
        ("spmm", lambda p: ad.spmm(op, p[0]), [table]),
        ("add", lambda p: ad.add(p[0], p[1]), [a23, b23]),
        ("sub", lambda p: ad.sub(p[0], p[1]), [a23, b23]),
        ("mul", lambda p: ad.mul(p[0], p[1]), [a23, b23]),
        ("scale", lambda p: ad.scale(p[0], 0.37), [a23]),
        ("scale_rows", lambda p: ad.scale_rows(p[0], p[1]), [sr_m, sr_w]),
        ("negate", lambda p: negate(p[0]), [a23]),
        ("concat0", lambda p: ad.concat(p), vecs),
        ("concat1", lambda p: ad.concat(p, axis=1), [a23, b23]),
        ("transpose", lambda p: transpose(p[0]), [m]),
        ("row_sums", lambda p: ad.row_sums(p[0]), [m]),
        ("sum_all", lambda p: sum_all(p[0]), [m]),
        ("softmax1d", lambda p: ad.softmax(p[0]), [v5]),
        ("softmax2d", lambda p: ad.softmax(p[0]), [m]),
        ("sigmoid", lambda p: sigmoid(p[0]), [a23]),
        ("relu", lambda p: ad.relu(p[0]), [away_from_zero(2, 3)]),
        ("log", lambda p: log(p[0]), [pos]),
        ("log_sigmoid", lambda p: log_sigmoid(p[0]), [a23]),
        ("cosine", lambda p: ad.cosine_similarity(p[0], p[1]), [u4, w4]),
        ("cosine_rows", lambda p: ad.cosine_similarity(p[0], p[1]), [rows_a, rows_b]),
        ("segment_attention", lambda p: ad.segment_attention(*p, 3), [sa_q, sa_k, sa_v]),
        ("segment_attention_runs", lambda p: ad.segment_attention(*p, runs), [sa_q, sa_k, sa_v]),
        # rows repeated within the second run and across both
        ("segment_attention_cols", lambda p: ad.segment_attention(*p, runs, [4, 0, 4, 2, 1, 1]), sa_tables),
        ("sum_consecutive", lambda p: ad.sum_consecutive(p[0], 2), [sc_a]),
        ("sum_consecutive_placed", lambda p: ad.sum_consecutive(p[0], runs, [4, 0, 2, 1], 5, mean=True), [sc_a]),
        ("softmax_runs", lambda p: ad.softmax(p[0], runs), [sm_v]),
        ("attention_fusion", lambda p: ad.attention_fusion(p[:3], p[3:6], fu_present, p[6]), fu),
        ("sum_squares", lambda p: ad.sum_squares(p[0]), [a23]),
        # anchors and items repeated, one item both a positive and a negative
        ("bpr", lambda p: ad.bpr(*p, [0, 2, 2, 1], [0, 3, 1, 3], [4, 4, 3, 0]), bpr_tables),
    ]


@pytest.mark.parametrize("trial", range(20))
def test_every_op_gradient_vs_finite_differences(trial):
    rng = np.random.default_rng(1000 + trial)
    for name, build, params in _op_cases(rng):
        scalarize = _scalarizer(np.random.default_rng(2000 + trial))

        def f(ps, _build=build, _s=scalarize):
            return _s(_build(ps))

        err = finite_diff_check(f, params, eps=1e-5)
        assert err < 1e-4, f"{name}: gradient error {err}"


def test_every_op_follows_its_inputs_dtype():
    # each op over float32 copies of its operands: float32 output and
    # gradients, close to the float64 ones
    for name, build, params in _op_cases(np.random.default_rng(7)):
        grads = {}
        for dtype in (np.float64, np.float32):
            ps = [ad.Tensor(p.data.astype(dtype), requires_grad=True) for p in params]
            with ad.Tape() as tape:
                out = build(ps)
                loss = ad.sum_squares(out)
            got = tape.backward(loss, ps)
            assert {out.data.dtype, loss.data.dtype} == {np.dtype(dtype)}, name
            assert all(g.dtype == dtype for g in got.values()), name
            grads[dtype] = [got[p] for p in ps]
        for g32, g64 in zip(grads[np.float32], grads[np.float64]):
            np.testing.assert_allclose(g32, g64, rtol=1e-4, atol=1e-5, err_msg=name)


class TestFloat32Robustness:
    """Extreme but finite float32 inputs give finite values and gradients;
    the suite turns any overflow or invalid-value warning into a failure."""

    @staticmethod
    def _run(build, *datas):
        leaves = [ad.Tensor(np.asarray(d, dtype=np.float32), requires_grad=True) for d in datas]
        with ad.Tape() as tape:
            out = build(*leaves)
            loss = sum_all(out)
        grads = tape.backward(loss, leaves)
        for array in (out.data, *grads.values()):
            assert array.dtype == np.float32 and np.isfinite(array).all()
        return out.data, [grads[t] for t in leaves]

    def test_log_sigmoid_at_1e4(self):
        out, (grad,) = self._run(log_sigmoid, [-1e4, -100.0, 0.0, 100.0, 1e4])
        np.testing.assert_allclose(out, [-1e4, -100.0, -np.log(2.0), 0.0, 0.0], rtol=1e-6, atol=1e-12)
        np.testing.assert_allclose(grad, [1.0, 1.0, 0.5, 0.0, 0.0], rtol=1e-6, atol=1e-12)

    def test_segment_softmax_with_logits_1e4_apart(self):
        logits = [0.0, 1e4, -1e4, 3.0, -5e3, 5e3, 1e4]
        out, (grad,) = self._run(lambda x: ad.softmax(x, [(2, 2), (3, 1)]), logits)
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(grad, 0.0, atol=1e-6)

    def test_attention_fusion_with_masked_channels_and_empty_rows(self):
        rng = np.random.default_rng(0)
        channels = [rng.normal(size=(4, 3)) * 100 for _ in range(3)]
        weights = [rng.normal(size=(3, 3)) * 100 for _ in range(3)]
        e0 = rng.normal(size=(4, 3))
        present = np.array([[1, 1, 1], [1, 0, 0], [0, 1, 1], [0, 0, 0]], dtype=bool)
        out, grads = self._run(
            lambda *p: ad.attention_fusion(p[:3], p[3:6], present, p[6]), *channels, *weights, e0
        )
        np.testing.assert_array_equal(out[1], channels[0][1].astype(np.float32))
        np.testing.assert_array_equal(out[3], e0[3].astype(np.float32))
        for j in range(3):  # an absent channel gets no gradient from its row
            np.testing.assert_array_equal(grads[j][~present[:, j]], 0.0)

    @pytest.mark.parametrize("norm", [1e-20, 1e-30])
    def test_cosine_loss_of_rows_whose_squares_underflow(self, norm):
        # the squares of these rows are below float32's smallest normal
        # (1e-20) or flush to zero (1e-30); the cosine is scale-free
        rng = np.random.default_rng(1)
        u, v = rng.normal(size=(3, 64)), rng.normal(size=(3, 64))
        u *= norm / np.linalg.norm(u, axis=1, keepdims=True)
        out, (gu, _) = self._run(lambda a, b: enhancer._cosine_costs(a, b.data), u, v)
        want = enhancer._cosine_costs(ad.Tensor(u.astype(np.float32).astype(np.float64)), v).data
        np.testing.assert_allclose(out, want, rtol=1e-6)
        assert np.abs(gu).max() > 0.01 / norm  # of order 1 / |u|, and finite


class TestConstantOperands:
    @pytest.mark.parametrize(
        "op,shapes",
        [
            (ad.matmul, [(3, 4), (4, 2)]),
            (ad.matmul, [(4,), (4, 2)]),
            (ad.matmul, [(3, 4), (4,)]),
            (ad.matmul, [(4,), (4,)]),
            (ad.mul, [(3, 4), (3, 4)]),
            (ad.scale_rows, [(3, 4), (3,)]),
        ],
    )
    @pytest.mark.parametrize("const_side", [0, 1])
    def test_no_gradient_for_constant_operand(self, op, shapes, const_side):
        rng = np.random.default_rng(7)
        datas = [rng.normal(size=s) for s in shapes]
        with ad.Tape() as tape:
            args = [ad.Tensor(d, requires_grad=i != const_side) for i, d in enumerate(datas)]
            out = op(*args)
        _, _, vjp = tape._records[-1]
        got = vjp(np.ones(out.shape))
        assert got[const_side] is None
        with ad.Tape() as tape:
            both = [ad.Tensor(d, requires_grad=True) for d in datas]
            op(*both)
        _, _, vjp_both = tape._records[-1]
        want = vjp_both(np.ones(out.shape))
        np.testing.assert_array_equal(got[1 - const_side], want[1 - const_side])


class TestBpr:
    """``ad.bpr`` against the three gathers and nine ops it replaces."""

    CASES = {
        "repeats": ([0, 2, 2, 1, 0], [0, 3, 1, 3, 3], [4, 4, 3, 0, 1]),
        "distinct": ([0, 1, 2], [0, 1, 2], [3, 4, 5]),
        "one-edge": ([1], [2], [0]),
    }

    @staticmethod
    def run(loss_fn, tables, at):
        with ad.Tape() as tape:
            anchors, items = tables
            # the items also feed a loss recorded later, whose gradient
            # backward adds first; the part is weighted as lam weights it
            loss = ad.add(ad.scale(loss_fn(anchors, items, *at), 0.37), ad.sum_squares(items))
        grads = tape.backward(loss, list(tables))
        return loss.data, [grads[t] for t in tables]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_and_gradients_equal_the_gathers_and_ops(self, case, dtype):
        rng = np.random.default_rng(3)
        datas = [rng.normal(size=(3, 8)).astype(dtype), rng.normal(size=(6, 8)).astype(dtype)]
        results = []
        for fn in (ad.bpr, bpr_by_gathers):
            tables = [ad.Tensor(d, requires_grad=True) for d in datas]
            results.append(self.run(fn, tables, self.CASES[case]))
        (loss, grads), (want_loss, want_grads) = results
        assert loss.dtype == np.dtype(dtype) and loss.tobytes() == want_loss.tobytes()
        for g, want in zip(grads, want_grads):
            assert g.dtype == np.dtype(dtype) and g.tobytes() == want.tobytes()

    def test_a_table_without_gradient_gets_none(self):
        rng = np.random.default_rng(4)
        anchors = ad.const(rng.normal(size=(3, 4)))
        items = ad.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.bpr(anchors, items, *self.CASES["repeats"])
        _, keys, vjp = tape._records[-1]
        g_anchor, g_neg, g_pos = vjp(np.ones((), np.float64))
        assert keys[0] is None and g_anchor is None and g_neg.shape == g_pos.shape == (6, 4)
        assert out.requires_grad

    def test_margins_of_1e4_stay_finite(self):
        # edge 0's margin is +1e4, edge 1's -1e4: softplus of -1e4 is 0 and
        # of 1e4 is 1e4, with sigmoids of 0 and 1
        anchors = ad.Tensor(np.array([[100.0]], np.float32), requires_grad=True)
        items = ad.Tensor(np.array([[100.0], [0.0]], np.float32), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.bpr(anchors, items, [0, 0], [0, 1], [1, 0])
        grads = tape.backward(loss, [anchors, items])
        assert loss.data.dtype == np.float32 and loss.item() == 5e3
        # d loss / d margin is 0 for edge 0 and -1/2 for edge 1, whose margin is -(a . item 0)
        np.testing.assert_array_equal(grads[anchors], [[50.0]])
        np.testing.assert_array_equal(grads[items], [[50.0], [-50.0]])

    @pytest.mark.parametrize(
        "at,error",
        [
            (([], [], []), ValueError),
            (([0, 1], [0], [1, 1]), ValueError),
            (([3], [0], [1]), IndexError),
            (([0], [0], [-1]), IndexError),
        ],
    )
    def test_bad_positions(self, at, error):
        tables = ad.Tensor(np.ones((3, 2))), ad.Tensor(np.ones((4, 2)))
        with pytest.raises(error):
            ad.bpr(*tables, *at)


class TestLogSigmoid:
    def test_finite_where_log_of_sigmoid_underflows(self):
        x = ad.Tensor([-1000.0, -40.0, 0.0, 40.0, 1000.0], requires_grad=True)
        with ad.Tape() as tape:
            out = log_sigmoid(x)
            loss = sum_all(out)
        np.testing.assert_allclose(out.data, [-1000.0, -40.0, -np.log(2.0), 0.0, 0.0], atol=1e-15)
        grad = tape.backward(loss, [x])[x]
        np.testing.assert_allclose(grad, [1.0, 1.0, 0.5, 0.0, 0.0], atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8))
    def test_matches_log_of_sigmoid(self, xs):
        x = ad.Tensor(xs)
        np.testing.assert_allclose(
            log_sigmoid(x).data, log(sigmoid(x)).data, rtol=1e-12, atol=1e-14
        )


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
def test_softmax_is_probability_vector(logits):
    out = ad.softmax(ad.Tensor(logits)).data
    assert np.all(out > 0)
    assert abs(out.sum() - 1.0) < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=6),
    st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=6),
)
def test_sigmoid_bounds(a, b):
    out = sigmoid(ad.Tensor(a + b)).data
    assert np.all(out > 0) and np.all(out < 1)


class TestFiniteDiffCheck:
    def test_sum_squares_small_error(self):
        x = ad.Tensor([0.5, -1.5, 2.0], requires_grad=True)
        err = finite_diff_check(lambda p: ad.sum_squares(p[0]), [x], eps=1e-5)
        assert err < 1e-6

    def test_constant_function_zero_error(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)

        def f(params):
            return ad.const(np.asarray(3.0))

        assert finite_diff_check(f, [x], eps=1e-5) == 0.0

    def test_eps_range_enforced(self):
        x = ad.Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="eps"):
            finite_diff_check(lambda p: ad.sum_squares(p[0]), [x], eps=1e-2)

    def test_non_finite_rejected(self):
        x = ad.Tensor([1.0], requires_grad=True)

        def f(params):
            return ad.const(np.asarray(np.inf))

        with pytest.raises(ValueError, match="non-finite"):
            finite_diff_check(f, [x], eps=1e-5)


def _block_attention_oracle(q, k, v, block):
    """softmax(Q K^T / sqrt(d)) V for each block, one block at a time."""
    outs = []
    for j in range(0, q.shape[0], block):
        qb, kb, vb = (ad.gather_rows(x, list(range(j, j + block))) for x in (q, k, v))
        scores = ad.scale(ad.matmul(qb, transpose(kb)), 1.0 / np.sqrt(q.shape[1]))
        outs.append(ad.matmul(ad.softmax(scores), vb))
    return ad.concat(outs, axis=0)


class TestSegmentAttention:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 6), st.integers(1, 4)), min_size=1, max_size=3),
        st.integers(1, 5),
        st.integers(0, 10_000),
    )
    def test_matches_per_block_oracle(self, calls, d, seed):
        # several calls of mixed block lengths, as one degree bucket per call
        rng = np.random.default_rng(seed)
        for block, n_blocks in calls:
            self._check(rng, block, n_blocks, d)

    def test_hub_block(self):
        self._check(np.random.default_rng(0), 600, 1, 8)

    @staticmethod
    def _check(rng, block, n_blocks, d):
        data = [rng.normal(scale=2.0, size=(block * n_blocks, d)) for _ in range(3)]
        probe = ad.const(rng.normal(size=(block * n_blocks, d)))
        results = []
        for fn in (ad.segment_attention, _block_attention_oracle):
            xs = [ad.Tensor(x, requires_grad=True) for x in data]
            with ad.Tape() as tape:
                out = fn(*xs, block)
                loss = sum_all(ad.mul(out, probe))
            grads = tape.backward(loss, xs)
            results.append((out.data, [grads[x] for x in xs]))
        (got, got_grads), (want, want_grads) = results
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for g, w in zip(got_grads, want_grads):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

    def test_block_of_one_returns_values(self):
        rng = np.random.default_rng(1)
        q, k, v = (ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True) for _ in range(3))
        with ad.Tape() as tape:
            out = ad.segment_attention(q, k, v, 1)
            loss = sum_all(out)
        np.testing.assert_array_equal(out.data, v.data)
        grads = tape.backward(loss, [q, k, v])
        np.testing.assert_array_equal(grads[q], 0.0)
        np.testing.assert_array_equal(grads[k], 0.0)
        np.testing.assert_array_equal(grads[v], 1.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(2)
        params = [ad.Tensor(rng.normal(size=(8, 3)), requires_grad=True) for _ in range(3)]
        probe = ad.const(rng.normal(size=(8, 3)))
        err = finite_diff_check(
            lambda p: sum_all(ad.mul(ad.segment_attention(*p, 4), probe)), params, eps=1e-6
        )
        assert err < 1e-5


class TestSegmentAttentionCols:
    """The op with ``cols`` (it gathers its own rows) against the old op
    over gathered rows (tests/oracles.py), and without ``cols`` against
    that op bit for bit."""

    runs_strategy = st.lists(st.tuples(st.integers(1, 6), st.integers(1, 4)), min_size=1, max_size=4)

    @settings(max_examples=40, deadline=None)
    @given(runs_strategy, st.integers(1, 9), st.integers(1, 5), st.integers(0, 10_000))
    def test_matches_gathered_oracle(self, runs, n, d, seed):
        # few table rows, so rows repeat within runs and across them
        rng = np.random.default_rng(seed)
        self._check(rng, runs, rng.integers(0, n, sum(m * c for m, c in runs)), n, d)

    def test_blocks_of_one_and_a_run_without_repeats(self):
        rng = np.random.default_rng(3)
        self._check(rng, [(1, 5)], np.array([2, 0, 2, 4, 1]), 6, 3)
        self._check(rng, [(1, 2), (3, 1)], np.array([5, 1, 0, 3, 2]), 6, 3)

    def test_hub_run(self):
        rng = np.random.default_rng(4)
        runs = [(1, 3), (2, 1), (600, 1)]
        self._check(rng, runs, rng.integers(0, 700, 605), 700, 8)

    def test_empty_plan(self):
        out, grads = self._check(np.random.default_rng(5), (), np.zeros(0, np.intp), 4, 3)
        assert out.shape == (0, 3)
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)

    def test_cols_out_of_range(self):
        x = ad.Tensor(np.ones((3, 2)))
        with pytest.raises(IndexError, match="out of range"):
            ad.segment_attention(x, x, x, 2, [0, 3])

    @staticmethod
    def _check(rng, runs, cols, n, d):
        data = [rng.normal(scale=2.0, size=(n, d)) for _ in range(3)]
        probe = ad.const(rng.normal(size=(cols.size, d)))
        results = []
        for gathers in (True, False):
            xs = [ad.Tensor(x, requires_grad=True) for x in data]
            with ad.Tape() as tape:
                if gathers:
                    out = ad.segment_attention(*xs, runs, cols)
                else:
                    out = segment_attention_rows(*(gather_rows_sorted(x, cols) for x in xs), runs)
                grads = tape.backward(sum_all(ad.mul(out, probe)), xs)
            results.append((out.data, [grads[x] for x in xs]))
        (got, got_grads), (want, want_grads) = results
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for g, w in zip(got_grads, want_grads):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
        return got, got_grads

    @settings(max_examples=40, deadline=None)
    @given(runs_strategy, st.integers(1, 5), st.integers(0, 10_000))
    def test_in_order_rows_are_bit_identical_in_float32(self, runs, d, seed):
        rng = np.random.default_rng(seed)
        rows = sum(m * c for m, c in runs)
        data = [rng.normal(scale=2.0, size=(rows, d)).astype(np.float32) for _ in range(3)]
        probe = ad.const(rng.normal(size=(rows, d)).astype(np.float32))
        results = []
        for fn in (ad.segment_attention, segment_attention_rows):
            xs = [ad.Tensor(x, requires_grad=True) for x in data]
            with ad.Tape() as tape:
                out = fn(*xs, runs)
                grads = tape.backward(sum_all(ad.mul(out, probe)), xs)
            results.append((out.data, [grads[x] for x in xs]))
        (got, got_grads), (want, want_grads) = results
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)
        for g, w in zip(got_grads, want_grads):
            assert g.dtype == np.float32
            np.testing.assert_array_equal(g, w)


def _per_run(xs, runs, fn):
    """``fn(*rows, m)`` on each run's rows of every matrix in ``xs``, one call
    per run, stacked."""
    outs, start = [], 0
    for m, count in runs:
        rows = list(range(start, start + m * count))
        outs.append(fn(*(ad.gather_rows(x, rows) for x in xs), m))
        start += m * count
    return ad.concat(outs, axis=0)


def _place(stacked, targets, n):
    """Row j of ``stacked`` to row targets[j] of an (n, d) matrix, zeros elsewhere."""
    rest = np.setdiff1d(np.arange(n), targets)
    inverse = np.empty(n, dtype=np.intp)
    inverse[np.concatenate([targets, rest])] = np.arange(n)
    zeros = ad.const(np.zeros((rest.size, stacked.shape[1])))
    return ad.gather_rows(ad.concat([stacked, zeros], axis=0), inverse)


class TestRaggedSegments:
    """Each segment op over (m, count) runs against one int-block call per run."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 6), st.integers(1, 4)), min_size=1, max_size=4),
        st.integers(1, 5),
        st.integers(0, 10_000),
    )
    def test_matches_one_call_per_run(self, runs, d, seed):
        self._check(np.random.default_rng(seed), runs, d)

    def test_hub_run(self):
        self._check(np.random.default_rng(0), [(1, 3), (2, 1), (600, 1)], 8)

    def test_runs_must_cover_the_rows(self):
        x = ad.Tensor(np.ones((5, 2)))
        with pytest.raises(ValueError, match="cover 4 rows"):
            ad.sum_consecutive(x, [(2, 2)])
        with pytest.raises(ValueError, match="positive"):
            ad.segment_attention(x, x, x, [(5, 1), (2, 0)])
        with pytest.raises(ValueError, match="target rows"):
            ad.sum_consecutive(x, [(5, 1)], np.array([3]), 2)

    @staticmethod
    def _check(rng, runs, d):
        rows = sum(m * c for m, c in runs)
        segments = sum(c for _, c in runs)
        n = segments + 2
        targets = rng.permutation(n)[:segments]
        data = [rng.normal(scale=2.0, size=(rows, d)) for _ in range(3)]
        w = ad.const(rng.normal(size=d))
        shapes = ((rows, d), (n, d), (segments, d), (rows,))
        probes = [ad.const(rng.normal(size=shape)) for shape in shapes]
        results = []
        for ragged in (True, False):
            xs = [ad.Tensor(x, requires_grad=True) for x in data]
            with ad.Tape() as tape:
                if ragged:
                    outs = (
                        ad.segment_attention(*xs, runs),
                        ad.sum_consecutive(xs[0], runs, targets, n, mean=True),
                        ad.sum_consecutive(xs[1], runs),
                        ad.softmax(ad.matmul(xs[2], w), runs),
                    )
                else:
                    def mean(x, m):
                        return ad.scale(ad.sum_consecutive(x, m), 1.0 / m)

                    def softmax(x, m):
                        logits = ad.reshape(ad.matmul(x, w), (x.shape[0] // m, m))
                        return ad.reshape(ad.softmax(logits), (x.shape[0],))

                    outs = (
                        _per_run(xs, runs, ad.segment_attention),
                        _place(_per_run(xs[:1], runs, mean), targets, n),
                        _per_run(xs[1:2], runs, ad.sum_consecutive),
                        _per_run(xs[2:], runs, softmax),
                    )
                loss = sum_all(ad.concat([sum_all(ad.mul(o, p)) for o, p in zip(outs, probes)]))
            grads = tape.backward(loss, xs)
            results.append(([o.data for o in outs], [grads[x] for x in xs]))
        (got, got_grads), (want, want_grads) = results
        for g, w_ in zip(got + got_grads, want + want_grads):
            np.testing.assert_allclose(g, w_, rtol=0, atol=1e-12)


class TestGatherRowsBackward:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.lists(st.integers(0, 5), max_size=10),
        st.booleans(),
        st.integers(0, 10_000),
    )
    def test_matches_add_at_oracle(self, n, raw, unique, seed):
        idx = [i % n for i in raw]
        if unique:
            idx = list(dict.fromkeys(idx))
        self._check(np.random.default_rng(seed), n, idx, 3)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 300), st.integers(2, 3000), st.integers(1, 64), st.integers(0, 10_000))
    def test_many_repeats_match_add_at_oracle(self, n, m, d, seed):
        rng = np.random.default_rng(seed)
        self._check(rng, n, rng.integers(0, n, m).tolist(), d)

    @staticmethod
    def _check(rng, n, idx, d):
        table = ad.Tensor(rng.normal(size=(n, d)), requires_grad=True)
        g = rng.normal(size=(len(idx), d))
        with ad.Tape() as tape:
            out = ad.gather_rows(table, idx)
            loss = sum_all(ad.mul(out, ad.const(g)))
        got = tape.backward(loss, [table])[table]
        want = np.zeros((n, d))
        np.add.at(want, np.asarray(idx, dtype=np.intp), g)
        assert got.tobytes() == want.tobytes()


# The index arrays a scatter meets: any mix, distinct rows, none, one, all
# equal, and a 33- to 100-fold or a 600-fold hub among other rows (shuffled
# by the test's seed).
INDEX_ARRAYS = st.one_of(
    st.lists(st.integers(0, 11), max_size=40),
    st.lists(st.integers(0, 11), max_size=12, unique=True),
    st.just([]),
    st.lists(st.integers(0, 11), min_size=1, max_size=1),
    st.tuples(st.integers(0, 11), st.integers(2, 30)).map(lambda t: [t[0]] * t[1]),
    st.tuples(st.integers(0, 11), st.integers(33, 100), st.lists(st.integers(0, 11), max_size=20)).map(
        lambda t: [t[0]] * t[1] + t[2]
    ),
    st.tuples(st.integers(0, 11), st.lists(st.integers(0, 11), max_size=20)).map(lambda t: [t[0]] * 600 + t[1]),
)


class TestScatterRows:
    """``_scatter_rows`` and the ops whose backward scatters rows through it
    (``gather_rows``, ``bpr``, ``segment_attention`` with ``cols``).  It
    equals ``np.add.at`` over the rows bit for bit, in float32 and float64.
    Against the two scatters it replaced (tests/oracles.py), the
    stable-argsort + ``np.add.reduceat`` one and the selection operator's
    product, it and the ops match to 1e-12 in float64, and bit for bit
    where no index repeats.  Each case draws an index array and how far the
    table's rows ``n`` reach past its largest index + 1."""

    @staticmethod
    def case(raw, extra, seed):
        rng = np.random.default_rng(seed)
        idx = rng.permutation(np.asarray(raw, dtype=np.intp))
        return rng, idx, int(idx.max(initial=-1)) + 1 + extra, np.unique(idx).size == idx.size

    @staticmethod
    def assert_matches(got, want, distinct):
        assert got.dtype == want.dtype and got.shape == want.shape
        if distinct:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(INDEX_ARRAYS, st.integers(0, 5), st.integers(1, 6), st.integers(0, 10_000))
    def test_matches_sorted_oracle(self, raw, extra, d, seed):
        rng, idx, n, distinct = self.case(raw, extra, seed)
        g = rng.normal(size=(idx.size, d))
        self.assert_matches(ad._scatter_rows(idx, g, n), scatter_rows_sorted(idx, g, n), distinct)
        self.assert_matches(ad._scatter_rows(idx, g, n), scatter_rows_by_operator(idx, g, n), distinct)
        if distinct:  # a plain write in any dtype
            g32 = g.astype(np.float32)
            self.assert_matches(ad._scatter_rows(idx, g32, n), scatter_rows_sorted(idx, g32, n), True)

    @settings(max_examples=80, deadline=None)
    @given(INDEX_ARRAYS, st.integers(0, 5), st.sampled_from([1, 3, 16, 64]), st.integers(0, 10_000))
    def test_equals_add_at_bit_for_bit(self, raw, extra, d, seed):
        rng, idx, n, _ = self.case(raw, extra, seed)
        for dtype in (np.float32, np.float64):
            g = rng.normal(size=(idx.size, d)).astype(dtype)
            want = np.zeros((n, d), dtype)
            np.add.at(want, idx, g)
            got = ad._scatter_rows(idx, g, n)
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(INDEX_ARRAYS, st.integers(0, 5), st.integers(1, 6), st.integers(0, 10_000))
    def test_gather_rows_gradient(self, raw, extra, d, seed):
        rng, idx, n, distinct = self.case(raw, extra, seed)
        data, probe = rng.normal(size=(n, d)), ad.const(rng.normal(size=(idx.size, d)))
        grads = []
        for gather in (ad.gather_rows, gather_rows_sorted):
            table = ad.Tensor(data, requires_grad=True)
            with ad.Tape() as tape:
                loss = sum_all(ad.mul(gather(table, idx), probe))
            grads.append(tape.backward(loss, [table])[table])
        self.assert_matches(*grads, distinct)

    @settings(max_examples=40, deadline=None)
    @given(INDEX_ARRAYS.filter(len), st.integers(0, 5), st.integers(1, 6), st.integers(0, 10_000))
    def test_bpr_gradients(self, raw, extra, d, seed):
        # the anchors, positives and negatives each take the case's rows in
        # their own order
        rng, idx, n, distinct = self.case(raw, extra, seed)
        at = [idx, rng.permutation(idx), rng.permutation(idx)]
        datas = [rng.normal(size=(n, d)), rng.normal(size=(n, d))]
        results = []
        for fn in (ad.bpr, lambda *a: bpr_by_gathers(*a, gather=gather_rows_sorted)):
            tables = [ad.Tensor(x, requires_grad=True) for x in datas]
            with ad.Tape() as tape:
                loss = fn(*tables, *at)
            grads = tape.backward(loss, tables)
            results.append([loss.data] + [grads[t] for t in tables])
        for got, want in zip(*results):
            self.assert_matches(got, want, distinct)

    @settings(max_examples=40, deadline=None)
    @given(INDEX_ARRAYS, st.integers(0, 5), st.integers(1, 6), st.booleans(), st.integers(0, 10_000))
    def test_segment_attention_cols_gradients(self, raw, extra, d, one_segment, seed):
        # one segment of every row, or blocks of one; the oracles gather
        # rows first and scatter them sorted, or send each run's sums
        # through the selection operator in place of ``_scatter_rows``
        rng, cols, n, distinct = self.case(raw, extra, seed)
        runs = () if not cols.size else [(cols.size, 1)] if one_segment else [(1, cols.size)]
        datas, probe = [rng.normal(size=(n, d)) for _ in range(3)], ad.const(rng.normal(size=(cols.size, d)))
        results = []
        for form in ("gathers", "sorted", "operator"):
            xs = [ad.Tensor(x, requires_grad=True) for x in datas]
            with pytest.MonkeyPatch.context() as m, ad.Tape() as tape:
                if form == "sorted":
                    out = segment_attention_rows(*(gather_rows_sorted(x, cols) for x in xs), runs)
                else:
                    if form == "operator":
                        m.setattr(ad, "_scatter_rows", scatter_rows_by_operator)
                    out = ad.segment_attention(*xs, runs, cols)
                grads = tape.backward(sum_all(ad.mul(out, probe)), xs)
            results.append([grads[x] for x in xs])
        got, by_sort, by_operator = results
        for g, want in zip(got, by_sort):
            np.testing.assert_allclose(g, want, rtol=0, atol=1e-12)
        for g, want in zip(got, by_operator):
            self.assert_matches(g, want, distinct)


def test_row_cosine_matches_vector_cosine():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    rows = ad.cosine_similarity(ad.Tensor(a), ad.Tensor(b)).data
    singles = [ad.cosine_similarity(ad.Tensor(x), ad.Tensor(y)).item() for x, y in zip(a, b)]
    np.testing.assert_allclose(rows, singles, rtol=1e-15)
    with pytest.raises(ValueError, match="degenerate norm"):
        ad.cosine_similarity(ad.Tensor(np.vstack([a[:1], 0 * a[:1]])), ad.Tensor(b[:2]))


class TestTapeMemory:
    """The tape keeps keys and what the rules read, so a forward output is
    freed once its caller drops it, and backward returns what the tape that
    held every record's tensors returned."""

    @staticmethod
    def _chain(tape_cls):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        op = SparseOperator(rng.integers(0, 6, 10), rng.integers(0, 6, 10), rng.normal(size=10), (6, 6))
        refs = []

        def track(t):
            refs.append(weakref.ref(t.data))
            return t

        with tape_cls() as tape:
            h = track(ad.scale(track(ad.add(track(ad.spmm(op, x)), x)), 0.5))
            c = track(ad.concat([h, x]))
            r = track(ad.gather_rows(c, [0, 7, 7, 11]))
            s = track(ad.sum_consecutive(r, 2))
            a = track(ad.segment_attention(x, x, x, [(2, 2), (1, 1)], cols=[0, 3, 3, 5, 1]))
            loss = ad.mean_rows(ad.row_sums(ad.concat([s, a])))
        del h, c, r, s, a
        return refs, tape, loss, x

    def test_outputs_are_freed_on_a_live_tape(self):
        refs, tape, loss, x = self._chain(ad.Tape)
        assert len(refs) == 7 and all(ref() is None for ref in refs)
        assert len(tape) == 10
        got = tape.backward(loss, [x])
        assert list(got) == [x] and len(tape) == 0
        # the record-holding tape keeps every output until its backward ends
        old_refs, old_tape, old_loss, old_x = self._chain(RecordingTape)
        assert all(ref() is not None for ref in old_refs)
        assert got[x].tobytes() == old_tape.backward(old_loss, [old_x])[old_x].tobytes()

    @staticmethod
    def _joint_step(scale, d=64):
        """The training edges of the x``scale`` synthetic graph (perfbench's
        sizes: 200, 300 and 80 users, items and groups per unit of scale),
        and a run of one full-batch joint step with the enhancer (no
        warm-up) on it at width ``d``."""
        spec = SyntheticSpec(n_users=200 * scale, n_items=300 * scale, n_groups=80 * scale,
                             intra_p=0.15 / scale, inter_p=0.01 / scale, occasional_fraction=0.5,
                             occasional_scale=0.1, seed=4242)
        graph = build_implicit(generate_synthetic(spec), 3, 1)
        split = segment(graph, 10, 10, 10, 0.1)
        gtens = GraphTensors(make_training_graph(graph, split))
        config = TrainConfig(d=d, epochs=1, teacher_epochs=1, warmup_epochs=0, batch_size=1_000_000)
        teacher = train_teacher(split, gtens, config)
        edges = sum(len(e) for e in gtens.graph.edges.values())
        return edges, lambda: train_model(config, split, gtens, teacher)

    @staticmethod
    def _step_peak(monkeypatch, run, tape_cls=ad.Tape):
        """The traced peak of the one step that ``run`` takes, above the
        traced memory its tape starts with."""
        steps = []

        class Traced(tape_cls):
            def __enter__(self):
                tracemalloc.reset_peak()
                steps.append(tracemalloc.get_traced_memory()[0])
                return super().__enter__()

            def backward(self, loss, params):
                grads = super().backward(loss, params)
                steps[-1] = tracemalloc.get_traced_memory()[1] - steps[-1]
                return grads

        with monkeypatch.context() as m:
            m.setattr(ad, "Tape", Traced)
            tracemalloc.start()
            try:
                run()
            finally:
                tracemalloc.stop()
        assert len(steps) == 1
        return steps[0]

    def test_full_batch_joint_step_peak(self, monkeypatch):
        # the x1 graph (3.4k training edges), d = 64 in float32: one
        # full-batch joint step with the enhancer allocates near 8 MB above
        # what it starts with, and near 23 MB when the tape holds every
        # record's tensors until its backward ends
        _, run = self._joint_step(1)
        peaks = [self._step_peak(monkeypatch, run, tape_cls) for tape_cls in (ad.Tape, RecordingTape)]
        bound = 18 * 2**20
        assert peaks[0] < bound < peaks[1], [f"{p / 2**20:.1f} MB" for p in peaks]

    def test_joint_step_peak_grows_with_edges(self, monkeypatch):
        # from x1 to x3 the training edges grow 2.23x (3,352 to 7,467) and
        # the nodes 3x; at d = 16 the step's traced peak grows 1.65x (2.75
        # to 4.53 MB), 0.74 of the edge ratio.  One (n, n) float32 array of
        # the n graph nodes held through the step (1.3 MB at x1, 11.6 MB at
        # x3) takes it 4.00 to 16.08 MB, a ratio of 4.0, past the bound of
        # 1.25x the edge ratio (2.78); the narrow width keeps the edge-sized
        # arrays small enough beside it for the bound to resolve it
        (e1, run1), (e3, run3) = self._joint_step(1, d=16), self._joint_step(3, d=16)
        p1, p3 = self._step_peak(monkeypatch, run1), self._step_peak(monkeypatch, run3)
        assert 1.0 < p3 / p1 <= 1.25 * e3 / e1, (f"{p1 / 2**20:.2f} -> {p3 / 2**20:.2f} MB", e1, e3)
