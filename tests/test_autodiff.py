import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldgraph import autodiff as ad
from coldgraph.sparse import neighbor_mean


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
        out = ad.concat([ad.sum_all(ad.Tensor([1.0, 2.0])), ad.Tensor([4.0])])
        np.testing.assert_allclose(out.data, [3.0, 4.0])

    def test_apply_dispatch(self):
        out = ad.apply("relu", ad.Tensor([-1.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 2.0])
        with pytest.raises(ValueError, match="unknown op"):
            ad.apply("no_such_op", ad.Tensor([1.0]))


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
            ad.log(ad.Tensor([1.0, -1.0]))

    def test_tape_consumed(self):
        with ad.Tape() as tape:
            x = ad.Tensor([1.0, 2.0], requires_grad=True)
            loss = ad.sum_squares(x)
        tape.backward(loss, [x])
        with pytest.raises(RuntimeError, match="tape consumed"):
            tape.backward(loss, [x])
        tape.reset()

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
            loss = ad.sum_all(ad.mul(x, x))
        g_shared = tape.backward(loss, [x])[x]

        with ad.Tape() as tape:
            x1 = ad.Tensor(data, requires_grad=True)
            x2 = ad.Tensor(data, requires_grad=True)
            loss = ad.sum_all(ad.mul(x1, x2))
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
        assert ad.finite_diff_check(f, [x], eps=1e-5) < 1e-6
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

    def test_leaf_map_without_params(self):
        with ad.Tape() as tape:
            x = ad.Tensor([1.0, 2.0], requires_grad=True)
            loss = ad.sum_squares(ad.relu(x))
        grads = tape.backward(loss)
        assert set(grads) == {x}


def _scalarizer(rng):
    """Fixed random linear functional, so the test function is deterministic."""
    cache = {}

    def scalarize(out):
        if out.shape == ():
            return out
        if out.shape not in cache:
            cache[out.shape] = ad.const(rng.uniform(0.5, 1.5, size=out.shape))
        return ad.sum_all(ad.mul(out, cache[out.shape]))

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
    op = neighbor_mean(rng.integers(0, 4, 9), rng.integers(0, 5, 9), (4, 5))
    return [
        ("gather_rows", lambda p: ad.gather_rows(p[0], [0, 2, 2, 4]), [table]),
        ("stack_rows", lambda p: ad.stack_rows(p), vecs),
        ("mean_rows2d", lambda p: ad.mean_rows(p[0]), [m]),
        ("mean_rows1d", lambda p: ad.mean_rows(p[0]), [v5]),
        ("max_rows", lambda p: ad.max_rows(p[0]), [m]),
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
        ("negate", lambda p: ad.negate(p[0]), [a23]),
        ("concat0", lambda p: ad.concat(p), vecs),
        ("concat1", lambda p: ad.concat(p, axis=1), [a23, b23]),
        ("transpose", lambda p: ad.transpose(p[0]), [m]),
        ("row_sums", lambda p: ad.row_sums(p[0]), [m]),
        ("sum_all", lambda p: ad.sum_all(p[0]), [m]),
        ("softmax1d", lambda p: ad.softmax(p[0]), [v5]),
        ("softmax2d", lambda p: ad.softmax(p[0]), [m]),
        ("sigmoid", lambda p: ad.sigmoid(p[0]), [a23]),
        ("relu", lambda p: ad.relu(p[0]), [away_from_zero(2, 3)]),
        ("log", lambda p: ad.log(p[0]), [pos]),
        ("log_sigmoid", lambda p: ad.log_sigmoid(p[0]), [a23]),
        ("cosine", lambda p: ad.cosine_similarity(p[0], p[1]), [u4, w4]),
        ("sum_squares", lambda p: ad.sum_squares(p[0]), [a23]),
    ]


@pytest.mark.parametrize("trial", range(20))
def test_every_op_gradient_vs_finite_differences(trial):
    rng = np.random.default_rng(1000 + trial)
    for name, build, params in _op_cases(rng):
        scalarize = _scalarizer(np.random.default_rng(2000 + trial))

        def f(ps, _build=build, _s=scalarize):
            return _s(_build(ps))

        err = ad.finite_diff_check(f, params, eps=1e-5)
        assert err < 1e-4, f"{name}: gradient error {err}"


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


class TestLogSigmoid:
    def test_finite_where_log_of_sigmoid_underflows(self):
        x = ad.Tensor([-1000.0, -40.0, 0.0, 40.0, 1000.0], requires_grad=True)
        with ad.Tape() as tape:
            out = ad.log_sigmoid(x)
            loss = ad.sum_all(out)
        np.testing.assert_allclose(out.data, [-1000.0, -40.0, -np.log(2.0), 0.0, 0.0], atol=1e-15)
        grad = tape.backward(loss, [x])[x]
        np.testing.assert_allclose(grad, [1.0, 1.0, 0.5, 0.0, 0.0], atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8))
    def test_matches_log_of_sigmoid(self, xs):
        x = ad.Tensor(xs)
        np.testing.assert_allclose(
            ad.log_sigmoid(x).data, ad.log(ad.sigmoid(x)).data, rtol=1e-12, atol=1e-14
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
    out = ad.sigmoid(ad.Tensor(a + b)).data
    assert np.all(out > 0) and np.all(out < 1)


class TestFiniteDiffCheck:
    def test_sum_squares_small_error(self):
        x = ad.Tensor([0.5, -1.5, 2.0], requires_grad=True)
        err = ad.finite_diff_check(lambda p: ad.sum_squares(p[0]), [x], eps=1e-5)
        assert err < 1e-6

    def test_constant_function_zero_error(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)

        def f(params):
            return ad.const(np.asarray(3.0))

        assert ad.finite_diff_check(f, [x], eps=1e-5) == 0.0

    def test_eps_range_enforced(self):
        x = ad.Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="eps"):
            ad.finite_diff_check(lambda p: ad.sum_squares(p[0]), [x], eps=1e-2)

    def test_non_finite_rejected(self):
        x = ad.Tensor([1.0], requires_grad=True)

        def f(params):
            return ad.const(np.asarray(np.inf))

        with pytest.raises(ValueError, match="non-finite"):
            ad.finite_diff_check(f, [x], eps=1e-5)
