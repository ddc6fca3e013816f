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
    sa_q, sa_k, sa_v = t(6, 3), t(6, 3), t(6, 3)
    rows_a, rows_b = t(3, 4), t(3, 4)
    runs = [(1, 2), (2, 2)]
    sc_a, sm_v = t(6, 3), t(6)
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
        ("cosine_rows", lambda p: ad.cosine_similarity(p[0], p[1]), [rows_a, rows_b]),
        ("segment_attention", lambda p: ad.segment_attention(*p, 3), [sa_q, sa_k, sa_v]),
        ("segment_attention_runs", lambda p: ad.segment_attention(*p, runs), [sa_q, sa_k, sa_v]),
        ("sum_consecutive", lambda p: ad.sum_consecutive(p[0], 2), [sc_a]),
        ("sum_consecutive_placed", lambda p: ad.sum_consecutive(p[0], runs, [4, 0, 2, 1], 5, mean=True), [sc_a]),
        ("softmax_runs", lambda p: ad.softmax(p[0], runs), [sm_v]),
        ("attention_fusion", lambda p: ad.attention_fusion(p[:3], p[3:6], fu_present, p[6]), fu),
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


def _block_attention_oracle(q, k, v, block):
    """softmax(Q K^T / sqrt(d)) V for each block, one block at a time."""
    outs = []
    for j in range(0, q.shape[0], block):
        qb, kb, vb = (ad.gather_rows(x, list(range(j, j + block))) for x in (q, k, v))
        scores = ad.scale(ad.matmul(qb, ad.transpose(kb)), 1.0 / np.sqrt(q.shape[1]))
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
                loss = ad.sum_all(ad.mul(out, probe))
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
            loss = ad.sum_all(out)
        np.testing.assert_array_equal(out.data, v.data)
        grads = tape.backward(loss, [q, k, v])
        np.testing.assert_array_equal(grads[q], 0.0)
        np.testing.assert_array_equal(grads[k], 0.0)
        np.testing.assert_array_equal(grads[v], 1.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(2)
        params = [ad.Tensor(rng.normal(size=(8, 3)), requires_grad=True) for _ in range(3)]
        probe = ad.const(rng.normal(size=(8, 3)))
        err = ad.finite_diff_check(
            lambda p: ad.sum_all(ad.mul(ad.segment_attention(*p, 4), probe)), params, eps=1e-6
        )
        assert err < 1e-5


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
                loss = ad.sum_all(ad.concat([ad.sum_all(ad.mul(o, p)) for o, p in zip(outs, probes)]))
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
            loss = ad.sum_all(ad.mul(out, ad.const(g)))
        got = tape.backward(loss, [table])[table]
        want = np.zeros((n, d))
        np.add.at(want, np.asarray(idx, dtype=np.intp), g)
        # repeated rows are summed in another association order than np.add.at's
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_row_cosine_matches_vector_cosine():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    rows = ad.cosine_similarity(ad.Tensor(a), ad.Tensor(b)).data
    singles = [ad.cosine_similarity(ad.Tensor(x), ad.Tensor(y)).item() for x, y in zip(a, b)]
    np.testing.assert_allclose(rows, singles, rtol=1e-15)
    with pytest.raises(ValueError, match="degenerate norm"):
        ad.cosine_similarity(ad.Tensor(np.vstack([a[:1], 0 * a[:1]])), ad.Tensor(b[:2]))
