import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldgraph import autodiff as ad
from coldgraph.graph import (
    RELATION_KINDS,
    InteractionGraph,
    SyntheticSpec,
    build_implicit,
    generate_synthetic,
)
from coldgraph.model import GraphTensors, full_embeddings, init_model_params
from coldgraph.sparse import SparseOperator, neighbor_mean
from gradcheck import finite_diff_check
from oracles import dedup_mean


def dense_mean(rows, cols, shape, mirror=False):
    """Oracle: the dense row-normalized adjacency, one cell per distinct pair."""
    a = np.zeros(shape)
    for x, y in zip(rows, cols):
        a[x, y] = 1.0
        if mirror:
            a[y, x] = 1.0
    deg = a.sum(axis=1)
    mask = deg > 0
    norm = np.zeros_like(a)
    norm[mask] = a[mask] / deg[mask, None]
    return norm, mask


class DenseGraphTensors:
    """Oracle: the dense (n_a x n_b) operators full mode used to multiply by."""

    def __init__(self, graph):
        self.norm = {}
        self.mask = {}
        for rel, (ka, kb) in RELATION_KINDS.items():
            na, nb = graph.counts[ka], graph.counts[kb]
            a = np.zeros((na, nb))
            for x, y in graph.edges[rel]:
                a[x, y] = 1.0
                if ka == kb:
                    a[y, x] = 1.0
            for kind, mat in ((ka, a), (kb, a.T)):
                deg = mat.sum(axis=1)
                mask = deg > 0
                norm = np.zeros_like(mat)
                norm[mask] = mat[mask] / deg[mask, None]
                self.norm[(rel, kind)] = norm
                self.mask[(rel, kind)] = mask
                if ka == kb:
                    self.norm[(rel, kb)] = norm
                    self.mask[(rel, kb)] = mask
                    break


@st.composite
def edge_lists(draw):
    """Random (rows, cols, shape, square) with empty rows, duplicates and a hub."""
    square = draw(st.booleans())
    n_rows = draw(st.integers(1, 30))
    n_cols = n_rows if square else draw(st.integers(1, 30))
    n_edges = draw(st.integers(0, 60))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_rows, n_edges)
    cols = rng.integers(0, n_cols, n_edges)
    if n_edges:  # repeat some edges verbatim
        dup = rng.integers(0, n_edges, draw(st.integers(0, 10)))
        rows, cols = np.concatenate([rows, rows[dup]]), np.concatenate([cols, cols[dup]])
    if draw(st.booleans()):  # one hub row adjacent to every column
        hub = int(rng.integers(n_rows))
        rows = np.concatenate([rows, np.full(n_cols, hub)])
        cols = np.concatenate([cols, np.arange(n_cols)])
    if square:  # UU/GG: no self loops
        keep = rows != cols
        rows, cols = rows[keep], cols[keep]
    return rows, cols, (n_rows, n_cols), square


def build(rows, cols, shape, square):
    if square:
        return dedup_mean(np.concatenate([rows, cols]), np.concatenate([cols, rows]), shape)
    return dedup_mean(rows, cols, shape)


class TestOperator:
    @settings(max_examples=60, deadline=None)
    @given(edge_lists(), st.integers(1, 4))
    def test_spmm_and_gradient_match_dense_matmul(self, case, d):
        rows, cols, shape, square = case
        op = build(rows, cols, shape, square)
        norm, _ = dense_mean(rows, cols, shape, mirror=square)
        np.testing.assert_array_equal(np.asarray(op), norm)
        if square:
            np.testing.assert_array_equal(np.asarray(op) > 0, (np.asarray(op) > 0).T)
        rng = np.random.default_rng(d)
        h0 = rng.normal(size=(shape[1], d))
        weight = ad.const(rng.normal(size=(shape[0], d)))

        def run(product):
            with ad.Tape() as tape:
                h = ad.Tensor(h0, requires_grad=True)
                out = product(h)
                loss = ad.sum_all(ad.mul(out, weight))
            return out.data, tape.backward(loss, [h])[h]

        got, got_grad = run(lambda h: ad.spmm(op, h))
        want, want_grad = run(lambda h: ad.matmul(ad.const(np.asarray(op)), h))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_grad, want_grad, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(edge_lists(), st.data())
    def test_heads_are_leading_blocks(self, case, data):
        rows, cols, shape, square = case
        op = build(rows, cols, shape, square)
        dense = np.asarray(op)
        r = data.draw(st.integers(0, shape[0]))
        c = data.draw(st.integers(0, shape[1]))
        head = op.head(r, c)
        block = dense[:r, :c]
        rng = np.random.default_rng(r * 31 + c)
        h, g = rng.normal(size=(c, 3)), rng.normal(size=(r, 3))
        for cut in (head, op.T.head(c, r).T):  # cut before or after transposing
            assert cut.shape == (r, c)
            np.testing.assert_array_equal(np.asarray(cut), block)
            np.testing.assert_array_equal(np.asarray(cut.T), block.T)
            np.testing.assert_allclose(cut.dot(h), block @ h, rtol=0, atol=1e-12)
            np.testing.assert_allclose(cut.T.dot(g), block.T @ g, rtol=0, atol=1e-12)
        assert head.T is head.T and head.T.T is head
        r2, c2 = data.draw(st.integers(0, r)), data.draw(st.integers(0, c))
        np.testing.assert_array_equal(np.asarray(head.head(r2, c2)), dense[:r2, :c2])
        np.testing.assert_array_equal(np.asarray(head.head(r2, c2).T), dense[:r2, :c2].T)
        with pytest.raises(ValueError, match="head"):
            op.head(shape[0] + 1, c)

    def test_padding_below_twice_nnz_and_buckets_log_of_degree(self):
        rows = np.concatenate([np.zeros(33, int), np.arange(1, 9)])
        cols = np.concatenate([np.arange(33), np.arange(1, 9)])
        op = neighbor_mean(rows, cols, (9, 40))
        padded = sum(idx.size for _, idx, _ in op._buckets)
        assert padded < 2 * rows.size
        assert [idx.shape[1] for _, idx, _ in op._buckets] == [1, 64]

    def test_metadata_for_the_trace(self):
        op = neighbor_mean([0, 0, 2], [1, 3, 3], (4, 5))
        assert op.shape == (4, 5)
        assert op.size == 20
        assert np.count_nonzero(op) == 3
        assert 0 < op.nbytes < np.asarray(op).nbytes

    def test_transpose_is_cached_and_round_trips(self):
        op = neighbor_mean([0, 0, 2], [1, 3, 3], (4, 5))
        assert op.T is op.T
        assert op.T.T is op
        np.testing.assert_array_equal(np.asarray(op.T), np.asarray(op).T)

    def test_validation(self):
        with pytest.raises(IndexError, match="out of range"):
            SparseOperator([0], [5], [1.0], (2, 5))
        with pytest.raises(ValueError, match="equally long"):
            SparseOperator([0, 1], [0], [1.0], (2, 2))
        for rows, cols in (([0], [3]), ([0], [-1]), ([2], [0]), ([-1], [1])):
            with pytest.raises(IndexError, match="out of range"):
                neighbor_mean(rows, cols, (2, 3))
        with pytest.raises(ValueError, match="duplicate"):
            neighbor_mean([0, 1, 0], [2, 2, 2], (2, 3))
        op = neighbor_mean([0], [1], (2, 3))
        with pytest.raises(ValueError, match="spmm shape mismatch"):
            ad.spmm(op, ad.Tensor(np.ones((2, 4))))

    def test_spmm_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        op = dedup_mean(rng.integers(0, 6, 15), rng.integers(0, 5, 15), (6, 5))
        weight = ad.const(rng.normal(size=(6, 3)))
        h = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        err = finite_diff_check(lambda p: ad.sum_all(ad.mul(ad.spmm(op, p[0]), weight)), [h])
        assert err < 1e-6


def bpr_like(state):
    anchor = ad.gather_rows(state.fused["group"], [0, 1, 2])
    pos = ad.gather_rows(state.fused["item"], [0, 1, 2])
    neg = ad.gather_rows(state.fused["item"], [3, 4, 5])
    diff = ad.sub(ad.row_sums(ad.mul(anchor, pos)), ad.row_sums(ad.mul(anchor, neg)))
    return ad.negate(ad.mean_rows(ad.log_sigmoid(diff)))


class TestFullModeEquivalence:
    @pytest.mark.parametrize("variant,seed", [("light", 0), ("gcn", 1), ("light", 2)])
    def test_sparse_graph_tensors_match_dense_oracle(self, variant, seed, monkeypatch):
        spec = SyntheticSpec(n_users=14, n_items=18, n_groups=7, n_clusters=2,
                             intra_p=0.4, inter_p=0.05, group_size_min=1, group_size_max=4,
                             seed=seed)
        g = build_implicit(generate_synthetic(spec), 1, 0)
        # two extra nodes of every kind with no edge: no channel, no members
        g = InteractionGraph({k: n + 2 for k, n in g.counts.items()}, g.edges)
        gtens = GraphTensors(g)
        assert np.count_nonzero(~gtens.neighbor_plan("GU", "group").present) == 2
        oracle = DenseGraphTensors(g)
        for key, norm in oracle.norm.items():
            np.testing.assert_array_equal(np.asarray(gtens.norm[key]), norm)
            np.testing.assert_array_equal(gtens.mask[key], oracle.mask[key])
        params = init_model_params(g.counts, 4, variant, 2, False, np.random.default_rng(seed))

        def forward():
            with ad.Tape() as tape:
                state = full_embeddings(gtens, params, need_layer_sums=True)
                loss = bpr_like(state)
            grads = tape.backward(loss, params.tensors())
            return state, [grads[p] for p in params.tensors()]

        got_state, got_grads = forward()
        dense_of = {id(gtens.norm[key]): norm for key, norm in oracle.norm.items()}
        monkeypatch.setattr(ad, "spmm", lambda op, h: ad.matmul(ad.const(dense_of[id(op)]), h))
        want_state, want_grads = forward()
        for kind in ("user", "item", "group"):
            np.testing.assert_allclose(
                got_state.fused[kind].data, want_state.fused[kind].data, rtol=0, atol=1e-10
            )
            np.testing.assert_allclose(
                got_state.layer_sums[kind].data, want_state.layer_sums[kind].data,
                rtol=0, atol=1e-10,
            )
        for got, want in zip(got_grads, want_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_tape_records_do_not_grow_with_distinct_degrees(self):
        counts = {"user": 8, "item": 8, "group": 2}
        gu = [(0, 0), (0, 1), (1, 2), (1, 3)]
        gi = [(0, 0), (1, 1)]
        matching = [(u, u) for u in range(8)]
        hub = [(0, i) for i in range(8)] + [(u, u) for u in range(1, 8)]
        records = []
        buckets = []
        for ui in (matching, hub):
            g = InteractionGraph(counts, {"UI": ui, "GI": gi, "GU": gu})
            gtens = GraphTensors(g)
            params = init_model_params(g.counts, 3, "light", 2, False, np.random.default_rng(0))
            with ad.Tape() as tape:
                full_embeddings(gtens, params)
            records.append(len(tape))
            buckets.append(sum(len(gtens.norm[("UI", k)]._buckets) for k in ("user", "item")))
        assert buckets[0] < buckets[1]
        assert records[0] == records[1]
