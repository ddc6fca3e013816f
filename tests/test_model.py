import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldgraph import autodiff as ad
from coldgraph.graph import InteractionGraph, NodeId, SyntheticSpec, generate_synthetic, sample_episode
from coldgraph.model import (
    GraphTensors,
    aggregate_members,
    conv_step,
    embed_from_episode,
    full_embeddings,
    fuse_channels,
    init_model_params,
    propagate,
    score,
)


def t(data):
    return ad.Tensor(data, requires_grad=True)


def make_params(counts, d=4, variant="light", layers=2, with_meta=False, seed=0):
    return init_model_params(counts, d, variant, layers, with_meta, np.random.default_rng(seed))


class TestConvStep:
    def test_light_fixed_point(self):
        v = t([0.5, -0.2, 1.0])
        out = conv_step("light", v, [t([0.5, -0.2, 1.0]), t([0.5, -0.2, 1.0])])
        np.testing.assert_allclose(out.data, v.data)

    def test_light_arithmetic(self):
        out = conv_step("light", t([1.0, 0.0]), [t([0.0, 1.0]), t([1.0, 1.0])])
        np.testing.assert_allclose(out.data, [0.75, 0.5])

    def test_gcn_zero_weight_gives_zero(self):
        w = ad.Tensor(np.zeros((4, 2)))
        out = conv_step("gcn", t([1.0, 2.0]), [t([3.0, 4.0])], weight=w)
        np.testing.assert_allclose(out.data, [0.0, 0.0])

    def test_empty_neighbors_mean_is_zero(self):
        out = conv_step("light", t([2.0, 4.0]), [])
        np.testing.assert_allclose(out.data, [1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            conv_step("light", t([np.nan, 1.0]), [])

    def test_meta_projection_applied(self):
        d = 2
        proj = ad.Tensor(np.vstack([np.eye(d), np.zeros((d, d))]))
        out = conv_step("light", t([1.0, 2.0]), [], meta_emb=t([9.0, 9.0]), meta_proj=proj)
        # identity-extension projection ignores the meta: reduces to the plain path
        np.testing.assert_allclose(out.data, [0.5, 1.0])


def star_graph(n_leaves=4):
    gi = [(0, i) for i in range(n_leaves)]
    return InteractionGraph({"user": 0, "item": n_leaves, "group": 1}, {"GI": gi})


class TestPropagate:
    def test_one_step_star_equals_conv_step(self):
        g = star_graph(4)
        params = make_params(g.counts, d=3, layers=1)
        got = propagate(g, NodeId("group", 0), "GI", 1, params)
        want = conv_step(
            "light",
            t(params.e_group.data[0]),
            [t(params.e_item.data[i]) for i in range(4)],
        )
        np.testing.assert_allclose(got.data, want.data)

    def test_two_step_tree_matches_hand_recursion(self):
        # bipartite tree: group 0 - items {0,1}; item 0 - group 1, item 1 - group 2
        gi = [(0, 0), (0, 1), (1, 0), (2, 1)]
        g = InteractionGraph({"user": 0, "item": 2, "group": 3}, {"GI": gi})
        params = make_params(g.counts, d=3, layers=2)
        e_g, e_i = params.e_group.data, params.e_item.data

        def h_group(idx, k):
            if k == 0:
                return e_g[idx]
            neigh = g.neighbors("GI", "group", idx)
            mean = np.mean([h_item(i, k - 1) for i in neigh], axis=0)
            return 0.5 * (h_group(idx, k - 1) + mean)

        def h_item(idx, k):
            if k == 0:
                return e_i[idx]
            neigh = g.neighbors("GI", "item", idx)
            mean = np.mean([h_group(gg, k - 1) for gg in neigh], axis=0)
            return 0.5 * (h_item(idx, k - 1) + mean)

        got = propagate(g, NodeId("group", 0), "GI", 2, params)
        np.testing.assert_allclose(got.data, h_group(0, 2), atol=1e-12)
        # episode with K covering every degree reproduces the same value
        ep = sample_episode(g, NodeId("group", 0), k=10, depth=2, seed=0)
        got_ep = propagate(ep, NodeId("group", 0), "GI", 2, params)
        np.testing.assert_allclose(got_ep.data, h_group(0, 2), atol=1e-12)

    def test_zero_degree_keeps_initial_embedding(self):
        g = InteractionGraph({"user": 0, "item": 1, "group": 2}, {"GI": [(0, 0)]})
        params = make_params(g.counts, d=3)
        got = propagate(g, NodeId("group", 1), "GI", 2, params)
        np.testing.assert_allclose(got.data, params.e_group.data[1])
        ep = sample_episode(g, NodeId("group", 1), k=2, depth=2, seed=0)
        got_ep = propagate(ep, NodeId("group", 1), "GI", 2, params)
        np.testing.assert_allclose(got_ep.data, params.e_group.data[1])

    @pytest.mark.parametrize("seed", range(5))
    def test_light_one_step_full_equals_adjacency_mean_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_u, n_i = int(rng.integers(5, 15)), int(rng.integers(5, 15))
        ui = sorted({(int(rng.integers(n_u)), int(rng.integers(n_i))) for _ in range(30)})
        g = InteractionGraph({"user": n_u, "item": n_i, "group": 0}, {"UI": ui})
        params = make_params(g.counts, d=4, layers=1)
        adj = np.zeros((n_u, n_i))
        for u, i in ui:
            adj[u, i] = 1.0
        for u in range(n_u):
            if not adj[u].sum():
                continue
            mean = adj[u] @ params.e_item.data / adj[u].sum()
            oracle = 0.5 * (params.e_user.data[u] + mean)
            got = propagate(g, NodeId("user", u), "UI", 1, params)
            np.testing.assert_allclose(got.data, oracle, atol=1e-12)

    @pytest.mark.parametrize("variant", ["light", "gcn"])
    def test_episode_with_full_coverage_matches_full_mode(self, variant):
        spec = SyntheticSpec(n_users=15, n_items=20, n_groups=8, n_clusters=2,
                             intra_p=0.4, inter_p=0.1, group_size_min=2, group_size_max=4, seed=3)
        g = generate_synthetic(spec)
        # two extra nodes of every kind with no edge, so fusion has several patterns
        g = InteractionGraph({k: n + 2 for k, n in g.counts.items()}, g.edges)
        params = make_params(g.counts, d=5, variant=variant, layers=2, seed=1)
        state = full_embeddings(GraphTensors(g), params)
        for kind in ("group", "user", "item"):
            for idx in range(g.counts[kind]):
                ep = sample_episode(g, NodeId(kind, idx), k=10 ** 6, depth=2, seed=0)
                got, _ = embed_from_episode(ep, params)
                np.testing.assert_allclose(got.data, state.fused[kind].data[idx], atol=1e-10)


class TestAggregateMembers:
    def test_average_identical(self):
        v = [1.0, 2.0]
        out = aggregate_members([t(v), t(v), t(v)], "average")
        np.testing.assert_allclose(out.data, v)

    def test_sum(self):
        out = aggregate_members([t([1.0, 0.0]), t([0.0, 1.0])], "sum")
        np.testing.assert_allclose(out.data, [1.0, 1.0])

    def test_maxpool(self):
        out = aggregate_members([t([1.0, -2.0]), t([0.0, 5.0])], "maxpool")
        np.testing.assert_allclose(out.data, [1.0, 5.0])

    def test_attention_equal_scores_is_midpoint(self):
        score_vec = ad.Tensor(np.zeros(2))
        out = aggregate_members([t([2.0, 0.0]), t([0.0, 2.0])], "attention", score_vec)
        np.testing.assert_allclose(out.data, [1.0, 1.0])

    def test_empty_members_error(self):
        with pytest.raises(ValueError, match="group without members"):
            aggregate_members([], "average")


class TestFuseChannels:
    def test_single_channel_passthrough(self):
        w = {"GI": ad.Tensor(np.eye(2))}
        fused, weights = fuse_channels({"GI": t([3.0, 4.0])}, w)
        np.testing.assert_allclose(fused.data, [3.0, 4.0])
        assert weights == {"GI": 1.0}

    def test_two_identical_logits_split_evenly(self):
        w = {"A": ad.Tensor(np.eye(2)), "B": ad.Tensor(np.eye(2))}
        channels = {"A": t([1.0, 1.0]), "B": t([1.0, 1.0])}
        fused, weights = fuse_channels(channels, w, order=("A", "B"))
        assert weights["A"] == pytest.approx(0.5)
        assert weights["B"] == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_three_channels_match_scalar_softmax_oracle(self, seed):
        rng = np.random.default_rng(seed)
        d = 3
        channels = {c: t(rng.normal(size=d)) for c in ("X", "Y", "Z")}
        weights = {c: ad.Tensor(rng.normal(size=(d, d)) * 0.1) for c in channels}
        fused, got_w = fuse_channels(channels, weights, order=("X", "Y", "Z"))
        logits = np.array(
            [(channels[c].data @ weights[c].data).sum() for c in ("X", "Y", "Z")]
        )
        e = np.exp(logits - logits.max())
        a = e / e.sum()
        oracle = sum(ai * channels[c].data for ai, c in zip(a, ("X", "Y", "Z")))
        np.testing.assert_allclose(fused.data, oracle, atol=1e-12)
        np.testing.assert_allclose([got_w[c] for c in ("X", "Y", "Z")], a, atol=1e-12)

    def test_all_absent_error(self):
        with pytest.raises(ValueError, match="all channels absent"):
            fuse_channels({}, {})

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 4))
    def test_weights_are_probability_vector(self, seed, n_channels):
        rng = np.random.default_rng(seed)
        names = [f"c{i}" for i in range(n_channels)]
        channels = {c: t(rng.normal(size=3)) for c in names}
        weights = {c: ad.Tensor(rng.normal(size=(3, 3))) for c in names}
        _, a = fuse_channels(channels, weights, order=names)
        assert all(v >= 0 for v in a.values())
        assert abs(sum(a.values()) - 1.0) < 1e-10


class TestScore:
    def test_zero_right(self):
        assert score(np.array([1.0, 2.0]), np.zeros(2)) == 0.0

    def test_inner_product(self):
        assert score(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_ranking_invariant_under_orthogonal_shift(self):
        rng = np.random.default_rng(0)
        items = rng.normal(size=(10, 4))
        items[:, 3] = 0.0  # all items orthogonal to e3
        g = rng.normal(size=4)
        base = np.argsort([-score(g, i) for i in items])
        shifted = g + np.array([0.0, 0.0, 0.0, 5.0])
        after = np.argsort([-score(shifted, i) for i in items])
        np.testing.assert_array_equal(base, after)


class TestMetaReduction:
    def test_identity_extension_projection_reproduces_plain_path(self):
        # P = [I; 0] makes concat(self, meta) @ P == self for any meta
        spec = SyntheticSpec(n_users=12, n_items=15, n_groups=6, n_clusters=2,
                             intra_p=0.4, inter_p=0.1, group_size_min=2, group_size_max=3, seed=0)
        g = generate_synthetic(spec)
        d = 4
        params = make_params(g.counts, d=d, layers=2, with_meta=True, seed=2)
        for rel in params.meta_proj:
            params.meta_proj[rel].data = np.vstack([np.eye(d), np.zeros((d, d))])
        ep = sample_episode(g, NodeId("group", 0), k=3, depth=2, seed=1)
        metas = {rel: ad.Tensor(np.full(d, 7.0)) for rel in ("GI", "GU", "GG")}
        with_meta, _ = embed_from_episode(ep, params, metas=metas)
        without, _ = embed_from_episode(ep, params)
        np.testing.assert_array_equal(with_meta.data, without.data)

    def test_disabled_injection_is_same_graph_same_outputs(self):
        spec = SyntheticSpec(n_users=12, n_items=15, n_groups=6, n_clusters=2,
                             intra_p=0.4, inter_p=0.1, group_size_min=2, group_size_max=3, seed=0)
        g = generate_synthetic(spec)
        with_meta = make_params(g.counts, d=4, layers=2, with_meta=True, seed=2)
        without_meta = make_params(g.counts, d=4, layers=2, with_meta=False, seed=2)
        # common tensors share initialization under one seed
        np.testing.assert_array_equal(with_meta.e_user.data, without_meta.e_user.data)
        a = full_embeddings(GraphTensors(g), with_meta)
        b = full_embeddings(GraphTensors(g), without_meta)
        for kind in ("user", "item", "group"):
            np.testing.assert_array_equal(a.fused[kind].data, b.fused[kind].data)


class TestEndToEndGradients:
    @pytest.mark.parametrize("variant", ["light", "gcn"])
    def test_bpr_through_propagate_and_fuse(self, variant):
        spec = SyntheticSpec(n_users=8, n_items=10, n_groups=4, n_clusters=2,
                             intra_p=0.5, inter_p=0.2, group_size_min=2, group_size_max=3, seed=1)
        g = generate_synthetic(spec)
        params = make_params(g.counts, d=4, variant=variant, layers=2, seed=3)
        gtens = GraphTensors(g)

        def f(ps):
            state = full_embeddings(gtens, params)
            anchor = ad.gather_rows(state.fused["group"], [0, 1])
            pos = ad.gather_rows(state.fused["item"], [0, 1])
            neg = ad.gather_rows(state.fused["item"], [5, 6])
            diff = ad.sub(ad.row_sums(ad.mul(anchor, pos)), ad.row_sums(ad.mul(anchor, neg)))
            return ad.negate(ad.mean_rows(ad.log(ad.sigmoid(diff))))

        err = ad.finite_diff_check(f, params.tensors(), eps=1e-5)
        assert err < 1e-4

    def test_channel_weight_collection(self):
        spec = SyntheticSpec(n_users=10, n_items=12, n_groups=5, n_clusters=2,
                             intra_p=0.4, inter_p=0.1, group_size_min=2, group_size_max=3, seed=2)
        g = generate_synthetic(spec)
        params = make_params(g.counts, d=4, seed=0)
        state = full_embeddings(GraphTensors(g), params, collect_weights=True)
        for kind in ("user", "item", "group"):
            for row in state.channel_weights[kind]:
                if row:
                    assert abs(sum(row.values()) - 1.0) < 1e-10


class TestConstantOperandGradients:
    """Skipping the gradients of constant operands leaves every parameter
    gradient bit-identical to computing them (constants made differentiable)."""

    @staticmethod
    def grads(loss_fn, params, monkeypatch, consts_differentiable):
        with monkeypatch.context() as m:
            if consts_differentiable:
                m.setattr(ad, "const", lambda data: ad.Tensor(data, requires_grad=True))
            with ad.Tape() as tape:
                loss = loss_fn()
            out = tape.backward(loss, params)
        return [out[p] for p in params]

    def assert_bit_identical(self, loss_fn, params, monkeypatch):
        skipped = self.grads(loss_fn, params, monkeypatch, False)
        computed = self.grads(loss_fn, params, monkeypatch, True)
        for a, b in zip(skipped, computed):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("variant", ["light", "gcn"])
    def test_full_mode_fusion(self, variant, monkeypatch):
        spec = SyntheticSpec(n_users=8, n_items=10, n_groups=4, n_clusters=2,
                             intra_p=0.5, inter_p=0.2, group_size_min=2, group_size_max=3, seed=1)
        g = generate_synthetic(spec)
        params = make_params(g.counts, d=4, variant=variant, layers=2, seed=3)
        gtens = GraphTensors(g)

        def loss_fn():
            state = full_embeddings(gtens, params)
            anchor = ad.gather_rows(state.fused["group"], [0, 1])
            pos = ad.gather_rows(state.fused["item"], [0, 1])
            return ad.sum_all(ad.mul(anchor, pos))

        self.assert_bit_identical(loss_fn, params.tensors(), monkeypatch)

    def test_episode_with_meta_injection(self, monkeypatch):
        spec = SyntheticSpec(n_users=12, n_items=15, n_groups=6, n_clusters=2,
                             intra_p=0.4, inter_p=0.1, group_size_min=2, group_size_max=3, seed=0)
        g = generate_synthetic(spec)
        params = make_params(g.counts, d=4, layers=2, with_meta=True, seed=2)
        ep = sample_episode(g, NodeId("group", 0), k=3, depth=2, seed=1)
        metas = {rel: t(np.full(4, 0.3)) for rel in ("GI", "GU", "GG")}

        def loss_fn():
            h, _ = embed_from_episode(ep, params, metas=metas)
            return ad.sum_squares(h)

        self.assert_bit_identical(loss_fn, params.tensors() + list(metas.values()), monkeypatch)
