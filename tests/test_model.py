from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldgraph import autodiff as ad
from coldgraph import model
from coldgraph.graph import InteractionGraph, SyntheticSpec, build_implicit, generate_synthetic, sample_episode
from coldgraph.model import (
    CHANNELS_BY_KIND,
    GraphTensors,
    attention_pool,
    degree_plan,
    embed_from_episode,
    full_embeddings,
    fuse_present,
    init_model_params,
)
from coldgraph.sparse import neighbor_mean
from gradcheck import finite_diff_check
from oracles import (
    conv_step,
    dict_trees,
    embed_dict_batch,
    embed_episode,
    embed_forest_all_rows,
    episode_forest,
    forest_operators_all_rows,
    fuse_by_pattern,
    fuse_channels,
    neighbors,
    tree_nodes,
)


def t(data):
    return ad.Tensor(data, requires_grad=True)


def make_params(counts, d=4, variant="light", layers=2, with_meta=False, seed=0):
    return init_model_params(counts, d, variant, layers, with_meta, np.random.default_rng(seed))


def conv_once(variant, self_vec, neighbor_vecs, weight=None, meta=None, proj=None):
    """One relation step of a single user row over its item neighbors."""
    d, m = len(self_vec), len(neighbor_vecs)
    n_items = max(m, 1)
    params = make_params({"user": 1, "item": n_items, "group": 1}, d=d, variant=variant,
                         layers=1, with_meta=meta is not None)
    if weight is not None:
        params.conv_w = (weight,)
    if proj is not None:
        params.meta_proj["UI"] = proj
    ops = {
        "user": neighbor_mean(np.zeros(m, dtype=int), np.arange(m), (1, n_items)),
        "item": neighbor_mean([], [], (n_items, 1)),
    }
    h0 = {"user": t([self_vec]), "item": t(neighbor_vecs if m else np.zeros((1, d)))}
    inject = {"user": t([meta])} if meta is not None else None
    return model._relation_steps("UI", [ops], h0, params, inject)["user"][1].data[0]


class TestConvStep:
    def test_light_fixed_point(self):
        v = [0.5, -0.2, 1.0]
        np.testing.assert_allclose(conv_once("light", v, [v, v]), v)

    def test_light_arithmetic(self):
        out = conv_once("light", [1.0, 0.0], [[0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(out, [0.75, 0.5])

    def test_gcn_zero_weight_gives_zero(self):
        w = ad.Tensor(np.zeros((4, 2)))
        out = conv_once("gcn", [1.0, 2.0], [[3.0, 4.0]], weight=w)
        np.testing.assert_allclose(out, [0.0, 0.0])

    def test_empty_neighbors_mean_is_zero(self):
        np.testing.assert_allclose(conv_once("light", [2.0, 4.0], []), [1.0, 2.0])

    def test_meta_projection_applied(self):
        d = 2
        ignore = ad.Tensor(np.vstack([np.eye(d), np.zeros((d, d))]))
        out = conv_once("light", [1.0, 2.0], [], meta=[9.0, 9.0], proj=ignore)
        # identity-extension projection ignores the meta: reduces to the plain path
        np.testing.assert_allclose(out, [0.5, 1.0])
        swap = ad.Tensor(np.vstack([np.zeros((d, d)), np.eye(d)]))
        out = conv_once("light", [1.0, 2.0], [[3.0, 5.0]], meta=[9.0, 7.0], proj=swap)
        np.testing.assert_allclose(out, [6.0, 6.0])


def star_graph(n_leaves=4):
    gi = [(0, i) for i in range(n_leaves)]
    return InteractionGraph({"user": 0, "item": n_leaves, "group": 1}, {"GI": gi})


def full_and_episode(g, params, kind, idx):
    """Embedding of one node over the full graph and over a covering episode."""
    full = full_embeddings(GraphTensors(g), params).fused[kind].data[idx]
    ep = sample_episode(g, kind, [idx], k=10, depth=params.layers, seed=0)
    return full, embed_from_episode(ep, params).data[0]


class TestPropagate:
    def test_one_step_star_equals_conv_step(self):
        g = star_graph(4)
        params = make_params(g.counts, d=3, layers=1)
        want = conv_step(
            "light",
            t(params.e_group.data[0]),
            [t(params.e_item.data[i]) for i in range(4)],
        )
        for got in full_and_episode(g, params, "group", 0):
            np.testing.assert_allclose(got, want.data, atol=1e-15)

    def test_two_step_tree_matches_hand_recursion(self):
        # bipartite tree: group 0 - items {0,1}; item 0 - group 1, item 1 - group 2
        gi = [(0, 0), (0, 1), (1, 0), (2, 1)]
        g = InteractionGraph({"user": 0, "item": 2, "group": 3}, {"GI": gi})
        params = make_params(g.counts, d=3, layers=2)
        e_g, e_i = params.e_group.data, params.e_item.data

        def h_group(idx, k):
            if k == 0:
                return e_g[idx]
            neigh = neighbors(g, "GI", "group", idx)
            mean = np.mean([h_item(i, k - 1) for i in neigh], axis=0)
            return 0.5 * (h_group(idx, k - 1) + mean)

        def h_item(idx, k):
            if k == 0:
                return e_i[idx]
            neigh = neighbors(g, "GI", "item", idx)
            mean = np.mean([h_group(gg, k - 1) for gg in neigh], axis=0)
            return 0.5 * (h_item(idx, k - 1) + mean)

        # full mode, and an episode with K covering every degree
        for got in full_and_episode(g, params, "group", 0):
            np.testing.assert_allclose(got, h_group(0, 2), atol=1e-12)

    def test_zero_degree_keeps_initial_embedding(self):
        g = InteractionGraph({"user": 0, "item": 1, "group": 2}, {"GI": [(0, 0)]})
        params = make_params(g.counts, d=3)
        for got in full_and_episode(g, params, "group", 1):
            np.testing.assert_array_equal(got, params.e_group.data[1])

    def test_kind_without_nodes(self):
        # fusing a kind with zero rows once raised "concat of nothing"
        g = InteractionGraph({"user": 0, "item": 4, "group": 1}, {"GI": [(0, i) for i in range(4)]})
        params = make_params(g.counts, d=3)
        with ad.Tape() as tape:
            state = full_embeddings(GraphTensors(g), params)
            loss = ad.sum_all(ad.concat([ad.sum_squares(m) for m in state.fused.values()]))
            grads = tape.backward(loss, params.tensors())
        assert state.fused["user"].shape == (0, 3)
        assert np.isfinite(grads[params.e_group]).all() and grads[params.e_group].any()

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
        fused = full_embeddings(GraphTensors(g), params).fused["user"].data
        for u in range(n_u):
            if not adj[u].sum():
                continue
            mean = adj[u] @ params.e_item.data / adj[u].sum()
            oracle = 0.5 * (params.e_user.data[u] + mean)
            np.testing.assert_allclose(fused[u], oracle, atol=1e-12)

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
            episodes = sample_episode(g, kind, range(g.counts[kind]), k=10 ** 6, depth=2, seed=0)
            got = embed_from_episode(episodes, params)
            np.testing.assert_allclose(got.data, state.fused[kind].data, atol=1e-10)


def forest_graph(implicit=True):
    """Graph whose episodes cover every forest case: isolated nodes of each
    kind, relations without a sampled neighbor, and implicit UU/GG edges."""
    spec = SyntheticSpec(n_users=30, n_items=40, n_groups=12, n_clusters=2, intra_p=0.3,
                         inter_p=0.05, group_size_min=2, group_size_max=4, seed=5)
    g = generate_synthetic(spec)
    if implicit:
        g = build_implicit(g, 3, 2)
    return InteractionGraph({k: n + 2 for k, n in g.counts.items()}, g.edges)


def forest_cases(g, kind):
    """A batch of every ``kind`` node, and its dict trees, checked to hold
    each forest case: isolated targets, a relation without a sampled
    neighbor next to one with, the GU depth bonus, and nodes reached at two
    depths, the later one the leaf depth."""
    batch = sample_episode(g, kind, range(g.counts[kind]), k=3, depth=2, seed=7)
    episodes = dict_trees(batch)
    firsts = [[bool(s.layers[1]) for s in ep.samples.values()] for ep in episodes]
    assert any(not any(f) for f in firsts)  # isolated targets
    if kind != "item":
        assert any(any(f) and not all(f) for f in firsts)
    if kind == "group":
        assert all(len(ep.samples["GU"].layers) == 4 for ep in episodes)
    for rel in batch.forests:
        assert any(
            set(ep.samples[rel].layers[-1]) & set(chain(*ep.samples[rel].layers[:-1]))
            for ep in episodes
        )
        if rel in ("UU", "GG"):  # a node reappears in its tree
            assert any(
                len(tree_nodes(ep.samples[rel])) < sum(map(len, ep.samples[rel].layers))
                for ep in episodes
            )
    return batch, episodes


def labelled(nodes, trees, rows):
    return list(zip(trees[rows].tolist(), nodes[rows].tolist()))


class TestEpisodeForest:
    """The batched forest forward against the dict-tree oracles."""

    @pytest.mark.parametrize("kind", ["group", "user", "item"])
    def test_forests_match_dict_tree_forests(self, kind):
        g = forest_graph()
        batch, episodes = forest_cases(g, kind)
        n = len(batch)
        for rel, forest in batch.forests.items():
            want_nodes, want_trees, want_ops, want_members = episode_forest(episodes, kind, rel)
            trees = {k: np.full(rows.size, -1) for k, rows in forest.nodes.items()}
            trees[kind][:n] = np.arange(n)
            for (tree, _, child), ck in zip(forest.layers, forest.kinds[1:]):
                trees[ck][child] = tree
            ops = forest_operators_all_rows(forest)
            label = {}
            for k, rows in forest.nodes.items():
                got = labelled(rows, trees[k], np.arange(rows.size))
                want = labelled(want_nodes[k], want_trees[k], np.arange(want_nodes[k].size))
                if k == kind:  # the targets come first
                    assert got[:n] == want[:n]
                assert sorted(got) == sorted(want)
                label[k] = np.array([want.index(x) for x in got])
            for k, op in ops.items():
                other = [c for c in forest.nodes if c != k] or [k]
                dense = np.zeros(want_ops[k].shape)
                dense[np.ix_(label[k], label[other[0]])] = np.asarray(op)
                np.testing.assert_array_equal(dense, np.asarray(want_ops[k]))
            members = degree_plan(*batch.first_order(rel))
            assert members.runs == want_members.runs
            np.testing.assert_array_equal(members.targets, want_members.targets)
            other = forest.kinds[1]
            np.testing.assert_array_equal(label[other][members.cols], want_members.cols)

    @pytest.mark.parametrize("with_meta", [False, True])
    @pytest.mark.parametrize("variant", ["light", "gcn"])
    def test_batched_matches_per_episode_oracle(self, variant, with_meta):
        g = forest_graph()
        params = make_params(g.counts, d=5, variant=variant, layers=2, with_meta=with_meta, seed=1)
        for kind in ("group", "user", "item"):
            self.check_embeddings(*forest_cases(g, kind), params, with_meta)

    @pytest.mark.parametrize("kind", ["group", "user"])
    def test_empty_relations_match_oracles(self, kind):
        # no implicit edges at all: the UU and GG forests are empty
        g = forest_graph(implicit=False)
        params = make_params(g.counts, d=5, layers=2, with_meta=True, seed=2)
        batch = sample_episode(g, kind, range(g.counts[kind]), k=3, depth=2, seed=7)
        empty = "UU" if kind == "user" else "GG"
        assert batch.forests[empty].edge_count() == 0
        self.check_embeddings(batch, dict_trees(batch), params, with_meta=True)

    @staticmethod
    def check_embeddings(batch, episodes, params, with_meta):
        """The batch forward against the per-episode dense trees and the
        batched dict-tree forests, in outputs and every gradient."""
        n, d = len(batch), params.d
        rng = np.random.default_rng(3)
        metas = {rel: t(rng.normal(size=(n, d))) for rel in batch.forests} if with_meta else {}
        probe = ad.const(rng.normal(size=(n, d)))
        leaves = params.tensors() + list(metas.values())
        results = []
        with ad.Tape() as tape:
            got = embed_from_episode(batch, params, metas or None)
            grads = tape.backward(ad.sum_all(ad.mul(got, probe)), leaves)
        with ad.Tape() as tape:
            rows = []
            for b, ep in enumerate(episodes):
                ep_metas = {rel: ad.mean_rows(ad.gather_rows(m, [b])) for rel, m in metas.items()}
                rows.append(embed_episode(ep, params, ep_metas))
            want = ad.stack_rows(rows)
            results.append((want, tape.backward(ad.sum_all(ad.mul(want, probe)), leaves)))
        with ad.Tape() as tape:
            want = embed_dict_batch(episodes, params, metas or None)
            results.append((want, tape.backward(ad.sum_all(ad.mul(want, probe)), leaves)))
        for want, want_grads in results:
            np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)
            for leaf in leaves:
                np.testing.assert_allclose(grads[leaf], want_grads[leaf], rtol=0, atol=1e-12)

    def test_batch_depth_must_match_layers(self):
        g = forest_graph()
        params = make_params(g.counts, layers=2)
        shallow = sample_episode(g, "user", [0, 1], k=3, depth=1, seed=0)
        with pytest.raises(ValueError, match="depth 2"):
            embed_from_episode(shallow, params)


def assert_matches_all_rows(batch, params, with_meta):
    """The pruned forest forward against every row propagated at every
    step, in the loss and every gradient."""
    n, d = len(batch), params.d
    rng = np.random.default_rng(3)
    metas = {rel: t(rng.normal(size=(n, d))) for rel in batch.forests} if with_meta else {}
    probe = ad.const(rng.normal(size=(n, d)))
    leaves = params.tensors() + list(metas.values())
    results = []
    for embed in (embed_from_episode, embed_forest_all_rows):
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.mul(embed(batch, params, metas or None), probe))
            results.append((loss.item(), tape.backward(loss, leaves)))
    (got, got_grads), (want, want_grads) = results
    assert abs(got - want) <= 1e-12
    for leaf in leaves:
        np.testing.assert_allclose(got_grads[leaf], want_grads[leaf], rtol=0, atol=1e-12)


class TestPrunedForest:
    """Each step computes only the forest rows the last step reads."""

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("variant,with_meta", [("light", False), ("light", True), ("gcn", True)])
    def test_matches_all_rows_oracle(self, layers, k, variant, with_meta):
        seen = set()
        for implicit in (True, False):  # without implicit edges UU and GG sample nothing
            g = forest_graph(implicit)
            params = make_params(g.counts, d=5, variant=variant, layers=layers,
                                 with_meta=with_meta, seed=layers)
            for kind, bonus in (("group", True), ("group", False), ("user", True), ("item", True)):
                batch = sample_episode(g, kind, range(g.counts[kind]), k=k, depth=layers,
                                       seed=11, member_depth_bonus=bonus)
                firsts = np.stack([batch.first_order(rel)[0] for rel in batch.forests])
                seen.add("isolated" if np.any(firsts.sum(axis=0) == 0) else "")
                seen.update(
                    "empty" if forest.edge_count() == 0 else rel
                    for rel, forest in batch.forests.items()
                )
                assert_matches_all_rows(batch, params, with_meta)
        assert {"isolated", "empty", "UU", "GG", "GU"} <= seen

    @pytest.mark.parametrize("kind", ["group", "user", "item"])
    def test_steps_cut_leading_blocks(self, kind):
        g = forest_graph()
        batch = sample_episode(g, kind, range(g.counts[kind]), k=3, depth=3, seed=7)
        for rel, forest in batch.forests.items():
            reach = int((kind, rel) == ("group", "GU"))
            whole = {k: np.asarray(op) for k, op in forest_operators_all_rows(forest).items()}
            steps = model._forest_operators(forest, 3, reach)
            top = len(forest.layers)
            for layer, ops in enumerate(steps, 1):
                read = min(reach + 3 - layer, top)
                assert set(ops) == {k for k in forest.nodes if forest.prefix[k][read]}
                for k, op in ops.items():
                    rows, cols = op.shape
                    assert rows == forest.prefix[k][read]
                    np.testing.assert_array_equal(np.asarray(op), whole[k][:rows, :cols])
                    np.testing.assert_array_equal(np.asarray(op.T), whole[k][:rows, :cols].T)
            # the last step computes the targets' rows alone
            assert steps[-1][kind].shape[0] == len(batch)
            assert sum(op.shape[0] for op in steps[-1].values()) < sum(whole[k].shape[0] for k in whole)


class TestAggregateMembers:
    def test_average_identical(self):
        # attention over identical members returns the member, whatever the scores
        v = [1.0, 2.0]
        out = attention_pool(t([v, v, v]), degree_plan([3], [0, 1, 2]), ad.Tensor(np.array([0.3, -1.0])))
        np.testing.assert_allclose(out.data, [v])

    def test_attention_equal_scores_is_midpoint(self):
        score_vec = ad.Tensor(np.zeros(2))
        out = attention_pool(t([[2.0, 0.0], [0.0, 2.0]]), degree_plan([2], [0, 1]), score_vec)
        np.testing.assert_allclose(out.data, [[1.0, 1.0]])


def fuse_rows(channels, weights, e0=None):
    """attention_fusion over rows that all have every channel in ``channels``."""
    mats = list(channels.values())
    n = mats[0].shape[0]
    e0 = e0 if e0 is not None else ad.const(np.zeros(mats[0].shape))
    present = np.ones((n, len(mats)), dtype=bool)
    return ad.attention_fusion(mats, [weights[c] for c in channels], present, e0)


def fusion_weights(fused, channels, r):
    """The convex weights that combine row r's channel vectors into its fused row."""
    basis = np.stack([m.data[r] for m in channels.values()], axis=1)
    weights, *_ = np.linalg.lstsq(basis, fused.data[r], rcond=None)
    np.testing.assert_allclose(basis @ weights, fused.data[r], atol=1e-10)
    return weights


class TestFuseChannels:
    def test_single_channel_passthrough(self):
        w = {"GI": ad.Tensor(np.eye(2))}
        fused = fuse_rows({"GI": t([[3.0, 4.0]])}, w)
        np.testing.assert_array_equal(fused.data, [[3.0, 4.0]])

    def test_two_identical_logits_split_evenly(self):
        w = {"A": ad.Tensor(np.eye(2)), "B": ad.Tensor(np.eye(2))}
        channels = {"A": t([[1.0, 0.0]]), "B": t([[0.0, 1.0]])}
        fused = fuse_rows(channels, w)
        np.testing.assert_allclose(fusion_weights(fused, channels, 0), [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_three_channels_match_scalar_softmax_oracle(self, seed):
        rng = np.random.default_rng(seed)
        d, n, order = 3, 4, ("X", "Y", "Z")
        channels = {c: t(rng.normal(size=(n, d))) for c in order}
        weights = {c: ad.Tensor(rng.normal(size=(d, d)) * 0.1) for c in order}
        fused = fuse_rows(channels, weights, ad.const(np.zeros((n, d))))
        for r in range(n):
            row = {c: ad.const(channels[c].data[r]) for c in order}
            oracle, attn = fuse_channels(row, weights, order)
            np.testing.assert_allclose(fused.data[r], oracle.data, atol=1e-12)
            np.testing.assert_allclose(
                fusion_weights(fused, channels, r), [attn[c] for c in order], atol=1e-10
            )

    def test_all_absent_keeps_initial_embedding(self):
        e0 = t([[1.0, 2.0], [3.0, 4.0]])
        present = np.array([[True], [False]])
        fused = ad.attention_fusion([t([[5.0, 6.0], [0.0, 0.0]])], [ad.Tensor(np.eye(2))], present, e0)
        np.testing.assert_array_equal(fused.data, [[5.0, 6.0], [3.0, 4.0]])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 4))
    def test_weights_are_probability_vector(self, seed, n_channels):
        rng = np.random.default_rng(seed)
        names = tuple(f"c{i}" for i in range(n_channels))
        channels = {c: t(rng.normal(size=(2, 4))) for c in names}
        weights = {c: ad.Tensor(rng.normal(size=(4, 4))) for c in names}
        fused = fuse_rows(channels, weights, ad.const(np.zeros((2, 4))))
        for r in range(2):
            a = fusion_weights(fused, channels, r)
            assert np.all(a >= -1e-10)
            assert abs(a.sum() - 1.0) < 1e-10

    @pytest.mark.parametrize("kind", ["group", "user", "item"])
    @pytest.mark.parametrize("drop", [None, "GU_AGG", "all"])
    def test_fused_op_matches_per_pattern_oracle(self, kind, drop):
        # every presence pattern, rows with no channel, and a channel
        # without a matrix (GU_AGG when no group has members, or none at all)
        order = CHANNELS_BY_KIND[kind]
        rng = np.random.default_rng(len(order))
        d = 4
        patterns = np.array(np.meshgrid(*[[False, True]] * len(order))).reshape(len(order), -1).T
        present = np.repeat(patterns, 3, axis=0)[rng.permutation(3 * len(patterns))]
        n = present.shape[0]
        keep = [c for c in order if drop != "all" and c != drop]
        mats = {c: t(rng.normal(size=(n, d))) for c in keep}
        masks = {c: present[:, j] for j, c in enumerate(order) if c in keep}
        weights = {c: t(rng.normal(size=(d, d))) for c in order}
        e0 = t(rng.normal(size=(n, d)))
        probe = ad.const(rng.normal(size=(n, d)))
        leaves = list(mats.values()) + list(weights.values()) + [e0]
        results = []
        for fuse in (fuse_present, fuse_by_pattern):
            with ad.Tape() as tape:
                out = fuse(kind, mats, masks, weights, e0)
                grads = tape.backward(ad.sum_all(ad.mul(out, probe)), leaves)
            results.append((out.data, grads))
        (got, got_grads), (want, want_grads) = results
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for leaf in leaves:
            np.testing.assert_allclose(got_grads[leaf], want_grads[leaf], rtol=0, atol=1e-12)


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
        eps = sample_episode(g, "group", range(3), k=3, depth=2, seed=1)
        metas = {rel: ad.Tensor(np.full((3, d), 7.0)) for rel in ("GI", "GU", "GG")}
        with_meta = embed_from_episode(eps, params, metas)
        without = embed_from_episode(eps, params)
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

        err = finite_diff_check(f, params.tensors(), eps=1e-5)
        assert err < 1e-4


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
        eps = sample_episode(g, "group", range(3), k=3, depth=2, seed=1)
        metas = {rel: t(np.full((3, 4), 0.3)) for rel in ("GI", "GU", "GG")}

        def loss_fn():
            return ad.sum_squares(embed_from_episode(eps, params, metas))

        self.assert_bit_identical(loss_fn, params.tensors() + list(metas.values()), monkeypatch)
