import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldgraph import autodiff as ad
from coldgraph import enhancer
from coldgraph.enhancer import (
    EnhancerParams,
    episode_metas,
    full_meta_matrices,
    init_enhancer_params,
    train_enhancer,
)
from coldgraph.graph import (
    KINDS,
    RELATIONS_BY_KIND,
    EpisodeBatch,
    Forest,
    InteractionGraph,
    RELATION_KINDS,
    SyntheticSpec,
    build_implicit,
    generate_synthetic,
    sample_episode,
)
from coldgraph.model import (
    CHANNELS_BY_KIND,
    GraphTensors,
    attention_pool,
    degree_plan,
    init_model_params,
)
from gradcheck import finite_diff_check
from oracles import (
    DictWarmupLayout,
    PerPairWarmupLayout,
    as_float64,
    aggregate_members,
    dict_trees,
    episode_metas_dict,
    episode_metas_per_relation,
    full_meta_matrices_per_pair,
    fuse_channels,
    gathered_qkv,
    neighbors,
    reconstruction_loss,
    relation_metas_by_bucket,
    sum_all,
    transpose,
    truth_table,
    truth_vector,
    warmup_loss as per_step_warmup_loss,
)


# ---------------------------------------------------------------------------
# per-node oracles: the math the batched forward replaces, one target at a time
# ---------------------------------------------------------------------------


def self_attention(x, params):
    """(m, d) neighbor rows smoothed by one head of scaled dot-product attention."""
    q = ad.matmul(x, params.wq)
    k = ad.matmul(x, params.wk)
    v = ad.matmul(x, params.wv)
    scores = ad.scale(ad.matmul(q, transpose(k)), 1.0 / math.sqrt(params.d))
    return ad.matmul(ad.softmax(scores), v)


def meta_embed(first_order, params, kind):
    """Per-relation metas and the fused meta of one target."""
    channels, metas = {}, {}
    for rel in RELATIONS_BY_KIND[kind]:
        neigh = first_order.get(rel)
        if neigh is None:
            continue
        smoothed = self_attention(neigh, params)
        metas[rel] = channels[rel] = ad.mean_rows(smoothed)
        if rel == "GU" and kind == "group":
            channels["GU_AGG"] = aggregate_members(smoothed, params.member_score)
    fused, _ = fuse_channels(channels, params.fusion, CHANNELS_BY_KIND[kind])
    return metas, fused


def episode_first_order(episode, tables):
    """Layer-0 embeddings of an episode's sampled first-order neighbors."""
    out = {}
    for rel, sample in episode.samples.items():
        if len(sample.layers) > 1 and sample.layers[1]:
            out[rel] = ad.gather_rows(tables(sample.kinds[1]), list(sample.layers[1]))
    return out


def oracle_warmup_loss(episodes, gt, params, tables):
    terms = []
    for ep in episodes:
        first = episode_first_order(ep, tables)
        if first:
            _, fused = meta_embed(first, params, ep.target.kind)
            terms.append(reconstruction_loss(fused, truth_vector(gt, ep.target)))
    return ad.mean_rows(ad.concat(terms))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def t(data):
    return ad.Tensor(data, requires_grad=True)


def identity_params(d):
    fusion = {k: ad.Tensor(np.zeros((d, d))) for k in ("GI", "GU", "GU_AGG", "GG", "UI", "UU")}
    return EnhancerParams(
        d=d,
        wq=ad.Tensor(np.eye(d)),
        wk=ad.Tensor(np.eye(d)),
        wv=ad.Tensor(np.eye(d)),
        fusion=fusion,
        member_score=ad.Tensor(np.zeros(d)),
    )


def tables_of(arrays):
    tabs = {k: ad.Tensor(np.asarray(v, dtype=float), requires_grad=True) for k, v in arrays.items()}
    return tabs.__getitem__


def hand_batch(kind, rows):
    """Depth-1 episode batch whose targets sampled exactly the given
    neighbors: ``rows`` lists (target index, {relation: neighbors})."""
    targets = np.array([index for index, _ in rows], dtype=np.intp)
    n = targets.size
    forests = {}
    for rel in RELATIONS_BY_KIND[kind]:
        ka, kb = RELATION_KINDS[rel]
        other = kb if kind == ka else ka
        neigh = [np.asarray(first.get(rel, ()), dtype=np.intp) for _, first in rows]
        tree = np.repeat(np.arange(n), [x.size for x in neigh])
        flat = np.concatenate([np.zeros(0, np.intp), *neigh])
        if other == kind:
            nodes, child = {kind: np.concatenate([targets, flat])}, n + np.arange(flat.size)
            prefix = {kind: (n, n + flat.size)}
        else:
            nodes, child = {kind: targets, other: flat}, np.arange(flat.size)
            prefix = {kind: (n, n), other: (0, flat.size)}
        forests[rel] = Forest(rel, (kind, other), nodes, ((tree, tree, child),), prefix)
    return EpisodeBatch(kind, targets, 1, forests)


def hand_episode(kind, index, first_order):
    """One-target depth-1 batch whose relations sampled exactly ``first_order``."""
    return hand_batch(kind, [(index, first_order)])


def truth_of(batches, rng, d):
    vectors = {(b.kind, i): rng.normal(size=d) for b in batches for i in b.targets.tolist()}
    return truth_table(None, vectors, d)


def layout_of(batches, tables, gt=None):
    """The once-built warm-up layout; without ``gt`` every target's ground
    truth is a ones vector."""
    if gt is None:
        d = tables("user").shape[1]
        gt = truth_table(None, {(b.kind, i): np.ones(d) for b in batches for i in b.targets.tolist()}, d)
    return enhancer._WarmupLayout(batches, gt, tables)


def fused_of(batch, tables, params):
    return layout_of([batch], tables).fused(np.arange(len(batch)), params)


def warmup_loss(batches, gt, params, tables):
    """The warm-up loss of one step holding every target, in input order."""
    layout = layout_of(batches, tables, gt)
    return layout.loss(np.arange(layout.linked.size), params)


def attention(x, params):
    """The batched path on one block: segment attention of the projected rows."""
    x = np.asarray(x, dtype=float)
    q, k, v = (ad.matmul(ad.const(x), w) for w in (params.wq, params.wk, params.wv))
    return ad.segment_attention(q, k, v, x.shape[0])


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestSelfAttention:
    def test_single_input_is_identity(self):
        params = identity_params(3)
        v = [0.5, -1.0, 2.0]
        out = attention([v], params)
        np.testing.assert_array_equal(out.data, [v])

    def test_equal_inputs_stay_equal(self):
        params = identity_params(2)
        out = attention([[1.0, 2.0]] * 3, params)
        np.testing.assert_allclose(out.data, np.tile([1.0, 2.0], (3, 1)))

    def test_two_inputs_match_manual_computation(self):
        d = 2
        rng = np.random.default_rng(0)
        wq, wk, wv = (rng.normal(size=(d, d)) for _ in range(3))
        params = identity_params(d)
        params.wq.data, params.wk.data, params.wv.data = wq, wk, wv
        x = np.array([[1.0, 0.5], [-0.3, 2.0]])
        out = attention(x, params)
        q, k, v = x @ wq, x @ wk, x @ wv
        scores = q @ k.T / np.sqrt(d)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out.data, a @ v, atol=1e-12)
        np.testing.assert_allclose(self_attention(ad.const(x), params).data, a @ v, atol=1e-12)

    def test_output_count_equals_input_count(self):
        params = init_enhancer_params(3, np.random.default_rng(1))
        out = attention(np.random.default_rng(2).normal(size=(5, 3)), params)
        assert out.shape == (5, 3)

    def test_empty_input_rejected(self):
        empty = ad.Tensor(np.zeros((0, 2)))
        with pytest.raises(ValueError, match="blocks"):
            ad.segment_attention(empty, empty, empty, 1)
        three = ad.Tensor(np.ones((3, 2)))
        with pytest.raises(ValueError, match="blocks"):
            ad.segment_attention(three, three, three, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_permutation_invariance_of_mean(self, seed):
        rng = np.random.default_rng(seed)
        params = init_enhancer_params(3, np.random.default_rng(7))
        vecs = rng.normal(size=(4, 3))
        perm = rng.permutation(4)
        mean_a = attention(vecs, params).data.mean(axis=0)
        mean_b = attention(vecs[perm], params).data.mean(axis=0)
        np.testing.assert_allclose(mean_a, mean_b, atol=1e-12)


class TestMetaEmbed:
    def test_identical_neighbors_identity_projections(self):
        params = identity_params(2)
        v = np.array([1.0, 3.0])
        tables = tables_of({"user": np.zeros((2, 2)), "item": np.tile(v, (4, 1)), "group": [[0.0, 0.0]]})
        ep = hand_episode("user", 0, {"UI": [0, 1, 2, 3]})
        metas = episode_metas(ep, tables, params)
        assert set(metas) == {"UI"}
        np.testing.assert_allclose(metas["UI"].data, [v])
        np.testing.assert_allclose(fused_of(ep, tables, params).data, [v])

    def test_single_neighbor_equals_smoothed(self):
        params = init_enhancer_params(3, np.random.default_rng(0))
        items = np.random.default_rng(1).normal(size=(2, 3))
        tables = tables_of({"user": np.zeros((1, 3)), "item": items, "group": np.zeros((1, 3))})
        ep = hand_episode("user", 0, {"UI": [1]})
        metas = episode_metas(ep, tables, params)
        smoothed = self_attention(ad.const(items[[1]]), params)
        np.testing.assert_allclose(metas["UI"].data, smoothed.data, atol=1e-15)

    def test_uniform_fusion_logits_average_relations(self):
        params = identity_params(2)  # zero fusion weights -> uniform attention
        tables = tables_of({
            "user": np.tile([0.0, 2.0], (4, 1)),
            "item": np.tile([2.0, 0.0], (3, 1)),
            "group": np.zeros((1, 2)),
        })
        ep = hand_episode("user", 0, {"UI": [0, 1, 2], "UU": [1, 2, 3]})
        np.testing.assert_allclose(fused_of(ep, tables, params).data, [[1.0, 1.0]])

    def test_all_relations_empty(self):
        params = identity_params(2)
        tables = tables_of({kind: np.ones((1, 2)) for kind in ("user", "item", "group")})
        isolated = hand_episode("user", 0, {})
        assert episode_metas(isolated, tables, params) == {}
        gt = truth_table(None, {("user", 0): np.ones(2)})
        assert warmup_loss([isolated], gt, params, tables) is None

    def test_group_gets_member_aggregate_channel(self):
        params = identity_params(2)
        tables = tables_of({
            "user": np.tile([0.0, 1.0], (2, 1)),
            "item": np.tile([1.0, 0.0], (2, 1)),
            "group": np.zeros((1, 2)),
        })
        ep = hand_episode("group", 0, {"GI": [0, 1], "GU": [0, 1]})
        # channels GI, GU, GU_AGG with uniform weights; GU and GU_AGG both average to [0,1]
        np.testing.assert_allclose(
            fused_of(ep, tables, params).data, [[1 / 3, 2 / 3]], atol=1e-12
        )


def costs(preds, targets):
    episodes = hand_batch("user", [(i, {}) for i in range(len(targets))])
    gt = truth_table(None, {("user", i): v for i, v in zip(episodes.targets.tolist(), targets)})
    return enhancer.reconstruction_costs(t(preds), episodes, gt).data


class TestCosineLoss:
    def test_bounds_and_endpoints(self):
        target = np.array([1.0, 0.0])
        got = costs([[2.0, 0.0], [0.0, 1.0], [-3.0, 0.0]], [target] * 3)
        np.testing.assert_allclose(got, [0.0, 1.0, 2.0], atol=1e-15)
        for pred, want in zip(([2.0, 0.0], [0.0, 1.0], [-3.0, 0.0]), got):
            assert reconstruction_loss(t(pred), target).item() == pytest.approx(want)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_loss_in_range(self, seed):
        rng = np.random.default_rng(seed)
        preds, targets = rng.normal(size=(4, 3)) + 0.01, rng.normal(size=(4, 3)) + 0.01
        assert np.all((costs(preds, targets) >= 0.0) & (costs(preds, targets) <= 2.0))

    def test_missing_ground_truth_rejected(self):
        gt = truth_table(None, {}, d=2)
        with pytest.raises(KeyError, match="user:0"):
            enhancer.reconstruction_costs(t([[1.0, 0.0]]), hand_episode("user", 0, {}), gt)


def synthetic(seed, n_users=20, n_items=25, n_groups=8, extra=0, implicit=True):
    spec = SyntheticSpec(n_users=n_users, n_items=n_items, n_groups=n_groups, n_clusters=2,
                         intra_p=0.3, inter_p=0.05, group_size_min=2, group_size_max=4, seed=seed)
    g = generate_synthetic(spec)
    if implicit:
        g = build_implicit(g, 1, 0)
    if extra:  # nodes of every kind without any edge
        g = InteractionGraph({k: n + extra for k, n in g.counts.items()}, g.edges)
    return g


class TestGradients:
    def test_enhancer_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        params = as_float64(init_enhancer_params(4, rng))
        tables = tables_of({k: rng.normal(size=(5, 4)) for k in ("user", "item", "group")})
        episodes = [
            hand_episode("user", 0, {"UI": [0, 2, 4], "UU": [1, 3]}),
            hand_episode("group", 1, {"GI": [1], "GU": [0, 2, 3], "GG": [0, 4]}),
        ]
        gt = truth_of(episodes, rng, 4)

        def f(ps):
            return warmup_loss(episodes, gt, params, tables)

        err = finite_diff_check(f, params.tensors(), eps=1e-5)
        assert err < 1e-4

    def test_vectorized_full_metas_equal_per_node_path(self):
        g = synthetic(4, extra=2)
        model = init_model_params(g.counts, 5, "light", 2, True, np.random.default_rng(0))
        enh = init_enhancer_params(5, np.random.default_rng(1))
        as_float64(model, enh)
        with ad.Tape() as tape:
            metas = full_meta_matrices(GraphTensors(g), model.table, enh)
            probe = {key: np.random.default_rng(9).normal(size=m.shape) for key, m in metas.items()}
            loss = sum_all(ad.concat(
                [ad.row_sums(ad.mul(m, ad.const(probe[key]))) for key, m in metas.items()]
            ))
        grads = tape.backward(loss, model.tensors() + enh.tensors())
        with ad.Tape() as tape:
            terms = []
            for (kind, rel), mat in metas.items():
                ka, kb = RELATION_KINDS[rel]
                neigh_kind = kb if kind == ka else ka
                for idx in range(g.counts[kind]):
                    neigh = neighbors(g, rel, kind, idx)
                    if not neigh:
                        assert np.all(mat.data[idx] == 0.0)
                        continue
                    ref = ad.mean_rows(
                        self_attention(ad.gather_rows(model.table(neigh_kind), list(neigh)), enh)
                    )
                    np.testing.assert_allclose(mat.data[idx], ref.data, rtol=0, atol=1e-12)
                    terms.append(ad.matmul(ref, ad.const(probe[(kind, rel)][idx])))
            want = tape.backward(sum_all(ad.concat(terms)), model.tensors() + enh.tensors())
        for tensor in model.tensors() + enh.tensors():
            np.testing.assert_allclose(grads[tensor], want[tensor], rtol=0, atol=1e-12)

    def test_hub_memory_is_linear_in_scores(self):
        d, hub = 64, 600
        ui = [(0, i) for i in range(hub)]
        g = InteractionGraph({"user": 2, "item": hub, "group": 1}, {"UI": ui})
        gtens = GraphTensors(g)
        model = init_model_params(g.counts, d, "light", 1, True, np.random.default_rng(0))
        enh = init_enhancer_params(d, np.random.default_rng(1))
        tracemalloc.start()
        try:
            with ad.Tape() as tape:
                metas = full_meta_matrices(gtens, model.table, enh)
                loss = sum_all(ad.concat([sum_all(m) for m in metas.values()]))
            tape.backward(loss, model.tensors() + enh.tensors())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the row gathers of the old path needed 3 * hub**2 * d * 8 B ~ 550 MB
        assert peak < 64 * 2**20

    def test_full_metas_peak_below_the_per_pair_path(self):
        # 8.5k edges at d = 64 in float32: the per-pair path peaks near
        # 28 MB and the stacked pass near 13 MB; a stacked pass that keeps
        # gathered q/k/v rows and their gradients peaks near 35 MB
        g = synthetic(7, n_users=100, n_items=150, n_groups=40)
        gtens = GraphTensors(g)
        model = init_model_params(g.counts, 64, "light", 1, True, np.random.default_rng(0))
        enh = init_enhancer_params(64, np.random.default_rng(1))
        peaks = []
        for fn in (full_meta_matrices, full_meta_matrices_per_pair):
            tracemalloc.start()
            try:
                with ad.Tape() as tape:
                    metas = fn(gtens, model.table, enh)
                    loss = sum_all(ad.concat([sum_all(m) for m in metas.values()]))
                tape.backward(loss, model.tensors() + enh.tensors())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        bound = 20 * 2**20
        assert peaks[0] < bound < peaks[1], [f"{p / 2**20:.1f} MB" for p in peaks]


class TestRaggedRelationMetas:
    """One ragged forward over a plan against the per-degree-bucket loop."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=12), st.integers(0, 10_000))
    def test_matches_per_bucket_oracle(self, sizes, seed):
        self._check(np.random.default_rng(seed), sizes)

    def test_single_run_and_blocks_of_one(self):
        rng = np.random.default_rng(1)
        self._check(rng, [3, 3, 3])
        self._check(rng, [1, 0, 1, 1])

    def test_hub(self):
        self._check(np.random.default_rng(2), [600, 0, 2, 1], d=8)

    @staticmethod
    def _check(rng, sizes, d=4):
        if not any(sizes):
            sizes = [*sizes, 1]
        params = init_enhancer_params(d, rng)
        table = t(rng.normal(size=(7, d)))
        cols = rng.integers(0, 7, sum(sizes))
        probe = ad.const(rng.normal(size=(len(sizes), 2 * d)))

        leaves = params.tensors() + [table]
        results = []
        for ragged in (True, False):
            with ad.Tape() as tape:
                if ragged:
                    plan = degree_plan(sizes, cols)
                    smoothed, means = enhancer._smoothed_means(table, plan, params)
                    pooled = attention_pool(smoothed, plan, params.member_score)
                else:
                    means, pooled = relation_metas_by_bucket(
                        gathered_qkv(table, params), sizes, cols, d, params.member_score
                    )
                out = ad.concat([means, pooled], axis=1)
                grads = tape.backward(sum_all(ad.mul(out, probe)), leaves)
            results.append((out.data, grads))
        (got, got_grads), (want, want_grads) = results
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for leaf in leaves:
            np.testing.assert_allclose(got_grads[leaf], want_grads[leaf], rtol=0, atol=1e-12)


def mixed_batch(d=6, seed=0, implicit=True):
    """Group, user and item episode batches, some targets isolated, with
    teacher-like ground truth; returns the batches and their dict trees.
    Without ``implicit`` the UU and GG relations are empty."""
    g = synthetic(seed, n_users=24, n_items=30, n_groups=10, extra=2, implicit=implicit)
    model = as_float64(init_model_params(g.counts, d, "light", 2, True, np.random.default_rng(seed)))
    rng = np.random.default_rng(seed)
    batches = [
        sample_episode(g, kind, rng.permutation(g.counts[kind]), k=3, depth=1, seed=11)
        for kind in ("group", "user", "item")
    ]
    gt = truth_of(batches, np.random.default_rng(seed + 1), d)
    return model, batches, [ep for b in batches for ep in dict_trees(b)], gt


class TestBatchedWarmup:
    def test_batched_step_matches_per_episode_oracle(self):
        model, batches, episodes, gt = mixed_batch()
        isolated = [ep for ep in episodes if not episode_first_order(ep, model.table)]
        assert len(isolated) >= 3
        groups = [ep for ep in episodes if ep.target.kind == "group"]
        assert any(len(ep.samples["GU"].layers[1]) > 1 for ep in groups)
        enh = as_float64(init_enhancer_params(6, np.random.default_rng(2)))
        frozen = {k: ad.const(model.table(k).data) for k in ("user", "item", "group")}.__getitem__
        with ad.Tape() as tape:
            loss = warmup_loss(batches, gt, enh, frozen)
            grads = tape.backward(loss, enh.tensors())
        with ad.Tape() as tape:
            want = oracle_warmup_loss(episodes, gt, enh, frozen)
            want_grads = tape.backward(want, enh.tensors())
        assert loss.item() == pytest.approx(want.item(), rel=0, abs=1e-12)
        for tensor in enh.tensors():
            np.testing.assert_allclose(grads[tensor], want_grads[tensor], rtol=0, atol=1e-12)

    def test_layout_matches_per_step_planning(self):
        self.check_layout(mixed_batch(seed=2))

    def test_empty_relations_match_oracles(self):
        cases = mixed_batch(seed=3, implicit=False)
        assert all(b.forests[rel].edge_count() == 0 for b, rel in zip(cases[1], ("GG", "UU")))
        self.check_layout(cases)
        self.check_metas(cases)

    @staticmethod
    def check_layout(cases):
        # shuffled steps (isolated targets among them) cut from the
        # once-built layout against the dict-tree layout and against
        # planning every step from its episodes
        model, batches, episodes, gt = cases
        enh = as_float64(init_enhancer_params(6, np.random.default_rng(5)))
        frozen = {k: ad.const(model.table(k).data) for k in ("user", "item", "group")}.__getitem__
        layout = enhancer._WarmupLayout(batches, gt, frozen)
        dict_layout = DictWarmupLayout(episodes, gt, frozen)
        order = np.random.default_rng(6).permutation(len(episodes))
        steps = [order[i : i + 17] for i in range(0, len(order), 17)]
        assert any(not layout.linked[s].all() for s in steps)
        for step in steps:
            results = []
            for loss_fn in (
                lambda: layout.loss(step, enh),
                lambda: dict_layout.loss(step, enh),
                lambda: per_step_warmup_loss([episodes[i] for i in step], gt, enh, frozen),
            ):
                with ad.Tape() as tape:
                    loss = loss_fn()
                    results.append((loss.item(), tape.backward(loss, enh.tensors())))
            (got, grads), *wants = results
            for want, want_grads in wants:
                assert got == pytest.approx(want, rel=0, abs=1e-12)
                for tensor in enh.tensors():
                    np.testing.assert_allclose(grads[tensor], want_grads[tensor], rtol=0, atol=1e-12)

    def test_episode_metas_match_per_episode_oracle(self):
        self.check_metas(mixed_batch(seed=1))

    @staticmethod
    def check_metas(cases):
        model, batches, episodes, gt = cases
        enh = as_float64(init_enhancer_params(6, np.random.default_rng(3)))
        tensors = model.tensors() + enh.tensors()
        probe = np.random.default_rng(4).normal(size=6)

        def total(metas):
            return sum_all(ad.concat([ad.matmul(m, ad.const(probe)) for m in metas]))

        kinds = ("group", "user", "item")
        with ad.Tape() as tape:
            got = {b.kind: episode_metas(b, model.table, enh) for b in batches}
            grads = tape.backward(total([m for metas in got.values() for m in metas.values()]), tensors)
        with ad.Tape() as tape:
            want = {kind: [] for kind in kinds}
            for ep in episodes:
                first = episode_first_order(ep, model.table)
                want[ep.target.kind].append(meta_embed(first, enh, ep.target.kind)[0] if first else {})
            flat = [m for per_kind in want.values() for metas in per_kind for m in metas.values()]
            want_grads = tape.backward(total(flat), tensors)
        with ad.Tape() as tape:
            by_plans = {
                kind: episode_metas_dict([ep for ep in episodes if ep.target.kind == kind], model.table, enh)
                for kind in kinds
            }
            plan_grads = tape.backward(
                total([m for metas in by_plans.values() for m in metas.values()]), tensors
            )
        for kind in kinds:
            assert set(got[kind]) == {rel for metas in want[kind] for rel in metas} == set(by_plans[kind])
            for rel, mat in got[kind].items():
                np.testing.assert_allclose(mat.data, by_plans[kind][rel].data, rtol=0, atol=1e-12)
                for row, metas in zip(mat.data, want[kind]):
                    # a target whose relation sampled no neighbor gets a zero row
                    ref = metas[rel].data if rel in metas else np.zeros(6)
                    np.testing.assert_allclose(row, ref, rtol=0, atol=1e-12)
        for tensor in tensors:
            np.testing.assert_allclose(grads[tensor], want_grads[tensor], rtol=0, atol=1e-12)
            np.testing.assert_allclose(grads[tensor], plan_grads[tensor], rtol=0, atol=1e-12)


class TestTrainEnhancer:
    def build(self, d=8, seed=0):
        spec = SyntheticSpec(n_users=30, n_items=40, n_groups=12, n_clusters=2,
                             intra_p=0.35, inter_p=0.05, group_size_min=2, group_size_max=4,
                             seed=seed)
        g = generate_synthetic(spec)
        model = init_model_params(g.counts, d, "light", 2, True, np.random.default_rng(seed))
        linked = [u for u in range(g.counts["user"]) if neighbors(g, "UI", "user", u)]
        episodes = [sample_episode(g, "user", linked, k=4, depth=1, seed=5)]
        # recoverable target: the mean of each target's sampled layer-0 neighbors
        vectors = {}
        for ep in dict_trees(episodes[0]):
            first = episode_first_order(ep, model.table)
            stacked = np.concatenate([m.data for m in first.values()])
            vectors[ep.target] = stacked.mean(axis=0)
        gt = truth_table(g.counts, vectors, d, "neighbor-mean")
        return g, model, episodes, gt

    def test_zero_epochs_leaves_params_untouched(self):
        g, model, episodes, gt = self.build()
        enh = init_enhancer_params(8, np.random.default_rng(2))
        before = [np.array(x.data) for x in enh.tensors()]
        train_enhancer(episodes, gt, enh, model.table, 0.001, 0, np.random.default_rng(0))
        for prev, tensor in zip(before, enh.tensors()):
            np.testing.assert_array_equal(prev, tensor.data)

    def test_losses_bounded(self):
        g, model, episodes, gt = self.build()
        enh = init_enhancer_params(8, np.random.default_rng(2))
        losses = train_enhancer(episodes, gt, enh, model.table, 0.001, 5, np.random.default_rng(0))
        assert all(0.0 <= x <= 2.0 for x in losses)

    def test_recovers_neighbor_mean_targets(self):
        g, model, episodes, gt = self.build()
        enh = init_enhancer_params(8, np.random.default_rng(2))
        before = [np.array(x.data) for x in model.tensors()]
        losses = train_enhancer(episodes, gt, enh, model.table, learning_rate=0.02,
                                epochs=150, rng=np.random.default_rng(0))
        # mean cosine similarity above 0.95 <=> loss below 0.05
        assert losses[-1] < 0.05
        for prev, tensor in zip(before, model.tensors()):
            np.testing.assert_array_equal(prev, tensor.data)

    def test_missing_ground_truth_rejected(self):
        g, model, episodes, gt = self.build()
        gt.known["user"][episodes[0].targets[0]] = False
        enh = init_enhancer_params(8, np.random.default_rng(2))
        with pytest.raises(KeyError, match="ground-truth"):
            train_enhancer(episodes, gt, enh, model.table, 0.001, 1, np.random.default_rng(0))


def hub_batches(d=4, hub=600, seed=0):
    """A group with a 600-member GU hub among groups without GU members,
    users and items; returns float64 tables, the batches and ground truth."""
    rng = np.random.default_rng(seed)
    tables = {k: ad.const(rng.normal(size=(n, d))) for k, n in (("user", hub), ("item", 8), ("group", 5))}
    batches = [
        hand_batch("group", [
            (0, {"GU": range(hub), "GI": [1, 2]}),
            (1, {"GI": [0, 3, 4]}),  # no GU member
            (2, {"GG": [0, 3]}),
            (3, {}),  # isolated
        ]),
        hand_batch("user", [(0, {"UI": [5]}), (7, {"UU": [1, 2, 3]}), (9, {"UI": [0, 1], "UU": [4]})]),
        hand_batch("item", [(2, {"UI": [3, 4, 5, 6]}), (6, {})]),
    ]
    return tables.__getitem__, batches, truth_of(batches, rng, d)


class TestStackedPass:
    """The one stacked pass against the per-(kind, relation) path it
    replaced (tests/oracles.py), in float64, outputs and every gradient."""

    @staticmethod
    def check_warmup(tables, batches, gt, steps):
        enh = as_float64(init_enhancer_params(tables("user").shape[1], np.random.default_rng(8)))
        layout = enhancer._WarmupLayout(batches, gt, tables)
        per_pair = PerPairWarmupLayout(batches, gt, tables)
        np.testing.assert_array_equal(layout.linked, per_pair.linked)
        for step in steps:
            results = []
            for lay in (layout, per_pair):
                with ad.Tape() as tape:
                    loss = lay.loss(step, enh)
                    results.append(None if loss is None else (loss.item(), tape.backward(loss, enh.tensors())))
            (got, grads), (want, want_grads) = results
            assert got == pytest.approx(want, rel=0, abs=1e-12)
            for tensor in enh.tensors():
                np.testing.assert_allclose(grads[tensor], want_grads[tensor], rtol=0, atol=1e-12)
            # the cosine loss is blind to a row's scale; the fused rows are not
            sel = step[layout.linked[step]]
            fused = layout.fused(sel, enh).data
            for code, kind in enumerate(KINDS):
                mine = per_pair.kind[sel] == code
                if mine.any():
                    want_rows = per_pair.fused(kind, sel[mine], enh).data
                    np.testing.assert_allclose(fused[mine], want_rows, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed, implicit", [(0, True), (3, False)])
    def test_warmup_steps_match_per_pair_oracle(self, seed, implicit):
        # shuffled steps of every kind with isolated targets; without the
        # implicit relations UU and GG sample no neighbor at all
        model, batches, episodes, gt = mixed_batch(seed=seed, implicit=implicit)
        frozen = {k: ad.const(model.table(k).data) for k in ("user", "item", "group")}.__getitem__
        order = np.random.default_rng(seed).permutation(len(episodes))
        steps = [order[i : i + 13] for i in range(0, len(order), 13)]
        steps.append(np.arange(len(batches[0]), len(episodes)))  # no group in the step
        self.check_warmup(frozen, batches, gt, steps)

    def test_hub_and_groups_without_members_match_per_pair_oracle(self):
        tables, batches, gt = hub_batches()
        positions = np.arange(9)
        self.check_warmup(tables, batches, gt, [positions, positions[1:], positions[4:], positions[::-1]])

    def test_warmup_step_records_at_most_15_tape_entries(self):
        model, batches, episodes, gt = mixed_batch()
        layout = enhancer._WarmupLayout(batches, gt, model.table)
        enh = init_enhancer_params(6, np.random.default_rng(2))
        step = np.flatnonzero(layout.linked)
        assert len({b.kind for b in batches}) == 3 and step.size
        with ad.Tape() as tape:
            layout.loss(step, enh)
        assert 0 < len(tape) <= 15

    @pytest.mark.parametrize("case", ["mixed", "no implicit", "hub"])
    def test_episode_metas_match_per_relation_oracle(self, case):
        if case == "hub":
            tables, batches, _ = hub_batches()
            leaves = []
        else:
            model, batches, _, _ = mixed_batch(seed=1, implicit=case == "mixed")
            tables, leaves = model.table, model.tensors()
        enh = as_float64(init_enhancer_params(tables("user").shape[1], np.random.default_rng(3)))
        leaves = leaves + enh.tensors()
        for batch in batches:
            results = []
            for fn in (episode_metas, episode_metas_per_relation):
                with ad.Tape() as tape:
                    metas = fn(batch, tables, enh)
                    probe = np.random.default_rng(4).normal(size=(len(batch), enh.d))
                    loss = sum_all(ad.concat([ad.row_sums(ad.mul(m, ad.const(probe))) for m in metas.values()]))
                    results.append((metas, tape.backward(loss, leaves)))
            (got, grads), (want, want_grads) = results
            assert list(got) == list(want)
            for rel in want:
                np.testing.assert_allclose(got[rel].data, want[rel].data, rtol=0, atol=1e-12)
            for leaf in leaves:
                np.testing.assert_allclose(grads[leaf], want_grads[leaf], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["isolated nodes", "no implicit", "hub"])
    def test_full_metas_match_per_pair_oracle(self, case):
        if case == "hub":
            ui = [(0, i) for i in range(600)] + [(1, 3)]
            g = InteractionGraph({"user": 3, "item": 600, "group": 2}, {"UI": ui, "GU": [(0, 1)]})
        else:
            g = synthetic(5, extra=2, implicit=case == "isolated nodes")
        model = init_model_params(g.counts, 4, "light", 1, True, np.random.default_rng(0))
        enh = init_enhancer_params(4, np.random.default_rng(1))
        as_float64(model, enh)
        gtens = GraphTensors(g)
        leaves = model.tensors() + enh.tensors()
        results = []
        for fn in (full_meta_matrices, full_meta_matrices_per_pair):
            with ad.Tape() as tape:
                metas = fn(gtens, model.table, enh)
                rng = np.random.default_rng(9)
                loss = sum_all(ad.concat([
                    ad.row_sums(ad.mul(m, ad.const(rng.normal(size=m.shape)))) for m in metas.values()
                ]))
                results.append((metas, tape.backward(loss, leaves)))
        (got, grads), (want, want_grads) = results
        assert list(got) == list(want)
        for key in want:
            np.testing.assert_allclose(got[key].data, want[key].data, rtol=0, atol=1e-12)
        for leaf in leaves:
            np.testing.assert_allclose(grads[leaf], want_grads[leaf], rtol=0, atol=1e-12)
