import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldgraph.graph import (
    COLD_ANCHOR_KEEP,
    COLD_ITEM_KEEP,
    InteractionGraph,
    IdMap,
    SyntheticSpec,
    build_implicit,
    generate_synthetic,
    load_edges,
    make_training_graph,
    read_split_manifest,
    sample_episode,
    segment,
    stats_summary,
    write_split_manifest,
)
from oracles import as_lists, assert_same_split, dict_trees, neighbors, tuple_split


def degree(graph, rel, kind, index):
    return len(neighbors(graph, rel, kind, index))


def graph_from(ui=(), gi=(), gu=(), counts=None, ui_ts=None, gi_ts=None):
    if counts is None:
        counts = {
            "user": max([a for a, _ in ui] + [b for _, b in gu] + [-1]) + 1,
            "item": max([b for _, b in ui] + [b for _, b in gi] + [-1]) + 1,
            "group": max([a for a, _ in gi] + [a for a, _ in gu] + [-1]) + 1,
        }
    return InteractionGraph(
        counts,
        {"UI": ui, "GI": gi, "GU": gu},
        {"UI": ui_ts or [None] * len(ui), "GI": gi_ts or [None] * len(gi)},
    )


class TestLoadEdges:
    def test_dedup_and_counts(self, tmp_path):
        (tmp_path / "user_item.tsv").write_text("u1\ti1\t10\nu1\ti1\t10\nu2\ti1\t11\n")
        (tmp_path / "group_item.tsv").write_text("")
        (tmp_path / "group_user.tsv").write_text("g1\tu1\ng1\tu2\n")
        graph, ids = load_edges(
            tmp_path / "user_item.tsv", tmp_path / "group_item.tsv", tmp_path / "group_user.tsv"
        )
        assert graph.num_edges("UI") == 2
        assert graph.counts == {"user": 2, "item": 1, "group": 1}
        assert degree(graph, "GU", "group", 0) == 2

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        (tmp_path / "user_item.tsv").write_text("# header\nu1\ti1\n\nu2\ti2\n")
        (tmp_path / "group_item.tsv").write_text("")
        (tmp_path / "group_user.tsv").write_text("")
        graph, _ = load_edges(
            tmp_path / "user_item.tsv", tmp_path / "group_item.tsv", tmp_path / "group_user.tsv"
        )
        assert graph.num_edges("UI") == 2

    def test_malformed_row_reports_line(self, tmp_path):
        (tmp_path / "user_item.tsv").write_text("u1\ti1\nu2\n")
        (tmp_path / "group_item.tsv").write_text("")
        (tmp_path / "group_user.tsv").write_text("")
        with pytest.raises(ValueError, match=r"user_item\.tsv:2"):
            load_edges(
                tmp_path / "user_item.tsv",
                tmp_path / "group_item.tsv",
                tmp_path / "group_user.tsv",
            )

    def test_missing_file(self, tmp_path):
        (tmp_path / "user_item.tsv").write_text("u1\ti1\n")
        (tmp_path / "group_item.tsv").write_text("")
        with pytest.raises(FileNotFoundError, match="group_user"):
            load_edges(
                tmp_path / "user_item.tsv",
                tmp_path / "group_item.tsv",
                tmp_path / "group_user.tsv",
            )

    def test_dataset_scale_counts_in_stats(self, tmp_path):
        # entity counts at the scale of a real check-in dataset
        n_users, n_items, n_groups = 8_643, 25_081, 22_733
        ui = "\n".join(f"u{i % n_users}\ti{i}\t{i}" for i in range(n_items))
        gu = "\n".join(f"g{j}\tu{j % n_users}" for j in range(n_groups))
        (tmp_path / "user_item.tsv").write_text(ui + "\n")
        (tmp_path / "group_item.tsv").write_text("")
        (tmp_path / "group_user.tsv").write_text(gu + "\n")
        graph, _ = load_edges(
            tmp_path / "user_item.tsv", tmp_path / "group_item.tsv", tmp_path / "group_user.tsv"
        )
        assert graph.counts == {"user": n_users, "item": n_items, "group": n_groups}
        summary = stats_summary(graph)
        assert "8,643" in summary and "25,081" in summary and "22,733" in summary

    def test_idmap_roundtrip_and_collision(self, tmp_path):
        ids = IdMap()
        ids.intern("user", "alice")
        ids.intern("item", "alice")  # same external id, different kind: fine
        ids.save(tmp_path / "ids.tsv")
        loaded = IdMap.load(tmp_path / "ids.tsv")
        assert loaded.forward == ids.forward
        (tmp_path / "bad.tsv").write_text("user\talice\t0\nuser\talice\t1\n")
        with pytest.raises(ValueError, match="collision"):
            IdMap.load(tmp_path / "bad.tsv")


class TestGraphInvariants:
    def test_no_self_loops_same_kind(self):
        with pytest.raises(ValueError, match="self-loop"):
            InteractionGraph({"user": 2, "item": 0, "group": 0}, {"UU": [(1, 1)]})

    def test_endpoint_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            graph_from(ui=[(0, 5)], counts={"user": 1, "item": 2, "group": 0})

    def test_undirected_dedup_same_kind(self):
        g = InteractionGraph({"user": 3, "item": 0, "group": 0}, {"UU": [(0, 1), (1, 0)]})
        assert g.num_edges("UU") == 1
        assert neighbors(g, "UU", "user", 0) == (1,)
        assert neighbors(g, "UU", "user", 1) == (0,)


def brute_force_implicit(graph, rel, threshold):
    """O(n^2) pairwise-intersection oracle."""
    kind = "user" if rel == "UI" else "group"
    n = graph.counts[kind]
    items = {a: set(neighbors(graph, rel, kind, a)) for a in range(n)}
    return sorted(
        (a, b)
        for a, b in itertools.combinations(range(n), 2)
        if len(items[a] & items[b]) > threshold
    )


class TestBuildImplicit:
    def test_strict_inequality_boundary(self):
        # two users sharing exactly c_u items must NOT be linked
        ui = [(0, i) for i in range(2)] + [(1, i) for i in range(2)]
        g = graph_from(ui=ui, counts={"user": 2, "item": 2, "group": 0})
        assert build_implicit(g, 2, 0).num_edges("UU") == 0
        assert build_implicit(g, 1, 0).num_edges("UU") == 1

    def test_zero_threshold_single_shared_item(self):
        g = graph_from(ui=[(0, 0), (1, 0)], counts={"user": 2, "item": 1, "group": 0})
        assert build_implicit(g, 0, 0).edges["UU"].tolist() == [[0, 1]]

    def test_replaces_existing_implicit_edges(self):
        g = InteractionGraph(
            {"user": 3, "item": 2, "group": 0},
            {"UI": [(0, 0)], "UU": [(1, 2)]},
        )
        out = build_implicit(g, 0, 0)
        assert out.num_edges("UU") == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_u, n_i, n_g = 6, 8, 5
        ui = sorted({(int(rng.integers(n_u)), int(rng.integers(n_i))) for _ in range(20)})
        gi = sorted({(int(rng.integers(n_g)), int(rng.integers(n_i))) for _ in range(15)})
        g = graph_from(ui=ui, gi=gi, counts={"user": n_u, "item": n_i, "group": n_g})
        c_u, c_g = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        out = build_implicit(g, c_u, c_g)
        assert out.edges["UU"].tolist() == [list(p) for p in brute_force_implicit(g, "UI", c_u)]
        assert out.edges["GG"].tolist() == [list(p) for p in brute_force_implicit(g, "GI", c_g)]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 3))
    def test_symmetry_property(self, seed, threshold):
        rng = np.random.default_rng(seed)
        ui = sorted({(int(rng.integers(10)), int(rng.integers(12))) for _ in range(30)})
        g = graph_from(ui=ui, counts={"user": 10, "item": 12, "group": 0})
        out = build_implicit(g, threshold, threshold)
        for u, v in out.edges["UU"]:
            assert u in neighbors(out, "UU", "user", v)
            assert v in neighbors(out, "UU", "user", u)


class TestSegment:
    def test_threshold_is_strict(self):
        gi = [(0, i) for i in range(12)] + [(1, i) for i in range(10)]
        g = graph_from(gi=gi, counts={"user": 0, "item": 12, "group": 2})
        split = segment(g, 10, 10, 0, 0.1)
        assert 0 in split.warm["group"]  # 12 > 10
        assert 1 in split.cold["group"]  # 10 is not > 10

    def test_cold_group_ten_edges_c10(self):
        # 10 kept edges at c=0.1 -> 1 train, 9 test
        gi = [(0, i) for i in range(10)]
        gi_ts = list(range(10))
        big_u = [(0, i) for i in range(20)]
        g = graph_from(
            ui=big_u, gi=gi, counts={"user": 1, "item": 20, "group": 1},
            ui_ts=list(range(20)), gi_ts=gi_ts,
        )
        split = tuple_split(segment(g, 10, 10, 0, 0.1))
        assert len(split.train_n["GI"]) == 1
        assert len(split.test_n["GI"]) == 9
        assert split.train_n["GI"][0] == (0, 0)  # chronologically earliest

    def test_degenerate_thresholds_all_warm(self):
        g = graph_from(
            ui=[(0, 0), (1, 1)], gi=[(0, 0)], gu=[(0, 0)],
            counts={"user": 2, "item": 2, "group": 1},
        )
        split = tuple_split(segment(g, 0, 0, 0, 0.1))
        assert split.cold == {"user": frozenset(), "item": frozenset(), "group": frozenset()}
        assert all(not v for v in split.test_n.values())

    def test_single_interaction_goes_to_train_and_flags(self):
        g = graph_from(gi=[(0, 0)], counts={"user": 0, "item": 1, "group": 1})
        split = tuple_split(segment(g, 5, 5, 5, 0.1))
        assert split.train_n["GI"] == ((0, 0),)
        assert split.test_n["GI"] == ()
        assert 0 in split.flagged["group"]

    def test_truncation_rule(self):
        # a cold group with 15 interactions keeps only the earliest 10
        gi = [(0, i) for i in range(15)]
        g = graph_from(
            gi=gi, counts={"user": 0, "item": 15, "group": 1}, gi_ts=list(range(15))
        )
        split = segment(g, 20, 0, 0, 0.3)
        kept = len(split.train_n["GI"]) + len(split.test_n["GI"])
        assert kept == COLD_ANCHOR_KEEP
        dropped_items = {b for _, b in split.dropped["GI"]}
        assert dropped_items == set(range(10, 15))

    def test_cold_item_truncation(self):
        # one cold item interacted with by 8 warm users: keeps first 5
        ui = [(u, 0) for u in range(8)] + [(u, i) for u in range(8) for i in range(1, 9)]
        g = graph_from(ui=ui, counts={"user": 8, "item": 9, "group": 0},
                       ui_ts=list(range(len(ui))))
        split = tuple_split(segment(g, 0, 5, 10, 0.1))
        assert 0 in split.cold["item"]
        ui_edges = map(tuple, g.edges["UI"].tolist())
        remaining = [e for e in ui_edges if e[1] == 0 and e not in split.dropped["UI"]]
        assert len(remaining) == COLD_ITEM_KEEP

    def test_warm_item_leakage_rule(self):
        # item 0 has 3 interactions but only 1 from a warm user: stays cold at n_i=1
        ui = [(0, i) for i in range(5)]  # user 0 warm (deg 5 > 2)
        ui += [(1, 0), (2, 0)]  # users 1, 2 cold (deg 1 each)
        ui += [(0, 0)]
        g = graph_from(ui=ui, counts={"user": 3, "item": 5, "group": 0})
        split = segment(g, 0, 2, 1, 0.1)
        assert 0 in split.warm["user"]
        assert 1 in split.cold["user"] and 2 in split.cold["user"]
        assert 0 in split.cold["item"]  # only 1 warm interaction, not > 1

    def test_partition_and_disjointness_properties(self):
        spec = SyntheticSpec(
            n_users=40, n_items=50, n_groups=15, n_clusters=3, intra_p=0.2, inter_p=0.02,
            group_size_min=2, group_size_max=4, occasional_fraction=0.5,
            occasional_scale=0.25, seed=9,
        )
        g = generate_synthetic(spec)
        split = segment(g, 4, 4, 4, 0.3)
        tg = make_training_graph(g, split)
        split = tuple_split(split)
        for kind in ("user", "item", "group"):
            assert split.warm[kind] | split.cold[kind] == frozenset(range(g.counts[kind]))
            assert not (split.warm[kind] & split.cold[kind])
        for rel in ("GI", "UI"):
            assert not (set(split.train_n[rel]) & set(split.test_n[rel]))
            kind = "group" if rel == "GI" else "user"
            for a, _ in split.test_n[rel]:
                assert a in split.cold[kind]
        # truncation invariants
        for a in split.cold["group"]:
            test_deg = sum(1 for x, _ in split.test_n["GI"] if x == a)
            assert degree(tg, "GI", "group", a) + test_deg <= COLD_ANCHOR_KEEP
        for i in split.cold["item"]:
            test_deg = sum(1 for _, b in split.test_n["GI"] if b == i)
            test_deg += sum(1 for _, b in split.test_n["UI"] if b == i)
            retained = degree(tg, "GI", "item", i) + degree(tg, "UI", "item", i) + test_deg
            assert retained <= COLD_ITEM_KEEP

    def test_manifest_roundtrip(self, tmp_path):
        spec = SyntheticSpec(n_users=20, n_items=25, n_groups=8, n_clusters=2,
                             intra_p=0.25, inter_p=0.03, group_size_min=2, group_size_max=4,
                             occasional_fraction=0.5, occasional_scale=0.3, seed=4)
        g = generate_synthetic(spec)
        split = segment(g, 3, 3, 3, 0.2)
        write_split_manifest(split, tmp_path / "split.txt")
        text = (tmp_path / "split.txt").read_text()
        assert text.startswith("coldgraph-split v1\n")
        loaded = read_split_manifest(tmp_path / "split.txt")
        assert_same_split(loaded, split)
        write_split_manifest(loaded, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_text() == text

    def test_c_percent_validation(self):
        g = graph_from(gi=[(0, 0)], counts={"user": 0, "item": 1, "group": 1})
        with pytest.raises(ValueError, match="c_percent"):
            segment(g, 1, 1, 1, 0.0)


def two_hop_oracle(graph, rel, kind, start):
    """Exhaustive 2-hop enumeration within one relation."""
    from coldgraph.graph import RELATION_KINDS

    ka, kb = RELATION_KINDS[rel]
    other = kb if kind == ka else ka
    hop1 = set(neighbors(graph, rel, kind, start))
    hop2 = set()
    for n in hop1:
        hop2.update(neighbors(graph, rel, other, n))
    return hop1, hop2


class TestSampleEpisode:
    def path_graph(self):
        # users 0-1-2-3-4 in a chain through shared items
        ui = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3)]
        return graph_from(ui=ui, counts={"user": 5, "item": 4, "group": 0})

    def test_min_rule(self):
        g = self.path_graph()
        ep = sample_episode(g, "user", [1], k=5, depth=1, seed=0)
        assert ep.first_order("UI")[0].tolist() == [2]  # deg 2 < K=5

    def test_determinism(self):
        spec = SyntheticSpec(n_users=30, n_items=40, n_groups=10, n_clusters=2,
                             intra_p=0.4, inter_p=0.05, group_size_min=2, group_size_max=4, seed=2)
        g = generate_synthetic(spec)
        a = sample_episode(g, "group", [3, 5], k=5, depth=3, seed=42)
        b = sample_episode(g, "group", [3, 5], k=5, depth=3, seed=42)
        assert a.forests.keys() == b.forests.keys()
        for rel, forest in a.forests.items():
            for kind, rows in forest.nodes.items():
                np.testing.assert_array_equal(rows, b.forests[rel].nodes[kind])
            for got, want in zip(forest.layers, b.forests[rel].layers):
                for x, y in zip(got, want):
                    np.testing.assert_array_equal(x, y)

    def test_seed_changes_sample(self):
        spec = SyntheticSpec(n_users=30, n_items=40, n_groups=10, n_clusters=2,
                             intra_p=0.5, inter_p=0.1, group_size_min=2, group_size_max=4, seed=2)
        g = generate_synthetic(spec)
        assert degree(g, "UI", "user", 0) > 2

        def first(seed):
            batch = sample_episode(g, "user", [0], k=2, depth=1, seed=seed)
            return dict_trees(batch)[0].samples["UI"].layers

        assert any(first(s) != first(0) for s in range(1, 30))

    def test_two_hop_matches_enumeration_oracle(self):
        g = self.path_graph()
        ep = sample_episode(g, "user", [2], k=2, depth=2, seed=1)
        sample = dict_trees(ep)[0].samples["UI"]
        hop1, hop2 = two_hop_oracle(g, "UI", "user", 2)
        # K=2 >= every degree here, so the sampled layers are the full hops
        assert set(sample.layers[1]) == hop1
        assert set(sample.layers[2]) == hop2
        assert len(sample.layers[2]) <= 4

    def test_layer_size_bounds(self):
        spec = SyntheticSpec(n_users=50, n_items=60, n_groups=15, n_clusters=2,
                             intra_p=0.5, inter_p=0.2, group_size_min=2, group_size_max=5, seed=3)
        g = generate_synthetic(spec)
        for idx in range(10):
            [ep] = dict_trees(sample_episode(g, "group", [idx], k=3, depth=3, seed=idx))
            for rel, sample in ep.samples.items():
                for level, layer in enumerate(sample.layers[1:], 1):
                    assert len(layer) <= 3 ** level

    def test_zero_degree_relation_empty_layers(self):
        g = graph_from(gi=[(0, 0)], gu=[(0, 0)], counts={"user": 1, "item": 1, "group": 2})
        ep = sample_episode(g, "group", [1], k=3, depth=2, seed=0)
        assert all(not layer for layer in dict_trees(ep)[0].samples["GI"].layers[1:])
        assert all(child.size == 0 for _, _, child in ep.forests["GI"].layers)

    def test_group_gu_tree_is_one_deeper(self):
        spec = SyntheticSpec(n_users=30, n_items=30, n_groups=10, n_clusters=2,
                             intra_p=0.4, inter_p=0.05, group_size_min=3, group_size_max=5, seed=5)
        g = generate_synthetic(spec)
        [ep] = dict_trees(sample_episode(g, "group", [0], k=3, depth=2, seed=0))
        assert len(ep.samples["GU"].layers) == 4  # depth 2 + member bonus
        assert len(ep.samples["GI"].layers) == 3

    def test_validation(self):
        g = self.path_graph()
        with pytest.raises(ValueError, match="at least 1"):
            sample_episode(g, "user", [0], k=0, depth=1, seed=0)
        with pytest.raises(ValueError, match="not in graph"):
            sample_episode(g, "user", [0, 99], k=1, depth=1, seed=0)


class TestGenerateSynthetic:
    def test_pure_clusters_have_no_cross_edges(self):
        spec = SyntheticSpec(n_users=20, n_items=20, n_groups=6, n_clusters=2,
                             intra_p=1.0, inter_p=0.0, group_size_min=2, group_size_max=3, seed=0)
        g = generate_synthetic(spec)
        for u, i in g.edges["UI"]:
            assert u % 2 == i % 2

    def test_same_seed_reproducible(self):
        spec = SyntheticSpec(seed=7)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        assert as_lists(a.edges) == as_lists(b.edges)
        assert as_lists(a.timestamps) == as_lists(b.timestamps)

    def test_edge_ratio_matches_probabilities_within_3_sigma(self):
        spec = SyntheticSpec(n_users=200, n_items=300, n_groups=80, n_clusters=4,
                             intra_p=0.15, inter_p=0.01, group_size_min=2, group_size_max=5, seed=0)
        g = generate_synthetic(spec)
        user_cluster = np.arange(200) % 4
        item_cluster = np.arange(300) % 4
        intra_trials = int((user_cluster[:, None] == item_cluster[None, :]).sum())
        inter_trials = 200 * 300 - intra_trials
        intra = sum(1 for u, i in g.edges["UI"] if user_cluster[u] == item_cluster[i])
        inter = g.num_edges("UI") - intra
        for count, n, p in ((intra, intra_trials, 0.15), (inter, inter_trials, 0.01)):
            sigma = np.sqrt(n * p * (1 - p))
            assert abs(count - n * p) < 3 * sigma

    def test_infeasible_group_size(self):
        spec = SyntheticSpec(n_users=4, n_items=10, n_groups=3, n_clusters=4,
                             group_size_min=2, group_size_max=5, seed=0)
        with pytest.raises(ValueError, match="infeasible"):
            generate_synthetic(spec)

    def test_timestamps_in_range(self):
        spec = SyntheticSpec(n_users=20, n_items=20, n_groups=5, n_clusters=2,
                             group_size_min=2, group_size_max=3, ts_min=5, ts_max=9, seed=0)
        g = generate_synthetic(spec)
        for rel in ("UI", "GI"):
            assert all(5 <= t <= 9 for t in g.timestamps[rel])
