"""Properties of the hashed-key episode sampler over random small graphs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldgraph import graph as graph_mod
from coldgraph.graph import KINDS, InteractionGraph, build_implicit, sample_episode
from oracles import dict_trees, neighbors, truth_table


@st.composite
def small_graphs(draw):
    """Random graphs of up to 10 nodes per kind, with implicit UU/GG edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_u, n_i, n_g = (draw(st.integers(1, 10)) for _ in range(3))
    p = draw(st.sampled_from([0.1, 0.4, 0.8]))

    def pairs(a, b):
        return [(int(x), int(y)) for x, y in np.argwhere(rng.random((a, b)) < p)]

    g = InteractionGraph(
        {"user": n_u, "item": n_i, "group": n_g},
        {"UI": pairs(n_u, n_i), "GI": pairs(n_g, n_i), "GU": pairs(n_g, n_u)},
    )
    return build_implicit(g, draw(st.integers(0, 1)), draw(st.integers(0, 1)))


def expected_children(graph, rel, seed, kind, target, parent_kind, parent, k):
    """The k neighbors with the smallest keys, per node: no depth, no batch."""
    neigh = np.array(neighbors(graph, rel, parent_kind, parent), dtype=np.intp)
    if neigh.size <= k:
        return tuple(neigh.tolist())
    keys = graph_mod._episode_keys(
        seed, kind, rel, parent_kind, np.full(neigh.size, target), np.full(neigh.size, parent), neigh
    )
    return tuple(sorted(neigh[np.argsort(keys)[:k]].tolist()))


def row_trees(forest, n):
    """The tree of every row of each kind, read off the edges."""
    trees = {kind: np.full(rows.size, -1) for kind, rows in forest.nodes.items()}
    trees[forest.kinds[0]][:n] = np.arange(n)
    for (tree, _, child), kind in zip(forest.layers, forest.kinds[1:]):
        assert np.all((trees[kind][child] == -1) | (trees[kind][child] == tree))
        trees[kind][child] = tree
    return trees


def assert_same_tree(a, b):
    assert a.samples.keys() == b.samples.keys()
    for rel in a.samples:
        assert a.samples[rel].layers == b.samples[rel].layers
        assert a.samples[rel].children == b.samples[rel].children


@settings(max_examples=80, deadline=None)
@given(
    small_graphs(),
    st.sampled_from(KINDS),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2 ** 64 - 1),
    st.data(),
)
def test_sampler_properties(graph, kind, k, depth, seed, data):
    n_kind = graph.counts[kind]
    targets = data.draw(st.lists(st.integers(0, n_kind - 1), max_size=6))
    batch = sample_episode(graph, kind, targets, k, depth, seed)
    n = len(targets)
    assert len(batch) == n and batch.kind == kind
    for rel, forest in batch.forests.items():
        bonus = rel == "GU" and kind == "group"
        assert len(forest.layers) == depth + bonus  # the GU depth bonus
        np.testing.assert_array_equal(forest.nodes[kind][:n], targets)
        trees = row_trees(forest, n)
        for rows_kind, rows in forest.nodes.items():
            assert np.all(trees[rows_kind] >= 0)  # every row was reached
            keys = trees[rows_kind] * graph.counts[rows_kind] + rows
            assert np.unique(keys).size == keys.size  # one row per (tree, node)
        for (tree, parent, child), parent_kind, child_kind in zip(
            forest.layers, forest.kinds, forest.kinds[1:]
        ):
            assert np.all(np.diff(parent) >= 0)  # grouped by parent
            assert np.all(np.bincount(parent) <= k)
            for p in np.unique(parent):
                mine = parent == p
                t = int(tree[mine][0])
                got = tuple(forest.nodes[child_kind][child[mine]].tolist())
                node = int(forest.nodes[parent_kind][p])
                # the k smallest keys of the node's neighbors, whatever its
                # depth, and every neighbor when it has at most k
                assert got == expected_children(graph, rel, seed, kind, targets[t], parent_kind, node, k)
    dicts = dict_trees(batch)
    for ep in dicts:
        for sample in ep.samples.values():
            assert all(len(set(layer)) == len(layer) for layer in sample.layers)
    # a target's tree is the same alone or in a batch, at any depth
    for b, target in enumerate(targets):
        assert_same_tree(dicts[b], dict_trees(sample_episode(graph, kind, [target], k, depth, seed))[0])
    shallow = sample_episode(graph, kind, targets, k, 1, seed)
    for rel in batch.forests:
        for x, y in zip(shallow.first_order(rel), batch.first_order(rel)):
            np.testing.assert_array_equal(x, y)


@settings(max_examples=80, deadline=None)
@given(
    small_graphs(),
    st.sampled_from(KINDS),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2 ** 64 - 1),
    st.data(),
)
def test_rows_are_numbered_by_first_reach_depth(graph, kind, k, depth, seed, data):
    # the invariant that lets a propagation step keep a row prefix per kind
    targets = data.draw(st.lists(st.integers(0, graph.counts[kind] - 1), max_size=6))
    batch = sample_episode(graph, kind, targets, k, depth, seed)
    for forest in batch.forests.values():
        top = len(forest.layers)
        first = {c: np.full(rows.size, top + 1) for c, rows in forest.nodes.items()}
        first[kind][: len(targets)] = 0
        for level, ((_, _, child), child_kind) in enumerate(zip(forest.layers, forest.kinds[1:])):
            np.minimum.at(first[child_kind], child, level + 1)
        assert forest.prefix.keys() == forest.nodes.keys()
        for c, reached in first.items():
            assert len(forest.prefix[c]) == top + 1
            for level, count in enumerate(forest.prefix[c]):
                # the rows first reached at depth <= level are rows 0..count-1
                np.testing.assert_array_equal(np.flatnonzero(reached <= level), np.arange(count))
        for level, ((_, parent, _), parent_kind) in enumerate(zip(forest.layers, forest.kinds)):
            lo = forest.prefix[parent_kind][level - 1] if level else 0
            assert np.all(np.diff(parent) >= 0)  # grouped, ascending
            assert np.all((parent >= lo) & (parent < forest.prefix[parent_kind][level]))


def test_no_member_bonus():
    g = InteractionGraph({"user": 3, "item": 1, "group": 1}, {"GU": [(0, 0), (0, 1)]})
    batch = sample_episode(g, "group", [0], 2, 2, 0, member_depth_bonus=False)
    assert len(batch.forests["GU"].layers) == 2


def test_empty_relation_gives_empty_layers():
    g = InteractionGraph({"user": 4, "item": 3, "group": 2}, {"UI": [(0, 0), (1, 0), (2, 1)]})
    batch = sample_episode(g, "user", [0, 1, 3], 2, 3, 7)
    forest = batch.forests["UU"]  # no implicit edges were built
    assert all(child.size == 0 for _, _, child in forest.layers)
    np.testing.assert_array_equal(forest.nodes["user"], [0, 1, 3])
    assert batch.first_order("UU")[0].tolist() == [0, 0, 0]
    assert batch.first_order("UI")[0].tolist() == [1, 1, 0]


def test_empty_batch():
    g = InteractionGraph({"user": 2, "item": 1, "group": 0}, {"UI": [(0, 0), (1, 0)]})
    batch = sample_episode(g, "item", [], 1, 2, 0)
    assert len(batch) == 0 and batch.edge_count() == 0
    assert truth_table(None, {}, d=2).lookup("item", batch.targets).shape == (0, 2)


def test_hub_inclusion_rate_is_k_over_degree():
    deg, k, runs = 19, 5, 2000
    g = InteractionGraph({"user": deg, "item": 1, "group": 0}, {"UI": [(u, 0) for u in range(deg)]})
    counts = np.zeros(deg)
    for seed in range(runs):
        batch = sample_episode(g, "item", [0], k, 1, seed)
        _, child = batch.first_order("UI")
        assert child.size == k
        counts[batch.forests["UI"].nodes["user"][child]] += 1
    p = k / deg
    bound = 4.5 * np.sqrt(runs * p * (1 - p))
    assert np.all(np.abs(counts - runs * p) < bound), counts / runs


@pytest.mark.parametrize(
    "args, want",
    [
        ((0, "group", "GU", "user", [0, 7], [3, 3], [1, 2]), [9387469538406149306, 10729453286938011706]),
        ((2 ** 31 - 1, "user", "UU", "user", [5], [9], [11]), [10613822714456046857]),
        ((2 ** 64 - 1, "item", "UI", "item", [4], [4], [0]), [2828445093316916237]),
        (
            (4242, "group", "GI", "group", [1, 1, 1], [1, 1, 1], [0, 1, 2]),
            [6848178138295661862, 17193202940535249898, 5456615949537482721],
        ),
    ],
)
def test_golden_keys(args, want):
    # pinned so that a change in the mixing or in numpy's integer promotion
    # cannot silently redraw every tree
    keys = graph_mod._episode_keys(*args)
    assert keys.dtype == np.uint64
    assert keys.tolist() == want
