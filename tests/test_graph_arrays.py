"""The array-native graph against the tuple-relation code it replaced.

``InteractionGraph`` keeps each relation as one (m, 2) edge array and one
timestamp array; normalization, implicit relations, the cold split and the
training graph are array code.  Each is checked against its edge-by-edge
original in ``oracles`` on random graphs of 1-12 nodes per kind.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import as_lists
from coldgraph.graph import (
    COLD_ANCHOR_KEEP,
    COLD_ITEM_KEEP,
    KINDS,
    RELATION_KINDS,
    RELATIONS,
    InteractionGraph,
    SyntheticSpec,
    build_implicit,
    export_edges,
    generate_synthetic,
    load_edges,
    load_graph_cache,
    make_training_graph,
    read_split_manifest,
    save_graph_cache,
    segment,
    write_split_manifest,
)


def random_case(rng):
    """Raw graph input plus split parameters, built to reach the corner cases
    that :func:`check_case` reports."""
    counts = {k: int(rng.integers(1, 13)) for k in KINDS}
    edges, stamps = {}, {}
    for rel in RELATIONS:
        ka, kb = RELATION_KINDS[rel]
        if rng.random() < 0.15:
            pairs = np.zeros((0, 2), dtype=np.intp)
        else:
            pairs = np.argwhere(rng.random((counts[ka], counts[kb])) < rng.choice([0.2, 0.5, 0.9]))
            if ka == kb:
                pairs = pairs[pairs[:, 0] != pairs[:, 1]]
                flip = rng.random(len(pairs)) < 0.5
                pairs[flip] = pairs[flip, ::-1]
            repeats = pairs[rng.integers(0, len(pairs), size=len(pairs) // 4)] if len(pairs) else pairs
            pairs = rng.permutation(np.concatenate([pairs, repeats]))
        edges[rel] = [tuple(p) for p in pairs.tolist()]
        mode = rng.choice(["none", "full", "partial"])
        if rel in ("GI", "UI") and mode != "none":
            ts = rng.integers(0, 6, size=len(pairs)).tolist()  # few values: ties
            if mode == "partial":
                ts = [None if rng.random() < 0.3 else t for t in ts]
            stamps[rel] = ts
    params = {
        "n_g": int(rng.integers(0, 13)),
        "n_u": int(rng.integers(0, 13)),
        "n_i": int(rng.integers(0, 13)),
        "c_percent": float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9, rng.uniform(0.01, 0.99)])),
    }
    return counts, edges, stamps, params, int(rng.integers(0, 3)), int(rng.integers(0, 3))


def assert_same_graph(graph, old, source=None):
    """``source`` is the graph a training graph was cut from.  A relation
    partly stamped there stays unstamped, even when the rows left after the
    cut all carry stamps (the tuple code kept those rows' stamps)."""
    assert graph.counts == old.counts
    assert as_lists(graph.edges) == {rel: [list(e) for e in v] for rel, v in old.edges.items()}
    for rel, ts in old.timestamps.items():
        if oracles.relation_timestamped(old, rel) and (
            source is None or source.timestamps[rel] is not None
        ):
            assert graph.timestamps[rel].tolist() == list(ts)
        else:  # empty, unstamped or partly stamped
            assert graph.timestamps[rel] is None


def check_case(counts, edges, stamps, params, c_u, c_g) -> set[str]:
    """Assert the array code equals the oracles on one input; returns the
    corner cases the input reached."""
    old = oracles.tuple_graph(counts, edges, stamps)
    graph = InteractionGraph(counts, edges, stamps)
    assert_same_graph(graph, old)
    old = oracles.build_implicit(old, c_u, c_g)
    graph = build_implicit(graph, c_u, c_g)
    assert_same_graph(graph, old)
    old_split = oracles.segment(old, **params)
    split = segment(graph, **params)
    oracles.assert_same_split(split, old_split)
    assert_same_graph(
        make_training_graph(graph, split), oracles.make_training_graph(old, old_split), graph
    )

    seen = set()
    for rel, raw in edges.items():
        if not raw:
            seen.add("empty relation")
        if len(old.edges[rel]) < len(raw) and rel not in ("UU", "GG"):
            seen.add("duplicate rows")
        if rel in ("UU", "GG") and any(a > b for a, b in raw):
            seen.add("reversed same-kind pair")
    stamped = [rel for rel in ("GI", "UI") if oracles.relation_timestamped(old, rel)]
    seen.add({0: "no timestamps", 1: "one of GI/UI timestamped", 2: "both timestamped"}[len(stamped)])
    for rel in stamped:
        anchor_times = [(a, t) for (a, _), t in zip(old.edges[rel], old.timestamps[rel])]
        if len(set(anchor_times)) < len(anchor_times):
            seen.add("timestamp ties")
    if any(None in ts and any(t is not None for t in ts) for ts in stamps.values()):
        seen.add("partly stamped relation")
    anchor_dropped = set()
    split = oracles.tuple_split(split)
    for rel, kind in (("GI", "group"), ("UI", "user")):
        chrono = oracles.chronological(old, rel)
        for a in split.cold[kind]:
            anchor_dropped.update((rel, e) for e in chrono.get(a, [])[COLD_ANCHOR_KEEP:])
            if len(chrono.get(a, [])) > COLD_ANCHOR_KEEP:
                seen.add("anchor over 10 edges")
            n = sum(x == a for x, _ in split.train_n[rel] + split.test_n[rel])
            if n <= 2:
                seen.add(f"anchor with {n} retained")
            if n >= 2 and math.ceil(params["c_percent"] * n) >= n:
                seen.add("ceil reaches n")
    for i in split.cold["item"]:
        survivors = [
            (rel, e) for rel in ("GI", "UI") for e in old.edges[rel]
            if e[1] == i and (rel, e) not in anchor_dropped
        ]
        if len(survivors) > COLD_ITEM_KEEP:
            seen.add("cold item over 5 survivors")
    return seen


CORNER_CASES = {
    "empty relation",
    "duplicate rows",
    "reversed same-kind pair",
    "no timestamps",
    "one of GI/UI timestamped",
    "both timestamped",
    "timestamp ties",
    "partly stamped relation",
    "anchor over 10 edges",
    "anchor with 0 retained",
    "anchor with 1 retained",
    "anchor with 2 retained",
    "ceil reaches n",
    "cold item over 5 survivors",
}


def test_fixed_cases_match_the_oracles_and_reach_every_corner():
    seen = set()
    for seed in range(150):
        seen |= check_case(*random_case(np.random.default_rng(seed)))
    assert CORNER_CASES <= seen, CORNER_CASES - seen


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_random_graphs_match_the_oracles(seed):
    check_case(*random_case(np.random.default_rng(seed)))


@pytest.mark.parametrize(
    "rel, raw, message",
    [
        ("UI", [(0, 99), (-1, 0)], "UI: endpoint 99 out of range for kind item"),
        ("UI", [(-1, 0), (0, 99)], "UI: endpoint -1 out of range for kind user"),
        ("UU", [(1, 1), (0, 9)], "UU: self-loop on node 1"),
        ("UU", [(0, 9), (1, 1)], "UU: endpoint 9 out of range for kind user"),
    ],
)
def test_error_names_the_first_bad_edge_in_input_order(rel, raw, message):
    counts = {"user": 2, "item": 2, "group": 2}
    with pytest.raises(ValueError, match=message):
        oracles.tuple_graph(counts, {rel: raw})
    with pytest.raises(ValueError, match=message):
        InteractionGraph(counts, {rel: raw})


def test_relations_are_read_only():
    g = InteractionGraph({"user": 2, "item": 2, "group": 0}, {"UI": [(0, 1), (1, 0)]}, {"UI": [5, 6]})
    with pytest.raises(ValueError, match="read-only"):
        g.edges["UI"][0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        g.timestamps["UI"][0] = 1


def test_manifest_matches_the_line_by_line_writer(tmp_path):
    for seed in range(20):
        counts, edges, stamps, params, c_u, c_g = random_case(np.random.default_rng(seed))
        old = oracles.build_implicit(oracles.tuple_graph(counts, edges, stamps), c_u, c_g)
        want = oracles.split_manifest_text(oracles.segment(old, **params))
        split = segment(build_implicit(InteractionGraph(counts, edges, stamps), c_u, c_g), **params)
        write_split_manifest(split, tmp_path / "split.txt")
        assert (tmp_path / "split.txt").read_text() == want
        oracles.assert_same_split(read_split_manifest(tmp_path / "split.txt"), split)


def test_split_arrays_are_read_only():
    g = build_implicit(generate_synthetic(SyntheticSpec(seed=2, occasional_fraction=0.5,
                                                        occasional_scale=0.1)), 3, 1)
    split = segment(g, 5, 15, 5, 0.3)
    for name in ("warm", "cold", "flagged", "train_n", "test_n", "dropped"):
        for key, arr in getattr(split, name).items():
            assert arr.dtype == np.intp and not arr.flags.writeable, (name, key)
            if arr.size:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0
    assert all(getattr(split, name)[k].size for name in ("warm", "cold") for k in KINDS)
    assert all(getattr(split, name)[rel].size for name in ("train_n", "test_n") for rel in ("GI", "UI"))


def test_split_stores_sorted_arrays():
    split = oracles.eval_split(
        warm={"user": [3, 1, 3]}, train_n={"GI": [(2, 5), (0, 7), (2, 1)]}, test_n={"UI": []}
    )
    assert split.warm["user"].tolist() == [1, 3]
    assert split.train_n["GI"].tolist() == [[0, 7], [2, 1], [2, 5]]
    assert split.test_n["UI"].shape == (0, 2) and split.cold["item"].shape == (0,)


def test_cache_roundtrip_with_an_empty_relation(tmp_path):
    spec = SyntheticSpec(n_users=20, n_items=25, n_groups=8, n_clusters=2, intra_p=0.3,
                         inter_p=0.02, group_size_min=2, group_size_max=4, seed=3)
    g = build_implicit(generate_synthetic(spec), 1, 1_000)
    assert g.num_edges("GG") == 0 and g.num_edges("UU") > 0
    save_graph_cache(g, tmp_path)
    assert (tmp_path / "group_group.tsv").read_text() == ""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty file is an empty relation, no warning
        loaded = load_graph_cache(tmp_path)
    assert loaded.counts == g.counts
    assert as_lists(loaded.edges) == as_lists(g.edges)
    assert as_lists(loaded.timestamps) == as_lists(g.timestamps)
    assert g.timestamps["UI"] is not None and g.timestamps["GG"] is None


def test_partly_stamped_file_loads_unstamped(tmp_path):
    # only a fully stamped relation keeps its timestamps; export then writes none
    (tmp_path / "user_item.tsv").write_text("u1\ti1\t10\nu1\ti2\nu2\ti1\t3\n")
    (tmp_path / "group_item.tsv").write_text("g1\ti1\t7\ng1\ti2\t5\n")
    (tmp_path / "group_user.tsv").write_text("g1\tu1\n")
    g, _ = load_edges(*(tmp_path / n for n in ("user_item.tsv", "group_item.tsv", "group_user.tsv")))
    assert g.timestamps["UI"] is None
    assert g.timestamps["GI"].tolist() == [7, 5]
    export_edges(g, tmp_path / "out")
    assert (tmp_path / "out" / "user_item.tsv").read_text() == "0\t0\n0\t1\n1\t0\n"
    assert (tmp_path / "out" / "group_item.tsv").read_text() == "0\t0\t7\n0\t1\t5\n"
