"""The array negative sampler against the scalar rejection loop it replaces."""

import numpy as np
import pytest

from coldgraph import train
from coldgraph.graph import InteractionGraph
from coldgraph.train import TrainingDataError, sample_negative
from oracles import positive_sets, sample_negative_scalar


def random_graph(seed):
    """GI and UI edges at densities from sparse to nearly full, where every
    anchor lacks an item; user 0 lacks only one, so most of its draws are
    rejected."""
    rng = np.random.default_rng(seed)
    n_items = int(rng.integers(2, 40))
    n_users, n_groups = int(rng.integers(1, 12)), int(rng.integers(1, 8))
    edges = {}
    for rel, n in (("UI", n_users), ("GI", n_groups)):
        hits = rng.random((n, n_items)) < rng.choice([0.05, 0.3, 0.7])
        hits[np.arange(n), rng.integers(n_items, size=n)] = False  # every anchor has a negative
        edges[rel] = [tuple(e) for e in np.argwhere(hits).tolist()]
    edges["UI"] = [e for e in edges["UI"] if e[0] != 0] + [(0, i) for i in range(n_items) if i != seed % n_items]
    return InteractionGraph({"user": n_users, "item": n_items, "group": n_groups}, edges)


def scalar_negatives(rng, graph):
    n_items = graph.counts["item"]
    return np.array([sample_negative_scalar(rng, n_items, s) for s in positive_sets(graph)])


@pytest.mark.parametrize("seed", range(60))
def test_the_array_sampler_is_the_scalar_loop(seed):
    graph = random_graph(seed)
    pos = train._positives(graph)
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):  # the second epoch starts where the first left the stream
        want = scalar_negatives(want_rng, graph)
        got = sample_negative(got_rng, graph.counts["item"], pos.keys, pos.anchors)
        np.testing.assert_array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_long_rounds_roll_their_window_over_rejections():
    # 3,000 edges over 50 items: many windows double and restart in a round
    rng = np.random.default_rng(5)
    edges = np.argwhere(rng.random((400, 50)) < 0.15).tolist()
    graph = InteractionGraph({"user": 400, "item": 50, "group": 0}, {"UI": edges})
    pos = train._positives(graph)
    want, got_rng = scalar_negatives(np.random.default_rng(9), graph), np.random.default_rng(9)
    np.testing.assert_array_equal(sample_negative(got_rng, 50, pos.keys, pos.anchors), want)
    assert len(want) > 2_000


class AlwaysZero:
    """A stream that only ever draws item 0, counting its draws."""

    def __init__(self):
        self.draws = 0

    def integers(self, n, size=None):
        self.draws += 1 if size is None else size
        return 0 if size is None else np.zeros(size, np.int64)


def test_an_anchor_whose_10000_draws_are_positives_raises_where_the_loop_does():
    # user 1 lacks item 0, user 0 has it: user 1 gets its item on the first
    # draw, user 0 rejects every one of its 10,000
    graph = InteractionGraph({"user": 2, "item": 3, "group": 0}, {"UI": [(1, 1), (0, 0)]})
    pos = train._positives(graph)
    want, got = AlwaysZero(), AlwaysZero()
    with pytest.raises(RuntimeError, match="failed to find a candidate"):
        scalar_negatives(want, graph)
    with pytest.raises(RuntimeError, match="failed to find a candidate"):
        sample_negative(got, 3, pos.keys, pos.anchors)
    assert got.draws == want.draws == 10_001


@pytest.mark.parametrize("rel,kind", [("UI", "user"), ("GI", "group")])
def test_an_anchor_with_every_item_has_no_negative(rel, kind):
    edges = {rel: [(1, i) for i in range(4)] + [(0, 2)]}
    graph = InteractionGraph({"user": 2, "item": 4, "group": 2}, edges)
    with pytest.raises(TrainingDataError, match=f"'{kind}:1'.*every item"):
        train._positives(graph)


def test_no_anchors_draw_nothing():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert sample_negative(rng, 5, np.array([3]), np.zeros(0, np.intp)).size == 0
    assert rng.bit_generator.state == state
