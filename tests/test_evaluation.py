"""``evaluation.evaluate`` against a brute-force per-anchor Recall@k/NDCG@k,
and the complexity report's figures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldgraph import evaluation
from coldgraph.evaluation import _top_k, evaluate
from coldgraph.train import EpochStats, TrainHistory
from oracles import eval_split, tuple_split

RELATION = {"group": "GI", "user": "UI"}


def make_split(cold, train, test, flagged):
    """An EvalSplit holding only what evaluation reads: cold anchors, their
    training and held-out items per anchor kind, and the flagged anchors."""
    return eval_split(cold=cold, train_n=train, test_n=test, flagged=flagged)


def anchor_items(split, kind):
    """Per cold anchor: (its training items, its held-out items), one edge at a time."""
    rel = RELATION[kind]
    split = tuple_split(split)
    return {
        a: ({b for x, b in split.train_n[rel] if x == a}, {b for x, b in split.test_n[rel] if x == a})
        for a in sorted(split.cold[kind])
    }


def brute_force(arrays, split, k, kinds):
    """Per evaluated anchor (kind, anchor, recall, ndcg, test items), one
    anchor at a time over a full sort.

    Items are ranked by inner product, equal scores by ascending index, after
    removing the anchor's training items; anchors that are flagged or have
    no held-out item are skipped.
    """
    rows = []
    for kind in kinds:
        flagged = tuple_split(split).flagged[kind]
        for a, (seen, relevant) in anchor_items(split, kind).items():
            if not relevant or a in flagged:
                continue
            scores = arrays["item"] @ arrays[kind][a]
            order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
            top = [i for i in order if i not in seen][:k]
            recall = sum(i in relevant for i in top) / len(relevant)
            dcg = sum(1.0 / math.log2(r + 2) for r, i in enumerate(top) if i in relevant)
            idcg = sum(1.0 / math.log2(r + 2) for r in range(min(len(relevant), k)))
            rows.append((kind, a, recall, dcg / idcg, len(relevant)))
    return rows


def corners(arrays, split, k, kinds):
    """The corner cases an input reaches among its evaluated anchors."""
    seen_cases = set()
    for kind in kinds:
        flagged = tuple_split(split).flagged[kind]
        for a, (seen, relevant) in anchor_items(split, kind).items():
            if relevant and a in flagged:
                seen_cases.add("flagged anchor")
            if not relevant or a in flagged:
                continue
            rankable = [i for i in range(len(arrays["item"])) if i not in seen]
            scores = arrays["item"][rankable] @ arrays[kind][a]
            if len(set(scores.tolist())) < len(scores):
                seen_cases.add("score tie")
            if seen:
                seen_cases.add("exclusion")
            if k > len(rankable):
                seen_cases.add("k beyond the rankable items")
            if kind == "user":
                seen_cases.add("user anchor")
    return seen_cases


def check(arrays, split, k, kinds=("group",)):
    """Assert ``evaluate`` equals the brute force on one input; returns the
    corner cases the input reached."""
    want = brute_force(arrays, split, k, kinds)
    if not want:
        with pytest.raises(ValueError, match="no evaluable"):
            evaluate(arrays, split, k=k, kinds=kinds)
        return corners(arrays, split, k, kinds)
    metrics = evaluate(arrays, split, k=k, kinds=kinds)
    assert metrics.evaluated == len(want)
    assert [(kind, a, n) for kind, a, _, _, n in metrics.per_node] == [
        (kind, a, n) for kind, a, _, _, n in want
    ]
    got = np.array([row[2:4] for row in metrics.per_node])
    np.testing.assert_allclose(got, [row[2:4] for row in want], rtol=0, atol=1e-12)
    assert metrics.recall_at_k == pytest.approx(np.mean([r[2] for r in want]), rel=0, abs=1e-12)
    assert metrics.ndcg_at_k == pytest.approx(np.mean([r[3] for r in want]), rel=0, abs=1e-12)
    return corners(arrays, split, k, kinds)


def check_top_k(scores, k):
    got = _top_k(scores.copy(), k)
    np.testing.assert_array_equal(got, np.argsort(-scores, axis=1, kind="stable")[:, :k])


class TestTopK:
    """The partial top-k selection against a stable argsort of whole rows."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 12), st.integers(1, 14), st.integers(0, 4), st.integers(0, 10_000))
    def test_matches_stable_argsort(self, rows, cols, k, levels, seed):
        # few distinct levels give heavy ties, also across the k-th place;
        # -inf cells are the masked training items
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, levels, (rows, cols)).astype(float) if levels else rng.normal(size=(rows, cols))
        scores[rng.random((rows, cols)) < 0.3] = -np.inf
        check_top_k(scores, k)

    def test_ties_across_the_kth_place(self):
        scores = np.array([[1.0, 3.0, 2.0, 2.0, 0.0, 2.0, 2.0], [2.0] * 7])
        for k in range(1, 8):
            check_top_k(scores, k)

    def test_rows_with_fewer_than_k_unseen_items(self):
        scores = np.array([[-np.inf, 0.5, -np.inf, -np.inf, 0.5], [0.1, -np.inf, 0.3, 0.2, -np.inf]])
        check_top_k(scores, 3)
        check_top_k(np.full((2, 4), -np.inf), 2)

    def test_k_at_or_beyond_the_item_count(self):
        scores = np.array([[0.0, 2.0, 2.0, -np.inf], [1.0, 1.0, 0.0, 3.0]])
        for k in (4, 5, 20):
            check_top_k(scores, k)

    def test_nan_scores_sort_last(self):
        scores = np.array([[np.nan, 1.0, np.nan, 0.5, 2.0], [np.nan, np.nan, 1.0, np.nan, np.nan]])
        for k in (1, 2, 3):
            check_top_k(scores, k)

    def test_large_rows(self):
        rng = np.random.default_rng(7)
        scores = np.round(rng.normal(size=(50, 3000)), 2)  # many ties among 3000 items
        scores[rng.random(scores.shape) < 0.01] = -np.inf
        for k in (1, 20, 150):
            check_top_k(scores, k)


def test_hand_computed_ranking_with_ties():
    # scores of items 0..4 for group 0: 2, 1, 2, 0, 2; item 0 is a training
    # item, so the ranking is 2, 4 (tie, lower index first), 1, 3
    arrays = {
        "group": np.array([[1.0, 0.0]]),
        "user": np.zeros((1, 2)),
        "item": np.array([[2.0, 0.0], [1.0, 5.0], [2.0, 1.0], [0.0, 3.0], [2.0, -1.0]]),
    }
    split = make_split({"group": [0]}, {"GI": [(0, 0)]}, {"GI": [(0, 4), (0, 3)]}, {})
    metrics = evaluate(arrays, split, k=2)
    assert metrics.recall_at_k == pytest.approx(0.5)
    assert metrics.ndcg_at_k == pytest.approx((1 / math.log2(3)) / (1 + 1 / math.log2(3)))
    assert metrics.evaluated == 1


def test_a_held_out_training_item_is_never_a_hit():
    # a hand-edited split can list one edge as training and as test: the
    # item stays out of the ranking, so it counts as held out but is never hit
    arrays = {"group": np.array([[1.0]]), "item": np.array([[3.0], [2.0], [1.0]])}
    split = make_split({"group": [0]}, {"GI": [(0, 0)]}, {"GI": [(0, 0), (0, 2)]}, {})
    assert check(arrays, split, k=5) >= {"exclusion", "k beyond the rankable items"}
    (_, _, recall, ndcg, n_test), = evaluate(arrays, split, k=5).per_node
    assert (recall, n_test) == (0.5, 2)
    assert ndcg == pytest.approx((1 / math.log2(3)) / (1 + 1 / math.log2(3)), rel=0, abs=1e-15)


def orthogonal_shift_case():
    # every item is orthogonal to e3, so shifting the user along e3 keeps
    # every score and thus the ranking: users 2j and 2j + 1 are the user and
    # its shift, and item j is their one held-out item, so their NDCG gives
    # the rank of item j
    rng = np.random.default_rng(0)
    items = rng.normal(size=(10, 4))
    items[:, 3] = 0.0
    user = rng.normal(size=4)
    users = np.stack([user, user + np.array([0.0, 0.0, 0.0, 5.0])] * 10)
    arrays = {"group": np.zeros((1, 4)), "user": users, "item": items}
    test = [(2 * j + shifted, j) for j in range(10) for shifted in (0, 1)]
    return arrays, make_split({"user": range(20)}, {}, {"UI": test}, {}), 10, ("user",)


# The ranking cases of the per-anchor ranker that evaluation replaced, each
# with the (recall, ndcg) per anchor that only the right ranking gives and
# the corner cases it must reach.
SCORE_CASES = {
    # all-zero items tie at score 0 and ties break toward the lower index;
    # item 1 is excluded, so the ranking is 0, 2, 3 and k=4 exceeds it
    "zero_right": (
        {"group": np.array([[1.0, 2.0]]), "item": np.zeros((4, 2))},
        make_split({"group": [0]}, {"GI": [(0, 1)]}, {"GI": [(0, 3)]}, {}),
        4,
        ("group",),
        [(1.0, 1 / math.log2(4))],
        {"score tie", "exclusion", "k beyond the rankable items"},
    ),
    # scores 11, 1, 2: the ranking is 0, 2, 1
    "inner_product": (
        {"group": np.array([[1.0, 2.0]]), "item": np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 1.0]])},
        make_split({"group": [0]}, {}, {"GI": [(0, 2)]}, {}),
        3,
        ("group",),
        [(1.0, 1 / math.log2(3))],
        set(),
    ),
    "orthogonal_shift": (*orthogonal_shift_case(), None, {"user anchor"}),
}


@pytest.mark.parametrize("name", list(SCORE_CASES))
def test_score_case(name):
    arrays, split, k, kinds, want, reached = SCORE_CASES[name]
    assert reached <= check(arrays, split, k, kinds)
    per_node = [row[2:4] for row in evaluate(arrays, split, k=k, kinds=kinds).per_node]
    if want is None:  # each user ranks every item where its shift does
        assert per_node[0::2] == per_node[1::2]
        assert len(set(per_node)) == 10
    else:
        assert per_node == pytest.approx(want, rel=0, abs=1e-15)


def random_case(rng, k, with_users):
    n_items, d = int(rng.integers(3, 12)), 3
    kinds = ("group", "user") if with_users else ("group",)
    # small integer embeddings make equal scores common
    arrays = {kind: rng.integers(-1, 2, size=(6, d)).astype(float) for kind in ("group", "user")}
    arrays["item"] = rng.integers(-1, 2, size=(n_items, d)).astype(float)
    cold, train, test, flagged = {}, {}, {}, {}
    for kind in ("group", "user"):
        rel = RELATION[kind]
        cold[kind] = [a for a in range(6) if rng.random() < 0.8]
        flagged[kind] = [a for a in cold[kind] if rng.random() < 0.2]
        train[rel], test[rel] = [], []
        for a in cold[kind]:
            items = rng.permutation(n_items)
            n_train = int(rng.integers(0, n_items))
            n_test = int(rng.integers(0, n_items - n_train + 1))
            train[rel] += [(a, int(i)) for i in items[:n_train]]
            test[rel] += [(a, int(i)) for i in items[n_train : n_train + n_test]]
    return arrays, make_split(cold, train, test, flagged), k, kinds


CORNER_CASES = {
    "score tie",
    "exclusion",
    "flagged anchor",
    "user anchor",
    "k beyond the rankable items",
}


def test_fixed_cases_match_brute_force_and_reach_every_corner():
    reached = set()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        reached |= check(*random_case(rng, int(rng.integers(1, 9)), seed % 2 == 0))
    assert CORNER_CASES <= reached, CORNER_CASES - reached


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.booleans())
def test_matches_brute_force_oracle(seed, k, with_users):
    check(*random_case(np.random.default_rng(seed), k, with_users))


def float_case(seed):
    """Many anchors over Gaussian embeddings, so few scores tie."""
    rng = np.random.default_rng(seed)
    n, n_items = 30, 50
    arrays = {kind: rng.normal(size=(n, 8)) for kind in ("group", "user")}
    arrays["item"] = rng.normal(size=(n_items, 8))
    train = {rel: [(a, int(i)) for a in range(n) for i in rng.choice(n_items, 5, replace=False)]
             for rel in ("GI", "UI")}
    test = {rel: [(a, int(i)) for a in range(n) for i in rng.choice(n_items, 3, replace=False)]
            for rel in ("GI", "UI")}
    cold = {kind: list(range(0, n, 2)) for kind in ("group", "user")}
    return arrays, make_split(cold, train, test, {"group": [4], "user": []}), 10, ("group", "user")


@pytest.mark.parametrize("rows", [1, 2, 7])
def test_anchor_row_blocks_give_the_metrics_of_one_block(monkeypatch, rows):
    cases = [random_case(np.random.default_rng(seed), 1 + seed % 8, seed % 2 == 0) for seed in range(40)]
    cases += [float_case(seed) for seed in range(3)]
    compared = 0
    for arrays, split, k, kinds in cases:
        if not brute_force(arrays, split, k, kinds):
            continue
        whole = evaluate(arrays, split, k=k, kinds=kinds)  # every case fits in one block
        with monkeypatch.context() as m:
            m.setattr(evaluation, "_SCORE_BLOCK_CELLS", rows * len(arrays["item"]))
            assert evaluate(arrays, split, k=k, kinds=kinds) == whole
        compared += 1
    assert compared > 20


class TestConvergenceEpoch:
    """The first epoch that ends ``streak`` consecutive epochs of relative
    improvement below ``tol``, or the last epoch when none does."""

    def test_a_streak_ends_at_its_third_stalled_epoch(self):
        assert evaluation.convergence_epoch([10.0, 5.0, 5.0, 5.0, 5.0, 1.0]) == 5

    def test_an_improvement_restarts_the_streak(self):
        assert evaluation.convergence_epoch([10.0, 10.0, 10.0, 5.0, 5.0, 5.0, 5.0]) == 7
        assert evaluation.convergence_epoch([1.0, 1.0, 1.0, 1.0], streak=2) == 3

    def test_tolerance_is_relative_and_strict(self):
        totals = [100.0, 99.0, 98.0, 97.0, 96.0]  # improvements of 1.00% to 1.03%
        assert evaluation.convergence_epoch(totals, tol=0.02) == 4
        assert evaluation.convergence_epoch(totals, tol=0.01) == len(totals)
        halving = [8.0, 4.0, 2.0, 1.0, 0.5]  # improvements of exactly 0.5
        assert evaluation.convergence_epoch(halving, tol=0.5) == len(halving)
        assert evaluation.convergence_epoch(halving, tol=0.51) == 4

    def test_a_rising_or_zero_loss_counts_as_stalled(self):
        assert evaluation.convergence_epoch([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) == 4
        assert evaluation.convergence_epoch([0.0, 0.0, 0.0, 0.0, 5.0]) == 4

    def test_falls_back_to_the_last_epoch(self):
        assert evaluation.convergence_epoch([3.0, 2.0, 1.0]) == 3
        assert evaluation.convergence_epoch([8.0, 4.0, 2.0, 1.0, 0.5]) == 5
        assert evaluation.convergence_epoch([]) == 0


def history(totals, seconds):
    return TrainHistory([EpochStats(i + 1, t, 0.0, t, s) for i, (t, s) in enumerate(zip(totals, seconds))])


class TestComplexityReport:
    def test_masked_mean_and_max(self):
        base, ssl = history([2.0, 1.0], [1.0, 1.0]), history([3.0, 2.0, 1.0], [2.0, 2.0, 2.0])
        report = evaluation.complexity_report(ssl, base, 400, [10, 30, 20])
        assert (report.total_edges, report.masked_edges_mean, report.masked_edges_max) == (400, 20.0, 30)
        assert report.masked_ratio == 20.0 / 400
        assert (report.base_convergence_epoch, report.ssl_convergence_epoch) == (2, 3)

    def test_no_masked_counts_read_as_zero(self):
        base = history([2.0, 1.0], [1.0, 1.0])
        report = evaluation.complexity_report(base, base, 400, [])
        assert (report.masked_edges_mean, report.masked_edges_max, report.masked_ratio) == (0.0, 0, 0.0)

    def test_time_ratio_of_the_mean_epoch_seconds(self):
        base, ssl = history([2.0, 1.0], [1.0, 3.0]), history([2.0, 1.0, 0.5], [3.0, 5.0, 7.0])
        report = evaluation.complexity_report(ssl, base, 400, [5, 5, 5])
        assert (report.base_epoch_seconds, report.ssl_epoch_seconds, report.time_ratio) == (2.0, 5.0, 2.5)
        row = dict(zip(*(line.split(",") for line in report.to_csv().splitlines())))
        assert float(row["time_ratio"]) == 2.5 and row["total_edges"] == "400"
        assert "800 + 5/epoch masked" in report.to_text()

    def test_zero_denominators_give_infinite_ratios(self):
        base, ssl = history([2.0, 1.0], [0.0, 0.0]), history([2.0, 1.0], [1.0, 1.0])
        report = evaluation.complexity_report(ssl, base, 0, [3, 3])
        assert report.time_ratio == math.inf and report.masked_ratio == math.inf

    def test_missing_history_is_rejected(self):
        with pytest.raises(ValueError, match="missing history"):
            evaluation.complexity_report(TrainHistory(), history([1.0], [1.0]), 10, [1])
