"""``evaluation.evaluate`` against a brute-force per-anchor Recall@k/NDCG@k."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldgraph.evaluation import evaluate
from coldgraph.graph import EvalSplit

RELATION = {"group": "GI", "user": "UI"}


def make_split(cold, train, test, flagged):
    """An EvalSplit holding only what evaluation reads: cold anchors, their
    training and held-out items per anchor kind, and the flagged anchors."""
    kinds = ("group", "user", "item")
    return EvalSplit(
        warm={k: frozenset() for k in kinds},
        cold={k: frozenset(cold.get(k, ())) for k in kinds},
        train_n={rel: tuple(sorted(train.get(rel, ()))) for rel in RELATION.values()},
        test_n={rel: tuple(sorted(test.get(rel, ()))) for rel in RELATION.values()},
        dropped={rel: () for rel in RELATION.values()},
        flagged={k: frozenset(flagged.get(k, ())) for k in kinds},
        n_g=1,
        n_u=1,
        n_i=1,
        c_percent=0.5,
    )


def brute_force(arrays, split, k, kinds):
    """Mean Recall@k and NDCG@k, one anchor at a time over a full sort.

    Items are ranked by inner product, equal scores by ascending index, after
    removing the anchor's training items; anchors that are flagged or have
    no held-out item are skipped.
    """
    recalls, ndcgs = [], []
    for kind in kinds:
        rel = RELATION[kind]
        for a in sorted(split.cold[kind]):
            relevant = {b for x, b in split.test_n[rel] if x == a}
            if not relevant or a in split.flagged[kind]:
                continue
            seen = {b for x, b in split.train_n[rel] if x == a}
            scores = arrays["item"] @ arrays[kind][a]
            order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
            top = [i for i in order if i not in seen][:k]
            recalls.append(sum(i in relevant for i in top) / len(relevant))
            dcg = sum(1.0 / math.log2(r + 2) for r, i in enumerate(top) if i in relevant)
            idcg = sum(1.0 / math.log2(r + 2) for r in range(min(len(relevant), k)))
            ndcgs.append(dcg / idcg)
    if not recalls:
        return None, None, 0
    return sum(recalls) / len(recalls), sum(ndcgs) / len(ndcgs), len(recalls)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.booleans())
def test_matches_brute_force_oracle(seed, k, with_users):
    rng = np.random.default_rng(seed)
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
    split = make_split(cold, train, test, flagged)
    recall, ndcg, evaluated = brute_force(arrays, split, k, kinds)
    if not evaluated:
        with pytest.raises(ValueError, match="no evaluable"):
            evaluate(arrays, split, k=k, kinds=kinds)
        return
    metrics = evaluate(arrays, split, k=k, kinds=kinds)
    assert metrics.evaluated == evaluated
    assert metrics.recall_at_k == pytest.approx(recall, rel=0, abs=1e-12)
    assert metrics.ndcg_at_k == pytest.approx(ndcg, rel=0, abs=1e-12)
