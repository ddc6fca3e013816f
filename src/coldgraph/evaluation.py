"""Full-catalogue ranking metrics and the complexity report.

Evaluation follows the cold-start protocol: each cold group is embedded from
its few training-time edges only, ranks the full item catalogue minus those
training positives, and is scored against its held-out test items with
Recall@k and binary-relevance NDCG@k.  The anchors of a kind are ranked a
block of rows at a time (:data:`_SCORE_BLOCK_CELLS` anchor-item cells per
block): one score matrix per block, the training positives masked to -inf,
each row's top k by one partial selection and a stable sort of those k
(equal scores keep the lower item index first), and the metrics from the
block's matrix of hits.  A row's metrics read only its own row, so a
kind takes the memory of one block of anchors × items, not of all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .graph import EvalSplit

ANCHOR_RELATION = {"group": "GI", "user": "UI"}


@dataclass
class Metrics:
    recall_at_k: float
    ndcg_at_k: float
    k: int
    evaluated: int
    per_node: list[tuple[str, int, float, float, int]] = field(default_factory=list)

    def to_csv(self, seed: int) -> str:
        header = "seed,k,recall,ndcg,evaluated"
        row = f"{seed},{self.k},{self.recall_at_k!r},{self.ndcg_at_k!r},{self.evaluated}"
        return header + "\n" + row + "\n"

    def per_node_csv(self) -> str:
        lines = ["kind,index,recall,ndcg,test_items"]
        for kind, idx, rec, ndcg, n_test in self.per_node:
            lines.append(f"{kind},{idx},{rec!r},{ndcg!r},{n_test}")
        return "\n".join(lines) + "\n"


#: anchor-item cells scored, masked and ranked at once: a block holds
#: max(1, _SCORE_BLOCK_CELLS // n_items) anchors
_SCORE_BLOCK_CELLS = 2**20


def _anchor_matrix(anchors: np.ndarray, edges: np.ndarray, n_items: int) -> np.ndarray:
    """Boolean (anchor, item) matrix of the ``edges`` rows whose anchor is one
    of the sorted ``anchors``; items outside the catalogue are left out."""
    mine = np.isin(edges[:, 0], anchors) & (edges[:, 1] >= 0) & (edges[:, 1] < n_items)
    out = np.zeros((anchors.size, n_items), dtype=bool)
    out[np.searchsorted(anchors, edges[mine, 0]), edges[mine, 1]] = True
    return out


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k highest scores, highest first and
    equal scores by ascending column: ``np.argsort(-scores, axis=1,
    kind="stable")[:, :k]`` without sorting whole rows."""
    if k < scores.shape[1]:
        neg = -scores  # the argsort's order, NaN last; one copy, partitioned in place
        neg.partition(k - 1, axis=1)
        kth = -neg[:, k - 1, None]  # each row's k-th highest score
        del neg
        if not np.isnan(kth).any():  # only a row short of k numbers ranks a NaN
            rows, cols = np.nonzero(scores >= kth)  # the top k and any ties at the k-th
            order = np.lexsort((cols, -scores[rows, cols], rows))  # rows already ascend
            rank = np.arange(rows.size) - np.searchsorted(rows, rows)
            return cols[order][rank < k].reshape(-1, k)
    return np.argsort(-scores, axis=1, kind="stable")[:, :k]


def evaluate(
    arrays: Mapping[str, np.ndarray],
    split: EvalSplit,
    k: int = 20,
    kinds: Sequence[str] = ("group",),
) -> Metrics:
    """Mean Recall@k / NDCG@k over the cold anchors that have test items.

    ``arrays`` maps each node kind to its embedding matrix.  The candidate
    set is every item minus the anchor's own training positives; flagged
    anchors (no held-out edges) are skipped.  Anchors are reported kind by
    kind in ascending order.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    items = arrays["item"]
    n_items = items.shape[0]
    # 1/log2(rank + 1) discounts and their running sums, summed in rank order
    discount = np.array([1.0 / math.log2(r + 1) for r in range(1, k + 1)])
    ideal = np.cumsum(discount)
    per_node, recalls, ndcgs = [], [], []
    for kind in kinds:
        rel = ANCHOR_RELATION[kind]
        test = np.unique(split.test_n[rel], axis=0)  # distinct (anchor, item) rows
        anchors = np.setdiff1d(np.intersect1d(split.cold[kind], test[:, 0]), split.flagged[kind])
        n_test = np.bincount(
            np.searchsorted(anchors, test[np.isin(test[:, 0], anchors), 0]), minlength=anchors.size
        )
        block = max(1, _SCORE_BLOCK_CELLS // max(n_items, 1))
        for lo in range(0, anchors.size, block):
            ids, n_rel = anchors[lo : lo + block], n_test[lo : lo + block]
            seen = _anchor_matrix(ids, split.train_n[rel], n_items)
            scores = arrays[kind][ids] @ items.T
            scores[seen] = -np.inf
            top = _top_k(scores, k)
            del scores  # before the next block's
            relevant = _anchor_matrix(ids, test, n_items) & ~seen
            hits = np.take_along_axis(relevant, top, axis=1)
            recall = hits.sum(axis=1) / n_rel
            dcg = np.cumsum(hits * discount[: top.shape[1]], axis=1)[:, -1]
            ndcg = dcg / ideal[np.minimum(n_rel, k) - 1]
            rows = zip(ids.tolist(), recall.tolist(), ndcg.tolist(), n_rel.tolist())
            per_node += [(kind, *row) for row in rows]
            recalls.append(recall)
            ndcgs.append(ndcg)
    if not per_node:
        raise ValueError("no evaluable cold anchors (empty test split)")
    return Metrics(
        recall_at_k=float(np.mean(np.concatenate(recalls))),
        ndcg_at_k=float(np.mean(np.concatenate(ndcgs))),
        k=k,
        evaluated=len(per_node),
        per_node=per_node,
    )


# ---------------------------------------------------------------------------
# complexity / instrumentation report
# ---------------------------------------------------------------------------


def convergence_epoch(totals: Sequence[float], tol: float = 0.001, streak: int = 3) -> int:
    """First epoch after which the loss improved < ``tol`` (relative) for
    ``streak`` consecutive epochs; falls back to the last epoch."""
    run = 0
    for i in range(1, len(totals)):
        prev = abs(totals[i - 1])
        improvement = (totals[i - 1] - totals[i]) / prev if prev > 0 else 0.0
        run = run + 1 if improvement < tol else 0
        if run >= streak:
            return i + 1
    return len(totals)


@dataclass
class ComplexityReport:
    total_edges: int
    masked_edges_mean: float
    masked_edges_max: int
    base_epoch_seconds: float
    ssl_epoch_seconds: float
    base_convergence_epoch: int
    ssl_convergence_epoch: int

    @property
    def time_ratio(self) -> float:
        if self.base_epoch_seconds == 0:
            return math.inf
        return self.ssl_epoch_seconds / self.base_epoch_seconds

    @property
    def masked_ratio(self) -> float:
        if self.total_edges == 0:
            return math.inf
        return self.masked_edges_mean / self.total_edges

    def to_text(self) -> str:
        rows = [
            ("component", "base model", "with reconstruction"),
            (
                "adjacency normalization (edges touched)",
                f"{2 * self.total_edges}",
                f"{2 * self.total_edges} + {self.masked_edges_mean:.0f}/epoch masked",
            ),
            (
                "graph convolution (s/epoch)",
                f"{self.base_epoch_seconds:.3f}",
                f"{self.ssl_epoch_seconds:.3f}",
            ),
            ("pairwise ranking objective", "yes", "yes"),
            (
                "self-supervised objective",
                "-",
                f"masked edges/epoch mean={self.masked_edges_mean:.0f} max={self.masked_edges_max}",
            ),
            (
                "convergence epochs",
                f"{self.base_convergence_epoch}",
                f"{self.ssl_convergence_epoch}",
            ),
            ("per-epoch time ratio", "1.00", f"{self.time_ratio:.2f}"),
            (
                "masked/total edge ratio",
                "-",
                f"{self.masked_ratio:.4f}",
            ),
        ]
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        lines = []
        for i, row in enumerate(rows):
            lines.append("  ".join(col.ljust(widths[j]) for j, col in enumerate(row)))
            if i == 0:
                lines.append("  ".join("-" * widths[j] for j in range(3)))
        return "\n".join(lines)

    def to_csv(self) -> str:
        header = (
            "total_edges,masked_edges_mean,masked_edges_max,"
            "base_epoch_seconds,ssl_epoch_seconds,time_ratio,"
            "base_convergence_epoch,ssl_convergence_epoch"
        )
        row = (
            f"{self.total_edges},{self.masked_edges_mean!r},{self.masked_edges_max},"
            f"{self.base_epoch_seconds!r},{self.ssl_epoch_seconds!r},{self.time_ratio!r},"
            f"{self.base_convergence_epoch},{self.ssl_convergence_epoch}"
        )
        return header + "\n" + row + "\n"


def complexity_report(
    ssl_history,
    base_history,
    total_edges: int,
    masked_edge_counts: Sequence[int],
) -> ComplexityReport:
    """Compare a reconstruction-enabled run against its base-model twin.

    ``total_edges`` is the edge count of the graph both runs trained on;
    ``masked_edge_counts`` are the reconstruction run's per-epoch masked
    edge counts (none reads as one epoch of zero).
    """
    if not ssl_history.epochs or not base_history.epochs:
        raise ValueError("missing history")
    counts = list(masked_edge_counts) or [0]
    return ComplexityReport(
        total_edges=total_edges,
        masked_edges_mean=float(np.mean(counts)),
        masked_edges_max=int(max(counts)),
        base_epoch_seconds=base_history.mean_seconds(),
        ssl_epoch_seconds=ssl_history.mean_seconds(),
        base_convergence_epoch=convergence_epoch(base_history.totals()),
        ssl_convergence_epoch=convergence_epoch(ssl_history.totals()),
    )
