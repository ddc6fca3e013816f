"""Output checks for one pipeline workspace.

Each check returns an error string, or None when the output is correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from coldgraph.graph import EvalSplit, InteractionGraph


def _run_meta(ws: Path) -> dict[str, str]:
    return dict(
        line.split("=", 1)
        for line in (ws / "run_meta.txt").read_text(encoding="utf-8").splitlines()
        if "=" in line
    )


def history_rows(ws: Path) -> list[list[str]]:
    """Rows of the training history CSV named in ``run_meta.txt``."""
    lines = (ws / _run_meta(ws)["history_file"]).read_text(encoding="utf-8").splitlines()[1:]
    return [line.split(",") for line in lines]


def history_finite(rows: list[list[str]]) -> str | None:
    """Every loss column of the training history is a finite number."""
    if not rows:
        return "history is empty"
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row[1:4]):
            return f"non-finite loss at epoch {row[0]}"
    return None


def read_metrics(ws: Path) -> dict[str, float]:
    header, row = (ws / "metrics.csv").read_text(encoding="utf-8").splitlines()[:2]
    return {k: float(v) for k, v in zip(header.split(","), row.split(","))}


def _anchor_sets(split):
    test: dict[int, set[int]] = {}
    for a, b in split.test_n["GI"]:
        test.setdefault(a, set()).add(b)
    train: dict[int, set[int]] = {}
    for a, b in split.train_n["GI"]:
        train.setdefault(a, set()).add(b)
    anchors = [a for a in sorted(split.cold["group"]) if test.get(a) and a not in split.flagged["group"]]
    return anchors, test, train


def expected_anchors(ws: Path) -> int:
    """Non-flagged cold groups with held-out test edges, from split.txt."""
    from coldgraph.graph import read_split_manifest

    anchors, _, _ = _anchor_sets(read_split_manifest(ws / "split.txt"))
    return len(anchors)


@dataclass
class Trained:
    """What ``model.ckpt`` gives on the workspace's graph and split."""

    arrays: dict[str, np.ndarray]  # fused embeddings by node kind
    train_graph: InteractionGraph
    split: EvalSplit
    lam: float  # weight of the user ranking loss


def load_trained(ws: Path) -> Trained:
    from coldgraph.graph import load_graph_cache, make_training_graph, read_split_manifest
    from coldgraph.train import final_state, load_training_checkpoint

    graph = load_graph_cache(ws / "graph")
    split = read_split_manifest(ws / "split.txt")
    params, enh, config = load_training_checkpoint(ws / "model.ckpt")
    arrays = final_state(params, enh, graph, split).arrays()
    return Trained(arrays, make_training_graph(graph, split), split, config.lam)


def oracle_metrics(trained: Trained, k: int) -> tuple[float, float]:
    """Recall@k and NDCG@k of the trained model, all anchors at once.

    Scores every cold anchor against the whole catalogue with one matrix
    product, pushes training positives below every candidate, and ranks with
    a stable sort so tied scores keep the lower item first.
    """
    arrays = trained.arrays
    anchors, test, train = _anchor_sets(trained.split)
    scores = arrays["group"][anchors] @ arrays["item"].T
    rows = [r for r, a in enumerate(anchors) for _ in train.get(a, ())]
    cols = [i for a in anchors for i in train.get(a, ())]
    scores[rows, cols] = -np.inf
    top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    relevant = np.zeros_like(scores, dtype=bool)
    relevant[
        [r for r, a in enumerate(anchors) for _ in test[a]],
        [i for a in anchors for i in test[a]],
    ] = True
    hits = np.take_along_axis(relevant, top, axis=1)
    n_rel = relevant.sum(axis=1)
    discount = 1.0 / np.log2(np.arange(2, k + 2))
    ideal = np.cumsum(discount)[np.minimum(n_rel, k) - 1]
    recall = hits.sum(axis=1) / n_rel
    ndcg = (hits * discount).sum(axis=1) / ideal
    return float(recall.mean()), float(ndcg.mean())


def ranking_loss(trained: Trained, seed: int) -> float:
    """The ranking loss training minimises, at the trained parameters.

    Group BPR plus ``lam`` times user BPR over every training positive, each
    against one uniform negative item drawn from ``seed`` and rejected against
    the anchor's training positives.  An untrained model scores every pair
    near 0, which puts this loss at ``(1 + lam) * ln 2``.
    """
    rng = np.random.default_rng(seed)
    items = trained.arrays["item"]
    total = 0.0
    for rel, kind, weight in (("GI", "group", 1.0), ("UI", "user", trained.lam)):
        edges = np.asarray(trained.train_graph.edges[rel], dtype=np.int64).reshape(-1, 2)
        if not len(edges):
            continue
        positive = set(map(tuple, edges.tolist()))
        neg = rng.integers(len(items), size=len(edges))
        redraw = np.array([(a, j) in positive for a, j in zip(edges[:, 0], neg)])
        while redraw.any():
            neg[redraw] = rng.integers(len(items), size=int(redraw.sum()))
            redraw[redraw] = [(a, j) in positive for a, j in zip(edges[redraw, 0], neg[redraw])]
        anchor = trained.arrays[kind][edges[:, 0]]
        margin = np.einsum("nd,nd->n", anchor, items[edges[:, 1]] - items[neg])
        total += weight * float(np.logaddexp(0.0, -margin).mean())
    return total


def loss_fell(loss: float, lam: float, min_drop: float) -> str | None:
    """The trained ranking loss lies at least ``min_drop`` below its untrained
    level.  Zeroed gradients, a broken optimiser or a wrong backward pass
    leave it near that level."""
    untrained = (1.0 + lam) * math.log(2.0)
    if not loss <= (1.0 - min_drop) * untrained:
        return f"ranking loss {loss!r} is not {min_drop:.0%} below untrained {untrained!r}"
    return None


def phases_fell(ws: Path, rows: list[list[str]], min_drop: float) -> str | None:
    """In every training phase of two or more epochs (pretrain, finetune,
    joint), the last epoch's total loss is at least ``min_drop`` below the
    first's.  For the pretrain phase that is the reconstruction loss."""
    phases = _run_meta(ws)["phases"].split(",")
    totals: dict[str, list[float]] = {}
    for phase, row in zip(phases, rows):
        totals.setdefault(phase, []).append(float(row[3]))
    for phase, values in totals.items():
        if len(values) >= 2 and not values[-1] <= (1.0 - min_drop) * values[0]:
            return f"{phase} loss fell from {values[0]!r} only to {values[-1]!r}"
    return None


def evaluation_matches(ws: Path, trained: Trained | None) -> str | None:
    """metrics.csv agrees with the split's anchor count and, if ``trained``
    is given, with Recall/NDCG recomputed from it."""
    reported = read_metrics(ws)
    want = expected_anchors(ws)
    if int(reported["evaluated"]) != want:
        return f"evaluated {int(reported['evaluated'])} anchors, split has {want}"
    if trained is None:
        return None
    recall, ndcg = oracle_metrics(trained, int(reported["k"]))
    if not (math.isclose(recall, reported["recall"], rel_tol=1e-9, abs_tol=1e-12)
            and math.isclose(ndcg, reported["ndcg"], rel_tol=1e-9, abs_tol=1e-12)):
        return (
            f"oracle recall/ndcg {recall!r}/{ndcg!r} != reported "
            f"{reported['recall']!r}/{reported['ndcg']!r}"
        )
    return None
