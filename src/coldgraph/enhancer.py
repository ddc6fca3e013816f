"""Self-attention embedding enhancer.

The enhancer predicts a node's embedding from nothing but its first-order
neighbors: it smooths the neighbors' layer-0 embeddings with one head of
scaled dot-product self-attention, averages them into one meta embedding per
relation, and fuses the per-relation metas (plus a member-aggregate channel
for groups) with its own soft-attention weights.  The per-relation metas are
what gets injected into the GNN's convolution steps; the fused meta is the
quantity trained against ground-truth embeddings.

One stacked pass serves every caller.  The user, item and group tables
are stacked into one, and one :class:`model.DegreePlan` cuts the neighbor
rows of every (relation, target) pair into a segment whose mean is row
``r n + t`` of channel-major (R n, d) means: the three projections, one
:func:`autodiff.segment_attention` and one placed
:func:`autodiff.sum_consecutive` give every relation's metas.  The
targets are an episode batch's sampled first-order neighborhoods
(:func:`episode_metas`), whose rows are gathered once and then projected,
since a batch reads fewer rows than the table holds; or every node's
complete neighborhood (:func:`full_meta_matrices`), which projects the
whole table and lets the attention gather its rows from the three
projected tables by ``plan.cols``, so no gathered q/k/v rows are kept
for backward, only the attention probabilities.  The warm-up
(:func:`train_enhancer`) lays its episodes out once, pools the group-GU
segments into the member-aggregate channel (:func:`model.attention_pool`)
and fuses the targets of every kind in one
:func:`autodiff.attention_fusion`: fusion weights are per channel, and
each row fuses the channels it has, in steps that :func:`autodiff.descend`
runs as it runs the training phases'.  The warm-up and the pretext task
score predictions with the same batched :func:`reconstruction_costs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tensor, descend
from .graph import KINDS, RELATIONS_BY_KIND, EpisodeBatch
from .model import (
    FUSION_KEYS,
    META_RELATIONS,
    DegreePlan,
    GraphTensors,
    attention_pool,
    degree_plan,
    select_rows,
    xavier_uniform,
)

#: warm-up episodes per step
_WARMUP_BATCH = 64


@dataclass
class EnhancerParams:
    """Single-head, single-layer attention weights plus fusion parameters."""

    d: int
    wq: Tensor
    wk: Tensor
    wv: Tensor
    fusion: dict[str, Tensor]
    member_score: Tensor

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = [
            ("enhancer/wq", self.wq),
            ("enhancer/wk", self.wk),
            ("enhancer/wv", self.wv),
            ("enhancer/member_score", self.member_score),
        ]
        for key in FUSION_KEYS:
            out.append((f"enhancer/fusion_{key}", self.fusion[key]))
        return out

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]


def init_enhancer_params(d: int, rng: np.random.Generator) -> EnhancerParams:
    def p(shape):
        return Tensor(xavier_uniform(rng, shape), requires_grad=True)

    return EnhancerParams(
        d=d,
        wq=p((d, d)),
        wk=p((d, d)),
        wv=p((d, d)),
        fusion={key: p((d, d)) for key in FUSION_KEYS},
        member_score=p((d,)),
    )


def _stacked_table(tables) -> tuple[Tensor, dict[str, int]]:
    """The user, item and group tables stacked into one, and each kind's
    first row in it."""
    parts = [tables(k) for k in KINDS]
    offset = dict(zip(KINDS, np.cumsum([0] + [p.shape[0] for p in parts[:-1]]).tolist()))
    return ad.concat(parts), offset


def _first_order(pairs, offset) -> tuple[np.ndarray, np.ndarray]:
    """Each target's number of sampled first-order neighbors in each
    (episode batch, relation) pair, pair after pair, and the neighbors'
    rows in the stacked table, target after target."""
    sizes, cols = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    for batch, rel in pairs:
        forest = batch.forests.get(rel)
        if forest is None:
            sizes.append(np.zeros(len(batch), np.intp))
            continue
        count, child = batch.first_order(rel)
        sizes.append(count)
        cols.append(forest.nodes[forest.kinds[1]][child] + offset[forest.kinds[1]])
    return np.concatenate(sizes), np.concatenate(cols)


def _smoothed_means(table: Tensor, plan: DegreePlan, params: EnhancerParams) -> tuple[Tensor, Tensor]:
    """The neighbor rows (rows of ``table``) of every segment of ``plan``
    smoothed by self-attention, in ``plan.cols`` order, and the segment
    means placed in a (plan.n, d) matrix, zero rows for targets without one.

    Gathers, then projects: an episode batch gathers fewer rows than the
    table holds, and a constant table puts no gather on the tape.
    """
    x = ad.gather_rows(table, plan.cols)
    smoothed = ad.segment_attention(*(ad.matmul(x, w) for w in (params.wq, params.wk, params.wv)), plan.runs)
    return smoothed, ad.sum_consecutive(smoothed, plan.runs, plan.targets, plan.n, mean=True)


def episode_metas(episodes: EpisodeBatch, tables, params: EnhancerParams) -> dict[str, Tensor]:
    """Per-relation (n, d) meta embeddings of the n targets of an episode batch.

    One plan holds every relation's segments: relation r's segment of
    target t is row ``r n + t`` of the stacked means.  A target whose
    relation sampled no neighbor gets a zero row, and a relation that
    sampled no neighbor in any episode has no entry.
    """
    n, rels = len(episodes), RELATIONS_BY_KIND[episodes.kind]
    table, offset = _stacked_table(tables)
    sizes, cols = _first_order([(episodes, rel) for rel in rels], offset)
    plan = degree_plan(sizes, cols)
    if not plan.runs:
        return {}
    _, means = _smoothed_means(table, plan, params)
    sampled = sizes.reshape(len(rels), n).any(axis=1)
    return {rel: select_rows(means, np.arange(r * n, (r + 1) * n)) for r, rel in enumerate(rels) if sampled[r]}


#: the (kind, relation) pairs of the meta matrices, in stacking order
_PAIRS = tuple((kind, rel) for kind, rels in RELATIONS_BY_KIND.items() for rel in rels)


def full_meta_matrices(
    gtens: GraphTensors, tables, params: EnhancerParams
) -> dict[tuple[str, str], Tensor]:
    """All-node meta matrices from complete first-order neighborhoods, one
    per (kind, relation) pair, from one plan over every pair's targets.

    Rows of zero-degree nodes are zero; their channels are dropped from
    fusion downstream so the placeholder value is never consumed.
    """
    table, offset = _stacked_table(tables)
    plan = gtens.neighbor_plan([(rel, kind) for kind, rel in _PAIRS], offset)
    qkv = (ad.matmul(table, w) for w in (params.wq, params.wk, params.wv))
    smoothed = ad.segment_attention(*qkv, plan.runs, plan.cols)
    means = ad.sum_consecutive(smoothed, plan.runs, plan.targets, plan.n, mean=True)
    out, lo = {}, 0
    for kind, rel in _PAIRS:
        out[(kind, rel)] = select_rows(means, np.arange(lo, lo + gtens.graph.counts[kind]))
        lo += gtens.graph.counts[kind]
    return out


def _cosine_costs(predicted: Tensor, truth: np.ndarray) -> Tensor:
    truth = truth.astype(predicted.data.dtype, copy=False)  # a float32 teacher: copied only for float64 predictions
    cos = ad.cosine_similarity(predicted, ad.const(truth))
    return ad.sub(ad.const(np.ones(truth.shape[0], truth.dtype)), cos)


def reconstruction_costs(predicted: Tensor, episodes: EpisodeBatch, ground_truth) -> Tensor:
    """1 - cosine of each predicted row and its episode's ground truth, (n,).

    0 iff aligned, 2 iff opposite.  Raises KeyError for a target without
    a ground-truth embedding.
    """
    return _cosine_costs(predicted, ground_truth.lookup(episodes.kind, episodes.targets))


class _WarmupLayout:
    """The warm-up episodes and the frozen model tables, laid out once.

    The episode positions run through the batches in order.  ``table`` is
    the stacked tables as a constant; one CSR (``indptr``, ``indices``)
    lists the rows of the sampled first-order neighbors of slot ``r P + p``:
    relation r of ``META_RELATIONS`` at position p of P.  ``linked`` marks
    the targets with a neighbor in some relation, and ``truth`` holds the
    ground-truth embeddings.  A step cuts its one plan out by indexing.
    """

    def __init__(self, batches: Sequence[EpisodeBatch], ground_truth, tables):
        self.truth = np.concatenate([ground_truth.lookup(b.kind, b.targets) for b in batches])
        table, offset = _stacked_table(tables)
        self.table = ad.const(table.data)
        counts, self.indices = _first_order([(b, rel) for rel in META_RELATIONS for b in batches], offset)
        self.indptr = np.cumsum(np.r_[0, counts])
        self.linked = counts.reshape(len(META_RELATIONS), -1).any(axis=0)

    def fused(self, sel: np.ndarray, params: EnhancerParams) -> Tensor:
        """Fused meta embeddings (n, d) of the n linked targets at episode
        positions ``sel``, whatever their kinds.

        Relation r's segment of target j is row ``r n + j`` of the means.
        The member-aggregate channel is the GU block of every segment's
        pooled rows (only groups sample GU), and one fusion covers every
        kind, each row with the channels it has.
        """
        n, gu = sel.size, META_RELATIONS.index("GU")
        slots = (np.arange(len(META_RELATIONS))[:, None] * self.linked.size + sel).reshape(-1)
        starts = self.indptr[slots]
        plan = degree_plan(self.indptr[slots + 1] - starts, self.indices, starts)
        smoothed, means = _smoothed_means(self.table, plan, params)
        keys, blocks = list(META_RELATIONS), [means]
        present = plan.present.reshape(len(META_RELATIONS), n).T
        if present[:, gu].any():
            pooled = attention_pool(smoothed, plan, params.member_score)
            keys.append("GU_AGG")
            blocks.append(select_rows(pooled, np.arange(gu * n, (gu + 1) * n)))
            present = np.c_[present, present[:, gu]]
        e0 = ad.const(np.zeros((n, params.d), params.wq.data.dtype))
        return ad.attention_fusion(blocks, [params.fusion[c] for c in keys], present, e0)

    def loss(self, batch: np.ndarray, params: EnhancerParams) -> Tensor | None:
        """Mean cosine reconstruction loss of the fused metas of the episodes
        at positions ``batch``.

        Isolated targets are skipped; None when every target is isolated.
        """
        sel = batch[self.linked[batch]]
        if not sel.size:
            return None
        return ad.mean_rows(_cosine_costs(self.fused(sel, params), self.truth[sel]))


def train_enhancer(
    episodes: Sequence[EpisodeBatch],
    ground_truth,
    params: EnhancerParams,
    tables,
    learning_rate: float,
    epochs: int,
    rng: np.random.Generator,
) -> list[float]:
    """Fit the enhancer to reproduce ground-truth embeddings from neighbors.

    Minimizes the mean cosine reconstruction loss of the fused meta embedding
    over the targets of the episode batches, shuffled together by ``rng``
    into steps of 64 each epoch, by adaptive-moment gradient descent at
    ``learning_rate`` on the enhancer parameters only; the model tables are
    read as constants.  Returns the per-epoch mean loss of the ``epochs``
    epochs; zero epochs leaves the parameters untouched.  A non-finite loss or
    update restores the values the parameters had before the warm-up and
    raises :class:`autodiff.DivergenceError`.
    """
    adam = AdamState(params.tensors(), learning_rate)
    before = [np.array(t.data) for t in adam.tensors]
    layout = _WarmupLayout(episodes, ground_truth, tables)
    curve: list[float] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(layout.linked.size)
        steps = (partial(layout.loss, order[i : i + _WARMUP_BATCH], params)
                 for i in range(0, order.size, _WARMUP_BATCH))
        losses = descend(steps, adam, before, f"warm-up epoch {epoch}")
        curve.append(float(np.mean(losses)) if losses else math.nan)
    return curve
