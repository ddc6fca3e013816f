"""Self-attention embedding enhancer.

The enhancer predicts a node's embedding from nothing but its first-order
neighbors: it smooths the neighbors' layer-0 embeddings with one head of
scaled dot-product self-attention, averages them into one meta embedding per
relation, and fuses the per-relation metas (plus a member-aggregate channel
for groups) with its own soft-attention weights.  The per-relation metas are
what gets injected into the GNN's convolution steps; the fused meta is the
quantity trained against ground-truth embeddings.

One batched forward serves every caller.  Per relation, a
:class:`model.DegreePlan` cuts the targets' stacked neighbor rows into one
segment per target, and three ragged segment ops do the rest: one
:func:`autodiff.segment_attention` smooths every segment, one placed
:func:`autodiff.sum_consecutive` averages each into its target's row, and
for groups one segment softmax pools the member-aggregate channel
(:func:`model.attention_pool`); one :func:`autodiff.attention_fusion` per
kind fuses the channels.  The targets are the sampled first-order
neighborhoods of an episode batch (:func:`episode_metas`, and
:func:`train_enhancer`, whose warm-up episodes are laid out as arrays once
and read the model tables as constants) or every node's complete
neighborhood (:func:`full_meta_matrices`).  The warm-up and the pretext
task score predictions with the same batched :func:`reconstruction_costs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import KINDS, RELATION_KINDS, RELATIONS, RELATIONS_BY_KIND, Episode
from .model import (
    FUSION_KEYS,
    DegreePlan,
    GraphTensors,
    attention_pool,
    batch_kind,
    degree_plan,
    fuse_present,
    xavier_uniform,
)


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


def _neighbor_kind(rel: str, kind: str) -> str:
    ka, kb = RELATION_KINDS[rel]
    return kb if kind == ka else ka


def _gathered_qkv(table: Tensor, params: EnhancerParams):
    """Map rows ``flat`` of ``table`` to their query, key and value rows.

    Projects the gathered rows: an episode batch gathers fewer rows than
    the table holds, and a constant table then puts no gather on the tape.
    """
    def qkv(flat):
        x = ad.gather_rows(table, flat)
        return tuple(ad.matmul(x, w) for w in (params.wq, params.wk, params.wv))

    return qkv


def _projected_qkv(table: Tensor, params: EnhancerParams):
    """As :func:`_gathered_qkv`, but gathers from the projected table: the
    full graph gathers every row once per neighbor."""
    projected = [ad.matmul(table, w) for w in (params.wq, params.wk, params.wv)]
    return lambda flat: tuple(ad.gather_rows(p, flat) for p in projected)


def _relation_metas(
    qkv, plan: DegreePlan, member_score: Tensor | None = None
) -> tuple[Tensor, Tensor | None]:
    """Per-target smoothed-neighbor means over one relation, (n, d).

    ``qkv`` maps neighbor rows to their query, key and value rows.  With
    ``member_score`` also returns the attention-pooled smoothed neighbors
    (the member-aggregate channel).  Targets without neighbors get zero
    rows.
    """
    smoothed = ad.segment_attention(*qkv(plan.cols), plan.runs)
    means = ad.sum_consecutive(smoothed, plan.runs, plan.targets, plan.n, mean=True)
    if member_score is None:
        return means, None
    return means, attention_pool(smoothed, plan, member_score)


def _first_order(episode: Episode, rel: str) -> tuple[int, ...]:
    sample = episode.samples.get(rel)
    return sample.layers[1] if sample is not None and len(sample.layers) > 1 else ()


def _episode_plans(episodes: Sequence[Episode], kind: str) -> dict[str, DegreePlan]:
    """Degree plans of the targets' sampled first-order neighbors."""
    plans = {}
    for rel in RELATIONS_BY_KIND[kind]:
        firsts = [_first_order(ep, rel) for ep in episodes]
        sizes = [len(f) for f in firsts]
        cols = np.fromiter(chain.from_iterable(firsts), np.intp, sum(sizes))
        plans[rel] = degree_plan(sizes, cols)
    return plans


def episode_metas(
    episodes: Sequence[Episode], tables, params: EnhancerParams
) -> dict[str, Tensor]:
    """Per-relation (n, d) meta embeddings of n episode targets of one kind.

    A target whose relation sampled no neighbor gets a zero row, and a
    relation that sampled no neighbor in any episode has no entry.
    """
    kind = batch_kind(episodes)
    out = {}
    for rel, plan in _episode_plans(episodes, kind).items():
        if plan.runs:
            qkv = _gathered_qkv(tables(_neighbor_kind(rel, kind)), params)
            out[rel], _ = _relation_metas(qkv, plan)
    return out


def full_meta_matrices(
    gtens: GraphTensors, tables, params: EnhancerParams
) -> dict[tuple[str, str], Tensor]:
    """All-node meta matrices from complete first-order neighborhoods.

    Rows of zero-degree nodes are zero; their channels are dropped from
    fusion downstream so the placeholder value is never consumed.
    """
    qkv = {kind: _projected_qkv(tables(kind), params) for kind in KINDS}
    return {
        (kind, rel): _relation_metas(
            qkv[_neighbor_kind(rel, kind)], gtens.neighbor_plan(rel, kind)
        )[0]
        for kind, rels in RELATIONS_BY_KIND.items()
        for rel in rels
    }


def _truth_rows(episodes: Sequence[Episode], ground_truth) -> np.ndarray:
    """Ground-truth embedding of each episode target, stacked (n, d).

    Raises KeyError for a target without one.
    """
    targets = []
    for ep in episodes:
        vec = ground_truth.get(ep.ground_truth_ref)
        if vec is None:
            raise KeyError(f"no ground-truth embedding for {ep.ground_truth_ref}")
        targets.append(vec)
    return np.stack(targets) if targets else np.zeros((0, 0))


def _cosine_costs(predicted: Tensor, truth: np.ndarray) -> Tensor:
    cos = ad.cosine_similarity(predicted, ad.const(truth))
    return ad.sub(ad.const(np.ones(truth.shape[0])), cos)


def reconstruction_costs(predicted: Tensor, episodes: Sequence[Episode], ground_truth) -> Tensor:
    """1 - cosine of each predicted row and its episode's ground truth, (n,).

    0 iff aligned, 2 iff opposite.  Raises KeyError for a target without
    a ground-truth embedding.
    """
    return _cosine_costs(predicted, _truth_rows(episodes, ground_truth))


class _WarmupLayout:
    """The warm-up episodes and the frozen model tables, laid out once.

    ``table`` stacks the user, item and group tables into one constant;
    ``csr[rel]`` = (indptr, indices) lists each episode target's sampled
    first-order neighbors in relation ``rel`` as rows of that table;
    ``kind`` codes each target's kind (its index in ``KINDS``), ``linked``
    marks the targets with a neighbor in some relation, and ``truth`` holds
    the ground-truth embeddings.  A batch of episode positions cuts its
    degree plans out of these arrays by indexing.
    """

    def __init__(self, episodes: Sequence[Episode], ground_truth, tables):
        self.truth = _truth_rows(episodes, ground_truth)
        sizes = [tables(kind).shape[0] for kind in KINDS]
        offset = dict(zip(KINDS, np.cumsum([0] + sizes[:-1]).tolist()))
        self.table = ad.const(np.concatenate([tables(kind).data for kind in KINDS]))
        n = len(episodes)
        self.kind = np.fromiter((KINDS.index(ep.target.kind) for ep in episodes), np.intp, n)
        self.linked = np.zeros(n, dtype=bool)
        self.csr: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for rel in RELATIONS:
            firsts = [_first_order(ep, rel) for ep in episodes]
            counts = np.fromiter(map(len, firsts), np.intp, n)
            shift = [
                offset[_neighbor_kind(rel, ep.target.kind)] if f else 0
                for ep, f in zip(episodes, firsts)
            ]
            indices = np.fromiter(chain.from_iterable(firsts), np.intp, int(counts.sum()))
            self.csr[rel] = (np.cumsum(np.r_[0, counts]), indices + np.repeat(shift, counts))
            self.linked |= counts > 0

    def fused(self, kind: str, sel: np.ndarray, params: EnhancerParams) -> Tensor:
        """Fused meta embeddings (n, d) of the n linked ``kind`` targets at
        episode positions ``sel``."""
        qkv = _gathered_qkv(self.table, params)
        channels: dict[str, Tensor] = {}
        masks: dict[str, np.ndarray] = {}
        for rel in RELATIONS_BY_KIND[kind]:
            indptr, indices = self.csr[rel]
            plan = degree_plan(indptr[sel + 1] - indptr[sel], indices, indptr[sel])
            if not plan.runs:
                continue
            score = params.member_score if (kind, rel) == ("group", "GU") else None
            channels[rel], agg = _relation_metas(qkv, plan, score)
            masks[rel] = plan.present
            if agg is not None:
                channels["GU_AGG"], masks["GU_AGG"] = agg, plan.present
        e0 = ad.const(np.zeros((sel.size, params.d)))
        return fuse_present(kind, channels, masks, params.fusion, e0)

    def loss(self, batch: np.ndarray, params: EnhancerParams) -> Tensor | None:
        """Mean cosine reconstruction loss of the fused metas of the episodes
        at positions ``batch``.

        Isolated targets are skipped; None when every target is isolated.
        Kinds contribute in the order of their first appearance in the batch.
        """
        kinds = self.kind[batch]
        _, first = np.unique(kinds, return_index=True)
        terms = []
        for code in kinds[np.sort(first)]:
            sel = batch[(kinds == code) & self.linked[batch]]
            if sel.size:
                terms.append(_cosine_costs(self.fused(KINDS[code], sel, params), self.truth[sel]))
        if not terms:
            return None
        return ad.mean_rows(terms[0] if len(terms) == 1 else ad.concat(terms))


def train_enhancer(
    episodes: Sequence[Episode],
    ground_truth,
    params: EnhancerParams,
    tables,
    learning_rate: float = 0.001,
    epochs: int = 50,
    batch_size: int = 64,
    rng: np.random.Generator | None = None,
) -> tuple[EnhancerParams, list[float]]:
    """Fit the enhancer to reproduce ground-truth embeddings from neighbors.

    Minimizes the mean cosine reconstruction loss of the fused meta embedding
    over the episode targets by adaptive-moment gradient descent on the
    enhancer parameters only; the model tables are read as constants.
    Returns the params and the per-epoch loss history; zero epochs leaves
    the parameters untouched.
    """
    from .train import AdamState  # local import: train builds on this module

    rng = rng or np.random.default_rng(0)
    tensors = params.tensors()
    adam = AdamState(tensors, learning_rate)
    losses: list[float] = []
    layout = _WarmupLayout(episodes, ground_truth, tables)
    for _ in range(epochs):
        order = rng.permutation(len(episodes))
        epoch_losses = []
        for start in range(0, len(order), batch_size):
            with ad.Tape() as tape:
                loss = layout.loss(order[start : start + batch_size], params)
                if loss is None:
                    continue
                grads = tape.backward(loss, tensors)
            adam.step(grads)
            epoch_losses.append(loss.item())
        losses.append(float(np.mean(epoch_losses)) if epoch_losses else math.nan)
    return params, losses
