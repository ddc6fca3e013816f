"""Self-attention embedding enhancer.

The enhancer predicts a node's embedding from nothing but its first-order
neighbors: it smooths the neighbors' layer-0 embeddings with one head of
scaled dot-product self-attention, averages them into one meta embedding per
relation, and fuses the per-relation metas (plus a member-aggregate channel
for groups) with its own soft-attention weights.  The per-relation metas are
what gets injected into the GNN's convolution steps; the fused meta is the
quantity trained against ground-truth embeddings.

One batched forward serves every caller.  Per relation, the targets are
grouped by their exact neighbor count (a :class:`model.DegreePlan`), and
each group is one :func:`autodiff.segment_attention` over its targets'
stacked neighbor rows; the fusion runs through :func:`model.fuse_matrix`.
The targets are the sampled first-order neighborhoods of an episode batch
(:func:`episode_metas`, and :func:`train_enhancer`, which reads the model
tables as constants) or every node's complete neighborhood
(:func:`full_meta_matrices`).  The warm-up and the pretext task score
predictions with the same batched :func:`reconstruction_costs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import KINDS, RELATION_KINDS, RELATIONS_BY_KIND, Episode
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


def _gathered_qkv(tables, params: EnhancerParams, kind: str):
    """Map rows ``flat`` of ``kind``'s table to their query, key and value rows.

    Projects the gathered rows: an episode batch gathers fewer rows than
    the table holds, and a constant table then puts no gather on the tape.
    """
    def qkv(flat):
        x = ad.gather_rows(tables(kind), flat)
        return tuple(ad.matmul(x, w) for w in (params.wq, params.wk, params.wv))

    return qkv


def _projected_qkv(tables, params: EnhancerParams, kind: str):
    """As :func:`_gathered_qkv`, but gathers from the projected table: the
    full graph gathers every row once per neighbor."""
    projected = [ad.matmul(tables(kind), w) for w in (params.wq, params.wk, params.wv)]
    return lambda flat: tuple(ad.gather_rows(p, flat) for p in projected)


def _relation_metas(
    qkv, plan: DegreePlan, d: int, member_score: Tensor | None
) -> tuple[Tensor, Tensor | None]:
    """Per-target smoothed-neighbor means over one relation, (n, d).

    ``qkv`` maps neighbor rows to their query, key and value rows.  With
    ``member_score`` also returns the attention-pooled smoothed neighbors
    (the member-aggregate channel).  Targets without neighbors get zero
    rows.
    """
    means, pooled = [], []
    for m, flat in plan.buckets:
        smoothed = ad.segment_attention(*qkv(flat), m)
        means.append(ad.scale(ad.sum_consecutive(smoothed, m), 1.0 / m))
        if member_score is not None:
            pooled.append(attention_pool(smoothed, m, member_score))
    return plan.assemble(means, d), plan.assemble(pooled, d) if pooled else None


def _first_order(episode: Episode, rel: str) -> tuple[int, ...]:
    sample = episode.samples.get(rel)
    return sample.layers[1] if sample is not None and len(sample.layers) > 1 else ()


def _episode_plans(episodes: Sequence[Episode], kind: str) -> dict[str, DegreePlan]:
    """Degree plans of the targets' sampled first-order neighbors."""
    plans = {}
    for rel in RELATIONS_BY_KIND[kind]:
        firsts = [_first_order(ep, rel) for ep in episodes]
        sizes = [len(f) for f in firsts]
        cols = np.fromiter((c for f in firsts for c in f), dtype=np.intp, count=sum(sizes))
        plans[rel] = degree_plan(np.repeat(np.arange(len(firsts)), sizes), cols, len(firsts))
    return plans


def _by_kind(episodes: Sequence[Episode]) -> dict[str, list[int]]:
    """Positions of the episodes of each target kind, in input order."""
    out: dict[str, list[int]] = {}
    for i, ep in enumerate(episodes):
        out.setdefault(ep.target.kind, []).append(i)
    return out


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
        if plan.buckets:
            qkv = _gathered_qkv(tables, params, _neighbor_kind(rel, kind))
            out[rel], _ = _relation_metas(qkv, plan, params.d, None)
    return out


def full_meta_matrices(
    gtens: GraphTensors, tables, params: EnhancerParams
) -> dict[tuple[str, str], Tensor]:
    """All-node meta matrices from complete first-order neighborhoods.

    Rows of zero-degree nodes are zero; their channels are dropped from
    fusion downstream so the placeholder value is never consumed.
    """
    qkv = {kind: _projected_qkv(tables, params, kind) for kind in KINDS}
    return {
        (kind, rel): _relation_metas(
            qkv[_neighbor_kind(rel, kind)], gtens.neighbor_plan(rel, kind), params.d, None
        )[0]
        for kind, rels in RELATIONS_BY_KIND.items()
        for rel in rels
    }


def _fused_metas(
    episodes: Sequence[Episode], kind: str, tables, params: EnhancerParams
) -> Tensor:
    """Fused meta embeddings (n, d) of n episode targets of one kind.

    Every target needs a first-order neighbor in some relation.
    """
    channels: dict[str, Tensor] = {}
    masks: dict[str, np.ndarray] = {}
    for rel, plan in _episode_plans(episodes, kind).items():
        if not plan.buckets:
            continue
        score = params.member_score if (kind, rel) == ("group", "GU") else None
        qkv = _gathered_qkv(tables, params, _neighbor_kind(rel, kind))
        channels[rel], agg = _relation_metas(qkv, plan, params.d, score)
        masks[rel] = plan.present
        if agg is not None:
            channels["GU_AGG"], masks["GU_AGG"] = agg, plan.present
    e0 = ad.const(np.zeros((len(episodes), params.d)))
    return fuse_present(kind, channels, masks, params.fusion, e0)


def reconstruction_costs(predicted: Tensor, episodes: Sequence[Episode], ground_truth) -> Tensor:
    """1 - cosine of each predicted row and its episode's ground truth, (n,).

    0 iff aligned, 2 iff opposite.  Raises KeyError for a target without
    a ground-truth embedding.
    """
    targets = []
    for ep in episodes:
        vec = ground_truth.get(ep.ground_truth_ref)
        if vec is None:
            raise KeyError(f"no ground-truth embedding for {ep.ground_truth_ref}")
        targets.append(vec)
    cos = ad.cosine_similarity(predicted, ad.const(np.stack(targets)))
    return ad.sub(ad.const(np.ones(len(targets))), cos)


def _warmup_loss(
    episodes: Sequence[Episode], ground_truth, params: EnhancerParams, tables
) -> Tensor | None:
    """Mean cosine reconstruction loss of the fused metas of a batch.

    Isolated targets are skipped; None when every target is isolated.
    """
    terms = []
    for kind, positions in _by_kind(episodes).items():
        rels = RELATIONS_BY_KIND[kind]
        batch = [episodes[i] for i in positions if any(_first_order(episodes[i], r) for r in rels)]
        if not batch:
            continue
        fused = _fused_metas(batch, kind, tables, params)
        terms.append(reconstruction_costs(fused, batch, ground_truth))
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
    for ep in episodes:
        if ground_truth.get(ep.ground_truth_ref) is None:
            raise KeyError(f"no ground-truth embedding for {ep.ground_truth_ref}")
    frozen = {kind: ad.const(tables(kind).data) for kind in KINDS}
    for _ in range(epochs):
        order = rng.permutation(len(episodes))
        epoch_losses = []
        for start in range(0, len(order), batch_size):
            batch = [episodes[i] for i in order[start : start + batch_size]]
            with ad.Tape() as tape:
                loss = _warmup_loss(batch, ground_truth, params, frozen.__getitem__)
                if loss is None:
                    continue
                grads = tape.backward(loss, tensors)
            adam.step(grads)
            epoch_losses.append(loss.item())
        losses.append(float(np.mean(epoch_losses)) if epoch_losses else math.nan)
    return params, losses
