"""Multi-relation GNN: convolution, propagation, aggregation and fusion.

Each node kind is embedded through one channel per relation it participates
in (groups additionally get a member-aggregate channel built from the
group-user relation), and the channels are fused with soft attention.  Two
convolution variants are supported: ``light`` averages the self embedding
with the neighbor mean, ``gcn`` projects their concatenation through a
per-layer weight and a relu.

Propagation runs in two modes that compute the same recursion:

* episode mode walks a sampled neighborhood tree bottom-up (the masked,
  cold-start simulation), vectorized as one dense matrix iteration per tree;
* full mode iterates all nodes of a relation at once over the complete
  adjacency (used for the main ranking loss, teachers and evaluation).  The
  neighbor mean D^-1 A h is one :func:`autodiff.spmm` per relation
  direction and step, over the constant sparse operators of
  :class:`GraphTensors`.

When an embedding-enhancer meta vector is supplied, the self path of the
propagation target is replaced by a learned projection of
``concat(self, meta)`` at every convolution step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import (
    KINDS,
    RELATION_KINDS,
    Episode,
    InteractionGraph,
    NodeId,
    RelationSample,
)
from .sparse import SparseOperator, neighbor_mean

CONV_VARIANTS = ("light", "gcn")

AGGREGATORS = ("attention", "average", "sum", "maxpool")

#: fusion channels per node kind; GU_AGG is the member-aggregate channel
CHANNELS_BY_KIND: dict[str, tuple[str, ...]] = {
    "group": ("GI", "GU", "GU_AGG", "GG"),
    "user": ("UI", "UU"),
    "item": ("UI",),
}

FUSION_KEYS = ("GI", "GU", "GU_AGG", "GG", "UI", "UU")

META_RELATIONS = ("GI", "GU", "GG", "UI", "UU")


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    if len(shape) == 2:
        fan_out, fan_in = shape
    else:
        fan_out, fan_in = shape[0], 1
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class ModelParams:
    """Learnable state of the base GNN.

    ``meta_proj`` holds the per-relation (2d, d) projections used only when
    meta embeddings are injected; they exist whenever the model was built
    with ``with_meta`` so checkpoints stay shape-stable.
    """

    d: int
    variant: str
    layers: int
    e_user: Tensor
    e_item: Tensor
    e_group: Tensor
    fusion: dict[str, Tensor]
    conv_w: tuple[Tensor, ...]
    meta_proj: dict[str, Tensor]
    member_score: Tensor

    def table(self, kind: str) -> Tensor:
        return {"user": self.e_user, "item": self.e_item, "group": self.e_group}[kind]

    def counts(self) -> dict[str, int]:
        return {k: self.table(k).shape[0] for k in KINDS}

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = [
            ("model/e_user", self.e_user),
            ("model/e_item", self.e_item),
            ("model/e_group", self.e_group),
            ("model/member_score", self.member_score),
        ]
        for key in FUSION_KEYS:
            out.append((f"model/fusion_{key}", self.fusion[key]))
        for i, w in enumerate(self.conv_w):
            out.append((f"model/conv_{i}", w))
        for rel in sorted(self.meta_proj):
            out.append((f"model/meta_proj_{rel}", self.meta_proj[rel]))
        return out

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]


def init_model_params(
    counts: Mapping[str, int],
    d: int,
    variant: str,
    layers: int,
    with_meta: bool,
    rng: np.random.Generator,
) -> ModelParams:
    if variant not in CONV_VARIANTS:
        raise ValueError(f"unknown conv variant {variant!r}")
    if d < 1 or layers < 1:
        raise ValueError("d and layers must be positive")

    def p(shape):
        return Tensor(xavier_uniform(rng, shape), requires_grad=True)

    # meta projections draw last so models with and without them share the
    # initialization of every common tensor under one seed
    e_user = p((counts["user"], d))
    e_item = p((counts["item"], d))
    e_group = p((counts["group"], d))
    fusion = {key: p((d, d)) for key in FUSION_KEYS}
    conv_w = tuple(p((2 * d, d)) for _ in range(layers)) if variant == "gcn" else ()
    member_score = p((d,))
    meta_proj = {rel: p((2 * d, d)) for rel in META_RELATIONS} if with_meta else {}
    return ModelParams(
        d=d,
        variant=variant,
        layers=layers,
        e_user=e_user,
        e_item=e_item,
        e_group=e_group,
        fusion=fusion,
        conv_w=conv_w,
        meta_proj=meta_proj,
        member_score=member_score,
    )


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _check_finite(*tensors: Tensor | None) -> None:
    for t in tensors:
        if t is not None and not np.all(np.isfinite(t.data)):
            raise ValueError("non-finite inputs to convolution")


def conv_step(
    variant: str,
    self_emb: Tensor,
    neighbor_embs: Sequence[Tensor] | None,
    weight: Tensor | None = None,
    meta_emb: Tensor | None = None,
    meta_proj: Tensor | None = None,
) -> Tensor:
    """One convolution of a single node given its sampled neighbors.

    The neighbor mean is the zero vector when the list is empty.  With a meta
    embedding the self input becomes ``concat(self, meta) @ meta_proj``.
    """
    if variant not in CONV_VARIANTS:
        raise ValueError(f"unknown conv variant {variant!r}")
    _check_finite(self_emb, meta_emb)
    s = self_emb
    if meta_emb is not None:
        if meta_proj is None:
            raise ValueError("meta_emb given without meta_proj")
        s = ad.matmul(ad.concat([self_emb, meta_emb]), meta_proj)
    if neighbor_embs:
        _check_finite(*neighbor_embs)
        nbar = ad.mean_rows(ad.stack_rows(list(neighbor_embs)))
    else:
        nbar = ad.const(np.zeros(self_emb.shape))
    if variant == "light":
        return ad.scale(ad.add(s, nbar), 0.5)
    if weight is None:
        raise ValueError("gcn variant needs a layer weight")
    return ad.relu(ad.matmul(ad.concat([s, nbar]), weight))


def _conv_matrix(
    variant: str, self_mat: Tensor, neigh_mat: Tensor, weight: Tensor | None
) -> Tensor:
    if variant == "light":
        return ad.scale(ad.add(self_mat, neigh_mat), 0.5)
    return ad.relu(ad.matmul(ad.concat([self_mat, neigh_mat], axis=1), weight))


def _inject_meta_rows(h: Tensor, meta: Tensor, proj: Tensor) -> Tensor:
    """Replace every row's self embedding by ``concat(self, meta) @ proj``."""
    return ad.matmul(ad.concat([h, meta], axis=1), proj)


def _inject_meta_single(h: Tensor, row: int, meta_vec: Tensor, proj: Tensor) -> Tensor:
    """Replace one row's self embedding by its meta projection."""
    current = ad.mean_rows(ad.gather_rows(h, [row]))
    projected = ad.matmul(ad.concat([current, meta_vec]), proj)
    diff = ad.sub(projected, current)
    onehot = np.zeros((h.shape[0], 1))
    onehot[row, 0] = 1.0
    return ad.add(h, ad.matmul(ad.const(onehot), ad.stack_rows([diff])))


# ---------------------------------------------------------------------------
# member aggregation and channel fusion
# ---------------------------------------------------------------------------


def _as_matrix(member_embs) -> Tensor:
    if isinstance(member_embs, Tensor):
        if member_embs.ndim != 2:
            raise ValueError("member matrix must be 2-d")
        if member_embs.shape[0] == 0:
            raise ValueError("group without members")
        return member_embs
    members = list(member_embs)
    if not members:
        raise ValueError("group without members")
    return ad.stack_rows(members)


def aggregate_members(
    member_embs, f_agg: str = "attention", score: Tensor | None = None
) -> Tensor:
    """Pool a non-empty set of member embeddings into one vector."""
    mat = _as_matrix(member_embs)
    if f_agg == "average":
        return ad.mean_rows(mat)
    if f_agg == "sum":
        return ad.scale(ad.mean_rows(mat), float(mat.shape[0]))
    if f_agg == "maxpool":
        return ad.max_rows(mat)
    if f_agg == "attention":
        if score is None:
            raise ValueError("attention aggregation needs a score vector")
        weights = ad.softmax(ad.matmul(mat, score))
        return ad.matmul(weights, mat)
    raise ValueError(f"unknown aggregator {f_agg!r}")


def fuse_channels(
    channels: Mapping[str, Tensor],
    weights: Mapping[str, Tensor],
    order: Sequence[str] | None = None,
) -> tuple[Tensor, dict[str, float]]:
    """Soft-attention fusion of the present channel embeddings.

    The attention logit of channel c is the coordinate sum of ``W_c @ h_c``;
    absent channels simply do not enter the softmax.
    """
    keys = [c for c in (order or sorted(channels)) if c in channels]
    if not keys:
        raise ValueError("all channels absent")
    if len(keys) == 1:
        return channels[keys[0]], {keys[0]: 1.0}
    logits = ad.concat([ad.sum_all(ad.matmul(channels[c], weights[c])) for c in keys])
    attn = ad.softmax(logits)
    fused = ad.matmul(attn, ad.stack_rows([channels[c] for c in keys]))
    return fused, {c: float(a) for c, a in zip(keys, attn.data)}


def score(left, right) -> float:
    """Inner-product relevance between two embeddings."""
    lv = left.data if isinstance(left, Tensor) else np.asarray(left, dtype=np.float64)
    rv = right.data if isinstance(right, Tensor) else np.asarray(right, dtype=np.float64)
    if lv.shape != rv.shape:
        raise ValueError(f"score shape mismatch: {lv.shape} vs {rv.shape}")
    return float(lv @ rv)


# ---------------------------------------------------------------------------
# episode (masked) propagation
# ---------------------------------------------------------------------------


def _episode_matrices(sample: RelationSample, params: ModelParams):
    """Initial embeddings and the normalized children operator for one tree."""
    nodes = sample.all_nodes()
    pos = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)

    by_kind: dict[str, list[tuple[int, int]]] = {}
    for node, i in pos.items():
        by_kind.setdefault(node[0], []).append((i, node[1]))
    blocks = []
    row_order: list[int] = []
    for kind in sorted(by_kind):
        rows = by_kind[kind]
        blocks.append(ad.gather_rows(params.table(kind), [idx for _, idx in rows]))
        row_order.extend(i for i, _ in rows)
    if len(blocks) == 1:
        h0 = blocks[0]
    else:
        inverse = np.empty(n, dtype=int)
        inverse[np.array(row_order)] = np.arange(n)
        h0 = ad.gather_rows(ad.concat(blocks, axis=0), inverse.tolist())

    ka, kb = RELATION_KINDS[sample.relation]
    children_op = np.zeros((n, n))
    for (kind, idx), kids in sample.children.items():
        if not kids:
            continue
        child_kind = kb if kind == ka else ka
        w = 1.0 / len(kids)
        i = pos[(kind, idx)]
        for c in kids:
            children_op[i, pos[(child_kind, c)]] += w
    return nodes, pos, h0, ad.const(children_op)


def propagate_sample(
    sample: RelationSample,
    params: ModelParams,
    steps: int,
    meta_vec: Tensor | None = None,
):
    """Run ``steps`` convolutions over one sampled neighborhood tree.

    Returns ``(target_vec, node_matrix, position_map)``; the first two are
    None when the relation sampled no neighbors at all, in which case the
    caller falls back to the initial table embedding or drops the channel.
    """
    if len(sample.layers) < 2 or not sample.layers[1]:
        return None, None, {}
    if steps > len(sample.layers) - 1:
        raise ValueError(
            f"cannot run {steps} steps over a depth-{len(sample.layers) - 1} sample"
        )
    nodes, pos, h, children_op = _episode_matrices(sample, params)
    proj = None
    if meta_vec is not None:
        proj = params.meta_proj.get(sample.relation)
        if proj is None:
            raise ValueError(f"no meta projection for relation {sample.relation}")
    target_row = 0  # layer 0 is always first in node order
    for layer in range(1, steps + 1):
        neigh = ad.matmul(children_op, h)
        self_mat = h
        if meta_vec is not None:
            self_mat = _inject_meta_single(h, target_row, meta_vec, proj)
        w = params.conv_w[layer - 1] if params.variant == "gcn" else None
        h = _conv_matrix(params.variant, self_mat, neigh, w)
    target_vec = ad.mean_rows(ad.gather_rows(h, [target_row]))
    return target_vec, h, pos


def embed_from_episode(
    episode: Episode,
    params: ModelParams,
    metas: Mapping[str, Tensor] | None = None,
) -> tuple[Tensor, dict[str, float]]:
    """Embed an episode's target from its masked neighborhood only.

    ``metas`` optionally maps relation name to the target's meta embedding;
    channels whose relation sampled no neighbors are dropped from fusion, and
    a completely isolated target falls back to its initial embedding.
    """
    metas = metas or {}
    kind = episode.target.kind
    channels: dict[str, Tensor] = {}
    for rel, sample in episode.samples.items():
        vec, mat, pos = propagate_sample(
            sample, params, episode.depth, meta_vec=metas.get(rel)
        )
        if vec is None:
            continue
        channels[rel] = vec
        if rel == "GU" and kind == "group":
            member_rows = [pos[("user", u)] for u in sample.layers[1]]
            members = ad.gather_rows(mat, member_rows)
            channels["GU_AGG"] = aggregate_members(
                members, "attention", params.member_score
            )
    if not channels:
        table = params.table(kind)
        return ad.mean_rows(ad.gather_rows(table, [episode.target.index])), {}
    return fuse_channels(channels, params.fusion, CHANNELS_BY_KIND[kind])


# ---------------------------------------------------------------------------
# full-neighborhood propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _FusionPlan:
    """Static row grouping of one node kind's channel fusion.

    ``patterns`` pairs each channel-presence pattern (channels in fusion
    order) with the ascending rows that have it, in sorted pattern order;
    ``inverse`` maps each row to its position in the concatenated groups.
    """

    patterns: tuple[tuple[tuple[str, ...], np.ndarray], ...]
    inverse: np.ndarray


def _fusion_plan(order: Sequence[str], masks: Sequence[np.ndarray]) -> _FusionPlan:
    present = np.stack(masks, axis=1)
    uniq, which = np.unique(present, axis=0, return_inverse=True)
    which = which.reshape(-1)
    patterns = sorted(
        (tuple(c for c, p in zip(order, row) if p), np.flatnonzero(which == j))
        for j, row in enumerate(uniq)
    )
    inverse = np.empty(present.shape[0], dtype=np.intp)
    if patterns:
        inverse[np.concatenate([rows for _, rows in patterns])] = np.arange(present.shape[0])
    return _FusionPlan(tuple(patterns), inverse)


@dataclass(frozen=True)
class _MemberPlan:
    """Static grouping of groups by member count for member aggregation.

    ``buckets`` pairs each member count m with the member user rows of all
    groups of that size, m consecutive rows per group (groups ascending,
    members ascending); memberless groups come after every bucket, and
    ``inverse`` maps each group to its row in that stacking.
    """

    buckets: tuple[tuple[int, np.ndarray], ...]
    isolated: int
    inverse: np.ndarray


def _member_plan(gu_group: SparseOperator) -> _MemberPlan:
    rows, users, _ = gu_group.entries()
    n_g = gu_group.shape[0]
    order = np.lexsort((users, rows))
    rows, users = rows[order], users[order]
    size = np.bincount(rows, minlength=n_g)
    start = np.cumsum(size) - size
    buckets = []
    group_order = []
    for m in np.unique(size[size > 0]):
        groups = np.flatnonzero(size == m)
        flat = users[(start[groups, None] + np.arange(m)).reshape(-1)]
        buckets.append((int(m), flat))
        group_order.append(groups)
    isolated = np.flatnonzero(size == 0)
    group_order.append(isolated)
    inverse = np.empty(n_g, dtype=np.intp)
    inverse[np.concatenate(group_order)] = np.arange(n_g)
    return _MemberPlan(tuple(buckets), int(isolated.size), inverse)


class GraphTensors:
    """Constant full-graph structure of one interaction graph.

    ``norm[(rel, kind)]`` is the row-normalized adjacency D^-1 A from
    ``kind``'s side of relation ``rel``, a :class:`SparseOperator` of shape
    (n_kind, n_other); the two directions of UU and GG are one shared
    object.  ``mask[(rel, kind)]`` marks the rows with at least one
    neighbor.  The fusion and member-aggregate row groupings, which depend
    only on these masks and on the group-user edges, are built here once
    instead of at every forward pass.
    """

    def __init__(self, graph: InteractionGraph):
        self.counts = dict(graph.counts)
        self.norm: dict[tuple[str, str], SparseOperator] = {}
        self.mask: dict[tuple[str, str], np.ndarray] = {}
        for rel, (ka, kb) in RELATION_KINDS.items():
            edges = np.asarray(graph.edges[rel], dtype=np.intp).reshape(-1, 2)
            a, b = edges[:, 0], edges[:, 1]
            if ka == kb:
                n = self.counts[ka]
                op = neighbor_mean(np.concatenate([a, b]), np.concatenate([b, a]), (n, n))
                sides = ((ka, op), (kb, op))
            else:
                sides = (
                    (ka, neighbor_mean(a, b, (self.counts[ka], self.counts[kb]))),
                    (kb, neighbor_mean(b, a, (self.counts[kb], self.counts[ka]))),
                )
            for kind, op in sides:
                self.norm[(rel, kind)] = op
                self.mask[(rel, kind)] = op.row_mask
        self.member_plan = _member_plan(self.norm[("GU", "group")])
        # a group has the member-aggregate channel iff it has a GU neighbor
        self.fusion_plan = {
            kind: _fusion_plan(
                channels,
                [self.mask[("GU" if c == "GU_AGG" else c, kind)] for c in channels],
            )
            for kind, channels in CHANNELS_BY_KIND.items()
        }


def _relation_steps(
    gtens: GraphTensors,
    rel: str,
    params: ModelParams,
    inject: Mapping[str, Tensor] | None = None,
    inject_single: Mapping[str, tuple[int, Tensor]] | None = None,
    steps: int | None = None,
) -> dict[str, list[Tensor]]:
    """Per-step embeddings of both endpoint kinds over the full relation.

    ``inject`` meta-injects every row of a kind with its own meta row;
    ``inject_single`` meta-injects just one row of a kind.
    """
    inject = inject or {}
    inject_single = inject_single or {}
    L = params.layers if steps is None else steps
    ka, kb = RELATION_KINDS[rel]

    def adjust(kind: str, h: Tensor) -> Tensor:
        meta = inject.get(kind)
        if meta is not None:
            return _inject_meta_rows(h, meta, params.meta_proj[rel])
        single = inject_single.get(kind)
        if single is not None:
            row, meta_vec = single
            return _inject_meta_single(h, row, meta_vec, params.meta_proj[rel])
        return h

    if ka == kb:
        h = params.table(ka)
        out = {ka: [h]}
        op = gtens.norm[(rel, ka)]
        for layer in range(1, L + 1):
            neigh = ad.spmm(op, h)
            w = params.conv_w[layer - 1] if params.variant == "gcn" else None
            h = _conv_matrix(params.variant, adjust(ka, h), neigh, w)
            out[ka].append(h)
        return out

    ha, hb = params.table(ka), params.table(kb)
    out = {ka: [ha], kb: [hb]}
    op_a = gtens.norm[(rel, ka)]
    op_b = gtens.norm[(rel, kb)]
    for layer in range(1, L + 1):
        neigh_a = ad.spmm(op_a, hb)
        neigh_b = ad.spmm(op_b, ha)
        w = params.conv_w[layer - 1] if params.variant == "gcn" else None
        ha, hb = (
            _conv_matrix(params.variant, adjust(ka, ha), neigh_a, w),
            _conv_matrix(params.variant, adjust(kb, hb), neigh_b, w),
        )
        out[ka].append(ha)
        out[kb].append(hb)
    return out


def _member_aggregate_matrix(
    gtens: GraphTensors, h_user_gu: Tensor, params: ModelParams
) -> Tensor | None:
    """Per-group member-aggregate channel from the group-user relation.

    Groups with equal member counts share one vectorized attention pooling;
    the math per group is exactly :func:`aggregate_members` with the learned
    score vector.  None when no group has members.
    """
    plan = gtens.member_plan
    if not plan.buckets:
        return None
    pieces: list[Tensor] = []
    for m, flat in plan.buckets:
        rows = ad.gather_rows(h_user_gu, flat)
        if m == 1:
            pooled = rows
        else:
            logits = ad.matmul(rows, params.member_score)
            attn = ad.reshape(ad.softmax(ad.reshape(logits, (len(flat) // m, m))), (len(flat),))
            pooled = ad.sum_consecutive(ad.scale_rows(rows, attn), m)
        pieces.append(pooled)
    if plan.isolated:
        pieces.append(ad.const(np.zeros((plan.isolated, h_user_gu.shape[1]))))
    stacked = pieces[0] if len(pieces) == 1 else ad.concat(pieces, axis=0)
    return ad.gather_rows(stacked, plan.inverse)


def fuse_matrix(
    plan: _FusionPlan,
    channel_mats: Mapping[str, Tensor],
    weight_params: Mapping[str, Tensor],
    e0: Tensor,
    collect_weights: bool = False,
):
    """Row-wise soft-attention fusion with exact per-node channel presence.

    Nodes sharing a presence pattern (``plan``, from :class:`GraphTensors`)
    are fused together; nodes with no channel at all keep their initial
    embedding.
    """
    n = e0.shape[0]
    pieces: list[Tensor] = []
    weights_out: list[dict[str, float]] | None = [None] * n if collect_weights else None
    for present, idxs in plan.patterns:
        if not present:
            sub = ad.gather_rows(e0, idxs)
        elif len(present) == 1:
            sub = ad.gather_rows(channel_mats[present[0]], idxs)
        else:
            subs = {c: ad.gather_rows(channel_mats[c], idxs) for c in present}
            logit_rows = [ad.row_sums(ad.matmul(subs[c], weight_params[c])) for c in present]
            attn = ad.softmax(ad.transpose(ad.stack_rows(logit_rows)))
            sub = None
            for j, c in enumerate(present):
                unit = np.zeros(len(present))
                unit[j] = 1.0
                col = ad.matmul(attn, ad.const(unit))
                piece = ad.scale_rows(subs[c], col)
                sub = piece if sub is None else ad.add(sub, piece)
        pieces.append(sub)
        if collect_weights:
            probs = attn.data if len(present) > 1 else np.ones((len(idxs), len(present)))
            for r, i in enumerate(idxs):
                weights_out[i] = {c: float(probs[r, j]) for j, c in enumerate(present)}
    stacked = pieces[0] if len(pieces) == 1 else ad.concat(pieces, axis=0)
    return ad.gather_rows(stacked, plan.inverse), weights_out


@dataclass
class FullState:
    """All-node embeddings from a full-neighborhood forward pass."""

    fused: dict[str, Tensor]
    layer_sums: dict[str, Tensor] | None = None
    channel_weights: dict[str, list[dict[str, float]]] | None = None

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: np.array(v.data) for k, v in self.fused.items()}


def full_embeddings(
    gtens: GraphTensors,
    params: ModelParams,
    metas: Mapping[tuple[str, str], Tensor] | None = None,
    need_layer_sums: bool = False,
    collect_weights: bool = False,
) -> FullState:
    """Embed every user, item and group over the complete adjacency.

    ``metas`` maps (kind, relation) to an all-node meta matrix; when given,
    that kind's self path is meta-injected at every step of that relation's
    propagation.
    """
    metas = metas or {}
    gi = _relation_steps(gtens, "GI", params, {"group": metas.get(("group", "GI"))})
    gu = _relation_steps(gtens, "GU", params, {"group": metas.get(("group", "GU"))})
    gg = _relation_steps(gtens, "GG", params, {"group": metas.get(("group", "GG"))})
    uu = _relation_steps(gtens, "UU", params, {"user": metas.get(("user", "UU"))})
    ui_user = _relation_steps(gtens, "UI", params, {"user": metas.get(("user", "UI"))})
    if metas.get(("user", "UI")) is None and metas.get(("item", "UI")) is None:
        ui_item = ui_user
    else:
        ui_item = _relation_steps(gtens, "UI", params, {"item": metas.get(("item", "UI"))})

    L = params.layers

    def fuse_all(step: int, collect: bool):
        gu_agg = _member_aggregate_matrix(gtens, gu["user"][step], params)
        mats = {
            "group": {
                "GI": gi["group"][step],
                "GU": gu["group"][step],
                "GG": gg["group"][step],
            },
            "user": {"UI": ui_user["user"][step], "UU": uu["user"][step]},
            "item": {"UI": ui_item["item"][step]},
        }
        if gu_agg is not None:
            mats["group"]["GU_AGG"] = gu_agg
        fused = {}
        weights = {}
        for kind in KINDS:
            fused[kind], weights[kind] = fuse_matrix(
                gtens.fusion_plan[kind],
                mats[kind],
                params.fusion,
                params.table(kind),
                collect_weights=collect,
            )
        return fused, weights

    fused_final, weights_final = fuse_all(L, collect_weights)

    layer_sums = None
    if need_layer_sums:
        layer_sums = {kind: params.table(kind) for kind in KINDS}
        for step in range(1, L + 1):
            fused_step, _ = fuse_all(step, False)
            layer_sums = {k: ad.add(layer_sums[k], fused_step[k]) for k in KINDS}

    return FullState(
        fused=fused_final,
        layer_sums=layer_sums,
        channel_weights=weights_final if collect_weights else None,
    )


def propagate(
    source,
    target: NodeId,
    relation: str,
    steps: int,
    params: ModelParams,
    meta_vec: Tensor | None = None,
) -> Tensor:
    """Embed ``target`` through one relation, episode- or full-neighborhood.

    ``source`` is either an :class:`Episode` (masked propagation over its
    sampled tree) or an :class:`InteractionGraph` (complete adjacency).  A
    target with no neighbors in the relation keeps its initial embedding.
    """
    if isinstance(source, Episode):
        sample = source.samples.get(relation)
        if sample is None:
            raise ValueError(f"episode has no sample for relation {relation}")
        vec, _, _ = propagate_sample(sample, params, steps, meta_vec=meta_vec)
        if vec is None:
            return ad.mean_rows(ad.gather_rows(params.table(target.kind), [target.index]))
        return vec
    if isinstance(source, InteractionGraph):
        if source.degree(relation, target.kind, target.index) == 0:
            return ad.mean_rows(ad.gather_rows(params.table(target.kind), [target.index]))
        gtens = GraphTensors(source)
        inject_single = None
        if meta_vec is not None:
            inject_single = {target.kind: (target.index, meta_vec)}
        steps_out = _relation_steps(
            gtens, relation, params, inject_single=inject_single, steps=steps
        )
        h = steps_out[target.kind][steps]
        return ad.mean_rows(ad.gather_rows(h, [target.index]))
    raise TypeError(f"cannot propagate over {type(source).__name__}")
