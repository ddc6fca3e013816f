"""Multi-relation GNN: convolution, propagation, aggregation and fusion.

Each node kind is embedded through one channel per relation it participates
in (groups additionally get a member-aggregate channel built from the
group-user relation), and the channels are fused with soft attention.  Two
convolution variants are supported: ``light`` averages the self embedding
with the neighbor mean, ``gcn`` projects their concatenation through a
per-layer weight and a relu.

There is one propagation path.  A relation step multiplies by a constant
sparse neighbor-mean operator (:func:`autodiff.spmm`) and convolves every
row at once; member aggregation pools equal-degree groups with one
:func:`attention_pool` each, and fusion groups rows by channel presence.
It runs over one of two graphs:

* the complete training graph (:class:`GraphTensors`), for the ranking
  loss, teachers and evaluation (:func:`full_embeddings`);
* the masked, K-sampled neighborhood trees of an episode batch, stacked
  into one small forest per relation (the cold-start simulation of the
  pretext task, :func:`embed_from_episode`).

When enhancer meta embeddings are supplied, the self path of the meta rows
(every node, or the episode targets) is replaced by a learned projection of
``concat(self, meta)`` at every convolution step."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import KINDS, RELATION_KINDS, RELATIONS_BY_KIND, Episode, InteractionGraph
from .sparse import SparseOperator, neighbor_mean

CONV_VARIANTS = ("light", "gcn")

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


def _conv_matrix(
    variant: str, self_mat: Tensor, neigh_mat: Tensor, weight: Tensor | None
) -> Tensor:
    if variant == "light":
        return ad.scale(ad.add(self_mat, neigh_mat), 0.5)
    return ad.relu(ad.matmul(ad.concat([self_mat, neigh_mat], axis=1), weight))


def _inject_meta_rows(h: Tensor, meta: Tensor, proj: Tensor) -> Tensor:
    """Replace the self embedding of the first ``len(meta)`` rows by
    ``concat(self, meta) @ proj``."""
    n = meta.shape[0]
    if n == h.shape[0]:
        return ad.matmul(ad.concat([h, meta], axis=1), proj)
    head = ad.matmul(ad.concat([ad.gather_rows(h, np.arange(n)), meta], axis=1), proj)
    return ad.concat([head, ad.gather_rows(h, np.arange(n, h.shape[0]))], axis=0)


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
class DegreePlan:
    """Static grouping of n targets by their exact neighbor count.

    ``buckets`` pairs each count m with the neighbor rows of all targets
    with m neighbors, m consecutive rows per target (targets ascending,
    neighbors in the given order); ``present`` marks the targets with a
    neighbor, and ``inverse`` maps each target to its row in the bucket
    stacking followed by the neighborless targets.
    """

    buckets: tuple[tuple[int, np.ndarray], ...]
    present: np.ndarray
    inverse: np.ndarray

    def assemble(self, pieces: Iterable[Tensor], d: int) -> Tensor:
        """Per-target (n, d) matrix from one (targets, d) piece per bucket.

        Neighborless targets get zero rows.
        """
        pieces = list(pieces)
        isolated = self.present.size - int(np.count_nonzero(self.present))
        if isolated or not pieces:
            pieces.append(ad.const(np.zeros((isolated, d))))
        stacked = pieces[0] if len(pieces) == 1 else ad.concat(pieces, axis=0)
        return ad.gather_rows(stacked, self.inverse)


def degree_plan(rows: np.ndarray, cols: np.ndarray, n: int) -> DegreePlan:
    """Group the edges (rows[e] -> cols[e]) of n targets by target degree.

    Each target's neighbors keep their order in ``cols``.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    order = np.argsort(rows, kind="stable")
    rows, cols = rows[order], cols[order]
    size = np.bincount(rows, minlength=n)
    start = np.cumsum(size) - size
    buckets = []
    target_order = []
    for m in np.unique(size[size > 0]):
        targets = np.flatnonzero(size == m)
        buckets.append((int(m), cols[(start[targets, None] + np.arange(m)).reshape(-1)]))
        target_order.append(targets)
    target_order.append(np.flatnonzero(size == 0))
    inverse = np.empty(n, dtype=np.intp)
    inverse[np.concatenate(target_order)] = np.arange(n)
    return DegreePlan(tuple(buckets), size > 0, inverse)


class GraphTensors:
    """Constant full-graph structure of one interaction graph.

    ``norm[(rel, kind)]`` is the row-normalized adjacency D^-1 A from
    ``kind``'s side of relation ``rel``, a :class:`SparseOperator` of shape
    (n_kind, n_other); the two directions of UU and GG are one shared
    object.  ``mask[(rel, kind)]`` marks the rows with at least one
    neighbor.  The fusion row groupings, which depend only on these masks,
    are built here once instead of at every forward pass, and so is each
    degree grouping (:meth:`neighbor_plan`) on its first use.
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
        self._plans: dict[tuple[str, str], DegreePlan] = {}
        # a group has the member-aggregate channel iff it has a GU neighbor
        self.fusion_plan = {
            kind: _fusion_plan(
                channels,
                [self.mask[("GU" if c == "GU_AGG" else c, kind)] for c in channels],
            )
            for kind, channels in CHANNELS_BY_KIND.items()
        }

    def neighbor_plan(self, rel: str, kind: str) -> DegreePlan:
        """Degree grouping of ``kind``'s neighbors in relation ``rel``."""
        plan = self._plans.get((rel, kind))
        if plan is None:
            rows, cols, _ = self.norm[(rel, kind)].entries()
            order = np.lexsort((cols, rows))
            plan = degree_plan(rows[order], cols[order], self.counts[kind])
            self._plans[(rel, kind)] = plan
        return plan


def _relation_steps(
    rel: str,
    ops: Mapping[str, SparseOperator],
    h0: Mapping[str, Tensor],
    params: ModelParams,
    inject: Mapping[str, Tensor | None] | None = None,
) -> dict[str, list[Tensor]]:
    """Per-step embeddings of the endpoint kinds of one relation.

    ``h0[kind]`` holds the initial rows of ``kind`` and ``ops[kind]`` the
    constant neighbor-mean operator from those rows to the other kind's
    (one entry each for UU and GG).  ``inject[kind]``, when given, is a
    meta matrix whose rows meta-inject the leading rows of ``kind`` at every
    step: all of them over the full graph, the targets in an episode forest.
    """
    inject = inject or {}
    ka, kb = RELATION_KINDS[rel]
    other = {ka: kb, kb: ka}
    h = dict(h0)
    out = {kind: [h[kind]] for kind in h}

    def adjust(kind: str, x: Tensor) -> Tensor:
        meta = inject.get(kind)
        return x if meta is None else _inject_meta_rows(x, meta, params.meta_proj[rel])

    for layer in range(1, params.layers + 1):
        neigh = {kind: ad.spmm(ops[kind], h[other[kind]]) for kind in h}
        w = params.conv_w[layer - 1] if params.variant == "gcn" else None
        h = {kind: _conv_matrix(params.variant, adjust(kind, h[kind]), neigh[kind], w) for kind in h}
        for kind in h:
            out[kind].append(h[kind])
    return out


def attention_pool(rows: Tensor, m: int, score: Tensor) -> Tensor:
    """Attention pooling of each block of m consecutive rows into one row:
    the rows weighted by the softmax of their scores against ``score``."""
    if m == 1:
        return rows
    n = rows.shape[0]
    attn = ad.reshape(ad.softmax(ad.reshape(ad.matmul(rows, score), (n // m, m))), (n,))
    return ad.sum_consecutive(ad.scale_rows(rows, attn), m)


def _member_aggregate(plan: DegreePlan, h_user: Tensor, params: ModelParams) -> Tensor | None:
    """Member-aggregate channel of the groups of ``plan`` (group -> user rows).

    Groups with equal member counts share one :func:`attention_pool`.
    None when no group has members.
    """
    if not plan.buckets:
        return None
    return plan.assemble(
        (
            attention_pool(ad.gather_rows(h_user, flat), m, params.member_score)
            for m, flat in plan.buckets
        ),
        h_user.shape[1],
    )


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


def fuse_present(
    kind: str,
    channel_mats: Mapping[str, Tensor],
    masks: Mapping[str, np.ndarray],
    weight_params: Mapping[str, Tensor],
    e0: Tensor,
) -> Tensor:
    """:func:`fuse_matrix` of one batch of ``kind`` rows, grouped on the fly.

    ``masks[c]`` marks the rows that have channel c; a channel without a
    mask is absent from every row.
    """
    order = CHANNELS_BY_KIND[kind]
    absent = np.zeros(e0.shape[0], dtype=bool)
    fused, _ = fuse_matrix(
        _fusion_plan(order, [masks.get(c, absent) for c in order]), channel_mats, weight_params, e0
    )
    return fused


# ---------------------------------------------------------------------------
# full graph
# ---------------------------------------------------------------------------


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

    def steps(rel: str, kind: str) -> dict[str, list[Tensor]]:
        kinds = dict.fromkeys(RELATION_KINDS[rel])
        return _relation_steps(
            rel,
            {k: gtens.norm[(rel, k)] for k in kinds},
            {k: params.table(k) for k in kinds},
            params,
            {kind: metas.get((kind, rel))},
        )

    gi = steps("GI", "group")
    gu = steps("GU", "group")
    gg = steps("GG", "group")
    uu = steps("UU", "user")
    ui_user = steps("UI", "user")
    if metas.get(("user", "UI")) is None and metas.get(("item", "UI")) is None:
        ui_item = ui_user
    else:
        ui_item = steps("UI", "item")

    L = params.layers

    def fuse_all(step: int, collect: bool):
        gu_agg = _member_aggregate(gtens.neighbor_plan("GU", "group"), gu["user"][step], params)
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


# ---------------------------------------------------------------------------
# episode forests
# ---------------------------------------------------------------------------


def batch_kind(episodes: Sequence[Episode]) -> str:
    """The one target kind of a non-empty episode batch."""
    kinds = {ep.target.kind for ep in episodes}
    if len(kinds) != 1:
        raise ValueError(f"an episode batch needs one target kind, got {sorted(kinds)}")
    return kinds.pop()


def _episode_forest(
    episodes: Sequence[Episode], kind: str, rel: str
) -> tuple[dict[str, np.ndarray], dict[str, SparseOperator], DegreePlan]:
    """One relation's sampled trees of an episode batch, as one small graph.

    Its nodes are the distinct (episode, kind, index) triples of the trees.
    Returns ``(nodes, ops, members)``: ``nodes[k]`` gives the table index of
    each row of kind k, with the n targets as the first n rows of their
    kind; ``ops[k]`` averages each row's sampled children (leaves have
    none); ``members`` groups the targets' first-order neighbor rows by
    target degree.
    """
    ka, kb = RELATION_KINDS[rel]
    other = {ka: kb, kb: ka}
    rows: dict[str, dict[tuple[int, int], int]] = {k: {} for k in other}
    rows[kind].update(((b, ep.target.index), b) for b, ep in enumerate(episodes))
    edges: dict[str, tuple[list[int], list[int]]] = {k: ([], []) for k in other}
    firsts: list[tuple[int, ...]] = []
    for b, ep in enumerate(episodes):
        sample = ep.samples.get(rel)
        firsts.append(sample.layers[1] if sample is not None else ())
        if sample is None:
            continue
        for (k, idx), kids in sample.children.items():
            own, theirs = rows[k], rows[other[k]]
            r = own.setdefault((b, idx), len(own))
            src, dst = edges[k]
            for c in kids:
                src.append(r)
                dst.append(theirs.setdefault((b, c), len(theirs)))
    nodes = {k: np.fromiter((idx for _, idx in rows[k]), np.intp, len(rows[k])) for k in other}
    ops = {
        k: neighbor_mean(src, dst, (len(rows[k]), len(rows[other[k]])))
        for k, (src, dst) in edges.items()
    }
    member_rows = rows[other[kind]]
    sizes = [len(f) for f in firsts]
    cols = np.fromiter(
        (member_rows[(b, c)] for b, f in enumerate(firsts) for c in f), np.intp, sum(sizes)
    )
    members = degree_plan(np.repeat(np.arange(len(episodes)), sizes), cols, len(episodes))
    return nodes, ops, members


def embed_from_episode(
    episodes: Sequence[Episode],
    params: ModelParams,
    metas: Mapping[str, Tensor] | None = None,
) -> Tensor:
    """Embed n episode targets of one kind from their masked neighborhoods only.

    Each relation's trees are one forest (:func:`_episode_forest`),
    propagated by the same relation step, member aggregation and fusion as
    the full graph.
    ``metas`` optionally maps a relation to an (n, d) meta matrix that
    meta-injects the targets.  A channel whose relation sampled no neighbor
    is dropped from fusion, and a completely isolated target keeps its
    initial embedding.  Returns the (n, d) target embeddings in input order.
    """
    kind = batch_kind(episodes)
    if any(ep.depth != params.layers for ep in episodes):
        raise ValueError(f"episodes must be sampled to depth {params.layers}")
    metas = metas or {}
    channels: dict[str, Tensor] = {}
    masks: dict[str, np.ndarray] = {}
    target_rows = np.arange(len(episodes))
    for rel in RELATIONS_BY_KIND[kind]:
        nodes, ops, members = _episode_forest(episodes, kind, rel)
        if not members.present.any():
            continue
        h0 = {k: ad.gather_rows(params.table(k), idx) for k, idx in nodes.items()}
        out = _relation_steps(rel, ops, h0, params, {kind: metas.get(rel)})
        channels[rel] = ad.gather_rows(out[kind][-1], target_rows)
        masks[rel] = members.present
        if (kind, rel) == ("group", "GU"):
            channels["GU_AGG"] = _member_aggregate(members, out["user"][-1], params)
            masks["GU_AGG"] = members.present
    e0 = ad.gather_rows(params.table(kind), [ep.target.index for ep in episodes])
    return fuse_present(kind, channels, masks, params.fusion, e0)
