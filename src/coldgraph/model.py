"""Multi-relation GNN: convolution, propagation, aggregation and fusion.

Each node kind is embedded through one channel per relation it participates
in (groups additionally get a member-aggregate channel built from the
group-user relation), and the channels are fused with soft attention.  Two
convolution variants are supported: ``light`` averages the self embedding
with the neighbor mean, ``gcn`` projects their concatenation through a
per-layer weight and a relu.

There is one propagation path.  A relation step multiplies by a constant
sparse neighbor-mean operator (:func:`autodiff.spmm`) and convolves all
the rows it computes at once; member aggregation is one segment softmax
and one placed segment sum over every group's members
(:func:`attention_pool`, segments from a :class:`DegreePlan`), and fusion
is one :func:`autodiff.attention_fusion` per node kind, with each row's
channel presence as a mask.  It runs over one of two graphs:

* the complete training graph (:class:`GraphTensors`), for the ranking
  loss, teachers and evaluation (:func:`full_embeddings`);
* the masked, K-sampled neighborhood trees of an episode batch (the
  cold-start simulation of the pretext task, :func:`embed_from_episode`).
  The sampler numbers each relation's trees as one small graph, a
  :class:`graph.Forest` whose rows are the distinct (tree, node) pairs and
  whose edges link each expanded row to its sampled children.  Rows are
  numbered by the depth that first reached them, so step l computes only
  a row prefix per kind: the rows within L - l hops of what the last step
  reads (the targets, and for groups their GU members).  Each step's
  operators are leading blocks of one neighbor-mean operator per kind,
  built from the forest's edge arrays, and the targets' first-order edges
  are the member-aggregate segments.

When enhancer meta embeddings are supplied, the self path of the meta rows
(every node, or the episode targets) is replaced by a learned projection of
``concat(self, meta)`` at every convolution step."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import KINDS, RELATION_KINDS, EpisodeBatch, Forest, InteractionGraph
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


def _self_rows(h: Tensor, rows: int, meta: Tensor | None, proj: Tensor | None) -> Tensor:
    """The self path of the first ``rows`` rows of ``h``: with ``meta``, the
    first ``len(meta)`` of them become ``concat(self, meta) @ proj``."""

    def lead(lo: int, hi: int) -> Tensor:
        return h if (lo, hi) == (0, h.shape[0]) else ad.gather_rows(h, np.arange(lo, hi))

    if meta is None:
        return lead(0, rows)
    n = meta.shape[0]
    head = ad.matmul(ad.concat([lead(0, n), meta], axis=1), proj)
    return head if n == rows else ad.concat([head, lead(n, rows)], axis=0)


# ---------------------------------------------------------------------------
# full-neighborhood propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreePlan:
    """Static grouping of n targets by their exact neighbor count.

    ``targets`` lists the targets that have a neighbor by ascending degree
    (equal degrees by ascending target), ``runs`` gives the (m, count) runs
    of equal degree m in that order, and ``cols`` holds the m neighbor rows
    of each listed target consecutively, in the given neighbor order.  These
    are the segments of the ragged autodiff ops: ``runs`` cuts ``cols``-shaped
    rows into per-target segments, and ``targets`` and ``n`` place one result
    per segment in a per-target (n, d) matrix with zero rows for the
    neighborless targets.
    """

    n: int
    runs: tuple[tuple[int, int], ...]
    targets: np.ndarray
    cols: np.ndarray

    @property
    def present(self) -> np.ndarray:
        """Boolean per target: True where it has a neighbor."""
        mask = np.zeros(self.n, dtype=bool)
        mask[self.targets] = True
        return mask


def degree_plan(sizes, cols, starts=None) -> DegreePlan:
    """Group targets by degree: target t has the ``sizes[t]`` neighbors
    ``cols[starts[t] : starts[t] + sizes[t]]``, by default listed target
    after target."""
    sizes = np.asarray(sizes, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if starts is None:
        starts = np.cumsum(sizes) - sizes
    targets = np.argsort(sizes, kind="stable")[np.count_nonzero(sizes == 0) :]
    deg = sizes[targets]
    count = np.bincount(deg)
    m = np.flatnonzero(count)
    flat = np.repeat(starts[targets] - (np.cumsum(deg) - deg), deg) + np.arange(deg.sum())
    return DegreePlan(sizes.size, tuple(zip(m.tolist(), count[m].tolist())), targets, cols[flat])


class GraphTensors:
    """Constant full-graph structure of one interaction graph.

    ``norm[(rel, kind)]`` is the row-normalized adjacency D^-1 A from
    ``kind``'s side of relation ``rel``, a :class:`SparseOperator` of shape
    (n_kind, n_other); the two directions of UU and GG are one shared
    object.  ``mask[(rel, kind)]`` marks the rows with at least one
    neighbor.  Each degree grouping (:meth:`neighbor_plan`) is built on its
    first use and kept.
    """

    def __init__(self, graph: InteractionGraph):
        self.counts = dict(graph.counts)
        self.norm: dict[tuple[str, str], SparseOperator] = {}
        self.mask: dict[tuple[str, str], np.ndarray] = {}
        self._csr: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
        for rel, (ka, kb) in RELATION_KINDS.items():
            for kind, other in dict.fromkeys(((ka, kb), (kb, ka))):
                indptr, indices = self._csr[(rel, kind)] = graph.csr(rel, kind)
                deg = np.diff(indptr)
                rows = np.repeat(np.arange(deg.size), deg)
                self.norm[(rel, kind)] = neighbor_mean(rows, indices, (deg.size, self.counts[other]))
                self.mask[(rel, kind)] = deg > 0
        self._plans: dict[tuple[str, str], DegreePlan] = {}

    def neighbor_plan(self, rel: str, kind: str) -> DegreePlan:
        """Degree grouping of ``kind``'s neighbors in relation ``rel``."""
        plan = self._plans.get((rel, kind))
        if plan is None:
            indptr, indices = self._csr[(rel, kind)]
            plan = self._plans[(rel, kind)] = degree_plan(np.diff(indptr), indices)
        return plan


def _relation_steps(
    rel: str,
    layer_ops: Sequence[Mapping[str, SparseOperator]],
    h0: Mapping[str, Tensor],
    params: ModelParams,
    inject: Mapping[str, Tensor | None] | None = None,
) -> dict[str, list[Tensor]]:
    """Per-step embeddings of the endpoint kinds of one relation.

    ``h0[kind]`` holds the initial rows of ``kind``.  ``layer_ops[l - 1]``
    maps each kind that step l computes to its constant neighbor-mean
    operator (one entry for UU and GG): an (m, m') operator makes step l
    compute the leading m rows of ``kind``, from as many leading rows of
    its step l - 1 and the m' rows of the other kind's.  The full graph
    passes every row at every step.  An episode forest passes only the
    rows its targets read, a prefix that shrinks with l, and a kind left
    without rows drops out, its list of steps ending early.
    ``inject[kind]``, when given, is a meta matrix whose rows meta-inject
    the leading rows of ``kind`` at every step: all of them over the full
    graph, the targets in an episode forest.
    """
    inject = inject or {}
    ka, kb = RELATION_KINDS[rel]
    other = {ka: kb, kb: ka}
    proj = params.meta_proj.get(rel)
    h = dict(h0)
    out = {kind: [h[kind]] for kind in h}
    for layer, ops in enumerate(layer_ops, 1):
        neigh = {kind: ad.spmm(op, h[other[kind]]) for kind, op in ops.items()}
        w = params.conv_w[layer - 1] if params.variant == "gcn" else None
        for kind, op in ops.items():
            self_rows = _self_rows(h[kind], op.shape[0], inject.get(kind), proj)
            h[kind] = _conv_matrix(params.variant, self_rows, neigh[kind], w)
            out[kind].append(h[kind])
    return out


def attention_pool(rows: Tensor, plan: DegreePlan, score: Tensor) -> Tensor:
    """Attention pooling of each target's neighbor rows into one row.

    ``rows`` holds the neighbor rows in ``plan.cols`` order; target t gets
    its rows weighted by the softmax of their scores against ``score``, in
    row t of an (n, d) result.  Neighborless targets get zero rows.
    """
    attn = ad.softmax(ad.matmul(rows, score), plan.runs)
    return ad.sum_consecutive(ad.scale_rows(rows, attn), plan.runs, plan.targets, plan.n)


def _member_aggregate(plan: DegreePlan, h_user: Tensor, params: ModelParams) -> Tensor | None:
    """Member-aggregate channel of the groups of ``plan`` (group -> user rows).

    None when no group has members.
    """
    if not plan.runs:
        return None
    return attention_pool(ad.gather_rows(h_user, plan.cols), plan, params.member_score)


def fuse_present(
    kind: str,
    channel_mats: Mapping[str, Tensor],
    masks: Mapping[str, np.ndarray],
    weight_params: Mapping[str, Tensor],
    e0: Tensor,
) -> Tensor:
    """Row-wise soft-attention fusion of ``kind``'s channels with exact
    per-row channel presence (:func:`autodiff.attention_fusion`).

    ``masks[c]`` marks the rows that have channel c; a channel without a
    matrix is absent from every row, and rows with no channel at all keep
    their initial embedding ``e0``.
    """
    keys = [c for c in CHANNELS_BY_KIND[kind] if c in channel_mats]
    present = np.zeros((e0.shape[0], len(keys)), dtype=bool)
    for j, c in enumerate(keys):
        present[:, j] = masks[c]
    return ad.attention_fusion(
        [channel_mats[c] for c in keys], [weight_params[c] for c in keys], present, e0
    )


# ---------------------------------------------------------------------------
# full graph
# ---------------------------------------------------------------------------


@dataclass
class FullState:
    """All-node embeddings from a full-neighborhood forward pass."""

    fused: dict[str, Tensor]
    layer_sums: dict[str, Tensor] | None = None

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: np.array(v.data) for k, v in self.fused.items()}


def full_embeddings(
    gtens: GraphTensors,
    params: ModelParams,
    metas: Mapping[tuple[str, str], Tensor] | None = None,
    need_layer_sums: bool = False,
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
            [{k: gtens.norm[(rel, k)] for k in kinds}] * params.layers,
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
    # a group has the member-aggregate channel iff it has a GU neighbor
    masks = {
        kind: {c: gtens.mask[("GU" if c == "GU_AGG" else c, kind)] for c in channels}
        for kind, channels in CHANNELS_BY_KIND.items()
    }

    def fuse_all(step: int) -> dict[str, Tensor]:
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
        return {
            kind: fuse_present(kind, mats[kind], masks[kind], params.fusion, params.table(kind))
            for kind in KINDS
        }

    if not need_layer_sums:
        return FullState(fused=fuse_all(L))
    layer_sums = {kind: params.table(kind) for kind in KINDS}
    for step in range(1, L + 1):
        fused = fuse_all(step)
        layer_sums = {k: ad.add(layer_sums[k], fused[k]) for k in KINDS}
    return FullState(fused=fused, layer_sums=layer_sums)


# ---------------------------------------------------------------------------
# episode forests
# ---------------------------------------------------------------------------


def _forest_operators(forest: Forest, layers: int, reach: int) -> list[dict[str, SparseOperator]]:
    """The per-step operators of :func:`_relation_steps` over a forest,
    computing at step l only the rows the last step still reads: the rows
    first reached at depth ``reach`` + ``layers`` - l or less (capped at
    the forest's depth), where the last step reads the rows of depth
    ``reach`` or less (the targets, and for ``reach`` = 1 their members).

    Per endpoint kind, one operator takes the mean over each row's sampled
    children (leaves and rows of a kind that is never expanded have none);
    step l cuts its leading block, and every block's transpose is cut from
    that operator's one transpose.
    """
    ka, kb = RELATION_KINDS[forest.relation]
    other = {ka: kb, kb: ka}
    depth = len(forest.layers)
    whole = {}
    for k in other:
        edges = [(p, c) for pk, (_, p, c) in zip(forest.kinds, forest.layers) if pk == k]
        rows = np.concatenate([np.zeros(0, np.intp)] + [p for p, _ in edges])
        cols = np.concatenate([np.zeros(0, np.intp)] + [c for _, c in edges])
        shape = (forest.nodes[k].size, forest.nodes[other[k]].size)
        whole[k] = neighbor_mean(rows, cols, shape)
    # step l computes the rows of depth <= reads[l] from those of depth <= reads[l - 1]
    reads = [min(reach + layers - l, depth) for l in range(layers + 1)]
    return [
        {
            k: op.head(forest.prefix[k][reads[l]], forest.prefix[other[k]][reads[l - 1]])
            for k, op in whole.items()
            if forest.prefix[k][reads[l]]
        }
        for l in range(1, layers + 1)
    ]


def embed_from_episode(
    episodes: EpisodeBatch,
    params: ModelParams,
    metas: Mapping[str, Tensor] | None = None,
) -> Tensor:
    """Embed n episode targets of one kind from their masked neighborhoods only.

    Each relation's forest runs through the same relation step, member
    aggregation and fusion as the full graph.
    ``metas`` optionally maps a relation to an (n, d) meta matrix that
    meta-injects the targets.  A channel whose relation sampled no neighbor
    is dropped from fusion, and a completely isolated target keeps its
    initial embedding.  Returns the (n, d) target embeddings in input order.
    """
    if episodes.depth != params.layers:
        raise ValueError(f"episodes must be sampled to depth {params.layers}")
    kind = episodes.kind
    metas = metas or {}
    channels: dict[str, Tensor] = {}
    masks: dict[str, np.ndarray] = {}
    for rel, forest in episodes.forests.items():
        members = degree_plan(*episodes.first_order(rel))
        if not members.runs:
            continue
        h0 = {k: ad.gather_rows(params.table(k), idx) for k, idx in forest.nodes.items()}
        # the member-aggregate channel reads the GU members at the last step
        reach = int((kind, rel) == ("group", "GU"))
        ops = _forest_operators(forest, params.layers, reach)
        out = _relation_steps(rel, ops, h0, params, {kind: metas.get(rel)})
        channels[rel] = out[kind][-1]  # the last step computes the n targets' rows alone
        masks[rel] = members.present
        if (kind, rel) == ("group", "GU"):
            channels["GU_AGG"] = _member_aggregate(members, out["user"][-1], params)
            masks["GU_AGG"] = members.present
    e0 = ad.gather_rows(params.table(kind), episodes.targets)
    return fuse_present(kind, channels, masks, params.fusion, e0)
