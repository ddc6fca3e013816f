"""Multi-relation GNN: convolution, propagation, aggregation and fusion.

Each node kind is embedded through one channel per relation it participates
in (groups additionally get a member-aggregate channel built from the
group-user relation), and the channels are fused with soft attention.  Two
convolution variants are supported: ``light`` averages the self embedding
with the neighbor mean, ``gcn`` projects their concatenation through a
per-layer weight and a relu.

There is one propagation path.  A relation step multiplies by a constant
sparse neighbor-mean operator (:func:`autodiff.spmm`) and convolves every
row at once; member aggregation is one segment softmax and one placed
segment sum over every group's members (:func:`attention_pool`, segments
from a :class:`DegreePlan`), and fusion is one
:func:`autodiff.attention_fusion` per node kind, with each row's channel
presence as a mask.  It runs over one of two graphs:

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
from itertools import chain
from typing import Mapping, Sequence

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

    def neighbor_plan(self, rel: str, kind: str) -> DegreePlan:
        """Degree grouping of ``kind``'s neighbors in relation ``rel``."""
        plan = self._plans.get((rel, kind))
        if plan is None:
            rows, cols, _ = self.norm[(rel, kind)].entries()
            order = np.lexsort((cols, rows))
            plan = degree_plan(np.bincount(rows, minlength=self.counts[kind]), cols[order])
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


def batch_kind(episodes: Sequence[Episode]) -> str:
    """The one target kind of a non-empty episode batch."""
    kinds = {ep.target.kind for ep in episodes}
    if len(kinds) != 1:
        raise ValueError(f"an episode batch needs one target kind, got {sorted(kinds)}")
    return kinds.pop()


def _number_rows(head: np.ndarray, rest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row numbers of node keys: the distinct ``head`` keys get rows 0, 1, ...
    in order, every other distinct key the following rows in ascending key
    order.  Returns (the rows of the ``rest`` keys, the key of each row)."""
    keys, inverse = np.unique(np.concatenate([head, rest]), return_inverse=True)
    row = np.empty(keys.size, dtype=np.intp)
    row[inverse[: head.size]] = np.arange(head.size)
    tail = np.ones(keys.size, dtype=bool)
    tail[inverse[: head.size]] = False
    row[tail] = np.arange(head.size, keys.size)
    row_keys = np.empty_like(keys)
    row_keys[row] = keys
    return row[inverse[head.size :]], row_keys


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
    trees = [ep.samples[rel].children for ep in episodes if rel in ep.samples]
    parent_kind, parent_idx = zip(*chain.from_iterable(trees)) if trees else ((), ())
    kids = list(chain.from_iterable(tree.values() for tree in trees))
    sizes = np.fromiter(map(len, kids), np.intp, len(kids))
    with_rel = [b for b, ep in enumerate(episodes) if rel in ep.samples]
    tree_of = np.repeat(np.array(with_rel, dtype=np.intp), list(map(len, trees)))
    episode = np.repeat(tree_of, sizes)
    parent = np.repeat(np.array(parent_idx, dtype=np.intp), sizes)
    parent_is_a = np.repeat(np.array(parent_kind) == ka, sizes)
    child = np.fromiter(chain.from_iterable(kids), np.intp, int(sizes.sum()))
    firsts = [ep.samples[rel].layers[1] if rel in ep.samples else () for ep in episodes]
    first_sizes = [len(f) for f in firsts]
    first = np.fromiter(chain.from_iterable(firsts), np.intp, sum(first_sizes))
    first_episode = np.repeat(np.arange(len(episodes)), first_sizes)
    targets = np.fromiter((ep.target.index for ep in episodes), np.intp, len(episodes))
    span = 1 + max(targets.max(initial=0), parent.max(initial=0), child.max(initial=0))

    # per kind, one numbering of its (episode, index) keys, targets first
    as_parent = {ka: parent_is_a, kb: ~parent_is_a} if ka != kb else {ka: parent_is_a}
    nodes: dict[str, np.ndarray] = {}
    src = np.empty(child.size, dtype=np.intp)
    dst = np.empty(child.size, dtype=np.intp)
    for k in other:
        par, kid = as_parent[k], as_parent[other[k]]
        rest = [episode[par] * span + parent[par], episode[kid] * span + child[kid]]
        if k == other[kind]:
            rest.append(first_episode * span + first)
        head = np.arange(len(episodes)) * span + targets if k == kind else np.zeros(0, np.intp)
        rows, keys = _number_rows(head, np.concatenate(rest))
        n_par, n_kid = np.count_nonzero(par), np.count_nonzero(kid)
        src[par], dst[kid] = rows[:n_par], rows[n_par : n_par + n_kid]
        if k == other[kind]:
            first_rows = rows[n_par + n_kid :]
        nodes[k] = keys % span
    shape = {k: (nodes[k].size, nodes[other[k]].size) for k in other}
    ops = {k: neighbor_mean(src[as_parent[k]], dst[as_parent[k]], shape[k]) for k in other}
    return nodes, ops, degree_plan(first_sizes, first_rows)


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
        if not members.runs:
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
