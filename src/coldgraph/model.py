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
channel presence as a mask.  Each step computes only the rows that later
steps and fusion read: its operator is a cut (:meth:`SparseOperator.cut`)
of one neighbor-mean operator per relation side, the rows the cut names
over the columns of the rows the step before computed, and its self path
gathers the same rows.  It runs over one of two graphs:

* the complete training graph (:class:`GraphTensors`): one channel
  propagation per relation (:func:`propagations`) and the fusion of a
  step (:func:`fuse`).  The ranking loss and evaluation fuse the last
  step (:func:`full_embeddings`); a teacher's layer sums fuse every step
  (:func:`reconstruction.layer_sum_table`).  Every step but the last
  computes every row, because the 3-hop field of even a small batch
  covers almost every node.  The last step cuts the rows that fusion
  reads: the rows the loss reads, and for read groups their GU members;
  no channel reads GI's item side, so it is never computed.  Evaluation
  and teachers read every row;
* the masked, K-sampled neighborhood trees of an episode batch (the
  cold-start simulation of the pretext task, :func:`embed_from_episode`).
  The sampler numbers each relation's trees as one small graph, a
  :class:`graph.Forest` whose rows are the distinct (tree, node) pairs and
  whose edges link each expanded row to its sampled children.  Rows are
  numbered by the depth that first reached them, so step l cuts a leading
  block of rows per kind: the rows within L - l hops of what the last step
  reads (the targets, and for groups their GU members).  The operators
  are built from the forest's edge arrays, and the targets' first-order
  edges are the member-aggregate segments.

When enhancer meta embeddings are supplied, the self path of the meta rows
(every node computed, or the episode targets) is replaced by a learned
projection of ``concat(self, meta)`` at every convolution step."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Sequence

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
    """Xavier-uniform initial values in float32, the dtype of every model
    and enhancer parameter.  The draws are float64 values rounded once."""
    if len(shape) == 2:
        fan_out, fan_in = shape
    else:
        fan_out, fan_in = shape[0], 1
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


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


def select_rows(h: Tensor, ids: np.ndarray) -> Tensor:
    """Rows ``ids`` (ascending and distinct) of ``h``; all of them is ``h`` itself."""
    return h if ids.size == h.shape[0] else ad.gather_rows(h, ids)


def _self_rows(
    h: Tensor, op: SparseOperator, meta: Tensor | None, proj: Tensor | None
) -> Tensor:
    """The self path of the rows of ``h`` that ``op`` computes, its
    ``row_ids`` (every row when None).  With ``meta``, each of them whose
    id is below ``len(meta)`` becomes ``concat(self, meta[id]) @ proj``:
    the targets in a forest, every row on the full graph."""
    ids = np.arange(op.shape[0]) if op.row_ids is None else op.row_ids
    if meta is None:
        return select_rows(h, ids)
    n = int(np.searchsorted(ids, meta.shape[0]))  # ids ascend: ids[:n] are below len(meta)
    injected = ad.matmul(ad.concat([select_rows(h, ids[:n]), select_rows(meta, ids[:n])], axis=1), proj)
    return injected if n == ids.size else ad.concat([injected, select_rows(h, ids[n:])], axis=0)


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
    """Constant full-graph structure of one interaction graph, kept as ``graph``.

    ``norm[(rel, kind)]`` is the row-normalized adjacency D^-1 A from
    ``kind``'s side of relation ``rel``, a :class:`SparseOperator` of shape
    (n_kind, n_other); the two directions of UU and GG are one shared
    object.  ``mask[(rel, kind)]`` marks the rows with at least one
    neighbor.  Each degree grouping (:meth:`neighbor_plan`) is built on its
    first use and kept.
    """

    def __init__(self, graph: InteractionGraph):
        self.graph = graph
        self.norm: dict[tuple[str, str], SparseOperator] = {}
        self.mask: dict[tuple[str, str], np.ndarray] = {}
        for rel, (ka, kb) in RELATION_KINDS.items():
            for kind, other in dict.fromkeys(((ka, kb), (kb, ka))):
                indptr, indices = graph.csr(rel, kind)
                deg = np.diff(indptr)
                rows = np.repeat(np.arange(deg.size), deg)
                self.norm[(rel, kind)] = neighbor_mean(rows, indices, (deg.size, graph.counts[other]))
                self.mask[(rel, kind)] = deg > 0
        self._plans: dict[tuple, DegreePlan] = {}

    def member_plan(self, groups: np.ndarray | None) -> tuple[DegreePlan, np.ndarray | None]:
        """The GU member plan of the ascending ``groups`` and the ascending
        ids of their members, which its ``cols`` index.  ``groups`` None
        means every group; ``cols`` then hold user ids, and no ids return."""
        if groups is None:
            return self.neighbor_plan([("GU", "group")]), None
        indptr, indices = self.graph.csr("GU", "group")
        plan = degree_plan(np.diff(indptr)[groups], indices, indptr[groups])
        users, cols = np.unique(plan.cols, return_inverse=True)
        return replace(plan, cols=cols), users

    def neighbor_plan(
        self, pairs: Sequence[tuple[str, str]], offset: Mapping[str, int] | None = None
    ) -> DegreePlan:
        """One degree grouping of ``kind``'s neighbors in relation ``rel``
        for every (rel, kind) pair, the targets listed pair after pair.  A
        neighbor of kind k is row ``offset[k]`` (default 0) plus its index:
        its row in a table that stacks the kinds."""
        offset = offset or {}
        key = (tuple(pairs), tuple(sorted(offset.items())))
        plan = self._plans.get(key)
        if plan is None:
            sizes, cols = [], []
            for rel, kind in pairs:
                indptr, indices = self.graph.csr(rel, kind)
                ka, kb = RELATION_KINDS[rel]
                sizes.append(np.diff(indptr))
                cols.append(indices + offset.get(kb if kind == ka else ka, 0))
            plan = self._plans[key] = degree_plan(np.concatenate(sizes), np.concatenate(cols))
        return plan


def _relation_steps(
    rel: str,
    layer_ops: Sequence[Mapping[str, SparseOperator]],
    h0: Mapping[str, Tensor],
    params: ModelParams,
    inject: Mapping[str, Tensor | None] | None = None,
) -> Iterator[dict[str, Tensor]]:
    """Propagation over one relation, one step at a time.

    ``h0[kind]`` holds the initial rows of ``kind``.  ``layer_ops[l - 1]``
    maps each kind that step l computes to its constant neighbor-mean
    operator (one entry for UU and GG): an (m, m') operator makes step l
    compute m rows of ``kind``, from as many rows of its step l - 1 and
    the m' leading rows of the other kind's.  Those m rows are the
    operator's ``row_ids``, every row when it is no cut.  The full graph
    passes every row at every step but the last, where it cuts the rows
    that fusion reads.  An episode forest cuts leading blocks, the rows
    its targets read, a prefix that shrinks with l.
    ``inject[kind]``, when given, is a meta matrix whose row i meta-injects
    the row of ``kind`` with id i at every step: every row over the full
    graph, the targets in an episode forest.

    Yields, after each step l = 1, 2, ..., each endpoint kind's rows of
    the last step that computed it (a kind that step l does not compute
    keeps its earlier rows).  The generator holds only the step it yielded
    last, so a caller that keeps only the last yield holds no earlier step.
    """
    inject = inject or {}
    ka, kb = RELATION_KINDS[rel]
    other = {ka: kb, kb: ka}
    proj = params.meta_proj.get(rel)
    h = dict(h0)
    for layer, ops in enumerate(layer_ops, 1):
        neigh = {kind: ad.spmm(op, h[other[kind]]) for kind, op in ops.items()}
        w = params.conv_w[layer - 1] if params.variant == "gcn" else None
        for kind, op in ops.items():  # no local outlives the step but h
            h[kind] = _conv_matrix(
                params.variant, _self_rows(h[kind], op, inject.get(kind), proj), neigh.pop(kind), w
            )
        yield dict(h)


def _last_step(steps: Iterator[dict[str, Tensor]]) -> dict[str, Tensor]:
    """The last yield of :func:`_relation_steps`, holding no earlier step."""
    for h in steps:
        pass
    return h


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
    """Embeddings from a full-neighborhood forward pass.

    ``fused[kind]`` holds the fused rows of ``kind``'s nodes ``rows[kind]``
    (ascending ids), or of every node where that is None or missing;
    :meth:`positions` maps node ids to those rows, which :meth:`lookup`
    gathers and the ranking loss reads by index.
    """

    fused: dict[str, Tensor]
    rows: dict[str, np.ndarray | None]

    def positions(self, kind: str, ids) -> np.ndarray:
        """The rows of ``fused[kind]`` that hold ``kind``'s nodes ``ids``, in
        that order: the ids themselves where the pass computed every row.

        Raises KeyError naming the first node the pass did not compute.
        """
        ids = np.asarray(ids, dtype=np.intp)
        rows = self.rows.get(kind)
        if rows is None:
            return ids
        at = np.searchsorted(rows, ids)
        found = at < rows.size
        found[found] = rows[at[found]] == ids[found]
        if not found.all():
            raise KeyError(f"the pass computed no row of {kind}:{ids[~found][0]}")
        return at

    def lookup(self, kind: str, ids) -> Tensor:
        """The fused rows of ``kind``'s nodes ``ids``, in that order; a node
        the pass did not compute raises KeyError (:meth:`positions`)."""
        return ad.gather_rows(self.fused[kind], self.positions(kind, ids))

    def arrays(self) -> dict[str, np.ndarray]:
        """Every node's fused embedding in float64, the dtype evaluation
        scores in."""
        if any(r is not None for r in self.rows.values()):
            raise ValueError("the pass computed only the rows a loss reads")
        return {k: v.data.astype(np.float64) for k, v in self.fused.items()}


def propagations(gtens: GraphTensors, params: ModelParams, metas=None, rows=None, users=None) -> dict:
    """The full-graph propagation (:func:`_relation_steps`) of each channel
    source, keyed as :func:`fuse` reads them; users and items have one UI
    propagation, or "UI_user" and "UI_item" where ``metas[(kind, "UI")]``
    meta-injects either (:func:`full_embeddings`).  Every step but the last
    computes every row; the last computes the ascending ids ``rows[kind]``
    (None, or a kind left out: every row), and GU's the ``users``.
    """
    metas, rows = metas or {}, rows or {}

    def steps(rel: str, kind: str, read: tuple[str, ...] | None = None) -> Iterator[dict[str, Tensor]]:
        # meta-injects kind; the last step computes the rows of the kinds read (default kind)
        last = dict(rows, user=users) if rel == "GU" else rows
        whole = {k: gtens.norm[(rel, k)] for k in RELATION_KINDS[rel]}
        cut = {k: whole[k] if last.get(k) is None else whole[k].cut(last[k]) for k in read or (kind,)}
        h0 = {k: params.table(k) for k in whole}
        ops = [whole] * (params.layers - 1) + [cut]
        return _relation_steps(rel, ops, h0, params, {kind: metas.get((kind, rel))})

    props = {
        "GI": steps("GI", "group"),
        "GU": steps("GU", "group", ("group", "user")),
        "GG": steps("GG", "group"),
        "UU": steps("UU", "user"),
    }
    if metas.get(("user", "UI")) is None and metas.get(("item", "UI")) is None:
        props["UI"] = steps("UI", "user", ("user", "item"))
    else:
        props["UI_user"], props["UI_item"] = steps("UI", "user"), steps("UI", "item")
    return props


def fuse(gtens: GraphTensors, params: ModelParams, h: Mapping, rows=None, members=None) -> dict[str, Tensor]:
    """The fused rows per kind of one step of :func:`propagations`, whose
    rows per propagation are ``h``: of each kind the ascending ids
    ``rows[kind]`` (None, or a kind left out: every row).  ``members`` is
    the GU member plan of those groups, built here when None."""
    rows = rows or {}
    members = gtens.member_plan(rows.get("group"))[0] if members is None else members
    gu_agg = _member_aggregate(members, h["GU"]["user"], params)
    ui_user, ui_item = (h["UI"], h["UI"]) if "UI" in h else (h["UI_user"], h["UI_item"])
    mats = {
        "group": {"GI": h["GI"]["group"], "GU": h["GU"]["group"], "GG": h["GG"]["group"]},
        "user": {"UI": ui_user["user"], "UU": h["UU"]["user"]},
        "item": {"UI": ui_item["item"]},
    }
    if gu_agg is not None:
        mats["group"]["GU_AGG"] = gu_agg
    out = {}
    for kind in KINDS:
        # a group has the member-aggregate channel iff it has a GU neighbor
        masks = {c: gtens.mask[("GU" if c == "GU_AGG" else c, kind)] for c in CHANNELS_BY_KIND[kind]}
        e0, ids = params.table(kind), rows.get(kind)
        if ids is not None:
            e0 = ad.gather_rows(e0, ids)
            masks = {c: m[ids] for c, m in masks.items()}
        out[kind] = fuse_present(kind, mats[kind], masks, params.fusion, e0)
    return out


def full_embeddings(
    gtens: GraphTensors,
    params: ModelParams,
    metas: Mapping[tuple[str, str], Tensor] | None = None,
    reads: Mapping[str, np.ndarray | None] | None = None,
) -> FullState:
    """Embed users, items and groups over the complete adjacency: each of
    :func:`propagations` runs to its end in turn, keeping only its last
    step, and :func:`fuse` fuses the last steps.

    ``reads[kind]`` lists the ascending ids of the nodes whose fused rows
    the caller reads; None, or a kind left out, means every node.  Every
    step but the last computes every row; the last step and fusion compute
    only the rows read, plus the GU rows of the read groups' members, and
    :meth:`FullState.lookup` finds them by id.  No channel reads GI's item
    side at the last step, so no pass computes it.  ``metas`` maps (kind,
    relation) to an all-node meta matrix that meta-injects that kind's self
    path at every step of that relation's propagation.
    """
    reads = reads or {}
    # the rows the last step computes per kind; as many distinct ids as rows are all
    rows = {
        k: None if reads.get(k) is None or len(reads[k]) == n else np.asarray(reads[k], np.intp)
        for k, n in gtens.graph.counts.items()
    }
    members, users = gtens.member_plan(rows["group"])
    last = {name: _last_step(p) for name, p in propagations(gtens, params, metas, rows, users).items()}
    return FullState(fused=fuse(gtens, params, last, rows, members), rows=rows)


# ---------------------------------------------------------------------------
# episode forests
# ---------------------------------------------------------------------------


def _forest_operators(forest: Forest, layers: int, reach: int) -> list[dict[str, SparseOperator]]:
    """The per-step operators of :func:`_relation_steps` over a forest,
    computing at step l only the rows the last step still reads: the rows
    first reached at depth ``reach`` + ``layers`` - l or less, where the
    last step reads the rows of depth ``reach`` or less (the targets, and
    for ``reach`` = 1 their members).  A forest is ``reach`` + ``layers``
    deep: a group GU tree is sampled one level deeper than the others.

    Per endpoint kind, one operator takes the mean over each row's sampled
    children (leaves and rows of a kind that is never expanded have none);
    step l cuts its leading block, and every block's transpose is cut from
    that operator's one transpose.
    """
    ka, kb = RELATION_KINDS[forest.relation]
    other = {ka: kb, kb: ka}
    whole = {}
    for k in other:
        edges = [(p, c) for pk, (_, p, c) in zip(forest.kinds, forest.layers) if pk == k]
        rows = np.concatenate([np.zeros(0, np.intp)] + [p for p, _ in edges])
        cols = np.concatenate([np.zeros(0, np.intp)] + [c for _, c in edges])
        shape = (forest.nodes[k].size, forest.nodes[other[k]].size)
        whole[k] = neighbor_mean(rows, cols, shape)
    # step l computes the rows of depth <= reads[l] from those of depth <= reads[l - 1]
    reads = [reach + layers - l for l in range(layers + 1)]
    return [
        {
            k: op.cut(np.arange(forest.prefix[k][reads[l]]), forest.prefix[other[k]][reads[l - 1]])
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
        out = _last_step(_relation_steps(rel, ops, h0, params, {kind: metas.get(rel)}))
        channels[rel] = out[kind]  # the last step computes the n targets' rows alone
        masks[rel] = members.present
        if (kind, rel) == ("group", "GU"):
            channels["GU_AGG"] = _member_aggregate(members, out["user"], params)
            masks["GU_AGG"] = members.present
    e0 = ad.gather_rows(params.table(kind), episodes.targets)
    return fuse_present(kind, channels, masks, params.fusion, e0)
