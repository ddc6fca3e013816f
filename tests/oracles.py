"""Per-node and per-tree reference math for the equivalence tests.

``coldgraph.model`` propagates, aggregates and fuses whole batches at once;
these functions do the same one node or one sampled tree at a time, the
way the paper states the recursion, so the batched code can be checked
against them value for value and gradient for gradient.  Likewise the
tuple-relation graph code at the end walks edges one at a time where
``coldgraph.graph`` works on edge arrays, and the synthetic generator draws
each relation's hits in one dense array where ``coldgraph.graph`` draws
blocks of rows.
"""

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from coldgraph import autodiff as ad
from coldgraph import enhancer, model
from coldgraph.autodiff import Tensor, _check_2d, _emit, _sigmoid
from coldgraph.graph import (
    COLD_ANCHOR_KEEP,
    COLD_ITEM_KEEP,
    KINDS,
    RELATION_KINDS,
    RELATIONS,
    RELATIONS_BY_KIND,
    TIMESTAMPED_RELATIONS,
    EvalSplit,
    InteractionGraph,
    SyntheticSpec,
)
from coldgraph.model import CHANNELS_BY_KIND
from coldgraph.reconstruction import GroundTruthTable
from coldgraph.sparse import neighbor_mean


def as_float64(*params):
    """Cast every tensor of the given model or enhancer parameters to
    float64 in place; returns the first.

    The model trains in float32; the equivalence tests compare it with
    float64 oracles to 1e-12, so they run it in float64 through here.
    """
    for p in params:
        for t in p.tensors():
            t.data = t.data.astype(np.float64)
    return params[0]


# ---------------------------------------------------------------------------
# autodiff ops that only the tests use
# ---------------------------------------------------------------------------


def transpose(a: Tensor) -> Tensor:
    _check_2d(a, "transpose")
    return _emit(a.data.T, (a,), lambda g: (g.T,))


def sum_all(a: Tensor) -> Tensor:
    """Sum of every element, producing a scalar."""
    return _emit(np.asarray(a.data.sum()), (a,), lambda g: (np.full(a.shape, g, g.dtype),))


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)

    def vjp(g):
        return (g * s * (1.0 - s),)

    return _emit(s, (a,), vjp)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise ValueError("log of a non-positive value")

    def vjp(g):
        return (g / a.data,)

    return _emit(np.log(a.data), (a,), vjp)


class Node(NamedTuple):
    """One node, the key of the per-node ground-truth dicts."""

    kind: str
    index: int


def truth_table(counts, vectors, d=None, provenance="t"):
    """A ground-truth table from per-node vectors ``{(kind, index): vec}``:
    every kind gets ``counts[kind]`` rows (without ``counts``, just enough
    for the given nodes), known exactly at the given nodes."""
    if counts is None:
        counts = {kind: 1 + max((i for k, i in vectors if k == kind), default=-1) for kind in KINDS}
    d = len(next(iter(vectors.values()))) if d is None else d
    rows = {kind: np.zeros((counts[kind], d)) for kind in KINDS}
    known = {kind: np.zeros(counts[kind], dtype=bool) for kind in KINDS}
    for (kind, index), vec in vectors.items():
        rows[kind][index] = vec
        known[kind][index] = True
    return GroundTruthTable(rows, known, provenance)


def truth_vector(table, node):
    """One node's ground-truth vector, looked up on its own."""
    return table.lookup(node[0], [node[1]])[0]


def layer_sum_table(state, split):
    """Ground truth per warm node, ``{(kind, index): vec}``: the node's sum of
    its per-step fused embeddings, one node at a time."""
    vectors = {}
    for kind in ("group", "user", "item"):
        sums = np.array(state.layer_sums[kind].data)
        for idx in sorted(tuple_split(split).warm[kind]):
            vectors[(kind, idx)] = sums[idx]
    return vectors


def neighbors(graph, rel, kind, index):
    """Sorted neighbor indices of one node, read from the graph's CSR."""
    indptr, indices = graph.csr(rel, kind)
    return tuple(indices[indptr[index] : indptr[index + 1]].tolist())


def as_lists(arrays):
    """A graph's per-relation arrays (edges or timestamps) as plain lists."""
    return {rel: None if v is None else v.tolist() for rel, v in arrays.items()}


def read_id_map(path):
    """The ``{kind: {external id: index}}`` tables of an ``ids.tsv`` written
    by ``IdMap.save``; ValueError when an id of a kind has two indices."""
    forward = {kind: {} for kind in KINDS}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        kind, ext, idx = line.split("\t")
        if forward[kind].setdefault(ext, int(idx)) != int(idx):
            raise ValueError(f"id collision for {kind} {ext!r}")
    return forward


def dedup_mean(rows, cols, shape):
    """``neighbor_mean`` of an edge list that may repeat a pair: each
    distinct pair sets one cell."""
    pairs = np.unique(np.stack([np.asarray(rows), np.asarray(cols)], axis=1).reshape(-1, 2), axis=0)
    return neighbor_mean(pairs[:, 0], pairs[:, 1], shape)


def conv_step(variant, self_emb, neighbor_embs, weight=None, meta_emb=None, meta_proj=None):
    """One convolution of a single node given its sampled neighbors.

    The neighbor mean is the zero vector when the list is empty.  With a meta
    embedding the self input becomes ``concat(self, meta) @ meta_proj``.
    """
    s = self_emb
    if meta_emb is not None:
        s = ad.matmul(ad.concat([self_emb, meta_emb]), meta_proj)
    if neighbor_embs:
        nbar = ad.mean_rows(ad.stack_rows(list(neighbor_embs)))
    else:
        nbar = ad.const(np.zeros(self_emb.shape))
    if variant == "light":
        return ad.scale(ad.add(s, nbar), 0.5)
    return ad.relu(ad.matmul(ad.concat([s, nbar]), weight))


def aggregate_members(members, score):
    """Attention pooling of an (m, d) member matrix into one vector."""
    weights = ad.softmax(ad.matmul(members, score))
    return ad.matmul(weights, members)


def fuse_channels(channels, weights, order):
    """Soft-attention fusion of one node's present channel vectors.

    The attention logit of channel c is the coordinate sum of ``h_c @ W_c``;
    absent channels do not enter the softmax.
    """
    keys = [c for c in order if c in channels]
    if len(keys) == 1:
        return channels[keys[0]], {keys[0]: 1.0}
    logits = ad.concat([sum_all(ad.matmul(channels[c], weights[c])) for c in keys])
    attn = ad.softmax(logits)
    fused = ad.matmul(attn, ad.stack_rows([channels[c] for c in keys]))
    return fused, {c: float(a) for c, a in zip(keys, attn.data)}


def reconstruction_loss(predicted, target):
    """1 - cosine(predicted, target) of one vector, on the tape."""
    return ad.sub(ad.const(np.ones(())), ad.cosine_similarity(predicted, ad.const(target)))


def tree_nodes(sample):
    """Distinct (kind, index) pairs of a sampled tree in first-seen layer order."""
    seen = {}
    for kind, layer in zip(sample.kinds, sample.layers):
        for idx in layer:
            seen.setdefault((kind, idx), None)
    return list(seen)


def propagate_tree(sample, params, steps, meta_vec=None):
    """``steps`` convolutions over one sampled tree with a dense operator.

    Returns ``(target_vec, node_matrix, position_map)``; the first two are
    None when the relation sampled no neighbor.
    """
    if not sample.layers[1]:
        return None, None, {}
    nodes = tree_nodes(sample)
    pos = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    h = ad.stack_rows(
        [ad.mean_rows(ad.gather_rows(params.table(kind), [idx])) for kind, idx in nodes]
    )
    ka, kb = RELATION_KINDS[sample.relation]
    children = np.zeros((n, n))
    for (kind, idx), kids in sample.children.items():
        child_kind = kb if kind == ka else ka
        for c in kids:
            children[pos[(kind, idx)], pos[(child_kind, c)]] += 1.0 / len(kids)
    children = ad.const(children)
    onehot = np.zeros((n, 1))
    onehot[0, 0] = 1.0  # layer 0 (the target) comes first
    for layer in range(steps):
        neigh = ad.matmul(children, h)
        self_mat = h
        if meta_vec is not None:
            current = ad.mean_rows(ad.gather_rows(h, [0]))
            projected = ad.matmul(ad.concat([current, meta_vec]), params.meta_proj[sample.relation])
            diff = ad.stack_rows([ad.sub(projected, current)])
            self_mat = ad.add(h, ad.matmul(ad.const(onehot), diff))
        if params.variant == "light":
            h = ad.scale(ad.add(self_mat, neigh), 0.5)
        else:
            h = ad.relu(ad.matmul(ad.concat([self_mat, neigh], axis=1), params.conv_w[layer]))
    return ad.mean_rows(ad.gather_rows(h, [0])), h, pos


def embed_episode(episode, params, metas=None):
    """One target's embedding from its masked neighborhood, (d,).

    ``metas`` maps a relation to the target's meta vector.  Channels whose
    relation sampled no neighbor are dropped; an isolated target keeps its
    initial embedding.
    """
    metas = metas or {}
    kind = episode.target.kind
    channels = {}
    for rel, sample in episode.samples.items():
        vec, mat, pos = propagate_tree(sample, params, episode.depth, metas.get(rel))
        if vec is None:
            continue
        channels[rel] = vec
        if rel == "GU" and kind == "group":
            members = ad.gather_rows(mat, [pos[("user", u)] for u in sample.layers[1]])
            channels["GU_AGG"] = aggregate_members(members, params.member_score)
    if not channels:
        return ad.mean_rows(ad.gather_rows(params.table(kind), [episode.target.index]))
    fused, _ = fuse_channels(channels, params.fusion, CHANNELS_BY_KIND[kind])
    return fused


# ---------------------------------------------------------------------------
# per-bucket and per-pattern groupings: the batched code before the ragged
# segment ops and the fused fusion op, one op call per degree bucket or
# channel-presence pattern
# ---------------------------------------------------------------------------


def degree_buckets(sizes, cols):
    """Neighbor rows grouped by target degree, one bucket per degree.

    Returns ``(buckets, inverse, isolated)``: ``buckets`` pairs each degree
    m with the neighbor rows of its targets (ascending, m rows each);
    ``inverse`` maps each target to its row in the bucket stacking followed
    by the ``isolated`` neighborless targets.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    start = np.cumsum(sizes) - sizes
    buckets, order = [], []
    for m in np.unique(sizes[sizes > 0]):
        targets = np.flatnonzero(sizes == m)
        buckets.append((int(m), cols[(start[targets, None] + np.arange(m)).reshape(-1)]))
        order.append(targets)
    order.append(np.flatnonzero(sizes == 0))
    inverse = np.empty(sizes.size, dtype=np.intp)
    inverse[np.concatenate(order)] = np.arange(sizes.size)
    return buckets, inverse, int(np.count_nonzero(sizes == 0))


def assemble(pieces, inverse, isolated, d):
    """Per-target matrix from one piece per bucket; zero rows for the isolated."""
    pieces = list(pieces)
    if isolated or not pieces:
        pieces.append(ad.const(np.zeros((isolated, d))))
    stacked = pieces[0] if len(pieces) == 1 else ad.concat(pieces, axis=0)
    return ad.gather_rows(stacked, inverse)


def attention_pool_block(rows, m, score):
    """Attention pooling of each block of m consecutive rows into one row."""
    if m == 1:
        return rows
    n = rows.shape[0]
    attn = ad.reshape(ad.softmax(ad.reshape(ad.matmul(rows, score), (n // m, m))), (n,))
    return ad.sum_consecutive(ad.scale_rows(rows, attn), m)


def relation_metas_by_bucket(qkv, sizes, cols, d, member_score=None):
    """Per-target smoothed-neighbor means (and pooled rows) bucket by bucket."""
    buckets, inverse, isolated = degree_buckets(sizes, cols)
    means, pooled = [], []
    for m, flat in buckets:
        smoothed = ad.segment_attention(*qkv(flat), m)
        means.append(ad.scale(ad.sum_consecutive(smoothed, m), 1.0 / m))
        if member_score is not None:
            pooled.append(attention_pool_block(smoothed, m, member_score))
    out = assemble(means, inverse, isolated, d)
    return out, assemble(pooled, inverse, isolated, d) if pooled else None


def fusion_patterns(order, masks):
    """Rows grouped by channel-presence pattern, plus the stacking inverse."""
    present = np.stack(masks, axis=1)
    uniq, which = np.unique(present, axis=0, return_inverse=True)
    which = which.reshape(-1)
    patterns = sorted(
        (tuple(c for c, p in zip(order, row) if p), np.flatnonzero(which == j))
        for j, row in enumerate(uniq)
    )
    inverse = np.empty(present.shape[0], dtype=np.intp)
    inverse[np.concatenate([rows for _, rows in patterns])] = np.arange(present.shape[0])
    return patterns, inverse


def fuse_by_pattern(kind, channel_mats, masks, weights, e0):
    """Fusion one presence pattern at a time, logits as row sums of M_c W_c."""
    order = CHANNELS_BY_KIND[kind]
    absent = np.zeros(e0.shape[0], dtype=bool)
    patterns, inverse = fusion_patterns(order, [masks.get(c, absent) for c in order])
    pieces = []
    for present, idxs in patterns:
        if not present:
            sub = ad.gather_rows(e0, idxs)
        elif len(present) == 1:
            sub = ad.gather_rows(channel_mats[present[0]], idxs)
        else:
            subs = {c: ad.gather_rows(channel_mats[c], idxs) for c in present}
            logit_rows = [ad.row_sums(ad.matmul(subs[c], weights[c])) for c in present]
            attn = ad.softmax(transpose(ad.stack_rows(logit_rows)))
            sub = None
            for j, c in enumerate(present):
                unit = np.zeros(len(present))
                unit[j] = 1.0
                piece = ad.scale_rows(subs[c], ad.matmul(attn, ad.const(unit)))
                sub = piece if sub is None else ad.add(sub, piece)
        pieces.append(sub)
    stacked = pieces[0] if len(pieces) == 1 else ad.concat(pieces, axis=0)
    return ad.gather_rows(stacked, inverse)


def first_order(episode, rel):
    sample = episode.samples.get(rel)
    return sample.layers[1] if sample is not None and len(sample.layers) > 1 else ()


def warmup_loss(episodes, ground_truth, params, tables):
    """The warm-up loss of one batch with per-step planning: kinds in order
    of first appearance, isolated targets skipped, per-bucket relation
    metas and per-pattern fusion; None when every target is isolated."""
    from coldgraph.graph import RELATIONS_BY_KIND

    positions = {}
    for i, ep in enumerate(episodes):
        positions.setdefault(ep.target.kind, []).append(i)
    terms = []
    for kind, pos in positions.items():
        rels = RELATIONS_BY_KIND[kind]
        batch = [episodes[i] for i in pos if any(first_order(episodes[i], r) for r in rels)]
        if not batch:
            continue
        channels, masks = {}, {}
        for rel in rels:
            firsts = [first_order(ep, rel) for ep in batch]
            sizes = np.array([len(f) for f in firsts], dtype=np.intp)
            if not sizes.any():
                continue
            cols = np.fromiter((c for f in firsts for c in f), np.intp, int(sizes.sum()))
            ka, kb = RELATION_KINDS[rel]
            table = tables(kb if kind == ka else ka)

            def qkv(flat, table=table):
                x = ad.gather_rows(table, flat)
                return tuple(ad.matmul(x, w) for w in (params.wq, params.wk, params.wv))

            score = params.member_score if (kind, rel) == ("group", "GU") else None
            channels[rel], agg = relation_metas_by_bucket(qkv, sizes, cols, params.d, score)
            masks[rel] = sizes > 0
            if agg is not None:
                channels["GU_AGG"], masks["GU_AGG"] = agg, sizes > 0
        e0 = ad.const(np.zeros((len(batch), params.d)))
        fused = fuse_by_pattern(kind, channels, masks, params.fusion, e0)
        truth = np.stack([truth_vector(ground_truth, ep.target) for ep in batch])
        cos = ad.cosine_similarity(fused, ad.const(truth))
        terms.append(ad.sub(ad.const(np.ones(len(batch))), cos))
    if not terms:
        return None
    return ad.mean_rows(terms[0] if len(terms) == 1 else ad.concat(terms))


# ---------------------------------------------------------------------------
# dict trees: one episode per target, each relation's tree as layer tuples
# and a children map, and the batched code that read them
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationSample:
    """One relation's sampled tree around a target.

    ``layers[l]`` lists the distinct nodes reached at depth l (a node may
    recur deeper), ``kinds[l]`` their kind, and ``children`` maps each
    expanded (kind, index) to its sampled neighbors.
    """

    relation: str
    kinds: tuple
    layers: tuple
    children: Mapping


@dataclass(frozen=True)
class Episode:
    target: Node
    depth: int
    samples: Mapping


def _tree_layers(kinds, target, children):
    layers = [(target,)]
    for level in range(len(kinds) - 1):
        seen = {}
        for idx in layers[level]:
            for child in children.setdefault((kinds[level], idx), ()):
                seen.setdefault(child, None)
        layers.append(tuple(seen))
    return tuple(layers)


def dict_trees(batch):
    """The episode batch as one dict-tree episode per target, in order."""
    out = []
    for b, target in enumerate(batch.targets.tolist()):
        samples = {}
        for rel, forest in batch.forests.items():
            children = {}
            for (tree, parent, child), pk, ck in zip(forest.layers, forest.kinds, forest.kinds[1:]):
                mine = tree == b
                for p, c in zip(forest.nodes[pk][parent[mine]].tolist(), forest.nodes[ck][child[mine]].tolist()):
                    children.setdefault((pk, p), []).append(c)
            children = {key: tuple(v) for key, v in children.items()}
            layers = _tree_layers(forest.kinds, target, children)
            samples[rel] = RelationSample(rel, forest.kinds, layers, children)
        out.append(Episode(Node(batch.kind, target), batch.depth, samples))
    return out


def number_rows(head, rest):
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


def episode_forest(episodes, kind, rel):
    """One relation's dict trees of an episode batch, as one small graph.

    Returns ``(nodes, trees, ops, members)``: ``nodes[k]`` and ``trees[k]``
    give the table index and the episode of each row of kind k, with the n
    targets as the first n rows of their kind; ``ops[k]`` averages each
    row's sampled children; ``members`` groups the targets' first-order
    neighbor rows by target degree.
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
    firsts = [first_order(ep, rel) for ep in episodes]
    first_sizes = [len(f) for f in firsts]
    first = np.fromiter(chain.from_iterable(firsts), np.intp, sum(first_sizes))
    first_episode = np.repeat(np.arange(len(episodes)), first_sizes)
    targets = np.fromiter((ep.target.index for ep in episodes), np.intp, len(episodes))
    span = 1 + max(targets.max(initial=0), parent.max(initial=0), child.max(initial=0))

    as_parent = {ka: parent_is_a, kb: ~parent_is_a} if ka != kb else {ka: parent_is_a}
    nodes, tree_rows = {}, {}
    src = np.empty(child.size, dtype=np.intp)
    dst = np.empty(child.size, dtype=np.intp)
    for k in other:
        par, kid = as_parent[k], as_parent[other[k]]
        rest = [episode[par] * span + parent[par], episode[kid] * span + child[kid]]
        if k == other[kind]:
            rest.append(first_episode * span + first)
        head = np.arange(len(episodes)) * span + targets if k == kind else np.zeros(0, np.intp)
        rows, keys = number_rows(head, np.concatenate(rest))
        n_par, n_kid = np.count_nonzero(par), np.count_nonzero(kid)
        src[par], dst[kid] = rows[:n_par], rows[n_par : n_par + n_kid]
        if k == other[kind]:
            first_rows = rows[n_par + n_kid :]
        nodes[k], tree_rows[k] = keys % span, keys // span
    shape = {k: (nodes[k].size, nodes[other[k]].size) for k in other}
    ops = {k: neighbor_mean(src[as_parent[k]], dst[as_parent[k]], shape[k]) for k in other}
    return nodes, tree_rows, ops, model.degree_plan(first_sizes, first_rows)


def relation_steps_all_rows(rel, ops, h0, params, inject):
    """Every step of one relation over every row of a forest: ``ops[kind]``
    is the one neighbor-mean operator of all steps, and the leading
    ``len(inject[kind])`` rows of ``kind`` are meta-injected."""
    ka, kb = RELATION_KINDS[rel]
    other = {ka: kb, kb: ka}
    h = dict(h0)
    out = {kind: [h[kind]] for kind in h}

    def adjust(kind, x):
        meta = inject.get(kind)
        if meta is None:
            return x
        n, proj = meta.shape[0], params.meta_proj[rel]
        head = ad.matmul(ad.concat([ad.gather_rows(x, np.arange(n)), meta], axis=1), proj)
        return ad.concat([head, ad.gather_rows(x, np.arange(n, x.shape[0]))], axis=0)

    for layer in range(1, params.layers + 1):
        neigh = {kind: ad.spmm(ops[kind], h[other[kind]]) for kind in h}
        w = params.conv_w[layer - 1] if params.variant == "gcn" else None
        h = {kind: model._conv_matrix(params.variant, adjust(kind, h[kind]), neigh[kind], w) for kind in h}
        for kind in h:
            out[kind].append(h[kind])
    return out


def forest_operators_all_rows(forest):
    """Per endpoint kind, the mean over each forest row's sampled children
    (none for leaves), over all rows of both kinds."""
    ka, kb = RELATION_KINDS[forest.relation]
    other = {ka: kb, kb: ka}
    ops = {}
    for k in other:
        pairs = [(p, c) for pk, (_, p, c) in zip(forest.kinds, forest.layers) if pk == k]
        rows = np.concatenate([np.zeros(0, np.intp)] + [p for p, _ in pairs])
        cols = np.concatenate([np.zeros(0, np.intp)] + [c for _, c in pairs])
        ops[k] = neighbor_mean(rows, cols, (forest.nodes[k].size, forest.nodes[other[k]].size))
    return ops


def _embed_forests(kind, forests, targets, params, metas):
    """Fuse the channels of each relation's (nodes, ops, members) forest,
    propagated over all of its rows at every step."""
    metas = metas or {}
    channels, masks = {}, {}
    target_rows = np.arange(targets.size)
    for rel, (nodes, ops, members) in forests.items():
        if not members.runs:
            continue
        h0 = {k: ad.gather_rows(params.table(k), idx) for k, idx in nodes.items()}
        out = relation_steps_all_rows(rel, ops, h0, params, {kind: metas.get(rel)})
        channels[rel] = ad.gather_rows(out[kind][-1], target_rows)
        masks[rel] = members.present
        if (kind, rel) == ("group", "GU"):
            channels["GU_AGG"] = model._member_aggregate(members, out["user"][-1], params)
            masks["GU_AGG"] = members.present
    e0 = ad.gather_rows(params.table(kind), targets)
    return model.fuse_present(kind, channels, masks, params.fusion, e0)


def embed_forest_all_rows(batch, params, metas=None):
    """``model.embed_from_episode`` propagating every forest row at every
    step, the targets' rows read off the last, (n, d)."""
    forests = {
        rel: (forest.nodes, forest_operators_all_rows(forest), model.degree_plan(*batch.first_order(rel)))
        for rel, forest in batch.forests.items()
    }
    return _embed_forests(batch.kind, forests, batch.targets, params, metas)


def embed_dict_batch(episodes, params, metas=None):
    """The batched episode forward over dict trees, (n, d)."""
    kind = episodes[0].target.kind
    forests = {}
    for rel in RELATIONS_BY_KIND[kind]:
        nodes, _, ops, members = episode_forest(episodes, kind, rel)
        forests[rel] = (nodes, ops, members)
    targets = np.array([ep.target.index for ep in episodes], dtype=np.intp)
    return _embed_forests(kind, forests, targets, params, metas)


def episode_plans(episodes, kind):
    """Degree plans of the dict-tree targets' sampled first-order neighbors."""
    plans = {}
    for rel in RELATIONS_BY_KIND[kind]:
        firsts = [first_order(ep, rel) for ep in episodes]
        sizes = [len(f) for f in firsts]
        cols = np.fromiter(chain.from_iterable(firsts), np.intp, sum(sizes))
        plans[rel] = model.degree_plan(sizes, cols)
    return plans


def episode_metas_dict(episodes, tables, params):
    """Per-relation (n, d) meta embeddings of dict-tree episodes of one kind."""
    kind = episodes[0].target.kind
    out = {}
    for rel, plan in episode_plans(episodes, kind).items():
        if plan.runs:
            out[rel], _ = relation_metas(gathered_qkv(tables(neighbor_kind(rel, kind)), params), plan)
    return out


# ---------------------------------------------------------------------------
# the per-pair enhancer: one gather, three projections, one segment
# attention and one placed mean per (kind, relation) pair, and one fusion per
# kind, where coldgraph.enhancer runs one stacked pass
# ---------------------------------------------------------------------------


def neighbor_kind(rel, kind):
    ka, kb = RELATION_KINDS[rel]
    return kb if kind == ka else ka


def gathered_qkv(table, params):
    """Map rows ``flat`` of ``table`` to their query, key and value rows,
    projecting the gathered rows."""

    def qkv(flat):
        x = ad.gather_rows(table, flat)
        return tuple(ad.matmul(x, w) for w in (params.wq, params.wk, params.wv))

    return qkv


def projected_qkv(table, params):
    """As :func:`gathered_qkv`, but gathers from the projected table."""
    projected = [ad.matmul(table, w) for w in (params.wq, params.wk, params.wv)]
    return lambda flat: tuple(ad.gather_rows(p, flat) for p in projected)


def relation_metas(qkv, plan, member_score=None):
    """Per-target smoothed-neighbor means over one relation, (n, d), and
    with ``member_score`` the attention-pooled smoothed neighbors."""
    smoothed = ad.segment_attention(*qkv(plan.cols), plan.runs)
    means = ad.sum_consecutive(smoothed, plan.runs, plan.targets, plan.n, mean=True)
    if member_score is None:
        return means, None
    return means, model.attention_pool(smoothed, plan, member_score)


def episode_metas_per_relation(episodes, tables, params):
    """Per-relation (n, d) meta embeddings of an episode batch."""
    out = {}
    for rel, forest in episodes.forests.items():
        sizes, child = episodes.first_order(rel)
        if child.size:
            neighbor = forest.kinds[1]
            plan = model.degree_plan(sizes, forest.nodes[neighbor][child])
            out[rel], _ = relation_metas(gathered_qkv(tables(neighbor), params), plan)
    return out


def full_meta_matrices_per_pair(gtens, tables, params):
    """All-node meta matrices, one plan per (kind, relation) pair."""
    qkv = {kind: projected_qkv(tables(kind), params) for kind in KINDS}
    return {
        (kind, rel): relation_metas(qkv[neighbor_kind(rel, kind)], gtens.neighbor_plan([(rel, kind)]))[0]
        for kind, rels in RELATIONS_BY_KIND.items()
        for rel in rels
    }


class PerPairWarmupLayout:
    """The warm-up layout with one CSR per relation over the episode
    positions and one degree plan per (kind, relation) pair and step."""

    def __init__(self, batches, ground_truth, tables):
        self.truth = np.concatenate([ground_truth.lookup(b.kind, b.targets) for b in batches])
        sizes = [tables(kind).shape[0] for kind in KINDS]
        offset = dict(zip(KINDS, np.cumsum([0] + sizes[:-1]).tolist()))
        self.table = ad.const(np.concatenate([tables(kind).data for kind in KINDS]))
        codes = np.array([KINDS.index(b.kind) for b in batches], dtype=np.intp)
        self.kind = np.repeat(codes, [len(b) for b in batches])
        self.linked = np.zeros(self.kind.size, dtype=bool)
        self.csr = {}
        for rel in RELATIONS:
            counts, indices = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
            for b in batches:
                forest = b.forests.get(rel)
                if forest is None:
                    counts.append(np.zeros(len(b), np.intp))
                    continue
                sizes, child = b.first_order(rel)
                counts.append(sizes)
                indices.append(forest.nodes[forest.kinds[1]][child] + offset[forest.kinds[1]])
            counts = np.concatenate(counts)
            self.csr[rel] = (np.cumsum(np.r_[0, counts]), np.concatenate(indices))
            self.linked |= counts > 0

    def fused(self, kind, sel, params):
        """Fused meta embeddings (n, d) of the n linked ``kind`` targets at
        episode positions ``sel``."""
        qkv = gathered_qkv(self.table, params)
        channels, masks = {}, {}
        for rel in RELATIONS_BY_KIND[kind]:
            indptr, indices = self.csr[rel]
            plan = model.degree_plan(indptr[sel + 1] - indptr[sel], indices, indptr[sel])
            if not plan.runs:
                continue
            score = params.member_score if (kind, rel) == ("group", "GU") else None
            channels[rel], agg = relation_metas(qkv, plan, score)
            masks[rel] = plan.present
            if agg is not None:
                channels["GU_AGG"], masks["GU_AGG"] = agg, plan.present
        e0 = ad.const(np.zeros((sel.size, params.d), params.wq.data.dtype))
        return model.fuse_present(kind, channels, masks, params.fusion, e0)

    def loss(self, batch, params):
        """Mean cosine reconstruction loss of the episodes at positions
        ``batch``, kinds in order of first appearance; isolated targets are
        skipped; None when every target is isolated."""
        kinds = self.kind[batch]
        _, first = np.unique(kinds, return_index=True)
        terms = []
        for code in kinds[np.sort(first)]:
            sel = batch[(kinds == code) & self.linked[batch]]
            if sel.size:
                fused = self.fused(KINDS[code], sel, params)
                terms.append(enhancer._cosine_costs(fused, self.truth[sel]))
        if not terms:
            return None
        return ad.mean_rows(terms[0] if len(terms) == 1 else ad.concat(terms))


class DictWarmupLayout(PerPairWarmupLayout):
    """The per-pair warm-up layout built from a list of dict-tree episodes."""

    def __init__(self, episodes, ground_truth, tables):
        self.truth = np.array([truth_vector(ground_truth, ep.target) for ep in episodes])
        sizes = [tables(kind).shape[0] for kind in KINDS]
        offset = dict(zip(KINDS, np.cumsum([0] + sizes[:-1]).tolist()))
        self.table = ad.const(np.concatenate([tables(kind).data for kind in KINDS]))
        n = len(episodes)
        self.kind = np.fromiter((KINDS.index(ep.target.kind) for ep in episodes), np.intp, n)
        self.linked = np.zeros(n, dtype=bool)
        self.csr = {}
        for rel in RELATIONS:
            firsts = [first_order(ep, rel) for ep in episodes]
            counts = np.fromiter(map(len, firsts), np.intp, n)
            shift = [
                offset[neighbor_kind(rel, ep.target.kind)] if f else 0
                for ep, f in zip(episodes, firsts)
            ]
            indices = np.fromiter(chain.from_iterable(firsts), np.intp, int(counts.sum()))
            self.csr[rel] = (np.cumsum(np.r_[0, counts]), indices + np.repeat(shift, counts))
            self.linked |= counts > 0


# ---------------------------------------------------------------------------
# tuple relations: each relation as a tuple of (a, b) tuples plus a tuple of
# per-edge timestamps (None where unstamped), and the per-edge normalize,
# co-interaction count, segmentation and training-graph filter over them
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TupleSplit:
    """The fields of an :class:`EvalSplit` in per-node form: node sets as
    frozensets, edges as sorted tuples of (a, b) tuples."""

    warm: dict
    cold: dict
    train_n: dict
    test_n: dict
    dropped: dict
    flagged: dict
    n_g: int
    n_u: int
    n_i: int
    c_percent: float


NODE_FIELDS = ("warm", "cold", "flagged")
EDGE_FIELDS = ("train_n", "test_n", "dropped")


def tuple_split(split: EvalSplit) -> TupleSplit:
    """An EvalSplit's arrays as frozensets and tuples of tuples."""
    def nodes(table):
        return {k: frozenset(v.tolist()) for k, v in table.items()}

    def edges(table):
        return {rel: tuple(map(tuple, v.tolist())) for rel, v in table.items()}

    return TupleSplit(
        **{f: nodes(getattr(split, f)) for f in NODE_FIELDS},
        **{f: edges(getattr(split, f)) for f in EDGE_FIELDS},
        n_g=split.n_g, n_u=split.n_u, n_i=split.n_i, c_percent=split.c_percent,
    )


def eval_split(warm=None, cold=None, train_n=None, test_n=None, dropped=None, flagged=None,
               n_g=1, n_u=1, n_i=1, c_percent=0.5) -> EvalSplit:
    """An EvalSplit from per-node collections: node indices per kind and
    (a, b) pairs per relation, a missing kind or relation empty."""
    def nodes(table):
        return {k: sorted((table or {}).get(k, ())) for k in KINDS}

    def edges(table):
        return {rel: sorted((table or {}).get(rel, ())) for rel in ("GI", "UI")}

    return EvalSplit(
        warm=nodes(warm), cold=nodes(cold), flagged=nodes(flagged),
        train_n=edges(train_n), test_n=edges(test_n), dropped=edges(dropped),
        n_g=n_g, n_u=n_u, n_i=n_i, c_percent=c_percent,
    )


def assert_same_split(split: EvalSplit, other: EvalSplit | TupleSplit) -> None:
    """Field-by-field equality of a split with an array or per-node split."""
    mine = tuple_split(split)
    if isinstance(other, EvalSplit):
        other = tuple_split(other)
    for f in mine.__dataclass_fields__:
        assert getattr(mine, f) == getattr(other, f), f


def split_manifest_text(split: TupleSplit) -> str:
    """The ``split.txt`` text of a per-node split, written line by line."""
    lines = ["coldgraph-split v1"]
    lines.append(f"param n_g {split.n_g}")
    lines.append(f"param n_u {split.n_u}")
    lines.append(f"param n_i {split.n_i}")
    lines.append(f"param c_percent {split.c_percent!r}")
    for kind in KINDS:
        for idx in sorted(split.warm[kind]):
            lines.append(f"warm {kind} {idx}")
        for idx in sorted(split.cold[kind]):
            lines.append(f"cold {kind} {idx}")
    for section, table in (("train", split.train_n), ("test", split.test_n), ("drop", split.dropped)):
        for rel in ("GI", "UI"):
            for a, b in table[rel]:
                lines.append(f"{section} {rel} {a} {b}")
    for kind in KINDS:
        for idx in sorted(split.flagged[kind]):
            lines.append(f"flag {kind} {idx}")
    return "\n".join(lines) + "\n"


@dataclass
class TupleGraph:
    counts: dict
    edges: dict
    timestamps: dict


def normalize_relation(counts, rel, raw, ts):
    """Range and self-loop checks, (min, max) same-kind pairs and a dedupe
    that keeps each pair's first occurrence, one edge at a time."""
    ka, kb = RELATION_KINDS[rel]
    same_kind = ka == kb
    seen: set[tuple[int, int]] = set()
    out_edges: list[tuple[int, int]] = []
    out_ts: list[int | None] = []
    for (a, b), t in zip(raw, ts):
        a, b = int(a), int(b)
        if not (0 <= a < counts[ka]):
            raise ValueError(f"{rel}: endpoint {a} out of range for kind {ka}")
        if not (0 <= b < counts[kb]):
            raise ValueError(f"{rel}: endpoint {b} out of range for kind {kb}")
        if same_kind:
            if a == b:
                raise ValueError(f"{rel}: self-loop on node {a}")
            a, b = min(a, b), max(a, b)
        if (a, b) in seen:
            continue
        seen.add((a, b))
        out_edges.append((a, b))
        out_ts.append(None if t is None else int(t))
    return tuple(out_edges), tuple(out_ts)


def tuple_graph(counts, edges, timestamps=None) -> TupleGraph:
    counts = {k: int(counts.get(k, 0)) for k in KINDS}
    timestamps = timestamps or {}
    out_edges, out_ts = {}, {}
    for rel in RELATIONS:
        raw = list(edges.get(rel, ()))
        ts = timestamps.get(rel)
        ts = [None] * len(raw) if ts is None else list(ts)
        if len(ts) != len(raw):
            raise ValueError(f"{rel}: timestamp list does not match edge list")
        if rel not in TIMESTAMPED_RELATIONS and any(t is not None for t in ts):
            raise ValueError(f"{rel} edges cannot carry timestamps")
        out_edges[rel], out_ts[rel] = normalize_relation(counts, rel, raw, ts)
    return TupleGraph(counts, out_edges, out_ts)


def relation_timestamped(graph: TupleGraph, rel) -> bool:
    ts = graph.timestamps[rel]
    return bool(ts) and all(t is not None for t in ts)


def co_interaction_pairs(graph: TupleGraph, rel, threshold):
    """Pairs of anchors sharing strictly more than ``threshold`` neighbors."""
    other_to_anchor: dict[int, list[int]] = {}
    for a, b in graph.edges[rel]:
        other_to_anchor.setdefault(b, []).append(a)
    counts: dict[tuple[int, int], int] = {}
    for anchors in other_to_anchor.values():
        anchors = sorted(set(anchors))
        for i in range(len(anchors)):
            for j in range(i + 1, len(anchors)):
                pair = (anchors[i], anchors[j])
                counts[pair] = counts.get(pair, 0) + 1
    return sorted(p for p, c in counts.items() if c > threshold)


def build_implicit(graph: TupleGraph, c_u, c_g) -> TupleGraph:
    edges = dict(graph.edges)
    edges["UU"] = co_interaction_pairs(graph, "UI", c_u)
    edges["GG"] = co_interaction_pairs(graph, "GI", c_g)
    return tuple_graph(graph.counts, edges, {rel: graph.timestamps[rel] for rel in ("GI", "UI")})


def chronological(graph: TupleGraph, rel):
    """Edges of a relation keyed by anchor, in interaction-time order.

    With full timestamps the order is (timestamp, other-endpoint index); ties
    break on the index.  Otherwise file order stands in for chronology.
    """
    timestamped = relation_timestamped(graph, rel)
    per_anchor: dict[int, list[tuple]] = {}
    for pos, ((a, b), t) in enumerate(zip(graph.edges[rel], graph.timestamps[rel])):
        key = (t, b) if timestamped else (pos,)
        per_anchor.setdefault(a, []).append((key, (a, b)))
    return {a: [e for _, e in sorted(rows)] for a, rows in per_anchor.items()}


def segment(graph: TupleGraph, n_g, n_u, n_i, c_percent) -> TupleSplit:
    """The cold split, truncations and chronological c% split, edge by edge."""
    degree = {"group": [0] * graph.counts["group"], "user": [0] * graph.counts["user"]}
    for rel, kind in (("GI", "group"), ("UI", "user")):
        for a, _ in graph.edges[rel]:
            degree[kind][a] += 1
    warm_g = frozenset(g for g, d in enumerate(degree["group"]) if d > n_g)
    warm_u = frozenset(u for u, d in enumerate(degree["user"]) if d > n_u)
    cold_g = frozenset(range(graph.counts["group"])) - warm_g
    cold_u = frozenset(range(graph.counts["user"])) - warm_u

    item_counts = dict.fromkeys(range(graph.counts["item"]), 0)
    for g, i in graph.edges["GI"]:
        if g in warm_g:
            item_counts[i] += 1
    for u, i in graph.edges["UI"]:
        if u in warm_u:
            item_counts[i] += 1
    warm_i = frozenset(i for i, c in item_counts.items() if c > n_i)
    cold_i = frozenset(range(graph.counts["item"])) - warm_i

    chrono = {rel: chronological(graph, rel) for rel in ("GI", "UI")}
    dropped: dict[str, set[tuple[int, int]]] = {"GI": set(), "UI": set()}
    for rel, cold_anchors in (("GI", cold_g), ("UI", cold_u)):
        for a in sorted(cold_anchors):
            dropped[rel].update(chrono[rel].get(a, [])[COLD_ANCHOR_KEEP:])

    item_edges: dict[int, list[tuple]] = {}
    for rel in ("GI", "UI"):
        timestamped = relation_timestamped(graph, rel)
        for pos, ((a, b), t) in enumerate(zip(graph.edges[rel], graph.timestamps[rel])):
            if (a, b) in dropped[rel]:
                continue
            key = (t, rel, a) if timestamped else (pos, rel, a)
            item_edges.setdefault(b, []).append((key, rel, (a, b)))
    for i in sorted(cold_i):
        for _, rel, edge in sorted(item_edges.get(i, []))[COLD_ITEM_KEEP:]:
            dropped[rel].add(edge)

    train_n: dict[str, list[tuple[int, int]]] = {"GI": [], "UI": []}
    test_n: dict[str, list[tuple[int, int]]] = {"GI": [], "UI": []}
    flagged = {"group": set(), "user": set(), "item": set()}
    for rel, cold_anchors, kind in (("GI", cold_g, "group"), ("UI", cold_u, "user")):
        for a in sorted(cold_anchors):
            retained = [e for e in chrono[rel].get(a, []) if e not in dropped[rel]]
            n = len(retained)
            if n == 0:
                flagged[kind].add(a)
                continue
            k = max(1, math.ceil(c_percent * n))
            if n < 2 or k >= n:
                train_n[rel].extend(retained)
                flagged[kind].add(a)
                continue
            train_n[rel].extend(retained[:k])
            test_n[rel].extend(retained[k:])

    return TupleSplit(
        warm={"group": warm_g, "user": warm_u, "item": warm_i},
        cold={"group": cold_g, "user": cold_u, "item": cold_i},
        train_n={rel: tuple(sorted(v)) for rel, v in train_n.items()},
        test_n={rel: tuple(sorted(v)) for rel, v in test_n.items()},
        dropped={rel: tuple(sorted(v)) for rel, v in dropped.items()},
        flagged={k: frozenset(v) for k, v in flagged.items()},
        n_g=n_g,
        n_u=n_u,
        n_i=n_i,
        c_percent=c_percent,
    )


def make_training_graph(graph: TupleGraph, split: TupleSplit) -> TupleGraph:
    """Graph visible during training: no dropped edges, no test edges."""
    out_edges = dict(graph.edges)
    out_ts = dict(graph.timestamps)
    for rel in ("GI", "UI"):
        removed = set(split.dropped[rel]) | set(split.test_n[rel])
        kept = [
            (e, t) for e, t in zip(graph.edges[rel], graph.timestamps[rel]) if e not in removed
        ]
        out_edges[rel] = tuple(e for e, _ in kept)
        out_ts[rel] = tuple(t for _, t in kept)
    return tuple_graph(graph.counts, out_edges, out_ts)


def generate_synthetic_dense(spec: SyntheticSpec) -> InteractionGraph:
    """``coldgraph.graph.generate_synthetic`` with each relation's hits drawn
    in one dense n_left x n_right array."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    user_cluster = np.arange(spec.n_users) % spec.n_clusters
    item_cluster = np.arange(spec.n_items) % spec.n_clusters
    group_cluster = np.arange(spec.n_groups) % spec.n_clusters

    def bipartite(left_cluster, right_cluster, left_scale=None):
        same = left_cluster[:, None] == right_cluster[None, :]
        prob = np.where(same, spec.intra_p, spec.inter_p)
        if left_scale is not None:
            prob = prob * left_scale[:, None]
        return np.argwhere(rng.random(prob.shape) < prob)

    ui = bipartite(user_cluster, item_cluster)
    occasional = rng.random(spec.n_groups) < spec.occasional_fraction
    group_scale = np.where(occasional, spec.occasional_scale, 1.0)
    gi = bipartite(group_cluster, item_cluster, group_scale)

    gu = []
    for g in range(spec.n_groups):
        pool = np.flatnonzero(user_cluster == group_cluster[g])
        size = int(rng.integers(spec.group_size_min, spec.group_size_max + 1))
        if size > pool.size:
            raise ValueError(
                f"group size {size} infeasible: cluster {group_cluster[g]} has {pool.size} users"
            )
        members = rng.choice(pool, size=size, replace=False)
        gu.extend((g, int(u)) for u in sorted(members))

    def stamps(n):
        return rng.integers(spec.ts_min, spec.ts_max + 1, size=n)

    return InteractionGraph(
        {"user": spec.n_users, "item": spec.n_items, "group": spec.n_groups},
        {"UI": ui, "GI": gi, "GU": gu},
        {"UI": stamps(len(ui)), "GI": stamps(len(gi))},
    )
