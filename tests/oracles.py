"""Per-node and per-tree reference math for the equivalence tests.

``coldgraph.model`` propagates, aggregates and fuses whole batches at once;
these functions do the same one node or one sampled tree at a time, the
way the paper states the recursion, so the batched code can be checked
against them value for value and gradient for gradient.
"""

import numpy as np

from coldgraph import autodiff as ad
from coldgraph.graph import RELATION_KINDS
from coldgraph.model import CHANNELS_BY_KIND


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
    logits = ad.concat([ad.sum_all(ad.matmul(channels[c], weights[c])) for c in keys])
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
            attn = ad.softmax(ad.transpose(ad.stack_rows(logit_rows)))
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
        truth = np.stack([ground_truth.get(ep.ground_truth_ref) for ep in batch])
        cos = ad.cosine_similarity(fused, ad.const(truth))
        terms.append(ad.sub(ad.const(np.ones(len(batch))), cos))
    if not terms:
        return None
    return ad.mean_rows(terms[0] if len(terms) == 1 else ad.concat(terms))
