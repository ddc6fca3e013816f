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
