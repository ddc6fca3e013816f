"""Embedding-reconstruction pretext task.

A fully trained teacher model supplies ground-truth embeddings for warm
nodes; the training model then has to reproduce them from masked episode
neighborhoods, which teaches the convolution (and the enhancer, when active)
to embed nodes well from very few observed interactions.  The teacher's
table is one row array and one known-mask per node kind, looked up a batch
of targets at a time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .enhancer import EnhancerParams, episode_metas, reconstruction_costs
from .graph import KINDS, EpisodeBatch, EvalSplit
from .model import FullState, GraphTensors, ModelParams, embed_from_episode, fuse, propagations

log = logging.getLogger("coldgraph")


@dataclass
class GroundTruthTable:
    """Reconstruction targets of the warm nodes, per node kind.

    ``rows[kind]`` is an (n_kind, d) array whose row i is node i's teacher
    embedding, valid where ``known[kind][i]`` is True; the other rows are
    never read.  A checkpoint stores each kind as ``teacher/{kind}`` and its
    mask, as 0.0/1.0, as ``teacher/{kind}_known``.
    """

    rows: dict[str, np.ndarray]
    known: dict[str, np.ndarray]
    provenance: str

    @property
    def d(self) -> int:
        return self.rows[KINDS[0]].shape[1]

    def lookup(self, kind: str, targets: np.ndarray) -> np.ndarray:
        """The (n, d) ground-truth rows of ``kind``'s ``targets``.

        Raises KeyError naming the first target without one.
        """
        targets = np.asarray(targets, dtype=np.intp)
        missing = targets[~np.isin(targets, np.flatnonzero(self.known[kind]))]
        if missing.size:
            raise KeyError(f"no ground-truth embedding for {kind}:{missing[0]}")
        return self.rows[kind][targets]

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        return [(f"teacher/{kind}", self.rows[kind]) for kind in KINDS] + [
            (f"teacher/{kind}_known", self.known[kind].astype(np.float64)) for kind in KINDS
        ]

    @classmethod
    def from_named_tensors(cls, tensors: Mapping[str, np.ndarray], provenance: str):
        """Inverse of :meth:`named_tensors`, with the rows in float32, the
        dtype they were trained in (a checkpoint stores float64); raises
        ValueError naming a missing or ill-shaped tensor."""
        rows, known = {}, {}
        for kind in KINDS:
            try:
                table, mask = tensors[f"teacher/{kind}"], tensors[f"teacher/{kind}_known"]
            except KeyError as err:
                raise ValueError(f"missing tensor {err.args[0]}") from None
            if table.ndim != 2 or mask.shape != table.shape[:1]:
                raise ValueError(f"teacher/{kind} {table.shape} does not match its mask {mask.shape}")
            rows[kind], known[kind] = table.astype(np.float32), mask == 1
        if len({r.shape[1] for r in rows.values()}) != 1:
            raise ValueError("teacher tensors disagree on the embedding width")
        return cls(rows, known, provenance)


def layer_sum_table(
    gtens: GraphTensors, params: ModelParams, split: EvalSplit, provenance: str
) -> GroundTruthTable:
    """Ground truth of the warm nodes: each node's layer sum h^0 + ... + h^L,
    its table row plus its fused rows of every step, added in that order.
    The steps of :func:`model.propagations` advance in lockstep, and each is
    fused and summed before the next, so at most two steps of a relation
    are alive at once."""
    sums = {kind: params.table(kind) for kind in KINDS}
    props = propagations(gtens, params)
    for h in zip(*props.values()):
        fused = fuse(gtens, params, dict(zip(props, h)))
        sums = {kind: ad.add(sums[kind], fused[kind]) for kind in KINDS}
    rows = {kind: s.data for kind, s in sums.items()}
    known = {kind: np.isin(np.arange(len(r)), split.warm[kind]) for kind, r in rows.items()}
    return GroundTruthTable(rows, known, provenance)


def reconstruction_terms(
    episodes: EpisodeBatch,
    params: ModelParams,
    enhancer_params: EnhancerParams | None,
    gt: GroundTruthTable,
    full_state: FullState | None = None,
) -> Tensor:
    """Per-target cosine reconstruction losses (n,) of an episode batch.

    With ``full_state`` given the prediction is the target's full-neighborhood
    embedding (the unmasked ablation); otherwise it is the masked episode
    propagation, optionally meta-injected.
    """
    if full_state is not None:
        h = full_state.lookup(episodes.kind, episodes.targets)
    else:
        metas = None
        if enhancer_params is not None:
            metas = episode_metas(episodes, params.table, enhancer_params)
        h = embed_from_episode(episodes, params, metas)
    return reconstruction_costs(h, episodes, gt)


def ssl_loss(
    group_batch: EpisodeBatch | None,
    user_batch: EpisodeBatch | None,
    item_batch: EpisodeBatch | None,
    params: ModelParams,
    enhancer_params: EnhancerParams | None,
    gt: GroundTruthTable,
    full_state: FullState | None = None,
) -> tuple[Tensor, dict[str, float]]:
    """Joint reconstruction loss: group + user + item batch means.

    Each term is the mean of per-target cosine losses, so the total is
    bounded by 6.  An empty batch contributes 0 with a warning; a kind
    passed as None (one a training step leaves out) has no part.
    """
    total = ad.const(np.zeros((), params.e_user.data.dtype))
    parts: dict[str, float] = {}
    for name, batch in (("group", group_batch), ("user", user_batch), ("item", item_batch)):
        if batch is None:
            continue
        if not batch:
            log.warning("ssl_loss: empty %s batch contributes 0", name)
            parts[name] = 0.0
            continue
        term = ad.mean_rows(reconstruction_terms(batch, params, enhancer_params, gt, full_state))
        parts[name] = term.item()
        total = ad.add(total, term)
    return total, parts


def pick_ssl_targets(
    split: EvalSplit, count: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Sample warm reconstruction targets for one epoch, ascending, per node kind."""
    out: dict[str, np.ndarray] = {}
    for kind in ("group", "user", "item"):
        warm = split.warm[kind]
        if not warm.size:
            out[kind] = warm
            continue
        take = min(count, warm.size)
        out[kind] = warm[np.sort(rng.choice(warm.size, size=take, replace=False))]
    return out
