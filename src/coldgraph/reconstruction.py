"""Embedding-reconstruction pretext task.

A fully trained teacher model supplies ground-truth embeddings for warm
nodes; the training model then has to reproduce them from masked episode
neighborhoods, which teaches the convolution (and the enhancer, when active)
to embed nodes well from very few observed interactions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .enhancer import EnhancerParams, episode_metas, reconstruction_costs
from .graph import EpisodeBatch, EvalSplit, InteractionGraph
from .model import FullState, ModelParams, embed_from_episode

log = logging.getLogger("coldgraph")


@dataclass
class GroundTruthTable:
    """Reconstruction targets for warm nodes, keyed by ``kind:index``."""

    d: int
    vectors: dict[str, np.ndarray]
    provenance: str

    def get(self, key: str) -> np.ndarray | None:
        return self.vectors.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self.vectors

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        out = [("teacher/_d", np.asarray([float(self.d)]))]
        for key in sorted(self.vectors):
            out.append((f"teacher/{key}", self.vectors[key]))
        return out

    @classmethod
    def from_named_tensors(cls, tensors: Mapping[str, np.ndarray], provenance: str):
        d = int(tensors["teacher/_d"][0])
        vectors = {
            name.removeprefix("teacher/"): np.asarray(arr)
            for name, arr in tensors.items()
            if name.startswith("teacher/") and name != "teacher/_d"
        }
        return cls(d=d, vectors=vectors, provenance=provenance)


def layer_sum_table(state: FullState, split: EvalSplit, provenance: str) -> GroundTruthTable:
    """Ground truth per warm node: the sum of its per-step fused embeddings."""
    if state.layer_sums is None:
        raise ValueError("forward state was computed without layer sums")
    vectors: dict[str, np.ndarray] = {}
    for kind in ("group", "user", "item"):
        sums = np.array(state.layer_sums[kind].data)
        for idx in sorted(split.warm[kind]):
            vectors[f"{kind}:{idx}"] = sums[idx]
    d = next(iter(vectors.values())).shape[0] if vectors else 0
    return GroundTruthTable(d=d, vectors=vectors, provenance=provenance)


def train_teacher(split: EvalSplit, graph: InteractionGraph, config) -> GroundTruthTable:
    """Train the plain base GNN on the warm data and freeze its embeddings.

    The teacher never masks neighborhoods and never uses the enhancer; its
    per-node target is the layer sum h^0 + ... + h^L computed over the full
    training-graph adjacency.
    """
    from dataclasses import replace

    from .train import train_base  # deferred: train drives the shared loop

    if not any(split.warm[k] for k in ("group", "user", "item")):
        raise ValueError("warm sets are empty; nothing to teach from")
    teacher_config = replace(config, epochs=config.teacher_epochs)
    params, state = train_base(teacher_config, split, graph, need_layer_sums=True)
    provenance = f"{config.backbone}-layersum-L{config.L}-seed{config.seed}"
    table = layer_sum_table(state, split, provenance)
    bad = [k for k, v in table.vectors.items() if not np.all(np.isfinite(v)) or not np.linalg.norm(v) > 0]
    if bad:
        raise ValueError(f"teacher produced degenerate ground truth for {bad[:5]}")
    return table


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
        h = ad.gather_rows(full_state.fused[episodes.kind], episodes.targets)
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
    bounded by 6.  An empty or missing batch contributes 0 with a warning.
    """
    total = ad.const(np.zeros(()))
    parts: dict[str, float] = {}
    for name, batch in (("group", group_batch), ("user", user_batch), ("item", item_batch)):
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
        warm = np.array(split.warm_nodes(kind), dtype=np.intp)
        if not warm.size:
            out[kind] = warm
            continue
        take = min(count, warm.size)
        out[kind] = warm[np.sort(rng.choice(warm.size, size=take, replace=False))]
    return out
