"""The training configuration, entry points, loss parts and checkpoints.

:func:`train_model` runs the phases that ``TrainConfig.paradigm`` names,
after the enhancer warm-up when the enhancer is on: ``joint`` trains
ranking and reconstruction together for ``epochs`` epochs;
``pretrain_finetune`` trains reconstruction alone for ``pretrain_epochs``
epochs, then ranking alone for ``epochs`` epochs.  :func:`train_teacher`
runs it as the plain base GNN and keeps the reconstruction targets.

The recommendation objective is pairwise: every observed group-item or
user-item edge is ranked above one freshly drawn unobserved item per epoch.
The epoch's negatives are drawn as arrays and tested against sorted
``anchor * n_items + item`` keys, with the draws of a scalar rejection loop.
The ranking loss reads the fused rows by index (:func:`autodiff.bpr`), so a
step keeps per-edge scalars, not per-edge rows, until backward.
When the reconstruction task is active its loss joins the total with weight
``lam1``, and all learnable tensors are L2-regularized with ``lam2``:

    total = l_main + lam1 * l_r + lam2 * ||theta||^2

A phase plans each epoch (negatives, batch order, episodes); each step's
forward returns its named :data:`LossParts`, which :meth:`_Phase.objective`
alone weights and sums, and :func:`autodiff.descend` descends the total.
Every randomized concern (init, negatives, batch order, episodes, warm-up)
draws from its own seeded stream, so disabling one concern never shifts the
others and a run is a pure function of its seed.
"""
from __future__ import annotations

import logging
import math
import re
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, DivergenceError, Tensor, descend
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .enhancer import (
    EnhancerParams,
    full_meta_matrices,
    init_enhancer_params,
    train_enhancer,
)
from .graph import KINDS, EpisodeBatch, EvalSplit, InteractionGraph, make_training_graph, sample_episode
from .model import (
    FullState,
    GraphTensors,
    ModelParams,
    full_embeddings,
    init_model_params,
)
from .reconstruction import GroundTruthTable, layer_sum_table, pick_ssl_targets, ssl_loss

log = logging.getLogger("coldgraph")

PARADIGMS = ("joint", "pretrain_finetune")
META_MODES = ("episodic", "full_neighborhood")

#: keys of earlier versions that configured nothing; config files and
#: checkpoint config echoes that still carry them read as if they did not
RETIRED_KEYS = frozenset({"threads"})


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    """Flat configuration for the whole pipeline (one key=value per field)."""

    d: int = 64
    L: int = 3
    K: int = 5
    learning_rate: float = 0.001
    batch_size: int = 256
    lam: float = 1.0
    lam1: float = 1.0
    lam2: float = 1e-6
    c_u: int = 20
    c_g: int = 20
    paradigm: str = "joint"
    meta_mode: str = "episodic"
    backbone: str = "light"
    enhancer: bool = True
    seed: int = 0
    epochs: int = 30
    pretrain_epochs: int = 30
    n_g: int = 10
    n_u: int = 10
    n_i: int = 10
    c_percent: float = 0.1
    warmup_epochs: int = 50
    warmup_targets: int = 64
    teacher_epochs: int = 30
    ssl_targets: int = 32
    eval_every: int = 0
    eval_k: int = 20
    checkpoint_every: int = 0
    data_dir: str = "data"
    synth_users: int = 200
    synth_items: int = 300
    synth_groups: int = 80
    synth_clusters: int = 4
    synth_intra: float = 0.15
    synth_inter: float = 0.01
    synth_group_min: int = 2
    synth_group_max: int = 5
    synth_occasional_fraction: float = 0.0
    synth_occasional_scale: float = 1.0
    synth_ts_min: int = 0
    synth_ts_max: int = 100000
    report_base_dir: str = ""
    report_ssl_dir: str = ""

    def validate(self) -> None:
        positive = ("d", "L", "K", "learning_rate", "batch_size", "epochs", "teacher_epochs", "eval_k")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"config {name} must be positive")
        counts = ("warmup_epochs", "warmup_targets", "ssl_targets", "eval_every", "checkpoint_every")
        for name in ("lam", "lam1", "lam2", "c_u", "c_g", "n_g", "n_u", "n_i", *counts):
            if getattr(self, name) < 0:
                raise ValueError(f"config {name} must be non-negative")
        if self.paradigm not in PARADIGMS:
            raise ValueError(f"paradigm must be one of {PARADIGMS}")
        if self.paradigm == "pretrain_finetune" and self.lam1 <= 0:
            raise ValueError("paradigm pretrain_finetune needs lam1 > 0 to weight its pretrain phase")
        if self.paradigm == "pretrain_finetune" and self.pretrain_epochs < 1:
            raise ValueError("paradigm pretrain_finetune needs pretrain_epochs >= 1")
        if self.meta_mode not in META_MODES:
            raise ValueError(f"meta_mode must be one of {META_MODES}")
        if self.backbone not in ("light", "gcn"):
            raise ValueError("backbone must be light or gcn")
        if not (0.0 < self.c_percent < 1.0):
            raise ValueError("c_percent must lie in (0, 1)")

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def field_types(cls) -> dict[str, type]:
        return {f.name: f.type if isinstance(f.type, type) else type(getattr(cls(), f.name)) for f in fields(cls)}

    @classmethod
    def from_text(cls, text: str, base: "TrainConfig | None" = None) -> "TrainConfig":
        config = replace(base) if base is not None else cls()
        pairs = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            if key.strip() not in RETIRED_KEYS:
                pairs.append((key.strip(), value.strip()))
        return config.with_overrides(pairs)

    @classmethod
    def from_file(cls, path: Path, base: "TrainConfig | None" = None) -> "TrainConfig":
        return cls.from_text(Path(path).read_text(encoding="utf-8"), base)

    def with_overrides(self, pairs: Sequence[tuple[str, str]]) -> "TrainConfig":
        types = self.field_types()
        updates = {}
        for key, value in pairs:
            if key not in types:
                raise KeyError(f"unknown config key {key!r}")
            t = types[key]
            if t is bool:
                if value.lower() not in ("true", "false", "0", "1"):
                    raise ValueError(f"{key}: expected a boolean, got {value!r}")
                updates[key] = value.lower() in ("true", "1")
            elif t is int:
                updates[key] = int(value)
            elif t is float:
                updates[key] = float(value)
            else:
                updates[key] = value
        return replace(self, **updates)

    def variant_label(self) -> str:
        """Run label suffix: full-neighborhood ablation is the -M variant,
        the pretrain/fine-tune paradigm the -P variant."""
        label = ""
        if self.meta_mode == "full_neighborhood":
            label += "-M"
        if self.paradigm == "pretrain_finetune":
            label += "-P"
        return label


# ---------------------------------------------------------------------------
# history
# ---------------------------------------------------------------------------

#: history CSV header; the metric columns name the evaluation cutoff k
HISTORY_HEADER = "epoch,l_main,l_r,total,seconds,recall{k},ndcg{k}"
_HISTORY_HEADER_RE = re.compile(r"epoch,l_main,l_r,total,seconds,recall(\d+),ndcg\1")


@dataclass
class EpochStats:
    epoch: int
    l_main: float
    l_r: float
    total: float
    seconds: float
    recall: float | None = None
    ndcg: float | None = None
    masked_edges: int = 0
    phase: str = "joint"


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)
    label: str = ""
    k: int = 20

    def to_csv(self) -> str:
        rows = [HISTORY_HEADER.format(k=self.k)]
        for e in self.epochs:
            recall = "" if e.recall is None else repr(e.recall)
            ndcg = "" if e.ndcg is None else repr(e.ndcg)
            rows.append(
                f"{e.epoch},{e.l_main!r},{e.l_r!r},{e.total!r},{e.seconds!r},{recall},{ndcg}"
            )
        return "\n".join(rows) + "\n"

    @classmethod
    def from_csv(cls, text: str, label: str = "") -> "TrainHistory":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = _HISTORY_HEADER_RE.fullmatch(lines[0]) if lines else None
        if header is None:
            raise ValueError("unrecognized history header")
        out = cls(label=label, k=int(header.group(1)))
        for line in lines[1:]:
            parts = line.split(",")
            if len(parts) != 7:
                raise ValueError(f"bad history row {line!r}")
            out.epochs.append(
                EpochStats(
                    epoch=int(parts[0]),
                    l_main=float(parts[1]),
                    l_r=float(parts[2]),
                    total=float(parts[3]),
                    seconds=float(parts[4]),
                    recall=float(parts[5]) if parts[5] else None,
                    ndcg=float(parts[6]) if parts[6] else None,
                )
            )
        return out

    def totals(self) -> list[float]:
        return [e.total for e in self.epochs]

    def mean_seconds(self) -> float:
        if not self.epochs:
            return 0.0
        return float(np.mean([e.seconds for e in self.epochs]))


class TrainingDataError(ValueError):
    """Raised when the training graph holds data no model can train on."""


# ---------------------------------------------------------------------------
# checkpoint glue
# ---------------------------------------------------------------------------


def _named_tensors(params: ModelParams, enh: EnhancerParams | None) -> list[tuple[str, Tensor]]:
    return params.named_tensors() + (enh.named_tensors() if enh else [])


def save_training_checkpoint(
    path: Path, params: ModelParams, enh: EnhancerParams | None, config: TrainConfig
) -> None:
    tensors = {name: t.data for name, t in _named_tensors(params, enh)}
    save_checkpoint(path, tensors, config.to_text())


def load_training_checkpoint(
    path: Path, expect: TrainConfig | None = None
) -> tuple[ModelParams, EnhancerParams | None, TrainConfig]:
    """The model (and enhancer) that ``path``'s config echo describes, with
    every tensor read by name and cast to its parameter's dtype (float32).
    A missing, mis-shaped or unexpected tensor raises CheckpointError naming
    it."""
    tensors, echo = load_checkpoint(path)
    # a missing or scalar row table builds as empty and fails its check below
    counts = {kind: (np.shape(tensors.get(f"model/e_{kind}")) or (0,))[0] for kind in KINDS}
    rng = np.random.default_rng(0)  # every value drawn here is overwritten
    try:
        config = TrainConfig.from_text(echo)
        params = init_model_params(
            counts, config.d, config.backbone, config.L, with_meta=config.enhancer, rng=rng
        )
    except (KeyError, ValueError) as err:
        raise CheckpointError(f"{path}: bad config echo: {err}") from err
    if expect is not None and expect.d != config.d:
        raise CheckpointError(
            f"{path}: shape error, checkpoint has d={config.d} but d={expect.d} expected"
        )
    enh = init_enhancer_params(config.d, rng) if config.enhancer else None
    named = _named_tensors(params, enh)
    for name, t in named:
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {name}")
        if tensors[name].shape != t.shape:
            raise CheckpointError(
                f"{path}: shape error, tensor {name} is {tensors[name].shape}, {t.shape} expected"
            )
        t.data = tensors[name].astype(t.data.dtype)
    unexpected = sorted(set(tensors) - {name for name, _ in named})
    if unexpected:
        raise CheckpointError(f"{path}: unexpected tensor {unexpected[0]}")
    return params, enh, config


# ---------------------------------------------------------------------------
# training internals
# ---------------------------------------------------------------------------


def _seed_streams(config: TrainConfig) -> dict[str, np.random.Generator]:
    names = ("init_model", "init_enhancer", "negatives", "shuffle", "episodes", "warmup")
    children = np.random.SeedSequence(config.seed).spawn(len(names))
    return {name: np.random.default_rng(ss) for name, ss in zip(names, children)}


class _Positives(NamedTuple):
    """Every training positive as an (anchor, item) row of ``edges``, the
    ``n_gi`` GI rows first; each row's anchor in ``anchors``, where user u
    counts as anchor n_groups + u; and the sorted ``anchor * n_items +
    item`` ``keys`` of every row."""

    edges: np.ndarray
    n_gi: int
    anchors: np.ndarray
    keys: np.ndarray


def _positives(graph: InteractionGraph) -> _Positives:
    """The training positives; an anchor that has every item has no
    negative: TrainingDataError."""
    edges = np.concatenate([graph.edges["GI"], graph.edges["UI"]])
    n_gi, n_groups, n_items = len(graph.edges["GI"]), graph.counts["group"], graph.counts["item"]
    anchors = edges[:, 0].copy()
    anchors[n_gi:] += n_groups
    counts = np.bincount(anchors, minlength=n_groups + graph.counts["user"])
    full = [f"group:{a}" if a < n_groups else f"user:{a - n_groups}" for a in np.flatnonzero(counts >= n_items)]
    if full:
        raise TrainingDataError(f"anchors {full[:5]} interact with every item; no negative exists")
    return _Positives(edges, n_gi, anchors, np.sort(anchors * n_items + edges[:, 1]))


#: the draws tested at once after a rejection; the window doubles while
#: none of its draws is rejected
_NEGATIVE_WINDOW = 64


def sample_negative(
    rng: np.random.Generator, n_items: int, keys: np.ndarray, anchors: np.ndarray
) -> np.ndarray:
    """One uniform item per entry of ``anchors`` that is not among its
    positives, the sorted ``anchor * n_items + item`` ``keys`` (not empty).

    The items are those of a loop that draws ``rng.integers(n_items)`` for
    each anchor in turn until one is not a positive, and ``rng`` ends in the
    loop's state: each round draws one value per anchor still without an
    item, and a rejected value hands the round's later values on to the
    same anchor.  After a rejection only a window of the round is tested
    again.  An anchor whose 10,000 draws all hit its positives raises
    RuntimeError.
    """
    out = np.empty(len(anchors), np.intp)
    base = np.asarray(anchors, np.int64) * n_items
    pending = np.arange(len(anchors))
    last, streak = -1, 0  # the anchor rejected last, and its rejections in a row
    while pending.size:
        draws = rng.integers(n_items, size=pending.size)
        p = q = 0  # the next draw, and the pending anchor it goes to
        width = _NEGATIVE_WINDOW
        while p < draws.size:
            cand = draws[p : p + width]
            to = pending[q : q + cand.size]
            key = base[to] + cand
            hit = keys.take(np.searchsorted(keys, key), mode="clip") == key
            r = int(hit.argmax()) if hit.any() else cand.size
            out[to[:r]] = cand[:r]
            if r == cand.size:
                p, q, width = p + r, q + r, 2 * width
                continue
            streak = streak + 1 if to[r] == last else 1
            last = to[r]
            if streak == 10_000:
                raise RuntimeError("negative sampling failed to find a candidate")
            p, q, width = p + r + 1, q + r, _NEGATIVE_WINDOW
        pending = pending[q:]
    return out


def _squared_norm(tensors: Sequence[Tensor]) -> Tensor:
    total = ad.const(np.zeros((), tensors[0].data.dtype))
    for t in tensors:
        total = ad.add(total, ad.sum_squares(t))
    return total


#: a step's loss parts by name: the ranking losses of the group and the user
#: edges ("main/group", "main/user"), l_r ("ssl") and ||theta||^2 ("l2")
LossParts = dict[str, Tensor]


@dataclass
class _Phase:
    """What one phase trains, on which data.  Pretrain (``name``) trains
    only the reconstruction loss, finetune the ranking loss and the L2 term,
    joint all three."""

    name: str
    config: TrainConfig
    split: EvalSplit
    gtens: GraphTensors
    params: ModelParams
    enh: EnhancerParams | None
    gt: GroundTruthTable | None
    positives: _Positives

    def __post_init__(self):
        self.main_on = self.name != "pretrain"  # the ranking loss and the L2 term
        self.ssl_weight = 0.0 if self.name == "finetune" else self.config.lam1
        self.tensors = self.params.tensors() + (self.enh.tensors() if self.enh else [])
        if self.main_on and not len(self.positives.edges):
            raise ValueError("no positive edges to train on")

    def plan(self, rngs: Mapping[str, np.random.Generator]):
        """One epoch's negatives, its steps (positive rows, an episode batch
        per kind) and masked-edge count.  A kind with fewer targets than steps
        is left out of the later steps."""
        config, pos = self.config, self.positives
        negatives, batches = None, [np.array([], dtype=int)]
        if self.main_on:
            n_items = self.gtens.graph.counts["item"]
            negatives = sample_negative(rngs["negatives"], n_items, pos.keys, pos.anchors)
            order, size = rngs["shuffle"].permutation(len(pos.edges)), config.batch_size
            batches = [order[b * size : (b + 1) * size] for b in range(max(1, math.ceil(len(pos.edges) / size)))]
        episodes: list[dict[str, EpisodeBatch]] = [{} for _ in batches]
        masked_edges = 0
        if self.ssl_weight > 0:
            epoch_seed = int(rngs["episodes"].integers(2 ** 31))
            for kind, idx in pick_ssl_targets(self.split, config.ssl_targets, rngs["episodes"]).items():
                for b in range(min(len(batches), idx.size)):
                    ep = sample_episode(
                        self.gtens.graph, kind, idx[b :: len(batches)], config.K, config.L, epoch_seed
                    )
                    episodes[b][kind] = ep
                    masked_edges += ep.edge_count()
        return negatives, list(zip(batches, episodes)), masked_edges

    def parts(self, rows: np.ndarray, negatives, episodes: Mapping[str, EpisodeBatch]) -> LossParts:
        """The loss parts of the step over the positive edges ``rows`` and
        ``episodes``; the full-graph pass computes only the rows they read.
        Each kind's ranking loss reads the fused rows by index
        (:func:`autodiff.bpr`), so it keeps per-edge scalars, not rows."""
        edges, n_gi = self.positives.edges, self.positives.n_gi
        ranks = self.main_on and rows.size > 0
        full_ssl = self.ssl_weight > 0 and self.config.meta_mode == "full_neighborhood"
        if ranks or full_ssl:
            ids = {kind: [np.zeros(0, np.intp)] for kind in KINDS}
            if ranks:
                batch, gi = edges[rows], rows < n_gi
                ids["group"].append(batch[gi, 0])
                ids["user"].append(batch[~gi, 0])
                ids["item"] += [batch[:, 1], negatives[rows]]
            if full_ssl:
                for kind, ep in episodes.items():
                    ids[kind].append(ep.targets)
            reads = {kind: np.unique(np.concatenate(v)) for kind, v in ids.items()}
            state = _full_state(self.params, self.enh, self.gtens, reads)
        parts: LossParts = {}
        if ranks:
            for kind, idx in (("group", rows[rows < n_gi]), ("user", rows[rows >= n_gi])):
                if idx.size:
                    parts[f"main/{kind}"] = ad.bpr(
                        state.fused[kind], state.fused["item"], state.positions(kind, edges[idx, 0]),
                        state.positions("item", edges[idx, 1]), state.positions("item", negatives[idx]),
                    )
        if self.ssl_weight > 0 and episodes:
            parts["ssl"], _ = ssl_loss(
                episodes.get("group"), episodes.get("user"), episodes.get("item"), self.params, self.enh,
                self.gt, full_state=state if full_ssl else None,
            )
        if self.main_on and self.config.lam2 > 0:
            parts["l2"] = _squared_norm(self.tensors)
        return parts

    def objective(self, parts: LossParts) -> tuple[Tensor, Tensor | None]:
        """The total of one step's ``parts``, ``l_main + lam1 * l_r + lam2 *
        ||theta||^2`` (l_main weights the user edges' loss by ``lam``, and
        finetune weights l_r by 0), and l_main, None without ranking parts."""
        l_main, terms = None, []
        if "main/group" in parts or "main/user" in parts:
            l_main = ad.const(np.zeros((), self.params.e_item.data.dtype))
            if "main/group" in parts:
                l_main = ad.add(l_main, parts["main/group"])
            if "main/user" in parts:
                l_main = ad.add(l_main, ad.scale(parts["main/user"], self.config.lam))
            terms.append(l_main)
        if "ssl" in parts:
            terms.append(ad.scale(parts["ssl"], self.ssl_weight))
        if "l2" in parts:
            terms.append(ad.scale(parts["l2"], self.config.lam2))
        total = terms[0]
        for term in terms[1:]:
            total = ad.add(total, term)
        return total, l_main

    def step(self, rows, negatives, episodes, sums: dict[str, list]) -> Tensor | None:
        """The step's total, None without loss parts.  Adds l_main, l_r and
        the total to ``sums``, weighted by the step's edges, its episodes and
        1, as [weighted sum, weight] pairs."""
        parts = self.parts(rows, negatives, episodes)  # the forward's outputs die with this call
        if not parts:
            return None
        total, l_main = self.objective(parts)
        weights = {"main": rows.size, "ssl": sum(len(ep) for ep in episodes.values()), "total": 1}
        for key, part in (("main", l_main), ("ssl", parts.get("ssl")), ("total", total)):
            if part is not None:
                sums[key][0] += part.item() * weights[key]
                sums[key][1] += weights[key]
        return total


def _run_phase(phase: _Phase, epochs: int, rngs, history: TrainHistory, out_dir: Path | None, eval_fn) -> None:
    """``epochs`` epochs of ``phase`` with a fresh optimizer.  A non-finite
    loss or update restores the parameters of the last completed epoch (or
    of the phase's start) and raises :class:`DivergenceError`."""
    config = phase.config
    adam = AdamState(phase.tensors, config.learning_rate)
    for epoch_i in range(1, epochs + 1):
        t0 = time.perf_counter()
        epoch_no = len(history.epochs) + 1
        last_good = [np.array(t.data) for t in phase.tensors]
        negatives, batches, masked = phase.plan(rngs)
        sums = {key: [0.0, 0] for key in ("main", "ssl", "total")}
        steps = (partial(phase.step, rows, negatives, episodes, sums) for rows, episodes in batches)
        descend(steps, adam, last_good, f"epoch {epoch_no}")
        mean = {key: total / n if n else 0.0 for key, (total, n) in sums.items()}
        stats = EpochStats(epoch_no, mean["main"], mean["ssl"], mean["total"], time.perf_counter() - t0,
                           masked_edges=masked, phase=phase.name)
        if eval_fn is not None and config.eval_every > 0 and epoch_i % config.eval_every == 0:
            stats.recall, stats.ndcg = eval_fn(_full_state(phase.params, phase.enh, phase.gtens))
        history.epochs.append(stats)
        if out_dir is not None and config.checkpoint_every > 0 and epoch_i % config.checkpoint_every == 0:
            save_training_checkpoint(Path(out_dir) / "model.ckpt", phase.params, phase.enh, config)
        log.info(
            "epoch %d [%s] main=%.4f ssl=%.4f total=%.4f (%.2fs)",
            epoch_no, phase.name, stats.l_main, stats.l_r, stats.total, stats.seconds,
        )


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def train_model(
    config: TrainConfig,
    split: EvalSplit,
    gtens: GraphTensors,
    gt: GroundTruthTable | None = None,
    out_dir: Path | None = None,
    eval_fn=None,
) -> tuple[ModelParams, EnhancerParams | None, TrainHistory]:
    """Train on ``gtens`` (of ``split``'s training graph) through the phases
    of ``config.paradigm``: ``joint`` runs ``epochs`` epochs of ranking plus
    reconstruction, ``pretrain_finetune`` runs ``pretrain_epochs`` epochs of
    reconstruction alone and then ``epochs`` epochs of ranking.

    ``gt`` is the teacher table, needed when ``lam1 > 0``.  With ``lam1=0``
    and the enhancer off the reconstruction machinery consumes no
    randomness, so the run is the plain base GNN's, bit for bit.
    ``eval_fn(state)`` returns (recall, ndcg) of the full state over
    ``gtens`` every ``eval_every`` epochs of a phase.  A non-finite loss or
    update, in the enhancer warm-up or in a phase, raises
    :class:`DivergenceError` with the last good parameters restored and,
    given ``out_dir``, saved as ``out_dir/model.ckpt``.
    """
    config.validate()
    if config.lam1 > 0 and gt is None:
        raise ValueError("reconstruction training needs a ground-truth table (lam1 > 0)")
    positives = _positives(gtens.graph)
    rngs = _seed_streams(config)
    params = init_model_params(
        gtens.graph.counts,
        config.d,
        config.backbone,
        config.L,
        with_meta=config.enhancer,
        rng=rngs["init_model"],
    )
    history = TrainHistory(label=config.variant_label(), k=config.eval_k)
    if config.paradigm == "pretrain_finetune":
        phases = [("pretrain", config.pretrain_epochs), ("finetune", config.epochs)]
    else:
        phases = [("joint", config.epochs)]
    enh = init_enhancer_params(config.d, rngs["init_enhancer"]) if config.enhancer else None
    try:
        if enh is not None and config.lam1 > 0 and config.warmup_epochs > 0:
            warm_targets = pick_ssl_targets(split, config.warmup_targets, rngs["warmup"])
            warm_seed = int(rngs["warmup"].integers(2 ** 31))
            warm_eps = [
                sample_episode(gtens.graph, kind, idx, config.K, 1, warm_seed)
                for kind, idx in warm_targets.items()
            ]
            t0 = time.perf_counter()
            curve = train_enhancer(warm_eps, gt, enh, params.table, config.learning_rate, config.warmup_epochs,
                                   rng=rngs["warmup"])
            log.info("warm-up: %d epochs, loss %.4f -> %.4f (%.2fs)",
                     len(curve), curve[0], curve[-1], time.perf_counter() - t0)
        for name, epochs in phases:
            phase = _Phase(name, config, split, gtens, params, enh, gt, positives)
            _run_phase(phase, epochs, rngs, history, out_dir, eval_fn)
    except DivergenceError as err:  # the parameters are back at their last good values
        err.history = history
        if out_dir is not None:
            err.checkpoint = Path(out_dir) / "model.ckpt"
            save_training_checkpoint(err.checkpoint, params, enh, config)
        raise
    return params, enh, history


def train_teacher(split: EvalSplit, gtens: GraphTensors, config) -> GroundTruthTable:
    """Train the plain base GNN on the warm data and freeze its embeddings.

    The teacher is :func:`train_model` run on ``gtens`` jointly for
    ``teacher_epochs`` epochs with ``lam1=0`` and the enhancer off, so it
    never masks neighborhoods; its per-node target is the layer sum
    h^0 + ... + h^L over the same ``gtens`` (:func:`layer_sum_table`), in
    float32.  A warm node whose sum is not finite or is zero raises
    ValueError.
    """
    if not any(split.warm[k].size for k in KINDS):
        raise TrainingDataError("warm sets are empty; nothing to teach from")
    teacher_config = replace(
        config, epochs=config.teacher_epochs, lam1=0.0, enhancer=False, paradigm="joint"
    )
    params, _, _ = train_model(teacher_config, split, gtens)
    provenance = f"{config.backbone}-layersum-L{config.L}-seed{config.seed}"
    table = layer_sum_table(gtens, params, split, provenance)
    bad = []
    for kind, rows in table.rows.items():
        rows = rows.astype(np.float64)  # a float32 norm can underflow to 0
        fine = np.isfinite(rows).all(axis=1) & (np.linalg.norm(rows, axis=1) > 0)
        bad += [f"{kind}:{i}" for i in np.flatnonzero(table.known[kind] & ~fine).tolist()]
    if bad:
        raise ValueError(f"teacher produced degenerate ground truth for {bad[:5]}")
    return table


def _full_state(params: ModelParams, enh: EnhancerParams | None, gtens: GraphTensors, reads=None) -> FullState:
    """The full-graph pass; with ``reads``, its last step and fusion compute
    only those rows of each kind."""
    metas = full_meta_matrices(gtens, params.table, enh) if enh is not None else None
    return full_embeddings(gtens, params, metas=metas, reads=reads)


def final_state(
    params: ModelParams,
    enh: EnhancerParams | None,
    graph: InteractionGraph,
    split: EvalSplit,
) -> FullState:
    """Full-neighborhood pass of a saved model on the training graph it
    rebuilds; ``coldgraph evaluate`` and the benchmark call it by this signature."""
    return _full_state(params, enh, GraphTensors(make_training_graph(graph, split)))
