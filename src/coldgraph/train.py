"""Losses, the optimization loop, both training paradigms, checkpointing.

The recommendation objective is pairwise: every observed group-item or
user-item edge is ranked above one freshly drawn unobserved item per epoch.
When the reconstruction task is active its loss joins the total with weight
``lam1``, and all learnable tensors are L2-regularized with ``lam2``:

    total = l_main + lam1 * l_r + lam2 * ||theta||^2

Every randomized concern (init, negatives, batch order, episodes, warm-up)
draws from its own seeded stream, so disabling one concern never shifts the
others and a run is a pure function of its seed.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import re
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .enhancer import (
    EnhancerParams,
    full_meta_matrices,
    init_enhancer_params,
    train_enhancer,
)
from .graph import EvalSplit, InteractionGraph, NodeId, make_training_graph, sample_episode
from .model import (
    FullState,
    GraphTensors,
    ModelParams,
    full_embeddings,
    init_model_params,
)
from .reconstruction import GroundTruthTable, pick_ssl_targets, ssl_loss

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
        positive = ("d", "L", "K", "learning_rate", "batch_size", "epochs")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"config {name} must be positive")
        for name in ("lam", "lam1", "lam2"):
            if getattr(self, name) < 0:
                raise ValueError(f"config {name} must be non-negative")
        if self.paradigm not in PARADIGMS:
            raise ValueError(f"paradigm must be one of {PARADIGMS}")
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


class DivergenceError(RuntimeError):
    """Raised when the loss turns non-finite; carries the partial history."""

    def __init__(self, message: str, history: TrainHistory, checkpoint: Path | None):
        super().__init__(message)
        self.history = history
        self.checkpoint = checkpoint


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class AdamState:
    """Adaptive-moment gradient descent over a fixed tensor list."""

    def __init__(self, tensors: Sequence[Tensor], lr: float, betas=(0.9, 0.999), eps=1e-8):
        self.tensors = list(tensors)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(t.shape) for t in self.tensors]
        self.v = [np.zeros(t.shape) for t in self.tensors]

    def step(self, grads: Mapping[Tensor, np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for i, tensor in enumerate(self.tensors):
            g = grads[tensor]
            self.m[i] = self.b1 * self.m[i] + (1.0 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1.0 - self.b2) * g * g
            tensor.data -= self.lr * (self.m[i] / c1) / (np.sqrt(self.v[i] / c2) + self.eps)


# ---------------------------------------------------------------------------
# checkpoint glue
# ---------------------------------------------------------------------------


def training_tensor_dict(
    params: ModelParams, enh: EnhancerParams | None
) -> dict[str, np.ndarray]:
    out = {name: np.array(t.data) for name, t in params.named_tensors()}
    if enh is not None:
        out.update({name: np.array(t.data) for name, t in enh.named_tensors()})
    return out


def save_training_checkpoint(
    path: Path, params: ModelParams, enh: EnhancerParams | None, config: TrainConfig
) -> None:
    save_checkpoint(path, training_tensor_dict(params, enh), config.to_text())


def load_training_checkpoint(
    path: Path, expect: TrainConfig | None = None
) -> tuple[ModelParams, EnhancerParams | None, TrainConfig]:
    tensors, echo = load_checkpoint(path)
    try:
        config = TrainConfig.from_text(echo)
    except (KeyError, ValueError) as err:
        raise CheckpointError(f"{path}: bad config echo: {err}") from err
    if expect is not None and expect.d != config.d:
        raise CheckpointError(
            f"{path}: shape error, checkpoint has d={config.d} but d={expect.d} expected"
        )

    def t(name):
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {name}")
        return Tensor(tensors[name], requires_grad=True)

    from .model import FUSION_KEYS, META_RELATIONS

    conv_names = sorted(
        (n for n in tensors if n.startswith("model/conv_")), key=lambda n: int(n.rsplit("_", 1)[1])
    )
    meta_proj = {
        rel: t(f"model/meta_proj_{rel}")
        for rel in META_RELATIONS
        if f"model/meta_proj_{rel}" in tensors
    }
    params = ModelParams(
        d=config.d,
        variant=config.backbone,
        layers=config.L,
        e_user=t("model/e_user"),
        e_item=t("model/e_item"),
        e_group=t("model/e_group"),
        fusion={k: t(f"model/fusion_{k}") for k in FUSION_KEYS},
        conv_w=tuple(t(n) for n in conv_names),
        meta_proj=meta_proj,
        member_score=t("model/member_score"),
    )
    if params.e_user.shape[1] != config.d:
        raise CheckpointError(f"{path}: shape error, tensors disagree with d={config.d}")
    enh = None
    if any(n.startswith("enhancer/") for n in tensors):
        enh = EnhancerParams(
            d=config.d,
            wq=t("enhancer/wq"),
            wk=t("enhancer/wk"),
            wv=t("enhancer/wv"),
            fusion={k: t(f"enhancer/fusion_{k}") for k in FUSION_KEYS},
            member_score=t("enhancer/member_score"),
        )
    return params, enh, config


# ---------------------------------------------------------------------------
# training internals
# ---------------------------------------------------------------------------


def _seed_streams(config: TrainConfig) -> dict[str, np.random.Generator]:
    names = ("init_model", "init_enhancer", "negatives", "shuffle", "episodes", "warmup")
    children = np.random.SeedSequence(config.seed).spawn(len(names))
    return {name: np.random.default_rng(ss) for name, ss in zip(names, children)}


def _positive_edges(graph: InteractionGraph) -> list[tuple[str, int, int]]:
    out = [("GI", g, i) for g, i in graph.edges["GI"]]
    out += [("UI", u, i) for u, i in graph.edges["UI"]]
    return out


def _positive_sets(graph: InteractionGraph) -> dict[str, dict[int, set[int]]]:
    sets: dict[str, dict[int, set[int]]] = {"GI": {}, "UI": {}}
    for rel in ("GI", "UI"):
        for a, b in graph.edges[rel]:
            sets[rel].setdefault(a, set()).add(b)
    return sets


def sample_negative(
    rng: np.random.Generator, n_items: int, positives: set[int]
) -> int:
    """Uniform item rejected against the anchor's observed positives."""
    if len(positives) >= n_items:
        raise ValueError("anchor interacts with every item; cannot sample a negative")
    for _ in range(10_000):
        j = int(rng.integers(n_items))
        if j not in positives:
            return j
    raise RuntimeError("negative sampling failed to find a candidate")


def _bpr_term(anchor_rows: Tensor, pos_rows: Tensor, neg_rows: Tensor) -> Tensor:
    pos_scores = ad.row_sums(ad.mul(anchor_rows, pos_rows))
    neg_scores = ad.row_sums(ad.mul(anchor_rows, neg_rows))
    return ad.negate(ad.mean_rows(ad.log_sigmoid(ad.sub(pos_scores, neg_scores))))


def _reg_term(tensors: Sequence[Tensor], lam2: float) -> Tensor:
    total = ad.const(np.zeros(()))
    for t in tensors:
        total = ad.add(total, ad.sum_squares(t))
    return ad.scale(total, lam2)


@dataclass
class _LoopResult:
    params: ModelParams
    enhancer: EnhancerParams | None
    history: TrainHistory
    gtens: GraphTensors
    train_graph: InteractionGraph


def _snapshot(params: ModelParams, enh: EnhancerParams | None):
    tensors = params.tensors() + (enh.tensors() if enh else [])
    return [np.array(t.data) for t in tensors]


def _restore(params: ModelParams, enh: EnhancerParams | None, snap) -> None:
    tensors = params.tensors() + (enh.tensors() if enh else [])
    for t, arr in zip(tensors, snap):
        t.data = np.array(arr)


def _run_epochs(
    config: TrainConfig,
    split: EvalSplit,
    train_graph: InteractionGraph,
    gtens: GraphTensors,
    params: ModelParams,
    enh: EnhancerParams | None,
    gt: GroundTruthTable | None,
    rngs: Mapping[str, np.random.Generator],
    history: TrainHistory,
    *,
    epochs: int,
    main_on: bool,
    ssl_weight: float,
    reg_on: bool,
    phase: str,
    out_dir: Path | None,
    eval_fn=None,
) -> None:
    """The shared mini-batch descent loop for every paradigm/phase.

    A non-finite loss, gradient or parameter raises :class:`_Diverged`
    carrying the parameters of the last epoch that ended finite.
    """
    ssl_on = ssl_weight > 0.0
    positives = _positive_edges(train_graph) if main_on else []
    if main_on and not positives:
        raise ValueError("no positive edges to train on")
    pos_sets = _positive_sets(train_graph)
    n_items = train_graph.counts["item"]
    tensors = params.tensors() + (enh.tensors() if enh else [])
    adam = AdamState(tensors, config.learning_rate)
    last_good = _snapshot(params, enh)

    for epoch_i in range(1, epochs + 1):
        t0 = time.perf_counter()
        epoch_no = len(history.epochs) + 1

        if main_on:
            negatives = [
                sample_negative(rngs["negatives"], n_items, pos_sets[rel][a])
                for rel, a, _ in positives
            ]
            order = rngs["shuffle"].permutation(len(positives))
            n_batches = max(1, math.ceil(len(positives) / config.batch_size))
            batches = [
                order[b * config.batch_size : (b + 1) * config.batch_size]
                for b in range(n_batches)
            ]
        else:
            negatives = []
            n_batches = 1
            batches = [np.array([], dtype=int)]

        episodes: dict[str, list] = {"group": [], "user": [], "item": []}
        masked_edges = 0
        if ssl_on:
            epoch_seed = int(rngs["episodes"].integers(2 ** 31))
            targets = pick_ssl_targets(split, config.ssl_targets, rngs["episodes"])
            for kind, nodes in targets.items():
                for node in nodes:
                    ep = sample_episode(train_graph, node, config.K, config.L, epoch_seed)
                    episodes[kind].append(ep)
                    masked_edges += ep.edge_count()

        sums = {"main": 0.0, "ssl": 0.0, "total": 0.0}
        weights = {"main": 0, "ssl": 0, "steps": 0}

        for b, batch_idx in enumerate(batches):
            with ad.Tape() as tape:
                need_full = (main_on and batch_idx.size > 0) or (
                    ssl_on and config.meta_mode == "full_neighborhood"
                )
                metas_full = None
                full_state = None
                if need_full:
                    if enh is not None:
                        metas_full = full_meta_matrices(gtens, params.table, enh)
                    full_state = full_embeddings(gtens, params, metas=metas_full)

                terms = []
                l_main_val = 0.0
                if main_on and batch_idx.size > 0:
                    gi_idx = [i for i in batch_idx if positives[i][0] == "GI"]
                    ui_idx = [i for i in batch_idx if positives[i][0] == "UI"]
                    l_main = ad.const(np.zeros(()))
                    if gi_idx:
                        rows = ad.gather_rows(full_state.fused["group"], [positives[i][1] for i in gi_idx])
                        pos = ad.gather_rows(full_state.fused["item"], [positives[i][2] for i in gi_idx])
                        neg = ad.gather_rows(full_state.fused["item"], [negatives[i] for i in gi_idx])
                        l_main = ad.add(l_main, _bpr_term(rows, pos, neg))
                    if ui_idx:
                        rows = ad.gather_rows(full_state.fused["user"], [positives[i][1] for i in ui_idx])
                        pos = ad.gather_rows(full_state.fused["item"], [positives[i][2] for i in ui_idx])
                        neg = ad.gather_rows(full_state.fused["item"], [negatives[i] for i in ui_idx])
                        l_main = ad.add(l_main, ad.scale(_bpr_term(rows, pos, neg), config.lam))
                    l_main_val = l_main.item()
                    terms.append(l_main)
                    sums["main"] += l_main_val * batch_idx.size
                    weights["main"] += batch_idx.size

                l_r_val = 0.0
                if ssl_on:
                    slices = {k: v[b::n_batches] for k, v in episodes.items()}
                    if any(slices.values()):
                        l_r, _ = ssl_loss(
                            slices["group"],
                            slices["user"],
                            slices["item"],
                            params,
                            enh,
                            gt,
                            full_state=full_state
                            if config.meta_mode == "full_neighborhood"
                            else None,
                        )
                        l_r_val = l_r.item()
                        terms.append(ad.scale(l_r, ssl_weight))
                        n_eps = sum(len(v) for v in slices.values())
                        sums["ssl"] += l_r_val * n_eps
                        weights["ssl"] += n_eps

                if reg_on and config.lam2 > 0:
                    terms.append(_reg_term(tensors, config.lam2))

                if not terms:
                    continue
                total = terms[0]
                for term in terms[1:]:
                    total = ad.add(total, term)
                total_val = total.item()
                if not math.isfinite(total_val):
                    raise _Diverged(f"non-finite loss at epoch {epoch_no}", last_good)
                try:
                    grads = tape.backward(total, tensors)
                except ValueError as err:
                    raise _Diverged(
                        f"backward failed at epoch {epoch_no}: {err}", last_good
                    ) from err
            adam.step(grads)
            sums["total"] += total_val
            weights["steps"] += 1

        snap = _snapshot(params, enh)
        if not all(np.isfinite(a).all() for a in snap):
            raise _Diverged(f"non-finite parameters after epoch {epoch_no}", last_good)
        last_good = snap

        stats = EpochStats(
            epoch=epoch_no,
            l_main=sums["main"] / weights["main"] if weights["main"] else 0.0,
            l_r=sums["ssl"] / weights["ssl"] if weights["ssl"] else 0.0,
            total=sums["total"] / weights["steps"] if weights["steps"] else 0.0,
            seconds=time.perf_counter() - t0,
            masked_edges=masked_edges,
            phase=phase,
        )
        if eval_fn is not None and config.eval_every > 0 and epoch_i % config.eval_every == 0:
            stats.recall, stats.ndcg = eval_fn(params, enh)
        history.epochs.append(stats)
        if out_dir is not None and config.checkpoint_every > 0 and epoch_i % config.checkpoint_every == 0:
            save_training_checkpoint(Path(out_dir) / "model.ckpt", params, enh, config)
        log.info(
            "epoch %d [%s] main=%.4f ssl=%.4f total=%.4f (%.2fs)",
            epoch_no, phase, stats.l_main, stats.l_r, stats.total, stats.seconds,
        )


class _Diverged(RuntimeError):
    """Divergence inside the loop; ``last_good`` is a :func:`_snapshot`."""

    def __init__(self, message: str, last_good):
        super().__init__(message)
        self.last_good = last_good


def _train(
    config: TrainConfig,
    split: EvalSplit,
    graph: InteractionGraph,
    gt: GroundTruthTable | None,
    out_dir: Path | None,
    eval_fn=None,
) -> _LoopResult:
    config.validate()
    if config.lam1 > 0 and gt is None:
        raise ValueError("reconstruction training needs a ground-truth table (lam1 > 0)")
    train_graph = make_training_graph(graph, split)
    gtens = GraphTensors(train_graph)
    rngs = _seed_streams(config)
    params = init_model_params(
        train_graph.counts,
        config.d,
        config.backbone,
        config.L,
        with_meta=config.enhancer,
        rng=rngs["init_model"],
    )
    enh = None
    if config.enhancer:
        enh = init_enhancer_params(config.d, rngs["init_enhancer"])
        if config.lam1 > 0 and config.warmup_epochs > 0:
            warm_targets = pick_ssl_targets(split, config.warmup_targets, rngs["warmup"])
            warm_seed = int(rngs["warmup"].integers(2 ** 31))
            warm_eps = [
                sample_episode(train_graph, node, config.K, 1, warm_seed, member_depth_bonus=False)
                for nodes in warm_targets.values()
                for node in nodes
            ]
            train_enhancer(
                warm_eps,
                gt,
                enh,
                params.table,
                learning_rate=config.learning_rate,
                epochs=config.warmup_epochs,
                rng=rngs["warmup"],
            )

    history = TrainHistory(label=config.variant_label(), k=config.eval_k)
    wrapped_eval = eval_fn

    def run(epochs, main_on, ssl_weight, reg_on, phase):
        try:
            _run_epochs(
                config, split, train_graph, gtens, params, enh, gt, rngs, history,
                epochs=epochs, main_on=main_on, ssl_weight=ssl_weight, reg_on=reg_on,
                phase=phase, out_dir=out_dir, eval_fn=wrapped_eval,
            )
        except _Diverged as err:
            ckpt = None
            _restore(params, enh, err.last_good)
            if out_dir is not None:
                ckpt = Path(out_dir) / "model.ckpt"
                save_training_checkpoint(ckpt, params, enh, config)
            raise DivergenceError(str(err), history, ckpt) from err

    if config.paradigm == "pretrain_finetune":
        run(config.pretrain_epochs, main_on=False, ssl_weight=config.lam1, reg_on=False, phase="pretrain")
        run(config.epochs, main_on=True, ssl_weight=0.0, reg_on=True, phase="finetune")
    else:
        run(config.epochs, main_on=True, ssl_weight=config.lam1, reg_on=True, phase="joint")
    return _LoopResult(params, enh, history, gtens, train_graph)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def train_joint(
    config: TrainConfig,
    split: EvalSplit,
    graph: InteractionGraph,
    gt: GroundTruthTable | None = None,
    out_dir: Path | None = None,
    eval_fn=None,
) -> tuple[ModelParams, EnhancerParams | None, TrainHistory]:
    """Multi-task training: ranking and reconstruction losses together.

    With ``lam1=0`` and the enhancer off this is exactly the vanilla base-GNN
    trainer; the reconstruction machinery then consumes no randomness, so the
    trajectory is bit-identical to a run that never had it.
    """
    cfg = replace(config, paradigm="joint")
    result = _train(cfg, split, graph, gt, out_dir, eval_fn)
    return result.params, result.enhancer, result.history


def train_pretrain_finetune(
    config: TrainConfig,
    split: EvalSplit,
    graph: InteractionGraph,
    gt: GroundTruthTable | None = None,
    out_dir: Path | None = None,
    eval_fn=None,
) -> tuple[ModelParams, EnhancerParams | None, TrainHistory]:
    """Two-phase training: reconstruction-only first, then the ranking loss."""
    cfg = replace(config, paradigm="pretrain_finetune")
    if cfg.lam1 <= 0:
        cfg = replace(cfg, lam1=1.0)
    result = _train(cfg, split, graph, gt, out_dir, eval_fn)
    return result.params, result.enhancer, result.history


def train_base(
    config: TrainConfig,
    split: EvalSplit,
    graph: InteractionGraph,
    need_layer_sums: bool = False,
) -> tuple[ModelParams, FullState]:
    """Vanilla base-GNN training (no reconstruction, no enhancer).

    Returns the trained parameters and a final full-neighborhood forward
    state, optionally with per-layer sums for teacher tables.
    """
    cfg = replace(config, lam1=0.0, enhancer=False, paradigm="joint")
    result = _train(cfg, split, graph, None, None, None)
    state = full_embeddings(result.gtens, result.params, need_layer_sums=need_layer_sums)
    return result.params, state


def final_state(
    params: ModelParams,
    enh: EnhancerParams | None,
    graph: InteractionGraph,
    split: EvalSplit,
) -> FullState:
    """Full-neighborhood forward pass of a trained model on the training graph."""
    train_graph = make_training_graph(graph, split)
    gtens = GraphTensors(train_graph)
    metas = None
    if enh is not None:
        metas = full_meta_matrices(gtens, params.table, enh)
    return full_embeddings(gtens, params, metas=metas)
