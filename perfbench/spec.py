"""Workloads and metric names of the benchmark.

``BENCHMARK.json`` at the repository root mirrors this module; the self-test
(``python3 perfbench/selftest.py``) fails when the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Shared by every workload: half of the groups are occasional (10% activity),
# which gives the cold-start split enough cold groups to evaluate, and low
# co-interaction thresholds so the implicit UU/GG relations are non-empty.
COMMON = {
    "synth_occasional_fraction": "0.5",
    "synth_occasional_scale": "0.1",
    "c_u": "3",
    "c_g": "1",
}

FULL_BATCH = "1000000"  # larger than any workload's positive-edge count


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: float
    overrides: dict = field(default_factory=dict)
    # Repeats per pipeline of the short stages.  Pipelines are kept short so
    # that a run holds several: the machine's speed drifts over seconds, and
    # many short samples give steadier medians than a few long ones.
    setups: int = 1  # synth + prepare
    evals: int = 1  # evaluate
    # Share of the untrained ranking loss that training must remove; 0 where
    # the workload trains too little to move it.
    min_loss_drop: float = 0.0

    def config_args(self, seed: int) -> list[str]:
        """``key=value`` overrides shared by every CLI stage of one pipeline."""
        s = self.scale
        sizes = {
            "synth_users": str(round(200 * s)),
            "synth_items": str(round(300 * s)),
            "synth_groups": str(round(80 * s)),
            "synth_intra": repr(0.15 / s),
            "synth_inter": repr(0.01 / s),
            "seed": str(seed),
        }
        merged = {**COMMON, **sizes, **self.overrides}
        return [f"{k}={v}" for k, v in merged.items()]

    @property
    def needs_teacher(self) -> bool:
        return float(self.overrides.get("lam1", "1.0")) > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ssl-pretrain-x1",
            why=(
                "Pretrain/finetune with the enhancer at x1: almost all work is per-episode "
                "(warm-up, sample_episode, embed_from_episode, tiny tape ops); full-graph "
                "propagation runs once."
            ),
            scale=1,
            overrides={
                "paradigm": "pretrain_finetune",
                "enhancer": "true",
                "meta_mode": "episodic",
                "pretrain_epochs": "8",
                "epochs": "4",
                "teacher_epochs": "3",
                "learning_rate": "0.01",
                "batch_size": FULL_BATCH,
            },
            setups=10,
            evals=8,
            min_loss_drop=0.2,
        ),
        Workload(
            name="base-minibatch-x4",
            why=(
                "Plain GNN (lam1=0, no enhancer) at x4 with 256-edge minibatches: every step "
                "runs the dense full-graph forward, backward, Adam and negative sampling; "
                "no SSL or enhancer work."
            ),
            scale=4,
            overrides={"lam1": "0", "enhancer": "false", "epochs": "1", "learning_rate": "0.01"},
            setups=4,
            evals=4,
            min_loss_drop=0.2,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only: allowed relative regression
    # "time" is measured; "count" repeats exactly for one seed and code
    # version; "computed" is arithmetic over shapes, not a measurement.
    kind: str = "time"


# Bounds: on a shared 2-CPU machine the host's speed drifts over minutes, which
# spreads the medians of ten 55-second runs by 0.08-0.12 of their median on
# x4 and 0.15-0.21 on x1 (interpreter-bound code follows the drift more
# closely), so time bounds sit at the 0.25 cap.
# The losses repeat exactly for one seed but spread by up to a tenth across
# seeds.  ranking_loss is recomputed from model.ckpt; on x1 and x4 training
# takes it 29-49% below its untrained level, so a training defect that
# leaves it there (which the loss-drop check also rejects) exceeds its bound.
END_TO_END = [
    Metric("total_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("train_s", "s", "lower", 0.25),
    Metric("epoch_s", "s", "lower", 0.25),
    Metric("eval_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.2),
    Metric("final_loss", "loss", "lower", 0.2, kind="quality"),
    Metric("ranking_loss", "loss", "lower", 0.2, kind="quality"),
]

# Autodiff ops whose count, self time and output bytes are reported.
TRACED_OPS = (
    "gather_rows",
    "matmul",
    "concat",
    "softmax",
    "scale_rows",
    "sum_consecutive",
    "row_sums",
    "mul",
    "add",
    "reshape",
    "stack_rows",
    "mean_rows",
)


def _timed(name: str, calls: bool = True) -> list[Metric]:
    out = [Metric(f"{name}.s", "s", "lower")]
    if calls:
        out.append(Metric(f"{name}.calls", "count", "lower", kind="count"))
    return out


PER_LAYER = [
    *_timed("graph.generate_synthetic", calls=False),
    *_timed("graph.build_implicit", calls=False),
    *_timed("graph.segment", calls=False),
    *_timed("graph.make_training_graph", calls=False),
    *_timed("model.GraphTensors"),
    *_timed("graph.sample_episode"),
    Metric("graph.masked_edges", "count", "lower", kind="count"),
    *_timed("model.embed_from_episode"),
    *_timed("enhancer.episode_metas"),
    *_timed("reconstruction.ssl_loss"),
    *_timed("enhancer.train_enhancer", calls=False),
    *_timed("enhancer.full_meta_matrices"),
    *_timed("model.full_embeddings"),
    Metric("model.dense_adj.bytes", "bytes.computed", "lower", kind="computed"),
    Metric("model.dense_adj.density", "ratio.computed", "higher", kind="computed"),
    *_timed("autodiff.backward"),
    Metric("autodiff.tape_records", "count", "lower", kind="count"),
    *[
        m
        for op in TRACED_OPS
        for m in (
            Metric(f"autodiff.op.{op}.calls", "count", "lower", kind="count"),
            Metric(f"autodiff.op.{op}.s", "s", "lower"),
            Metric(f"autodiff.op.{op}.out_bytes", "bytes.computed", "lower", kind="computed"),
        )
    ],
    Metric("train.steps", "count", "lower", kind="count"),
    *_timed("train.adam_step"),
    *_timed("train.sample_negative"),
    *_timed("evaluation.final_state", calls=False),
    *_timed("evaluation.evaluate", calls=False),
    Metric("evaluation.anchors", "count", "higher", kind="count"),
    *_timed("checkpoint.save", calls=False),
    *_timed("checkpoint.load", calls=False),
    Metric("checkpoint.bytes", "count", "lower", kind="count"),
    Metric("trace.overhead_s", "s", "lower"),
    # Quality repeats exactly for one seed and code version, but varies far
    # more across seeds than any end-to-end bound allows (few cold anchors).
    Metric("recall20", "ratio", "higher", kind="quality"),
    Metric("ndcg20", "ratio", "higher", kind="quality"),
]
