"""Self-test of the benchmark; runs each workload's pipeline at a tiny size.

    python3 perfbench/selftest.py     (from the repository root)

Runs under plain ``python3`` (not ``-O``, which strips the asserts).
Checks that BENCHMARK.json and spec.py name the same workloads and metrics
with the same units and directions, and that an untraced and a traced run of
every workload, shrunk to a few seconds, pass their output checks and report
exactly the declared metrics.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import run_workload  # noqa: E402
from spec import END_TO_END, PER_LAYER, TRACED_OPS, WORKLOADS  # noqa: E402

EXPECTED_WORKLOADS = {"ssl-pretrain-x1", "base-minibatch-x4"}
EXPECTED_END_TO_END = {
    "total_s", "setup_s", "train_s", "epoch_s", "eval_s", "peak_rss_mb", "final_loss",
    "ranking_loss",
}
EXPECTED_PER_LAYER = {
    "graph.generate_synthetic.s", "graph.build_implicit.s", "graph.segment.s",
    "graph.make_training_graph.s", "model.GraphTensors.s", "model.GraphTensors.calls",
    "graph.sample_episode.s", "graph.sample_episode.calls", "graph.masked_edges",
    "model.embed_from_episode.s", "model.embed_from_episode.calls",
    "enhancer.episode_metas.s", "enhancer.episode_metas.calls",
    "reconstruction.ssl_loss.s", "reconstruction.ssl_loss.calls",
    "enhancer.train_enhancer.s",
    "enhancer.full_meta_matrices.s", "enhancer.full_meta_matrices.calls",
    "model.full_embeddings.s", "model.full_embeddings.calls",
    "model.dense_adj.bytes", "model.dense_adj.density",
    "autodiff.backward.s", "autodiff.backward.calls", "autodiff.tape_records",
    *(f"autodiff.op.{op}.{f}" for op in TRACED_OPS for f in ("calls", "s", "out_bytes")),
    "train.steps", "train.adam_step.s", "train.adam_step.calls",
    "train.sample_negative.s", "train.sample_negative.calls",
    "evaluation.final_state.s", "evaluation.evaluate.s", "evaluation.anchors",
    "checkpoint.save.s", "checkpoint.load.s", "checkpoint.bytes",
    "trace.overhead_s", "recall20", "ndcg20",
}
TINY_EPOCHS = {"pretrain_epochs": "2", "epochs": "1", "teacher_epochs": "1", "warmup_epochs": "2"}


def check_declarations(root: Path) -> None:
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in bench["workloads"]} == EXPECTED_WORKLOADS == set(WORKLOADS)
    for w in bench["workloads"]:
        assert w == {"name": w["name"], "why": WORKLOADS[w["name"]].why}, w["name"]
    declared_e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert set(declared_e2e) == EXPECTED_END_TO_END, set(declared_e2e) ^ EXPECTED_END_TO_END
    for m in END_TO_END:
        want = {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        assert declared_e2e[m.name] == want, (declared_e2e[m.name], want)
    declared_layer = {m["name"]: m for m in bench["per_layer"]}
    assert set(declared_layer) == EXPECTED_PER_LAYER, set(declared_layer) ^ EXPECTED_PER_LAYER
    for m in PER_LAYER:
        want = {"name": m.name, "unit": m.unit, "better": m.better}
        assert declared_layer[m.name] == want, (declared_layer[m.name], want)
    assert len(PER_LAYER) == len(declared_layer)


def check_tiny_runs(root: Path) -> None:
    for workload in WORKLOADS.values():
        tiny = dataclasses.replace(
            workload,
            scale=0.5,
            overrides={**workload.overrides, **TINY_EPOCHS},
            setups=1,
            evals=1,
            min_loss_drop=0.0,  # a few steps at this size barely move the loss
        )
        for trace, declared in ((False, END_TO_END), (True, PER_LAYER)):
            t0 = time.perf_counter()
            final, detail = run_workload(root, tiny, seed=3, seconds=0, trace=trace)
            assert final["correct"] and final["failed"] == 0, detail["errors"]
            stages = (4 + workload.needs_teacher) * 3  # three repetitions either way
            assert final["attempted"] == stages, final
            got = final["metrics"]
            assert set(got) == {m.name for m in declared}, set(got) ^ {m.name for m in declared}
            for m in declared:
                assert got[m.name]["unit"] == m.unit, m.name
                assert isinstance(got[m.name]["value"], (int, float)), m.name
            if trace and workload.name == "base-minibatch-x4":
                assert got["enhancer.full_meta_matrices.calls"]["value"] == 0
                assert got["reconstruction.ssl_loss.calls"]["value"] == 0
            if not trace:
                assert all(v["value"] > 0 for v in got.values()), got
            print(f"ok {workload.name} trace={int(trace)} {time.perf_counter() - t0:.1f}s")


def main() -> int:
    root = Path.cwd()
    check_declarations(root)
    print("ok declarations")
    check_tiny_runs(root)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
