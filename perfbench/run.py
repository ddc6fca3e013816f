"""Benchmark command for coldgraph's CLI training pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each repetition is a fresh
``perfbench/pipeline.py`` subprocess running synth -> prepare ->
[train-teacher] -> train -> evaluate on one synthetic dataset.  The datasets
of a run are made from ``--seed``: repetition i builds dataset i, except the
last, which rebuilds dataset 0 and must reproduce its checkpoint byte for
byte.  Spreading a run over several datasets keeps one dataset's size from
setting the run's timings.  At least three repetitions run; more start while
one of median length still fits in ``--seconds``.  ``--trace 0`` reports the
end-to-end metrics as medians over all samples of the run; ``ranking_loss``
is recomputed from the checkpoint of each dataset's first repetition.
``--trace 1`` runs untraced, traced and untraced repetitions on dataset 0
(a single setup and evaluation each) and reports the traced one's per-layer
self times and counts, and the tracing overhead against the mean of the
untraced two.
BLAS runs on one thread (at most nproc).  The last stdout line is the JSON
result; the line before it carries the environment, per-stage walls,
percentiles and sample counts.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spec import END_TO_END, PER_LAYER, WORKLOADS, Workload  # noqa: E402
from tracer import count_outside, self_times  # noqa: E402

# One BLAS thread: on a shared 2-CPU machine two threads made epoch times
# spread far more from run to run than the single-thread slowdown.
BLAS_THREADS = 1
# Medians over at least three repetitions: two datasets and the repeat of
# the first, which checks that model.ckpt is reproducible for one seed.
MIN_REPS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def dataset_seed(seed: int, index: int) -> int:
    """The ``seed`` config value of a run's dataset ``index``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def environment(root: Path, seed: int) -> dict:
    git_sha = None
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == root.resolve():
            git_sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("COLDGRAPH_LOG", None)
    return env


def run_rep(root: Path, workload: Workload, seed: int, workdir: Path, traced: bool,
            oracle: bool, timeout: float):
    """One pipeline repetition in a fresh subprocess; returns (result, wall)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "pipeline.py"),
        "--spec", json.dumps(dataclasses.asdict(workload)),
        "--seed", str(seed), "--trace", str(int(traced)), "--oracle", str(int(oracle)),
    ]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(root), cwd=workdir, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {timeout:.0f} s") from exc
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"pipeline.py exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    if proc.stderr:
        print(proc.stderr, file=sys.stderr, end="")
    result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    if traced:
        with np.load(workdir / "spans.npz") as spans:
            result["spans"] = {k: spans[k] for k in spans.files}
    return result, wall


def median_and_tail(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples above it."""
    out = {"n": len(values), "median": statistics.median(values)}
    beyond = 10
    if len(values) > beyond:
        pct = int(100 * (len(values) - beyond) / len(values))
        out[f"p{pct}"] = float(np.percentile(values, pct))
    return out


def stage_outcomes(reps: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors); a stage fails on a nonzero exit or a failed check."""
    attempted = failed = 0
    errors = []
    for rep in reps:
        for stage in rep["stages"]:
            attempted += 1
            if stage["code"] != 0 or stage["errors"]:
                failed += 1
                errors.append(f"{stage['name']}: exit {stage['code']} {stage['errors']}")
    return attempted, failed, errors


def stage_samples(rep: dict) -> dict[str, list[float]]:
    """Walls of one repetition by stage; a setup sample is synth plus prepare."""
    out: dict[str, list[float]] = {"setup": [], "train-teacher": [], "train": [], "evaluate": []}
    for stage in rep["stages"]:
        if stage["name"] == "synth":
            out["setup"].append(stage["wall"])
        elif stage["name"] == "prepare":
            out["setup"][-1] += stage["wall"]
        else:
            out[stage["name"]].append(stage["wall"])
    return out


def end_to_end(reps: list[dict]) -> tuple[dict[str, float], dict]:
    """End-to-end metric values (medians over repetitions) and their detail.

    ``total_s`` is one user pipeline: the repetition's median setup and
    median evaluation plus its teacher and train walls.
    """
    walls = [stage_samples(r) for r in reps]
    samples = {
        "total_s": [
            statistics.median(w["setup"]) + sum(w["train-teacher"]) + sum(w["train"])
            + statistics.median(w["evaluate"])
            for w in walls
        ],
        "setup_s": [x for w in walls for x in w["setup"]],
        "teacher_s": [x for w in walls for x in w["train-teacher"]],
        "train_s": [x for w in walls for x in w["train"]],
        "epoch_s": [x for r in reps for x in r["epoch_seconds"]],
        "eval_s": [x for w in walls for x in w["evaluate"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "final_loss": [r["final_loss"] for r in reps],
        "ranking_loss": [r["ranking_loss"] for r in reps if "ranking_loss" in r],
        "recall20": [r["recall"] for r in reps],
        "ndcg20": [r["ndcg"] for r in reps],
    }
    detail = {name: median_and_tail(v) for name, v in samples.items() if v}
    values = {m.name: detail[m.name]["median"] for m in END_TO_END}
    return values, detail


def per_layer(traced: dict, untraced: list[dict]) -> tuple[dict[str, float], float]:
    """Per-layer metrics from the traced repetition's span table, and the
    traced time spent in stages outside every wrapped layer."""
    spans = traced["spans"]
    try:
        selfs = self_times(spans)
    except ValueError as err:
        raise BenchError(f"malformed span table: {err}") from err
    counters, samples = traced["counters"], traced["samples"]
    values: dict[str, float] = {}
    for metric in PER_LAYER:
        base, _, field = metric.name.rpartition(".")
        if field in ("s", "calls"):
            total, calls = selfs.get(base, (0.0, 0))
            values[metric.name] = total if field == "s" else calls
        else:
            values[metric.name] = counters.get(metric.name, 0.0)
    walls = sum(s["wall"] for s in traced["stages"])
    values.update({
        "autodiff.tape_records": statistics.median(samples.get("autodiff.tape_records", [0])),
        "train.steps": count_outside(spans, "train.adam_step", "enhancer.train_enhancer"),
        "trace.overhead_s": walls - statistics.mean(
            sum(s["wall"] for s in rep["stages"]) for rep in untraced
        ),
        "recall20": traced["recall"],
        "ndcg20": traced["ndcg"],
    })
    remainder = sum(t for name, (t, _) in selfs.items() if name.startswith("stage."))
    return values, remainder


def run_workload(root: Path, workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run repetitions and return (final result, detail)."""
    started = time.perf_counter()
    if trace:
        workload = dataclasses.replace(workload, setups=1, evals=1)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=root))
    reps: list[dict] = []
    walls: list[float] = []
    datasets: list[int] = []  # dataset index of each repetition
    try:
        while True:
            elapsed = time.perf_counter() - started
            if trace:
                if len(reps) == 3:
                    break
                traced = len(reps) == 1
                index = 0
            else:
                left = seconds - elapsed - (statistics.median(walls) if walls else 0.0)
                repeated = len(datasets) > len(set(datasets))
                if len(reps) >= MIN_REPS and repeated and left < 0:
                    break
                traced = False
                # Repeat dataset 0 when no repetition would fit after this one.
                last = len(reps) >= MIN_REPS - 1 and left < statistics.median(walls)
                index = 0 if last and not repeated else len(set(datasets))
            # Each dataset's first repetition is checked against the oracle;
            # a repeat must reproduce its checkpoint and metrics exactly.
            result, wall = run_rep(root, workload, dataset_seed(seed, index),
                                   workdir / f"rep{len(reps)}", traced,
                                   oracle=index not in datasets, timeout=RUN_LIMIT_S - elapsed)
            reps.append(result)
            walls.append(wall)
            datasets.append(index)
            shutil.rmtree(workdir / f"rep{len(reps) - 1}", ignore_errors=True)
            if any(s["code"] != 0 for s in result["stages"]):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, errors = stage_outcomes(reps)
    for index in set(datasets):
        complete = [r for r, i in zip(reps, datasets) if i == index and "ckpt_sha256" in r]
        for key, stage in (("ckpt_sha256", "train"), ("recall", "evaluate"), ("ndcg", "evaluate")):
            if len({r[key] for r in complete}) > 1:
                failed += 1
                errors.append(f"{stage}: dataset {index} gave different {key} across repetitions")
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "environment": environment(root, seed),
        "repetitions": len(reps),
        "datasets": datasets,
        "dataset_seeds": sorted({dataset_seed(seed, i) for i in datasets}),
        "repetition_walls_s": walls,
        "stage_walls_s": [stage_samples(r) for r in reps],
        "errors": errors,
    }
    metrics: dict[str, float] = {}
    if failed == 0:
        if trace:
            metrics, detail["trace_remainder_s"] = per_layer(reps[1], [reps[0], reps[2]])
            detail["kinds"] = {m.name: m.kind for m in PER_LAYER}
        else:
            metrics, detail["samples"] = end_to_end(reps)
    units = {m.name: m.unit for m in (PER_LAYER if trace else END_TO_END)}
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return final, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "coldgraph" / "cli.py").is_file():
        print("error: run from the repository root (src/coldgraph not found)", file=sys.stderr)
        return 2
    try:
        final, detail = run_workload(root, WORKLOADS[args.workload], args.seed,
                                     args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
