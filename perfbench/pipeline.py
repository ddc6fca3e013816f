"""One benchmark repetition: the CLI pipeline in a fresh process.

Drives ``coldgraph.cli.main`` in-process through synth -> prepare ->
train-teacher (only when lam1 > 0) -> train -> evaluate in a scratch
workspace, so stage walls include the graph cache, split manifest and
checkpoint I/O a user pays.  Writes a JSON result (and, when traced, the span
table) into the work directory.  ``run.py`` starts this script once per
repetition, so ``ru_maxrss`` is the peak of this pipeline alone.

    python3 perfbench/pipeline.py --spec JSON --seed N --trace 0|1 --oracle 0|1

It works in the current directory with relative paths, so the config echo in
``model.ckpt`` (which records ``data_dir``) is the same for every repetition.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from spec import Workload  # noqa: E402
from tracer import Tracer, install  # noqa: E402


def run_stage(cli, command: str, out: Path, config: list[str], tracer: Tracer | None):
    """Run one CLI command; returns (wall seconds, exit code)."""
    argv = [command, "--out", str(out), *config]
    sink = io.StringIO()
    span = tracer.span(f"stage.{command}") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        with span:
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - t0
    if code != 0:
        print(f"{command} exited {code}: {sink.getvalue()[-2000:]}", file=sys.stderr)
    return wall, code


def run(workload: Workload, seed: int, traced: bool, oracle: bool) -> dict:
    from coldgraph import cli

    tracer = None
    if traced:
        tracer = Tracer()
        install(tracer)
    stages: list[dict] = []

    def stage(command: str, out: Path, config: list[str]) -> bool:
        wall, code = run_stage(cli, command, out, config, tracer)
        stages.append({"name": command, "wall": wall, "code": code, "errors": []})
        return code == 0

    def setup(i: int) -> bool:
        out = Path(f"ws{i}")
        args = workload.config_args(seed) + [f"data_dir={out / 'data'}"]
        return stage("synth", out / "data", args) and stage("prepare", out, args)

    # The pipeline runs in ws0.  Extra setups (into ws1, ...) and evaluations
    # alternate after training, so their samples are spread over the
    # repetition instead of sharing one moment's machine speed.
    ws = Path("ws0")
    config = workload.config_args(seed) + [f"data_dir={ws / 'data'}"]
    ok = setup(0)
    if ok and workload.needs_teacher:
        ok = stage("train-teacher", ws, config)
    ok = ok and stage("train", ws, config) and stage("evaluate", ws, config)
    for i in range(1, max(workload.setups, workload.evals)):
        if i < workload.setups:
            ok = ok and setup(i)
        if i < workload.evals:
            ok = ok and stage("evaluate", ws, config)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"stages": stages, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.uninstall()
        tracer.save(Path("spans.npz"))
        result["counters"] = dict(tracer.counters)
        result["samples"] = {k: list(v) for k, v in tracer.samples.items()}
    if not ok:
        return result

    try:
        result.update(check_outputs(ws, stages, workload, seed, oracle))
    except Exception as err:  # unreadable output fails the check, not the benchmark
        stages[-1]["errors"].append(f"reading outputs: {err!r}")
    return result


def check_outputs(ws: Path, stages: list[dict], workload: Workload, seed: int,
                  oracle: bool) -> dict:
    """Run the output checks, recording failures on their stage; returns the
    figures the benchmark reports.  With ``oracle`` the checkpoint is loaded
    to recompute Recall/NDCG and the ranking loss."""
    rows = checks.history_rows(ws)
    by_name = {s["name"]: s for s in stages}  # the last of each name
    trained = checks.load_trained(ws) if oracle else None
    train_error = checks.history_finite(rows)
    if workload.min_loss_drop > 0:
        train_error = train_error or checks.phases_fell(ws, rows, workload.min_loss_drop)
    out = {}
    if trained is not None:
        out["ranking_loss"] = checks.ranking_loss(trained, seed)
        if workload.min_loss_drop > 0:
            train_error = train_error or checks.loss_fell(
                out["ranking_loss"], trained.lam, workload.min_loss_drop
            )
    if train_error:
        by_name["train"]["errors"].append(train_error)
    eval_error = checks.evaluation_matches(ws, trained)
    if eval_error:
        by_name["evaluate"]["errors"].append(eval_error)
    metrics = checks.read_metrics(ws)
    return {
        **out,
        "epoch_seconds": [float(r[4]) for r in rows],
        "final_loss": float(rows[-1][3]),
        "recall": metrics["recall"],
        "ndcg": metrics["ndcg"],
        "ckpt_sha256": hashlib.sha256((ws / "model.ckpt").read_bytes()).hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True, help="workload as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--oracle", type=int, choices=(0, 1), default=1,
                        help="recompute Recall/NDCG from model.ckpt")
    args = parser.parse_args()
    workload = Workload(**json.loads(args.spec))
    result = run(workload, args.seed, bool(args.trace), bool(args.oracle))
    Path("result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
