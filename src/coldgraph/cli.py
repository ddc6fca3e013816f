"""Command-line pipeline: prepare, synth, train-teacher, train, evaluate, report.

Every command reads defaults, then an optional config file, then key=value
overrides from the command line.  Exit codes: 0 success, 1 internal error,
2 usage or missing or unreadable input, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .evaluation import complexity_report, evaluate
from .graph import (
    SyntheticSpec,
    build_implicit,
    export_edges,
    generate_synthetic,
    load_edges,
    load_graph_cache,
    make_training_graph,
    read_split_manifest,
    save_graph_cache,
    segment,
    stats_summary,
    write_split_manifest,
)
from .model import GraphTensors
from .reconstruction import GroundTruthTable, train_teacher
from .train import (
    DivergenceError,
    TrainConfig,
    TrainHistory,
    TrainingDataError,
    final_state,
    load_training_checkpoint,
    save_training_checkpoint,
    train_model,
)

log = logging.getLogger("coldgraph")

COMMANDS = ("prepare", "synth", "train-teacher", "train", "evaluate", "report")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _setup_logging() -> None:
    level = os.environ.get("COLDGRAPH_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise CliError(2, f"COLDGRAPH_LOG must be one of {sorted(levels)}, got {level!r}")
    logging.basicConfig(level=levels[level], format="%(levelname)s %(message)s")


def _config_epilog() -> str:
    keys = ", ".join(f.name for f in fields(TrainConfig))
    return (
        "config keys (settable in the config file or as key=value overrides): "
        + keys
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldgraph",
        description="training engine for cold-start group recommendation",
        epilog=_config_epilog(),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, epilog=_config_epilog())
        p.add_argument("--config", type=Path, default=None, help="config file (key=value lines)")
        p.add_argument("--out", type=Path, default=Path("out"), help="output/working directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("overrides", nargs="*", help="config overrides as key=value")
    return parser


def _resolve_config(args) -> TrainConfig:
    config = TrainConfig()
    if args.config is not None:
        if not Path(args.config).exists():
            raise CliError(2, f"missing config file: {args.config}")
        config = TrainConfig.from_file(args.config, config)
    pairs = []
    for item in args.overrides:
        if "=" not in item:
            raise CliError(2, f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        pairs.append((key, value))
    try:
        config = config.with_overrides(pairs)
    except (KeyError, ValueError) as err:
        raise CliError(2, str(err)) from err
    if args.seed is not None:
        config = config.with_overrides([("seed", str(args.seed))])
    try:
        config.validate()
    except ValueError as err:
        raise CliError(2, str(err)) from err
    return config


def _require(path: Path, what: str) -> Path:
    if not Path(path).exists():
        raise CliError(2, f"missing {what}: {path}")
    return Path(path)


def _load_workspace(out: Path):
    graph_dir = _require(out / "graph", "graph cache (run prepare first)")
    split_path = _require(out / "split.txt", "split manifest (run prepare first)")
    try:
        return load_graph_cache(graph_dir), read_split_manifest(split_path)
    except ValueError as err:
        raise CliError(2, f"malformed workspace {out}: {err}") from err


def cmd_synth(config: TrainConfig, out: Path) -> int:
    spec = SyntheticSpec(
        n_users=config.synth_users,
        n_items=config.synth_items,
        n_groups=config.synth_groups,
        n_clusters=config.synth_clusters,
        intra_p=config.synth_intra,
        inter_p=config.synth_inter,
        group_size_min=config.synth_group_min,
        group_size_max=config.synth_group_max,
        occasional_fraction=config.synth_occasional_fraction,
        occasional_scale=config.synth_occasional_scale,
        ts_min=config.synth_ts_min,
        ts_max=config.synth_ts_max,
        seed=config.seed,
    )
    try:
        graph = generate_synthetic(spec)
    except ValueError as err:
        raise CliError(2, str(err)) from err
    out.mkdir(parents=True, exist_ok=True)
    export_edges(graph, out)
    summary = stats_summary(graph)
    (out / "stats.txt").write_text(summary + "\n", encoding="utf-8")
    print(summary)
    return 0


def cmd_prepare(config: TrainConfig, out: Path) -> int:
    data_dir = Path(config.data_dir)
    for name in ("user_item.tsv", "group_item.tsv", "group_user.tsv"):
        _require(data_dir / name, "edge file")
    try:
        graph, ids = load_edges(
            data_dir / "user_item.tsv",
            data_dir / "group_item.tsv",
            data_dir / "group_user.tsv",
        )
    except ValueError as err:
        raise CliError(2, str(err)) from err
    graph = build_implicit(graph, config.c_u, config.c_g)
    split = segment(graph, config.n_g, config.n_u, config.n_i, config.c_percent)
    out.mkdir(parents=True, exist_ok=True)
    save_graph_cache(graph, out / "graph")
    ids.save(out / "ids.tsv")
    write_split_manifest(split, out / "split.txt")
    summary = stats_summary(graph)
    warm = {k: len(split.warm[k]) for k in ("user", "item", "group")}
    cold = {k: len(split.cold[k]) for k in ("user", "item", "group")}
    flagged = sum(len(v) for v in split.flagged.values())
    extra = (
        f"\nWarm nodes        {warm}"
        f"\nCold nodes        {cold}"
        f"\nTrain_N edges     {sum(len(v) for v in split.train_n.values())}"
        f"\nTest_N edges      {sum(len(v) for v in split.test_n.values())}"
        f"\nFlagged (no test) {flagged}"
    )
    (out / "stats.txt").write_text(summary + extra + "\n", encoding="utf-8")
    print(summary + extra)
    return 0


def cmd_train_teacher(config: TrainConfig, out: Path) -> int:
    graph, split = _load_workspace(out)
    table = train_teacher(split, GraphTensors(make_training_graph(graph, split)), config)
    save_checkpoint(
        out / "teacher.ckpt",
        dict(table.named_tensors()),
        config.to_text() + f"provenance={table.provenance}\n",
    )
    known = sum(int(mask.sum()) for mask in table.known.values())
    print(f"teacher table: {known} nodes -> {out / 'teacher.ckpt'}")
    return 0


def _load_teacher(out: Path, config: TrainConfig, graph, split) -> GroundTruthTable:
    """The teacher table, checked against the workspace's graph and split."""
    path = _require(out / "teacher.ckpt", "teacher table (run train-teacher first)")
    try:
        tensors, echo = load_checkpoint(path)
    except CheckpointError as err:
        raise CliError(2, str(err)) from err
    provenance = "unknown"
    for line in echo.splitlines():
        if line.startswith("provenance="):
            provenance = line.split("=", 1)[1]
    try:
        table = GroundTruthTable.from_named_tensors(tensors, provenance)
    except ValueError as err:
        raise CliError(2, f"{path} is not a teacher table: {err}; re-run train-teacher") from err
    rows = {kind: r.shape[0] for kind, r in table.rows.items()}
    if rows != graph.counts:
        raise CliError(2, f"{path} has rows {rows} for nodes {graph.counts}; re-run train-teacher")
    lacking = {kind: w[~table.known[kind][w]][:5].tolist() for kind, w in split.warm.items()}
    if any(lacking.values()):
        raise CliError(2, f"{path} lacks the split's warm nodes {lacking}; re-run train-teacher")
    if table.d != config.d:
        raise CliError(2, f"teacher table has d={table.d}, config wants d={config.d}")
    return table


def _evaluate(state, split, config: TrainConfig):
    try:
        return evaluate(state.arrays(), split, k=config.eval_k)
    except ValueError as err:  # the split has no evaluable cold anchor
        raise CliError(2, str(err)) from err


def cmd_train(config: TrainConfig, out: Path) -> int:
    graph, split = _load_workspace(out)
    gt = _load_teacher(out, config, graph, split) if config.lam1 > 0 else None

    def eval_fn(state):
        m = _evaluate(state, split, config)
        return m.recall_at_k, m.ndcg_at_k

    gtens = GraphTensors(make_training_graph(graph, split))
    params, enh, history = train_model(config, split, gtens, gt, out_dir=out, eval_fn=eval_fn)
    save_training_checkpoint(out / "model.ckpt", params, enh, config)
    label = config.variant_label()
    history_file = out / f"history{label}.csv"
    history_file.write_text(history.to_csv(), encoding="utf-8")
    masked = ",".join(str(e.masked_edges) for e in history.epochs)
    phases = ",".join(e.phase for e in history.epochs)
    (out / "run_meta.txt").write_text(
        f"label={label}\n"
        f"history_file={history_file.name}\n"
        f"total_edges={graph.num_edges()}\n"
        f"masked_edges={masked}\n"
        f"phases={phases}\n",
        encoding="utf-8",
    )
    print(f"trained {len(history.epochs)} epochs -> {out / 'model.ckpt'}")
    return 0


def cmd_evaluate(config: TrainConfig, out: Path) -> int:
    graph, split = _load_workspace(out)
    path = _require(out / "model.ckpt", "model checkpoint (run train first)")
    try:
        params, enh, ckpt_config = load_training_checkpoint(path, expect=config)
    except CheckpointError as err:
        raise CliError(2, str(err)) from err
    rows = params.counts()
    if rows != graph.counts:
        raise CliError(2, f"{path} has rows {rows} for nodes {graph.counts}; re-run train")
    metrics = _evaluate(final_state(params, enh, graph, split), split, config)
    (out / "metrics.csv").write_text(metrics.to_csv(ckpt_config.seed), encoding="utf-8")
    (out / "per_node.csv").write_text(metrics.per_node_csv(), encoding="utf-8")
    text = (
        f"k                {metrics.k}\n"
        f"recall@{metrics.k}        {metrics.recall_at_k:.6f}\n"
        f"ndcg@{metrics.k}          {metrics.ndcg_at_k:.6f}\n"
        f"evaluated anchors {metrics.evaluated}\n"
    )
    (out / "metrics.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def _read_run(run_dir: Path) -> tuple[TrainHistory, list[int], int]:
    path = _require(Path(run_dir) / "run_meta.txt", "run metadata")
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = dict(line.split("=", 1) for line in lines if "=" in line)
    history_file = _require(Path(run_dir) / meta.get("history_file", "history.csv"), "history CSV")
    try:
        masked = [int(x) for x in meta.get("masked_edges", "").split(",") if x]
        total_edges = int(meta.get("total_edges", "0"))
    except ValueError as err:
        raise CliError(2, f"malformed {path}: {err}") from err
    try:
        text = history_file.read_text(encoding="utf-8")
        history = TrainHistory.from_csv(text, label=meta.get("label", ""))
    except ValueError as err:
        raise CliError(2, f"malformed {history_file}: {err}") from err
    return history, masked, total_edges


def cmd_report(config: TrainConfig, out: Path) -> int:
    if not config.report_base_dir or not config.report_ssl_dir:
        raise CliError(2, "report needs report_base_dir=... and report_ssl_dir=...")
    base_history, _, base_edges = _read_run(Path(config.report_base_dir))
    ssl_history, masked, ssl_edges = _read_run(Path(config.report_ssl_dir))
    report = complexity_report(ssl_history, base_history, ssl_edges or base_edges, masked or None)
    out.mkdir(parents=True, exist_ok=True)
    (out / "complexity.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    (out / "complexity.csv").write_text(report.to_csv(), encoding="utf-8")
    print(report.to_text())
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _setup_logging()
        config = _resolve_config(args)
        out = Path(args.out)
        handler = {
            "prepare": cmd_prepare,
            "synth": cmd_synth,
            "train-teacher": cmd_train_teacher,
            "train": cmd_train,
            "evaluate": cmd_evaluate,
            "report": cmd_report,
        }[args.command]
        return handler(config, out)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except DivergenceError as err:
        print(f"error: training diverged: {err}", file=sys.stderr)
        if err.checkpoint is not None:
            print(f"last good checkpoint: {err.checkpoint}", file=sys.stderr)
        return 3
    except (FileNotFoundError, TrainingDataError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (IsADirectoryError, NotADirectoryError, PermissionError) as err:  # exists, unreadable
        print(f"error: {err.strerror}: {err.filename}", file=sys.stderr)
        return 2
    except Exception as err:  # internal failure
        log.exception("internal error")
        print(f"internal error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
