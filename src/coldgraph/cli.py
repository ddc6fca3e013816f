"""Command-line pipeline: prepare, synth, train-teacher, train, evaluate, report.

Every command reads defaults, then an optional config file, then key=value
overrides from the command line.  Exit codes: 0 success, 1 internal error,
2 usage or missing input, 3 numeric divergence.
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
    read_split_manifest,
    save_graph_cache,
    segment,
    stats_summary,
    write_split_manifest,
)
from .reconstruction import GroundTruthTable, train_teacher
from .train import (
    DivergenceError,
    TrainConfig,
    TrainHistory,
    final_state,
    load_training_checkpoint,
    save_training_checkpoint,
    train_joint,
    train_pretrain_finetune,
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
        p.add_argument("--threads", type=int, default=None, help="cap worker threads")
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
    if args.threads is not None:
        config = config.with_overrides([("threads", str(args.threads))])
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
    graph = load_graph_cache(_require(out / "graph", "graph cache (run prepare first)"))
    split = read_split_manifest(_require(out / "split.txt", "split manifest (run prepare first)"))
    return graph, split


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
    graph = generate_synthetic(spec)
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
    table = train_teacher(split, graph, config)
    save_checkpoint(
        out / "teacher.ckpt",
        dict(table.named_tensors()),
        config.to_text() + f"provenance={table.provenance}\n",
    )
    print(f"teacher table: {len(table.vectors)} nodes -> {out / 'teacher.ckpt'}")
    return 0


def _load_teacher(out: Path, config: TrainConfig) -> GroundTruthTable:
    path = _require(out / "teacher.ckpt", "teacher table (run train-teacher first)")
    try:
        tensors, echo = load_checkpoint(path)
    except CheckpointError as err:
        raise CliError(2, str(err)) from err
    provenance = "unknown"
    for line in echo.splitlines():
        if line.startswith("provenance="):
            provenance = line.split("=", 1)[1]
    table = GroundTruthTable.from_named_tensors(tensors, provenance)
    if table.d != config.d:
        raise CliError(2, f"teacher table has d={table.d}, config wants d={config.d}")
    return table


def cmd_train(config: TrainConfig, out: Path) -> int:
    graph, split = _load_workspace(out)
    gt = _load_teacher(out, config) if config.lam1 > 0 else None

    def eval_fn(params, enh):
        state = final_state(params, enh, graph, split)
        m = evaluate(state.arrays(), split, k=config.eval_k)
        return m.recall_at_k, m.ndcg_at_k

    trainer = train_pretrain_finetune if config.paradigm == "pretrain_finetune" else train_joint
    params, enh, history = trainer(
        config, split, graph, gt, out_dir=out, eval_fn=eval_fn if config.eval_every else None
    )
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
    state = final_state(params, enh, graph, split)
    metrics = evaluate(state.arrays(), split, k=config.eval_k)
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
    meta_path = _require(Path(run_dir) / "run_meta.txt", "run metadata")
    meta = {}
    for line in meta_path.read_text(encoding="utf-8").splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            meta[key] = value
    history_file = Path(run_dir) / meta.get("history_file", "history.csv")
    _require(history_file, "history CSV")
    history = TrainHistory.from_csv(
        history_file.read_text(encoding="utf-8"), label=meta.get("label", "")
    )
    masked = [int(x) for x in meta.get("masked_edges", "").split(",") if x]
    return history, masked, int(meta.get("total_edges", "0"))


def cmd_report(config: TrainConfig, out: Path) -> int:
    if not config.report_base_dir or not config.report_ssl_dir:
        raise CliError(2, "report needs report_base_dir=... and report_ssl_dir=...")
    base_history, _, base_edges = _read_run(Path(config.report_base_dir))
    ssl_history, masked, ssl_edges = _read_run(Path(config.report_ssl_dir))

    class _GraphProxy:
        def __init__(self, n):
            self._n = n

        def num_edges(self, rel=None):
            return self._n

    report = complexity_report(
        ssl_history, base_history, _GraphProxy(ssl_edges or base_edges), masked or None
    )
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
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # internal failure
        log.exception("internal error")
        print(f"internal error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
