import hashlib
import importlib
import re
import shutil
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from coldgraph import cli, graph, model
from coldgraph.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from coldgraph.enhancer import init_enhancer_params
from coldgraph.model import init_model_params
from coldgraph.train import TrainConfig, _seed_streams

# the x1 synthetic workspace: half of the groups occasional, low thresholds
SYNTH = [
    "synth_occasional_fraction=0.5",
    "synth_occasional_scale=0.1",
    "c_u=3",
    "c_g=1",
]
PLAIN = ["lam1=0", "enhancer=false", "epochs=3"]
# a small model that trains with the reconstruction task
SMALL = ["d=8", "L=2", "K=3", "teacher_epochs=1", "ssl_targets=8", "warmup_targets=8"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("ws")
    args = SYNTH + [f"data_dir={ws / 'data'}"]
    assert cli.main(["synth", "--out", str(ws / "data"), *args]) == 0
    assert cli.main(["prepare", "--out", str(ws), *args]) == 0
    return ws, args


@pytest.fixture
def scratch_workspace(workspace, tmp_path):
    """A copy of the workspace that a test may break."""
    ws, args = workspace
    shutil.copytree(ws, tmp_path / "ws")
    return tmp_path / "ws", args


def train(workspace, *overrides):
    ws, args = workspace
    ckpt = ws / "model.ckpt"
    if ckpt.exists():
        ckpt.unlink()
    return cli.main(["train", "--out", str(ws), *args, *PLAIN, *overrides]), ckpt


def largest_value(ckpt):
    tensors, _ = load_checkpoint(ckpt)
    return max(float(np.abs(v).max()) for v in tensors.values())


class TestDivergence:
    def test_huge_learning_rate_is_not_an_internal_error(self, workspace, capsys):
        # log(sigmoid(x)) used to underflow to log(0) here and exit 1
        code, ckpt = train(workspace, "learning_rate=1e6")
        assert code in (0, 3), capsys.readouterr().err
        assert np.isfinite(largest_value(ckpt))

    def test_divergence_exits_3_with_the_last_good_checkpoint(self, workspace, capsys):
        with np.errstate(all="ignore"):
            code, ckpt = train(workspace, "learning_rate=1e200")
        assert code == 3
        assert "last good checkpoint" in capsys.readouterr().err
        # the first update already overflows, so the last good parameters are
        # the initialization (Xavier, all below 1), not the ~1e200 after it
        assert largest_value(ckpt) < 1.0

    @pytest.mark.parametrize("enhancer", [False, True])
    def test_divergence_exits_3_when_runtime_warnings_are_errors(self, scratch_workspace, capsys, enhancer):
        # no np.errstate: the suite turns RuntimeWarnings into errors, as
        # PYTHONWARNINGS=error::RuntimeWarning does for the CLI, and the
        # overflowing update (in an epoch, or in the enhancer warm-up) must
        # still be a divergence, not an internal error
        extra = []
        if enhancer:
            ws, args = scratch_workspace
            assert cli.main(["train-teacher", "--out", str(ws), *args, *SMALL]) == 0
            extra = [*SMALL, "lam1=1", "enhancer=true"]
        code, ckpt = train(scratch_workspace, *extra, "learning_rate=1e200")
        assert code == 3, capsys.readouterr().err
        tensors, echo = load_checkpoint(ckpt)
        config = TrainConfig.from_text(echo)
        rngs = _seed_streams(config)
        counts = {k: tensors[f"model/e_{k}"].shape[0] for k in ("user", "item", "group")}
        init = init_model_params(counts, config.d, config.backbone, config.L, config.enhancer, rngs["init_model"])
        named = init.named_tensors()
        if enhancer:
            named += init_enhancer_params(config.d, rngs["init_enhancer"]).named_tensors()
        assert sorted(tensors) == sorted(name for name, _ in named)
        for name, t in named:  # the initial parameters, stored as float64
            np.testing.assert_array_equal(tensors[name], t.data)

    @pytest.mark.parametrize("enhancer", [False, True])
    def test_forward_overflow_exits_3_when_runtime_warnings_are_errors(self, workspace, capsys, enhancer):
        # no np.errstate: the first update (about 1e30 in float32) is
        # finite, and the next forward overflows, which must be a divergence
        # under PYTHONWARNINGS=error::RuntimeWarning too, not an internal error
        flag = "enhancer=true" if enhancer else "enhancer=false"
        code, ckpt = train(workspace, "d=8", "epochs=2", flag, "learning_rate=1e30")
        assert code == 3, capsys.readouterr().err
        tensors, _ = load_checkpoint(ckpt)
        assert any(name.startswith("enhancer/") for name in tensors) == enhancer
        assert all(np.isfinite(v).all() for v in tensors.values())

    def test_warmup_divergence_leaves_a_finite_checkpoint(self, scratch_workspace, capsys):
        # the warm-up's second step overflows in the forward; the enhancer
        # goes back to its values from before the warm-up
        ws, args = scratch_workspace
        assert cli.main(["train-teacher", "--out", str(ws), *args, *SMALL]) == 0
        with np.errstate(all="ignore"):
            code, ckpt = train(scratch_workspace, *SMALL, "lam1=1", "enhancer=true", "learning_rate=1e30")
        assert code == 3
        assert "warm-up" in capsys.readouterr().err
        tensors, _ = load_checkpoint(ckpt)
        assert any(name.startswith("enhancer/") for name in tensors)
        assert all(np.isfinite(v).all() for v in tensors.values())
        assert largest_value(ckpt) < 1.0  # no value from after the first update


def test_run_meta_keys(workspace):
    code, _ = train(workspace, "epochs=1")
    assert code == 0
    ws, _ = workspace
    keys = [line.split("=", 1)[0] for line in (ws / "run_meta.txt").read_text().splitlines()]
    assert keys == ["label", "history_file", "total_edges", "masked_edges", "phases"]


def test_evaluate_on_corrupted_checkpoint_exits_2(workspace, capsys):
    code, ckpt = train(workspace, "epochs=1")
    assert code == 0
    ws, args = workspace
    blob = bytearray(ckpt.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    ckpt.write_bytes(bytes(blob))
    assert cli.main(["evaluate", "--out", str(ws), *args, *PLAIN]) == 2
    assert "checksum" in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["no tensors", "trailing byte"])
def test_evaluate_on_a_digested_checkpoint_that_does_not_parse_exits_2(workspace, capsys, edit):
    code, ckpt = train(workspace, "epochs=1")
    assert code == 0
    payload = ckpt.read_bytes()[:-32]
    # five tensors declared and none held, or one byte after the config echo
    payload = payload[: len(MAGIC)] + struct.pack("<I", 5) if edit == "no tensors" else payload + b"\0"
    ckpt.write_bytes(payload + hashlib.sha256(payload).digest())
    ws, args = workspace
    assert cli.main(["evaluate", "--out", str(ws), *args, *PLAIN]) == 2
    assert f"error: {ckpt}: malformed payload" in capsys.readouterr().err


def test_evaluate_on_unknown_config_key_exits_2(workspace, capsys):
    code, ckpt = train(workspace, "epochs=1")
    assert code == 0
    tensors, echo = load_checkpoint(ckpt)
    save_checkpoint(ckpt, tensors, echo + "bogus=1\n")  # a valid digest over a bad echo
    ws, args = workspace
    assert cli.main(["evaluate", "--out", str(ws), *args, *PLAIN]) == 2
    assert "unknown config key 'bogus'" in capsys.readouterr().err


def test_enhancer_pretrain_finetune_is_deterministic(workspace):
    ws, args = workspace
    small = SMALL
    assert cli.main(["train-teacher", "--out", str(ws), *args, *small]) == 0
    blobs = []
    for _ in range(2):
        code, ckpt = train(
            workspace, *small, "lam1=1", "enhancer=true", "paradigm=pretrain_finetune",
            "warmup_epochs=2", "pretrain_epochs=1", "epochs=1", "batch_size=100000",
        )
        assert code == 0
        blobs.append(ckpt.read_bytes())
    assert blobs[0] == blobs[1]
    tensors, _ = load_checkpoint(ckpt)
    assert any(name.startswith("enhancer/") for name in tensors)


def test_evaluate_leaves_no_float64_parameter(workspace, monkeypatch):
    code, _ = train(workspace, "epochs=1", "enhancer=true")
    assert code == 0
    dtypes = []
    final_state = cli.final_state

    def checked(params, enh, *rest):
        dtypes.extend(t.data.dtype for t in params.tensors() + enh.tensors())
        return final_state(params, enh, *rest)

    monkeypatch.setattr(cli, "final_state", checked)
    ws, args = workspace
    assert cli.main(["evaluate", "--out", str(ws), *args, *PLAIN, "enhancer=true"]) == 0
    assert dtypes and set(dtypes) == {np.dtype(np.float32)}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: t.pop("model/conv_1"), "missing tensor model/conv_1"),
        (lambda t: t.update({"model/fusion_GI": np.zeros((8, 3))}), "tensor model/fusion_GI is (8, 3)"),
        (lambda t: t.update({"enhancer/wq": np.zeros((8, 8))}), "unexpected tensor enhancer/wq"),
    ],
    ids=["missing", "misshaped", "unexpected"],
)
def test_evaluate_on_a_checkpoint_with_a_wrong_tensor_exits_2(workspace, capsys, edit, message):
    gcn = ["d=8", "backbone=gcn", "L=2"]
    code, ckpt = train(workspace, "epochs=1", *gcn)
    assert code == 0
    tensors, echo = load_checkpoint(ckpt)
    edit(tensors)
    save_checkpoint(ckpt, tensors, echo)  # a valid digest over a wrong tensor set
    ws, args = workspace
    capsys.readouterr()
    assert cli.main(["evaluate", "--out", str(ws), *args, *PLAIN, *gcn]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("synth", ["synth_users=0"]),
        ("synth", ["synth_intra=2"]),
        ("synth", ["synth_group_max=1"]),
        ("prepare", ["c_u=-1"]),
        ("prepare", ["n_g=-1"]),
        ("train-teacher", ["teacher_epochs=0"]),
        ("train", ["lam1=1", "paradigm=pretrain_finetune", "pretrain_epochs=0"]),
    ],
    ids=lambda value: value[-1] if isinstance(value, list) else value,
)
def test_bad_config_values_exit_2(scratch_workspace, tmp_path, capsys, command, overrides):
    ws, args = scratch_workspace
    if command == "train":  # with a teacher table, so only the value is wrong
        assert cli.main(["train-teacher", "--out", str(ws), *args, *SMALL]) == 0
    out = tmp_path / "synth" if command == "synth" else ws
    capsys.readouterr()
    assert cli.main([command, "--out", str(out), *args, *SMALL, *overrides]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err


@pytest.mark.parametrize(
    "overrides, key",
    [
        (["eval_k=0"], "eval_k"),  # else train runs and only evaluate rejects it
        (["eval_every=1", "eval_k=0"], "eval_k"),  # else an epoch trains first
        (["warmup_epochs=-1"], "warmup_epochs"),  # else it reads as no warm-up
        (["warmup_targets=-1"], "warmup_targets"),
        (["ssl_targets=-1"], "ssl_targets"),
        (["eval_every=-1"], "eval_every"),
        (["checkpoint_every=-1"], "checkpoint_every"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else value,
)
def test_bad_train_values_exit_2_before_any_work(scratch_workspace, capsys, monkeypatch, overrides, key):
    ws, args = scratch_workspace

    def train_model(*_, **__):
        raise AssertionError("trained with a bad config value")

    monkeypatch.setattr(cli, "train_model", train_model)
    capsys.readouterr()
    assert cli.main(["train", "--out", str(ws), *args, *PLAIN, *overrides]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_threads_knob_is_gone(workspace):
    ws, args = workspace
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["train", "--out", str(ws), "--threads", "2", *args])
    assert exit_info.value.code == 2
    assert cli.main(["train", "--out", str(ws), *args, *PLAIN, "threads=2"]) == 2
    # config echoes written before the key was retired still read
    assert TrainConfig.from_text("threads=1\nd=8\n").d == 8


def test_report_counts_the_run_edges(workspace, tmp_path):
    code, _ = train(workspace, "epochs=1")
    assert code == 0
    ws, args = workspace
    runs = [f"report_base_dir={ws}", f"report_ssl_dir={ws}"]
    assert cli.main(["report", "--out", str(tmp_path), *args, *runs]) == 0
    meta = dict(line.split("=", 1) for line in (ws / "run_meta.txt").read_text().splitlines())
    header, row = (tmp_path / "complexity.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["total_edges"] == meta["total_edges"]
    # the edges of the graph the run trained on, without the held-out ones
    split = graph.read_split_manifest(ws / "split.txt")
    trained = graph.make_training_graph(graph.load_graph_cache(ws / "graph"), split)
    assert int(meta["total_edges"]) == trained.num_edges() < graph.load_graph_cache(ws / "graph").num_edges()


def test_history_columns_name_the_eval_cutoff(workspace, tmp_path):
    code, _ = train(workspace, "epochs=1", "eval_k=10", "eval_every=1")
    assert code == 0
    ws, args = workspace
    header, row = (ws / "history.csv").read_text().splitlines()
    assert header.endswith(",recall10,ndcg10")
    assert row.split(",")[-1]  # evaluated at @10
    runs = [f"report_base_dir={ws}", f"report_ssl_dir={ws}"]
    assert cli.main(["report", "--out", str(tmp_path), *args, *runs]) == 0


def test_pretrain_finetune_without_reconstruction_weight_exits_2(workspace, capsys):
    # the pretrain phase trains only the lam1-weighted reconstruction loss
    code, ckpt = train(workspace, "paradigm=pretrain_finetune")
    assert code == 2
    assert "lam1" in capsys.readouterr().err
    assert not ckpt.exists()


def test_split_without_evaluable_anchors_exits_2(tmp_path, capsys):
    # n_g=0 makes every group with an interaction warm: no cold group has a test edge
    args = SYNTH + [f"data_dir={tmp_path / 'data'}", "n_g=0"]
    assert cli.main(["synth", "--out", str(tmp_path / "data"), *args]) == 0
    assert cli.main(["prepare", "--out", str(tmp_path), *args]) == 0
    assert cli.main(["train", "--out", str(tmp_path), *args, *PLAIN]) == 0
    capsys.readouterr()
    assert cli.main(["evaluate", "--out", str(tmp_path), *args, *PLAIN]) == 2
    assert "no evaluable cold anchors" in capsys.readouterr().err
    assert cli.main(["train", "--out", str(tmp_path), *args, *PLAIN, "eval_every=1"]) == 2
    assert "no evaluable cold anchors" in capsys.readouterr().err


def test_teacher_table_that_is_not_one_exits_2(scratch_workspace, capsys):
    code, ckpt = train(scratch_workspace, "epochs=1")
    assert code == 0
    ws, args = scratch_workspace
    shutil.copy(ckpt, ws / "teacher.ckpt")
    capsys.readouterr()
    assert cli.main(["train", "--out", str(ws), *args, *SMALL, "lam1=1", "epochs=1"]) == 2
    err = capsys.readouterr().err
    assert "missing tensor teacher/" in err and "re-run train-teacher" in err


def test_teacher_table_of_another_split_exits_2(scratch_workspace, capsys):
    ws, args = scratch_workspace
    assert cli.main(["train-teacher", "--out", str(ws), *args, *SMALL]) == 0
    lower = ["n_g=3", "n_u=3", "n_i=3"]  # more warm nodes than the teacher knows
    assert cli.main(["prepare", "--out", str(ws), *args, *lower]) == 0
    capsys.readouterr()
    code = cli.main(["train", "--out", str(ws), *args, *SMALL, *lower, "lam1=1", "epochs=1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "lacks the split's warm nodes" in err and "re-run train-teacher" in err


@pytest.mark.parametrize(
    "path, edit, message",
    [
        ("split.txt", lambda text: "garbage\n", "not a 'coldgraph-split v1' manifest"),
        ("split.txt", lambda text: text + "test GI 1\n", "bad record 'test GI 1'"),
        ("split.txt", lambda text: text + "warm user x\n", "bad manifest"),
        ("graph/user_item.tsv", lambda text: "1\tx\t3\n" + text, "could not convert string 'x'"),
        ("graph/user_item.tsv", lambda text: "1\t99999\t3\n" + text, "endpoint 99999 out of range"),
        ("graph/user_item.tsv", lambda text: "1\t2\t3\t4\n", "expected 2 or 3 columns"),
    ],
)
def test_malformed_workspace_exits_2(scratch_workspace, capsys, path, edit, message):
    ws, args = scratch_workspace
    (ws / path).write_text(edit((ws / path).read_text()))
    assert cli.main(["evaluate", "--out", str(ws), *args, *PLAIN]) == 2
    err = capsys.readouterr().err
    assert "malformed workspace" in err and message in err


def test_evaluate_on_a_checkpoint_of_another_workspace_exits_2(workspace, tmp_path, capsys):
    code, ckpt = train(workspace, "epochs=1")
    assert code == 0
    _, args = workspace
    other = args + [f"data_dir={tmp_path / 'data'}", "synth_users=150"]
    assert cli.main(["synth", "--out", str(tmp_path / "data"), *other]) == 0
    assert cli.main(["prepare", "--out", str(tmp_path), *other]) == 0
    shutil.copy(ckpt, tmp_path / "model.ckpt")
    capsys.readouterr()
    assert cli.main(["evaluate", "--out", str(tmp_path), *other, *PLAIN]) == 2
    err = capsys.readouterr().err
    assert "'user': 150" in err and "re-run train" in err and "internal error" not in err


@pytest.mark.parametrize("command", ["train-teacher", "train"])
def test_anchor_with_every_item_exits_2(scratch_workspace, capsys, command):
    ws, args = scratch_workspace
    data = ws / "data"
    args = [*args, f"data_dir={data}"]
    items = sorted({line.split("\t")[1] for name in ("user_item.tsv", "group_item.tsv")
                    for line in (data / name).read_text().splitlines()})
    kept = [line for line in (data / "user_item.tsv").read_text().splitlines()
            if line.split("\t")[0] != "0"]
    every = [f"0\t{item}\t1" for item in items]  # user 0 rates every item
    (data / "user_item.tsv").write_text("\n".join(kept + every) + "\n")
    assert cli.main(["prepare", "--out", str(ws), *args]) == 0
    capsys.readouterr()
    assert cli.main([command, "--out", str(ws), *args, *SMALL, *PLAIN]) == 2
    err = capsys.readouterr().err
    assert "interact with every item" in err and "user:" in err and "internal error" not in err


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("history.csv", lambda text: "garbage\n", "unrecognized history header"),
        ("history.csv", lambda text: text + "1,2\n", "bad history row '1,2'"),
        ("run_meta.txt", lambda text: text.replace("total_edges=", "total_edges=ten#"), "ten#"),
        ("run_meta.txt", lambda text: text + "masked_edges=1,x\n", "'x'"),
    ],
    ids=["history-header", "history-row", "total-edges", "masked-edges"],
)
def test_report_on_malformed_run_files_exits_2(scratch_workspace, tmp_path, capsys, name, edit, message):
    code, _ = train(scratch_workspace, "epochs=1")
    assert code == 0
    ws, args = scratch_workspace
    (ws / name).write_text(edit((ws / name).read_text()))
    runs = [f"report_base_dir={ws}", f"report_ssl_dir={ws}"]
    capsys.readouterr()
    assert cli.main(["report", "--out", str(tmp_path / "report"), *args, *runs]) == 2
    err = capsys.readouterr().err
    assert str(ws / name) in err and message in err and "internal error" not in err


def test_edge_file_that_is_a_directory_exits_2(scratch_workspace, capsys):
    ws, args = scratch_workspace
    data = ws / "data"
    (data / "user_item.tsv").unlink()
    (data / "user_item.tsv").mkdir()
    capsys.readouterr()
    assert cli.main(["prepare", "--out", str(ws), *args, f"data_dir={data}"]) == 2
    err = capsys.readouterr().err
    assert str(data / "user_item.tsv") in err and "internal error" not in err


def test_graph_cache_that_is_a_file_exits_2(scratch_workspace, capsys):
    ws, args = scratch_workspace
    shutil.rmtree(ws / "graph")
    (ws / "graph").write_text("")
    capsys.readouterr()
    assert cli.main(["train", "--out", str(ws), *args, *PLAIN]) == 2
    err = capsys.readouterr().err
    assert str(ws / "graph" / "counts.tsv") in err and "internal error" not in err


def test_empty_warm_sets_exit_2(tmp_path, capsys):
    # with n_g, n_u and n_i above every node's degree no node is warm
    small = ["synth_users=40", "synth_items=30", "synth_groups=20", "n_g=1000", "n_u=1000", "n_i=1000"]
    args = SYNTH + small + [f"data_dir={tmp_path / 'data'}"]
    assert cli.main(["synth", "--out", str(tmp_path / "data"), *args]) == 0
    assert cli.main(["prepare", "--out", str(tmp_path), *args]) == 0
    capsys.readouterr()
    assert cli.main(["train-teacher", "--out", str(tmp_path), *args, *SMALL]) == 2
    err = capsys.readouterr().err
    assert "warm sets are empty" in err and "internal error" not in err


def test_each_stage_builds_the_training_graph_once(scratch_workspace, monkeypatch):
    """train-teacher, train (evaluating every epoch of both phases) and
    evaluate each build the training graph and its GraphTensors once."""
    builds = {"graph": 0, "tensors": 0}
    make, init = graph.make_training_graph, model.GraphTensors.__init__

    def counted_make(*args):
        builds["graph"] += 1
        return make(*args)

    def counted_init(self, *args):
        builds["tensors"] += 1
        init(self, *args)

    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "coldgraph"]:
        if getattr(mod, "make_training_graph", None) is make:
            monkeypatch.setattr(mod, "make_training_graph", counted_make)
    monkeypatch.setattr(model.GraphTensors, "__init__", counted_init)
    ws, args = scratch_workspace
    ssl = [*SMALL, "lam1=1", "enhancer=true", "paradigm=pretrain_finetune", "warmup_epochs=1",
           "pretrain_epochs=2", "epochs=3", "eval_every=1", "batch_size=100000"]
    for command in ("train-teacher", "train", "evaluate"):
        builds.update(graph=0, tensors=0)
        assert cli.main([command, "--out", str(ws), *args, *ssl]) == 0
        assert builds == {"graph": 1, "tensors": 1}, command
    recall = [row.split(",")[-2] for row in (ws / "history-P.csv").read_text().splitlines()[1:]]
    assert len(recall) == 5 and all(recall)  # every epoch was evaluated


def test_console_script_exits_with_the_code_of_main(tmp_path, monkeypatch):
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    module, func = re.search(r'^coldgraph = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    script = getattr(importlib.import_module(module), func)
    assert script is cli.entry
    monkeypatch.setattr(sys, "argv", ["coldgraph", "evaluate", "--out", str(tmp_path / "missing")])
    with pytest.raises(SystemExit) as exit_info:
        script()
    assert exit_info.value.code == 2
