import numpy as np
import pytest

from coldgraph import cli
from coldgraph.checkpoint import load_checkpoint, save_checkpoint
from coldgraph.train import TrainConfig

# the x1 synthetic workspace: half of the groups occasional, low thresholds
SYNTH = [
    "synth_occasional_fraction=0.5",
    "synth_occasional_scale=0.1",
    "c_u=3",
    "c_g=1",
]
PLAIN = ["lam1=0", "enhancer=false", "epochs=3"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("ws")
    args = SYNTH + [f"data_dir={ws / 'data'}"]
    assert cli.main(["synth", "--out", str(ws / "data"), *args]) == 0
    assert cli.main(["prepare", "--out", str(ws), *args]) == 0
    return ws, args


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
    small = ["d=8", "L=2", "K=3", "teacher_epochs=1", "ssl_targets=8", "warmup_targets=8"]
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


def test_history_columns_name_the_eval_cutoff(workspace, tmp_path):
    code, _ = train(workspace, "epochs=1", "eval_k=10", "eval_every=1")
    assert code == 0
    ws, args = workspace
    header, row = (ws / "history.csv").read_text().splitlines()
    assert header.endswith(",recall10,ndcg10")
    assert row.split(",")[-1]  # evaluated at @10
    runs = [f"report_base_dir={ws}", f"report_ssl_dir={ws}"]
    assert cli.main(["report", "--out", str(tmp_path), *args, *runs]) == 0
