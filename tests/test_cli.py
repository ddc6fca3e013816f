import numpy as np
import pytest

from coldgraph import cli
from coldgraph.checkpoint import load_checkpoint

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
