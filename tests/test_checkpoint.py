import hashlib
import re
import struct

import numpy as np
import pytest

from coldgraph.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from coldgraph.enhancer import init_enhancer_params
from coldgraph.model import init_model_params
from coldgraph.train import TrainConfig, load_training_checkpoint, save_training_checkpoint


@pytest.fixture
def ckpt(tmp_path):
    path = tmp_path / "model.ckpt"
    tensors = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([1.5, -2.0])}
    save_checkpoint(path, tensors, "d=3\n")
    return path, tensors


def test_round_trip(ckpt):
    path, tensors = ckpt
    loaded, echo = load_checkpoint(path)
    assert echo == "d=3\n"
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        np.testing.assert_array_equal(loaded[name], arr)


@pytest.mark.parametrize("keep", [0, 5, len(MAGIC) + 10, -1])
def test_truncated_file(ckpt, keep):
    path, _ = ckpt
    blob = path.read_bytes()
    path.write_bytes(blob[:keep])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("where", ["tensor", "echo", "digest"])
def test_flipped_bit(ckpt, where):
    path, _ = ckpt
    blob = bytearray(path.read_bytes())
    pos = {"tensor": len(MAGIC) + 12, "echo": len(blob) - 34, "digest": len(blob) - 1}[where]
    blob[pos] ^= 0x10
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_wrong_magic_line(ckpt):
    path, _ = ckpt
    blob = path.read_bytes()
    path.write_bytes(b"coldgraph-ckpt v2\n" + blob[len(MAGIC):])
    with pytest.raises(CheckpointError, match="version mismatch"):
        load_checkpoint(path)


# Payloads under a valid digest that do not parse whole, from the fixture's
# payload (tensors "a" (2, 3) and "b" (2,), config echo "d=3\n"), and the
# start of each one's error
_FIRST_DIM = len(MAGIC) + 4 + 2 + 1 + 1  # where tensor "a" declares its rows
MALFORMED = {
    "no tensors": (lambda p: MAGIC + struct.pack("<I", 5), "unpack_from requires a buffer"),
    "short tensor data": (
        lambda p: p[:_FIRST_DIM] + struct.pack("<I", 10**6) + p[_FIRST_DIM + 4 :],
        "buffer is smaller than requested size",
    ),
    "short config echo": (lambda p: p[:-8] + struct.pack("<I", 5) + p[-4:], "ends early)"),
    "name not UTF-8": (
        lambda p: p[: len(MAGIC) + 6] + b"\xff" + p[len(MAGIC) + 7 :],  # the name "a"
        "'utf-8' codec can't decode",
    ),
    "byte after the echo": (lambda p: p + b"\0", "1 bytes after the config echo)"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_digested_payload_that_does_not_parse(ckpt, case):
    path, _ = ckpt
    edit, reason = MALFORMED[case]
    payload = edit(path.read_bytes()[:-32])
    path.write_bytes(payload + hashlib.sha256(payload).digest())
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: malformed payload ({reason}")):
        load_checkpoint(path)


@pytest.mark.parametrize("enhancer", [False, True])
@pytest.mark.parametrize("backbone", ["light", "gcn"])
def test_training_checkpoint_round_trips_every_tensor(tmp_path, backbone, enhancer):
    config = TrainConfig(d=4, L=2, backbone=backbone, enhancer=enhancer)
    rng = np.random.default_rng(1)
    counts = {"user": 5, "item": 7, "group": 3}
    params = init_model_params(counts, config.d, backbone, config.L, with_meta=enhancer, rng=rng)
    enh = init_enhancer_params(config.d, rng) if enhancer else None
    save_training_checkpoint(tmp_path / "model.ckpt", params, enh, config)
    # stored as float64, which holds every float32 value exactly
    assert all(a.dtype == np.float64 for a in load_checkpoint(tmp_path / "model.ckpt")[0].values())
    loaded, loaded_enh, echo = load_training_checkpoint(tmp_path / "model.ckpt", expect=config)
    assert echo == config
    assert (loaded_enh is None) == (enh is None)
    expected = params.named_tensors() + (enh.named_tensors() if enh else [])
    got = loaded.named_tensors() + (loaded_enh.named_tensors() if loaded_enh else [])
    assert [name for name, _ in got] == [name for name, _ in expected]
    for (name, a), (_, b) in zip(expected, got):
        assert a.data.dtype == b.data.dtype == np.float32, name
        assert a.data.tobytes() == b.data.tobytes(), name


def test_float64_checkpoint_loads_into_float32_tensors(tmp_path):
    # a checkpoint written by a float64 model: values float32 cannot hold
    config = TrainConfig(d=4, L=1, enhancer=True)
    rng = np.random.default_rng(3)
    shapes = init_model_params({"user": 5, "item": 7, "group": 3}, 4, "light", 1, with_meta=True, rng=rng)
    names = shapes.named_tensors() + init_enhancer_params(4, rng).named_tensors()
    tensors = {name: rng.normal(size=t.shape) for name, t in names}
    save_checkpoint(tmp_path / "model.ckpt", tensors, config.to_text())
    params, enh, _ = load_training_checkpoint(tmp_path / "model.ckpt", expect=config)
    for name, t in params.named_tensors() + enh.named_tensors():
        assert t.data.dtype == np.float32, name
        np.testing.assert_array_equal(t.data, tensors[name].astype(np.float32), err_msg=name)
