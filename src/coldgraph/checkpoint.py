"""Versioned binary checkpoint container.

Layout: a magic line, a count of named float64 tensors (name, shape,
row-major data, little-endian), a config echo block, and a trailing sha256
over everything before it.  Loading verifies both the version line and the
digest, so truncation or corruption surfaces as a checksum error; a payload
that does not parse whole under a valid digest is a malformed payload.

Tensors are stored as float64 whatever their dtype; float64 holds every
float32 value exactly, so the float32 model and enhancer parameters round
trip bit for bit.  :func:`load_checkpoint` returns float64 arrays, and
``train.load_training_checkpoint`` casts each into the dtype of the
parameter it fills, so a checkpoint of float64 parameters loads rounded.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path
from typing import Mapping

import numpy as np

MAGIC = b"coldgraph-ckpt v1\n"


def save_checkpoint(
    path: Path, tensors: Mapping[str, np.ndarray], config_echo: str = ""
) -> None:
    chunks = [MAGIC, struct.pack("<I", len(tensors))]
    for name in sorted(tensors):
        data = np.ascontiguousarray(tensors[name], dtype=np.float64)
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.astype("<f8").tobytes())
    cfg = config_echo.encode("utf-8")
    chunks.append(struct.pack("<I", len(cfg)))
    chunks.append(cfg)
    payload = b"".join(chunks)
    Path(path).write_bytes(payload + hashlib.sha256(payload).digest())


class CheckpointError(Exception):
    pass


def load_checkpoint(path: Path) -> tuple[dict[str, np.ndarray], str]:
    """Read back a container; returns (named tensors, config echo)."""
    blob = Path(path).read_bytes()
    if not blob.startswith(MAGIC):
        head = blob.split(b"\n", 1)[0][:40]
        raise CheckpointError(f"{path}: version mismatch (header {head!r})")
    if len(blob) < len(MAGIC) + 32:
        raise CheckpointError(f"{path}: checksum failure (truncated file)")
    payload, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError(f"{path}: checksum failure")

    off = len(MAGIC)

    def take(fmt: str):
        nonlocal off
        size = struct.calcsize(fmt)
        vals = struct.unpack_from(fmt, payload, off)
        off += size
        return vals

    try:
        (count,) = take("<I")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = take("<H")
            name = payload[off : off + name_len].decode("utf-8")
            off += name_len
            (ndim,) = take("<B")
            shape = take(f"<{ndim}I") if ndim else ()
            n = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(payload, dtype="<f8", count=n, offset=off).reshape(shape)
            off += n * 8
            tensors[name] = np.array(data)
        (cfg_len,) = take("<I")
        config_echo = payload[off : off + cfg_len].decode("utf-8")
        off += cfg_len
    except (struct.error, ValueError) as err:  # UnicodeDecodeError is a ValueError
        raise CheckpointError(f"{path}: malformed payload ({err})") from err
    if off != len(payload):
        left = "ends early" if off > len(payload) else f"{len(payload) - off} bytes after the config echo"
        raise CheckpointError(f"{path}: malformed payload ({left})")
    return tensors, config_echo
