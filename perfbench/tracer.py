"""Span tracer that wraps coldgraph's public names from outside the package.

Each wrapped call records one span (name, start, end, parent) in compact
arrays held in memory; :func:`self_times` turns the span table into
per-name self time (span duration minus the time its child spans cover).
Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(out, args)
            return out

        return traced

    def patch_function(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``module.attr`` in every coldgraph module that imported it."""
        orig = getattr(module, attr)
        traced = self.wrap(name, orig, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "coldgraph" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, orig))

    def patch_method(self, cls, attr: str, name: str, before=None, after=None) -> None:
        orig = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, orig, before, after))
        self._undo.append((cls, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def save(self, path: Path) -> None:
        """Write the span table out (called once, when the run ends)."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the benchmark reports on."""
    from coldgraph import autodiff, checkpoint, enhancer, evaluation, graph, model, reconstruction, train

    for attr in ("generate_synthetic", "build_implicit", "segment", "make_training_graph"):
        tracer.patch_function(graph, attr, f"graph.{attr}")

    def count_masked(ep, _args):
        tracer.counters["graph.masked_edges"] += ep.edge_count()

    tracer.patch_function(graph, "sample_episode", "graph.sample_episode", after=count_masked)

    def dense_adj(_out, args):
        gtens = args[0]
        mats = {id(m): m for m in gtens.norm.values()}.values()
        nbytes = sum(m.nbytes for m in mats)
        if nbytes > tracer.counters["model.dense_adj.bytes"]:
            tracer.counters["model.dense_adj.bytes"] = nbytes
            cells = sum(m.size for m in mats)
            tracer.counters["model.dense_adj.density"] = (
                sum(int(np.count_nonzero(m)) for m in mats) / cells
            )

    tracer.patch_method(model.GraphTensors, "__init__", "model.GraphTensors", after=dense_adj)
    for attr in ("embed_from_episode", "full_embeddings"):
        tracer.patch_function(model, attr, f"model.{attr}")
    for attr in ("episode_metas", "train_enhancer", "full_meta_matrices"):
        tracer.patch_function(enhancer, attr, f"enhancer.{attr}")
    tracer.patch_function(reconstruction, "ssl_loss", "reconstruction.ssl_loss")

    def count_records(args):
        tracer.samples["autodiff.tape_records"].append(len(args[0]))

    tracer.patch_method(autodiff.Tape, "backward", "autodiff.backward", before=count_records)
    for op in autodiff.__all__:
        fn = getattr(autodiff, op)
        if op in ("Tensor", "Tape", "apply", "backward", "finite_diff_check") or not callable(fn):
            continue

        def out_bytes(out, _args, key=f"autodiff.op.{op}.out_bytes"):
            tracer.counters[key] += out.data.nbytes

        tracer.patch_function(autodiff, op, f"autodiff.op.{op}", after=out_bytes)

    tracer.patch_method(train.AdamState, "step", "train.adam_step")
    tracer.patch_function(train, "sample_negative", "train.sample_negative")
    tracer.patch_function(train, "final_state", "evaluation.final_state")

    def count_anchors(metrics, _args):
        tracer.counters["evaluation.anchors"] += metrics.evaluated

    tracer.patch_function(evaluation, "evaluate", "evaluation.evaluate", after=count_anchors)

    def count_bytes(_out, args):
        tracer.counters["checkpoint.bytes"] += Path(args[0]).stat().st_size

    tracer.patch_function(checkpoint, "save_checkpoint", "checkpoint.save", after=count_bytes)
    tracer.patch_function(checkpoint, "load_checkpoint", "checkpoint.load")


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per-name (total self seconds, span count) from a saved span table.

    Raises ValueError when spans are left open, a child is not inside its
    parent, or children cover more than their parent's interval.
    """
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    if np.isnan(end).any():
        raise ValueError("span left open")
    dur = end - start
    child = parent >= 0
    if np.any(start[child] < start[parent[child]]) or np.any(end[child] > end[parent[child]]):
        raise ValueError("span outside its parent")
    covered = np.zeros_like(dur)
    np.add.at(covered, parent[child], dur[child])
    self_s = dur - covered
    if np.any(self_s < -1e-9):
        raise ValueError("child spans overlap")
    out = {}
    names = spans["names"]
    total = np.bincount(spans["name_id"], weights=self_s, minlength=len(names))
    count = np.bincount(spans["name_id"], minlength=len(names))
    for i, name in enumerate(names):
        out[str(name)] = (float(total[i]), int(count[i]))
    return out


def count_outside(spans, name: str, ancestor: str) -> int:
    """Number of ``name`` spans that have no ``ancestor`` span above them."""
    names = list(spans["names"])
    if name not in names:
        return 0
    nid = names.index(name)
    aid = names.index(ancestor) if ancestor in names else -1
    parent, name_id = spans["parent"], spans["name_id"]
    n = 0
    for idx in np.flatnonzero(name_id == nid):
        p = parent[idx]
        while p >= 0 and name_id[p] != aid:
            p = parent[p]
        n += p < 0
    return int(n)
