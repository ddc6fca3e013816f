"""Tape-based reverse-mode differentiation over float64 tensors.

Tensors are dense 0-d scalars, 1-d vectors or 2-d matrices; shapes are
always explicit and nothing broadcasts except multiplication by a python
float (``scale``).  The one sparse operand is the constant operator of
:func:`spmm` (a :class:`coldgraph.sparse.SparseOperator`), which is never
differentiated.  The segment ops (``sum_consecutive``, ``softmax`` over
segments, ``segment_attention``) take either one segment length or a list
of (length, count) runs of consecutive equal-length segments, so a ragged
grouping is one tape record however many lengths it holds.  Every
operation records its backward rule onto the innermost active
:class:`Tape` whenever at least one input is differentiable, so a forward
pass run outside of any tape is plain numpy with zero overhead.  The
two-operand products (``matmul``, ``mul``, ``scale_rows``) skip the
gradient of an operand that does not require one.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "finite_diff_check",
    "gather_rows",
    "stack_rows",
    "mean_rows",
    "matmul",
    "spmm",
    "add",
    "sub",
    "mul",
    "scale",
    "scale_rows",
    "negate",
    "concat",
    "transpose",
    "row_sums",
    "reshape",
    "sum_consecutive",
    "sum_all",
    "softmax",
    "segment_attention",
    "attention_fusion",
    "sigmoid",
    "relu",
    "log",
    "log_sigmoid",
    "cosine_similarity",
    "sum_squares",
]


class Tensor:
    """A dense float64 value, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim > 2:
            raise ValueError(f"tensors are at most 2-d, got shape {self.data.shape}")
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.ndim != 0:
            raise ValueError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def const(data) -> Tensor:
    """Wrap an array as a non-differentiable tensor."""
    return Tensor(data, requires_grad=False)


_STATE = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    return stack


def _active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of operations for one reverse-mode sweep.

    Records accumulate in creation order; :meth:`backward` walks them once in
    reverse and may not be called again until :meth:`reset`.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise RuntimeError("tape context exited out of order")
        stack.pop()

    def __len__(self) -> int:
        return len(self._records)

    def reset(self) -> None:
        self._records.clear()
        self._consumed = False

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], vjp: Callable) -> None:
        self._records.append((out, inputs, vjp))

    def backward(
        self, loss: Tensor, params: Sequence[Tensor] | None = None
    ) -> dict[Tensor, np.ndarray]:
        """Accumulate d(loss)/d(leaf) for every differentiable leaf.

        A leaf is a requires_grad tensor that is not the output of a recorded
        operation.  When ``params`` is given the returned map covers exactly
        those tensors, with zeros for any that the loss never touched.
        """
        if self._consumed:
            raise RuntimeError("tape consumed: call reset() before reusing it")
        if loss.data.ndim != 0:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
        self._consumed = True

        grads: dict[int, np.ndarray] = {id(loss): np.ones(())}
        produced = {id(out) for out, _, _ in self._records}
        leaves: dict[int, Tensor] = {}
        for out, inputs, vjp in reversed(self._records):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for t, gt in zip(inputs, vjp(g)):
                if gt is None or not t.requires_grad:
                    continue
                acc = grads.get(id(t))
                grads[id(t)] = gt if acc is None else acc + gt
                if id(t) not in produced:
                    leaves[id(t)] = t

        if params is not None:
            return {
                p: np.array(grads.get(id(p), np.zeros(p.shape))) for p in params
            }
        return {t: np.array(grads[key]) for key, t in leaves.items()}


def backward(loss: Tensor, params: Sequence[Tensor] | None = None):
    """Run :meth:`Tape.backward` on the innermost active tape."""
    tape = _active_tape()
    if tape is None:
        raise RuntimeError("backward called with no active tape")
    return tape.backward(loss, params)


def _emit(out_data: np.ndarray, inputs: Sequence[Tensor], vjp: Callable) -> Tensor:
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        tape._record(out, tuple(inputs), vjp)
    return out


def _check_2d(t: Tensor, op: str) -> None:
    if t.ndim != 2:
        raise ValueError(f"{op} needs a matrix, got shape {t.shape}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def gather_rows(table: Tensor, indices: Sequence[int]) -> Tensor:
    """Select rows ``indices`` from a matrix; gradient scatter-adds back.

    Indices may repeat; the backward pass then sums each row's gradients
    in index order over one stable sort.
    """
    _check_2d(table, "gather_rows")
    idx = np.asarray(indices, dtype=np.intp)
    n = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"gather index out of range for table with {n} rows")

    def vjp(g):
        gt = np.zeros(table.shape)
        if idx.size > 1 and np.bincount(idx).max() > 1:
            order = np.argsort(idx, kind="stable")
            sorted_idx = idx[order]
            starts = np.flatnonzero(np.r_[True, sorted_idx[1:] != sorted_idx[:-1]])
            gt[sorted_idx[starts]] = np.add.reduceat(g[order], starts, axis=0)
        else:  # no row repeats: a plain write is the scatter-add
            gt[idx] = g
        return (gt,)

    return _emit(table.data[idx], (table,), vjp)


def stack_rows(vectors: Sequence[Tensor]) -> Tensor:
    """Stack 1-d tensors of equal length into an (m, d) matrix."""
    vecs = list(vectors)
    if not vecs:
        raise ValueError("stack_rows needs at least one vector")
    d = vecs[0].shape
    for v in vecs:
        if v.ndim != 1 or v.shape != d:
            raise ValueError("stack_rows needs 1-d tensors of equal length")

    def vjp(g):
        return tuple(g[i] for i in range(len(vecs)))

    return _emit(np.stack([v.data for v in vecs]), tuple(vecs), vjp)


def mean_rows(x: Tensor) -> Tensor:
    """Mean over the first axis: (m, d) -> (d,) or (m,) -> scalar."""
    if x.ndim == 0:
        raise ValueError("mean_rows needs at least a vector")
    m = x.shape[0]
    if m == 0:
        raise ValueError("mean_rows of an empty tensor")

    def vjp(g):
        if x.ndim == 2:
            return (np.repeat(g[None, :] / m, m, axis=0),)
        return (np.full(m, g / m),)

    return _emit(x.data.mean(axis=0), (x,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with the usual 1-d contractions (vec @ mat, vec @ vec)."""
    if a.ndim == 0 or b.ndim == 0:
        raise ValueError("matmul does not take scalars; use scale")
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def vjp(g):
        if a.ndim == 2 and b.ndim == 2:
            ga, gb = (lambda: g @ b.data.T), (lambda: a.data.T @ g)
        elif a.ndim == 1 and b.ndim == 2:
            ga, gb = (lambda: b.data @ g), (lambda: np.outer(a.data, g))
        elif a.ndim == 2 and b.ndim == 1:
            ga, gb = (lambda: np.outer(g, b.data)), (lambda: a.data.T @ g)
        else:
            ga, gb = (lambda: g * b.data), (lambda: g * a.data)
        return (ga() if a.requires_grad else None, gb() if b.requires_grad else None)

    return _emit(a.data @ b.data, (a, b), vjp)


def spmm(op, h: Tensor) -> Tensor:
    """Product ``op @ h`` of a constant sparse operator and a matrix.

    ``op`` is a :class:`coldgraph.sparse.SparseOperator`; it gets no
    gradient, and the gradient of ``h`` is ``op.T @ g``.  One tape record
    per call, however many degree buckets the operator holds.
    """
    _check_2d(h, "spmm")
    if op.shape[1] != h.shape[0]:
        raise ValueError(f"spmm shape mismatch: {op.shape} @ {h.shape}")
    return _emit(op.dot(h.data), (h,), lambda g: (op.T.dot(g),))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return _emit(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of equally shaped tensors."""
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} vs {b.shape}")

    def vjp(g):
        return (
            g * b.data if a.requires_grad else None,
            g * a.data if b.requires_grad else None,
        )

    return _emit(a.data * b.data, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python float constant."""
    c = float(c)
    return _emit(a.data * c, (a,), lambda g: (g * c,))


def scale_rows(mat: Tensor, weights: Tensor) -> Tensor:
    """Scale row i of an (m, d) matrix by weights[i]."""
    _check_2d(mat, "scale_rows")
    if weights.ndim != 1 or weights.shape[0] != mat.shape[0]:
        raise ValueError(f"scale_rows shape mismatch: {mat.shape} vs {weights.shape}")

    def vjp(g):
        return (
            g * weights.data[:, None] if mat.requires_grad else None,
            (g * mat.data).sum(axis=1) if weights.requires_grad else None,
        )

    return _emit(mat.data * weights.data[:, None], (mat, weights), vjp)


def negate(a: Tensor) -> Tensor:
    return _emit(-a.data, (a,), lambda g: (-g,))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; 0-d inputs join axis 0 as length-1 pieces."""
    parts = list(tensors)
    if not parts:
        raise ValueError("concat of nothing")
    if axis == 0:
        datas = [p.data.reshape(1) if p.ndim == 0 else p.data for p in parts]
    elif axis == 1:
        for p in parts:
            _check_2d(p, "concat(axis=1)")
        datas = [p.data for p in parts]
    else:
        raise ValueError("concat supports axis 0 or 1")
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        outs = []
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            piece = g[lo:hi] if axis == 0 else g[:, lo:hi]
            outs.append(piece.reshape(p.shape))
        return tuple(outs)

    return _emit(np.concatenate(datas, axis=axis), tuple(parts), vjp)


def transpose(a: Tensor) -> Tensor:
    _check_2d(a, "transpose")
    return _emit(a.data.T, (a,), lambda g: (g.T,))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Row-major reshape between 1-d and 2-d layouts."""
    if int(np.prod(shape)) != a.data.size:
        raise ValueError(f"cannot reshape {a.shape} into {shape}")

    def vjp(g):
        return (g.reshape(a.shape),)

    return _emit(a.data.reshape(shape), (a,), vjp)


def _runs(block, rows: int) -> list[tuple[int, int, int]]:
    """(first row, length m, count) of each run of equal-length segments.

    ``block`` is one segment length for all rows, or (m, count) runs of
    ``count`` consecutive m-row segments that cover the rows in order (no
    runs for no rows).
    """
    if isinstance(block, (int, np.integer)):
        if block < 1 or rows == 0 or rows % block:
            raise ValueError(f"cannot split {rows} rows into blocks of {block}")
        return [(0, int(block), rows // int(block))]
    out, start = [], 0
    for m, count in block:
        if m < 1 or count < 1:
            raise ValueError(f"segment run needs positive length and count, got ({m}, {count})")
        out.append((start, int(m), int(count)))
        start += m * count
    if start != rows:
        raise ValueError(f"segment runs cover {start} rows, not the {rows} given")
    return out


def sum_consecutive(
    a: Tensor,
    block,
    targets: np.ndarray | None = None,
    n: int | None = None,
    mean: bool = False,
) -> Tensor:
    """Sum (or with ``mean`` average) each segment of consecutive rows.

    ``block`` is one segment length or a list of (m, count) runs
    (:func:`_runs`).  Segment j becomes row j of the result; with
    ``targets`` it becomes row ``targets[j]`` of an (n, d) result whose other
    rows are zero.
    """
    _check_2d(a, "sum_consecutive")
    rows, cols = a.shape
    runs = _runs(block, rows)
    segments = sum(count for _, _, count in runs)
    if targets is not None:
        targets = np.asarray(targets, dtype=np.intp)
        if targets.shape != (segments,) or n is None or np.any((targets < 0) | (targets >= n)):
            raise ValueError(f"sum_consecutive needs {segments} target rows below n={n}")
    sums = np.empty((segments, cols))
    j = 0
    for start, m, count in runs:
        s = a.data[start : start + m * count].reshape(count, m, cols).sum(axis=1)
        sums[j : j + count] = s * (1.0 / m) if mean else s
        j += count

    def vjp(g):
        if targets is not None:
            g = g[targets]
        ga = np.empty((rows, cols))
        j = 0
        for start, m, count in runs:
            gj = g[j : j + count] * (1.0 / m) if mean else g[j : j + count]
            ga[start : start + m * count] = np.repeat(gj, m, axis=0)
            j += count
        return (ga,)

    if targets is None:
        return _emit(sums, (a,), vjp)
    out = np.zeros((n, cols))
    out[targets] = sums
    return _emit(out, (a,), vjp)


def row_sums(a: Tensor) -> Tensor:
    """Sum each row of a matrix: (m, n) -> (m,)."""
    _check_2d(a, "row_sums")

    def vjp(g):
        return (np.repeat(g[:, None], a.shape[1], axis=1),)

    return _emit(a.data.sum(axis=1), (a,), vjp)


def sum_all(a: Tensor) -> Tensor:
    """Sum of every element, producing a scalar."""
    return _emit(np.asarray(a.data.sum()), (a,), lambda g: (np.full(a.shape, g),))


def softmax(a: Tensor, block=None) -> Tensor:
    """Softmax over the last axis (numerically shifted).

    With ``block`` (one segment length or (m, count) runs, as for
    :func:`sum_consecutive`) a vector is normalized within each segment of
    consecutive entries instead.
    """
    if a.ndim == 0:
        raise ValueError("softmax needs at least a vector")
    if block is None:  # every row is one segment
        runs = [(0, a.shape[-1], a.data.size // max(a.shape[-1], 1))]
    elif a.ndim == 1:
        runs = _runs(block, a.shape[0])
    else:
        raise ValueError(f"segment softmax needs a vector, got shape {a.shape}")
    x = a.data.reshape(-1)
    s = np.empty(x.shape)
    for start, m, count in runs:
        xs = x[start : start + m * count].reshape(count, m)
        e = np.exp(xs - xs.max(axis=-1, keepdims=True))
        s[start : start + m * count] = (e / e.sum(axis=-1, keepdims=True)).reshape(-1)

    def vjp(g):
        g = g.reshape(-1)
        ga = np.empty(g.shape)
        for start, m, count in runs:
            sl = slice(start, start + m * count)
            gs, ss = g[sl].reshape(count, m), s[sl].reshape(count, m)
            ga[sl] = (ss * (gs - (gs * ss).sum(axis=-1, keepdims=True))).reshape(-1)
        return (ga.reshape(a.shape),)

    return _emit(s.reshape(a.shape), (a,), vjp)


def segment_attention(q: Tensor, k: Tensor, v: Tensor, block) -> Tensor:
    """Scaled dot-product self-attention inside consecutive row segments.

    ``q``, ``k`` and ``v`` are (rows, d) matrices cut into segments by
    ``block``: one segment length, or (m, count) runs of ``count``
    consecutive m-row segments.  Output row i of segment S is
    ``softmax(q_i . K_S^T / sqrt(d)) V_S``: every row attends to the rows
    of its own segment only.  Each run is one batched ``np.matmul`` over a
    (count, m, d) view, so the scores take rows*m floats.
    """
    for t in (q, k, v):
        _check_2d(t, "segment_attention")
    if not (q.shape == k.shape == v.shape):
        raise ValueError(f"segment_attention shape mismatch: {q.shape}, {k.shape}, {v.shape}")
    rows, d = q.shape
    runs = _runs(block, rows)
    c = 1.0 / math.sqrt(d)
    views, attns = [], []
    out = np.empty((rows, d))
    for start, m, count in runs:
        q3, k3, v3 = (t.data[start : start + m * count].reshape(count, m, d) for t in (q, k, v))
        scores = np.matmul(q3, k3.transpose(0, 2, 1)) * c
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        out[start : start + m * count] = np.matmul(attn, v3).reshape(-1, d)
        views.append((q3, k3, v3))
        attns.append(attn)

    def vjp(g):
        grads = [np.empty((rows, d)) if t.requires_grad else None for t in (q, k, v)]
        gq, gk, gv = grads
        for (start, m, count), (q3, k3, v3), attn in zip(runs, views, attns):
            sl = slice(start, start + m * count)
            g3 = g[sl].reshape(count, m, d)
            ga = np.matmul(g3, v3.transpose(0, 2, 1))
            gs = attn * (ga - (ga * attn).sum(axis=-1, keepdims=True)) * c
            if gq is not None:
                gq[sl] = np.matmul(gs, k3).reshape(-1, d)
            if gk is not None:
                gk[sl] = np.matmul(gs.transpose(0, 2, 1), q3).reshape(-1, d)
            if gv is not None:
                gv[sl] = np.matmul(attn.transpose(0, 2, 1), g3).reshape(-1, d)
        return tuple(grads)

    return _emit(out, (q, k, v), vjp)


def attention_fusion(
    channels: Sequence[Tensor], weights: Sequence[Tensor], present: np.ndarray, e0: Tensor
) -> Tensor:
    """Row-wise soft-attention fusion of C channel matrices of shape (n, d).

    Row i is ``sum_c a_ic M_c[i]``, where ``a_i`` is the softmax, over the
    channels present in row i (``present``, an (n, C) mask), of the logits
    ``M_c[i] . (W_c @ 1)``: the coordinate sums of ``M_c[i] @ W_c``, at n*d
    flops instead of n*d^2.  A row with no channel keeps its row of ``e0``;
    with a single channel the logits are skipped.
    """
    channels, weights = list(channels), list(weights)
    _check_2d(e0, "attention_fusion")
    n, d = e0.shape
    present = np.asarray(present, dtype=bool)
    if present.shape != (n, len(channels)) or len(weights) != len(channels):
        raise ValueError(
            f"attention_fusion needs an ({n}, {len(channels)}) mask and one weight per channel"
        )
    for m, w in zip(channels, weights):
        if m.shape != (n, d) or w.ndim != 2 or w.shape[0] != d:
            raise ValueError(f"attention_fusion shape mismatch: {m.shape}, {w.shape}, ({n}, {d})")
    none = ~present.any(axis=1)
    if len(channels) > 1:
        u = [w.data.sum(axis=1) for w in weights]
        logits = np.stack([m.data @ uc for m, uc in zip(channels, u)], axis=1)
        z = np.where(present, logits, -np.inf)
        shift = z.max(axis=1, keepdims=True)
        shift[none] = 0.0
        e = np.exp(z - shift)
        total = e.sum(axis=1, keepdims=True)
        total[none] = 1.0
        attn = e / total
    else:
        attn = present.astype(np.float64)
    out = np.zeros((n, d))
    for j, m in enumerate(channels):
        out += attn[:, j : j + 1] * m.data
    out[none] = e0.data[none]

    def vjp(g):
        g_channels = [
            attn[:, j : j + 1] * g if m.requires_grad else None for j, m in enumerate(channels)
        ]
        g_weights = [None] * len(weights)
        if len(channels) > 1:
            ds = np.stack([(g * m.data).sum(axis=1) for m in channels], axis=1)
            gl = attn * (ds - (attn * ds).sum(axis=1, keepdims=True))
            for j, (m, w) in enumerate(zip(channels, weights)):
                if g_channels[j] is not None:
                    g_channels[j] += gl[:, j : j + 1] * u[j]
                if w.requires_grad:
                    g_weights[j] = np.repeat((m.data.T @ gl[:, j])[:, None], w.shape[1], axis=1)
        g_e0 = np.where(none[:, None], g, 0.0) if e0.requires_grad else None
        return (*g_channels, *g_weights, g_e0)

    return _emit(out, (*channels, *weights, e0), vjp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)
    return s


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)

    def vjp(g):
        return (g * s * (1.0 - s),)

    return _emit(s, (a,), vjp)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return _emit(np.where(mask, a.data, 0.0), (a,), vjp)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise ValueError("log of a non-positive value")

    def vjp(g):
        return (g / a.data,)

    return _emit(np.log(a.data), (a,), vjp)


def log_sigmoid(a: Tensor) -> Tensor:
    """``log(sigmoid(a))`` in the softplus form ``-log(1 + exp(-a))``.

    Finite for every finite input, where ``log(sigmoid(a))`` underflows to
    ``log(0)`` once ``a`` is very negative.
    """
    x = a.data

    def vjp(g):
        return (g * _sigmoid(-x),)

    return _emit(-np.logaddexp(0.0, -x), (a,), vjp)


def cosine_similarity(u: Tensor, v: Tensor) -> Tensor:
    """Cosine of the angle between two vectors, as a scalar.

    Two equally shaped matrices give the cosine of each pair of matching
    rows, as a vector.
    """
    if u.shape != v.shape or u.ndim not in (1, 2):
        raise ValueError(f"cosine_similarity needs matching vectors or matrices: {u.shape}, {v.shape}")
    nu = np.linalg.norm(u.data, axis=-1)
    nv = np.linalg.norm(v.data, axis=-1)
    if np.any(nu == 0.0) or np.any(nv == 0.0):
        raise ValueError("degenerate norm: cosine of a zero vector")
    c = (u.data * v.data).sum(axis=-1) / (nu * nv)

    def vjp(g):
        g, c_, nu_, nv_ = (np.expand_dims(x, -1) for x in (g, c, nu, nv))
        gu = g * (v.data / (nu_ * nv_) - c_ * u.data / (nu_ * nu_))
        gv = g * (u.data / (nu_ * nv_) - c_ * v.data / (nv_ * nv_))
        return (gu, gv)

    return _emit(np.asarray(c), (u, v), vjp)


def sum_squares(a: Tensor) -> Tensor:
    return _emit(np.asarray((a.data ** 2).sum()), (a,), lambda g: (2.0 * a.data * g,))


def finite_diff_check(
    f: Callable[[Sequence[Tensor]], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
) -> float:
    """Compare tape gradients of a scalar function against central differences.

    Returns the maximum over all parameter coordinates of
    ``|analytic - numeric| / max(1e-8, |numeric|)``.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps out of range: {eps}")
    params = list(params)
    with Tape() as tape:
        out = f(params)
    if out.data.ndim != 0:
        raise ValueError("finite_diff_check needs a scalar-valued function")
    if not math.isfinite(float(out.data)):
        raise ValueError("non-finite function value")
    analytic = tape.backward(out, params)

    def eval_at() -> float:
        val = float(f(params).data)
        if not math.isfinite(val):
            raise ValueError("non-finite function value")
        return val

    worst = 0.0
    for p in params:
        grad = analytic[p]
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = eval_at()
            flat[i] = keep - eps
            lo = eval_at()
            flat[i] = keep
            numeric = (hi - lo) / (2.0 * eps)
            rel = abs(gflat[i] - numeric) / max(1e-8, abs(numeric))
            worst = max(worst, rel)
    return worst
