"""Tape-based reverse-mode differentiation over dense float tensors.

Every op follows its inputs' dtype: its output, and the gradients its
backward rule returns, have the dtype of the tensors it was given, so
float32 parameters (the model's) train in float32 end to end and float64
tensors (the tests' oracles) compute in float64.  Python float constants
never change a dtype.

Tensors are dense 0-d scalars, 1-d vectors or 2-d matrices; shapes are
always explicit and nothing broadcasts except multiplication by a python
float (``scale``).  The one sparse operand is the constant operator of
:func:`spmm`, never differentiated and read only through its ``shape``,
``dot`` and ``dot_t``.  The segment ops (``sum_consecutive``, ``softmax``
over segments, ``segment_attention``) take either one segment length or a
list of (length, count) runs of consecutive equal-length segments, so a
ragged grouping is one tape record however many lengths it holds;
``segment_attention`` can also gather its rows from (n, d) tables by
``cols``, keeping only its attention probabilities for backward.  Likewise
:func:`bpr`, the ranking loss, reads its anchor, positive and negative
rows from the two tables by index, keeps only the per-edge margins and
gathers the rows again in backward.  Those two and ``gather_rows`` sum the
gradients of repeated rows with one scatter-add, :func:`_scatter_rows`.
Every operation records its backward rule onto the innermost active
:class:`Tape` whenever at least one input is differentiable, so a forward
pass run outside of any tape is plain numpy with zero overhead.  The
two-operand products (``matmul``, ``mul``, ``scale_rows``) skip the
gradient of an operand that does not require one.

A record holds tensor keys and a rule that closes over only the arrays
(and constant operators) its formula reads, so a tape holds no tensor and
an intermediate lives while a rule reads it or its caller still holds it:
the propagation keeps only the step it computes from, and training drops
its forward outputs before it calls backward.  :meth:`Tape.backward`, run
once per tape, returns the gradients of the tensors it is given; it frees
each record as it runs it, and with it, by reference counting alone, the
per-step sparse operators and their cached transposes, which form no
reference cycle.

:func:`descend` is the one loop of the enhancer warm-up and every training
phase: each step's forward runs on its own tape and returns only its loss,
so all else it built dies with its frame before backward, and
:class:`AdamState` updates.  ``__all__`` lists the ops alone.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
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
    "concat",
    "row_sums",
    "reshape",
    "sum_consecutive",
    "softmax",
    "segment_attention",
    "attention_fusion",
    "relu",
    "bpr",
    "cosine_similarity",
    "sum_squares",
]


class Tensor:
    """A dense float value, optionally tracked for gradients.

    A floating array keeps its dtype; anything else (python numbers,
    integer or boolean arrays) becomes float64.
    """

    __slots__ = ("data", "requires_grad", "key")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        if self.data.ndim > 2:
            raise ValueError(f"tensors are at most 2-d, got shape {self.data.shape}")
        self.requires_grad = bool(requires_grad)
        self.key = next(_KEYS)  # a serial: unlike id(), never reused

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


_KEYS = itertools.count()
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

    Records accumulate in creation order.  Each is (output key, input keys,
    rule), with None for an input that needs no gradient, so the tape holds
    no tensor.  :meth:`backward` walks the records once in reverse, popping
    each as it runs it, so a rule's arrays are freed once no earlier record
    needs them and a finished tape holds nothing; a tape runs backward once.
    """

    def __init__(self):
        self._records: list[tuple[int, tuple[int | None, ...], Callable]] = []
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

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], vjp: Callable) -> None:
        keys = tuple(t.key if t.requires_grad else None for t in inputs)
        self._records.append((out.key, keys, vjp))

    def backward(self, loss: Tensor, params: Sequence[Tensor]) -> dict[Tensor, np.ndarray]:
        """d(loss)/d(p) for every tensor p of ``params``, with zeros for any
        that the loss never touched."""
        if self._consumed:
            raise RuntimeError("tape consumed: a tape runs backward once")
        if loss.data.ndim != 0:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
        self._consumed = True

        # a 0-d float64 seed would upcast every gradient of a float32 loss
        grads: dict[int, np.ndarray] = {loss.key: np.ones((), loss.data.dtype)}
        while self._records:
            out, inputs, vjp = self._records.pop()
            g = grads.pop(out, None)
            if g is None:
                continue
            for key, gt in zip(inputs, vjp(g)):
                if gt is None or key is None:
                    continue
                acc = grads.get(key)
                grads[key] = gt if acc is None else acc + gt
        return {p: np.array(grads.get(p.key, np.zeros_like(p.data))) for p in params}


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

    Indices may repeat; the backward pass (:func:`_scatter_rows`) then adds
    each row's gradients in index order.
    """
    _check_2d(table, "gather_rows")
    idx = np.asarray(indices, dtype=np.intp)
    n = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"gather index out of range for table with {n} rows")

    return _emit(table.data[idx], (table,), lambda g: (_scatter_rows(idx, g, n),))


def _scatter_rows(idx: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """The (n, d) sum of the rows of ``g`` placed at rows ``idx`` (all
    below n): a plain write where no index repeats, else one ``np.add.at``
    over flat element indices, adding each row's gradients in index order."""
    gt = np.zeros((n, g.shape[1]), g.dtype)
    seen = np.zeros(n, dtype=bool)
    seen[idx] = True
    if np.count_nonzero(seen) == idx.size:
        gt[idx] = g
    else:
        d = g.shape[1]
        np.add.at(gt.reshape(-1), (idx[:, None] * d + np.arange(d)).reshape(-1), g.reshape(-1))
    return gt


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
        return tuple(g)

    return _emit(np.stack([v.data for v in vecs]), tuple(vecs), vjp)


def mean_rows(x: Tensor) -> Tensor:
    """Mean over the first axis: (m, d) -> (d,) or (m,) -> scalar."""
    if x.ndim == 0:
        raise ValueError("mean_rows needs at least a vector")
    m = x.shape[0]
    if m == 0:
        raise ValueError("mean_rows of an empty tensor")

    def vjp(g):
        if g.ndim == 1:  # the mean of (m, d) rows
            return (np.repeat(g[None, :] / m, m, axis=0),)
        return (np.full(m, g / m, g.dtype),)

    return _emit(x.data.mean(axis=0), (x,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with the usual 1-d contractions (vec @ mat, vec @ vec)."""
    if a.ndim == 0 or b.ndim == 0:
        raise ValueError("matmul does not take scalars; use scale")
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    # each gradient reads the other operand: keep one only while it is read
    x, y = (a.data if b.requires_grad else None), (b.data if a.requires_grad else None)
    ndims = (a.ndim, b.ndim)

    def vjp(g):
        if ndims == (2, 2):
            ga, gb = (lambda: g @ y.T), (lambda: x.T @ g)
        elif ndims == (1, 2):
            ga, gb = (lambda: y @ g), (lambda: np.outer(x, g))
        elif ndims == (2, 1):
            ga, gb = (lambda: np.outer(g, y)), (lambda: x.T @ g)
        else:
            ga, gb = (lambda: g * y), (lambda: g * x)
        return (None if y is None else ga(), None if x is None else gb())

    return _emit(a.data @ b.data, (a, b), vjp)


def spmm(op, h: Tensor) -> Tensor:
    """Product ``op @ h`` of a constant sparse operator and a matrix.

    ``op`` has a ``shape``, a product ``dot`` and a transpose product
    ``dot_t``, as a :class:`coldgraph.sparse.SparseOperator` does; it gets
    no gradient, and the gradient of ``h`` is ``op.dot_t(g)``.  One tape
    record per call, however many degree buckets the operator holds.
    """
    _check_2d(h, "spmm")
    if op.shape[1] != h.shape[0]:
        raise ValueError(f"spmm shape mismatch: {op.shape} @ {h.shape}")
    return _emit(op.dot(h.data), (h,), lambda g: (op.dot_t(g),))


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
    x, y = (a.data if b.requires_grad else None), (b.data if a.requires_grad else None)

    def vjp(g):
        return (None if y is None else g * y, None if x is None else g * x)

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
    x = mat.data if weights.requires_grad else None
    w = weights.data if mat.requires_grad else None

    def vjp(g):
        return (None if w is None else g * w[:, None], None if x is None else (g * x).sum(axis=1))

    return _emit(mat.data * weights.data[:, None], (mat, weights), vjp)


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
    shapes = [p.shape for p in parts]

    def vjp(g):
        outs = []
        for shape, lo, hi in zip(shapes, offsets[:-1], offsets[1:]):
            piece = g[lo:hi] if axis == 0 else g[:, lo:hi]
            outs.append(piece.reshape(shape))
        return tuple(outs)

    return _emit(np.concatenate(datas, axis=axis), tuple(parts), vjp)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Row-major reshape between 1-d and 2-d layouts."""
    if int(np.prod(shape)) != a.data.size:
        raise ValueError(f"cannot reshape {a.shape} into {shape}")
    shape_in = a.shape

    def vjp(g):
        return (g.reshape(shape_in),)

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
    sums = np.empty((segments, cols), a.data.dtype)
    j = 0
    for start, m, count in runs:
        s = a.data[start : start + m * count].reshape(count, m, cols).sum(axis=1)
        sums[j : j + count] = s * (1.0 / m) if mean else s
        j += count

    def vjp(g):
        if targets is not None:
            g = g[targets]
        ga = np.empty((rows, cols), g.dtype)
        j = 0
        for start, m, count in runs:
            gj = g[j : j + count] * (1.0 / m) if mean else g[j : j + count]
            ga[start : start + m * count] = np.repeat(gj, m, axis=0)
            j += count
        return (ga,)

    if targets is None:
        return _emit(sums, (a,), vjp)
    out = np.zeros((n, cols), sums.dtype)
    out[targets] = sums
    return _emit(out, (a,), vjp)


def row_sums(a: Tensor) -> Tensor:
    """Sum each row of a matrix: (m, n) -> (m,)."""
    _check_2d(a, "row_sums")
    width = a.shape[1]

    def vjp(g):
        return (np.repeat(g[:, None], width, axis=1),)

    return _emit(a.data.sum(axis=1), (a,), vjp)


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
    s = np.empty_like(x)
    for start, m, count in runs:
        xs = x[start : start + m * count].reshape(count, m)
        e = np.exp(xs - xs.max(axis=-1, keepdims=True))
        s[start : start + m * count] = (e / e.sum(axis=-1, keepdims=True)).reshape(-1)
    shape = a.shape

    def vjp(g):
        g = g.reshape(-1)
        ga = np.empty_like(g)
        for start, m, count in runs:
            sl = slice(start, start + m * count)
            gs, ss = g[sl].reshape(count, m), s[sl].reshape(count, m)
            ga[sl] = (ss * (gs - (gs * ss).sum(axis=-1, keepdims=True))).reshape(-1)
        return (ga.reshape(shape),)

    return _emit(s.reshape(shape), (a,), vjp)


def segment_attention(q: Tensor, k: Tensor, v: Tensor, block, cols=None) -> Tensor:
    """Scaled dot-product self-attention inside segments of rows.

    ``q``, ``k`` and ``v`` are (rows, d) matrices cut into consecutive
    segments by ``block``: one segment length, or (m, count) runs of
    ``count`` consecutive m-row segments.  With ``cols`` they are (n, d)
    tables instead, and the segments cut their rows ``cols``.  Output row i
    of segment S is ``softmax(q_i . K_S^T / sqrt(d)) V_S``: every row
    attends to the rows of its own segment only.  Each run is one batched
    ``np.matmul`` over (count, m, d) rows, so the scores take rows*m floats.
    The tape keeps only those probabilities: backward reads (with ``cols``,
    gathers) each run's rows again.  With ``cols``, each run sums the
    gradients of its repeated table rows by :func:`_scatter_rows` over its
    distinct rows, and adds those sums into the table's gradient.
    """
    for t in (q, k, v):
        _check_2d(t, "segment_attention")
    if not (q.shape == k.shape == v.shape):
        raise ValueError(f"segment_attention shape mismatch: {q.shape}, {k.shape}, {v.shape}")
    n, d = q.shape
    if cols is not None:
        cols = np.asarray(cols, dtype=np.intp)
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise IndexError(f"segment_attention cols out of range for tables with {n} rows")
    rows = n if cols is None else cols.size
    runs = _runs(block, rows)
    c = 1.0 / math.sqrt(d)
    tables, needs = [t.data for t in (q, k, v)], [t.requires_grad for t in (q, k, v)]

    def run_rows(start, m, count):
        idx = slice(start, start + m * count) if cols is None else cols[start : start + m * count]
        return idx, [t[idx].reshape(count, m, d) for t in tables]

    attns = []
    out = np.empty((rows, d), q.data.dtype)
    for start, m, count in runs:
        _, (q3, k3, v3) = run_rows(start, m, count)
        scores = np.matmul(q3, k3.transpose(0, 2, 1)) * c
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        out[start : start + m * count] = np.matmul(attn, v3).reshape(-1, d)
        attns.append(attn)

    def vjp(g):
        alloc = np.empty if cols is None else np.zeros
        grads = [alloc((n, d), g.dtype) if need else None for need in needs]
        for (start, m, count), attn in zip(runs, attns):
            idx, (q3, k3, v3) = run_rows(start, m, count)
            g3 = g[start : start + m * count].reshape(count, m, d)
            ga = np.matmul(g3, v3.transpose(0, 2, 1))
            gs = attn * (ga - (ga * attn).sum(axis=-1, keepdims=True)) * c
            dest, at = (idx, None) if cols is None else np.unique(idx, return_inverse=True)
            factors = ((gs, k3), (gs.transpose(0, 2, 1), q3), (attn.transpose(0, 2, 1), g3))
            for grad, (a, b) in zip(grads, factors):
                if grad is None:
                    continue
                part = np.matmul(a, b).reshape(-1, d)
                if cols is None:
                    grad[idx] = part
                else:
                    grad[dest] += _scatter_rows(at, part, dest.size)
        return tuple(grads)

    return _emit(out, (q, k, v), vjp)


def attention_fusion(
    channels: Sequence[Tensor], weights: Sequence[Tensor], present: np.ndarray, e0: Tensor
) -> Tensor:
    """Row-wise soft-attention fusion of C channel matrices of shape (n, d).

    ``channels`` holds the C matrices in row blocks: a (k n, d) block holds
    k consecutive channels, channel after channel (with n = 0 each block is
    one channel), so a stacked pass feeds its channels without splitting
    them.  Row i is ``sum_c a_ic M_c[i]``, where ``a_i`` is the softmax,
    over the channels present in row i (``present``, an (n, C) mask), of
    the logits ``M_c[i] . (W_c @ 1)``: the coordinate sums of
    ``M_c[i] @ W_c``, at n*d flops instead of n*d^2.  A row with no channel
    keeps its row of ``e0``; with a single channel the logits are skipped.
    """
    blocks, weights = list(channels), list(weights)
    _check_2d(e0, "attention_fusion")
    n, d = e0.shape
    counts = []
    for b in blocks:
        k = (b.shape[0] // n if n else 1) if b.ndim == 2 else 0
        if k < 1 or b.shape != (k * n, d):
            raise ValueError(f"attention_fusion needs ({n}, {d}) channels, got a {b.shape} block")
        counts.append(k)
    mats = [b.data[i * n : (i + 1) * n] for b, k in zip(blocks, counts) for i in range(k)]
    present = np.asarray(present, dtype=bool)
    if present.shape != (n, len(mats)) or len(weights) != len(mats):
        raise ValueError(
            f"attention_fusion needs an ({n}, {len(mats)}) mask and one weight per channel"
        )
    if any(w.ndim != 2 or w.shape[0] != d for w in weights):
        raise ValueError(f"attention_fusion needs (d, *) weights for d={d}")
    none = ~present.any(axis=1)
    if len(mats) > 1:
        u = [w.data.sum(axis=1) for w in weights]
        logits = np.stack([m @ uc for m, uc in zip(mats, u)], axis=1)
        z = np.where(present, logits, -np.inf)
        shift = z.max(axis=1, keepdims=True)
        shift[none] = 0.0
        e = np.exp(z - shift)
        total = e.sum(axis=1, keepdims=True)
        total[none] = 1.0
        attn = e / total
    else:
        attn = present.astype(e0.data.dtype)
    out = np.zeros((n, d), e0.data.dtype)
    for j, m in enumerate(mats):
        out += attn[:, j : j + 1] * m
    out[none] = e0.data[none]
    tracked = [b.requires_grad for b, k in zip(blocks, counts) for _ in range(k)]
    bounds = np.cumsum([0] + counts)
    # backward reads the channels only for the logits of two or more, a weight for its width
    mats, e0_needs = (mats if len(mats) > 1 else None), e0.requires_grad
    widths = [w.shape[1] if w.requires_grad else None for w in weights]

    def vjp(g):
        g_mats = [attn[:, j : j + 1] * g if t else None for j, t in enumerate(tracked)]
        g_weights = [None] * len(widths)
        if mats is not None:
            ds = np.stack([(g * m).sum(axis=1) for m in mats], axis=1)
            gl = attn * (ds - (attn * ds).sum(axis=1, keepdims=True))
            for j, (m, width) in enumerate(zip(mats, widths)):
                if g_mats[j] is not None:
                    g_mats[j] += gl[:, j : j + 1] * u[j]
                if width is not None:
                    g_weights[j] = np.repeat((m.T @ gl[:, j])[:, None], width, axis=1)
        g_blocks = [
            None if not tracked[lo] else g_mats[lo] if hi - lo == 1 else np.concatenate(g_mats[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        g_e0 = np.where(none[:, None], g, 0.0) if e0_needs else None
        return (*g_blocks, *g_weights, g_e0)

    return _emit(out, (*blocks, *weights, e0), vjp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)
    return s


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return _emit(np.where(mask, a.data, 0.0), (a,), vjp)


def bpr(anchors: Tensor, items: Tensor, anchor_pos, pos_pos, neg_pos) -> Tensor:
    """The BPR loss ``mean_e softplus(a_e . n_e - a_e . p_e)`` (that is,
    ``-mean log sigmoid`` of each edge's margin) of the edges e whose anchor,
    positive and negative rows are ``anchors[anchor_pos[e]]``,
    ``items[pos_pos[e]]`` and ``items[neg_pos[e]]``.

    The tape keeps only the per-edge margins, the three index arrays and
    the two tables: backward gathers the rows again and scatters as
    ``gather_rows`` does.  The item table is an input twice, so its
    gradient arrives as the negatives' scatter, then the positives'.
    """
    _check_2d(anchors, "bpr")
    _check_2d(items, "bpr")
    if anchors.shape[1] != items.shape[1]:
        raise ValueError(f"bpr shape mismatch: {anchors.shape} vs {items.shape}")
    at_a, at_p, at_n = (np.asarray(p, dtype=np.intp) for p in (anchor_pos, pos_pos, neg_pos))
    if at_a.ndim != 1 or not at_a.size or not at_a.shape == at_p.shape == at_n.shape:
        raise ValueError("bpr needs one anchor, positive and negative row per edge, and an edge")
    for at, table in ((at_a, anchors), (at_p, items), (at_n, items)):
        if at.min() < 0 or at.max() >= table.shape[0]:
            raise IndexError(f"bpr row out of range for a table with {table.shape[0]} rows")
    ta, ti, m = anchors.data, items.data, at_a.size
    a = ta[at_a]
    margin = (a * ti[at_p]).sum(axis=1) - (a * ti[at_n]).sum(axis=1)
    need_a, need_i = anchors.requires_grad, items.requires_grad

    def vjp(g):
        gl = np.full(m, -g / m, g.dtype) * _sigmoid(-margin)
        gp, gn = gl[:, None], (-gl)[:, None]
        g_anchor = g_neg = g_pos = None
        if need_i:
            a = ta[at_a]
            g_neg, g_pos = _scatter_rows(at_n, gn * a, len(ti)), _scatter_rows(at_p, gp * a, len(ti))
            del a
        if need_a:
            ga = gn * ti[at_n]
            ga += gp * ti[at_p]
            g_anchor = _scatter_rows(at_a, ga, len(ta))
        return g_anchor, g_neg, g_pos

    return _emit(np.logaddexp(0.0, -margin).mean(axis=0), (anchors, items, items), vjp)


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` over its norm along the last axis, and that norm (as an axis of
    length 1).  The norm is taken of ``x`` scaled by its largest magnitude,
    so the squares of a tiny row do not underflow: in float32 they would
    once the row's norm falls below about 1e-19."""
    big = np.abs(x).max(axis=-1, keepdims=True)
    if np.any(big == 0.0):
        raise ValueError("degenerate norm: cosine of a zero vector")
    scaled = x / big
    norm = np.sqrt((scaled * scaled).sum(axis=-1, keepdims=True))
    return scaled / norm, big * norm


def cosine_similarity(u: Tensor, v: Tensor) -> Tensor:
    """Cosine of the angle between two vectors, as a scalar.

    Two equally shaped matrices give the cosine of each pair of matching
    rows, as a vector.
    """
    if u.shape != v.shape or u.ndim not in (1, 2):
        raise ValueError(f"cosine_similarity needs matching vectors or matrices: {u.shape}, {v.shape}")
    uh, nu = _unit_rows(u.data)
    vh, nv = _unit_rows(v.data)
    c = (uh * vh).sum(axis=-1)

    def vjp(g):
        g, c_ = np.expand_dims(g, -1), np.expand_dims(c, -1)
        return (g * (vh - c_ * uh) / nu, g * (uh - c_ * vh) / nv)

    return _emit(np.asarray(c), (u, v), vjp)


def sum_squares(a: Tensor) -> Tensor:
    x = a.data
    return _emit(np.asarray((x ** 2).sum()), (a,), lambda g: (2.0 * x * g,))


class DivergenceError(RuntimeError):
    """Raised when the loss or an update turns non-finite, with the tensors
    back at their last good values; :func:`train.train_model` adds the
    partial history and the path of the last good checkpoint, when it saved
    one."""

    history = None
    checkpoint = None


class AdamState:
    """Adaptive-moment gradient descent over a fixed tensor list; each
    tensor's moments have its dtype.  An update that would make a value
    non-finite leaves the tensors as they were: :meth:`step` returns False,
    and overflow in computing it raises no floating-point warning."""

    def __init__(self, tensors: Sequence[Tensor], lr: float, betas=(0.9, 0.999), eps=1e-8):
        self.tensors = list(tensors)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(t.data) for t in self.tensors]
        self.v = [np.zeros_like(t.data) for t in self.tensors]

    def step(self, grads: Mapping[Tensor, np.ndarray]) -> bool:
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        new = []
        with np.errstate(over="ignore", invalid="ignore"):
            for tensor, m, v in zip(self.tensors, self.m, self.v):
                g = grads[tensor]
                m *= self.b1
                m += (1.0 - self.b1) * g
                v *= self.b2
                v += (1.0 - self.b2) * g * g
                new.append(tensor.data - self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps))
        if not all(np.isfinite(x).all() for x in new):
            return False
        for tensor, x in zip(self.tensors, new):
            tensor.data = x
        return True


def descend(
    steps: Iterable[Callable[[], Tensor | None]], adam: AdamState, restore: Sequence[np.ndarray], where: str
) -> list[float]:
    """One Adam step on the loss of each of ``steps`` that returns one; the
    losses' values, in order.

    A huge but finite update may overflow the next forward, so forwards run
    with overflow warnings off and the finite checks catch the result: a
    non-finite loss or update sets ``adam.tensors`` back to ``restore`` and
    raises :class:`DivergenceError` naming ``where``.
    """
    losses: list[float] = []
    try:
        for step in steps:
            with Tape() as tape, np.errstate(over="ignore", invalid="ignore"):
                loss = step()
                if loss is None:
                    continue
                losses.append(loss.item())
                if not math.isfinite(losses[-1]):
                    raise DivergenceError(f"non-finite loss at {where}")
                grads = tape.backward(loss, adam.tensors)
            if not adam.step(grads):
                raise DivergenceError(f"non-finite update at {where}")
            del grads  # read by the step alone, not kept through the next forward
    except DivergenceError:
        for tensor, arr in zip(adam.tensors, restore):
            tensor.data = arr
        raise
    return losses
