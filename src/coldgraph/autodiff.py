"""Tape-based reverse-mode differentiation over float64 tensors.

Tensors are dense 0-d scalars, 1-d vectors or 2-d matrices; shapes are
always explicit and nothing broadcasts except multiplication by a python
float (``scale``).  The one sparse operand is the constant operator of
:func:`spmm` (a :class:`coldgraph.sparse.SparseOperator`), which is never
differentiated.  Every operation records its backward rule onto the
innermost active :class:`Tape` whenever at least one input is
differentiable, so a forward pass run outside of any tape is plain numpy
with zero overhead.  The two-operand products (``matmul``, ``mul``,
``scale_rows``) skip the gradient of an operand that does not require one.
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

    Indices may repeat; the backward pass takes the slower ``np.add.at``
    only when they do.
    """
    _check_2d(table, "gather_rows")
    idx = np.asarray(indices, dtype=np.intp)
    n = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"gather index out of range for table with {n} rows")

    def vjp(g):
        gt = np.zeros(table.shape)
        if idx.size > 1 and np.bincount(idx).max() > 1:
            np.add.at(gt, idx, g)
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


def sum_consecutive(a: Tensor, block: int) -> Tensor:
    """Sum each run of ``block`` consecutive rows: (k*block, d) -> (k, d)."""
    _check_2d(a, "sum_consecutive")
    rows, cols = a.shape
    if block < 1 or rows % block:
        raise ValueError(f"cannot sum rows of {a.shape} in blocks of {block}")

    def vjp(g):
        return (np.repeat(g, block, axis=0),)

    return _emit(a.data.reshape(rows // block, block, cols).sum(axis=1), (a,), vjp)


def row_sums(a: Tensor) -> Tensor:
    """Sum each row of a matrix: (m, n) -> (m,)."""
    _check_2d(a, "row_sums")

    def vjp(g):
        return (np.repeat(g[:, None], a.shape[1], axis=1),)

    return _emit(a.data.sum(axis=1), (a,), vjp)


def sum_all(a: Tensor) -> Tensor:
    """Sum of every element, producing a scalar."""
    return _emit(np.asarray(a.data.sum()), (a,), lambda g: (np.full(a.shape, g),))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis (numerically shifted)."""
    if a.ndim == 0:
        raise ValueError("softmax needs at least a vector")
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - inner),)

    return _emit(s, (a,), vjp)


def segment_attention(q: Tensor, k: Tensor, v: Tensor, block: int) -> Tensor:
    """Scaled dot-product self-attention inside consecutive row blocks.

    ``q``, ``k`` and ``v`` are (rows, d) matrices whose rows
    ``[j*block, (j+1)*block)`` form block j.  Output row i of block j is
    ``softmax(q_i . K_j^T / sqrt(d)) V_j``: every row attends to the rows
    of its own block only.  The blocks run as one batched ``np.matmul`` over
    a (rows/block, block, d) view, so the scores take rows*block floats.
    """
    for t in (q, k, v):
        _check_2d(t, "segment_attention")
    if not (q.shape == k.shape == v.shape):
        raise ValueError(f"segment_attention shape mismatch: {q.shape}, {k.shape}, {v.shape}")
    rows, d = q.shape
    if block < 1 or rows == 0 or rows % block:
        raise ValueError(f"cannot split {rows} rows into blocks of {block}")
    n = rows // block
    c = 1.0 / math.sqrt(d)
    q3, k3, v3 = (t.data.reshape(n, block, d) for t in (q, k, v))
    scores = np.matmul(q3, k3.transpose(0, 2, 1)) * c
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        g3 = g.reshape(n, block, d)
        ga = np.matmul(g3, v3.transpose(0, 2, 1))
        gs = attn * (ga - (ga * attn).sum(axis=-1, keepdims=True)) * c
        return (
            np.matmul(gs, k3).reshape(rows, d) if q.requires_grad else None,
            np.matmul(gs.transpose(0, 2, 1), q3).reshape(rows, d) if k.requires_grad else None,
            np.matmul(attn.transpose(0, 2, 1), g3).reshape(rows, d) if v.requires_grad else None,
        )

    return _emit(np.matmul(attn, v3).reshape(rows, d), (q, k, v), vjp)


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
