"""Constant sparse operators for full-graph propagation.

A :class:`SparseOperator` holds an (n_rows, n_cols) matrix by its nonzero
rows, grouped by degree into buckets of power-of-two width.  Each bucket
stores a padded (rows, width) column-index array whose padding points at
one zero row appended to the right operand, plus (rows, 1, width) weights,
so a product is one gather and one batched ``np.matmul`` per bucket: at
most log2(max degree) + 1 numpy calls, and padding below twice the number
of nonzeros.  Everything stays numpy-only.

Two cuts compute part of an operator's rows from its buckets, without
sorting again: a leading block (:meth:`SparseOperator.head`, for episode
forests) and a row subset (:meth:`SparseOperator.take_rows`, for the rows
a loss reads).  Both take their transpose products through the whole
operator's one cached transpose.

The weights are stored in float64.  A product follows the dtype of its
right operand: the weights are cast to that dtype once, on its first
product, and kept, so float32 embeddings (the model's) propagate in
float32.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SparseOperator", "neighbor_mean"]


def _check_range(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> None:
    if rows.size and (
        rows.min() < 0 or rows.max() >= shape[0] or cols.min() < 0 or cols.max() >= shape[1]
    ):
        raise IndexError(f"entry out of range for shape {shape}")


class SparseOperator:
    """Immutable sparse matrix with a degree-bucketed product kernel.

    ``shape`` and ``size`` (the dense cell count) describe the matrix,
    ``nbytes`` the arrays actually stored, and ``np.asarray(op)`` gives a
    dense copy.  The transpose is built on first use and cached.
    :meth:`head` cuts a leading block that shares these arrays, and the
    weights cast for its products.  :meth:`take_rows` cuts a subset of the
    rows, whose ids ``row_ids`` names (None in any other operator).
    """

    __slots__ = ("shape", "row_ids", "_buckets", "_t", "_whole", "_from", "_cast", "_parent")

    def __init__(self, rows, cols, values, shape: tuple[int, int]):
        """Build from coordinate triplets; (row, col) pairs must be distinct."""
        n_rows, n_cols = (int(s) for s in shape)
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        values = np.asarray(values, dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise ValueError("rows, cols and values must be 1-d and equally long")
        _check_range(rows, cols, (n_rows, n_cols))
        self.shape = (n_rows, n_cols)
        self.row_ids: np.ndarray | None = None
        self._t: SparseOperator | None = None
        self._whole: SparseOperator | None = None  # the operator a head was cut from
        self._from: list[int] = []  # in a head, the bucket of _whole each bucket is cut from
        self._cast: dict[np.dtype, list[np.ndarray]] = {}
        self._parent: SparseOperator | None = None  # the operator a row subset was cut from

        cell = rows * n_cols + cols  # one sort by (row, col), far faster than lexsort
        order = np.argsort(cell)
        if np.any(cell[order[1:]] == cell[order[:-1]]):
            raise ValueError("duplicate (row, col) entry")
        rows, cols, values = rows[order], cols[order], values[order]
        deg = np.bincount(rows, minlength=n_rows)
        # bucket e holds the rows with 2**(e-1) < degree <= 2**e; the
        # buckets are consecutive row-major blocks of two flat arrays
        width_exp = np.frexp(np.maximum(deg - 1, 0))[1]
        listed = np.flatnonzero(deg)
        listed = listed[np.argsort(width_exp[listed], kind="stable")]
        width = 1 << width_exp[listed].astype(np.intp)
        start = np.zeros(n_rows, dtype=np.intp)
        start[listed] = np.cumsum(width) - width
        cell = start[rows] + np.arange(rows.size) - (np.cumsum(deg) - deg)[rows]
        idx = np.full(int(width.sum()), n_cols, dtype=np.intp)
        idx[cell] = cols
        weights = np.zeros(idx.size)
        weights[cell] = values
        self._buckets: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        firsts = np.flatnonzero(np.diff(width, prepend=0))
        for lo, hi in zip(firsts.tolist(), [*firsts[1:].tolist(), listed.size]):
            w = int(width[lo])
            at = slice(start[listed[lo]], start[listed[lo]] + (hi - lo) * w)
            self._buckets.append(
                (listed[lo:hi], idx[at].reshape(hi - lo, w), weights[at].reshape(hi - lo, 1, w))
            )

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for bucket in self._buckets for a in bucket)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinate triplets (rows, cols, values) of the stored entries."""
        parts = []
        for members, idx, weights in self._buckets:
            keep = idx < self.shape[1]
            parts.append((
                np.broadcast_to(members[:, None], idx.shape)[keep],
                idx[keep],
                weights[:, 0, :][keep],
            ))
        if not parts:
            return np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0)
        return tuple(np.concatenate(p) for p in zip(*parts))

    def _weights(self, dtype: np.dtype) -> list[np.ndarray]:
        """Each bucket's weights in ``dtype``, cast on first use and kept; a
        head's are leading blocks of its operator's."""
        cast = self._cast.get(dtype)
        if cast is None:
            if self._whole is None:
                cast = [weights.astype(dtype, copy=False) for _, _, weights in self._buckets]
            else:
                whole = self._whole._weights(dtype)
                cast = [whole[i][: len(b[0])] for i, b in zip(self._from, self._buckets)]
            self._cast[dtype] = cast
        return cast

    def dot(self, h: np.ndarray) -> np.ndarray:
        """The product ``self @ h`` for an (n_cols, d) matrix ``h``, in
        ``h``'s dtype."""
        padded = np.concatenate([h, np.zeros((1, h.shape[1]), h.dtype)])
        out = np.zeros((self.shape[0], h.shape[1]), h.dtype)
        for (members, idx, _), weights in zip(self._buckets, self._weights(h.dtype)):
            # the padding, and a head's columns past its block, read the zero row
            taken = np.take(padded, idx, axis=0, mode="clip")
            out[members] = np.matmul(weights, taken)[:, 0, :]
        return out

    def dot_t(self, g: np.ndarray) -> np.ndarray:
        """The product ``self.T @ g`` for an (n_rows, d) matrix ``g``.

        A row subset places ``g``'s rows back among its parent's rows and
        multiplies by the parent's transpose, so it builds no transpose of
        its own.
        """
        if self.row_ids is None:
            return self.T.dot(g)
        placed = np.zeros((self._parent.shape[0], g.shape[1]), g.dtype)
        placed[self.row_ids] = g
        return self._parent.dot_t(placed)

    def take_rows(self, ids) -> "SparseOperator":
        """Rows ``ids`` (ascending and distinct) as a (len(ids), n_cols)
        operator whose row i is row ``ids[i]``; all rows is this operator.

        Each bucket keeps the members it shares with ``ids``, so the cut
        costs a pass over the members and a copy of the kept rows.
        """
        ids = np.asarray(ids, dtype=np.intp)
        if ids.ndim != 1 or np.any(np.diff(ids) <= 0) or (
            ids.size and (ids[0] < 0 or ids[-1] >= self.shape[0])
        ):
            raise ValueError(f"rows to take must ascend without repeats below {self.shape[0]}")
        if ids.size == self.shape[0]:
            return self
        where = np.full(self.shape[0], -1, dtype=np.intp)
        where[ids] = np.arange(ids.size)
        out = SparseOperator.__new__(SparseOperator)
        out.shape = (ids.size, self.shape[1])
        out.row_ids, out._parent = ids, self
        out._t, out._whole, out._from, out._cast = None, None, [], {}
        out._buckets = []
        for members, idx, weights in self._buckets:
            at = where[members]
            keep = at >= 0
            if keep.any():
                out._buckets.append((at[keep], idx[keep], weights[keep]))
        return out

    def head(self, n_rows: int, n_cols: int) -> "SparseOperator":
        """The leading (n_rows, n_cols) block, sharing this operator's arrays.

        Its transpose is the matching block of this operator's transpose,
        so cutting many heads builds no operator beyond that one transpose.
        """
        if not (0 <= n_rows <= self.shape[0] and 0 <= n_cols <= self.shape[1]):
            raise ValueError(f"no ({n_rows}, {n_cols}) head in shape {self.shape}")
        out = SparseOperator.__new__(SparseOperator)
        out.shape = (int(n_rows), int(n_cols))
        out.row_ids, out._parent = None, None
        out._t, out._whole, out._cast = None, self, {}
        out._buckets, out._from = [], []
        for i, (members, idx, weights) in enumerate(self._buckets):
            m = int(np.searchsorted(members, n_rows))
            if m:
                out._buckets.append((members[:m], idx[:m], weights[:m]))
                out._from.append(i)
        return out

    @property
    def T(self) -> "SparseOperator":
        if self._t is None:
            if self._whole is not None:
                self._t = self._whole.T.head(self.shape[1], self.shape[0])
            else:
                rows, cols, values = self.entries()
                self._t = SparseOperator(cols, rows, values, self.shape[::-1])
            self._t._t = self
        return self._t

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense = np.zeros(self.shape)
        rows, cols, values = self.entries()
        dense[rows, cols] = values
        return dense if dtype is None else dense.astype(dtype)


def neighbor_mean(rows, cols, shape: tuple[int, int]) -> SparseOperator:
    """Row-normalized adjacency D^-1 A of a list of distinct (row, col) edges.

    Each row averages its neighbors; rows without neighbors stay zero.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    _check_range(rows, cols, shape)
    deg = np.bincount(rows, minlength=shape[0])
    return SparseOperator(rows, cols, 1.0 / deg[rows], shape)
