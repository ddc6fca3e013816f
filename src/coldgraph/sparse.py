"""Constant sparse operators for full-graph propagation.

A :class:`SparseOperator` holds an (n_rows, n_cols) matrix by its nonzero
rows, grouped by degree into buckets of power-of-two width.  Each bucket
stores a padded (rows, width) column-index array whose padding points at
one zero row appended to the right operand, plus (rows, 1, width) weights,
so a product is one gather and one batched ``np.matmul`` per bucket: at
most log2(max degree) + 1 numpy calls, and padding below twice the number
of nonzeros.  Everything stays numpy-only.

One cut (:meth:`SparseOperator.cut`) computes some of an operator's rows
over its leading columns from its buckets, without sorting again: a
forest step's leading block of rows, or the full graph's rows that a
loss reads.  A cut's transpose products go through its parent's one
cached transpose, which holds no reference back to its operator.

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
    dense copy.  The transpose is built on first use and cached: the
    operator holds it, and a transpose holds no reference back, so no
    operator sits in a reference cycle that only Python's cyclic collector
    could free.
    :meth:`cut` takes some of the rows over leading columns; a cut names
    its rows' ids in its parent as ``row_ids`` (None in an operator that
    is no cut).
    """

    __slots__ = ("shape", "row_ids", "_parent", "_buckets", "_t", "_cast", "__weakref__")

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
        self._parent: SparseOperator | None = None  # the operator a cut was cut from
        self._t: SparseOperator | None = None  # the cached transpose
        self._cast: dict[np.dtype, list[np.ndarray]] = {}

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
        parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
        for members, idx, weights in self._buckets:
            keep = idx < self.shape[1]
            parts.append((
                np.broadcast_to(members[:, None], idx.shape)[keep],
                idx[keep],
                weights[:, 0, :][keep],
            ))
        return tuple(np.concatenate(p) for p in zip(*parts))

    def _weights(self, dtype: np.dtype) -> list[np.ndarray]:
        """Each bucket's weights in ``dtype``, cast on first use and kept."""
        cast = self._cast.get(dtype)
        if cast is None:
            cast = self._cast[dtype] = [w.astype(dtype, copy=False) for _, _, w in self._buckets]
        return cast

    def dot(self, h: np.ndarray) -> np.ndarray:
        """The product ``self @ h`` for an (n_cols, d) matrix ``h``, in
        ``h``'s dtype."""
        padded = np.concatenate([h, np.zeros((1, h.shape[1]), h.dtype)])
        out = np.zeros((self.shape[0], h.shape[1]), h.dtype)
        for (members, idx, _), weights in zip(self._buckets, self._weights(h.dtype)):
            # the padding, and a cut's columns past its n_cols, read the zero row
            taken = np.take(padded, idx, axis=0, mode="clip")
            out[members] = np.matmul(weights, taken)[:, 0, :]
        return out

    def _leading(self) -> bool:
        """Whether this cut's rows are its parent's leading rows."""
        return not self.row_ids.size or self.row_ids[-1] == self.row_ids.size - 1

    def dot_t(self, g: np.ndarray) -> np.ndarray:
        """The product ``self.T @ g`` for an (n_rows, d) matrix ``g``.

        A cut builds no transpose of its own.  A leading cut multiplies by
        the matching leading cut of its parent's transpose; any other cut
        places ``g``'s rows back among its parent's rows and multiplies by
        the parent's transpose.
        """
        if self._parent is None:
            return self.T.dot(g)
        if self._leading():
            return self._parent.T.cut(np.arange(self.shape[1]), self.shape[0]).dot(g)
        placed = np.zeros((self._parent.shape[0], g.shape[1]), g.dtype)
        placed[self.row_ids] = g
        return self._parent.dot_t(placed)[: self.shape[1]]

    def cut(self, ids, n_cols: int | None = None) -> "SparseOperator":
        """Rows ``ids`` (ascending and distinct) over the leading ``n_cols``
        columns (default all), as a (len(ids), n_cols) operator whose row i
        is row ``ids[i]``; every row over every column is this operator.

        The cut keeps this operator's bucketed arrays: a leading block of
        rows takes a slice of each bucket, any other set of rows a copy of
        the members it keeps.  Entries past ``n_cols`` stay stored, and
        its products read them as zeros.
        """
        ids = np.asarray(ids, dtype=np.intp)
        n_cols = self.shape[1] if n_cols is None else int(n_cols)
        if ids.ndim != 1 or (ids[1:] <= ids[:-1]).any() or not 0 <= n_cols <= self.shape[1] or (
            ids.size and (ids[0] < 0 or ids[-1] >= self.shape[0])
        ):
            raise ValueError(f"cut rows must ascend without repeats and fit shape {self.shape}")
        if ids.size == self.shape[0] and n_cols == self.shape[1]:
            return self
        out = SparseOperator.__new__(SparseOperator)
        out.shape = (ids.size, n_cols)
        out.row_ids, out._parent, out._t, out._cast, out._buckets = ids, self, None, {}, []
        if out._leading():
            for members, idx, weights in self._buckets:
                m = int(members.searchsorted(ids.size))
                if m:
                    out._buckets.append((members[:m], idx[:m], weights[:m]))
            return out
        where = np.full(self.shape[0], -1, dtype=np.intp)
        where[ids] = np.arange(ids.size)
        for members, idx, weights in self._buckets:
            at = where[members]
            keep = at >= 0
            if keep.any():
                out._buckets.append((at[keep], idx[keep], weights[keep]))
        return out

    @property
    def T(self) -> "SparseOperator":
        if self._t is None:
            rows, cols, values = self.entries()
            self._t = SparseOperator(cols, rows, values, self.shape[::-1])
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
