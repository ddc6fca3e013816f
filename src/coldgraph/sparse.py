"""Constant sparse operators for full-graph propagation.

A :class:`SparseOperator` holds an (n_rows, n_cols) matrix by its nonzero
rows, grouped by degree into buckets of power-of-two width.  Each bucket
stores a padded (rows, width) column-index array whose padding points at
one zero row appended to the right operand, plus (rows, 1, width) weights,
so a product is one gather and one batched ``np.matmul`` per bucket: at
most log2(max degree) + 1 numpy calls, and padding below twice the number
of nonzeros.  Everything stays numpy-only.
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
    """

    __slots__ = ("shape", "_buckets", "_t")

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
        self._t: SparseOperator | None = None

        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        deg = np.bincount(rows, minlength=n_rows)
        slot = np.arange(rows.size) - (np.cumsum(deg) - deg)[rows]
        # bucket e holds the rows with 2**(e-1) < degree <= 2**e
        width_exp = np.frexp(np.maximum(deg - 1, 0))[1]
        local = np.empty(n_rows, dtype=np.intp)
        self._buckets: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for e in np.unique(width_exp[deg > 0]):
            members = np.flatnonzero((deg > 0) & (width_exp == e))
            local[members] = np.arange(members.size)
            sel = width_exp[rows] == e
            r, s = local[rows[sel]], slot[sel]
            idx = np.full((members.size, 1 << int(e)), n_cols, dtype=np.intp)
            idx[r, s] = cols[sel]
            weights = np.zeros((members.size, 1, 1 << int(e)))
            weights[r, 0, s] = values[sel]
            self._buckets.append((members, idx, weights))

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for bucket in self._buckets for a in bucket)

    @property
    def row_mask(self) -> np.ndarray:
        """Boolean per row: True where the row has at least one entry."""
        mask = np.zeros(self.shape[0], dtype=bool)
        for members, _, _ in self._buckets:
            mask[members] = True
        return mask

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

    def dot(self, h: np.ndarray) -> np.ndarray:
        """The product ``self @ h`` for an (n_cols, d) matrix ``h``."""
        padded = np.concatenate([h, np.zeros((1, h.shape[1]))])
        out = np.zeros((self.shape[0], h.shape[1]))
        for members, idx, weights in self._buckets:
            out[members] = np.matmul(weights, np.take(padded, idx, axis=0))[:, 0, :]
        return out

    @property
    def T(self) -> "SparseOperator":
        if self._t is None:
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
    """Row-normalized adjacency D^-1 A of the (row, col) edge list.

    Duplicate pairs set one cell, so each row averages its distinct
    neighbors; rows without neighbors stay zero.
    """
    n_rows, n_cols = (int(s) for s in shape)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    _check_range(rows, cols, (n_rows, n_cols))
    rows, cols = np.divmod(np.unique(rows * n_cols + cols), n_cols)  # one key per cell
    deg = np.bincount(rows, minlength=n_rows)
    return SparseOperator(rows, cols, 1.0 / deg[rows], (n_rows, n_cols))
