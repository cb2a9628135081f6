"""Compressed sparse row matrices: the package's one sparse format.

A CsrMatrix checks its structure when it is built, so inconsistent arrays (a
corrupt cache, say) end in ValidationError, never in an out-of-bounds read
inside a compiled product. Every CsrMatrix is canonical: the columns of each
row are strictly increasing, so no reader sorts or deduplicates one again;
`from_coo`, the one builder from entries, sorts them. Building, row selection,
entry filtering and densifying are numpy. Three products run in scipy.sparse
on a zero-copy view: the co-click count product XᵀX (`gram`), sparse × dense
(`@`) and sparseᵀ × dense (`transpose_matmul`); in numpy, with one BLAS
thread, the first took 3.7× and sparse × dense 7–17× as long. scipy is
imported only where that view is made: importing scipy.sparse adds about
0.2 s to a process's start (2-vCPU Xeon), which a command that runs none of
the three never pays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_INT32_MAX = np.iinfo(np.int32).max

CHUNK_ROWS = 256  # rows per chunk of every row-chunked loop; bounds its scratch memory


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """Row r holds the columns indices[indptr[r]:indptr[r+1]] with values
    data[indptr[r]:indptr[r+1]]. Every matrix is canonical: the columns of
    each row are strictly increasing, so no (row, column) pair is stored twice.

    Index arrays are stored as int32 when every index and the entry count
    fit, else int64 (scipy's rule, so that the scipy view shares them).
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        n_rows, n_cols = (int(n) for n in self.shape)
        indptr, indices, data = (np.asarray(a) for a in (self.indptr, self.indices, self.data))
        if n_rows < 0 or n_cols < 0:
            raise ValidationError(f"negative matrix shape {(n_rows, n_cols)}")
        for name, arr in (("indptr", indptr), ("indices", indices)):
            if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
                raise ValidationError(f"array {name!r} must be a 1-D integer array")
        if data.shape != indices.shape:
            raise ValidationError(f"arrays 'data' {data.shape} and 'indices' {indices.shape} "
                                  "differ in shape")
        nnz = len(indices)
        if len(indptr) != n_rows + 1:
            raise ValidationError(f"array 'indptr' has {len(indptr)} entries for {n_rows} rows")
        if indptr[0] != 0 or indptr[-1] != nnz:
            raise ValidationError(f"array 'indptr' must run from 0 to the {nnz} entries of "
                                  f"'indices', not from {indptr[0]} to {indptr[-1]}")
        if (np.diff(indptr) < 0).any():
            raise ValidationError("array 'indptr' decreases")
        if nnz and (indices.min() < 0 or indices.max() >= n_cols):
            raise ValidationError(f"array 'indices' has a column index outside [0, {n_cols})")
        key = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(indptr)) * n_cols + indices
        unordered = np.flatnonzero(np.diff(key) <= 0)  # the key increases iff canonical
        if unordered.size:
            raise ValidationError(f"array 'indices' repeats a column or has columns out of "
                                  f"order in row {key[unordered[0] + 1] // n_cols}")
        index_dtype = np.int32 if max(n_rows, n_cols, nnz) <= _INT32_MAX else np.int64
        object.__setattr__(self, "shape", (n_rows, n_cols))
        object.__setattr__(self, "indptr", indptr.astype(index_dtype, copy=False))
        object.__setattr__(self, "indices", indices.astype(index_dtype, copy=False))
        object.__setattr__(self, "data", data)

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0], dtype=self.indptr.dtype),
                         np.diff(self.indptr))

    def toarray(self, base: np.ndarray | None = None) -> np.ndarray:
        """A dense copy; with `base`, a C-contiguous array of this shape, base + self in place."""
        out = np.zeros(self.shape, dtype=self.data.dtype) if base is None else base
        flat = self.row_ids().astype(np.int64) * self.shape[1] + self.indices
        out.reshape(-1)[flat] += self.data  # canonical: each position occurs once
        return out

    def __getitem__(self, rows) -> "CsrMatrix":
        """The matrix of the given rows, in the given order. A contiguous slice
        of rows is a view: its `indices` and `data` are slices of this matrix's."""
        if isinstance(rows, slice):
            start, stop, step = rows.indices(self.shape[0])
            if step != 1:
                raise ValidationError("a row slice must be contiguous")
            stop = max(start, stop)
            lo, hi = self.indptr[start], self.indptr[stop]
            return CsrMatrix((stop - start, self.shape[1]), self.indptr[start:stop + 1] - lo,
                             self.indices[lo:hi], self.data[lo:hi])
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1:
            raise ValidationError("rows must be a 1-D index array")
        if rows.size and (rows.min() < 0 or rows.max() >= self.shape[0]):
            raise ValidationError(f"a row index is outside [0, {self.shape[0]})")
        starts = self.indptr[rows].astype(np.int64)
        counts = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        take = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        return CsrMatrix((len(rows), self.shape[1]), indptr, self.indices[take],
                         self.data[take])

    def select(self, keep: np.ndarray) -> "CsrMatrix":
        """The matrix of the stored entries where `keep` (one flag per entry) is true."""
        before = np.zeros(self.nnz + 1, dtype=np.int64)
        np.cumsum(keep, out=before[1:])
        return CsrMatrix(self.shape, before[self.indptr], self.indices[keep], self.data[keep])

    def _scipy(self):
        """A scipy.sparse CSR view sharing this matrix's arrays."""
        import scipy.sparse
        return scipy.sparse.csr_matrix((self.data, self.indices, self.indptr),
                                       shape=self.shape, copy=False)

    def __matmul__(self, dense: np.ndarray) -> np.ndarray:
        return self._scipy() @ dense

    def transpose_matmul(self, dense: np.ndarray) -> np.ndarray:
        """selfᵀ @ dense."""
        return self._scipy().T @ dense

    def gram(self) -> "CsrMatrix":
        """selfᵀ @ self, in canonical order."""
        view = self._scipy()
        product = (view.T @ view).tocsr()
        product.sort_indices()
        return CsrMatrix(product.shape, product.indptr, product.indices, product.data)


def from_coo(shape: tuple[int, int], rows, cols, data) -> CsrMatrix:
    """CSR of the entries (rows[k], cols[k], data[k]), sorted into canonical
    order: by row, then by column. A (row, column) pair given twice ends in the
    ValidationError of a row that repeats a column."""
    n_rows, n_cols = shape
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise ValidationError(f"a row index is outside [0, {n_rows})")
    order = np.argsort(rows * n_cols + cols)  # keys must be distinct: any sort agrees
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return CsrMatrix((n_rows, n_cols), indptr, cols[order], np.asarray(data)[order])
