"""Compressed sparse row matrices: the package's one sparse format.

A CsrMatrix checks its structure when it is built, so inconsistent arrays (a
corrupt cache, say) end in ValidationError, never in an out-of-bounds read
inside a compiled product. Every CsrMatrix is canonical: the columns of each
row are strictly increasing, so no reader sorts or deduplicates one again;
`from_coo`, the one builder from entries, sorts them. Rows are read by
contiguous slice only, as views. Building, slicing, entry filtering and
densifying are numpy. Three products run in scipy's compiled
CSR kernels, called on this matrix's own arrays: the co-click count product
XᵀX (`gram`), sparse × dense (`@`, or `rows_matmul` for a range of rows
into a given output) and sparseᵀ × dense (`transpose_matmul`); in numpy,
with one BLAS thread, the first took 3.7× and sparse × dense 7–17× as long.
Each product gives scipy 1.17's bits: the dense products make the kernel
call scipy's own method makes, and `gram` makes scipy's calls but
sorts its product's rows where scipy transposes them, which gives the same
symmetric matrix. The kernels' extension module is loaded from its
file on the first product, without importing the scipy.sparse package:
that import adds about 0.14 s and 14 MB to a process (2-vCPU Xeon), the
module alone under a millisecond, and a command that runs no product loads
neither.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_INT32_MAX = np.iinfo(np.int32).max

CHUNK_ROWS = 256  # rows per chunk of every row-chunked loop; bounds its scratch memory


def _index_dtype(*sizes: int):
    """int32 when every size (dimension or entry count) fits it, else int64."""
    return np.int32 if max(sizes) <= _INT32_MAX else np.int64


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """Row r holds the columns indices[indptr[r]:indptr[r+1]] with values
    data[indptr[r]:indptr[r+1]]. Every matrix is canonical: the columns of
    each row are strictly increasing, so no (row, column) pair is stored twice.

    Index arrays are stored as int32 when every index and the entry count
    fit, else int64 (scipy's rule, so that the kernels take them uncopied).
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
        # canonical iff every entry but the first of its row has a larger column
        # than the entry before it; the flags take one byte per entry
        increasing = indices[1:] > indices[:-1]
        starts = indptr[1:-1]
        increasing[starts[(starts > 0) & (starts < nnz)] - 1] = True
        if not increasing.all():
            first_bad = int(np.argmin(increasing)) + 1
            row = int(np.searchsorted(indptr, first_bad, side="right")) - 1
            raise ValidationError(f"array 'indices' repeats a column or has columns out of "
                                  f"order in row {row}")
        index_dtype = _index_dtype(n_rows, n_cols, nnz)
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

    def __getitem__(self, rows: slice) -> "CsrMatrix":
        """The matrix of a contiguous slice of rows, as a view: its `indices` and
        `data` are slices of this matrix's. No other key selects rows."""
        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise ValidationError("rows are selected by a contiguous slice only")
        start, stop, _ = rows.indices(self.shape[0])
        stop = max(start, stop)
        lo, hi = self.indptr[start], self.indptr[stop]
        return CsrMatrix((stop - start, self.shape[1]), self.indptr[start:stop + 1] - lo,
                         self.indices[lo:hi], self.data[lo:hi])

    def select(self, keep: np.ndarray) -> "CsrMatrix":
        """The matrix of the stored entries where `keep` (one flag per entry) is true."""
        before = np.zeros(self.nnz + 1, dtype=self.indptr.dtype)  # fits nnz, so every count
        np.cumsum(keep, out=before[1:])
        return CsrMatrix(self.shape, before[self.indptr], self.indices[keep], self.data[keep])

    def __matmul__(self, dense: np.ndarray) -> np.ndarray:
        return self._matvecs(_sparsetools().csr_matvecs, dense, self.shape)

    def rows_matmul(self, start: int, stop: int, dense: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
        """self[start:stop] @ dense, written into `out`, a C-contiguous array of
        shape (stop − start, dense.shape[1]) and the upcast dtype, and returned.
        The kernel reads the rows where they are stored: no slice is built."""
        if not 0 <= start <= stop <= self.shape[0]:
            raise ValidationError(f"rows {start}:{stop} are not rows of a matrix of "
                                  f"{self.shape[0]} rows")
        return self._matvecs(_sparsetools().csr_matvecs, dense, (stop - start, self.shape[1]),
                             self.indptr[start:stop + 1], out)

    def transpose_matmul(self, dense: np.ndarray) -> np.ndarray:
        """selfᵀ @ dense."""
        return self._matvecs(_sparsetools().csc_matvecs, dense, self.shape[::-1])

    def _matvecs(self, kernel, dense, shape: tuple[int, int], indptr=None,
                 out=None) -> np.ndarray:
        """The (shape[0], k) product of this matrix, read as `shape` with row
        pointers `indptr` (its own by default), with the (shape[1], k) array
        `dense`: `kernel` adds each stored value times a row of `dense` into a
        zeroed output of the upcast dtype, `out` when given, as scipy's own
        product does. The kernel reads `dense` and writes `out` unchecked, so
        their shapes are checked here."""
        dense = np.asarray(dense)
        if dense.ndim != 2 or dense.shape[0] != shape[1]:
            raise ValidationError(f"a dense operand of shape {dense.shape} does not fit a "
                                  f"product with a {shape[0]} × {shape[1]} sparse matrix")
        dtype = np.result_type(self.data.dtype, dense.dtype)
        if out is None:
            out = np.zeros((shape[0], dense.shape[1]), dtype=dtype)
        elif out.shape != (shape[0], dense.shape[1]) or out.dtype != dtype \
                or not out.flags.c_contiguous:
            raise ValidationError(f"an output of shape {out.shape} and dtype {out.dtype} does "
                                  f"not hold a {shape[0]} × {dense.shape[1]} {dtype} product")
        else:
            out[...] = 0
        kernel(*shape, dense.shape[1], self.indptr if indptr is None else indptr,
               self.indices, self.data, dense.ravel(), out.ravel())
        return out

    def gram(self) -> "CsrMatrix":
        """selfᵀ @ self, in canonical order: bit for bit scipy's sorted
        (X.T @ X).tocsr(). The kernel's product of the transpose (built by a
        CSR → CSC pass) with this matrix leaves each row's columns unsorted."""
        kernels = _sparsetools()
        n_rows, n_cols = self.shape
        t_indptr = np.empty(n_cols + 1, dtype=self.indptr.dtype)
        t_indices = np.empty(self.nnz, dtype=self.indptr.dtype)
        t_data = np.empty(self.nnz, dtype=self.data.dtype)
        kernels.csr_tocsc(n_rows, n_cols, self.indptr, self.indices, self.data,
                          t_indptr, t_indices, t_data)
        max_nnz = kernels.csr_matmat_maxnnz(n_cols, n_cols, t_indptr, t_indices,
                                            self.indptr, self.indices)
        index_dtype = _index_dtype(n_rows, n_cols, self.nnz, max_nnz)
        t_indptr, t_indices, indptr, indices = (
            a.astype(index_dtype, copy=False)
            for a in (t_indptr, t_indices, self.indptr, self.indices))
        out_indptr = np.empty(n_cols + 1, dtype=index_dtype)
        out_indices = np.empty(max_nnz, dtype=index_dtype)
        out_data = np.empty(max_nnz, dtype=self.data.dtype)
        kernels.csr_matmat(n_cols, n_cols, t_indptr, t_indices, t_data, indptr, indices,
                           self.data, out_indptr, out_indices, out_data)
        kernels.csr_sort_indices(n_cols, out_indptr, out_indices, out_data)
        nnz = out_indptr[-1]    # the unwritten tail of the max_nnz buffers stays unpaged
        return CsrMatrix((n_cols, n_cols), out_indptr, out_indices[:nnz], out_data[:nnz])


# the kernels of scipy/sparse/_sparsetools that the products call
_KERNELS = ("csr_matvecs", "csc_matvecs", "csr_tocsc", "csr_matmat_maxnnz", "csr_matmat",
            "csr_sort_indices")


@functools.cache
def _sparsetools():
    """scipy's compiled sparse kernels: the extension module
    scipy/sparse/_sparsetools, loaded from its file so that neither scipy's
    nor scipy.sparse's __init__ runs. Its name is the one scipy gives it, so
    a later `import scipy.sparse` in the process finds it loaded. ImportError,
    naming the paths searched, when the file or one of _KERNELS is missing."""
    import importlib.machinery
    import importlib.util
    spec = importlib.util.find_spec("scipy")
    roots = (spec.submodule_search_locations or []) if spec is not None else []
    paths = [os.path.join(root, "sparse", "_sparsetools" + suffix)
             for root in roots for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((path for path in paths if os.path.isfile(path)), None)
    if path is None:
        raise ImportError("scipy's sparse kernels are not installed: searched "
                          + (", ".join(paths) or "sys.path for the scipy package"))
    loader = importlib.machinery.ExtensionFileLoader("scipy.sparse._sparsetools", path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    missing = [name for name in _KERNELS if not hasattr(module, name)]
    if missing:
        raise ImportError(f"{path} lacks the sparse kernels {', '.join(missing)}")
    return module


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
