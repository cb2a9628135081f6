import importlib.machinery
import importlib.util
import re
from dataclasses import replace

import numpy as np
import pytest

from cofactor import sparse
from cofactor.errors import ValidationError
from cofactor.sparse import CsrMatrix, from_coo

from conftest import assert_same_csr, to_scipy
from oracles import csr_reference, unordered_row_reference


def random_triplets(rng, n_rows, n_cols, density):
    """Distinct (row, col) pairs in shuffled order, with values and some empty rows."""
    dense = (rng.random((n_rows, n_cols)) < density) * rng.standard_normal((n_rows, n_cols))
    dense[rng.random(n_rows) < 0.2] = 0.0
    rows, cols = np.nonzero(dense)
    order = rng.permutation(len(rows))
    return rows[order], cols[order], dense[rows, cols][order], dense


class TestFromCoo:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (40, 90), (90, 40)])
    def test_bit_identical_to_scipy_build(self, rng, shape):
        for density in (0.0, 0.05, 0.5, 1.0):
            rows, cols, data, dense = random_triplets(rng, *shape, density)
            got = from_coo(shape, rows, cols, data)
            assert_same_csr(got, csr_reference(shape, rows, cols, data))
            np.testing.assert_array_equal(got.toarray(), dense)

    def test_row_index_outside_shape_rejected(self):
        with pytest.raises(ValidationError, match="row index"):
            from_coo((2, 2), [0, 2], [0, 1], [1.0, 1.0])
        with pytest.raises(ValidationError, match="column index"):
            from_coo((2, 2), [0, 1], [0, 2], [1.0, 1.0])

    def test_repeated_pair_rejected(self):
        with pytest.raises(ValidationError, match="'indices' repeats a column .* in row 2$"):
            from_coo((3, 4), [2, 0, 2], [1, 3, 1], [1.0, 2.0, 3.0])


def valid_arrays():
    """indptr, indices and data of a 3 × 4 matrix, rows of 2, 0 and 1 entries."""
    return np.array([0, 2, 2, 3]), np.array([0, 3, 1]), np.array([1.0, 2.0, 3.0])


# each fault, with the array its error names
BAD_STRUCTURES = {
    "short_indptr": ("indptr", lambda p, i, d: (p[:-1], i, d)),
    "indptr_not_from_0": ("indptr", lambda p, i, d: (p + 1, i, d)),
    "indptr_not_to_nnz": ("indptr", lambda p, i, d: (np.array([0, 2, 2, 2]), i, d)),
    "indptr_decreases": ("indptr", lambda p, i, d: (np.array([0, 2, 1, 3]), i, d)),
    "negative_column": ("indices", lambda p, i, d: (p, np.array([0, -1, 1]), d)),
    "column_past_width": ("indices", lambda p, i, d: (p, np.array([0, 4, 1]), d)),
    "data_length": ("data", lambda p, i, d: (p, i, d[:2])),
    "float_indices": ("indices", lambda p, i, d: (p, i.astype(np.float64), d)),
    "unsorted_columns": ("indices", lambda p, i, d: (p, np.array([3, 0, 1]), d)),
    "repeated_column": ("indices", lambda p, i, d: (p, np.array([0, 0, 1]), d)),
}


class TestStructureChecked:
    @pytest.mark.parametrize("fault", sorted(BAD_STRUCTURES))
    def test_inconsistent_arrays_rejected(self, fault):
        name, edit = BAD_STRUCTURES[fault]
        with pytest.raises(ValidationError, match=f"'{name}'"):
            CsrMatrix((3, 4), *edit(*valid_arrays()))

    def test_valid_arrays_accepted_with_int32_indices(self):
        matrix = CsrMatrix((3, 4), *valid_arrays())
        assert matrix.nnz == 3
        assert matrix.indptr.dtype == matrix.indices.dtype == np.int32
        np.testing.assert_array_equal(matrix.toarray(), [[1, 0, 0, 2], [0] * 4, [0, 3, 0, 0]])


def random_structure(rng):
    """indptr and columns of a random matrix with empty rows, sorted rows and,
    often, one or two columns edited so that rows repeat one or fall out of
    order."""
    n_rows, n_cols = int(rng.integers(1, 12)), int(rng.integers(1, 9))
    counts = rng.integers(0, n_cols + 1, n_rows) * (rng.random(n_rows) < 0.7)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.concatenate([np.sort(rng.choice(n_cols, c, replace=False)) for c in counts]
                             + [np.zeros(0, dtype=np.int64)]).astype(np.int64)
    for _ in range(int(rng.integers(0, 3)) if indices.size else 0):
        indices[rng.integers(indices.size)] = rng.integers(n_cols)
    return (n_rows, n_cols), indptr, indices


class TestCanonicalCheck:
    """The check against its int64-key oracle: same inputs accepted and
    rejected, and the same row named."""

    @staticmethod
    def checked_row(shape, indptr, indices):
        try:
            CsrMatrix(shape, indptr, indices, np.ones(len(indices)))
        except ValidationError as exc:
            match = re.fullmatch(r"array 'indices' repeats a column or has columns out of "
                                 r"order in row (\d+)", str(exc))
            assert match, str(exc)
            return int(match.group(1))
        return None

    def test_matches_key_oracle_on_random_structures(self, rng):
        outcomes = set()
        for _ in range(2000):
            shape, indptr, indices = random_structure(rng)
            want = unordered_row_reference(shape[1], indptr, indices)
            assert self.checked_row(shape, indptr, indices) == want
            outcomes.add(want is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("indptr, indices, row", [
        ([0, 0, 0], [], None),                      # every row empty
        ([0, 2, 2, 4], [1, 3, 0, 2], None),         # a row starting below the last one's end
        ([0, 1, 1, 3], [3, 0, 1], None),            # the same after an empty row
        ([0, 3, 3], [0, 2, 3], None),               # trailing empty row
        ([0, 1, 1, 3], [0, 2, 2], 2),               # a repeat right after an empty row
        ([0, 2, 2, 2, 4], [0, 1, 3, 1], 3),         # out of order after two empty rows
        ([0, 2, 3], [1, 1, 0], 0),                  # a repeat in the first row
        ([0, 1, 3], [3, 3, 3], 1),                  # the previous row's last column repeated
    ])
    def test_row_boundaries(self, indptr, indices, row):
        shape = (len(indptr) - 1, 4)
        assert unordered_row_reference(4, indptr, indices) == row
        assert self.checked_row(shape, np.array(indptr), np.array(indices, dtype=np.int64)) \
            == row


class TestRowsAndEntries:
    def test_row_slice_equals_the_gather_and_shares_memory(self, rng):
        rows, cols, data, dense = random_triplets(rng, 30, 12, 0.3)
        matrix = from_coo(dense.shape, rows, cols, data)
        reference = csr_reference(dense.shape, rows, cols, data)
        for start, stop in ((0, 30), (4, 17), (29, 30), (5, 5), (20, 99), (-3, None)):
            view = matrix[start:stop]
            gathered = reference[start:stop]    # scipy's CSR row slice
            assert view.shape == gathered.shape
            for name in ("indptr", "indices", "data"):
                got, want = getattr(view, name), getattr(gathered, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            np.testing.assert_array_equal(view.toarray(), dense[start:stop])
        view = matrix[4:17]
        assert np.shares_memory(view.indices, matrix.indices)
        assert np.shares_memory(view.data, matrix.data)

    def test_stepped_row_slice_rejected(self, rng):
        matrix = from_coo((30, 12), *random_triplets(rng, 30, 12, 0.3)[:3])
        with pytest.raises(ValidationError, match="contiguous"):
            matrix[::2]

    @pytest.mark.parametrize("key", [[0, 4], [0, 30], np.arange(3), 4, -1],
                             ids=["list", "list-outside", "array", "int", "negative-int"])
    def test_index_list_or_int_key_rejected(self, rng, key):
        matrix = from_coo((30, 12), *random_triplets(rng, 30, 12, 0.3)[:3])
        with pytest.raises(ValidationError, match="contiguous slice"):
            matrix[key]

    def test_select_keeps_flagged_entries_in_order(self, rng):
        rows, cols, data, dense = random_triplets(rng, 25, 10, 0.4)
        matrix = from_coo(dense.shape, rows, cols, data)
        keep = matrix.data > 0
        got = matrix.select(keep)
        assert_same_csr(got, csr_reference(dense.shape, rows[data > 0], cols[data > 0],
                                           data[data > 0]))

    def test_products_match_dense(self, rng):
        rows, cols, data, dense = random_triplets(rng, 20, 15, 0.3)
        matrix = from_coo(dense.shape, rows, cols, data)
        right = rng.standard_normal((15, 4))
        left = rng.standard_normal((20, 4))
        np.testing.assert_allclose(matrix @ right, dense @ right, atol=1e-12)
        np.testing.assert_allclose(matrix.transpose_matmul(left), dense.T @ left, atol=1e-12)
        gram = matrix.gram()
        np.testing.assert_allclose(gram.toarray(), dense.T @ dense, atol=1e-12)
        assert np.all(np.diff(gram.row_ids() * 15 + gram.indices) > 0)  # canonical


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def oracle_matrices(rng):
    """Random matrices with empty rows, with and without stored entries, of
    float64 and of int64 data."""
    for shape in ((1, 1), (7, 3), (40, 90), (90, 40)):
        for density in (0.0, 0.05, 0.5):
            rows, cols, data, _ = random_triplets(rng, *shape, density)
            matrix = from_coo(shape, rows, cols, data)
            yield matrix
            yield replace(matrix, data=rng.integers(-9, 10, matrix.nnz))


class TestProductsEqualScipyBits:
    """Each product against scipy's own method on the same arrays, bit for bit."""

    def test_sparse_times_dense(self, rng):
        for matrix in oracle_matrices(rng):
            n_rows, n_cols = matrix.shape
            for dense in (rng.standard_normal((n_cols, 5)), rng.standard_normal((n_cols, 1)),
                          rng.standard_normal((4, n_cols)).T):     # a transposed view
                assert_same_array(matrix @ dense, to_scipy(matrix) @ dense)
            for dense in (rng.standard_normal((n_rows, 5)), rng.standard_normal((3, n_rows)).T):
                assert_same_array(matrix.transpose_matmul(dense), to_scipy(matrix).T @ dense)

    def test_rows_of_sparse_times_dense(self, rng):
        # the same kernel on the same rows: the bits of the whole product's rows,
        # written over whatever the output held
        for matrix in oracle_matrices(rng):
            n_rows, n_cols = matrix.shape
            dense = rng.standard_normal((n_cols, 5))
            whole = matrix @ dense
            for start, stop in ((0, n_rows), (n_rows // 3, n_rows), (n_rows // 2, n_rows // 2)):
                out = np.full((stop - start, 5), np.nan)
                assert matrix.rows_matmul(start, stop, dense, out) is out
                assert_same_array(out, whole[start:stop])

    def test_gram(self, rng):
        for matrix in oracle_matrices(rng):
            clicks = replace(matrix, data=np.ones(matrix.nnz, dtype=np.int64))
            for x in (matrix, clicks):
                want = (to_scipy(x).T @ to_scipy(x)).tocsr()
                want.sort_indices()
                assert_same_csr(x.gram(), want)

    def test_gram_of_clicks_with_no_entries(self):
        clicks = CsrMatrix((4, 3), np.zeros(5, dtype=np.int64), np.zeros(0, dtype=np.int64),
                           np.zeros(0, dtype=np.int64))
        want = (to_scipy(clicks).T @ to_scipy(clicks)).tocsr()
        want.sort_indices()
        assert_same_csr(clicks.gram(), want)


class TestDenseOperandChecked:
    """The kernels read the dense operand unchecked: a short one once crashed
    the process. Every misfit ends in ValidationError before the call."""

    @pytest.mark.parametrize("shape", [(14, 3), (16, 3), (15,), (15, 3, 1), ()])
    def test_sparse_times_dense(self, rng, shape):
        matrix = from_coo((20, 15), *random_triplets(rng, 20, 15, 0.3)[:3])
        with pytest.raises(ValidationError, match=re.escape(f"shape {shape} does not fit")):
            matrix @ np.ones(shape)

    @pytest.mark.parametrize("shape", [(19, 3), (21, 3), (20,), (20, 3, 1), ()])
    def test_transpose_times_dense(self, rng, shape):
        matrix = from_coo((20, 15), *random_triplets(rng, 20, 15, 0.3)[:3])
        with pytest.raises(ValidationError, match=re.escape(f"shape {shape} does not fit")):
            matrix.transpose_matmul(np.ones(shape))


class TestRowsProductChecked:
    """The kernel writes the output and reads the row pointers unchecked: an
    output that does not hold the rows, or rows outside the matrix, end in
    ValidationError before the call."""

    @pytest.mark.parametrize("out", [np.zeros((4, 3)), np.zeros((5, 2)), np.zeros((5, 3), np.int64),
                                     np.zeros((3, 5)).T])
    def test_output_that_does_not_hold_the_rows(self, rng, out):
        matrix = from_coo((20, 15), *random_triplets(rng, 20, 15, 0.3)[:3])
        with pytest.raises(ValidationError, match="does not hold"):
            matrix.rows_matmul(2, 7, np.ones((15, 3)), out)

    @pytest.mark.parametrize("start, stop", [(-1, 4), (5, 4), (18, 21)])
    def test_rows_outside_the_matrix(self, rng, start, stop):
        matrix = from_coo((20, 15), *random_triplets(rng, 20, 15, 0.3)[:3])
        with pytest.raises(ValidationError, match="are not rows"):
            matrix.rows_matmul(start, stop, np.ones((15, 3)), np.zeros((max(stop - start, 0), 3)))


class TestKernelLoader:
    """The loader, called uncached: it finds the extension by the interpreter's
    suffixes, checks the kernels it needs, and names what it searched."""

    def test_loads_every_kernel(self):
        module = sparse._sparsetools.__wrapped__()
        assert module.__name__ == "scipy.sparse._sparsetools"
        assert all(callable(getattr(module, name)) for name in sparse._KERNELS)

    def test_missing_file_names_the_paths_searched(self, monkeypatch):
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".absent.so"])
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        path = f"{root}/sparse/_sparsetools.absent.so"
        with pytest.raises(ImportError, match=f"searched {re.escape(path)}$"):
            sparse._sparsetools.__wrapped__()

    def test_missing_package_says_so(self, monkeypatch):
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="searched sys.path for the scipy package"):
            sparse._sparsetools.__wrapped__()

    def test_missing_kernel_names_file_and_kernel(self, monkeypatch):
        monkeypatch.setattr(sparse, "_KERNELS", sparse._KERNELS + ("csr_absent",))
        with pytest.raises(ImportError, match=r"_sparsetools\S* lacks the sparse kernels "
                                              r"csr_absent$"):
            sparse._sparsetools.__wrapped__()
