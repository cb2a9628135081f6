import os
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).parent))
# child interpreters (the entry-point tests) import the package from src/ too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]))

from cofactor.corpus import RatingDataset
from cofactor.sparse import CsrMatrix, from_coo


def to_scipy(matrix: CsrMatrix) -> sp.csr_matrix:
    """A package matrix as scipy CSR, for assertions through scipy's methods."""
    return sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)


def assert_same_csr(got: CsrMatrix, want: sp.csr_matrix) -> None:
    """Same shape, and indptr, indices and data of the same dtype and bits."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def from_scipy(matrix) -> CsrMatrix:
    """A scipy sparse or dense 2-D array as a package matrix, stored zeros kept."""
    matrix = sp.csr_matrix(matrix)
    matrix.sort_indices()
    return CsrMatrix(matrix.shape, matrix.indptr, matrix.indices, matrix.data)


def make_ratings(triples, n_users=None, n_items=None) -> RatingDataset:
    """RatingDataset from (user, item, value) integer triples."""
    users = np.asarray([t[0] for t in triples], dtype=np.int64)
    items = np.asarray([t[1] for t in triples], dtype=np.int64)
    values = np.asarray([t[2] for t in triples], dtype=np.float64)
    n_users = n_users if n_users is not None else (int(users.max()) + 1 if len(users) else 0)
    n_items = n_items if n_items is not None else (int(items.max()) + 1 if len(items) else 0)
    return RatingDataset(n_users, n_items, users, items, values,
                         tuple(f"u{k}" for k in range(n_users)),
                         tuple(f"i{k}" for k in range(n_items)))


def make_clicks(pairs, n_users=None, n_items=None) -> CsrMatrix:
    """The click matrix with a 1 at each of the distinct (user, item) pairs."""
    users = np.asarray([p[0] for p in pairs], dtype=np.int64)
    items = np.asarray([p[1] for p in pairs], dtype=np.int64)
    n_users = n_users if n_users is not None else (int(users.max()) + 1 if len(users) else 0)
    n_items = n_items if n_items is not None else (int(items.max()) + 1 if len(items) else 0)
    return from_coo((n_users, n_items), users, items, np.ones(len(users), dtype=np.int64))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
