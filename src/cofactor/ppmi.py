"""Item-item positive pointwise mutual information from co-click counts.

Two items co-occur when the same user clicked both. The pair universe size
counts one unordered pair per user per item pair in that user's click list,
i.e. sum over users of c_u choose 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import ClickDataset
from .errors import ValidationError


@dataclass
class CoCounts:
    """Click counts: per-item user counts and per-pair co-click counts (i<j)."""

    n_items: int
    item_counts: np.ndarray         # int64, #(i) = distinct users who clicked i
    pair_counts: sp.csr_matrix      # int64, strictly upper triangular, #(i,j)
    total_pairs: int                # sum_u c_u * (c_u - 1) / 2


@dataclass
class PpmiMatrix:
    """Sparse symmetric matrix of strictly positive PMI values, zero diagonal."""

    n_items: int
    matrix: sp.csr_matrix           # float64, symmetric, both triangles stored


def cooccurrence_counts(clicks: ClickDataset) -> CoCounts:
    """Count distinct-user clicks per item and co-clicks per item pair."""
    m = clicks.n_items
    mat = sp.csr_matrix((np.ones(clicks.n_entries, dtype=np.int64),
                         (clicks.users, clicks.items)),
                        shape=(clicks.n_users, m))
    mat.data[:] = 1  # collapse any duplicate pairs
    item_counts = np.asarray(mat.sum(axis=0), dtype=np.int64).ravel()
    per_user = np.diff(mat.indptr)
    total_pairs = int((per_user * (per_user - 1) // 2).sum())
    co = (mat.T @ mat).tocoo()
    upper = co.row < co.col
    pair_counts = sp.csr_matrix(
        (co.data[upper].astype(np.int64), (co.row[upper], co.col[upper])),
        shape=(m, m))
    return CoCounts(n_items=m, item_counts=item_counts,
                    pair_counts=pair_counts, total_pairs=total_pairs)


def build_ppmi(counts: CoCounts) -> PpmiMatrix:
    """Clip log(#(i,j)·|pairs| / (#(i)·#(j))) at zero; keep strictly positive entries.

    Pairs that never co-occur, and pairs whose PMI is zero or negative, are
    simply absent (stored zeros would break the strict-positivity contract).
    """
    if counts.total_pairs <= 0:
        raise ValidationError("no co-click signal: no user clicked two or more items")
    coo = counts.pair_counts.tocoo()
    # single-ratio log keeps PMI exactly 0.0 when #(i,j)·|D| == #(i)·#(j)
    numer = coo.data.astype(np.float64) * float(counts.total_pairs)
    denom = (counts.item_counts[coo.row].astype(np.float64)
             * counts.item_counts[coo.col].astype(np.float64))
    pmi = np.log(numer / denom)
    keep = pmi > 0
    row, col, val = coo.row[keep], coo.col[keep], pmi[keep]
    matrix = sp.csr_matrix(
        (np.concatenate([val, val]),
         (np.concatenate([row, col]), np.concatenate([col, row]))),
        shape=(counts.n_items, counts.n_items))
    return PpmiMatrix(n_items=counts.n_items, matrix=matrix)
