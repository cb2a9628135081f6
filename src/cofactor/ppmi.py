"""Item-item positive pointwise mutual information from co-click counts.

The clicks are the users × items CsrMatrix X whose stored entries are the
clicks; being canonical, a row names each item once, so counting reads X as
given. Two items co-occur when the same user clicked both. The pair universe
size counts one unordered pair per user per item pair in that user's click
list, i.e. sum over users of c_u choose 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .sparse import CsrMatrix, from_coo


@dataclass
class CoCounts:
    """Click counts: per-item user counts and per-pair co-click counts (i<j)."""

    n_items: int
    item_counts: np.ndarray         # int64, #(i) = distinct users who clicked i
    pair_counts: CsrMatrix          # int64, strictly upper triangular, #(i,j)
    total_pairs: int                # sum_u c_u * (c_u - 1) / 2


@dataclass
class PpmiMatrix:
    """Sparse symmetric matrix of strictly positive PMI values, zero diagonal."""

    n_items: int
    matrix: CsrMatrix               # float64, symmetric, both triangles stored


def cooccurrence_counts(clicks: CsrMatrix) -> CoCounts:
    """Count distinct-user clicks per item and co-clicks per item pair of the
    click matrix; only where entries are stored matters, not their values."""
    m = clicks.shape[1]
    item_counts = np.bincount(clicks.indices, minlength=m)
    per_user = np.diff(clicks.indptr).astype(np.int64)  # c_u² would overflow int32
    total_pairs = int((per_user * (per_user - 1) // 2).sum())
    co = replace(clicks, data=np.ones(clicks.nnz, dtype=np.int64)).gram()
    pair_counts = co.select(co.row_ids() < co.indices)
    return CoCounts(n_items=m, item_counts=item_counts,
                    pair_counts=pair_counts, total_pairs=total_pairs)


def build_ppmi(counts: CoCounts) -> PpmiMatrix:
    """Clip log(#(i,j)·|pairs| / (#(i)·#(j))) at zero; keep strictly positive entries.

    Pairs that never co-occur, and pairs whose PMI is zero or negative, are
    simply absent (stored zeros would break the strict-positivity contract).
    """
    if counts.total_pairs <= 0:
        raise ValidationError("no co-click signal: no user clicked two or more items")
    pairs = counts.pair_counts
    rows, cols = pairs.row_ids(), pairs.indices
    # single-ratio log keeps PMI exactly 0.0 when #(i,j)·|D| == #(i)·#(j)
    numer = pairs.data.astype(np.float64) * float(counts.total_pairs)
    denom = (counts.item_counts[rows].astype(np.float64)
             * counts.item_counts[cols].astype(np.float64))
    pmi = np.log(numer / denom)
    keep = pmi > 0
    row, col, val = rows[keep], cols[keep], pmi[keep]
    matrix = from_coo((counts.n_items, counts.n_items), np.concatenate([row, col]),
                      np.concatenate([col, row]), np.concatenate([val, val]))
    return PpmiMatrix(n_items=counts.n_items, matrix=matrix)
