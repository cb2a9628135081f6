"""Item-item positive pointwise mutual information from co-click counts.

The clicks are the users × items CsrMatrix X whose stored entries are the
clicks; being canonical, a row names each item once, so counting reads X as
given. Two items co-occur when the same user clicked both. The pair universe
size counts one unordered pair per user per item pair in that user's click
list, i.e. sum over users of c_u choose 2.

The co-count matrix XᵀX is symmetric, and so is the PPMI: both are kept with
both triangles stored, as the product returns them, and the PPMI is computed
in place over every stored pair, so its scratch memory is a few arrays of one
number per pair. (i,j) and (j,i) take the same float product, so the two
triangles hold the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .sparse import CsrMatrix


@dataclass
class CoCounts:
    """Click counts: per-item user counts and per-pair co-click counts (i≠j)."""

    item_counts: np.ndarray         # int64, #(i) = distinct users who clicked i
    pair_counts: CsrMatrix          # int64, #(i,j); symmetric, both triangles, no diagonal
    total_pairs: int                # sum_u c_u * (c_u - 1) / 2

    @property
    def n_items(self) -> int:
        return self.pair_counts.shape[0]


@dataclass
class PpmiMatrix:
    """Sparse symmetric matrix of strictly positive PMI values, zero diagonal."""

    matrix: CsrMatrix               # float64, symmetric, both triangles stored

    @property
    def n_items(self) -> int:
        return self.matrix.shape[0]


def cooccurrence_counts(clicks: CsrMatrix) -> CoCounts:
    """Count distinct-user clicks per item and co-clicks per item pair of the
    click matrix; only where entries are stored matters, not their values."""
    m = clicks.shape[1]
    item_counts = np.bincount(clicks.indices, minlength=m)
    per_user = np.diff(clicks.indptr).astype(np.int64)  # c_u² would overflow int32
    total_pairs = int((per_user * (per_user - 1) // 2).sum())
    co = replace(clicks, data=np.ones(clicks.nnz, dtype=np.int64)).gram()
    pair_counts = co.select(co.row_ids() != co.indices)
    return CoCounts(item_counts=item_counts, pair_counts=pair_counts, total_pairs=total_pairs)


def build_ppmi(counts: CoCounts) -> PpmiMatrix:
    """Clip log(#(i,j)·|pairs| / (#(i)·#(j))) at zero; keep strictly positive entries.

    Pairs that never co-occur, and pairs whose PMI is zero or negative, are
    simply absent (stored zeros would break the strict-positivity contract).
    `pair_counts` must store no diagonal entry and as many entries above the
    diagonal as below it (ValidationError), as `cooccurrence_counts` gives.
    """
    if counts.total_pairs <= 0:
        raise ValidationError("no co-click signal: no user clicked two or more items")
    pairs = counts.pair_counts
    rows, cols = pairs.row_ids(), pairs.indices
    above, on = int(np.count_nonzero(rows < cols)), int(np.count_nonzero(rows == cols))
    if on or 2 * above != pairs.nnz:
        raise ValidationError("pair counts must be symmetric with an empty diagonal; they "
                              f"store {above} entries above the diagonal, "
                              f"{pairs.nnz - above - on} below it and {on} on it")
    # single-ratio log keeps PMI exactly 0.0 when #(i,j)·|D| == #(i)·#(j)
    pmi = pairs.data.astype(np.float64)
    pmi *= float(counts.total_pairs)
    item_counts = counts.item_counts.astype(np.float64)
    denom = item_counts[rows]
    del rows                        # each n_pairs-long temporary goes before the next comes
    denom *= item_counts[cols]
    pmi /= denom
    del denom
    np.log(pmi, out=pmi)
    return PpmiMatrix(matrix=replace(pairs, data=pmi).select(pmi > 0))
