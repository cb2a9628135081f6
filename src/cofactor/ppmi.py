"""Item-item positive pointwise mutual information of a click matrix.

The clicks are the users × items CsrMatrix X whose stored entries are the
clicks; being canonical, a row names each item once. Two items co-occur when
the same user clicked both, and the pair universe counts Σ_u c_u(c_u−1)/2
unordered pairs. `build_ppmi` is the whole build: the co-count product XᵀX,
symmetric with both triangles stored, takes its PMI in place over every
stored entry, so scratch memory is a few arrays of one number per entry; one
selection then drops the diagonal and every PMI that is not positive. (i,j)
and (j,i) take the same float product, so the two triangles hold the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .sparse import CsrMatrix


@dataclass
class PpmiMatrix:
    """Sparse symmetric matrix of strictly positive PMI values, zero diagonal."""

    matrix: CsrMatrix               # float64, symmetric, both triangles stored

    @property
    def n_items(self) -> int:
        return self.matrix.shape[0]


def build_ppmi(clicks: CsrMatrix) -> PpmiMatrix:
    """Clip log(#(i,j)·|pairs| / (#(i)·#(j))) at zero; keep strictly positive entries.

    #(i) counts the users who clicked item i, #(i,j) those who clicked both
    i ≠ j; only where the clicks are stored matters, not their values. Pairs
    that never co-occur, and pairs whose PMI is zero or negative, are simply
    absent (stored zeros would break the strict-positivity contract).
    """
    per_user = np.diff(clicks.indptr).astype(np.int64)  # c_u² would overflow int32
    total_pairs = int((per_user * (per_user - 1) // 2).sum())
    if total_pairs <= 0:
        raise ValidationError("no co-click signal: no user clicked two or more items")
    item_counts = np.bincount(clicks.indices, minlength=clicks.shape[1]).astype(np.float64)
    co = replace(clicks, data=np.ones(clicks.nnz, dtype=np.int64)).gram()
    # single-ratio log keeps PMI exactly 0.0 when #(i,j)·|D| == #(i)·#(j)
    pmi = co.data.astype(np.float64)
    co = replace(co, data=pmi)      # drops the integer counts
    rows, cols = co.row_ids(), co.indices
    pmi *= float(total_pairs)
    denom = item_counts[rows]
    keep = rows != cols
    del rows                        # each n_pairs-long temporary goes before the next comes
    denom *= item_counts[cols]
    pmi /= denom
    del denom
    np.log(pmi, out=pmi)
    keep &= pmi > 0
    return PpmiMatrix(matrix=co.select(keep))
