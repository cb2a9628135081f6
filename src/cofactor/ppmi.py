"""Item-item positive pointwise mutual information from co-click counts.

Two items co-occur when the same user clicked both. The pair universe size
counts one unordered pair per user per item pair in that user's click list,
i.e. sum over users of c_u choose 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np
import scipy.sparse as sp

from .corpus import ClickDataset
from .errors import ParseError, ValidationError


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

    @property
    def n_pairs(self) -> int:
        """Number of stored unordered pairs."""
        return self.matrix.nnz // 2

    def neighbors(self, item: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices j with s(item, j) > 0 and the corresponding values."""
        start, end = self.matrix.indptr[item], self.matrix.indptr[item + 1]
        return self.matrix.indices[start:end], self.matrix.data[start:end]


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


def export_ppmi(ppmi: PpmiMatrix, sink: IO[str]) -> int:
    """Write one `i j value` line per stored pair (i<j), 17 significant digits."""
    coo = ppmi.matrix.tocoo()
    n_written = 0
    order = np.lexsort((coo.col, coo.row))
    for idx in order:
        i, j, v = int(coo.row[idx]), int(coo.col[idx]), float(coo.data[idx])
        if i < j:
            sink.write(f"{i} {j} {v:.17g}\n")
            n_written += 1
    return n_written


def import_ppmi(source: IO[str], n_items: int) -> PpmiMatrix:
    """Inverse of export_ppmi; round-trips values bit-exactly.

    Each unordered pair may appear once, with a finite positive value.
    """
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    seen: dict[tuple[int, int], int] = {}
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'i j value', got {line!r}", line_no)
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError(f"bad entry {line!r}", line_no) from None
        if not 0 <= i < n_items or not 0 <= j < n_items or i == j:
            raise ValidationError(f"line {line_no}: pair ({i}, {j}) out of range")
        if not np.isfinite(v) or v <= 0:
            raise ValidationError(f"line {line_no}: value must be finite and positive, "
                                  f"got {v}")
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise ValidationError(
                f"line {line_no}: pair ({i}, {j}) already given on line {seen[pair]}")
        seen[pair] = line_no
        rows.extend((i, j))
        cols.extend((j, i))
        vals.extend((v, v))
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n_items, n_items))
    return PpmiMatrix(n_items=n_items, matrix=matrix)


def save_ppmi(ppmi: PpmiMatrix, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        export_ppmi(ppmi, fh)


def load_ppmi(path: str | Path, n_items: int) -> PpmiMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return import_ppmi(fh, n_items)
